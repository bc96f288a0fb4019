"""Checks on the package source and its declarations, not on its results."""

import ast
import io
import pathlib

import pytest

from taxsim import ic
from taxsim.cli import _measure_tables, build_parser
from taxsim.similarity import MEASURES
from taxsim.wordnet import load_tsv_taxonomy

from conftest import T7_TSV

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "taxsim"


def unused_imports(tree):
    """Names bound by an import in tree that no Name node reads."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_import_check_finds_one():
    tree = ast.parse("import os\nimport sys\nfrom a.b import c as d\nprint(sys.argv)\n")
    assert unused_imports(tree) == [(1, "os"), (3, "d")]


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py"))
                                  if p.name != "__init__.py"]
                         + sorted(TESTS.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert unused_imports(tree) == []


def test_measure_ic_models_are_known():
    for measure in MEASURES.values():
        assert measure.ic_model is None or measure.ic_model in ic.MODELS


def test_scoring_reads_frozen_views():
    # the measures, the lcs and the path search read per-node arrays one
    # entry at a time through read-only memoryviews: shared across threads,
    # never written, and never copied into a list
    taxonomy, _ = load_tsv_taxonomy(io.StringIO(T7_TSV))
    *lcs_arrays, ids = taxonomy._lcs.__wrapped__.args
    *path_arrays, neighbours = taxonomy._path.__wrapped__.args
    assert ids is taxonomy._ids
    assert isinstance(neighbours, list)
    views = lcs_arrays + path_arrays + [ic.make_table(taxonomy, m).values()
                                        for m in ("seco", "sanchez", "hybrid")]
    for view in views:
        assert isinstance(view, memoryview) and view.readonly


@pytest.mark.parametrize("name", [m.name for m in MEASURES.values() if m.ic_model])
def test_ic_measure_scores_with_its_own_model(name):
    taxonomy, index = load_tsv_taxonomy(io.StringIO(T7_TSV))
    args = build_parser().parse_args(["sim", "x", "y", "--measure", name])
    [(resolved, table)] = _measure_tables(args, [name], taxonomy, index)
    assert resolved == name
    assert table.model == MEASURES[name].ic_model
    ids = taxonomy.ids()
    for c1 in ids:
        for c2 in ids:
            MEASURES[name](taxonomy, c1, c2, ic=table)
