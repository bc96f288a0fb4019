"""Checks on the package source and its declarations, not on its results."""

import ast
import collections
import importlib
import io
import pathlib
import random
import re
import sys

import pytest

from taxsim import cli, evaluation, ic, similarity, taxonomy, wordnet
from taxsim.cli import _measure_tables, build_parser
from taxsim.similarity import MEASURES
from taxsim.taxonomy import Synset, SynsetMap, Taxonomy
from taxsim.wordnet import load_frequencies, load_tsv_taxonomy, load_wordnet, parse_data_noun

from conftest import T7_TSV, path_memo
from test_kernels import wordnet_shaped_dag
from test_wordnet import render_taxonomy

TESTS = pathlib.Path(__file__).resolve().parent
ROOT = TESTS.parent
SRC = ROOT / "src" / "taxsim"
PYTHON_FILES = sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))


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


@pytest.mark.parametrize("path", PYTHON_FILES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert unused_imports(tree) == []


def unused_locals(tree):
    """(line, name) of each plain ``name = value`` in a function whose name
    nothing in that function reads. Tuple targets and names that start with
    ``_`` are exempt, and so are names declared global or nonlocal."""
    found = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        kept = {node.id for node in ast.walk(func)
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
        kept.update(name for node in ast.walk(func)
                    if isinstance(node, (ast.Global, ast.Nonlocal)) for name in node.names)
        # the function's own statements: a nested scope is checked on its own
        stack = list(func.body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
                                 ast.Lambda)):
                continue
            stack.extend(ast.iter_child_nodes(node))
            if isinstance(node, ast.Assign):
                found += [(node.lineno, target.id) for target in node.targets
                          if isinstance(target, ast.Name)
                          and not target.id.startswith("_") and target.id not in kept]
    return sorted(found)


def test_unused_local_check_finds_one():
    tree = ast.parse(
        "def f():\n"
        "    a = 1\n"
        "    b = c = 2\n"
        "    d, e = 3, 4\n"
        "    _f = 5\n"
        "    def g():\n"
        "        h = b\n"
        "    class K:\n"
        "        i = 6\n"
        "    return g, K\n")
    assert unused_locals(tree) == [(2, "a"), (3, "c"), (7, "h")]


@pytest.mark.parametrize("path", PYTHON_FILES, ids=lambda p: p.name)
def test_no_unused_locals(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert unused_locals(tree) == []


def unreferenced_private_names(trees):
    """(module, name) of each module-level ``_name`` (a def, a class or an
    assigned name) in trees, a map of module name to ast, that nothing in
    trees reads outside its own definition: as a name, as an attribute or
    in an import. A read of the same name in any module counts."""
    def reads(node):
        for sub in ast.walk(node):
            if isinstance(sub, (ast.Name, ast.Attribute)) and not isinstance(sub.ctx, ast.Store):
                yield sub.id if isinstance(sub, ast.Name) else sub.attr
            elif isinstance(sub, ast.alias):
                yield sub.name

    everywhere = collections.Counter(name for tree in trees.values() for name in reads(tree))
    found = []
    for module, tree in trees.items():
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [target.id for target in targets if isinstance(target, ast.Name)]
            else:
                continue
            inside = collections.Counter(reads(stmt))
            found += [(module, name) for name in names
                      if name.startswith("_") and not name.startswith("__")
                      and everywhere[name] == inside[name]]
    return sorted(found)


def test_unreferenced_private_name_check_finds_one():
    trees = {"a": ast.parse("_used = 1\n_unread = 2\n__all__ = []\n"
                            "def _recursive(n):\n    return _recursive(n - 1)\n"
                            "class _Imported:\n    pass\n"),
             "b": ast.parse("from a import _Imported\nx = _used\nobj._attr = 3\n_attr = 4\n")}
    assert unreferenced_private_names(trees) == [("a", "_recursive"), ("a", "_unread"),
                                                 ("b", "_attr")]


def test_no_unreferenced_private_names():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    assert unreferenced_private_names(trees) == []


def line_prefixed_fstrings(tree):
    """Line numbers of the f-strings in tree that start with ``line {``."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.JoinedStr) and len(node.values) > 1
            and isinstance(node.values[0], ast.Constant)
            and node.values[0].value == "line "
            and isinstance(node.values[1], ast.FormattedValue)]


def test_line_prefix_check_finds_one():
    tree = ast.parse('a = f"line {n}: x"\nb = f"(line {n})"\nc = f"line count {n}"\n')
    assert line_prefixed_fstrings(tree) == [1]


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py"))
                                  if p.name != "errors.py"], ids=lambda p: p.name)
def test_line_numbers_reach_messages_through_errors(path):
    # errors.TaxonomyError writes the "line N: " prefix from line_number=
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert line_prefixed_fstrings(tree) == []


def test_measure_ic_models_are_known():
    for measure in MEASURES.values():
        assert measure.ic_model is None or measure.ic_model in ic.MODELS


def test_scoring_reads_frozen_views():
    # the measures, the lcs and the path search read per-node arrays one
    # entry at a time through read-only memoryviews: shared across threads,
    # never written, and never copied into a list
    taxonomy, _ = load_tsv_taxonomy(io.StringIO(T7_TSV))
    *lcs_arrays, ids = taxonomy._lcs.__wrapped__.args
    memo = path_memo(taxonomy)
    assert ids is taxonomy._ids
    assert memo.longest == 2 * taxonomy.max_depth - 2
    *branch_arrays, width = memo.tables()
    assert width == taxonomy.branch_count and len(branch_arrays[-1]) == width ** 2
    views = (lcs_arrays + [memo.up, memo.anchor, memo.hang, memo.core_indptr,
                           memo.core_indices] + branch_arrays
             + [ic.make_table(taxonomy, m).values() for m in ("seco", "sanchez", "hybrid")])
    for view in views:
        assert isinstance(view, memoryview) and view.readonly


@pytest.mark.parametrize("name", [m.name for m in MEASURES.values() if m.ic_model])
def test_ic_measure_scores_with_its_own_model(name):
    taxonomy, index = load_tsv_taxonomy(io.StringIO(T7_TSV))
    args = build_parser().parse_args(["sim", "x", "y", "--measure", name])
    [(resolved, table)] = _measure_tables(args, [name], taxonomy, index)
    assert resolved == name
    assert table.model == MEASURES[name].ic_model
    ids = list(taxonomy.synsets)
    for c1 in ids:
        for c2 in ids:
            MEASURES[name](taxonomy, c1, c2, ic=table)


def third_party_imports(paths, local):
    """Top-level modules imported in paths that are neither stdlib nor local."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - local


def test_declared_dependencies_are_the_imported_ones():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]

    def names(requirements):
        return {re.split(r"[\s<>=!~;\[]", req)[0] for req in requirements}

    assert third_party_imports(SRC.glob("*.py"), {"taxsim"}) == names(
        project["dependencies"])
    local = {"taxsim"} | {path.stem for path in TESTS.glob("*.py")}
    assert third_party_imports(TESTS.glob("*.py"), local) <= names(
        project["optional-dependencies"]["test"])


def test_perfbench_interface(tmp_path, monkeypatch, capsys):
    # every name the benchmark harness under perfbench/ reaches in taxsim;
    # each message names the harness file that breaks without it
    t7, index = load_tsv_taxonomy(io.StringIO(T7_TSV))
    try:
        kernels = importlib.import_module("taxsim.kernels")
    except ImportError:
        pytest.fail("run.py's environment probe and spans.py import taxsim.kernels")
    assert callable(getattr(kernels, "bfs_distance", None)) and \
        t7._path.__wrapped__.func is kernels.bfs_distance, \
        "spans.py times the path query as kernels.bfs_distance (kernels.bfs_us)"
    for module, attr in [(wordnet, "parse_data_noun"), (wordnet, "parse_index_noun"),
                         (wordnet, "load_frequencies"), (wordnet, "load_wordnet"),
                         (similarity, "word_similarity"), (evaluation, "run_benchmark"),
                         (evaluation, "pearson"), (evaluation, "emit_report"),
                         (evaluation, "embedded_rg30"), (cli, "main"),
                         (Taxonomy, "__init__"), (Taxonomy, "lcs"),
                         (Taxonomy, "shortest_path_edges")]:
        assert callable(getattr(module, attr, None)), f"spans.py traces {attr}"
    frequencies = load_frequencies(io.StringIO("e\t1\n"))
    assert ic.make_table(t7, "corpus", index=index, frequencies=frequencies), \
        "client.py informational passes index= and frequencies="
    assert type(index.senses("x")) is list, "oracle.py compares senses with a list"
    assert len(index.entries) == 9, "oracle.py counts index.entries"
    for name, measure in MEASURES.items():
        assert measure.name == name and hasattr(measure, "kind") and \
            hasattr(measure, "ic_model"), "spans.py stands in for MEASURES entries"
        table = ic.make_table(t7, measure.ic_model) if measure.ic_model else None
        assert measure(t7, "E", "D", ic=table).value is not None, \
            "client.py scores MEASURES entries"
    data = "00000001 03 n 01 entity 0 000 | root\n"
    assert len(parse_data_noun(io.StringIO(data))) == 1, "spans.py counts records"
    record = t7.synsets.get("E")
    assert (record.lemmas, record.hypernyms) == (("e",), ("C",)), \
        "oracle.py reads synsets.get(id).lemmas and .hypernyms"
    assert (len(t7), t7.max_depth, len(t7.leaves()), t7.depth("E"), t7.lcs("E", "D"),
            t7.shortest_path_edges("E", "D")) == (7, 4, 4, 4, "A", 3), \
        "oracle.py and client.py query the taxonomy"

    calls = {"run_benchmark": 0, "word_similarity": 0}

    def counted(name, func):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return func(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(evaluation, name, counted(name, getattr(evaluation, name)))
    (tmp_path / "t7.tsv").write_text(T7_TSV, encoding="utf-8")
    (tmp_path / "pairs.tsv").write_text("e\tf\t3.0\ne\tb\t0.5\nc\td\t1.0\n",
                                        encoding="utf-8")
    code = cli.main(["bench", "--taxonomy-tsv", str(tmp_path / "t7.tsv"),
                     "--dataset", str(tmp_path / "pairs.tsv")])
    capsys.readouterr()
    assert (code, calls) == (0, {"run_benchmark": 1, "word_similarity": 3 * len(MEASURES)}), \
        "clirun.py patches evaluation.run_benchmark and evaluation.word_similarity"


def test_wordnet_load_makes_no_synset_record(tmp_path, monkeypatch, capsys):
    # the load fills columns and makes a Synset only on lookup, so neither
    # the load, `info` nor the corpus IC model pays for one per record
    dag = wordnet_shaped_dag(random.Random(127), 4000, multi_share=0.03)
    data, index = render_taxonomy(dag, {s.lemmas[0]: [sid] for sid, s in dag.synsets.items()})
    (tmp_path / "data.noun").write_text(data, encoding="utf-8")
    (tmp_path / "index.noun").write_text(index, encoding="utf-8")
    made, lookups = [], []

    def counted_synset(*args, **kwargs):
        made.append(args)
        return Synset(*args, **kwargs)

    def counted_lookup(self, synset_id):
        lookups.append(synset_id)
        return lookup(self, synset_id)

    lookup = SynsetMap.__getitem__
    for module in (taxonomy, wordnet):
        monkeypatch.setattr(module, "Synset", counted_synset)
    monkeypatch.setattr(SynsetMap, "__getitem__", counted_lookup)
    load_wordnet(str(tmp_path))
    assert (made, lookups) == ([], [])
    assert cli.main(["info", "--wordnet", str(tmp_path)]) == 0
    assert f"synsets {len(dag)}" in capsys.readouterr().out.splitlines()
    assert len(made) <= 1 and len(lookups) <= 1
    (tmp_path / "counts.tsv").write_text("n0001\t5\n", encoding="utf-8")
    made.clear()
    lookups.clear()
    assert cli.main(["ic", "n0001", "--model", "corpus", "--wordnet", str(tmp_path),
                     "--frequencies", str(tmp_path / "counts.tsv")]) == 0
    assert capsys.readouterr().out.startswith("n0001\tn0001\t")
    assert len(made) <= 1 and len(lookups) <= 1
