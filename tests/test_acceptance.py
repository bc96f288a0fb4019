"""Acceptance suite: one test per criterion, run with ``pytest -v`` to get
one pass/fail line each. Criteria that need the WordNet 3.0 noun database
are skipped unless WORDNET_DIR points at a dict directory containing
data.noun and index.noun.
"""

import math
import random
import time

import pytest

from taxsim.evaluation import embedded_rg30, emit_report, pearson, run_benchmark
from taxsim.ic import ic_hybrid_table, ic_sanchez, ic_seco
from taxsim.similarity import MEASURES, word_similarity
from taxsim.wordnet import load_wordnet

from conftest import (
    needs_wordnet,
    oracle_ancestors,
    oracle_undirected_bfs,
    random_dag,
    random_tree,
    wordnet_dir,
)
from test_kernels import wordnet_shaped_dag
from test_wordnet import render_taxonomy


@pytest.fixture(scope="module")
def wn():
    directory = wordnet_dir()
    if directory is None:
        pytest.skip("WordNet 3.0 data not available")
    start = time.perf_counter()
    taxonomy, index = load_wordnet(directory)
    elapsed = time.perf_counter() - start
    return taxonomy, index, elapsed


@pytest.fixture(scope="module")
def shaped(tmp_path_factory):
    """A WordNet-shaped DAG of C5's size, written as data.noun and
    index.noun and loaded back the way `wn` loads WordNet: the DAG, the
    loaded taxonomy and its load time."""
    dag = wordnet_shaped_dag(random.Random(127), 4000, multi_share=0.03)
    data, index = render_taxonomy(
        dag, {s.lemmas[0]: [sid] for sid, s in dag.synsets.items()})
    directory = tmp_path_factory.mktemp("wordnet_shaped")
    (directory / "data.noun").write_text(data, encoding="utf-8")
    (directory / "index.noun").write_text(index, encoding="utf-8")
    start = time.perf_counter()
    taxonomy, _ = load_wordnet(str(directory))
    return dag, taxonomy, time.perf_counter() - start


@needs_wordnet
def test_c1_path_measure_anchors(wn):
    taxonomy, index, _ = wn
    start = time.perf_counter()
    assert word_similarity(taxonomy, index, "wup", "hill", "mound").value == \
        pytest.approx(1.0, abs=1e-4)
    assert word_similarity(taxonomy, index, "lch", "midday", "noon").value == \
        pytest.approx(3.6889, abs=1e-4)
    assert word_similarity(taxonomy, index, "lch", "hill", "mound").value == \
        pytest.approx(3.6889, abs=1e-4)
    assert word_similarity(taxonomy, index, "wup", "autograph", "shore").value == \
        pytest.approx(0.3077, abs=1e-4)
    assert time.perf_counter() - start < 10.0


@needs_wordnet
def test_c2_correlation_reproduction(wn):
    taxonomy, index, _ = wn
    report = run_benchmark(
        taxonomy, index, embedded_rg30(),
        [("wup", None), ("lch", None), ("new", None)])
    assert 0.63 <= report.r["wup"] <= 0.73
    assert 0.74 <= report.r["lch"] <= 0.84
    # the comprehensive measure must beat Wu-Palmer in the same run
    assert report.r["new"] >= report.r["wup"]


def test_c3_oracle_equivalence():
    start = time.perf_counter()
    rng = random.Random(101)
    for _ in range(100):
        t = random_dag(rng, rng.randint(2, 200), max_parents=2)
        ids = list(t.synsets)
        for sid in ids:
            assert t.subsumer_count(sid) == len(oracle_ancestors(t, sid))
        for _ in range(15):
            c1, c2 = rng.choice(ids), rng.choice(ids)
            assert t.shortest_path_edges(c1, c2) == oracle_undirected_bfs(t, c1, c2)
            if c1 == c2:
                assert t.lcs(c1, c2) == c1
                continue
            common = oracle_ancestors(t, c1) & oracle_ancestors(t, c2)
            assert t.depth(t.lcs(c1, c2)) == max(t.depth(c) for c in common)
    assert time.perf_counter() - start < 30.0


def _check_ic_endpoints(taxonomy):
    tables = {
        "seco": ic_seco(taxonomy),
        "sanchez": ic_sanchez(taxonomy),
        "hybrid": ic_hybrid_table(taxonomy),
    }
    for name, table in tables.items():
        assert table[taxonomy.root] == 0.0, name
        for sid, synset in taxonomy.synsets.items():
            for parent in synset.hypernyms:
                assert table[sid] >= table[parent], (name, sid)
    seco = tables["seco"]
    assert [sid for sid in taxonomy.synsets if seco[sid] == 1.0] == taxonomy.leaves()


def test_c4_ic_endpoints_random_trees():
    rng = random.Random(103)
    for _ in range(20):
        _check_ic_endpoints(random_tree(rng, rng.randint(2, 150)))


@needs_wordnet
def test_c4_ic_endpoints_wordnet(wn):
    taxonomy, _, _ = wn
    _check_ic_endpoints(taxonomy)


def test_c4_ic_endpoints_wordnet_shaped(shaped):
    _, taxonomy, _ = shaped
    _check_ic_endpoints(taxonomy)


def _check_measure_invariants(taxonomy, pairs):
    ids = list(taxonomy.synsets)
    tables = {"seco": ic_seco(taxonomy), "hybrid": ic_hybrid_table(taxonomy)}
    m = taxonomy.max_subsumer_count
    eps = math.log((m + 1) / m)
    bounds = {
        "wup": (0.0, 1.0),
        "lin": (0.0, 1.0),
        "jcn_norm": (0.0, 1.0),
        "lch": (0.0, math.log(2 * taxonomy.max_depth)),
        "new": (0.0, math.log(2 * math.log(m) / eps)),
    }
    identical_new = MEASURES["new"](taxonomy, ids[0], ids[0]).value
    for measure in MEASURES.values():
        ic = tables.get(measure.ic_model)
        lo, hi = bounds.get(measure.name, (0.0, math.inf))
        for c1, c2 in pairs:
            forward = measure(taxonomy, c1, c2, ic=ic).value
            assert forward == measure(taxonomy, c2, c1, ic=ic).value
            assert lo - 1e-12 <= forward <= hi + 1e-12
            if measure.name == "new" and c1 != c2:
                assert forward < identical_new


@needs_wordnet
def test_c5_measure_invariants_10k_pairs(wn):
    taxonomy, _, _ = wn
    rng = random.Random(107)
    ids = list(taxonomy.synsets)
    pairs = [(rng.choice(ids), rng.choice(ids)) for _ in range(10_000)]
    _check_measure_invariants(taxonomy, pairs)


def test_c5_measure_invariants_wordnet_shaped():
    # the WordNet-gated check's symmetry and bounds, for all 8 measures, on
    # a synthetic taxonomy of the same shape: deep single-parent subtrees
    # and about 3 % multi-parent nodes
    rng = random.Random(113)
    taxonomy = wordnet_shaped_dag(rng, 4000, multi_share=0.03)
    ids = list(taxonomy.synsets)
    pairs = [(rng.choice(ids), rng.choice(ids)) for _ in range(2000)]
    pairs += [(sid, sid) for sid in ids[:20]]
    _check_measure_invariants(taxonomy, pairs)


def test_c6_pearson_correctness():
    def oracle(x, y):
        n = len(x)
        mx, my = sum(x) / n, sum(y) / n
        num = sum((a - mx) * (b - my) for a, b in zip(x, y))
        dx = sum((a - mx) ** 2 for a in x)
        dy = sum((b - my) ** 2 for b in y)
        return num / math.sqrt(dx * dy)

    rng = random.Random(109)
    for _ in range(1000):
        n = rng.randint(2, 200)
        x = [rng.uniform(-50, 50) for _ in range(n)]
        y = [rng.uniform(-50, 50) for _ in range(n)]
        assert pearson(x, y) == pytest.approx(oracle(x, y), abs=1e-12)
        assert pearson(x, x) == pytest.approx(1.0, abs=1e-12)
        a = rng.uniform(0.1, 10.0)
        b = rng.uniform(-10.0, 10.0)
        mapped = [a * v + b for v in x]
        assert pearson(mapped, y) == pytest.approx(pearson(x, y), abs=1e-12)


@needs_wordnet
def test_c7_parser_integrity(wn):
    taxonomy, index, load_seconds = wn
    assert len(taxonomy) == 82_115
    root = taxonomy.synsets[taxonomy.root]
    assert "entity" in root.lemmas
    assert taxonomy.max_depth == 20
    # dangling references would have raised IntegrityError at build time;
    # re-assert the invariant explicitly over the raw records
    for synset in taxonomy.synsets.values():
        for h in synset.hypernyms:
            assert h in taxonomy
    assert load_seconds < 5.0


def test_c7_parser_integrity_wordnet_shaped(shaped):
    # C7's structural checks on a loaded synthetic dictionary; its load
    # bound is C7's 5 s for WordNet's 82,115 synsets, scaled by node count
    dag, taxonomy, load_seconds = shaped
    assert len(taxonomy) == len(dag) == 4000
    assert dag.synsets[dag.root].lemmas[0] in taxonomy.synsets[taxonomy.root].lemmas
    assert taxonomy.max_depth == dag.max_depth
    for synset in taxonomy.synsets.values():
        for h in synset.hypernyms:
            assert h in taxonomy
    assert load_seconds < 5.0 * len(taxonomy) / 82_115


@needs_wordnet
def test_c8_range_statistics(wn):
    taxonomy, index, _ = wn
    report = run_benchmark(taxonomy, index, embedded_rg30(), [("wup", None)])
    text = emit_report(report, "tsv")
    range_row = next(line for line in text.splitlines() if line.startswith("range\t"))
    cells = range_row.split("\t")
    assert float(cells[2]) == pytest.approx(3.82, abs=1e-9)
    assert float(cells[3]) == pytest.approx(0.6923, abs=1e-4)
