import io
import math
import random

import pytest
from hypothesis import given, strategies as st

from taxsim.errors import OutOfVocabularyError, ParseError, UndefinedCorrelationError
from taxsim.evaluation import (
    embedded_rg30,
    emit_report,
    load_dataset_tsv,
    pearson,
    range_stat,
    run_benchmark,
)
from taxsim.ic import ic_hybrid_table, ic_seco


def pearson_oracle(x, y):
    """Independent two-pass implementation for cross-checking."""
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    num = 0.0
    dx2 = 0.0
    dy2 = 0.0
    for a, b in zip(x, y):
        num += (a - mx) * (b - my)
        dx2 += (a - mx) ** 2
        dy2 += (b - my) ** 2
    return num / math.sqrt(dx2 * dy2)


finite_floats = st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False, allow_infinity=False)


class TestPearson:
    def test_self_correlation_is_one(self):
        v = [1.0, 2.5, 3.0, 7.0]
        assert pearson(v, v) == pytest.approx(1.0, abs=1e-12)

    def test_perfect_negative(self):
        assert pearson([1, 2, 3], [6, 4, 2]) == pytest.approx(-1.0, abs=1e-12)

    def test_matches_oracle_on_random_vectors(self):
        rng = random.Random(51)
        for _ in range(200):
            n = rng.randint(2, 1000)
            x = [rng.uniform(-100, 100) for _ in range(n)]
            y = [rng.uniform(-100, 100) for _ in range(n)]
            assert pearson(x, y) == pytest.approx(pearson_oracle(x, y), abs=1e-12)

    def test_symmetry(self):
        rng = random.Random(53)
        x = [rng.random() for _ in range(50)]
        y = [rng.random() for _ in range(50)]
        assert pearson(x, y) == pytest.approx(pearson(y, x), abs=1e-15)

    @given(st.lists(finite_floats, min_size=3, max_size=50),
           st.floats(min_value=0.01, max_value=100),
           st.floats(min_value=-100, max_value=100))
    def test_affine_invariance(self, x, a, b):
        y = [2.0 * v + 1.0 for v in x]
        mapped = [a * v + b for v in x]
        if len(set(x)) < 2 or len(set(y)) < 2 or len(set(mapped)) < 2:
            return
        assert pearson(mapped, y) == pytest.approx(pearson(x, y), abs=1e-9)

    def test_spread_of_a_few_ulps(self):
        # exactly affine inputs whose spread is one or two ulps of 1.0
        x = [1.0, 1.0, 1.0 + 2.0 ** -52]
        y = [1.0, 1.0, 1.0 + 2.0 ** -51]
        assert pearson(x, y) == pytest.approx(1.0, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            pearson([1, 2], [1, 2, 3])

    def test_constant_vector(self):
        with pytest.raises(UndefinedCorrelationError):
            pearson([1.0, 1.0, 1.0], [1, 2, 3])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_input(self, bad):
        with pytest.raises(UndefinedCorrelationError):
            pearson([1.0, 2.0, bad], [1, 2, 3])
        with pytest.raises(UndefinedCorrelationError):
            pearson([1, 2, 3], [bad, 2.0, 1.0])


class TestLoadDatasetTsv:
    def test_reads_pairs_and_skips_comments_and_blanks(self):
        ds = load_dataset_tsv(io.StringIO("# w1 w2 r\n\na\tb\t1.5\n c \td\t2\n"),
                              name="mine")
        assert ds.name == "mine"
        assert ds.pairs == (("a", "b", 1.5), ("c", "d", 2.0))

    @pytest.mark.parametrize("text, line", [
        ("a\tb\t1.0\na\tb\n", 2),
        ("a\tb\t1.0\t9\n", 1),
        ("# c\n\na\tb\thigh\n", 3),
        ("a\tb\tnan\n", 1),
        ("a\tb\t1.0\na\tb\t-inf\n", 2),
    ])
    def test_bad_line_names_its_number(self, text, line):
        with pytest.raises(ParseError) as info:
            load_dataset_tsv(io.StringIO(text))
        assert info.value.line_number == line


class TestRangeStat:
    def test_simple(self):
        assert range_stat([0.06, 3.88, 1.0]) == pytest.approx(3.82)

    def test_constant(self):
        assert range_stat([2.0, 2.0]) == 0.0

    def test_permutation_invariant(self):
        rng = random.Random(57)
        v = [rng.random() for _ in range(30)]
        shuffled = v[:]
        rng.shuffle(shuffled)
        assert range_stat(v) == range_stat(shuffled)

    def test_empty(self):
        with pytest.raises(ValueError):
            range_stat([])


class TestEmbeddedRg30:
    def test_thirty_pairs(self):
        assert len(embedded_rg30().pairs) == 30

    def test_first_and_last_rows(self):
        pairs = embedded_rg30().pairs
        assert pairs[0] == ("autograph", "shore", 0.06)
        assert pairs[-1] == ("magician", "wizard", 3.50)

    def test_ratings_in_scale(self):
        assert all(0.0 <= r <= 4.0 for _, _, r in embedded_rg30().pairs)

    def test_human_range(self):
        ratings = [r for _, _, r in embedded_rg30().pairs]
        assert range_stat(ratings) == pytest.approx(3.82)


class TestRunBenchmark:
    @staticmethod
    def t7_dataset():
        return load_dataset_tsv(io.StringIO(
            "e\tf\t3.0\n"
            "e\tb\t0.5\n"
            "x\ty\t2.0\n"
            "c\td\t1.0\n"
        ), name="t7mini")

    def test_identical_column_gives_r_one(self, t7_both):
        t, idx = t7_both
        # wup scores correlated against themselves via a crafted dataset:
        # instead, check r == 1 when human ratings equal the machine scores
        from taxsim.similarity import word_similarity
        base = self.t7_dataset()
        scores = [word_similarity(t, idx, "wup", w1, w2).value
                  for w1, w2, _ in base.pairs]
        from taxsim.evaluation import BenchmarkDataset
        ds = BenchmarkDataset("selfmatch", tuple(
            (w1, w2, s) for (w1, w2, _), s in zip(base.pairs, scores)))
        report = run_benchmark(t, idx, ds, [("wup", None)])
        assert report.r["wup"] == pytest.approx(1.0, abs=1e-12)

    def test_distance_measure_correlates_negatively_here(self, t7_both):
        t, idx = t7_both
        report = run_benchmark(t, idx, self.t7_dataset(), [("rada_dist", None)])
        assert report.r["rada_dist"] < 0

    def test_oov_strict_raises(self, t7_both):
        t, idx = t7_both
        ds = load_dataset_tsv(io.StringIO("e\tzzz\t1.0\ne\tf\t2.0\nx\ty\t0.5\n"))
        with pytest.raises(OutOfVocabularyError):
            run_benchmark(t, idx, ds, [("wup", None)])

    def test_oov_skip_policy(self, t7_both):
        t, idx = t7_both
        ds = load_dataset_tsv(io.StringIO(
            "e\tzzz\t1.0\ne\tf\t2.0\ne\tb\t0.5\nx\ty\t1.5\n"))
        report = run_benchmark(t, idx, ds, [("wup", None)], skip_oov=True)
        assert report.skipped == [("e", "zzz")]
        assert len(report.pairs) == 3

    def test_deterministic_reports(self, t7_both):
        t, idx = t7_both
        measures = [("wup", None), ("new", None), ("lin", ic_hybrid_table(t))]
        r1 = emit_report(run_benchmark(t, idx, self.t7_dataset(), measures))
        r2 = emit_report(run_benchmark(t, idx, self.t7_dataset(), measures))
        assert r1 == r2


class TestEmitReport:
    @staticmethod
    def report(t, idx):
        ds = TestRunBenchmark.t7_dataset()
        return run_benchmark(t, idx, ds, [("wup", None), ("jcn_norm", ic_seco(t))])

    def test_tsv_structure(self, t7_both):
        t, idx = t7_both
        text = emit_report(self.report(t, idx), "tsv")
        lines = text.strip().split("\n")
        assert lines[0] == "word1\tword2\thuman\twup\tjcn_norm"
        assert len(lines) == 1 + 4 + 2
        assert lines[-2].startswith("range\t")
        assert lines[-1].startswith("r\t")

    def test_tsv_round_trip_pearson(self, t7_both):
        t, idx = t7_both
        report = self.report(t, idx)
        lines = emit_report(report, "tsv").strip().split("\n")
        header = lines[0].split("\t")
        col = header.index("wup")
        human = [float(row.split("\t")[2]) for row in lines[1:-2]]
        scores = [float(row.split("\t")[col]) for row in lines[1:-2]]
        stored_r = float(lines[-1].split("\t")[col])
        assert pearson(scores, human) == pytest.approx(stored_r, abs=1e-4)

    def test_csv_parses(self, t7_both):
        import csv

        t, idx = t7_both
        text = emit_report(self.report(t, idx), "csv")
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["word1", "word2", "human", "wup", "jcn_norm"]
        assert len(rows) == 7

    def test_pretty_has_no_crash_and_aligns_header(self, t7_both):
        t, idx = t7_both
        text = emit_report(self.report(t, idx), "pretty")
        assert "word1" in text and "range" in text

    def test_four_decimal_formatting(self, t7_both):
        t, idx = t7_both
        text = emit_report(self.report(t, idx), "tsv")
        cell = text.strip().split("\n")[1].split("\t")[3]
        assert len(cell.split(".")[1]) == 4
