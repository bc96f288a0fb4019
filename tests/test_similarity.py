import math
import random

import pytest

from taxsim.errors import InvalidCombinationError, OutOfVocabularyError, UnusableModelError
from taxsim.ic import ic_hybrid_table, ic_seco
from taxsim.similarity import (
    DISTANCE,
    MEASURES,
    SIMILARITY,
    best_sense_pair,
    dist_jcn,
    dist_rada,
    get_measure,
    sim_jcn_norm,
    sim_lch,
    sim_lin,
    sim_new,
    sim_resnik,
    sim_wup,
    word_similarity,
)
from taxsim.taxonomy import Synset, build_taxonomy

from conftest import random_dag

LN = math.log


class TestResnik:
    def test_against_root_is_zero(self, t7):
        seco = ic_seco(t7)
        for sid in t7.ids():
            assert sim_resnik(t7, seco, sid, "R").value == 0.0

    def test_t7_value(self, t7):
        seco = ic_seco(t7)
        expected = 1 - LN(3) / LN(7)  # IC_seco(C)
        assert sim_resnik(t7, seco, "E", "F").value == pytest.approx(expected, abs=1e-12)

    def test_self_is_own_ic(self, t7):
        seco = ic_seco(t7)
        for sid in t7.ids():
            assert sim_resnik(t7, seco, sid, sid).value == seco[sid]


class TestJcn:
    def test_self_distance_zero(self, t7):
        hyb = ic_hybrid_table(t7)
        assert dist_jcn(t7, hyb, "E", "E").value == 0.0

    def test_t7_hybrid_value(self, t7):
        hyb = ic_hybrid_table(t7)
        expected = LN(4) + LN(4) - 2 * LN(3)
        assert dist_jcn(t7, hyb, "E", "F").value == pytest.approx(expected, abs=1e-12)

    def test_symmetry(self, t7):
        hyb = ic_hybrid_table(t7)
        for c1 in t7.ids():
            for c2 in t7.ids():
                assert dist_jcn(t7, hyb, c1, c2).value == dist_jcn(t7, hyb, c2, c1).value


class TestJcnNorm:
    def test_self_is_one(self, t7):
        seco = ic_seco(t7)
        assert sim_jcn_norm(t7, seco, "E", "E").value == 1.0

    def test_t7_value_equals_lcs_ic_for_leaves(self, t7):
        seco = ic_seco(t7)
        assert sim_jcn_norm(t7, seco, "E", "F").value == pytest.approx(
            seco["C"], abs=1e-12)

    def test_maximally_distant_leaves(self):
        # two leaves directly under the root: dist = 2, sim = 0
        t = build_taxonomy([
            Synset("R", ("r",)),
            Synset("A", ("a",), hypernyms=("R",)),
            Synset("B", ("b",), hypernyms=("R",)),
        ])
        assert sim_jcn_norm(t, ic_seco(t), "A", "B").value == 0.0

    def test_rejects_non_normalized_ic(self, t7):
        with pytest.raises(InvalidCombinationError):
            sim_jcn_norm(t7, ic_hybrid_table(t7), "E", "F")


class TestLin:
    def test_self_is_one(self, t7):
        hyb = ic_hybrid_table(t7)
        assert sim_lin(t7, hyb, "E", "E").value == 1.0

    def test_root_pair_convention(self, t7):
        assert sim_lin(t7, ic_hybrid_table(t7), "R", "R").value == 0.0

    def test_t7_hybrid_value(self, t7):
        hyb = ic_hybrid_table(t7)
        expected = 2 * LN(3) / (LN(4) + LN(4))
        assert sim_lin(t7, hyb, "E", "F").value == pytest.approx(expected, abs=1e-12)


class TestRada:
    def test_self_zero(self, t7):
        assert dist_rada(t7, "E", "E").value == 0.0

    def test_t7_value(self, t7):
        assert dist_rada(t7, "E", "B").value == 4.0


class TestWup:
    def test_self_is_one(self, t7):
        for sid in t7.ids():
            assert sim_wup(t7, sid, sid).value == 1.0

    def test_t7_value(self, t7):
        assert sim_wup(t7, "E", "F").value == pytest.approx(0.75, abs=1e-12)


class TestLch:
    def test_t7_value(self, t7):
        assert sim_lch(t7, "E", "F").value == pytest.approx(-LN(3 / 8), abs=1e-12)

    def test_identical_pair_uses_single_node_path(self, t7):
        assert sim_lch(t7, "E", "E").value == pytest.approx(-LN(1 / 8), abs=1e-12)

    def test_monotone_in_path_length(self, t7):
        # same max_depth, longer path => strictly smaller score
        assert sim_lch(t7, "E", "F").value > sim_lch(t7, "E", "B").value


class TestSimNew:
    def test_t7_value(self, t7):
        d = 2 * LN(4) - 2 * LN(3)
        expected = LN(2 * LN(4) / d)
        assert sim_new(t7, "E", "F").value == pytest.approx(expected, abs=1e-12)

    def test_identical_pair_floored_and_maximal(self, t7):
        eps = LN(5 / 4)
        expected = LN(2 * LN(4) / eps)
        identical = sim_new(t7, "E", "E").value
        assert identical == pytest.approx(expected, abs=1e-12)
        for c1 in t7.ids():
            for c2 in t7.ids():
                if c1 != c2 and t7.ancestors(c1) != t7.ancestors(c2):
                    assert sim_new(t7, c1, c2).value < identical

    def test_degenerate_taxonomy_rejected(self):
        t = build_taxonomy([Synset("R", ("r",))])
        with pytest.raises(UnusableModelError):
            sim_new(t, "R", "R")

    def test_d_term_matches_hybrid_jcn_before_flooring(self):
        rng = random.Random(37)
        for _ in range(5):
            t = random_dag(rng, rng.randint(3, 80))
            m = t.max_subsumer_count
            if m < 2:
                continue
            hyb = ic_hybrid_table(t)
            eps = LN((m + 1) / m)
            ids = t.ids()
            for _ in range(30):
                c1, c2 = rng.choice(ids), rng.choice(ids)
                d = max(dist_jcn(t, hyb, c1, c2).value, eps)
                expected = LN(2 * LN(m) / d)
                assert sim_new(t, c1, c2).value == pytest.approx(expected, abs=1e-9)

    def test_log_base_change_preserves_word_score_order(self, t7, t7_index):
        # recompute the measure with base-2 logs everywhere; the ranking of
        # word pairs must not change
        def sim_new_base2(t, c1, c2):
            m = t.max_subsumer_count
            eps = math.log2((m + 1) / m)
            d = (math.log2(t.subsumer_count(c1)) + math.log2(t.subsumer_count(c2))
                 - 2 * math.log2(t.subsumer_count(t.lcs(c1, c2))))
            return math.log2(2 * math.log2(m) / max(d, eps))

        pairs = [(a, b) for a in t7.ids() for b in t7.ids() if a <= b]
        natural = [sim_new(t7, *p).value for p in pairs]
        base2 = [sim_new_base2(t7, *p) for p in pairs]
        # no strict rank inversion (ties may resolve either way in floats)
        for i in range(len(pairs)):
            for j in range(len(pairs)):
                if natural[i] < natural[j] - 1e-9:
                    assert base2[i] < base2[j] + 1e-9


class TestWordSimilarity:
    def test_monosemous_pair(self, t7, t7_index):
        single = word_similarity(t7, t7_index, "wup", "e", "f")
        assert single.value == sim_wup(t7, "E", "F").value

    def test_same_lemma_wup_is_one(self, t7, t7_index):
        assert word_similarity(t7, t7_index, "wup", "x", "x").value == 1.0

    def test_max_over_sense_pairs(self, t7, t7_index):
        # "x" binds {E, D}, "y" binds {F}: max(wup(E,F)=0.75, wup(D,F)=4/7)
        assert word_similarity(t7, t7_index, "wup", "x", "y").value == pytest.approx(0.75)

    def test_min_over_sense_pairs_for_distances(self, t7, t7_index):
        score = word_similarity(t7, t7_index, "rada_dist", "x", "y")
        assert score.value == min(
            dist_rada(t7, "E", "F").value, dist_rada(t7, "D", "F").value)

    def test_oov_names_the_lemma(self, t7, t7_index):
        with pytest.raises(OutOfVocabularyError, match="zzz"):
            word_similarity(t7, t7_index, "wup", "zzz", "y")

    def test_missing_ic_rejected(self, t7, t7_index):
        with pytest.raises(InvalidCombinationError):
            word_similarity(t7, t7_index, "lin", "x", "y")

    def test_explain_returns_winning_pair(self, t7, t7_index):
        score, c1, c2 = best_sense_pair(t7, t7_index, "wup", "x", "y")
        assert score.value == pytest.approx(0.75)
        assert (c1, c2) == ("E", "F")
        assert t7.lcs(c1, c2) == "C"

    @pytest.mark.parametrize("name", ["wup", "rada_dist"])
    def test_best_sense_pair_tie_goes_to_first_pair(self, t7, t7_index, name):
        # "x" binds {E, D}: (E, E) and (D, D) tie at the best score
        score, c1, c2 = best_sense_pair(t7, t7_index, name, "x", "x")
        assert score == get_measure(name)(t7, "D", "D")
        assert (c1, c2) == ("E", "E")


class TestMeasureInvariants:
    @staticmethod
    def _tables(t):
        return {"seco": ic_seco(t), "hybrid": ic_hybrid_table(t)}

    def _ic_for(self, measure, tables):
        if not measure.needs_ic:
            return None
        return tables["seco"] if measure.name == "jcn_norm" else tables["hybrid"]

    def test_symmetry_exact(self):
        rng = random.Random(41)
        for _ in range(3):
            t = random_dag(rng, rng.randint(3, 60))
            tables = self._tables(t)
            ids = t.ids()
            for measure in MEASURES.values():
                ic = self._ic_for(measure, tables)
                for _ in range(25):
                    c1, c2 = rng.choice(ids), rng.choice(ids)
                    assert measure(t, c1, c2, ic=ic).value == measure(t, c2, c1, ic=ic).value

    def test_identity_extremality_exhaustive(self):
        rng = random.Random(43)
        t = random_dag(rng, 50)
        tables = self._tables(t)
        for measure in MEASURES.values():
            if measure.kind == DISTANCE:
                continue
            ic = self._ic_for(measure, tables)
            for c in t.ids():
                own = measure(t, c, c, ic=ic).value
                for d in t.ids():
                    assert own >= measure(t, c, d, ic=ic).value - 1e-12

    def test_range_bounds(self):
        rng = random.Random(47)
        t = random_dag(rng, 80)
        tables = self._tables(t)
        m = t.max_subsumer_count
        eps = LN((m + 1) / m)
        bounds = {
            "wup": (0.0, 1.0),
            "lin": (0.0, 1.0),
            "jcn_norm": (0.0, 1.0),
            "lch": (0.0, LN(2 * t.max_depth)),
            "new": (0.0, LN(2 * LN(m) / eps)),
        }
        ids = t.ids()
        for name, (lo, hi) in bounds.items():
            measure = get_measure(name)
            ic = self._ic_for(measure, tables)
            for _ in range(200):
                c1, c2 = rng.choice(ids), rng.choice(ids)
                v = measure(t, c1, c2, ic=ic).value
                assert lo - 1e-12 <= v <= hi + 1e-12

    def test_kinds(self):
        assert MEASURES["rada_dist"].kind == DISTANCE
        assert MEASURES["jcn_dist"].kind == DISTANCE
        for name in ("resnik", "jcn_norm", "lin", "wup", "lch", "new"):
            assert MEASURES[name].kind == SIMILARITY

    def test_unknown_measure(self):
        with pytest.raises(InvalidCombinationError):
            get_measure("bogus")
