import io
import math
import random

import pytest

from taxsim.errors import (
    InvalidCombinationError,
    OutOfVocabularyError,
    UnknownSynsetError,
    UnusableModelError,
)
from taxsim.ic import MODELS, ic_hybrid_table, ic_seco, make_table
from taxsim.similarity import (
    DISTANCE,
    MEASURES,
    SIMILARITY,
    best_sense_pair,
    get_measure,
    word_similarity,
)
from taxsim.taxonomy import Synset, Taxonomy
from taxsim.wordnet import FrequencyTable, load_tsv_taxonomy, load_wordnet

from conftest import T7_TSV, random_dag
from test_kernels import wordnet_shaped_dag
from test_wordnet import render_taxonomy

LN = math.log


class TestResnik:
    def test_against_root_is_zero(self, t7):
        seco = ic_seco(t7)
        for sid in t7.synsets:
            assert MEASURES["resnik"](t7, sid, "R", ic=seco).value == 0.0

    def test_t7_value(self, t7):
        seco = ic_seco(t7)
        expected = 1 - LN(3) / LN(7)  # IC_seco(C)
        assert MEASURES["resnik"](t7, "E", "F", ic=seco).value == pytest.approx(
            expected, abs=1e-12)

    def test_self_is_own_ic(self, t7):
        seco = ic_seco(t7)
        for sid in t7.synsets:
            assert MEASURES["resnik"](t7, sid, sid, ic=seco).value == seco[sid]


class TestJcn:
    def test_self_distance_zero(self, t7):
        hyb = ic_hybrid_table(t7)
        assert MEASURES["jcn_dist"](t7, "E", "E", ic=hyb).value == 0.0

    def test_t7_hybrid_value(self, t7):
        hyb = ic_hybrid_table(t7)
        expected = LN(4) + LN(4) - 2 * LN(3)
        assert MEASURES["jcn_dist"](t7, "E", "F", ic=hyb).value == pytest.approx(
            expected, abs=1e-12)

    def test_symmetry(self, t7):
        hyb = ic_hybrid_table(t7)
        for c1 in t7.synsets:
            for c2 in t7.synsets:
                assert (MEASURES["jcn_dist"](t7, c1, c2, ic=hyb).value
                        == MEASURES["jcn_dist"](t7, c2, c1, ic=hyb).value)


class TestJcnNorm:
    def test_self_is_one(self, t7):
        seco = ic_seco(t7)
        assert MEASURES["jcn_norm"](t7, "E", "E", ic=seco).value == 1.0

    def test_t7_value_equals_lcs_ic_for_leaves(self, t7):
        seco = ic_seco(t7)
        assert MEASURES["jcn_norm"](t7, "E", "F", ic=seco).value == pytest.approx(
            seco["C"], abs=1e-12)

    def test_maximally_distant_leaves(self):
        # two leaves directly under the root: dist = 2, sim = 0
        t = Taxonomy([
            Synset("R", ("r",)),
            Synset("A", ("a",), hypernyms=("R",)),
            Synset("B", ("b",), hypernyms=("R",)),
        ])
        assert MEASURES["jcn_norm"](t, "A", "B", ic=ic_seco(t)).value == 0.0

    def test_rejects_non_normalized_ic(self, t7):
        with pytest.raises(InvalidCombinationError):
            MEASURES["jcn_norm"](t7, "E", "F", ic=ic_hybrid_table(t7))


class TestLin:
    def test_self_is_one(self, t7):
        hyb = ic_hybrid_table(t7)
        assert MEASURES["lin"](t7, "E", "E", ic=hyb).value == 1.0

    def test_root_pair_convention(self, t7):
        assert MEASURES["lin"](t7, "R", "R", ic=ic_hybrid_table(t7)).value == 0.0

    def test_t7_hybrid_value(self, t7):
        hyb = ic_hybrid_table(t7)
        expected = 2 * LN(3) / (LN(4) + LN(4))
        assert MEASURES["lin"](t7, "E", "F", ic=hyb).value == pytest.approx(expected, abs=1e-12)


class TestRada:
    def test_self_zero(self, t7):
        assert MEASURES["rada_dist"](t7, "E", "E").value == 0.0

    def test_t7_value(self, t7):
        assert MEASURES["rada_dist"](t7, "E", "B").value == 4.0


class TestWup:
    def test_self_is_one(self, t7):
        for sid in t7.synsets:
            assert MEASURES["wup"](t7, sid, sid).value == 1.0

    def test_t7_value(self, t7):
        assert MEASURES["wup"](t7, "E", "F").value == pytest.approx(0.75, abs=1e-12)


class TestLch:
    def test_t7_value(self, t7):
        assert MEASURES["lch"](t7, "E", "F").value == pytest.approx(-LN(3 / 8), abs=1e-12)

    def test_identical_pair_uses_single_node_path(self, t7):
        assert MEASURES["lch"](t7, "E", "E").value == pytest.approx(-LN(1 / 8), abs=1e-12)

    def test_monotone_in_path_length(self, t7):
        # same max_depth, longer path => strictly smaller score
        assert MEASURES["lch"](t7, "E", "F").value > MEASURES["lch"](t7, "E", "B").value


class TestSimNew:
    def test_t7_value(self, t7):
        d = 2 * LN(4) - 2 * LN(3)
        expected = LN(2 * LN(4) / d)
        assert MEASURES["new"](t7, "E", "F").value == pytest.approx(expected, abs=1e-12)

    def test_identical_pair_floored_and_maximal(self, t7):
        eps = LN(5 / 4)
        expected = LN(2 * LN(4) / eps)
        identical = MEASURES["new"](t7, "E", "E").value
        assert identical == pytest.approx(expected, abs=1e-12)
        for c1 in t7.synsets:
            for c2 in t7.synsets:
                if c1 != c2 and t7.ancestors(c1) != t7.ancestors(c2):
                    assert MEASURES["new"](t7, c1, c2).value < identical

    def test_degenerate_taxonomy_rejected(self):
        t = Taxonomy([Synset("R", ("r",))])
        with pytest.raises(UnusableModelError):
            MEASURES["new"](t, "R", "R")

    def test_d_term_matches_hybrid_jcn_before_flooring(self):
        rng = random.Random(37)
        for _ in range(5):
            t = random_dag(rng, rng.randint(3, 80))
            m = t.max_subsumer_count
            if m < 2:
                continue
            hyb = ic_hybrid_table(t)
            eps = LN((m + 1) / m)
            ids = list(t.synsets)
            for _ in range(30):
                c1, c2 = rng.choice(ids), rng.choice(ids)
                d = max(MEASURES["jcn_dist"](t, c1, c2, ic=hyb).value, eps)
                expected = LN(2 * LN(m) / d)
                assert MEASURES["new"](t, c1, c2).value == pytest.approx(expected, abs=1e-9)

    def test_log_base_change_preserves_word_score_order(self, t7, t7_index):
        # recompute the measure with base-2 logs everywhere; the ranking of
        # word pairs must not change
        def sim_new_base2(t, c1, c2):
            m = t.max_subsumer_count
            eps = math.log2((m + 1) / m)
            d = (math.log2(t.subsumer_count(c1)) + math.log2(t.subsumer_count(c2))
                 - 2 * math.log2(t.subsumer_count(t.lcs(c1, c2))))
            return math.log2(2 * math.log2(m) / max(d, eps))

        pairs = [(a, b) for a in t7.synsets for b in t7.synsets if a <= b]
        natural = [MEASURES["new"](t7, *p).value for p in pairs]
        base2 = [sim_new_base2(t7, *p) for p in pairs]
        # no strict rank inversion (ties may resolve either way in floats)
        for i in range(len(pairs)):
            for j in range(len(pairs)):
                if natural[i] < natural[j] - 1e-9:
                    assert base2[i] < base2[j] + 1e-9


class TestWordSimilarity:
    def test_monosemous_pair(self, t7, t7_index):
        single = word_similarity(t7, t7_index, "wup", "e", "f")
        assert single.value == MEASURES["wup"](t7, "E", "F").value

    def test_same_lemma_wup_is_one(self, t7, t7_index):
        assert word_similarity(t7, t7_index, "wup", "x", "x").value == 1.0

    def test_max_over_sense_pairs(self, t7, t7_index):
        # "x" binds {E, D}, "y" binds {F}: max(wup(E,F)=0.75, wup(D,F)=4/7)
        assert word_similarity(t7, t7_index, "wup", "x", "y").value == pytest.approx(0.75)

    def test_min_over_sense_pairs_for_distances(self, t7, t7_index):
        score = word_similarity(t7, t7_index, "rada_dist", "x", "y")
        assert score.value == min(
            MEASURES["rada_dist"](t7, "E", "F").value, MEASURES["rada_dist"](t7, "D", "F").value)

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


def brute_force_best(taxonomy, index, measure, w1, w2, ic):
    """best_sense_pair's answer from the id-level measure over every sense
    pair: the maximum (minimum for a distance), the first pair in sense
    order on a tie."""
    best = None
    for c1 in index.senses(w1):
        for c2 in index.senses(w2):
            s = measure(taxonomy, c1, c2, ic=ic)
            if best is None or (s.value < best[0].value if measure.kind == DISTANCE
                                else s.value > best[0].value):
                best = (s, c1, c2)
    return best


def assert_matches_brute_force(taxonomy, index):
    """Score and winning pair of every word pair of index, all 8 measures."""
    for measure in MEASURES.values():
        ic = make_table(taxonomy, measure.ic_model) if measure.ic_model else None
        for w1 in index.entries:
            for w2 in index.entries:
                assert best_sense_pair(taxonomy, index, measure, w1, w2, ic=ic) == \
                    brute_force_best(taxonomy, index, measure, w1, w2, ic), \
                    (measure.name, w1, w2)


@pytest.fixture(scope="module")
def shaped_dictionary(tmp_path_factory):
    """C4 and C7's 4,000-node WordNet-shaped data.noun with an index.noun of
    60 lemmas of 1 to 3 senses, where a second sense is the first one's
    hypernym when it has one, loaded back."""
    dag = wordnet_shaped_dag(random.Random(127), 4000, multi_share=0.03)
    rng = random.Random(131)
    ids = list(dag.synsets)
    senses = {}
    for k in range(60):
        sids = rng.sample(ids, rng.randint(1, 3))
        hypernyms = dag.synsets[sids[0]].hypernyms
        if len(sids) > 1 and hypernyms and hypernyms[0] not in sids:
            sids[1] = hypernyms[0]
        senses[f"w{k:02d}"] = sids
    data, index = render_taxonomy(dag, senses)
    directory = tmp_path_factory.mktemp("shaped_polysemous")
    (directory / "data.noun").write_text(data, encoding="utf-8")
    (directory / "index.noun").write_text(index, encoding="utf-8")
    return load_wordnet(str(directory))


class TestBestSensePair:
    """best_sense_pair against a loop over the id-level measures."""

    def test_t7_matches_brute_force(self, t7_both):
        assert_matches_brute_force(*t7_both)

    def test_t7_index_from_another_load_matches_brute_force(self, t7, t7_index):
        assert t7_index.taxonomy is not t7
        assert_matches_brute_force(t7, t7_index)

    def test_wordnet_shaped_matches_brute_force(self, shaped_dictionary):
        assert_matches_brute_force(*shaped_dictionary)

    def test_index_over_renumbered_load(self, t7_both):
        # the same taxonomy with its nodes in another order: the index's
        # node indices are mapped by id
        t7, index = t7_both
        lines = T7_TSV.splitlines(keepends=True)
        renumbered, _ = load_tsv_taxonomy(io.StringIO("".join(reversed(lines))))
        assert list(renumbered.synsets) != list(t7.synsets)
        for measure in MEASURES.values():
            ic = make_table(renumbered, measure.ic_model) if measure.ic_model else None
            assert best_sense_pair(renumbered, index, measure, "x", "y", ic=ic) == \
                brute_force_best(renumbered, index, measure, "x", "y", ic)

    @pytest.mark.parametrize("name", sorted(MEASURES))
    def test_taxonomy_without_a_sense_raises(self, t7_index, name):
        # T7 without E, which "x" binds first
        lines = [line for line in T7_TSV.splitlines(keepends=True) if "E" not in line]
        other, _ = load_tsv_taxonomy(io.StringIO("".join(lines)))
        ic = make_table(other, MEASURES[name].ic_model) if MEASURES[name].ic_model else None
        with pytest.raises(UnknownSynsetError) as exc:
            best_sense_pair(other, t7_index, name, "x", "y", ic=ic)
        assert str(exc.value) == "unknown synset id: 'E'"

    @pytest.mark.parametrize("words", [("zzz", "y"), ("y", "zzz")])
    def test_oov_raises_before_missing_ic(self, t7_both, words):
        with pytest.raises(OutOfVocabularyError, match="zzz"):
            best_sense_pair(*t7_both, "lin", *words)

    def test_senses_list_is_a_copy(self, t7_both):
        t7, index = t7_both
        before = best_sense_pair(t7, index, "wup", "x", "y")
        senses = index.senses("x")
        senses.reverse()
        senses.append("R")
        assert index.senses("x") == ["E", "D"]
        assert best_sense_pair(t7, index, "wup", "x", "y") == before


class TestScalarContracts:
    """Scores and IC values are plain Python floats: a numpy scalar in a
    Score would print as np.float64(...) under numpy 2."""

    @pytest.mark.parametrize("name", sorted(MEASURES))
    def test_word_score_is_float(self, t7, t7_index, name):
        measure = MEASURES[name]
        ic = make_table(t7, measure.ic_model) if measure.ic_model else None
        for w1 in t7_index.entries:
            for w2 in t7_index.entries:
                score = word_similarity(t7, t7_index, measure, w1, w2, ic=ic)
                assert type(score.value) is float, (w1, w2)

    @pytest.mark.parametrize("model", MODELS)
    def test_ic_value_is_float(self, t7, t7_index, model):
        table = make_table(t7, model, index=t7_index, frequencies=FrequencyTable({"e": 3}))
        assert all(type(table[sid]) is float for sid in t7.synsets)

    @pytest.mark.parametrize("name", sorted(MEASURES))
    @pytest.mark.parametrize("pair", [("nope", "E"), ("E", "nope")])
    def test_unknown_id_is_named(self, t7, name, pair):
        measure = MEASURES[name]
        ic = make_table(t7, measure.ic_model) if measure.ic_model else None
        with pytest.raises(UnknownSynsetError) as exc:
            measure(t7, *pair, ic=ic)
        assert str(exc.value) == "unknown synset id: 'nope'"


class TestMeasureInvariants:
    @staticmethod
    def _tables(t):
        return {"seco": ic_seco(t), "hybrid": ic_hybrid_table(t)}

    def _ic_for(self, measure, tables):
        return tables.get(measure.ic_model)

    def test_symmetry_exact(self):
        rng = random.Random(41)
        for _ in range(3):
            t = random_dag(rng, rng.randint(3, 60))
            tables = self._tables(t)
            ids = list(t.synsets)
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
            for c in t.synsets:
                own = measure(t, c, c, ic=ic).value
                for d in t.synsets:
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
        ids = list(t.synsets)
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
