import io
import math
import random
import warnings

import pytest

from taxsim.errors import InvalidCombinationError, UnknownSynsetError, UnusableModelError
from taxsim.ic import MODELS, ic_corpus, ic_hybrid_table, ic_sanchez, ic_seco, make_table
from taxsim.taxonomy import Synset, Taxonomy
from taxsim.wordnet import FrequencyTable, load_frequencies

from conftest import random_dag, random_tree

ALL_INTRINSIC = (ic_seco, ic_sanchez, ic_hybrid_table)


def zero_frequencies(taxonomy):
    lines = "".join(f"{s.lemmas[0]}\t0\n" for s in taxonomy.synsets.values())
    return load_frequencies(io.StringIO(lines))


class TestCorpus:
    def test_root_is_zero(self, t7):
        table = ic_corpus(t7, zero_frequencies(t7))
        assert table["R"] == 0.0

    def test_pure_smoothing_on_t7(self, t7):
        # one lemma per synset, all counts zero: Freq(E) = 1, Freq(root) = 7
        table = ic_corpus(t7, zero_frequencies(t7))
        assert table["E"] == pytest.approx(math.log(7), abs=1e-12)

    def test_monotone_child_at_least_parent(self):
        rng = random.Random(3)
        for _ in range(5):
            t = random_dag(rng, rng.randint(2, 80))
            freq_lines = "".join(
                f"{s.lemmas[0]}\t{rng.randint(0, 50)}\n" for s in t.synsets.values()
            )
            table = ic_corpus(t, load_frequencies(io.StringIO(freq_lines)))
            for sid, s in t.synsets.items():
                for parent in s.hypernyms:
                    assert table[sid] >= table[parent] - 1e-12

    def test_empty_table_unusable(self, t7):
        with pytest.raises(UnusableModelError):
            ic_corpus(t7, load_frequencies(io.StringIO("")))

    def test_non_positive_total_unusable(self, t7):
        # load_frequencies rejects negative counts; a table built in code
        # can still hold one, and smoothing alone cannot outweigh it
        with pytest.raises(UnusableModelError,
                           match="^corpus IC needs a positive total frequency$"):
            ic_corpus(t7, FrequencyTable({"r": -100}))

    @pytest.mark.parametrize("count, first", [(-1, "E"), (-5, "A")])
    def test_non_positive_subtree_unusable(self, t7, count, first):
        # the root total stays positive, but E's weight is count + 1: -1
        # zeroes E, and -5 takes C below zero and A to zero with it. The
        # first such synset in load order (A, R, B, C, D, E, F) is named,
        # before a log could warn or give inf or NaN
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UnusableModelError,
                               match=f"^corpus IC needs a positive frequency at every "
                                     f"synset; '{first}' has 0$"):
                ic_corpus(t7, FrequencyTable({"e": count}))


class TestSeco:
    def test_leaf_is_one(self, t7):
        for sid in ("B", "D", "E", "F"):
            assert ic_seco(t7)[sid] == 1.0

    def test_root_is_zero(self, t7):
        assert ic_seco(t7)["R"] == 0.0

    def test_inner_node_value(self, t7):
        expected = 1 - math.log(5) / math.log(7)
        assert ic_seco(t7)["A"] == pytest.approx(expected, abs=1e-12)

    def test_one_exactly_on_leaves_only(self):
        rng = random.Random(5)
        for _ in range(5):
            t = random_dag(rng, rng.randint(2, 100))
            table = ic_seco(t)
            assert [sid for sid in t.synsets if table[sid] == 1.0] == t.leaves()

    def test_single_node_unusable(self):
        t = Taxonomy([Synset("R", ("r",))])
        with pytest.raises(UnusableModelError):
            ic_seco(t)


class TestSanchez:
    def test_root_is_zero(self, t7):
        assert ic_sanchez(t7)["R"] == 0.0

    def test_t7_inner_value(self, t7):
        # commonness(C) = 1/4 + 1/4; commonness(root) = 1/4 + 1/4 + 1/3 + 1/2
        assert ic_sanchez(t7)["C"] == pytest.approx(math.log(8 / 3), abs=1e-12)

    def test_leaf_above_parent_when_parent_covers_more(self, t7):
        table = ic_sanchez(t7)
        assert table["E"] > table["C"]
        assert table["C"] > table["A"]


class TestHybrid:
    def test_root_is_zero(self, t7):
        assert ic_hybrid_table(t7)["R"] == 0.0

    def test_t7_leaf(self, t7):
        assert ic_hybrid_table(t7)["E"] == pytest.approx(math.log(4), abs=1e-12)

    def test_equals_log_ancestor_count(self):
        rng = random.Random(9)
        for _ in range(5):
            t = random_dag(rng, rng.randint(2, 100))
            for sid in t.synsets:
                assert ic_hybrid_table(t)[sid] == pytest.approx(
                    math.log(len(t.ancestors(sid))), abs=1e-12)

    def test_equals_log_depth_on_trees(self):
        rng = random.Random(15)
        for _ in range(5):
            t = random_tree(rng, rng.randint(2, 100))
            for sid in t.synsets:
                assert ic_hybrid_table(t)[sid] == pytest.approx(
                    math.log(t.depth(sid)), abs=1e-12)

    def test_strictly_increasing_on_tree_chains(self, t7):
        for sid, s in t7.synsets.items():
            for parent in s.hypernyms:
                assert ic_hybrid_table(t7)[sid] > ic_hybrid_table(t7)[parent]

    def test_unknown_synset(self, t7):
        with pytest.raises(UnknownSynsetError):
            ic_hybrid_table(t7)["nope"]


class TestSharedInvariants:
    @pytest.mark.parametrize("builder", ALL_INTRINSIC)
    def test_root_zero_and_edge_monotone(self, builder):
        rng = random.Random(21)
        for _ in range(8):
            t = random_dag(rng, rng.randint(2, 120))
            table = builder(t)
            assert table[t.root] == 0.0
            for sid, s in t.synsets.items():
                assert table[sid] >= 0.0
                for parent in s.hypernyms:
                    assert table[sid] >= table[parent] - 1e-12

    @pytest.mark.parametrize("builder", ALL_INTRINSIC)
    def test_normalized_flag_honest(self, builder, t7):
        table = builder(t7)
        if table.normalized:
            assert all(0.0 <= table[sid] <= 1.0 for sid in t7.synsets)

    @pytest.mark.parametrize("model", MODELS)
    def test_root_is_positive_zero(self, model, t7, t7_index):
        # the root's -log(1.0) is -0.0, which `taxsim ic` would print as -0.0000
        table = make_table(t7, model, index=t7_index, frequencies=zero_frequencies(t7))
        assert math.copysign(1.0, table[t7.root]) == 1.0


def test_make_table_dispatch(t7, t7_index):
    assert make_table(t7, "seco").model == "seco"
    assert make_table(t7, "hybrid").model == "hybrid"
    assert make_table(t7, "sanchez").model == "sanchez"
    corpus = make_table(t7, "corpus", index=t7_index,
                        frequencies=zero_frequencies(t7))
    assert corpus.model == "corpus"
    with pytest.raises(UnusableModelError):
        make_table(t7, "corpus")
    with pytest.raises(InvalidCombinationError):
        make_table(t7, "bogus")
