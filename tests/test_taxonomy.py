import random

import pytest

from taxsim.errors import IntegrityError, StructureError, UnknownSynsetError
from taxsim.taxonomy import Synset, Taxonomy

from conftest import (
    oracle_ancestors,
    oracle_undirected_bfs,
    oracle_undirected_down_depth,
    random_dag,
    random_tree,
)


class TestAncestors:
    def test_root_has_only_itself(self, t7):
        assert t7.ancestors("R") == {"R"}

    def test_unique_path_in_tree(self, t7):
        assert t7.ancestors("E") == {"E", "C", "A", "R"}

    def test_contains_self_and_root_everywhere(self, t7):
        for sid in t7.synsets:
            anc = t7.ancestors(sid)
            assert sid in anc and "R" in anc

    def test_matches_reachability_oracle_on_random_dags(self):
        rng = random.Random(7)
        for _ in range(20):
            t = random_dag(rng, rng.randint(2, 200))
            for sid in t.synsets:
                assert t.ancestors(sid) == oracle_ancestors(t, sid)

    def test_unknown_id(self, t7):
        with pytest.raises(UnknownSynsetError):
            t7.ancestors("nope")


class TestSubsumerCount:
    def test_root(self, t7):
        assert t7.subsumer_count("R") == 1

    def test_e_has_four(self, t7):
        assert t7.subsumer_count("E") == 4

    def test_one_only_for_root(self, t7):
        for sid in t7.synsets:
            assert (t7.subsumer_count(sid) == 1) == (sid == "R")

    def test_matches_oracle_cardinality(self):
        rng = random.Random(11)
        for _ in range(10):
            t = random_dag(rng, rng.randint(2, 150))
            for sid in t.synsets:
                assert t.subsumer_count(sid) == len(oracle_ancestors(t, sid))


class TestHyponymCount:
    def test_leaf(self, t7):
        assert t7.hyponym_count("E") == 0

    def test_root_counts_everything_else(self, t7):
        assert t7.hyponym_count("R") == 6

    def test_inner_node(self, t7):
        assert t7.hyponym_count("A") == 4

    def test_counts_distinct_descendants_on_dags(self):
        rng = random.Random(13)
        for _ in range(10):
            t = random_dag(rng, rng.randint(2, 100))
            for sid in t.synsets:
                descendants = sum(
                    1 for other in t.synsets
                    if other != sid and sid in oracle_ancestors(t, other)
                )
                assert t.hyponym_count(sid) == descendants


class TestDepth:
    def test_root_is_one(self, t7):
        assert t7.depth("R") == 1

    def test_leaf_depth(self, t7):
        assert t7.depth("E") == 4

    def test_multiple_inheritance_takes_minimum(self):
        # T7 plus an extra F -> B edge: F now reachable in 3 nodes via B
        synsets = [
            Synset("R", ("r",)),
            Synset("A", ("a",), hypernyms=("R",)),
            Synset("B", ("b",), hypernyms=("R",)),
            Synset("C", ("c",), hypernyms=("A",)),
            Synset("D", ("d",), hypernyms=("A",)),
            Synset("E", ("e",), hypernyms=("C",)),
            Synset("F", ("f",), hypernyms=("C", "B")),
        ]
        t = Taxonomy(synsets)
        assert t.depth("F") == 3
        assert t.depth("E") == 4

    def test_matches_bfs_oracle(self):
        rng = random.Random(17)
        for _ in range(10):
            t = random_dag(rng, rng.randint(2, 150))
            depths = oracle_undirected_down_depth(t)
            for sid in t.synsets:
                assert t.depth(sid) == depths[sid]

    def test_unknown_id_message(self, t7):
        with pytest.raises(UnknownSynsetError) as exc:
            t7.depth("nope")
        assert str(exc.value) == "unknown synset id: 'nope'"

    def test_max_depth(self, t7):
        assert t7.max_depth == 4
        assert max(t7.depth(sid) for sid in t7.synsets) == 4


class TestLcs:
    def test_shared_parent(self, t7):
        assert t7.lcs("E", "F") == "C"

    def test_self(self, t7):
        for sid in t7.synsets:
            assert t7.lcs(sid, sid) == sid

    def test_depth_matches_intersection_oracle(self):
        rng = random.Random(19)
        for _ in range(10):
            t = random_dag(rng, rng.randint(2, 100))
            ids = list(t.synsets)
            for _ in range(50):
                c1, c2 = rng.choice(ids), rng.choice(ids)
                if c1 == c2:
                    assert t.lcs(c1, c2) == c1
                    continue
                common = oracle_ancestors(t, c1) & oracle_ancestors(t, c2)
                assert t.depth(t.lcs(c1, c2)) == max(t.depth(c) for c in common)

    def test_memo_matches_oracle_under_eviction(self):
        # 100 nodes give 5,050 unordered pairs, more than the memo holds, so
        # the second pass runs after evictions
        rng = random.Random(23)
        t = random_dag(rng, 100, max_parents=3)
        ids = list(t.synsets)
        depth = oracle_undirected_down_depth(t)
        ancestors = {c: oracle_ancestors(t, c) for c in ids}

        def oracle_lcs(c1, c2):
            if c1 == c2:  # documented: a node is its own lcs
                return c1
            return min(ancestors[c1] & ancestors[c2],
                       key=lambda c: (-depth[c], -len(ancestors[c]), c))

        pairs = [(a, b) for a in ids for b in ids]
        for _ in range(2):
            for a, b in pairs:
                assert t.lcs(a, b) == oracle_lcs(a, b), (a, b)
            info = t._lcs.cache_info()
            assert info.currsize == info.maxsize < len(pairs) // 2

    def test_id_breaks_tie_against_index_order(self):
        # Z is loaded before Y, so it has the smaller node index; both are
        # common parents of P and Q with equal depth and subsumer count, and
        # the smaller id wins
        t = Taxonomy([Synset("R", ("r",)), Synset("Z", ("z",), ("R",)),
                      Synset("Y", ("y",), ("R",)), Synset("P", ("p",), ("Z", "Y")),
                      Synset("Q", ("q",), ("Z", "Y"))])
        assert t.lcs("P", "Q") == "Y"
        assert list(t.synsets)[t._lcs.__wrapped__(t._index("P"), t._index("Q"))] == "Y"

    def test_depth_bounded_by_arguments(self, t7):
        for c1 in t7.synsets:
            for c2 in t7.synsets:
                lcs = t7.lcs(c1, c2)
                assert t7.depth(lcs) <= min(t7.depth(c1), t7.depth(c2))


@pytest.mark.parametrize("query", ["lcs", "shortest_path_edges"])
@pytest.mark.parametrize("pair", [("nope", "E"), ("E", "nope")])
def test_pair_query_names_unknown_id(t7, query, pair):
    with pytest.raises(UnknownSynsetError) as exc:
        getattr(t7, query)(*pair)
    assert str(exc.value) == "unknown synset id: 'nope'"


class TestShortestPath:
    def test_zero_iff_same(self, t7):
        assert t7.shortest_path_edges("E", "E") == 0
        assert t7.shortest_path_edges("E", "F") > 0

    def test_cross_branch(self, t7):
        assert t7.shortest_path_edges("E", "B") == 4

    def test_symmetry_and_oracle(self):
        rng = random.Random(23)
        for _ in range(10):
            t = random_dag(rng, rng.randint(2, 200))
            ids = list(t.synsets)
            for _ in range(40):
                c1, c2 = rng.choice(ids), rng.choice(ids)
                d = t.shortest_path_edges(c1, c2)
                assert d == t.shortest_path_edges(c2, c1)
                assert d == oracle_undirected_bfs(t, c1, c2)

    def test_through_lcs_upper_bound(self, t7):
        for c1 in t7.synsets:
            for c2 in t7.synsets:
                lcs_depth = t7.depth(t7.lcs(c1, c2))
                bound = (t7.depth(c1) - lcs_depth) + (t7.depth(c2) - lcs_depth)
                assert t7.shortest_path_edges(c1, c2) <= bound

    def test_triangle_inequality(self, t7):
        ids = list(t7.synsets)
        for a in ids:
            for b in ids:
                for c in ids:
                    assert t7.shortest_path_edges(a, c) <= (
                        t7.shortest_path_edges(a, b) + t7.shortest_path_edges(b, c)
                    )


class TestInvariants:
    def test_subsumers_at_least_depth(self):
        rng = random.Random(29)
        for _ in range(10):
            t = random_dag(rng, rng.randint(2, 100))
            for sid in t.synsets:
                assert t.subsumer_count(sid) >= t.depth(sid)

    def test_subsumers_equal_depth_on_trees(self):
        rng = random.Random(31)
        for _ in range(10):
            t = random_tree(rng, rng.randint(2, 100))
            for sid in t.synsets:
                assert t.subsumer_count(sid) == t.depth(sid)

    def test_determinism(self, t7):
        pairs = [(a, b) for a in t7.synsets for b in t7.synsets]
        first = [(t7.lcs(a, b), t7.shortest_path_edges(a, b)) for a, b in pairs]
        second = [(t7.lcs(a, b), t7.shortest_path_edges(a, b)) for a, b in pairs]
        assert first == second


class TestArrayBuild:
    """Every cache the level-by-level build fills, node by node, against the
    brute-force oracles."""

    @staticmethod
    def check_against_oracles(t):
        ids = list(t.synsets)
        depths = oracle_undirected_down_depth(t)
        ancestors = {sid: oracle_ancestors(t, sid) for sid in ids}
        for sid in ids:
            descendants = sum(1 for other in ids
                              if other != sid and sid in ancestors[other])
            assert t.ancestors(sid) == ancestors[sid]
            assert t.depth(sid) == depths[sid]
            assert t.subsumer_count(sid) == len(ancestors[sid])
            assert t.hyponym_count(sid) == descendants
            assert t._is_leaf[t._index(sid)] == (descendants == 0)

    @pytest.mark.parametrize("max_parents", [1, 2, 3])
    def test_random_dags(self, max_parents):
        rng = random.Random(37 + max_parents)
        for _ in range(8):
            self.check_against_oracles(
                random_dag(rng, rng.randint(2, 120), max_parents=max_parents))

    @pytest.mark.parametrize("n", [1, 2])
    def test_one_and_two_nodes(self, n):
        t = random_dag(random.Random(41), n)
        self.check_against_oracles(t)
        assert t.shortest_path_edges(t.root, list(t.synsets)[-1]) == n - 1

    def test_parent_listed_twice(self):
        synsets = [
            Synset("R", ("r",)),
            Synset("A", ("a",), hypernyms=("R", "R")),
            Synset("B", ("b",), hypernyms=("A", "R", "A")),
            Synset("C", ("c",), hypernyms=("B",)),
        ]
        t = Taxonomy(synsets)
        self.check_against_oracles(t)
        for a in t.synsets:
            for b in t.synsets:
                assert t.shortest_path_edges(a, b) == oracle_undirected_bfs(t, a, b)
        # the records keep what they list; a link listed twice counts once
        assert t.synsets["B"].hypernyms == ("A", "R", "A")
        assert "B" in t.synsets and "zz" not in t.synsets and t.synsets.get("zz") is None
        assert (t.edge_count, t.multi_parent_count, t.core_count) == (4, 1, 3)


class TestValidation:
    def test_duplicate_id_rejected(self):
        synsets = [
            Synset("R", ("r",)),
            Synset("A", ("a",), hypernyms=("R",)),
            Synset("A", ("b",), hypernyms=("R",)),
        ]
        with pytest.raises(StructureError, match="duplicate synset id 'A'"):
            Taxonomy(synsets)

    def test_cycle_detached_from_root_rejected(self):
        synsets = [
            Synset("R", ("r",)),
            Synset("A", ("a",), hypernyms=("B",)),
            Synset("B", ("b",), hypernyms=("A",)),
        ]
        with pytest.raises(StructureError, match="cycle"):
            Taxonomy(synsets)

    def test_unknown_hypernym_names_first_bad_synset(self):
        synsets = [
            Synset("R", ("r",)),
            Synset("A", ("a",), hypernyms=("R",)),
            Synset("B", ("b",), hypernyms=("R", "X")),
            Synset("C", ("c",), hypernyms=("Y",)),
        ]
        with pytest.raises(IntegrityError,
                           match="synset 'B' references unknown hypernym 'X'"):
            Taxonomy(synsets)

    def test_cycle_rejected(self):
        synsets = [
            Synset("R", ("r",)),
            Synset("A", ("a",), hypernyms=("B",)),
            Synset("B", ("b",), hypernyms=("A", "R")),
        ]
        with pytest.raises(StructureError):
            Taxonomy(synsets)

    def test_two_roots_rejected(self):
        synsets = [Synset("R1", ("a",)), Synset("R2", ("b",))]
        with pytest.raises(StructureError):
            Taxonomy(synsets)

    def test_self_loop_rejected(self):
        synsets = [
            Synset("R", ("r",)),
            Synset("A", ("a",), hypernyms=("R",)),
            Synset("B", ("b",), hypernyms=("A", "B")),
        ]
        with pytest.raises(StructureError,
                           match="^synset 'B' lists itself as hypernym$"):
            Taxonomy(synsets)

    def test_empty_lemmas_rejected(self):
        with pytest.raises(StructureError, match="^synset 'A' has no lemmas$"):
            Taxonomy([Synset("R", ("r",)), Synset("A", (), hypernyms=("R",))])

    def test_empty_taxonomy_rejected(self):
        with pytest.raises(StructureError, match="empty taxonomy"):
            Taxonomy([])
