import random
import sys
import threading

import pytest

from taxsim.taxonomy import Synset, Taxonomy

from conftest import (oracle_branch_count, oracle_core, oracle_undirected_bfs, path_memo,
                      random_dag, random_tree)


def taxonomy_of(edges, nodes=()):
    """Taxonomy from (child, parent) edges; `nodes` adds parentless ones."""
    parents = {name: [] for name in nodes}
    for child, parent in edges:
        parents.setdefault(parent, [])
        parents.setdefault(child, []).append(parent)
    return Taxonomy(
        Synset(name, (name.lower(),), hypernyms=tuple(ps))
        for name, ps in parents.items()
    )


def chain(names):
    """(child, parent) links that hang each name under the one before it."""
    return list(zip(names[1:], names[:-1]))


def assert_all_pairs_match_oracle(t):
    ids = list(t.synsets)
    for a in ids:
        for b in ids:
            assert t.shortest_path_edges(a, b) == oracle_undirected_bfs(t, a, b), (a, b)


def wordnet_shaped_dag(rng, n, multi_share=0.04):
    """Random single-rooted DAG shaped like WordNet's noun taxonomy: about
    three quarters leaves, most nodes hung under one of the few inner nodes
    made just before them so that single-parent subtrees run deep, and
    about `multi_share` of the nodes given a second parent anywhere."""
    synsets = [Synset("n0000", ("n0000",))]
    inner = [0]
    for i in range(1, n):
        parents = {rng.choice(inner[-6:] if rng.random() < 0.6 else inner)}
        if rng.random() < multi_share:
            parents.add(rng.choice(inner))
        synsets.append(Synset(f"n{i:04d}", (f"n{i:04d}",),
                              hypernyms=tuple(f"n{p:04d}" for p in sorted(parents))))
        if rng.random() < 0.25:
            inner.append(i)
    return Taxonomy(synsets)


def peel(t):
    """The path search's core and hanging trees as synset ids: anchor id
    and hang per id, and the core ids with their core neighbour ids."""
    memo = path_memo(t)
    indptr, indices = memo.core_indptr, memo.core_indices
    ids = list(t.synsets)
    core = [ids[u] for u in range(len(ids)) if memo.up[u] < 0]
    return ({ids[u]: (core[memo.anchor[u]], memo.hang[u]) for u in range(len(ids))},
            {core[k]: [core[v] for v in indices[indptr[k] : indptr[k + 1]]]
             for k in range(len(core))})


class TestAgainstOracle:
    def test_distance_matches_plain_bfs(self):
        rng = random.Random(73)
        for _ in range(10):
            t = random_dag(rng, rng.randint(2, 120))
            ids = list(t.synsets)
            for _ in range(25):
                a, b = rng.choice(ids), rng.choice(ids)
                assert t.shortest_path_edges(a, b) == oracle_undirected_bfs(t, a, b)

    def test_many_matches_single(self):
        # 100 nodes give 5,050 unordered pairs, more than the memo holds, so
        # the second pass runs after evictions; every answer must still be
        # the uncached search's and the oracle's
        rng = random.Random(79)
        t = random_dag(rng, 100, max_parents=3)
        ids = list(t.synsets)
        pairs = [(a, b) for a in ids for b in ids]
        first = {(a, b): t.shortest_path_edges(a, b) for a, b in pairs}
        info = t._path.cache_info()
        assert info.currsize == info.maxsize < len(pairs) // 2
        search = t._path.__wrapped__
        for a, b in reversed(pairs):
            assert t.shortest_path_edges(a, b) == first[a, b]
            assert search(t._index(a), t._index(b)) == first[a, b]
            assert first[a, b] == oracle_undirected_bfs(t, a, b)

    @pytest.mark.parametrize("max_parents", [1, 2, 3])
    def test_all_pairs_on_small_dags(self, max_parents):
        rng = random.Random(83 + max_parents)
        for _ in range(40):
            assert_all_pairs_match_oracle(random_dag(rng, rng.randint(1, 30), max_parents))


class TestEdgeCases:
    def test_single_node(self):
        t = taxonomy_of([], nodes=["R"])
        assert t.shortest_path_edges("R", "R") == 0

    def test_two_nodes(self):
        t = taxonomy_of([("A", "R")])
        assert t.shortest_path_edges("R", "A") == 1
        assert t.shortest_path_edges("A", "R") == 1
        assert_all_pairs_match_oracle(t)

    def test_chain(self):
        t = taxonomy_of([("A", "R"), ("B", "A")])
        assert t.shortest_path_edges("R", "B") == 2
        assert t.shortest_path_edges("R", "A") == 1
        assert t.shortest_path_edges("A", "B") == 1
        assert_all_pairs_match_oracle(t)

    def test_root_with_one_child(self):
        # R has one link, so it is a pendant like the leaves C and D
        t = taxonomy_of([("A", "R"), ("B", "A"), ("C", "B"), ("D", "B")])
        assert t.shortest_path_edges("R", "C") == 3
        assert t.shortest_path_edges("C", "D") == 2
        assert_all_pairs_match_oracle(t)

    def test_pendant_endpoints(self):
        # leaves L1 (under A) and L2 (under B) have one link; A and B are
        # also joined through the shared child M
        t = taxonomy_of([("A", "R"), ("B", "R"), ("M", "A"), ("M", "B"),
                         ("L1", "A"), ("L2", "B"), ("N", "M")])
        assert t.shortest_path_edges("L1", "A") == 1   # pendant next to the other end
        assert t.shortest_path_edges("L1", "M") == 2   # one side pendant
        assert t.shortest_path_edges("M", "L2") == 2   # the other side pendant
        assert t.shortest_path_edges("L1", "L2") == 4  # both sides pendant
        assert t.shortest_path_edges("L1", "N") == 3   # both, meeting in the core
        assert_all_pairs_match_oracle(t)

    def test_pendants_sharing_a_neighbour(self):
        t = taxonomy_of([("A", "R"), ("B", "R")])
        assert t.shortest_path_edges("A", "B") == 2
        assert_all_pairs_match_oracle(t)


class TestCorePeel:
    def test_all_pairs_on_wordnet_shaped_dags(self):
        rng = random.Random(211)
        climbs = searches = deepest = 0
        for _ in range(32):
            t = wordnet_shaped_dag(rng, rng.randint(30, 60))
            hanging, _ = peel(t)
            ids = list(t.synsets)
            for k, a in enumerate(ids):
                for b in ids[k:]:
                    assert t.shortest_path_edges(a, b) == oracle_undirected_bfs(t, a, b), (a, b)
                    if hanging[a][0] != hanging[b][0]:
                        searches += 1
                    elif a != b:
                        climbs += 1
                        deepest = max(deepest, hanging[a][1], hanging[b][1])
        # both halves of the query ran, many times over, and some climbs
        # started several hops below their anchor
        assert climbs > 1000 and searches > 1000 and deepest >= 4

    def test_pure_tree_core_is_the_root(self):
        rng = random.Random(223)
        for _ in range(10):
            t = random_tree(rng, rng.randint(1, 40))
            hanging, core = peel(t)
            assert t.core_count == 1 and list(core) == [t.root]
            assert all(anchor == t.root for anchor, _ in hanging.values())
            assert_all_pairs_match_oracle(t)

    def test_root_above_a_chain_to_the_core(self):
        # R - A - B, then the cycle B - C - E - D - B, and a leaf L under E;
        # R keeps its one link and A its two, so both stay in the core
        t = taxonomy_of([("A", "R"), ("B", "A"), ("C", "B"), ("D", "B"),
                         ("E", "C"), ("E", "D"), ("L", "E")])
        hanging, core = peel(t)
        assert sorted(core) == ["A", "B", "C", "D", "E", "R"]
        assert core["R"] == ["A"]
        assert hanging["L"] == ("E", 1)
        assert t.shortest_path_edges("R", "E") == 4
        assert t.shortest_path_edges("R", "L") == 5
        assert t.core_count == 6
        assert_all_pairs_match_oracle(t)

    @pytest.fixture
    def bushy(self):
        # core: the cycle R - A - M - B - R; under M hang X (with Y below
        # it, and Z with W below Z) and a sibling subtree P - Q
        return taxonomy_of([("A", "R"), ("B", "R"), ("M", "A"), ("M", "B"),
                            ("X", "M"), ("Y", "X"), ("Z", "X"), ("W", "Z"),
                            ("P", "M"), ("Q", "P")])

    def test_endpoint_is_the_others_anchor(self, bushy):
        hanging, _ = peel(bushy)
        assert hanging["W"] == ("M", 3)
        assert bushy.shortest_path_edges("M", "W") == 3
        assert bushy.shortest_path_edges("W", "M") == 3
        assert bushy.shortest_path_edges("M", "X") == 1

    def test_one_subtree_at_different_hang(self, bushy):
        hanging, _ = peel(bushy)
        assert hanging["Y"] == ("M", 2) and hanging["W"] == ("M", 3)
        assert bushy.shortest_path_edges("Y", "W") == 3
        assert bushy.shortest_path_edges("X", "W") == 2
        assert bushy.shortest_path_edges("W", "X") == 2

    def test_sibling_subtrees_of_one_anchor(self, bushy):
        assert bushy.shortest_path_edges("W", "Q") == 5
        assert bushy.shortest_path_edges("Y", "P") == 3
        assert bushy.shortest_path_edges("Q", "R") == 4
        assert_all_pairs_match_oracle(bushy)

    def test_hang_and_core_degree_invariants(self):
        rng = random.Random(227)
        dags = [wordnet_shaped_dag(rng, rng.randint(20, 80)) for _ in range(15)]
        dags += [random_dag(rng, rng.randint(2, 60), max_parents=2) for _ in range(15)]
        # C4/C7's 4,000-node WordNet-shaped dictionary
        dags.append(wordnet_shaped_dag(random.Random(127), 4000, multi_share=0.03))
        for t in dags:
            assert_core_matches_oracle(t)

    @pytest.mark.parametrize("edges, expected_core", [
        # a leaf that lists its one parent twice has one link: it hangs
        ([("A", "R"), ("L", "A"), ("L", "A")], ["R"]),
        # M's parents sit at depths 1 and 4
        (chain(["R", "A", "B", "C"]) + [("M", "R"), ("M", "C"), ("L", "M")],
         ["A", "B", "C", "M", "R"]),
        # M under the root and the root's child
        ([("A", "R"), ("M", "R"), ("M", "A"), ("L", "A")], ["A", "M", "R"]),
        # N has two parents, and so has M, one of them
        ([("A", "R"), ("B", "R"), ("M", "A"), ("M", "B"), ("N", "M"), ("N", "B"),
          ("L", "N")], ["A", "B", "M", "N", "R"]),
    ], ids=["parent-listed-twice", "parents-at-different-depths", "under-root-and-child",
            "stacked-multi-parent"])
    def test_core_is_the_ancestors_of_multi_parent_nodes(self, edges, expected_core):
        t = taxonomy_of(edges)
        _, core = peel(t)
        assert sorted(core) == expected_core
        assert_core_matches_oracle(t)
        assert_all_pairs_match_oracle(t)


def assert_core_matches_oracle(t):
    """The core and the hang of every node against the brute-force peel."""
    hanging, core = peel(t)
    for sid, (anchor, hang) in hanging.items():
        assert (hang == 0) == (sid in core)
        assert hang == oracle_undirected_bfs(t, sid, anchor), sid
    for sid, links in core.items():
        assert len(links) >= 2 or sid == t.root, sid
    assert {sid: sorted(links) for sid, links in core.items()} == \
        {sid: sorted(links) for sid, links in oracle_core(t).items()}
    assert t.core_count == len(core)
    assert t.branch_count == oracle_branch_count(t)


class TestBranchTable:
    """Exactness on the chain shapes that random DAGs seldom produce."""

    def test_chain_leaves_and_reenters_one_branch_node(self):
        # R hangs above X; the loop X - P1 - P2 - P3 - M - Q - X leaves X
        # and comes back to it, and L hangs under M
        t = taxonomy_of([("X", "R")] + chain(["X", "P1", "P2", "P3", "M"])
                        + chain(["X", "Q", "M"]) + [("L", "M")])
        assert t.branch_count == 2   # R (one link) and X (three)
        assert t.shortest_path_edges("P1", "Q") == 2   # round through X, not 4 along
        assert t.shortest_path_edges("P2", "M") == 2
        assert t.shortest_path_edges("L", "P1") == 4
        assert_all_pairs_match_oracle(t)

    def test_parallel_chains_of_different_lengths(self):
        # three chains of 2, 3 and 5 links between R and M
        t = taxonomy_of(chain(["R", "A", "M"]) + chain(["R", "B1", "B2", "M"])
                        + chain(["R", "C1", "C2", "C3", "C4", "M"]))
        assert t.branch_count == 2
        assert t.shortest_path_edges("R", "M") == 2
        assert t.shortest_path_edges("C3", "B2") == 3   # through M
        assert t.shortest_path_edges("C2", "B1") == 3   # through R
        assert_all_pairs_match_oracle(t)

    def test_core_that_is_one_cycle(self):
        # a diamond under the root, arms of 3 and 2 links, leaves below M:
        # every core node has two links, so one of them stands as the
        # table's only branch node
        t = taxonomy_of(chain(["R", "A1", "A2", "M"]) + chain(["R", "B1", "M"])
                        + [("L", "M"), ("K", "L")])
        *_, dist, width = path_memo(t).tables()
        assert (t.core_count, t.branch_count, width, list(dist)) == (5, 1, 1, [0])
        assert t.shortest_path_edges("A1", "B1") == 2
        assert t.shortest_path_edges("K", "A1") == 4
        assert_all_pairs_match_oracle(t)

    def test_way_round_a_chain_is_shorter(self):
        # the chain R - C1 - ... - C7 - M is 8 links long; R and M are also
        # 2 links apart through A and through B
        t = taxonomy_of(chain(["R"] + [f"C{k}" for k in range(1, 8)] + ["M"])
                        + chain(["R", "A", "M"]) + chain(["R", "B", "M"]))
        assert t.branch_count == 2
        assert t.shortest_path_edges("C1", "C7") == 4   # not 6 along the chain
        assert t.shortest_path_edges("C2", "C6") == 4   # along it equals round it
        assert t.shortest_path_edges("C3", "C5") == 2
        assert_all_pairs_match_oracle(t)

    def test_distances_beyond_one_byte(self):
        # a deep diamond: chains of 300, 280 and 260 links from R down to M,
        # so max_depth is 300 and the table needs 16-bit entries
        arms = [["R"] + [f"{arm}{k}" for k in range(1, hops)] + ["M"]
                for arm, hops in (("A", 300), ("B", 280), ("C", 260))]
        t = taxonomy_of([link for arm in arms for link in chain(arm)] + [("L", "M")])
        *_, dist, width = path_memo(t).tables()
        assert (t.max_depth, width, dist.format) == (300, 2, "H")
        assert sorted(dist) == [0, 0, 260, 260]
        assert t.shortest_path_edges("R", "L") == 261
        assert t.shortest_path_edges("A140", "B140") == 280   # through R
        assert t.shortest_path_edges("A250", "B250") == 80    # through M
        rng = random.Random(229)
        ids = list(t.synsets)
        for a, b in [("A150", "C150"), ("A299", "B1")] + [
                (rng.choice(ids), rng.choice(ids)) for _ in range(200)]:
            assert t.shortest_path_edges(a, b) == oracle_undirected_bfs(t, a, b), (a, b)

    def test_wordnet_shaped_table_is_one_byte(self):
        t = wordnet_shaped_dag(random.Random(233), 400)
        *_, dist, width = path_memo(t).tables()
        assert dist.format == "B" and width == t.branch_count == oracle_branch_count(t)

    def test_built_on_first_query_between_anchors(self):
        # the core is the cycle R - A - M - B - R and X, Y, Z, W and P hang
        # from M: queries among them and the lcs never reach the table
        t = taxonomy_of([("A", "R"), ("B", "R"), ("M", "A"), ("M", "B"),
                         ("X", "M"), ("Y", "X"), ("Z", "X"), ("W", "Z"), ("P", "M")])
        assert t.shortest_path_edges("W", "P") == 4 and t.lcs("W", "A") == "A"
        assert path_memo(t).tables.cache_info().currsize == 0
        assert t.shortest_path_edges("W", "R") == 5
        assert path_memo(t).tables.cache_info().currsize == 1


class TestSymmetry:
    def test_swapped_arguments_agree(self):
        rng = random.Random(89)
        for _ in range(10):
            t = random_dag(rng, rng.randint(2, 60), max_parents=3)
            search = t._path.__wrapped__
            for a in t.synsets:
                for b in t.synsets:
                    i, j = t._index(a), t._index(b)
                    d = t.shortest_path_edges(a, b)
                    assert d == t.shortest_path_edges(b, a)
                    assert d == search(i, j) == search(j, i)


class TestThreads:
    def test_concurrent_queries_share_the_memo(self):
        # more threads than cores, switching often, on more pairs than the
        # memos hold: every path and lcs must equal the uncached search's
        # on a twin load, and the threads race to build the distance table
        rng = random.Random(97)
        t = random_dag(rng, 100, max_parents=3)
        twin = Taxonomy(t.synsets.values())
        ids = list(t.synsets)
        search = twin._path.__wrapped__
        search_lcs = twin._lcs.__wrapped__
        expected = {}
        for a in ids:
            for b in ids:
                i, j = sorted((t._index(a), t._index(b)))
                expected[a, b] = (search(i, j), ids[search_lcs(i, j)])
        assert path_memo(t).tables.cache_info().currsize == 0
        wrong = []

        def worker(seed):
            pairs = list(expected)
            random.Random(seed).shuffle(pairs)
            for a, b in pairs:
                if (t.shortest_path_edges(a, b), t.lcs(a, b)) != expected[a, b]:
                    wrong.append((a, b))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
