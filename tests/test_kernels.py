import random
import sys
import threading

import pytest

from taxsim.taxonomy import Synset, build_taxonomy

from conftest import oracle_undirected_bfs, random_dag


def taxonomy_of(edges, nodes=()):
    """Taxonomy from (child, parent) edges; `nodes` adds parentless ones."""
    parents = {name: [] for name in nodes}
    for child, parent in edges:
        parents.setdefault(parent, [])
        parents.setdefault(child, []).append(parent)
    return build_taxonomy(
        Synset(name, (name.lower(),), hypernyms=tuple(ps))
        for name, ps in parents.items()
    )


def assert_all_pairs_match_oracle(t):
    ids = t.ids()
    for a in ids:
        for b in ids:
            assert t.shortest_path_edges(a, b) == oracle_undirected_bfs(t, a, b), (a, b)


class TestAgainstOracle:
    def test_distance_matches_plain_bfs(self):
        rng = random.Random(73)
        for _ in range(10):
            t = random_dag(rng, rng.randint(2, 120))
            ids = t.ids()
            for _ in range(25):
                a, b = rng.choice(ids), rng.choice(ids)
                assert t.shortest_path_edges(a, b) == oracle_undirected_bfs(t, a, b)

    def test_many_matches_single(self):
        # 100 nodes give 5,050 unordered pairs, more than the memo holds, so
        # the second pass runs after evictions; every answer must still be
        # the uncached search's and the oracle's
        rng = random.Random(79)
        t = random_dag(rng, 100, max_parents=3)
        ids = t.ids()
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


class TestSymmetry:
    def test_swapped_arguments_agree(self):
        rng = random.Random(89)
        for _ in range(10):
            t = random_dag(rng, rng.randint(2, 60), max_parents=3)
            search = t._path.__wrapped__
            for a in t.ids():
                for b in t.ids():
                    i, j = t._index(a), t._index(b)
                    d = t.shortest_path_edges(a, b)
                    assert d == t.shortest_path_edges(b, a)
                    assert d == search(i, j) == search(j, i)


class TestThreads:
    def test_concurrent_queries_share_the_memo(self):
        # more threads than cores, switching often, on more pairs than the
        # memo holds: every answer must equal the uncached search's
        rng = random.Random(97)
        t = random_dag(rng, 100, max_parents=3)
        ids = t.ids()
        search = t._path.__wrapped__
        expected = {(a, b): search(t._index(a), t._index(b)) for a in ids for b in ids}
        wrong = []

        def worker(seed):
            pairs = list(expected)
            random.Random(seed).shuffle(pairs)
            for a, b in pairs:
                if t.shortest_path_edges(a, b) != expected[a, b]:
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
