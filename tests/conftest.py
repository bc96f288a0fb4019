import functools
import io
import os
from collections import deque
from types import SimpleNamespace

import pytest

from taxsim.taxonomy import Synset, Taxonomy
from taxsim.wordnet import load_tsv_taxonomy

# 7-node toy taxonomy: R -> {A, B}; A -> {C, D}; C -> {E, F}
T7_TSV = (
    "A\tR\n"
    "B\tR\n"
    "C\tA\n"
    "D\tA\n"
    "E\tC\n"
    "F\tC\n"
    "x\t#\tE\n"
    "x\t#\tD\n"
    "y\t#\tF\n"
)


@pytest.fixture
def t7():
    taxonomy, _ = load_tsv_taxonomy(io.StringIO(T7_TSV))
    return taxonomy


@pytest.fixture
def t7_index():
    _, index = load_tsv_taxonomy(io.StringIO(T7_TSV))
    return index


@pytest.fixture
def t7_both():
    return load_tsv_taxonomy(io.StringIO(T7_TSV))


def random_dag(rng, n, max_parents=2):
    """Random single-rooted DAG: node i > 0 draws 1..max_parents parents
    among nodes 0..i-1 (node 0 is the root)."""
    synsets = [Synset(id="n000", lemmas=("n000",))]
    for i in range(1, n):
        k = rng.randint(1, min(max_parents, i))
        parents = rng.sample(range(i), k)
        synsets.append(
            Synset(id=f"n{i:03d}", lemmas=(f"n{i:03d}",),
                   hypernyms=tuple(f"n{p:03d}" for p in parents))
        )
    return Taxonomy(synsets)


def random_tree(rng, n):
    return random_dag(rng, n, max_parents=1)


def path_memo(taxonomy):
    """The frozen arguments of taxonomy's path memo, by name: up, anchor
    and hang per node and the table builder ``tables``, which
    ``kernels.bfs_distance`` reads, and the core CSR (core_indptr,
    core_indices) and distance bound ``longest`` that the builder holds."""
    up, anchor, hang, tables = taxonomy._path.__wrapped__.args
    core_indptr, core_indices, longest = tables.__wrapped__.args
    return SimpleNamespace(up=up, anchor=anchor, hang=hang, tables=tables,
                           core_indptr=core_indptr, core_indices=core_indices,
                           longest=longest)


# -- brute-force oracles, independent of the Taxonomy caches -------------


@functools.lru_cache(maxsize=8)
def oracle_links(taxonomy):
    """Per synset id, its hypernym ids and its child ids, read from
    ``taxonomy.synsets`` once per taxonomy (a taxonomy is immutable)."""
    parents = {sid: s.hypernyms for sid, s in taxonomy.synsets.items()}
    children = {sid: [] for sid in parents}
    for sid, hypernyms in parents.items():
        for parent in hypernyms:
            children[parent].append(sid)
    return parents, children


def oracle_ancestors(taxonomy, start):
    """Fixpoint of BFS over hypernym edges from start, start included."""
    parents, _ = oracle_links(taxonomy)
    seen = {start}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        for parent in parents[node]:
            if parent not in seen:
                seen.add(parent)
                queue.append(parent)
    return seen


def oracle_undirected_bfs(taxonomy, src, dst):
    """Plain undirected BFS distance over hypernym links."""
    parents, children = oracle_links(taxonomy)
    dist = {src: 0}
    queue = deque([src])
    while queue:
        node = queue.popleft()
        if node == dst:
            return dist[node]
        for other in (*parents[node], *children[node]):
            if other not in dist:
                dist[other] = dist[node] + 1
                queue.append(other)
    return -1


def oracle_core(taxonomy):
    """The undirected link graph with every node but the root that has one
    link removed, until none is left: core id -> set of core neighbour ids."""
    parents, children = oracle_links(taxonomy)
    links = {sid: {*parents[sid], *children[sid]} for sid in parents}
    pendant = [sid for sid, ls in links.items() if len(ls) == 1 and sid != taxonomy.root]
    while pendant:
        sid = pendant.pop()
        (other,) = links.pop(sid)
        links[other].remove(sid)
        if len(links[other]) == 1 and other != taxonomy.root:
            pendant.append(other)
    return links


def oracle_branch_count(taxonomy):
    """Core nodes whose core degree is not 2, or 1 when there are none."""
    return sum(len(ls) != 2 for ls in oracle_core(taxonomy).values()) or 1


@functools.lru_cache(maxsize=8)
def oracle_undirected_down_depth(taxonomy):
    """Node-count depth of every synset via BFS from the root over child
    edges, once per taxonomy; callers must not change the map."""
    _, children = oracle_links(taxonomy)
    depth = {taxonomy.root: 1}
    queue = deque([taxonomy.root])
    while queue:
        node = queue.popleft()
        for child in children[node]:
            if child not in depth:
                depth[child] = depth[node] + 1
                queue.append(child)
    return depth


def wordnet_dir():
    """WordNet 3.0 dict directory, or None when unavailable in this env."""
    directory = os.environ.get("WORDNET_DIR")
    if directory and os.path.isfile(os.path.join(directory, "data.noun")):
        return directory
    return None


needs_wordnet = pytest.mark.skipif(
    wordnet_dir() is None,
    reason="WordNet 3.0 data not available (set WORDNET_DIR to the dict directory)",
)
