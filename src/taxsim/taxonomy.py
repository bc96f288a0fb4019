"""Immutable hypernym DAG with precomputed ancestor/depth caches.

A Taxonomy is built once from a list of Synset records and frozen. All
queries (ancestors, depth, lowest common subsumer, counts) are pure reads
over caches computed at construction time. Shortest paths are searched on
demand over neighbour lists built at construction time and memoised with
``functools.lru_cache`` over that pure search, so a loaded taxonomy is
still safe to share across threads.
"""

import functools
from dataclasses import dataclass, field
from collections import deque

import numpy as np

from . import kernels
from .errors import IntegrityError, StructureError, UnknownSynsetError


@dataclass(frozen=True)
class Synset:
    """One concept node: id, member lemmas, gloss, direct hypernym ids."""

    id: str
    lemmas: tuple
    gloss: str = ""
    hypernyms: tuple = ()

    def __post_init__(self):
        if not self.lemmas:
            raise StructureError(f"synset {self.id!r} has no lemmas")
        if self.id in self.hypernyms:
            raise StructureError(f"synset {self.id!r} lists itself as hypernym")


def _csr(adjacency, n):
    """Pack a list-of-index-lists into (indptr, indices) int64 arrays."""
    indptr = np.zeros(n + 1, dtype=np.int64)
    for i, row in enumerate(adjacency):
        indptr[i + 1] = indptr[i] + len(row)
    indices = np.empty(indptr[-1], dtype=np.int64)
    for i, row in enumerate(adjacency):
        indices[indptr[i] : indptr[i + 1]] = row
    return indptr, indices


class Taxonomy:
    """Single-rooted acyclic hypernym graph, frozen after construction."""

    def __init__(self, synsets):
        synsets = list(synsets)
        if not synsets:
            raise StructureError("empty taxonomy")
        self.synsets = {}
        for s in synsets:
            if s.id in self.synsets:
                raise StructureError(f"duplicate synset id {s.id!r}")
            self.synsets[s.id] = s

        self._ids = [s.id for s in synsets]
        self._pos = {sid: i for i, sid in enumerate(self._ids)}
        n = len(self._ids)

        parents = [[] for _ in range(n)]
        children = [[] for _ in range(n)]
        roots = []
        for i, s in enumerate(synsets):
            if not s.hypernyms:
                roots.append(s.id)
            for h in s.hypernyms:
                j = self._pos.get(h)
                if j is None:
                    raise IntegrityError(
                        f"synset {s.id!r} references unknown hypernym {h!r}"
                    )
                parents[i].append(j)
                children[j].append(i)
        if len(roots) != 1:
            raise StructureError(
                f"expected exactly one root, found {len(roots)}: {sorted(roots)[:5]}"
            )
        self.root = roots[0]

        order = self._topological_order(parents, children)

        # depth: node count on a shortest hypernym path from root, root = 1;
        # one root and no cycle mean every node reaches the root
        depth = [1] * n
        for i in order:
            if parents[i]:
                depth[i] = 1 + min([depth[p] for p in parents[i]])
        self._depth = np.array(depth, dtype=np.int64)
        self._max_depth_i = int(np.argmax(self._depth))

        # undirected neighbour lists without pendant nodes (one link), which
        # no shortest path passes through; a pendant keeps its own link
        degree = [len(ps) + len(cs) for ps, cs in zip(parents, children)]
        pendant = bytes(d == 1 for d in degree)
        neighbours = [
            (ps or cs) if d == 1 else [k for k in ps + cs if degree[k] != 1]
            for ps, cs, d in zip(parents, children, degree)
        ]
        # wup, lch and rada_dist each ask for the same sense pairs, one
        # measure at a time, so a small memo answers the repeats
        self._path = functools.lru_cache(maxsize=4096)(
            functools.partial(kernels.bfs_distance, neighbours, pendant))

        # ancestor sets (including self), built parents-first, frozen to CSR
        anc = [None] * n
        for i in order:
            s = {i}
            for j in parents[i]:
                s |= anc[j]
            anc[i] = s
        self._anc_indptr, self._anc_indices = _csr([sorted(a) for a in anc], n)
        self._subsumers = np.diff(self._anc_indptr)

        # hyponym_count(c): distinct transitive descendants, excluding c
        self._hyponyms = np.bincount(self._anc_indices, minlength=n) - 1
        self._is_leaf = self._hyponyms == 0

    @staticmethod
    def _topological_order(parents, children):
        """Parents-before-children order; raises on cycles."""
        indeg = [len(p) for p in parents]
        queue = deque(i for i, d in enumerate(indeg) if d == 0)
        order = []
        while queue:
            u = queue.popleft()
            order.append(u)
            for v in children[u]:
                indeg[v] -= 1
                if indeg[v] == 0:
                    queue.append(v)
        if len(order) != len(parents):
            raise StructureError("hypernym graph contains a cycle")
        return order

    # -- basic lookups --------------------------------------------------

    def _index(self, synset_id):
        try:
            return self._pos[synset_id]
        except KeyError:
            raise UnknownSynsetError(synset_id) from None

    def __contains__(self, synset_id):
        return synset_id in self._pos

    def __len__(self):
        return len(self._ids)

    @property
    def max_nodes(self):
        return len(self._ids)

    @property
    def max_depth(self):
        """Node-count depth of the deepest node."""
        return int(self._depth[self._max_depth_i])

    @property
    def max_depth_node(self):
        return self._ids[self._max_depth_i]

    @property
    def max_subsumer_count(self):
        return int(self._subsumers.max())

    def ids(self):
        """All synset ids in load order."""
        return list(self._ids)

    def leaves(self):
        return [self._ids[i] for i in np.flatnonzero(self._is_leaf)]

    # -- graph queries ---------------------------------------------------

    def ancestors(self, synset_id):
        """All synsets on any hypernym path from the root, including the
        synset itself."""
        i = self._index(synset_id)
        idx = self._anc_indices[self._anc_indptr[i] : self._anc_indptr[i + 1]]
        return frozenset(self._ids[j] for j in idx)

    def subsumer_count(self, synset_id):
        """|ancestors(c)|, counting c itself; 1 only for the root."""
        return int(self._subsumers[self._index(synset_id)])

    def hyponym_count(self, synset_id):
        """Distinct transitive descendants, excluding the synset itself."""
        return int(self._hyponyms[self._index(synset_id)])

    def is_leaf(self, synset_id):
        return bool(self._is_leaf[self._index(synset_id)])

    def depth(self, synset_id):
        """Node count along a shortest hypernym path from root; depth(root) = 1."""
        return int(self._depth[self._index(synset_id)])

    def lcs(self, c1, c2):
        """Deepest common ancestor of c1 and c2.

        Ties are broken by larger subsumer count, then smaller id, so the
        result is deterministic on DAGs. Identical arguments return the
        node itself: on multi-parent DAGs a min-path-deeper ancestor could
        otherwise win, which would break dist(c, c) == 0 downstream.
        """
        i, j = self._index(c1), self._index(c2)
        if i == j:
            return c1
        a = self._anc_indices[self._anc_indptr[i] : self._anc_indptr[i + 1]]
        b = self._anc_indices[self._anc_indptr[j] : self._anc_indptr[j + 1]]
        common = np.intersect1d(a, b, assume_unique=True)
        best = min(
            (int(k) for k in common),
            key=lambda k: (-int(self._depth[k]), -int(self._subsumers[k]), self._ids[k]),
        )
        return self._ids[best]

    def shortest_path_edges(self, c1, c2):
        """Fewest hypernym edges connecting c1 and c2, links taken as undirected."""
        i, j = self._index(c1), self._index(c2)
        return self._path(i, j) if i <= j else self._path(j, i)

    # -- bulk helpers used by the IC models -------------------------------

    def _scatter_to_ancestors(self, weights):
        """Sum per-node weights onto every ancestor (including self).

        out[a] = sum of weights[d] over all d whose ancestor set contains a.
        """
        # each CSR entry (d -> ancestor a) carries weights[d]; regroup by a
        per_entry = np.repeat(np.asarray(weights, dtype=np.float64),
                              np.diff(self._anc_indptr))
        return np.bincount(self._anc_indices, weights=per_entry,
                           minlength=len(self._ids))


def build_taxonomy(synsets):
    """Validate a parsed synset list and freeze it into a Taxonomy."""
    return Taxonomy(synsets)
