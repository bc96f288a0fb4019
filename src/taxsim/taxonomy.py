"""Immutable hypernym DAG with precomputed ancestor/depth caches.

A Taxonomy is built once from synset records held as flat columns
(``SynsetColumns``) and frozen; all graph checks live in the build. It keeps
the columns and makes a ``Synset`` only when one is looked up in
``synsets``. It maps every distinct hypernym link to a pair of int
node indices and fills all caches in one level-by-level pass. It reads the
core of the undirected link graph (see ``kernels``) off the ancestor rows,
so that the path query holds neighbour rows only for the core nodes and,
per node, the parent it hangs from, its core anchor and its hop count to
it. All queries (ancestors, depth, counts) are pure reads over those
caches, the per-node ones through read-only memoryviews that index to
Python numbers. Lowest common subsumers are searched on demand over them,
and shortest paths read a table of distances between the core's branch
nodes that is built on the first path query between two anchors, through
``functools.cache``.
Each query is memoised with ``functools.lru_cache`` over a pure function of
node indices, so a loaded taxonomy is still safe to share across threads.
"""

import functools
import math
from array import array
from collections.abc import Mapping
from typing import NamedTuple

import numpy as np

from . import kernels
from .errors import IntegrityError, StructureError, UnknownSynsetError


class Synset(NamedTuple):
    """One concept node: its id, member lemmas and direct hypernym ids."""

    id: str
    lemmas: tuple
    hypernyms: tuple = ()


class SynsetColumns:
    """Synset records as flat columns, the form a Taxonomy is built from.

    Record k has id ``ids[k]``, lemmas
    ``lemmas[lemma_indptr[k] : lemma_indptr[k + 1]]`` and hypernym ids
    ``hypernyms[hypernym_indptr[k] : hypernym_indptr[k + 1]]``. The two
    indptr columns are int arrays that start at 0. Indexing makes the
    record's Synset.
    """

    __slots__ = ("ids", "lemmas", "lemma_indptr", "hypernyms", "hypernym_indptr")

    def __init__(self, ids, lemmas, lemma_indptr, hypernyms, hypernym_indptr):
        self.ids = ids
        self.lemmas = lemmas
        self.lemma_indptr = lemma_indptr
        self.hypernyms = hypernyms
        self.hypernym_indptr = hypernym_indptr

    @classmethod
    def of(cls, synsets):
        """The columns of an iterable of Synset."""
        synsets = list(synsets)
        lemmas, hypernyms = [], []
        lemma_indptr, hypernym_indptr = array("q", [0]), array("q", [0])
        for s in synsets:
            lemmas += s.lemmas
            hypernyms += s.hypernyms
            lemma_indptr.append(len(lemmas))
            hypernym_indptr.append(len(hypernyms))
        return cls([s.id for s in synsets], lemmas, lemma_indptr, hypernyms,
                   hypernym_indptr)

    def __len__(self):
        return len(self.ids)

    def __getitem__(self, k):
        return self._record(range(len(self.ids))[k])

    def _record(self, k):
        """The Synset of record k, 0 <= k < len(self)."""
        lp, hp = self.lemma_indptr, self.hypernym_indptr
        return Synset(self.ids[k], tuple(self.lemmas[lp[k] : lp[k + 1]]),
                      tuple(self.hypernyms[hp[k] : hp[k + 1]]))


class SynsetMap(Mapping):
    """Read-only map from synset id to its Synset, made on each lookup from
    the columns a Taxonomy was built from."""

    def __init__(self, columns, pos):
        self._columns = columns
        self._pos = pos

    def __getitem__(self, synset_id):
        return self._columns._record(self._pos[synset_id])

    def __contains__(self, synset_id):
        return synset_id in self._pos

    def __iter__(self):
        return iter(self._columns.ids)

    def __len__(self):
        return len(self._columns)


def _ranges(starts, lengths):
    """Concatenated ``arange(starts[k], starts[k] + lengths[k])`` over a
    non-empty k."""
    ends = np.cumsum(lengths)
    return np.arange(ends[-1]) + np.repeat(starts - ends + lengths, lengths)


def _distinct(keys):
    """Sorted distinct values of an int array.

    Sorting and comparing neighbours beats ``np.unique``, which takes a
    hash path for int arrays.
    """
    keys = np.sort(keys)
    return np.concatenate((keys[:1], keys[1:][keys[1:] != keys[:-1]]))


def _view(array):
    """Read-only memoryview of an array: it indexes to Python numbers."""
    return memoryview(array).toreadonly()


def _lowest_common_subsumer(anc_indptr, anc_indices, depth, subsumers, ids, i, j):
    """Index of the lcs of node indices i and j (see ``Taxonomy.lcs``).

    The ancestor rows are read-only memoryviews and meet as a Python set of
    ints; the key is a total order (ids are unique), so set order is moot.
    """
    if i == j:
        return i
    common = set(anc_indices[anc_indptr[i] : anc_indptr[i + 1]]).intersection(
        anc_indices[anc_indptr[j] : anc_indptr[j + 1]])
    return min(common, key=lambda k: (-depth[k], -subsumers[k], ids[k]))


class Taxonomy:
    """Single-rooted acyclic hypernym graph, frozen after construction."""

    def __init__(self, synsets):
        """Build from SynsetColumns, or from an iterable of Synset, which
        is turned into its columns first."""
        columns = synsets if isinstance(synsets, SynsetColumns) else SynsetColumns.of(synsets)
        n = len(columns)
        if not n:
            raise StructureError("empty taxonomy")
        lemma_counts = np.diff(np.asarray(columns.lemma_indptr))
        if not lemma_counts.all():
            sid = columns.ids[np.argmin(lemma_counts)]
            raise StructureError(f"synset {sid!r} has no lemmas")
        self._ids = columns.ids
        self._pos = dict(zip(self._ids, range(n)))
        if len(self._pos) != n:
            seen = set()
            for sid in self._ids:
                if sid in seen:
                    raise StructureError(f"duplicate synset id {sid!r}")
                seen.add(sid)
        self._columns = columns
        self.synsets = SynsetMap(columns, self._pos)

        # every hypernym link once, as int pairs child[k] -> parent[k]
        # sorted by child, then parent; a link listed twice counts once
        hypernyms = columns.hypernyms
        try:
            parent = np.fromiter(map(self._pos.__getitem__, hypernyms), dtype=np.int64,
                                 count=len(hypernyms))
        except KeyError as exc:
            # the first unknown id in link order; the first synset to list it
            h = exc.args[0]
            k = np.searchsorted(columns.hypernym_indptr, hypernyms.index(h), side="right")
            raise IntegrityError(
                f"synset {self._ids[k - 1]!r} references unknown hypernym {h!r}") from None
        child = np.repeat(np.arange(n), np.diff(np.asarray(columns.hypernym_indptr)))
        child, parent = np.divmod(_distinct(child * n + parent), n)
        n_parents = np.bincount(child, minlength=n)
        loops = child[child == parent]
        if len(loops):
            raise StructureError(f"synset {self._ids[loops[0]]!r} lists itself as hypernym")
        roots = np.flatnonzero(n_parents == 0)
        if len(roots) != 1:
            raise StructureError(
                f"expected exactly one root, found {len(roots)}: "
                f"{sorted(self._ids[i] for i in roots)[:5]}"
            )
        self.root = self._ids[roots[0]]

        # level-synchronous Kahn pass: a node joins a level once all its
        # parents are placed. depth is the node count on a shortest hypernym
        # path from the root (root = 1); the ancestor row of a node is its
        # parents' rows plus itself, sorted and distinct. rows[row_start[i]:
        # row_start[i] + row_len[i]] holds node i's row.
        n_children = np.bincount(parent, minlength=n)
        by_parent = np.argsort(parent, kind="stable")
        child_start = np.cumsum(n_children) - n_children
        parent_start = np.cumsum(n_parents) - n_parents
        waiting = n_parents.copy()
        depth = np.ones(n, dtype=np.int64)
        row_start = np.zeros(n, dtype=np.int64)
        row_len = np.ones(n, dtype=np.int64)
        rows = np.empty(4 * n, dtype=np.int64)
        rows[0] = roots[0]
        used = 1
        level = roots
        levels = [level]
        while True:
            kids = child[by_parent[_ranges(child_start[level], n_children[level])]]
            np.subtract.at(waiting, kids, 1)
            level = _distinct(kids[waiting[kids] == 0])
            if not len(level):
                break
            levels.append(level)
            links = _ranges(parent_start[level], n_parents[level])
            ps = parent[links]
            depth[level] = 1 + np.minimum.reduceat(
                depth[ps], np.cumsum(n_parents[level]) - n_parents[level])
            owner = np.concatenate((level, np.repeat(child[links], row_len[ps])))
            anc = np.concatenate((level, rows[_ranges(row_start[ps], row_len[ps])]))
            owner, anc = np.divmod(_distinct(owner * n + anc), n)
            starts = np.searchsorted(owner, level)
            row_start[level] = used + starts
            row_len[level] = np.diff(np.append(starts, len(anc)))
            if used + len(anc) > len(rows):
                rows = np.concatenate((rows[:used], np.empty(used + 2 * len(anc), np.int64)))
            rows[used : used + len(anc)] = anc
            used += len(anc)
        # one root and no cycle mean every node reaches the root
        if sum(map(len, levels)) != n:
            raise StructureError("hypernym graph contains a cycle")
        self._depth = _view(depth)
        self.max_depth = int(depth.max())
        self._anc_indptr = _view(np.concatenate(([0], np.cumsum(row_len))))
        self._anc_indices = _view(rows[_ranges(row_start, row_len)])
        self._subsumers = _view(row_len)
        self.max_subsumer_count = int(row_len.max())
        # the measure ``new`` floors its distance at ln((M+1)/M) and scales
        # it by 2 ln M, M the maximum subsumer count: both frozen here
        m = self.max_subsumer_count
        self._new_floor = math.log((m + 1) / m)
        self._new_scale = 2.0 * math.log(m)
        # hyponym_count(c): distinct transitive descendants, excluding c
        self._hyponyms = np.bincount(self._anc_indices, minlength=n) - 1
        self._is_leaf = self._hyponyms == 0

        # the structure that drives cost, frozen for `taxsim info`
        self.edge_count = len(parent)
        multi = np.flatnonzero(n_parents > 1)
        self.multi_parent_count = len(multi)
        self.leaf_count = int(np.count_nonzero(self._is_leaf))
        self.max_fanout = int(n_children.max())

        # the core (see ``kernels``): the ancestor rows of the root and of
        # the multi-parent nodes. Peeling every node but the root that has
        # one link left never peels a parent while a child of it is live,
        # as the parent keeps its own parent link or is the root. So a
        # multi-parent node and its ancestors stay, and any other node u
        # goes once all its children have, hanging from its one parent up[u]
        seeds = np.append(roots, multi)
        in_core = np.zeros(n, dtype=bool)
        in_core[rows[_ranges(row_start[seeds], row_len[seeds])]] = True
        up = np.full(n, -1, dtype=np.int64)
        up[~in_core] = parent[parent_start[~in_core]]
        # core nodes are renumbered 0..core-1; anchor[u] is the core number
        # of the node u's subtree hangs from, hang[u] its hop count to it,
        # filled from the root down, as a parent sits at an earlier level
        core = np.flatnonzero(in_core)
        self.core_count = len(core)
        anchor = np.empty(n, dtype=np.int64)
        anchor[core] = np.arange(len(core))
        hang = np.zeros(n, dtype=np.int64)
        for level in levels:
            level = level[~in_core[level]]
            anchor[level] = anchor[up[level]]
            hang[level] = hang[up[level]] + 1
        # core-to-core links, both ways, as CSR neighbour rows by core number
        ends = np.concatenate((child, parent))
        others = np.concatenate((parent, child))
        both = in_core[ends] & in_core[others]
        ends, others = anchor[ends[both]], anchor[others[both]]
        core_degree = np.bincount(ends, minlength=len(core))
        core_indptr = np.concatenate(([0], np.cumsum(core_degree)))
        core_indices = others[np.argsort(ends, kind="stable")]
        # the distance table covers the core's branch nodes; its B² entries
        # are built on the first query between two anchors, so a run that
        # asks none never pays for them. No two nodes are further apart
        # than their two ways up to the root, 2 * max_depth - 2 links.
        self.branch_count = int(np.count_nonzero(kernels.branch_mask(core_degree)))
        tables = functools.cache(functools.partial(
            kernels.branch_tables, _view(core_indptr), _view(core_indices),
            2 * self.max_depth - 2))
        # wup, lch and rada_dist each ask for the same sense pairs, one
        # measure at a time, so a small memo answers the repeats. The
        # per-node arrays go in as views, which index to Python ints without
        # holding an int object per node.
        self._path = functools.lru_cache(maxsize=4096)(functools.partial(
            kernels.bfs_distance, _view(up), _view(anchor), _view(hang), tables))

        # every measure asks for the lcs of the same sense pairs, one
        # measure at a time; the memo is keyed (min(i, j), max(i, j)) and
        # holds only the arrays, not the taxonomy
        self._lcs = functools.lru_cache(maxsize=4096)(functools.partial(
            _lowest_common_subsumer, self._anc_indptr, self._anc_indices,
            self._depth, self._subsumers, self._ids))

    # -- basic lookups --------------------------------------------------

    def _index(self, synset_id):
        try:
            return self._pos[synset_id]
        except KeyError:
            raise UnknownSynsetError(synset_id) from None

    def _pair(self, c1, c2):
        """Node indices of c1 and c2, smaller first."""
        try:
            i, j = self._pos[c1], self._pos[c2]
        except KeyError as exc:
            raise UnknownSynsetError(exc.args[0]) from None
        return (i, j) if i <= j else (j, i)

    def __contains__(self, synset_id):
        return synset_id in self._pos

    def __len__(self):
        return len(self._ids)

    def leaves(self):
        return [self._ids[i] for i in np.flatnonzero(self._is_leaf)]

    # -- graph queries ---------------------------------------------------

    def ancestors(self, synset_id):
        """All synsets on any hypernym path from the root, including the
        synset itself: the subsumer set that ``lcs`` searches and whose
        size the hybrid IC takes the log of."""
        i = self._index(synset_id)
        idx = self._anc_indices[self._anc_indptr[i] : self._anc_indptr[i + 1]]
        return frozenset(self._ids[j] for j in idx)

    def subsumer_count(self, synset_id):
        """|ancestors(c)|, counting c itself; 1 only for the root."""
        return self._subsumers[self._index(synset_id)]

    def hyponym_count(self, synset_id):
        """Distinct transitive descendants, excluding the synset itself: the
        count the seco IC is built on."""
        return int(self._hyponyms[self._index(synset_id)])

    def depth(self, synset_id):
        """Node count along a shortest hypernym path from root; depth(root) = 1."""
        return self._depth[self._index(synset_id)]

    def lcs(self, c1, c2):
        """Deepest common ancestor of c1 and c2.

        Ties are broken by larger subsumer count, then smaller id, so the
        result is deterministic on DAGs. Identical arguments return the
        node itself: on multi-parent DAGs a min-path-deeper ancestor could
        otherwise win, which would break dist(c, c) == 0 downstream.
        """
        return self._ids[self._lcs(*self._pair(c1, c2))]

    def shortest_path_edges(self, c1, c2):
        """Fewest hypernym edges connecting c1 and c2, links taken as undirected."""
        return self._path(*self._pair(c1, c2))

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
