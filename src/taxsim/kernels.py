"""Exact shortest path over the undirected hypernym graph.

``Taxonomy`` splits the graph at freeze time into its core, the root plus
every ancestor of a multi-parent node, and the trees that hang from it:
every other node has one parent, and so has every node below it. The core
is what is left once every node but the root that has one link is removed,
until none has. Each hanging node keeps its one parent (``up``), the core
node its tree hangs from (its anchor) and its hop count to that node
(``hang``). Every path out of a hanging tree passes through its anchor, so
a query needs no search when both endpoints hang from one anchor (climb
``up`` until they meet) and otherwise adds both hop counts to the distance
between the two anchors, which it reads off a table.

The table covers the core's branch nodes: the core nodes whose degree is
not 2, or one node when the core is a single cycle. The other core nodes
lie on chains, runs of degree-2 nodes between two branch nodes (or from
one back to itself). A path out of a chain leaves it through one of its two
ends, so the distance between core nodes on different chains is the least
of the four sums (hops to an end of one chain) + (table entry between the
two ends) + (hops from an end of the other chain); on one chain it may
also be their distance along it. ``branch_tables`` walks the chains and
fills the table with one breadth-first search from all branch nodes at
once, one bit per source. The table holds B² entries for B branch nodes
(1,279 on the 82,115-node WordNet-shaped fixture: 1.6 MB as uint8), so
``Taxonomy`` builds it on the first query that needs it.
"""

import numpy as np


def branch_mask(degree):
    """Which core nodes are branch nodes, from their degrees in the core:
    those whose degree is not 2, or node 0 of a core that is one cycle."""
    is_branch = degree != 2
    is_branch[0] |= not is_branch.any()
    return is_branch


def branch_tables(indptr, indices, longest):
    """Chain and distance tables of a connected core graph, as the tuple
    (head, tail, to_head, to_tail, chain, dist, B) of read-only memoryviews
    and the branch count B.

    Core node k's neighbours are indices[indptr[k]:indptr[k + 1]]. It lies
    on a chain from branch node head[k] to branch node tail[k] (branch
    numbers 0..B-1), to_head[k] and to_tail[k] hops from them along it;
    chain[k] numbers its chain, or is -1 - k for a branch node, which is
    its own head and tail at 0 hops. dist[x * B + y] is the fewest links
    between branch nodes x and y, in the smallest unsigned dtype that holds
    longest, a bound on any distance in the graph.
    """
    indptr, indices = np.asarray(indptr), np.asarray(indices)
    n = len(indptr) - 1
    degree = np.diff(indptr)
    is_branch = branch_mask(degree)
    branch = np.flatnonzero(is_branch)
    width = len(branch)
    number = np.where(is_branch, np.cumsum(is_branch) - 1, -1)

    # walk each chain out of its head, through degree-2 nodes to its tail
    flat, bounds, number = indices.tolist(), indptr.tolist(), number.tolist()
    head, tail = number[:], number[:]
    to_head, to_tail = [0] * n, [0] * n
    chain = list(range(-1, -1 - n, -1))
    chains = 0
    for x in branch.tolist():
        for v in flat[bounds[x] : bounds[x + 1]]:
            if number[v] >= 0 or chain[v] >= 0:
                continue  # a branch node, or a chain walked from its other end
            run, prev = [], x
            while number[v] < 0:
                run.append(v)
                a, b = flat[bounds[v]], flat[bounds[v] + 1]
                prev, v = v, (b if a == prev else a)
            for t, u in enumerate(run, 1):
                head[u], tail[u] = number[x], number[v]
                to_head[u], to_tail[u] = t, len(run) + 1 - t
                chain[u] = chains
            chains += 1

    # breadth-first search from every branch node at once: bit s of
    # reached[k] is set once branch node s has reached core node k. A level
    # ORs into a chain node the bits new at its two neighbours and into a
    # branch node those new on its whole row; dist[t, s] counts the levels
    # that ended with s not yet at t. One branch node is 0 links from itself.
    words = (width + 63) // 64
    bit = np.arange(width)
    reached = np.zeros((n, words), dtype="<u8")
    reached[branch, bit // 64] = np.uint64(1) << (bit % 64).astype(np.uint64)
    inner = np.flatnonzero(~is_branch)
    left, right = indices[indptr[inner]], indices[indptr[inner] + 1]
    row = indices[np.repeat(is_branch, degree)]
    row_start = np.cumsum(degree[branch]) - degree[branch]
    dist = np.zeros((width, width), dtype=np.min_scalar_type(longest))
    front = reached
    while width > 1 and front.any():
        dist += np.unpackbits((~reached[branch]).view(np.uint8), axis=1,
                              bitorder="little")[:, :width]
        grown = np.empty_like(front)
        grown[inner] = front[left] | front[right]
        grown[branch] = np.bitwise_or.reduceat(front[row], row_start, axis=0)
        front = grown & ~reached
        reached |= front

    def view(values):
        return memoryview(np.asarray(values)).toreadonly()

    return (view(head), view(tail), view(to_head), view(to_tail), view(chain),
            view(dist.ravel()), width)


def bfs_distance(up, anchor, hang, tables, src, dst):
    """Fewest undirected edges between node indices src and dst.

    up[u] is the one parent of a hanging node u (-1 for a core node),
    anchor[u] the core number of the core node u hangs from (its own for a
    core node) and hang[u] the hops from u to that node. tables() returns
    ``branch_tables`` of the core, built on its first call.
    """
    a, b = anchor[src], anchor[dst]
    hs, hd = hang[src], hang[dst]
    if a == b:
        # one hanging tree: climb from the deeper endpoint, then from both
        # until they meet, at the anchor at the latest
        steps = abs(hs - hd)
        for _ in range(hs - hd):
            src = up[src]
        for _ in range(hd - hs):
            dst = up[dst]
        while src != dst:
            src, dst = up[src], up[dst]
            steps += 2
        return steps
    head, tail, to_head, to_tail, chain, dist, width = tables()
    x, y, p, q = head[a] * width, tail[a] * width, head[b], tail[b]
    ta, ua, tb, ub = to_head[a], to_tail[a], to_head[b], to_tail[b]
    best = min(ta + dist[x + p] + tb, ta + dist[x + q] + ub,
               ua + dist[y + p] + tb, ua + dist[y + q] + ub)
    if chain[a] == chain[b]:
        best = min(best, abs(ta - tb))
    return hs + hd + best
