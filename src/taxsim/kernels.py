"""Exact shortest path over the undirected hypernym graph.

``Taxonomy`` peels the graph down to its 2-core at freeze time: round by
round it removes every node but the root that has one live link left. Each
removed node keeps the live neighbour it hung from (``up``), the core node
its subtree hangs from (its anchor) and its hop count to that node
(``hang``). Every path out of a hanging subtree passes through its anchor,
so a query needs no search when both endpoints hang from one anchor (climb
``up`` until they meet) and otherwise searches only between the two
anchors, with one pure-Python bidirectional breadth-first search (Pohl
1971) over the core's neighbour lists that always grows the smaller of its
two frontiers by a whole level.
"""


def bfs_distance(up, anchor, hang, neighbours, src, dst):
    """Fewest undirected edges between node indices src and dst.

    up[u] is the node a peeled node u hung from (-1 for a core node),
    anchor[u] the core number of the core node u hangs from (its own for a
    core node), hang[u] the hops from u to that node, and neighbours[k] the
    core numbers linked to core node k. The graph must be connected, as a
    single-rooted DAG and its peeled core are, so the two frontiers meet.
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
    # each side maps the core nodes it has reached to their distance from
    # its anchor; the two never overlap until the level that joins them, so
    # the first link into the other side closes a shortest path
    front, other_front = [a], [b]
    seen, other = {a: 0}, {b: 0}
    while True:
        if len(front) > len(other_front):
            front, other_front = other_front, front
            seen, other = other, seen
        level = seen[front[0]] + 1
        grown = []
        for u in front:
            for v in neighbours[u]:
                if v not in seen:
                    if v in other:
                        return hs + hd + level + other[v]
                    seen[v] = level
                    grown.append(v)
        front = grown
