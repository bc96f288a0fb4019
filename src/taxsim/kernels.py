"""Exact shortest path over the undirected hypernym graph.

One pure-Python bidirectional breadth-first search (Pohl 1971) that always
grows the smaller of its two frontiers by a whole level. It runs over
per-node neighbour lists that ``Taxonomy`` builds once at freeze time, with
pendant nodes (exactly one undirected link, mostly single-parent leaves)
pruned from every list but their own: such a node is never inside a
shortest path, so an endpoint that is one is first stepped onto its only
neighbour.
"""


def bfs_distance(neighbours, pendant, src, dst):
    """Fewest undirected edges between node indices src and dst, -1 if no
    path joins them.

    neighbours[u] lists u's links to non-pendant nodes; a pendant node's
    list holds its single neighbour. pendant[u] is true for those nodes.
    """
    if src == dst:
        return 0
    steps = 0
    if pendant[src]:
        src = neighbours[src][0]
        steps = 1
        if src == dst:
            return steps
    if pendant[dst]:
        dst = neighbours[dst][0]
        steps += 1
        if src == dst:
            return steps
    # each side maps the nodes it has reached to their distance from its
    # endpoint; the two never overlap until the level that joins them, so
    # the first link into the other side closes a shortest path
    front, other_front = [src], [dst]
    seen, other = {src: 0}, {dst: 0}
    while front and other_front:
        if len(front) > len(other_front):
            front, other_front = other_front, front
            seen, other = other, seen
        level = seen[front[0]] + 1
        grown = []
        for u in front:
            for v in neighbours[u]:
                if v not in seen:
                    if v in other:
                        return steps + level + other[v]
                    seen[v] = level
                    grown.append(v)
        front = grown
    return -1
