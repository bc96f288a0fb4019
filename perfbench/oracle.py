"""Brute-force reference answers computed from the generator's intended
structure (``intended.json``), never from taxsim's parsers or caches."""

from collections import deque


class Oracle:
    """Plain-Python graph queries over integer node ids."""

    def __init__(self, intended):
        self.parents = intended["parents"]
        self.level = intended["level"]
        self.offsets = intended["offsets"]
        self.node_of = {off: i for i, off in enumerate(self.offsets)}
        n = len(self.parents)
        self.children = [[] for _ in range(n)]
        for child, ps in enumerate(self.parents):
            for p in ps:
                self.children[p].append(child)
        self._depth = None

    def distance(self, src, dst):
        """Undirected BFS edge count between two nodes, -1 if unreachable."""
        dist = {src: 0}
        queue = deque([src])
        while queue:
            node = queue.popleft()
            if node == dst:
                return dist[node]
            step = dist[node] + 1
            for other in self.parents[node] + self.children[node]:
                if other not in dist:
                    dist[other] = step
                    queue.append(other)
        return -1

    def ancestors(self, node):
        """Every node on an upward path from node, node included."""
        seen = {node}
        queue = deque([node])
        while queue:
            for p in self.parents[queue.popleft()]:
                if p not in seen:
                    seen.add(p)
                    queue.append(p)
        return seen

    def depth(self, node):
        """Node-count depth by BFS from the root over child links; root = 1."""
        if self._depth is None:
            depth = {0: 1}
            queue = deque([0])
            while queue:
                node_ = queue.popleft()
                for c in self.children[node_]:
                    if c not in depth:
                        depth[c] = depth[node_] + 1
                        queue.append(c)
            self._depth = depth
        return self._depth[node]

    def common_ancestors(self, a, b):
        return self.ancestors(a) & self.ancestors(b)

    def lcs(self, a, b):
        """Deepest common ancestor; ties by larger subsumer count, then
        smaller synset id (offset), as taxsim documents for Taxonomy.lcs."""
        if a == b:
            return a
        return min(self.common_ancestors(a, b),
                   key=lambda k: (-self.depth(k), -len(self.ancestors(k)), self.offsets[k]))


def check_roundtrip(taxonomy, index, intended):
    """Compare a loaded taxonomy and index with what the generator meant to
    write. Returns a list of mismatch descriptions (empty when all agree)."""
    errors = []
    offsets = intended["offsets"]
    parents = intended["parents"]
    n = len(offsets)
    if len(taxonomy) != n:
        errors.append(f"synset count {len(taxonomy)} != {n}")
    expected_max = max(intended["level"])
    if taxonomy.max_depth != expected_max:
        errors.append(f"max_depth {taxonomy.max_depth} != {expected_max}")
    has_children = [False] * n
    for i, off in enumerate(offsets):
        for p in parents[i]:
            has_children[p] = True
        synset = taxonomy.synsets.get(off)
        if synset is None:
            errors.append(f"synset {off} missing")
            continue
        if set(synset.hypernyms) != {offsets[p] for p in parents[i]}:
            errors.append(f"synset {off}: hypernyms {sorted(synset.hypernyms)}")
        if taxonomy.depth(off) != intended["level"][i]:
            errors.append(f"synset {off}: depth {taxonomy.depth(off)} != {intended['level'][i]}")
        if synset.lemmas != tuple(w.lower() for w in intended["words"][i]):
            errors.append(f"synset {off}: lemmas {synset.lemmas}")
        if len(errors) > 10:
            return errors
    leaves = has_children.count(False)
    if len(taxonomy.leaves()) != leaves:
        errors.append(f"leaf count {len(taxonomy.leaves())} != {leaves}")
    if len(index.entries) != len(intended["senses"]):
        errors.append(f"lemma count {len(index.entries)} != {len(intended['senses'])}")
    for lemma, sids in intended["senses"].items():
        if index.senses(lemma) != [offsets[s] for s in sids]:
            errors.append(f"lemma {lemma!r}: senses {index.senses(lemma)}")
            if len(errors) > 10:
                break
    return errors
