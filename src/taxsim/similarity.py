"""Concept-pair similarity and distance measures, plus word-level scoring.

Eight measures: resnik, jcn_dist, jcn_norm, lin (IC-based), rada_dist,
wup, lch (path/depth-based), and the comprehensive measure ``new`` built
on the subsumer-count IC. Word-level scores take the max over all sense
pairs for similarities and the min for distances.
"""

import math
from dataclasses import dataclass

from .errors import InvalidCombinationError, UnusableModelError

SIMILARITY = "similarity"
DISTANCE = "distance"


@dataclass(frozen=True)
class Score:
    value: float


def _ic_values(taxonomy, ic):
    """The values of the IC table an IC-based measure reads."""
    if ic is None:
        raise InvalidCombinationError("this measure requires an IC table")
    return ic.values()


def _normalized_ic_values(taxonomy, ic):
    values = _ic_values(taxonomy, ic)
    if not ic.normalized:
        raise InvalidCombinationError(
            f"jcn_norm needs a normalized IC table, got model {ic.model!r}")
    return values


def _no_values(taxonomy, ic):
    """Path measures read no table, and ignore one passed in."""
    return None


def _new_values(taxonomy, ic):
    m = taxonomy.max_subsumer_count
    if m < 2:
        raise UnusableModelError("sim_new needs a taxonomy with max subsumer count >= 2")
    return math.log((m + 1) / m), 2.0 * math.log(m)


# Each formula takes the taxonomy, the values its measure reads and two node
# indices i <= j, and returns a float.


def _resnik(taxonomy, values, i, j):
    """IC of the lowest common subsumer."""
    return values[taxonomy._lcs(i, j)]


def _jcn(taxonomy, values, i, j):
    """Jiang-Conrath distance: IC(c1) + IC(c2) - 2 IC(lcs)."""
    return max(values[i] + values[j] - 2.0 * values[taxonomy._lcs(i, j)], 0.0)


def _jcn_norm(taxonomy, values, i, j):
    """Jiang-Conrath distance linearly mapped to [0, 1]; needs IC in [0, 1]."""
    return 1.0 - _jcn(taxonomy, values, i, j) / 2.0


def _lin(taxonomy, values, i, j):
    """2 IC(lcs) / (IC(c1) + IC(c2)); 0 when both ICs are 0."""
    denom = values[i] + values[j]
    if denom == 0.0:
        return 0.0
    return 2.0 * values[taxonomy._lcs(i, j)] / denom


def _rada(taxonomy, values, i, j):
    """Edge count of the shortest undirected hypernym path."""
    return float(taxonomy._path(i, j))


def _wup(taxonomy, values, i, j):
    """Wu-Palmer: 2 d / (len + 2 d) with d the node-count depth of the lcs."""
    d = taxonomy._depth[taxonomy._lcs(i, j)]
    return 2.0 * d / (taxonomy._path(i, j) + 2.0 * d)


def _lch(taxonomy, values, i, j):
    """Leacock-Chodorow: -ln(path node count / (2 * max taxonomy depth))."""
    return -math.log((taxonomy._path(i, j) + 1) / (2.0 * taxonomy.max_depth))


def _new(taxonomy, values, i, j):
    """Comprehensive measure on the subsumer-count IC.

    value = ln(2 ln M / D) with M the maximum subsumer count in the
    taxonomy and D = ln s1 + ln s2 - 2 ln s_lcs floored at
    eps = ln((M+1)/M) so identical pairs get the maximal finite score.
    ``values`` holds (eps, 2 ln M), worked out once per scoring call.
    """
    floor, scale = values
    subsumers = taxonomy._subsumers
    d = (math.log(subsumers[i]) + math.log(subsumers[j])
         - 2.0 * math.log(subsumers[taxonomy._lcs(i, j)]))
    return math.log(scale / max(d, floor))


class Measure:
    """A named measure: its kind (similarity or distance), the IC model
    whose table it reads by default (None if it reads no table), its
    formula over node indices and the check that yields the values the
    formula reads."""

    __slots__ = ("name", "kind", "ic_model", "score", "values")

    def __init__(self, name, kind, ic_model, score, values):
        self.name = name
        self.kind = kind
        self.ic_model = ic_model
        self.score = score
        self.values = values

    def __call__(self, taxonomy, c1, c2, ic=None):
        """Score of one sense pair given by synset ids."""
        values = self.values(taxonomy, ic)
        return Score(self.score(taxonomy, values, *taxonomy._pair(c1, c2)))


MEASURES = {
    m.name: m
    for m in (
        Measure("resnik", SIMILARITY, "hybrid", _resnik, _ic_values),
        Measure("jcn_dist", DISTANCE, "hybrid", _jcn, _ic_values),
        # the linear map to [0, 1] needs IC in [0, 1]: seco is the one
        # normalized model
        Measure("jcn_norm", SIMILARITY, "seco", _jcn_norm, _normalized_ic_values),
        Measure("lin", SIMILARITY, "hybrid", _lin, _ic_values),
        Measure("rada_dist", DISTANCE, None, _rada, _no_values),
        Measure("wup", SIMILARITY, None, _wup, _no_values),
        Measure("lch", SIMILARITY, None, _lch, _no_values),
        Measure("new", SIMILARITY, None, _new, _new_values),
    )
}


def get_measure(name):
    try:
        return MEASURES[name]
    except KeyError:
        raise InvalidCombinationError(f"unknown measure {name!r}; "
                                      f"choose from {sorted(MEASURES)}") from None


def best_sense_pair(taxonomy, index, measure, w1, w2, ic=None):
    """Best score over all sense pairs of two words, with the winning pair.

    Returns (score, sense1, sense2). Similarities take the maximum,
    distances the minimum, so "best" always means "most similar"; on a tie
    the first pair in sense order wins. Raises OutOfVocabularyError for
    unknown lemmas, before the measure's own checks. Each word is looked up
    once and the measure's formula runs on node indices.
    """
    if isinstance(measure, str):
        measure = get_measure(measure)
    nodes1, nodes2 = index.nodes(w1), index.nodes(w2)
    values = measure.values(taxonomy, ic)
    if index.taxonomy is not taxonomy:
        # an index over another load: its node indices name its own
        # taxonomy's synsets, which may sit elsewhere here or be missing
        ids = index.taxonomy._ids
        nodes1, nodes2 = ([taxonomy._index(ids[i]) for i in nodes]
                          for nodes in (nodes1, nodes2))
    score = measure.score
    lower_is_better = measure.kind == DISTANCE
    best = None
    for i in nodes1:
        for j in nodes2:
            v = score(taxonomy, values, i, j) if i <= j else score(taxonomy, values, j, i)
            if best is None or (v < best if lower_is_better else v > best):
                best, b1, b2 = v, i, j
    ids = taxonomy._ids
    return Score(best), ids[b1], ids[b2]


def word_similarity(taxonomy, index, measure, w1, w2, ic=None):
    """Score two words: the score of their best sense pair."""
    return best_sense_pair(taxonomy, index, measure, w1, w2, ic=ic)[0]
