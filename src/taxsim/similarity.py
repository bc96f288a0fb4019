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


def _ic_values(ic):
    if ic is None:
        raise InvalidCombinationError("this measure requires an IC table")
    return ic.values()


def _indices(taxonomy, c1, c2):
    """Node indices of c1 and c2, smaller first, and of their lcs."""
    i, j = taxonomy._pair(c1, c2)
    return i, j, taxonomy._lcs(i, j)


def sim_resnik(taxonomy, ic, c1, c2):
    """IC of the lowest common subsumer."""
    values = _ic_values(ic)
    _, _, k = _indices(taxonomy, c1, c2)
    return Score(values[k])


def _jcn(values, i, j, k):
    """Jiang-Conrath distance from IC values and node indices."""
    return max(values[i] + values[j] - 2.0 * values[k], 0.0)


def dist_jcn(taxonomy, ic, c1, c2):
    """Jiang-Conrath distance: IC(c1) + IC(c2) - 2 IC(lcs)."""
    values = _ic_values(ic)
    return Score(_jcn(values, *_indices(taxonomy, c1, c2)))


def sim_jcn_norm(taxonomy, ic, c1, c2):
    """Jiang-Conrath distance linearly mapped to [0, 1]; needs IC in [0, 1]."""
    values = _ic_values(ic)
    if not ic.normalized:
        raise InvalidCombinationError(
            f"jcn_norm needs a normalized IC table, got model {ic.model!r}")
    return Score(1.0 - _jcn(values, *_indices(taxonomy, c1, c2)) / 2.0)


def sim_lin(taxonomy, ic, c1, c2):
    """2 IC(lcs) / (IC(c1) + IC(c2)); 0 when both ICs are 0."""
    values = _ic_values(ic)
    i, j, k = _indices(taxonomy, c1, c2)
    denom = values[i] + values[j]
    if denom == 0.0:
        return Score(0.0)
    return Score(2.0 * values[k] / denom)


def dist_rada(taxonomy, c1, c2):
    """Edge count of the shortest undirected hypernym path."""
    return Score(float(taxonomy.shortest_path_edges(c1, c2)))


def sim_wup(taxonomy, c1, c2):
    """Wu-Palmer: 2 d / (len + 2 d) with d the node-count depth of the lcs."""
    _, _, k = _indices(taxonomy, c1, c2)
    d = taxonomy._depth[k]
    length = taxonomy.shortest_path_edges(c1, c2)
    return Score(2.0 * d / (length + 2.0 * d))


def sim_lch(taxonomy, c1, c2):
    """Leacock-Chodorow: -ln(path node count / (2 * max taxonomy depth))."""
    len_nodes = taxonomy.shortest_path_edges(c1, c2) + 1
    return Score(-math.log(len_nodes / (2.0 * taxonomy.max_depth)))


def sim_new(taxonomy, c1, c2):
    """Comprehensive measure on the subsumer-count IC.

    value = ln(2 ln M / D) with M the maximum subsumer count in the
    taxonomy and D = ln s1 + ln s2 - 2 ln s_lcs floored at
    eps = ln((M+1)/M) so identical pairs get the maximal finite score.
    """
    m = taxonomy.max_subsumer_count
    if m < 2:
        raise UnusableModelError("sim_new needs a taxonomy with max subsumer count >= 2")
    eps = math.log((m + 1) / m)
    i, j, k = _indices(taxonomy, c1, c2)
    subsumers = taxonomy._subsumers
    d = math.log(subsumers[i]) + math.log(subsumers[j]) - 2.0 * math.log(subsumers[k])
    d = max(d, eps)
    return Score(math.log(2.0 * math.log(m) / d))


class Measure:
    """A named measure: its kind (similarity or distance) and the IC model
    whose table it reads by default, or None if it reads no table."""

    __slots__ = ("name", "kind", "ic_model", "_func")

    def __init__(self, name, kind, ic_model, func):
        self.name = name
        self.kind = kind
        self.ic_model = ic_model
        self._func = func

    def __call__(self, taxonomy, c1, c2, ic=None):
        if self.ic_model:
            return self._func(taxonomy, ic, c1, c2)
        return self._func(taxonomy, c1, c2)


MEASURES = {
    m.name: m
    for m in (
        Measure("resnik", SIMILARITY, "hybrid", sim_resnik),
        Measure("jcn_dist", DISTANCE, "hybrid", dist_jcn),
        # the linear map to [0, 1] needs IC in [0, 1]: seco is the one
        # normalized model
        Measure("jcn_norm", SIMILARITY, "seco", sim_jcn_norm),
        Measure("lin", SIMILARITY, "hybrid", sim_lin),
        Measure("rada_dist", DISTANCE, None, dist_rada),
        Measure("wup", SIMILARITY, None, sim_wup),
        Measure("lch", SIMILARITY, None, sim_lch),
        Measure("new", SIMILARITY, None, sim_new),
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
    unknown lemmas.
    """
    if isinstance(measure, str):
        measure = get_measure(measure)
    senses1 = index.senses(w1)
    senses2 = index.senses(w2)
    lower_is_better = measure.kind == DISTANCE
    best = None
    for c1 in senses1:
        for c2 in senses2:
            s = measure(taxonomy, c1, c2, ic=ic)
            if best is None or (s.value < best.value if lower_is_better
                                else s.value > best.value):
                best, pair = s, (c1, c2)
    return (best, *pair)


def word_similarity(taxonomy, index, measure, w1, w2, ic=None):
    """Score two words: the score of their best sense pair."""
    return best_sense_pair(taxonomy, index, measure, w1, w2, ic=ic)[0]
