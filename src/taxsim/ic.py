"""Information-content models over a Taxonomy.

Four models: corpus (frequency-propagated, Resnik-style), seco
(hyponym-count intrinsic), sanchez (leaf commonness), and hybrid
(log of the subsumer count). All use natural log; IC(root) is 0 for
every model and IC never decreases from a node to its children.
"""

import math

import numpy as np

from .errors import InvalidCombinationError, UnusableModelError

MODELS = ("corpus", "seco", "sanchez", "hybrid")


class IcTable:
    """Frozen per-synset IC values for one model."""

    def __init__(self, taxonomy, model, values, normalized):
        self.taxonomy = taxonomy
        self.model = model
        self.normalized = normalized
        self._values = np.asarray(values, dtype=np.float64)
        self._values.setflags(write=False)

    def __getitem__(self, synset_id):
        return float(self._values[self.taxonomy._index(synset_id)])

    def values(self):
        """Mapping-free view aligned to taxonomy.ids() order."""
        return self._values


def ic_corpus(taxonomy, index, frequencies):
    """Corpus IC: -ln(Freq(c) / Freq(root)) with add-one smoothing per lemma.

    Freq(c) sums the smoothed counts of every lemma of every synset in c's
    hyponym closure, c included. A lemma's full count goes to each synset
    containing it.
    """
    if not frequencies.counts:
        # zero counts are fine (smoothing covers them); an empty table is not
        raise UnusableModelError("corpus IC requires a non-empty frequency table")
    self_weight = np.zeros(len(taxonomy), dtype=np.float64)
    for i, sid in enumerate(taxonomy.ids()):
        for lemma in taxonomy.synsets[sid].lemmas:
            self_weight[i] += frequencies.count(lemma) + 1
    freq = taxonomy._scatter_to_ancestors(self_weight)
    root_freq = freq[taxonomy._index(taxonomy.root)]
    if root_freq <= 0:
        raise UnusableModelError("corpus IC needs a positive total frequency")
    values = -np.log(freq / root_freq)
    values[values <= 0] = 0.0  # guard against -0.0 / float noise at the root
    return IcTable(taxonomy, "corpus", values, normalized=False)


def ic_seco(taxonomy):
    """Seco intrinsic IC: 1 - ln(hypo(c) + 1) / ln(max_nodes), in [0, 1]."""
    n = taxonomy.max_nodes
    if n < 2:
        raise UnusableModelError("seco IC is undefined on a single-node taxonomy")
    values = 1.0 - np.log(taxonomy._hyponyms + 1.0) / math.log(n)
    return IcTable(taxonomy, "seco", values, normalized=True)


def ic_sanchez(taxonomy):
    """Commonness IC: -ln(commonness(c) / commonness(root)).

    commonness(c) sums 1/subsumer_count(leaf) over every leaf at or below
    c; a leaf contributes only its own term.
    """
    leaf_weight = np.where(taxonomy._is_leaf, 1.0 / taxonomy._subsumers, 0.0)
    commonness = taxonomy._scatter_to_ancestors(leaf_weight)
    root_c = commonness[taxonomy._index(taxonomy.root)]
    values = -np.log(commonness / root_c)
    values[values <= 0] = 0.0
    return IcTable(taxonomy, "sanchez", values, normalized=False)


def ic_hybrid(taxonomy, synset_id):
    """Hybrid IC of one concept: ln(subsumer_count(c)); 0 only at the root."""
    return math.log(taxonomy.subsumer_count(synset_id))


def ic_hybrid_table(taxonomy):
    """Hybrid IC for every synset, as a frozen table."""
    values = np.log(taxonomy._subsumers)
    return IcTable(taxonomy, "hybrid", values, normalized=False)


def make_table(taxonomy, model, index=None, frequencies=None):
    """Build the IcTable for a model name; corpus needs index+frequencies."""
    if model == "corpus":
        if frequencies is None:
            raise UnusableModelError("corpus IC requires a frequency table")
        return ic_corpus(taxonomy, index, frequencies)
    if model == "seco":
        return ic_seco(taxonomy)
    if model == "sanchez":
        return ic_sanchez(taxonomy)
    if model == "hybrid":
        return ic_hybrid_table(taxonomy)
    raise InvalidCombinationError(f"unknown IC model {model!r}")
