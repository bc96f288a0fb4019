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
        self._values = memoryview(np.asarray(values, dtype=np.float64)).toreadonly()

    def __getitem__(self, synset_id):
        return self._values[self.taxonomy._index(synset_id)]

    def values(self):
        """Read-only memoryview of the values in the order of
        ``taxonomy.synsets``: it indexes to Python floats, and
        ``np.asarray`` of it copies nothing."""
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
    # one pass over the lemma column, which runs in node index order; each
    # synset's lemma weights are summed in lemma order, as a loop would
    columns = taxonomy._columns
    owner = np.repeat(np.arange(len(taxonomy)), np.diff(np.asarray(columns.lemma_indptr)))
    weights = np.fromiter((count + 1 for count in map(frequencies.count, columns.lemmas)),
                          dtype=np.float64, count=len(columns.lemmas))
    self_weight = np.bincount(owner, weights=weights, minlength=len(taxonomy))
    freq = taxonomy._scatter_to_ancestors(self_weight)
    root_freq = freq[taxonomy._index(taxonomy.root)]
    if root_freq <= 0:
        raise UnusableModelError("corpus IC needs a positive total frequency")
    # a negative count (in a table built in code) can zero a subtree: IC inf or NaN
    bad = np.flatnonzero(freq <= 0)
    if len(bad):
        raise UnusableModelError(f"corpus IC needs a positive frequency at every synset; "
                                 f"{taxonomy._ids[bad[0]]!r} has {freq[bad[0]]:g}")
    values = -np.log(freq / root_freq)
    values[values <= 0] = 0.0  # guard against -0.0 / float noise at the root
    return IcTable(taxonomy, "corpus", values, normalized=False)


def ic_seco(taxonomy):
    """Seco intrinsic IC: 1 - ln(hypo(c) + 1) / ln(node count), in [0, 1]."""
    n = len(taxonomy)
    if n < 2:
        raise UnusableModelError("seco IC is undefined on a single-node taxonomy")
    values = 1.0 - np.log(taxonomy._hyponyms + 1.0) / math.log(n)
    return IcTable(taxonomy, "seco", values, normalized=True)


def ic_sanchez(taxonomy):
    """Commonness IC: -ln(commonness(c) / commonness(root)).

    commonness(c) sums 1/subsumer_count(leaf) over every leaf at or below
    c; a leaf contributes only its own term.
    """
    leaf_weight = np.where(taxonomy._is_leaf, 1.0 / np.asarray(taxonomy._subsumers), 0.0)
    commonness = taxonomy._scatter_to_ancestors(leaf_weight)
    root_c = commonness[taxonomy._index(taxonomy.root)]
    values = -np.log(commonness / root_c)
    values[values <= 0] = 0.0
    return IcTable(taxonomy, "sanchez", values, normalized=False)


def ic_hybrid_table(taxonomy):
    """Hybrid IC: ln(subsumer_count(c)) for every synset; 0 only at the root."""
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
