"""Loaders: WordNet 3.0 noun database files, TSV taxonomies, frequency files.

Only ``@`` and ``@i`` pointers with part-of-speech ``n`` become edges; the
noun "is a" graph is all the rest of the package cares about.
"""

import os
import warnings
from dataclasses import dataclass, field

from .errors import IntegrityError, OutOfVocabularyError, ParseError, StructureError
from .taxonomy import Synset, Taxonomy

_HYPERNYM_SYMBOLS = {"@", "@i"}


@dataclass(frozen=True)
class LemmaIndex:
    """Map from lowercase lemma to its synset ids in sense order."""

    entries: dict

    def senses(self, lemma):
        """Synset ids for a lemma; raises OutOfVocabularyError if absent."""
        key = normalize_lemma(lemma)
        try:
            return list(self.entries[key])
        except KeyError:
            raise OutOfVocabularyError(lemma) from None

    def __contains__(self, lemma):
        return normalize_lemma(lemma) in self.entries


@dataclass
class FrequencyTable:
    """Per-lemma corpus counts."""

    counts: dict = field(default_factory=dict)

    def count(self, lemma):
        return self.counts.get(normalize_lemma(lemma), 0)


def normalize_lemma(lemma):
    """WordNet storage convention: lowercase, internal spaces as underscores."""
    return lemma.strip().lower().replace(" ", "_")


def parse_data_noun(stream):
    """Parse a WordNet 3.0 ``data.noun`` stream into a list of Synset.

    Header lines (leading space) are skipped. Each record is
    ``offset lex_filenum ss_type w_cnt (word lex_id)* p_cnt (ptr)* | gloss``
    with w_cnt in 2-digit hex and p_cnt in 3-digit decimal. A line is cut at
    its first ``|`` and the gloss dropped, so gloss words are never fields.
    """
    synsets = []
    for lineno, line in enumerate(stream, start=1):
        if line.startswith(" ") or not line or line.isspace():
            continue
        fields = line.partition("|")[0].split()
        try:
            w_cnt = int(fields[3], 16)
            if w_cnt < 1:
                raise ValueError("w_cnt must be >= 1")
            p_pos = 4 + 2 * w_cnt
            end = p_pos + 1 + 4 * int(fields[p_pos], 10)
            if len(fields) < end:
                raise ValueError(f"record needs {end} fields, has {len(fields)}")
        except (IndexError, ValueError) as exc:
            raise ParseError(f"malformed data.noun record: {exc}", lineno) from None
        # pointers are (symbol, target, pos, source/target) quads
        hypernyms = tuple([fields[k + 1] for k in range(p_pos + 1, end, 4)
                           if fields[k + 2] == "n" and fields[k] in _HYPERNYM_SYMBOLS])
        synsets.append(Synset(fields[0], tuple(map(str.lower, fields[4:p_pos:2])),
                              hypernyms))
    return synsets


def parse_index_noun(stream):
    """Parse a WordNet 3.0 ``index.noun`` stream into a LemmaIndex."""
    entries = {}
    for lineno, line in enumerate(stream, start=1):
        if line.startswith(" ") or not line or line.isspace():
            continue
        fields = line.split()
        try:
            lemma = fields[0].lower()
            synset_cnt = int(fields[2], 10)
            p_cnt = int(fields[3], 10)
            offsets = fields[4 + p_cnt + 2 :]
        except (IndexError, ValueError) as exc:
            raise ParseError(f"malformed index.noun record: {exc}", lineno) from None
        if len(offsets) != synset_cnt:
            raise ParseError(
                f"lemma {lemma!r}: synset_cnt {synset_cnt} but "
                f"{len(offsets)} trailing offsets", lineno)
        entries[lemma] = offsets
    return LemmaIndex(entries)


def load_wordnet(directory):
    """Load data.noun + index.noun from a WordNet 3.0 dict directory."""
    with open(os.path.join(directory, "data.noun"), encoding="utf-8") as f:
        synsets = parse_data_noun(f)
    taxonomy = Taxonomy(synsets)
    with open(os.path.join(directory, "index.noun"), encoding="utf-8") as f:
        index = parse_index_noun(f)
    known = taxonomy._pos
    for lemma, offs in index.entries.items():
        for off in offs:
            if off not in known:
                raise IntegrityError(
                    f"index lemma {lemma!r} references unknown synset {off}")
    return taxonomy, index


def load_tsv_taxonomy(stream):
    """Load the simple TSV fixture format.

    ``child<TAB>parent`` lines declare edges; ``lemma<TAB>#<TAB>synset``
    lines bind extra lemmas. The one node with no parent line is the root.
    Every node also gets its own lowercased id as a lemma.
    """
    edges = set()
    bindings = []
    nodes = []
    seen = set()

    def add_node(name):
        if name not in seen:
            seen.add(name)
            nodes.append(name)

    for lineno, line in enumerate(stream, start=1):
        line = line.rstrip("\n")
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) == 3 and parts[1] == "#":
            bindings.append((lineno, parts[0], parts[2]))
            continue
        if len(parts) != 2:
            raise ParseError(f"expected 'child<TAB>parent', got {line!r}", lineno)
        child, parent = parts[0].strip(), parts[1].strip()
        if not child or not parent:
            raise ParseError("empty node name", lineno)
        if child == parent:
            raise StructureError(f"line {lineno}: self-loop edge {child!r}")
        if (child, parent) in edges:
            warnings.warn(f"duplicate edge {child!r} -> {parent!r} (line {lineno})")
            continue
        edges.add((child, parent))
        add_node(child)
        add_node(parent)

    parents = {n: [] for n in nodes}
    for child, parent in sorted(edges):
        parents[child].append(parent)

    entries = {}
    synsets = []
    for n in nodes:
        synsets.append(Synset(id=n, lemmas=(normalize_lemma(n),),
                              hypernyms=tuple(parents[n])))
        entries.setdefault(normalize_lemma(n), []).append(n)
    taxonomy = Taxonomy(synsets)
    for lineno, lemma, target in bindings:
        if target not in taxonomy:
            raise ParseError(f"lemma {lemma!r} bound to unknown synset {target!r}",
                             lineno)
        key = normalize_lemma(lemma)
        entries.setdefault(key, [])
        if target not in entries[key]:
            entries[key].append(target)
    return taxonomy, LemmaIndex(entries)


def load_frequencies(stream):
    """Load ``lemma<TAB>count`` lines; duplicate lemmas are summed."""
    counts = {}
    for lineno, line in enumerate(stream, start=1):
        line = line.rstrip("\n")
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise ParseError(f"expected 'lemma<TAB>count', got {line!r}", lineno)
        lemma = normalize_lemma(parts[0])
        try:
            count = int(parts[1], 10)
        except ValueError:
            raise ParseError(f"non-numeric count {parts[1]!r}", lineno) from None
        if count < 0:
            raise ParseError(f"negative count {count}", lineno)
        counts[lemma] = counts.get(lemma, 0) + count
    return FrequencyTable(counts)
