"""Loaders: WordNet 3.0 noun database files, TSV taxonomies, frequency files.

Only ``@`` and ``@i`` pointers with part-of-speech ``n`` become edges; the
noun "is a" graph is all the rest of the package cares about.
"""

import os
import re
import warnings
from array import array
from dataclasses import dataclass, field

from .errors import IntegrityError, OutOfVocabularyError, ParseError, StructureError
from .taxonomy import Synset, SynsetColumns, Taxonomy

_HYPERNYM_SYMBOLS = {"@", "@i"}


@dataclass(frozen=True)
class LemmaIndex:
    """Map from lowercase lemma to the node indices of its synsets in
    taxonomy, a tuple in sense order."""

    taxonomy: Taxonomy
    entries: dict

    def nodes(self, lemma):
        """Node indices for a lemma; raises OutOfVocabularyError if absent."""
        try:
            return self.entries[normalize_lemma(lemma)]
        except KeyError:
            raise OutOfVocabularyError(lemma) from None

    def senses(self, lemma):
        """Synset ids for a lemma, as a new list; raises
        OutOfVocabularyError if absent."""
        ids = self.taxonomy._ids
        return [ids[i] for i in self.nodes(lemma)]

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


def record_fields(line):
    """The fields of one WordNet 3.0 database line, or None for a header
    line (leading space), a blank or a whitespace-only line: the line cut
    at its first ``|`` and split on whitespace, so gloss words are never
    fields."""
    if line and not line.startswith(" ") and not line.isspace():
        return line.partition("|")[0].split()
    return None


_DIGITS = {10: re.compile("[0-9]+"), 16: re.compile("[0-9a-fA-F]+")}


def _count(text, name, low, base=10):
    """A record's count field as an int, at least low, written in ASCII
    decimal digits (hex digits for base 16)."""
    value = int(text, base)
    if value < low:
        raise ValueError(f"{name} must be >= {low}")
    if not _DIGITS[base].fullmatch(text):
        kind = "hex" if base == 16 else "decimal"
        raise ValueError(f"{name} must be ASCII {kind} digits, got {text!r}")
    return value


# Each count as the WordNet files spell it, mapped to its value: w_cnt in
# two lower-case hex digits, data.noun's p_cnt in three decimal digits and
# the index.noun counts in decimal without leading zeros. The parsers read
# a line with these spellings inline; any other line goes to the record
# rule (record_fields, _count and the layout functions below), which reads
# it to the same values or rejects it.
_W_CNT = {f"{k:02x}": k for k in range(1, 256)}
_DATA_P_CNT = {f"{k:03d}": k for k in range(1000)}
_INDEX_COUNT = {str(k): k for k in range(1000)}


def _data_layout(fields, lineno):
    """Where a ``data.noun`` record's pointers start and end: ``(p_pos,
    end)``, with ``fields[p_pos]`` the p_cnt field. A malformed record
    raises ParseError at lineno."""
    try:
        if fields[2] != "n":
            raise ValueError(f"ss_type must be 'n', got {fields[2]!r}")
        p_pos = 4 + 2 * _count(fields[3], "w_cnt", 1, 16)
        end = p_pos + 1 + 4 * _count(fields[p_pos], "p_cnt", 0)
        if len(fields) < end:
            raise ValueError(f"record needs {end} fields, has {len(fields)}")
    except (IndexError, ValueError) as exc:
        raise ParseError(f"malformed data.noun record: {exc}", lineno) from None
    return p_pos, end


def parse_data_noun(stream):
    """Parse a WordNet 3.0 ``data.noun`` stream, line by line, into
    SynsetColumns: ids, lowercased lemmas and hypernym ids, one record per
    synset.

    Each record is ``offset lex_filenum ss_type w_cnt (word lex_id)* p_cnt
    (ptr)* | gloss`` with w_cnt in 2-digit hex and p_cnt in 3-digit decimal.
    A malformed record raises ParseError at its line.
    """
    ids, lemmas, hypernyms = [], [], []
    lemma_indptr, hypernym_indptr = array("q", [0]), array("q", [0])
    for lineno, line in enumerate(stream, start=1):
        fields = line.partition("|")[0].split()
        try:
            p_pos = 4 + 2 * _W_CNT[fields[3]]
            end = p_pos + 1 + 4 * _DATA_P_CNT[fields[p_pos]]
            canonical = fields[2] == "n" and len(fields) >= end and line[0] != " "
        except (IndexError, KeyError):
            canonical = False
        if not canonical:
            fields = record_fields(line)
            if fields is None:
                continue
            p_pos, end = _data_layout(fields, lineno)
        ids.append(fields[0])
        lemmas += map(str.lower, fields[4:p_pos:2])
        lemma_indptr.append(len(lemmas))
        # pointers are (symbol, target, pos, source/target) quads
        for k in range(p_pos + 1, end, 4):
            if fields[k + 2] == "n" and fields[k] in _HYPERNYM_SYMBOLS:
                hypernyms.append(fields[k + 1])
        hypernym_indptr.append(len(hypernyms))
    return SynsetColumns(ids, lemmas, lemma_indptr, hypernyms, hypernym_indptr)


def _index_layout(fields, lineno, seen):
    """An ``index.noun`` record's lemma, synset_cnt and the position of its
    sense_cnt field. A malformed record, a synset_cnt that does not match
    the offsets or a lemma already in seen raises ParseError at lineno."""
    try:
        lemma = fields[0].lower()
        if fields[1] != "n":
            raise ValueError(f"pos must be 'n', got {fields[1]!r}")
        synset_cnt = _count(fields[2], "synset_cnt", 1)
        s_pos = 4 + _count(fields[3], "p_cnt", 0)
        _count(fields[s_pos], "sense_cnt", 0)
        _count(fields[s_pos + 1], "tagsense_cnt", 0)
    except (IndexError, ValueError) as exc:
        raise ParseError(f"malformed index.noun record: {exc}", lineno) from None
    if len(fields) - s_pos - 2 != synset_cnt:
        raise ParseError(
            f"lemma {lemma!r}: synset_cnt {synset_cnt} but "
            f"{len(fields) - s_pos - 2} trailing offsets", lineno)
    if lemma in seen:
        raise ParseError(f"duplicate lemma {lemma!r}", lineno)
    return lemma, synset_cnt, s_pos


def parse_index_noun(stream, taxonomy):
    """Parse a WordNet 3.0 ``index.noun`` stream, line by line, into a
    LemmaIndex over taxonomy.

    Each record is ``lemma pos synset_cnt p_cnt (ptr_symbol)* sense_cnt
    tagsense_cnt (synset_offset)*``. A pos other than ``n``, a bad count, a
    lemma with no sense, a lemma seen before, or an offset that is not a
    synset of taxonomy raises at its line. Offsets are mapped to nodes by
    their string ids, so ``0001`` never matches ``00000001``.
    """
    known = taxonomy._pos
    entries = {}
    for lineno, line in enumerate(stream, start=1):
        fields = line.split()
        try:
            lemma = fields[0].lower()
            synset_cnt = _INDEX_COUNT[fields[2]]
            s_pos = 4 + _INDEX_COUNT[fields[3]]
            canonical = (synset_cnt and fields[1] == "n" and fields[s_pos] in _INDEX_COUNT
                         and fields[s_pos + 1] in _INDEX_COUNT
                         and len(fields) == s_pos + 2 + synset_cnt
                         and line[0] != " " and "|" not in line and lemma not in entries)
        except (IndexError, KeyError):
            canonical = False
        if not canonical:
            fields = record_fields(line)
            if fields is None:
                continue
            lemma, synset_cnt, s_pos = _index_layout(fields, lineno, entries)
        try:
            # most lemmas have one sense, which needs no map over the offsets
            entries[lemma] = ((known[fields[-1]],) if synset_cnt == 1
                              else tuple(map(known.__getitem__, fields[s_pos + 2 :])))
        except KeyError as exc:
            raise IntegrityError(f"index lemma {lemma!r} references unknown synset "
                                 f"{exc.args[0]}", lineno) from None
    return LemmaIndex(taxonomy, entries)


def load_wordnet(directory):
    """Load data.noun + index.noun from a WordNet 3.0 dict directory."""
    with open(os.path.join(directory, "data.noun"), encoding="utf-8") as f:
        taxonomy = Taxonomy(parse_data_noun(f))
    with open(os.path.join(directory, "index.noun"), encoding="utf-8") as f:
        return taxonomy, parse_index_noun(f, taxonomy)


def tsv_rows(stream):
    """Yield ``(line number, fields)`` per TSV line: the newline stripped,
    blank, whitespace-only and ``#`` lines skipped, the rest split on tabs."""
    for lineno, line in enumerate(stream, start=1):
        line = line.rstrip("\n")
        if line.strip() and not line.startswith("#"):
            yield lineno, line.split("\t")


def load_tsv_taxonomy(stream):
    """Load the simple TSV fixture format.

    ``child<TAB>parent`` lines declare edges; ``lemma<TAB>#<TAB>synset``
    lines bind extra lemmas. The one node with no parent line is the root.
    Every node also gets its own lowercased id as a lemma.
    """
    parents = {}  # node -> its parents, nodes in order of first mention
    bindings = []
    for lineno, parts in tsv_rows(stream):
        if len(parts) == 3 and parts[1] == "#":
            bindings.append((lineno, parts[0], parts[2].strip()))
            continue
        if len(parts) != 2:
            line = "\t".join(parts)
            raise ParseError(f"expected 'child<TAB>parent', got {line!r}", lineno)
        child, parent = parts[0].strip(), parts[1].strip()
        if not child or not parent:
            raise ParseError("empty node name", lineno)
        if child == parent:
            raise StructureError(f"self-loop edge {child!r}", lineno)
        hypernyms = parents.setdefault(child, [])
        if parent in hypernyms:
            warnings.warn(f"duplicate edge {child!r} -> {parent!r} (line {lineno})")
            continue
        hypernyms.append(parent)
        parents.setdefault(parent, [])

    entries = {}
    synsets = []
    for n, hypernyms in parents.items():
        key = normalize_lemma(n)
        synsets.append(Synset(n, (key,), tuple(sorted(hypernyms))))
        entries.setdefault(key, []).append(n)
    taxonomy = Taxonomy(synsets)
    for lineno, lemma, target in bindings:
        if target not in taxonomy:
            raise ParseError(f"lemma {lemma!r} bound to unknown synset {target!r}",
                             lineno)
        senses = entries.setdefault(normalize_lemma(lemma), [])
        if target not in senses:
            senses.append(target)
    pos = taxonomy._pos
    return taxonomy, LemmaIndex(taxonomy, {lemma: tuple([pos[sid] for sid in senses])
                                           for lemma, senses in entries.items()})


def load_frequencies(stream):
    """Load ``lemma<TAB>count`` lines; duplicate lemmas are summed."""
    counts = {}
    for lineno, parts in tsv_rows(stream):
        if len(parts) != 2:
            line = "\t".join(parts)
            raise ParseError(f"expected 'lemma<TAB>count', got {line!r}", lineno)
        lemma = normalize_lemma(parts[0])
        try:
            count = int(parts[1], 10)
        except ValueError:
            raise ParseError(f"non-numeric count {parts[1]!r}", lineno) from None
        if count < 0:
            raise ParseError(f"negative count {count}", lineno)
        if not (parts[1].isascii() and parts[1].isdigit()):
            raise ParseError(f"count {parts[1]!r} is not ASCII decimal digits", lineno)
        counts[lemma] = counts.get(lemma, 0) + count
    return FrequencyTable(counts)
