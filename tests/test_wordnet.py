import io
import random
import re

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from taxsim.errors import IntegrityError, ParseError, StructureError
from taxsim.evaluation import load_dataset_tsv
from taxsim.wordnet import (
    _count,
    load_frequencies,
    load_tsv_taxonomy,
    normalize_lemma,
    load_wordnet,
    parse_data_noun,
    parse_index_noun,
)
from taxsim.similarity import MEASURES
from taxsim.taxonomy import Taxonomy

from conftest import T7_TSV, path_memo
from test_kernels import wordnet_shaped_dag

# Minimal stream in the WordNet 3.0 data.noun layout: root, a two-lemma
# synset, an @i child, and a node whose extra pointers must be ignored.
DATA_NOUN = """\
  1 This is a header line and must be skipped.
  2 So is this one.
00000001 03 n 01 entity 0 000 | that which exists
00000002 03 n 02 alpha 0 first_branch 1 001 @ 00000001 n 0000 | a branch
00000003 03 n 01 beta 0 001 @i 00000001 n 0000 | an instance branch
00000004 03 n 01 gamma 0 003 @ 00000002 n 0000 ~ 00000002 n 0000 @ 00000003 v 0000 | ignores non-noun and non-hypernym pointers
"""

INDEX_NOUN = """\
  1 header
alpha n 1 1 @ 1 0 00000002
gamma n 2 2 @ ~ 2 0 00000004 00000002
beta n 1 1 @ 1 0 00000003
"""

DATA_TAXONOMY = Taxonomy(parse_data_noun(io.StringIO(DATA_NOUN)))


class TestParseDataNoun:
    def test_headers_skipped_and_counts(self):
        synsets = parse_data_noun(io.StringIO(DATA_NOUN))
        assert len(synsets) == 4

    def test_root_has_no_hypernyms(self):
        t = Taxonomy(parse_data_noun(io.StringIO(DATA_NOUN)))
        assert list(t.synsets) == ["00000001", "00000002", "00000003", "00000004"]
        assert t.synsets["00000001"].hypernyms == ()

    def test_w_cnt_hex_consumes_lemma_pairs(self):
        t = Taxonomy(parse_data_noun(io.StringIO(DATA_NOUN)))
        assert t.synsets["00000002"].lemmas == ("alpha", "first_branch")

    def test_instance_hypernym_treated_as_hypernym(self):
        t = Taxonomy(parse_data_noun(io.StringIO(DATA_NOUN)))
        assert t.synsets["00000003"].hypernyms == ("00000001",)

    def test_non_hypernym_and_non_noun_pointers_ignored(self):
        t = Taxonomy(parse_data_noun(io.StringIO(DATA_NOUN)))
        assert t.synsets["00000004"].hypernyms == ("00000002",)

    def test_malformed_record_reports_line(self):
        bad = "00000001 03 n zz entity 0 000 | broken\n"
        with pytest.raises(ParseError) as exc:
            parse_data_noun(io.StringIO(bad))
        assert exc.value.line_number == 1

    def test_dangling_hypernym_caught_at_build(self):
        text = (
            "00000001 03 n 01 entity 0 000 | root\n"
            "00000002 03 n 01 thing 0 001 @ 99999999 n 0000 | dangling\n"
        )
        synsets = parse_data_noun(io.StringIO(text))
        with pytest.raises(IntegrityError):
            Taxonomy(synsets)

    def test_builds_valid_taxonomy(self):
        t = Taxonomy(parse_data_noun(io.StringIO(DATA_NOUN)))
        assert t.root == "00000001"
        assert len(t) == 4
        assert t.depth("00000004") == 3


class TestParseIndexNoun:
    def test_sense_order_preserved(self):
        index = parse_index_noun(io.StringIO(INDEX_NOUN), DATA_TAXONOMY)
        assert index.senses("gamma") == ["00000004", "00000002"]

    def test_single_sense(self):
        index = parse_index_noun(io.StringIO(INDEX_NOUN), DATA_TAXONOMY)
        assert index.senses("alpha") == ["00000002"]

    def test_absent_lemma_is_distinguishable(self):
        index = parse_index_noun(io.StringIO(INDEX_NOUN), DATA_TAXONOMY)
        assert "zeta" not in index
        with pytest.raises(KeyError):
            index.senses("zeta")

    def test_synset_cnt_mismatch(self):
        bad = "alpha n 2 1 @ 2 0 00000002\n"
        with pytest.raises(ParseError):
            parse_index_noun(io.StringIO(bad), DATA_TAXONOMY)

    @pytest.mark.parametrize("text, error, line", [
        # a zero-sense record before an unknown offset, then the reverse
        ("alpha n 0 0 0 0\nghost n 1 0 1 0 99999999\n", ParseError, 1),
        ("ghost n 1 0 1 0 99999999\nalpha n 0 0 0 0\n", IntegrityError, 1),
        ("beta n 1 0 1 0 00000003\nbeta n 1 0 1 0 00000001\n", ParseError, 2),
        # a pos other than n, then bad sense_cnt and tagsense_cnt fields
        ("alpha v 1 0 1 0 00000002\nghost n 1 0 1 0 99999999\n", ParseError, 1),
        ("alpha n 1 1 @ x 0 00000002\nghost n 1 0 1 0 99999999\n", ParseError, 1),
        ("alpha n 1 0 1 -1 00000002\nghost n 1 0 1 0 99999999\n", ParseError, 1),
    ], ids=["zero_senses_first", "unknown_offset_first", "duplicate_lemma", "verb_pos_first",
            "bad_sense_cnt_first", "negative_tagsense_cnt_first"])
    def test_first_bad_line_wins(self, text, error, line):
        with pytest.raises(error, match=f"^line {line}: "):
            parse_index_noun(io.StringIO(text), DATA_TAXONOMY)


class TestLoadWordnet:
    def test_loads_directory(self, tmp_path):
        from taxsim.wordnet import load_wordnet

        (tmp_path / "data.noun").write_text(DATA_NOUN, encoding="utf-8")
        (tmp_path / "index.noun").write_text(INDEX_NOUN, encoding="utf-8")
        t, index = load_wordnet(str(tmp_path))
        assert len(t) == 4
        assert index.senses("gamma") == ["00000004", "00000002"]

    def test_index_referencing_unknown_synset(self, tmp_path):
        from taxsim.wordnet import load_wordnet

        (tmp_path / "data.noun").write_text(DATA_NOUN, encoding="utf-8")
        (tmp_path / "index.noun").write_text(
            "ghost n 1 1 @ 1 0 99999999\n", encoding="utf-8")
        with pytest.raises(IntegrityError):
            load_wordnet(str(tmp_path))


    @pytest.mark.parametrize("record", [
        # p_cnt 2, one pointer quad present
        "00000002 03 n 01 thing 0 002 @ 00000001 n 0000 | short",
        # p_cnt 2, the second quad cut after its target
        "00000002 03 n 01 thing 0 002 @ 00000001 n 0000 ~ 00000001 | short",
        # w_cnt 0x0a, five lemma pairs present
        "00000002 03 n 0a a 0 b 0 c 0 d 0 e 0 000 | short",
        # p_cnt below 0
        "00000002 03 n 01 thing 0 -01 @ 00000001 n 0000 | negative",
        # a verb record: ss_type v
        "00000002 03 v 01 thing 0 001 @ 00000001 n 0000 | a verb",
    ])
    def test_truncated_record_reports_line(self, tmp_path, record):
        (tmp_path / "data.noun").write_text(
            "  1 header\n00000001 03 n 01 entity 0 000 | root\n" + record + "\n",
            encoding="utf-8")
        (tmp_path / "index.noun").write_text("", encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            load_wordnet(str(tmp_path))
        assert exc.value.line_number == 3


@st.composite
def dictionaries(draw):
    """A random single-rooted DAG with lemmas, glosses and decoy pointers."""
    n = draw(st.integers(1, 12))
    lemma = st.text("abcXYZ_", min_size=1, max_size=4)
    nodes = []
    for i in range(n):
        parents = draw(st.lists(st.integers(0, i - 1), min_size=1, max_size=3,
                                unique=True)) if i else []
        nodes.append({
            "id": f"{i + 1:08d}",
            # w_cnt is two hex digits, so 16 and up need both
            "lemmas": draw(st.lists(lemma, min_size=1, max_size=3, unique_by=str.lower)
                           | st.lists(lemma, min_size=16, max_size=18,
                                      unique_by=str.lower)),
            "links": [(p, draw(st.sampled_from(["@", "@i"]))) for p in parents],
            "decoys": draw(st.lists(st.tuples(st.sampled_from(["~", "v"]),
                                              st.integers(0, n - 1)), max_size=3)),
            "gloss": draw(st.sampled_from(["a thing", "x | y", "see: a|b; c"])),
        })
    return nodes


def render(nodes, senses):
    """data.noun and index.noun text for nodes (see dictionaries) and a
    lemma -> ordered synset ids map."""
    data = ["  1 test dictionary header"]
    for node in nodes:
        words = " ".join(f"{w} 0" for w in node["lemmas"])
        ptrs = [f"{sym} {nodes[p]['id']} n 0000" for p, sym in node["links"]]
        # "~" is a hyponym pointer and "@ ... v" a verb hypernym: both skipped
        ptrs += [f"~ {nodes[t]['id']} n 0000" if sym == "~"
                 else f"@ {nodes[t]['id']} v 0000" for sym, t in node["decoys"]]
        data.append(f"{node['id']} 03 n {len(node['lemmas']):02x} {words} "
                    f"{len(ptrs):03d} {' '.join(ptrs)} | {node['gloss']}  ")
    index = ["  1 test index header"]
    for lemma, sids in sorted(senses.items()):
        index.append(f"{lemma} n {len(sids)} 2 @ ~ {len(sids)} 0 {' '.join(sids)}")
    return "\n".join(data) + "\n", "\n".join(index) + "\n"


def render_taxonomy(taxonomy, senses):
    """data.noun and index.noun text for the synsets of a Taxonomy, all
    links as ``@``, and a lemma -> ordered synset ids map."""
    pos = {sid: k for k, sid in enumerate(taxonomy.synsets)}
    nodes = [{"id": sid, "lemmas": s.lemmas, "decoys": [], "gloss": "a node | b",
              "links": [(pos[h], "@") for h in s.hypernyms]}
             for sid, s in taxonomy.synsets.items()]
    return render(nodes, senses)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(nodes=dictionaries(), data=st.data())
def test_data_and_index_round_trip(tmp_path, nodes, data):
    senses = {}
    for node in nodes:
        for w in node["lemmas"]:
            senses.setdefault(w.lower(), []).append(node["id"])
    senses = {w: data.draw(st.permutations(sids)) for w, sids in senses.items()}
    data_text, index_text = render(nodes, senses)
    (tmp_path / "data.noun").write_text(data_text, encoding="utf-8")
    (tmp_path / "index.noun").write_text(index_text, encoding="utf-8")

    taxonomy, index = load_wordnet(str(tmp_path))
    assert list(taxonomy.synsets) == [node["id"] for node in nodes]
    for node in nodes:
        synset = taxonomy.synsets[node["id"]]
        assert synset.hypernyms == tuple(nodes[p]["id"] for p, _ in node["links"])
        assert synset.lemmas == tuple(w.lower() for w in node["lemmas"])
    assert index.entries.keys() == senses.keys()
    for w, sids in senses.items():
        assert index.senses(w) == sids
    for nodes in index.entries.values():
        assert type(nodes) is tuple and all(type(i) is int for i in nodes)


class TestTsvTaxonomy:
    def test_t7_loads(self):
        t, index = load_tsv_taxonomy(io.StringIO(T7_TSV))
        assert len(t) == 7
        assert t.max_depth == 4
        assert t.root == "R"
        assert index.senses("x") == ["E", "D"]

    def test_self_loop_rejected(self):
        with pytest.raises(StructureError):
            load_tsv_taxonomy(io.StringIO("X\tX\n"))

    def test_duplicate_edge_warns_and_dedupes(self):
        text = "A\tR\nA\tR\nB\tR\n"
        with pytest.warns(UserWarning, match="duplicate edge"):
            t, _ = load_tsv_taxonomy(io.StringIO(text))
        assert len(t) == 3

    def test_two_roots_rejected(self):
        with pytest.raises(StructureError):
            load_tsv_taxonomy(io.StringIO("A\tR1\nB\tR2\n"))

    def test_binding_target_stripped(self):
        # " A " names node A, on an edge line and as a binding's target
        _, index = load_tsv_taxonomy(io.StringIO(" A \tR\nz\t#\t A \n"))
        assert index.senses("z") == ["A"]

    def test_blank_and_comment_lines_skipped(self):
        text = "# T7\n\n" + T7_TSV.replace("C\tA\n", "C\tA\n   \n# bindings\n")
        t, index = load_tsv_taxonomy(io.StringIO(text))
        t7, t7_index = load_tsv_taxonomy(io.StringIO(T7_TSV))
        assert list(t.synsets) == list(t7.synsets)
        assert [t.ancestors(sid) for sid in t.synsets] == [t7.ancestors(sid) for sid in t7.synsets]
        assert index.entries == t7_index.entries


class TestFrequencies:
    def test_single_line(self):
        f = load_frequencies(io.StringIO("dog\t10\n"))
        assert f.counts == {"dog": 10}
        assert f.count("dog") == 10

    def test_empty_file(self):
        assert load_frequencies(io.StringIO("")).counts == {}

    def test_blank_and_comment_lines_skipped(self):
        f = load_frequencies(io.StringIO("# counts\n\ndog\t10\n  \n#cat\t3\n"))
        assert f.counts == {"dog": 10}

    def test_duplicates_summed(self):
        f = load_frequencies(io.StringIO("dog\t10\ndog\t5\n"))
        assert f.count("dog") == 15

    def test_negative_count_rejected(self):
        with pytest.raises(ParseError):
            load_frequencies(io.StringIO("dog\t-1\n"))

    def test_non_numeric_rejected(self):
        with pytest.raises(ParseError):
            load_frequencies(io.StringIO("dog\tmany\n"))

    @pytest.mark.parametrize("count", ["1_000", "+5", "\u0663", " 5", "-0"])
    def test_python_int_literal_rejected(self, count):
        # int() reads each of these; a count is ASCII decimal digits
        with pytest.raises(ParseError) as exc:
            load_frequencies(io.StringIO(f"cat\t2\ndog\t{count}\n"))
        assert str(exc.value) == f"line 2: count {count!r} is not ASCII decimal digits"

    def test_leading_zeros_read(self):
        assert load_frequencies(io.StringIO("dog\t007\n")).counts == {"dog": 7}


@pytest.mark.parametrize("load, row, message", [
    (load_tsv_taxonomy, "A\tR\tX", "expected 'child<TAB>parent', got 'A\\tR\\tX'"),
    (load_frequencies, "a\t1\t2", "expected 'lemma<TAB>count', got 'a\\t1\\t2'"),
    (load_dataset_tsv, "a\tb", "expected 3 tab-separated columns, found 2"),
], ids=["taxonomy", "frequencies", "dataset"])
def test_tsv_loaders_share_the_row_rule(load, row, message):
    # a comment, a blank and a whitespace-only line are skipped but counted
    with pytest.raises(ParseError) as exc:
        load(io.StringIO("# comment\n\n \t \n" + row + "\n"))
    assert exc.value.line_number == 4
    assert str(exc.value) == f"line 4: {message}"


@pytest.mark.parametrize("parse, record, message", [
    (parse_data_noun, "00000002 03 n 01 thing 0 001 | @ 00000001 n 0000",
     "malformed data.noun record: record needs 11 fields, has 7"),
    (lambda stream: parse_index_noun(stream, DATA_TAXONOMY), "alpha n 1 0 1 0 | 00000002",
     "lemma 'alpha': synset_cnt 1 but 0 trailing offsets"),
], ids=["data", "index"])
def test_wordnet_parsers_share_the_record_rule(parse, record, message):
    # a header, a blank and a whitespace-only line are skipped but counted,
    # and the words after "|" are not fields
    with pytest.raises(ParseError) as exc:
        parse(io.StringIO("  1 header\n\n \t \n" + record + "\n"))
    assert exc.value.line_number == 4
    assert str(exc.value) == f"line 4: {message}"


def test_normalize_lemma():
    assert normalize_lemma("Sports Car") == "sports_car"


# -- the columnar load against the record build ------------------------------


def frozen_state(t):
    """Every array and count a Taxonomy freezes, as plain Python values."""
    memo = path_memo(t)
    views = (t._depth, t._anc_indptr, t._anc_indices, t._subsumers, memo.up, memo.anchor,
             memo.hang, memo.core_indptr, memo.core_indices)
    return ([list(view) for view in views]
            + [t._hyponyms.tolist(), t._is_leaf.tolist(), list(t.synsets), t._pos, t.root,
               memo.longest, t.max_depth, t.max_subsumer_count, t.edge_count,
               t.multi_parent_count, t.leaf_count, t.max_fanout, t.core_count, t.branch_count,
               MEASURES["new"].values(t, None)])


def t7_dictionary():
    """T7 and its lemma -> synset ids map."""
    taxonomy, index = load_tsv_taxonomy(io.StringIO(T7_TSV))
    return taxonomy, {lemma: index.senses(lemma) for lemma in index.entries}


def shaped_dictionary():
    """The 4,000-node WordNet-shaped DAG of C4 and C7 and its lemma map."""
    dag = wordnet_shaped_dag(random.Random(127), 4000, multi_share=0.03)
    return dag, {s.lemmas[0]: [sid] for sid, s in dag.synsets.items()}


def write_dictionary(directory, data, index):
    directory.mkdir(exist_ok=True)
    (directory / "data.noun").write_text(data, encoding="utf-8")
    (directory / "index.noun").write_text(index, encoding="utf-8")
    return str(directory)


@pytest.mark.parametrize("dictionary", [t7_dictionary, shaped_dictionary],
                         ids=["t7", "shaped"])
def test_columnar_load_equals_record_build(tmp_path, dictionary):
    source, senses = dictionary()
    records = [source.synsets[sid] for sid in source.synsets]
    taxonomy, index = load_wordnet(write_dictionary(tmp_path,
                                                    *render_taxonomy(source, senses)))
    built = Taxonomy(records)
    assert frozen_state(taxonomy) == frozen_state(built)
    assert [taxonomy.synsets[s.id] for s in records] == records
    assert [built.synsets[s.id] for s in records] == records
    assert taxonomy.leaves() == built.leaves()
    pos = built._pos
    for lemma, sids in senses.items():
        assert index.nodes(lemma) == tuple(pos[sid] for sid in sids)
        assert index.senses(lemma) == sids


# each valid spelling of a count that the files do not use, in place of the
# one they do: the record must load as if it were written the usual way
NON_CANONICAL = [
    ("data.noun", " 001 @ 00000001", " 0001 @ 00000001"),              # p_cnt 0003 style
    ("data.noun", " 0a a 0 b 0", " 0A a 0 b 0"),                        # upper-case w_cnt
    ("data.noun", " 0a a 0 b 0", " a a 0 b 0"),                         # one hex digit
    ("index.noun", "alpha n 1 1 @ 1 0", "alpha n 01 1 @ 1 0"),          # synset_cnt
    ("index.noun", "alpha n 1 1 @ 1 0", "alpha n 1 001 @ 1 0"),         # p_cnt
    ("index.noun", "gamma n 2 2 @ ~ 2 0", "gamma n 2 2 @ ~ 02 0"),      # sense_cnt
    ("index.noun", "gamma n 2 2 @ ~ 2 0", "gamma n 2 2 @ ~ 2 1000"),    # past the table
    ("index.noun", "beta n 1 1 @ 1 0 00000003", "beta n 1 1 @ 1 0 00000003|a note"),
]


@pytest.mark.parametrize("name, canonical, variant", NON_CANONICAL,
                         ids=["data_p_cnt", "data_w_cnt_upper", "data_w_cnt_one_digit",
                              "index_synset_cnt", "index_p_cnt", "index_sense_cnt",
                              "index_tagsense_cnt_1000", "index_bar"])
def test_non_canonical_record_loads_the_same(tmp_path, name, canonical, variant):
    data = DATA_NOUN + "00000005 03 n 0a " + " ".join(f"{w} 0" for w in "abcdefghij") \
        + " 001 @ 00000001 n 0000 | ten lemmas\n"
    texts = {"data.noun": data, "index.noun": INDEX_NOUN}
    expected = load_wordnet(write_dictionary(tmp_path / "a", *texts.values()))
    assert canonical in texts[name]
    texts[name] = texts[name].replace(canonical, variant)
    loaded = load_wordnet(write_dictionary(tmp_path / "b", *texts.values()))
    assert frozen_state(loaded[0]) == frozen_state(expected[0])
    assert list(loaded[0].synsets.items()) == list(expected[0].synsets.items())
    assert loaded[1].entries == expected[1].entries


@pytest.fixture
def thousand_records():
    """data.noun and index.noun text with a header line and 1,000 good records:
    synset 00000001 and 999 children of it, lemma wK naming synset K + 1."""
    nodes = [{"id": f"{i + 1:08d}", "lemmas": [f"w{i}"], "decoys": [], "gloss": "g | h",
              "links": [(0, "@")] if i else []} for i in range(1000)]
    return render(nodes, {f"w{i}": [f"{i + 1:08d}"] for i in range(1000)})


@pytest.mark.parametrize("record, message", [
    ("00000001 03 n zz entity 0 000 | broken",
     "invalid literal for int() with base 16: 'zz'"),
    ("00000002 03 n 01 thing 0 002 @ 00000001 n 0000 | short",
     "record needs 15 fields, has 11"),
    ("00000002 03 n 01 thing 0 002 @ 00000001 n 0000 ~ 00000001 | short",
     "record needs 15 fields, has 13"),
    ("00000002 03 n 0a a 0 b 0 c 0 d 0 e 0 000 | short", "list index out of range"),
    ("00000002 03 n 01 thing 0 -01 @ 00000001 n 0000 | negative", "p_cnt must be >= 0"),
    ("00000002 03 v 01 thing 0 001 @ 00000001 n 0000 | a verb",
     "ss_type must be 'n', got 'v'"),
    ("00000003 03 n 00 000 | no words", "w_cnt must be >= 1"),
    ("00000002 03 n 01 thing 0 001 | @ 00000001 n 0000", "record needs 11 fields, has 7"),
    ("\t| a gloss alone", "list index out of range"),
    ("00000002 03 n 0x1 thing 0 000 | prefixed", "w_cnt must be ASCII hex digits, got '0x1'"),
    ("00000002 03 n 01 thing 0 +00 | signed", "p_cnt must be ASCII decimal digits, got '+00'"),
    ("00000002 03 n 01 thing 0 ٣ | arabic",
     "p_cnt must be ASCII decimal digits, got '٣'"),
])
def test_bad_data_record_after_good_ones_reports_its_line(thousand_records, record,
                                                          message):
    data, _ = thousand_records
    with pytest.raises(ParseError) as exc:
        parse_data_noun(io.StringIO(data + record + "\n"))
    assert str(exc.value) == f"line 1002: malformed data.noun record: {message}"


@pytest.mark.parametrize("record, message", [
    ("ghost n 1 0 1 0 99999999", "index lemma 'ghost' references unknown synset 99999999"),
    ("nothing n 0 0 0 0", "malformed index.noun record: synset_cnt must be >= 1"),
    ("w5 n 1 0 1 0 00000001", "duplicate lemma 'w5'"),
    ("nothing n 1 -1 0 00000002", "malformed index.noun record: p_cnt must be >= 0"),
    ("nothing v 1 0 1 0 00000002", "malformed index.noun record: pos must be 'n', got 'v'"),
    ("nothing n 1 1 @ x y 00000002",
     "malformed index.noun record: invalid literal for int() with base 10: 'x'"),
    ("nothing n 1 0 1 -1 00000002", "malformed index.noun record: tagsense_cnt must be >= 0"),
    ("nothing n 1 0 1 0 | 00000002", "lemma 'nothing': synset_cnt 1 but 0 trailing offsets"),
    ("nothing n 1 0 1 0 |00000002", "lemma 'nothing': synset_cnt 1 but 0 trailing offsets"),
    ("nothing n 2 0 2 0 00000002", "lemma 'nothing': synset_cnt 2 but 1 trailing offsets"),
    ("nothing n +1 0 1 0 00000002",
     "malformed index.noun record: synset_cnt must be ASCII decimal digits, got '+1'"),
    ("nothing n 1 0 1_0 0 00000002",
     "malformed index.noun record: sense_cnt must be ASCII decimal digits, got '1_0'"),
])
def test_bad_index_record_after_good_ones_reports_its_line(thousand_records, record,
                                                           message):
    data, index = thousand_records
    taxonomy = Taxonomy(parse_data_noun(io.StringIO(data)))
    with pytest.raises((ParseError, IntegrityError)) as exc:
        parse_index_noun(io.StringIO(index + record + "\n"), taxonomy)
    assert str(exc.value) == f"line 1002: {message}"


@pytest.mark.parametrize("later", ["nothing n 0 0 0 0", "w5 n 1 0 1 0 00000001",
                                   "nothing n 1 0 1 0 00000002 00000003"],
                         ids=["malformed", "duplicate", "count_mismatch"])
def test_unknown_offset_wins_over_later_bad_line(thousand_records, later):
    data, index = thousand_records
    taxonomy = Taxonomy(parse_data_noun(io.StringIO(data)))
    lines = index.splitlines(keepends=True)
    text = "".join(lines[:500] + ["ghost n 2 0 2 0 00000007 99999999\n"] + lines[500:]
                   + [later + "\n"])
    with pytest.raises(IntegrityError) as exc:
        parse_index_noun(io.StringIO(text), taxonomy)
    assert str(exc.value) == "line 501: index lemma 'ghost' references unknown synset 99999999"


@pytest.mark.parametrize("text, base, message", [
    ("+5", 10, "p_cnt must be ASCII decimal digits, got '+5'"),
    ("1_000", 10, "p_cnt must be ASCII decimal digits, got '1_000'"),
    ("٣", 10, "p_cnt must be ASCII decimal digits, got '٣'"),
    ("0x1", 16, "p_cnt must be ASCII hex digits, got '0x1'"),
    ("0_1", 16, "p_cnt must be ASCII hex digits, got '0_1'"),
    ("-1", 10, "p_cnt must be >= 0"),
    ("x", 10, "invalid literal for int() with base 10: 'x'"),
])
def test_count_accepts_ascii_digits_only(text, base, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        _count(text, "p_cnt", 0, base)


@pytest.mark.parametrize("text, base, value", [("0003", 10, 3), ("0A", 16, 10),
                                               ("ff", 16, 255), ("1000", 10, 1000)])
def test_count_reads_any_ascii_spelling(text, base, value):
    assert _count(text, "p_cnt", 0, base) == value
