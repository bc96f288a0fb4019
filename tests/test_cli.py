import io
import random

import pytest

from taxsim import evaluation
from taxsim.cli import main
from taxsim.evaluation import emit_report, load_dataset_tsv, run_benchmark
from taxsim.ic import ic_corpus
from taxsim.similarity import MEASURES, word_similarity
from taxsim.wordnet import load_frequencies, load_tsv_taxonomy

from conftest import T7_TSV, oracle_branch_count, oracle_core
from test_kernels import wordnet_shaped_dag
from test_wordnet import render_taxonomy

# a root and one child in the WordNet 3.0 data.noun / index.noun layout
DATA_NOUN = (
    "  1 header\n"
    "00000001 03 n 01 entity 0 000 | root\n"
    "00000002 03 n 01 thing 0 001 @ 00000001 n 0000 | a thing\n"
)
INDEX_NOUN = "entity n 1 0 1 0 00000001\nthing n 1 1 @ 1 0 00000002\n"
FREQUENCIES = "r\t5\na\t3\nc\t2\ne\t7\nx\t4\nf\t1\n"


@pytest.fixture
def t7_file(tmp_path):
    path = tmp_path / "t7.tsv"
    path.write_text(T7_TSV, encoding="utf-8")
    return str(path)


@pytest.fixture
def mini_dataset(tmp_path):
    path = tmp_path / "pairs.tsv"
    path.write_text("e\tf\t3.0\ne\tb\t0.5\nx\ty\t2.0\nc\td\t1.0\n", encoding="utf-8")
    return str(path)


@pytest.fixture
def freq_file(tmp_path):
    path = tmp_path / "freq.tsv"
    path.write_text(FREQUENCIES, encoding="utf-8")
    return str(path)


def wordnet_dir(tmp_path, data=DATA_NOUN, index=INDEX_NOUN):
    (tmp_path / "data.noun").write_text(data, encoding="utf-8")
    (tmp_path / "index.noun").write_text(index, encoding="utf-8")
    return str(tmp_path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestInfo:
    def test_t7_stats(self, capsys, t7_file):
        code, out, _ = run(capsys, "info", "--taxonomy-tsv", t7_file)
        assert code == 0
        assert "synsets 7" in out
        assert "max_depth 4" in out
        assert "root R" in out

    def test_t7_structure(self, capsys, t7_file):
        code, out, _ = run(capsys, "info", "--taxonomy-tsv", t7_file)
        assert code == 0
        lines = out.splitlines()
        for line in ("edges 6", "multi_parent 0", "leaves 4", "max_fanout 2",
                     "core_nodes 1", "branch_nodes 1"):
            assert line in lines
        assert lines.index("branch_nodes 1") == lines.index("core_nodes 1") + 1

    def test_wordnet_shaped_core(self, capsys, tmp_path):
        # C4/C7's 4,000-node WordNet-shaped dictionary: the core and its
        # branch nodes as the brute-force peel counts them
        dag = wordnet_shaped_dag(random.Random(127), 4000, multi_share=0.03)
        data, index = render_taxonomy(dag, {s.lemmas[0]: [sid] for sid, s in dag.synsets.items()})
        code, out, _ = run(capsys, "info", "--wordnet", wordnet_dir(tmp_path, data, index))
        assert code == 0
        cores, branches = len(oracle_core(dag)), oracle_branch_count(dag)
        lines = out.splitlines()
        assert f"core_nodes {cores}" in lines and f"branch_nodes {branches}" in lines
        assert 1 < branches < cores

    def test_repeated_link_counts_once(self, capsys, tmp_path):
        # part lists thing twice, as @ and as @i: the counts of one link
        data = (DATA_NOUN
                + "00000003 03 n 01 part 0 002 @ 00000002 n 0000 @i 00000002 n 0000 | p\n"
                "00000004 03 n 01 other 0 001 @ 00000001 n 0000 | another\n")
        code, out, _ = run(capsys, "info", "--wordnet", wordnet_dir(tmp_path, data=data))
        assert code == 0
        lines = out.splitlines()
        assert "synsets 4" in lines
        for line in ("edges 3", "multi_parent 0", "core_nodes 1"):
            assert line in lines

    def test_missing_source_is_flag_error(self, capsys, monkeypatch):
        monkeypatch.delenv("WORDNET_DIR", raising=False)
        code, _, err = run(capsys, "info")
        assert code == 3
        assert "no taxonomy source" in err

    def test_bad_file_is_load_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("X\tX\n", encoding="utf-8")
        code, _, err = run(capsys, "info", "--taxonomy-tsv", str(bad))
        assert code == 1
        assert err

    def test_wordnet_dir_env_fallback(self, capsys, monkeypatch, t7_file):
        monkeypatch.setenv("WORDNET_DIR", "/nonexistent-wn-dir")
        code, _, _ = run(capsys, "info")
        assert code == 1  # env fallback was honored, then failed to load


class TestIc:
    def test_root_hybrid_is_zero(self, capsys, t7_file):
        code, out, _ = run(capsys, "ic", "r", "--taxonomy-tsv", t7_file,
                           "--model", "hybrid")
        assert code == 0
        assert out.strip().endswith("0.0000")

    @pytest.mark.parametrize("model", ["sanchez", "corpus"])
    def test_root_prints_positive_zero(self, capsys, t7_file, freq_file, model):
        # -log(1.0) is -0.0, which would print as -0.0000
        frequencies = ["--frequencies", freq_file] if model == "corpus" else []
        code, out, _ = run(capsys, "ic", "r", "--taxonomy-tsv", t7_file,
                           "--model", model, *frequencies)
        assert (code, out) == (0, "R\tr\t0.0000\n")

    def test_leaf_seco_is_one(self, capsys, t7_file):
        code, out, _ = run(capsys, "ic", "e", "--taxonomy-tsv", t7_file,
                           "--model", "seco")
        assert code == 0
        assert out.strip().endswith("1.0000")

    def test_polysemous_word_lists_each_sense(self, capsys, t7_file):
        code, out, _ = run(capsys, "ic", "x", "--taxonomy-tsv", t7_file,
                           "--model", "hybrid")
        assert code == 0
        assert len(out.strip().split("\n")) == 2

    def test_unknown_word_exits_two(self, capsys, t7_file):
        code, _, err = run(capsys, "ic", "zzz", "--taxonomy-tsv", t7_file)
        assert code == 2
        assert "zzz" in err

    def test_corpus_without_frequencies_exits_three(self, capsys, t7_file):
        code, _, _ = run(capsys, "ic", "e", "--taxonomy-tsv", t7_file,
                         "--model", "corpus")
        assert code == 3


class TestSim:
    def test_t7_wup(self, capsys, t7_file):
        code, out, _ = run(capsys, "sim", "x", "y", "--taxonomy-tsv", t7_file,
                           "--measure", "wup")
        assert code == 0
        assert out.strip() == "0.7500"

    def test_explain_goes_to_stderr(self, capsys, t7_file):
        code, out, err = run(capsys, "sim", "x", "y", "--taxonomy-tsv", t7_file,
                             "--measure", "wup", "--explain")
        assert code == 0
        assert out.strip() == "0.7500"
        assert "lcs\tC" in err

    @pytest.mark.parametrize("measure", sorted(MEASURES))
    def test_explain_leaves_stdout_unchanged(self, capsys, t7_file, measure):
        argv = ("sim", "x", "y", "--taxonomy-tsv", t7_file, "--measure", measure)
        if measure == "jcn_norm":
            argv += ("--ic", "seco")
        code, plain, _ = run(capsys, *argv)
        assert code == 0
        code, explained, err = run(capsys, *argv, "--explain")
        assert code == 0
        assert explained == plain
        assert err.startswith("senses\t")

    def test_oov_exits_two(self, capsys, t7_file):
        code, _, err = run(capsys, "sim", "x", "zzz", "--taxonomy-tsv", t7_file)
        assert code == 2
        assert err == "taxsim: out-of-vocabulary lemma: 'zzz'\n"

    def test_invalid_measure_ic_pairing_exits_three(self, capsys, t7_file):
        code, _, _ = run(capsys, "sim", "x", "y", "--taxonomy-tsv", t7_file,
                         "--measure", "jcn_norm", "--ic", "hybrid")
        assert code == 3

    def test_both_sources_exits_three(self, capsys, t7_file):
        code, _, _ = run(capsys, "sim", "x", "y", "--taxonomy-tsv", t7_file,
                         "--wordnet", "/tmp", "--measure", "wup")
        assert code == 3


class TestBench:
    def test_structure_and_determinism(self, capsys, t7_file, mini_dataset):
        code, out1, _ = run(capsys, "bench", "--taxonomy-tsv", t7_file,
                            "--dataset", mini_dataset, "--measures", "all")
        assert code == 0
        lines = out1.strip().split("\n")
        assert len(lines) == 1 + 4 + 2  # header, data rows, range, r
        code, out2, _ = run(capsys, "bench", "--taxonomy-tsv", t7_file,
                            "--dataset", mini_dataset, "--measures", "all")
        assert code == 0
        assert out1 == out2

    def test_measure_subset(self, capsys, t7_file, mini_dataset):
        code, out, _ = run(capsys, "bench", "--taxonomy-tsv", t7_file,
                           "--dataset", mini_dataset, "--measures", "wup,new")
        assert code == 0
        assert out.split("\n")[0] == "word1\tword2\thuman\twup\tnew"

    def test_repeated_measure_is_scored_once(self, capsys, monkeypatch, t7_file, mini_dataset):
        calls = []

        def counted(taxonomy, index, measure, w1, w2, ic=None):
            calls.append(measure.name)
            return word_similarity(taxonomy, index, measure, w1, w2, ic=ic)

        monkeypatch.setattr(evaluation, "word_similarity", counted)
        code, out, _ = run(capsys, "bench", "--taxonomy-tsv", t7_file,
                           "--dataset", mini_dataset, "--measures", "wup,lch,wup")
        assert code == 0
        assert out.split("\n")[0] == "word1\tword2\thuman\twup\tlch"
        assert sorted(calls) == ["lch"] * 4 + ["wup"] * 4  # 4 pairs, 2 distinct measures

    def test_oov_strict_exits_two(self, capsys, t7_file, tmp_path):
        ds = tmp_path / "oov.tsv"
        ds.write_text("e\tzzz\t1.0\ne\tf\t2.0\n", encoding="utf-8")
        code, _, _ = run(capsys, "bench", "--taxonomy-tsv", t7_file,
                         "--dataset", str(ds))
        assert code == 2

    def test_skip_oov(self, capsys, t7_file, tmp_path):
        ds = tmp_path / "oov.tsv"
        ds.write_text("e\tzzz\t1.0\ne\tf\t2.0\ne\tb\t0.5\nx\ty\t1.5\n",
                      encoding="utf-8")
        code, out, _ = run(capsys, "bench", "--taxonomy-tsv", t7_file,
                           "--dataset", str(ds), "--measures", "wup",
                           "--skip-oov")
        assert code == 0
        assert len(out.strip().split("\n")) == 1 + 3 + 2

    def test_explicit_ic_conflicting_with_jcn_norm_exits_three(
            self, capsys, t7_file, mini_dataset):
        code, _, _ = run(capsys, "bench", "--taxonomy-tsv", t7_file,
                         "--dataset", mini_dataset, "--measures", "jcn_norm",
                         "--ic", "hybrid")
        assert code == 3

    @pytest.mark.parametrize("text, line", [
        ("e\tf\t3.0\ne\tf\n", 2),          # two columns
        ("# note\ne\tf\tabc\n", 2),          # non-numeric rating
        ("e\tf\t3.0\nx\ty\tnan\n", 2),      # non-finite rating
    ])
    def test_bad_dataset_line_exits_one(self, capsys, t7_file, tmp_path, text, line):
        ds = tmp_path / "bad.tsv"
        ds.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "bench", "--taxonomy-tsv", t7_file,
                             "--dataset", str(ds))
        assert code == 1
        assert out == ""
        assert f"line {line}:" in err

    def test_unknown_measure_exits_three(self, capsys, t7_file, mini_dataset):
        code, out, err = run(capsys, "bench", "--taxonomy-tsv", t7_file,
                             "--dataset", mini_dataset, "--measures", "wup,bogus")
        assert code == 3
        assert out == ""
        assert "unknown measure 'bogus'" in err

    @pytest.mark.parametrize("measures", [",", " , ", ""])
    def test_empty_measure_list_exits_three(self, capsys, t7_file, mini_dataset,
                                            measures):
        code, out, err = run(capsys, "bench", "--taxonomy-tsv", t7_file,
                             "--dataset", mini_dataset, "--measures", measures)
        assert code == 3
        assert out == ""
        assert "names no measure" in err

    def test_one_pair_dataset_exits_one(self, capsys, t7_file, tmp_path):
        ds = tmp_path / "one.tsv"
        ds.write_text("e\tf\t3.0\n", encoding="utf-8")
        code, out, err = run(capsys, "bench", "--taxonomy-tsv", t7_file,
                             "--dataset", str(ds), "--measures", "wup")
        assert code == 1
        assert out == ""
        assert "at least two points" in err

    def test_all_oov_dataset_with_skip_oov_exits_one(self, capsys, t7_file, tmp_path):
        ds = tmp_path / "oov.tsv"
        ds.write_text("e\tzzz\t1.0\nqqq\tf\t2.0\n", encoding="utf-8")
        code, out, err = run(capsys, "bench", "--taxonomy-tsv", t7_file,
                             "--dataset", str(ds), "--measures", "wup", "--skip-oov")
        assert code == 1
        assert out == ""
        assert "no scorable pairs" in err

    def test_constant_score_column_exits_one(self, capsys, t7_file, tmp_path):
        # wup(c, c) is 1 for every c, so the score column is constant
        ds = tmp_path / "same.tsv"
        ds.write_text("e\te\t1.0\nf\tf\t2.0\n", encoding="utf-8")
        code, out, err = run(capsys, "bench", "--taxonomy-tsv", t7_file,
                             "--dataset", str(ds), "--measures", "wup")
        assert (code, out, err) == (
            1, "", "taxsim: cannot correlate column 'wup': constant input vector\n")

    def test_constant_human_column_exits_one(self, capsys, t7_file, tmp_path):
        # the ratings are at fault, whatever the measures score
        ds = tmp_path / "flat.tsv"
        ds.write_text("e\tb\t2\nc\td\t2\ne\tf\t2\n", encoding="utf-8")
        code, out, err = run(capsys, "bench", "--taxonomy-tsv", t7_file,
                             "--dataset", str(ds), "--measures", "wup")
        assert (code, out, err) == (
            1, "", "taxsim: cannot correlate column 'human': constant input vector\n")

    @pytest.mark.parametrize("ratings, like", [
        (("1e308", "-1e307", "0"), ("10", "-1", "0")),     # every r read 1.0000
        (("1e200", "2e200", "3e200"), ("1", "2", "3")),    # OverflowError traceback
    ])
    def test_wide_range_ratings(self, capsys, t7_file, tmp_path, ratings, like):
        ds = tmp_path / "wide.tsv"

        def r_row(values):
            pairs = (("e", "b"), ("c", "d"), ("e", "f"))
            ds.write_text("".join(f"{w1}\t{w2}\t{v}\n" for (w1, w2), v in zip(pairs, values)),
                          encoding="utf-8")
            code, out, err = run(capsys, "bench", "--taxonomy-tsv", t7_file,
                                 "--dataset", str(ds), "--measures", "all")
            assert (code, err) == (0, "")
            return out.splitlines()[-1]

        assert r_row(ratings) == r_row(like)

    def test_non_finite_range_exits_one(self, capsys, t7_file, tmp_path):
        # 1e308 - -1e308 overflows: the range used to print as inf, exit 0
        ds = tmp_path / "wide.tsv"
        ds.write_text("e\tb\t1e308\nc\td\t-1e308\ne\tf\t0\n", encoding="utf-8")
        code, out, err = run(capsys, "bench", "--taxonomy-tsv", t7_file,
                             "--dataset", str(ds), "--measures", "wup")
        assert (code, out, err) == (1, "", "taxsim: range of column 'human' is not finite\n")

    def test_csv_format(self, capsys, t7_file, mini_dataset):
        code, out, _ = run(capsys, "bench", "--taxonomy-tsv", t7_file,
                           "--dataset", mini_dataset, "--measures", "wup",
                           "--format", "csv")
        assert code == 0
        assert out.startswith("word1,word2,human,wup")


class TestBadInput:
    @pytest.mark.parametrize("text, line", [
        ("A\tR\nB\tR\tX\n", 2),           # three columns, not a binding
        ("# T\nA\tR\n\n\tA\n", 4),          # empty child name
        ("A\tR\nz\t#\tQ\n", 2),            # binding to an unknown synset
    ])
    def test_bad_tsv_line_exits_one(self, capsys, tmp_path, text, line):
        path = tmp_path / "bad.tsv"
        path.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "info", "--taxonomy-tsv", str(path))
        assert code == 1
        assert out == ""
        assert f"line {line}:" in err

    def test_bad_frequency_line_exits_one(self, capsys, t7_file, tmp_path):
        path = tmp_path / "freq.tsv"
        path.write_text("# counts\ne\t1\n\nf 3\n", encoding="utf-8")
        code, out, err = run(capsys, "ic", "e", "--taxonomy-tsv", t7_file,
                             "--model", "corpus", "--frequencies", str(path))
        assert code == 1
        assert out == ""
        assert "line 4:" in err

    @pytest.mark.parametrize("count", ["1_000", "+5", "\u0663"])
    def test_non_ascii_digit_frequency_exits_one(self, capsys, t7_file, tmp_path, count):
        path = tmp_path / "freq.tsv"
        path.write_text(f"e\t1\nf\t{count}\n", encoding="utf-8")
        code, out, err = run(capsys, "ic", "e", "--taxonomy-tsv", t7_file,
                             "--model", "corpus", "--frequencies", str(path))
        assert (code, out, err) == (
            1, "", f"taxsim: line 2: count {count!r} is not ASCII decimal digits\n")

    def test_data_noun_without_words_exits_one(self, capsys, tmp_path):
        data = DATA_NOUN + "00000003 03 n 00 000 | no words\n"
        code, out, err = run(capsys, "info", "--wordnet", wordnet_dir(tmp_path, data=data))
        assert code == 1
        assert out == ""
        assert "line 4:" in err

    def test_data_noun_verb_record_exits_one(self, capsys, tmp_path):
        data = DATA_NOUN + "00000003 03 v 01 run 0 001 @ 00000001 n 0000 | a verb\n"
        code, out, err = run(capsys, "info", "--wordnet", wordnet_dir(tmp_path, data=data))
        assert (code, out, err) == (
            1, "", "taxsim: line 4: malformed data.noun record: ss_type must be 'n', got 'v'\n")

    def test_data_noun_self_hypernym_exits_one(self, capsys, tmp_path):
        data = DATA_NOUN + "00000003 03 n 01 loop 0 001 @ 00000003 n 0000 | its own kind\n"
        code, out, err = run(capsys, "info", "--wordnet", wordnet_dir(tmp_path, data=data))
        assert code == 1
        assert out == ""
        assert err == "taxsim: synset '00000003' lists itself as hypernym\n"

    def test_index_noun_non_numeric_synset_cnt_exits_one(self, capsys, tmp_path):
        index = INDEX_NOUN + "thing n one 1 @ 1 0 00000002\n"
        code, out, err = run(capsys, "info", "--wordnet", wordnet_dir(tmp_path, index=index))
        assert code == 1
        assert out == ""
        assert "line 3:" in err

    @pytest.mark.parametrize("argv", [["info"], ["sim", "nothing", "thing"],
                                      ["ic", "nothing"]], ids=["info", "sim", "ic"])
    @pytest.mark.parametrize("record, message", [
        ("ghost n 1 0 1 0 99999999",
         "index lemma 'ghost' references unknown synset 99999999"),
        ("nothing n 0 0 0 0", "malformed index.noun record: synset_cnt must be >= 1"),
        ("thing n 1 0 1 0 00000001", "duplicate lemma 'thing'"),
        ("nothing n 1 -1 0 00000002", "malformed index.noun record: p_cnt must be >= 0"),
        ("nothing v 1 0 1 0 00000002", "malformed index.noun record: pos must be 'n', got 'v'"),
        ("nothing n 1 1 @ x y 00000002",
         "malformed index.noun record: invalid literal for int() with base 10: 'x'"),
        ("nothing n 1 0 1 -1 00000002",
         "malformed index.noun record: tagsense_cnt must be >= 0"),
    ], ids=["unknown_offset", "zero_senses", "duplicate_lemma", "negative_p_cnt", "verb_pos",
            "bad_sense_cnt", "negative_tagsense_cnt"])
    def test_bad_index_noun_record_exits_one(self, capsys, tmp_path, record, message,
                                             argv):
        index = INDEX_NOUN + record + "\n"
        code, out, err = run(capsys, *argv, "--wordnet", wordnet_dir(tmp_path, index=index))
        assert (code, out, err) == (1, "", f"taxsim: line 3: {message}\n")


class TestCorpusIc:
    @staticmethod
    def corpus_table():
        taxonomy, index = load_tsv_taxonomy(io.StringIO(T7_TSV))
        frequencies = load_frequencies(io.StringIO(FREQUENCIES))
        return taxonomy, index, ic_corpus(taxonomy, index, frequencies)

    def test_ic_matches_in_process(self, capsys, t7_file, freq_file):
        _, _, table = self.corpus_table()
        code, out, _ = run(capsys, "ic", "x", "--taxonomy-tsv", t7_file,
                           "--model", "corpus", "--frequencies", freq_file)
        assert code == 0
        assert out == f"E\te\t{table['E']:.4f}\nD\td\t{table['D']:.4f}\n"

    def test_sim_resnik_matches_in_process(self, capsys, t7_file, freq_file):
        taxonomy, index, table = self.corpus_table()
        expected = max(table[taxonomy.lcs(a, b)]
                       for a in index.senses("x") for b in index.senses("y"))
        code, out, _ = run(capsys, "sim", "x", "y", "--taxonomy-tsv", t7_file,
                           "--measure", "resnik", "--ic", "corpus",
                           "--frequencies", freq_file)
        assert code == 0
        assert out == f"{expected:.4f}\n"

    def test_bench_matches_in_process(self, capsys, t7_file, freq_file, mini_dataset):
        taxonomy, index, table = self.corpus_table()
        with open(mini_dataset, encoding="utf-8") as f:
            dataset = load_dataset_tsv(f)
        report = run_benchmark(taxonomy, index, dataset, [("resnik", table), ("lin", table)])
        code, out, _ = run(capsys, "bench", "--taxonomy-tsv", t7_file,
                           "--dataset", mini_dataset, "--ic", "corpus",
                           "--measures", "resnik,lin", "--frequencies", freq_file)
        assert code == 0
        assert out == emit_report(report, "tsv")

    def test_ic_of_synset_id(self, capsys, tmp_path):
        # "00000002" is a synset id and no lemma, so only the id branch finds it
        code, out, _ = run(capsys, "ic", "00000002", "--wordnet", wordnet_dir(tmp_path))
        assert code == 0
        assert out == "00000002\tthing\t0.6931\n"

    @pytest.mark.parametrize("argv", [
        ("ic", "x"),
        ("ic", "x", "--model", "seco"),
        ("sim", "x", "y", "--measure", "wup"),
        ("sim", "x", "y", "--measure", "wup", "--ic", "corpus"),
        ("sim", "x", "y", "--measure", "resnik"),
        ("bench", "--measures", "wup"),
        ("bench", "--measures", "all"),
        ("bench", "--measures", "jcn_norm,new", "--ic", "seco"),
    ])
    def test_frequencies_without_corpus_table_exits_three(
            self, capsys, t7_file, freq_file, mini_dataset, argv):
        if argv[0] == "bench":
            argv += ("--dataset", mini_dataset)
        code, out, err = run(capsys, *argv, "--taxonomy-tsv", t7_file,
                             "--frequencies", freq_file)
        assert code == 3
        assert out == ""
        assert "--frequencies only applies to the corpus model" in err

    @pytest.mark.parametrize("argv, flag", [
        (("ic", "x", "--model", "corpus"), "--model"),
        (("sim", "x", "y", "--measure", "resnik", "--ic", "corpus"), "--ic"),
        (("bench", "--measures", "resnik,wup", "--ic", "corpus"), "--ic"),
    ])
    def test_corpus_without_frequencies_names_the_flag(
            self, capsys, t7_file, mini_dataset, argv, flag):
        if argv[0] == "bench":
            argv += ("--dataset", mini_dataset)
        code, out, err = run(capsys, *argv, "--taxonomy-tsv", t7_file)
        assert code == 3
        assert out == ""
        assert err == f"taxsim: {flag} corpus requires --frequencies\n"

    def test_sim_jcn_norm_defaults_to_bench_pairing(self, capsys, t7_file, mini_dataset):
        code, out, _ = run(capsys, "sim", "e", "f", "--taxonomy-tsv", t7_file,
                           "--measure", "jcn_norm")
        assert code == 0
        assert out == "0.4354\n"
        code, report, _ = run(capsys, "bench", "--taxonomy-tsv", t7_file,
                              "--dataset", mini_dataset, "--measures", "jcn_norm")
        assert code == 0
        assert "e\tf\t3.0000\t0.4354" in report.splitlines()
