import io
import os

import pytest

from taxsim.cli import main
from taxsim.similarity import MEASURES

from conftest import T7_TSV


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

    def test_missing_source_is_flag_error(self, capsys, monkeypatch):
        monkeypatch.delenv("WORDNET_DIR", raising=False)
        code, _, err = run(capsys, "info")
        assert code == 3

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
        assert code == 1
        assert out == ""
        assert "constant input vector" in err

    def test_csv_format(self, capsys, t7_file, mini_dataset):
        code, out, _ = run(capsys, "bench", "--taxonomy-tsv", t7_file,
                           "--dataset", mini_dataset, "--measures", "wup",
                           "--format", "csv")
        assert code == 0
        assert out.startswith("word1,word2,human,wup")
