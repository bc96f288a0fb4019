"""Benchmark harness: R&G-30 dataset, Pearson correlation, range stats,
and report emission in tsv/csv/pretty form."""

import csv
import io
import math
from dataclasses import dataclass, field

from .errors import OutOfVocabularyError, ParseError, UndefinedCorrelationError
from .similarity import get_measure, word_similarity
from .wordnet import normalize_lemma

# Rubenstein & Goodenough subset: 30 word pairs with averaged human
# similarity ratings on the 0.0-4.0 scale.
_RG30 = (
    ("autograph", "shore", 0.06),
    ("noon", "string", 0.08),
    ("glass", "magician", 0.11),
    ("automobile", "wizard", 0.11),
    ("mound", "stove", 0.14),
    ("coast", "forest", 0.42),
    ("boy", "rooster", 0.44),
    ("cushion", "jewel", 0.45),
    ("coast", "hill", 0.87),
    ("boy", "sage", 0.96),
    ("mound", "shore", 0.97),
    ("automobile", "cushion", 0.97),
    ("crane", "rooster", 1.41),
    ("hill", "woodland", 1.48),
    ("brother", "lad", 1.66),
    ("crane", "implement", 1.68),
    ("magician", "oracle", 1.82),
    ("sage", "wizard", 2.46),
    ("oracle", "sage", 2.61),
    ("brother", "monk", 2.82),
    ("implement", "tool", 2.95),
    ("bird", "crane", 2.97),
    ("bird", "cock", 3.05),
    ("hill", "mound", 3.29),
    ("cord", "string", 3.41),
    ("midday", "noon", 3.42),
    ("glass", "tumbler", 3.45),
    ("serf", "slave", 3.46),
    ("cemetery", "graveyard", 3.88),
    ("magician", "wizard", 3.50),
)


@dataclass(frozen=True)
class BenchmarkDataset:
    name: str
    pairs: tuple  # of (lemma, lemma, human_rating)


@dataclass
class CorrelationReport:
    dataset: str
    pairs: list                      # (w1, w2, human) actually scored
    columns: dict = field(default_factory=dict)   # measure -> list of scores
    r: dict = field(default_factory=dict)         # measure -> pearson r
    ranges: dict = field(default_factory=dict)    # measure -> max - min
    human_range: float = 0.0
    skipped: list = field(default_factory=list)   # OOV pairs dropped


def embedded_rg30():
    """The built-in 30-pair R&G benchmark, in fixed order."""
    return BenchmarkDataset("rg30", _RG30)


def load_dataset_tsv(stream, name="custom"):
    """Read ``word1<TAB>word2<TAB>rating`` lines into a dataset.

    A line without exactly three columns, or with a rating that is not a
    finite number, raises ParseError with its line number.
    """
    pairs = []
    for number, line in enumerate(stream, 1):
        line = line.rstrip("\n")
        if not line.strip() or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise ParseError(f"expected 3 tab-separated columns, found {len(fields)}",
                             number)
        w1, w2, text = fields
        try:
            rating = float(text)
        except ValueError:
            raise ParseError(f"rating {text!r} is not a number", number) from None
        if not math.isfinite(rating):
            raise ParseError(f"rating {text!r} is not finite", number)
        pairs.append((w1.strip(), w2.strip(), rating))
    return BenchmarkDataset(name, tuple(pairs))


def pearson(x, y):
    """Sample Pearson correlation coefficient of two equal-length vectors."""
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    n = len(x)
    if n < 2:
        raise UndefinedCorrelationError("pearson needs at least two points")
    if not all(map(math.isfinite, x)) or not all(map(math.isfinite, y)):
        raise UndefinedCorrelationError("non-finite input value")
    # centre on the first point before taking the means: the differences
    # are exact for values within a factor of two of it, so a spread of a
    # few ulps is not lost to the rounding of a mean
    x = [a - x[0] for a in x]
    y = [b - y[0] for b in y]
    mx = sum(x) / n
    my = sum(y) / n
    sxy = sum((a - mx) * (b - my) for a, b in zip(x, y))
    sxx = sum((a - mx) ** 2 for a in x)
    syy = sum((b - my) ** 2 for b in y)
    if sxx == 0.0 or syy == 0.0:
        raise UndefinedCorrelationError("constant input vector")
    r = sxy / math.sqrt(sxx * syy)
    return max(-1.0, min(1.0, r))


def range_stat(x):
    """max(x) - min(x)."""
    if len(x) == 0:
        raise ValueError("range_stat of an empty vector")
    return max(x) - min(x)


def run_benchmark(taxonomy, index, dataset, measures, skip_oov=False):
    """Score every pair under every measure and correlate with the humans.

    measures is a list of (measure_name, ic_table_or_None). Distances are
    correlated as-is, so their r is expected to come out negative. With
    skip_oov, pairs with an unresolvable lemma are dropped and recorded.
    """
    usable = []
    skipped = []
    for w1, w2, rating in dataset.pairs:
        missing = [w for w in (w1, w2) if normalize_lemma(w) not in index.entries]
        if missing:
            if skip_oov:
                skipped.append((w1, w2))
                continue
            raise OutOfVocabularyError(missing[0])
        usable.append((w1, w2, rating))
    if not usable:
        raise UndefinedCorrelationError(f"no scorable pairs in dataset {dataset.name!r}")

    report = CorrelationReport(dataset=dataset.name, pairs=usable, skipped=skipped)
    human = [rating for _, _, rating in usable]
    report.human_range = range_stat(human)
    for name, ic in measures:
        measure = get_measure(name)
        scores = [
            word_similarity(taxonomy, index, measure, w1, w2, ic=ic).value
            for w1, w2, _ in usable
        ]
        report.columns[name] = scores
        report.r[name] = pearson(scores, human)
        report.ranges[name] = range_stat(scores)
    return report


def _report_rows(report):
    names = list(report.columns)
    yield ["word1", "word2", "human"] + names
    for (w1, w2, rating), i in zip(report.pairs, range(len(report.pairs))):
        yield [w1, w2, f"{rating:.4f}"] + [
            f"{report.columns[m][i]:.4f}" for m in names
        ]
    yield ["range", "", f"{report.human_range:.4f}"] + [
        f"{report.ranges[m]:.4f}" for m in names
    ]
    yield ["r", "", f"{1.0:.4f}"] + [f"{report.r[m]:.4f}" for m in names]


def emit_report(report, fmt="tsv"):
    """Render a CorrelationReport as tsv, csv, or pretty text."""
    rows = list(_report_rows(report))
    if fmt == "tsv":
        return "\n".join("\t".join(row) for row in rows) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerows(rows)
        return buf.getvalue()
    if fmt == "pretty":
        widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
        lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
                 for row in rows]
        if report.skipped:
            lines.append("")
            lines.append(f"skipped (OOV): {len(report.skipped)} pair(s)")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown report format {fmt!r}")
