"""Benchmark harness: R&G-30 dataset, Pearson correlation, range stats,
and report emission in tsv/csv/pretty form."""

import csv
import io
import math
import re
from dataclasses import dataclass, field

from .errors import OutOfVocabularyError, ParseError, UndefinedCorrelationError
from .similarity import get_measure, word_similarity
from .wordnet import tsv_rows

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


# a rating is a plain ASCII decimal: an optional sign, digits, an optional
# fraction and an optional exponent
_RATING = re.compile(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?")


def load_dataset_tsv(stream, name="custom"):
    """Read ``word1<TAB>word2<TAB>rating`` lines into a dataset.

    A line without exactly three columns, or with a rating that is not a
    finite plain decimal number, raises ParseError with its line number.
    """
    pairs = []
    for number, fields in tsv_rows(stream):
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
        if not _RATING.fullmatch(text):
            raise ParseError(f"rating {text!r} is not a plain decimal number", number)
        pairs.append((w1.strip(), w2.strip(), rating))
    return BenchmarkDataset(name, tuple(pairs))


def pearson(x, y):
    """Sample Pearson correlation coefficient of two equal-length vectors."""
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    dx, sxx = _deviations(x)
    dy, syy = _deviations(y)
    r = sum(a * b for a, b in zip(dx, dy)) / math.sqrt(sxx * syy)
    # clamping would turn a NaN into 1.0, so a non-finite r is refused first
    if not math.isfinite(r):
        raise UndefinedCorrelationError("correlation is not finite")
    return max(-1.0, min(1.0, r))


def _deviations(values):
    """The deviations of one vector from its mean, and their sum of squares.

    Raises UndefinedCorrelationError for fewer than two points, a
    non-finite value or no spread. The vector is first scaled by the power
    of two that brings its largest magnitude into [0.5, 1), so that no
    difference, square or sum overflows; the scaling is exact and r does
    not depend on it. It is then centred on its first point before the mean
    is taken: the differences are exact for values within a factor of two
    of it, so a spread of a few ulps is not lost to the rounding of a mean.
    """
    if len(values) < 2:
        raise UndefinedCorrelationError("pearson needs at least two points")
    if not all(map(math.isfinite, values)):
        raise UndefinedCorrelationError("non-finite input value")
    _, exponent = math.frexp(max(map(abs, values)))
    values = [math.ldexp(v, -exponent) for v in values]
    centred = [v - values[0] for v in values]
    mean = sum(centred) / len(centred)
    deviations = [v - mean for v in centred]
    squares = sum(d * d for d in deviations)
    if squares == 0.0:
        raise UndefinedCorrelationError("constant input vector")
    return deviations, squares


def range_stat(x):
    """max(x) - min(x)."""
    if len(x) == 0:
        raise ValueError("range_stat of an empty vector")
    return max(x) - min(x)


def _finite_range(values, column):
    """range_stat of a report column; a range that overflows to inf, as
    that of 1e308 and -1e308 does, is refused, not printed."""
    spread = range_stat(values)
    if not math.isfinite(spread):
        raise UndefinedCorrelationError(f"range of column {column!r} is not finite")
    return spread


def _correlation(scores, human, column):
    """pearson(scores, human) for a measure column; when it is undefined,
    the message names the column at fault: ``human`` if the ratings cannot
    be correlated on their own, else the measure."""
    try:
        return pearson(scores, human)
    except UndefinedCorrelationError as exc:
        try:
            _deviations(human)
        except UndefinedCorrelationError as human_exc:
            column, exc = "human", human_exc
        raise UndefinedCorrelationError(f"cannot correlate column {column!r}: {exc}") from None


def run_benchmark(taxonomy, index, dataset, measures, skip_oov=False):
    """Score every pair under every measure and correlate with the humans.

    measures is a list of (measure_name, ic_table_or_None). Distances are
    correlated as-is, so their r is expected to come out negative. With
    skip_oov, pairs with an unresolvable lemma are dropped and recorded.
    """
    usable = []
    skipped = []
    for w1, w2, rating in dataset.pairs:
        missing = [w for w in (w1, w2) if w not in index]
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
    report.human_range = _finite_range(human, "human")
    for name, ic in measures:
        measure = get_measure(name)
        scores = [
            word_similarity(taxonomy, index, measure, w1, w2, ic=ic).value
            for w1, w2, _ in usable
        ]
        report.columns[name] = scores
        report.r[name] = _correlation(scores, human, name)
        report.ranges[name] = _finite_range(scores, name)
    return report


def _report_rows(report):
    names = list(report.columns)
    yield ["word1", "word2", "human"] + names
    for i, (w1, w2, rating) in enumerate(report.pairs):
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
