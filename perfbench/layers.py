"""Per-layer metrics from a Tracer's spans, named by taxsim module."""

import numpy as np

MEASURE_NAMES = ("resnik", "jcn_dist", "jcn_norm", "lin", "rada_dist", "wup", "lch", "new")

# per_layer metric name -> unit; run.py and BENCHMARK.json list the same names
UNITS = {
    "cli.import_s": "s",
    "wordnet.parse_data_noun_s": "s",
    "wordnet.parse_index_noun_s": "s",
    "wordnet.records": "count",
    "wordnet.load_frequencies_s": "s",
    "taxonomy.build_s": "s",
    "ic.hybrid_s": "s",
    "ic.seco_s": "s",
    "ic.sanchez_s": "s",
    "ic.corpus_s": "s",
    "taxonomy.lcs_calls": "count",
    "taxonomy.lcs_us": "us",
    "taxonomy.lcs_unique_ratio": "fraction",
    **{f"similarity.{m}_us": "us" for m in MEASURE_NAMES},
    "taxonomy.path_calls": "count",
    "taxonomy.path_us": "us",
    "taxonomy.path_p90_us": "us",
    "taxonomy.path_unique_ratio": "fraction",
    "kernels.bfs_us": "us",
    "similarity.sense_pairs_per_word_pair": "count",
    "similarity.word_pair_us": "us",
    "evaluation.run_benchmark_s": "s",
    "evaluation.pearson_us": "us",
    "evaluation.emit_report_ms": "ms",
    "trace.overhead_frac": "fraction",
}

_SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6}


def layer_metrics(tracer, import_s, scoring):
    """Every per-layer metric as {name: value}. A layer the workload never
    calls reads 0 (kernels.bfs_us also reads 0 once kernels.bfs_distance is
    gone). Times are medians per call: self time, except path_* and bfs_us,
    which include their callees so that path_us - bfs_us is the id-lookup
    cost."""
    spans = tracer.by_name()

    def per_call(span, unit, inclusive=False, q=50):
        if span not in spans or not len(spans[span][0]):
            return 0.0
        values = spans[span][0 if inclusive else 1]
        return float(np.percentile(values, q)) * _SCALE[unit]

    def calls(span):
        return len(spans[span][0]) if span in spans else 0

    lcs_calls, path_calls = calls("taxonomy.lcs"), calls("taxonomy.path")
    word_calls = calls("similarity.word_similarity")
    measure_calls = sum(calls(f"similarity.{m}") for m in MEASURE_NAMES)
    parses = calls("wordnet.parse_data_noun")
    out = {
        "cli.import_s": import_s,
        "wordnet.parse_data_noun_s": per_call("wordnet.parse_data_noun", "s"),
        "wordnet.parse_index_noun_s": per_call("wordnet.parse_index_noun", "s"),
        "wordnet.records": tracer.counters["wordnet.records"] / parses if parses else 0,
        "wordnet.load_frequencies_s": per_call("wordnet.load_frequencies", "s"),
        "taxonomy.build_s": per_call("taxonomy.build", "s"),
        "ic.hybrid_s": per_call("ic.hybrid", "s"),
        "ic.seco_s": per_call("ic.seco", "s"),
        "ic.sanchez_s": per_call("ic.sanchez", "s"),
        "ic.corpus_s": per_call("ic.corpus", "s"),
        "taxonomy.lcs_calls": lcs_calls,
        "taxonomy.lcs_us": per_call("taxonomy.lcs", "us"),
        "taxonomy.lcs_unique_ratio":
            len(tracer.keys["taxonomy.lcs"]) / lcs_calls if lcs_calls else 0.0,
        "taxonomy.path_calls": path_calls,
        "taxonomy.path_us": per_call("taxonomy.path", "us", inclusive=True),
        "taxonomy.path_p90_us": per_call("taxonomy.path", "us", inclusive=True, q=90),
        "taxonomy.path_unique_ratio":
            len(tracer.keys["taxonomy.path"]) / path_calls if path_calls else 0.0,
        "kernels.bfs_us": per_call("kernels.bfs", "us", inclusive=True),
        "similarity.sense_pairs_per_word_pair":
            measure_calls / word_calls if word_calls else 0.0,
        "similarity.word_pair_us": per_call("similarity.word_similarity", "us"),
        "evaluation.run_benchmark_s": per_call("evaluation.run_benchmark", "s"),
        "evaluation.pearson_us": per_call("evaluation.pearson", "us"),
        "evaluation.emit_report_ms": per_call("evaluation.emit_report", "ms"),
        "trace.overhead_frac": scoring["traced_s"] / scoring["untraced_s"] - 1.0,
    }
    for m in MEASURE_NAMES:
        out[f"similarity.{m}_us"] = per_call(f"similarity.{m}", "us")
    return out


def layer_split(tracer, root, scoring):
    """Self time per module (s) inside the measured phase, the span named
    `root`, next to that phase's untraced and traced wall time. The module
    totals add up to the traced time, so they show where it went."""
    name_id, _, _, self_time = tracer.arrays()
    start = np.array(tracer.start)
    end = np.array(tracer.end)
    r = tracer.names.index(root)
    first = int(np.flatnonzero(name_id == r)[0])
    inside = (start >= start[first]) & (end <= end[first])
    inside[:first] = False
    totals = {}
    for i, name in enumerate(tracer.names):
        module = name.split(".")[0]
        spent = float(self_time[inside & (name_id == i)].sum())
        if spent:
            totals[module] = totals.get(module, 0.0) + spent
    return {"phase": root, "self_s": totals, "untraced_s": scoring["untraced_s"],
            "traced_s": scoring["traced_s"]}
