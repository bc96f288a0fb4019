"""Workload process: the taxsim user whose time and memory are measured.

run.py starts one per job with a JSON config file and reads back one JSON
result file. Keeping the job in its own process keeps the benchmark's own
data (fixture spec, oracle, stream generation) out of the measured memory.

Jobs:
  setup      import taxsim, load the fixture and build the IC tables the
             workload needs, timed; given a "sample" of sense pairs, then
             compare the load with intended.json and answer those queries
  score      setup, then score the pair stream under the workload's measure
             set for `seconds` of scoring time and at least `min_pairs` pairs
  reference  the in-process RG-30 run_benchmark -> emit_report text, with
             the round trip and the sample queries (traced rg30-cli runs;
             untraced ones do this in clirun.py after the CLI run)
  cli        rg30-cli traced: in-process cli.main info and bench
"""

import contextlib
import io
import json
import math
import os
import resource
import sys
import time

_perf = time.perf_counter

IC_MODELS = ("hybrid", "seco", "sanchez", "corpus")


def _rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup(cfg, trace=False):
    """Import taxsim, load the fixture and build the needed IC tables.

    Returns (state, setup_s, import_s, tracer); the clock starts before the
    import. With trace, the tracer is installed right after the import and
    the time to make it is left out of setup_s.
    """
    t0 = _perf()
    import taxsim.cli  # noqa: F401  (the import is part of what is timed)
    from taxsim import ic, wordnet
    import_s = _perf() - t0
    tracer = None
    if trace:
        t1 = _perf()
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
        t0 += _perf() - t1
    taxonomy, index = wordnet.load_wordnet(cfg["dict_dir"])
    tables = {model: ic.make_table(taxonomy, model) for model in cfg["tables"]}
    setup_s = _perf() - t0
    return {"taxonomy": taxonomy, "index": index, "tables": tables}, setup_s, import_s, tracer


def check(cfg, state):
    """Round-trip the load against intended.json and answer sample queries."""
    from oracle import check_roundtrip

    taxonomy, index = state["taxonomy"], state["index"]
    with open(os.path.join(cfg["dict_dir"], "intended.json"), encoding="ascii") as f:
        intended = json.load(f)
    answers = [{"path": taxonomy.shortest_path_edges(a, b), "lcs": taxonomy.lcs(a, b),
                "depth": [taxonomy.depth(a), taxonomy.depth(b)]}
               for a, b in cfg["sample"]]
    return {"roundtrip_errors": check_roundtrip(taxonomy, index, intended),
            "answers": answers}


def score_pairs(state, measure_set, pairs, seconds, min_pairs=0):
    """Score word pairs until `seconds` of scoring time have passed and at
    least `min_pairs` pairs are scored (or the stream ends).

    Returns per-pair latencies (s), the score vectors and failure notes.
    """
    from taxsim import similarity

    taxonomy, index = state["taxonomy"], state["index"]
    latencies, scores, failures = [], [], []
    spent = 0.0
    for w1, w2 in pairs:
        t0 = _perf()
        try:
            values = [similarity.word_similarity(taxonomy, index, measure, w1, w2,
                                                 ic=table).value
                      for measure, table in measure_set]
        except Exception as exc:  # a failed pair is counted, the run goes on
            values = None
            failures.append(f"{w1}/{w2}: {exc!r}")
        dt = _perf() - t0
        spent += dt
        latencies.append(dt)
        scores.append(values)
        if values is not None and not all(math.isfinite(v) for v in values):
            failures.append(f"{w1}/{w2}: non-finite score {values}")
        if spent >= seconds and len(latencies) >= min_pairs:
            break
    return latencies, scores, failures


def _measure_set(cfg, state):
    from taxsim import similarity

    return [(similarity.MEASURES[name], state["tables"].get(model) if model else None)
            for name, model in cfg["measures"]]


def informational(cfg, state):
    """Build every IC model not built yet, with the frequency file for the
    corpus model, so that ic.py and load_frequencies are always timed."""
    from taxsim import ic, wordnet

    with open(os.path.join(cfg["dict_dir"], "frequencies.tsv"), encoding="utf-8") as f:
        frequencies = wordnet.load_frequencies(f)
    for model in IC_MODELS:
        if model not in state["tables"]:
            ic.make_table(state["taxonomy"], model, index=state["index"],
                          frequencies=frequencies)


def job_setup(cfg):
    state, setup_s, _, _ = setup(cfg)
    out = {"setup_s": setup_s}
    if cfg.get("sample") is not None:
        out.update(check(cfg, state))
    return out


def job_score(cfg):
    with open(cfg["stream"], encoding="utf-8") as f:
        pairs = json.load(f)
    if not cfg.get("trace"):
        state, setup_s, _, _ = setup(cfg)
        latencies, scores, failures = score_pairs(
            state, _measure_set(cfg, state), pairs, cfg["seconds"], cfg["min_pairs"])
        return {"setup_s": setup_s, "latencies": latencies,
                "scores": scores[:cfg["keep_scores"]], "failures": failures,
                "rss_mb": _rss_mb()}

    state, _, import_s, tracer = setup(cfg, trace=True)
    tracer.uninstall()
    half = cfg["seconds"] / 2.0
    plain, _, failures = score_pairs(state, _measure_set(cfg, state), pairs, half)
    tracer.install()
    with tracer.span("bench.score"):
        traced, scores, traced_failures = score_pairs(
            state, _measure_set(cfg, state), pairs[:len(plain)], float("inf"))
    scoring = {"untraced_s": sum(plain), "traced_s": sum(traced), "pairs": len(plain)}
    informational(cfg, state)
    tracer.uninstall()
    return finish_trace(cfg, tracer, "bench.score", import_s, scoring,
                        failures + traced_failures, scores[:cfg["keep_scores"]])


def reference_report(state, measures):
    """The RG-30 report computed in-process, with the measures paired with IC
    tables as `taxsim bench --measures all` pairs them (hybrid, and seco for
    jcn_norm).

    Path queries are memoised here: the reference only has to reproduce the
    report, and Taxonomy.shortest_path_edges is a pure function.
    """
    import functools

    from taxsim import evaluation, taxonomy

    cls = taxonomy.Taxonomy
    original = cls.shortest_path_edges
    memo = functools.lru_cache(maxsize=None)(original)
    cls.shortest_path_edges = lambda self, a, b: memo(self, a, b)
    try:
        pairs = [(name, state["tables"].get(model) if model else None)
                 for name, model in measures]
        report = evaluation.run_benchmark(state["taxonomy"], state["index"],
                                          evaluation.embedded_rg30(), pairs)
        return evaluation.emit_report(report, fmt="tsv")
    finally:
        cls.shortest_path_edges = original


def job_reference(cfg):
    state, _, _, _ = setup(cfg)
    out = {"report": reference_report(state, cfg["measures"])}
    out.update(check(cfg, state))
    return out


def job_cli(cfg):
    """rg30-cli traced: an untraced in-process bench for the overhead base,
    then traced in-process info and bench."""
    t0 = _perf()
    from taxsim import cli
    import_s = _perf() - t0
    from spans import Tracer

    bench_argv = ["bench", "--wordnet", cfg["dict_dir"], "--dataset", "rg30",
                  "--measures", "all", "--format", "tsv"]

    def run(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            t = _perf()
            code = cli.main(argv)
            return code, buf.getvalue(), _perf() - t

    code0, plain_out, plain_s = run(bench_argv)
    tracer = Tracer()
    tracer.install()
    with tracer.span("bench.info"):
        info = run(["info", "--wordnet", cfg["dict_dir"]])
    with tracer.span("bench.bench"):
        code1, traced_out, traced_s = run(bench_argv)
    tracer.uninstall()
    failures = []
    if code0 != 0 or code1 != 0 or info[0] != 0:
        failures.append(f"exit codes info {info[0]}, bench {code0}/{code1}")
    if plain_out != traced_out:
        failures.append("traced bench output differs from the untraced one")
    tracer.install()
    from taxsim import wordnet
    taxonomy, index = wordnet.load_wordnet(cfg["dict_dir"])
    informational(cfg, {"taxonomy": taxonomy, "index": index, "tables": {}})
    tracer.uninstall()
    scoring = {"untraced_s": plain_s, "traced_s": traced_s, "pairs": 30}
    return finish_trace(cfg, tracer, "bench.bench", import_s, scoring, failures, [],
                        report=plain_out)


def finish_trace(cfg, tracer, root, import_s, scoring, failures, scores, report=None):
    from layers import layer_metrics, layer_split

    tracer.write(cfg["spans_path"])
    return {"layers": layer_metrics(tracer, import_s, scoring),
            "split": layer_split(tracer, root, scoring),
            "path_lengths": {str(k): v for k, v in sorted(tracer.path_lengths.items())},
            "failures": failures, "scores": scores, "report": report,
            "pairs": scoring["pairs"], "rss_mb": _rss_mb()}


JOBS = {"setup": job_setup, "score": job_score, "reference": job_reference, "cli": job_cli}


def main():
    with open(sys.argv[1], encoding="utf-8") as f:
        cfg = json.load(f)
    sys.path.insert(0, cfg["src"])
    result = JOBS[cfg["job"]](cfg)
    with open(cfg["out"], "w", encoding="utf-8") as f:
        json.dump(result, f)


if __name__ == "__main__":
    main()
