"""Run the taxsim CLI the way ``python -m taxsim`` does, then check it.

Usage: python3 perfbench/clirun.py CONFIG_JSON taxsim-argument...

Runs ``cli.main`` on the arguments, reading the clock around each
``word_similarity`` call (two clock reads per call, small next to a single
sense-pair score). Once the CLI returns, stdout is flushed and pointed at
/dev/null, so a reader of the pipe sees the end of the CLI's output when the
CLI is done. After a ``bench`` run, the process then builds the reference
report in-process from the taxonomy the CLI loaded
(``client.reference_report``) and answers the oracle's sample queries. The
result goes to the ``out`` file named in CONFIG_JSON: the scoring time of
each word pair, the peak RSS of the CLI run, and the checks.
"""

import json
import os
import resource
import sys
import time


def main():
    with open(sys.argv[1], encoding="utf-8") as f:
        cfg = json.load(f)
    sys.path.insert(0, cfg["src"])
    from taxsim import cli, evaluation, ic, similarity

    word_similarity = similarity.word_similarity
    run_benchmark = evaluation.run_benchmark
    pair_times = {}
    loaded = {}

    def timed(taxonomy, index, measure, w1, w2, ic=None):
        t0 = time.perf_counter()
        try:
            return word_similarity(taxonomy, index, measure, w1, w2, ic=ic)
        finally:
            key = f"{w1}\t{w2}"
            pair_times[key] = pair_times.get(key, 0.0) + time.perf_counter() - t0

    def keep_load(taxonomy, index, *args, **kwargs):
        loaded.update(taxonomy=taxonomy, index=index)
        return run_benchmark(taxonomy, index, *args, **kwargs)

    similarity.word_similarity = evaluation.word_similarity = timed
    evaluation.run_benchmark = keep_load
    code = cli.main(sys.argv[2:])
    sys.stdout.flush()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(os.devnull, "wb") as devnull:
        os.dup2(devnull.fileno(), sys.stdout.fileno())
    similarity.word_similarity = evaluation.word_similarity = word_similarity
    evaluation.run_benchmark = run_benchmark

    result = {"pair_times": list(pair_times.values()), "rss_mb": rss_mb}
    if loaded:
        from client import check, reference_report

        tables = {model: ic.make_table(loaded["taxonomy"], model) for model in cfg["tables"]}
        state = dict(loaded, tables=tables)
        result["report"] = reference_report(state, cfg["measures"])
        result.update(check(cfg, state))
    with open(cfg["out"], "w", encoding="utf-8") as f:
        json.dump(result, f)
    return code


if __name__ == "__main__":
    sys.exit(main())
