"""End-to-end and per-layer benchmark of taxsim on a seeded WordNet-shaped
fixture. See perfbench/README.md for the workloads and metrics.

Usage, from the root of a checkout that holds taxsim's sources in src/:

    python3 perfbench/run.py --workload {rg30-cli,pairs-ic,pairs-path} \\
        --seed N --seconds S --trace {0,1}

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. Lines before it describe
the environment, the workload and (traced) the time split by module.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
KEEP_FIXTURES = 3
SETUP_SAMPLES = 3
SAMPLE_QUERIES = 8
CHECKED_PAIRS = 3
# enough word pairs that at least ten lie beyond p90
MIN_PAIRS = 110
CHILD_TIMEOUT_S = 120

sys.path.insert(0, HERE)
from fixture import RG30_PAIRS, RG30_SENSES  # noqa: E402
from layers import UNITS  # noqa: E402
from oracle import Oracle  # noqa: E402
from pairstream import BLOCK, MAX_PAIRS, pair_stream  # noqa: E402

# (measure, IC model or None), as `taxsim bench` pairs them by default
PAIRS_IC = (("resnik", "hybrid"), ("jcn_dist", "hybrid"), ("lin", "hybrid"),
            ("new", None), ("jcn_norm", "seco"))
PAIRS_PATH = (("wup", None), ("lch", None), ("rada_dist", None))
RG30_ALL = (("resnik", "hybrid"), ("jcn_dist", "hybrid"), ("jcn_norm", "seco"),
            ("lin", "hybrid"), ("rada_dist", None), ("wup", None), ("lch", None),
            ("new", None))
# pairs generated per second of scoring: about twice the pairs-ic rate seen
# with taxsim 0.1.0 (2,600 pairs/s on a 2-vCPU Xeon), for both workloads so
# that a faster path kernel still has pairs to score; a program that outruns
# MAX_PAIRS finishes the stream before --seconds have passed
STREAM_RATE = 5000

END_TO_END_UNITS = {"setup_s": "s", "rg30_s": "s", "pairs_per_s": "pairs/s",
                    "pair_p50_ms": "ms", "pair_p90_ms": "ms", "peak_rss_mb": "MiB"}


class BenchError(Exception):
    """The benchmark could not measure (as opposed to a wrong answer)."""


class Tally:
    """Operations attempted and failed, with a note per failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok, note):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"perfbench: FAILED {note}", file=sys.stderr)


# -- fixture -------------------------------------------------------------


def ensure_fixture(seed):
    """Generate the fixture for a seed, or reuse the one a recent run made."""
    with open(os.path.join(HERE, "fixture.py"), "rb") as f:
        version = hashlib.sha256(f.read()).hexdigest()[:12]
    base = os.path.join(WORK, "fixtures")
    target = os.path.join(base, f"seed{seed}-{version}")
    if not os.path.exists(os.path.join(target, "complete")):
        shutil.rmtree(target, ignore_errors=True)
        run_child([sys.executable, os.path.join(HERE, "fixture.py"),
                   "--seed", str(seed), "--out", target])
        open(os.path.join(target, "complete"), "w").close()
    os.utime(target)
    others = sorted((os.path.join(base, d) for d in os.listdir(base)),
                    key=os.path.getmtime, reverse=True)
    for old in others[KEEP_FIXTURES:]:
        shutil.rmtree(old, ignore_errors=True)
    with open(os.path.join(target, "intended.json"), encoding="ascii") as f:
        return target, json.load(f)


# -- child processes ------------------------------------------------------


def _alarm(signum, frame):
    raise BenchError("a child process ran past its time limit")


def run_child(argv, env=None, check=True, capture=False):
    """Run a process to completion; returns (exit code, seconds, max RSS MiB,
    stdout). With capture, stdout is read through a pipe and the seconds
    run until the process closes it (when the user has the whole output);
    otherwise stdout is discarded and the seconds run until the process
    exits. With check, a non-zero exit code raises BenchError."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE if capture else subprocess.DEVNULL,
                            env=env, cwd=ROOT)
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(CHILD_TIMEOUT_S)
    out = None
    try:
        if capture:
            with proc.stdout:
                out = proc.stdout.read()
            wall = time.perf_counter() - t0
        _, status, usage = os.wait4(proc.pid, 0)
        if not capture:
            wall = time.perf_counter() - t0
    except BenchError:
        proc.kill()
        os.wait4(proc.pid, 0)
        proc.returncode = -signal.SIGKILL
        raise
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if check and proc.returncode != 0:
        raise BenchError(f"exit code {proc.returncode}: {argv[:4]}")
    return proc.returncode, wall, usage.ru_maxrss / 1024.0, out


def client(job, dict_dir, **cfg):
    """Run one client.py job and return its result."""
    os.makedirs(WORK, exist_ok=True)
    cfg_path = os.path.join(WORK, f"{job}.cfg.json")
    out_path = os.path.join(WORK, f"{job}.out.json")
    cfg.update(job=job, src=SRC, dict_dir=dict_dir, out=out_path)
    with open(cfg_path, "w", encoding="utf-8") as f:
        json.dump(cfg, f)
    if os.path.exists(out_path):
        os.remove(out_path)
    run_child([sys.executable, os.path.join(HERE, "client.py"), cfg_path])
    with open(out_path, encoding="utf-8") as f:
        return json.load(f)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


# -- checks against the oracle ---------------------------------------------


def sample_queries(rng, intended, word_pairs):
    """SAMPLE_QUERIES sense pairs (as offsets) drawn from the given word pairs."""
    senses, offsets = intended["senses"], intended["offsets"]
    picks = rng.sample(word_pairs, min(SAMPLE_QUERIES, len(word_pairs)))
    return [[offsets[rng.choice(senses[w1])], offsets[rng.choice(senses[w2])]]
            for w1, w2 in picks]


def check_answers(tally, oracle, sample, answers):
    for (a, b), got in zip(sample, answers):
        i, j = oracle.node_of[a], oracle.node_of[b]
        tally.check(got["path"] == oracle.distance(i, j), f"path {a} {b}: {got['path']}")
        tally.check(got["lcs"] == oracle.offsets[oracle.lcs(i, j)], f"lcs {a} {b}: {got['lcs']}")
        tally.check(got["depth"] == [oracle.depth(i), oracle.depth(j)],
                    f"depth {a} {b}: {got['depth']}")


def oracle_word_scores(oracle, senses1, senses2, max_depth):
    """Best score over sense pairs, per measure, from brute-force queries.

    Covers the measures whose inputs the oracle computes directly: hybrid IC
    is ln(subsumer count); seco IC and `new` need whole-graph counts and are
    checked through lcs and the RG-30 report instead.
    """
    import math

    def ic(node):
        return math.log(len(oracle.ancestors(node)))

    best = {}
    for a in senses1:
        for b in senses2:
            lcs = oracle.lcs(a, b)
            d = oracle.distance(a, b)
            depth = oracle.depth(lcs)
            denom = ic(a) + ic(b)
            values = {
                "resnik": ic(lcs),
                "jcn_dist": max(denom - 2.0 * ic(lcs), 0.0),
                "lin": 0.0 if denom == 0.0 else 2.0 * ic(lcs) / denom,
                "rada_dist": float(d),
                "wup": 2.0 * depth / (d + 2.0 * depth),
                "lch": -math.log((d + 1) / (2.0 * max_depth)),
            }
            for name, v in values.items():
                keep = min if name in ("jcn_dist", "rada_dist") else max
                best[name] = keep(best[name], v) if name in best else v
    return best


def check_word_scores(tally, oracle, intended, pairs, scores, measures):
    max_depth = max(intended["level"])
    senses = intended["senses"]
    names = [name for name, _ in measures]
    for (w1, w2), values in zip(pairs, scores):
        if values is None:
            continue
        expect = oracle_word_scores(oracle, senses[w1], senses[w2], max_depth)
        for name, value in zip(names, values):
            if name in expect:
                tally.check(abs(value - expect[name]) <= 1e-9 * max(1.0, abs(value)),
                            f"{name}({w1}, {w2}) = {value}, oracle {expect[name]}")


def check_report_rows(tally, oracle, intended, report):
    """Check RG-30 report cells against the oracle on the pairs with the
    fewest sense pairs (their oracle cost is smallest)."""
    lines = report.rstrip("\n").split("\n")
    header = lines[0].split("\t")
    rows = {tuple(line.split("\t")[:2]): line.split("\t") for line in lines[1:31]}
    senses = intended["senses"]
    cheap = sorted(RG30_PAIRS, key=lambda p: RG30_SENSES[p[0]] * RG30_SENSES[p[1]])
    for w1, w2, _ in cheap[:CHECKED_PAIRS]:
        expect = oracle_word_scores(oracle, senses[w1], senses[w2], max(intended["level"]))
        row = rows.get((w1, w2))
        tally.check(row is not None, f"report row {w1}/{w2} missing")
        if row is None:
            continue
        for name, value in expect.items():
            if name in header:
                cell = row[header.index(name)]
                tally.check(cell == f"{value:.4f}", f"report {name}({w1}, {w2}) = {cell}, "
                                                    f"oracle {value:.4f}")


# -- workloads -------------------------------------------------------------


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def descriptors(intended):
    parents = intended["parents"]
    n = len(parents)
    fan = [0] * n
    for ps in parents:
        for p in ps:
            fan[p] += 1
    return {
        "nodes": n,
        "edges": sum(len(ps) for ps in parents),
        "multi_parent_share": sum(len(ps) > 1 for ps in parents) / n,
        "leaves": fan.count(0),
        "max_fan_out": max(fan),
        "max_depth": max(intended["level"]),
        "lemmas": len(intended["senses"]),
        "polysemous_lemmas": sum(len(s) > 1 for s in intended["senses"].values()),
    }


def mean_common_ancestors(oracle, intended, word_pairs):
    senses = intended["senses"]
    counts = [len(oracle.common_ancestors(a, b))
              for w1, w2 in word_pairs for a in senses[w1] for b in senses[w2]]
    return sum(counts) / len(counts)


def run_pairs(workload, seed, seconds, trace):
    measures = PAIRS_IC if workload == "pairs-ic" else PAIRS_PATH
    tables = sorted({model for _, model in measures if model})
    dict_dir, intended = ensure_fixture(seed)
    oracle = Oracle(intended)
    rng = random.Random(seed)
    stream = pair_stream(intended, oracle, seed,
                         min(int(seconds * STREAM_RATE) + 200, MAX_PAIRS))
    stream_path = os.path.join(WORK, "stream.json")
    with open(stream_path, "w", encoding="utf-8") as f:
        json.dump([[w1, w2] for w1, w2, _, _ in stream], f)
    head = [(w1, w2) for w1, w2, _, _ in stream[:40]]
    sample = sample_queries(rng, intended, head)
    tally = Tally()
    common = dict(tables=tables, measures=measures)

    probe = client("setup", dict_dir, sample=sample, **common)
    tally.check(not probe["roundtrip_errors"], f"round trip: {probe['roundtrip_errors'][:3]}")
    check_answers(tally, oracle, sample, probe["answers"])
    if trace:
        res = client("score", dict_dir, stream=stream_path, seconds=seconds, trace=True,
                     keep_scores=CHECKED_PAIRS,
                     spans_path=os.path.join(WORK, f"spans-{workload}.npz"), **common)
        latencies = None
    else:
        setups = [probe["setup_s"]]
        for _ in range(SETUP_SAMPLES - 2):
            setups.append(client("setup", dict_dir, **common)["setup_s"])
        res = client("score", dict_dir, stream=stream_path, seconds=seconds,
                     min_pairs=MIN_PAIRS, keep_scores=CHECKED_PAIRS, **common)
        setups.append(res["setup_s"])
        latencies = res["latencies"]
    for note in res["failures"]:
        tally.check(False, note)
    scored = latencies if latencies is not None else range(res["pairs"])
    tally.attempted += len(scored) - len(res["failures"])
    check_word_scores(tally, oracle, intended, head, res["scores"], measures)

    related = [r for _, _, r, _ in stream[:len(scored)]]
    hops = {}
    for _, _, r, h in stream[:len(scored)]:
        if r:
            hops[h] = hops.get(h, 0) + 1
    desc = {
        "graph": descriptors(intended),
        "stream": {
            "block": [list(b) for b in BLOCK],
            "pairs_scored": len(scored),
            "sense_pairs_per_word_pair_mean": sum(a * b for a, b, _ in BLOCK) / len(BLOCK),
            "sense_pairs_per_word_pair_max": max(a * b for a, b, _ in BLOCK),
            "related_share": sum(related) / len(related),
            "related_hops_histogram": dict(sorted(hops.items())),
            "repeated_path_query_share": 0.0,
            "mean_common_ancestors_per_lcs": mean_common_ancestors(oracle, intended, head),
        },
    }
    if trace:
        return tally, res["layers"], desc, res
    metrics = {
        "setup_s": statistics.median(setups),
        "rg30_s": 30 * statistics.fmean(latencies),
        "pairs_per_s": len(latencies) / sum(latencies),
        "pair_p50_ms": statistics.median(latencies) * 1e3,
        "pair_p90_ms": percentile(latencies, 90) * 1e3,
        "peak_rss_mb": res["rss_mb"],
    }
    desc["samples"] = {"setup": len(setups), "pairs": len(latencies)}
    return tally, metrics, desc, None


def run_rg30_cli(seed, seconds, trace):
    dict_dir, intended = ensure_fixture(seed)
    oracle = Oracle(intended)
    rng = random.Random(seed)
    tally = Tally()
    rg_pairs = [(w1, w2) for w1, w2, _ in RG30_PAIRS]
    sample = sample_queries(rng, intended, rg_pairs)
    products = [RG30_SENSES[a] * RG30_SENSES[b] for a, b in rg_pairs]
    desc = {"graph": descriptors(intended), "rg30": {
        "sense_pairs": sum(products),
        "sense_pairs_per_word_pair_mean": sum(products) / len(products),
        "sense_pairs_per_word_pair_max": max(products),
        # each path measure asks every sense pair again
        "repeated_path_query_share": 1 - 1 / len(PAIRS_PATH),
        "mean_common_ancestors_per_lcs": mean_common_ancestors(oracle, intended, rg_pairs),
    }}

    def check_reference(ref):
        tally.check(not ref["roundtrip_errors"], f"round trip: {ref['roundtrip_errors'][:3]}")
        check_answers(tally, oracle, sample, ref["answers"])
        check_report_rows(tally, oracle, intended, ref["report"])

    if trace:
        ref = client("reference", dict_dir, tables=["hybrid", "seco"], measures=RG30_ALL,
                     sample=sample)
        check_reference(ref)
        res = client("cli", dict_dir, spans_path=os.path.join(WORK, "spans-rg30-cli.npz"))
        for note in res["failures"]:
            tally.check(False, note)
        tally.check(res["report"] == ref["report"], "in-process cli bench != reference report")
        return tally, res["layers"], desc, res

    # the measured window holds the info runs and at least one bench run
    started = time.perf_counter()
    env = child_env()
    setups, rss = [], []
    for _ in range(SETUP_SAMPLES):
        code, wall, peak, out = run_child([sys.executable, "-m", "taxsim", "info",
                                           "--wordnet", dict_dir],
                                          env=env, check=False, capture=True)
        tally.check(code == 0, f"taxsim info exit code {code}")
        lines = out.decode("utf-8").split("\n")
        tally.check(f"synsets {len(intended['parents'])}" in lines
                    and f"max_depth {max(intended['level'])}" in lines,
                    f"taxsim info output {lines[:2]}")
        setups.append(wall)
        rss.append(peak)

    cfg_path = os.path.join(WORK, "clirun.cfg.json")
    out_path = os.path.join(WORK, "clirun.out.json")
    with open(cfg_path, "w", encoding="utf-8") as f:
        json.dump({"src": SRC, "out": out_path, "dict_dir": dict_dir, "tables": ["hybrid", "seco"],
                   "measures": RG30_ALL, "sample": sample}, f)
    runs, pair_times = [], []
    while not runs or time.perf_counter() - started < seconds:
        if os.path.exists(out_path):
            os.remove(out_path)
        code, wall, _, out = run_child(
            [sys.executable, os.path.join(HERE, "clirun.py"), cfg_path,
             "bench", "--wordnet", dict_dir, "--dataset", "rg30", "--measures", "all",
             "--format", "tsv"], env=env, check=False, capture=True)
        tally.check(code == 0, f"taxsim bench exit code {code}")
        with open(out_path, encoding="utf-8") as f:
            ref = json.load(f)
        check_reference(ref)
        tally.check(out.decode("utf-8") == ref["report"],
                    "taxsim bench stdout != in-process report")
        if len(ref["pair_times"]) != 30:
            raise BenchError(f"expected 30 timed word pairs, saw {len(ref['pair_times'])}")
        pair_times.extend(ref["pair_times"])
        runs.append(wall)
        rss.append(ref["rss_mb"])
    # one sample per RG-30 pair under all 8 measures, as on pairs-*; with 30
    # pairs, only 3 samples lie beyond p90
    metrics = {
        "setup_s": statistics.median(setups),
        "rg30_s": statistics.median(runs),
        "pairs_per_s": 30 / statistics.median(runs),
        "pair_p50_ms": statistics.median(pair_times) * 1e3,
        "pair_p90_ms": percentile(pair_times, 90) * 1e3,
        "peak_rss_mb": max(rss),
    }
    desc["samples"] = {"setup": len(setups), "bench_runs": len(runs), "pairs": len(pair_times)}
    return tally, metrics, desc, None


def environment(seed):
    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    probe = ("import importlib.util, json, numpy\n"
             "from taxsim import kernels\n"
             "name = getattr(kernels, 'backend_name', None)\n"
             "print(json.dumps({'numpy': numpy.__version__,"
             " 'numba_importable': importlib.util.find_spec('numba') is not None,"
             " 'bfs_backend': name() if callable(name) else 'unknown'}))\n")
    out = subprocess.run([sys.executable, "-c", probe], env=child_env(), cwd=ROOT,
                         capture_output=True, text=True, timeout=60, check=True)
    env = json.loads(out.stdout)
    env.update(nproc=os.cpu_count(), cpu=cpu, python=platform.python_version(), seed=seed)
    return env


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("rg30-cli", "pairs-ic", "pairs-path"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "taxsim", "__init__.py")):
        print(f"perfbench: no taxsim sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    try:
        env = environment(args.seed)
        if args.workload == "rg30-cli":
            tally, values, desc, traced = run_rg30_cli(args.seed, args.seconds, args.trace)
        else:
            tally, values, desc, traced = run_pairs(args.workload, args.seed, args.seconds,
                                                    args.trace)
    except (BenchError, subprocess.SubprocessError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc!r}", file=sys.stderr)
        return 1
    units = UNITS if args.trace else END_TO_END_UNITS
    print(json.dumps({"environment": env}))
    print(json.dumps({"workload": args.workload, "descriptors": desc}))
    if traced is not None:
        print(json.dumps({"layer_split": traced["split"],
                          "path_length_histogram": traced["path_lengths"]}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
