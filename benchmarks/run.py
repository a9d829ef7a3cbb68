"""Benchmark of `vsb bench`: throughput at 1 and 2 workers, start-up time,
peak memory, output checks and (with --trace 1) per-layer numbers.

Usage, from the root of the repository:

    python3 benchmarks/run.py --workload order-search --seed 1 --seconds 32 --trace 0

An untraced run first times SETUP_SAMPLES fresh processes that import the
CLI and parse the workload config (``setup_s``, the median). Every run then
runs whole rounds until ``--seconds`` of `vsb bench` time are spent (the
loop stops once the next round would end more than half a round late).
Each round runs the round's config once with ``VSB_THREADS=1`` and once
with ``VSB_THREADS=2``, compares the two ``records.csv`` byte for byte and
checks the 1-worker results (see checks.py). With ``--trace 1`` the 1-worker
process wraps the package's public functions (see spans.py) and the run
prints per-layer metrics instead of end-to-end ones. The program runs with
the BLAS thread variables unset, under its own defaults.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``attempted`` counts
every record of every `vsb bench` call plus every output check; ``failed``
counts records that carry an error plus failed checks. Results, a manifest
and the per-layer summary go to ``.bench_out/<workload>/``.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

sys.path.insert(0, HERE)
from checks import Checks, check_claims, check_round, check_same_records  # noqa: E402
from workloads import CLAIMS, WORKLOADS, round_config  # noqa: E402

BLAS_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_SAMPLES = 5
SETUP_SNIPPET = (
    "import json, sys; sys.path.insert(0, sys.argv[1]); "
    "from varsortbench import cli, harness; "
    "harness.ExperimentConfig.from_json(json.load(open(sys.argv[2])))"
)
SID_DIMS = sorted({g["d"] for w in WORKLOADS.values() for g in w["graphs"]})


def program_env(workers: int) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env["VSB_THREADS"] = str(workers)
    return env


class Runner:
    """A long-lived `vsb` process (runner.py) at a fixed worker count."""

    def __init__(self, workers: int, trace: bool):
        cmd = [sys.executable, os.path.join(HERE, "runner.py"), SRC] + (["--trace"] if trace else [])
        self.proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=program_env(workers), text=True
        )

    def _ask(self, request: dict) -> dict:
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"vsb runner exited with code {self.proc.wait()}")
        return json.loads(line)

    def bench(self, config_path: str, out_dir: str) -> dict:
        return self._ask({"config": config_path, "out": out_dir})

    def close(self) -> int:
        """Stop the process; return its peak resident memory in KiB."""
        try:
            return self._ask({"quit": True})["peak_rss_kb"]
        finally:
            self.proc.stdin.close()
            self.proc.stdout.close()
            self.proc.wait()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


def measure_setup(config_path: str) -> list[float]:
    times = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_SNIPPET, SRC, config_path], env=program_env(1), check=True)
        times.append(time.perf_counter() - start)
    return times


def _dir_bytes(path: str) -> int:
    return sum(os.path.getsize(p) for p in glob.glob(os.path.join(path, "**"), recursive=True) if os.path.isfile(p))


def _git_commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None  # an exported checkout; source_sha256 identifies the code
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def write_manifest(run_dir: str, args, config_hashes: list[str]) -> None:
    import numpy
    import scipy
    import varsortbench

    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "varsortbench", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(fh.read())
    manifest = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "package": {"name": "varsortbench", "version": varsortbench.__version__},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_thread_vars": {v: os.environ.get(v) for v in BLAS_VARS},
        "blas_thread_vars_for_program": "unset",
        "vsb_threads": [1, 2],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "source_sha256": digest.hexdigest(),
        "config_hashes": config_hashes,
    }
    with open(os.path.join(run_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(traces: list[dict], rounds: list[dict]) -> dict:
    """Per-layer metrics from the 1-worker traces and the 2-worker records."""
    durations, info, summed, self_s = defaultdict(list), defaultdict(list), defaultdict(lambda: [0, 0.0]), []
    for t in traces:
        for k, v in t["durations"].items():
            durations[k] += v
        for k, v in t["info"].items():
            info[k] += v
        for k, (calls, total) in t["summed"].items():
            summed[k][0] += calls
            summed[k][1] += total
        self_s += t["self_s"]
    n_rounds = len(rounds)
    out = {}

    def put(name, value, unit):
        out[name] = {"value": float(value), "unit": unit}

    for learner in ("sortnregress", "randomregress"):
        for regime in ("raw", "std"):
            put(f"learners.{learner}.fit_s.{regime}.d10", _median(durations[f"learners.{learner}.fit|{regime}.d10"]), "s")
    for variant in ("ev", "nv"):
        for regime in ("raw", "std"):
            put(f"contlearn.golem_fit.fit_s.{variant}.{regime}",
                _median(durations[f"contlearn.golem_fit|{variant}.{regime}"]), "s")
    golem_time = sum(durations["contlearn.golem_fit"])
    put("contlearn.golem_fit.steps_per_s",
        sum(i["steps"] for i in info["contlearn.golem_fit"]) / golem_time if golem_time else 0, "steps/s")
    busy = sum(r["busy_2w"] for r in rounds) / (2 * sum(r["seconds_2w"] for r in rounds))
    put("harness.pool_busy_ratio", busy, "ratio")

    for d in SID_DIMS:
        put(f"metrics.sid_s.d{d}", _median(durations[f"metrics.sid|d{d}"]), "s")
    sid_calls = len(durations["metrics.sid"])
    put("metrics.sid.calls", sid_calls / n_rounds, "count")
    put("metrics.sid.distinct_ratio", len({i["pair"] for i in info["metrics.sid"]}) / sid_calls if sid_calls else 0, "ratio")
    dsep_calls, dsep_total = summed["graphs.d_separated"]
    put("graphs.d_separated_s", dsep_total / dsep_calls if dsep_calls else 0, "s")
    put("graphs.d_separated.calls", dsep_calls / n_rounds, "count")
    put("metrics.shd_s", _median(durations["metrics.shd"]), "s")
    put("metrics.favorable_threshold_shd_s", _median(durations["metrics.favorable_threshold_shd"]), "s")
    put("contlearn.threshold_and_break_cycles_s", _median(durations["contlearn.threshold_and_break_cycles"]), "s")
    put("contlearn.threshold_and_break_cycles.calls", len(durations["contlearn.threshold_and_break_cycles"]) / n_rounds, "count")
    put("metrics.sid_cpdag_bounds_s", _median(durations["metrics.sid_cpdag_bounds"]), "s")
    put("graphs.enumerate_mec_s", _median(durations["graphs.enumerate_mec"]), "s")
    members = info["graphs.enumerate_mec"]
    put("graphs.enumerate_mec.members", statistics.fmean(i["members"] for i in members) if members else 0, "count")
    put("graphs.dag_to_cpdag_s", _median(durations["graphs.dag_to_cpdag"]), "s")
    put("harness.write_records_s", _median(durations["harness.write_records"]), "s")
    put("harness.records_bytes", statistics.fmean(r["bytes_1w"] for r in rounds), "B")
    put("harness.self_s", _median(self_s), "s")
    for name in ("scm.simulate", "scm.standardize", "varsort.varsortability", "graphs.sample"):
        put(f"{name}_s", _median(durations[name]), "s")
    put("harness.records_per_s_traced",
        sum(r["records_1w"] for r in rounds) / sum(r["seconds_1w"] for r in rounds), "records/s")
    return out


def _check_declared(metrics: dict, kind: str) -> None:
    """The printed metrics must be exactly those BENCHMARK.json declares."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)[kind]}
    printed = {name: m["unit"] for name, m in metrics.items()}
    if printed != declared:
        raise RuntimeError(f"{kind} metrics differ from BENCHMARK.json: {sorted(set(printed.items()) ^ set(declared.items()))}")


def run(args) -> dict:
    run_dir = os.path.join(OUT, args.workload)
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    setup_times = []
    if not args.trace:
        first_config = os.path.join(run_dir, "setup_config.json")
        with open(first_config, "w", encoding="utf-8") as fh:
            json.dump(round_config(args.workload, args.seed, 0), fh)
        setup_times = measure_setup(first_config)

    checks = Checks()
    rounds, traces, all_records, config_hashes = [], [], [], []
    runners = [Runner(1, trace=bool(args.trace)), Runner(2, trace=False)]
    try:
        measured = 0.0
        while True:
            r = len(rounds)
            round_dir = os.path.join(run_dir, f"round{r:02d}")
            os.makedirs(round_dir)
            cfg = round_config(args.workload, args.seed, r)
            cfg_path = os.path.join(round_dir, "config.json")
            with open(cfg_path, "w", encoding="utf-8") as fh:
                json.dump(cfg, fh)
            outs = [os.path.join(round_dir, f"w{w}") for w in (1, 2)]
            replies = [runner.bench(cfg_path, out) for runner, out in zip(runners, outs)]
            measured += replies[0]["seconds"] + replies[1]["seconds"]

            check_same_records(outs, checks)
            all_records += check_round(cfg, outs[0], checks)
            with open(os.path.join(outs[1], "records.json"), encoding="utf-8") as fh:
                records_2w = json.load(fh)
            config_hashes.append(records_2w["config_hash"])
            rounds.append({
                "records_1w": replies[0]["summary"]["records"],
                "errors": replies[0]["summary"]["errors"] + replies[1]["summary"]["errors"],
                "records": replies[0]["summary"]["records"] + replies[1]["summary"]["records"],
                "seconds_1w": replies[0]["seconds"],
                "seconds_2w": replies[1]["seconds"],
                "busy_2w": sum(rec["wall_seconds"] for rec in records_2w["records"]),
                "bytes_1w": _dir_bytes(outs[0]),
            })
            print(f"round {r}: {rounds[-1]['records_1w']} records, 1 worker {replies[0]['seconds']:.2f} s, "
                  f"2 workers {replies[1]['seconds']:.2f} s", file=sys.stderr)
            if args.trace:
                traces.append(replies[0]["trace"])
            # Stop once the next round would end more than half a round late.
            if measured + 0.5 * measured / len(rounds) >= args.seconds:
                break
        omega = f"{WORKLOADS[args.workload]['omegas'][0]:g}"
        check_claims(all_records, CLAIMS[args.workload], omega, checks)
        peak_rss_kb = runners[0].close()
        runners[1].close()
    finally:
        for runner in runners:
            runner.kill()

    write_manifest(run_dir, args, config_hashes)
    for failure in checks.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    records = sum(r["records"] for r in rounds)
    failed_records = sum(r["errors"] for r in rounds)
    print(
        f"{args.workload}: {len(rounds)} rounds, {records} records ({failed_records} failed), "
        f"{checks.attempted} checks ({checks.failed} failed)",
        file=sys.stderr,
    )

    if args.trace:
        metrics = layer_metrics(traces, rounds)
        _check_declared(metrics, "per_layer")
        with open(os.path.join(run_dir, "layers.json"), "w", encoding="utf-8") as fh:
            json.dump(metrics, fh, indent=2)
    else:
        rec_1w = sum(r["records_1w"] for r in rounds)
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "records_per_s": {"value": rec_1w / sum(r["seconds_1w"] for r in rounds), "unit": "records/s"},
            "records_per_s_2w": {"value": rec_1w / sum(r["seconds_2w"] for r in rounds), "unit": "records/s"},
            "peak_rss_mb": {"value": peak_rss_kb / 1024.0, "unit": "MB"},
        }
        _check_declared(metrics, "end_to_end")
    return {
        "correct": checks.failed == 0,
        "attempted": records + checks.attempted,
        "failed": failed_records + checks.failed,
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "varsortbench", "__init__.py")):
        print(f"no varsortbench sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
