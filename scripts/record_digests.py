"""Print the digests that show a change kept the benchmark's outputs.

For each workload of ``benchmarks/workloads.py`` this runs one round,
``round_config(workload, seed, round)`` (seed 1, round 0 by default), in a
temporary directory and prints the sha256[:16] of its ``records.csv`` and
one sha256[:16] over the ``estimates/`` files, taken in name order over
each name and its bytes. ``--workers 1 2`` runs each round once per worker
count (``VSB_THREADS``), prints the digests of each, and exits with status 1
if a workload's digests differ across worker counts. ``--keep DIR`` leaves
the outputs in ``DIR/<workload>`` (``DIR/<workload>/w<workers>`` with more
than one worker count) for a closer look. Nothing under ``benchmarks/`` is
changed.

The ``realdata`` guard, run after the workloads unless a list of names is
given, is ``vsb simulate --d 6 --seed 8`` followed by ``vsb realdata`` on
that sample with its default learners and repetitions; ``--seed`` and
``--round`` do not apply to it. Its digests are taken and compared across
worker counts in the same way.

    PYTHONPATH=src python scripts/record_digests.py
    PYTHONPATH=src python scripts/record_digests.py --workers 1 2
    PYTHONPATH=src python scripts/record_digests.py realdata --workers 1 2
    PYTHONPATH=src python scripts/record_digests.py order-search --seed 2 --round 1
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "benchmarks"))

from workloads import WORKLOADS, round_config  # noqa: E402

from varsortbench import cli  # noqa: E402
from varsortbench.harness import ExperimentConfig, run_benchmark  # noqa: E402

REALDATA = "realdata"


def digests(out_dir: str) -> tuple[str, str]:
    """(records.csv digest, estimates/ digest) of one results directory."""
    with open(os.path.join(out_dir, "records.csv"), "rb") as fh:
        records = hashlib.sha256(fh.read()).hexdigest()[:16]
    est_dir = os.path.join(out_dir, "estimates")
    h = hashlib.sha256()
    for name in sorted(os.listdir(est_dir)) if os.path.isdir(est_dir) else []:
        with open(os.path.join(est_dir, name), "rb") as fh:
            h.update(name.encode("utf-8") + b"\0" + fh.read() + b"\0")
    return records, h.hexdigest()[:16]


def realdata_round(out_dir: str) -> None:
    """Run the realdata guard into ``out_dir``: the sample and truth of
    ``vsb simulate --d 6 --seed 8``, then the outputs of ``vsb realdata`` on
    them. The commands' stdout is dropped; a failed command raises."""
    os.makedirs(out_dir, exist_ok=True)
    data, truth = os.path.join(out_dir, "data.csv"), os.path.join(out_dir, "truth.txt")
    for argv in (
        ["simulate", "--d", "6", "--seed", "8", "--out-data", data, "--out-truth", truth],
        ["realdata", "--data", data, "--truth", truth, "--out", out_dir],
    ):
        with contextlib.redirect_stdout(io.StringIO()):
            status = cli.main(argv)
        if status:
            raise RuntimeError(f"vsb {argv[0]} exited with status {status}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    names = [*WORKLOADS, REALDATA]
    ap.add_argument("workloads", nargs="*", default=names, help=", ".join(names))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--round", type=int, default=0)
    ap.add_argument("--workers", type=int, nargs="+", default=[1], help="worker counts to run")
    ap.add_argument("--keep", help="write each round's outputs to KEEP/<workload>")
    args = ap.parse_args(argv)
    status = 0
    for workload in args.workloads:
        if workload == REALDATA:
            line, run = {"workload": workload}, realdata_round
        else:
            cfg = ExperimentConfig.from_json(round_config(workload, args.seed, args.round))
            line = {"workload": workload, "seed": args.seed, "round": args.round}
            run = functools.partial(run_benchmark, cfg)
        seen = set()
        for workers in args.workers:
            os.environ["VSB_THREADS"] = str(workers)
            with tempfile.TemporaryDirectory() as tmp:
                out_dir = os.path.join(args.keep or tmp, workload)
                if len(args.workers) > 1:
                    out_dir = os.path.join(out_dir, f"w{workers}")
                run(out_dir)
                records, estimates = digests(out_dir)
            seen.add((records, estimates))
            print(json.dumps({**line, "workers": workers, "records_csv": records, "estimates": estimates}))
        if len(seen) > 1:
            print(f"{workload}: digests differ across worker counts {args.workers}", file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
