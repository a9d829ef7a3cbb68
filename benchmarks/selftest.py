"""Self-test of the output checks: they pass on a clean `vsb bench` result
and fail on each deliberately corrupted copy of it.

Usage, from the root of the repository:

    python3 benchmarks/selftest.py

Runs one small `vsb bench` config (about 10 s) into
``.bench_out/selftest/clean``, then checks copies with one value changed in
``records.csv``, two estimate files swapped, one record's bytes changed
against the clean copy, and SIDs that invert a relative claim. Exits 0 when
the clean result passes and every corruption is caught.
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out", "selftest")
sys.path.insert(0, HERE)
sys.path.insert(0, SRC)

from checks import Checks, check_claims, check_round, check_same_records, read_records  # noqa: E402

CONFIG = {
    "graphs": [{"model": "ER", "d": 6, "k": 1}],
    "noise": ["gaussian-ev"],
    "learners": [{"name": "sortnregress"}, {"name": "randomregress"}, {"name": "empty"}, {"name": "varsort-full"}],
    "repetitions": 2,
    "omegas": [0.3, 0.5],
    "favorable": True,
    "mec_metrics": True,
    "seed": 7,
}


def _rewrite_csv(out_dir: str, edit) -> None:
    rows = read_records(out_dir)
    edit(rows)
    with open(os.path.join(out_dir, "records.csv"), "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def _bump_shd(rows):
    rows[0]["shd_w0.3"] = str(int(rows[0]["shd_w0.3"]) + 1)


def _swap_estimates(out_dir: str) -> None:
    est = os.path.join(out_dir, "estimates")
    a, b = (os.path.join(est, f"s000_r000_{name}_raw.json") for name in ("empty", "varsort-full"))
    os.rename(a, a + ".tmp")
    os.rename(b, a)
    os.rename(a + ".tmp", b)


def _check(out_dir: str) -> Checks:
    checks = Checks()
    check_round(CONFIG, out_dir, checks)
    return checks


def main() -> int:
    shutil.rmtree(OUT, ignore_errors=True)
    os.makedirs(OUT)
    clean = os.path.join(OUT, "clean")
    config_path = os.path.join(OUT, "config.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(CONFIG, fh)
    env = {**os.environ, "PYTHONPATH": SRC, "VSB_THREADS": "1"}
    subprocess.run(
        [sys.executable, "-m", "varsortbench.cli", "bench", "--config", config_path, "--out", clean],
        env=env, check=True, stdout=subprocess.DEVNULL,
    )

    outcomes = {}
    outcomes["clean result passes"] = _check(clean).failed == 0

    def corrupted(name, corrupt):
        copy = os.path.join(OUT, name)
        shutil.copytree(clean, copy)
        corrupt(copy)
        return copy

    copy = corrupted("shd_changed", lambda d: _rewrite_csv(d, _bump_shd))
    outcomes["changed SHD value is caught"] = _check(copy).failed > 0
    copy = corrupted("estimates_swapped", _swap_estimates)
    outcomes["swapped estimate files are caught"] = _check(copy).failed > 0

    checks = Checks()
    check_same_records([clean, copy], checks)
    outcomes["clean records compare equal"] = checks.failed == 0
    checks = Checks()
    check_same_records([clean, os.path.join(OUT, "shd_changed")], checks)
    outcomes["records that differ in one value are caught"] = checks.failed == 1

    records = read_records(clean)
    claim = [(("sortnregress", "raw"), ("randomregress", "raw"))]
    inverted = [
        {**r, "sid_w0.3": str(100 if (r["learner"], r["regime"]) == ("sortnregress", "raw") else 0)}
        for r in records
    ]
    checks = Checks()
    check_claims(inverted, claim, "0.3", checks)
    outcomes["inverted relative claim is caught"] = checks.failed == 1

    for what, ok in outcomes.items():
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
    return 0 if all(outcomes.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
