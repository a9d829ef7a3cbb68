"""Output checks made apart from the program.

SHD and varsortability are recounted here from the saved estimates and from
truth graphs and data regenerated with the package's public samplers on
the harness's seed path (master seed, "bench", "graph" | "scm" | "data",
setting index, repetition). SID is compared on a sample of records with
``metrics.sid_oracle_linear``, which uses population regression rather than
the graphical criterion. The rest are properties the method must have.
Every check counts once toward ``Checks.attempted``; a failed check is
recorded with its reason.
"""

from __future__ import annotations

import csv
import json
import os
import statistics
from math import comb

import numpy as np

# Learners whose weighted output the harness thresholds at each omega; the
# others are read at threshold 0 (every nonzero weight is an edge).
CONTINUOUS = {"notears", "golem-ev", "golem-nv"}

VARSORT_TIE_TOL = 1e-9  # relative tie tolerance of the documented definition


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    @property
    def failed(self) -> int:
        return len(self.failures)


def _reach(adj: np.ndarray) -> np.ndarray:
    """reach[i, j]: a directed path of length >= 1 leads from i to j."""
    reach = adj.copy()
    for k in range(adj.shape[0]):
        reach |= reach[:, [k]] & reach[[k], :]
    return reach


def own_threshold(w: np.ndarray, omega: float) -> np.ndarray:
    """Edges with |w| >= omega; while a cycle remains, drop its weakest edge."""
    w = np.where(np.abs(w) >= omega, w, 0.0)
    while True:
        adj = w != 0
        reach = _reach(adj)
        on_cycle = [(abs(w[i, j]), i, j) for i, j in zip(*np.nonzero(adj)) if reach[j, i] or i == j]
        if not on_cycle:
            return adj
        _, i, j = min(on_cycle)
        w[i, j] = 0.0


def own_shd(a: np.ndarray, b: np.ndarray) -> int:
    """Unordered node pairs whose edge status (none, i->j, j->i) differs."""
    upper = np.triu(np.ones(a.shape, dtype=bool), 1)
    return int(((a != b) | (a.T != b.T))[upper].sum())


def own_varsortability(adj: np.ndarray, variances: np.ndarray) -> float:
    """Share of (path length, source, target) triples connected by a directed
    path along which variance increases; ties within VARSORT_TIE_TOL count 1/2."""
    up = variances[None, :] > variances[:, None] * (1.0 + VARSORT_TIE_TOL)
    down = variances[None, :] < variances[:, None] * (1.0 - VARSORT_TIE_TOL)
    tie = ~up & ~down
    sortable = total = 0.0
    length = adj.copy()
    for _ in range(adj.shape[0] - 1):
        sortable += (length & up).sum() + 0.5 * (length & tie).sum()
        total += length.sum()
        length = (length.astype(np.int64) @ adj.astype(np.int64)) > 0
    return sortable / total


def check_same_records(out_dirs: list[str], checks: Checks) -> None:
    """The harness promises the same records.csv bytes at any worker count."""
    contents = []
    for out_dir in out_dirs:
        with open(os.path.join(out_dir, "records.csv"), "rb") as fh:
            contents.append(fh.read())
    checks.expect(all(c == contents[0] for c in contents), f"records.csv differs between {out_dirs}")


def read_records(out_dir: str) -> list[dict]:
    with open(os.path.join(out_dir, "records.csv"), encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _estimate(out_dir, si, rep, learner, regime) -> np.ndarray:
    path = os.path.join(out_dir, "estimates", f"s{si:03d}_r{rep:03d}_{learner}_{regime}.json")
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    w = np.zeros((obj["d"], obj["d"]))
    for i, j, value in obj["edges"]:
        w[i, j] = value
    return w


def check_round(cfg_json: dict, out_dir: str, checks: Checks) -> list[dict]:
    """Check one finished `vsb bench` results directory; return its records."""
    from varsortbench.graphs import Dag, GraphSpec, sample_er_dag, sample_sf_dag
    from varsortbench.harness import ExperimentConfig
    from varsortbench.metrics import sid_oracle_linear
    from varsortbench.rng import spawn_seed
    from varsortbench.scm import sample_linear_scm, simulate, standardize

    cfg = ExperimentConfig.from_json(cfg_json)
    records = read_records(out_dir)
    settings = [(g, t) for g in cfg_json["graphs"] for t in cfg_json["noise"]]
    expected = len(settings) * cfg.repetitions * len(cfg.learners) * len(cfg.regimes)
    checks.expect(len(records) == expected, f"{out_dir}: {len(records)} records, expected {expected}")
    omegas = [f"{o:g}" for o in cfg.omegas]
    by_instance: dict = {}
    for rec in records:
        by_instance.setdefault((rec["setting"], int(rec["repetition"])), []).append(rec)

    seed = cfg.seed
    for si, (spec_json, token) in enumerate(settings):
        spec = GraphSpec(spec_json["model"], int(spec_json["d"]), int(spec_json["k"]))
        for rep in range(cfg.repetitions):
            recs = by_instance.get((f"{spec.label}/{token}", rep), [])
            where = f"{out_dir} s{si} r{rep}"
            sampler = sample_er_dag if spec.model == "ER" else sample_sf_dag
            g = sampler(spec, spawn_seed(seed, "bench", "graph", si, rep))
            m = sample_linear_scm(g, cfg.weight_law, cfg.noise_law(token), spawn_seed(seed, "bench", "scm", si, rep))
            data_seed = spawn_seed(seed, "bench", "data", si, rep)
            raw = simulate(m, cfg.n, data_seed)
            x_by_regime = {"raw": raw.x, "standardized": standardize(raw).x}
            d, truth = spec.d, g.adj
            # Undefined without edges; the record then leaves the cell empty.
            v_own = own_varsortability(truth, raw.x.var(axis=0)) if g.n_edges else None
            sids: dict = {}
            for rec in recs:
                learner, regime = rec["learner"], rec["regime"]
                what = f"{where} {learner}/{regime}"
                if rec["error"]:
                    continue  # counted as a failed record, not as a failed check
                checks.expect(int(rec["data_seed"]) == data_seed, f"{what}: data_seed off the seed path")
                checks.expect(int(rec["true_edges"]) == g.n_edges,
                              f"{what}: true_edges {rec['true_edges']} != regenerated {g.n_edges}")
                v_rec = float(rec["varsortability"]) if rec["varsortability"] else None
                checks.expect(v_rec == v_own or (None not in (v_rec, v_own) and abs(v_rec - v_own) <= 1e-12),
                              f"{what}: varsortability {v_rec!r} != recount {v_own!r}")
                w = _estimate(out_dir, si, rep, learner, regime)
                for omega, label in zip(cfg.omegas, omegas):
                    est = own_threshold(w, omega if learner in CONTINUOUS else 0.0)
                    shd_rec, sid_rec = int(rec[f"shd_w{label}"]), int(rec[f"sid_w{label}"])
                    checks.expect(shd_rec == own_shd(truth, est),
                                  f"{what}: shd_w{label} {shd_rec} != recount {own_shd(truth, est)}")
                    checks.expect(0 <= sid_rec <= d * (d - 1), f"{what}: sid_w{label} {sid_rec} out of range")
                    sids[(learner, regime, label)] = sid_rec
                    if cfg.favorable:
                        checks.expect(int(rec["shd_favorable"]) <= shd_rec,
                                      f"{what}: shd_favorable above shd_w{label}")
                    if learner == "empty":
                        checks.expect(shd_rec == g.n_edges, f"{what}: empty graph SHD {shd_rec} != true edges")
                    if learner == "varsort-full":
                        order = np.argsort(x_by_regime[regime].var(axis=0), kind="stable")
                        rank = np.empty(d, dtype=int)
                        rank[order] = np.arange(d)
                        along = sum(rank[i] < rank[j] for i, j in zip(*np.nonzero(truth)))
                        checks.expect(shd_rec == comb(d, 2) - along,
                                      f"{what}: varsort-full SHD {shd_rec} != C(d,2) - {along}")
                    if si == 0 and rep == 0 and label == omegas[0]:
                        oracle = sid_oracle_linear(g, Dag(est))
                        checks.expect(sid_rec == oracle, f"{what}: sid_w{label} {sid_rec} != oracle {oracle}")
                if cfg.mec_metrics:
                    lo, hi = rec["sid_mec_lower"], rec["sid_mec_upper"]
                    checks.expect(lo != "" and int(lo) <= int(rec[f"sid_w{omegas[0]}"]) <= int(hi),
                                  f"{what}: sid_w{omegas[0]} outside its class bounds [{lo}, {hi}]")
            for label in omegas:
                pair = [sids.get(("randomregress", r, label)) for r in ("raw", "standardized")]
                if None not in pair:
                    checks.expect(pair[0] == pair[1], f"{where}: randomregress SID differs by regime {pair}")
    return records


def check_claims(records: list[dict], claims, omega_label: str, checks: Checks) -> None:
    """The paper's relative claims on the medians of all records of a run."""
    def median_sid(learner, regime):
        return statistics.median(
            int(r[f"sid_w{omega_label}"]) for r in records
            if r["learner"] == learner and r["regime"] == regime and not r["error"]
        )

    for lower, higher in claims:
        a, b = median_sid(*lower), median_sid(*higher)
        checks.expect(a < b, f"median SID of {'/'.join(lower)} ({a}) not below {'/'.join(higher)} ({b})")
