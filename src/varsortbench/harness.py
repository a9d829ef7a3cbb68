"""Experiment orchestration: configuration, the benchmark matrix, and I/O.

A benchmark run crosses graph settings, noise settings, and repetitions;
each instance is simulated once and every learner sees the same sample in
both scale regimes. All per-instance seeds derive from
(master seed, setting index, repetition) only, so adding a learner never
changes the generated data. Each worker takes an interleaved chunk of the
(setting, repetition) jobs and fits the golem problems of all of them in
one lockstep batch, and the parent searches of sortnregress and
randomregress in another; no fit depends on the rest of its batch. Reruns
with the same config and master seed produce byte-identical
``records.csv`` at any worker count; wall-clock timings therefore live only
in ``records.json``.
"""

from __future__ import annotations

import csv
import ctypes
import functools
import glob
import hashlib
import importlib.util
import inspect
import json
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import contlearn, learners
from .errors import (
    ConfigurationError,
    DataError,
    ParseError,
    SingularModelError,
    UndefinedMetricError,
)
from .graphs import Dag, GraphSpec, read_edge_list, sample_dag
from .metrics import class_scores, dag_scores, favorable_threshold_shd
from .rng import spawn_seed, substream
from .scm import (
    Dataset,
    NoiseSpec,
    SigmaLaw,
    WeightLaw,
    WeightedDag,
    sample_linear_scm,
    simulate,
    standardize,
)
from .varsort import empirical_variances, varsortability

__all__ = [
    "ExperimentConfig",
    "RunRecord",
    "LEARNERS",
    "run_learner",
    "run_benchmark",
    "worker_pool",
    "write_records",
    "load_dataset_csv",
    "bootstrap",
    "realdata_study",
]

SCHEMA_VERSION = 1

REGIMES = ("raw", "standardized")

# Noise settings: token -> (distribution kind, default sigma law).
NOISE_SETTINGS = {
    "gaussian-ev": ("gaussian", SigmaLaw.fixed(1.0)),
    "gaussian-nv": ("gaussian", SigmaLaw.uniform(0.5, 2.0)),
    "exponential": ("exponential", SigmaLaw.uniform(0.5, 2.0)),
    "gumbel": ("gumbel", SigmaLaw.uniform(0.5, 2.0)),
}


class Batch(NamedTuple):
    """How the harness fits a learner's problems of many samples together:
    ``problem(data, settings, seed)`` keeps what one fit needs, and
    ``fit(problems)`` returns, in problem order, each fit's weights or the
    exception a fit of its own would raise."""

    problem: Callable[[Dataset, object, int], object]
    fit: Callable[[list], list]


class Learner(NamedTuple):
    """``settings(**keys)`` builds what ``fit(data, settings, seed)`` takes
    from a config's settings keys, raising ``TypeError`` on an unknown key.
    ``fit`` returns raw weights, to be thresholded if ``thresholded``.
    Where ``batch`` is set, ``fit`` is a batch of one of ``batch.fit``, and
    the harness fits the problems of all of a worker's jobs in one
    ``batch.fit`` call."""

    fit: Callable[[Dataset, object, int], WeightedDag]
    thresholded: bool
    settings: Callable[..., object]
    batch: Batch | None = None


def _no_settings() -> None:
    return None


def _mse_gds_settings(**settings) -> dict:
    """Keyword settings of ``learners.mse_gds``; binding them rejects an unknown key."""
    inspect.signature(learners.mse_gds).bind(None, **settings)
    return settings


def _golem_batch(problems) -> list:
    return [outcome if isinstance(outcome, Exception) else outcome[0]
            for outcome in contlearn.golem_fit_batch(problems)]


def _parent_search_batch(problems) -> list:
    return learners.regress_along_orders(problems)


def _golem(variant: str) -> Learner:
    return Learner(
        lambda data, s, seed: contlearn.golem_fit(data, variant, s)[0],
        True,
        functools.partial(contlearn.GolemSettings.of, variant),
        Batch(lambda data, s, seed: (data, variant, s), _golem_batch),
    )


# Fits look learners up through their modules at call time, so a wrapper
# installed on a module attribute (a tracer, a test double) sees every call.
LEARNERS = {
    "sortnregress": Learner(
        lambda data, s, seed: learners.sortnregress(data, s),
        False,
        learners.ParentSearchConfig,
        Batch(lambda data, s, seed: learners.sortnregress_search(data, s), _parent_search_batch),
    ),
    "randomregress": Learner(
        lambda data, s, seed: learners.randomregress(data, s, seed=seed),
        False,
        learners.ParentSearchConfig,
        Batch(lambda data, s, seed: learners.randomregress_search(data, s, seed), _parent_search_batch),
    ),
    "varsort-full": Learner(
        lambda data, s, seed: WeightedDag(learners.variance_sort_full(data).adj.astype(float)),
        False,
        _no_settings,
    ),
    "mse-gds": Learner(lambda data, s, seed: learners.mse_gds(data, **s), False, _mse_gds_settings),
    "empty": Learner(
        lambda data, s, seed: WeightedDag(np.zeros((data.d, data.d))), False, _no_settings
    ),
    "notears": Learner(
        lambda data, s, seed: contlearn.notears_fit(data, s)[0], True, contlearn.NotearsSettings
    ),
    "golem-ev": _golem("ev"),
    "golem-nv": _golem("nv"),
}


def worker_count() -> int:
    value = os.environ.get("VSB_THREADS", "1")
    try:
        count = int(value)
    except ValueError:
        raise ConfigurationError(f"VSB_THREADS must be an integer, got {value!r}") from None
    return max(1, count)


@dataclass(frozen=True)
class LearnerConfig:
    name: str
    settings: dict = field(default_factory=dict)

    def __post_init__(self):
        _learner_settings(self.name, self.settings)  # an unknown name or key raises here


def _list(value) -> list:
    """``value`` if it is a JSON array; a string or object where a list
    belongs raises ``TypeError``."""
    if not isinstance(value, list):
        raise TypeError(f"expected a list, got {type(value).__name__}")
    return value


def _integer(value) -> int:
    """``value`` as an ``int`` if it is an integral JSON number; a bool, a
    string or a fraction raises ``TypeError`` or ``ValueError``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected an integer, got {type(value).__name__}")
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _boolean(value) -> bool:
    """``value`` if it is a JSON boolean; anything else raises ``TypeError``."""
    if not isinstance(value, bool):
        raise TypeError(f"expected true or false, got {type(value).__name__}")
    return value


@dataclass(frozen=True)
class ExperimentConfig:
    graphs: tuple[GraphSpec, ...]
    noise: tuple[str, ...]
    learners: tuple[LearnerConfig, ...]
    weight_law: WeightLaw = WeightLaw.symmetric(0.5, 2.0)
    sigma_law: SigmaLaw | None = None
    n: int = 1000
    repetitions: int = 10
    regimes: tuple[str, ...] = REGIMES
    omegas: tuple[float, ...] = (0.3,)
    favorable: bool = False
    mec_metrics: bool = False
    mec_cap: int = 10_000
    seed: int = 0

    def __post_init__(self):
        if not self.graphs or not self.noise or not self.learners:
            raise ConfigurationError("need at least one graph, noise setting, and learner")
        if self.repetitions < 1:
            raise ConfigurationError("repetitions must be at least 1")
        if self.n < 2:
            raise ConfigurationError("need n >= 2 observations")
        for token in self.noise:
            if token not in NOISE_SETTINGS:
                raise ConfigurationError(f"unknown noise setting {token!r}")
        for regime in self.regimes:
            if regime not in REGIMES:
                raise ConfigurationError(f"unknown scale regime {regime!r}")
        if not self.omegas:
            raise ConfigurationError("need at least one threshold")
        if not all(omega >= 0 for omega in self.omegas):  # NaN fails too
            raise ConfigurationError("thresholds must be non-negative")
        if self.mec_cap < 1:
            raise ConfigurationError("mec_cap must be at least 1")
        if self.mec_metrics and any(spec.d > 10 for spec in self.graphs):
            raise ConfigurationError("equivalence-class metrics are limited to graphs with d <= 10")

    def noise_law(self, token: str) -> NoiseSpec:
        kind, default_law = NOISE_SETTINGS[token]
        law = default_law
        if self.sigma_law is not None and token != "gaussian-ev":
            law = self.sigma_law
        return NoiseSpec(kind, None, law)

    @property
    def settings(self) -> list[tuple[GraphSpec, str]]:
        return [(g, t) for g in self.graphs for t in self.noise]

    def to_json(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "graphs": [{"model": g.model, "d": g.d, "k": g.k} for g in self.graphs],
            "noise": list(self.noise),
            "learners": [{"name": l.name, "settings": dict(l.settings)} for l in self.learners],
            "weights": [list(iv) for iv in self.weight_law.intervals],
            "sigmas": None
            if self.sigma_law is None
            else {"kind": self.sigma_law.kind, "lo": self.sigma_law.lo, "hi": self.sigma_law.hi},
            "n": self.n,
            "repetitions": self.repetitions,
            "regimes": list(self.regimes),
            "omegas": list(self.omegas),
            "favorable": self.favorable,
            "mec_metrics": self.mec_metrics,
            "mec_cap": self.mec_cap,
            "seed": self.seed,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ExperimentConfig":
        """Inverse of ``to_json``. A key left out takes the field's default;
        a key that ``to_json`` does not write, a missing required key and a
        malformed value raise ``ConfigurationError``. Counts and seeds take
        only integral numbers, and switches only JSON booleans."""
        if not isinstance(obj, dict):
            raise ConfigurationError(f"a config must be a JSON object, not {type(obj).__name__}")
        for key in ("graphs", "noise", "learners"):
            if key not in obj:
                raise ConfigurationError(f"missing config key {key!r}")
        parsers = {  # JSON key: (field, parse)
            "graphs": ("graphs", lambda v: tuple(
                GraphSpec(g["model"], _integer(g["d"]), _integer(g["k"])) for g in _list(v))),
            "noise": ("noise", lambda v: tuple(_list(v))),
            "learners": ("learners", lambda v: tuple(
                LearnerConfig(l["name"], dict(l.get("settings", {}))) for l in _list(v))),
            "weights": ("weight_law", lambda v: WeightLaw(tuple(tuple(_list(iv)) for iv in _list(v)))),
            "sigmas": ("sigma_law", lambda v: SigmaLaw(v["kind"], v["lo"], v["hi"]) if v else None),
            "regimes": ("regimes", lambda v: tuple(_list(v))),
            "omegas": ("omegas", lambda v: tuple(map(float, _list(v)))),
            "n": ("n", _integer), "repetitions": ("repetitions", _integer), "mec_cap": ("mec_cap", _integer),
            "seed": ("seed", _integer), "favorable": ("favorable", _boolean),
            "mec_metrics": ("mec_metrics", _boolean),
        }
        fields = {}
        for key, (name, parse) in parsers.items():
            if key not in obj:
                continue
            try:
                fields[name] = parse(obj[key])
            except ConfigurationError:
                raise
            except (KeyError, TypeError, ValueError) as err:
                message = f"malformed config key {key!r}: {type(err).__name__} {err}"
                raise ConfigurationError(message) from err
        cfg = cls(**fields)
        unknown = sorted(set(obj) - set(cfg.to_json()))
        if unknown:
            raise ConfigurationError(f"unknown config keys: {', '.join(unknown)}")
        return cfg

    def config_hash(self) -> str:
        canonical = json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]

    def metric_keys(self) -> list[str]:
        keys = []
        for omega in self.omegas:
            keys += [f"shd_w{omega:g}", f"sid_w{omega:g}"]
        if self.favorable:
            keys += ["shd_favorable", "omega_favorable"]
        if self.mec_metrics:
            keys += ["shd_cpdag", "sid_mec_lower", "sid_mec_upper"]
        keys += ["sid_normalizer", "true_edges"]
        return keys


@dataclass
class RunRecord:
    """One learner evaluation on one simulated (or bootstrapped) instance."""

    setting: str
    graph_model: str
    d: int
    k: int
    noise: str
    repetition: int
    learner: str
    regime: str
    varsortability: float | None
    data_seed: int
    learner_seed: int
    metrics: dict
    error: str | None
    wall_seconds: float
    config_hash: str

    def row(self, metric_keys: list[str]) -> dict:
        out = {
            "schema_version": SCHEMA_VERSION,
            "setting": self.setting,
            "graph_model": self.graph_model,
            "d": self.d,
            "k": self.k,
            "noise": self.noise,
            "repetition": self.repetition,
            "learner": self.learner,
            "regime": self.regime,
            "varsortability": _fmt(self.varsortability),
            "data_seed": self.data_seed,
            "learner_seed": self.learner_seed,
            "error": self.error or "",
            "config_hash": self.config_hash,
        }
        for key in metric_keys:
            out[key] = _fmt(self.metrics.get(key))
        return out


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return value


def _learner_settings(name: str, settings: dict):
    if name not in LEARNERS:
        raise ConfigurationError(f"unknown learner {name!r}; available: {sorted(LEARNERS)}")
    try:
        return LEARNERS[name].settings(**settings)
    except TypeError as err:
        raise ConfigurationError(f"bad settings for learner {name!r}: {err}") from None


def run_learner(name: str, data: Dataset, settings: dict, seed: int) -> WeightedDag:
    """Fit a learner by registry name with a config's settings keys; returns raw weights."""
    settings = _learner_settings(name, settings)
    return LEARNERS[name].fit(data, settings, seed)


def _score_estimate(
    cfg: ExperimentConfig, g_true: Dag, west: WeightedDag, thresholded: bool, scored: dict
) -> dict:
    """Scores of one estimate. ``scored`` maps each thresholded graph already
    scored against ``g_true`` to its scores and is shared by the estimates of
    one sample, so each distinct graph is scored once."""
    out = {}
    # A learner that needs no thresholding gets threshold 0 at every omega;
    # each distinct threshold is applied once.
    thresholds = [omega if thresholded else 0.0 for omega in cfg.omegas]
    graphs = {}
    for omega, threshold in zip(cfg.omegas, thresholds):
        if threshold not in graphs:
            graphs[threshold] = est = contlearn.threshold_and_break_cycles(west, threshold)
            if est not in scored:
                scored[est] = dag_scores(g_true, est)
        scores = scored[graphs[threshold]]
        out[f"shd_w{omega:g}"] = scores["shd"]
        out[f"sid_w{omega:g}"] = scores["sid"]
    if cfg.favorable:
        out["omega_favorable"], out["shd_favorable"] = favorable_threshold_shd(west, g_true)
    primary = graphs[thresholds[0]]
    scores = scored[primary]
    if cfg.mec_metrics:
        if "shd_cpdag" not in scores:
            scores.update(class_scores(g_true, primary, cap=cfg.mec_cap))
        for key in ("shd_cpdag", "sid_mec_lower", "sid_mec_upper"):
            out[key] = scores[key]
    out["sid_normalizer"] = scores["sid_normalizer"]
    out["true_edges"] = scores["true_edges"]
    return out


def _fill_record(
    cfg: ExperimentConfig, record: RunRecord, truth: Dag, scored: dict, estimates: dict, key, fit, *args
) -> None:
    """Fit by ``fit(*args)``, score and time one record in place, keeping its
    estimate under ``key``."""
    start = time.perf_counter()
    try:
        west = fit(*args)
        record.metrics = _score_estimate(cfg, truth, west, LEARNERS[record.learner].thresholded, scored)
        estimates[key] = west
    # A fit that fails on this sample becomes an error row; anything else is
    # a bug or a bad config and stops the run.
    except (SingularModelError, DataError, np.linalg.LinAlgError) as err:
        record.error = f"{type(err).__name__}: {err}"
    record.wall_seconds += time.perf_counter() - start


def _weights(outcome) -> WeightedDag:
    """The weights of one batch outcome, or its exception raised."""
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _evaluate_samples(
    cfg: ExperimentConfig, samples, learner_list
) -> tuple[list[list[RunRecord]], dict]:
    """Run every learner on every regime of each sample and score each estimate.

    ``samples`` yields one ``(truth, data, seed_path, est_key, identity)`` at
    a time: a learner's seed is ``spawn_seed(cfg.seed, *seed_path, name)``,
    its estimates are keyed ``(*est_key, name, regime)`` and ``identity``
    holds the fields that describe the sample other than ``d`` and
    ``varsortability``, which are read off ``data``. A learner without a
    batch hook is fitted and scored while its sample is live. A learner with
    one queues its problem, which keeps only what the fit needs; after the
    last sample each batch function fits all of its queued problems in one
    call. Such a record's ``wall_seconds`` is the time to make its problem,
    an equal share of that call and its own scoring time. Returns each
    sample's records in (learner, regime) order, and the estimates.
    """
    chash = cfg.config_hash()
    entries = [(l, LEARNERS[l.name], _learner_settings(l.name, l.settings)) for l in learner_list]
    per_sample, estimates, queued = [], {}, {}
    for truth, data, seed_path, est_key, identity in samples:
        try:
            v = varsortability(truth, empirical_variances(data)).v
        except UndefinedMetricError:
            v = None
        identity = dict(identity, d=data.d, varsortability=v)
        datasets = {"raw": data}
        if "standardized" in cfg.regimes:
            datasets["standardized"] = standardize(data)
        scored: dict = {}
        per_sample.append([])
        for learner, entry, settings in entries:
            learner_seed = spawn_seed(cfg.seed, *seed_path, learner.name)
            for regime in cfg.regimes:
                record = RunRecord(
                    **identity, learner=learner.name, regime=regime, learner_seed=learner_seed,
                    metrics={}, error=None, wall_seconds=0.0, config_hash=chash,
                )
                per_sample[-1].append(record)
                task = (record, truth, scored, estimates, (*est_key, learner.name, regime))
                if entry.batch is None:
                    _fill_record(cfg, *task, entry.fit, datasets[regime], settings, learner_seed)
                    continue
                start = time.perf_counter()
                problem = entry.batch.problem(datasets[regime], settings, learner_seed)
                record.wall_seconds = time.perf_counter() - start
                queued.setdefault(entry.batch.fit, []).append((task, problem))
        # Free this sample while the next one is made; queued problems keep what they need.
        del data, datasets
    for fit, items in queued.items():
        start = time.perf_counter()
        outcomes = fit([problem for _, problem in items])
        share = (time.perf_counter() - start) / len(items)
        for ((record, *rest), _), outcome in zip(items, outcomes):
            record.wall_seconds += share
            _fill_record(cfg, record, *rest, _weights, outcome)
    return per_sample, estimates


def _simulate_job(cfg: ExperimentConfig, si: int, rep: int) -> tuple:
    """The sample of one (setting, repetition) job, as ``_evaluate_samples`` takes it."""
    spec, token = cfg.settings[si]
    g = sample_dag(spec, spawn_seed(cfg.seed, "bench", "graph", si, rep))
    m = sample_linear_scm(
        g, cfg.weight_law, cfg.noise_law(token), spawn_seed(cfg.seed, "bench", "scm", si, rep)
    )
    data_seed = spawn_seed(cfg.seed, "bench", "data", si, rep)
    identity = dict(
        setting=f"{spec.label}/{token}", graph_model=spec.model, k=spec.k, noise=token,
        repetition=rep, data_seed=data_seed,
    )
    return g, simulate(m, cfg.n, data_seed), ("bench", "learner", si, rep), (si, rep), identity


def _run_jobs(cfg: ExperimentConfig, jobs) -> tuple[list[list[RunRecord]], dict]:
    """Simulate and evaluate one worker's chunk of (setting, repetition) jobs."""
    return _evaluate_samples(cfg, (_simulate_job(cfg, *job) for job in jobs), cfg.learners)


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# The OpenBLAS copy of each package that links one, as its wheel ships it:
# (package, library file pattern in ``<package>.libs``, thread-count setter).
_OPENBLAS = (
    ("numpy", "libscipy_openblas64_-*.so", "scipy_openblas_set_num_threads64_"),
    ("scipy", "libscipy_openblas-*.so", "scipy_openblas_set_num_threads"),
)


def _openblas(package: str, pattern: str) -> ctypes.CDLL:
    """The OpenBLAS library that ``package`` ships, loaded if it is not yet."""
    site = os.path.dirname(os.path.dirname(importlib.util.find_spec(package).origin))
    paths = glob.glob(os.path.join(site, f"{package}.libs", pattern))
    if len(paths) != 1:
        raise RuntimeError(f"expected one {pattern} next to {package}, found {paths}")
    return ctypes.CDLL(paths[0])


def _pin_blas() -> None:
    """Pool initializer: run both OpenBLAS copies on one thread in this worker.

    A forked worker inherits the parent's BLAS thread count, and two workers
    each running that many BLAS threads oversubscribe the CPUs. A missing
    library or symbol raises, which breaks the pool, rather than leaving the
    worker unpinned.
    """
    for package, pattern, setter in _OPENBLAS:
        set_threads = getattr(_openblas(package, pattern), setter)
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        set_threads(1)


_pool: tuple[int, ProcessPoolExecutor] | None = None  # (workers, pool) of this process


def worker_pool(workers: int) -> ProcessPoolExecutor:
    """This process's pool of ``workers`` BLAS-pinned worker processes.

    The pool is made on first use and kept for later calls with the same
    ``workers``; another count shuts it down and makes a new one. Workers
    are forked, whatever the interpreter's default start method, and start
    once: they run the modules as this process had them when the pool
    started, patches included, and they stop when the process exits.
    """
    global _pool
    if _pool is not None and _pool[0] != workers:
        _drop_pool()
    if _pool is None:
        fork = multiprocessing.get_context("fork")
        _pool = (workers, ProcessPoolExecutor(max_workers=workers, mp_context=fork, initializer=_pin_blas))
    return _pool[1]


def _drop_pool() -> None:
    global _pool
    if _pool is not None:
        pool, _pool = _pool[1], None
        pool.shutdown()


def run_benchmark(cfg: ExperimentConfig, out_dir=None) -> list[RunRecord]:
    """Run the full matrix; optionally persist records and raw estimates.

    The (setting, repetition) jobs are dealt to ``workers`` interleaved
    chunks, ``jobs[w::workers]``, where ``workers`` is ``VSB_THREADS`` capped
    by the number of jobs and of CPUs this process may use. With more than
    one, the chunks run on the processes of ``worker_pool(workers)``; serial
    mode is one chunk, run in this process. A pool whose worker died is
    dropped, and its ``BrokenProcessPool`` raised. A chunk is one
    ``_evaluate_samples`` call, so the golem fits of all its jobs step in one
    lockstep batch, and so do its parent searches. Records are gathered in
    deterministic (setting, repetition, learner, regime) order, the same at
    any worker count.
    """
    jobs = [(si, rep) for si in range(len(cfg.settings)) for rep in range(cfg.repetitions)]
    workers = min(worker_count(), len(jobs), _usable_cpus())
    chunks = [jobs[w::workers] for w in range(workers)]
    run = functools.partial(_run_jobs, cfg)
    if workers > 1:
        try:
            outcomes = list(worker_pool(workers).map(run, chunks))
        except BrokenProcessPool:
            _drop_pool()
            raise
    else:
        outcomes = list(map(run, chunks))

    results: dict = {}
    estimates: dict = {}
    for chunk, (per_sample, ests) in zip(chunks, outcomes):
        results.update(zip(chunk, per_sample))
        estimates.update(ests)
    records = [rec for job in jobs for rec in results[job]]

    if out_dir is not None:
        write_records(cfg, records, out_dir, estimates=estimates)
    return records


def write_json(path, obj, indent: int | None = None) -> None:
    """Write ``obj`` and a newline as ``json.dump`` would, from one
    ``json.dumps`` string: ``json.dump`` to a file never uses the C encoder."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(obj, indent=indent) + "\n")


def write_records(cfg: ExperimentConfig, records: list[RunRecord], out_dir, estimates=None) -> None:
    os.makedirs(out_dir, exist_ok=True)
    metric_keys = cfg.metric_keys()
    rows = [rec.row(metric_keys) for rec in records]
    with open(os.path.join(out_dir, "records.csv"), "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]) if rows else [], lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    payload = {
        "config": cfg.to_json(),
        "config_hash": cfg.config_hash(),
        "records": [{**row, "wall_seconds": rec.wall_seconds} for row, rec in zip(rows, records)],
    }
    write_json(os.path.join(out_dir, "records.json"), payload, indent=2)
    write_json(os.path.join(out_dir, "config.json"), cfg.to_json(), indent=2)
    if estimates:
        est_dir = os.path.join(out_dir, "estimates")
        os.makedirs(est_dir, exist_ok=True)
        for (si, rep, name, regime), west in estimates.items():
            path = os.path.join(est_dir, f"s{si:03d}_r{rep:03d}_{name}_{regime}.json")
            write_json(path, weighted_to_json(west))


def weighted_to_json(west: WeightedDag) -> dict:
    rows, cols = np.nonzero(west.w)
    edges = zip(rows.tolist(), cols.tolist(), west.w[rows, cols].tolist())
    return {"d": west.d, "edges": [list(edge) for edge in edges]}


def weighted_from_json(obj: dict) -> WeightedDag:
    d = int(obj["d"])
    w = np.zeros((d, d))
    for i, j, value in obj["edges"]:
        w[int(i), int(j)] = float(value)
    return WeightedDag(w)


# ---------------------------------------------------------------------------
# Dataset ingestion and the bootstrap study on observational data
# ---------------------------------------------------------------------------


def load_dataset_csv(path) -> Dataset:
    """Read a dataset CSV: header row of names, one sample per row."""
    with open(path, "r", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("empty file", line=1) from None
        names = [h.strip() for h in header]
        if not names or any(not n for n in names):
            raise ParseError("missing column name in header", line=1)
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(names):
                raise ParseError(
                    f"expected {len(names)} cells, got {len(row)}", line=lineno
                )
            try:
                rows.append([float(cell) for cell in row])
            except ValueError:
                raise ParseError("non-numeric cell", line=lineno) from None
    if not rows:
        raise ParseError("no data rows after the header", line=2)
    return Dataset(np.asarray(rows, dtype=float), tuple(names))


def bootstrap(data: Dataset, seed: int) -> Dataset:
    """Resample ``n`` rows with replacement, deterministically per seed."""
    rows = substream(seed, "harness", "bootstrap").integers(0, data.n, size=data.n)
    return Dataset(data.x[rows], data.names)


def _bootstrap_sample(cfg: ExperimentConfig, data: Dataset, truth: Dag, rep: int) -> tuple:
    """Bootstrap repetition ``rep`` of a study, as ``_evaluate_samples`` takes it."""
    data_seed = spawn_seed(cfg.seed, "realdata", "bootstrap", rep)
    identity = dict(
        setting="realdata", graph_model="real", k=0, noise="observational", repetition=rep,
        data_seed=data_seed,
    )
    return truth, bootstrap(data, data_seed), ("realdata", "learner", rep), (0, rep), identity


def realdata_study(data_path, truth_path, cfg: ExperimentConfig, out_dir=None) -> list[RunRecord]:
    """Bootstrap evaluation against a user-supplied ground-truth edge list.

    Per repetition: draw a bootstrap sample, measure its variance
    sortedness against the truth, run every configured learner on the raw
    and standardized copies, and score an empty-graph baseline row.
    """
    data = load_dataset_csv(data_path)
    try:
        truth = read_edge_list(truth_path, d=data.d)
    except ParseError as err:
        raise ConfigurationError(
            f"ground truth does not match the dataset's {data.d} columns: {err}"
        ) from err
    if truth.n_edges == 0:
        raise ConfigurationError("ground truth has no edges")

    learner_list = list(cfg.learners)
    if all(l.name != "empty" for l in learner_list):
        learner_list.append(LearnerConfig("empty"))
    samples = (_bootstrap_sample(cfg, data, truth, rep) for rep in range(cfg.repetitions))
    per_sample, estimates = _evaluate_samples(cfg, samples, learner_list)
    records = [rec for recs in per_sample for rec in recs]
    if out_dir is not None:
        write_records(cfg, records, out_dir, estimates=estimates)
    return records
