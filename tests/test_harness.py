import ctypes
import importlib.util
import json
import multiprocessing
import os
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest
from scipy import stats

from varsortbench import contlearn, harness, learners
from varsortbench.errors import ConfigurationError, ParseError, SingularModelError
from varsortbench.graphs import GraphSpec, dag_from_edges, sample_er_dag, write_edge_list
from varsortbench.harness import (
    LEARNERS,
    ExperimentConfig,
    LearnerConfig,
    bootstrap,
    load_dataset_csv,
    realdata_study,
    run_benchmark,
    run_learner,
    weighted_from_json,
    weighted_to_json,
)
from varsortbench.metrics import sid
from varsortbench.contlearn import threshold_and_break_cycles
from varsortbench.rng import spawn_seed
from varsortbench.scm import (
    DEFAULT_SIGMA_LAW,
    DEFAULT_WEIGHT_LAW,
    Dataset,
    NoiseSpec,
    WeightLaw,
    sample_linear_scm,
    simulate,
    write_dataset_csv,
)


def small_config(**overrides):
    base = dict(
        graphs=(GraphSpec("ER", 5, 2),),
        noise=("gaussian-nv",),
        learners=(LearnerConfig("sortnregress"), LearnerConfig("varsort-full")),
        n=200,
        repetitions=2,
        seed=11,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


@pytest.fixture
def fresh_pool():
    """Drop this process's worker pool before and after the test, so that the
    test forks workers from the code as it patches it and leaves none behind."""
    harness._drop_pool()
    yield
    harness._drop_pool()


class TestExperimentConfig:
    def test_json_roundtrip(self):
        cfg = small_config(omegas=(0.3, 0.001), favorable=True, mec_metrics=True)
        again = ExperimentConfig.from_json(cfg.to_json())
        assert again == cfg
        assert again.config_hash() == cfg.config_hash()

    def test_missing_keys_take_the_field_defaults(self):
        cfg = small_config()
        obj = {key: cfg.to_json()[key] for key in ("graphs", "noise", "learners")}
        expected = ExperimentConfig(graphs=cfg.graphs, noise=cfg.noise, learners=cfg.learners)
        again = ExperimentConfig.from_json(obj)
        assert again == expected
        assert again.config_hash() == expected.config_hash()

    def test_unknown_key_is_rejected(self):
        obj = {**small_config().to_json(), "mec_metric": True}
        with pytest.raises(ConfigurationError, match="mec_metric"):
            ExperimentConfig.from_json(obj)

    @pytest.mark.parametrize(
        "edit, key",
        [
            (lambda obj: obj["graphs"][0].pop("k"), "graphs"),
            (lambda obj: obj.update(omegas=["abc"]), "omegas"),
            (lambda obj: obj.update(sigmas={"kind": "uniform", "lo": 0.5}), "sigmas"),
            (lambda obj: obj.update(weights=[[1]]), "weights"),
            (lambda obj: obj.update(noise="gaussian-ev"), "noise"),
            (lambda obj: obj.update(regimes="raw"), "regimes"),
        ],
        ids=["graph-without-k", "omega-not-a-number", "sigmas-without-hi", "interval-of-one",
             "noise-string", "regimes-string"],
    )
    def test_malformed_key_is_named(self, edit, key):
        obj = small_config().to_json()
        edit(obj)
        with pytest.raises(ConfigurationError, match=repr(key)):
            ExperimentConfig.from_json(obj)

    def test_config_must_be_an_object(self):
        with pytest.raises(ConfigurationError, match="JSON object"):
            ExperimentConfig.from_json([small_config().to_json()])

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            small_config(repetitions=0)
        with pytest.raises(ConfigurationError):
            small_config(noise=("unknown",))
        with pytest.raises(ConfigurationError):
            small_config(learners=(LearnerConfig("nope"),))
        with pytest.raises(ConfigurationError):
            small_config(graphs=(GraphSpec("ER", 20, 2),), mec_metrics=True)

    @pytest.mark.parametrize("omega", [-0.1, float("nan")])
    def test_negative_threshold_is_rejected(self, omega):
        with pytest.raises(ConfigurationError, match="thresholds"):
            small_config(omegas=(0.3, omega))

    def test_mec_cap_below_one_is_rejected(self):
        with pytest.raises(ConfigurationError, match="mec_cap"):
            small_config(mec_cap=0)

    def test_noise_token_mapping(self):
        cfg = small_config()
        assert cfg.noise_law("gaussian-ev").sigma_law.kind == "fixed"
        assert cfg.noise_law("gumbel").kind == "gumbel"
        assert cfg.noise_law("gumbel").sigma_law.hi == 2.0


class TestRunBenchmark:
    def test_record_count_and_pairing(self, tmp_path):
        cfg = small_config()
        records = run_benchmark(cfg, out_dir=tmp_path / "out")
        # graphs x noise x repetitions x learners x regimes
        assert len(records) == 1 * 1 * 2 * 2 * 2
        assert all(rec.error is None for rec in records)
        # both regimes of a (setting, rep, learner) share data seed and sortedness
        by_key = {}
        for rec in records:
            by_key.setdefault((rec.setting, rec.repetition, rec.learner), []).append(rec)
        for group in by_key.values():
            assert len(group) == 2
            assert group[0].data_seed == group[1].data_seed
            assert group[0].varsortability == group[1].varsortability

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = small_config()
        run_benchmark(cfg, out_dir=tmp_path / "a")
        run_benchmark(cfg, out_dir=tmp_path / "b")
        a = (tmp_path / "a" / "records.csv").read_bytes()
        b = (tmp_path / "b" / "records.csv").read_bytes()
        assert a == b

    def test_adding_learner_keeps_data_generation(self):
        cfg_small = small_config(learners=(LearnerConfig("sortnregress"),))
        cfg_big = small_config(
            learners=(LearnerConfig("sortnregress"), LearnerConfig("randomregress"))
        )
        recs_small = run_benchmark(cfg_small)
        recs_big = run_benchmark(cfg_big)
        small_rows = {
            (r.setting, r.repetition, r.regime): (r.data_seed, r.varsortability, r.metrics.get("sid_w0.3"))
            for r in recs_small
            if r.learner == "sortnregress"
        }
        big_rows = {
            (r.setting, r.repetition, r.regime): (r.data_seed, r.varsortability, r.metrics.get("sid_w0.3"))
            for r in recs_big
            if r.learner == "sortnregress"
        }
        assert small_rows == big_rows

    def test_bad_settings_key_raises(self):
        for name in ("sortnregress", "mse-gds", "empty", "notears", "golem-ev"):
            with pytest.raises(ConfigurationError):
                LearnerConfig(name, {"no_such_option": 1})

    @pytest.mark.parametrize(
        "name, key",
        [("notears", "iterations"), ("notears", "rho_init"), ("golem-ev", "rho_init"),
         ("golem-ev", "max_outer"), ("golem-nv", "lambda2"), ("golem-nv", "step_size")],
    )
    def test_key_a_solver_does_not_read_raises(self, name, key):
        with pytest.raises(ConfigurationError, match=key):
            LearnerConfig(name, {key: 5.0})

    def test_continuous_learners_take_the_keys_they_read(self):
        assert LEARNERS["notears"].settings(lambda1=0.1) == contlearn.NotearsSettings(0.1)
        for variant, default in (("ev", 2e-2), ("nv", 2e-3)):
            settings = LEARNERS[f"golem-{variant}"].settings(iterations=5)
            assert settings == contlearn.GolemSettings(lambda1=default, iterations=5)
        for iterations in (0, 2.5):
            with pytest.raises(ConfigurationError):
                LearnerConfig("golem-ev", {"iterations": iterations})
        for name in ("notears", "golem-nv"):
            for lambda1 in (-1.0, float("nan")):
                with pytest.raises(ConfigurationError):
                    LearnerConfig(name, {"lambda1": lambda1})

    def test_learner_failure_marks_row_and_continues(self, monkeypatch):
        def singular(*args, **kwargs):
            raise SingularModelError("singular on this sample")

        monkeypatch.setattr(learners, "sortnregress", singular)
        monkeypatch.delenv("VSB_THREADS", raising=False)
        cfg = small_config()
        records = run_benchmark(cfg)
        failed = [r for r in records if r.learner == "sortnregress"]
        fine = [r for r in records if r.learner == "varsort-full"]
        assert failed and all(r.error.startswith("SingularModelError") for r in failed)
        assert fine and all(r.error is None for r in fine)

    def test_each_distinct_graph_scored_once(self, monkeypatch):
        # empty's raw and standardized estimates are equal, so a sample's
        # estimates hold repeated graphs; each is scored once
        scored = {"dag": [], "class": []}

        def counted(kind, score):
            def wrapper(g_true, g_est, **kwargs):
                scored[kind].append((g_true, g_est))
                return score(g_true, g_est, **kwargs)

            return wrapper

        monkeypatch.setattr(harness, "dag_scores", counted("dag", harness.dag_scores))
        monkeypatch.setattr(harness, "class_scores", counted("class", harness.class_scores))
        monkeypatch.delenv("VSB_THREADS", raising=False)
        names = ("empty", "varsort-full", "sortnregress")
        cfg = small_config(
            learners=tuple(LearnerConfig(name) for name in names),
            omegas=(0.3, 0.1),
            mec_metrics=True,
        )
        records = run_benchmark(cfg)
        assert all(r.error is None for r in records)
        assert len(scored["dag"]) == len(set(scored["dag"])) < len(records)
        assert len(scored["class"]) == len(set(scored["class"])) == len(scored["dag"])
        by_learner = {(r.repetition, r.learner, r.regime): r.metrics for r in records}
        for rep in range(cfg.repetitions):
            assert by_learner[(rep, "empty", "raw")] == by_learner[(rep, "empty", "standardized")]

    def test_outputs_written(self, tmp_path):
        out = tmp_path / "out"
        golem = {"iterations": 200}
        settings = {"notears": {"lambda1": 0.1}, "golem-ev": golem, "golem-nv": golem}
        cfg = small_config(
            learners=tuple(LearnerConfig(name, settings.get(name, {})) for name in LEARNERS),
            favorable=True,
            omegas=(0.3, 0.001),
            mec_metrics=True,
        )
        records = run_benchmark(cfg, out_dir=out)
        assert len(records) == 2 * len(LEARNERS) * 2
        assert all(r.error is None for r in records)
        for rec in records:
            if not LEARNERS[rec.learner].thresholded:
                assert rec.metrics["sid_w0.3"] == rec.metrics["sid_w0.001"]
        assert (out / "records.csv").exists()
        assert (out / "records.json").exists()
        assert (out / "config.json").exists()
        estimates = list((out / "estimates").iterdir())
        assert len(estimates) == len(records)
        payload = json.loads((out / "records.json").read_text())
        assert payload["config_hash"] == cfg.config_hash()
        assert all("wall_seconds" in row for row in payload["records"])
        header = (out / "records.csv").read_text().splitlines()[0]
        assert "wall_seconds" not in header
        for key in ("shd_w0.3", "sid_w0.001", "shd_favorable", "sid_mec_lower"):
            assert key in header

    def test_worker_pool_matches_serial(self, tmp_path, monkeypatch):
        # Six jobs dealt to two workers in chunks of three: each worker's
        # golem batch holds other fits than the serial run's one batch.
        golem = {"iterations": 200}
        cfg = small_config(
            noise=("gaussian-nv", "gaussian-ev"),
            learners=(
                LearnerConfig("sortnregress"), LearnerConfig("golem-ev", golem), LearnerConfig("golem-nv", golem),
            ),
            repetitions=3,
            favorable=True,
        )
        monkeypatch.delenv("VSB_THREADS", raising=False)
        run_benchmark(cfg, out_dir=tmp_path / "serial")
        monkeypatch.setenv("VSB_THREADS", "2")
        run_benchmark(cfg, out_dir=tmp_path / "pool")
        names = sorted(p.name for p in (tmp_path / "serial" / "estimates").iterdir())
        assert len(names) == 6 * 3 * 2
        assert names == sorted(p.name for p in (tmp_path / "pool" / "estimates").iterdir())
        for name in ["records.csv"] + [f"estimates/{name}" for name in names]:
            assert (tmp_path / "serial" / name).read_bytes() == (tmp_path / "pool" / name).read_bytes()

    def test_json_files_match_json_dump(self, tmp_path):
        # Each JSON file is written from one json.dumps string; its bytes are
        # those json.dump writes for the same payload.
        import io

        run_benchmark(small_config(), out_dir=tmp_path)
        files = [(tmp_path / "records.json", 2), (tmp_path / "config.json", 2)]
        files += [(path, None) for path in (tmp_path / "estimates").iterdir()]
        for path, indent in files:
            expected = io.StringIO()
            json.dump(json.loads(path.read_text()), expected, indent=indent)
            expected.write("\n")
            assert path.read_text() == expected.getvalue()


    def test_pool_never_exceeds_jobs_or_cpus(self, fresh_pool, monkeypatch):
        made = []

        class RecordingPool:
            """Stands in for the process pool: records its size, starts nothing."""

            def __init__(self, max_workers, mp_context, initializer):
                made.append(max_workers)

            def map(self, fn, items):
                return map(fn, items)

            def shutdown(self):
                pass

        monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setenv("VSB_THREADS", "1000000")
        cfg = small_config(repetitions=4, learners=(LearnerConfig("empty"),))
        for cpus, expected in ((3, [3]), (8, [4]), (None, [])):
            made.clear()
            if cpus is None:  # no affinity mask on this platform, and no CPU count
                monkeypatch.delattr(harness.os, "sched_getaffinity", raising=False)
                monkeypatch.setattr(harness.os, "cpu_count", lambda: None)
            else:  # the CPUs this process may use cap the pool, not the machine's
                monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
                monkeypatch.setattr(harness.os, "cpu_count", lambda: 64)
            assert len(run_benchmark(cfg)) == 8
            assert made == expected

    def test_batched_fits_match_fits_one_by_one(self, tmp_path, monkeypatch):
        from varsortbench import contlearn

        cfg = small_config(
            learners=(
                LearnerConfig("golem-ev", {"iterations": 300}),
                LearnerConfig("sortnregress"),
                LearnerConfig("golem-nv", {"iterations": 200}),
            ),
            favorable=True,
        )
        monkeypatch.delenv("VSB_THREADS", raising=False)
        run_benchmark(cfg, out_dir=tmp_path / "batched")
        sizes = []
        batch = contlearn.golem_fit_batch

        def one_by_one(problems):
            sizes.append(len(problems))
            return [batch([problem])[0] for problem in problems]

        monkeypatch.setattr(contlearn, "golem_fit_batch", one_by_one)
        run_benchmark(cfg, out_dir=tmp_path / "single")
        assert sizes == [8]  # one call per chunk: two golem learners, two regimes, two samples
        for name in ["records.csv"] + [f"estimates/{p.name}" for p in (tmp_path / "single" / "estimates").iterdir()]:
            assert (tmp_path / "batched" / name).read_bytes() == (tmp_path / "single" / name).read_bytes()


# Each OpenBLAS copy, as harness._OPENBLAS names it, with its thread-count getter.
OPENBLAS_GETTERS = (
    ("numpy", "libscipy_openblas64_-*.so", "scipy_openblas_get_num_threads64_"),
    ("scipy", "libscipy_openblas-*.so", "scipy_openblas_get_num_threads"),
)


def _blas_threads() -> list[int]:
    counts = []
    for package, pattern, getter in OPENBLAS_GETTERS:
        get_threads = getattr(harness._openblas(package, pattern), getter)
        get_threads.argtypes, get_threads.restype = [], ctypes.c_int
        counts.append(get_threads())
    return counts


def _pin_with(package: str, field: int, value: str) -> None:
    """Run the pool initializer with one field of ``package``'s entry in
    ``harness._OPENBLAS`` replaced by ``value``."""
    table = harness._OPENBLAS
    harness._OPENBLAS = tuple(e[:field] + (value,) + e[field + 1:] if e[0] == package else e for e in table)
    try:
        harness._pin_blas()
    finally:
        harness._OPENBLAS = table


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def _session_processes(session: int) -> list[int]:
    """Live (not zombie) processes of a session, read from /proc."""
    pids = []
    for entry in os.listdir("/proc"):
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as fh:
                state, _ppid, _pgrp, sid = fh.read().rsplit(")", 1)[1].split()[:4]
        except (OSError, ValueError):
            continue
        if int(sid) == session and state != "Z":
            pids.append(int(entry))
    return pids


def _rows(cfg, records):
    return [r.row(cfg.metric_keys()) for r in records]


class TestWorkerPool:
    def test_workers_are_forked(self, fresh_pool):
        # Forked whatever the default start method (forkserver on Linux from
        # Python 3.14), so workers see the patches that tests apply to modules
        # before the pool starts.
        default = multiprocessing.get_start_method()
        multiprocessing.set_start_method("spawn", force=True)
        try:
            pool = harness.worker_pool(2)
        finally:
            multiprocessing.set_start_method(default, force=True)
        assert pool._mp_context is multiprocessing.get_context("fork")

    def test_workers_run_both_openblas_copies_on_one_thread(self, fresh_pool):
        before = _blas_threads()
        pool = harness.worker_pool(2)
        assert [f.result() for f in [pool.submit(_blas_threads) for _ in range(4)]] == [[1, 1]] * 4
        assert _blas_threads() == before  # the caller's BLAS is left alone

    @pytest.mark.parametrize(
        "field, value, error", [(1, "no_such_openblas-*.so", RuntimeError), (2, "no_such_setter", AttributeError)]
    )
    def test_initializer_raises_on_a_missing_library_or_symbol(self, field, value, error):
        # In a worker, so that the test process's BLAS stays as it is.
        pool = harness.worker_pool(2)
        for package, *_ in harness._OPENBLAS:
            with pytest.raises(error):
                pool.submit(_pin_with, package, field, value).result()

    def test_failed_initializer_breaks_the_call(self, fresh_pool, monkeypatch):
        monkeypatch.setattr(harness, "_OPENBLAS", harness._OPENBLAS[:1] + (("scipy", "libscipy_openblas-*.so", "nope"),))
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
        monkeypatch.setenv("VSB_THREADS", "2")
        with pytest.raises(BrokenProcessPool):
            run_benchmark(small_config())
        assert harness._pool is None

    def test_notears_records_match_at_one_and_two_workers(self, tmp_path, monkeypatch):
        cfg = small_config(learners=(LearnerConfig("notears"), LearnerConfig("sortnregress")), n=300)
        for workers in ("1", "2"):
            monkeypatch.setenv("VSB_THREADS", workers)
            run_benchmark(cfg, out_dir=tmp_path / workers)
        names = sorted(p.name for p in (tmp_path / "1" / "estimates").iterdir())
        assert len(names) == 2 * 2 * 2
        assert names == sorted(p.name for p in (tmp_path / "2" / "estimates").iterdir())
        for name in ["records.csv"] + [f"estimates/{name}" for name in names]:
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()

    def test_consecutive_calls_share_the_workers(self, fresh_pool, monkeypatch):
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
        monkeypatch.setenv("VSB_THREADS", "2")
        cfg = small_config()
        first = _rows(cfg, run_benchmark(cfg))
        pool = harness._pool[1]
        pids = set(pool._processes)
        assert _rows(cfg, run_benchmark(cfg)) == first
        assert harness._pool[1] is pool and set(pool._processes) == pids and len(pids) == 2

    def test_new_worker_count_replaces_the_pool(self, fresh_pool, monkeypatch):
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 3)
        cfg = small_config(repetitions=3)
        monkeypatch.setenv("VSB_THREADS", "2")
        two = _rows(cfg, run_benchmark(cfg))
        old = harness._pool[1]
        old_pids = set(old._processes)
        monkeypatch.setenv("VSB_THREADS", "3")
        assert _rows(cfg, run_benchmark(cfg)) == two
        workers, pool = harness._pool
        assert workers == 3 and pool is not old and len(pool._processes) == 3
        assert not old_pids & set(pool._processes)
        assert not any(_alive(pid) for pid in old_pids)

    def test_dead_worker_breaks_the_call_and_the_next_gets_a_fresh_pool(self, fresh_pool, monkeypatch):
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
        monkeypatch.setenv("VSB_THREADS", "2")
        cfg = small_config(learners=(LearnerConfig("sortnregress"),))
        caller, fit = os.getpid(), learners.sortnregress

        def die(*args, **kwargs):
            assert os.getpid() != caller, "the fit ran in the calling process"
            os._exit(1)

        monkeypatch.setattr(learners, "sortnregress", die)
        with pytest.raises(BrokenProcessPool):
            run_benchmark(cfg)
        assert harness._pool is None
        monkeypatch.setattr(learners, "sortnregress", fit)
        records = run_benchmark(cfg)
        assert all(r.error is None for r in records)
        monkeypatch.setenv("VSB_THREADS", "1")
        assert _rows(cfg, records) == _rows(cfg, run_benchmark(cfg))

    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads processes from /proc")
    @pytest.mark.parametrize("entry", ["vsb bench", "runner.py"])
    def test_no_child_outlives_the_process(self, entry, tmp_path):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        config = tmp_path / "config.json"
        config.write_text(json.dumps(small_config().to_json()))
        env = {**os.environ, "PYTHONPATH": os.path.join(root, "src"), "VSB_THREADS": "2"}
        if entry == "vsb bench":
            cmd = [sys.executable, "-m", "varsortbench.cli", "bench", "--config", str(config), "--out", str(tmp_path / "out")]
            stdin = ""
        else:
            cmd = [sys.executable, os.path.join(root, "benchmarks", "runner.py"), os.path.join(root, "src")]
            stdin = json.dumps({"config": str(config), "out": str(tmp_path / "out")}) + '\n{"quit": true}\n'
        # A new session holds the process and every worker it forks, even one
        # that outlives it.
        with subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True,
            start_new_session=True,
        ) as proc:
            _, stderr = proc.communicate(stdin, timeout=120)
        assert proc.returncode == 0, stderr
        assert (tmp_path / "out" / "records.csv").exists()
        assert _session_processes(proc.pid) == []


class TestRunLearner:
    def test_every_registered_learner_runs(self):
        g = sample_er_dag(GraphSpec("ER", 4, 1), 1)
        m = sample_linear_scm(g, DEFAULT_WEIGHT_LAW, NoiseSpec("gaussian", None, DEFAULT_SIGMA_LAW), 2)
        data = simulate(m, 150, 3)
        for name, settings in [
            ("sortnregress", {}),
            ("randomregress", {}),
            ("varsort-full", {}),
            ("mse-gds", {}),
            ("empty", {}),
            ("notears", {"lambda1": 0.1}),
            ("golem-ev", {"iterations": 200}),
            ("golem-nv", {"iterations": 200}),
        ]:
            west = run_learner(name, data, settings, seed=4)
            assert west.w.shape == (4, 4)

    def test_unknown_learner(self):
        data = Dataset(np.random.default_rng(5).normal(size=(20, 2)), ("a", "b"))
        with pytest.raises(ConfigurationError):
            run_learner("nope", data, {}, 0)


class TestDatasetCsv:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(6)
        data = Dataset(rng.standard_normal((30, 3)), ("alpha", "beta", "gamma"))
        path = tmp_path / "data.csv"
        write_dataset_csv(data, path)
        again = load_dataset_csv(path)
        assert again.names == data.names
        assert np.array_equal(again.x, data.x)

    def test_small_well_formed(self, tmp_path):
        path = tmp_path / "ok.csv"
        path.write_text("a,b\n1.0,2.0\n3.0,4.5\n0.1,0.2\n")
        data = load_dataset_csv(path)
        assert data.n == 3 and data.d == 2

    def test_header_only_fails(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n")
        with pytest.raises(ParseError):
            load_dataset_csv(path)

    def test_ragged_rows_report_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1.0,2.0\n3.0\n")
        with pytest.raises(ParseError) as err:
            load_dataset_csv(path)
        assert "line 3" in str(err.value)

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1.0,x\n")
        with pytest.raises(ParseError):
            load_dataset_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("")
        with pytest.raises(ParseError):
            load_dataset_csv(path)


class TestBootstrap:
    def test_single_row_identity(self):
        data = Dataset(np.array([[1.0, 2.0]]), ("a", "b"))
        assert np.array_equal(bootstrap(data, 7).x, data.x)

    def test_distinct_seeds_differ(self):
        rng = np.random.default_rng(8)
        data = Dataset(rng.standard_normal((853, 4)), tuple("abcd"))
        assert not np.array_equal(bootstrap(data, 1).x, bootstrap(data, 2).x)
        assert np.array_equal(bootstrap(data, 1).x, bootstrap(data, 1).x)

    def test_column_means_within_three_standard_errors(self):
        rng = np.random.default_rng(9)
        data = Dataset(rng.standard_normal((2000, 3)), tuple("abc"))
        se = data.x.std(axis=0) / np.sqrt(data.n)
        for seed in range(20):
            sample = bootstrap(data, seed)
            assert np.all(np.abs(sample.x.mean(axis=0) - data.x.mean(axis=0)) < 3 * se)


class TestWeightedJson:
    def test_roundtrip(self):
        rng = np.random.default_rng(10)
        w = rng.standard_normal((4, 4)) * (rng.random((4, 4)) < 0.4)
        np.fill_diagonal(w, 0.0)
        from varsortbench.scm import WeightedDag

        west = WeightedDag(w)
        again = weighted_from_json(weighted_to_json(west))
        assert np.array_equal(again.w, west.w)


@pytest.fixture(scope="module")
def observational_fixture(tmp_path_factory):
    """An 11-node, 17-edge model standing in for an observational study."""
    tmp = tmp_path_factory.mktemp("realdata")
    rng_seed = 21
    g = None
    for seed in range(200):
        cand = sample_er_dag(GraphSpec("ER", 11, 2), spawn_seed(rng_seed, "g", seed))
        if cand.n_edges == 17:
            g = cand
            break
    assert g is not None
    m = sample_linear_scm(g, DEFAULT_WEIGHT_LAW, NoiseSpec("gaussian", None, DEFAULT_SIGMA_LAW), 22)
    data = simulate(m, 853, 23)
    data_path = tmp / "obs.csv"
    truth_path = tmp / "truth.txt"
    write_dataset_csv(data, data_path)
    write_edge_list(g, truth_path)
    return data_path, truth_path, g


class TestRealdataStudy:
    def test_study_shape_and_baseline(self, observational_fixture, tmp_path):
        data_path, truth_path, g = observational_fixture
        cfg = ExperimentConfig(
            graphs=(GraphSpec("ER", 2, 1),),
            noise=("gaussian-nv",),
            learners=(LearnerConfig("sortnregress"),),
            repetitions=3,
            seed=31,
        )
        records = realdata_study(data_path, truth_path, cfg, out_dir=tmp_path / "real")
        # (sortnregress + implicit empty baseline) x 2 regimes x 3 reps
        assert len(records) == 2 * 2 * 3
        empty_rows = [r for r in records if r.learner == "empty"]
        assert empty_rows
        for rec in empty_rows:
            assert rec.metrics["shd_w0.3"] == 17
        assert all(r.varsortability is not None for r in records)

    def test_golem_fits_match_fits_one_by_one(self, observational_fixture, tmp_path, monkeypatch):
        from varsortbench import contlearn

        data_path, truth_path, _ = observational_fixture
        cfg = ExperimentConfig(
            graphs=(GraphSpec("ER", 2, 1),),
            noise=("gaussian-nv",),
            learners=(LearnerConfig("golem-ev", {"iterations": 150}), LearnerConfig("golem-nv", {"iterations": 100})),
            repetitions=2,
            seed=32,
        )
        realdata_study(data_path, truth_path, cfg, out_dir=tmp_path / "batched")
        sizes = []
        batch = contlearn.golem_fit_batch

        def one_by_one(problems):
            sizes.append(len(problems))
            return [batch([problem])[0] for problem in problems]

        monkeypatch.setattr(contlearn, "golem_fit_batch", one_by_one)
        realdata_study(data_path, truth_path, cfg, out_dir=tmp_path / "single")
        assert sizes == [8]  # one call for the study: two golem learners, two regimes, two reps
        names = sorted(p.name for p in (tmp_path / "single" / "estimates").iterdir())
        assert len(names) == 3 * 2 * 2  # with the empty baseline
        for name in ["records.csv"] + [f"estimates/{name}" for name in names]:
            assert (tmp_path / "batched" / name).read_bytes() == (tmp_path / "single" / name).read_bytes()

    def test_truth_mismatch_raises(self, observational_fixture, tmp_path):
        data_path, _, _ = observational_fixture
        bad_truth = tmp_path / "bad.txt"
        bad_truth.write_text("0 99\n")
        cfg = ExperimentConfig(
            graphs=(GraphSpec("ER", 2, 1),),
            noise=("gaussian-nv",),
            learners=(LearnerConfig("empty"),),
            repetitions=1,
        )
        with pytest.raises(ConfigurationError):
            realdata_study(data_path, bad_truth, cfg)

    def test_empty_truth_rejected(self, observational_fixture, tmp_path):
        data_path, _, _ = observational_fixture
        empty_truth = tmp_path / "empty.txt"
        empty_truth.write_text("# no edges\n")
        cfg = ExperimentConfig(
            graphs=(GraphSpec("ER", 2, 1),),
            noise=("gaussian-nv",),
            learners=(LearnerConfig("empty"),),
            repetitions=1,
        )
        with pytest.raises(ConfigurationError):
            realdata_study(data_path, empty_truth, cfg)


@pytest.mark.slow
class TestLargeGraphPattern:
    def test_d50_sortnregress_raw_and_standardized(self):
        # raw-scale order search stays within 5% of the pair budget while the
        # standardized variant collapses to the random-order baseline
        spec = GraphSpec("ER", 50, 2)
        noise = NoiseSpec("gaussian", None, DEFAULT_SIGMA_LAW)
        raw_sids, std_sids, rand_sids = [], [], []
        from varsortbench.learners import randomregress, sortnregress
        from varsortbench.scm import standardize

        for rep in range(10):
            g = sample_er_dag(spec, spawn_seed(41, "g", rep))
            m = sample_linear_scm(g, DEFAULT_WEIGHT_LAW, noise, spawn_seed(41, "m", rep))
            data = simulate(m, 1000, spawn_seed(41, "d", rep))
            std = standardize(data)
            raw_sids.append(sid(g, threshold_and_break_cycles(sortnregress(data), 0.0)))
            std_sids.append(sid(g, threshold_and_break_cycles(sortnregress(std), 0.0)))
            rand_sids.append(
                sid(g, threshold_and_break_cycles(randomregress(std, seed=spawn_seed(41, "r", rep)), 0.0))
            )
        assert np.median(raw_sids) <= 0.05 * 50 * 49
        assert stats.mannwhitneyu(std_sids, rand_sids).pvalue > 0.01


# (records.csv, estimates/) digests of ``round_config(workload, 1, 0)``, the
# pinned rounds that every change must keep byte-identical. The estimates
# digest covers the raw weights, which thresholded records can hide.
PINNED_RECORD_DIGESTS = {
    "order-search": ("fd351995be3231f5", "c5ab8bd37c289d16"),
    "continuous": ("187dcdac556e8eb3", "f5fd1cdfcbe411f2"),
    "scoring": ("05e6b26f4bcf34f3", "80b3dfe3b9de9985"),
}


@pytest.mark.parametrize("workload", sorted(PINNED_RECORD_DIGESTS))
def test_pinned_benchmark_round_records_unchanged(workload, tmp_path, monkeypatch):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = os.path.join(root, "scripts", "record_digests.py")
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script puts benchmarks/ on it
    spec = importlib.util.spec_from_file_location("record_digests", path)
    record_digests = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(record_digests)
    monkeypatch.setenv("VSB_THREADS", "1")
    cfg = ExperimentConfig.from_json(record_digests.round_config(workload, 1, 0))
    run_benchmark(cfg, tmp_path)
    assert record_digests.digests(str(tmp_path)) == PINNED_RECORD_DIGESTS[workload]
