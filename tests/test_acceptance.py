"""Acceptance gates for the whole suite.

Each test checks one numbered criterion at its stated tolerance and prints
one PASS line on success (run with ``pytest tests/test_acceptance.py -v -s``
to see them). All Monte Carlo gates run at the fixed master seed below so
results are deterministic.
"""

import time

import numpy as np
import pytest
from scipy import stats

from varsortbench.chainexp import chain_accuracy_study
from varsortbench.contlearn import (
    acyclicity_h,
    acyclicity_h_grad,
    enumerate_3node_dags,
    golem_fit_batch,
    golem_likelihood,
    golem_likelihood_grad,
    landscape_3node,
    logdet_penalty,
    logdet_penalty_grad,
    mse,
    mse_grad,
    notears_fit,
    threshold_and_break_cycles,
)
from varsortbench.graphs import GraphSpec, dag_from_edges, sample_er_dag, topological_order
from varsortbench import harness
from varsortbench.harness import ExperimentConfig, LearnerConfig, run_benchmark
from varsortbench.learners import (
    DEFAULT_PARENT_SEARCH,
    OrderSearch,
    mse_gds,
    mse_gds_from_cov,
    randomregress,
    regress_along_orders,
    sortnregress,
)
from varsortbench.metrics import favorable_threshold_shd, shd, sid, sid_oracle_linear
from varsortbench.rng import spawn_seed, substream
from varsortbench.scm import (
    DEFAULT_SIGMA_LAW,
    DEFAULT_WEIGHT_LAW,
    Dataset,
    LinearScm,
    NoiseSpec,
    SigmaLaw,
    WeightLaw,
    WeightedDag,
    population_covariance,
    sample_linear_scm,
    simulate,
    standardize,
)
from varsortbench.varsort import (
    empirical_variances,
    pairwise_bound_mc,
    population_varsortability,
    varsortability,
)

MASTER = 0


def report(number, message):
    print(f"[criterion {number:>3}] PASS - {message}")


def test_criterion_01_worked_varsortability_example():
    g = dag_from_edges(3, [(0, 1), (0, 2), (1, 2)])
    value = varsortability(g, [2.0, 1.0, 3.0]).v
    assert value == 0.75
    report(1, f"three-node worked example scores v = {value} exactly")


def test_criterion_02_population_fixtures():
    chain = dag_from_edges(3, [(0, 1), (1, 2)])
    w1 = np.zeros((3, 3))
    w1[0, 1] = 1.0
    w1[1, 2] = np.sqrt(2.0 / 3.0)
    m1 = LinearScm(chain, WeightedDag(w1), NoiseSpec("gaussian", np.sqrt([4.0, 2.0, 1.0])))
    d1 = np.diag(population_covariance(m1))
    assert np.abs(d1 - np.array([4.0, 6.0, 5.0])).max() < 1e-10
    v1 = population_varsortability(m1).v
    assert v1 == pytest.approx(2.0 / 3.0, abs=1e-12)

    tri = dag_from_edges(3, [(0, 1), (0, 2), (1, 2)])
    w2 = np.zeros((3, 3))
    w2[0, 1] = 1.0
    w2[0, 2] = w2[1, 2] = 1.0 / np.sqrt(2.0)
    m2 = LinearScm(tri, WeightedDag(w2), NoiseSpec("gaussian", np.sqrt([4.0, 3.0, 1.0])))
    d2 = np.diag(population_covariance(m2))
    assert np.abs(d2 - np.array([4.0, 7.0, 10.5])).max() < 1e-10
    v2 = population_varsortability(m2).v
    assert v2 == 1.0
    report(2, f"population fixtures: variances {np.round(d1, 10).tolist()} / {np.round(d2, 10).tolist()}, v = 2/3 and 1")


def test_criterion_03_pairwise_bound():
    noise = NoiseSpec("gaussian", None, DEFAULT_SIGMA_LAW)
    bound = pairwise_bound_mc(DEFAULT_WEIGHT_LAW, noise, 10**6, seed=MASTER)
    assert bound >= 0.93
    draws = DEFAULT_WEIGHT_LAW.sample(10**6, substream(MASTER, "acceptance", "wtail"))
    tail = float(np.mean(np.abs(draws) > 1.0))
    assert abs(tail - 2.0 / 3.0) < 0.01
    report(3, f"root-pair bound = {bound:.4f} >= 0.93; P[|W|>1] = {tail:.4f} within 2/3 +- 0.01")


def test_criterion_04_high_varsortability_per_noise_kind():
    start = time.monotonic()
    spec = GraphSpec("ER", 50, 2)
    means = {}
    for token, kind, sigma_law in [
        ("gaussian-ev", "gaussian", SigmaLaw.fixed(1.0)),
        ("exponential", "exponential", DEFAULT_SIGMA_LAW),
        ("gumbel", "gumbel", DEFAULT_SIGMA_LAW),
    ]:
        values = []
        for rep in range(10):
            g = sample_er_dag(spec, spawn_seed(MASTER, "c4", token, "g", rep))
            m = sample_linear_scm(
                g, DEFAULT_WEIGHT_LAW, NoiseSpec(kind, None, sigma_law), spawn_seed(MASTER, "c4", token, "m", rep)
            )
            data = simulate(m, 1000, spawn_seed(MASTER, "c4", token, "d", rep))
            values.append(varsortability(g, empirical_variances(data)).v)
        means[token] = float(np.mean(values))
        assert means[token] >= 0.94, f"{token}: mean varsortability {means[token]:.4f} < 0.94"
    elapsed = time.monotonic() - start
    assert elapsed < 60
    report(4, f"mean varsortability by noise kind {['%s=%.3f' % kv for kv in means.items()]} in {elapsed:.1f}s")


POPULATION_TABLE = {
    # weight law -> regime -> printed percentage
    (0.5, 2.0): {"raw": 61.945, "standardized": 73.181, "harmonized": 57.1565},
    (0.5, 0.9): {"raw": 56.454, "standardized": 62.231, "harmonized": 54.709},
    (0.1, 0.9): {"raw": 54.234, "standardized": 55.790, "harmonized": 53.3655},
}


def test_criterion_05_population_orientation_table():
    start = time.monotonic()
    worst = 0.0
    for (lo, hi), cells in POPULATION_TABLE.items():
        law = WeightLaw.symmetric(lo, hi)
        for regime, printed in cells.items():
            result = chain_accuracy_study(
                3, law, 10**5, regime, rule="coefficients", mode="population", seed=MASTER
            )
            diff = abs(100.0 * result.accuracy - printed)
            worst = max(worst, diff)
            assert diff <= 1.5, f"{lo, hi} {regime}: {100 * result.accuracy:.3f} vs {printed}"
    elapsed = time.monotonic() - start
    assert elapsed < 300
    report(5, f"all 9 population cells within +-1.5 points (worst {worst:.2f}) in {elapsed:.1f}s")


def test_criterion_06_finite_sample_orientation():
    law = WeightLaw.symmetric(0.5, 2.0)
    var_raw = chain_accuracy_study(3, law, 4000, "raw", rule="variance", mode="finite", n=1000, seed=MASTER)
    assert abs(100.0 * var_raw.accuracy - 97.5) <= 2.0
    var_std = chain_accuracy_study(
        3, law, 4000, "standardized", rule="variance", mode="finite", n=1000, seed=MASTER
    )
    assert 47.0 <= 100.0 * var_std.accuracy <= 53.0
    coef_std = chain_accuracy_study(
        3, law, 4000, "standardized", rule="coefficients", mode="finite", n=1000, seed=MASTER
    )
    assert abs(100.0 * coef_std.accuracy - 73.0) <= 3.0
    report(
        6,
        "finite-sample orientation: variance raw "
        f"{100 * var_raw.accuracy:.2f}%, variance standardized {100 * var_std.accuracy:.2f}%, "
        f"coefficients standardized {100 * coef_std.accuracy:.2f}%",
    )


def _finite_difference(f, w, eps=1e-6):
    g = np.zeros_like(w)
    for i in range(w.shape[0]):
        for j in range(w.shape[1]):
            up, down = w.copy(), w.copy()
            up[i, j] += eps
            down[i, j] -= eps
            g[i, j] = (f(up) - f(down)) / (2 * eps)
    return g


def test_criterion_07_gradient_suite():
    worst = 0.0
    for d in (3, 5):
        for point in range(20):
            rng = substream(MASTER, "c7", d, point)
            x = rng.standard_normal((10 * d, d)) @ rng.standard_normal((d, d))
            data = Dataset(x, tuple(f"x{i}" for i in range(d)))
            w = rng.standard_normal((d, d)) * 0.4
            pairs = [
                (lambda v: mse(v, data), lambda v: mse_grad(v, data)),
                (lambda v: golem_likelihood(v, data, "ev"), lambda v: golem_likelihood_grad(v, data, "ev")),
                (lambda v: golem_likelihood(v, data, "nv"), lambda v: golem_likelihood_grad(v, data, "nv")),
                (acyclicity_h, acyclicity_h_grad),
                (logdet_penalty, logdet_penalty_grad),
            ]
            for f, grad in pairs:
                numeric = _finite_difference(f, w)
                analytic = grad(w)
                rel = float(np.abs(analytic - numeric).max() / max(1.0, np.abs(numeric).max()))
                worst = max(worst, rel)
                assert rel < 1e-6
    report(7, f"five analytic gradients match central differences (worst rel err {worst:.1e})")


def test_criterion_08_sid_oracle_equivalence():
    start = time.monotonic()
    dags = enumerate_3node_dags()
    for g_true in dags:
        for g_est in dags:
            assert sid(g_true, g_est) == sid_oracle_linear(
                g_true, g_est, trials=5, seed=spawn_seed(MASTER, "c8", "d3")
            )
    rng = substream(MASTER, "c8", "d5")
    spec = GraphSpec("ER", 5, 2)
    for _ in range(1000):
        g_true = sample_er_dag(spec, int(rng.integers(2**62)))
        g_est = sample_er_dag(spec, int(rng.integers(2**62)))
        assert sid(g_true, g_est) == sid_oracle_linear(
            g_true, g_est, trials=5, seed=int(rng.integers(2**62))
        )
    elapsed = time.monotonic() - start
    assert elapsed < 300
    report(8, f"graphical criterion equals linear oracle on 625 + 1000 pairs in {elapsed:.1f}s")


def test_criterion_09_greedy_orientation_law():
    g = dag_from_edges(2, [(0, 1)])
    population_hits = 0
    sample_hits = 0
    for rep in range(200):
        rng = substream(MASTER, "c9", rep)
        w = DEFAULT_WEIGHT_LAW.sample(1, rng)[0]
        sigmas = DEFAULT_SIGMA_LAW.sample(2, rng)
        mat = np.zeros((2, 2))
        mat[0, 1] = w
        m = LinearScm(g, WeightedDag(mat), NoiseSpec("gaussian", sigmas))
        cov = population_covariance(m)
        higher = int(np.argmax(np.diag(cov)))
        west = mse_gds_from_cov(cov, max_edges=1)
        population_hits += int(west.w[:, higher].any())
        data = simulate(m, 1000, spawn_seed(MASTER, "c9", "data", rep))
        west_s = mse_gds(data, max_edges=1)
        sample_hits += int(west_s.w[:, higher].any())
    assert population_hits == 200
    assert sample_hits >= 190
    report(9, f"first greedy edge points at the higher-variance node: 200/200 population, {sample_hits}/200 at n=1000")


# ---------------------------------------------------------------------------
# Criterion 10/13 share one set of fitted estimates.
# ---------------------------------------------------------------------------


def _reversed_edges(g, variances):
    """Number of true edges i -> j that the ascending variance order puts j before i.

    The order is the one ``sortnregress`` searches along (stable sort).
    """
    rank = np.empty(g.d, dtype=int)
    rank[np.argsort(variances, kind="stable")] = np.arange(g.d)
    return sum(int(rank[i] > rank[j]) for i, j in g.edges())


@pytest.fixture(scope="module")
def gap_fits():
    spec = GraphSpec("ER", 10, 2)
    noise = NoiseSpec("gaussian", None, SigmaLaw.fixed(1.0))
    start = time.monotonic()
    out = {"graphs": [], "weights": {}, "sid": {}, "reversed": [], "oracle_sid": []}
    learners = ["sortnregress", "randomregress", "notears", "golem-ev", "golem-nv"]
    for name in learners:
        for regime in ("raw", "standardized"):
            out["weights"][(name, regime)] = []
            out["sid"][(name, regime)] = []
    samples = []
    for rep in range(10):
        g = sample_er_dag(spec, spawn_seed(MASTER, "c10", "g", rep))
        m = sample_linear_scm(g, DEFAULT_WEIGHT_LAW, noise, spawn_seed(MASTER, "c10", "m", rep))
        samples.append((g, simulate(m, 1000, spawn_seed(MASTER, "c10", "d", rep))))
    regimes = [(g, data, (("raw", data), ("standardized", standardize(data)))) for g, data in samples]
    # notears on every instance and regime on the harness's worker pool, while
    # both golem variants run here as one lockstep batch.
    notears = harness.worker_pool(2).map(notears_fit, [dat for *_, pairs in regimes for _, dat in pairs])
    golem = iter(
        golem_fit_batch(
            [(dat, variant, None) for *_, pairs in regimes for _, dat in pairs for variant in ("ev", "nv")]
        )
    )
    for rep, (g, data, pairs) in enumerate(regimes):
        out["graphs"].append(g)
        for regime, dat in pairs:
            fits = {
                "sortnregress": sortnregress(dat),
                "randomregress": randomregress(dat, seed=spawn_seed(MASTER, "c10", "rr", rep)),
                "notears": next(notears)[0],
                "golem-ev": next(golem)[0],
                "golem-nv": next(golem)[0],
            }
            for name, west in fits.items():
                omega = 0.3 if name in ("notears", "golem-ev", "golem-nv") else 0.0
                out["weights"][(name, regime)].append(west)
                out["sid"][(name, regime)].append(sid(g, threshold_and_break_cycles(west, omega)))
        # error attribution for raw order search: edges the variance order
        # reverses, and parent search along the true order
        out["reversed"].append(_reversed_edges(g, empirical_variances(data)))
        (oracle,) = regress_along_orders(
            [OrderSearch(data.covariance, data.n, np.array(topological_order(g)), DEFAULT_PARENT_SEARCH)]
        )
        out["oracle_sid"].append(sid(g, threshold_and_break_cycles(oracle, 0.0)))
    out["elapsed"] = time.monotonic() - start
    return out


@pytest.mark.slow
def test_criterion_10a_order_search_gap(gap_fits):
    raw = gap_fits["sid"][("sortnregress", "raw")]
    std = gap_fits["sid"][("sortnregress", "standardized")]
    rand_raw = gap_fits["sid"][("randomregress", "raw")]
    rand_std = gap_fits["sid"][("randomregress", "standardized")]
    reversed_edges = gap_fits["reversed"]
    oracle = gap_fits["oracle_sid"]
    evidence = (
        f"raw SIDs {raw} against true edges reversed by the variance order {reversed_edges}; "
        "see DECISIONS.md, gate 10a"
    )
    p_vs_std = stats.mannwhitneyu(raw, std, alternative="less").pvalue
    p_vs_rand = stats.mannwhitneyu(raw, rand_raw, alternative="less").pvalue
    assert p_vs_std < 0.01, f"raw order search not below standardized: p = {p_vs_std:.1e}; {evidence}"
    assert p_vs_rand < 0.01, f"raw order search not below random order: p = {p_vs_rand:.1e}; {evidence}"
    p_equal = stats.mannwhitneyu(std, rand_std).pvalue
    assert p_equal > 0.01, f"standardized order search vs random order: p = {p_equal:.4f}; {evidence}"
    assert all(s == 0 for s in oracle), f"parent search along the true order errs: SIDs {oracle}; {evidence}"
    unexplained = [i for i, (s, r) in enumerate(zip(raw, reversed_edges)) if r == 0 and s > 0]
    assert not unexplained, f"raw order search errs on instances {unexplained} with no reversed edge; {evidence}"
    report(
        "10a",
        f"raw order search median SID {np.median(raw)} < standardized {np.median(std)} (p = {p_vs_std:.1e}) "
        f"and random order {np.median(rand_raw)} (p = {p_vs_rand:.1e}); standardized vs random p = {p_equal:.3f}; "
        f"true-order parent search SID 0 on {len(oracle)}/{len(oracle)}; raw errors only where the variance "
        f"order reverses true edges {reversed_edges}",
    )


@pytest.mark.slow
def test_criterion_10b_constrained_and_ev_degrade_on_standardized(gap_fits):
    for name in ("notears", "golem-ev"):
        raw = gap_fits["sid"][(name, "raw")]
        std = gap_fits["sid"][(name, "standardized")]
        p_less = stats.mannwhitneyu(raw, std, alternative="less").pvalue
        assert np.median(raw) < np.median(std), f"{name}: medians {np.median(raw)} vs {np.median(std)}"
        assert p_less < 0.05, f"{name}: p = {p_less:.4f}"
    report(
        "10b",
        "constrained solver and equal-variance solver: raw median SID < standardized (rank-sum p < 0.05)",
    )


@pytest.mark.slow
def test_criterion_10c_nv_does_not_degrade(gap_fits):
    raw = gap_fits["sid"][("golem-nv", "raw")]
    std = gap_fits["sid"][("golem-nv", "standardized")]
    assert np.median(std) <= np.median(raw), f"medians: std {np.median(std)} vs raw {np.median(raw)}"
    assert gap_fits["elapsed"] < 1800
    report(
        "10c",
        f"non-equal-variance solver: standardized median {np.median(std)} <= raw median {np.median(raw)} "
        f"(all fits took {gap_fits['elapsed']:.0f}s < 30 min)",
    )


def test_criterion_11_sortedness_bins():
    spec = GraphSpec("ER", 10, 1)
    law = WeightLaw.symmetric(0.1, 0.5)
    noise = NoiseSpec("gumbel", None, DEFAULT_SIGMA_LAW)
    n_bins, per_bin = 9, 10
    bins = [[] for _ in range(n_bins)]
    attempt = 0
    while any(len(b) < per_bin for b in bins) and attempt < 100_000:
        attempt += 1
        g = sample_er_dag(spec, spawn_seed(MASTER, "c11", "g", attempt))
        if g.n_edges < spec.d * spec.k:
            continue  # keep bins comparable in connectivity
        m = sample_linear_scm(g, law, noise, spawn_seed(MASTER, "c11", "m", attempt))
        pop_v = population_varsortability(m).v
        guess = min(n_bins - 1, int(pop_v * n_bins))
        nearby = range(max(0, guess - 1), min(n_bins, guess + 2))
        if all(len(bins[k]) >= per_bin for k in nearby):
            continue
        data = simulate(m, 1000, spawn_seed(MASTER, "c11", "d", attempt))
        v = varsortability(g, empirical_variances(data)).v
        k = min(n_bins - 1, int(v * n_bins))
        if len(bins[k]) < per_bin:
            bins[k].append((g, data, attempt))
    assert all(len(b) == per_bin for b in bins), f"unfilled bins after {attempt} attempts"

    groups = {
        "low": [x for b in bins[:3] for x in b],
        "mid": [x for b in bins[3:6] for x in b],
        "high": [x for b in bins[6:] for x in b],
    }
    outcome = {}
    for key, items in groups.items():
        order_sid, random_sid = [], []
        for g, data, a in items:
            order_sid.append(sid(g, threshold_and_break_cycles(sortnregress(data), 0.0)))
            random_sid.append(
                sid(g, threshold_and_break_cycles(randomregress(data, seed=spawn_seed(MASTER, "c11", "r", a)), 0.0))
            )
        outcome[key] = (
            float(np.median(order_sid)),
            float(np.median(random_sid)),
            float(stats.mannwhitneyu(order_sid, random_sid).pvalue),
        )
    low, mid, high = outcome["low"], outcome["mid"], outcome["high"]
    assert high[0] < high[1] and high[2] < 0.01, f"high bin: {high}"
    assert mid[2] >= 0.01, f"mid bin should be indistinguishable: {mid}"
    assert low[0] > low[1] and low[2] < 0.01, f"low bin: {low}"
    report(
        11,
        "variance-order search vs random order by sortedness bin: "
        f"high {high[0]:.0f}/{high[1]:.0f} p={high[2]:.1e}, mid p={mid[2]:.2f}, "
        f"low {low[0]:.0f}/{low[1]:.0f} p={low[2]:.1e}",
    )


def test_criterion_12_landscape_counts():
    counts = {False: 0, True: 0}
    for idx, truth in enumerate(enumerate_3node_dags()):
        rng = substream(MASTER, "c12", idx)
        w = np.zeros((3, 3))
        for i, j in truth.edges():
            w[i, j] = DEFAULT_WEIGHT_LAW.sample(1, rng)[0]
        m = LinearScm(truth, WeightedDag(w), NoiseSpec("gaussian", DEFAULT_SIGMA_LAW.sample(3, rng)))
        for standardized in (False, True):
            records = landscape_3node(m, 0.1, standardize_input=standardized)
            assert len(records) == 25
            winner = next(r for r in records if r.is_argmin)
            counts[standardized] += int(winner.shd == 0 and winner.sid == 0)
    assert counts[True] >= counts[False]
    report(
        12,
        f"25-candidate landscape: truth wins {counts[True]}/25 standardized vs {counts[False]}/25 raw",
    )


@pytest.mark.slow
def test_criterion_13_thresholding_regimes(gap_fits):
    checked = 0
    for name in ("notears", "golem-ev", "golem-nv"):
        for regime in ("raw", "standardized"):
            for g, west in zip(gap_fits["graphs"], gap_fits["weights"][(name, regime)]):
                _, best = favorable_threshold_shd(west, g)
                fixed = shd(g, threshold_and_break_cycles(west, 0.3))
                assert best <= fixed
                checked += 1
    for name in ("notears", "golem-ev"):
        for omega in (0.001, 0.3):
            raw = [
                sid(g, threshold_and_break_cycles(west, omega))
                for g, west in zip(gap_fits["graphs"], gap_fits["weights"][(name, "raw")])
            ]
            std = [
                sid(g, threshold_and_break_cycles(west, omega))
                for g, west in zip(gap_fits["graphs"], gap_fits["weights"][(name, "standardized")])
            ]
            assert np.median(raw) < np.median(std), f"{name} at omega={omega}"
    report(
        13,
        f"favorable threshold never beats itself ({checked} stored fits) and the raw-vs-standardized "
        "ordering is stable at omega 0.001 and 0.3",
    )


@pytest.mark.slow
def test_criterion_14_bench_determinism(tmp_path):
    cfg = ExperimentConfig(
        graphs=(GraphSpec("ER", 10, 2),),
        noise=("gaussian-nv",),
        learners=(LearnerConfig("sortnregress"), LearnerConfig("notears", {"lambda1": 0.1})),
        n=300,
        repetitions=2,
        omegas=(0.3, 0.001),
        favorable=True,
        mec_metrics=True,
        seed=MASTER,
    )
    run_benchmark(cfg, out_dir=tmp_path / "a")
    run_benchmark(cfg, out_dir=tmp_path / "b")
    a = (tmp_path / "a" / "records.csv").read_bytes()
    b = (tmp_path / "b" / "records.csv").read_bytes()
    assert a == b
    report(14, f"benchmark rerun produced byte-identical records.csv ({len(a)} bytes)")
