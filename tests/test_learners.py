import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from varsortbench.errors import ConfigurationError
from varsortbench.graphs import GraphSpec, dag_from_edges, sample_er_dag, sample_sf_dag
from varsortbench.learners import (
    ParentSearchConfig,
    _lasso_path,
    lasso_bic_parents,
    mse_gds,
    mse_gds_from_cov,
    randomregress,
    sortnregress,
    variance_sort_full,
)
from varsortbench.contlearn import threshold_and_break_cycles
from varsortbench.harness import run_learner
from varsortbench.metrics import shd, sid
from varsortbench.rng import spawn_seed, substream
from varsortbench.scm import (
    DEFAULT_SIGMA_LAW,
    DEFAULT_WEIGHT_LAW,
    Dataset,
    LinearScm,
    NoiseSpec,
    SigmaLaw,
    WeightedDag,
    population_covariance,
    sample_linear_scm,
    simulate,
    standardize,
)
from varsortbench.varsort import empirical_variances, varsortability


def names(d):
    return tuple(f"x{i}" for i in range(d))


def centered_gram(x, y):
    xc = x - x.mean(axis=0)
    yc = y - y.mean()
    return xc.T @ xc / len(y), xc.T @ yc / len(y)


def lasso_bic_parents_reference(data, target, candidates, cfg=ParentSearchConfig()):
    """``lasso_bic_parents`` on the n x p observations: center, scale and
    solve the adaptive least squares on the data of each target."""
    candidates = [int(c) for c in candidates]
    if not candidates:
        return np.zeros(0)
    n = data.n
    x = data.x[:, candidates]
    x = x - x.mean(axis=0)
    scale = x.std(axis=0)
    usable = scale > 0
    x = np.where(usable[None, :], x / np.where(usable, scale, 1.0)[None, :], 0.0)
    y = data.x[:, int(target)]
    y = y - y.mean()
    if cfg.adaptive:
        ols, *_ = np.linalg.lstsq(x, y, rcond=None)
        scale = scale / np.where(np.abs(ols) > 0, np.abs(ols), 1.0)
        x = x * np.abs(ols)[None, :]
        usable = usable & (np.abs(ols) > 0)
    gram = x.T @ x / n
    corr = x.T @ y / n
    lam_max = float(np.max(np.abs(corr)))
    if lam_max == 0.0:
        return np.zeros(len(candidates))
    _, _, supports = _lasso_path(gram, corr, lam_max * cfg.lambda_min_ratio)
    y_sq = float(y @ y)
    best_bic, best = np.inf, np.zeros(len(candidates))
    for support in dict.fromkeys([(), *supports]):
        if support:
            coef, *_ = np.linalg.lstsq(gram[np.ix_(support, support)], corr[list(support)], rcond=None)
            rss = n * max(y_sq / n - corr[list(support)] @ coef, 0.0)
        else:
            coef, rss = np.zeros(0), y_sq
        bic = n * np.log(max(rss, np.finfo(float).tiny) / n) + np.log(n) * len(support)
        if bic < best_bic:
            best_bic, best = bic, np.zeros(len(candidates))
            best[list(support)] = coef
    return np.where(usable, best / np.where(usable, scale, 1.0), 0.0)


def assert_path_kkt(gram, corr, lambdas, betas, supports, tol=1e-7):
    """Lasso KKT conditions at every knot and at every segment midpoint,
    where the nonzero coefficients must be the segment's support."""
    points = list(zip(lambdas, betas))
    for k, support in enumerate(supports):
        beta = (betas[k] + betas[k + 1]) / 2
        assert set(np.flatnonzero(beta)) <= set(support)
        points.append(((lambdas[k] + lambdas[k + 1]) / 2, beta))
    for lam, beta in points:
        grad = gram @ beta - corr
        for j in range(len(corr)):
            if beta[j] != 0:
                assert grad[j] + lam * np.sign(beta[j]) == pytest.approx(0.0, abs=tol)
            else:
                assert abs(grad[j]) <= lam + tol


class TestLassoBicParents:
    def test_empty_candidates(self):
        data = Dataset(np.random.default_rng(0).normal(size=(50, 3)), names(3))
        assert lasso_bic_parents(data, 0, []).shape == (0,)

    def test_exact_recovery(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((1000, 3))
        x[:, 2] = 2.0 * x[:, 0]
        data = Dataset(x, names(3))
        coef = lasso_bic_parents(data, 2, [0, 1])
        assert coef[1] == 0.0
        assert coef[0] == pytest.approx(2.0, abs=0.1)

    def test_null_protection(self):
        clean = 0
        for seed in range(100):
            rng = np.random.default_rng(10_000 + seed)
            data = Dataset(rng.standard_normal((1000, 6)), names(6))
            coef = lasso_bic_parents(data, 5, [0, 1, 2, 3, 4])
            clean += int(np.count_nonzero(coef) == 0)
        assert clean >= 95

    def test_path_solver_satisfies_kkt(self):
        # stationarity of the L1 objective at every knot and segment midpoint
        rng = np.random.default_rng(2)
        x = rng.standard_normal((400, 5))
        y = x[:, 0] * 1.5 - x[:, 3] * 0.7 + 0.5 * rng.standard_normal(400)
        gram, corr = centered_gram(x, y)
        lam_max = float(np.max(np.abs(corr)))
        lambdas, betas, supports = _lasso_path(gram, corr, lam_max * 1e-3)
        assert lambdas[0] == lam_max and lambdas[-1] == lam_max * 1e-3
        assert len(supports) == len(lambdas) - 1
        assert_path_kkt(gram, corr, lambdas, betas, supports)

    def test_path_kkt_on_correlated_design(self):
        # SF-2 hubs make the candidate columns strongly correlated; the
        # design is the one lasso_bic_parents builds (unit scale, OLS weights)
        g = sample_sf_dag(GraphSpec("SF", 20, 2), 31)
        noise = NoiseSpec("exponential", None, SigmaLaw.uniform(0.5, 2.0))
        data = simulate(sample_linear_scm(g, DEFAULT_WEIGHT_LAW, noise, 32), 1000, 33)
        order = substream(34, "t").permutation(20)
        for r in range(2, 20):
            xc = data.x[:, order[:r]] - data.x[:, order[:r]].mean(axis=0)
            xc = xc / xc.std(axis=0)
            yc = data.x[:, order[r]] - data.x[:, order[r]].mean()
            ols, *_ = np.linalg.lstsq(xc, yc, rcond=None)
            gram, corr = centered_gram(xc * np.abs(ols), yc)
            lam_max = float(np.max(np.abs(corr)))
            assert_path_kkt(gram, corr, *_lasso_path(gram, corr, lam_max * 1e-4))

    def test_path_changes_one_index_per_knot(self):
        for seed in range(20):
            rng = np.random.default_rng(40 + seed)
            x = rng.standard_normal((200, 8)) @ rng.standard_normal((8, 8))
            y = x[:, :3].sum(axis=1) + rng.standard_normal(200)
            gram, corr = centered_gram(x, y)
            _, _, supports = _lasso_path(gram, corr, 1e-6 * float(np.max(np.abs(corr))))
            for before, after in zip([()] + supports, supports):
                assert len(set(before) ^ set(after)) == 1

    def test_path_skips_column_that_would_make_gram_singular(self):
        # x2 = x0 + x1, with a correlation vector that lets x2 enter first:
        # whichever of x0, x1 comes third would complete a singular set
        rng = np.random.default_rng(5)
        x = rng.standard_normal((300, 2))
        x = np.column_stack([x, x[:, 0] + x[:, 1]])
        gram = x.T @ x / 300
        corr = np.array([0.5, 0.3, 0.9])
        lambdas, _, supports = _lasso_path(gram, corr, 1e-4)
        assert lambdas[-1] == 1e-4
        assert all(len(s) <= 2 for s in supports)
        assert supports[0] == (2,)

    def test_collinear_and_constant_candidates(self):
        # exact copies tie to the last bit; the tie must neither raise nor
        # put a collinear set in the support; a constant column gets nothing
        for seed in range(12):
            rng = np.random.default_rng(seed)
            x = rng.standard_normal((300, 5))
            x[:, 1] = (2.0, -1.0, 0.5)[seed % 3] * x[:, 0]
            x[:, 2] = x[:, 0] - 3.0 * x[:, 4]
            x[:, 3] = 1.0
            y = x[:, 0] + 0.5 * x[:, 4] + rng.standard_normal(300)
            data = Dataset(np.column_stack([x, y]), names(6))
            for cfg in (ParentSearchConfig(), ParentSearchConfig(adaptive=False)):
                coef = lasso_bic_parents(data, 5, [0, 1, 2, 3, 4], cfg)
                assert np.all(np.isfinite(coef))
                assert coef[3] == 0.0
                assert coef[0] == 0.0 or coef[1] == 0.0
                assert not np.all(coef[[0, 2, 4]] != 0.0)

    def test_criterion_key_is_unknown(self):
        data = Dataset(np.random.default_rng(3).normal(size=(50, 3)), names(3))
        with pytest.raises(ConfigurationError, match="bad settings"):
            run_learner("sortnregress", data, {"criterion": "bic"}, 0)

    def test_target_not_candidate(self):
        data = Dataset(np.random.default_rng(3).normal(size=(50, 3)), names(3))
        with pytest.raises(ConfigurationError):
            lasso_bic_parents(data, 1, [0, 1])


# The covariance and the n x p data agree up to rounding, except where the
# adaptive least squares is near-singular: lstsq's rcond now acts on squared
# singular values. Exactly duplicated columns stay safe, since both cut the
# zero singular value; which copy carries the weight is a rounding-level tie.
@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    d=st.integers(min_value=2, max_value=10),
    standardized=st.booleans(),
    adaptive=st.booleans(),
    degenerate=st.sampled_from(["none", "constant", "duplicate"]),
)
def test_parent_search_on_covariance_matches_data_reference(seed, d, standardized, adaptive, degenerate):
    g = sample_er_dag(GraphSpec("ER", d, min(2, d - 1)), spawn_seed(seed, "g"))
    m = sample_linear_scm(g, DEFAULT_WEIGHT_LAW, NoiseSpec("gaussian", None, DEFAULT_SIGMA_LAW), spawn_seed(seed, "m"))
    data = simulate(m, 200, spawn_seed(seed, "d"))
    if standardized:
        data = standardize(data)
    rng = substream(seed, "t")
    x = data.x.copy()
    order = [int(c) for c in rng.permutation(d)]
    target, candidates = order[0], order[1:]
    copy_of = None
    if degenerate == "constant" and candidates:
        x[:, candidates[0]] = float(rng.integers(-3, 4))
    elif degenerate == "duplicate" and len(candidates) >= 2:
        copy_of = (candidates[0], candidates[1])
        x[:, copy_of[1]] = x[:, copy_of[0]]
    data = Dataset(x, names(d))
    cfg = ParentSearchConfig(adaptive=adaptive)
    got = lasso_bic_parents(data, target, candidates, cfg)
    want = lasso_bic_parents_reference(data, target, candidates, cfg)
    if copy_of is not None:
        for coef in (got, want):
            coef[0], coef[1] = coef[0] + coef[1], 0.0
    assert np.array_equal(got != 0, want != 0)
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=0.0)


class TestSortnregress:
    def test_two_node_order_forced(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal(2000)
        b = 1.2 * a + rng.standard_normal(2000)
        data = Dataset(np.column_stack([a, b]), names(2))
        west = sortnregress(data)
        assert west.w[0, 1] != 0.0
        assert west.w[1, 0] == 0.0

    def test_output_supports_dag_and_order(self):
        g = sample_er_dag(GraphSpec("ER", 8, 2), 5)
        m = sample_linear_scm(g, DEFAULT_WEIGHT_LAW, NoiseSpec("gaussian", None, DEFAULT_SIGMA_LAW), 6)
        data = simulate(m, 500, 7)
        west = sortnregress(data)
        assert west.is_dag_supported()
        order = np.argsort(empirical_variances(data), kind="stable")
        pos = {int(n): r for r, n in enumerate(order)}
        assert all(pos[i] < pos[j] for i, j in zip(*np.nonzero(west.w)))

    @pytest.mark.slow
    def test_consistency_at_full_sortedness(self):
        # instances filtered to varsortability 1: edit distance stays small
        hits = []
        spec = GraphSpec("ER", 10, 2)
        found = 0
        seed = 0
        while found < 10 and seed < 200:
            seed += 1
            g = sample_er_dag(spec, spawn_seed(8, "g", seed))
            if g.n_edges == 0:
                continue
            m = sample_linear_scm(
                g, DEFAULT_WEIGHT_LAW, NoiseSpec("gaussian", None, DEFAULT_SIGMA_LAW), spawn_seed(8, "m", seed)
            )
            data = simulate(m, 100_000, spawn_seed(8, "d", seed))
            if varsortability(g, empirical_variances(data)).v < 1.0:
                continue
            found += 1
            west = sortnregress(data)
            hits.append(shd(g, threshold_and_break_cycles(west, 0.0)))
        assert found == 10
        assert np.median(hits) <= 2

    def test_standardized_matches_random_order_baseline(self):
        spec = GraphSpec("ER", 8, 2)
        sort_sid, rand_sid = [], []
        for seed in range(30):
            g = sample_er_dag(spec, spawn_seed(9, "g", seed))
            m = sample_linear_scm(
                g, DEFAULT_WEIGHT_LAW, NoiseSpec("gaussian", None, DEFAULT_SIGMA_LAW), spawn_seed(9, "m", seed)
            )
            data = standardize(simulate(m, 500, spawn_seed(9, "d", seed)))
            sort_sid.append(sid(g, threshold_and_break_cycles(sortnregress(data), 0.0)))
            rand_sid.append(
                sid(g, threshold_and_break_cycles(randomregress(data, seed=spawn_seed(9, "r", seed)), 0.0))
            )
        assert stats.mannwhitneyu(sort_sid, rand_sid).pvalue > 0.01

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(11)
        base = rng.standard_normal((400, 4)) * np.array([1.0, 2.0, 3.0, 4.0])
        data = Dataset(base, names(4))
        perm = np.array([2, 0, 3, 1])
        permuted = Dataset(base[:, perm], names(4))
        w_base = sortnregress(data).w
        w_perm = sortnregress(permuted).w
        inverse = np.argsort(perm)
        assert np.allclose(w_perm, w_base[np.ix_(perm, perm)], atol=1e-10)
        assert np.allclose(w_base, w_perm[np.ix_(inverse, inverse)], atol=1e-10)

    def test_warns_when_underdetermined(self):
        rng = np.random.default_rng(12)
        data = Dataset(rng.standard_normal((5, 6)), names(6))
        with pytest.warns(UserWarning):
            sortnregress(data)


class TestRandomregress:
    def test_single_node_empty(self):
        data = Dataset(np.random.default_rng(13).normal(size=(50, 1)), names(1))
        assert not randomregress(data, seed=0).w.any()

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(14)
        data = Dataset(rng.standard_normal((200, 4)), names(4))
        assert np.array_equal(randomregress(data, seed=5).w, randomregress(data, seed=5).w)

    def test_worse_than_variance_order_on_sorted_data(self):
        spec = GraphSpec("ER", 10, 2)
        sort_sid, rand_sid = [], []
        found, seed = 0, 0
        while found < 30 and seed < 500:
            seed += 1
            g = sample_er_dag(spec, spawn_seed(15, "g", seed))
            if g.n_edges == 0:
                continue
            m = sample_linear_scm(
                g, DEFAULT_WEIGHT_LAW, NoiseSpec("gaussian", None, DEFAULT_SIGMA_LAW), spawn_seed(15, "m", seed)
            )
            data = simulate(m, 1000, spawn_seed(15, "d", seed))
            if varsortability(g, empirical_variances(data)).v < 1.0:
                continue
            found += 1
            sort_sid.append(sid(g, threshold_and_break_cycles(sortnregress(data), 0.0)))
            rand_sid.append(
                sid(g, threshold_and_break_cycles(randomregress(data, seed=spawn_seed(15, "r", seed)), 0.0))
            )
        assert found == 30
        assert np.median(sort_sid) < np.median(rand_sid)
        assert stats.mannwhitneyu(sort_sid, rand_sid, alternative="less").pvalue < 0.01


class TestVarianceSortFull:
    def test_two_node(self):
        rng = np.random.default_rng(16)
        x = np.column_stack([rng.standard_normal(500), 3.0 * rng.standard_normal(500)])
        g = variance_sort_full(Dataset(x, names(2)))
        assert g.edges() == [(0, 1)]

    def test_complete_edge_count(self):
        rng = np.random.default_rng(17)
        data = Dataset(rng.standard_normal((100, 6)), names(6))
        assert variance_sort_full(data).n_edges == 15

    def test_zero_sid_on_fully_sorted_data(self):
        spec = GraphSpec("ER", 8, 2)
        checked = 0
        for seed in range(60):
            g = sample_er_dag(spec, spawn_seed(18, "g", seed))
            if g.n_edges == 0:
                continue
            m = sample_linear_scm(
                g, DEFAULT_WEIGHT_LAW, NoiseSpec("gaussian", None, DEFAULT_SIGMA_LAW), spawn_seed(18, "m", seed)
            )
            data = simulate(m, 2000, spawn_seed(18, "d", seed))
            if varsortability(g, empirical_variances(data)).v < 1.0:
                continue
            checked += 1
            assert sid(g, variance_sort_full(data)) == 0
            if checked >= 5:
                break
        assert checked >= 5


class TestMseGds:
    def test_independent_columns_empty(self):
        rng = np.random.default_rng(19)
        data = Dataset(rng.standard_normal((500, 4)), names(4))
        assert not mse_gds(data).w.any()

    def test_first_edge_toward_higher_variance_population(self):
        # sorted pair: (1 - w^2) Var(N_a) < Var(N_b) puts the edge a -> b first
        mat = np.zeros((2, 2))
        mat[0, 1] = 0.8
        m = LinearScm(dag_from_edges(2, [(0, 1)]), WeightedDag(mat), NoiseSpec("gaussian", np.array([1.0, 0.9])))
        west = mse_gds_from_cov(population_covariance(m), max_edges=1)
        assert west.w[0, 1] != 0.0 and west.w[1, 0] == 0.0

    def test_first_edge_reverses_when_condition_fails(self):
        # w=0.5, sigma=(2, 0.5): Var(a)=4 > Var(b)=1.5, first edge points a <- b
        mat = np.zeros((2, 2))
        mat[0, 1] = 0.5
        m = LinearScm(dag_from_edges(2, [(0, 1)]), WeightedDag(mat), NoiseSpec("gaussian", np.array([2.0, 0.5])))
        cov = population_covariance(m)
        assert cov[0, 0] > cov[1, 1]
        west = mse_gds_from_cov(cov, max_edges=1)
        assert west.w[1, 0] != 0.0 and west.w[0, 1] == 0.0

    def test_first_edge_matches_exact_mse_comparison(self):
        # derived oracle: single-edge residual totals computed by hand
        rng = substream(20, "t")
        for _ in range(25):
            w = DEFAULT_WEIGHT_LAW.sample(1, rng)[0]
            sa, sb = DEFAULT_SIGMA_LAW.sample(2, rng)
            mat = np.zeros((2, 2))
            mat[0, 1] = w
            m = LinearScm(dag_from_edges(2, [(0, 1)]), WeightedDag(mat), NoiseSpec("gaussian", np.array([sa, sb])))
            cov = population_covariance(m)
            mse_fwd = cov[0, 0] + cov[1, 1] - cov[0, 1] ** 2 / cov[0, 0]
            mse_bwd = cov[1, 1] + cov[0, 0] - cov[0, 1] ** 2 / cov[1, 1]
            west = mse_gds_from_cov(cov, max_edges=1)
            expected_forward = mse_fwd < mse_bwd
            assert (west.w[0, 1] != 0.0) == expected_forward

    def test_recovers_chain_from_population(self):
        mat = np.zeros((3, 3))
        mat[0, 1] = 1.2
        mat[1, 2] = 1.1
        m = LinearScm(dag_from_edges(3, [(0, 1), (1, 2)]), WeightedDag(mat), NoiseSpec("gaussian", np.ones(3)))
        west = mse_gds_from_cov(population_covariance(m))
        assert np.array_equal(west.support(), m.graph.adj)

    def test_max_edges_validation(self):
        rng = np.random.default_rng(21)
        data = Dataset(rng.standard_normal((100, 3)), names(3))
        with pytest.raises(ConfigurationError):
            mse_gds(data, max_edges=4)
