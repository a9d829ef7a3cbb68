import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from varsortbench.errors import ConfigurationError, UndefinedMetricError
from varsortbench.graphs import Dag, GraphSpec, dag_from_edges
from varsortbench.scm import (
    DEFAULT_SIGMA_LAW,
    DEFAULT_WEIGHT_LAW,
    Dataset,
    LinearScm,
    NoiseSpec,
    SigmaLaw,
    WeightLaw,
    WeightedDag,
    sample_linear_scm,
    simulate,
    standardize,
)
from varsortbench.varsort import (
    DEFAULT_TIE_TOL,
    empirical_variances,
    pairwise_bound_mc,
    population_varsortability,
    variance_profile,
    varsortability,
)

TRIANGLE = dag_from_edges(3, [(0, 1), (0, 2), (1, 2)])


class TestVarsortability:
    def test_headline_example(self):
        # edges 0->1, 0->2, 1->2 with variances (2, 1, 3): three of the four
        # length-counted paths point up the variance order
        report = varsortability(TRIANGLE, [2.0, 1.0, 3.0])
        assert report.v == pytest.approx(0.75)
        assert report.per_path_length == ((2.0, 3), (1.0, 1))
        assert report.n_paths == 4

    def test_all_equal_gives_half(self):
        assert varsortability(TRIANGLE, [1.0, 1.0, 1.0]).v == pytest.approx(0.5)

    def test_increasing_chain_is_one(self):
        g = dag_from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert varsortability(g, [1.0, 2.0, 3.0, 4.0]).v == 1.0

    def test_edgeless_graph_undefined(self):
        with pytest.raises(UndefinedMetricError):
            varsortability(dag_from_edges(3, []), [1.0, 2.0, 3.0])

    def test_input_validation(self):
        with pytest.raises(ConfigurationError):
            varsortability(TRIANGLE, [1.0, 2.0])
        with pytest.raises(ConfigurationError):
            varsortability(TRIANGLE, [1.0, -2.0, 3.0])

    def test_path_counting_is_multiplicity_free(self):
        # two distinct length-2 routes 0->1->3 and 0->2->3 count once for (0, 3)
        g = dag_from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        report = varsortability(g, [1.0, 2.0, 3.0, 4.0])
        assert report.per_path_length[1] == (1.0, 1)

    def test_reversal_antisymmetry(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            adj = np.triu(rng.random((5, 5)) < 0.5, k=1)
            if not adj.any():
                continue
            g = dag_from_edges(5, [tuple(e) for e in np.argwhere(adj)])
            rev = Dag(g.adj.T.copy())
            variances = rng.uniform(0.5, 3.0, size=5)
            total = varsortability(g, variances).v + varsortability(rev, variances).v
            assert total == pytest.approx(1.0)

    def test_monotone_relabel_invariance(self):
        rng = np.random.default_rng(5)
        variances = rng.uniform(0.5, 3.0, size=3)
        base = varsortability(TRIANGLE, variances).v
        for transform in (np.exp, np.sqrt, lambda x: 3 * x + 1):
            assert varsortability(TRIANGLE, transform(variances)).v == base


class TestEmpiricalVariances:
    def test_constant_column_is_zero(self):
        data = Dataset(np.column_stack([np.ones(10), np.arange(10.0)]), ("a", "b"))
        assert empirical_variances(data)[0] == 0.0

    def test_standardized_is_ones(self):
        rng = np.random.default_rng(6)
        data = standardize(Dataset(rng.normal(2.0, 3.0, size=(500, 4)), tuple("abcd")))
        assert np.allclose(empirical_variances(data), 1.0, atol=1e-12)

    def test_two_node_population_values(self):
        mat = np.zeros((2, 2))
        mat[0, 1] = 1.0
        m = LinearScm(dag_from_edges(2, [(0, 1)]), WeightedDag(mat), NoiseSpec("gaussian", np.ones(2)))
        data = simulate(m, 100_000, 21)
        assert np.allclose(empirical_variances(data), [1.0, 2.0], atol=0.05)

    def test_standardized_data_scores_one_half(self):
        # exact unit variances make every path comparison a tie
        g = dag_from_edges(4, [(0, 1), (1, 2), (0, 3)])
        mat = np.zeros((4, 4))
        mat[0, 1], mat[1, 2], mat[0, 3] = 1.4, -0.8, 0.9
        m = LinearScm(g, WeightedDag(mat), NoiseSpec("gaussian", np.ones(4)))
        data = standardize(simulate(m, 5000, 22))
        assert varsortability(g, empirical_variances(data)).v == 0.5


class TestPopulationVarsortability:
    def test_chain_fixture_two_thirds(self):
        g = dag_from_edges(3, [(0, 1), (1, 2)])
        w = np.zeros((3, 3))
        w[0, 1] = 1.0
        w[1, 2] = np.sqrt(2.0 / 3.0)
        m = LinearScm(g, WeightedDag(w), NoiseSpec("gaussian", np.sqrt([4.0, 2.0, 1.0])))
        assert population_varsortability(m).v == pytest.approx(2.0 / 3.0)

    def test_shared_parent_fixture_is_one(self):
        w = np.zeros((3, 3))
        w[0, 1] = 1.0
        w[0, 2] = w[1, 2] = 1.0 / np.sqrt(2.0)
        m = LinearScm(TRIANGLE, WeightedDag(w), NoiseSpec("gaussian", np.sqrt([4.0, 3.0, 1.0])))
        assert population_varsortability(m).v == 1.0

    def test_two_node_condition(self):
        # (1 - w^2) Var(N_a) < Var(N_b) makes the pair sorted
        for w, sa, sb in [(0.8, 1.0, 0.9), (1.5, 2.0, 0.5), (0.9, 1.0, 1.0)]:
            assert (1 - w**2) * sa**2 < sb**2
            mat = np.zeros((2, 2))
            mat[0, 1] = w
            m = LinearScm(
                dag_from_edges(2, [(0, 1)]), WeightedDag(mat), NoiseSpec("gaussian", np.array([sa, sb]))
            )
            assert population_varsortability(m).v == 1.0

    def test_empirical_matches_population_away_from_ties(self):
        for seed in range(5):
            g = dag_from_edges(4, [(0, 1), (1, 2), (0, 3)])
            m = sample_linear_scm(
                g, DEFAULT_WEIGHT_LAW, NoiseSpec("gaussian", None, DEFAULT_SIGMA_LAW), 100 + seed
            )
            pop = population_varsortability(m)
            variances = np.diag(__import__("varsortbench.scm", fromlist=["population_covariance"]).population_covariance(m))
            gaps = np.abs(variances[:, None] - variances[None, :]) / np.maximum(variances[:, None], variances[None, :])
            np.fill_diagonal(gaps, 1.0)
            if gaps.min() < 0.01:
                continue
            data = simulate(m, 100_000, 200 + seed)
            emp = varsortability(g, empirical_variances(data))
            assert emp.v == pop.v


class TestPairwiseBound:
    def test_always_satisfied_when_weights_exceed_one(self):
        law = WeightLaw.symmetric(1.1, 2.0)
        noise = NoiseSpec("gaussian", None, SigmaLaw.uniform(0.5, 2.0))
        assert pairwise_bound_mc(law, noise, 10_000, 1) == 1.0

    def test_zero_when_no_noise_and_small_weights(self):
        law = WeightLaw.symmetric(0.1, 0.9)
        noise = NoiseSpec("gaussian", None, SigmaLaw.fixed(0.0))
        assert pairwise_bound_mc(law, noise, 10_000, 2) == 0.0

    def test_default_laws_exceed_093(self):
        noise = NoiseSpec("gaussian", None, DEFAULT_SIGMA_LAW)
        assert pairwise_bound_mc(DEFAULT_WEIGHT_LAW, noise, 200_000, 3) >= 0.925

    def test_deterministic(self):
        noise = NoiseSpec("gaussian", None, DEFAULT_SIGMA_LAW)
        a = pairwise_bound_mc(DEFAULT_WEIGHT_LAW, noise, 1000, 4)
        assert a == pairwise_bound_mc(DEFAULT_WEIGHT_LAW, noise, 1000, 4)


class TestVarianceProfile:
    def test_single_edge_graphs_increase(self):
        spec = GraphSpec("ER", 2, 1)  # the one edge always appears
        law = WeightLaw.symmetric(1.1, 2.0)
        noise = NoiseSpec("gaussian", None, SigmaLaw.uniform(0.5, 2.0))
        profile = variance_profile(spec, law, noise, reps=100, seed=5)
        assert profile[1] > profile[0]

    def test_flat_for_near_empty_graphs(self):
        # sigma fixed at 1: position means stay near 1 + accumulated signal
        spec = GraphSpec("ER", 4, 1)
        noise = NoiseSpec("gaussian", None, SigmaLaw.fixed(1.0))
        profile = variance_profile(spec, WeightLaw.symmetric(0.5, 2.0), noise, reps=50, seed=6)
        assert profile[0] == pytest.approx(1.0, abs=1e-12)

    def test_steep_increase_along_order(self):
        spec = GraphSpec("ER", 30, 2)
        noise = NoiseSpec("gaussian", None, SigmaLaw.uniform(0.5, 2.0))
        profile = variance_profile(spec, DEFAULT_WEIGHT_LAW, noise, reps=200, seed=7)
        assert profile[-1] / profile[0] > 10

    @pytest.mark.slow
    def test_strictly_increasing_at_high_reps(self):
        # position-to-position strictness needs ~5000 reps; the averaged
        # variances are heavy-tailed and 200 reps leave adjacent dips
        spec = GraphSpec("ER", 30, 2)
        noise = NoiseSpec("gaussian", None, SigmaLaw.uniform(0.5, 2.0))
        profile = variance_profile(spec, DEFAULT_WEIGHT_LAW, noise, reps=5000, seed=7)
        assert np.all(np.diff(profile) > 0)
        assert profile[-1] / profile[0] > 10

    def test_n_positions_truncates(self):
        spec = GraphSpec("ER", 5, 1)
        noise = NoiseSpec("gaussian", None, SigmaLaw.fixed(1.0))
        profile = variance_profile(spec, DEFAULT_WEIGHT_LAW, noise, reps=10, n_positions=3, seed=8)
        assert profile.shape == (3,)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=3, max_size=3),
    st.floats(min_value=0.1, max_value=5.0),
)
def test_property_scaling_variances_preserves_value(variances, factor):
    report = varsortability(TRIANGLE, variances)
    scaled = varsortability(TRIANGLE, [v * factor for v in variances])
    assert scaled.v == report.v


def per_path_length_reference(adj, variances, tol=DEFAULT_TIE_TOL):
    """(sortable, path count) for every length 1 .. d - 1 from int64
    adjacency powers, each taken whether or not the one before was empty."""
    ratio = variances[None, :] / variances[:, None]
    increasing = ratio > 1.0 + tol
    tied = ~increasing & (ratio > 1.0 - tol)
    power, out = adj.copy(), []
    for _ in range(adj.shape[0] - 1):
        n_paths = int(power.sum())
        if n_paths == 0:
            out.append((0.0, 0))
        else:
            out.append((float((power & increasing).sum()) + 0.5 * float((power & tied).sum()), n_paths))
        power = (power.astype(np.int64) @ adj.astype(np.int64)) > 0
    return tuple(out)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=2, max_value=9),
    st.integers(min_value=2, max_value=9),
    st.floats(min_value=0.1, max_value=1.0),
    st.integers(min_value=0, max_value=10_000),
)
def test_property_per_path_length_matches_reference(d, layers, p, seed):
    # Edges only run from a lower to a higher of ``layers`` layers, so the
    # longest path is often far shorter than d - 1; three variance levels,
    # some nudged within the tie tolerance, make ties common.
    rng = np.random.default_rng(seed)
    layer = rng.integers(0, layers, size=d)
    adj = (layer[:, None] < layer[None, :]) & (rng.random((d, d)) < p)
    assume(adj.any())
    variances = rng.integers(1, 4, size=d) * (1.0 + rng.choice([0.0, 1e-12], size=d))
    report = varsortability(Dag(adj), variances)
    expected = per_path_length_reference(adj, variances)
    assert report.per_path_length == expected
    assert report.v == sum(s for s, _ in expected) / sum(c for _, c in expected)
