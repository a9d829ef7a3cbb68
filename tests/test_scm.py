import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from varsortbench.errors import ConfigurationError, DataError, DegenerateDataError, IntegrityError
from varsortbench.graphs import Dag, dag_from_edges
from varsortbench.rng import substream
from varsortbench.scm import (
    DEFAULT_SIGMA_LAW,
    DEFAULT_WEIGHT_LAW,
    Dataset,
    LinearScm,
    NoiseSpec,
    SigmaLaw,
    WeightLaw,
    WeightedDag,
    harmonize_scales,
    population_covariance,
    sample_linear_scm,
    scm_from_json,
    scm_to_json,
    simulate,
    standardize,
)


def two_node_scm(w=1.0, sigmas=(1.0, 1.0), kind="gaussian"):
    mat = np.zeros((2, 2))
    mat[0, 1] = w
    return LinearScm(
        dag_from_edges(2, [(0, 1)]), WeightedDag(mat), NoiseSpec(kind, np.asarray(sigmas, float))
    )


class TestLaws:
    def test_weight_law_bounds(self):
        draws = DEFAULT_WEIGHT_LAW.sample(10_000, substream(0, "t"))
        assert np.all((np.abs(draws) >= 0.5) & (np.abs(draws) <= 2.0))

    def test_weight_law_tail_probability(self):
        # |W| > 1 with probability 2/3 under the default union of intervals
        draws = DEFAULT_WEIGHT_LAW.sample(100_000, substream(1, "t"))
        assert abs(np.mean(np.abs(draws) > 1.0) - 2.0 / 3.0) < 0.01

    def test_weight_law_excludes_zero(self):
        with pytest.raises(ConfigurationError):
            WeightLaw(((-1.0, 1.0),))
        with pytest.raises(ConfigurationError):
            WeightLaw(((2.0, 0.5),))

    def test_sigma_law(self):
        assert np.all(SigmaLaw.fixed(1.0).sample(5, substream(2, "t")) == 1.0)
        draws = SigmaLaw.uniform(0.5, 2.0).sample(1000, substream(3, "t"))
        assert np.all((draws >= 0.5) & (draws <= 2.0))
        with pytest.raises(ConfigurationError):
            SigmaLaw.uniform(2.0, 0.5)


class TestTypes:
    def test_weighted_dag_support(self):
        w = np.zeros((2, 2))
        w[0, 1] = 0.4
        assert WeightedDag(w).is_dag_supported()
        w[1, 0] = 0.2
        assert not WeightedDag(w).is_dag_supported()

    def test_scm_support_must_match_graph(self):
        g = dag_from_edges(2, [(0, 1)])
        with pytest.raises(IntegrityError):
            LinearScm(g, WeightedDag(np.zeros((2, 2))), NoiseSpec("gaussian", np.ones(2)))

    def test_noise_sigma_positive(self):
        with pytest.raises(ConfigurationError):
            NoiseSpec("gaussian", np.array([1.0, 0.0]))

    def test_dataset_validation(self):
        with pytest.raises(DataError):
            Dataset(np.array([[1.0, np.nan]]), ("a", "b"))
        with pytest.raises(ConfigurationError):
            Dataset(np.ones((3, 2)), ("a",))

    def test_dataset_covariance_is_cached_read_only_and_exact(self):
        x = substream(15, "t").normal(size=(300, 4)) * np.array([1.0, 2.0, 0.5, 3.0]) + 7.0
        data = Dataset(x, ("a", "b", "c", "d"))
        cov = data.covariance
        assert data.covariance is cov
        assert not cov.flags.writeable
        with pytest.raises(ValueError):
            cov[0, 0] = 0.0
        xc = data.x - data.x.mean(axis=0)
        assert np.array_equal(cov, xc.T @ xc / data.n)


class TestSampleLinearScm:
    def test_empty_graph_zero_weights(self):
        g = dag_from_edges(3, [])
        m = sample_linear_scm(g, DEFAULT_WEIGHT_LAW, NoiseSpec("gaussian", None, DEFAULT_SIGMA_LAW), 0)
        assert not m.weights.w.any()

    def test_weights_in_law_range(self):
        g = dag_from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        m = sample_linear_scm(g, DEFAULT_WEIGHT_LAW, NoiseSpec("gaussian", None, DEFAULT_SIGMA_LAW), 1)
        values = m.weights.w[m.graph.adj]
        assert np.all((np.abs(values) >= 0.5) & (np.abs(values) <= 2.0))


def sample_linear_scm_reference(g, weight_law, noise_law, seed):
    """``sample_linear_scm`` as a loop over edges, on the same draws."""
    rng = substream(seed, "scm", "parameters")
    w = np.zeros((g.d, g.d))
    edges = g.edges()
    if edges:
        draws = weight_law.sample(len(edges), rng)
        for (i, j), value in zip(edges, draws):
            w[i, j] = value
    noise = noise_law.realize(g.d, rng)
    return LinearScm(g, WeightedDag(w), noise)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=40),
    st.floats(min_value=0.0, max_value=1.0),
    st.sampled_from([DEFAULT_WEIGHT_LAW, WeightLaw(((0.2, 0.4), (-3.0, -1.0), (1.0, 1.5)))]),
    st.integers(min_value=0, max_value=10_000),
)
def test_property_scm_sampler_matches_reference(d, p, weight_law, seed):
    # Graphs without edges included (p = 0 or d = 1): they must draw no weights.
    rng = np.random.default_rng(seed)
    perm = rng.permutation(d)
    g = Dag(np.triu(rng.random((d, d)) < p, 1)[np.ix_(perm, perm)])
    noise = NoiseSpec("gaussian", None, DEFAULT_SIGMA_LAW)
    got = sample_linear_scm(g, weight_law, noise, seed)
    expected = sample_linear_scm_reference(g, weight_law, noise, seed)
    assert np.array_equal(got.weights.w, expected.weights.w)
    assert np.array_equal(got.noise.sigma, expected.noise.sigma)


class TestSimulate:
    def test_pure_noise_variance(self):
        g = dag_from_edges(3, [])
        m = LinearScm(g, WeightedDag(np.zeros((3, 3))), NoiseSpec("gaussian", np.ones(3)))
        data = simulate(m, 100_000, 7)
        assert np.allclose(data.x.var(axis=0), 1.0, atol=0.02)

    def test_two_node_variance_propagates(self):
        data = simulate(two_node_scm(w=1.0), 100_000, 8)
        assert abs(data.x[:, 1].var() - 2.0) < 0.05

    def test_deterministic(self):
        m = two_node_scm(w=1.5)
        a = simulate(m, 500, 9)
        b = simulate(m, 500, 9)
        assert np.array_equal(a.x, b.x)
        assert not np.array_equal(a.x, simulate(m, 500, 10).x)

    @pytest.mark.parametrize("kind", ["gaussian", "exponential", "gumbel"])
    def test_noise_kinds_are_variance_normalized(self, kind):
        m = two_node_scm(w=0.8, sigmas=(1.3, 0.7), kind=kind)
        data = simulate(m, 100_000, 11)
        expected = np.diag(population_covariance(m))
        assert np.allclose(data.x.var(axis=0), expected, rtol=0.05)
        assert np.allclose(data.x.mean(axis=0), 0.0, atol=0.05)


class TestPopulationCovariance:
    def test_chain_fixture(self):
        g = dag_from_edges(3, [(0, 1), (1, 2)])
        w = np.zeros((3, 3))
        w[0, 1] = 1.0
        w[1, 2] = np.sqrt(2.0 / 3.0)
        m = LinearScm(g, WeightedDag(w), NoiseSpec("gaussian", np.sqrt([4.0, 2.0, 1.0])))
        assert np.allclose(np.diag(population_covariance(m)), [4.0, 6.0, 5.0], atol=1e-10)

    def test_shared_parent_fixture(self):
        g = dag_from_edges(3, [(0, 1), (0, 2), (1, 2)])
        w = np.zeros((3, 3))
        w[0, 1] = 1.0
        w[0, 2] = 1.0 / np.sqrt(2.0)
        w[1, 2] = 1.0 / np.sqrt(2.0)
        m = LinearScm(g, WeightedDag(w), NoiseSpec("gaussian", np.sqrt([4.0, 3.0, 1.0])))
        assert np.allclose(np.diag(population_covariance(m)), [4.0, 7.0, 10.5], atol=1e-10)

    def test_empty_graph_is_noise_diag(self):
        g = dag_from_edges(2, [])
        m = LinearScm(g, WeightedDag(np.zeros((2, 2))), NoiseSpec("gaussian", np.array([1.5, 0.5])))
        assert np.allclose(population_covariance(m), np.diag([2.25, 0.25]))

    def test_matches_sample_covariance(self):
        for kind in ("gaussian", "exponential", "gumbel"):
            g = dag_from_edges(4, [(0, 1), (1, 2), (0, 3), (2, 3)])
            m = sample_linear_scm(g, DEFAULT_WEIGHT_LAW, NoiseSpec(kind, None, DEFAULT_SIGMA_LAW), 13)
            data = simulate(m, 100_000, 14)
            assert np.allclose(data.x.var(axis=0), np.diag(population_covariance(m)), rtol=0.05)


class TestStandardize:
    def test_unit_moments(self):
        data = simulate(two_node_scm(w=1.2), 400, 15)
        out = standardize(data)
        assert np.allclose(out.x.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(out.x.var(axis=0), 1.0, atol=1e-12)

    def test_idempotent(self):
        data = simulate(two_node_scm(w=1.2), 400, 16)
        once = standardize(data)
        twice = standardize(once)
        assert np.allclose(once.x, twice.x, atol=1e-12)

    def test_scale_invariant(self):
        data = simulate(two_node_scm(w=1.2), 400, 17)
        scaled = Dataset(data.x * np.array([10.0, 1.0]), data.names)
        assert np.allclose(standardize(scaled).x, standardize(data).x, atol=1e-12)

    def test_constant_column_rejected(self):
        with pytest.raises(DegenerateDataError):
            standardize(Dataset(np.column_stack([np.ones(5), np.arange(5.0)]), ("a", "b")))


class TestHarmonizeScales:
    def test_empty_graph_unchanged(self):
        g = dag_from_edges(2, [])
        m = LinearScm(g, WeightedDag(np.zeros((2, 2))), NoiseSpec("gaussian", np.ones(2)))
        assert np.array_equal(harmonize_scales(m).weights.w, m.weights.w)

    def test_single_edge_formula(self):
        m = two_node_scm(w=2.0)
        out = harmonize_scales(m)
        assert out.weights.w[0, 1] == pytest.approx(2.0 / np.sqrt(5.0))

    def test_preserves_support_and_signs(self):
        g = dag_from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        m = sample_linear_scm(g, DEFAULT_WEIGHT_LAW, NoiseSpec("gaussian", None, DEFAULT_SIGMA_LAW), 18)
        out = harmonize_scales(m)
        assert np.array_equal(out.weights.support(), m.weights.support())
        assert np.all(np.sign(out.weights.w) == np.sign(m.weights.w))
        assert np.array_equal(out.noise.sigma, m.noise.sigma)


class TestJsonExport:
    def test_roundtrip(self):
        m = two_node_scm(w=-0.75, sigmas=(1.0, 0.5), kind="gumbel")
        again = scm_from_json(scm_to_json(m))
        assert np.array_equal(again.weights.w, m.weights.w)
        assert again.noise.kind == "gumbel"
        assert np.allclose(again.noise.sigma, m.noise.sigma)

    def test_zero_weight_rejected(self):
        with pytest.raises(ConfigurationError):
            scm_from_json({"d": 2, "edges": [[0, 1, 0.0]], "noise": {"kind": "gaussian", "sigma": [1, 1]}})
