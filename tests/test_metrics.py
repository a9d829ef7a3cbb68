import numpy as np
import pytest

from varsortbench.contlearn import enumerate_3node_dags
from varsortbench.errors import ConfigurationError, MecSizeError
from varsortbench.graphs import (
    Cpdag,
    Dag,
    GraphSpec,
    dag_from_edges,
    dag_to_cpdag,
    enumerate_mec,
    sample_er_dag,
)
from varsortbench.metrics import (
    favorable_threshold_shd,
    shd,
    shd_cpdag,
    sid,
    sid_cpdag_bounds,
    sid_oracle_linear,
)
from varsortbench.rng import substream
from varsortbench.scm import WeightedDag

CHAIN = dag_from_edges(3, [(0, 1), (1, 2)])
COLLIDER = dag_from_edges(3, [(0, 1), (2, 1)])
EMPTY3 = dag_from_edges(3, [])


class TestShd:
    def test_identical_is_zero(self):
        assert shd(CHAIN, CHAIN) == 0

    def test_single_reversal_costs_one(self):
        a = dag_from_edges(2, [(0, 1)])
        b = dag_from_edges(2, [(1, 0)])
        assert shd(a, b) == 1

    def test_missing_plus_spurious(self):
        truth = dag_from_edges(4, [(0, 1)])
        est = dag_from_edges(4, [(2, 3)])
        assert shd(truth, est) == 2

    def test_symmetric(self):
        rng = substream(0, "t")
        for _ in range(10):
            a = sample_er_dag(GraphSpec("ER", 6, 2), int(rng.integers(2**62)))
            b = sample_er_dag(GraphSpec("ER", 6, 2), int(rng.integers(2**62)))
            assert shd(a, b) == shd(b, a)

    def test_dimension_mismatch(self):
        with pytest.raises(ConfigurationError):
            shd(CHAIN, dag_from_edges(2, []))


class TestShdCpdag:
    def test_roundtrip_is_zero(self):
        c = dag_to_cpdag(CHAIN)
        member = enumerate_mec(c)[0]
        assert shd_cpdag(c, dag_to_cpdag(member)) == 0

    def test_undirected_vs_directed_is_one(self):
        und = np.zeros((2, 2), dtype=bool)
        und[0, 1] = und[1, 0] = True
        c_und = Cpdag(np.zeros((2, 2), dtype=bool), und)
        directed = np.zeros((2, 2), dtype=bool)
        directed[0, 1] = True
        c_dir = Cpdag(directed, np.zeros((2, 2), dtype=bool))
        assert shd_cpdag(c_und, c_dir) == 1

    def test_collider_vs_chain_is_two(self):
        assert shd_cpdag(dag_to_cpdag(COLLIDER), dag_to_cpdag(CHAIN)) == 2


class TestSid:
    def test_identical_is_zero(self):
        for g in (CHAIN, COLLIDER, EMPTY3):
            assert sid(g, g) == 0

    def test_chain_vs_empty(self):
        # anti-causal pairs are falsely inferred, causal pairs are fine
        value = sid(CHAIN, EMPTY3)
        assert value == sid_oracle_linear(CHAIN, EMPTY3, trials=5, seed=1)
        assert value == 3

    def test_reversed_edge_counts_both_pairs(self):
        truth = dag_from_edges(2, [(0, 1)])
        est = dag_from_edges(2, [(1, 0)])
        assert sid(truth, est) == 2
        assert sid_oracle_linear(truth, est, trials=5, seed=2) == 2

    def test_relabel_invariance(self):
        rng = substream(3, "t")
        for _ in range(10):
            a = sample_er_dag(GraphSpec("ER", 5, 2), int(rng.integers(2**62)))
            b = sample_er_dag(GraphSpec("ER", 5, 2), int(rng.integers(2**62)))
            perm = rng.permutation(5)
            a2 = Dag(a.adj[np.ix_(perm, perm)])
            b2 = Dag(b.adj[np.ix_(perm, perm)])
            assert sid(a, b) == sid(a2, b2)

    def test_bounded_by_ordered_pairs(self):
        rng = substream(4, "t")
        for _ in range(10):
            a = sample_er_dag(GraphSpec("ER", 5, 2), int(rng.integers(2**62)))
            b = sample_er_dag(GraphSpec("ER", 5, 2), int(rng.integers(2**62)))
            assert 0 <= sid(a, b) <= 20

    def test_matches_oracle_on_random_pairs(self):
        rng = substream(5, "t")
        for _ in range(60):
            a = sample_er_dag(GraphSpec("ER", 4, 1), int(rng.integers(2**62)))
            b = sample_er_dag(GraphSpec("ER", 4, 1), int(rng.integers(2**62)))
            assert sid(a, b) == sid_oracle_linear(a, b, trials=5, seed=int(rng.integers(2**62)))


class TestSidCpdagBounds:
    def test_singleton_class_of_collider(self):
        assert sid_cpdag_bounds(COLLIDER, dag_to_cpdag(COLLIDER)) == (0, 0)

    def test_two_node_class(self):
        truth = dag_from_edges(2, [(0, 1)])
        low, high = sid_cpdag_bounds(truth, dag_to_cpdag(truth))
        assert (low, high) == (0, 2)

    def test_bounds_cover_members(self):
        rng = substream(6, "t")
        for _ in range(8):
            truth = sample_er_dag(GraphSpec("ER", 5, 2), int(rng.integers(2**62)))
            est = sample_er_dag(GraphSpec("ER", 5, 2), int(rng.integers(2**62)))
            c = dag_to_cpdag(est)
            low, high = sid_cpdag_bounds(truth, c)
            assert low <= high
            for member in enumerate_mec(c):
                assert low <= sid(truth, member) <= high

    def test_cap_propagates(self):
        und = np.ones((5, 5), dtype=bool)
        np.fill_diagonal(und, False)
        dense = Cpdag(np.zeros((5, 5), dtype=bool), und)
        with pytest.raises(MecSizeError):
            sid_cpdag_bounds(dag_from_edges(5, [(0, 1)]), dense, cap=5)


class TestFavorableThreshold:
    def test_exact_truth_needs_no_threshold(self):
        truth = dag_from_edges(3, [(0, 1), (1, 2)])
        w = np.zeros((3, 3))
        w[0, 1] = 0.8
        w[1, 2] = -0.6
        omega, value = favorable_threshold_shd(WeightedDag(w), truth)
        assert omega == 0.0
        assert value == 0

    def test_dense_noise_pruned_fully(self):
        truth = dag_from_edges(3, [])
        rng = substream(7, "t")
        w = rng.uniform(-0.2, 0.2, size=(3, 3))
        np.fill_diagonal(w, 0.0)
        omega, value = favorable_threshold_shd(WeightedDag(w), truth)
        assert value == 0
        assert omega > np.abs(w).max()

    def test_never_worse_than_fixed_threshold(self):
        from varsortbench.contlearn import threshold_and_break_cycles

        rng = substream(8, "t")
        for _ in range(10):
            truth = sample_er_dag(GraphSpec("ER", 5, 2), int(rng.integers(2**62)))
            w = rng.standard_normal((5, 5)) * 0.4
            np.fill_diagonal(w, 0.0)
            west = WeightedDag(w)
            _, best = favorable_threshold_shd(west, truth)
            fixed = shd(truth, threshold_and_break_cycles(west, 0.3))
            assert best <= fixed

