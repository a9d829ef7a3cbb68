import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from varsortbench.contlearn import enumerate_3node_dags
from varsortbench.errors import ConfigurationError, MecSizeError
from varsortbench.graphs import (
    Cpdag,
    Dag,
    GraphSpec,
    dag_from_edges,
    d_separated_adj,
    dag_to_cpdag,
    enumerate_mec,
    sample_dag,
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


def reflexive_closure(adj):
    """reach[k, j]: j is k or a descendant of k, by one depth-first search per node."""
    d = adj.shape[0]
    reach = np.eye(d, dtype=bool)
    for start in range(d):
        stack = [start]
        while stack:
            for v in np.flatnonzero(adj[stack.pop()]):
                if not reach[start, v]:
                    reach[start, v] = True
                    stack.append(int(v))
    return reach


def adjustment_valid_reference(adj, reach_refl, i, j, zset):
    """Generalized adjustment criterion, one pair at a time: no element of Z
    may descend from a node (other than i) on a directed path from i to j,
    and Z must d-separate i and j once the first edges of those paths are
    removed."""
    on_path = reach_refl[i] & reach_refl[:, j]
    on_path[i] = False
    pruned = adj.copy()
    if on_path.any():
        if any(reach_refl[on_path].any(axis=0)[z] for z in zset):
            return False
        pruned[i, on_path] = False
    return d_separated_adj(pruned, i, j, zset)


def sid_reference(g_true, g_est):
    """The per-pair criterion, one d-separation call per ordered pair."""
    reach_refl = reflexive_closure(g_true.adj)
    mistakes = 0
    for i in range(g_true.d):
        zset = [int(v) for v in g_est.parents(i)]
        for j in range(g_true.d):
            if j == i:
                continue
            if j in zset:
                mistakes += bool(reach_refl[i, j])
            else:
                mistakes += not adjustment_valid_reference(g_true.adj, reach_refl, i, j, zset)
    return mistakes


def shd_reference(g_true, g_est):
    """Edit distance by a loop over unordered pairs."""
    t, e = g_true.adj, g_est.adj
    return sum(
        (t[i, j], t[j, i]) != (e[i, j], e[j, i])
        for i in range(g_true.d)
        for j in range(i + 1, g_true.d)
    )


def shd_cpdag_reference(c_true, c_est):
    """Class edit distance by a loop over unordered pairs, each pair's
    status read as absent, undirected, i -> j or j -> i."""

    def status(c, i, j):
        if c.undirected[i, j]:
            return 1
        if c.directed[i, j]:
            return 2
        if c.directed[j, i]:
            return 3
        return 0

    return sum(
        status(c_true, i, j) != status(c_est, i, j)
        for i in range(c_true.d)
        for j in range(i + 1, c_true.d)
    )


def sid_oracle_reference(g_true, g_est, trials=5, seed=0):
    """The linear oracle with one solve per ordered pair (same draws)."""
    d = g_true.d
    rng = substream(seed, "metrics", "sid_oracle")
    mistaken = np.zeros((d, d), dtype=bool)
    completed = attempts = 0
    while completed < trials:
        attempts += 1
        assert attempts <= 100 * trials
        w = np.zeros((d, d))
        for i, j in g_true.edges():
            magnitude = rng.uniform(0.5, 2.0)
            w[i, j] = magnitude * (1 if rng.random() < 0.5 else -1)
        sigma = rng.uniform(0.5, 2.0, size=d)
        minv = np.linalg.inv(np.eye(d) - w.T)
        cov = minv @ np.diag(sigma**2) @ minv.T
        effects = np.linalg.inv(np.eye(d) - w)
        trial_mistakes = []
        try:
            for i in range(d):
                regressors = [i] + [int(v) for v in g_est.parents(i)]
                gram = cov[np.ix_(regressors, regressors)]
                for j in range(d):
                    if j == i or mistaken[i, j]:
                        continue
                    coef = np.linalg.solve(gram, cov[regressors, j])[0]
                    if abs(coef - effects[i, j]) > 1e-8 * max(1.0, abs(effects[i, j])):
                        trial_mistakes.append((i, j))
        except np.linalg.LinAlgError:
            continue
        for i, j in trial_mistakes:
            mistaken[i, j] = True
        completed += 1
    return int(mistaken.sum())


def random_dag_adj(rng, d, p):
    """Edges between positions of a random order, each with probability p."""
    perm = rng.permutation(d)
    upper = np.triu(rng.random((d, d)) < p, k=1)
    adj = np.zeros((d, d), dtype=bool)
    adj[np.ix_(perm, perm)] = upper
    return adj


small_pairs = dict(
    d=st.integers(min_value=2, max_value=8),
    p=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)


@settings(max_examples=300, deadline=None)
@given(q=st.floats(min_value=0.0, max_value=1.0), **small_pairs)
def test_property_sid_matches_reference_independent_estimate(d, p, q, seed):
    rng = np.random.default_rng(seed)
    g, h = Dag(random_dag_adj(rng, d, p)), Dag(random_dag_adj(rng, d, q))
    assert sid(g, h) == sid_reference(g, h)


@settings(max_examples=300, deadline=None)
@given(flips=st.integers(min_value=1, max_value=3), **small_pairs)
def test_property_sid_matches_reference_perturbed_truth(d, p, flips, seed):
    # Most parent sets stay equal to the truth's, so the shortcut for a
    # row whose parents match fires next to rows that need the search.
    rng = np.random.default_rng(seed)
    adj = random_dag_adj(rng, d, p)
    est = adj.copy()
    for _ in range(flips):
        a, b = rng.choice(d, size=2, replace=False)
        est[a, b] = not est[a, b]
    assume(not (est @ reflexive_closure(est)).diagonal().any())  # no edge closes a cycle
    g, h = Dag(adj), Dag(est)
    assert sid(g, h) == sid_reference(g, h)


@settings(max_examples=300, deadline=None)
@given(keep=st.floats(min_value=0.0, max_value=1.0), **small_pairs)
def test_property_sid_matches_reference_thinned_complete_order(d, p, keep, seed):
    # Like varsort-full: every pair oriented along one order, some dropped.
    rng = np.random.default_rng(seed)
    g, h = Dag(random_dag_adj(rng, d, p)), Dag(random_dag_adj(rng, d, 1.0) & (rng.random((d, d)) < keep))
    assert sid(g, h) == sid_reference(g, h)


@settings(max_examples=100, deadline=None)
@given(**small_pairs)
def test_property_sid_of_truth_is_zero(d, p, seed):
    g = Dag(random_dag_adj(np.random.default_rng(seed), d, p))
    assert sid(g, g) == 0


def estimate_like(kind, rng, adj, q):
    """An estimate of the truth ``adj``: drawn independently with edge
    probability ``q``, the truth with 1-3 entries flipped (``None`` if that
    closes a cycle), a complete order thinned to a share ``q``, or empty."""
    d = adj.shape[0]
    if kind == "independent":
        return random_dag_adj(rng, d, q)
    if kind == "flipped":
        est = adj.copy()
        for _ in range(int(rng.integers(1, 4))):
            a, b = rng.choice(d, size=2, replace=False)
            est[a, b] = not est[a, b]
        return None if (est @ reflexive_closure(est)).diagonal().any() else est
    if kind == "thinned":
        return random_dag_adj(rng, d, 1.0) & (rng.random((d, d)) < q)
    return np.zeros((d, d), dtype=bool)


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(["independent", "flipped", "thinned", "empty"]),
    d=st.integers(min_value=2, max_value=10),
    p=st.floats(min_value=0.0, max_value=1.0),
    q=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_property_shd_cpdag_matches_reference(kind, d, p, q, seed):
    rng = np.random.default_rng(seed)
    adj = random_dag_adj(rng, d, p)
    est = estimate_like(kind, rng, adj, q)
    assume(est is not None)
    c, e = dag_to_cpdag(Dag(adj)), dag_to_cpdag(Dag(est))
    assert shd_cpdag(c, e) == shd_cpdag_reference(c, e)
    assert shd_cpdag(e, c) == shd_cpdag(c, e)


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(["independent", "flipped", "thinned", "empty"]),
    d=st.integers(min_value=2, max_value=12),
    p=st.floats(min_value=0.0, max_value=1.0),
    q=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_property_shd_matches_reference(kind, d, p, q, seed):
    # "flipped" and "thinned" estimates reverse true edges.
    rng = np.random.default_rng(seed)
    adj = random_dag_adj(rng, d, p)
    est = estimate_like(kind, rng, adj, q)
    assume(est is not None)
    g, h = Dag(adj), Dag(est)
    assert shd(g, h) == shd_reference(g, h)
    assert shd(h, g) == shd(g, h)


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(["independent", "flipped", "thinned", "empty"]),
    d=st.integers(min_value=2, max_value=10),
    p=st.floats(min_value=0.0, max_value=1.0),
    q=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_property_sid_oracle_matches_per_pair_reference(kind, d, p, q, seed):
    rng = np.random.default_rng(seed)
    adj = random_dag_adj(rng, d, p)
    est = estimate_like(kind, rng, adj, q)
    assume(est is not None)
    g, h = Dag(adj), Dag(est)
    oracle_seed = int(rng.integers(2**62))
    assert sid_oracle_linear(g, h, seed=oracle_seed) == sid_oracle_reference(g, h, seed=oracle_seed)


def test_sid_oracle_matches_per_pair_reference_at_d40():
    rng = np.random.default_rng(40)
    for kind in ("thinned", "thinned", "empty", "empty"):
        adj = random_dag_adj(rng, 40, 0.1)
        g, h = Dag(adj), Dag(estimate_like(kind, rng, adj, 0.8))
        oracle_seed = int(rng.integers(2**62))
        expected = sid_oracle_reference(g, h, seed=oracle_seed)
        assert sid_oracle_linear(g, h, seed=oracle_seed) == expected == sid(g, h)


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
        for spec in (GraphSpec("ER", 20, 2), GraphSpec("SF", 25, 2), GraphSpec("ER", 30, 1)):
            a = sample_dag(spec, int(rng.integers(2**62)))
            b = sample_dag(spec, int(rng.integers(2**62)))
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
            values = [sid(truth, member) for member in enumerate_mec(c)]
            assert (low, high) == (min(values), max(values))

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

