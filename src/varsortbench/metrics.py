"""Graph-recovery scoring: edit distance and intervention distance.

The intervention distance counts ordered node pairs (i, j) whose effect of
intervening on ``i`` would be falsely inferred when adjusting for the
estimated parents of ``i``. It is computed by a graphical criterion with one
search per source node ``i``: a boolean check of the nodes on directed paths
out of ``i``, then one Bayes-ball search from ``i`` given the estimated
parents that marks every ``j`` reached by an open path that is not directed
from ``i``. The searches of all source nodes run in lockstep, so each step
is a few boolean matrix products, each one float64 BLAS product by
``graphs.bool_matmul``. It is cross-checkable against an independent oracle
that compares population regression coefficients with path-coefficient sums
on random linear parameterizations of the true graph.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError, MecSizeError
from .graphs import (
    Cpdag,
    Dag,
    bool_matmul,
    cycle_free_support,
    dag_to_cpdag,
    enumerate_mec,
    reachability_adj,
)
from .rng import substream
from .scm import WeightedDag

__all__ = [
    "shd",
    "shd_cpdag",
    "sid",
    "sid_oracle_linear",
    "sid_cpdag_bounds",
    "favorable_threshold_shd",
    "dag_scores",
    "class_scores",
]


def _check_same_d(a, b):
    if a.d != b.d:
        raise ConfigurationError(f"graphs have different node counts ({a.d} vs {b.d})")


def shd(g_true: Dag, g_est: Dag) -> int:
    """Edit distance over unordered pairs; a reversed edge costs one."""
    _check_same_d(g_true, g_est)
    differs = g_true.adj != g_est.adj
    # Pair i < j differs iff either of its two entries does.
    return int(np.triu(differs | differs.T, 1).sum())


def shd_cpdag(c_true: Cpdag, c_est: Cpdag) -> int:
    """Edit distance between class representatives over unordered pairs."""
    _check_same_d(c_true, c_est)

    def status(c):  # entry (i, j): 0 absent, 1 undirected, 2 i -> j, 3 j -> i
        return c.undirected + 2 * c.directed + 3 * c.directed.T

    return int(np.triu(status(c_true) != status(c_est), 1).sum())


# ---------------------------------------------------------------------------
# Intervention distance: graphical criterion
# ---------------------------------------------------------------------------


def _truth_side(g_true: Dag) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """What ``sid`` needs of the true graph whatever the estimate: its
    adjacency, its reflexive reachability and its strict descendants."""
    reach_refl = reachability_adj(g_true.adj, reflexive=True)
    return g_true.adj, reach_refl, reach_refl & ~np.eye(g_true.d, dtype=bool)


def _sid_given_truth(truth, g_est: Dag) -> int:
    """``sid`` against a precomputed ``_truth_side``.

    Row ``i`` of every matrix below belongs to source node ``i`` and its
    adjustment set ``Z_i``, the estimated parents of ``i``. The searches of
    all sources run in lockstep: each step is one ``bool_matmul`` per kind
    of state.
    """
    adj, reach, desc = truth
    not_source = ~np.eye(adj.shape[0], dtype=bool)
    z = g_est.adj.T  # z[i, v]: v is in Z_i
    # A row whose Z_i is the true parent set adds nothing.
    searched = (z != adj.T).any(axis=1)[:, None]
    # an_z[i, v]: v has a reflexive descendant in Z_i, so a collider at v is open.
    an_z = bool_matmul(z, reach.T)
    # j fails outright if some k != i on a directed path i -> ... -> j has
    # a reflexive descendant in Z_i.
    forbidden = bool_matmul(desc & an_z, reach)
    # Bayes-ball from i given Z_i; states are (node, arrived from a parent or
    # a child, path still directed from i). Arriving from a child clears
    # the flag, so only "down" states can still be directed.
    frontier = (adj & searched, np.zeros_like(adj), adj.T & searched)
    seen = [f.copy() for f in frontier]
    passes = ~z
    while any(f.any() for f in frontier):
        down_directed, down_other, up = frontier
        step = (
            bool_matmul(down_directed & passes, adj),
            bool_matmul((down_other | up) & passes, adj),
            bool_matmul(((down_directed | down_other) & an_z) | (up & passes), adj.T),
        )
        frontier = tuple(new & not_source & ~old for new, old in zip(step, seen))
        for old, new in zip(seen, frontier):
            old |= new
    reached_undirected = seen[1] | seen[2]
    mistaken = np.where(z, desc, forbidden | reached_undirected) & searched
    return int(mistaken.sum())


def sid(g_true: Dag, g_est: Dag) -> int:
    """Count of ordered pairs with falsely inferred intervention effects.

    The estimate contributes only its parent sets: for each (i, j) the pair
    is a mistake if adjusting for the estimated parents ``Z`` of ``i``
    fails in the true graph. When ``j`` itself is in ``Z``, the inferred
    effect is "none", a mistake exactly when ``j`` descends from ``i`` in
    truth. Otherwise the adjustment fails iff some node ``k != i`` on a
    directed path ``i -> ... -> j`` has a reflexive descendant in ``Z``, or
    some path from ``i`` to ``j`` that is open given ``Z`` is not directed.
    Each source ``i`` costs one Bayes-ball search from ``i`` given ``Z``
    that never re-enters ``i`` and tracks whether the path so far is
    directed from ``i``; ``j`` is a mistake iff it is reached with that
    flag cleared. A row whose ``Z`` is the true parent set of ``i`` adds 0.
    """
    _check_same_d(g_true, g_est)
    return _sid_given_truth(_truth_side(g_true), g_est)


# ---------------------------------------------------------------------------
# Intervention distance: linear-Gaussian oracle
# ---------------------------------------------------------------------------


def sid_oracle_linear(g_true: Dag, g_est: Dag, trials: int = 5, seed: int = 0) -> int:
    """Independent check of ``sid`` on random linear parameterizations.

    For each trial, weights on the true edges and noise scales are drawn
    from laws bounded away from zero; the true effect of ``i`` on ``j`` is
    the path-coefficient sum, the inferred effect is the coefficient of
    ``x_i`` when regressing ``x_j`` on ``x_i`` and the estimated parents of
    ``i`` under the exact covariance, from one solve per source ``i`` over
    all targets not yet found mistaken. A pair counts as a mistake if the
    two differ (tolerance 1e-8) in any trial.
    """
    _check_same_d(g_true, g_est)
    if trials < 1:
        raise ConfigurationError("need at least one trial")
    d = g_true.d
    rng = substream(seed, "metrics", "sid_oracle")
    mistaken = np.zeros((d, d), dtype=bool)
    edges = g_true.edges()
    completed = 0
    attempts = 0
    while completed < trials:
        attempts += 1
        if attempts > 100 * trials:
            raise ConfigurationError("could not draw a non-degenerate parameterization")
        w = np.zeros((d, d))
        for i, j in edges:
            magnitude = rng.uniform(0.5, 2.0)
            w[i, j] = magnitude * (1 if rng.random() < 0.5 else -1)
        sigma = rng.uniform(0.5, 2.0, size=d)
        minv = np.linalg.inv(np.eye(d) - w.T)
        cov = minv @ np.diag(sigma**2) @ minv.T
        effects = np.linalg.inv(np.eye(d) - w)  # (i, j) entry: total effect of i on j
        trial_mistaken = np.zeros((d, d), dtype=bool)
        try:
            for i in range(d):
                targets = np.flatnonzero(~mistaken[i] & (np.arange(d) != i))
                if not targets.size:
                    continue
                regressors = [i] + [int(v) for v in g_est.parents(i)]
                gram = cov[np.ix_(regressors, regressors)]
                coef = np.linalg.solve(gram, cov[np.ix_(regressors, targets)])[0]
                truth = effects[i, targets]
                trial_mistaken[i, targets] = np.abs(coef - truth) > 1e-8 * np.maximum(1.0, np.abs(truth))
        except np.linalg.LinAlgError:
            continue  # collinear adjustment set for this draw: resample
        mistaken |= trial_mistaken
        completed += 1
    return int(mistaken.sum())


def sid_cpdag_bounds(g_true: Dag, c_est: Cpdag, cap: int = 10_000) -> tuple[int, int]:
    """(min, max) intervention distance over all members of the estimated
    equivalence class. Raises ``MecSizeError`` beyond ``cap`` members."""
    _check_same_d(g_true, c_est)
    members = enumerate_mec(c_est, cap=cap)
    if not members:
        raise MecSizeError("estimated class has no consistent extension")
    truth = _truth_side(g_true)
    values = [_sid_given_truth(truth, h) for h in members]
    return min(values), max(values)


def favorable_threshold_shd(w_est: WeightedDag | np.ndarray, g_true: Dag) -> tuple[float, int]:
    """Best-case edit distance over per-instance thresholds.

    Candidates are zero plus every distinct weight magnitude nudged up so
    the corresponding edges drop; the graph at ``omega`` is the one cycle-free
    support restricted to ``|w| >= omega``, as in thresholding. Returns the
    (threshold, shd) pair with the smallest distance, preferring smaller
    thresholds on ties.
    """
    w = w_est.w if isinstance(w_est, WeightedDag) else np.asarray(w_est, dtype=float)
    support, magnitude = cycle_free_support(w), np.abs(w)
    candidates = [0.0] + [float(np.nextafter(v, np.inf)) for v in np.unique(magnitude[w != 0])]
    value, omega = min((shd(g_true, Dag(support & (magnitude >= omega))), omega) for omega in candidates)
    return omega, value


def dag_scores(g_true: Dag, g_est: Dag) -> dict:
    """Edit and intervention distance of an estimate, with the bound on
    ``sid`` (``sid_normalizer = d (d - 1)``) and the true edge count that
    give the context for reading them."""
    d = g_true.d
    return {
        "shd": shd(g_true, g_est),
        "sid": sid(g_true, g_est),
        "sid_normalizer": d * (d - 1),
        "true_edges": g_true.n_edges,
    }


def class_scores(g_true: Dag, g_est: Dag, cap: int = 10_000) -> dict:
    """Equivalence-class scores of an estimate. The intervention-distance
    bounds are ``None`` when the estimated class exceeds ``cap`` members."""
    c_true, c_est = dag_to_cpdag(g_true), dag_to_cpdag(g_est)
    out = {"shd_cpdag": shd_cpdag(c_true, c_est)}
    try:
        out["sid_mec_lower"], out["sid_mec_upper"] = sid_cpdag_bounds(g_true, c_est, cap=cap)
    except MecSizeError:
        out["sid_mec_lower"] = out["sid_mec_upper"] = None
    return out
