"""Combinatorial learners: order search plus sparse parent selection.

``sortnregress`` sorts nodes by increasing marginal variance and regresses
each node on its predecessors; ``randomregress`` is the same with a random
order and marks the performance attainable without scale information.
Parent selection follows the exact lasso path, computed by LARS on the Gram
matrix, and picks the support on it that minimizes BIC. The parent searches
of all targets of many orders step along their paths together
(``regress_along_orders``), and each search's weights are those it gets on
its own. Every fit here reads the dataset's one covariance,
``Dataset.covariance``, so none costs anything that grows with n; only the
variance order reads the observations.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError
from .graphs import Dag
from .rng import substream
from .scm import Dataset, WeightedDag
from .varsort import empirical_variances

__all__ = [
    "ParentSearchConfig",
    "OrderSearch",
    "lasso_bic_parents",
    "regress_along_orders",
    "sortnregress",
    "sortnregress_search",
    "randomregress",
    "randomregress_search",
    "variance_sort_full",
    "mse_gds",
    "mse_gds_from_cov",
]


@dataclass(frozen=True)
class ParentSearchConfig:
    """Parent selection: the lasso path ends at ``lambda_min_ratio`` times
    its largest penalty, BIC scores the supports on it, and ``adaptive``
    reweights columns by their joint least-squares coefficients.
    """

    lambda_min_ratio: float = 1e-4
    adaptive: bool = True

    def __post_init__(self):
        if not 0 < self.lambda_min_ratio < 1:
            raise ConfigurationError("lambda_min_ratio must lie in (0, 1)")


DEFAULT_PARENT_SEARCH = ParentSearchConfig()


class OrderSearch(NamedTuple):
    """Parent search along ``order``: node ``order[r]`` is regressed on
    ``order[:r]``. Holds the dataset's covariance and ``n``, which is all
    the search reads, not its observations."""

    covariance: np.ndarray
    n: int
    order: np.ndarray
    cfg: ParentSearchConfig = DEFAULT_PARENT_SEARCH


def _raised(outcome):
    """A batch outcome, or the exception it holds raised."""
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def lasso_bic_parents(
    data: Dataset,
    target: int,
    candidates,
    cfg: ParentSearchConfig = DEFAULT_PARENT_SEARCH,
) -> np.ndarray:
    """L1 regression path of ``target`` on ``candidates``, BIC-selected.

    Returns one coefficient per candidate; zeros mark non-parents. Works on
    slices of ``data.covariance``: columns are scaled to unit variance and
    (by default) further scaled by the magnitude of their joint least-squares
    coefficients, so strong signals enter the path before noise-level ones.
    Each distinct support along the path is scored by ``n log(RSS/n) +
    log(n) * nnz`` with RSS from a least-squares fit of that support, and
    the winning support's least-squares coefficients are returned on the
    original scale. Ties go to the sparser (larger penalty) point. The
    reweighting and the refit keep penalty shrinkage out of the selection,
    which would otherwise let compensating near-zero parents ride along past
    the BIC. A batch of one of the search that ``regress_along_orders`` runs.
    """
    candidates = [int(c) for c in candidates]
    if int(target) in candidates:
        raise ConfigurationError("target cannot be its own candidate parent")
    (coef,) = _parent_searches([(data.covariance, data.n, int(target), candidates, cfg)])
    return _raised(coef)


def regress_along_orders(problems) -> list:
    """Parent search for every node of each ``OrderSearch``, in one batch.

    All targets of all problems take their lasso paths in lockstep (see
    ``_parent_searches``); each target's weights are those of
    ``lasso_bic_parents`` on its own. Returns, in problem order, the
    ``WeightedDag`` of each problem, or the first exception one of its
    targets raised; a failed problem leaves the others as they are.
    """
    searches, owners, outcomes = [], [], []
    for index, (cov, n, order, cfg) in enumerate(problems):
        order = [int(node) for node in order]
        for r in range(1, len(order)):
            searches.append((cov, n, order[r], order[:r], cfg))
            owners.append(index)
        outcomes.append(np.zeros(cov.shape))
    for owner, (_, _, target, candidates, _), coef in zip(owners, searches, _parent_searches(searches)):
        if isinstance(outcomes[owner], Exception):
            continue
        if isinstance(coef, Exception):
            outcomes[owner] = coef
        else:
            outcomes[owner][candidates, target] = coef
    return [w if isinstance(w, Exception) else WeightedDag(w) for w in outcomes]


def _design(cov, target, candidates, cfg):
    """The Gram matrix and correlations of one search: candidate columns at
    unit scale, reweighted by their joint least squares if ``cfg.adaptive``.
    Returns ``(gram, corr, scale, usable)``: a coefficient on the returned
    design, divided by ``scale``, is one on the original columns; a column
    that is not ``usable`` gets none."""
    scale = np.sqrt(np.diag(cov)[candidates])
    usable = scale > 0
    inv = np.where(usable, 1.0 / np.where(usable, scale, 1.0), 0.0)
    gram = cov[np.ix_(candidates, candidates)] * np.outer(inv, inv)
    corr = cov[candidates, target] * inv
    if cfg.adaptive:
        # The normal equations of the n x p least squares: rcond now cuts
        # squared singular values, so near-collinear columns can differ.
        ols, *_ = np.linalg.lstsq(gram, corr, rcond=None)
        weight = np.abs(ols)
        scale = scale / np.where(weight > 0, weight, 1.0)
        gram = gram * np.outer(weight, weight)
        corr = corr * weight
        usable = usable & (weight > 0)
    return gram, corr, scale, usable


# Searches per stack: enough to share each step's numpy calls, few enough
# that the stacked temporaries stay small however large the batch.
_STACK = 64


def _parent_searches(searches) -> list:
    """``lasso_bic_parents`` of each ``(covariance, n, target, candidates,
    cfg)`` search, with the paths of many searches in lockstep.

    Searches whose covariance has the same node count d share stacks of up
    to ``_STACK``, padded to d - 1 columns (more only if a search has more
    candidates), so a search's arithmetic never depends on the rest of the
    batch. Returns, in search order, the coefficients or the
    ``LinAlgError`` a search raised.
    """
    groups: dict = {}
    for index, (cov, _, _, candidates, _) in enumerate(searches):
        groups.setdefault(max(cov.shape[0] - 1, len(candidates)), []).append(index)
    outcomes: list = [None] * len(searches)
    for width, indices in groups.items():
        for start in range(0, len(indices), _STACK):
            stack = indices[start : start + _STACK]
            for index, outcome in zip(stack, _search_stack(width, [searches[i] for i in stack])):
                outcomes[index] = outcome
    return outcomes


def _search_stack(width: int, searches) -> list:
    """The outcomes of ``searches`` on one stack of ``width`` columns.

    Each search writes its design (``_design``) into the stack, and all
    take their paths together (``_lasso_paths``). The supports on each path
    are scored by BIC (``_bic_winners``), and only the winner is refit, by
    the least squares a search alone would run: the path's floats never
    reach the returned weights, only its supports do. A search that failed
    or has no candidates keeps a zero row, whose path ends at once. A
    stacked solve that fails is retried one search at a time, so the
    failure lands on its own search.
    """
    count = len(searches)
    gram, corr = np.zeros((count, width, width)), np.zeros((count, width))
    scale, usable = np.ones((count, width)), np.zeros((count, width), dtype=bool)
    lam_min, n, y_sq = np.zeros(count), np.ones(count, dtype=int), np.zeros(count)
    outcomes: list = [None] * count
    for row, (cov, n_obs, target, candidates, cfg) in enumerate(searches):
        p = len(candidates)
        if not p:
            outcomes[row] = np.zeros(0)
            continue
        try:
            design = _design(cov, target, candidates, cfg)
        except np.linalg.LinAlgError as err:
            outcomes[row] = err
            continue
        gram[row, :p, :p], corr[row, :p], scale[row, :p], usable[row, :p] = design
        lam_min[row] = float(np.max(np.abs(corr[row]))) * cfg.lambda_min_ratio
        n[row], y_sq[row] = n_obs, n_obs * float(cov[target, target])
    try:
        live, active, fit, _, _ = _lasso_paths(gram, corr, lam_min)
        winners = _bic_winners(live, active, fit, n, y_sq)
    except np.linalg.LinAlgError as err:
        if count == 1:
            return [err]
        return [outcome for search in searches for outcome in _search_stack(width, [search])]
    for row, (_, _, _, candidates, _) in enumerate(searches):
        if outcomes[row] is not None:
            continue
        p = len(candidates)
        support = np.flatnonzero(winners[row])
        best = np.zeros(p)
        if support.size:
            try:
                coef, *_ = np.linalg.lstsq(gram[row][np.ix_(support, support)], corr[row, support], rcond=None)
            except np.linalg.LinAlgError as err:
                outcomes[row] = err
                continue
            best[support] = coef
        outcomes[row] = np.where(usable[row, :p], best / np.where(usable[row, :p], scale[row, :p], 1.0), 0.0)
    return outcomes


def _lasso_paths(gram, corr, lam_min) -> tuple:
    """Exact lasso paths of a stack of problems, by LARS with the lasso
    modification (Efron et al. 2004), all problems stepping in lockstep.

    Problem b solves ``min_x 1/2 x^T gram[b] x - corr[b]^T x + lam ||x||_1``
    (the lasso with ``gram = x^T x / n``, ``corr = x^T y / n``) for ``lam``
    from ``max |corr[b]|`` down to ``lam_min[b]``. At each knot one column
    enters or leaves the active set; a column whose diagonal is 0, such as
    padding, never enters, and neither does one that would make the active
    Gram singular. Each step is one masked solve on the whole stack: the
    active block of each Gram with the identity elsewhere, whose right-hand
    sides give the step, the least squares of the active set and how much
    of each column the active ones explain. Every array keeps the shape of
    the stack; a path that has ended stays in it, frozen.

    Returns five arrays indexed by step t and problem b: ``live[t, b]``,
    whether b's path was still going at the start of step t; ``active[t,
    b]``, its active set then; ``fit[t, b]``, ``corr_A . gram_AA^-1 corr_A``
    for that set A; and the knot the step ended at, ``lambdas[t, b]`` and
    ``betas[t, b]``. The knots of b are its live steps, the last at
    ``lam_min[b]``; its active set from knot k on is its active set at the
    start of live step k + 1.
    """
    count, p = corr.shape
    rows, cols = np.arange(count), np.arange(p)
    diag = np.diagonal(gram, axis1=1, axis2=2)
    eligible = diag > 0
    beta = np.zeros((count, p))
    signs = np.zeros((count, p))  # sign of each active coefficient, 0 when inactive
    lam = np.max(np.abs(corr), axis=1)
    dropped = np.full(count, -1)  # the column that just left, -1 for none
    dropped_sign = np.zeros(count)
    live = np.ones(count, dtype=bool)
    eye = np.eye(p, dtype=bool)
    steps = []
    while live.any():
        active = signs != 0
        rhs = np.zeros((count, p, p + 2))
        rhs[:, :, 0] = signs
        np.copyto(rhs[:, :, 1], corr, where=active)
        np.copyto(rhs[:, :, 2:], gram, where=active[:, :, None])
        solved = np.linalg.solve(np.where(active[:, :, None] & active[:, None, :], gram, eye), rhs)
        step = np.where(active, solved[:, :, 0], 0.0)
        fit = np.sum(rhs[:, :, 1] * solved[:, :, 1], axis=1)
        singular = diag - np.sum(rhs[:, :, 2:] * solved[:, :, 2:], axis=1) <= 1e-10 * diag
        c, a = np.moveaxis(gram @ np.stack([beta, step], axis=2), 2, 0)
        c = corr - c
        # Along the step the active correlations shrink as lam - gamma; an
        # inactive column enters when its correlation c - gamma a meets them.
        with np.errstate(divide="ignore", invalid="ignore"):
            up = np.where(a < 1.0, np.maximum(lam[:, None] - c, 0.0) / (1.0 - a), np.inf)
            down = np.where(a > -1.0, np.maximum(lam[:, None] + c, 0.0) / (1.0 + a), np.inf)
            leave = np.where(step != 0, -beta / step, np.inf)
        # A column just dropped can only come back with the other sign.
        back = cols == dropped[:, None]
        up = np.where(back & (dropped_sign > 0)[:, None], np.inf, up)
        down = np.where(back & (dropped_sign < 0)[:, None], np.inf, down)
        leave[leave <= 0] = np.inf
        j_out = np.argmin(leave, axis=1)
        gamma_out = leave[rows, j_out]
        while True:
            enter = np.where(eligible & ~active, np.minimum(up, down), np.inf)
            j_in = np.argmin(enter, axis=1)
            gamma_in = enter[rows, j_in]
            gamma = np.minimum(gamma_in, gamma_out)
            done = live & (gamma >= lam - lam_min)
            go = live & ~done
            entering = gamma_in < gamma_out
            skip = go & entering & singular[rows, j_in]
            if not skip.any():
                break
            eligible &= ~(skip[:, None] & (cols == j_in[:, None]))
        # A path that ends here gets its last knot at lam_min; the others step.
        final = beta + (lam - lam_min)[:, None] * step
        beta = beta + np.where(go, gamma, 0.0)[:, None] * step
        lam = lam - np.where(go, gamma, 0.0)
        ins, outs = go & entering, go & ~entering
        signs = np.where(ins[:, None] & (cols == j_in[:, None]), np.where(up <= down, 1.0, -1.0), signs)
        dropped = np.where(ins, -1, np.where(outs, j_out, dropped))
        dropped_sign = np.where(outs, signs[rows, j_out], dropped_sign)
        leaving = outs[:, None] & (cols == j_out[:, None])
        signs, beta = np.where(leaving, 0.0, signs), np.where(leaving, 0.0, beta)
        steps.append((live, active, fit, np.where(done, lam_min, lam), np.where(done[:, None], final, beta)))
        live = go
    return tuple(np.stack(part) for part in zip(*steps))


def _bic_winners(live, active, fit, n, y_sq) -> np.ndarray:
    """The support on each problem's path that minimizes BIC, ``n log(RSS/n)
    + log(n) |S|``, as a mask. The supports are the active sets at the
    start of the live steps of ``_lasso_paths``, the empty one first, and
    the RSS of each comes from its least squares. Ties go to the earliest
    support on the path, so a support visited again never wins.
    """
    size = active.sum(axis=2)
    rss = np.where(size > 0, n * np.maximum(y_sq / n - fit, 0.0), y_sq)
    bic = n * np.log(np.maximum(rss, np.finfo(float).tiny) / n) + np.log(n) * size
    first = np.argmin(np.where(live, bic, np.inf), axis=0)
    return active[first, np.arange(active.shape[1])]


def sortnregress_search(data: Dataset, cfg: ParentSearchConfig = DEFAULT_PARENT_SEARCH) -> OrderSearch:
    """The ``OrderSearch`` of ``sortnregress``: nodes by increasing sample
    variance, ties by column index (stable sort)."""
    if data.n <= data.d:
        warnings.warn("fewer observations than nodes; parent search may be unreliable")
    order = np.argsort(empirical_variances(data), kind="stable")
    return OrderSearch(data.covariance, data.n, order, cfg)


def randomregress_search(
    data: Dataset, cfg: ParentSearchConfig = DEFAULT_PARENT_SEARCH, seed: int = 0
) -> OrderSearch:
    """The ``OrderSearch`` of ``randomregress``: a uniformly random order."""
    order = substream(seed, "learners", "randomregress").permutation(data.d)
    return OrderSearch(data.covariance, data.n, order, cfg)


def sortnregress(data: Dataset, cfg: ParentSearchConfig = DEFAULT_PARENT_SEARCH) -> WeightedDag:
    """Order nodes by increasing sample variance, then select parents.

    The output supports a DAG by construction. Variance ties break by
    column index (stable sort).
    """
    return _raised(regress_along_orders([sortnregress_search(data, cfg)])[0])


def randomregress(
    data: Dataset,
    cfg: ParentSearchConfig = DEFAULT_PARENT_SEARCH,
    seed: int = 0,
) -> WeightedDag:
    """Like ``sortnregress`` but with a uniformly random node order."""
    return _raised(regress_along_orders([randomregress_search(data, cfg, seed)])[0])


def variance_sort_full(data: Dataset) -> Dag:
    """Complete DAG oriented along ascending sample variance."""
    if data.d < 2:
        raise ConfigurationError("need at least two nodes")
    order = np.argsort(empirical_variances(data), kind="stable")
    adj = np.zeros((data.d, data.d), dtype=bool)
    earlier, later = np.triu_indices(data.d, k=1)
    adj[order[earlier], order[later]] = True
    return Dag(adj, order=tuple(order.tolist()))


# ---------------------------------------------------------------------------
# Greedy DAG search over edge insertions with a mean-squared-error score
# ---------------------------------------------------------------------------


def _residual_variance(gram, target, parents):
    if not parents:
        return float(gram[target, target])
    p = list(parents)
    sub = gram[np.ix_(p, p)]
    cross = gram[p, target]
    coef, *_ = np.linalg.lstsq(sub, cross, rcond=None)
    return float(gram[target, target] - cross @ coef)


def mse_gds_from_cov(
    gram: np.ndarray,
    max_edges: int | None = None,
    tol_rel: float = 1e-3,
) -> WeightedDag:
    """Greedy forward search over edge insertions on a covariance matrix.

    Starting from the empty graph, repeatedly insert the acyclicity-
    preserving edge with the largest reduction of the total residual
    variance (least-squares refit per candidate target). Stops when the
    best reduction falls below ``tol_rel`` times the current total or when
    ``max_edges`` is reached. Ties break on the lowest (source, target).
    """
    gram = np.asarray(gram, dtype=float)
    d = gram.shape[0]
    if max_edges is None:
        max_edges = d * (d - 1) // 2
    if max_edges > d * (d - 1) // 2:
        raise ConfigurationError("max_edges exceeds the maximum DAG edge count")
    parents: list[list[int]] = [[] for _ in range(d)]
    adj = np.zeros((d, d), dtype=bool)
    reach = np.eye(d, dtype=bool)  # reflexive reachability, kept incrementally
    resid = np.array([float(gram[j, j]) for j in range(d)])
    n_edges = 0
    while n_edges < max_edges:
        total = float(resid.sum())
        best = None
        for i in range(d):
            for j in range(d):
                if i == j or adj[i, j] or reach[j, i]:
                    continue
                new_resid = _residual_variance(gram, j, parents[j] + [i])
                gain = resid[j] - new_resid
                if best is None or gain > best[0] + 1e-15:
                    best = (gain, i, j, new_resid)
        if best is None or best[0] < tol_rel * total:
            break
        _, i, j, new_resid = best
        adj[i, j] = True
        parents[j].append(i)
        resid[j] = new_resid
        reach |= np.outer(reach[:, i], reach[j, :])
        n_edges += 1
    w = np.zeros((d, d))
    for j in range(d):
        if parents[j]:
            p = parents[j]
            coef, *_ = np.linalg.lstsq(gram[np.ix_(p, p)], gram[p, j], rcond=None)
            w[p, j] = coef
    return WeightedDag(w)


def mse_gds(data: Dataset, max_edges: int | None = None, tol_rel: float = 1e-3) -> WeightedDag:
    """``mse_gds_from_cov`` on the centered sample covariance."""
    return mse_gds_from_cov(data.covariance, max_edges=max_edges, tol_rel=tol_rel)
