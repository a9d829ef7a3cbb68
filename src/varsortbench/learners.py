"""Combinatorial learners: order search plus sparse parent selection.

``sortnregress`` sorts nodes by increasing marginal variance and regresses
each node on its predecessors; ``randomregress`` is the same with a random
order and marks the performance attainable without scale information.
Parent selection follows the exact lasso path, computed by LARS on the Gram
matrix, and picks the support on it that minimizes BIC. Every fit here reads
the dataset's one covariance, ``Dataset.covariance``, so none costs anything
that grows with n; only the variance order reads the observations.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .graphs import Dag
from .rng import substream
from .scm import Dataset, WeightedDag
from .varsort import empirical_variances

__all__ = [
    "ParentSearchConfig",
    "lasso_bic_parents",
    "sortnregress",
    "randomregress",
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


def _lasso_path(gram, corr, lam_min):
    """Exact lasso path by LARS with the lasso modification (Efron et al. 2004).

    Solves ``min_b 1/2 b^T gram b - corr^T b + lam ||b||_1`` (the lasso with
    ``gram = x^T x / n``, ``corr = x^T y / n``) for ``lam`` from ``max |corr|
    > 0`` down to ``lam_min``. At each knot one column enters or leaves the
    active set. Returns the knots ``lambdas``, the coefficients ``betas``
    there and ``supports[k]``, the active set between knots k and k + 1.
    """
    p = gram.shape[0]
    diag = np.diag(gram)
    eligible = diag > 0
    beta = np.zeros(p)
    signs = np.zeros(p)  # sign of each active coefficient, 0 when inactive
    lam = float(np.max(np.abs(corr)))
    dropped = None
    lambdas, betas, supports = [], [], []
    while True:
        active = np.flatnonzero(signs)
        step = np.zeros(p)
        step[active] = np.linalg.solve(gram[np.ix_(active, active)], signs[active])
        c = corr - gram @ beta
        a = gram @ step
        # Along the step the active correlations shrink as lam - gamma; an
        # inactive column enters when its correlation c - gamma a meets them.
        with np.errstate(divide="ignore", invalid="ignore"):
            up = np.where(a < 1.0, np.maximum(lam - c, 0.0) / (1.0 - a), np.inf)
            down = np.where(a > -1.0, np.maximum(lam + c, 0.0) / (1.0 + a), np.inf)
            leave = np.where(step != 0, -beta / step, np.inf)
        if dropped is not None:
            # A column just dropped can only come back with the other sign.
            j, sign = dropped
            (up if sign > 0 else down)[j] = np.inf
        enter = np.where(eligible & (signs == 0), np.minimum(up, down), np.inf)
        leave[leave <= 0] = np.inf
        j_in, j_out = int(np.argmin(enter)), int(np.argmin(leave))
        gamma = min(enter[j_in], leave[j_out])
        if gamma >= lam - lam_min:
            lambdas.append(lam_min)
            betas.append(beta + (lam - lam_min) * step)
            return np.array(lambdas), np.array(betas), supports
        entering = enter[j_in] < leave[j_out]
        if entering:
            cross = gram[active, j_in]
            resid = diag[j_in] - cross @ np.linalg.solve(gram[np.ix_(active, active)], cross)
            if resid <= 1e-10 * diag[j_in]:  # it would make the active Gram singular
                eligible[j_in] = False
                continue
        beta = beta + gamma * step
        lam -= gamma
        if entering:
            signs[j_in] = 1.0 if up[j_in] <= down[j_in] else -1.0
            dropped = None
        else:
            dropped = (j_out, signs[j_out])
            signs[j_out] = beta[j_out] = 0.0
        lambdas.append(lam)
        betas.append(beta.copy())
        supports.append(tuple(np.flatnonzero(signs).tolist()))


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
    log(n) * nnz`` with RSS from a least-squares refit of that support, and
    the winning support's refit coefficients are returned on the original
    scale. Ties go to the sparser (larger penalty) point. The reweighting
    and the refit keep penalty shrinkage out of the selection, which would
    otherwise let compensating near-zero parents ride along past the BIC.
    """
    candidates = [int(c) for c in candidates]
    if int(target) in candidates:
        raise ConfigurationError("target cannot be its own candidate parent")
    if not candidates:
        return np.zeros(0)
    n = data.n
    cov = data.covariance
    scale = np.sqrt(np.diag(cov)[candidates])
    usable = scale > 0
    inv = np.where(usable, 1.0 / np.where(usable, scale, 1.0), 0.0)
    gram = cov[np.ix_(candidates, candidates)] * np.outer(inv, inv)
    corr = cov[candidates, int(target)] * inv
    if cfg.adaptive:
        # The normal equations of the n x p least squares: rcond now cuts
        # squared singular values, so near-collinear columns can differ.
        ols, *_ = np.linalg.lstsq(gram, corr, rcond=None)
        weight = np.abs(ols)
        scale = scale / np.where(weight > 0, weight, 1.0)
        gram = gram * np.outer(weight, weight)
        corr = corr * weight
        usable = usable & (weight > 0)

    lam_max = float(np.max(np.abs(corr)))
    if lam_max == 0.0:
        return np.zeros(len(candidates))
    _, _, supports = _lasso_path(gram, corr, lam_max * cfg.lambda_min_ratio)

    tiny = np.finfo(float).tiny
    y_sq = n * float(cov[int(target), int(target)])
    best_bic = np.inf
    best = np.zeros(len(candidates))
    for support in dict.fromkeys([(), *supports]):
        if support:
            coef, *_ = np.linalg.lstsq(gram[np.ix_(support, support)], corr[list(support)], rcond=None)
            rss = n * max(y_sq / n - corr[list(support)] @ coef, 0.0)
        else:
            coef = np.zeros(0)
            rss = y_sq
        bic = n * np.log(max(rss, tiny) / n) + np.log(n) * len(support)
        if bic < best_bic:
            best_bic = bic
            best = np.zeros(len(candidates))
            best[list(support)] = coef
    return np.where(usable, best / np.where(usable, scale, 1.0), 0.0)


def _regress_along_order(data, order, cfg):
    d = data.d
    w = np.zeros((d, d))
    for r in range(1, d):
        target = int(order[r])
        cands = [int(c) for c in order[:r]]
        w[cands, target] = lasso_bic_parents(data, target, cands, cfg)
    return WeightedDag(w)


def sortnregress(data: Dataset, cfg: ParentSearchConfig = DEFAULT_PARENT_SEARCH) -> WeightedDag:
    """Order nodes by increasing sample variance, then select parents.

    The output supports a DAG by construction. Variance ties break by
    column index (stable sort).
    """
    if data.n <= data.d:
        warnings.warn("fewer observations than nodes; parent search may be unreliable")
    order = np.argsort(empirical_variances(data), kind="stable")
    return _regress_along_order(data, order, cfg)


def randomregress(
    data: Dataset,
    cfg: ParentSearchConfig = DEFAULT_PARENT_SEARCH,
    seed: int = 0,
) -> WeightedDag:
    """Like ``sortnregress`` but with a uniformly random node order."""
    order = substream(seed, "learners", "randomregress").permutation(data.d)
    return _regress_along_order(data, order, cfg)


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
