"""Variance-sortedness diagnostics for additive noise models.

The headline quantity is the fraction of directed paths that start at a node
with strictly lower marginal variance than the node they end in (ties count
one half). Path counting is multiplicity-free per (length, source, target):
one count for each matrix power in which the pair is connected, regardless
of how many distinct paths of that length exist.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, UndefinedMetricError
from .graphs import Dag, GraphSpec, bool_matmul, sample_dag
from .rng import spawn_seed, substream
from .scm import Dataset, LinearScm, NoiseSpec, WeightLaw, population_covariance, sample_linear_scm

__all__ = [
    "VarsortReport",
    "varsortability",
    "empirical_variances",
    "population_varsortability",
    "pairwise_bound_mc",
    "variance_profile",
]

DEFAULT_TIE_TOL = 1e-9


@dataclass(frozen=True)
class VarsortReport:
    """Value plus the per-path-length breakdown behind it.

    ``per_path_length[l - 1]`` holds (sortable count, path count) for paths
    of length ``l``; ties contribute one half to the sortable count.
    """

    v: float
    per_path_length: tuple[tuple[float, int], ...]
    variance_source: str

    @property
    def n_paths(self) -> int:
        return sum(c for _, c in self.per_path_length)


def varsortability(
    g: Dag,
    variances,
    tol: float = DEFAULT_TIE_TOL,
    variance_source: str = "empirical",
) -> VarsortReport:
    """Fraction of directed paths pointing from lower to higher variance.

    Variances within relative tolerance ``tol`` of each other score 1/2.
    Undefined (raises) for graphs without edges. The adjacency powers are
    taken by ``bool_matmul`` up to the first empty one, past the longest
    path; ``per_path_length`` is padded with ``(0.0, 0)`` to ``d - 1``
    lengths.
    """
    variances = np.asarray(variances, dtype=float)
    if variances.shape != (g.d,):
        raise ConfigurationError("need one variance per node")
    if np.any(variances <= 0):
        raise ConfigurationError("variances must be strictly positive")
    if g.n_edges == 0:
        raise UndefinedMetricError("varsortability is undefined for graphs without edges")

    # ratio[i, j] = var_j / var_i; a pair is sorted when the ratio exceeds 1.
    ratio = variances[None, :] / variances[:, None]
    increasing = ratio > 1.0 + tol
    tied = ~increasing & (ratio > 1.0 - tol)

    power = g.adj
    per_length = []
    while power.any():
        sortable = float((power & increasing).sum()) + 0.5 * float((power & tied).sum())
        per_length.append((sortable, int(power.sum())))
        power = bool_matmul(power, g.adj)
    per_length += [(0.0, 0)] * (g.d - 1 - len(per_length))
    total_paths = sum(c for _, c in per_length)
    total_sortable = sum(s for s, _ in per_length)
    return VarsortReport(
        v=total_sortable / total_paths,
        per_path_length=tuple(per_length),
        variance_source=variance_source,
    )


def empirical_variances(data: Dataset) -> np.ndarray:
    """Per-column sample variance with denominator n."""
    if data.n < 2:
        raise ConfigurationError("need at least two observations")
    # Not ``diag(data.covariance)``: on standardized data every variance is
    # 1 up to rounding, so the two orders differ and so would the records.
    return data.x.var(axis=0)


def population_varsortability(m: LinearScm, tol: float = DEFAULT_TIE_TOL) -> VarsortReport:
    return varsortability(
        m.graph,
        np.diag(population_covariance(m)),
        tol=tol,
        variance_source="population",
    )


def pairwise_bound_mc(
    weight_law: WeightLaw,
    noise_law: NoiseSpec,
    reps: int,
    seed: int,
) -> float:
    """Monte Carlo lower bound on the probability that a root cause-effect
    pair is variance-sorted.

    Draws (w, s_a, s_b) iid and returns the fraction of draws with
    ``s_a^2 < w^2 s_a^2 + s_b^2``.
    """
    if reps < 1:
        raise ConfigurationError("need reps >= 1")
    w = weight_law.sample(reps, substream(seed, "varsort", "bound", "w"))
    s_a = noise_law.sigma_law.sample(reps, substream(seed, "varsort", "bound", "sa"))
    s_b = noise_law.sigma_law.sample(reps, substream(seed, "varsort", "bound", "sb"))
    return float(np.mean(s_a**2 < w**2 * s_a**2 + s_b**2))


def variance_profile(
    spec: GraphSpec,
    weight_law: WeightLaw,
    noise_law: NoiseSpec,
    reps: int,
    n_positions: int | None = None,
    seed: int = 0,
) -> np.ndarray:
    """Mean population marginal variance by causal-order position.

    Averages over ``reps`` sampled models; a node's position is its rank in
    the order recorded by the graph sampler.
    """
    if reps < 1:
        raise ConfigurationError("need reps >= 1")
    if n_positions is None:
        n_positions = spec.d
    if not 1 <= n_positions <= spec.d:
        raise ConfigurationError("n_positions must lie in [1, d]")
    total = np.zeros(spec.d)
    for r in range(reps):
        g = sample_dag(spec, spawn_seed(seed, "varsort", "profile", "graph", r))
        m = sample_linear_scm(g, weight_law, noise_law, spawn_seed(seed, "varsort", "profile", "scm", r))
        variances = np.diag(population_covariance(m))
        total += variances[list(g.order)]
    return total[:n_positions] / reps
