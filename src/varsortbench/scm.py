"""Linear additive-noise models: construction, simulation, and rescaling.

Model convention: ``x = W^T x + noise`` with ``W[k, j]`` the effect of node
``k`` on node ``j`` (column ``j`` holds the incoming weights of ``j``).
Sample variances use denominator ``n`` (population convention) throughout
the package so standardization and the variance diagnostics agree bitwise.
Each ``Dataset`` holds one centered sample covariance, ``Dataset.covariance``,
which every fit reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, DataError, DegenerateDataError, IntegrityError
from .graphs import Dag, topological_order
from .rng import substream

__all__ = [
    "SigmaLaw",
    "NoiseSpec",
    "WeightLaw",
    "WeightedDag",
    "LinearScm",
    "Dataset",
    "NOISE_KINDS",
    "DEFAULT_WEIGHT_LAW",
    "DEFAULT_SIGMA_LAW",
    "standardized_noise",
    "sample_linear_scm",
    "simulate",
    "population_covariance",
    "standardize",
    "harmonize_scales",
    "write_dataset_csv",
    "scm_to_json",
    "scm_from_json",
]

NOISE_KINDS = ("gaussian", "exponential", "gumbel")

# Gumbel(0, 1) has mean euler_gamma and standard deviation pi/sqrt(6).
_GUMBEL_STD = np.pi / np.sqrt(6.0)


@dataclass(frozen=True)
class SigmaLaw:
    """Law for per-node noise standard deviations: fixed or uniform."""

    kind: str
    lo: float = 1.0
    hi: float = 1.0

    def __post_init__(self):
        if self.kind not in ("fixed", "uniform"):
            raise ConfigurationError(f"unknown sigma law {self.kind!r}")
        if self.kind == "uniform" and not self.lo < self.hi:
            raise ConfigurationError("uniform sigma law needs lo < hi")
        if self.lo < 0:
            raise ConfigurationError("standard deviations cannot be negative")

    @classmethod
    def fixed(cls, value: float = 1.0) -> "SigmaLaw":
        return cls("fixed", value, value)

    @classmethod
    def uniform(cls, lo: float, hi: float) -> "SigmaLaw":
        return cls("uniform", lo, hi)

    def sample(self, size, rng: np.random.Generator) -> np.ndarray:
        if self.kind == "fixed":
            return np.full(size, float(self.lo))
        return rng.uniform(self.lo, self.hi, size=size)

    @property
    def label(self) -> str:
        if self.kind == "fixed":
            return f"fixed({self.lo:g})"
        return f"uniform({self.lo:g};{self.hi:g})"


@dataclass(frozen=True)
class WeightLaw:
    """Uniform law over a union of intervals excluding zero."""

    intervals: tuple[tuple[float, float], ...]

    def __post_init__(self):
        ivals = tuple((float(lo), float(hi)) for lo, hi in self.intervals)
        if not ivals:
            raise ConfigurationError("weight law needs at least one interval")
        for lo, hi in ivals:
            if not lo < hi:
                raise ConfigurationError(f"empty interval ({lo}, {hi})")
            if lo * hi <= 0:
                raise ConfigurationError("weight intervals must exclude zero")
        object.__setattr__(self, "intervals", ivals)

    @classmethod
    def symmetric(cls, lo: float, hi: float) -> "WeightLaw":
        """The union (-hi, -lo) | (lo, hi)."""
        return cls(((-hi, -lo), (lo, hi)))

    def sample(self, size, rng: np.random.Generator) -> np.ndarray:
        lengths = np.array([hi - lo for lo, hi in self.intervals])
        probs = lengths / lengths.sum()
        which = rng.choice(len(self.intervals), size=size, p=probs)
        u = rng.random(size)
        los = np.array([lo for lo, _ in self.intervals])
        his = np.array([hi for _, hi in self.intervals])
        return los[which] + u * (his[which] - los[which])

    @property
    def label(self) -> str:
        return "|".join(f"({lo:g};{hi:g})" for lo, hi in self.intervals)


# Benchmark defaults: weights uniform on (-2,-.5)|(.5,2), sigmas uniform on (.5,2).
DEFAULT_WEIGHT_LAW = WeightLaw.symmetric(0.5, 2.0)
DEFAULT_SIGMA_LAW = SigmaLaw.uniform(0.5, 2.0)


@dataclass(frozen=True, eq=False)
class NoiseSpec:
    """Noise description: distribution kind, realized sigmas, sampling law.

    ``sigma`` is None while the object acts as a sampling law; it is filled in
    when an SCM is instantiated. Realized noise is always zero-centered with
    standard deviation ``sigma[j]`` regardless of kind.
    """

    kind: str
    sigma: np.ndarray | None = None
    sigma_law: SigmaLaw = SigmaLaw.fixed(1.0)

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise ConfigurationError(f"unknown noise kind {self.kind!r}")
        if self.sigma is not None:
            sigma = np.asarray(self.sigma, dtype=float).copy()
            if sigma.ndim != 1:
                raise ConfigurationError("sigma must be a vector")
            if not np.all(sigma > 0):
                raise ConfigurationError("all noise standard deviations must be positive")
            sigma.setflags(write=False)
            object.__setattr__(self, "sigma", sigma)

    def realize(self, d: int, rng: np.random.Generator) -> "NoiseSpec":
        return NoiseSpec(self.kind, self.sigma_law.sample(d, rng), self.sigma_law)


def standardized_noise(kind: str, shape, rng: np.random.Generator) -> np.ndarray:
    """Draw zero-mean, unit-standard-deviation noise of the given kind."""
    if kind == "gaussian":
        return rng.standard_normal(shape)
    if kind == "exponential":
        return rng.standard_exponential(shape) - 1.0
    if kind == "gumbel":
        return (rng.gumbel(0.0, 1.0, shape) - np.euler_gamma) / _GUMBEL_STD
    raise ConfigurationError(f"unknown noise kind {kind!r}")


@dataclass(frozen=True, eq=False)
class WeightedDag:
    """Real-valued adjacency matrix of edge weights.

    Support acyclicity is not enforced here: raw optimizer outputs pass
    through this type before thresholding. Use ``is_dag_supported`` to check.
    """

    w: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.w, dtype=float).copy()
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ConfigurationError(f"weight matrix must be square, got {w.shape}")
        if not np.all(np.isfinite(w)):
            raise DataError("weight matrix contains non-finite entries")
        w.setflags(write=False)
        object.__setattr__(self, "w", w)

    @property
    def d(self) -> int:
        return self.w.shape[0]

    def support(self) -> np.ndarray:
        return self.w != 0

    def is_dag_supported(self) -> bool:
        try:
            Dag(self.support())
        except IntegrityError:
            return False
        return True


@dataclass(frozen=True, eq=False)
class LinearScm:
    """A DAG, edge weights on exactly its edges, and a noise spec."""

    graph: Dag
    weights: WeightedDag
    noise: NoiseSpec

    def __post_init__(self):
        if self.weights.d != self.graph.d:
            raise ConfigurationError("graph and weight dimensions differ")
        if not np.array_equal(self.weights.support(), self.graph.adj):
            raise IntegrityError("weights must be nonzero exactly on the graph edges")
        if self.noise.sigma is None:
            raise ConfigurationError("SCM needs realized noise standard deviations")
        if self.noise.sigma.shape != (self.graph.d,):
            raise ConfigurationError("noise sigma length must equal the node count")

    @property
    def d(self) -> int:
        return self.graph.d


@dataclass(frozen=True, eq=False)
class Dataset:
    """n x d observation matrix with column names."""

    x: np.ndarray
    names: tuple[str, ...]

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float).copy()
        if x.ndim != 2:
            raise DataError("observations must form an n x d matrix")
        if x.shape[0] < 1:
            raise DataError("need at least one observation")
        if not np.all(np.isfinite(x)):
            raise DataError("observations contain non-finite entries")
        names = tuple(str(c) for c in self.names)
        if len(names) != x.shape[1]:
            raise ConfigurationError("need one column name per column")
        x.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "names", names)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def d(self) -> int:
        return self.x.shape[1]

    @cached_property
    def covariance(self) -> np.ndarray:
        """Read-only centered sample covariance ``xc^T xc / n``, computed once."""
        xc = self.x - self.x.mean(axis=0)
        cov = xc.T @ xc / self.n
        cov.setflags(write=False)
        return cov


def default_names(d: int) -> tuple[str, ...]:
    return tuple(f"x{j}" for j in range(d))


def sample_linear_scm(
    g: Dag,
    weight_law: WeightLaw,
    noise_law: NoiseSpec,
    seed: int,
) -> LinearScm:
    """Draw one iid weight per edge and per-node sigmas from the given laws."""
    rng = substream(seed, "scm", "parameters")
    w = np.zeros((g.d, g.d))
    if g.n_edges:  # a graph without edges draws no weights
        w[np.nonzero(g.adj)] = weight_law.sample(g.n_edges, rng)
    noise = noise_law.realize(g.d, rng)
    return LinearScm(g, WeightedDag(w), noise)


def simulate(m: LinearScm, n: int, seed: int) -> Dataset:
    """Forward-sample ``n`` observations in topological order."""
    if n < 1:
        raise ConfigurationError("need n >= 1")
    rng = substream(seed, "scm", "simulate")
    noise = standardized_noise(m.noise.kind, (n, m.d), rng) * m.noise.sigma[None, :]
    x = np.zeros((n, m.d))
    for j in topological_order(m.graph):
        x[:, j] = x @ m.weights.w[:, j] + noise[:, j]
    return Dataset(x, default_names(m.d))


def population_covariance(m: LinearScm) -> np.ndarray:
    """Exact covariance ``M diag(sigma^2) M^T`` with ``M = (I - W^T)^{-1}``."""
    d = m.d
    a = np.eye(d) - m.weights.w.T
    try:
        minv = np.linalg.solve(a, np.eye(d))
    except np.linalg.LinAlgError:
        raise IntegrityError("I - W^T is singular; weights do not describe a DAG") from None
    return minv @ np.diag(m.noise.sigma**2) @ minv.T


def standardize(data: Dataset) -> Dataset:
    """Rescale every column to sample mean 0 and sample variance 1 (denominator n)."""
    mean = data.x.mean(axis=0)
    var = data.x.var(axis=0)
    if np.any(var <= 0):
        bad = int(np.argmin(var))
        raise DegenerateDataError(f"column {data.names[bad]!r} has zero variance")
    return Dataset((data.x - mean) / np.sqrt(var), data.names)


def harmonize_scales(m: LinearScm) -> LinearScm:
    """Divide each weight column ``w_j`` by ``sqrt(||w_j||^2 + 1)``.

    Children end up on a comparable scale if their parents were standardized;
    the noise spec is unchanged. Graph support and weight signs are preserved.
    """
    w = m.weights.w.copy()
    scale = np.sqrt((w**2).sum(axis=0) + 1.0)
    w /= scale[None, :]
    return LinearScm(m.graph, WeightedDag(w), m.noise)


# ---------------------------------------------------------------------------
# Dataset CSV ('.' decimal, header row, no index column) and SCM JSON export
# ---------------------------------------------------------------------------


def write_dataset_csv(data: Dataset, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(data.names) + "\n")
        for row in data.x:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def scm_to_json(m: LinearScm) -> dict:
    return {
        "d": m.d,
        "edges": [[int(i), int(j), float(m.weights.w[i, j])] for i, j in m.graph.edges()],
        "noise": {"kind": m.noise.kind, "sigma": [float(s) for s in m.noise.sigma]},
    }


def scm_from_json(obj: dict) -> LinearScm:
    d = int(obj["d"])
    w = np.zeros((d, d))
    adj = np.zeros((d, d), dtype=bool)
    for i, j, value in obj["edges"]:
        if float(value) == 0.0:
            raise ConfigurationError(f"edge ({i}, {j}) has zero weight")
        w[int(i), int(j)] = float(value)
        adj[int(i), int(j)] = True
    noise = NoiseSpec(obj["noise"]["kind"], np.asarray(obj["noise"]["sigma"], dtype=float))
    return LinearScm(Dag(adj), WeightedDag(w), noise)
