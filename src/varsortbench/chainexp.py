"""Orientation of causal chains under raw, standardized, and harmonized scales.

A chain model x1 -> x2 -> ... -> xd and its reversal are Markov equivalent,
yet the sequence of absolute pairwise regression coefficients tends to grow
along the causal direction, and on the raw scale so do the marginal
variances. The decision rules here exploit exactly that: compare how
"increasing" the coefficient sequences are in both sweep directions, or
check whether the variance sequence increases. Accuracy studies run either
on exact population covariances or on simulated samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DegenerateDataError
from .rng import substream
from .scm import NOISE_KINDS, SigmaLaw, WeightLaw, standardized_noise

__all__ = [
    "ChainInstance",
    "OrientationDecision",
    "ChainStudyResult",
    "make_chain",
    "pairwise_coefficients",
    "increasingness",
    "orient_by_coefficients",
    "orient_by_variance",
    "chain_accuracy_study",
]

REGIMES = ("raw", "standardized", "harmonized")
RULES = ("coefficients", "variance")
MODES = ("population", "finite")

DEFAULT_CHAIN_SIGMAS = SigmaLaw.uniform(0.5, 2.0)


@dataclass(frozen=True, eq=False)
class ChainInstance:
    """One chain model as presented to an orientation rule.

    ``weights`` and ``sigmas`` record the generative draw (before any
    harmonization). ``var`` holds the presented variances and ``cov`` the
    covariances of adjacent presented variables: exact when ``n`` is None,
    moments of ``n`` simulated observations otherwise. For
    ``true_direction == "backward"`` the variables appear in reverse
    generative order.
    """

    d: int
    true_direction: str
    regime: str
    weights: np.ndarray
    sigmas: np.ndarray
    var: np.ndarray
    cov: np.ndarray
    n: int | None = None
    noise_kind: str = "gaussian"

    def __post_init__(self):
        if self.true_direction not in ("forward", "backward"):
            raise ConfigurationError(f"unknown direction {self.true_direction!r}")
        if self.regime not in REGIMES:
            raise ConfigurationError(f"unknown regime {self.regime!r}")


@dataclass(frozen=True)
class OrientationDecision:
    direction: str
    tie: bool


@dataclass(frozen=True)
class ChainStudyResult:
    accuracy: float
    tie_fraction: float
    d: int
    regime: str
    rule: str
    mode: str
    reps: int
    n: int | None
    weight_law: str
    sigma_law: str
    noise_kind: str
    seed: int


def make_chain(
    d: int,
    weight_law: WeightLaw,
    sigma_law: SigmaLaw = DEFAULT_CHAIN_SIGMAS,
    regime: str = "raw",
    direction: str = "forward",
    seed: int = 0,
    n: int | None = None,
    noise_kind: str = "gaussian",
) -> ChainInstance:
    """Draw a chain model and present it under the requested scale regime.

    This is the chain that ``chain_accuracy_study`` draws at ``reps = 1``.
    Population instances carry exact moments; passing ``n`` simulates that
    many observations instead. ``direction="backward"`` relabels the
    presented variables in reverse.
    """
    weights, sigmas, var, cov = _draw_chains(d, 1, weight_law, sigma_law, regime, n, noise_kind, seed)
    var, cov = var[0], cov[0]
    if direction == "backward":
        var, cov = var[::-1], cov[::-1]
    return ChainInstance(
        d=d,
        true_direction=direction,
        regime=regime,
        weights=weights[0],
        sigmas=sigmas[0],
        var=var,
        cov=cov,
        n=n,
        noise_kind=noise_kind,
    )


def pairwise_coefficients(inst: ChainInstance) -> tuple[np.ndarray, np.ndarray]:
    """Absolute simple-regression coefficients of adjacent presented pairs.

    Returns the left-to-right sweep (regressing each variable on its left
    neighbor) and the right-to-left sweep (each on its right neighbor,
    starting from the right end).
    """
    lr, rl = _sweeps(*_adjacent(inst))
    return lr[0], rl[0]


def increasingness(seq, tol: float = 0.0) -> int:
    """Concordant minus discordant index pairs: ``sum_{p<q} sign(s_q - s_p)``.

    Differences within relative tolerance ``tol`` count as ties (needed so
    that exactly standardized variance sequences tie instead of picking up
    floating-point jitter).
    """
    seq = np.asarray(seq, dtype=float)
    if seq.size < 2:
        raise ConfigurationError("need a sequence of length >= 2")
    return int(_increasingness_rows(seq[None, :], tol)[0])


def _orient(inst: ChainInstance, rule: str, seed) -> OrientationDecision:
    decision = _decisions(*_adjacent(inst), rule, forward=np.array([True]))
    tie = bool(decision[0] == 0)
    direction = "forward" if _break_ties(decision, seed)[0] > 0 else "backward"
    return OrientationDecision(direction, tie=tie)


def orient_by_coefficients(inst: ChainInstance, seed: int = 0) -> OrientationDecision:
    """Pick the direction whose coefficient sweep is more increasing."""
    return _orient(inst, "coefficients", seed)


VARIANCE_TIE_TOL = 1e-9


def orient_by_variance(inst: ChainInstance, seed: int = 0) -> OrientationDecision:
    """Forward iff the presented variance sequence is net increasing."""
    return _orient(inst, "variance", seed)


# ---------------------------------------------------------------------------
# Batched rules: one row per chain. The single-instance rules above are
# batches of one.
# ---------------------------------------------------------------------------


def _adjacent(inst: ChainInstance) -> tuple[np.ndarray, np.ndarray]:
    """Presented variances and adjacent covariances as a batch of one."""
    return inst.var[None], inst.cov[None]


def _increasingness_rows(seq: np.ndarray, tol: float = 0.0) -> np.ndarray:
    total = np.zeros(seq.shape[0], dtype=np.int64)
    length = seq.shape[1]
    for p in range(length - 1):
        diff = seq[:, p + 1 :] - seq[:, p : p + 1]
        signs = np.sign(diff)
        if tol:
            scale = np.maximum(1.0, np.maximum(np.abs(seq[:, p + 1 :]), np.abs(seq[:, p : p + 1])))
            signs[np.abs(diff) <= tol * scale] = 0
        total += signs.sum(axis=1).astype(np.int64)
    return total


def _sweeps(var: np.ndarray, cov: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Left-to-right and right-to-left coefficient sweeps per chain."""
    if np.any(var <= 0):
        raise DegenerateDataError("zero variance in a presented variable")
    return np.abs(cov) / var[:, :-1], (np.abs(cov) / var[:, 1:])[:, ::-1]


def _decisions(var: np.ndarray, cov: np.ndarray, rule: str, forward: np.ndarray) -> np.ndarray:
    """+1 forward, -1 backward, 0 tie per chain. ``var`` and ``cov`` follow
    one variable order; a chain whose ``forward`` is false is presented in
    the reverse of that order."""
    if rule == "coefficients":
        inc_lr, inc_rl = (_increasingness_rows(sweep) for sweep in _sweeps(var, cov))
        # A backward presentation swaps the two sweep directions.
        inc_first = np.where(forward, inc_lr, inc_rl)
        inc_second = np.where(forward, inc_rl, inc_lr)
        return np.sign(inc_first - inc_second)
    inc_var = _increasingness_rows(var, tol=VARIANCE_TIE_TOL)
    return np.sign(np.where(forward, inc_var, -inc_var))


def _break_ties(decision: np.ndarray, seed) -> np.ndarray:
    """Replace each tie (0) by a seeded fair coin, +1 or -1."""
    coin = substream(seed, "chainexp", "coin").random(decision.size) < 0.5
    return np.where(decision == 0, np.where(coin, 1, -1), decision)


def _draw_chains(d, reps, weight_law, sigma_law, regime, n, noise_kind, seed):
    """Draw ``reps`` chains on ``d`` nodes and present them under ``regime``.

    Returns the generative weights and sigmas, then the presented variances
    and adjacent covariances, all in generative order: exact when ``n`` is
    None, moments of ``n`` simulated observations per chain otherwise.
    """
    if d < 3:
        raise ConfigurationError("chain studies need d >= 3")
    if regime not in REGIMES:
        raise ConfigurationError(f"unknown regime {regime!r}")
    if noise_kind not in NOISE_KINDS:
        raise ConfigurationError(f"unknown noise kind {noise_kind!r}")
    if n is not None and n < 2:
        raise ConfigurationError("finite mode needs a sample size n >= 2")
    weights = weight_law.sample((reps, d - 1), substream(seed, "chainexp", "weights"))
    sigmas = sigma_law.sample((reps, d), substream(seed, "chainexp", "sigmas"))
    if not np.all(sigmas > 0):
        raise ConfigurationError("all noise standard deviations must be positive")
    w = weights / np.sqrt(weights**2 + 1.0) if regime == "harmonized" else weights
    if n is None:
        var, cov = _population_adjacent(w, sigmas, regime)
    else:
        var, cov = _finite_adjacent(w, sigmas, regime, n, noise_kind, substream(seed, "chainexp", "sim"))
    return weights, sigmas, var, cov


def _population_adjacent(w, sigmas, regime):
    """Adjacent variances/covariances for a batch of chains with (presented)
    weights ``w``, exact."""
    reps, d = sigmas.shape
    var = np.empty((reps, d))
    cov = np.empty((reps, d - 1))
    var[:, 0] = sigmas[:, 0] ** 2
    for i in range(d - 1):
        cov[:, i] = w[:, i] * var[:, i]
        var[:, i + 1] = w[:, i] ** 2 * var[:, i] + sigmas[:, i + 1] ** 2
    if regime == "standardized":
        cov = cov / np.sqrt(var[:, :-1] * var[:, 1:])
        var = np.ones_like(var)
    return var, cov


def _finite_adjacent(w, sigmas, regime, n, noise_kind, rng, batch=500):
    """Sample adjacent variances/covariances for a batch of chains with
    (presented) weights ``w``."""
    reps, d = sigmas.shape
    var = np.empty((reps, d))
    cov = np.empty((reps, d - 1))
    for start in range(0, reps, batch):
        stop = min(start + batch, reps)
        b = stop - start
        noise = standardized_noise(noise_kind, (b, n, d), rng) * sigmas[start:stop, None, :]
        x = np.empty((b, n, d))
        x[:, :, 0] = noise[:, :, 0]
        for i in range(d - 1):
            x[:, :, i + 1] = w[start:stop, i, None] * x[:, :, i] + noise[:, :, i + 1]
        if regime == "standardized":
            x = (x - x.mean(axis=1, keepdims=True)) / x.std(axis=1, keepdims=True)
        mean = x.mean(axis=1)
        var[start:stop] = x.var(axis=1)
        for i in range(d - 1):
            cov[start:stop, i] = (x[:, :, i] * x[:, :, i + 1]).mean(axis=1) - mean[:, i] * mean[:, i + 1]
    return var, cov


def chain_accuracy_study(
    d: int,
    weight_law: WeightLaw,
    reps: int,
    regime: str,
    rule: str = "coefficients",
    mode: str = "population",
    n: int | None = None,
    sigma_law: SigmaLaw = DEFAULT_CHAIN_SIGMAS,
    noise_kind: str = "gaussian",
    seed: int = 0,
) -> ChainStudyResult:
    """Orientation accuracy over ``reps`` chains, balanced forward/backward.

    Population mode evaluates the rule on exact moments; finite mode
    simulates ``n`` observations per instance. Ties fall to a seeded fair
    coin and are reported separately.
    """
    if reps < 1:
        raise ConfigurationError("need reps >= 1")
    if rule not in RULES:
        raise ConfigurationError(f"unknown rule {rule!r}")
    if mode not in MODES:
        raise ConfigurationError(f"unknown mode {mode!r}")
    if mode == "finite" and n is None:
        raise ConfigurationError("finite mode needs a sample size n >= 2")
    if mode == "population":
        n = None
    _, _, var, cov = _draw_chains(d, reps, weight_law, sigma_law, regime, n, noise_kind, seed)

    forward = np.arange(reps) % 2 == 0  # balanced presentation
    decision = _decisions(var, cov, rule, forward)
    ties = decision == 0
    decision = _break_ties(decision, seed)
    truth = np.where(forward, 1, -1)
    return ChainStudyResult(
        accuracy=float(np.mean(decision == truth)),
        tie_fraction=float(np.mean(ties)),
        d=d,
        regime=regime,
        rule=rule,
        mode=mode,
        reps=reps,
        n=n,
        weight_law=weight_law.label,
        sigma_law=sigma_law.label,
        noise_kind=noise_kind,
        seed=seed,
    )
