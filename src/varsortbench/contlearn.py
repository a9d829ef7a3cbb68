"""Continuous structure learning: losses, gradients, and solvers.

Two solver families are provided. The constrained one minimizes
``1/2 MSE + lambda1 ||W||_1`` subject to ``h(W) = 0`` via an augmented
Lagrangian with dual ascent (quasi-Newton inner solver). The penalized one
runs adaptive-moment gradient descent on a Gaussian log-likelihood score
(equal- or non-equal-variance variant) plus log-determinant correction,
L1 penalty, and a soft acyclicity penalty ``lambda2 * h(W)``.

``h(W) = tr(exp(W o W)) - d`` is zero exactly on DAG-supported matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DataError, IntegrityError, SingularModelError
from .graphs import Dag, cycle_free_support
from .metrics import shd, sid
from .scm import Dataset, LinearScm, WeightedDag, population_covariance

__all__ = [
    "NotearsSettings",
    "GolemSettings",
    "FitTrace",
    "FitTraceRow",
    "mse",
    "mse_grad",
    "golem_likelihood",
    "golem_likelihood_grad",
    "logdet_penalty",
    "logdet_penalty_grad",
    "golem_objective",
    "golem_objective_grad",
    "acyclicity_h",
    "acyclicity_h_grad",
    "notears_fit",
    "golem_fit",
    "golem_fit_batch",
    "threshold_and_break_cycles",
    "first_step_residual_variances",
    "landscape_3node",
    "LandscapeRecord",
    "enumerate_3node_dags",
]

GOLEM_VARIANTS = ("ev", "nv")


# Solver values that no caller sets (DECISIONS.md, "Solver settings").
# notears' augmented-Lagrangian schedule, with the diagonal of W held at zero:
RHO_INIT, RHO_MAX, ALPHA_INIT = 1.0, 1e16, 0.0
H_TOL, PROGRESS_FACTOR = 1e-8, 0.25
MAX_OUTER, MAX_INNER = 100, 1000
# golem's acyclicity penalty weight and Adam step size:
GOLEM_LAMBDA2, GOLEM_STEP_SIZE = 5.0, 1e-3
GOLEM_LAMBDA1 = {"ev": 2e-2, "nv": 2e-3}  # the default L1 weight of each variant


@dataclass(frozen=True)
class NotearsSettings:
    """What a caller may set for ``notears_fit``: the L1 weight."""

    lambda1: float = 0.0

    def __post_init__(self):
        if not self.lambda1 >= 0:  # NaN fails too
            raise ConfigurationError("lambda1 must be non-negative")


@dataclass(frozen=True)
class GolemSettings:
    """What a caller may set for ``golem_fit``: the L1 weight and the number
    of Adam steps. ``of(variant)`` gives the variant's defaults."""

    lambda1: float
    iterations: int = 10_000

    def __post_init__(self):
        if not self.lambda1 >= 0:  # NaN fails too
            raise ConfigurationError("lambda1 must be non-negative")
        if not isinstance(self.iterations, int) or self.iterations < 1:
            raise ConfigurationError("iterations must be a positive integer")

    @classmethod
    def of(cls, variant: str, **settings) -> "GolemSettings":
        """The settings of ``variant`` with ``settings`` replacing its
        defaults; an unknown key raises ``TypeError``."""
        _check_variant(variant)
        return cls(**{"lambda1": GOLEM_LAMBDA1[variant], **settings})


@dataclass(frozen=True)
class FitTraceRow:
    outer_iter: int
    objective: float
    mse: float
    h: float
    rho: float
    alpha: float
    max_delta_w: float


@dataclass
class FitTrace:
    rows: list[FitTraceRow] = field(default_factory=list)
    w: np.ndarray | None = None
    converged: bool = False

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("outer_iter,objective,mse,h,rho,alpha,max_delta_w\n")
            for r in self.rows:
                fh.write(
                    f"{r.outer_iter},{r.objective!r},{r.mse!r},{r.h!r},"
                    f"{r.rho!r},{r.alpha!r},{r.max_delta_w!r}\n"
                )


# ---------------------------------------------------------------------------
# Losses and gradients. Everything reduces to the scaled Gram matrix
# S = X^T X / n, so evaluations cost O(d^3) independent of n.
# ---------------------------------------------------------------------------


def _gram(data: Dataset) -> np.ndarray:
    # The raw second moment, not ``data.covariance``: the gate-7 checks pin
    # the term views below against ``X^T X`` on uncentered data.
    return data.x.T @ data.x / data.n


def _as_w(w) -> np.ndarray:
    if isinstance(w, WeightedDag):
        return w.w
    return np.asarray(w, dtype=float)


def mse(w, data: Dataset) -> float:
    """``(1/n) ||X - X W||_F^2``."""
    w = _as_w(w)
    resid = data.x - data.x @ w
    return float((resid**2).sum() / data.n)


def mse_grad(w, data: Dataset) -> np.ndarray:
    """``-(2/n) X^T (X - X W)``."""
    w = _as_w(w)
    return -2.0 / data.n * data.x.T @ (data.x - data.x @ w)


def _residual_variances(imw: np.ndarray, s: np.ndarray):
    """Per-node residual variances ``diag((I - W)^T S (I - W))`` and
    ``S (I - W)``, of one matrix or of each slice of a stack."""
    sim = s @ imw
    return np.einsum("...ij,...ij->...j", imw, sim), sim


_LIKELIHOOD_FAILURE = {
    True: "zero total residual variance",
    False: "zero residual variance in some component",
}


def _likelihood_failures(per_node, total, ev) -> np.ndarray:
    """Slices whose likelihood is undefined: a zero total residual variance
    where ``ev``, a zero per-node one elsewhere."""
    return np.where(ev, total <= 0, (per_node <= 0).any(axis=-1))


def _likelihood(per_node, sim, total, n, ev, grad: bool) -> np.ndarray:
    """Likelihood score of each slice, ``(d/2) log(n MSE)`` where ``ev`` and
    ``(1/2) sum_j log(n MSE_j)`` elsewhere, or its gradient."""
    d = sim.shape[-1]
    if grad:
        scale = np.where(ev, -d, -1.0)[:, None, None]
        return scale * sim / np.where(ev[:, None, None], total[:, None, None], per_node[:, None, :])
    with np.errstate(divide="ignore", invalid="ignore"):  # in the variant not taken
        return np.where(ev, d / 2.0 * np.log(n * total), 0.5 * np.log(n[:, None] * per_node).sum(axis=-1))


def _likelihood_of_one(w, data: Dataset, variant: str, grad: bool):
    _check_variant(variant)
    w = _as_w(w)[None]
    per_node, sim = _residual_variances(np.eye(w.shape[-1]) - w, _gram(data)[None])
    total = per_node.sum(axis=-1)
    ev = np.array([variant == "ev"])
    if _likelihood_failures(per_node, total, ev)[0]:
        raise SingularModelError(_LIKELIHOOD_FAILURE[variant == "ev"])
    return _likelihood(per_node, sim, total, np.array([float(data.n)]), ev, grad)[0]


def golem_likelihood(w, data: Dataset, variant: str) -> float:
    """Gaussian likelihood score, ``(d/2) log(n MSE)`` for the equal-variance
    variant and ``(1/2) sum_j log(n MSE_j)`` for the non-equal one."""
    return float(_likelihood_of_one(w, data, variant, grad=False))


def golem_likelihood_grad(w, data: Dataset, variant: str) -> np.ndarray:
    return _likelihood_of_one(w, data, variant, grad=True)


def _check_variant(variant):
    if variant not in GOLEM_VARIANTS:
        raise ConfigurationError(f"unknown variant {variant!r}; pick one of {GOLEM_VARIANTS}")


def logdet_penalty(w) -> float:
    """``-log(|det(I - W)|)``; vanishes on DAG-supported matrices."""
    w = _as_w(w)
    sign, logabs = np.linalg.slogdet(np.eye(w.shape[0]) - w)
    if sign == 0:
        raise SingularModelError("det(I - W) vanished")
    return -float(logabs)


def logdet_penalty_grad(w) -> np.ndarray:
    w = _as_w(w)
    imw = np.eye(w.shape[0]) - w
    try:
        inv = np.linalg.inv(imw)
    except np.linalg.LinAlgError:
        raise SingularModelError("det(I - W) vanished") from None
    return inv.T


_EXPM_CLAMP = 1e150


def _expm_nonneg(a: np.ndarray, tol: float = 1e-10, max_terms: int = 80) -> np.ndarray:
    """Matrix exponential of each slice of a (B, d, d) stack, by scaling and
    squaring with a truncated series.

    Intended for the entrywise-nonnegative matrices ``W o W``, where the
    series has no cancellation. Each slice has its own scaling exponent and
    its own series, truncated after the first term whose entries all fall
    below ``tol``; a slice stops squaring at its exponent. So each slice gets
    exactly the value it would get alone. Entries are clamped during
    squaring so that evaluations far outside the feasible region stay finite
    (the solvers only need a huge penalty and a correctly signed gradient
    there, not an exact value).
    """
    batch, d = a.shape[0], a.shape[-1]
    norm = a.sum(axis=-2).max(axis=-1)  # the 1-norm, as the entries are nonnegative
    exponent = np.ceil(np.log2(np.maximum(norm, 0.5) / 0.5))  # 0 where the norm is at most 0.5
    squarings = int(exponent.max())  # a NaN norm fails here
    b = a / np.ldexp(1.0, exponent.astype(int))[:, None, None]
    term = b  # the first term, I @ b / 1, is b exactly: b is finite and nonnegative
    out = np.eye(d) + b
    terms, partial_sums = [term], [out]
    for k in range(2, max_terms):
        if term.max() < tol:  # every slice's series has ended
            break
        term = term @ b / k
        out = out + term
        terms.append(term)
        partial_sums.append(out)
    if batch > 1:
        # A slice whose series ended before the last term takes its own sum.
        ended = np.max(terms, axis=(-2, -1)) < tol
        ended[-1] = True
        last = ended.argmax(axis=0)
        for s in np.flatnonzero(last < len(terms) - 1):
            out[s] = partial_sums[last[s]][s]
    if squarings:
        shortest = int(exponent.min())
        with np.errstate(over="ignore"):
            for r in range(squarings):
                squared = np.minimum(out @ out, _EXPM_CLAMP)
                out = squared if r < shortest else np.where((exponent > r)[:, None, None], squared, out)
    return out


def _acyclicity(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``h`` of each slice of a (B, d, d) stack and its gradient ``2 W o exp(W o W)^T``."""
    e = _expm_nonneg(w * w)
    return e.trace(axis1=-2, axis2=-1) - w.shape[-1], e.swapaxes(-1, -2) * 2.0 * w


def acyclicity_h(w) -> float:
    """``tr(exp(W o W)) - d``: non-negative, zero iff the support is acyclic."""
    return float(_acyclicity(_as_w(w)[None])[0][0])


def acyclicity_h_grad(w) -> np.ndarray:
    return _acyclicity(_as_w(w)[None])[1][0]


def _golem_objective(w, s, n, ev, lam1, lam2: float, value: bool):
    """Penalized likelihood of each slice of a (B, d, d) stack, or its gradient.

    Slice ``b`` scores ``w[b]`` on the Gram matrix ``s[b]`` of ``n[b]``
    samples, with the equal-variance likelihood where ``ev[b]``: likelihood
    + ``-log|det(I - W)|`` + ``lam1[b] ||W||_1`` + ``lam2 h(W)``. Returns
    ``(out, failed)``: ``failed`` maps each slice whose model is singular at
    ``w`` to the reason, and ``out`` is ``None`` if any slice failed. Else
    ``out`` is the gradient stack or, with ``value``, the objective, the
    total residual variance and ``h`` of each slice.
    """
    imw = np.eye(w.shape[-1]) - w
    sign, logabs = np.linalg.slogdet(imw)
    per_node, sim = _residual_variances(imw, s)
    total = per_node.sum(axis=-1)
    # A gradient also refuses a non-finite determinant, so no step starts
    # from non-finite weights.
    det_failed = sign == 0 if value else ~np.isfinite(logabs)
    failed = det_failed | _likelihood_failures(per_node, total, ev)
    if failed.any():
        det_reason = "det(I - W) vanished" + ("" if value else " during optimization")
        return None, {
            int(b): det_reason if det_failed[b] else _LIKELIHOOD_FAILURE[bool(ev[b])]
            for b in np.flatnonzero(failed)
        }
    h, h_grad = _acyclicity(w)
    if value:
        likelihood = _likelihood(per_node, sim, total, n, ev, grad=False)
        return (likelihood - logabs + lam1 * np.abs(w).sum(axis=(-2, -1)) + lam2 * h, total, h), {}
    grad = _likelihood(per_node, sim, total, n, ev, grad=True)
    grad += np.linalg.inv(imw).swapaxes(-1, -2)
    grad += lam1[:, None, None] * np.sign(w)
    grad += lam2 * h_grad
    return grad, {}


def _objective_of_one(w, data: Dataset, variant: str, lambda1: float, lambda2: float, value: bool):
    _check_variant(variant)
    out, failed = _golem_objective(
        _as_w(w)[None], _gram(data)[None], np.array([float(data.n)]), np.array([variant == "ev"]),
        np.array([lambda1]), lambda2, value,
    )
    if failed:
        # The likelihood's reason comes first, as its term comes first in the sum.
        _likelihood_of_one(w, data, variant, grad=False)
        raise SingularModelError("det(I - W) vanished")
    return out


def golem_objective(w, data: Dataset, variant: str, lambda1: float, lambda2: float) -> float:
    """Likelihood score + logdet correction + L1 + soft acyclicity penalty."""
    return float(_objective_of_one(w, data, variant, lambda1, lambda2, value=True)[0][0])


def golem_objective_grad(w, data: Dataset, variant: str, lambda1: float, lambda2: float) -> np.ndarray:
    return _objective_of_one(w, data, variant, lambda1, lambda2, value=False)[0]


# ---------------------------------------------------------------------------
# Constrained solver: augmented Lagrangian with dual ascent
# ---------------------------------------------------------------------------


def notears_fit(data: Dataset, settings: NotearsSettings | None = None) -> tuple[WeightedDag, FitTrace]:
    """Minimize ``1/2 MSE + lambda1 ||W||_1`` subject to ``h(W) = 0``.

    The L1 term is handled by splitting ``W`` into positive and negative
    parts, solved per subproblem by L-BFGS-B with the diagonal clamped at
    zero. The penalty weight ``rho`` escalates tenfold whenever ``h`` fails
    to shrink by ``PROGRESS_FACTOR``. Columns are de-meaned first. Returns
    the raw weight matrix (thresholding is a separate step) and a trace.
    """
    import scipy.optimize as sopt  # deferred: the only use of scipy, and slow to import

    s = data.covariance
    d = data.d
    lam = (settings or NotearsSettings()).lambda1

    def unpack(vec):
        return (vec[: d * d] - vec[d * d :]).reshape(d, d)

    def total_mse(w):
        per_node, sim = _residual_variances(np.eye(d) - w, s)
        return float(per_node.sum()), sim

    def objective(vec):
        w = unpack(vec)
        total, sim = total_mse(w)
        h_val, h_grad = _acyclicity(w[None])
        h_val, h_grad = float(h_val[0]), h_grad[0]
        val = 0.5 * total + 0.5 * rho * h_val**2 + alpha * h_val + lam * vec.sum()
        smooth_grad = -sim + (rho * h_val + alpha) * h_grad
        grad = np.concatenate([(smooth_grad + lam).ravel(), (-smooth_grad + lam).ravel()])
        return val, grad

    bounds = [(0.0, 0.0) if i == j else (0.0, None) for _ in range(2) for i in range(d) for j in range(d)]
    vec = np.zeros(2 * d * d)
    rho, alpha, h_val = RHO_INIT, ALPHA_INIT, np.inf
    trace = FitTrace()
    for outer in range(MAX_OUTER):
        w_prev = unpack(vec)
        sol = None
        while rho < RHO_MAX:
            sol = sopt.minimize(
                objective,
                vec,
                jac=True,
                method="L-BFGS-B",
                bounds=bounds,
                options={"maxiter": MAX_INNER},
            )
            h_new = acyclicity_h(unpack(sol.x))
            if h_new > PROGRESS_FACTOR * h_val:
                rho *= 10.0
            else:
                break
        vec = sol.x
        h_val = h_new
        alpha += rho * h_val
        w_now = unpack(vec)
        total, _ = total_mse(w_now)
        trace.rows.append(
            FitTraceRow(
                outer_iter=outer,
                objective=float(sol.fun),
                mse=total,
                h=h_val,
                rho=rho,
                alpha=alpha,
                max_delta_w=float(np.abs(w_now - w_prev).max()),
            )
        )
        if h_val <= H_TOL or rho >= RHO_MAX:
            break
    w_final = unpack(vec)
    trace.w = w_final
    trace.converged = bool(h_val <= H_TOL)
    return WeightedDag(w_final), trace


# ---------------------------------------------------------------------------
# Penalized solver: adaptive-moment gradient descent on the full objective
# ---------------------------------------------------------------------------


def golem_fit(
    data: Dataset,
    variant: str,
    settings: GolemSettings | None = None,
) -> tuple[WeightedDag, FitTrace]:
    """Gradient descent from the empty graph on the penalized likelihood.

    ``settings`` defaults to ``GolemSettings.of(variant)``. Runs exactly
    ``settings.iterations`` adaptive-moment steps of size
    ``GOLEM_STEP_SIZE``; no early stopping. Raises ``SingularModelError``
    (carrying the partial trace) if the likelihood degenerates. A batch of
    one of ``golem_fit_batch``.
    """
    (result,) = golem_fit_batch([(data, variant, settings)])
    if isinstance(result, Exception):
        raise result
    return result


def golem_fit_batch(problems) -> list:
    """Fit several ``(data, variant, settings)`` problems, each as ``golem_fit``
    would, in lockstep.

    Problems with the same node count and ``iterations`` take their steps
    together, one stacked evaluation of the objective per step. Each slice
    follows exactly the arithmetic of a fit on its own, so no result depends
    on the rest of the batch. Returns, in problem order, what
    ``golem_fit`` would return or the exception it would raise; a fit that
    fails leaves the batch and the others go on.
    """
    groups: dict = {}
    for index, (data, variant, settings) in enumerate(problems):
        _check_variant(variant)
        settings = settings or GolemSettings.of(variant)
        groups.setdefault((data.d, settings.iterations), []).append((index, data, variant, settings))
    outcomes: dict = {}
    for (_, iterations), members in groups.items():
        outcomes.update(_golem_lockstep(members, iterations))
    return [outcomes[index] for index in range(len(problems))]


def _golem_lockstep(members, iterations: int) -> dict:
    """Adam steps on a stack of ``(index, data, variant, settings)`` problems;
    returns each problem's outcome by index."""
    outcomes: dict = {}
    traces = {index: FitTrace() for index, *_ in members}
    # Row k of every array below belongs to the fit live[k]; a failed fit's row is dropped.
    live = np.array([index for index, *_ in members])
    s = np.stack([data.covariance for _, data, _, _ in members])
    n = np.array([float(data.n) for _, data, _, _ in members])
    ev = np.array([variant == "ev" for _, _, variant, _ in members])
    lam1 = np.array([settings.lambda1 for *_, settings in members])
    w = np.zeros(s.shape)
    m1, m2, w_at_last_row = w.copy(), w.copy(), w.copy()

    def drop(failed):
        for row, reason in failed.items():
            outcomes[live[row]] = SingularModelError(reason, trace=traces[live[row]])
        keep = np.ones(len(live), dtype=bool)
        keep[list(failed)] = False
        return [a[keep] for a in (live, s, n, ev, lam1, w, m1, m2, w_at_last_row)]

    beta1, beta2, eps = 0.9, 0.999, 1e-8
    trace_every = max(1, iterations // 200)
    for t in range(1, iterations + 1):
        grad, failed = _golem_objective(w, s, n, ev, lam1, GOLEM_LAMBDA2, value=False)
        if failed:
            live, s, n, ev, lam1, w, m1, m2, w_at_last_row = drop(failed)
            if not live.size:
                return outcomes
            grad, _ = _golem_objective(w, s, n, ev, lam1, GOLEM_LAMBDA2, value=False)
        m1 = beta1 * m1 + (1 - beta1) * grad
        m2 = beta2 * m2 + (1 - beta2) * grad**2
        m1_hat = m1 / (1 - beta1**t)
        m2_hat = m2 / (1 - beta2**t)
        w = w - GOLEM_STEP_SIZE * m1_hat / (np.sqrt(m2_hat) + eps)
        if t % trace_every == 0 or t == iterations:
            out, failed = _golem_objective(w, s, n, ev, lam1, GOLEM_LAMBDA2, value=True)
            if failed:
                live, s, n, ev, lam1, w, m1, m2, w_at_last_row = drop(failed)
                if not live.size:
                    return outcomes
                out, _ = _golem_objective(w, s, n, ev, lam1, GOLEM_LAMBDA2, value=True)
            delta = np.abs(w - w_at_last_row).max(axis=(-2, -1))
            for row, (index, objective, total, h) in enumerate(zip(live, *out)):
                traces[index].rows.append(
                    FitTraceRow(
                        outer_iter=t,
                        objective=float(objective),
                        mse=float(total),
                        h=float(h),
                        rho=float("nan"),
                        alpha=float("nan"),
                        max_delta_w=float(delta[row]),
                    )
                )
            w_at_last_row = w.copy()
    for row, index in enumerate(live):
        traces[index].w = w[row]
        traces[index].converged = True
        try:
            outcomes[index] = (WeightedDag(w[row]), traces[index])
        except DataError as err:
            outcomes[index] = err
    return outcomes


# ---------------------------------------------------------------------------
# Post-processing and instrumentation
# ---------------------------------------------------------------------------


def threshold_and_break_cycles(w: WeightedDag | np.ndarray, omega: float) -> Dag:
    """Zero entries below ``omega`` in magnitude, then break remaining cycles
    by repeatedly dropping the smallest-magnitude edge that lies on a cycle:
    ``graphs.cycle_free_support`` restricted to ``|w| >= omega``."""
    if omega < 0:
        raise ConfigurationError("omega must be non-negative")
    mat = _as_w(w)
    return Dag(cycle_free_support(mat) & (np.abs(mat) >= omega))


def first_step_residual_variances(data: Dataset, a: float) -> np.ndarray:
    """Per-node residual variances after one symmetric gradient step.

    The step moves the weight matrix from zero by ``a * X^T X`` (the
    descent direction of the squared-error loss, scale folded into ``a``);
    the result is ``diag(D - 2 a D^2 + a^2 D^3) / n`` with ``D = X^T X`` on
    de-meaned columns. At ``a = 0`` this is the vector of marginal
    variances.
    """
    if a < 0:
        raise ConfigurationError("step scale must be non-negative")
    dmat = data.n * data.covariance
    d2 = dmat @ dmat
    d3 = d2 @ dmat
    r = np.diag(dmat) - 2.0 * a * np.diag(d2) + a**2 * np.diag(d3)
    return r / data.n


# ---------------------------------------------------------------------------
# Exhaustive 3-node score landscape
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LandscapeRecord:
    edges: tuple[tuple[int, int], ...]
    score: float
    shd: int
    sid: int
    is_argmin: bool


def enumerate_3node_dags() -> list[Dag]:
    """All 25 DAGs on three labeled nodes, in a fixed deterministic order."""
    pairs = [(0, 1), (0, 2), (1, 2)]
    out = []
    for states in np.ndindex(3, 3, 3):
        adj = np.zeros((3, 3), dtype=bool)
        for (a, b), state in zip(pairs, states):
            if state == 1:
                adj[a, b] = True
            elif state == 2:
                adj[b, a] = True
        try:
            out.append(Dag(adj))
        except IntegrityError:
            continue  # the two cyclic triangles
    return out


def landscape_3node(
    scm: LinearScm,
    lambda1: float,
    data: Dataset | None = None,
    standardize_input: bool = False,
    tie_tol: float = 1e-9,
) -> list[LandscapeRecord]:
    """Score all 25 candidate structures against a 3-node ground truth.

    Each candidate gets maximum-likelihood non-equal-variance Gaussian
    parameters by least squares on its support (from the sample covariance
    if ``data`` is given, else from the exact model covariance) and is
    scored by ``1/2 sum_j log(MSE_j) + lambda1 ||W||_1``. Exactly one record
    is flagged as the minimizer; score ties are resolved in favor of the
    true structure.
    """
    if scm.d != 3:
        raise ConfigurationError("landscape enumeration is defined for 3 nodes")
    cov = data.covariance if data is not None else population_covariance(scm)
    if standardize_input:
        scale = np.sqrt(np.diag(cov))
        cov = cov / np.outer(scale, scale)

    candidates = enumerate_3node_dags()
    scores = np.empty(len(candidates))
    rows = []
    for idx, cand in enumerate(candidates):
        w = np.zeros((3, 3))
        log_mse = 0.0
        for j in range(3):
            parents = list(cand.parents(j))
            if parents:
                coef = np.linalg.solve(cov[np.ix_(parents, parents)], cov[parents, j])
                w[parents, j] = coef
                resid = float(cov[j, j] - cov[parents, j] @ coef)
            else:
                resid = float(cov[j, j])
            if resid <= 0:
                raise SingularModelError("degenerate residual variance in candidate fit")
            log_mse += np.log(resid)
        scores[idx] = 0.5 * log_mse + lambda1 * float(np.abs(w).sum())
        rows.append((cand, scores[idx]))

    best = float(scores.min())
    tied = np.abs(scores - best) <= tie_tol * max(1.0, abs(best))
    truth_idx = next(i for i, (cand, _) in enumerate(rows) if cand == scm.graph)
    argmin_idx = truth_idx if tied[truth_idx] else int(np.argmin(scores))

    return [
        LandscapeRecord(
            edges=tuple(cand.edges()),
            score=float(score),
            shd=shd(scm.graph, cand),
            sid=sid(scm.graph, cand),
            is_argmin=(idx == argmin_idx),
        )
        for idx, (cand, score) in enumerate(rows)
    ]
