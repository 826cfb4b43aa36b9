"""Stochastic and deterministic solvers for the semi-discrete dual.

The main entry point is :func:`averaged_sgd`, a constant-step stochastic
ascent on the dual potential with averaged iterates and a pluggable
gradient oracle (exact closed forms, guarded bisection with a decaying
accuracy schedule, or the plain subgradient with an optional Tikhonov
term). Reference solutions come from an accelerated gradient method on
finite-sample duals, an exact transport LP on small instances, or a long
stochastic run where neither applies.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

from .core import (
    CostSpec,
    DiscreteMeasure,
    Sampler,
    SamplerSpec,
    cost_matrix,
    draw,
    make_sampler,
)
from .noise import (
    MarginalModel,
    choice_jacobian,
    marginal_lipschitz,
    probs_from_utilities,
    utilities_values_probs,
)

RATE_RULES = ("lipschitz", "smooth", "self-concordant")


@dataclass(frozen=True)
class RateConstants:
    """Constants feeding the step-size rules; R is the gradient bound."""

    R: float = 2.0
    L: float | None = None
    M: float | None = None
    eps_bar: float = 0.0
    kappa: float | None = None

    def __post_init__(self):
        for name in ("R", "L", "M", "eps_bar", "kappa"):
            v = getattr(self, name)
            if v is not None and (not np.isfinite(v) or v < 0.0):
                raise ValueError(f"{name} must be nonnegative and finite")

    @property
    def G(self) -> float:
        base = self.R + self.eps_bar
        return max(self.M, base) if self.M is not None else base


def step_size(rule: str, T: int, eps_bar: float = 0.0, L: float | None = None,
              G: float | None = None, theorem_variant: bool = False) -> float:
    """Constant step for a T-iteration run under the named regularity rule.

    Parameters
    ----------
    rule : str
        ``lipschitz``, ``smooth`` (needs L) or ``self-concordant`` (needs G).
    T : int
        Iteration budget.
    eps_bar : float
        Oracle bias budget entering the lipschitz (and variant) formulas.
    L : float, optional
        Smoothness constant of the dual gradient.
    G : float, optional
        max(M, 2 + eps_bar) for the self-concordant rule.
    theorem_variant : bool
        Use the squared-factor variant of the first two rules.
    """
    if T < 1:
        raise ValueError("T must be at least 1")
    root = math.sqrt(T)
    if rule == "lipschitz":
        fac = (2.0 + eps_bar) ** 2 if theorem_variant else (2.0 + eps_bar)
        return 1.0 / (2.0 * fac * root)
    if rule == "smooth":
        if L is None:
            raise ValueError("smooth rule needs the constant L")
        if theorem_variant:
            return 1.0 / (2.0 * (2.0 + eps_bar) ** 2 * root + L)
        return 1.0 / (2.0 * root + L)
    if rule == "self-concordant":
        if G is None:
            raise ValueError("self-concordant rule needs the constant G")
        return 1.0 / (2.0 * G * G * root)
    raise ValueError(f"unknown step-size rule: {rule!r}")


@dataclass(frozen=True)
class SolverConfig:
    """Run parameters for :func:`averaged_sgd`.

    ``eps_bar`` feeds both the step-size formula and the per-iteration
    bisection accuracy eps_bar / (2 sqrt(t)); ``tikhonov`` only applies to
    the unsmoothed oracle. ``log_every=1`` turns on full trace logging,
    the default is geometric checkpoints {1, 2, 4, ...} plus T.
    """

    T: int
    rule: str = "lipschitz"
    eps_bar: float = 0.0
    L: float | None = None
    M: float | None = None
    tikhonov: float = 0.0
    seed: int | None = None
    theorem_variant: bool = False
    log_every: int | None = None

    def __post_init__(self):
        if self.T < 1:
            raise ValueError("T must be at least 1")
        if self.rule not in RATE_RULES:
            raise ValueError(f"unknown step-size rule: {self.rule!r}")
        if self.eps_bar < 0.0 or self.tikhonov < 0.0:
            raise ValueError("eps_bar and tikhonov must be nonnegative")


@dataclass(frozen=True)
class TraceRow:
    t: int
    phi: np.ndarray
    under_avg: np.ndarray
    bar_avg: np.ndarray
    walltime_ms: float
    subopt_estimate: float | None = None


def _phi_hash(phi: np.ndarray) -> str:
    return hashlib.blake2b(np.ascontiguousarray(phi).tobytes()).hexdigest()[:16]


@dataclass
class SolverTrace:
    """Checkpoint log of one solver run; serializes to a small CSV."""

    rows: list
    sample_count: int
    wall_time_ms: float

    def to_csv(self, timing: str = "measured") -> str:
        if timing not in ("measured", "zero"):
            raise ValueError("timing must be 'measured' or 'zero'")
        lines = ["t,phi_hash,subopt_estimate,walltime_ms"]
        for r in self.rows:
            sub = "" if r.subopt_estimate is None else repr(float(r.subopt_estimate))
            ms = 0.0 if timing == "zero" else float(r.walltime_ms)
            lines.append(f"{r.t},{_phi_hash(r.phi)},{sub},{repr(ms)}")
        return "\n".join(lines) + "\n"


def _checkpoint_schedule(T: int, log_every: int | None):
    if log_every is not None:
        if log_every < 1:
            raise ValueError("log_every must be positive")
        sched = set(range(log_every, T + 1, log_every))
    else:
        sched = set()
        k = 1
        while k <= T:
            sched.add(k)
            k *= 2
    sched.add(T)
    return sched


def averaged_sgd(sampler, nu: DiscreteMeasure, c: CostSpec,
                 model: MarginalModel | None, config: SolverConfig):
    """Constant-step stochastic ascent with averaged iterates.

    Parameters
    ----------
    sampler : SamplerSpec or Sampler
        Source distribution; a spec opens a fresh stream so that equal
        configs reproduce bit-identical runs.
    nu : DiscreteMeasure
        Target measure.
    c : CostSpec
        Ground cost.
    model : MarginalModel or None
        Noise model for the gradient oracle; None runs on the plain
        subgradient, optionally damped by ``config.tikhonov``.
    config : SolverConfig
        Iteration budget, step rule and constants.

    Returns
    -------
    (under_avg, bar_avg, trace)
        Averages of the first and last T iterates, and the checkpoint trace.
    """
    if model is not None and model.n != nu.n_atoms:
        raise ValueError("model weights and measure atoms disagree in length")
    needs_bisection = model is not None and model.kind not in ("exponential", "uniform")
    if needs_bisection and config.eps_bar <= 0.0:
        raise ValueError("bisection oracle needs a positive eps_bar")
    if isinstance(sampler, SamplerSpec):
        spec = sampler if config.seed is None else SamplerSpec(
            sampler.kind, d=sampler.d, points=sampler.points,
            weights=sampler.weights, seed=config.seed)
        stream = make_sampler(spec)
    elif isinstance(sampler, Sampler):
        stream = sampler
    else:
        raise TypeError("sampler must be a SamplerSpec or Sampler")

    T = config.T
    gamma = step_size(config.rule, T, eps_bar=config.eps_bar, L=config.L,
                      G=None if config.M is None else max(config.M, 2.0 + config.eps_bar),
                      theorem_variant=config.theorem_variant)
    X = stream.draw(T)
    C = cost_matrix(X, nu.atoms, c)
    n = nu.n_atoms
    weights = nu.weights
    phi = np.zeros(n)
    under_sum = np.zeros(n)
    bar_sum = np.zeros(n)
    sched = _checkpoint_schedule(T, config.log_every)
    rows = []
    t0 = time.perf_counter()
    for t in range(1, T + 1):
        under_sum += phi
        u = phi - C[t - 1]
        if model is None:
            p = np.zeros(n)
            p[int(np.argmax(u))] = 1.0
            if config.tikhonov > 0.0:
                p = p + 2.0 * config.tikhonov * phi
        elif needs_bisection:
            try:
                p = probs_from_utilities(u, model,
                                         eps=config.eps_bar / (2.0 * math.sqrt(t))).p
            except ValueError as exc:
                raise ValueError(f"gradient oracle failed at iteration {t}: {exc}") from exc
        else:
            p = probs_from_utilities(u, model).p
        phi = phi + gamma * (weights - p)
        bar_sum += phi
        if t in sched:
            ms = (time.perf_counter() - t0) * 1000.0
            rows.append(TraceRow(t, phi.copy(), under_sum / t, bar_sum / t, ms))
    total_ms = (time.perf_counter() - t0) * 1000.0
    trace = SolverTrace(rows, T, total_ms)
    return under_sum / T, bar_sum / T, trace


def dual_objective_estimate(phi, nu: DiscreteMeasure, c: CostSpec,
                            model: MarginalModel | None, samples,
                            eps: float | None = None):
    """Monte Carlo estimate of the dual objective at a fixed potential.

    Returns ``(mean, stderr)`` of the per-sample dual contribution
    nu . phi - psi(phi, x) over the given sample array.
    """
    phi = np.asarray(phi, dtype=float).reshape(-1)
    X = np.atleast_2d(np.asarray(samples, dtype=float))
    U = phi[None, :] - cost_matrix(X, nu.atoms, c)
    if model is not None and eps is None and model.kind not in ("exponential", "uniform"):
        eps = 1e-9
    vals, _ = utilities_values_probs(U, model, eps=eps)
    contrib = float(nu.weights @ phi) - vals
    m = contrib.size
    mean = float(contrib.mean())
    stderr = float(contrib.std(ddof=1) / math.sqrt(m)) if m > 1 else 0.0
    return mean, stderr


# -------------------------------------------------------------------- agd

def _finite_dual(phi, U0, C, weights, nu_w, model, eps=None):
    U = phi[None, :] - C
    vals, P = utilities_values_probs(U, model, eps=eps)
    value = float(nu_w @ phi) - float(weights @ vals)
    grad = nu_w - P.T @ weights
    return value, grad, P


def nesterov_agd(points, weights, nu: DiscreteMeasure, c: CostSpec,
                 model: MarginalModel, phi0=None, grad_tol: float = 1e-7,
                 max_iter: int = 20000):
    """Maximize the finite-sample smooth dual by accelerated ascent.

    Only the closed-form model kinds are accepted; their gradients are
    exact, which the acceleration scheme requires. Uses backtracking on
    the local curvature and a monotone restart.

    Returns ``(phi, info)`` with ``info`` carrying value, gradient norm
    and iteration count.
    """
    if model is None or model.kind not in ("exponential", "uniform"):
        raise ValueError("accelerated ascent needs an exact-gradient model kind")
    points = np.atleast_2d(np.asarray(points, dtype=float))
    weights = np.asarray(weights, dtype=float).reshape(-1)
    if weights.size != points.shape[0] or abs(weights.sum() - 1.0) > 1e-9:
        raise ValueError("weights must match the points and sum to one")
    C = cost_matrix(points, nu.atoms, c)
    n = nu.n_atoms
    x = np.zeros(n) if phi0 is None else np.asarray(phi0, dtype=float).copy()
    y = x.copy()
    tk = 1.0
    lips = marginal_lipschitz(model)
    Lk = max(lips if lips is not None else 1.0, 1e-6)
    fx, gx, _ = _finite_dual(x, None, C, weights, nu.weights, model)
    it = 0
    for it in range(1, max_iter + 1):
        fy, gy, _ = _finite_dual(y, None, C, weights, nu.weights, model)
        while True:
            x_new = y + gy / Lk
            fn, gn, _ = _finite_dual(x_new, None, C, weights, nu.weights, model)
            if fn >= fy + float(gy @ (x_new - y)) - 0.5 * Lk * float((x_new - y) @ (x_new - y)):
                break
            Lk *= 2.0
            if Lk > 1e14:
                break
        if fn < fx:
            # restart: the momentum overshot a concave ridge
            y = x.copy()
            tk = 1.0
            Lk *= 2.0
            continue
        t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * tk * tk))
        y = x_new + ((tk - 1.0) / t_new) * (x_new - x)
        x, fx, gx = x_new, fn, gn
        tk = t_new
        Lk = max(Lk * 0.9, 1e-6)
        if float(np.linalg.norm(gx)) <= grad_tol:
            break
    info = {"value": fx, "grad_norm": float(np.linalg.norm(gx)), "iterations": it}
    return x, info


# --------------------------------------------------------------------- lp

# Above this many LP variables the boundary-reduction scheme takes over.
# At 31,600 variables (T=316, n=10 in the gating run) the direct LP takes
# 1.2-1.6 s and the reduction 0.1-0.15 s. At 10,000 (T=100) the direct LP
# takes 0.15-0.18 s, while the reduction may return another, equally
# optimal dual vertex of the small LP: over 192 seeded T=100 cells that
# moved the experiment's potgap by up to 12.8%.
_DIRECT_LIMIT = 10_000
# The entropic pilot runs at this share of the cost matrix's spread; its
# gradient tolerance is this share of the smallest target weight.
_PILOT_LAM = 2e-3
_PILOT_TOL = 1e-4


def _transport_lp(mu: DiscreteMeasure, nu: DiscreteMeasure, c: CostSpec):
    m, n = mu.n_atoms, nu.n_atoms
    if m * n > 1_000_000:
        raise ValueError("instance too large for the exact LP (m*n > 1e6)")
    C = cost_matrix(mu.atoms, nu.atoms, c)
    row_idx = np.repeat(np.arange(m), n)
    col_idx = np.tile(np.arange(n), m) + m
    var = np.arange(m * n)
    A = sp.coo_matrix(
        (np.ones(2 * m * n), (np.concatenate([row_idx, col_idx]), np.concatenate([var, var]))),
        shape=(m + n, m * n),
    ).tocsr()
    b = np.concatenate([mu.weights, nu.weights])
    res = linprog(C.reshape(-1), A_eq=A, b_eq=b, bounds=(0, None), method="highs")
    if not res.success:
        raise RuntimeError(f"transport LP failed: {res.message}")
    plan = res.x.reshape(m, n)
    duals = np.asarray(res.eqlin.marginals, dtype=float)
    # normalize the dual sign so strong duality holds as b @ y = value
    if abs(b @ duals - res.fun) > abs(b @ (-duals) - res.fun):
        duals = -duals
    return float(res.fun), plan, duals[:m], duals[m:]


def _reduced_transport_value_phi(X: np.ndarray, a: np.ndarray,
                                 nu: DiscreteMeasure, c: CostSpec):
    """Exact transport value on a large sample set via boundary reduction.

    The pilot potential maximizes the entropic dual over the full sample
    at a small lambda (a fixed share of the cost spread), by
    :func:`nesterov_agd`. Every sample whose best atom wins by more than a
    margin of 2 lambda log n (lambda when n = 1) is fixed to that atom;
    only the boundary samples and their near-best atoms enter a small
    sparse LP. A pass is accepted only when the full problem's duality
    gap closes: the returned potential is dual feasible by construction,
    so the gap brackets the optimum. Failed passes refine the duals,
    widening the margin when refinement stalls.

    On the gating instances (n=10, sup-norm, Gaussian samples; 2-core
    Xeon) the pilot takes 75-100 iterations and the first pass certifies.
    The solve takes 0.45 s at m=10,000, 1.4-1.6 s at m=31,620 and 6-7 s
    at m=100,000, where the pilot is two thirds of it.

    Returns ``(value, phi, cert)`` with ``value`` equal to the semi-dual
    objective at the mean-zero ``phi``. ``cert`` holds the accepted
    ``gap`` (primal minus dual), the number of ``passes`` and the
    ``boundary`` size of each pass as [rows, LP variables].
    """
    m, n = X.shape[0], nu.n_atoms
    C = cost_matrix(X, nu.atoms, c)
    rows = np.arange(m)
    spread = float(C.max() - C.min())
    lam = _PILOT_LAM * spread if spread > 0.0 else 1.0
    pilot = MarginalModel("exponential", lam, nu.weights)
    phi, _ = nesterov_agd(X, a, nu, c, pilot,
                          grad_tol=_PILOT_TOL * float(nu.weights.min()))
    phi = phi - phi.mean()
    margin = lam * max(2.0 * math.log(n), 1.0)
    prev_gap = math.inf
    boundary = []
    for _ in range(16):
        S = phi[None, :] - C
        top = np.argmax(S, axis=1)
        best = S[rows, top]
        S2 = S.copy()
        S2[rows, top] = -np.inf
        narrow = best - S2.max(axis=1) <= margin
        filled = np.bincount(top[~narrow], weights=a[~narrow], minlength=n)
        resid = nu.weights - filled
        sub = np.flatnonzero(narrow)
        boundary.append([int(sub.size), 0])
        if resid.min() < -1e-15:
            margin *= 2.0
            continue
        if sub.size:
            regret = best[sub][:, None] - S[sub]
            cand = regret <= margin
            # a few escape columns per atom keep the restricted problem
            # feasible when the margin slabs cannot route the residual
            pad = min(64, sub.size)
            cand[np.argsort(regret, axis=0)[:pad], np.arange(n)[None, :]] = True
            ci, cj = np.nonzero(cand)
            k = ci.size
            boundary[-1][1] = int(k)
            A = sp.coo_matrix(
                (np.ones(2 * k),
                 (np.concatenate([ci, sub.size + cj]), np.concatenate([np.arange(k)] * 2))),
                shape=(sub.size + n, k)).tocsr()
            b_eq = np.concatenate([a[sub], resid])
            res = linprog(C[sub[ci], cj], A_eq=A, b_eq=b_eq, bounds=(0, None),
                          method="highs")
            if not res.success:
                margin *= 2.0
                continue
            y = np.asarray(res.eqlin.marginals, dtype=float)
            if abs(res.fun - b_eq @ y) > abs(res.fun - b_eq @ (-y)):
                y = -y
            phi_new = y[sub.size:]
            moved = float(res.fun)
        else:
            phi_new = phi
            moved = 0.0
        psi = (phi_new[None, :] - C).max(axis=1)
        dual = float(nu.weights @ phi_new) - float(a @ psi)
        primal = float(a[~narrow] @ C[rows[~narrow], top[~narrow]]) + moved
        gap = primal - dual
        if gap <= 1e-6 * max(1.0, abs(primal)):
            cert = {"gap": gap, "passes": len(boundary), "boundary": boundary}
            return dual, phi_new - phi_new.mean(), cert
        if gap > prev_gap / 4.0:
            margin *= 2.0
        prev_gap = gap
        phi = phi_new - phi_new.mean()
    raise RuntimeError("boundary reduction did not certify a transport optimum")


def exact_discrete_ot(mu: DiscreteMeasure, nu: DiscreteMeasure, c: CostSpec):
    """Exact optimal transport between two small discrete measures.

    Returns ``(value, plan)``; the plan's marginals match the inputs to
    1e-9. Guarded to m*n <= 1e6 variables.
    """
    value, plan, _, _ = _transport_lp(mu, nu, c)
    return value, plan


def exact_discrete_ot_duals(mu: DiscreteMeasure, nu: DiscreteMeasure, c: CostSpec):
    """Exact transport value, plan and an optimal dual pair (u, phi)."""
    return _transport_lp(mu, nu, c)


# -------------------------------------------------------------- reference

def finite_sample_reference(sampler, nu: DiscreteMeasure, c: CostSpec,
                            model: MarginalModel | None, T: int,
                            eps_bar: float = 0.1, multiplier: int = 10):
    """Reference value and potential from a larger finite sample.

    Draws ``multiplier * T`` points from a fresh stream of ``sampler`` (so
    a solver run of length T consumes a prefix of the same stream) and
    solves the induced finite problem: an exact LP without a model, the
    accelerated method for closed-form kinds, and a long averaged-SGD run
    (50x iterations) otherwise. Potentials are returned in the mean-zero
    gauge. Returns ``(value, phi, info)``; for the LP, ``info`` carries the
    certificate ``gap`` (primal minus dual at ``phi``) and, when
    ``reduced``, the ``passes`` and ``boundary`` sizes of the reduction.
    """
    if not isinstance(sampler, SamplerSpec):
        raise TypeError("finite_sample_reference needs a SamplerSpec")
    m = multiplier * T
    n = nu.n_atoms
    if m * n > 2e8:
        raise ValueError("reference sample too large (multiplier*T*n > 2e8)")
    X = draw(sampler, m)
    w = np.full(m, 1.0 / m)
    if model is None:
        reduced = m * n > _DIRECT_LIMIT
        if reduced:
            value, phi, cert = _reduced_transport_value_phi(X, w, nu, c)
        else:
            value, _, _, phi = _transport_lp(DiscreteMeasure(X, w), nu, c)
            psi = (phi[None, :] - cost_matrix(X, nu.atoms, c)).max(axis=1)
            cert = {"gap": value - (float(nu.weights @ phi) - float(w @ psi))}
        phi = phi - phi.mean()
        info = {"method": "lp", "samples": m, "reduced": reduced, **cert}
        return value, phi, info
    if model.kind in ("exponential", "uniform"):
        phi, agd_info = nesterov_agd(X, w, nu, c, model)
        phi = phi - phi.mean()
        info = {"method": "agd", "samples": m, **agd_info}
        return agd_info["value"], phi, info
    emp = SamplerSpec("empirical", points=X, weights=w,
                      seed=sampler.seed if sampler.seed is not None else 0)
    cfg = SolverConfig(T=50 * T, rule="smooth", L=marginal_lipschitz(model),
                       eps_bar=eps_bar)
    _, bar, _ = averaged_sgd(emp, nu, c, model, cfg)
    phi = bar - bar.mean()
    U = phi[None, :] - cost_matrix(X, nu.atoms, c)
    vals, P = utilities_values_probs(U, model, eps=1e-10)
    value = float(nu.weights @ phi) - float(w @ vals)
    resid = float(np.linalg.norm(nu.weights - P.T @ w))
    info = {"method": "sgd-50x", "samples": m, "iterations": 50 * T,
            "grad_norm": resid}
    return value, phi, info


def kappa_estimate(phi, points, weights, nu: DiscreteMeasure, c: CostSpec,
                   model: MarginalModel, eps: float = 1e-10) -> float:
    """Smallest curvature of the finite-sample dual at phi, shift gauge.

    Diagnostic only: averages the choice-probability Jacobians over the
    sample and reports the smallest eigenvalue orthogonal to the constant
    shift direction.
    """
    phi = np.asarray(phi, dtype=float).reshape(-1)
    points = np.atleast_2d(np.asarray(points, dtype=float))
    weights = np.asarray(weights, dtype=float).reshape(-1)
    C = cost_matrix(points, nu.atoms, c)
    n = nu.n_atoms
    H = np.zeros((n, n))
    for j in range(points.shape[0]):
        H += weights[j] * choice_jacobian(phi - C[j], model, eps=eps)
    ones = np.ones((n, 1)) / math.sqrt(n)
    Q = np.linalg.qr(np.eye(n) - ones @ ones.T)[0][:, : n - 1]
    return float(np.linalg.eigvalsh(Q.T @ H @ Q).min())
