"""Stochastic and deterministic solvers for the semi-discrete dual.

The main entry point is :func:`averaged_sgd`, a constant-step stochastic
ascent on the dual potential with averaged iterates and a pluggable
gradient oracle (exact closed forms, guarded bisection with a decaying
accuracy schedule, or the plain subgradient with an optional Tikhonov
term). References solve one finite-sample dual: by damped Newton for
closed-form kinds, by a transport LP without a model, and otherwise by
a long stochastic run under the step rule of :func:`sgd_config`.
:func:`damped_newton` is the one damped loop and takes its evaluation:
the references and the LP's entropic pilot hand it the finite-sample
dual :func:`_finite_dual` with its Hessian.
scipy's LP solver loads on the first transport LP, so paths that solve
none never import it.
"""

from __future__ import annotations

import functools
import hashlib
import math
import time
from dataclasses import dataclass

import numpy as np

from .core import (CostSpec, DiscreteMeasure, SamplerSpec, _check_entries,
                   _check_finite_nonnegative, _count, cost_matrix, draw)
from .noise import (
    CLOSED_FORM_KINDS,
    MarginalModel,
    _kernel,
    _mass_checked,
    _row_blocks,
    averaged_choice_jacobian,
    marginal_lipschitz,
)

TIMING_MODES = ("zero", "measured")
_NEWTON_MAX_ITER = 100  # the step budget of damped_newton


@dataclass(frozen=True)
class SolverConfig:
    """Run parameters for :func:`averaged_sgd`.

    The constant :attr:`step` is 1 / (2 (2 + eps_bar) sqrt(T)) under rule
    ``lipschitz`` (bounded gradients), and 1 / (2 sqrt(T) + L) under
    ``smooth`` (L-Lipschitz marginal cdfs). ``eps_bar`` also sets the
    bisection accuracy eps_bar / (2 sqrt(t)) of iteration t; ``tikhonov``
    only applies to the unsmoothed oracle. ``log_every=1`` logs every
    iteration, the default geometric checkpoints {1, 2, 4, ...} plus T.
    """

    T: int
    rule: str = "lipschitz"
    eps_bar: float = 0.0
    L: float | None = None
    tikhonov: float = 0.0
    log_every: int | None = None

    def __post_init__(self):
        _count(self.T, "T", least=1)
        for field in ("eps_bar", "tikhonov"):
            _check_finite_nonnegative(getattr(self, field), field)
        if self.log_every is not None:
            _count(self.log_every, "log_every", least=1)
        self.step  # an unknown rule, or smooth without L, fails here

    @property
    def step(self) -> float:
        """The constant step of a T-iteration run under ``rule``."""
        root = math.sqrt(self.T)
        if self.rule == "lipschitz":
            return 1.0 / (2.0 * (2.0 + self.eps_bar) * root)
        if self.rule == "smooth":
            if self.L is None:
                raise ValueError("smooth rule needs the constant L")
            return 1.0 / (2.0 * root + self.L)
        raise ValueError(f"unknown step-size rule: {self.rule!r}")


def sgd_config(model: MarginalModel | None, T: int, eps_bar: float = 0.1) -> SolverConfig:
    """Step rule for ``model``: smooth with L when the marginal cdfs are
    Lipschitz, bounded-gradient otherwise (with Tikhonov 1e-8 when there is
    no model). ``eps_bar`` reaches only the bisection kinds."""
    _check_finite_nonnegative(eps_bar, "eps_bar")
    if model is None:
        return SolverConfig(T=T, rule="lipschitz", tikhonov=1e-8)
    lips = marginal_lipschitz(model)
    return SolverConfig(T=T, rule="lipschitz" if lips is None else "smooth", L=lips,
                        eps_bar=0.0 if model.kind in CLOSED_FORM_KINDS else eps_bar)


@dataclass(frozen=True)
class TraceRow:
    t: int
    phi: np.ndarray
    under_avg: np.ndarray
    bar_avg: np.ndarray
    walltime_ms: float


def _phi_hash(phi: np.ndarray) -> str:
    return hashlib.blake2b(np.ascontiguousarray(phi).tobytes()).hexdigest()[:16]


@dataclass
class SolverTrace:
    """Checkpoint log of one solver run; serializes to a small CSV."""

    rows: list

    def to_csv(self, timing: str = "measured") -> str:
        rows = ((f"{r.t},{_phi_hash(r.phi)}", r.walltime_ms) for r in self.rows)
        return _timed_csv("t,phi_hash,walltime_ms", rows, timing)


def _timed_csv(header: str, rows, timing: str) -> str:
    """CSV text of ``(fields, ms)`` rows with the ms column last, written
    as 0.0 under ``timing="zero"`` so that equal runs give equal bytes."""
    if timing not in TIMING_MODES:
        raise ValueError(f"timing must be one of {TIMING_MODES}")
    zero = timing == "zero"
    lines = [header, *(f"{fields},{repr(0.0 if zero else float(ms))}" for fields, ms in rows)]
    return "\n".join(lines) + "\n"


def _checkpoint_schedule(T: int, log_every: int | None):
    if log_every is not None:
        sched = set(range(log_every, T + 1, log_every))
    else:
        sched = set()
        k = 1
        while k <= T:
            sched.add(k)
            k *= 2
    sched.add(T)
    return sched


def averaged_sgd(sampler: SamplerSpec, nu: DiscreteMeasure, c: CostSpec,
                 model: MarginalModel | None, config: SolverConfig):
    """Constant-step stochastic ascent with averaged iterates.

    Each step hands its 1-d utility row phi - c(x_t, .) straight to the
    choice-probability kernel and checks the row's mass.

    Parameters
    ----------
    sampler : SamplerSpec
        Source distribution; each run opens a fresh stream from its seed,
        so equal inputs reproduce bit-identical runs.
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
    if model is not None and model.kind not in CLOSED_FORM_KINDS and config.eps_bar <= 0.0:
        raise ValueError("bisection oracle needs a positive eps_bar")
    if not isinstance(sampler, SamplerSpec):
        raise TypeError("sampler must be a SamplerSpec")

    T = config.T
    _check_entries(int(T) * nu.n_atoms, "SGD cost matrix (T*n)")
    gamma = config.step
    C = cost_matrix(draw(sampler, T), nu.atoms, c)
    n = nu.n_atoms
    weights = nu.weights
    phi = np.zeros(n)
    # the under-average's sum of phi_0..phi_{t-1} is the bar sum one step
    # behind, bit for bit, because phi_0 is zero: no second running sum
    bar_sum = np.zeros(n)
    # every step rewrites its utilities u, its update and, for the plain
    # subgradient, the one-hot row at the first maximizer ``win`` in place
    u, update, onehot, win = np.empty(n), np.empty(n), np.zeros(n), 0
    damping = 2.0 * config.tikhonov  # the Tikhonov term's gradient is damping * phi
    sched = _checkpoint_schedule(T, config.log_every)
    rows = []
    t0 = time.perf_counter()
    for t, costs in enumerate(C, 1):
        np.subtract(phi, costs, out=u)
        if model is None:
            onehot[win] = 0.0
            win = int(u.argmax())
            onehot[win] = 1.0
            p = onehot
            if damping > 0.0:
                p = np.add(onehot, np.multiply(damping, phi, out=update), out=update)
        else:
            # closed forms read no eps and check their mass with no slack
            eps = config.eps_bar / (2.0 * math.sqrt(t))
            try:
                p = _mass_checked(_kernel(u, model, eps), model, eps)
            except ValueError as exc:
                raise ValueError(f"gradient oracle failed at iteration {t}: {exc}") from exc
        # phi += gamma * (weights - p)
        phi += np.multiply(gamma, np.subtract(weights, p, out=update), out=update)
        if t in sched:
            under = bar_sum / t
            bar_sum += phi
            ms = (time.perf_counter() - t0) * 1000.0
            rows.append(TraceRow(t, phi.copy(), under, bar_sum / t, ms))
        else:
            bar_sum += phi
    return under, bar_sum / T, SolverTrace(rows)


def dual_objective_estimate(phi, nu: DiscreteMeasure, c: CostSpec,
                            model: MarginalModel | None, samples, eps: float = 1e-9):
    """Monte Carlo estimate of the dual objective at a fixed potential.

    Returns ``(mean, stderr)`` of the per-sample dual contribution
    nu . phi - psi(phi, x) over the given sample array; ``eps`` is the
    bisection kinds' accuracy, and closed forms ignore it. The sample's
    costs are built block by block in :func:`_row_blocks` and dropped
    with their block, so no array of m x n costs is held. A ``phi`` of
    another length than the atoms', an empty sample, or a NaN or infinite
    entry in either is a ValueError naming it.
    """
    phi = np.asarray(phi, dtype=float).reshape(-1)
    if phi.size != nu.n_atoms:
        raise ValueError(f"phi must have one entry per atom ({nu.n_atoms}), got {phi.size}")
    X = np.atleast_2d(np.asarray(samples, dtype=float))
    if X.size == 0:
        raise ValueError("samples must hold at least one point")
    for field, value in (("phi", phi), ("samples", X)):
        if not np.isfinite(value).all():
            raise ValueError(f"{field} must be finite")
    vals = np.empty(X.shape[0])
    for _ in _row_blocks(X, model, eps, phi, vals, cost=(nu.atoms, c)):
        pass  # values only: each block's probabilities are overwritten by the next
    contrib = float(nu.weights @ phi) - vals
    m = contrib.size
    mean = float(contrib.mean())
    stderr = float(contrib.std(ddof=1) / math.sqrt(m)) if m > 1 else 0.0
    return mean, stderr


# ------------------------------------------------------------ finite dual

def _finite_dual(phi, C, weights, nu_w, model, eps=None, hessian=False):
    """Value and gradient of the finite-sample dual, and with ``hessian``
    its negated Hessian (else None): rows of C carry ``weights``, columns
    the target weights ``nu_w``, and ``model=None`` takes the plain max.

    One pass of :func:`_row_blocks`: each block's probabilities add into
    the gradient and, through :func:`averaged_choice_jacobian`, into the
    Hessian before the next block overwrites them, so no m x n array
    besides C is held. The value is the weighted sum of all rows at once.
    """
    m, n = C.shape
    vals, mass = np.empty(m), np.zeros(n)
    H = np.zeros((n, n)) if hessian else None
    for rows, P in _row_blocks(C, model, eps, phi, vals):
        w = weights[rows]
        mass += P @ w
        if hessian:
            H += averaged_choice_jacobian(P, w, model)
    return float(nu_w @ phi) - float(weights @ vals), nu_w - mass, H


def damped_newton(evaluate, n: int, grad_tol: float = 1e-7):
    """Maximize a smooth concave dual over R^n from phi = 0, where
    ``evaluate(phi)`` returns its value, gradient and negated n x n
    Hessian H.

    Each step solves (H + 11^T/n + mu I) d = g, with g the gradient; g sums
    to zero, so 11^T/n only fixes the gauge. A step that gains a tenth of
    its predicted increase (or, below the value's rounding level, lowers
    |g|) divides the damping mu by 8; any other multiplies it by 4, at
    least to max(|g|, 1e-6 tr H). The references pass the finite-sample
    dual, ``functools.partial(_finite_dual, ..., hessian=True)``.

    Returns ``(phi, info)`` with value, gradient norm and ``iterations``
    (trial steps). Raises RuntimeError when |g| is still above
    ``grad_tol`` after ``_NEWTON_MAX_ITER`` steps or mu overflows.
    """
    phi = np.zeros(n)
    f, g, H = evaluate(phi)
    mu = 0.0
    it = 0
    while (gnorm := math.sqrt(g @ g)) > grad_tol:
        if it == _NEWTON_MAX_ITER or mu > 1e20:
            raise RuntimeError(f"damped Newton stopped after {it} steps at gradient norm "
                               f"{gnorm:.3e} > {grad_tol:.1e}")
        it += 1
        try:
            L = np.linalg.cholesky(H + 1.0 / n + mu * np.eye(n))
        except np.linalg.LinAlgError:  # singular, so mu is still 0
            mu = max(gnorm, 1e-6 * float(np.trace(H)))
            continue
        d = np.linalg.solve(L.T, np.linalg.solve(L, g))
        pred = float(g @ d) - 0.5 * float(d @ H @ d)
        f_new, g_new, H_new = evaluate(phi + d)
        rounding = 1e-10 * max(1.0, abs(f))
        if (f_new - f >= 0.1 * pred if pred > rounding
                else f_new - f >= -rounding and math.sqrt(g_new @ g_new) < gnorm):
            phi, f, g, H = phi + d, f_new, g_new, H_new
            mu /= 8.0
        else:
            mu = max(4.0 * mu, gnorm, 1e-6 * float(np.trace(H)))
    return phi, {"value": f, "grad_norm": gnorm, "iterations": it}


# --------------------------------------------------------------------- lp

# Above this many LP variables the boundary-reduction scheme takes over;
# it is much faster on large LPs. Below it the direct LP stays, because the
# reduction may return another, equally optimal dual vertex of the small
# LP: over 192 seeded T=100 cells that moved the experiment's potgap by up
# to 12.8%.
_DIRECT_LIMIT = 10_000
# The entropic pilot runs at this share of the cost matrix's spread; its
# gradient tolerance is this share of the smallest target weight.
_PILOT_LAM = 2e-3
_PILOT_TOL = 1e-4


def _lp_stack():
    """scipy's sparse matrices and HiGHS ``linprog``, imported on the first
    call. The import takes 0.56-0.62 s and 44 MB of peak memory on a 2-core
    Xeon, which a run that solves no transport LP never pays."""
    import scipy.sparse as sp
    from scipy.optimize import linprog
    return sp, linprog


def _transport_lp(cost, ci, cj, a, b):
    """Transport LP from masses ``a`` to ``b`` over the pairs (ci[k], cj[k])
    at costs ``cost[k]``. Returns ``(value, x, u, phi)``: the value, the
    mass on each pair and an optimal dual pair with u . a + phi . b equal
    to the value. Raises RuntimeError when the solver fails."""
    sp, linprog = _lp_stack()
    k, m = cost.size, a.size
    A = sp.coo_matrix(
        (np.ones(2 * k), (np.concatenate([ci, m + cj]), np.concatenate([np.arange(k)] * 2))),
        shape=(m + b.size, k)).tocsr()
    b_eq = np.concatenate([a, b])
    res = linprog(cost, A_eq=A, b_eq=b_eq, bounds=(0, None), method="highs")
    if not res.success:
        raise RuntimeError(f"transport LP failed: {res.message}")
    y = np.asarray(res.eqlin.marginals, dtype=float)
    # normalize the dual sign so strong duality holds as b_eq @ y = value
    if abs(b_eq @ y - res.fun) > abs(b_eq @ (-y) - res.fun):
        y = -y
    return float(res.fun), res.x, y[:m], y[m:]


def _dense_transport_lp(C, a, b):
    """:func:`_transport_lp` over every pair of the cost matrix ``C``, row-major."""
    m, n = C.shape
    return _transport_lp(C.reshape(-1), *np.divmod(np.arange(m * n), n), a, b)


def exact_discrete_ot(mu: DiscreteMeasure, nu: DiscreteMeasure, c: CostSpec):
    """Exact optimal transport between two small discrete measures.

    Returns ``(value, plan, u, phi)``: the plan's marginals match the inputs
    to 1e-9 and (u, phi) is an optimal dual pair with u . a + phi . b equal
    to the value. Guarded to m*n <= 1e6 variables.
    """
    if mu.n_atoms * nu.n_atoms > 1_000_000:
        raise ValueError("instance too large for the exact LP (m*n > 1e6)")
    C = cost_matrix(mu.atoms, nu.atoms, c)
    value, x, u, phi = _dense_transport_lp(C, mu.weights, nu.weights)
    return value, x.reshape(C.shape), u, phi


def _reduced_transport_value_phi(C: np.ndarray, a: np.ndarray, nu_w: np.ndarray):
    """Exact transport value from the rows of the cost matrix ``C``, at
    masses ``a``, to the target weights ``nu_w``, via boundary reduction.

    The pilot potential maximizes the entropic dual over the full sample
    at a small lambda (a fixed share of the cost spread), by
    :func:`damped_newton`, and ranks each sample's atoms once. A pass fixes
    every sample whose best atom leads by more than a margin, first
    2 lambda log n (lambda when n = 1), to that atom; only the boundary
    samples and their near-best atoms enter a small sparse LP. A pass is
    accepted only when the full problem's duality gap closes: the returned
    potential is dual feasible by construction, so the gap brackets the
    optimum. Each failed pass (an overfilled atom, a failed LP or an open
    gap) doubles the margin. An atom of zero weight is left out, then given
    the largest potential that changes no sample's best value.

    Returns ``(value, phi, cert)`` with ``value`` equal to the semi-dual
    objective at the mean-zero ``phi``. ``cert`` holds the accepted
    ``gap`` (primal minus dual), the number of ``passes`` and the
    ``boundary`` size of each pass as [rows, LP variables].
    """
    keep = nu_w > 0.0
    if not keep.all():
        value, phi, cert = _reduced_transport_value_phi(C[:, keep], a, nu_w[keep])
        full = np.empty(nu_w.size)
        full[keep] = phi
        full[~keep] = (C[:, ~keep] + (phi - C[:, keep]).max(axis=1)[:, None]).min(axis=0)
        return value, full - full.mean(), cert
    m, n = C.shape
    rows = np.arange(m)
    spread = float(C.max() - C.min())
    lam = _PILOT_LAM * spread if spread > 0.0 else 1.0
    pilot = MarginalModel("exponential", lam, nu_w)
    evaluate = functools.partial(_finite_dual, C=C, weights=a, nu_w=nu_w, model=pilot,
                                 hessian=True)
    phi, _ = damped_newton(evaluate, n, grad_tol=_PILOT_TOL * float(nu_w.min()))
    phi = phi - phi.mean()
    S = phi[None, :] - C
    top = np.argmax(S, axis=1)
    best = S[rows, top]
    S[rows, top] = -np.inf  # runner-up without a copy of S
    lead = best - S.max(axis=1)
    S[rows, top] = best
    boundary = []
    for margin in lam * max(2.0 * math.log(n), 1.0) * 2.0 ** np.arange(16):
        narrow = lead <= margin
        resid = nu_w - np.bincount(top[~narrow], weights=a[~narrow], minlength=n)
        sub = np.flatnonzero(narrow)
        boundary.append([int(sub.size), 0])
        if resid.min() < -1e-15:
            continue
        moved, phi_new = 0.0, phi
        if sub.size:
            regret = best[sub][:, None] - S[sub]
            cand = regret <= margin
            # each atom's 64 lowest-regret rows keep the restricted problem
            # feasible when the margin slabs cannot route the residual
            cand[np.argsort(regret, axis=0)[:64], np.arange(n)[None, :]] = True
            ci, cj = np.nonzero(cand)
            boundary[-1][1] = int(ci.size)
            try:
                moved, _, _, phi_new = _transport_lp(C[sub[ci], cj], ci, cj, a[sub], resid)
            except RuntimeError:
                continue
        dual = _finite_dual(phi_new, C, a, nu_w, None)[0]
        primal = float(a[~narrow] @ C[rows[~narrow], top[~narrow]]) + moved
        gap = primal - dual
        if gap <= 1e-6 * max(1.0, abs(primal)):
            cert = {"gap": gap, "passes": len(boundary), "boundary": boundary}
            return dual, phi_new - phi_new.mean(), cert
    raise RuntimeError("boundary reduction did not certify a transport optimum")


# -------------------------------------------------------------- reference

def finite_sample_reference(sampler, nu: DiscreteMeasure, c: CostSpec,
                            model: MarginalModel | None, T: int,
                            eps_bar: float = 0.1, multiplier: int = 10):
    """Reference value and potential from a larger finite sample.

    Draws ``multiplier * T`` points from a fresh stream of ``sampler`` (so
    a solver run of length T consumes a prefix of the same stream) and
    solves the induced finite problem: an exact LP without a model (past
    ``_DIRECT_LIMIT`` variables, over the boundary samples of a pilot whose
    margin doubles after each uncertified pass), :func:`damped_newton` to a
    gradient norm of 1e-7 for closed-form kinds, and a long averaged-SGD run
    (50x iterations, step rule from :func:`sgd_config`) otherwise. Its
    (m, n) costs C are the one cost array a cell keeps, since every solve
    revisits them; the sample itself is dropped once C exists, except for
    the long run, which draws from it. The potential is returned in the
    mean-zero gauge. Returns ``(value, phi, info)``; for the LP, ``info``
    carries the certificate ``gap`` (primal minus dual at ``phi``) and,
    when ``reduced``, the ``passes`` and ``boundary`` sizes; for Newton
    and the long run, ``iterations`` and ``grad_norm`` (the long run's at
    oracle accuracy 1e-10).
    """
    if not isinstance(sampler, SamplerSpec):
        raise TypeError("finite_sample_reference needs a SamplerSpec")
    _check_finite_nonnegative(eps_bar, "eps_bar")  # for every model, though only sgd-50x reads it
    m = int(_count(T, "T", least=1)) * int(_count(multiplier, "multiplier", least=1))
    n = nu.n_atoms
    _check_entries(m * n, "reference sample (multiplier*T*n)")
    X = draw(sampler, m)
    C = cost_matrix(X, nu.atoms, c)
    w = np.full(m, 1.0 / m)
    if model is None or model.kind in CLOSED_FORM_KINDS:
        del X  # only the long run below draws from the sample again
    if model is None:
        reduced = m * n > _DIRECT_LIMIT
        if reduced:
            value, phi, cert = _reduced_transport_value_phi(C, w, nu.weights)
        else:
            value, _, _, phi = _dense_transport_lp(C, w, nu.weights)
            cert = {"gap": value - _finite_dual(phi, C, w, nu.weights, None)[0]}
        phi = phi - phi.mean()
        info = {"method": "lp", "samples": m, "reduced": reduced, **cert}
        return value, phi, info
    if model.kind in CLOSED_FORM_KINDS:
        evaluate = functools.partial(_finite_dual, C=C, weights=w, nu_w=nu.weights,
                                     model=model, hessian=True)
        phi, newton_info = damped_newton(evaluate, n)
        phi = phi - phi.mean()
        info = {"method": "newton", "samples": m, **newton_info}
        return newton_info["value"], phi, info
    emp = SamplerSpec("empirical", points=X, weights=w, seed=sampler.seed)
    _, bar, _ = averaged_sgd(emp, nu, c, model, sgd_config(model, 50 * T, eps_bar))
    phi = bar - bar.mean()
    value, grad, _ = _finite_dual(phi, C, w, nu.weights, model, eps=1e-10)
    info = {"method": "sgd-50x", "samples": m, "iterations": 50 * T,
            "grad_norm": math.sqrt(grad @ grad)}
    return value, phi, info
