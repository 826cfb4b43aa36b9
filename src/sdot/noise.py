"""Marginal perturbation families and smoothed max operators.

The per-sample dual integrand of semi-discrete transport is the discrete
c-transform ``max_i phi_i - c(x, y_i)``; its subgradient in ``phi`` is the
one-hot indicator of the first maximizing atom. A marginal family is
described by a generating curve F (a nondecreasing function used through
shifted, weighted copies), one per atom of the target measure. Smoothing
the max through such a family is equivalent to penalizing choice
probabilities on the simplex with an f-divergence whose generator is the
running integral of the quantile of F; the choice probabilities are the
gradient of the smoothed transform. This module carries both views: the
analytic one (cdf/quantile/divergence evaluations) and the operational
one: transform values and choice probabilities.
:func:`utilities_values_probs` gives both for rows of utilities, and
without a model the plain max with its one-hot rows;
:func:`smooth_c_transform` and :func:`choice_probabilities` are its
one-point forms. Every caller gets its probabilities from one kernel per
kind, which takes one utility row, shape (n,), or rows, shape (m, n):
softmax for the exponential kind, sorted sparsemax for the uniform kind,
and a guarded bisection on the scalar mass balance for the other three.
:func:`_choice_rows` picks the kernel, and SGD hands it each step's 1-d
row. Many rows run in blocks of ``_ROW_BLOCK`` rows, in the one loop of
:func:`_row_blocks`: each block forms its utilities in one buffer and
writes its values and probabilities into preallocated outputs, or its
probabilities into a block buffer that the caller reduces before the
next block (the finite-sample dual's gradient and Hessian), so no
temporary grows with the number of rows, and no row's bits depend on its
block. Many rows bisect together in one in-place loop, one halving per
pass; a single row tests the nested midpoints of four halvings per pass
and gets the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (CostSpec, DiscreteMeasure, _array, _number, _readonly, _reject_unknown,
                   _require, cost_vector)

MODEL_KINDS = ("exponential", "uniform", "pareto", "hyperbolic", "tdist")
# kinds whose choice probabilities have a closed form; the rest bisect
CLOSED_FORM_KINDS = ("exponential", "uniform")

# shift that normalizes the sinh family so its divergence generator
# vanishes at 1: sqrt(2) - 1 - arcsinh(1)
HYPERBOLIC_OFFSET = math.sqrt(2.0) - 1.0 - math.asinh(1.0)


# 0-d operands of the bisection loop, which a ufunc takes as they are; a
# Python float operand is converted to an array on every call
_ZERO, _HALF, _ONE = (_readonly(v) for v in (0.0, 0.5, 1.0))


@dataclass(frozen=True)
class MarginalModel:
    """Noise family attached to the atoms of a target measure.

    Parameters
    ----------
    kind : str
        One of ``exponential``, ``uniform``, ``pareto``, ``hyperbolic``,
        ``tdist``.
    lam : float
        Scale of the perturbation, strictly positive.
    eta : array_like
        Per-atom weights, strictly positive, summing to one.
    q : float, optional
        Tail exponent, required for (and only for) the ``pareto`` kind;
        any positive value except 1. ``q=2`` reproduces the uniform kind.
    """

    kind: str
    lam: float
    eta: np.ndarray
    q: float | None = None

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown marginal model kind: {self.kind!r}")
        lam = float(self.lam)
        if not np.isfinite(lam) or lam <= 0.0:
            raise ValueError("lam must be a positive finite number")
        object.__setattr__(self, "lam", lam)
        eta = np.asarray(self.eta, dtype=float)
        if eta.ndim != 1 or eta.size == 0:
            raise ValueError("eta must be a nonempty 1-d array")
        if not np.all(np.isfinite(eta)) or np.any(eta <= 0.0):
            raise ValueError("eta entries must be positive and finite")
        if abs(eta.sum() - 1.0) > 1e-9:
            raise ValueError("eta must sum to one")
        object.__setattr__(self, "eta", _readonly(eta))
        if self.kind == "pareto":
            if self.q is None:
                raise ValueError("pareto kind requires the exponent q")
            q = float(self.q)
            if not np.isfinite(q) or q <= 0.0 or q == 1.0:
                raise ValueError("pareto exponent q must be positive and != 1")
            object.__setattr__(self, "q", q)
        elif self.q is not None:
            raise ValueError(f"kind {self.kind!r} does not take an exponent q")

    @property
    def n(self) -> int:
        return self.eta.size

    @cached_property
    def _bracket_nodes(self) -> np.ndarray:
        """Generating quantile at 1 / (n eta_i): the mass-balance root lies
        between the nodes minus the utilities. Computed on the first
        bisection; a model without a finite bracket raises on every one."""
        try:
            return _readonly(generating_quantile(self, (1.0 / self.n) / self.eta))
        except ValueError as exc:
            raise ValueError(f"bisection bracket is not finite for this model: {exc}") from exc

    @cached_property
    def _delta_factors(self) -> tuple:
        """The model-only factors of :func:`bisection_delta`: (lip sqrt(n),
        None) for a bounded cdf slope, else the pareto Holder branch's
        (lam q / (q - 1), sqrt(n) max eta). Computed on the first call."""
        rootn = math.sqrt(self.n)
        lip = marginal_lipschitz(self)
        if lip is not None:
            return lip * rootn, None
        q = self.q
        return self.lam * q / (q - 1.0), rootn * float(np.max(self.eta))

    def to_json(self) -> dict:
        out = {"kind": self.kind, "lambda": self.lam, "eta": self.eta.tolist()}
        if self.q is not None:
            out["q"] = self.q
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "MarginalModel":
        kind, lam, eta = (_require(obj, key, "marginal model JSON")
                          for key in ("kind", "lambda", "eta"))
        # experiment configs name a series by its model's "tag"
        _reject_unknown(obj, ("kind", "lambda", "eta", "q", "tag"), "marginal model JSON")
        q = obj.get("q")
        if q is not None:
            q = _number(q, "marginal model field 'q'")
        return cls(kind, _number(lam, "marginal model field 'lambda'"),
                   _array(eta, "marginal model field 'eta'"), q=q)


# ------------------------------------------------------------------ curves

def _cdf_extended(model: MarginalModel, z, out=None):
    """Generating cdf extended monotonically to the whole line.

    Outside the natural domain the pareto kind continues with 0 (q > 1)
    and +inf (q < 1, as 0 to a negative power); the other kinds evaluate
    everywhere as written. With ``out`` (which may be ``z`` itself) the
    values are written there in place, and the caller holds the
    ``np.errstate(over="ignore", divide="ignore")`` that the call without
    ``out`` enters itself.
    """
    if out is None:
        z = np.asarray(z, dtype=float)
        with np.errstate(over="ignore", divide="ignore"):
            return _cdf_extended(model, z, np.empty_like(z))
    lam = model.lam
    if model.kind == "exponential":
        np.divide(z, lam, out=out)
        out -= 1.0
        return np.exp(out, out=out)
    if model.kind == "uniform":
        np.divide(z, 2.0 * lam, out=out)
        out += 0.5
        return out
    if model.kind == "hyperbolic":
        np.divide(z, lam, out=out)
        out -= HYPERBOLIC_OFFSET
        return np.sinh(out, out=out)
    if model.kind == "tdist":
        n = model.n
        v = np.subtract(z, lam * math.sqrt(n - 1.0), out=out)
        v /= np.sqrt(lam * lam + v * v)
        v += 1.0
        v *= 0.5 * n
        return v
    q = model.q
    base = np.multiply(z, q - 1.0, out=out)
    base /= lam * q
    base += 1.0 / q
    # base is never -0.0 (the positive 1/q is added last), so fmax maps it
    # exactly as where(base > 0, base, 0) does, NaN included
    np.fmax(base, 0.0, out=base)
    base **= 1.0 / (q - 1.0)
    return base


def generating_cdf(model: MarginalModel, s):
    """Evaluate the generating cdf F on its natural domain."""
    s = np.asarray(s, dtype=float)
    if model.kind == "pareto":
        base = s * (model.q - 1.0) / (model.lam * model.q) + 1.0 / model.q
        if np.any(base < 0.0):
            raise ValueError("argument outside the pareto generating domain")
    out = _cdf_extended(model, s)
    return float(out) if out.ndim == 0 else out


def generating_quantile(model: MarginalModel, t):
    """Inverse of the generating cdf, for t > 0 (and t < n for tdist)."""
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0.0) or not np.all(np.isfinite(t)):
        raise ValueError("quantile argument must be strictly positive")
    lam = model.lam
    if model.kind == "exponential":
        out = lam * (1.0 + np.log(t))
    elif model.kind == "uniform":
        out = lam * (2.0 * t - 1.0)
    elif model.kind == "hyperbolic":
        out = lam * (np.arcsinh(t) + HYPERBOLIC_OFFSET)
    elif model.kind == "tdist":
        n = model.n
        if np.any(t >= n):
            raise ValueError("tdist quantile argument must be below the atom count")
        out = lam * math.sqrt(n - 1.0) + lam * (2.0 * t - n) / (2.0 * np.sqrt(t * (n - t)))
    else:
        q = model.q
        out = lam * (q * t ** (q - 1.0) - 1.0) / (q - 1.0)
    return float(out) if out.ndim == 0 else out


def marginal_cdf(model: MarginalModel, i: int, s: float) -> float:
    """Cdf of the i-th marginal perturbation: clip(1 - eta_i F(-s)) to [0, 1]."""
    val = 1.0 - model.eta[i] * _cdf_extended(model, -float(s))
    return float(np.clip(val, 0.0, 1.0))


def marginal_quantile(model: MarginalModel, i: int, t: float) -> float:
    """Quantile of the i-th marginal perturbation at level t in (0, 1)."""
    t = float(t)
    if not 0.0 < t < 1.0:
        raise ValueError("marginal quantile level must lie in (0, 1)")
    return -float(generating_quantile(model, (1.0 - t) / model.eta[i]))


# -------------------------------------------------------------- divergence

def divergence_generator_value(model: MarginalModel, s):
    """Divergence generator: integral of the generating quantile from 0 to s."""
    s = np.asarray(s, dtype=float)
    if np.any(s < 0.0):
        raise ValueError("divergence generator argument must be nonnegative")
    lam = model.lam
    if model.kind == "exponential":
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(s > 0.0, lam * s * np.log(np.maximum(s, 1e-300)), 0.0)
    elif model.kind == "uniform":
        out = lam * (s * s - s)
    elif model.kind == "hyperbolic":
        out = lam * (s * np.arcsinh(s) - np.sqrt(s * s + 1.0) + 1.0 + HYPERBOLIC_OFFSET * s)
    elif model.kind == "tdist":
        n = model.n
        inside = s <= n
        sc = np.minimum(s, float(n))
        out = np.where(inside,
                       lam * (s * math.sqrt(n - 1.0) - np.sqrt(sc * (n - sc))),
                       np.inf)
    else:
        q = model.q
        out = lam * (s ** q - s) / (q - 1.0)
    return float(out) if out.ndim == 0 else out


def discrete_f_divergence(model: MarginalModel, p) -> float:
    """f-divergence of a simplex point p against the model weights eta."""
    p = np.asarray(p, dtype=float)
    if p.shape != (model.n,):
        raise ValueError("p must have one entry per atom")
    if np.any(p < -1e-12):
        raise ValueError("p entries must be nonnegative")
    p = np.maximum(p, 0.0)
    return float(np.sum(model.eta * divergence_generator_value(model, p / model.eta)))


def _f_divergence_rows(model: MarginalModel, P: np.ndarray) -> np.ndarray:
    return np.sum(model.eta[None, :] * divergence_generator_value(model, P / model.eta[None, :]),
                  axis=1)


# ------------------------------------------------------------ probabilities

def _clip_probs(model: MarginalModel, Z: np.ndarray, out: np.ndarray) -> np.ndarray:
    """eta * F(Z) clipped to [0, 1], written into ``out`` as in :func:`_cdf_extended`."""
    _cdf_extended(model, Z, out)
    out *= model.eta
    return out.clip(_ZERO, _ONE, out=out)


def marginal_lipschitz(model: MarginalModel) -> float | None:
    """Largest slope any marginal cdf can attain; None when unbounded."""
    lam, eta = model.lam, model.eta
    if model.kind == "exponential":
        return 1.0 / lam
    if model.kind == "uniform":
        return float(np.max(eta)) / (2.0 * lam)
    if model.kind == "hyperbolic":
        return math.sqrt(1.0 + float(np.max(eta)) ** 2) / lam
    if model.kind == "tdist":
        return float(np.max(eta)) * model.n / (2.0 * lam)
    q = model.q
    if q > 2.0:
        return None
    return float(np.max(eta ** (q - 1.0))) / (lam * q)


def bisection_delta(model: MarginalModel, eps: float) -> float:
    """Bracket width that makes the bisection output eps-accurate in l2;
    inf, so no halvings, where the pareto Holder power overflows."""
    scale, holder = model._delta_factors
    if holder is None:
        return eps / scale
    try:
        return scale * (eps / holder) ** (model.q - 1.0)
    except OverflowError:
        return math.inf


def _bisection_batch(U: np.ndarray, model: MarginalModel, eps: float | None) -> np.ndarray:
    """Bisect the mass balance sum(clip(eta F(u + tau))) = 1 in tau for the
    utility row U, shape (n,), or for each row of U, shape (m, n).

    Every row halves its bracket until it is no wider than
    :func:`bisection_delta`, and the row's probabilities are taken at the
    lower end, where the mass is at most one. Many rows share one loop: the
    bracket ends are two columns of one (m, 2) array updated in place, and
    each halving evaluates the mass in one (m, n) buffer, a dozen numpy
    calls per halving at any row count. A single row (each SGD step) takes
    its halvings in blocks instead, :func:`_one_row_probs`, with the
    same midpoints and mass tests and so the same bits.
    """
    if eps is None or not eps > 0.0:
        raise ValueError(f"model kind {model.kind!r} needs a positive accuracy eps for bisection")
    n = U.shape[-1]
    if n == 1:
        return np.ones(U.shape)
    if U.ndim == 2 and U.shape[0] == 1:  # one row: the 1-d path, returned as a row
        return _bisection_batch(U[0], model, eps)[None, :]
    one = U.ndim == 1
    nodes = model._bracket_nodes - U
    lo, hi = nodes.min(axis=-1, keepdims=not one), nodes.max(axis=-1, keepdims=not one)
    # ceil(log2(width / delta)) halvings, none where the width is within
    # delta; one row's ends are numpy scalars, which warn as arrays do only
    # under ufunc calls, not operators
    width = np.divide(np.subtract(hi, lo), bisection_delta(model, eps))
    steps = np.ceil(np.log2(np.fmax(width, 1.0))).astype(int)
    total = int(steps.max(initial=0))
    with np.errstate(over="ignore", divide="ignore"):
        if one:
            return _one_row_probs(U, model, float(lo), float(hi), total)
        m = U.shape[0]
        # bracket ends as columns [lo, hi]: each halving moves the one that
        # ``side`` marks, hi where the mass exceeds one and lo elsewhere
        bracket = np.concatenate([lo, hi], axis=1)
        lo, hi = bracket[:, :1], bracket[:, 1:]
        ragged = steps.min(initial=total) < total
        side = np.empty((m, 2), dtype=bool)
        below, above = side[:, :1], side[:, 1:]
        ends, mid, mass = np.empty((m, 1)), np.empty((m, 1)), np.empty((m, 1))
        buf = np.empty((m, n))
        for k in range(total):
            np.multiply(np.add(lo, hi, out=ends), _HALF, out=mid)
            _clip_probs(model, np.add(U, mid, out=buf), buf)
            np.greater(np.add.reduce(buf, axis=1, keepdims=True, out=mass), _ONE, out=above)
            np.logical_not(above, out=below)
            if ragged:
                side &= steps > k
            np.copyto(bracket, mid, where=side)
        return _clip_probs(model, np.add(U, lo, out=buf), buf)


# halvings that the one-row bisection tests in one numpy pass
_BLOCK_DEPTH = 4


def _one_row_probs(u: np.ndarray, model: MarginalModel, lo: float, hi: float,
                   total: int) -> np.ndarray:
    """Probabilities of the one row u, (n,), at its lower bracket end
    after ``total`` halvings.

    The bracket stays in Python floats, and the halvings run in blocks of
    up to ``_BLOCK_DEPTH`` levels. A block lays out the midpoints of every
    bracket its levels can reach in heap order: node i has the children
    2i + 1, which takes the node's midpoint as its upper end, and 2i + 2,
    which takes it as its lower end. Each midpoint is ``(lo + hi) * 0.5``
    of its own node's ends, as in the many-row loop. One (2^k - 1, n) pass
    evaluates every node's mass, and the walk from the root follows the
    loop's halvings: down left where the mass exceeds one, else right.
    The output is the pass's row at the last midpoint that became the
    lower end: each pass writes a new array, so that row stays intact. Only
    a row whose lower end never moved is evaluated again.
    """
    last = None
    for done in range(0, total, _BLOCK_DEPTH):
        depth = min(_BLOCK_DEPTH, total - done)
        size = (1 << depth) - 1
        ends, mids = [(lo, hi)], []
        for a, b in ends:
            mid = (a + b) * 0.5
            mids.append(mid)
            if len(ends) < size:
                ends += ((a, mid), (mid, b))
        Z = np.add(u, np.array(mids)[:, None])
        _clip_probs(model, Z, Z)
        mass = np.add.reduce(Z, axis=1).tolist()
        i = 0
        for _ in range(depth):
            if mass[i] > 1.0:
                hi, i = mids[i], 2 * i + 1
            else:
                lo, last, i = mids[i], (Z, i), 2 * i + 2
    if last is None:
        Z = np.add(u, lo)
        return _clip_probs(model, Z, Z)
    Z, i = last
    return Z[i]


def _softmax(U: np.ndarray, model: MarginalModel, P=None, vals=None) -> np.ndarray:
    """Weighted softmax of the utility row U, (n,), or of each row of U,
    (m, n), max-shift stabilized, in a new array or written into ``P``;
    with ``vals``, shape (m,), also the log-sum-exp values, written there."""
    lam = model.lam
    Z = np.divide(U, lam, out=P)
    mx = Z.max(axis=-1, keepdims=True)
    Z -= mx
    np.exp(Z, out=Z)
    Z *= model.eta
    s = Z.sum(axis=-1, keepdims=True)
    Z /= s
    if vals is not None:
        np.log(s[:, 0], out=vals)
        vals += mx[:, 0]
        vals *= lam
    return Z


def _sparsemax(V: np.ndarray, eta: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Sorted sparsemax of the scaled utility row V = u / lam, (n,), or of
    each row of V, (m, n), written into ``P`` (which may be V itself).

    Each row maximizes sum(v p) - sum(p^2 / eta) over the simplex: the
    support is the longest prefix of the descending utilities that keeps
    the threshold below each of its own entries. One row gathers with
    1-d indices and takes a scalar threshold.
    """
    order = (-V).argsort(axis=-1, kind="stable")
    # row numbers for the 2-d gathers; a single row needs none
    rows = () if V.ndim == 1 else (np.arange(V.shape[0])[:, None],)
    vs = V[(*rows, order)]
    es = eta[order]
    ce = np.add.accumulate(es, axis=-1)
    es *= vs
    cu = np.add.accumulate(es, axis=-1)
    vs *= ce
    vs += 2.0
    keep = vs > cu
    k = V.shape[-1] - 1 - keep[..., ::-1].argmax(axis=-1, keepdims=V.ndim > 1)
    tau = (cu[(*rows, k)] - 2.0) / ce[(*rows, k)]
    np.subtract(V, tau, out=P)
    P *= eta
    np.maximum(P, _ZERO, out=P)
    P /= 2.0
    return P


def _choice_rows(U: np.ndarray, model: MarginalModel, eps: float | None) -> np.ndarray:
    """Choice probabilities of the utility row U, (n,), or of each row of U,
    (m, n), in a new array of U's shape.

    The one implementation behind every caller: :func:`_softmax` for the
    exponential kind, :func:`_sparsemax` of U / lam for the uniform kind,
    and :func:`_bisection_batch` for the rest; eps, the l2 accuracy, is
    read only by the bisection kinds.
    """
    if model.kind == "exponential":
        return _softmax(U, model)
    if model.kind == "uniform":
        V = U / model.lam
        return _sparsemax(V, model.eta, V)
    return _bisection_batch(U, model, eps)


def _check_utilities(u, n: int) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if u.shape != (n,) or not np.all(np.isfinite(u)):
        raise ValueError("u must be a finite vector with one entry per atom")
    return u


def _utilities(phi, x, nu: DiscreteMeasure, c: CostSpec) -> np.ndarray:
    """phi_i - c(x, y_i), checked: a non-finite phi or x gives a
    non-finite utility, which fails like a misshapen phi."""
    phi = np.asarray(phi, dtype=float)
    if phi.shape != (nu.n_atoms,):
        raise ValueError("phi must have one entry per measure atom")
    return _check_utilities(phi - cost_vector(x, nu.atoms, c), nu.n_atoms)


def _sums_to_one(p: np.ndarray, eps: float) -> bool:
    """Whether a kernel row's mass is one within max(sqrt(n) eps, 1e-10),
    eps the bisection accuracy (0 for closed forms); NaN fails. Entries
    are nonnegative by construction."""
    return abs(float(p.sum()) - 1.0) <= max(math.sqrt(p.size) * eps, 1e-10)


def _mass_checked(p: np.ndarray, model: MarginalModel, eps: float | None) -> np.ndarray:
    """One row's probabilities ``p``, unless :func:`_sums_to_one` fails them
    at eps 0 for the closed forms and ``eps`` for the bisection kinds."""
    if not _sums_to_one(p, 0.0 if model.kind in CLOSED_FORM_KINDS else eps):
        raise ValueError(f"choice probabilities sum to {float(p.sum())!r}")
    return p


def probs_from_utilities(u, model: MarginalModel, eps: float | None = None) -> np.ndarray:
    """Choice probabilities for one utility vector, mass-checked.

    Closed form for the exponential and uniform kinds; the others bisect
    to the l2 accuracy ``eps``, which they need, and may undersum one by
    at most sqrt(n) * eps.
    """
    u = _check_utilities(u, model.n)
    return _mass_checked(_choice_rows(u[None, :], model, eps)[0], model, eps)


def choice_probabilities(phi, x, nu: DiscreteMeasure, c: CostSpec, model: MarginalModel,
                         eps: float | None = None) -> np.ndarray:
    """Smoothed argmax weights of phi_i - c(x, y_i) under the noise model.

    Parameters
    ----------
    phi : array_like
        Dual potential vector over the atoms of ``nu``.
    x : array_like
        Source point.
    nu : DiscreteMeasure
        Target measure; its atoms set the utilities.
    c : CostSpec
        Ground cost.
    model : MarginalModel
        Noise family; its weights must match the atom count.
    eps : float, optional
        Accuracy for kinds solved by bisection; ignored by closed forms.
    """
    if model.n != nu.n_atoms:
        raise ValueError("model weights and measure atoms disagree in length")
    return probs_from_utilities(_utilities(phi, x, nu, c), model, eps=eps)


# --------------------------------------------------------------- transforms

# Rows per block of the batched transform. A block of 4,096 rows of 10
# atoms is a 320 KB float64 array, so the few such arrays that a block's
# kernel holds at once stay in a core's L2 cache, and no temporary grows
# with the number of rows.
_ROW_BLOCK = 4096


def utilities_values_probs(U: np.ndarray, model: MarginalModel | None,
                           eps: float | None = None, phi=None):
    """Smoothed transform values and probabilities for rows of utilities.

    With ``model=None`` this is the plain max with one-hot rows (first
    maximizer on ties). With ``phi`` the rows of ``U`` are costs C, and
    the utilities are phi - C. Returns ``(values, P)`` with one row per
    input row, written block by block by :func:`_row_blocks`, so beyond U
    and P every temporary is block-sized.
    """
    U = np.asarray(U, dtype=float)
    vals, P = np.empty(U.shape[0]), np.empty(U.shape)
    for _ in _row_blocks(U, model, eps, phi, vals, P):
        pass
    return vals, P


def _row_blocks(U: np.ndarray, model: MarginalModel | None, eps: float | None, phi,
                vals: np.ndarray, P: np.ndarray | None = None):
    """Run the rows of ``U``, or with ``phi`` of phi - U, through the kernel
    in blocks of ``_ROW_BLOCK`` rows, and yield ``(rows, P_block)`` for each.

    Each block forms its utilities in one buffer and writes its values into
    its slice ``rows`` of ``vals``, shape (m,). Its probabilities go into
    its slice of ``P``, or, without ``P``, into one block-sized buffer that
    the next block overwrites, so a caller that reduces each block as it
    comes holds no m x n array. Every row's numbers are independent of the
    others and of the block it falls in.
    """
    m, n = U.shape
    if model is not None and model.n != n:
        raise ValueError("model weights and utility columns disagree in length")
    size = min(m, _ROW_BLOCK)
    buf = None if phi is None else np.empty((size, n))
    shared = np.empty((size, n)) if P is None else None
    for start in range(0, m, _ROW_BLOCK):
        rows = slice(start, start + _ROW_BLOCK)
        block = U[rows]
        k = block.shape[0]
        if phi is not None:
            block = np.subtract(phi, block, out=buf[:k])
        P_block = shared[:k] if P is None else P[rows]
        _block_values_probs(block, model, eps, vals[rows], P_block)
        yield rows, P_block


def _block_values_probs(U: np.ndarray, model: MarginalModel | None, eps: float | None,
                        vals: np.ndarray, P: np.ndarray) -> None:
    """Values and probabilities of one block of utility rows, written into
    ``vals`` and ``P``."""
    if model is None:
        rows = np.arange(U.shape[0])
        win = np.argmax(U, axis=1)
        vals[:] = U[rows, win]
        P.fill(0.0)
        P[rows, win] = 1.0
        return
    if model.kind == "exponential":
        _softmax(U, model, P, vals)
        return
    lam, eta = model.lam, model.eta
    if model.kind == "uniform":
        V = U / lam
        _sparsemax(V, eta, P)
        # folded quadratic form of the maximand at the sorted solution
        V *= P
        np.add(V.sum(axis=1), 1.0, out=vals)
        np.multiply(P, P, out=V)
        V /= eta
        vals -= V.sum(axis=1)
        vals *= lam
        return
    P[:] = _bisection_batch(U, model, eps)
    # evaluate the maximand at the nearest simplex point so the value
    # error stays quadratic in eps and never exceeds the plain max
    pad = P + eta[None, :] * (1.0 - P.sum(axis=1))[:, None]
    if model.kind == "tdist":
        pad = np.minimum(pad, eta[None, :] * model.n)
    vals[:] = (U * pad).sum(axis=1) - _f_divergence_rows(model, pad)


def _value_probs_row(u: np.ndarray, model: MarginalModel | None, eps: float | None):
    """``(value, p)`` of one checked utility row, ``p`` mass-checked as in
    :func:`probs_from_utilities`; ``model=None`` gives the plain max."""
    vals, P = utilities_values_probs(u[None, :], model, eps=eps)
    return float(vals[0]), P[0] if model is None else _mass_checked(P[0], model, eps)


def smooth_c_transform(phi, x, nu: DiscreteMeasure, c: CostSpec,
                       model: MarginalModel | None, eps: float | None = None) -> float:
    """Smoothed conjugate of the potential at a source point.

    Replaces max_i of phi_i - c(x, y_i) with its noise-smoothed value;
    ``model=None`` gives the plain max.

    Parameters
    ----------
    phi, x, nu, c
        As in :func:`choice_probabilities`.
    model : MarginalModel or None
        Noise family, or None for the unsmoothed transform.
    eps : float, optional
        Accuracy for kinds solved by bisection.
    """
    return _value_probs_row(_utilities(phi, x, nu, c), model, eps)[0]


def approximation_bound(model: MarginalModel) -> float:
    """Worst-case gap between the plain and smoothed transforms."""
    with np.errstate(invalid="ignore"):
        vals = model.eta * divergence_generator_value(model, 1.0 / model.eta)
    return float(np.max(vals))


# ----------------------------------------------------------------- jacobian

def averaged_choice_jacobian(P: np.ndarray, weights, model: MarginalModel) -> np.ndarray:
    """Weighted sum over the rows of P of the choice-probability Jacobians
    diag(g) - g g^T / sum(g), g the marginal cdf slopes at the row (zero,
    one-sided, on boundary coordinates).

    The Newton evaluation sums it over row blocks, so its slopes G and
    their weighted copy stay block-sized. Over the 25 blocks of a 100,000
    x 10 sample on the gating model (a 2-core Xeon) the calls take 7 ms
    (exponential) and 11 ms (uniform) together, against 14-15 ms for one
    call on the whole sample."""
    lam, eta = model.lam, model.eta
    if model.kind == "exponential":
        G = P / lam
    elif model.kind == "uniform":
        G = np.where(P > 0.0, eta / (2.0 * lam), 0.0)
    elif model.kind == "hyperbolic":
        G = np.where(P > 0.0, np.sqrt(eta * eta + P * P) / lam, 0.0)
    elif model.kind == "tdist":
        a = P / (eta * model.n)
        G = eta * model.n * np.clip(4.0 * a * (1.0 - a), 0.0, None) ** 1.5 / (2.0 * lam)
    else:
        with np.errstate(divide="ignore"):
            G = np.where(P > 0.0, eta * (P / eta) ** (2.0 - model.q), 0.0) / (lam * model.q)
    total = G.sum(axis=1)
    share = np.divide(weights, total, out=np.zeros_like(total), where=total > 0.0)
    return np.diag(weights @ G) - G.T @ (share[:, None] * G)


def choice_jacobian(u, model: MarginalModel, eps: float = 1e-9) -> np.ndarray:
    """Jacobian of the choice probabilities in the utilities (one-sided at the boundary)."""
    p = probs_from_utilities(u, model, eps=eps)
    return averaged_choice_jacobian(p[None, :], np.ones(1), model)
