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
kind, which takes one utility row, shape (n,), or many rows: softmax for
the exponential kind, sparsemax by Michelot's sort-free fixed point for
the uniform kind, and a guarded bisection on the scalar mass balance for
the other three. :func:`_kernel` picks the kernel, and SGD hands it each
step's 1-d row. Many rows run in blocks of ``_ROW_BLOCK`` rows, in the
one loop of :func:`_row_blocks`: each block forms its utilities in one
buffer, from the caller's costs or from cost rows it builds from the
caller's sample points (the Monte Carlo estimate's), writes its values
into a preallocated output, and hands its probabilities to the caller,
who reduces them before the next block (the finite-sample dual's
gradient and Hessian), drops them or copies them out, so no temporary
grows with the number of rows.

Layout and summation order. A block is atom-major: an (n, k) array for
k rows, the transpose of the row-major (m, n) costs. Every kernel
reduces it over axis 0, so a max or a sum over atoms is n whole-block
vector operations where a row-major block took k short rows, and every
sum over atoms adds in index order (:func:`_atom_sum`): a row alone, a
one-row block and a row inside a block get the same bits, and no row's
bits depend on its block. Max and first-maximizer argmax are exact in
any order. The bisection halves many rows together in one in-place loop,
one halving per pass, and a single row tests the nested midpoints of up
to five halvings per pass and gets the same bits. A single row's bracket
ends and halving count are Python floats, computed once per row. A row
that cannot be halved, alone or in a block, raises one ValueError and no
warning: an end of its bracket or its count of halvings is not finite.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (CostSpec, DiscreteMeasure, _array, _number, _readonly, _reject_unknown,
                   _require, cost_matrix, cost_vector)

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
    def _eta_col(self) -> np.ndarray:
        """eta as an (n, 1) column, the weights of an atom-major block.
        Computed on its first call."""
        return self.eta[:, None]

    @cached_property
    def _eta_blocks(self) -> dict:
        """The operands of :meth:`_eta_block` by width, the column first."""
        return {1: self._eta_col}

    def _eta_block(self, k: int) -> np.ndarray:
        """eta repeated over k columns, read-only: the weights of an
        atom-major (n, k) block as an operand of the block's own shape,
        which numpy multiplies about twice as fast as it broadcasts the
        (n, 1) column, with the same products. Cached per width; the cache
        holds at most ``_ETA_COLUMNS`` columns in all and starts over when
        a new width would exceed them."""
        blocks = self._eta_blocks
        block = blocks.get(k)
        if block is None:
            if sum(blocks) + k > _ETA_COLUMNS:  # the keys are the widths
                blocks.clear()
            block = blocks[k] = _readonly(np.repeat(self._eta_col, k, axis=1))
        return block

    @cached_property
    def _eta_floats(self) -> tuple:
        """eta as a list of Python floats and its index-order total, the
        operands of the one-row sparsemax threshold. Computed on its first
        call."""
        e = self.eta.tolist()
        return e, functools.reduce(operator.add, e)

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


# ------------------------------------------------------------ probabilities

def _clip_probs(model: MarginalModel, Z: np.ndarray, out: np.ndarray) -> np.ndarray:
    """eta * F(Z) clipped to [0, 1] for the atom-major row Z, (n,), or
    block, (n, k), written into ``out`` as in :func:`_cdf_extended`."""
    _cdf_extended(model, Z, out)
    out *= model.eta if out.ndim == 1 else model._eta_block(out.shape[1])
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


def _bisection(U: np.ndarray, model: MarginalModel, eps: float | None, P=None,
               vals=None) -> np.ndarray:
    """Bisect the mass balance sum(clip(eta F(u + tau))) = 1 in tau for the
    atom-major utility row U, (n,), or for each column of the block U,
    (n, k): the probabilities in a new array of U's shape or written into
    ``P``, and with ``vals``, shape (k,), the transform values, written
    there.

    Every row halves its bracket until it is no wider than
    :func:`bisection_delta`, and its probabilities are taken at the lower
    end, where the mass is at most one. Many rows share one loop: the
    bracket ends are the two rows of one (2, k) array updated in place, and
    each halving evaluates the mass in the (n, k) output, summed over atoms
    in index order, a dozen numpy calls per halving at any row count. A
    single row, 1-d (each SGD step) or one column, takes its halvings in
    blocks instead, :func:`_one_row_probs`, with the same midpoints and
    mass tests and so the same bits. Its bracket ends and halving count
    come from :func:`_row_bracket` on Python floats. A row whose bracket
    end or width over delta is not finite (a non-finite utility, or delta
    underflowing to zero) raises one ValueError, alone or in a block.
    """
    if eps is None or not eps > 0.0:
        raise ValueError(f"model kind {model.kind!r} needs a positive accuracy eps for bisection")
    n = U.shape[0]
    u = U.reshape(n) if U.ndim == 2 and U.shape[1] == 1 else U  # one row as (n,)
    one = u.ndim == 1
    if n == 1:
        p = np.ones(U.shape)
    else:
        nodes = (model._bracket_nodes if one else model._bracket_nodes[:, None]) - u
        delta = bisection_delta(model, eps)
        if one:
            row = _row_bracket(nodes, delta)
            ok = row is not None
        else:
            # bracket ends as rows [lo, hi]: a halving moves the one that
            # ``side`` marks, hi where the mass exceeds one and lo elsewhere
            bracket = np.stack([nodes.min(axis=0), nodes.max(axis=0)])
            lo, hi = bracket
            with np.errstate(all="ignore"):  # a rejected row's width is inf or NaN
                width = (hi - lo) / delta
            ok = np.isfinite(width).all()
        if not ok:
            raise ValueError(f"model kind {model.kind!r} cannot bisect at eps={eps:g}: a row's "
                             "bracket is not finite, or eps is too small to halve it")
        with np.errstate(over="ignore", divide="ignore"):
            if one:
                p = _one_row_probs(u, model, *row)
                p = p if U.ndim == 1 else p[:, None]
            else:
                # ceil(log2(width / delta)) halvings, none within delta
                steps = np.ceil(np.log2(np.maximum(width, 1.0))).astype(int)
                total = int(steps.max(initial=0))
                ragged = steps.min(initial=total) < total
                side = np.empty(bracket.shape, dtype=bool)
                below, above = side
                ends, mid, mass = np.empty_like(lo), np.empty_like(lo), np.empty_like(lo)
                p = np.empty(U.shape) if P is None else P
                for j in range(total):
                    np.multiply(np.add(lo, hi, out=ends), _HALF, out=mid)
                    _clip_probs(model, np.add(U, mid, out=p), p)
                    # k >= 2 columns: numpy adds the atoms in index order
                    np.greater(np.add.reduce(p, axis=0, out=mass), _ONE, out=above)
                    np.logical_not(above, out=below)
                    if ragged:
                        side &= steps > j
                    np.copyto(bracket, mid, where=side)
                _clip_probs(model, np.add(U, lo, out=p), p)
    if P is not None and p is not P:
        np.copyto(P, p)
        p = P
    if vals is not None:
        # evaluate the maximand at the nearest simplex point so the value
        # error stays quadratic in eps and never exceeds the plain max
        eta = model._eta_col
        pad = p + eta * (1.0 - _atom_sum(p))
        if model.kind == "tdist":
            np.minimum(pad, eta * model.n, out=pad)
        np.subtract(_atom_sum(U * pad),
                    _atom_sum(eta * divergence_generator_value(model, pad / eta)), out=vals)
    return p


def _row_bracket(nodes: np.ndarray, delta: float):
    """``(lo, hi, total)`` of the one row whose bracket nodes are ``nodes``,
    (n,): its bracket ends and halving count on Python floats, the same
    numbers as the many-row loop of :func:`_bisection`; None where that
    loop rejects the row, an end or the width over ``delta`` not finite.
    The count's ``math.log2`` could part from numpy's log2 only in rounding
    next to a power of two, and the tests hold one-row counts there to the
    numpy ones."""
    ends = nodes.tolist()
    lo, hi = min(ends), max(ends)
    width = (hi - lo) / delta if delta > 0.0 else math.inf
    # a NaN end hides from min and max but not from the sum
    if math.isnan(sum(ends)) or not math.isfinite(width):
        return None
    return lo, hi, math.ceil(math.log2(max(width, 1.0)))


# most halvings that the one-row bisection tests in one numpy pass: a
# pass's numpy calls cost more than its midpoints, so passes of up to five
# levels (31 midpoints) take one pass fewer than passes of four at 13-15
# and 17-20 halvings, the counts of most SGD steps, and are faster there
_BLOCK_DEPTH = 5


@functools.cache
def _heap_ends(depth: int) -> tuple:
    """Where the ends of each node of a ``depth``-level midpoint heap sit in
    the list [lo, hi, mid_0, mid_1, ...]: the root's are 0 and 1, and node
    i, at position i + 2, gives its children 2i + 1 and 2i + 2 the ends
    (its lower end, i + 2) and (i + 2, its upper end)."""
    ends = [(0, 1)]
    for i in range((1 << (depth - 1)) - 1):
        a, b = ends[i]
        ends += ((a, i + 2), (i + 2, b))
    return tuple(ends)


def _one_row_probs(u: np.ndarray, model: MarginalModel, lo: float, hi: float,
                   total: int) -> np.ndarray:
    """Probabilities of the one row u, (n,), at its lower bracket end
    after ``total`` halvings.

    The bracket, from :func:`_row_bracket`, stays in Python floats, and the
    halvings run in the fewest blocks of at most ``_BLOCK_DEPTH`` levels,
    their depths as even as the count allows (17 halvings: 5, 4, 4 and 4).
    A block lays out the midpoints of every bracket its levels can reach in
    heap order: node i has the children 2i + 1, which takes the node's
    midpoint as its upper end, and 2i + 2, which takes it as its lower end.
    Each midpoint is ``(lo + hi) * 0.5`` of its own node's ends, as in the
    many-row loop, read from a flat list at the positions
    :func:`_heap_ends` gives. One atom-major (n, 2^depth - 1) pass,
    weighted by an eta operand of its own shape, evaluates every node's
    mass, summed over atoms in index order, and the walk from the root
    follows the loop's halvings: down left where the mass exceeds one, else
    right. The output is the pass's column at the last midpoint that became
    the lower end: each pass writes a new array, so that column stays
    intact. Only a row whose lower end never moved is evaluated again.
    """
    col, last = u[:, None], None
    blocks = -(-total // _BLOCK_DEPTH)
    for j in range(blocks):
        depth = total // blocks + (j < total % blocks)
        # the bracket ends and then node i's midpoint at position i + 2
        points = [lo, hi]
        for a, b in _heap_ends(depth):
            points.append((points[a] + points[b]) * 0.5)
        mids = points[2:]
        Z = np.add(col, np.array(mids))
        _clip_probs(model, Z, Z)
        mass = _atom_sum(Z).tolist()
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
    return Z[:, i]


def _atom_sum(A: np.ndarray) -> np.ndarray:
    """Sum over the atoms, axis 0, of an atom-major row A, (n,), or block,
    (n, k), added in index order for every shape. numpy adds the rows of an
    (n, k) block one after another when k >= 2, but sums a contiguous (n,)
    row or (n, 1) block pairwise; those take the running sum's last entry."""
    if A.ndim == 2 and A.shape[1] > 1:
        return np.add.reduce(A, axis=0)
    return np.add.accumulate(A, axis=0)[-1]


def _softmax(U: np.ndarray, model: MarginalModel, P=None, vals=None) -> np.ndarray:
    """Weighted softmax of the atom-major utility row U, (n,), or of each
    column of the block U, (n, k), max-shift stabilized, in a new array or
    written into ``P``; with ``vals``, shape (k,), also the log-sum-exp
    values, written there.

    Every max and sum runs over axis 0 as whole-block vector operations,
    the sums by :func:`_atom_sum`, where a row-major block would reduce
    its many short rows one by one."""
    lam = model.lam
    Z = np.divide(U, lam, out=P)
    mx = Z.max(axis=0)
    Z -= mx
    np.exp(Z, out=Z)
    Z *= model.eta if U.ndim == 1 else model._eta_block(U.shape[1])
    s = _atom_sum(Z)
    Z /= s
    if vals is not None:
        np.log(s, out=vals)
        vals += mx
        vals *= lam
    return Z


def _sparsemax(U: np.ndarray, model: MarginalModel, P=None, vals=None) -> np.ndarray:
    """Sparsemax of the atom-major utility row U, (n,), or of each column
    of the block U, (n, k), in a new array or written into ``P``; with
    ``vals``, shape (k,), also the transform values, written there.

    Each row maximizes sum(v p) - sum(p^2 / eta) over the simplex, v the
    utilities over lam shifted by their max, so p = eta (v - tau)_+ / 2 with
    tau = (sum_S eta v - 2) / sum_S eta on the support S. The shift makes
    every v <= 0 and so tau <= -2, and keeps a row's largest utilities in S
    at any magnitude of u / lam. The threshold is Michelot's fixed point,
    with no sort: from S = all atoms, each pass computes tau and drops the
    atoms with v <= tau, until S stops changing, at most n passes (tau only
    rises, so S only shrinks). A block runs the passes on masked sums over
    atoms, a dropped atom's terms zeroed, until none of its rows changes; a
    row that has settled recomputes the same tau. One row, each SGD step,
    runs in :func:`_sparsemax_row` instead, without a block's numpy
    set-up.
    """
    if U.ndim == 1:
        return _sparsemax_row(U, model)
    lam = model.lam
    V = U / lam
    mx = V.max(axis=0)
    V -= mx
    eta = model._eta_block(V.shape[1])
    ev, es = V * eta, eta.copy()
    # ``inside`` marks the supports, ``above`` each pass's v > tau
    above, inside = np.empty(V.shape, dtype=bool), np.ones(V.shape, dtype=bool)
    size = V.size
    for _ in range(V.shape[0]):
        tau = _atom_sum(ev)
        tau -= 2.0
        tau /= _atom_sum(es)
        np.greater(V, tau, out=above)
        inside &= above
        left = np.count_nonzero(inside)
        if left == size:
            break
        size = left
        ev *= above
        es *= above
    P = np.subtract(V, tau, out=P)
    P *= eta
    np.maximum(P, _ZERO, out=P)
    P /= 2.0
    if vals is not None:
        # the maximand at the solution, folded: lam (max + 1 + sum(v p)
        # - sum(p^2 / eta)) with the shifted v
        V *= P
        np.add(_atom_sum(V), 1.0, out=vals)
        np.multiply(P, P, out=V)
        V /= eta
        vals -= _atom_sum(V)
        vals += mx
        vals *= lam
    return P


def _sparsemax_row(u: np.ndarray, model: MarginalModel) -> np.ndarray:
    """:func:`_sparsemax` of the one utility row u, (n,), on Python floats.

    The arithmetic is the block's, operation for operation: the shift by
    max(u) / lam (division is monotone, so that is the max of u / lam), the
    passes with their sums over the support in index order (a block's
    dropped atoms add only zeros), and the probabilities. So a finite row
    gets the bits it gets in a block. Each pass tests the support and sums
    what it keeps in one loop. The interpreted passes grow with n, so this
    suits the few atoms of one SGD row.
    """
    lam = model.lam
    e, se = model._eta_floats
    u = u.tolist()
    top = max(u) / lam
    v = [x / lam - top for x in u]
    ev = [a * b for a, b in zip(v, e)]
    sv = functools.reduce(operator.add, ev)
    support = range(len(v))
    for _ in range(len(v)):
        tau = (sv - 2.0) / se
        kept, sv, se = [], 0.0, 0.0
        for i in support:
            if v[i] > tau:
                kept.append(i)
                sv += ev[i]
                se += e[i]
        # a NaN utility empties the support
        if len(kept) == len(support) or not kept:
            break
        support = kept
    return np.array([0.0 if x <= tau else (x - tau) * a / 2.0 for x, a in zip(v, e)])


def _kernel(U: np.ndarray, model: MarginalModel | None, eps: float | None, P=None,
            vals=None) -> np.ndarray:
    """Choice probabilities of the atom-major utility row U, (n,), or of
    each column of the block U, (n, k), in a new array of U's shape or
    written into ``P``; with ``vals``, shape (k,), also the transform
    values, written there.

    The one implementation behind every caller and the one place that
    picks a kernel by kind: :func:`_softmax` for the exponential kind,
    :func:`_sparsemax` for the uniform kind and :func:`_bisection` for the
    rest; eps, the l2 accuracy, is read only by the bisection kinds. A
    block with ``model=None`` gets the plain max and one-hot columns (first
    maximizer on ties), into ``P`` and ``vals``.
    """
    if model is None:
        cols = np.arange(U.shape[1])
        win = np.argmax(U, axis=0)
        vals[:] = U[win, cols]
        P.fill(0.0)
        P[win, cols] = 1.0
        return P
    if model.kind == "exponential":
        return _softmax(U, model, P, vals)
    if model.kind == "uniform":
        return _sparsemax(U, model, P, vals)
    return _bisection(U, model, eps, P, vals)


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


def _mass_checked(p: np.ndarray, model: MarginalModel, eps: float | None) -> np.ndarray:
    """One row's probabilities ``p``, unless their mass misses one by more
    than max(slack, 1e-10): the slack is 0 for the closed forms and
    sqrt(n) eps for the bisection kinds, eps their accuracy. NaN fails.
    Entries are nonnegative by construction."""
    slack = 0.0 if model.kind in CLOSED_FORM_KINDS else math.sqrt(p.size) * eps
    total = float(p.sum())
    if not abs(total - 1.0) <= max(slack, 1e-10):
        raise ValueError(f"choice probabilities sum to {total!r}")
    return p


def probs_from_utilities(u, model: MarginalModel, eps: float | None = None) -> np.ndarray:
    """Choice probabilities for one utility vector, mass-checked.

    Closed form for the exponential and uniform kinds; the others bisect
    to the l2 accuracy ``eps``, which they need, and may undersum one by
    at most sqrt(n) * eps.
    """
    u = _check_utilities(u, model.n)
    return _mass_checked(_kernel(u, model, eps), model, eps)


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
# with the number of rows. A block is atom-major, (n, k) for k <= 4,096
# rows: a reduction over atoms is n vector operations along k, added in
# index order (see the module docstring).
_ROW_BLOCK = 4096
# Columns of the eta operands (:meth:`MarginalModel._eta_block`) that a
# model keeps: two full blocks, so a batched call's block widths and a
# one-row bisection's pass widths fit, in no more memory than a block's
# utility and probability buffers take together.
_ETA_COLUMNS = 2 * _ROW_BLOCK


def utilities_values_probs(U: np.ndarray, model: MarginalModel | None,
                           eps: float | None = None, phi=None):
    """Smoothed transform values and probabilities for rows of utilities.

    With ``model=None`` this is the plain max with one-hot rows (first
    maximizer on ties). With ``phi`` the rows of ``U`` are costs C, and
    the utilities are phi - C. Returns ``(values, P)`` with one row per
    input row, written block by block from :func:`_row_blocks`, each
    atom-major block back transposed, so beyond U and P every temporary is
    block-sized.
    """
    U = np.asarray(U, dtype=float)
    vals, P = np.empty(U.shape[0]), np.empty(U.shape)
    for rows, P_block in _row_blocks(U, model, eps, phi, vals):
        P[rows] = P_block.T
    return vals, P


def _row_blocks(U: np.ndarray, model: MarginalModel | None, eps: float | None, phi,
                vals: np.ndarray, cost=None):
    """Run the rows of ``U``, or with ``phi`` of phi - U, through the kernel
    in blocks of ``_ROW_BLOCK`` rows, and yield ``(rows, P_block)`` for each.

    With ``cost``, a pair ``(atoms, c)``, the rows of ``U`` are sample
    points, and each block builds its own rows of costs,
    ``cost_matrix(U[rows], atoms, c)``, as it comes: a row's costs have
    the same bits in a block as in the full matrix, and a caller that
    hands over points holds no m x n array at all.

    Each block forms its utilities atom-major, as phi[:, None] - U[rows].T,
    in one (n, k) buffer, and writes its values into its slice ``rows`` of
    ``vals``, shape (m,). ``P_block`` is the block's atom-major (n, k)
    probabilities, in a block-sized buffer that the next block overwrites,
    so a caller that reduces each block as it comes holds no m x n array
    besides its costs. Both buffers are flat, so the last, shorter block is
    C-contiguous too. Every kernel works column by column and adds over
    atoms in index order (:func:`_atom_sum`), so every row's numbers are
    independent of the others and of the block it falls in, and equal
    those of the row alone.
    """
    m = U.shape[0]
    n = U.shape[1] if cost is None else cost[0].shape[0]
    if model is not None and model.n != n:
        raise ValueError("model weights and utility columns disagree in length")
    size = min(m, _ROW_BLOCK)
    ubuf, pbuf = np.empty(n * size), np.empty(n * size)
    col = None if phi is None else np.asarray(phi, dtype=float).reshape(n, 1)
    for start in range(0, m, _ROW_BLOCK):
        rows = slice(start, start + _ROW_BLOCK)
        block = (U[rows] if cost is None else cost_matrix(U[rows], *cost)).T
        k = block.shape[1]
        utilities = ubuf[:n * k].reshape(n, k)
        if col is None:
            np.copyto(utilities, block)
        else:
            np.subtract(col, block, out=utilities)
        yield rows, _kernel(utilities, model, eps, pbuf[:n * k].reshape(n, k), vals[rows])


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
    """Weighted sum over the columns of the atom-major block P, (n, k), of
    the choice-probability Jacobians diag(g) - g g^T / sum(g), g the
    marginal cdf slopes at the row (zero, one-sided, on boundary
    coordinates).

    The Newton evaluation sums it over row blocks, so its slopes G and
    their weighted copy stay block-sized. The uniform slopes are a masked
    product, since ``np.where`` broadcasts the (n, 1) eta column slowly."""
    lam, eta = model.lam, model._eta_col
    if model.kind == "exponential":
        G = P / lam
    elif model.kind == "uniform":
        G = (P > 0.0) * (eta / (2.0 * lam))
    elif model.kind == "hyperbolic":
        G = np.where(P > 0.0, np.sqrt(eta * eta + P * P) / lam, 0.0)
    elif model.kind == "tdist":
        a = P / (eta * model.n)
        G = eta * model.n * np.clip(4.0 * a * (1.0 - a), 0.0, None) ** 1.5 / (2.0 * lam)
    else:
        with np.errstate(divide="ignore"):
            G = np.where(P > 0.0, eta * (P / eta) ** (2.0 - model.q), 0.0) / (lam * model.q)
    total = _atom_sum(G)
    share = np.divide(weights, total, out=np.zeros_like(total), where=total > 0.0)
    return np.diag(G @ weights) - (G * share) @ G.T


def choice_jacobian(u, model: MarginalModel, eps: float = 1e-9) -> np.ndarray:
    """Jacobian of the choice probabilities in the utilities (one-sided at the boundary)."""
    p = probs_from_utilities(u, model, eps=eps)
    return averaged_choice_jacobian(p[:, None], np.ones(1), model)
