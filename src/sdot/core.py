"""Ground types for semi-discrete transport.

A problem instance pairs a continuous source (a :class:`SamplerSpec` that can
be drawn from) with a discrete target (:class:`DiscreteMeasure`) under a cost
given by :class:`CostSpec`.

All types are immutable after construction.  :func:`draw` starts a fresh
counter-based Philox stream from the spec's seed on every call, so the first
``n`` of ``n + k`` points drawn from a spec equal the ``n`` points drawn from
it alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "CostSpec",
    "DiscreteMeasure",
    "SamplerSpec",
    "cost_matrix",
    "cost_vector",
    "derive_seed",
    "draw",
]

COST_KINDS = ("p-norm-power", "sup-norm")
SAMPLER_KINDS = ("gaussian-standard", "hypercube-uniform", "empirical")


def _reject_unknown(obj: dict, known, ctx: str):
    """Fail on the first key of a JSON object outside ``known``, naming it."""
    for key in obj:
        if key not in known:
            raise ValueError(f"{ctx} has unknown field '{key}'")


def _require(obj, field: str, ctx: str = "input"):
    """``obj[field]`` of a JSON object; a non-object ``obj`` or a missing
    field is a ValueError naming ``ctx``."""
    if not isinstance(obj, dict):
        raise ValueError(f"{ctx} must be a JSON object")
    if field not in obj:
        raise ValueError(f"{ctx} is missing field '{field}'")
    return obj[field]


def _number(value, field: str, integer: bool = False):
    """A JSON number as a float, or with ``integer`` as a whole int; any
    other value (a string, a list, null, a bool) is a ValueError naming
    ``field``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{field} must be a number, got {value!r}")
    if not integer:
        return float(value)
    if isinstance(value, float):
        if not value.is_integer():
            raise ValueError(f"{field} must be an integer, got {value!r}")
        value = int(value)
    return value


def _count(value, field: str, least: int = 0):
    """``value`` if it is a Python or numpy integer (not a bool) of at least
    ``least``, else a ValueError naming ``field``: the one integer rule."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{field} must be an integer of at least {least}, got {value!r}")
    return value


def _check_finite_nonnegative(value: float, field: str):
    """Raise unless ``value`` is a finite, nonnegative number: an infinite
    eps_bar zeroes the bounded-gradient step, and NaN passes every comparison."""
    if not 0.0 <= value < np.inf:
        raise ValueError(f"{field} must be nonnegative and finite, got {value!r}")


def _array(value, field: str) -> np.ndarray:
    """A JSON array of numbers, or of equal-length arrays of them, as a
    float array; any other value (an object, a string, a ragged array, a
    null or bool entry) is a ValueError naming ``field``."""
    def numeric(v):
        if isinstance(v, list):
            return all(map(numeric, v))
        return isinstance(v, (int, float)) and not isinstance(v, bool)

    if isinstance(value, list) and numeric(value):
        try:
            return np.array(value, dtype=float)
        except (ValueError, OverflowError):  # ragged, or an int past float range
            pass
    raise ValueError(f"{field} must be an array of numbers")


def _check_entries(count: int, what: str):
    """Raise, before allocating, when ``what`` would hold more than 2e8
    floats (1.6 GB): the bound on every solve and quadrature array."""
    if count > 2e8:
        raise ValueError(f"{what} too large ({count} > 2e8 entries)")


def _readonly(a) -> np.ndarray:
    """A read-only float copy of ``a``, C-contiguous and of the same shape
    (0-d stays 0-d); the caller's array is left as it was."""
    a = np.array(a, dtype=float, order="C")
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class DiscreteMeasure:
    """Atoms ``y_1..y_N`` in R^d with a probability vector over them."""

    atoms: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        atoms = np.asarray(self.atoms, dtype=float)
        if atoms.ndim != 2 or atoms.shape[0] < 1:
            raise ValueError("atoms must be a nonempty (N, d) array")
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (atoms.shape[0],):
            raise ValueError("weights length must match the number of atoms")
        if not np.all(np.isfinite(atoms)) or not np.all(np.isfinite(w)):
            raise ValueError("atoms and weights must be finite")
        if np.any(w < 0):
            raise ValueError("weights must be nonnegative")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1 within 1e-12")
        object.__setattr__(self, "atoms", _readonly(atoms))
        object.__setattr__(self, "weights", _readonly(w))

    @property
    def n_atoms(self) -> int:
        return self.atoms.shape[0]

    def to_json(self) -> dict:
        return {"atoms": self.atoms.tolist(), "weights": self.weights.tolist()}

    @classmethod
    def from_json(cls, obj: dict) -> "DiscreteMeasure":
        atoms, weights = (_array(_require(obj, field, "measure JSON"), f"measure field '{field}'")
                          for field in ("atoms", "weights"))
        _reject_unknown(obj, ("atoms", "weights"), "measure JSON")
        return cls(atoms, weights)


@dataclass(frozen=True)
class CostSpec:
    """Transport cost: Euclidean norm to a power, or the sup-norm."""

    kind: str
    p: float | None = None

    def __post_init__(self):
        if self.kind not in COST_KINDS:
            raise ValueError(f"cost kind must be one of {COST_KINDS}, got '{self.kind}'")
        if self.kind == "p-norm-power":
            if self.p is None or not self.p >= 1:
                raise ValueError("p-norm-power cost needs an exponent p >= 1")
        elif self.p is not None:
            raise ValueError("sup-norm cost takes no exponent")

    def to_json(self) -> dict:
        out = {"kind": self.kind}
        if self.kind == "p-norm-power":
            out["p"] = self.p
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "CostSpec":
        kind = _require(obj, "kind", "cost JSON")
        _reject_unknown(obj, ("kind", "p"), "cost JSON")
        p = obj.get("p")
        if p is not None:
            p = _number(p, "cost field 'p'")
        return cls(kind, p=p)


@dataclass(frozen=True)
class SamplerSpec:
    """Source of i.i.d. draws: standard Gaussian, unit hypercube, or empirical."""

    kind: str
    d: int | None = None
    seed: int = 0
    points: np.ndarray | None = None
    weights: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in SAMPLER_KINDS:
            raise ValueError(f"sampler kind must be one of {SAMPLER_KINDS}, got '{self.kind}'")
        _count(self.seed, "sampler field 'seed'")
        if self.kind != "empirical" or self.d is not None:
            _count(self.d, "sampler field 'd'", least=1)
        if self.kind == "empirical":
            if self.points is None or self.weights is None:
                raise ValueError("empirical sampler needs points and weights")
            pts = np.asarray(self.points, dtype=float)
            w = np.asarray(self.weights, dtype=float)
            if pts.ndim != 2 or w.shape != pts.shape[:1]:
                raise ValueError("empirical sampler field 'points' must be (K, d) and "
                                 "'weights' must match it in length")
            if not np.all(np.isfinite(pts)) or not np.all(np.isfinite(w)):
                raise ValueError("empirical sampler points and weights must be finite")
            if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-12:
                raise ValueError("empirical weights must form a probability vector")
            if self.d is not None and self.d != pts.shape[1]:
                raise ValueError("empirical sampler field 'd' must equal the points' dimension")
            object.__setattr__(self, "points", _readonly(pts))
            object.__setattr__(self, "weights", _readonly(w))
            object.__setattr__(self, "d", pts.shape[1])
        else:
            if self.points is not None or self.weights is not None:
                raise ValueError(f"{self.kind} sampler takes no point list")

    def to_json(self) -> dict:
        out = {"kind": self.kind, "seed": int(self.seed)}
        if self.kind == "empirical":
            out["points"] = self.points.tolist()
            out["weights"] = self.weights.tolist()
        else:
            out["d"] = int(self.d)
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "SamplerSpec":
        kind = _require(obj, "kind", "sampler JSON")
        _reject_unknown(obj, ("kind", "d", "seed", "points", "weights"), "sampler JSON")
        seed = _number(obj.get("seed", 0), "sampler field 'seed'", integer=True)
        d = obj.get("d")
        if d is not None:
            d = _number(d, "sampler field 'd'", integer=True)
        if kind == "empirical":
            points, weights = (_array(_require(obj, field, "empirical sampler JSON"),
                                      f"sampler field '{field}'")
                               for field in ("points", "weights"))
            return cls("empirical", d=d, seed=seed, points=points, weights=weights)
        return cls(kind, d=d, seed=seed)


def derive_seed(seed: int, *parts: int) -> int:
    """Deterministic child seed for per-run streams keyed by integer tags."""
    ss = np.random.SeedSequence([int(seed), *[int(p) for p in parts]])
    return int(ss.generate_state(1, np.uint64)[0])


def draw(spec: SamplerSpec, n: int) -> np.ndarray:
    """Draw ``n`` points from a fresh stream seeded by ``spec.seed``."""
    _count(n, "draw count", least=1)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(int(spec.seed))))
    if spec.kind == "gaussian-standard":
        return rng.standard_normal((n, spec.d))
    if spec.kind == "hypercube-uniform":
        return rng.random((n, spec.d))
    # empirical: inverse-CDF on one uniform per draw, so a longer draw
    # extends a shorter one
    cum = np.cumsum(spec.weights)
    idx = np.minimum(np.searchsorted(cum, rng.random(n), side="right"), len(cum) - 1)
    return spec.points[idx]


def cost_matrix(X: np.ndarray, Y: np.ndarray, spec: CostSpec) -> np.ndarray:
    """All pairwise costs, shape (len(X), len(Y)).

    Each entry starts from its first coordinate's term, |x_1 - y_1| for
    the sup-norm and (x_1 - y_1)^2 for the norm power, and folds in each
    further coordinate's term in index order, by max or by sum; the norm
    power then takes the power p / 2 in place. The output is the only
    (m, n) array, no (m, n, d) temporary is formed, and a row's costs have
    the same bits alone and among any other rows.

    With one coordinate or one atom, each coordinate is one broadcast pass
    over the whole output, and a second coordinate's term goes through a
    scratch array of the output's size, at most one (m,) column. Otherwise
    an atom's output column is strided, and a pass over it costs several
    contiguous ones, so each column is folded in scratch and written by
    its last fold: the rows go in two halves, whose running fold and next
    term share one (m,) scratch column.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    m, d = X.shape
    if d != Y.shape[1]:
        raise ValueError(f"point dimensions differ: {d} vs {Y.shape[1]}")
    if d == 0:
        raise ValueError(f"{spec.kind} cost needs points with at least one coordinate")
    sup = spec.kind == "sup-norm"
    term, fold = (np.abs, np.maximum) if sup else (np.square, np.add)
    if d == 1 or len(Y) == 1:
        out = np.subtract(X[:, :1], Y[:, 0])
        term(out, out=out)
        scratch = np.empty_like(out) if d > 1 else None
        for k in range(1, d):
            term(np.subtract(X[:, k:k + 1], Y[:, k], out=scratch), out=scratch)
            fold(out, scratch, out=out)
    else:
        out = np.empty((m, len(Y)))
        h = (m + 1) // 2
        scratch = np.empty(2 * h)
        for lo, hi in ((0, h), (h, m)):
            acc, nxt = scratch[:hi - lo], scratch[h:h + hi - lo]
            for j, y in enumerate(Y):
                term(np.subtract(X[lo:hi, 0], y[0], out=acc), out=acc)
                for k in range(1, d):
                    term(np.subtract(X[lo:hi, k], y[k], out=nxt), out=nxt)
                    fold(acc, nxt, out=out[lo:hi, j] if k == d - 1 else acc)
    if not sup and spec.p != 2.0:
        out **= spec.p / 2.0
    return out


def cost_vector(x, atoms: np.ndarray, spec: CostSpec) -> np.ndarray:
    """The costs of one point ``x`` to each atom, shape (len(atoms),).

    Built as the one column of ``cost_matrix(atoms, [x])``, a few passes
    over the atoms where ``cost_matrix([x], atoms)`` would loop over them:
    the terms |y_k - x_k| and (y_k - x_k)^2 are those of x - y bit for
    bit, so the row is the one ``cost_matrix`` gives ``x`` among other
    points.
    """
    return cost_matrix(atoms, np.asarray(x, dtype=float)[None, :], spec)[:, 0]
