"""Marginal noise families: generating curves, divergences, choice probabilities,
smooth transforms. Oracles here are deliberately independent routes: exhaustive
support enumeration for the sparsemax fixed point, scipy SLSQP for simplex maxima,
scipy quadrature for integral identities."""

import math
import re
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import minimize

from sdot.core import CostSpec, DiscreteMeasure, cost_vector
from sdot.noise import (
    CLOSED_FORM_KINDS,
    HYPERBOLIC_OFFSET,
    MarginalModel,
    _bisection,
    _cdf_extended,
    _ROW_BLOCK,
    _kernel,
    _row_bracket,
    approximation_bound,
    averaged_choice_jacobian,
    bisection_delta,
    choice_jacobian,
    choice_probabilities,
    discrete_f_divergence,
    divergence_generator_value,
    generating_cdf,
    generating_quantile,
    marginal_cdf,
    marginal_lipschitz,
    marginal_quantile,
    probs_from_utilities,
    smooth_c_transform,
    utilities_values_probs,
)

ALL_KINDS = ("exponential", "uniform", "pareto", "hyperbolic", "tdist")


def uniform_model(kind, lam, n, q=None):
    return MarginalModel(kind, lam, np.full(n, 1.0 / n), q=q)


def random_eta(rng, n):
    e = rng.uniform(0.2, 1.0, n)
    e /= e.sum()
    return e


def make_model(rng, kind, n, lam=None):
    lam = lam if lam is not None else rng.uniform(0.1, 2.0)
    q = rng.uniform(1.2, 3.0) if kind == "pareto" else None
    # t marginals need eta_i close to uniform so quantities like 1/eta_i stay <= N
    eta = np.full(n, 1.0 / n) if kind == "tdist" else random_eta(rng, n)
    return MarginalModel(kind, lam, eta, q=q)


# ---------------------------------------------------------- SLSQP oracle

def slsqp_max_simplex(value_grad, n, upper=None):
    upper = np.full(n, 1.0) if upper is None else upper
    res = minimize(
        lambda p: tuple(-v for v in value_grad(p)),
        np.full(n, 1.0 / n),
        jac=True,
        bounds=[(1e-12, ub - 1e-12) for ub in upper],
        constraints=[{"type": "eq", "fun": lambda p: p.sum() - 1.0,
                      "jac": lambda p: np.ones(n)}],
        method="SLSQP",
        options={"maxiter": 800, "ftol": 1e-14},
    )
    assert res.success, res.message
    return res.x, -res.fun


def generic_objective(model, u):
    def value_grad(p):
        val = float(u @ p - discrete_f_divergence(model, p))
        grad = u - generating_quantile(model, p / model.eta)
        return val, grad
    return value_grad


# ------------------------------------------------------ generating curves

def test_generating_cdf_frozen_values():
    n2 = np.full(2, 0.5)
    assert generating_cdf(MarginalModel("exponential", 1.0, n2), 1.0) == pytest.approx(1.0)
    assert generating_cdf(MarginalModel("uniform", 10.0, n2), 0.0) == pytest.approx(0.5)
    hyp = MarginalModel("hyperbolic", 1.0, n2)
    assert generating_cdf(hyp, HYPERBOLIC_OFFSET) == pytest.approx(0.0, abs=1e-15)
    td = MarginalModel("tdist", 0.7, np.full(3, 1 / 3))
    assert generating_cdf(td, 0.7 * np.sqrt(2.0)) == pytest.approx(1.5)


def test_pareto_q2_matches_uniform_curve():
    rng = np.random.default_rng(0)
    par = MarginalModel("pareto", 0.8, np.full(2, 0.5), q=2.0)
    uni = MarginalModel("uniform", 0.8, np.full(2, 0.5))
    for s in rng.uniform(-0.3, 3.0, 25):
        assert generating_cdf(par, s) == pytest.approx(generating_cdf(uni, s), abs=1e-12)


def test_generating_quantile_inverts_cdf():
    rng = np.random.default_rng(1)
    for kind in ALL_KINDS:
        model = make_model(rng, kind, 3)
        for t in rng.uniform(0.05, 0.95, 20):
            s = generating_quantile(model, t)
            assert generating_cdf(model, s) == pytest.approx(t, abs=1e-10)


def test_generating_quantile_domain_errors():
    n2 = np.full(2, 0.5)
    with pytest.raises(ValueError):
        generating_quantile(MarginalModel("exponential", 1.0, n2), 0.0)
    with pytest.raises(ValueError):
        generating_quantile(MarginalModel("tdist", 1.0, n2), 2.0)
    with pytest.raises(ValueError):
        generating_cdf(MarginalModel("pareto", 1.0, n2, q=3.0), -10.0)


def test_marginal_quantile_frozen():
    assert marginal_quantile(MarginalModel("uniform", 10.0, np.full(2, 0.5)), 0, 0.75) \
        == pytest.approx(0.0, abs=1e-14)
    assert marginal_quantile(MarginalModel("exponential", 1.0, np.full(2, 0.5)), 1, 0.5) \
        == pytest.approx(-1.0)


def test_marginal_quantile_round_trip():
    rng = np.random.default_rng(2)
    for kind in ALL_KINDS:
        model = make_model(rng, kind, 4)
        for i in range(4):
            for t in (0.2, 0.5, 0.9):
                s = marginal_quantile(model, i, t)
                assert marginal_cdf(model, i, s) == pytest.approx(t, abs=1e-9)


def test_marginal_quantile_infinite_signals():
    # skewed eta makes the t marginal's lower quantiles run off the support
    model = MarginalModel("tdist", 1.0, np.array([0.05, 0.95]))
    with pytest.raises(ValueError):
        marginal_quantile(model, 0, 0.3)


def test_marginal_cdf_monotone_with_limits():
    rng = np.random.default_rng(3)
    for kind in ALL_KINDS:
        model = make_model(rng, kind, 3)
        grid = np.linspace(-40 * model.lam, 40 * model.lam, 200)
        vals = np.array([marginal_cdf(model, 1, s) for s in grid])
        assert np.all(np.diff(vals) >= -1e-12)
        assert vals[0] <= 1e-6 or kind == "tdist"  # heavy left tail for t marginals
        assert vals[-1] >= 1.0 - 1e-6 or kind == "tdist"
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0)


# ---------------------------------------------------- divergence generator

def test_f_is_zero_at_zero_and_one():
    rng = np.random.default_rng(4)
    for kind in ALL_KINDS:
        model = make_model(rng, kind, 3)
        assert divergence_generator_value(model, 0.0) == pytest.approx(0.0, abs=1e-12)
        assert divergence_generator_value(model, 1.0) == pytest.approx(0.0, abs=1e-10)


def test_f_frozen_values():
    e = np.full(2, 0.5)
    assert divergence_generator_value(MarginalModel("exponential", 2.0, e), np.e) \
        == pytest.approx(2 * np.e)
    par = MarginalModel("pareto", 0.6, e, q=2.0)
    uni = MarginalModel("uniform", 0.6, e)
    for s in (0.3, 1.0, 1.7):
        assert divergence_generator_value(par, s) == pytest.approx(
            divergence_generator_value(uni, s), abs=1e-12)
    td = MarginalModel("tdist", 0.9, np.full(4, 0.25))
    assert divergence_generator_value(td, 5.0) == np.inf
    assert divergence_generator_value(td, 4.0) == pytest.approx(0.9 * 4 * np.sqrt(3.0))


def test_f_matches_quadrature_of_quantile():
    rng = np.random.default_rng(5)
    for kind in ALL_KINDS:
        model = make_model(rng, kind, 3)
        for s in (0.3, 0.8, 1.4, 2.4):
            ref, err = quad(lambda t: generating_quantile(model, t), 0.0, s,
                            epsabs=1e-12, epsrel=1e-12, limit=300)
            assert err < 1e-9
            assert divergence_generator_value(model, s) == pytest.approx(ref, abs=1e-8)


def test_f_derivative_is_generating_quantile():
    rng = np.random.default_rng(6)
    h = 1e-6
    for kind in ALL_KINDS:
        model = make_model(rng, kind, 3)
        for s in (0.4, 1.0, 1.9):
            fd = (divergence_generator_value(model, s + h)
                  - divergence_generator_value(model, s - h)) / (2 * h)
            assert generating_quantile(model, s) == pytest.approx(fd, abs=1e-5)


def test_f_convex():
    rng = np.random.default_rng(7)
    for kind in ALL_KINDS:
        model = make_model(rng, kind, 3)
        for _ in range(20):
            a, b = rng.uniform(0.05, 2.5, 2)
            mid = divergence_generator_value(model, (a + b) / 2)
            avg = (divergence_generator_value(model, a) + divergence_generator_value(model, b)) / 2
            assert mid <= avg + 1e-12


def test_discrete_f_divergence():
    rng = np.random.default_rng(8)
    for kind in ALL_KINDS:
        model = make_model(rng, kind, 4)
        assert discrete_f_divergence(model, model.eta.copy()) == pytest.approx(0.0, abs=1e-12)
        for _ in range(10):
            p = rng.dirichlet(np.ones(4) * 3)
            div = discrete_f_divergence(model, p)
            assert div >= -1e-12


def test_discrete_f_divergence_frozen_vertices():
    n = 5
    lam = 0.3
    ent = uniform_model("exponential", lam, n)
    chi = uniform_model("uniform", lam, n)
    vertex = np.zeros(n)
    vertex[2] = 1.0
    assert discrete_f_divergence(ent, vertex) == pytest.approx(lam * np.log(n), rel=1e-12)
    assert discrete_f_divergence(chi, vertex) == pytest.approx(lam * (n - 1), rel=1e-12)
    td = MarginalModel("tdist", lam, np.array([0.05, 0.45, 0.5]))
    assert discrete_f_divergence(td, np.array([0.9, 0.05, 0.05])) == np.inf


def test_model_validation():
    with pytest.raises(ValueError):
        MarginalModel("exponential", 0.0, np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        MarginalModel("exponential", 1.0, np.array([0.6, 0.6]))
    with pytest.raises(ValueError):
        MarginalModel("exponential", 1.0, np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        MarginalModel("pareto", 1.0, np.array([0.5, 0.5]), q=1.0)
    with pytest.raises(ValueError):
        MarginalModel("uniform", 1.0, np.array([0.5, 0.5]), q=2.0)
    with pytest.raises(ValueError):
        MarginalModel("no-such", 1.0, np.array([0.5, 0.5]))
    for eta in (np.zeros(0), np.full((1, 2), 0.5)):
        with pytest.raises(ValueError, match="eta must be a nonempty 1-d array"):
            MarginalModel("exponential", 1.0, eta)
    with pytest.raises(ValueError, match="pareto kind requires the exponent q"):
        MarginalModel("pareto", 1.0, np.array([0.5, 0.5]))


def test_model_json_round_trip():
    m = MarginalModel("pareto", 0.4, np.array([0.25, 0.75]), q=1.5)
    m2 = MarginalModel.from_json(m.to_json())
    assert m2.kind == "pareto" and m2.q == 1.5 and m2.lam == 0.4
    assert np.array_equal(m2.eta, m.eta)
    with pytest.raises(ValueError):
        MarginalModel.from_json({"kind": "exponential", "eta": [0.5, 0.5]})
    tagged = MarginalModel.from_json({**m.to_json(), "tag": "heavy"})
    assert tagged.kind == "pareto" and tagged.q == 1.5


def test_model_json_rejects_unknown_field():
    entry = {"kind": "exponential", "lambda": 0.5, "eta": [0.5, 0.5], "temperature": 9}
    with pytest.raises(ValueError, match="unknown field 'temperature'"):
        MarginalModel.from_json(entry)


# -------------------------------------------------------------- softmax

def test_softmax_frozen():
    p = probs_from_utilities(np.array([np.log(3.0), 0.0]),
                             MarginalModel("exponential", 1.0, np.full(2, 0.5)))
    assert np.allclose(p, [0.75, 0.25], atol=1e-14)


def test_softmax_constant_utilities_give_eta():
    eta = np.array([0.1, 0.2, 0.7])
    p = probs_from_utilities(np.full(3, 2.2), MarginalModel("exponential", 0.5, eta))
    assert np.allclose(p, eta, atol=1e-14)


def test_softmax_shift_invariance():
    rng = np.random.default_rng(9)
    u = rng.normal(size=6)
    eta = random_eta(rng, 6)
    base = probs_from_utilities(u, MarginalModel("exponential", 0.3, eta))
    for k in (-5.0, 1e3):
        assert np.allclose(probs_from_utilities(u + k, MarginalModel("exponential", 0.3, eta)),
                           base, atol=1e-12)


def test_softmax_overflow_safe():
    p = probs_from_utilities(np.array([1e6, 0.0]),
                             MarginalModel("exponential", 1.0, np.full(2, 0.5)))
    assert np.all(np.isfinite(p)) and p[0] == pytest.approx(1.0)


# ------------------------------------------------------------ sparsemax

def enumerate_qp_sparsemax(u, eta):
    """Exhaustive oracle: best KKT candidate over all supports by value."""
    n = len(u)
    best_val, best_p = -np.inf, None
    for mask in range(1, 2 ** n):
        idx = [i for i in range(n) if mask >> i & 1]
        es, us = eta[idx], u[idx]
        tau = (es @ us - 2.0) / es.sum()
        cand = np.zeros(n)
        cand[idx] = es * (us - tau) / 2.0
        if np.any(cand[idx] < -1e-14):
            continue
        val = u @ cand - np.sum(cand ** 2 / eta)
        if val > best_val:
            best_val, best_p = val, cand
    return best_p, best_val


def test_sparsemax_constant_utilities_give_eta():
    eta = np.array([0.3, 0.2, 0.5])
    p = probs_from_utilities(np.full(3, 1.7), MarginalModel("uniform", 1.0, eta))
    assert np.allclose(p, eta, atol=1e-14)


def test_sparsemax_frozen_two_point():
    p = probs_from_utilities(np.array([4.0, 0.0]), MarginalModel("uniform", 1.0, np.full(2, 0.5)))
    assert np.allclose(p, [1.0, 0.0], atol=1e-14)


def test_sparsemax_matches_enumeration():
    rng = np.random.default_rng(10)
    for _ in range(150):
        n = rng.integers(1, 6)
        u = rng.normal(scale=3.0, size=n)
        eta = random_eta(rng, n)
        ours = probs_from_utilities(u, MarginalModel("uniform", 1.0, eta))
        ref, _ = enumerate_qp_sparsemax(u, eta)
        assert np.max(np.abs(ours - ref)) <= 1e-10


def test_sparsemax_fixed_point_matches_enumeration_in_blocks_and_rows():
    # the fixed point, on a block and on each row alone, against the
    # exhaustive KKT oracle, with random non-uniform eta and tied rows; its
    # frozen copy, which the kernel matches bit for bit, settles within n
    # passes
    rng = np.random.default_rng(14)
    for n in range(1, 13):
        model = MarginalModel("uniform", 1.0, random_eta(rng, n))
        U = _tied_rows(rng, 8, n, 3.0)
        _, P = utilities_values_probs(U, model)
        _, frozen_P, passes = frozen_sparsemax_cols(U, model)
        assert P.tobytes() == frozen_P.tobytes()
        assert passes <= n
        for u, p in zip(U, P):
            ref, _ = enumerate_qp_sparsemax(u, model.eta)
            assert np.max(np.abs(p - ref)) <= 1e-10
            assert _kernel(u, model, 0.0).tobytes() == p.tobytes()


def test_sparsemax_is_maximizer():
    rng = np.random.default_rng(11)
    for _ in range(30):
        u = rng.normal(size=5)
        eta = random_eta(rng, 5)
        p = probs_from_utilities(u, MarginalModel("uniform", 1.0, eta))
        val = u @ p - np.sum(p ** 2 / eta)
        for _ in range(20):
            other = rng.dirichlet(np.ones(5))
            assert val >= u @ other - np.sum(other ** 2 / eta) - 1e-12


# ------------------------------------------------------------ bisection

def bisect(u, model, eps):
    """The bisection kernel on one row, for any kind, closed forms included."""
    return _bisection(np.asarray(u, dtype=float), model, eps)


def test_bisection_matches_softmax():
    rng = np.random.default_rng(12)
    for _ in range(100):
        n = int(rng.integers(2, 12))
        model = MarginalModel("exponential", rng.uniform(0.05, 3.0), random_eta(rng, n))
        u = rng.normal(scale=2.0, size=n)
        pb = bisect(u, model, 1e-8)
        ps = probs_from_utilities(u, MarginalModel("exponential", model.lam, model.eta))
        assert np.linalg.norm(pb - ps) <= 1e-8


def test_bisection_matches_sparsemax_under_pareto_q2():
    rng = np.random.default_rng(13)
    for _ in range(100):
        n = int(rng.integers(2, 8))
        lam = rng.uniform(0.1, 2.0)
        model = MarginalModel("pareto", lam, random_eta(rng, n), q=2.0)
        u = rng.normal(size=n)
        pb = bisect(u, model, 1e-8)
        ps = probs_from_utilities(u / lam, MarginalModel("uniform", 1.0, model.eta))
        assert np.linalg.norm(pb - ps) <= 1e-8


def test_bisection_symmetry():
    model = uniform_model("hyperbolic", 0.7, 5)
    p = bisect(np.full(5, 1.3), model, 1e-9)
    assert np.allclose(p, 0.2, atol=1e-9)


def test_bisection_mass_and_norm_bounds():
    rng = np.random.default_rng(14)
    eps = 1e-7
    for kind in ("exponential", "hyperbolic", "tdist", "pareto"):
        for _ in range(25):
            n = int(rng.integers(2, 9))
            model = make_model(rng, kind, n)
            u = rng.normal(scale=1.5, size=n)
            out = bisect(u, model, eps)
            assert np.all(out >= 0.0)
            assert np.linalg.norm(out) <= 1.0 + 1e-12
            assert out.sum() <= 1.0 + 1e-12
            assert out.sum() >= 1.0 - np.sqrt(n) * eps - 1e-12


def test_bisection_matches_slsqp_for_generic_models():
    rng = np.random.default_rng(15)
    cases = [("hyperbolic", None), ("tdist", None), ("pareto", 3.2), ("pareto", 0.7)]
    for kind, q in cases:
        for _ in range(8):
            n = int(rng.integers(2, 5))
            lam = rng.uniform(0.3, 1.2)
            eta = np.full(n, 1.0 / n) if kind == "tdist" else random_eta(rng, n)
            model = MarginalModel(kind, lam, eta, q=q)
            u = rng.normal(scale=0.4, size=n)
            upper = eta * n if kind == "tdist" else None
            ref, _ = slsqp_max_simplex(generic_objective(model, u), n, upper=upper)
            ours = bisect(u, model, 1e-9)
            assert np.linalg.norm(ours - ref) <= 2e-6


def test_root_map_monotone():
    rng = np.random.default_rng(16)
    from sdot.noise import _clip_probs
    for kind in ALL_KINDS:
        model = make_model(rng, kind, 4)
        u = rng.normal(size=4)
        taus = np.linspace(-8 * model.lam, 8 * model.lam, 60)
        masses = [_clip_probs(model, (u + t)[:, None], np.empty((4, 1))).sum() for t in taus]
        assert np.all(np.diff(masses) >= -1e-12)


def test_bisection_single_atom():
    model = MarginalModel("hyperbolic", 1.0, np.array([1.0]))
    out = bisect(np.array([3.0]), model, 1e-6)
    assert np.array_equal(out, np.array([1.0]))


def test_bisection_needs_positive_eps():
    model = uniform_model("hyperbolic", 1.0, 3)
    with pytest.raises(ValueError):
        bisect(np.zeros(3), model, 0.0)


# ------------------------------------------- frozen bisection oracle
# Two frozen copies of the bisection loop (and the cdf it evaluated). The
# current one works atom-major: it takes and returns (n, k) blocks, one
# column per row, and sums each midpoint's mass over atoms in index order;
# the kernel must match it bit for bit: same brackets, step counts, mids
# and mass test. The old one is verbatim from before the bisection went
# atom-major: row-major, with numpy's pairwise row sums. Where a mass sits
# within rounding of one the two orders of summation may keep different
# halves, and the outputs then differ within the l2 accuracy eps.

def _frozen_cdf_extended(model, z):
    z = np.asarray(z, dtype=float)
    lam = model.lam
    with np.errstate(over="ignore"):
        if model.kind == "exponential":
            return np.exp(z / lam - 1.0)
        if model.kind == "uniform":
            return z / (2.0 * lam) + 0.5
        if model.kind == "hyperbolic":
            return np.sinh(z / lam - HYPERBOLIC_OFFSET)
        if model.kind == "tdist":
            n = model.n
            v = z - lam * math.sqrt(n - 1.0)
            return 0.5 * n * (1.0 + v / np.sqrt(lam * lam + v * v))
        q = model.q
        base = z * (q - 1.0) / (lam * q) + 1.0 / q
        if q > 1.0:
            return np.where(base > 0.0, np.maximum(base, 0.0) ** (1.0 / (q - 1.0)), 0.0)
        with np.errstate(divide="ignore"):
            return np.where(base > 0.0, np.maximum(base, 1e-300) ** (1.0 / (q - 1.0)), np.inf)


def _frozen_clip_probs(model, Z):
    """eta * F(Z) clipped to [0, 1] for the atom-major block Z, (n, k)."""
    return np.clip(model.eta[:, None] * _frozen_cdf_extended(model, Z), 0.0, 1.0)


def frozen_bisection(A, model, eps):
    """Probabilities of the atom-major utility block A, (n, k)."""
    if eps is None or not eps > 0.0:
        raise ValueError(f"model kind {model.kind!r} needs a positive accuracy eps for bisection")
    n, k = A.shape
    if n == 1:
        return np.ones((1, k))
    try:
        qvec = generating_quantile(model, (1.0 / n) / model.eta)
    except ValueError as exc:
        raise ValueError(f"bisection bracket is not finite for this model: {exc}") from exc
    nodes = qvec[:, None] - A
    lo = nodes.min(axis=0)
    hi = nodes.max(axis=0)
    delta = bisection_delta(model, eps)
    width = hi - lo
    steps = np.zeros(k, dtype=int)
    pos = width > delta
    steps[pos] = np.ceil(np.log2(width[pos] / delta)).astype(int)
    for j in range(int(steps.max(initial=0))):
        active = steps > j
        mid = 0.5 * (lo + hi)
        mass = _index_sum(_frozen_clip_probs(model, A + mid))
        go_hi = active & (mass > 1.0)
        go_lo = active & ~(mass > 1.0)
        hi = np.where(go_hi, mid, hi)
        lo = np.where(go_lo, mid, lo)
    return _frozen_clip_probs(model, A + lo)


def old_bisection_rows(U, model, eps):
    """Probabilities of the row-major utility rows U, (m, n), by the old
    frozen copy."""
    if eps is None or not eps > 0.0:
        raise ValueError(f"model kind {model.kind!r} needs a positive accuracy eps for bisection")
    m, n = U.shape
    if n == 1:
        return np.ones((m, 1))
    try:
        qvec = generating_quantile(model, (1.0 / n) / model.eta)
    except ValueError as exc:
        raise ValueError(f"bisection bracket is not finite for this model: {exc}") from exc

    def clip_probs(Z):
        return np.clip(model.eta[None, :] * _frozen_cdf_extended(model, Z), 0.0, 1.0)

    nodes = qvec[None, :] - U
    lo = nodes.min(axis=1)
    hi = nodes.max(axis=1)
    delta = bisection_delta(model, eps)
    width = hi - lo
    steps = np.zeros(m, dtype=int)
    pos = width > delta
    steps[pos] = np.ceil(np.log2(width[pos] / delta)).astype(int)
    for k in range(int(steps.max(initial=0))):
        active = steps > k
        mid = 0.5 * (lo + hi)
        mass = clip_probs(U + mid[:, None]).sum(axis=1)
        go_hi = active & (mass > 1.0)
        go_lo = active & ~(mass > 1.0)
        hi = np.where(go_hi, mid, hi)
        lo = np.where(go_lo, mid, lo)
    return clip_probs(U + lo[:, None])


def cols(U):
    """The atom-major block of the row-major rows U, (m, n), C-contiguous as
    every caller's block is."""
    return np.ascontiguousarray(U.T)


# ----------------------------------------- frozen closed-form kernels
# Two frozen pairs of the softmax and sparsemax kernels, values included.
# The current pair works atom-major with explicit index-order sums over
# atoms, and thresholds the sparsemax by Michelot's fixed point; every
# caller must match it bit for bit. The old pair is verbatim from before
# the atom-major blocks: row-major, numpy's pairwise row sums and the
# sorted sparsemax. The two orders of summation differ by rounding alone,
# within old_kernel_bound.

def _index_sum(A):
    """Sum over axis 0 in index order, one row after another."""
    acc = A[0].copy()
    for row in A[1:]:
        acc += row
    return acc


def frozen_softmax_cols(U, model):
    lam = model.lam
    Z = U.T / lam
    mx = Z.max(axis=0)
    W = model.eta[:, None] * np.exp(Z - mx)
    s = _index_sum(W)
    return lam * (np.log(s) + mx), (W / s).T


def frozen_sparsemax_cols(U, model):
    """``(values, P, passes)``: the fixed point on the max-shifted v runs,
    uncapped, until no row's support changes, and ``passes`` counts its
    passes."""
    eta = model.eta[:, None]
    V = U.T / model.lam
    mx = V.max(axis=0)
    V = V - mx
    support = np.ones(V.shape, dtype=bool)
    passes = 0
    while True:
        passes += 1
        tau = (_index_sum(V * eta * support) - 2.0) / _index_sum(eta * support)
        kept = support & (V > tau)
        if np.array_equal(kept, support):
            break
        support = kept
    P = np.maximum((V - tau) * eta, 0.0) / 2.0
    vals = model.lam * ((_index_sum(V * P) + 1.0 - _index_sum(P * P / eta)) + mx)
    return vals, P.T, passes


def frozen_closed_form(U, model):
    """``(values, P)`` of the frozen kernel of an exponential or uniform
    model; the sparsemax must settle within n passes."""
    if model.kind == "exponential":
        return frozen_softmax_cols(U, model)
    vals, P, passes = frozen_sparsemax_cols(U, model)
    assert passes <= model.n
    return vals, P


def old_softmax_rows(U, model):
    lam = model.lam
    Z = U / lam
    mx = Z.max(axis=1)
    W = model.eta * np.exp(Z - mx[:, None])
    s = W.sum(axis=1)
    return lam * (mx + np.log(s)), W / s[:, None]


def old_sparsemax_rows(U, model):
    eta = model.eta
    V = U / model.lam
    order = np.argsort(-V, axis=1, kind="stable")
    rows = np.arange(U.shape[0])
    vs = V[rows[:, None], order]
    es = eta[order]
    ce = np.cumsum(es, axis=1)
    cu = np.cumsum(es * vs, axis=1)
    keep = 2.0 + ce * vs > cu
    k = U.shape[1] - 1 - np.argmax(keep[:, ::-1], axis=1)
    tau = (cu[rows, k] - 2.0) / ce[rows, k]
    P = np.maximum(eta * (V - tau[:, None]), 0.0) / 2.0
    vals = model.lam * (1.0 + (V * P).sum(axis=1) - (P * P / eta[None, :]).sum(axis=1))
    return vals, P


def old_kernel_bound(U, model):
    """Bound on |P - P_old|, set from the dtype: each n-term sum over atoms
    may move by (n - 1) eps times its terms' magnitudes, which
    1 + max |u| / lam + 2 / min eta bounds; 8 n eps times that."""
    return 8.0 * model.n * np.finfo(float).eps * (1.0 + np.abs(U).max() / model.lam
                                                  + 2.0 / model.eta.min())


def assert_near_old_kernel(U, model, vals, P):
    # a value moves with the threshold at first order, by up to max |v|
    # times its error, and scales with lambda
    old = old_softmax_rows if model.kind == "exponential" else old_sparsemax_rows
    old_vals, old_P = old(U, model)
    bound = old_kernel_bound(U, model)
    assert np.abs(P - old_P).max() <= bound
    assert np.abs(vals - old_vals).max() <= bound * (model.lam + np.abs(U).max())


def _tied_rows(rng, m, n, scale):
    """m rows of n utilities of spread ``scale``, with ties every few rows:
    fully tied, tied with the last entry, and tied by rounding."""
    U = rng.normal(scale=scale, size=(m, n))
    U[1::7] = U[1::7, :1]
    U[2::7, : n // 2] = U[2::7, -1:]
    U[3::7] = np.round(U[3::7] / scale, 1) * scale
    return U


BLOCK_SIZES = (1, _ROW_BLOCK - 1, _ROW_BLOCK, _ROW_BLOCK + 1, 3 * _ROW_BLOCK + 7)


@pytest.mark.parametrize("kind", CLOSED_FORM_KINDS)
def test_closed_form_kernels_match_frozen_copies(kind):
    # one 1-d row, batches on both sides of every block edge, ties, and
    # rows scaled to |u| / lambda near 1e3: the current frozen pair bit for
    # bit, the old one within its rounding bound
    rng = np.random.default_rng(2025)
    for n in (1, 2, 3, 10):
        for lam in (0.1, 1e-3):
            eta = random_eta(rng, n)
            model = MarginalModel(kind, lam, eta)
            # spread 0.3 keeps |u| / lambda of order 1 at lambda 0.1 and
            # near 1e3 at lambda 1e-3
            for m in BLOCK_SIZES:
                U = _tied_rows(rng, m, n, 0.3)
                want_vals, want_P = frozen_closed_form(U, model)
                vals, P = utilities_values_probs(U, model)
                assert vals.tobytes() == want_vals.tobytes(), (n, lam, m)
                assert P.tobytes() == want_P.tobytes(), (n, lam, m)
                assert _kernel(cols(U), model, 0.0).T.tobytes() == want_P.tobytes()
                assert_near_old_kernel(U, model, vals, P)
                # utilities formed block by block from costs
                phi = rng.normal(size=n)
                vals, P = utilities_values_probs(phi - U, model, phi=phi)
                want_vals, want_P = frozen_closed_form(phi - (phi - U), model)
                assert vals.tobytes() == want_vals.tobytes()
                assert P.tobytes() == want_P.tobytes()
            for u in _tied_rows(rng, 8, n, 0.3):
                want = frozen_closed_form(u[None, :], model)[1][0]
                assert _kernel(u, model, 0.0).tobytes() == want.tobytes()
                assert probs_from_utilities(u, model).tobytes() == want.tobytes()
            assert np.max(np.abs(U)) / lam > (900.0 if lam < 0.01 else 1.0)


BISECTION_CASES = [("hyperbolic", None), ("tdist", None),
                   ("pareto", 0.5), ("pareto", 1.5), ("pareto", 3.0)]


def _frozen_cases(rng, kind, q):
    """Seeded (U, model, eps) triples: one row and many, ragged step
    counts, tied rows, a single atom, zero-step and 1e-12 accuracies."""
    for n in (1, 2, 3, 10, 37):
        for m in (1, 2, 25, 300):
            lam = float(rng.choice([0.05, 0.3, 2.0]))
            eta = np.full(n, 1.0 / n) if kind == "tdist" else random_eta(rng, n)
            model = MarginalModel(kind, lam, eta, q=q)
            # rows of different spreads take different numbers of halvings
            U = rng.normal(size=(m, n)) * rng.uniform(0.01, 5.0, size=(m, 1))
            if m > 2:
                U[1] = U[1, 0]              # a fully tied row
                U[2, : n // 2] = U[2, -1]   # a tie with the last entry
            for eps in (1e-12, 1e-6, float(rng.uniform(1e-3, 0.5)), 1e9):
                yield U, model, eps


@pytest.mark.parametrize("kind,q", BISECTION_CASES)
def test_kernel_matches_frozen_bisection(kind, q):
    # the current frozen copy bit for bit, the old row-major one within eps
    rng = np.random.default_rng(2024)
    ragged = zero_steps = 0
    for U, model, eps in _frozen_cases(rng, kind, q):
        got = _kernel(cols(U), model, eps)
        want = frozen_bisection(U.T, model, eps)
        assert got.shape == want.shape
        assert np.array_equal(got, want), (kind, q, U.shape, eps)
        old = old_bisection_rows(U, model, eps)
        assert np.linalg.norm(got.T - old, axis=1).max() <= eps, (kind, q, U.shape, eps)
        if U.shape[1] > 1:
            width = np.ptp(generating_quantile(model, (1.0 / model.n) / model.eta) - U, axis=1)
            steps = np.ceil(np.log2(np.maximum(width / bisection_delta(model, eps), 1.0)))
            ragged += steps.min() < steps.max()
            zero_steps += steps.max() == 0
    assert ragged > 0 and zero_steps > 0


def test_pareto_holder_delta_overflow_is_zero_halvings():
    # q > 2: (eps / holder) ** (q - 1) overflows a float at eps = 1e200; the
    # bracket width bound delta becomes inf and the row stays at its bracket's
    # lower end, as a hyperbolic row does at the same eps
    u = np.array([0.3, -0.2, 0.9])
    for m in (1, 4):
        U = np.tile(u, (m, 1))
        for kind, q in (("pareto", 3.0), ("hyperbolic", None)):
            model = MarginalModel(kind, 0.5, np.array([0.2, 0.3, 0.5]), q=q)
            assert _halvings(u, model, 1e200) == 0
            assert np.array_equal(_kernel(cols(U), model, 1e200),
                                  frozen_bisection(U.T, model, 1e100))
    pareto = MarginalModel("pareto", 0.5, np.array([0.2, 0.3, 0.5]), q=3.0)
    assert bisection_delta(pareto, 1e200) == math.inf
    assert np.array_equal(probs_from_utilities(u, pareto, eps=1e200),
                          probs_from_utilities(u, pareto, eps=1e100))


@pytest.mark.parametrize("kind,q", [("exponential", None), ("uniform", None)] + BISECTION_CASES)
def test_cdf_and_closed_form_bisection_match_frozen_copy(kind, q):
    # the in-place cdf serves every kind, and the bisection kernel takes
    # the closed-form kinds too
    rng = np.random.default_rng(5)
    model = MarginalModel(kind, 0.3, np.full(4, 0.25), q=q)
    Z = rng.normal(scale=3.0, size=(50, 4))
    assert np.array_equal(_cdf_extended(model, Z), _frozen_cdf_extended(model, Z))
    assert np.array_equal(_cdf_extended(model, 0.7), _frozen_cdf_extended(model, 0.7))
    for u in rng.normal(size=(5, 4)):
        for eps in (1e-12, 1e-3):
            want = frozen_bisection(u[:, None], model, eps)[:, 0]
            assert np.array_equal(bisect(u, model, eps), want)


def test_kernel_errors_match_frozen_bisection():
    model = uniform_model("hyperbolic", 1.0, 3)
    for eps in (None, 0.0, -1.0, float("nan")):
        with pytest.raises(ValueError) as frozen:
            frozen_bisection(np.zeros((3, 1)), model, eps)
        with pytest.raises(ValueError) as ours:
            _kernel(np.zeros((3, 1)), model, eps)
        assert str(ours.value) == str(frozen.value)
    # skewed t weights leave the bracket unbounded: the model is still
    # valid, and every bisection with it fails with the same message
    skewed = MarginalModel("tdist", 1.0, np.array([0.05, 0.95]))
    with pytest.raises(ValueError) as frozen:
        frozen_bisection(np.zeros((2, 1)), skewed, 1e-6)
    assert str(frozen.value).startswith("bisection bracket is not finite for this model")
    for _ in range(2):
        with pytest.raises(ValueError) as ours:
            _kernel(np.zeros((2, 1)), skewed, 1e-6)
        assert str(ours.value) == str(frozen.value)


def test_kernel_overflow_stays_silent():
    # the kernel ignores overflow once around its loop, where each cdf
    # call used to: sinh past |x| ~ 710 and pareto q < 1 bases at or
    # below zero (clamped to 1e-300, overflowing, then mapped to +inf)
    # must still raise no warning
    def first_mids(U, model):
        nodes = generating_quantile(model, (1.0 / model.n) / model.eta) - U
        return U + 0.5 * (nodes.min(axis=1) + nodes.max(axis=1))[:, None]

    rng = np.random.default_rng(77)
    hyper = uniform_model("hyperbolic", 1e-3, 4)
    U_h = rng.uniform(-1.0, 1.0, size=(6, 4))
    assert np.abs(first_mids(U_h, hyper)).max() / hyper.lam > 710.0
    heavy = MarginalModel("pareto", 0.1, random_eta(rng, 4), q=0.5)
    U_p = rng.uniform(-3.0, 3.0, size=(6, 4))
    q = heavy.q
    assert np.any(first_mids(U_p, heavy) * (q - 1.0) / (heavy.lam * q) + 1.0 / q <= 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for U, model in ((U_h, hyper), (U_p, heavy)):
            for eps in (1e-12, 1e-3):
                assert np.array_equal(_kernel(cols(U), model, eps),
                                      frozen_bisection(U.T, model, eps))
                # one row at a time: its blocks also evaluate midpoints
                # the walk never takes, and none of them may warn either
                for u in U:
                    want = frozen_bisection(u[:, None], model, eps)[:, 0]
                    assert _kernel(u, model, eps).tobytes() == want.tobytes()
        # z = 2 puts the q = 0.5, lam = 1 base exactly at zero
        zero_base = MarginalModel("pareto", 1.0, np.full(2, 0.5), q=0.5)
        assert np.all(_cdf_extended(zero_base, np.array([2.0, 5.0])) == np.inf)
        assert np.isinf(_cdf_extended(hyper, 1.0))


# ------------------------------------------------- one-row block path
# A single row runs its halvings in blocks of noise._BLOCK_DEPTH levels:
# these pin it to the frozen loop where blocks end, at every depth.

def _halvings(u, model, eps):
    width = np.ptp(generating_quantile(model, (1.0 / model.n) / model.eta) - u)
    return int(np.ceil(np.log2(np.maximum(width / bisection_delta(model, eps), 1.0))))


@pytest.mark.parametrize("depth", [1, 2, 3, None, 5])
@pytest.mark.parametrize("kind,q", BISECTION_CASES)
def test_one_row_blocks_match_frozen_at_every_step_count(monkeypatch, kind, q, depth):
    # every step count from 0 to two full blocks and one more: empty,
    # partial, full and full-then-partial walks
    import sdot.noise as noise_mod
    if depth is not None:
        monkeypatch.setattr(noise_mod, "_BLOCK_DEPTH", depth)
    k = noise_mod._BLOCK_DEPTH
    rng = np.random.default_rng(8)
    eta = np.full(6, 1.0 / 6) if kind == "tdist" else random_eta(rng, 6)
    model = MarginalModel(kind, 0.3, eta, q=q)
    seen = set()
    for u in rng.normal(size=(4, 6)):
        for eps in np.geomspace(1e-5, 1e3, 160):
            steps = _halvings(u, model, eps)
            if steps <= 2 * k + 1:
                seen.add(steps)
                want = frozen_bisection(u[:, None], model, eps)[:, 0]
                assert _bisection(u, model, eps).tobytes() == want.tobytes()
    assert seen == set(range(2 * k + 2))


def _lower_end_moves(u, model, eps):
    """Halving count of the one row u and the halvings, in the frozen loop's
    order, at which its lower end moved."""
    nodes = generating_quantile(model, (1.0 / model.n) / model.eta) - u
    lo, hi = nodes.min(), nodes.max()
    total = _halvings(u, model, eps)
    moves = []
    for k in range(total):
        mid = 0.5 * (lo + hi)
        if _index_sum(_frozen_clip_probs(model, (u + mid)[:, None]))[0] > 1.0:
            hi = mid
        else:
            lo = mid
            moves.append(k)
    return total, moves


@pytest.mark.parametrize("kind,q", BISECTION_CASES)
def test_one_row_output_is_the_block_row_at_the_last_lower_end(kind, q):
    # the output is the row a block computed when the lower end last moved,
    # unless the lower end never moved: every case matches the frozen loop's
    # final evaluation bit for bit
    import sdot.noise as noise_mod
    k = noise_mod._BLOCK_DEPTH
    rng = np.random.default_rng(31)
    eta = np.full(5, 0.2) if kind == "tdist" else random_eta(rng, 5)
    model = MarginalModel(kind, 0.3, eta, q=q)
    seen = set()
    for u in rng.normal(size=(40, 5)):
        for eps in np.geomspace(1e-6, 1e2, 25):
            total, moves = _lower_end_moves(u, model, eps)
            if total == 0:
                seen.add("no halvings")
            elif not moves:
                seen.add("lower end never moved")
            elif moves[-1] // k < (total - 1) // k:
                seen.add("last move in an earlier block")
            want = frozen_bisection(u[:, None], model, eps)[:, 0]
            assert _bisection(u, model, eps).tobytes() == want.tobytes()
    assert seen == {"no halvings", "lower end never moved", "last move in an earlier block"}


def test_one_row_single_atom_and_tied_rows_match_frozen():
    # a tied row has a zero-width bracket under uniform eta and a nonzero
    # one under skewed eta (which the tdist bracket may not allow)
    rng = np.random.default_rng(9)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for kind, q in BISECTION_CASES:
            one = MarginalModel(kind, 0.3, np.ones(1), q=q)
            assert np.array_equal(_bisection(np.array([[2.5]]), one, 1e-9), np.ones((1, 1)))
            etas = [np.full(5, 0.2)] + ([] if kind == "tdist" else [random_eta(rng, 5)])
            for eta in etas:
                model = MarginalModel(kind, 0.3, eta, q=q)
                for u in (np.full((5, 1), 0.7), np.array([[0.1, 0.1, 0.1, -0.4, -0.4]]).T):
                    for eps in (1e-12, 1e-6, 1e-2):
                        got = _bisection(u, model, eps)
                        assert got.tobytes() == frozen_bisection(u, model, eps).tobytes()


def _outcome(U, model, eps, action):
    """The first row's output bytes or the error, and the distinct warnings
    raised on the way: a block warns once where the loop warns per halving."""
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter(action)
        try:
            result = ("out", _bisection(cols(U), model, eps)[:, 0].tobytes())
        except Exception as exc:  # the error is the outcome
            result = ("error", type(exc), str(exc))
    return result, sorted({(w.category.__name__, str(w.message)) for w in seen})


def _eps_for_delta(model, target):
    """An eps whose :func:`bisection_delta` is within rounding of
    ``target``: bisection on log(eps), which delta increases with."""
    lo, hi = -700.0, 700.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if bisection_delta(model, math.exp(mid)) < target else (lo, mid)
    return math.exp(hi)


def _ratio_rows(model):
    """``(row, eps, j, ratio)``: finite rows whose bracket width is 2^j
    delta, or one float either side of it, for j in 0-3, 5-7 and 9. The
    model's bracket nodes all equal c, and the row (c, c, c - w) has the
    nodes (0, 0, w) exactly when w is within a factor 2 of c, so eps is
    chosen to make 2^j delta about c."""
    c = float(model._bracket_nodes[0])
    for j in (0, 1, 2, 3, 5, 6, 7, 9):
        eps = _eps_for_delta(model, c / 2.0 ** j)
        width = 2.0 ** j * bisection_delta(model, eps)
        for w in (width, math.nextafter(width, math.inf), math.nextafter(width, 0.0)):
            yield [c, c, c - w], eps, j, w / bisection_delta(model, eps)


@pytest.mark.parametrize("kind,q", BISECTION_CASES)
def test_one_row_non_finite_utilities_match_many_row_loop(kind, q):
    # inf and nan reach the kernel only from a caller that skips the
    # utility check; one row must then do what the many-row loop does with
    # it, output, error and warnings alike. The finite rows follow: a
    # spread that overflows, one of hundreds of halvings, and one whose
    # midpoints overflow to inf (a NaN mass for tdist). Last come finite
    # rows whose width is 2^j delta or one float either side of it, where a
    # log2 rounded otherwise than numpy's would change the halving count:
    # one row's count on Python floats must be the numpy count, 0 to 9
    # halvings, so that some passes are shorter than four
    model = MarginalModel(kind, 0.3, np.full(3, 1.0 / 3), q=q)
    inf, nan = np.inf, np.nan
    cases = [(row, eps) for row in (
        [0.0, inf, 1.0], [0.0, -inf, 1.0], [nan, 0.0, 1.0], [inf] * 3, [-inf, inf, 0.0],
        [nan] * 3, [1e308, -1e308, 0.0], [1e200, 0.0, -1e200], [-1e308, -1.7e308, -1.2e308])
        for eps in (1e-9, 0.1, 1e9)]
    ratios = {}
    for row, eps, j, ratio in _ratio_rows(model):
        cases.append((row, eps))
        ratios.setdefault(j, set()).add(ratio)
        u = np.array(row)
        nodes = generating_quantile(model, (1.0 / model.n) / model.eta) - u
        assert np.ptp(nodes) / bisection_delta(model, eps) == ratio
        assert _row_bracket(nodes, bisection_delta(model, eps))[2] == _halvings(u, model, eps)
    for j, seen in ratios.items():
        # 2^j itself and, within one ulp of it, a ratio either side
        below, power, above = sorted(seen)
        assert power == 2.0 ** j and 0.0 < above - power <= math.ulp(power), j
        assert 0.0 < power - below <= math.ulp(power), j
    for row, eps in cases:
        u = np.array([row])
        for action in ("always", "error"):
            one = _outcome(u, model, eps, action)
            assert one == _outcome(np.repeat(u, 2, axis=0), model, eps, action)


@pytest.mark.parametrize("kind", ALL_KINDS + (None,))
def test_kernel_rows_are_independent(kind):
    # SGD asks for one row at a time, the estimate and Newton for many at
    # once: both must see the same numbers from the one kernel
    rng = np.random.default_rng(31)
    for n in (1, 2, 10):
        if kind is None:
            model = None
        else:
            eta = np.full(n, 1.0 / n) if kind == "tdist" else random_eta(rng, n)
            model = MarginalModel(kind, 0.3, eta, q=1.5 if kind == "pareto" else None)
        U = rng.normal(size=(9, n))
        U[2] = 0.4                    # every utility tied
        U[5, : n // 2] = U[5, -1]     # a tie with the last entry
        U[7] = np.round(U[7], 1)      # ties from rounding
        vals, P = utilities_values_probs(U, model, eps=1e-9)
        for j in range(U.shape[0]):
            v_row, P_row = utilities_values_probs(U[j:j + 1], model, eps=1e-9)
            assert np.array_equal(P[j], P_row[0])
            assert np.array_equal(vals[j], v_row[0])
            if model is not None:
                assert np.array_equal(P[j], _kernel(cols(U[j:j + 1]), model, 1e-9)[:, 0])
                assert np.array_equal(probs_from_utilities(U[j], model, eps=1e-9), P[j])


@pytest.mark.parametrize("kind", ALL_KINDS + (None,))
def test_kernel_rows_are_independent_across_row_blocks(monkeypatch, kind):
    # the batched transform runs in blocks of _ROW_BLOCK rows: at every
    # size around a block edge, each row near an edge matches itself alone
    # (and as a 1-d row), and the whole batch matches one unblocked block
    import sdot.noise as noise_mod
    rng = np.random.default_rng(32)
    n, B = 10, _ROW_BLOCK
    eta = np.full(n, 1.0 / n) if kind == "tdist" else random_eta(rng, n)
    model = None if kind is None else MarginalModel(kind, 0.3, eta,
                                                    q=1.5 if kind == "pareto" else None)
    for m in BLOCK_SIZES:
        U = _tied_rows(rng, m, n, 1.0)
        # rows of different spreads take different numbers of halvings
        U *= rng.uniform(0.01, 5.0, size=(m, 1))
        if m > B + 2:
            U[B - 2:B + 2] *= np.array([[1e-3], [1e2], [1e-3], [1e2]])
            if model is not None and kind not in CLOSED_FORM_KINDS:
                steps = [_halvings(u, model, 1e-9) for u in U[B - 2:B + 2]]
                assert steps[0] != steps[1] and steps[2] != steps[3]
        vals, P = utilities_values_probs(U, model, eps=1e-9)
        edges = {0, m - 1} | {j for b in range(B, m, B) for j in range(b - 2, min(b + 2, m))}
        for j in sorted(edges):
            v_row, P_row = utilities_values_probs(U[j:j + 1], model, eps=1e-9)
            assert P[j].tobytes() == P_row[0].tobytes(), (m, j)
            assert vals[j].tobytes() == v_row[0].tobytes(), (m, j)
            if model is not None:
                assert _kernel(U[j], model, 1e-9).tobytes() == P[j].tobytes(), (m, j)
        if model is not None and kind not in CLOSED_FORM_KINDS:
            assert P.tobytes() == frozen_bisection(U.T, model, 1e-9).T.tobytes()
        monkeypatch.setattr(noise_mod, "_ROW_BLOCK", m)
        whole = utilities_values_probs(U, model, eps=1e-9)
        monkeypatch.undo()
        assert whole[0].tobytes() == vals.tobytes() and whole[1].tobytes() == P.tobytes()
        if model is not None:
            # the cached eta operands of all these widths stay within one
            # budget, unless a single block is wider
            assert sum(model._eta_blocks) <= max(noise_mod._ETA_COLUMNS, m)


_PAIR = MarginalModel("exponential", 0.5, np.full(2, 0.5))
_NU3 = DiscreteMeasure(np.zeros((3, 1)), np.full(3, 1 / 3))


@pytest.mark.parametrize("call, needle", [
    (lambda: marginal_quantile(_PAIR, 0, 1.0), "level must lie in (0, 1)"),
    (lambda: marginal_quantile(_PAIR, 0, 0.0), "level must lie in (0, 1)"),
    (lambda: divergence_generator_value(_PAIR, -0.5), "argument must be nonnegative"),
    (lambda: discrete_f_divergence(_PAIR, np.full(3, 1 / 3)), "one entry per atom"),
    (lambda: discrete_f_divergence(_PAIR, np.array([1.5, -0.5])), "entries must be nonnegative"),
    (lambda: choice_probabilities(np.zeros(3), np.zeros(1), _NU3, COST, _PAIR),
     "model weights and measure atoms disagree in length"),
    (lambda: utilities_values_probs(np.zeros((4, 3)), _PAIR),
     "model weights and utility columns disagree in length"),
], ids=["quantile-1", "quantile-0", "generator", "divergence-shape", "divergence-sign",
        "probs-atoms", "transform-columns"])
def test_noise_functions_reject_bad_arguments(call, needle):
    with pytest.raises(ValueError, match=re.escape(needle)):
        call()


@pytest.mark.parametrize("bad", [[np.nan, 0.0], [0.0, np.inf], [0.0, 0.0, 0.0]])
def test_probs_from_utilities_rejects_bad_vectors(bad):
    for kind in ALL_KINDS:
        model = MarginalModel(kind, 0.5, np.full(2, 0.5), q=1.5 if kind == "pareto" else None)
        with pytest.raises(ValueError, match="finite vector with one entry per atom"):
            probs_from_utilities(np.array(bad), model, eps=1e-6)


def test_choice_probabilities_validation(monkeypatch):
    # a kernel row must sum to one within max(sqrt(n) eps, 1e-10), eps the
    # bisection accuracy and 0 for the closed forms, which ignore the eps
    # they are given; NaN fails
    import sdot.noise as noise_mod
    for kind in ("exponential", "uniform", "hyperbolic"):
        model = MarginalModel(kind, 0.5, np.full(2, 0.5))
        rows = {(0.4, 0.4): False, (np.nan, 1.0): False, (0.5, 0.5 + 1e-11): True,
                (0.5, 0.5 - 1e-3): kind == "hyperbolic", (0.5, 0.5 - 1e-2): False}
        for row, ok in rows.items():
            monkeypatch.setattr(noise_mod, "_kernel", lambda U, model, eps, r=row: np.array(r))
            if ok:
                assert np.array_equal(probs_from_utilities(np.zeros(2), model, eps=1e-3), row)
            else:
                with pytest.raises(ValueError, match="choice probabilities sum to"):
                    probs_from_utilities(np.zeros(2), model, eps=1e-3)


# ----------------------------------------------- dispatch and transforms

COST = CostSpec("sup-norm")


def instance_with_utilities(rng, u, d=2):
    """Build (phi, x, nu) whose utility vector phi_i - c(x, y_i) equals u."""
    n = len(u)
    atoms = rng.uniform(-1.0, 1.0, size=(n, d))
    nu = DiscreteMeasure(atoms, np.full(n, 1.0 / n))
    x = rng.uniform(-1.0, 1.0, size=d)
    phi = u + cost_vector(x, atoms, COST)
    return phi, x, nu


def test_choice_probabilities_dispatch():
    rng = np.random.default_rng(17)
    u = rng.normal(size=5)
    phi, x, nu = instance_with_utilities(rng, u)

    ent = MarginalModel("exponential", 0.4, random_eta(rng, 5))
    out = choice_probabilities(phi, x, nu, COST, ent)
    assert np.allclose(out, probs_from_utilities(u, MarginalModel("exponential", ent.lam, ent.eta)),
                       atol=1e-12)

    uni = MarginalModel("uniform", 0.4, random_eta(rng, 5))
    out = choice_probabilities(phi, x, nu, COST, uni)
    assert np.allclose(out, probs_from_utilities(u / uni.lam, MarginalModel("uniform", 1.0, uni.eta)),
                       atol=1e-12)

    hyp = uniform_model("hyperbolic", 0.4, 5)
    out = choice_probabilities(phi, x, nu, COST, hyp, eps=1e-8)
    assert np.array_equal(out, bisect(phi - cost_vector(x, nu.atoms, COST), hyp, 1e-8))
    with pytest.raises(ValueError):
        choice_probabilities(phi, x, nu, COST, hyp)


def test_choice_probabilities_equidistant_symmetry():
    atoms = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    nu = DiscreteMeasure(atoms, np.full(4, 0.25))
    model = uniform_model("exponential", 0.5, 4)
    out = choice_probabilities(np.zeros(4), np.zeros(2), nu, CostSpec("p-norm-power", p=2.0), model)
    assert np.allclose(out, 0.25, atol=1e-14)


def test_uniform_model_dominant_utility_is_one_hot():
    rng = np.random.default_rng(18)
    u = np.array([5.0, 0.1, -0.3])
    phi, x, nu = instance_with_utilities(rng, u)
    model = uniform_model("uniform", 0.2, 3)
    out = choice_probabilities(phi, x, nu, COST, model)
    assert np.allclose(out, [1.0, 0.0, 0.0], atol=1e-12)


@pytest.mark.parametrize("model", [None, uniform_model("exponential", 0.5, 2),
                                   uniform_model("hyperbolic", 0.5, 2)])
@pytest.mark.parametrize("phi, x", [([0.0, 0.0], [np.nan, 0.0]), ([0.0, 0.0], [np.inf, 0.0]),
                                    ([np.nan, 0.0], [0.0, 0.0]), ([0.0, -np.inf], [0.0, 0.0]),
                                    ([0.0, 0.0, 0.0], [0.0, 0.0])])
def test_one_point_oracles_reject_bad_input(model, phi, x):
    # a non-finite phi or x makes a non-finite utility; both one-point
    # oracles check it, and a misshapen phi, in the same place
    nu = DiscreteMeasure(np.array([[0.0, 0.0], [1.0, 0.5]]), np.full(2, 0.5))
    with pytest.raises(ValueError):
        smooth_c_transform(phi, x, nu, COST, model, eps=1e-6)
    if model is not None:
        with pytest.raises(ValueError):
            choice_probabilities(phi, x, nu, COST, model, eps=1e-6)


def test_one_point_transform_fails_the_mass_check_like_the_probabilities():
    # utilities of 1e14 at lambda 1e-3 overflowed the sorted kernel's sums
    # (p summed to 1.875e16, and the transform was 1.4e30, far past the
    # plain max). The max-shifted fixed point solves them: the first atom,
    # 1e3 above the next in u / lambda, takes all the mass, and the
    # transform is the plain max within the approximation bound. At lambda
    # 1e-300 u / lambda overflows, and both oracles fail the mass check
    # alike
    model = MarginalModel("uniform", 1e-3, np.full(4, 0.25))
    nu = DiscreteMeasure(np.arange(4.0)[:, None], np.full(4, 0.25))
    phi = np.array([1e14, 1e14, 1e14, -1e14])
    p = choice_probabilities(phi, [0.0], nu, COST, model)
    assert np.array_equal(p, [1.0, 0.0, 0.0, 0.0])
    value = smooth_c_transform(phi, [0.0], nu, COST, model)
    assert 1e14 - approximation_bound(model) <= value <= 1e14
    overflow = MarginalModel("uniform", 1e-300, np.full(4, 0.25))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # u / lambda overflows
        for oracle in (smooth_c_transform, choice_probabilities):
            with pytest.raises(ValueError, match=r"^choice probabilities sum to nan$"):
                oracle(phi, [0.0], nu, COST, overflow)


def test_smooth_transform_exponential_equals_log_partition():
    rng = np.random.default_rng(19)
    for _ in range(25):
        u = rng.normal(scale=1.2, size=6)
        phi, x, nu = instance_with_utilities(rng, u)
        model = MarginalModel("exponential", rng.uniform(0.1, 1.5), random_eta(rng, 6))
        got = smooth_c_transform(phi, x, nu, COST, model)
        # independent route: evaluate the maximand at the softmax point
        p = probs_from_utilities(u, MarginalModel("exponential", model.lam, model.eta))
        ref = u @ p - discrete_f_divergence(model, p)
        assert got == pytest.approx(ref, abs=1e-8)


def test_smooth_transform_uniform_equals_quadratic_maximand():
    rng = np.random.default_rng(20)
    for _ in range(25):
        u = rng.normal(size=5)
        phi, x, nu = instance_with_utilities(rng, u)
        model = MarginalModel("uniform", rng.uniform(0.1, 1.5), random_eta(rng, 5))
        got = smooth_c_transform(phi, x, nu, COST, model)
        p = probs_from_utilities(u / model.lam, MarginalModel("uniform", 1.0, model.eta))
        ref = u @ p - discrete_f_divergence(model, p)
        assert got == pytest.approx(ref, abs=1e-10)


def test_smooth_transform_tiny_lambda_near_plain_transform():
    rng = np.random.default_rng(21)
    u = rng.normal(size=4)
    phi, x, nu = instance_with_utilities(rng, u)
    plain = np.max(u)
    for kind in ("exponential", "uniform", "hyperbolic"):
        model = uniform_model(kind, 1e-4, 4)
        val = smooth_c_transform(phi, x, nu, COST, model, eps=1e-10)
        assert abs(val - plain) <= 1e-2


def test_sandwich_bounds():
    rng = np.random.default_rng(22)
    for kind in ALL_KINDS:
        for _ in range(40):
            n = int(rng.integers(2, 7))
            model = make_model(rng, kind, n)
            u = rng.normal(scale=2.0, size=n)
            phi, x, nu = instance_with_utilities(rng, u)
            plain = float(np.max(u))
            val = smooth_c_transform(phi, x, nu, COST, model, eps=1e-8)
            bound = approximation_bound(model)
            assert val <= plain + 1e-10
            assert val >= plain - bound - 1e-10


def test_smooth_transform_shift_covariance():
    rng = np.random.default_rng(23)
    for kind in ALL_KINDS:
        u = rng.normal(size=4)
        phi, x, nu = instance_with_utilities(rng, u)
        model = make_model(rng, kind, 4)
        v0 = smooth_c_transform(phi, x, nu, COST, model, eps=1e-9)
        p0 = choice_probabilities(phi, x, nu, COST, model, eps=1e-9)
        v1 = smooth_c_transform(phi + 2.5, x, nu, COST, model, eps=1e-9)
        p1 = choice_probabilities(phi + 2.5, x, nu, COST, model, eps=1e-9)
        assert v1 == pytest.approx(v0 + 2.5, abs=1e-9)
        assert np.allclose(p0, p1, atol=1e-9)


def interior_utilities(rng, model, n, scale=0.1):
    """Utility draws kept small so the optimal p stays far from the boundary."""
    for _ in range(100):
        u = rng.uniform(-scale * model.lam, scale * model.lam, size=n)
        p = probs_from_utilities(u, model, eps=1e-9)
        if np.all(p > 0.02) and np.all(p < 0.9):
            return u
    raise AssertionError("could not draw an interior instance")


def test_gradient_matches_choice_probabilities():
    rng = np.random.default_rng(24)
    h = 1e-4
    for kind in ALL_KINDS:
        model = make_model(rng, kind, 4, lam=0.8)
        for _ in range(5):
            u = interior_utilities(rng, model, 4)
            phi, x, nu = instance_with_utilities(rng, u)
            p = choice_probabilities(phi, x, nu, COST, model, eps=1e-9)
            for i in range(4):
                e = np.zeros(4)
                e[i] = h
                fd = (smooth_c_transform(phi + e, x, nu, COST, model, eps=1e-9)
                      - smooth_c_transform(phi - e, x, nu, COST, model, eps=1e-9)) / (2 * h)
                assert fd == pytest.approx(p[i], abs=1e-5)


def test_hessian_implicit_function_formula():
    rng = np.random.default_rng(25)
    h = 1e-5
    for kind in ("exponential", "hyperbolic"):
        model = make_model(rng, kind, 4, lam=0.9)
        u = interior_utilities(rng, model, 4)
        J = choice_jacobian(u, model, eps=1e-10)
        fd = np.zeros((4, 4))
        for j in range(4):
            e = np.zeros(4)
            e[j] = h
            pp = probs_from_utilities(u + e, model, eps=1e-11)
            pm = probs_from_utilities(u - e, model, eps=1e-11)
            fd[:, j] = (pp - pm) / (2 * h)
        assert np.max(np.abs(J - fd)) <= 1e-4
    # closed-form cross-check for softmax
    model = MarginalModel("exponential", 0.7, random_eta(rng, 4))
    u = rng.normal(scale=0.2, size=4)
    p = probs_from_utilities(u, MarginalModel("exponential", model.lam, model.eta))
    expect = (np.diag(p) - np.outer(p, p)) / model.lam
    assert np.allclose(choice_jacobian(u, model), expect, atol=1e-12)


def test_averaged_jacobian_matches_sum_of_row_jacobians():
    rng = np.random.default_rng(26)
    for kind in ALL_KINDS:
        model = make_model(rng, kind, 4, lam=0.9)
        U = rng.normal(scale=0.5, size=(7, 4))
        w = random_eta(rng, 7)
        _, P = utilities_values_probs(U, model, eps=1e-10)
        expect = sum(w[j] * choice_jacobian(U[j], model, eps=1e-10) for j in range(7))
        assert np.allclose(averaged_choice_jacobian(P.T, w, model), expect, rtol=0, atol=1e-12)


# ------------------------------------------------ bounds, tdist transform

def test_approximation_bound_frozen():
    lam = 0.37
    for n in (2, 5, 9):
        ent = uniform_model("exponential", lam, n)
        assert approximation_bound(ent) == pytest.approx(lam * np.log(n), rel=1e-14)
        chi = uniform_model("uniform", lam, n)
        assert approximation_bound(chi) == pytest.approx(lam * (n - 1), rel=1e-14)
        td = uniform_model("tdist", lam, n)
        assert approximation_bound(td) == pytest.approx(lam * np.sqrt(n - 1.0), rel=1e-12)
    single = MarginalModel("exponential", lam, np.array([1.0]))
    assert approximation_bound(single) == pytest.approx(0.0, abs=1e-15)
    skew = MarginalModel("tdist", lam, np.array([0.1, 0.9]))
    assert approximation_bound(skew) == np.inf


def test_chebyshev_value_frozen():
    # the transform is the Chebyshev maximum minus lam sqrt(n - 1)
    rng = np.random.default_rng(0)
    phi, x, nu = instance_with_utilities(rng, np.zeros(2))
    val = smooth_c_transform(phi, x, nu, COST, uniform_model("tdist", 0.8, 2), eps=1e-9)
    assert val == pytest.approx(0.8 - 0.8, abs=1e-7)
    # one dominant utility drives the Chebyshev maximum to the plain maximum
    phi, x, nu = instance_with_utilities(rng, np.array([50.0, 0.0, 0.0]))
    val = smooth_c_transform(phi, x, nu, COST, uniform_model("tdist", 0.1, 3), eps=1e-9)
    assert val == pytest.approx(50.0 - 0.1 * np.sqrt(2.0), abs=1e-3)


def test_tdist_transform_equals_chebyshev_minus_offset():
    # reference: SLSQP on sum(u p) + lam sum(sqrt(p (1 - p))), the Chebyshev
    # maximum, minus lam sqrt(n - 1)
    rng = np.random.default_rng(27)
    for _ in range(12):
        n = int(rng.integers(2, 5))
        lam = rng.uniform(0.2, 1.0)
        model = uniform_model("tdist", lam, n)
        u = rng.normal(scale=0.5, size=n)
        phi, x, nu = instance_with_utilities(rng, u)
        val = smooth_c_transform(phi, x, nu, COST, model, eps=1e-9)

        def vg(p):
            sq = np.sqrt(np.clip(p * (1 - p), 1e-18, None))
            return float(u @ p + lam * np.sum(sq)), u + lam * (1 - 2 * p) / (2 * sq)

        _, cheb = slsqp_max_simplex(vg, n)
        assert val == pytest.approx(cheb - lam * np.sqrt(n - 1.0), abs=1e-4)


# --------------------------------------------------- CVaR-style identity

def test_tail_integral_identity():
    rng = np.random.default_rng(29)
    for kind in ALL_KINDS:
        lam = rng.uniform(0.3, 1.5)
        q = 1.6 if kind == "pareto" else None
        model = MarginalModel(kind, lam, np.full(2, 0.5), q=q)
        for p in np.arange(0.05, 0.951, 0.1):
            val, err = quad(lambda t: marginal_quantile(model, 0, t), 1 - p, 1.0,
                            epsabs=1e-11, epsrel=1e-11, limit=400)
            assert err < 1e-8
            ref = -0.5 * divergence_generator_value(model, p / 0.5)
            assert val == pytest.approx(ref, abs=1e-6)


def test_lipschitz_constants():
    rng = np.random.default_rng(30)
    # numeric slope of each marginal cdf never exceeds the documented bound;
    # pareto exponent pinned below 2 where the slope is actually bounded
    for kind in ALL_KINDS:
        if kind == "pareto":
            eta = random_eta(rng, 3)
            model = MarginalModel("pareto", rng.uniform(0.1, 2.0), eta, q=1.6)
        else:
            model = make_model(rng, kind, 3)
        bound = marginal_lipschitz(model)
        grid = np.linspace(-6 * model.lam, 6 * model.lam, 4001)
        for i in range(3):
            vals = np.array([marginal_cdf(model, i, s) for s in grid])
            slopes = np.abs(np.diff(vals)) / np.diff(grid)
            assert slopes.max() <= bound * (1 + 1e-6)
    assert marginal_lipschitz(MarginalModel("pareto", 1.0, np.full(2, 0.5), q=3.0)) is None
