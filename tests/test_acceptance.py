"""Acceptance gate for the toolkit: one test per primary requirement.

Each test prints a single PASS/FAIL line with the measured quantities so
a full run reads as a checklist. Heavy pieces (the convergence study and
its determinism twin) run once via module fixtures; everything else is
self-contained and fast.
"""

import json
import math
import os
import time
import warnings
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import minimize

from sdot.core import CostSpec, DiscreteMeasure, cost_matrix, cost_vector
from sdot.noise import (
    MarginalModel,
    _bisection,
    approximation_bound,
    choice_probabilities,
    discrete_f_divergence,
    divergence_generator_value,
    marginal_quantile,
    probs_from_utilities,
    smooth_c_transform,
    utilities_values_probs,
)
from sdot.hardness import (
    KnapsackInstance,
    QuadratureSpec,
    binary_search_min,
    exact_knapsack_volume,
    knapsack_volume_via_ot,
)
from sdot.cli import ExperimentConfig, fit_slope, run_convergence_experiment
from test_solver import newton_on_sample

COST = CostSpec("sup-norm")
ALL_KINDS = ("exponential", "uniform", "pareto", "hyperbolic", "tdist")

GATING_CONFIG = {
    "version": 1,
    "sampler": {"kind": "gaussian-standard", "d": 2, "seed": 0},
    "measure": {"random_atoms": {"count": 10, "box": 1.0, "seed": 16}},
    "cost": {"kind": "sup-norm"},
    "models": [
        "none",
        {"kind": "exponential", "lambda": 0.1, "eta": [0.1] * 10, "tag": "entropic"},
        {"kind": "uniform", "lambda": 0.1, "eta": [0.1] * 10, "tag": "chi2"},
    ],
    "t_grid": [100, 316, 1000, 3162, 10000],
    "seeds": list(range(10)),
    "multiplier": 10,
    "timing": "zero",
    "out_dir": "results",
}

NONE_WINDOW = (-0.70, -0.30)
REG_WINDOW = (-1.25, -0.75)
GAP_WINDOW = (-1.3, -0.7)


def _emit(capsys, name: str, ok: bool, detail: str = ""):
    with capsys.disabled():
        line = f"{'PASS' if ok else 'FAIL'}: {name}"
        if detail:
            line += f" [{detail}]"
        print(line, flush=True)
    assert ok, f"{name}: {detail}"


def _random_eta(rng, n):
    e = rng.uniform(0.2, 1.0, n)
    return e / e.sum()


def _make_model(rng, kind, n, lam=None):
    lam = rng.uniform(0.3, 1.2) if lam is None else lam
    q = rng.uniform(1.3, 3.0) if kind == "pareto" else None
    eta = np.full(n, 1.0 / n) if kind == "tdist" else _random_eta(rng, n)
    return MarginalModel(kind, lam, eta, q=q)


def _instance_with_utilities(rng, u, d=2):
    n = len(u)
    atoms = rng.uniform(-1.0, 1.0, size=(n, d))
    nu = DiscreteMeasure(atoms, np.full(n, 1.0 / n))
    x = rng.uniform(-1.0, 1.0, size=d)
    return u + cost_vector(x, atoms, COST), x, nu


def _interior_utilities(rng, model, n, scale=0.1):
    for _ in range(200):
        u = rng.uniform(-scale * model.lam, scale * model.lam, size=n)
        p = probs_from_utilities(u, model, eps=1e-9)
        if np.all(p > 0.02) and np.all(p < 0.9):
            return u
    raise AssertionError("could not draw an interior instance")


# ------------------------------------------------------------ oracle pair


def test_01_entropic_bisection_matches_softmax(capsys):
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 21))
        lam = float(10.0 ** rng.uniform(-2.0, 1.0))
        eta = _random_eta(rng, n)
        u = rng.normal(scale=2.0 * lam, size=n)
        model = MarginalModel("exponential", lam, eta)
        p_bis = _bisection(u, model, 1e-7)
        p_soft = probs_from_utilities(u, MarginalModel("exponential", lam, eta))
        worst = max(worst, float(np.linalg.norm(p_bis - p_soft)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 5.0
    _emit(capsys, "entropic oracle agreement (1000 instances)",
          ok, f"worst |dp|={worst:.2e}, {elapsed:.2f}s")


def _enumeration_qp(v, eta):
    """Best simplex point of v.p - sum(p^2/eta) over all supports."""
    n = v.size
    best_val, best_p = -np.inf, None
    for size in range(1, n + 1):
        for support in combinations(range(n), size):
            s = list(support)
            tau = (np.sum(eta[s] * v[s]) - 2.0) / np.sum(eta[s])
            p = np.zeros(n)
            p[s] = eta[s] * (v[s] - tau) / 2.0
            if np.any(p[s] <= 0.0):
                continue
            val = float(v @ p - np.sum(p * p / eta))
            if val > best_val:
                best_val, best_p = val, p
    return best_p


def test_02_sparsemax_matches_enumeration_and_quadratic_tail(capsys):
    rng = np.random.default_rng(102)
    worst_qp = 0.0
    for _ in range(500):
        n = int(rng.integers(2, 6))
        eta = _random_eta(rng, n)
        v = rng.normal(scale=rng.uniform(0.5, 4.0), size=n)
        p_sort = probs_from_utilities(v, MarginalModel("uniform", 1.0, eta))
        p_enum = _enumeration_qp(v, eta)
        worst_qp = max(worst_qp, float(np.max(np.abs(p_sort - p_enum))))
    worst_pair = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 6))
        eta = _random_eta(rng, n)
        lam = float(rng.uniform(0.2, 1.5))
        u = rng.normal(scale=lam, size=n)
        uni = MarginalModel("uniform", lam, eta)
        par = MarginalModel("pareto", lam, eta, q=2.0)
        p_closed = probs_from_utilities(u, uni)
        p_bis = probs_from_utilities(u, par, eps=1e-8)
        worst_pair = max(worst_pair, float(np.linalg.norm(p_closed - p_bis)))
    ok = worst_qp <= 1e-10 and worst_pair <= 1e-6
    _emit(capsys, "sparsemax oracle agreement (enumeration + quadratic-tail pair)",
          ok, f"worst vs QP={worst_qp:.2e}, worst vs bisection={worst_pair:.2e}")


# ------------------------------------------------------- gradient, bounds


def test_03_transform_gradient_matches_probabilities(capsys):
    rng = np.random.default_rng(103)
    h = 1e-4
    n = 4
    worst = 0.0
    for kind in ALL_KINDS:
        model = _make_model(rng, kind, n, lam=0.8)
        for _ in range(100):
            u = _interior_utilities(rng, model, n)
            phi, x, nu = _instance_with_utilities(rng, u)
            p = choice_probabilities(phi, x, nu, COST, model, eps=1e-10)
            for i in range(n):
                e = np.zeros(n)
                e[i] = h
                fd = (smooth_c_transform(phi + e, x, nu, COST, model, eps=1e-10)
                      - smooth_c_transform(phi - e, x, nu, COST, model, eps=1e-10)) / (2 * h)
                worst = max(worst, abs(fd - p[i]))
    ok = worst <= 1e-4
    _emit(capsys, "gradient check on five noise families (100 interior points each)",
          ok, f"worst |fd - p|={worst:.2e}")


def test_04_smoothing_respects_sandwich_bounds(capsys):
    rng = np.random.default_rng(104)
    checked = 0
    worst_hi = -np.inf
    worst_lo = -np.inf
    for kind in ALL_KINDS:
        for n in (2, 3, 5, 8):
            model = _make_model(rng, kind, n)
            bound = approximation_bound(model)
            atoms = rng.uniform(-1.0, 1.0, size=(n, 2))
            nu = DiscreteMeasure(atoms, np.full(n, 1.0 / n))
            X = rng.uniform(-2.0, 2.0, size=(500, 2))
            Phi = rng.normal(scale=1.5, size=(500, n))
            U = Phi - cost_matrix(X, atoms, COST)
            plain = U.max(axis=1)
            vals, _ = utilities_values_probs(U, model, eps=1e-8)
            worst_hi = max(worst_hi, float(np.max(vals - plain)))
            worst_lo = max(worst_lo, float(np.max(plain - bound - vals)))
            checked += 500
    exact_dev = 0.0
    for n in range(2, 21):
        for lam in (0.05, 0.37, 2.0):
            model = MarginalModel("exponential", lam, np.full(n, 1.0 / n))
            exact_dev = max(exact_dev, abs(approximation_bound(model) - lam * math.log(n))
                            / (lam * math.log(n)))
    ok = checked == 10000 and worst_hi <= 1e-10 and worst_lo <= 1e-10 and exact_dev <= 1e-14
    _emit(capsys, "sandwich bounds on 10^4 random potential-point pairs",
          ok, f"upper slack {worst_hi:.1e}, lower slack {worst_lo:.1e}, "
              f"log-bound rel dev {exact_dev:.1e}")


def test_05_regularized_duality_gap_closes(capsys):
    rng = np.random.default_rng(105)
    worst = 0.0
    for _ in range(50):
        m, n = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        X = rng.uniform(-1.0, 1.0, size=(m, 2))
        w = _random_eta(rng, m)
        atoms = rng.uniform(-1.0, 1.0, size=(n, 2))
        nu = DiscreteMeasure(atoms, _random_eta(rng, n))
        lam = float(rng.uniform(0.2, 1.0))
        for kind in ("exponential", "uniform"):
            model = MarginalModel(kind, lam, _random_eta(rng, n))
            phi, info = newton_on_sample(cost_matrix(X, atoms, COST), w, nu.weights, model)
            dual = info["value"]
            U = phi[None, :] - cost_matrix(X, atoms, COST)
            _, P = utilities_values_probs(U, model)
            C = cost_matrix(X, atoms, COST)
            primal = float(np.sum(w[:, None] * P * C))
            primal += float(sum(w[j] * discrete_f_divergence(model, P[j])
                                for j in range(m)))
            worst = max(worst, abs(primal - dual))
    ok = worst <= 1e-4
    _emit(capsys, "strong duality on 50 small instances (entropic + chi-square)",
          ok, f"worst |primal-dual|={worst:.2e}")


def test_06_tail_quantile_integral_matches_divergence(capsys):
    rng = np.random.default_rng(106)
    worst = 0.0
    for kind in ALL_KINDS:
        lam = float(rng.uniform(0.3, 1.5))
        q = 1.7 if kind == "pareto" else None
        model = MarginalModel(kind, lam, np.full(2, 0.5), q=q)
        for p in np.arange(0.05, 0.9501, 0.05):
            for i in (0, 1):
                val, err = quad(lambda t: marginal_quantile(model, i, t),
                                1.0 - p, 1.0, epsabs=1e-11, epsrel=1e-11, limit=400)
                assert err < 1e-8
                ref = -0.5 * divergence_generator_value(model, p / 0.5)
                worst = max(worst, abs(val - ref))
    ok = worst <= 1e-6
    _emit(capsys, "tail quantile integral identity (five families, 19 levels)",
          ok, f"worst |quad - closed form|={worst:.2e}")


def test_07_heavy_tail_transform_matches_direct_maximization(capsys):
    rng = np.random.default_rng(107)
    worst = 0.0
    for n in (2, 3, 4):
        for _ in range(12):
            lam = float(rng.uniform(0.3, 1.2))
            model = MarginalModel("tdist", lam, np.full(n, 1.0 / n))
            u = _interior_utilities(rng, model, n, scale=0.3)
            phi, x, nu = _instance_with_utilities(rng, u)
            val = smooth_c_transform(phi, x, nu, COST, model, eps=1e-10)

            def neg(p):
                return -(float(u @ p) + lam * float(np.sum(np.sqrt(p * (1.0 - p)))))

            res = minimize(neg, np.full(n, 1.0 / n), method="SLSQP",
                           bounds=[(1e-12, 1.0 - 1e-12)] * n,
                           constraints=[{"type": "eq",
                                         "fun": lambda p: p.sum() - 1.0}],
                           options={"maxiter": 500, "ftol": 1e-14})
            assert res.success, res.message
            direct = -res.fun - lam * math.sqrt(n - 1.0)
            worst = max(worst, abs(val - direct))
    ok = worst <= 1e-4
    _emit(capsys, "heavy-tail transform equals direct simplex maximization",
          ok, f"worst |transform - direct|={worst:.2e}")


# --------------------------------------------------------------- hardness


def test_08_volume_recovery_small_dimensions(capsys):
    cases = (
        (KnapsackInstance(np.array([2.0]), 0.6), 0.3),
        (KnapsackInstance(np.array([1.0, 1.0]), 1.0), 0.5),
        (KnapsackInstance(np.array([2.0, 1.0]), 1.0), 0.25),
    )
    quadrature = QuadratureSpec("grid", m=400)
    details = []
    ok = True
    for inst, expect in cases:
        closed = exact_knapsack_volume(inst)
        assert closed == pytest.approx(expect, abs=1e-12)
        t0 = time.perf_counter()
        t_hat = knapsack_volume_via_ot(inst, 1e-3, quadrature)
        elapsed = time.perf_counter() - t0
        good = abs(t_hat - expect) <= 1e-2 and elapsed <= 120.0
        ok = ok and good
        details.append(f"vol {expect} -> {t_hat:.4f} in {elapsed:.1f}s")
    _emit(capsys, "knapsack volume recovery (d=1 and two d=2 fixtures)",
          ok, "; ".join(details))


def test_09_bracket_search_call_budget(capsys):
    ok = True
    details = []
    for delta in (1e-2, 1e-3, 1e-4):
        expect_calls = 2 * (math.ceil(math.log2(1.0 / delta)) + 1)
        for t_star in (0.0, 0.3, 1.0):
            calls = []
            t_hat = binary_search_min(
                lambda t: (calls.append(t) or (t - t_star) ** 2), delta)
            ok = ok and len(calls) == expect_calls and abs(t_hat - t_star) <= delta
        details.append(f"delta={delta:g}: {expect_calls} calls")
    rng = np.random.default_rng(109)
    noise = {}

    def bumpy(t):
        if t not in noise:
            noise[t] = float(rng.uniform(-1e-9, 1e-9))
        return (t - 0.3) ** 2 + noise[t]

    t_hat = binary_search_min(bumpy, 1e-3)
    ok = ok and abs(t_hat - 0.3) <= 2e-3
    _emit(capsys, "bracketed search call budget and accuracy",
          ok, "; ".join(details) + f"; inexact |err|={abs(t_hat - 0.3):.1e}")


# ------------------------------------------------------------ convergence


@pytest.fixture(scope="module")
def gating_run(tmp_path_factory):
    config = ExperimentConfig.from_json(GATING_CONFIG)
    out = tmp_path_factory.mktemp("gating")
    t0 = time.perf_counter()
    records, csv_path = run_convergence_experiment(
        config, out_dir=out, workers=min(4, os.cpu_count() or 1))
    wall = time.perf_counter() - t0
    return config, records, csv_path, wall


def test_10_convergence_rate_windows(capsys, gating_run):
    config, records, _, wall = gating_run
    slopes = {}
    for tag in ("none", "entropic", "chi2"):
        subset = [r for r in records if r.model == tag]
        slopes[(tag, "subopt")] = fit_slope(subset, field="subopt")[0]
        if tag != "none":
            slopes[(tag, "potgap")] = fit_slope(subset, field="potgap")[0]
    checks = [
        NONE_WINDOW[0] <= slopes[("none", "subopt")] <= NONE_WINDOW[1],
        REG_WINDOW[0] <= slopes[("entropic", "subopt")] <= REG_WINDOW[1],
        REG_WINDOW[0] <= slopes[("chi2", "subopt")] <= REG_WINDOW[1],
        GAP_WINDOW[0] <= slopes[("entropic", "potgap")] <= GAP_WINDOW[1],
        GAP_WINDOW[0] <= slopes[("chi2", "potgap")] <= GAP_WINDOW[1],
        wall <= 1800.0,
    ]
    detail = (f"subopt none={slopes[('none', 'subopt')]:+.3f} "
              f"entropic={slopes[('entropic', 'subopt')]:+.3f} "
              f"chi2={slopes[('chi2', 'subopt')]:+.3f}; "
              f"potgap entropic={slopes[('entropic', 'potgap')]:+.3f} "
              f"chi2={slopes[('chi2', 'potgap')]:+.3f}; wall={wall:.0f}s")
    _emit(capsys, "convergence-rate windows (3 models, 5 horizons, 10 seeds)",
          all(checks), detail)


def test_11_repeat_run_byte_identical(capsys, gating_run, tmp_path):
    config, _, csv_path, _ = gating_run
    _, second_path = run_convergence_experiment(
        config, out_dir=tmp_path, workers=min(4, os.cpu_count() or 1))
    same = Path(csv_path).read_bytes() == Path(second_path).read_bytes()
    _emit(capsys, "determinism: repeated full experiment is byte-identical",
          same, f"{Path(csv_path).stat().st_size} bytes compared")


@pytest.mark.skipif(not os.environ.get("SDOT_EXTENDED"),
                    reason="extended profile: set SDOT_EXTENDED=1 to run "
                           "(adds T=10^5 and the hyperbolic family; hours)")
def test_12_extended_profile_slopes(capsys):
    cfg_path = Path(__file__).resolve().parents[1] / "demos" / "extended_config.json"
    config = ExperimentConfig.from_json(json.loads(cfg_path.read_text()))
    out = Path(os.environ.get("SDOT_EXTENDED_OUT", "/tmp/sdot_extended"))
    records, _ = run_convergence_experiment(
        config, out_dir=out, workers=min(4, os.cpu_count() or 1), resume=True)
    details = []
    ok = True
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for tag in ("entropic", "chi2", "hyperbolic"):
            subset = [r for r in records if r.model == tag]
            slope, _ = fit_slope(subset, field="subopt")
            ok = ok and REG_WINDOW[0] <= slope <= REG_WINDOW[1]
            details.append(f"{tag}={slope:+.3f}")
    _emit(capsys, "extended-profile slopes (T up to 10^5, hyperbolic family)",
          ok, "; ".join(details))
