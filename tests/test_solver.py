"""Averaged SGD, step rules, reference solvers. Oracles: a hand-rolled replay
of the iteration for the update arithmetic, permutation enumeration for the
transport LP, scipy quadrature for Monte Carlo estimates, and the primal
construction identity for the damped Newton solver."""

import functools
import itertools
import json
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from sdot import solver
from sdot.cli import ExperimentConfig
from sdot.core import (
    CostSpec,
    DiscreteMeasure,
    SamplerSpec,
    cost_matrix,
    cost_vector,
    draw,
)
from sdot.noise import (
    _ROW_BLOCK,
    MarginalModel,
    approximation_bound,
    discrete_f_divergence,
    marginal_lipschitz,
    probs_from_utilities,
    utilities_values_probs,
)
from sdot.solver import (
    SolverConfig,
    averaged_sgd,
    damped_newton,
    dual_objective_estimate,
    exact_discrete_ot,
    finite_sample_reference,
    sgd_config,
)
from test_noise import frozen_bisection, frozen_closed_form, old_bisection_rows

SUP = CostSpec("sup-norm")
SQ = CostSpec("p-norm-power", p=2.0)


def random_measure(rng, n, d, box=1.0):
    atoms = rng.uniform(-box, box, size=(n, d))
    w = rng.uniform(0.2, 1.0, n)
    return DiscreteMeasure(atoms, w / w.sum())


def newton_on_sample(C, w, nu_w, model):
    """damped_newton on the finite-sample dual of the cost matrix C, with
    row weights w and column weights nu_w, as the references call it."""
    evaluate = functools.partial(solver._finite_dual, C=C, weights=w, nu_w=nu_w, model=model,
                                 hessian=True)
    return damped_newton(evaluate, C.shape[1])


# ------------------------------------------------------------- step sizes

def test_step_size_frozen():
    assert SolverConfig(T=10_000).step == pytest.approx(2.5e-3, rel=1e-15)
    assert SolverConfig(T=10_000, eps_bar=0.5).step == pytest.approx(1.0 / 500.0, rel=1e-15)
    assert SolverConfig(T=10_000, rule="smooth", L=5.0).step == pytest.approx(1.0 / 205.0,
                                                                              rel=1e-15)


def test_step_size_missing_constants():
    # the rule is checked when the config is built, not inside averaged_sgd
    with pytest.raises(ValueError, match="smooth rule needs the constant L"):
        SolverConfig(T=100, rule="smooth")
    with pytest.raises(ValueError, match="unknown step-size rule"):
        SolverConfig(T=100, rule="no-such-rule")


# ----------------------------------------------------------- averaged sgd

def sgd_replay(spec, nu, c, model, config):
    """Independent re-implementation of the iteration for comparison; every
    kind takes its probabilities from the frozen copy of its kernel (the
    softmax, the sorted sparsemax or the bisection loop), not from the
    kernel under test."""
    X = draw(spec, config.T)
    C = cost_matrix(X, nu.atoms, c)
    gamma = config.step
    n = nu.n_atoms
    phi = np.zeros(n)
    under = np.zeros(n)
    bar = np.zeros(n)
    for t in range(1, config.T + 1):
        under += phi
        u = phi - C[t - 1]
        if model is None:
            p = np.zeros(n)
            p[int(np.argmax(u))] = 1.0
            p = p + 2.0 * config.tikhonov * phi
        elif model.kind in ("exponential", "uniform"):
            p = frozen_closed_form(u[None, :], model)[1][0]
        else:
            p = frozen_bisection(u[:, None], model, config.eps_bar / (2.0 * np.sqrt(t)))[:, 0]
        phi = phi + gamma * (nu.weights - p)
        bar += phi
    return under / config.T, bar / config.T, phi


def test_sgd_single_atom_fixed_point():
    nu = DiscreteMeasure(np.zeros((1, 2)), np.ones(1))
    spec = SamplerSpec("gaussian-standard", d=2, seed=5)
    cfg = SolverConfig(T=50, rule="lipschitz")
    under, bar, _ = averaged_sgd(spec, nu, SUP, None, cfg)
    assert np.array_equal(under, np.zeros(1))
    assert np.array_equal(bar, np.zeros(1))


def test_sgd_matches_replay_exponential():
    rng = np.random.default_rng(40)
    nu = random_measure(rng, 4, 2)
    model = MarginalModel("exponential", 0.5, np.full(4, 0.25))
    spec = SamplerSpec("hypercube-uniform", d=2, seed=11)
    cfg = SolverConfig(T=60, rule="smooth", L=1.0 / 0.5)
    under, bar, trace = averaged_sgd(spec, nu, SUP, model, cfg)
    ru, rb, rphi = sgd_replay(spec, nu, SUP, model, cfg)
    assert np.array_equal(under, ru)
    assert np.array_equal(bar, rb)
    assert np.array_equal(trace.rows[-1].phi, rphi)


def test_sgd_matches_replay_unregularized_with_tikhonov():
    rng = np.random.default_rng(41)
    nu = random_measure(rng, 3, 2)
    spec = SamplerSpec("gaussian-standard", d=2, seed=12)
    cfg = SolverConfig(T=40, rule="lipschitz", tikhonov=1e-8)
    under, bar, _ = averaged_sgd(spec, nu, SQ, None, cfg)
    ru, rb, _ = sgd_replay(spec, nu, SQ, None, cfg)
    assert np.array_equal(under, ru)
    assert np.array_equal(bar, rb)


def test_sgd_matches_replay_bisection_schedule():
    rng = np.random.default_rng(42)
    nu = random_measure(rng, 3, 2)
    spec = SamplerSpec("hypercube-uniform", d=2, seed=13)
    cfg = SolverConfig(T=30, rule="lipschitz", eps_bar=0.1)
    for kind, q in (("hyperbolic", None), ("tdist", None), ("pareto", 1.5), ("pareto", 0.5)):
        model = MarginalModel(kind, 0.4, np.full(3, 1 / 3), q=q)
        under, bar, _ = averaged_sgd(spec, nu, SUP, model, cfg)
        ru, rb, _ = sgd_replay(spec, nu, SUP, model, cfg)
        assert np.array_equal(under, ru), kind
        assert np.array_equal(bar, rb), kind


@pytest.mark.parametrize("kind,q", [("hyperbolic", None), ("tdist", None), ("pareto", 1.5)])
def test_sgd_matches_replay_over_many_bisection_blocks(kind, q):
    # ten atoms, lambda 0.1 and eps_bar 0.1 over 300 steps: each oracle
    # call takes 8 to 14 halvings, two to four blocks of the one-row path
    rng = np.random.default_rng(44)
    nu = random_measure(rng, 10, 2)
    spec = SamplerSpec("hypercube-uniform", d=2, seed=15)
    model = MarginalModel(kind, 0.1, np.full(10, 0.1), q=q)
    cfg = SolverConfig(T=300, rule="lipschitz", eps_bar=0.1)
    under, bar, trace = averaged_sgd(spec, nu, SUP, model, cfg)
    ru, rb, rphi = sgd_replay(spec, nu, SUP, model, cfg)
    assert np.array_equal(under, ru) and np.array_equal(bar, rb)
    assert np.array_equal(trace.rows[-1].phi, rphi)


def benchmark_instance(kind, q=None):
    """The benchmark's target measure, the atoms of
    demos/convergence_config.json with uniform weights, and its model of
    ``kind`` (None for the plain max) at lambda 0.1 with uniform eta."""
    atom_rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(16)))
    nu = DiscreteMeasure(atom_rng.uniform(-1.0, 1.0, size=(10, 2)), np.full(10, 0.1))
    return nu, None if kind is None else MarginalModel(kind, 0.1, np.full(10, 0.1), q=q)


@pytest.mark.parametrize("kind,q,tikhonov", [
    (None, None, 0.0), (None, None, 1e-8), ("exponential", None, 0.0), ("uniform", None, 0.0),
    ("hyperbolic", None, 0.0), ("tdist", None, 0.0), ("pareto", 1.5, 0.0)])
def test_sgd_matches_replay_on_the_benchmark_model(kind, q, tikhonov):
    # the six oracles of the benchmark's one-shot SGD, the plain max with
    # and without its Tikhonov term, against the replay bit for bit
    nu, model = benchmark_instance(kind, q)
    closed = model is None or model.kind in ("exponential", "uniform")
    T = 2000 if closed else 500
    cfg = SolverConfig(T=T, tikhonov=tikhonov) if model is None else sgd_config(model, T)
    spec = SamplerSpec("gaussian-standard", d=2, seed=0)
    under, bar, trace = averaged_sgd(spec, nu, SUP, model, cfg)
    ru, rb, rphi = sgd_replay(spec, nu, SUP, model, cfg)
    assert under.tobytes() == ru.tobytes() and bar.tobytes() == rb.tobytes()
    assert trace.rows[-1].phi.tobytes() == rphi.tobytes()


@pytest.mark.parametrize("tikhonov", [0.0, 1e-8])
def test_sgd_plain_max_tie_goes_to_the_first_maximizer(tikhonov):
    # one sample point lies 2^60 off along the first axis, where every
    # atom's sup-norm cost rounds to 2^60 and so every utility to -2^60:
    # an n-way tie, which the first atom must win at each of its steps
    nu, _ = benchmark_instance(None)
    points = np.vstack([draw(SamplerSpec("gaussian-standard", d=2, seed=0), 49),
                        [[2.0 ** 60, 0.0]]])
    spec = SamplerSpec("empirical", points=points, weights=np.full(50, 0.02), seed=1)
    cfg = SolverConfig(T=400, tikhonov=tikhonov, log_every=1)
    under, bar, trace = averaged_sgd(spec, nu, SUP, None, cfg)
    ru, rb, _ = sgd_replay(spec, nu, SUP, None, cfg)
    assert under.tobytes() == ru.tobytes() and bar.tobytes() == rb.tobytes()
    ties = np.flatnonzero(draw(spec, cfg.T)[:, 0] == 2.0 ** 60)
    assert ties.size >= 3
    phis = np.array([np.zeros(10)] + [row.phi for row in trace.rows])
    for t in ties:
        damped = cfg.step * (nu.weights - 2.0 * tikhonov * phis[t])
        step = phis[t + 1] - phis[t]
        assert step[0] < 0.0 and np.allclose(step[1:], damped[1:], rtol=1e-12, atol=0.0)


def test_sgd_rejects_a_tikhonov_term_with_a_model():
    # the term damps only the plain subgradient; with a model it would be
    # ignored, so the run is refused rather than silently undamped
    nu, model = benchmark_instance("exponential")
    spec = SamplerSpec("gaussian-standard", d=2, seed=0)
    with pytest.raises(ValueError, match=r"^tikhonov=10\.0 applies only to the plain"):
        averaged_sgd(spec, nu, SUP, model, SolverConfig(T=5, tikhonov=10.0))
    under, bar, _ = averaged_sgd(spec, nu, SUP, model, SolverConfig(T=5))
    assert np.isfinite(under).all() and np.isfinite(bar).all()


@pytest.mark.parametrize("kind,q", [("hyperbolic", None), ("tdist", None), ("pareto", 1.5)])
def test_sgd_oracle_rows_match_frozen_bisection(monkeypatch, kind, q):
    # every oracle row of a 5,000-step run on the benchmark's model (the
    # atoms of demos/convergence_config.json, lambda 0.1, uniform eta), as
    # eps = 0.1 / (2 sqrt(t)) shrinks: 7 to 17 halvings, up to five blocks,
    # against the old row-major frozen copy bit for bit. The hook sits on
    # the entry SGD calls, which takes each utility row as a 1-d array
    import sdot.solver as solver_mod
    nu, model = benchmark_instance(kind, q)
    kernel, calls = solver_mod._kernel, []

    def recording_kernel(u, model, eps):
        p = kernel(u, model, eps)
        calls.append((u.copy(), eps, p))
        return p

    monkeypatch.setattr(solver_mod, "_kernel", recording_kernel)
    averaged_sgd(SamplerSpec("gaussian-standard", d=2, seed=0), nu, SUP, model,
                 sgd_config(model, 5000))
    assert len(calls) == 5000
    for t, (u, eps, p) in enumerate(calls, 1):
        assert u.shape == (10,) and eps == 0.1 / (2.0 * np.sqrt(t))
        assert p.tobytes() == old_bisection_rows(u[None, :], model, eps)[0].tobytes(), t


def test_sgd_overflowing_oracle_stays_silent():
    # |u| / lam reaches ~1e3, past sinh's overflow, and the q = 0.5 pareto
    # bases fall to zero and below; the kernel ignores the overflow once
    # around its loop and SGD must raise no warning
    rng = np.random.default_rng(43)
    nu = random_measure(rng, 4, 2)
    spec = SamplerSpec("gaussian-standard", d=2, seed=14)
    cfg = SolverConfig(T=20, rule="lipschitz", eps_bar=0.1)
    for model in (MarginalModel("hyperbolic", 1e-3, np.full(4, 0.25)),
                  MarginalModel("pareto", 1e-3, np.full(4, 0.25), q=0.5)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            under, bar, _ = averaged_sgd(spec, nu, SUP, model, cfg)
        ru, rb, _ = sgd_replay(spec, nu, SUP, model, cfg)
        assert np.array_equal(under, ru) and np.array_equal(bar, rb)


def test_sgd_bisection_needs_positive_eps_bar():
    nu = DiscreteMeasure(np.zeros((2, 1)) + [[0.0], [1.0]], np.full(2, 0.5))
    model = MarginalModel("hyperbolic", 1.0, np.full(2, 0.5))
    spec = SamplerSpec("gaussian-standard", d=1, seed=1)
    with pytest.raises(ValueError):
        averaged_sgd(spec, nu, SUP, model, SolverConfig(T=5, rule="lipschitz"))


def test_sgd_takes_only_a_sampler_spec():
    nu = DiscreteMeasure(np.array([[0.0], [1.0]]), np.full(2, 0.5))
    spec = SamplerSpec("gaussian-standard", d=1, seed=1)
    for sampler in (spec.to_json(), draw(spec, 5)):
        with pytest.raises(TypeError, match="SamplerSpec"):
            averaged_sgd(sampler, nu, SUP, None, SolverConfig(T=5))
        with pytest.raises(TypeError, match="finite_sample_reference needs a SamplerSpec"):
            finite_sample_reference(sampler, nu, SUP, None, T=5)


def test_sgd_rejects_a_model_of_another_length():
    nu = DiscreteMeasure(np.array([[0.0], [1.0]]), np.full(2, 0.5))
    model = MarginalModel("exponential", 0.5, np.full(3, 1 / 3))
    spec = SamplerSpec("gaussian-standard", d=1, seed=1)
    with pytest.raises(ValueError, match="model weights and measure atoms disagree in length"):
        averaged_sgd(spec, nu, SUP, model, SolverConfig(T=5))


@pytest.mark.parametrize("kind, eps_bar", [("exponential", 0.0), ("uniform", 0.0),
                                            ("hyperbolic", 0.1)])
@pytest.mark.parametrize("bad", [[0.45, 0.45], [np.nan, 1.0]])
def test_sgd_rejects_oracle_rows_off_the_simplex(monkeypatch, kind, eps_bar, bad):
    import sdot.solver as solver_mod
    monkeypatch.setattr(solver_mod, "_kernel", lambda U, model, eps: np.array(bad))
    nu = DiscreteMeasure(np.array([[0.0, 0.0], [1.0, 1.0]]), np.full(2, 0.5))
    model = MarginalModel(kind, 0.5, np.full(2, 0.5))
    spec = SamplerSpec("gaussian-standard", d=2, seed=3)
    with pytest.raises(ValueError, match="gradient oracle failed at iteration 1"):
        averaged_sgd(spec, nu, SUP, model, SolverConfig(T=5, rule="lipschitz", eps_bar=eps_bar))


@pytest.mark.parametrize("kind", ["exponential", "none", "uniform", "hyperbolic"])
def test_sgd_update_arithmetic_and_gradient_bound(kind):
    # every logged step replayed on fresh arrays: the loop rewrites its
    # utilities and update in place, and the plain max (here with a
    # Tikhonov term) builds its damped one-hot row in the update buffer
    rng = np.random.default_rng(43)
    nu = random_measure(rng, 5, 2)
    model = None if kind == "none" else MarginalModel(kind, 0.3, np.full(5, 0.2))
    spec = SamplerSpec("gaussian-standard", d=2, seed=14)
    cfg = SolverConfig(T=64, rule="lipschitz", eps_bar=0.1 if kind == "hyperbolic" else 0.0,
                       tikhonov=0.05 if model is None else 0.0, log_every=1)
    _, _, trace = averaged_sgd(spec, nu, SUP, model, cfg)
    gamma = cfg.step
    X = draw(spec, 64)
    phi_prev = np.zeros(5)
    for row in trace.rows:
        u = phi_prev - cost_vector(X[row.t - 1], nu.atoms, SUP)
        if model is None:
            p = np.zeros(5)
            p[int(np.argmax(u))] = 1.0
            p = p + 2.0 * cfg.tikhonov * phi_prev
        else:
            fresh = MarginalModel(kind, model.lam, model.eta)
            p = probs_from_utilities(u, fresh, eps=cfg.eps_bar / (2.0 * math.sqrt(row.t)))
        step = gamma * (nu.weights - p)
        assert np.array_equal(row.phi, phi_prev + step)
        assert np.linalg.norm(nu.weights - p) <= 2.0
        phi_prev = row.phi
    # full-log averages recompute from snapshots
    snaps = np.array([r.phi for r in trace.rows])
    _, bar, _ = averaged_sgd(spec, nu, SUP, model, cfg)
    assert np.allclose(snaps.mean(axis=0), bar, atol=1e-15)


def test_sgd_deterministic_and_seed_sensitive():
    rng = np.random.default_rng(44)
    nu = random_measure(rng, 4, 2)
    model = MarginalModel("uniform", 0.5, np.full(4, 0.25))
    spec = SamplerSpec("hypercube-uniform", d=2, seed=21)
    cfg = SolverConfig(T=80, rule="smooth", L=marginal_lipschitz(model))
    out1 = averaged_sgd(spec, nu, SUP, model, cfg)
    out2 = averaged_sgd(spec, nu, SUP, model, cfg)
    assert np.array_equal(out1[1], out2[1])
    # trace content is bit-identical; wall times are the one measured field
    hashes1 = [line.split(",")[1] for line in out1[2].to_csv().strip().split("\n")[1:]]
    hashes2 = [line.split(",")[1] for line in out2[2].to_csv().strip().split("\n")[1:]]
    assert hashes1 == hashes2
    for r1, r2 in zip(out1[2].rows, out2[2].rows):
        assert np.array_equal(r1.phi, r2.phi)
        assert np.array_equal(r1.bar_avg, r2.bar_avg)
    other = averaged_sgd(SamplerSpec("hypercube-uniform", d=2, seed=22), nu, SUP, model, cfg)
    assert not np.array_equal(out1[1], other[1])


def test_sgd_geometric_checkpoints():
    nu = DiscreteMeasure(np.array([[0.0], [1.0]]), np.full(2, 0.5))
    model = MarginalModel("exponential", 1.0, np.full(2, 0.5))
    spec = SamplerSpec("gaussian-standard", d=1, seed=3)
    _, _, trace = averaged_sgd(spec, nu, SUP, model, SolverConfig(T=100, rule="lipschitz"))
    assert [r.t for r in trace.rows] == [1, 2, 4, 8, 16, 32, 64, 100]


def test_solver_config_log_every_must_be_a_positive_integer():
    assert SolverConfig(T=8, log_every=np.int64(2)).log_every == 2
    for bad in (2.5, True, 0, "4"):
        with pytest.raises(ValueError, match="log_every must be an integer of at least 1"):
            SolverConfig(T=8, log_every=bad)


def test_solver_config_rejects_non_finite_numbers_and_non_integer_T():
    # an infinite eps_bar zeroes the bounded-gradient step, NaN passes every
    # comparison and a float T used to fail only later, in range()
    assert SolverConfig(T=np.int64(8)).T == 8
    for bad in (2.5, True, 0, "4"):
        with pytest.raises(ValueError, match="T must be an integer of at least 1"):
            SolverConfig(T=bad)
    for field in ("eps_bar", "tikhonov"):
        for bad in (math.inf, math.nan, -0.1):
            with pytest.raises(ValueError, match=f"{field} must be nonnegative and finite"):
                SolverConfig(T=8, **{field: bad})
    hyper = MarginalModel("hyperbolic", 0.5, np.full(3, 1 / 3))
    for model in (None, hyper):
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match="eps_bar must be nonnegative and finite"):
                sgd_config(model, 50, bad)


def test_sgd_past_the_entry_bound_fails_before_drawing(monkeypatch):
    # draw refuses, so a missing guard fails here at once instead of
    # allocating a T x n cost matrix
    def refuse(*args, **kwargs):
        raise AssertionError("allocated past the entry bound")

    monkeypatch.setattr(solver, "draw", refuse)
    nu = DiscreteMeasure(np.array([[0.0, 0.0], [1.0, 1.0]]), np.full(2, 0.5))
    spec = SamplerSpec("gaussian-standard", d=2, seed=1)
    with pytest.raises(ValueError, match=r"SGD cost matrix \(T\*n\) too large \(200000002 > 2e8"):
        averaged_sgd(spec, nu, SUP, None, SolverConfig(T=10 ** 8 + 1))


def test_sgd_trace_csv_shape():
    nu = DiscreteMeasure(np.array([[0.0], [1.0]]), np.full(2, 0.5))
    model = MarginalModel("exponential", 1.0, np.full(2, 0.5))
    spec = SamplerSpec("gaussian-standard", d=1, seed=3)
    _, _, trace = averaged_sgd(spec, nu, SUP, model, SolverConfig(T=16, rule="lipschitz"))
    lines = trace.to_csv().strip().split("\n")
    assert lines[0] == "t,phi_hash,walltime_ms"
    assert len(lines) == 1 + 5  # checkpoints 1,2,4,8,16
    cells = lines[1].split(",")
    assert len(cells) == 3 and len(cells[1]) == 16
    int(cells[0])


def test_sgd_self_transport_near_zero_cost():
    atoms = np.array([[0.0, 0.0], [1.0, 0.5], [-0.5, 1.0]])
    nu = DiscreteMeasure(atoms, np.full(3, 1 / 3))
    spec = SamplerSpec("empirical", points=atoms, weights=np.full(3, 1 / 3), seed=7)
    model = MarginalModel("exponential", 0.01, np.full(3, 1 / 3))
    cfg = SolverConfig(T=3000, rule="smooth", L=1.0 / 0.01)
    _, bar, _ = averaged_sgd(spec, nu, SQ, model, cfg)
    est, se = dual_objective_estimate(bar, nu, SQ, model,
                                      draw(SamplerSpec("empirical", points=atoms,
                                                       weights=np.full(3, 1 / 3), seed=8), 4000))
    assert abs(est) <= 0.05
    assert se <= 0.01


def test_sgd_suboptimality_shrinks_with_T():
    rng = np.random.default_rng(45)
    nu = random_measure(rng, 5, 2)
    model = MarginalModel("exponential", 0.1, np.full(5, 0.2))
    wins = 0
    for seed in range(4):
        spec = SamplerSpec("hypercube-uniform", d=2, seed=100 + seed)
        subs = []
        for T in (100, 2500):
            cfg = SolverConfig(T=T, rule="smooth", L=marginal_lipschitz(model))
            _, bar, _ = averaged_sgd(spec, nu, SUP, model, cfg)
            value, phi_ref, _ = finite_sample_reference(spec, nu, SUP, model, T)
            est, _ = dual_objective_estimate(bar, nu, SUP, model, draw(spec, 10 * T))
            subs.append(value - est)
        if subs[1] < subs[0]:
            wins += 1
    assert wins >= 3


# -------------------------------------------------------- dual estimates

def test_dual_estimate_zero_potential_plain():
    rng = np.random.default_rng(46)
    nu = random_measure(rng, 4, 2)
    X = rng.uniform(-1, 1, size=(500, 2))
    est, se = dual_objective_estimate(np.zeros(4), nu, SQ, None, X)
    ref = np.min(cost_matrix(X, nu.atoms, SQ), axis=1).mean()
    assert est == pytest.approx(ref, abs=1e-12)
    assert se > 0.0


@pytest.mark.parametrize("kind", ["hyperbolic", "tdist"])
def test_dual_estimate_rejects_infinite_eps(kind):
    # eps = inf used to return 1.41 here (hyperbolic) where eps 1e-9 gives 1.11
    rng = np.random.default_rng(53)
    nu = random_measure(rng, 4, 2)
    model = MarginalModel(kind, 0.1, np.full(4, 0.25))
    X = rng.normal(size=(20, 2))
    with pytest.raises(ValueError, match="needs a positive accuracy eps"):
        dual_objective_estimate(np.zeros(4), nu, SUP, model, X, eps=math.inf)
    est, _ = dual_objective_estimate(np.zeros(4), nu, SUP, model, X, eps=1e-9)
    assert math.isfinite(est)


def test_dual_estimate_shift_covariance():
    rng = np.random.default_rng(47)
    nu = random_measure(rng, 3, 2)
    model = MarginalModel("exponential", 0.5, np.full(3, 1 / 3))
    X = rng.normal(size=(200, 2))
    phi = rng.normal(size=3)
    a = dual_objective_estimate(phi, nu, SUP, model, X)
    b = dual_objective_estimate(phi + 4.2, nu, SUP, model, X)
    assert a[0] == pytest.approx(b[0], abs=1e-10)
    assert a[1] == pytest.approx(b[1], abs=1e-10)


def test_dual_estimate_matches_quadrature():
    atoms = np.array([[-0.7], [0.7]])
    nu = DiscreteMeasure(atoms, np.full(2, 0.5))
    model = MarginalModel("exponential", 0.3, np.full(2, 0.5))
    phi = np.array([0.15, -0.1])

    from sdot.noise import smooth_c_transform
    def integrand(x):
        val = smooth_c_transform(phi, np.array([x]), nu, SQ, model)
        return val * np.exp(-x * x / 2) / np.sqrt(2 * np.pi)

    expect_psi, err = quad(integrand, -8, 8, epsabs=1e-10, limit=200)
    assert err < 1e-8
    truth = nu.weights @ phi - expect_psi
    X = draw(SamplerSpec("gaussian-standard", d=1, seed=30), 20000)
    est, se = dual_objective_estimate(phi, nu, SQ, model, X)
    assert abs(est - truth) <= 3 * se + 1e-6


ESTIMATE_KINDS = [None, "exponential", "uniform", "hyperbolic", "tdist", "pareto"]


def estimate_model(kind, n):
    if kind is None:
        return None
    return MarginalModel(kind, 0.1, np.full(n, 1.0 / n), q=1.5 if kind == "pareto" else None)


@pytest.mark.parametrize("kind", ESTIMATE_KINDS, ids=lambda k: k or "none")
def test_dual_estimate_equals_the_full_cost_matrix_formula_across_blocks(kind):
    # the estimate builds its costs block by block; it must give the bits of
    # the formula on the full (m, n) cost matrix, for a sample that ends one
    # row into a third block
    rng = np.random.default_rng(61)
    nu = random_measure(rng, 10, 2)
    model = estimate_model(kind, 10)
    m = 2 * _ROW_BLOCK + 1
    X, phi = rng.normal(size=(m, 2)), rng.normal(scale=0.3, size=10)
    got = dual_objective_estimate(phi, nu, SUP, model, X, eps=1e-9)
    vals, _ = utilities_values_probs(cost_matrix(X, nu.atoms, SUP), model, eps=1e-9, phi=phi)
    contrib = float(nu.weights @ phi) - vals
    assert got == (float(contrib.mean()), float(contrib.std(ddof=1) / math.sqrt(m)))


@pytest.mark.parametrize("kind", ESTIMATE_KINDS, ids=lambda k: k or "none")
def test_dual_estimate_holds_no_cost_matrix(kind):
    rng = np.random.default_rng(62)
    m, n = 100_000, 10
    nu = random_measure(rng, n, 2)
    X, phi = rng.normal(size=(m, 2)), rng.normal(scale=0.3, size=n)
    tracemalloc.start()
    try:
        dual_objective_estimate(phi, nu, SUP, estimate_model(kind, n), X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < m * n * 8


def bad_estimate_inputs(kind):
    rng = np.random.default_rng(63)
    nu = random_measure(rng, 10, 2)
    return nu, estimate_model(kind, 10), rng.normal(size=(50, 2)), np.zeros(10)


@pytest.mark.parametrize("kind", ESTIMATE_KINDS, ids=lambda k: k or "none")
def test_dual_estimate_rejects_an_empty_sample(kind):
    nu, model, _, phi = bad_estimate_inputs(kind)
    with pytest.raises(ValueError, match="samples must hold at least one point"):
        dual_objective_estimate(phi, nu, SUP, model, np.empty((0, 2)))


@pytest.mark.parametrize("kind", ESTIMATE_KINDS, ids=lambda k: k or "none")
def test_dual_estimate_rejects_a_phi_of_the_wrong_length(kind):
    nu, model, X, _ = bad_estimate_inputs(kind)
    with pytest.raises(ValueError, match=r"phi must have one entry per atom \(10\), got 3"):
        dual_objective_estimate(np.zeros(3), nu, SUP, model, X)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("kind", ESTIMATE_KINDS, ids=lambda k: k or "none")
def test_dual_estimate_rejects_a_non_finite_phi(kind, bad):
    nu, model, X, phi = bad_estimate_inputs(kind)
    phi[4] = bad
    with pytest.raises(ValueError, match="phi must be finite"):
        dual_objective_estimate(phi, nu, SUP, model, X)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("kind", ESTIMATE_KINDS, ids=lambda k: k or "none")
def test_dual_estimate_rejects_a_non_finite_sample_point(kind, bad):
    nu, model, X, phi = bad_estimate_inputs(kind)
    X[17, 1] = bad
    with pytest.raises(ValueError, match="samples must be finite"):
        dual_objective_estimate(phi, nu, SUP, model, X)


def test_estimate_and_dual_reject_a_bracket_that_cannot_be_halved():
    # pareto q = 3 at eps 1e-300: bisection_delta underflows to zero, so no
    # row can be halved to eps. The batched paths have no mass check, and
    # must raise rather than return values of unhalved brackets, whose
    # masses miss one by up to 0.9
    rng = np.random.default_rng(0)
    nu = DiscreteMeasure(rng.uniform(-1.0, 1.0, size=(10, 2)), np.full(10, 0.1))
    model = MarginalModel("pareto", 0.1, np.full(10, 0.1), q=3.0)
    X = rng.normal(size=(2000, 2))
    est, se = dual_objective_estimate(np.zeros(10), nu, SUP, model, X, eps=1e-12)
    assert np.isfinite(est) and se > 0.0
    C, w = cost_matrix(X, nu.atoms, SUP), np.full(2000, 1.0 / 2000)
    message = "model kind 'pareto' cannot bisect at eps=1e-300"
    with pytest.raises(ValueError, match=message):
        dual_objective_estimate(np.zeros(10), nu, SUP, model, X, eps=1e-300)
    with pytest.raises(ValueError, match=message):
        solver._finite_dual(np.zeros(10), C, w, nu.weights, model, eps=1e-300)


# ------------------------------------------------------------ exact LP

def test_lp_self_transport():
    rng = np.random.default_rng(48)
    nu = random_measure(rng, 4, 2)
    mu = DiscreteMeasure(nu.atoms, nu.weights)
    value, plan, _, _ = exact_discrete_ot(mu, nu, SQ)
    assert value == pytest.approx(0.0, abs=1e-10)
    assert np.allclose(plan, np.diag(nu.weights), atol=1e-9)


def test_lp_forced_move():
    atoms = np.array([[0.0], [1.0]])
    mu = DiscreteMeasure(atoms, np.array([1.0, 0.0]))
    nu = DiscreteMeasure(atoms, np.array([0.0, 1.0]))
    value, plan, _, _ = exact_discrete_ot(mu, nu, SQ)
    assert value == pytest.approx(1.0, abs=1e-10)
    assert plan[0, 1] == pytest.approx(1.0, abs=1e-10)


def test_lp_matches_permutation_enumeration():
    rng = np.random.default_rng(49)
    pts = rng.normal(size=(4, 2))
    atoms = rng.normal(size=(4, 2))
    mu = DiscreteMeasure(pts, np.full(4, 0.25))
    nu = DiscreteMeasure(atoms, np.full(4, 0.25))
    value, _, _, _ = exact_discrete_ot(mu, nu, SQ)
    C = cost_matrix(pts, atoms, SQ)
    best = min(sum(C[j, perm[j]] for j in range(4)) / 4.0
               for perm in itertools.permutations(range(4)))
    assert value == pytest.approx(best, abs=1e-10)


def test_lp_marginals_and_duals():
    rng = np.random.default_rng(50)
    mu = random_measure(rng, 6, 2)
    nu = random_measure(rng, 7, 2)
    value, plan, u, phi = exact_discrete_ot(mu, nu, SUP)
    assert np.allclose(plan.sum(axis=1), mu.weights, atol=1e-9)
    assert np.allclose(plan.sum(axis=0), nu.weights, atol=1e-9)
    assert np.all(plan >= -1e-12)
    # dual feasibility and strong duality pin the sign convention
    C = cost_matrix(mu.atoms, nu.atoms, SUP)
    assert np.all(u[:, None] + phi[None, :] <= C + 1e-8)
    assert mu.weights @ u + nu.weights @ phi == pytest.approx(value, abs=1e-9)
    # phi maximizes the semi-dual over the empirical source
    psi = np.max(phi[None, :] - C, axis=1)
    assert nu.weights @ phi - mu.weights @ psi == pytest.approx(value, abs=1e-8)


def test_lp_size_guard():
    rng = np.random.default_rng(51)
    mu = random_measure(rng, 1001, 1)
    nu = random_measure(rng, 1001, 1)
    with pytest.raises(ValueError):
        exact_discrete_ot(mu, nu, SQ)


def test_reduced_lp_certifies_against_direct():
    import sdot.solver as solver_mod

    rng = np.random.default_rng(67)
    X = rng.standard_normal((900, 2))
    a = np.full(900, 1 / 900)
    nu = DiscreteMeasure(rng.uniform(-1, 1, size=(7, 2)), np.full(7, 1 / 7))
    direct = exact_discrete_ot(DiscreteMeasure(X, a), nu, SUP)[0]
    value, phi, _ = solver_mod._reduced_transport_value_phi(
        cost_matrix(X, nu.atoms, SUP), a, nu.weights)
    assert value == pytest.approx(direct, abs=1e-8)
    # the pair is self-consistent: value is the semi-dual objective at phi
    psi = np.max(phi[None, :] - cost_matrix(X, nu.atoms, SUP), axis=1)
    assert nu.weights @ phi - a @ psi == pytest.approx(value, abs=1e-12)
    value2, phi2, _ = solver_mod._reduced_transport_value_phi(
        cost_matrix(X, nu.atoms, SUP), a, nu.weights)
    assert value2 == value
    assert np.array_equal(phi2, phi)


def test_reference_switches_to_reduction(monkeypatch):
    import sdot.solver as solver_mod

    monkeypatch.setattr(solver_mod, "_DIRECT_LIMIT", 500)
    rng = np.random.default_rng(68)
    nu = random_measure(rng, 4, 2)
    spec = SamplerSpec("gaussian-standard", d=2, seed=41)
    value, phi, info = finite_sample_reference(spec, nu, SUP, None, 60, multiplier=5)
    assert info["method"] == "lp"
    assert info["reduced"] is True
    X = draw(spec, 300)
    direct = exact_discrete_ot(DiscreteMeasure(X, np.full(300, 1 / 300)), nu, SUP)[0]
    assert value == pytest.approx(direct, abs=1e-8)
    assert abs(phi.mean()) <= 1e-12
    assert abs(info["gap"]) <= 1e-6 * max(1.0, abs(value))
    assert info["passes"] == len(info["boundary"]) >= 1
    assert all(0 <= r <= 300 and v >= 0 for r, v in info["boundary"])


def _widening_instance():
    """Cost matrix, masses and target weights of a 900 x 7 sup-norm
    problem, and its exact transport value."""
    rng = np.random.default_rng(67)
    X = rng.standard_normal((900, 2))
    a = np.full(900, 1 / 900)
    nu = DiscreteMeasure(rng.uniform(-1, 1, size=(7, 2)), np.full(7, 1 / 7))
    direct = exact_discrete_ot(DiscreteMeasure(X, a), nu, SUP)[0]
    return cost_matrix(X, nu.atoms, SUP), a, nu.weights, direct


def test_reduced_lp_failed_pass_widens_margin(monkeypatch):
    import sdot.solver as solver_mod

    C, a, nu_w, direct = _widening_instance()
    sp, real = solver_mod._lp_stack()
    calls = []

    def fail_first(*args, **kwargs):
        res = real(*args, **kwargs)
        calls.append(res.success)
        if len(calls) == 1:
            res.success, res.message = False, "forced failure"
        return res

    monkeypatch.setattr(solver_mod, "_lp_stack", lambda: (sp, fail_first))
    value, _, cert = solver_mod._reduced_transport_value_phi(C, a, nu_w)
    assert len(calls) == 2
    assert cert["passes"] == 2
    # the second pass ran with a doubled margin, which on this instance
    # takes in more boundary rows
    assert cert["boundary"][1][0] > cert["boundary"][0][0] > 0
    assert value == pytest.approx(direct, abs=1e-8)

    # a restricted LP that fails on every one of the 16 passes certifies nothing
    def fail_all(*args, **kwargs):
        res = real(*args, **kwargs)
        calls.append(res.success)
        res.success, res.message = False, "forced failure"
        return res

    calls.clear()
    monkeypatch.setattr(solver_mod, "_lp_stack", lambda: (sp, fail_all))
    with pytest.raises(RuntimeError, match="boundary reduction did not certify"):
        solver_mod._reduced_transport_value_phi(C, a, nu_w)
    assert len(calls) == 16


def test_reduced_lp_open_gap_widens_margin(monkeypatch):
    import sdot.solver as solver_mod

    C, a, nu_w, direct = _widening_instance()
    real = solver_mod._transport_lp
    calls = []

    def overpay_first(*args):
        # the first restricted LP reports a cost above the optimum, as one
        # missing a needed pair would, so its pass fails the gap check
        value, *rest = real(*args)
        calls.append(value)
        return (value + 1.0 if len(calls) == 1 else value, *rest)

    monkeypatch.setattr(solver_mod, "_transport_lp", overpay_first)
    value, _, cert = solver_mod._reduced_transport_value_phi(C, a, nu_w)
    assert len(calls) == 2
    assert cert["passes"] == 2
    assert cert["boundary"][1][0] > cert["boundary"][0][0] > 0
    assert value == pytest.approx(direct, abs=1e-8)


@pytest.mark.parametrize("T", [100, 316])
def test_reference_solves_a_zero_weight_atom(T):
    rng = np.random.default_rng(70)
    nu = DiscreteMeasure(rng.uniform(-1, 1, size=(5, 2)), [0.25, 0.25, 0.25, 0.25, 0.0])
    spec = SamplerSpec("gaussian-standard", d=2, seed=43)
    value, phi, info = finite_sample_reference(spec, nu, SUP, None, T)
    assert info["reduced"] is (T == 316)
    X = draw(spec, 10 * T)
    a = np.full(10 * T, 1 / (10 * T))
    assert value == pytest.approx(exact_discrete_ot(DiscreteMeasure(X, a), nu, SUP)[0], abs=1e-8)
    psi = np.max(phi[None, :] - cost_matrix(X, nu.atoms, SUP), axis=1)
    assert nu.weights @ phi - a @ psi == pytest.approx(value, abs=1e-12)
    assert abs(phi.mean()) <= 1e-12


@pytest.mark.parametrize("m", [300, 2000, 4000])
@pytest.mark.parametrize("n", [1, 2, 7])
@pytest.mark.parametrize("cost", [SUP, SQ], ids=["sup", "sq"])
@pytest.mark.parametrize("sample", ["gaussian", "repeated"])
def test_reduced_lp_entropic_pilot_certifies(m, n, cost, sample):
    import sdot.solver as solver_mod

    rng = np.random.default_rng(1000 * m + 10 * n + (sample == "repeated"))
    if sample == "gaussian":
        X = rng.standard_normal((m, 2))
    else:
        # an empirical sample on 40 support points: exact cost ties
        X = rng.uniform(-1, 1, size=(40, 2))[rng.integers(0, 40, size=m)]
    a = np.full(m, 1 / m)
    nu = random_measure(rng, n, 2)
    direct = exact_discrete_ot(DiscreteMeasure(X, a), nu, cost)[0]
    value, phi, cert = solver_mod._reduced_transport_value_phi(
        cost_matrix(X, nu.atoms, cost), a, nu.weights)
    assert value == pytest.approx(direct, abs=1e-8)
    psi = np.max(phi[None, :] - cost_matrix(X, nu.atoms, cost), axis=1)
    assert nu.weights @ phi - a @ psi == pytest.approx(value, abs=1e-12)
    assert abs(phi.mean()) <= 1e-12
    assert cert["gap"] <= 1e-6 * max(1.0, abs(value))
    assert cert["passes"] == len(cert["boundary"]) <= 16


@pytest.mark.parametrize("kw, field", [({"T": 0}, "T"), ({"T": 2.5}, "T"),
                                       ({"T": 5, "multiplier": 0}, "multiplier"),
                                       ({"T": 5, "multiplier": True}, "multiplier")])
def test_reference_rejects_a_T_or_multiplier_below_one(kw, field):
    nu = DiscreteMeasure(np.array([[0.0, 0.0], [1.0, 1.0]]), np.full(2, 0.5))
    spec = SamplerSpec("gaussian-standard", d=2, seed=1)
    with pytest.raises(ValueError, match=f"^{field} must be an integer of at least 1"):
        finite_sample_reference(spec, nu, SUP, None, **kw)


def test_reference_direct_lp_reports_gap():
    rng = np.random.default_rng(69)
    nu = random_measure(rng, 4, 2)
    spec = SamplerSpec("gaussian-standard", d=2, seed=42)
    value, _, info = finite_sample_reference(spec, nu, SUP, None, 20)
    assert info["reduced"] is False
    assert abs(info["gap"]) <= 1e-9 * max(1.0, abs(value))
    assert "passes" not in info and "tikhonov" not in info


# -------------------------------------------------------------- newton

def test_newton_rejects_bisection_models():
    # the finite-sample dual of a bisection kind needs an accuracy eps
    rng = np.random.default_rng(52)
    nu = random_measure(rng, 3, 2)
    model = MarginalModel("hyperbolic", 0.5, np.full(3, 1 / 3))
    with pytest.raises(ValueError, match="needs a positive accuracy eps"):
        newton_on_sample(cost_matrix(rng.normal(size=(5, 2)), nu.atoms, SUP), np.full(5, 0.2),
                         nu.weights, model)


def test_newton_symmetric_instance():
    pts = np.array([[-1.0], [1.0]])
    nu = DiscreteMeasure(pts, np.full(2, 0.5))
    model = MarginalModel("exponential", 0.5, np.full(2, 0.5))
    phi, info = newton_on_sample(cost_matrix(pts, nu.atoms, SQ), np.full(2, 0.5), nu.weights,
                                 model)
    assert info["grad_norm"] <= 1e-7
    assert abs(phi[0] - phi[1]) <= 1e-6
    assert abs(phi.mean()) <= 1e-12


def test_newton_single_atom_value():
    rng = np.random.default_rng(53)
    pts = rng.normal(size=(6, 2))
    nu = DiscreteMeasure(np.zeros((1, 2)), np.ones(1))
    model = MarginalModel("exponential", 0.5, np.array([1.0]))
    phi, info = newton_on_sample(cost_matrix(pts, nu.atoms, SQ), np.full(6, 1 / 6), nu.weights,
                                 model)
    ref = cost_matrix(pts, nu.atoms, SQ).mean()
    assert info["value"] == pytest.approx(ref, abs=1e-10)


def test_newton_primal_dual_gap():
    rng = np.random.default_rng(54)
    for kind, lam in (("exponential", 0.4), ("uniform", 0.4)):
        pts = rng.uniform(-1, 1, size=(5, 2))
        w = np.full(5, 0.2)
        nu = random_measure(rng, 4, 2)
        model = MarginalModel(kind, lam, np.full(4, 0.25))
        phi, info = newton_on_sample(cost_matrix(pts, nu.atoms, SUP), w, nu.weights, model)
        assert info["grad_norm"] <= 1e-7
        C = cost_matrix(pts, nu.atoms, SUP)
        from sdot.noise import probs_from_utilities
        P = np.array([probs_from_utilities(phi - C[j], model) for j in range(5)])
        primal = sum(w[j] * (P[j] @ C[j] + discrete_f_divergence(model, P[j]))
                     for j in range(5))
        colsum = P.T @ w
        # exact algebraic identity for the gap, then the headline bound
        assert primal - info["value"] == pytest.approx(phi @ (colsum - nu.weights), abs=1e-9)
        assert abs(primal - info["value"]) <= 1e-4


def test_newton_between_plain_value_and_bound():
    rng = np.random.default_rng(55)
    pts = rng.uniform(-1, 1, size=(6, 2))
    w = np.full(6, 1 / 6)
    nu = random_measure(rng, 4, 2)
    mu = DiscreteMeasure(pts, w)
    plain, _, _, _ = exact_discrete_ot(mu, nu, SQ)
    for kind in ("exponential", "uniform"):
        model = MarginalModel(kind, 0.6, np.full(4, 0.25))
        _, info = newton_on_sample(cost_matrix(pts, nu.atoms, SQ), w, nu.weights, model)
        assert info["value"] >= plain - 1e-8
        assert info["value"] <= plain + approximation_bound(model) + 1e-8


def _random_small_instances(count):
    rng = np.random.default_rng(105)
    for _ in range(count):
        m, n = int(rng.integers(2, 40)), int(rng.integers(1, 12))
        pts = rng.uniform(-1, 1, size=(m, 2))
        w = rng.uniform(0.2, 1.0, m)
        nu = random_measure(rng, n, 2)
        lam = float(rng.choice([0.01, 0.05, 0.2, 1.0]))
        eta = rng.uniform(0.2, 1.0, n)
        yield pts, w / w.sum(), nu, lam, eta / eta.sum()


def test_newton_certifies_random_small_instances():
    for pts, w, nu, lam, eta in _random_small_instances(100):
        for kind in ("exponential", "uniform"):
            phi, info = newton_on_sample(cost_matrix(pts, nu.atoms, SUP), w, nu.weights,
                                         MarginalModel(kind, lam, eta))
            assert info["grad_norm"] <= 1e-7
            assert np.all(np.isfinite(phi))


@pytest.mark.parametrize("kind", ["exponential", "uniform"])
def test_blocked_newton_evaluation_matches_unblocked_formula(kind):
    # one Newton evaluation sums the gradient and the Hessian over row
    # blocks; against the whole-sample formula from the full P, at every
    # block-edge size, only the summation order may differ
    from sdot.noise import _ROW_BLOCK as B
    from sdot.noise import averaged_choice_jacobian, utilities_values_probs
    rng = np.random.default_rng(56)
    n = 10
    nu = random_measure(rng, n, 2)
    model = MarginalModel(kind, 0.1, np.full(n, 1 / n))
    for m in (1, B - 1, B, B + 1, 3 * B + 7):
        C = cost_matrix(rng.normal(size=(m, 2)), nu.atoms, SUP)
        w = rng.uniform(0.2, 1.0, m)
        w /= w.sum()
        phi = rng.normal(scale=0.3, size=n)
        value, grad, H = solver._finite_dual(phi, C, w, nu.weights, model, hessian=True)
        vals, P = utilities_values_probs(C, model, phi=phi)
        P = np.ascontiguousarray(P.T)  # the atom-major block of all rows
        assert value == pytest.approx(float(nu.weights @ phi) - float(w @ vals), rel=1e-12)
        np.testing.assert_allclose(grad, nu.weights - P @ w, rtol=1e-12)
        np.testing.assert_allclose(H, averaged_choice_jacobian(P, w, model), rtol=1e-12)
        if m <= B:  # one block: the same bits as the whole-sample formula
            assert np.array_equal(H, averaged_choice_jacobian(P, w, model))
            assert np.array_equal(grad, nu.weights - P @ w)
        assert solver._finite_dual(phi, C, w, nu.weights, model)[2] is None


def test_newton_raises_at_iteration_cap(monkeypatch):
    monkeypatch.setattr(solver, "_NEWTON_MAX_ITER", 1)
    pts, w, nu, _, _ = next(_random_small_instances(1))
    model = MarginalModel("exponential", 0.05, np.full(nu.n_atoms, 1 / nu.n_atoms))
    with pytest.raises(RuntimeError, match="stopped after 1 steps at gradient norm"):
        newton_on_sample(cost_matrix(pts, nu.atoms, SUP), w, nu.weights, model)


def test_newton_raises_when_the_damping_overflows():
    # a concave quadratic's gradient and Hessian, but a value that falls at
    # every evaluation: no step is accepted, so mu grows fourfold per step
    # and passes 1e20 long before the step budget
    calls = itertools.count()

    def evaluate(phi):
        return -float(next(calls)), np.ones(2) - phi, np.eye(2)

    with pytest.raises(RuntimeError, match="stopped after 34 steps at gradient norm"):
        damped_newton(evaluate, 2)
    assert solver._NEWTON_MAX_ITER > 34


def test_newton_iterations_on_gating_instance():
    path = Path(__file__).resolve().parents[1] / "demos" / "convergence_config.json"
    cfg = ExperimentConfig.from_json(json.loads(path.read_text()))
    for tag, model in cfg.models:
        if model is None:
            continue
        _, _, info = finite_sample_reference(cfg.sampler, cfg.measure, cfg.cost, model, 1000)
        assert info["method"] == "newton"
        assert info["grad_norm"] <= 1e-7
        assert info["iterations"] <= 10, tag


@pytest.mark.parametrize("nu_w, eta, lam", [
    (np.full(10, 0.1), np.full(10, 0.1), 0.1),
    (np.arange(1.0, 11.0) ** 2 / 385.0, np.full(10, 0.1), 0.1),
    (np.arange(1.0, 11.0) ** 2 / 385.0, np.arange(10.0, 0.0, -1.0) / 55.0, 0.2),
])
def test_entropic_newton_is_the_share_inversion_fixed_point(nu_w, eta, lam):
    # at the optimum the mean choice probabilities s(phi) = nu - g equal
    # the shares nu, so the logit's phi* is Berry's share inversion, which
    # the BLP contraction phi <- phi + lam (log nu - log s(phi)) solves
    # without Newton. Newton stops at |g| <= 1e-7, which leaves phi* within
    # |g| / mu of the optimum (mu: the least curvature off the gauge), 3.7e-7
    # on the skewed nu; one more Newton step from phi* must land on the
    # contraction's fixed point
    atom_rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(16)))
    nu = DiscreteMeasure(atom_rng.uniform(-1.0, 1.0, size=(10, 2)), nu_w)
    model = MarginalModel("exponential", lam, eta)
    spec = SamplerSpec("gaussian-standard", d=2, seed=0)
    T = 1000
    _, phi_star, info = finite_sample_reference(spec, nu, SUP, model, T)
    assert info["method"] == "newton"
    C = cost_matrix(draw(spec, 10 * T), nu.atoms, SUP)
    w = np.full(10 * T, 1.0 / (10 * T))
    phi = np.zeros(10)
    for steps in range(1, 2001):
        _, g, _ = solver._finite_dual(phi, C, w, nu.weights, model)
        phi = phi + lam * (np.log(nu.weights) - np.log(nu.weights - g))
        if math.sqrt(g @ g) < 1e-12:
            break
    assert steps < 2000
    phi -= phi.mean()
    _, g, H = solver._finite_dual(phi_star, C, w, nu.weights, model, hessian=True)
    mu = np.linalg.eigvalsh(H)[1]  # H's least eigenvalue, 0, is the gauge's
    assert np.abs(phi - phi_star).max() <= math.sqrt(g @ g) / mu + 1e-10
    step = np.linalg.solve(H + 1.0 / 10, g)  # damped_newton's system, undamped
    assert np.abs(phi - (phi_star + step - step.mean())).max() <= 1e-10


def test_squared_euclidean_cost_is_invariant_to_padded_dimensions():
    # c = |x - y|^2 with atoms in the first two coordinates is the 2-d
    # cost plus |x_3:|^2, the same for every atom; every transform commutes
    # with that common shift, so values move by its sample mean while phi
    # and the gradient stay. The windows, fixed before the run, are
    # rounding: d float adds on each cost, and 1e-12 on values of about 50
    # at d = 50 (ulp 7e-15); the hyperbolic gradient may also differ by
    # two bisection accuracies. The LP's phi is not compared: its optimum
    # is a face, and the vertex it returns may move with d
    rng = np.random.default_rng(21)
    points = rng.normal(size=(400, 50))
    atoms = rng.uniform(-1.0, 1.0, size=(10, 2))
    expo = MarginalModel("exponential", 0.2, np.full(10, 0.1))
    hyper = MarginalModel("hyperbolic", 0.2, np.full(10, 0.1))
    phi_fixed = rng.normal(scale=0.2, size=10)
    T, m = 100, 1000
    values, phis, grads = [], [], []
    for d in (2, 5, 50):
        spec = SamplerSpec("empirical", points=points[:, :d], weights=np.full(400, 1 / 400),
                           seed=7)
        nu = DiscreteMeasure(np.pad(atoms, ((0, 0), (0, d - 2))), np.full(10, 0.1))
        X = draw(spec, m)
        C = cost_matrix(X, nu.atoms, SQ)
        shift = (X[:, 2:] ** 2).sum(axis=1)
        C2 = C if d == 2 else C2
        assert np.abs(C - shift[:, None] - C2).max() <= d * np.finfo(float).eps * C.max(), d
        value, phi, _ = finite_sample_reference(spec, nu, SQ, expo, T)
        hval, hgrad, _ = solver._finite_dual(phi_fixed, C, np.full(m, 1 / m), nu.weights, hyper,
                                             eps=1e-12)
        lp_value, _, info = finite_sample_reference(spec, nu, SQ, None, T)
        assert info["method"] == "lp" and not info["reduced"]
        values.append(np.array([value, hval, lp_value]) - shift.mean())
        phis.append(phi)
        grads.append(hgrad)
    assert np.abs(np.array(values) - values[0]).max() <= 1e-12
    assert np.abs(np.array(phis) - phis[0]).max() <= 1e-12
    assert np.abs(np.array(grads) - grads[0]).max() <= 2e-12


# ------------------------------------------------------------- reference

def test_reference_unregularized_equals_lp():
    rng = np.random.default_rng(56)
    nu = random_measure(rng, 3, 2)
    spec = SamplerSpec("hypercube-uniform", d=2, seed=60)
    value, phi, info = finite_sample_reference(spec, nu, SQ, None, 30)
    X = draw(spec, 300)
    mu = DiscreteMeasure(X, np.full(300, 1 / 300))
    ref_value, _, _, _ = exact_discrete_ot(mu, nu, SQ)
    assert value == pytest.approx(ref_value, abs=1e-9)
    assert abs(phi.mean()) <= 1e-12
    assert info["samples"] == 300


def test_reference_prefix_discipline():
    spec = SamplerSpec("gaussian-standard", d=2, seed=61)
    assert np.array_equal(draw(spec, 50), draw(spec, 500)[:50])


def test_reference_entropic_sandwich():
    rng = np.random.default_rng(57)
    nu = random_measure(rng, 4, 2)
    spec = SamplerSpec("hypercube-uniform", d=2, seed=62)
    model = MarginalModel("exponential", 0.2, np.full(4, 0.25))
    value, phi, info = finite_sample_reference(spec, nu, SQ, model, 25)
    X = draw(spec, 250)
    mu = DiscreteMeasure(X, np.full(250, 1 / 250))
    plain, _, _, _ = exact_discrete_ot(mu, nu, SQ)
    assert plain - 1e-7 <= value <= plain + approximation_bound(model) + 1e-7
    assert info["grad_norm"] <= 1e-7
    assert abs(phi.mean()) <= 1e-12


def test_reference_bisection_model_long_sgd():
    rng = np.random.default_rng(58)
    nu = random_measure(rng, 3, 2)
    spec = SamplerSpec("hypercube-uniform", d=2, seed=63)
    model = MarginalModel("hyperbolic", 0.5, np.full(3, 1 / 3))
    value, phi, info = finite_sample_reference(spec, nu, SQ, model, 20, eps_bar=0.1)
    assert info["method"] == "sgd-50x"
    assert info["iterations"] == 1000
    X = draw(spec, 200)
    mu = DiscreteMeasure(X, np.full(200, 1 / 200))
    plain, _, _, _ = exact_discrete_ot(mu, nu, SQ)
    assert value <= plain + approximation_bound(model) + 0.05
    assert value >= plain - 0.25


def test_reference_pareto_beyond_q2_runs_long_sgd():
    # q > 2 has no Lipschitz constant, so the long run takes the lipschitz rule
    rng = np.random.default_rng(59)
    nu = random_measure(rng, 3, 2)
    spec = SamplerSpec("hypercube-uniform", d=2, seed=64)
    model = MarginalModel("pareto", 0.5, np.full(3, 1 / 3), q=3.0)
    value, phi, info = finite_sample_reference(spec, nu, SQ, model, 10, eps_bar=0.1)
    assert info["method"] == "sgd-50x"
    assert info["iterations"] == 500
    assert np.isfinite(value) and np.isfinite(info["grad_norm"])
    assert abs(phi.mean()) <= 1e-12


@pytest.mark.parametrize("kind", ["uniform", "exponential"])
def test_reference_and_estimate_hold_few_sample_sized_arrays(kind):
    # 50,000 x 10 sample rows on the gating model: besides the reference's
    # costs C, every temporary of the reference and the estimate is
    # block-sized or one value per row, with the Newton gradient and
    # Hessian summed block by block and the estimate's costs built block by
    # block. Unblocked, the sorted sparsemax held about ten m x n arrays at
    # once, and with P and the Jacobian's two factors held whole, the
    # reference 4.5. One more whole m x n array, a scratch beside C or
    # the estimate's own costs, puts either peak past its bound
    atom_rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(16)))
    nu = DiscreteMeasure(atom_rng.uniform(-1.0, 1.0, size=(10, 2)), np.full(10, 0.1))
    model = MarginalModel(kind, 0.1, np.full(10, 0.1))
    spec = SamplerSpec("gaussian-standard", d=2, seed=0)
    T = 5000
    array_bytes = 10 * T * nu.n_atoms * 8
    tracemalloc.start()
    try:
        _, phi, info = finite_sample_reference(spec, nu, SUP, model, T)
        reference_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        dual_objective_estimate(phi, nu, SUP, model, draw(spec, 10 * T))
        estimate_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert info["method"] == "newton"
    assert reference_peak <= 2.0 * array_bytes, reference_peak / array_bytes
    assert estimate_peak <= 1.5 * array_bytes, estimate_peak / array_bytes


@pytest.mark.parametrize("kind", ["hyperbolic", "tdist"])
def test_bisection_estimate_holds_few_sample_sized_arrays(kind):
    # the estimate alone (the sgd-50x reference is too slow here) on the
    # same 50,000 x 10 rows: the bisection's bracket and buffers are
    # block-sized too, so the peak is the values, block-sized arrays and
    # the model's cached eta operands; a whole m x n cost array would put
    # it past the bound
    atom_rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(16)))
    nu = DiscreteMeasure(atom_rng.uniform(-1.0, 1.0, size=(10, 2)), np.full(10, 0.1))
    model = MarginalModel(kind, 0.1, np.full(10, 0.1))
    spec = SamplerSpec("gaussian-standard", d=2, seed=0)
    T = 5000
    array_bytes = 10 * T * nu.n_atoms * 8
    phi = np.random.default_rng(3).normal(scale=0.1, size=nu.n_atoms)
    X = draw(spec, 10 * T)
    tracemalloc.start()
    try:
        dual_objective_estimate(phi, nu, SUP, model, X)
        estimate_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert estimate_peak <= 1.5 * array_bytes, estimate_peak / array_bytes


def test_sgd_config_step_rules():
    eta = np.full(3, 1 / 3)
    cfg = sgd_config(None, 40, eps_bar=0.3)
    assert (cfg.rule, cfg.eps_bar, cfg.L, cfg.tikhonov) == ("lipschitz", 0.0, None, 1e-8)
    cfg = sgd_config(MarginalModel("exponential", 0.5, eta), 40, eps_bar=0.3)
    assert (cfg.rule, cfg.eps_bar, cfg.L, cfg.tikhonov) == ("smooth", 0.0, 2.0, 0.0)
    model = MarginalModel("hyperbolic", 0.5, eta)
    cfg = sgd_config(model, 40, eps_bar=0.3)
    assert (cfg.rule, cfg.eps_bar, cfg.L) == ("smooth", 0.3, marginal_lipschitz(model))
    cfg = sgd_config(MarginalModel("pareto", 0.5, eta, q=3.0), 40, eps_bar=0.3)
    assert (cfg.rule, cfg.eps_bar, cfg.L) == ("lipschitz", 0.3, None)
    assert cfg.T == 40
