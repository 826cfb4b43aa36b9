"""Averaged stochastic gradient ascent on the semi-dual, compared against
a finite-sample reference solved exactly.

A small instance keeps the run under a minute: 10 random atoms, standard
Gaussian source, sup-norm cost, T = 2000 iterations. The entropic model
uses the smoothness step rule (its marginal CDFs are Lipschitz), the
unregularized run uses the generic bounded-gradient rule.

Run: python3 demos/solver_convergence.py
"""

import numpy as np

from sdot.core import CostSpec, DiscreteMeasure, SamplerSpec, draw
from sdot.noise import MarginalModel
from sdot.solver import (
    averaged_sgd,
    dual_objective_estimate,
    finite_sample_reference,
    sgd_config,
)

atom_rng = np.random.default_rng(1)
atoms = atom_rng.uniform(-1.0, 1.0, size=(10, 2))
nu = DiscreteMeasure(atoms, np.full(10, 0.1))
cost = CostSpec("sup-norm")
spec = SamplerSpec("gaussian-standard", 2, seed=42)
T = 2000

for label, model in (
    ("unregularized", None),
    ("entropic, lambda=0.1", MarginalModel("exponential", 0.1, np.full(10, 0.1))),
):
    under, bar, trace = averaged_sgd(spec, nu, cost, model, sgd_config(model, T))
    phi_out = under if model is None else bar

    value, phi_star, _ = finite_sample_reference(spec, nu, cost, model, T,
                                                 eps_bar=0.1, multiplier=10)
    X = draw(spec, 10 * T)
    estimate, stderr = dual_objective_estimate(phi_out, nu, cost, model, X)
    gauge = bar - bar.mean()
    gap = float(np.sum((gauge - phi_star) ** 2))

    print(f"=== {label} ===")
    print(f"reference dual value (10x sample, exact): {value:+.6f}")
    print(f"SGD averaged iterate, estimated value:    {estimate:+.6f}"
          f" (stderr {stderr:.1e})")
    print(f"suboptimality: {value - estimate:.6f}")
    print(f"squared potential gap to reference:       {gap:.6f}")
    print("checkpoints (iteration, estimated dual value at running average):")
    for row in trace.rows:
        avg = row.under_avg if model is None else row.bar_avg
        v, _ = dual_objective_estimate(avg, nu, cost, model, X)
        print(f"  t={row.t:5d}  {v:+.6f}  (gap to reference {value - v:.6f})")
    print()
