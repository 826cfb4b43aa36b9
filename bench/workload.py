"""One workload process of the sdot benchmark.

``bench/run.py`` starts this file in a fresh interpreter with BLAS and
OpenMP pinned to one thread. It builds the workload's inputs from the
seed, runs it, checks every output and writes a JSON result file:

    python3 bench/workload.py --workload grid-none --seed 0 --seconds 30 \
        --trace 0 --result .bench_out/result.json
    python3 bench/workload.py --workload oneshot --seed 0 --setup-only

The grid workloads run the user's command, ``sdot experiment``, through
``sdot.cli.main`` with two workers. ``oneshot`` makes one-shot library
calls from this process. Each workload makes a fixed number of calls.
With ``--trace 1`` the process runs one call of the workload untraced,
then replays it serially from public calls with a span around each call
into ``core``, ``noise``, ``solver``, ``hardness`` and ``cli``, and
checks that the replay reproduces the untraced outputs bit for bit.

Only names that the README quick start, the demos or the command line
use are imported from ``sdot``, so refactors of private helpers never
need to touch this file.
"""

import time

SETUP_T0 = time.perf_counter()  # set-up time includes importing sdot

import argparse
import contextlib
import json
import math
import os
import resource
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np
import scipy

from sdot import cli, core, hardness, noise, solver

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

# BLAS threads are pinned, and never more cell workers than cores.
WORKERS = max(1, min(2, os.cpu_count() or 1))

CLOSED_FORM = ("exponential", "uniform")
EPS_BAR = 0.1
MULTIPLIER = 10

# The reference maximises the same finite dual the estimate is evaluated
# on, so a cell's suboptimality may undershoot zero only by the
# reference's own accuracy (LP gap 1e-6, AGD gradient 1e-7).
SUBOPT_TOL = 1e-6
# A cell disagrees with its golden copy when subopt or potgap is off by
# more than this share of the golden value. It admits a more accurate
# reference: a certified solver moves the bisection potgap by a few
# percent.
GOLDEN_RTOL = 0.10
GOLDEN_ATOL = 1e-9
# One-shot potentials: the closed forms and the plain subgradient are
# exact, so only rounding may move them. A bisection oracle may move each
# probability by its accuracy eps_bar / (2 sqrt(t)); with step
# 1 / (2 sqrt(T)) that drifts a potential by at most
# sum_t eps_bar / (2 sqrt(t)) / (2 sqrt(T)) <= eps_bar / 2.
PHI_TOL_EXACT = 1e-6
PHI_TOL_BISECTION = EPS_BAR / 2.0
# certified reference: LP, or a reported gradient residual at most this
CERT_GRAD = 1e-6

# Target measure of demos/convergence_config.json: its random_atoms
# stanza (count 10, box 1, seed 16) drawn the way the CLI draws it, and
# written out so the experiment and the replay share the same atoms.
_ATOM_RNG = np.random.Generator(np.random.Philox(np.random.SeedSequence(16)))
ATOMS = _ATOM_RNG.uniform(-1.0, 1.0, size=(10, 2))
ETA = [0.1] * 10


def _model(kind, tag, **extra):
    return {"kind": kind, "lambda": 0.1, "eta": ETA, "tag": tag, **extra}


# Why each workload exists is in bench/README.md and BENCHMARK.json.
# A run makes "calls" experiment calls with "seeds" cell seeds each. Call
# r uses cell seeds r*seeds .. (r+1)*seeds - 1, so every run covers the
# same cells. The counts are sized so a run's calls take 15 to 20 s on a
# 2-core Xeon.
GRIDS = {
    "grid-none": {"models": ["none"], "t_grid": [100, 316, 1000], "seeds": 1, "calls": 6},
    "grid-smooth": {"models": [_model("exponential", "entropic"), _model("uniform", "chi2")],
                    "t_grid": [1000, 3162, 10000], "seeds": 1, "calls": 3},
    "grid-bisection": {"models": [_model("hyperbolic", "hyperbolic")],
                       "t_grid": [10, 32, 100], "seeds": 1, "calls": 6},
}

# (tag, model kind or None, extra model fields, iterations)
ONESHOT_SGD = (
    ("none", None, {}, 10_000),
    ("exponential", "exponential", {}, 10_000),
    ("uniform", "uniform", {}, 10_000),
    ("hyperbolic", "hyperbolic", {}, 1_000),
    ("tdist", "tdist", {}, 1_000),
    ("pareto", "pareto", {"q": 1.5}, 1_000),
)
# (name, w, b, quadrature); the first three are the demo's instances
ONESHOT_VOLUMES = (
    ("line-1d", [2.0], 0.6, {"kind": "grid", "m": 400}),
    ("square-2d-a", [1.0, 1.0], 1.0, {"kind": "grid", "m": 400}),
    ("square-2d-b", [2.0, 1.0], 1.0, {"kind": "grid", "m": 400}),
    ("grid-3d", [1.0, 2.0, 3.0], 2.0, {"kind": "grid", "m": 40}),
    ("mc-5d", [1.0] * 5, 2.5, {"kind": "monte-carlo", "n": 50_000}),
)
VOLUME_DELTA = 1e-3
# one-shot passes per run, about 16 s on the same Xeon
ONESHOT_PASSES = 5

SGD_KINDS = ("none", "exponential", "uniform", "hyperbolic", "tdist", "pareto")
BISECTION_KINDS = ("hyperbolic", "tdist", "pareto")
BATCH_EPS = (("1e-3", 1e-3), ("1e-6", 1e-6), ("1e-12", 1e-12))
REF_METHODS = ("lp", "lp-reduced", "agd", "sgd-50x")


# ------------------------------------------------------------------ inputs

def _kind(model):
    return "none" if model is None else model.kind


def sgd_config(model, T):
    """The solver settings an experiment cell uses for this model."""
    if model is None:
        # continuity clause: suboptimality is stated at the under-average
        return solver.SolverConfig(T=T, rule="lipschitz", eps_bar=0.0, tikhonov=1e-8)
    eps_bar = 0.0 if model.kind in CLOSED_FORM else EPS_BAR
    lips = noise.marginal_lipschitz(model)
    rule = "smooth" if lips is not None else "lipschitz"
    return solver.SolverConfig(T=T, rule=rule, eps_bar=eps_bar, L=lips)


class Inputs:
    """Everything a workload run needs, built from the seed alone."""

    def __init__(self, workload, seed, out):
        self.seed, self.out = seed, out
        self.nu = core.DiscreteMeasure(ATOMS, np.full(ATOMS.shape[0], 0.1))
        self.cost = core.CostSpec("sup-norm")
        out.mkdir(parents=True, exist_ok=True)
        if workload == "oneshot":
            self._oneshot()
            return
        if workload == "gating":
            self.config = json.loads((ROOT / "demos" / "convergence_config.json").read_text())
        else:
            g = GRIDS[workload]
            self.config = {
                "version": 1,
                "sampler": {"kind": "gaussian-standard", "d": 2, "seed": seed},
                "measure": {"atoms": ATOMS.tolist(), "weights": [0.1] * ATOMS.shape[0]},
                "cost": {"kind": "sup-norm"},
                "models": g["models"],
                "t_grid": g["t_grid"],
                "multiplier": MULTIPLIER,
                "eps_bar": EPS_BAR,
            }
        self.sampler_seed = int(self.config["sampler"]["seed"])
        self.models = [("none", None) if m == "none" else
                       (m.get("tag", m["kind"]), noise.MarginalModel.from_json(m))
                       for m in self.config["models"]]
        if workload == "gating":
            self.calls = [self.write_call(self.config["seeds"])]
        else:
            k = GRIDS[workload]["seeds"]
            self.calls = [self.write_call(range(r * k, (r + 1) * k))
                          for r in range(GRIDS[workload]["calls"])]

    def write_call(self, seeds):
        """Write the config of one experiment call over these cell seeds.
        Returns (config path, cells as (tag, model, T, cell seed))."""
        seeds = list(seeds)
        config = {**self.config, "seeds": seeds, "timing": "measured",
                  "out_dir": str(self.out / "experiment")}
        path = self.out / f"config-{seeds[0]}.json"
        path.write_text(json.dumps(config, indent=1))
        return path, [(tag, model, T, s) for tag, model in self.models
                      for T in config["t_grid"] for s in seeds]

    def _oneshot(self):
        self.sgd = []
        for k, (tag, kind, extra, T) in enumerate(ONESHOT_SGD):
            model = None if kind is None else noise.MarginalModel(kind, 0.1, np.array(ETA), **extra)
            spec = core.SamplerSpec("gaussian-standard", d=2, seed=core.derive_seed(self.seed, k))
            self.sgd.append((tag, model, spec, sgd_config(model, T)))
        self.volumes = []
        for name, w, b, quad in ONESHOT_VOLUMES:
            if quad["kind"] == "monte-carlo":
                quad = {**quad, "seed": self.seed}
            self.volumes.append((name, hardness.KnapsackInstance(np.array(w), b),
                                 hardness.QuadratureSpec(**quad)))


# ----------------------------------------------------------------- tracing

class Tracer:
    """Spans kept in memory as (name, attributes, seconds)."""

    def __init__(self):
        self.spans = []

    @contextlib.contextmanager
    def span(self, name, **attrs):
        t0 = time.perf_counter()
        try:
            yield attrs
        finally:
            self.spans.append((name, attrs, time.perf_counter() - t0))

    def select(self, name, **match):
        """(attributes, seconds) of the spans with this name and attributes."""
        return [(attrs, dur) for n, attrs, dur in self.spans if n == name
                and all(attrs.get(k) == v for k, v in match.items())]

    def total(self, name, **match):
        return sum(dur for _, dur in self.select(name, **match))


class _NoTrace:
    @contextlib.contextmanager
    def span(self, name, **attrs):
        yield attrs


NO_TRACE = _NoTrace()


# ------------------------------------------------------------------- checks

def _golden():
    return json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}


def _off(value, golden):
    return abs(value - golden) > GOLDEN_RTOL * abs(golden) + GOLDEN_ATOL


def check_cell(rec, golden):
    """Problems with one experiment record; an empty list passes."""
    subopt, potgap = rec["subopt"], rec["potgap"]
    if not (math.isfinite(subopt) and math.isfinite(potgap)):
        return ["non-finite subopt or potgap"]
    problems = []
    if potgap < 0.0:
        problems.append(f"potgap {potgap!r} < 0")
    if subopt < -SUBOPT_TOL:
        problems.append(f"subopt {subopt!r} < -{SUBOPT_TOL}")
    ref = golden.get(f"{rec['model']},{rec['T']},{rec['seed']}")
    if ref is not None and (_off(subopt, ref[0]) or _off(potgap, ref[1])):
        problems.append(f"(subopt, potgap) = ({subopt!r}, {potgap!r}), golden {ref}")
    return problems


# -------------------------------------------------------------------- grids

def _read_records(out):
    """Records of a finished run from records.csv; of an interrupted one
    from the cells its manifest logged."""
    csv = out / "records.csv"
    if csv.exists():
        lines = csv.read_text().splitlines()[1:]
        recs = []
        for line in lines:
            model, T, seed, subopt, potgap, ms = line.split(",")
            recs.append({"model": model, "T": int(T), "seed": int(seed),
                         "subopt": float(subopt), "potgap": float(potgap), "ms": float(ms)})
        return recs
    manifest = out / "manifest.jsonl"
    if not manifest.exists():
        return []
    return [json.loads(line) for line in manifest.read_text().splitlines()[1:]]


def run_grid_once(inp, call, golden):
    """One ``sdot experiment`` call.

    Returns (wall_s, records, failed) where ``failed`` maps each failed
    cell, as "model T=.. seed=..", to what went wrong.
    """
    config_path, cells = call
    out = inp.out / "experiment"
    for stale in ("records.csv", "manifest.jsonl"):
        (out / stale).unlink(missing_ok=True)
    argv = ["experiment", "--config", str(config_path), "--out", str(out),
            "--workers", str(WORKERS)]
    error = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sys.stderr):
            rc = cli.main(argv)
        if rc != 0:
            error = f"sdot experiment exited with code {rc}"
    except Exception as exc:  # a library failure ends the call; count its cells
        error = f"sdot experiment raised {exc!r}"
    wall = time.perf_counter() - t0
    records = _read_records(out)
    failed = {}
    done = {(r["model"], r["T"], r["seed"]) for r in records}
    for tag, _, T, seed in cells:
        if (tag, T, seed) not in done:
            failed[_cell_name(tag, T, seed)] = f"unfinished: {error}"
    for r in records:
        bad = check_cell(r, golden)
        if bad:
            failed[_cell_name(r["model"], r["T"], r["seed"])] = "; ".join(bad)
    return wall, records, failed


def _cell_name(tag, T, seed):
    return f"{tag} T={T} seed={seed}"


def replay_cell(tr, inp, model, T, seed):
    """Rebuild one experiment cell from public calls, spans around each."""
    nu, c = inp.nu, inp.cost
    child = core.derive_seed(inp.sampler_seed, T, seed)
    spec = core.SamplerSpec("gaussian-standard", d=2, seed=child)
    with tr.span("solver.averaged_sgd", kind=_kind(model), T=T):
        under, bar, _ = solver.averaged_sgd(spec, nu, c, model, sgd_config(model, T))
    phi_out = under if model is None else bar
    with tr.span("solver.finite_sample_reference") as attrs:
        value, phi_star, info = solver.finite_sample_reference(
            spec, nu, c, model, T, eps_bar=EPS_BAR, multiplier=MULTIPLIER)
        attrs.update(method=info["method"] + ("-reduced" if info.get("reduced") else ""),
                     iterations=info.get("iterations"), grad_norm=info.get("grad_norm"))
    with tr.span("core.draw"):
        X = core.draw(spec, MULTIPLIER * T)
    with tr.span("solver.dual_objective_estimate"):
        estimate, _ = solver.dual_objective_estimate(phi_out, nu, c, model, X)
    gauge = bar - bar.mean()
    return float(value - estimate), float(np.sum((gauge - phi_star) ** 2))


def _past_deadline(start, seconds, done, planned):
    """True, with a note, when ``seconds`` have passed before the run's
    fixed work is done. It is an outer limit only: the work is sized to
    end well within it, so every run measures the same inputs."""
    if time.perf_counter() - start <= seconds:
        return False
    print(f"deadline of {seconds} s reached after {done} of {planned} calls", file=sys.stderr)
    return True


def grid_e2e(inp, seconds, golden):
    """The workload's fixed experiment calls; median call time, which a
    call that meets a slow cell or a slow moment of the machine does not
    move."""
    walls, attempted, failed = [], 0, {}
    start = time.perf_counter()
    for call in inp.calls:
        if walls and _past_deadline(start, seconds, len(walls), len(inp.calls)):
            break
        wall, _, bad = run_grid_once(inp, call, golden)
        print(f"call over cell seeds {call[1][0][3]}..: {wall:.3f} s", file=sys.stderr)
        walls.append(wall)
        attempted += len(call[1])
        failed.update(bad)
    return {"wall_s": statistics.median(walls)}, attempted, failed


def grid_trace(inp, golden):
    call = inp.calls[0]
    wall, records, failed = run_grid_once(inp, call, golden)
    by_key = {(r["model"], r["T"], r["seed"]): r for r in records}
    tr = Tracer()
    mismatched = 0
    t0 = time.perf_counter()
    for tag, model, T, seed in call[1]:
        name = _cell_name(tag, T, seed)
        try:
            subopt, potgap = replay_cell(tr, inp, model, T, seed)
        except Exception as exc:  # count the cell as failed and replay the rest
            failed[name] = f"replay raised {exc!r}"
            continue
        rec = by_key.get((tag, T, seed))
        if rec is not None and (rec["subopt"], rec["potgap"]) != (subopt, potgap):
            mismatched += 1
            failed[name] = (f"replay gave ({subopt!r}, {potgap!r}), "
                            f"the run wrote ({rec['subopt']!r}, {rec['potgap']!r})")
    replay_s = time.perf_counter() - t0
    if records:
        recs = [cli.ConvergenceRecord(r["model"], r["T"], r["seed"], r["subopt"],
                                      r["potgap"], r["ms"]) for r in records]
        with tr.span("cli.report"):
            for tag, _ in inp.models:
                for field in ("subopt", "potgap"):
                    with contextlib.suppress(ValueError):
                        cli.fit_slope([r for r in recs if r.model == tag], field=field)
            with contextlib.redirect_stdout(sys.stderr):
                cli.emit_plots(recs, inp.out / "plots")
    cell_s = [r["ms"] / 1000.0 for r in records] or [0.0]
    busy = sum(cell_s)
    layers = {
        "cli.cell_s.p50": statistics.median(cell_s),
        "cli.cell_s.max": max(cell_s),
        "cli.cell_busy_s": busy,
        "cli.worker_idle_s": WORKERS * wall - busy,
        "cli.report_s": tr.total("cli.report"),
        "trace.overhead": replay_s / busy if busy > 0 else 0.0,
        "trace.replay_mismatch": mismatched,
    }
    layers.update(reference_layers(tr))
    layers.update(stage_layers(tr))
    kinds = {_kind(m) for _, m in inp.models}
    layers.update(micro_layers(tr, inp, kinds))
    return layers, len(call[1]), failed


# ------------------------------------------------------------------ oneshot

def oneshot_pass(tr, inp):
    """Every one-shot call once. Returns {name: output, or the exception
    the call raised}."""
    outputs = {}
    nu, c = inp.nu, inp.cost
    for tag, model, spec, cfg in inp.sgd:
        with tr.span("solver.averaged_sgd", kind=tag, T=cfg.T):
            try:
                under, bar, _ = solver.averaged_sgd(spec, nu, c, model, cfg)
                outputs[f"sgd.{tag}"] = under if model is None else bar
            except Exception as exc:  # a failed call is counted, not fatal
                outputs[f"sgd.{tag}"] = exc
    for name, inst, quad in inp.volumes:
        with tr.span("hardness.knapsack_volume_via_ot", instance=name):
            try:
                outputs[f"volume.{name}"] = hardness.knapsack_volume_via_ot(
                    inst, VOLUME_DELTA, quad)
            except Exception as exc:
                outputs[f"volume.{name}"] = exc
    return outputs


def check_oneshot(inp, outputs, golden):
    """Map each failed one-shot call to what went wrong."""
    problems = {k: f"raised {v!r}" for k, v in outputs.items() if isinstance(v, Exception)}
    for tag, model, _, _ in inp.sgd:
        if f"sgd.{tag}" in problems:
            continue
        phi = np.asarray(outputs[f"sgd.{tag}"])
        ref = golden.get(f"sgd.{tag}")
        tol = PHI_TOL_EXACT if model is None or model.kind in CLOSED_FORM else PHI_TOL_BISECTION
        if not np.all(np.isfinite(phi)):
            problems[f"sgd.{tag}"] = "non-finite potential"
        elif ref is not None and float(np.max(np.abs(phi - np.asarray(ref)))) > tol:
            problems[f"sgd.{tag}"] = f"potential off its golden copy by more than {tol}"
    for name, inst, _ in inp.volumes:
        if f"volume.{name}" in problems:
            continue
        v = outputs[f"volume.{name}"]
        exact = hardness.exact_knapsack_volume(inst)
        ref = golden.get(f"volume.{name}")
        if not math.isfinite(v):
            problems[f"volume.{name}"] = "non-finite volume"
        elif exact is not None and abs(v - exact) > VOLUME_DELTA:
            problems[f"volume.{name}"] = f"volume {v!r} off the exact {exact!r} by more than delta"
        elif ref is not None and abs(v - ref) > VOLUME_DELTA:
            problems[f"volume.{name}"] = f"volume {v!r} off its golden copy {ref!r}"
    return problems


def oneshot_e2e(inp, seconds, golden):
    """The workload's fixed one-shot passes; median pass time."""
    walls, attempted, failed = [], 0, {}
    start = time.perf_counter()
    for _ in range(ONESHOT_PASSES):
        if walls and _past_deadline(start, seconds, len(walls), ONESHOT_PASSES):
            break
        t0 = time.perf_counter()
        outputs = oneshot_pass(NO_TRACE, inp)
        wall = time.perf_counter() - t0
        walls.append(wall)
        attempted += len(outputs)
        failed.update({f"pass {len(walls)} {k}": v
                       for k, v in check_oneshot(inp, outputs, golden).items()})
    return {"wall_s": statistics.median(walls)}, attempted, failed


def oneshot_trace(inp, golden):
    t0 = time.perf_counter()
    plain = oneshot_pass(NO_TRACE, inp)
    wall = time.perf_counter() - t0
    failed = check_oneshot(inp, plain, golden)
    tr = Tracer()
    t0 = time.perf_counter()
    traced = oneshot_pass(tr, inp)
    traced_s = time.perf_counter() - t0
    mismatched = [k for k in plain if k not in failed
                  and not np.array_equal(plain[k], traced[k])]
    failed.update({k: "replay differs from the untraced call" for k in mismatched})
    layers = {"trace.overhead": traced_s / wall, "trace.replay_mismatch": len(mismatched)}
    layers.update(stage_layers(tr))
    for name, *_ in ONESHOT_VOLUMES:
        layers[f"hardness.knapsack_volume_via_ot.s.{name}"] = tr.total(
            "hardness.knapsack_volume_via_ot", instance=name)
    name, inst, quad = inp.volumes[1]
    with tr.span("hardness.wc_two_point", instance=name):
        hardness.wc_two_point(inst, 0.5, quad)
    layers["hardness.wc_two_point.ms"] = 1000.0 * tr.total("hardness.wc_two_point")
    kinds = {_kind(m) for _, m, _, _ in inp.sgd}
    layers.update(micro_layers(tr, inp, kinds))
    return layers, len(plain), failed


# ------------------------------------------------------------ layer metrics

def reference_layers(tr):
    spans = tr.select("solver.finite_sample_reference")
    durs = [dur for _, dur in spans]
    out = {"solver.finite_sample_reference.s": sum(durs),
           "solver.finite_sample_reference.max_s": max(durs, default=0.0)}
    for method in REF_METHODS:
        sel = tr.select("solver.finite_sample_reference", method=method)
        out[f"solver.finite_sample_reference.{method}.s"] = sum(dur for _, dur in sel)
        out[f"solver.finite_sample_reference.{method}.calls"] = len(sel)
    out["solver.finite_sample_reference.agd.iterations"] = sum(
        attrs["iterations"] or 0 for attrs, _ in tr.select("solver.finite_sample_reference",
                                                           method="agd"))
    # a reference that raised has no method and counts as uncertified
    norms = [attrs.get("grad_norm") for attrs, _ in spans]
    certified = sum(1 for (attrs, _), g in zip(spans, norms)
                    if attrs.get("method", "").startswith("lp")
                    or (g is not None and g <= CERT_GRAD))
    out["solver.finite_sample_reference.certified_frac"] = certified / len(spans) if spans else 0.0
    out["solver.finite_sample_reference.grad_norm.max"] = max(
        (g for g in norms if g is not None), default=0.0)
    return out


def stage_layers(tr):
    out = {"solver.averaged_sgd.s": tr.total("solver.averaged_sgd"),
           "solver.dual_objective_estimate.s": tr.total("solver.dual_objective_estimate"),
           "core.draw.s": tr.total("core.draw")}
    for kind in SGD_KINDS:
        sel = tr.select("solver.averaged_sgd", kind=kind)
        iters = sum(attrs["T"] for attrs, _ in sel)
        out[f"solver.averaged_sgd.us_per_iter.{kind}"] = (
            1e6 * sum(dur for _, dur in sel) / iters if iters else 0.0)
    return out


def _best_time(fn, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def micro_layers(tr, inp, kinds):
    """Kernel timings on fixed inputs, one per model kind in the workload."""
    nu, c = inp.nu, inp.cost
    X = core.draw(core.SamplerSpec("gaussian-standard", d=2, seed=inp.seed), 100_000)
    rows = X.shape[0] / 1000.0
    phi = np.zeros(nu.n_atoms)
    out = {}
    with tr.span("core.cost_matrix"):
        out["core.cost_matrix.us_per_krow"] = 1e6 * _best_time(
            lambda: core.cost_matrix(X, nu.atoms, c), 5) / rows
    for kind in sorted(kinds - {"none"}):
        model = noise.MarginalModel(kind, 0.1, np.array(ETA), q=1.5 if kind == "pareto" else None)
        single = 200 if kind in BISECTION_KINDS else 2000
        with tr.span("noise.choice_probabilities", kind=kind):
            t0 = time.perf_counter()
            for i in range(single):
                noise.choice_probabilities(phi, X[i], nu, c, model, eps=1e-6)
            out[f"noise.choice_probabilities.us.{kind}"] = 1e6 * (time.perf_counter() - t0) / single
        if kind in BISECTION_KINDS:
            for label, eps in BATCH_EPS:
                with tr.span("noise.batch", kind=kind, eps=eps):
                    t = _best_time(lambda: solver.dual_objective_estimate(phi, nu, c, model, X,
                                                                          eps=eps), 1)
                out[f"noise.batch.us_per_krow.{kind}.eps{label}"] = 1e6 * t / rows
        else:
            with tr.span("noise.batch", kind=kind):
                t = _best_time(lambda: solver.dual_objective_estimate(phi, nu, c, model, X), 3)
            out[f"noise.batch.us_per_krow.{kind}"] = 1e6 * t / rows
    return out


# --------------------------------------------------------------------- gating

def gating(inp):
    """The gating experiment once: wall time, cell times, cell-seconds per model."""
    wall, records, failed = run_grid_once(inp, inp.calls[0], {})
    cell_s = [r["ms"] / 1000.0 for r in records] or [0.0]
    e2e = {"wall_s": wall, "cell_s.mean": statistics.mean(cell_s), "cell_s.max": max(cell_s),
           "cell_s.sum": sum(cell_s)}
    for tag, _ in inp.models:
        e2e[f"cell_s.sum.{tag}"] = sum(r["ms"] / 1000.0 for r in records if r["model"] == tag)
    return e2e, len(inp.calls[0][1]), failed


# ----------------------------------------------------------------------- main

def _peak_rss_mb():
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (self_kb + child_kb) / 1024.0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(GRIDS) + ["oneshot", "gating"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=str(ROOT / ".bench_out" / "work"))
    ap.add_argument("--result", default=None, help="write the result JSON here")
    ap.add_argument("--setup-only", action="store_true",
                    help="build the inputs, print the set-up seconds and exit")
    args = ap.parse_args(argv)

    inp = Inputs(args.workload, args.seed, Path(args.out))
    setup_s = time.perf_counter() - SETUP_T0
    if args.setup_only:
        print(repr(setup_s))
        return 0

    golden = _golden().get(args.workload, {}).get(str(args.seed), {})
    if args.workload == "gating":
        metrics, attempted, failed = gating(inp)
    elif args.workload == "oneshot":
        if args.trace:
            metrics, attempted, failed = oneshot_trace(inp, golden)
        else:
            metrics, attempted, failed = oneshot_e2e(inp, args.seconds, golden)
    elif args.trace:
        metrics, attempted, failed = grid_trace(inp, golden)
    else:
        metrics, attempted, failed = grid_e2e(inp, args.seconds, golden)
    metrics["peak_rss_mb"] = _peak_rss_mb()
    result = {"attempted": attempted, "failed": len(failed),
              "problems": [f"{k}: {v}" for k, v in failed.items()],
              "golden_checked": bool(golden), "metrics": metrics,
              "versions": {"numpy": np.__version__, "scipy": scipy.__version__}}
    text = json.dumps(result)
    if args.result:
        Path(args.result).write_text(text)
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
