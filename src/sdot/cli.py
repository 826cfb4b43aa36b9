"""Experiment runner and command-line front end.

Drives the convergence study from a JSON config (sampler, target
measure, cost, noise models, T grid, seeds), writes one CSV row per
(model, T, seed) cell, fits log-log slopes, and renders static SVG
panels. Subcommands expose the library operations for one-off use.
"""

import argparse
import hashlib
import json
import math
import resource
import sys
import time
import warnings
from concurrent.futures import ProcessPoolExecutor, as_completed
from contextlib import ExitStack
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .core import (CostSpec, DiscreteMeasure, SamplerSpec, _array, _check_finite_nonnegative,
                   _count, _number, _reject_unknown, _require, derive_seed, draw)
from .hardness import (KnapsackInstance, QuadratureSpec, _search_levels, exact_knapsack_volume,
                       knapsack_volume_via_ot)
from .noise import MarginalModel, _check_utilities, _utilities, _value_probs_row
from .solver import (TIMING_MODES, _direct_lp, _lp_stack, _timed_csv, averaged_sgd,
                     dual_objective_estimate, finite_sample_reference, sgd_config)

CONFIG_VERSION = 1
CSV_HEADER = "model,T,seed,subopt,potgap,ms"
_PANELS = (("subopt", "mean suboptimality"), ("potgap", "mean squared potential gap"))
# what a finished run leaves beside its manifest; a fresh run removes them first
_RUN_OUTPUTS = ("records.csv", "summary.json", "slopes.json",
                *(f"convergence_{field}.svg" for field, _ in _PANELS))


def _write_new(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` as a new file: an old file of that name
    is unlinked, never truncated in place, so a hard link to it keeps its
    bytes. On ext4 (``auto_da_alloc``), truncating a file and writing it
    again forces a flush to disk, tens of ms for a small file; writing a
    new file does not."""
    path.unlink(missing_ok=True)
    path.write_text(text)


# ------------------------------------------------------------------- config

def _resolve_measure(obj, sampler: SamplerSpec) -> DiscreteMeasure:
    if not isinstance(obj, dict):
        raise ValueError("config field 'measure' must be a JSON object")
    if "random_atoms" not in obj:
        return DiscreteMeasure.from_json(obj)
    _reject_unknown(obj, ("random_atoms",), "config field 'measure'")
    ra = obj["random_atoms"]
    count, box, seed = (_require(ra, field, "measure.random_atoms")
                        for field in ("count", "box", "seed"))
    _reject_unknown(ra, ("count", "box", "seed"), "measure.random_atoms")
    ctx = "measure.random_atoms field"
    count = _count(_number(count, f"{ctx} 'count'", integer=True), f"{ctx} 'count'", least=1)
    box = _number(box, f"{ctx} 'box'")
    if not box > 0.0:
        raise ValueError(f"{ctx} 'box' must be positive")
    seed = _count(_number(seed, f"{ctx} 'seed'", integer=True), f"{ctx} 'seed'")
    # the same bits as Generator.uniform(-box, box) on the seed's stream
    cube = SamplerSpec("hypercube-uniform", int(sampler.d), seed)
    return DiscreteMeasure(2.0 * box * draw(cube, count) - box, np.full(count, 1.0 / count))


def _parse_models(entries):
    """(tag, model) pairs of the config's model entries; a model's tag
    defaults to its kind, and ExperimentConfig checks the tags."""
    if not isinstance(entries, list):
        raise ValueError("config field 'models' must be a nonempty list")
    out = []
    for i, entry in enumerate(entries):
        if entry == "none":
            out.append(("none", None))
        elif isinstance(entry, dict):
            model = MarginalModel.from_json(entry)
            out.append((entry.get("tag", model.kind), model))
        else:
            raise ValueError(f"config field 'models' entry {i} must be 'none' or a model object")
    return tuple(out)


def _check_models(models) -> tuple:
    """The (tag, model) pairs as a tuple: nonempty, each model None or a
    MarginalModel, each tag a nonempty string without commas or line
    breaks (a tag is a CSV field and a legend entry), no tag twice."""
    if not isinstance(models, (tuple, list)) or not models:
        raise ValueError("config field 'models' must be a nonempty list")
    tags = set()
    for i, pair in enumerate(models):
        if not (isinstance(pair, (tuple, list)) and len(pair) == 2
                and (pair[1] is None or isinstance(pair[1], MarginalModel))):
            raise ValueError(f"config field 'models' entry {i} must be a (tag, model) pair")
        tag = pair[0]
        if not isinstance(tag, str) or not tag or any(ch in tag for ch in ",\n\r"):
            raise ValueError(f"config field 'models' entry {i} field 'tag' must be a "
                             "nonempty string without commas or line breaks")
        if tag in tags:
            raise ValueError(f"config field 'models' has a duplicate tag '{tag}'")
        tags.add(tag)
    return tuple(tuple(pair) for pair in models)


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """Declarative description of one convergence experiment.

    Parameters
    ----------
    sampler : SamplerSpec
        Source distribution; per-cell streams are derived from its seed.
    measure : DiscreteMeasure
        Target measure (a random-atoms stanza is resolved at parse time).
    cost : CostSpec
        Ground cost.
    models : tuple
        Pairs of (tag, MarginalModel or None), one per series.
    t_grid : tuple of int
        Strictly increasing iteration budgets.
    seeds : tuple of int
        Replication seeds.
    multiplier : int
        Reference sample size as a multiple of T.
    eps_bar : float
        Oracle accuracy budget for kinds without a closed form.
    timing : str
        'zero' writes 0.0 in the CSV ms column so equal configs give
        byte-identical output; 'measured' records wall time.
    out_dir : str
        Default output directory.
    """

    sampler: SamplerSpec
    measure: DiscreteMeasure
    cost: CostSpec
    models: tuple
    t_grid: tuple
    seeds: tuple
    multiplier: int = 10
    eps_bar: float = 0.1
    timing: str = "zero"
    out_dir: str = "results"

    def __post_init__(self):
        object.__setattr__(self, "models", _check_models(self.models))
        for field, least in (("t_grid", 1), ("seeds", 0)):
            values = getattr(self, field)
            if not isinstance(values, (tuple, list)) or not values:
                raise ValueError(f"config field '{field}' must be a nonempty list")
            object.__setattr__(self, field, tuple(
                int(_count(v, f"config field '{field}' entry {i}", least))
                for i, v in enumerate(values)))
        repeated = [s for i, s in enumerate(self.seeds) if s in self.seeds[:i]]
        if repeated:
            raise ValueError(f"config field 'seeds' has a duplicate seed {repeated[0]}")
        if any(b <= a for a, b in zip(self.t_grid, self.t_grid[1:])):
            raise ValueError("config field 't_grid' must be strictly increasing")
        object.__setattr__(self, "multiplier",
                           int(_count(self.multiplier, "config field 'multiplier'", least=1)))
        _check_finite_nonnegative(self.eps_bar, "config field 'eps_bar'")
        if self.timing not in TIMING_MODES:
            raise ValueError(f"config field 'timing' must be one of {TIMING_MODES}")
        if not isinstance(self.out_dir, str):
            raise ValueError("config field 'out_dir' must be a string")

    @classmethod
    def from_json(cls, obj: dict) -> "ExperimentConfig":
        if not isinstance(obj, dict):
            raise ValueError("config must be a JSON object")
        if obj.get("version") != CONFIG_VERSION:
            raise ValueError(f"config field 'version' must be {CONFIG_VERSION}")
        _reject_unknown(obj, {"version", *(f.name for f in fields(cls))}, "config")
        for field in ("sampler", "measure", "cost", "models", "t_grid", "seeds"):
            if field not in obj:
                raise ValueError(f"config is missing field '{field}'")
        sampler = SamplerSpec.from_json(obj["sampler"])
        measure = _resolve_measure(obj["measure"], sampler)
        cost = CostSpec.from_json(obj["cost"])
        models = _parse_models(obj["models"])
        # a JSON list's entries become ints here; anything else fails in the constructor
        t_grid, seeds = ([_number(v, f"config field '{field}' entry {i}", integer=True)
                          for i, v in enumerate(obj[field])]
                         if isinstance(obj[field], list) else obj[field]
                         for field in ("t_grid", "seeds"))
        multiplier = _number(obj.get("multiplier", 10), "config field 'multiplier'", integer=True)
        eps_bar = _number(obj.get("eps_bar", 0.1), "config field 'eps_bar'")
        return cls(sampler, measure, cost, models, t_grid, seeds, multiplier, eps_bar,
                   obj.get("timing", "zero"), obj.get("out_dir", "results"))

    def to_json(self) -> dict:
        entries = []
        for tag, model in self.models:
            if model is None:
                entries.append("none")
            elif tag == model.kind:
                entries.append(model.to_json())
            else:
                entries.append({**model.to_json(), "tag": tag})
        return {
            "version": CONFIG_VERSION,
            "sampler": self.sampler.to_json(),
            "measure": self.measure.to_json(),
            "cost": self.cost.to_json(),
            "models": entries,
            "t_grid": list(self.t_grid),
            "seeds": list(self.seeds),
            "multiplier": self.multiplier,
            "eps_bar": self.eps_bar,
            "timing": self.timing,
            "out_dir": self.out_dir,
        }


def config_hash(config: ExperimentConfig) -> str:
    blob = json.dumps(config.to_json(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclass(frozen=True)
class ConvergenceRecord:
    """One experiment cell: how far a run of length T landed from the
    finite-sample optimum, in value (subopt) and in potential (potgap)."""

    model: str
    T: int
    seed: int
    subopt: float
    potgap: float
    ms: float

    def __post_init__(self):
        if self.potgap < 0.0:
            raise ValueError("potgap must be nonnegative")
        _count(self.T, "T", least=1)


def records_to_csv(records, timing: str = "zero") -> str:
    return _timed_csv(CSV_HEADER, ((f"{r.model},{r.T},{r.seed},{repr(float(r.subopt))},"
                                    f"{repr(float(r.potgap))}", r.ms) for r in records), timing)


# ------------------------------------------------------------------- runner

def _cell_sampler(config: ExperimentConfig, T: int, seed: int) -> SamplerSpec:
    # all models in a (T, seed) cell share one sample path
    return replace(config.sampler, seed=derive_seed(config.sampler.seed, T, seed))


def _peak_rss_mb() -> float:
    """Peak resident memory of this process so far (ru_maxrss is KB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _reference_half(config: ExperimentConfig, model, T: int, seed: int) -> dict:
    """The reference half of a cell: the finite-sample optimum's ``value``
    and potential ``phi``, the reference's ``info`` with its seconds ``s``,
    and the peak memory ``rss_mb`` of the process that ran it."""
    t0 = time.perf_counter()
    value, phi, info = finite_sample_reference(
        _cell_sampler(config, T, seed), config.measure, config.cost, model, T,
        eps_bar=config.eps_bar, multiplier=config.multiplier)
    return {"value": value, "phi": phi, "info": {**info, "s": time.perf_counter() - t0},
            "rss_mb": _peak_rss_mb()}


def _sgd_half(config: ExperimentConfig, model, T: int, seed: int) -> dict:
    """The SGD half of a cell: the run's dual ``estimate`` on the reference
    sample, its mean-zero averaged potential ``gauge``, the ``sgd_s`` and
    ``estimate_s`` seconds, and the peak memory ``rss_mb`` of the process
    that ran it."""
    spec = _cell_sampler(config, T, seed)
    nu, c = config.measure, config.cost
    t0 = time.perf_counter()
    under_avg, bar_avg, _ = averaged_sgd(spec, nu, c, model, sgd_config(model, T, config.eps_bar))
    # continuity clause: without a model, suboptimality is stated at the under-average
    phi_out = under_avg if model is None else bar_avg
    t_est = time.perf_counter()
    estimate, _ = dual_objective_estimate(phi_out, nu, c, model,
                                          draw(spec, config.multiplier * T))
    return {"estimate": estimate, "gauge": bar_avg - bar_avg.mean(), "sgd_s": t_est - t0,
            "estimate_s": time.perf_counter() - t_est, "rss_mb": _peak_rss_mb()}


def _pair_halves(tag: str, T: int, seed: int, reference: dict, sgd: dict):
    """One cell's record from its two halves, and its stage seconds for the
    manifest: ``sgd_s``, ``estimate_s``, the reference's ``info`` with its
    seconds ``s``, and ``rss_mb``, the larger of the two halves' process
    peaks. The record's ``ms`` is the sum of the three stages."""
    info = reference["info"]
    stages = {"sgd_s": sgd["sgd_s"], "estimate_s": sgd["estimate_s"], "reference": info,
              "rss_mb": max(reference["rss_mb"], sgd["rss_mb"])}
    ms = (sgd["sgd_s"] + sgd["estimate_s"] + info["s"]) * 1000.0
    return ConvergenceRecord(tag, T, seed, float(reference["value"] - sgd["estimate"]),
                             float(np.sum((sgd["gauge"] - reference["phi"]) ** 2)), ms), stages


def _manifest_line(rec: ConvergenceRecord, stages: dict) -> str:
    return json.dumps({"model": rec.model, "T": rec.T, "seed": rec.seed,
                       "subopt": rec.subopt, "potgap": rec.potgap, "ms": rec.ms,
                       **stages}, sort_keys=True)


# a reference is certified when its LP gap or gradient norm is at most this
_CERT_TOL = 1e-6


def _summary(records, stages: dict) -> dict:
    """What a run directory says about its cells at a glance: the slowest
    cell with its slowest stage, the cell with the largest peak memory
    ``rss_mb``, and every cell whose reference is not certified. Cells
    resumed from a manifest without stage timings count only in
    ``cells``, and those without ``rss_mb`` are not ranked by it."""
    timed = [(r, stages[(r.model, r.T, r.seed)]) for r in records
             if (r.model, r.T, r.seed) in stages]
    slowest = None
    if timed:
        rec, st = max(timed, key=lambda pair: pair[0].ms)
        stage_s = {"sgd": st["sgd_s"], "reference": st["reference"]["s"],
                   "estimate": st["estimate_s"]}
        stage = max(stage_s, key=stage_s.get)
        slowest = {"model": rec.model, "T": rec.T, "seed": rec.seed, "ms": rec.ms,
                   "stage": stage, "stage_s": stage_s[stage],
                   "method": st["reference"]["method"]}
    largest_rss = None
    sized = [(rec, st) for rec, st in timed if "rss_mb" in st]
    if sized:
        rec, st = max(sized, key=lambda pair: pair[1]["rss_mb"])
        largest_rss = {"model": rec.model, "T": rec.T, "seed": rec.seed, "rss_mb": st["rss_mb"]}
    uncertified = []
    for rec, st in timed:
        info = st["reference"]
        residual = info.get("gap", info.get("grad_norm"))
        if residual is None or not abs(residual) <= _CERT_TOL:
            uncertified.append({"model": rec.model, "T": rec.T, "seed": rec.seed,
                                "method": info["method"], "residual": residual})
    return {"cells": len(records), "slowest": slowest, "largest_rss": largest_rss,
            "certificate_tol": _CERT_TOL, "uncertified": uncertified}


def _progress(done: int, total: int, rec: ConvergenceRecord, stages: dict) -> str:
    ref = stages["reference"]
    return (f"[{done}/{total}] {rec.model} T={rec.T} seed={rec.seed}: {rec.ms / 1000.0:.3f} s "
            f"(sgd {stages['sgd_s']:.3f}, reference {ref['method']} {ref['s']:.3f}, "
            f"estimate {stages['estimate_s']:.3f})")


def run_convergence_experiment(config: ExperimentConfig, out_dir=None,
                               workers: int = 1, resume: bool = False):
    """Run every (model, T, seed) cell and write records.csv and summary.json.

    Parameters
    ----------
    config : ExperimentConfig
        What to run; all randomness derives from its seeds.
    out_dir : path-like, optional
        Output directory (defaults to the config's own).
    workers : int
        Process count for independent tasks, at least 1; 1 runs inline,
        and a pool starts no more processes than there are tasks.
    resume : bool
        Reuse finished cells from an existing manifest.jsonl written by
        an interrupted run of the same config, and keep the directory's
        outputs until new ones replace them. Without it, the run first
        removes the manifest and what a finished run leaves beside it
        (records.csv, summary.json, slopes.json and the convergence SVGs),
        so an interrupted run leaves only its own manifest.

    Returns
    -------
    (records, csv_path)
        Records in canonical order (config model order, then T, then
        seed) and the path of the CSV they were written to.

    Each cell runs as two independent tasks, its reference and its SGD
    run with the estimate, the reference submitted first. Cells are
    submitted longest first (Graham's list scheduling): cells whose
    reference is the direct transport LP, then descending T, config order
    breaking ties. That shortens the tail a first-in, first-out pool
    leaves when a long task starts last, but does not remove it: a
    worker idles once no task is left to take. Inline, the same tasks
    run in the same order. A cell is paired when both halves are in,
    appended to manifest.jsonl with its SGD and estimate seconds (``sgd_s``,
    ``estimate_s``), a ``reference`` object (the reference's method,
    certificate and seconds) and the larger peak memory of the processes
    that ran its halves (``rss_mb``), and reported in one progress line
    on stderr; so a failed run leaves a resumable, diagnosable trail.
    With records.csv goes summary.json, which names the slowest cell, its
    slowest stage, the cell with the largest ``rss_mb``, every cell
    whose reference is not certified, and this invocation's schedule:
    ``wall_s`` from the first submission to the last pairing, the
    ``workers`` it used (1 inline) and ``busy_s``, the sum of its cells'
    stage seconds, so ``workers * wall_s - busy_s`` is the workers' idle
    time. Both are written as new files (:func:`_write_new`), as is the
    manifest of a fresh run.
    """
    _count(workers, "workers", least=1)
    out = Path(out_dir) if out_dir is not None else Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    digest = config_hash(config)
    manifest = out / "manifest.jsonl"
    done, stages = {}, {}
    if resume and manifest.exists():
        lines = manifest.read_text().splitlines()
        if not lines or json.loads(lines[0]).get("config_hash") != digest:
            raise ValueError("manifest in the output directory belongs to a different config")
        for line in lines[1:]:
            d = json.loads(line)
            key = (d["model"], d["T"], d["seed"])
            done[key] = ConvergenceRecord(*key, d["subopt"], d["potgap"], d["ms"])
            if all(k in d for k in ("sgd_s", "estimate_s", "reference")):
                stages[key] = d
        mode = "a"
    else:
        # a fresh run starts from an empty record: an interrupted one must
        # not leave its manifest beside a previous run's outputs
        for name in ("manifest.jsonl", *_RUN_OUTPUTS):
            (out / name).unlink(missing_ok=True)
        mode = "w"
    cells = [(tag, model, T, seed)
             for tag, model in config.models
             for T in config.t_grid
             for seed in config.seeds]
    pending = [cell for cell in cells if (cell[0], cell[2], cell[3]) not in done]
    # longest first: direct-LP references, then descending T; sorted() is
    # stable, so config order breaks ties
    n_atoms = config.measure.n_atoms
    pending.sort(key=lambda cell: (not _direct_lp(cell[1], config.multiplier * cell[2], n_atoms),
                                   -cell[2]))
    tasks = [task for cell in pending for task in (
        ("reference", _reference_half, cell), ("sgd", _sgd_half, cell))]
    with manifest.open(mode) as mf:
        if mode == "w":
            mf.write(json.dumps({"config_hash": digest, "version": CONFIG_VERSION}) + "\n")
            mf.flush()
        with ExitStack() as stack:
            # summary.json's wall_s runs from the first submission to the last pairing
            if workers == 1 or not pending:
                used, t0 = 1, time.perf_counter()
                results = ((name, cell, half(config, *cell[1:])) for name, half, cell in tasks)
            else:
                if any(cell[1] is None for cell in pending):
                    # forked workers inherit the parent's modules: import the
                    # LP stack once here, not once in each worker
                    _lp_stack()
                used = min(workers, len(tasks))
                pool = stack.enter_context(ProcessPoolExecutor(max_workers=used))
                # on a failure, drop the tasks not yet started
                stack.callback(pool.shutdown, cancel_futures=True)
                t0 = time.perf_counter()
                futures = {pool.submit(half, config, *cell[1:]): (name, cell)
                           for name, half, cell in tasks}
                results = (futures[fut] + (fut.result(),) for fut in as_completed(futures))
            halves, busy_s = {}, 0.0
            for name, (tag, _, T, seed), result in results:
                key = (tag, T, seed)
                parts = halves.setdefault(key, {})
                parts[name] = result
                if len(parts) < 2:
                    continue
                rec, cell_stages = _pair_halves(*key, **halves.pop(key))
                done[key], stages[key] = rec, cell_stages
                busy_s += rec.ms / 1000.0
                mf.write(_manifest_line(rec, cell_stages) + "\n")
                mf.flush()
                print(_progress(len(done), len(cells), rec, cell_stages), file=sys.stderr)
            run = {"wall_s": time.perf_counter() - t0, "workers": used, "busy_s": busy_s}
    records = [done[(tag, T, seed)] for tag, _, T, seed in cells]
    csv_path = out / "records.csv"
    _write_new(csv_path, records_to_csv(records, timing=config.timing))
    summary = {**_summary(records, stages), **run}
    _write_new(out / "summary.json", json.dumps(summary, indent=2) + "\n")
    return records, csv_path


# -------------------------------------------------------------------- slope

def _positive_means(records, field):
    """``(T, mean)`` pairs in increasing T for the Ts whose mean ``field``
    over ``records`` is positive, and the list of the other Ts."""
    by_t = {}
    for r in records:
        by_t.setdefault(r.T, []).append(float(getattr(r, field)))
    means = [(T, float(np.mean(by_t[T]))) for T in sorted(by_t)]
    positive = [(T, m) for T, m in means if m > 0.0]
    return positive, [T for T, m in means if not m > 0.0]


def fit_slope(records, field: str = "subopt"):
    """Least-squares slope of log mean value against log T.

    Parameters
    ----------
    records : list of ConvergenceRecord
        Must all carry the same model tag.
    field : str
        'subopt' or 'potgap'.

    Returns
    -------
    (slope, r2)

    T values whose mean is nonpositive are dropped with a warning; at
    least three distinct T values must survive.
    """
    tags = {r.model for r in records}
    if len(tags) != 1:
        raise ValueError("fit_slope needs records from exactly one model")
    pts, dropped = _positive_means(records, field)
    for T in dropped:
        warnings.warn(f"dropping nonpositive mean {field} at T={T}")
    if len(pts) < 3:
        raise ValueError("need at least 3 distinct T values with positive means")
    x = np.log(np.asarray([T for T, _ in pts], dtype=float))
    y = np.log(np.asarray([mean for _, mean in pts]))
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    total = y - y.mean()
    ss_tot = float(total @ total)
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float(resid @ resid) / ss_tot
    return float(slope), float(r2)


# -------------------------------------------------------------------- plots

_PALETTE = ("#1b6ca8", "#c0392b", "#1e8449", "#8e44ad", "#d68910", "#17202a")
_X0, _X1, _Y0, _Y1 = 70.0, 610.0, 40.0, 430.0


def _fmt(v: float) -> str:
    return f"{v:.3f}"


def _text(x, y, s, anchor="middle", size=11, color="#333333", extra=""):
    return (f'<text x="{_fmt(x)}" y="{_fmt(y)}" text-anchor="{anchor}" '
            f'font-family="sans-serif" font-size="{size}" fill="{color}"{extra}>{s}</text>')


def _series_for_panel(records, field):
    order = []
    for r in records:
        if r.model not in order:
            order.append(r.model)
    series, dropped = [], []
    for tag in order:
        pts, _ = _positive_means([r for r in records if r.model == tag], field)
        if pts:
            series.append((tag, pts))
        else:
            dropped.append(tag)
    return series, dropped


def _svg_log_panel(series, title, ylabel) -> str:
    xs = [t for _, pts in series for t, _ in pts]
    ys = [v for _, pts in series for _, v in pts]
    xlo, xhi = math.floor(math.log10(min(xs))), math.ceil(math.log10(max(xs)))
    ylo, yhi = math.floor(math.log10(min(ys))), math.ceil(math.log10(max(ys)))
    if xhi == xlo:
        xhi = xlo + 1
    if yhi == ylo:
        yhi = ylo + 1

    def px(v):
        return _X0 + (math.log10(v) - xlo) / (xhi - xlo) * (_X1 - _X0)

    def py(v):
        return _Y1 - (math.log10(v) - ylo) / (yhi - ylo) * (_Y1 - _Y0)

    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="640" height="480" viewBox="0 0 640 480">',
        '<rect x="0" y="0" width="640" height="480" fill="#ffffff"/>',
        _text(0.5 * (_X0 + _X1), 24.0, title, size=15, color="#111111"),
    ]
    for k in range(xlo, xhi + 1):
        x = px(10.0 ** k)
        parts.append(f'<line x1="{_fmt(x)}" y1="{_fmt(_Y0)}" x2="{_fmt(x)}" y2="{_fmt(_Y1)}" '
                     'stroke="#dddddd" stroke-width="1"/>')
        parts.append(_text(x, 452.0, f"1e{k}"))
    for k in range(ylo, yhi + 1):
        y = py(10.0 ** k)
        parts.append(f'<line x1="{_fmt(_X0)}" y1="{_fmt(y)}" x2="{_fmt(_X1)}" y2="{_fmt(y)}" '
                     'stroke="#dddddd" stroke-width="1"/>')
        parts.append(_text(62.0, y + 4.0, f"1e{k}", anchor="end"))
    parts.append(f'<rect x="{_fmt(_X0)}" y="{_fmt(_Y0)}" width="{_fmt(_X1 - _X0)}" '
                 f'height="{_fmt(_Y1 - _Y0)}" fill="none" stroke="#333333" stroke-width="1"/>')
    for i, (tag, pts) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        coords = " ".join(f"{_fmt(px(t))},{_fmt(py(v))}" for t, v in pts)
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.8" points="{coords}"/>')
        for t, v in pts:
            parts.append(f'<circle cx="{_fmt(px(t))}" cy="{_fmt(py(v))}" r="3" fill="{color}"/>')
        ly = _Y0 + 16.0 + 18.0 * i
        lx = _X1 - 150.0
        parts.append(f'<line x1="{_fmt(lx)}" y1="{_fmt(ly - 4.0)}" x2="{_fmt(lx + 26.0)}" '
                     f'y2="{_fmt(ly - 4.0)}" stroke="{color}" stroke-width="2.5"/>')
        parts.append(_text(lx + 32.0, ly, tag, anchor="start", size=12))
    parts.append(_text(0.5 * (_X0 + _X1), 472.0, "T"))
    parts.append(_text(16.0, 0.5 * (_Y0 + _Y1), ylabel,
                       extra=f' transform="rotate(-90 {_fmt(16.0)} {_fmt(0.5 * (_Y0 + _Y1))})"'))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_plots(records, out_dir):
    """Write log-log SVG panels (subopt vs T, potgap vs T), one series
    per model, each as a new file (:func:`_write_new`). Returns the list
    of written paths; panels or series with no positive means are omitted
    with a printed notice, and an omitted panel's old SVG is removed."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for field, ylabel in _PANELS:
        path = out / f"convergence_{field}.svg"
        series, dropped = _series_for_panel(records, field)
        for tag in dropped:
            print(f"plot panel '{field}': series '{tag}' omitted (no positive means)")
        if not series:
            print(f"plot panel '{field}' omitted: no positive means to plot")
            path.unlink(missing_ok=True)  # no stale panel beside the new ones
            continue
        _write_new(path, _svg_log_panel(series, f"convergence: {field} vs T", ylabel))
        paths.append(str(path))
    return paths


# ---------------------------------------------------------------------- CLI

def _load_input(path: str, known=None):
    """The JSON at ``path`` (``-`` reads stdin); with ``known``, an object
    whose fields are all among them."""
    raw = sys.stdin.read() if path == "-" else Path(path).read_text()
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ValueError(f"input is not valid JSON: {exc}") from exc
    if known is not None:
        if not isinstance(obj, dict):
            raise ValueError("input must be a JSON object")
        _reject_unknown(obj, known, "input")
    return obj


def _problem(obj):
    """The input's target measure, cost and model (None when absent or null)."""
    nu = DiscreteMeasure.from_json(_require(obj, "measure"))
    c = CostSpec.from_json(_require(obj, "cost"))
    entry = obj.get("model")
    return nu, c, None if entry is None else MarginalModel.from_json(entry)


def _print_json(obj):
    print(json.dumps(obj, indent=2))


def _cmd_probs(args) -> int:
    obj = _load_input(args.infile, ("model", "u"))
    model = MarginalModel.from_json(_require(obj, "model"))
    u = _check_utilities(_array(_require(obj, "u"), "input field 'u'"), model.n)
    value, p = _value_probs_row(u, model, args.eps)
    _print_json({"p": p.tolist(), "value": value})
    return 0


def _cmd_transform(args) -> int:
    obj = _load_input(args.infile, ("measure", "cost", "model", "phi", "x"))
    nu, c, model = _problem(obj)
    phi, x = (_array(_require(obj, field), f"input field '{field}'") for field in ("phi", "x"))
    value, p = _value_probs_row(_utilities(phi, x, nu, c), model, args.eps)
    _print_json({"value": value, "p": p.tolist()})
    return 0


def _cmd_solve(args) -> int:
    obj = _load_input(args.infile, ("sampler", "measure", "cost", "model", "solver"))
    spec = SamplerSpec.from_json(_require(obj, "sampler"))
    nu, c, model = _problem(obj)
    sd = _require(obj, "solver")
    T = _number(_require(sd, "T", "input field 'solver'"), "solver field 'T'", integer=True)
    _reject_unknown(sd, ("T", "eps_bar", "log_every"), "input field 'solver'")
    every, field = sd.get("log_every"), "solver field 'log_every'"
    if every is not None:  # a JSON integer, as T is: 2.0 is 2
        every = _count(_number(every, field, integer=True), field, least=1)
    # the step rule is the model's, as in every experiment cell
    config = sgd_config(model, T, _number(sd.get("eps_bar", 0.1), "solver field 'eps_bar'"))
    _, _, trace = averaged_sgd(spec, nu, c, model, replace(config, log_every=every))
    csv = trace.to_csv(timing=args.timing)
    if args.out is None:
        sys.stdout.write(csv)
    else:
        _write_new(Path(args.out), csv)
    return 0


def _cmd_reference(args) -> int:
    obj = _load_input(args.infile,
                      ("sampler", "measure", "cost", "model", "T", "eps_bar", "multiplier"))
    spec = SamplerSpec.from_json(_require(obj, "sampler"))
    nu, c, model = _problem(obj)
    value, phi, info = finite_sample_reference(
        spec, nu, c, model, _number(_require(obj, "T"), "input field 'T'", integer=True),
        eps_bar=_number(obj.get("eps_bar", 0.1), "input field 'eps_bar'"),
        multiplier=_number(obj.get("multiplier", 10), "input field 'multiplier'", integer=True))
    _print_json({"value": float(value), "phi": phi.tolist(), "info": info})
    return 0


def _cmd_volume(args) -> int:
    obj = _load_input(args.infile, ("w", "b", "p", "delta", "quadrature"))
    inst = KnapsackInstance(_array(_require(obj, "w"), "input field 'w'"),
                            _number(_require(obj, "b"), "input field 'b'"),
                            p=_number(obj.get("p", 2.0), "input field 'p'"))
    delta = _number(_require(obj, "delta"), "input field 'delta'")
    qd = _require(obj, "quadrature")
    kind = _require(qd, "kind", "input field 'quadrature'")
    _reject_unknown(qd, ("kind", "m", "n", "seed"), "input field 'quadrature'")
    # an absent or null count or seed stays unset; QuadratureSpec says which it needs
    m, n, seed = (None if qd.get(k) is None
                  else _number(qd[k], f"quadrature field '{k}'", integer=True)
                  for k in ("m", "n", "seed"))
    quad = QuadratureSpec(kind, m=m, n=n, seed=seed)
    t_hat = knapsack_volume_via_ot(inst, delta, quad)
    exact = exact_knapsack_volume(inst)
    calls = 2 * _search_levels(delta)
    qstr = (f"grid:m={quad.m}" if quad.kind == "grid"
            else f"monte-carlo:n={quad.n}:seed={quad.seed}")
    wstr = " ".join(repr(float(v)) for v in inst.w)
    print("w,b,exact_volume,t_hat,delta,quadrature,oracle_calls")
    print(f"{wstr},{repr(inst.b)},{'' if exact is None else repr(exact)},"
          f"{repr(float(t_hat))},{repr(delta)},{qstr},{calls}")
    return 0


def _cmd_experiment(args) -> int:
    config = ExperimentConfig.from_json(_load_input(args.config))
    out_dir = args.out if args.out is not None else config.out_dir
    records, csv_path = run_convergence_experiment(
        config, out_dir=out_dir, workers=args.workers, resume=args.resume)
    slopes = {}
    for tag, _ in config.models:
        subset = [r for r in records if r.model == tag]
        entry = {}
        for field, _label in _PANELS:
            try:
                slope, r2 = fit_slope(subset, field=field)
                entry[field] = {"slope": slope, "r2": r2}
            except ValueError:
                entry[field] = None
        slopes[tag] = entry
    out = Path(out_dir)
    _write_new(out / "slopes.json", json.dumps(slopes, indent=2) + "\n")
    emit_plots(records, out)
    print(f"wrote {len(records)} records to {csv_path}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="sdot", description="semi-discrete transport toolkit command line")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("probs", help="choice probabilities for a utility vector")
    p.add_argument("--in", dest="infile", default="-", help="input JSON path, - for stdin")
    p.add_argument("--eps", type=float, default=1e-9,
                   help="accuracy for model kinds solved by bisection")
    p.set_defaults(func=_cmd_probs)

    p = sub.add_parser("transform", help="smoothed transform value at one point")
    p.add_argument("--in", dest="infile", default="-")
    p.add_argument("--eps", type=float, default=1e-9,
                   help="accuracy for model kinds solved by bisection")
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("solve", help="averaged stochastic ascent, trace CSV out")
    p.add_argument("--in", dest="infile", default="-")
    p.add_argument("--timing", choices=TIMING_MODES, default="zero",
                   help="zero the wall-time column for reproducible output")
    p.add_argument("--out", default=None, help="write the CSV here instead of stdout")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("reference", help="finite-sample reference value and potential")
    p.add_argument("--in", dest="infile", default="-")
    p.set_defaults(func=_cmd_reference)

    p = sub.add_parser("volume", help="knapsack polytope volume via transport")
    p.add_argument("--in", dest="infile", default="-")
    p.set_defaults(func=_cmd_volume)

    p = sub.add_parser("experiment", help="run a convergence experiment from a config")
    p.add_argument("--config", required=True, help="experiment config JSON path")
    p.add_argument("--out", default=None, help="output directory override")
    p.add_argument("--workers", type=int, default=1, help="parallel cell workers")
    p.add_argument("--resume", action="store_true",
                   help="reuse finished cells from an existing manifest")
    p.set_defaults(func=_cmd_experiment)
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
