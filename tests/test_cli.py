"""Experiment runner and command-line surface.

The runner is exercised on miniature configurations so every invariant
(cardinality, ordering, determinism, resume) is checked end to end in
seconds. Golden SVG fixtures live in tests/data/.
"""

import json
import math
import os
import re
import subprocess
import sys
import warnings
from concurrent.futures import Future
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from sdot import solver
from sdot.cli import (
    ConvergenceRecord,
    ExperimentConfig,
    config_hash,
    emit_plots,
    fit_slope,
    main,
    records_to_csv,
    run_convergence_experiment,
)
from sdot.core import CostSpec, DiscreteMeasure, SamplerSpec
from sdot.noise import MarginalModel, probs_from_utilities, smooth_c_transform
from sdot.solver import averaged_sgd, sgd_config

DATA = Path(__file__).parent / "data"


def tiny_config_dict(**over):
    cfg = {
        "version": 1,
        "sampler": {"kind": "gaussian-standard", "d": 2, "seed": 0},
        "measure": {"random_atoms": {"count": 3, "box": 1.0, "seed": 11}},
        "cost": {"kind": "sup-norm"},
        "models": [
            "none",
            {"kind": "exponential", "lambda": 0.5, "eta": [1 / 3, 1 / 3, 1 / 3]},
        ],
        "t_grid": [10, 20, 40],
        "seeds": [0, 1],
        "multiplier": 2,
    }
    cfg.update(over)
    return cfg


# ------------------------------------------------------------------- config


def test_config_round_trip():
    cfg = ExperimentConfig.from_json(tiny_config_dict())
    again = ExperimentConfig.from_json(cfg.to_json())
    assert cfg.to_json() == again.to_json()
    assert config_hash(cfg) == config_hash(again)


def test_config_hash_ignores_key_order():
    d = tiny_config_dict()
    scrambled = json.loads(json.dumps(d))
    scrambled = dict(reversed(list(scrambled.items())))
    a = ExperimentConfig.from_json(d)
    b = ExperimentConfig.from_json(scrambled)
    assert config_hash(a) == config_hash(b)


@pytest.mark.parametrize(
    "breaker,needle",
    [
        (lambda d: d.pop("sampler"), "sampler"),
        (lambda d: d.pop("measure"), "measure"),
        (lambda d: d.pop("cost"), "cost"),
        (lambda d: d.pop("models"), "models"),
        (lambda d: d.pop("t_grid"), "t_grid"),
        (lambda d: d.pop("seeds"), "seeds"),
        (lambda d: d.update(version=99), "version"),
        (lambda d: d.update(t_grid=[10, 10, 40]), "t_grid"),
        (lambda d: d.update(t_grid=[40, 10]), "t_grid"),
        (lambda d: d.update(seeds=[]), "seeds"),
        (lambda d: d.update(models=[]), "models"),
        (lambda d: d.update(models=["nonsense"]), "models"),
        (lambda d: d.update(timing="fast"), "timing"),
        (lambda d: d.update(multiplier=0), "multiplier"),
        (lambda d: d.update(measure={"random_atoms": {"box": 1.0, "seed": 0}}), "count"),
        (lambda d: d.update(measure=[[0.0, 0.0]]), "'measure' must be a JSON object"),
        (lambda d: d.update(measure={"random_atoms": {"count": 3, "box": 0.0, "seed": 0}}),
         "'box' must be positive"),
        (lambda d: d.update(models={"kind": "exponential"}), "'models' must be a nonempty list"),
    ],
)
def test_config_validation_names_offending_field(breaker, needle):
    d = tiny_config_dict()
    breaker(d)
    with pytest.raises(ValueError, match=needle):
        ExperimentConfig.from_json(d)


@pytest.mark.parametrize("field, value, needle", [
    ("t_grid", (0,), "'t_grid' entry 0 must be an integer of at least 1"),
    ("t_grid", (100, 10), "'t_grid' must be strictly increasing"),
    ("t_grid", (), "'t_grid' must be a nonempty list"),
    ("seeds", (-1,), "'seeds' entry 0 must be an integer of at least 0"),
    ("seeds", (0, 1.5), "'seeds' entry 1 must be an integer"),
    ("multiplier", 0, "'multiplier' must be an integer of at least 1"),
    ("multiplier", 2.0, "'multiplier' must be an integer"),
    ("eps_bar", math.nan, "'eps_bar' must be nonnegative and finite"),
    ("timing", "sometimes", "'timing' must be one of"),
    ("out_dir", None, "'out_dir' must be a string"),
    # a tag with a comma used to write a seven-field row under the six-field
    # header, and no models a records.csv holding the header alone
    ("models", (("a,b", None),), "'models' entry 0 field 'tag' must be a nonempty string"),
    ("models", (), "'models' must be a nonempty list"),
    ("models", (("x", None), ("x", None)), "'models' has a duplicate tag 'x'"),
    ("models", (("x", "exponential"),), "'models' entry 0 must be a (tag, model) pair"),
    ("seeds", (0, 0, 1), "'seeds' has a duplicate seed 0"),
])
def test_config_built_directly_or_by_replace_checks_every_field(tmp_path, field, value, needle):
    # a replaced or directly built config used to skip every check and fail
    # inside a cell, after manifest.jsonl was written, or not at all
    cfg = ExperimentConfig.from_json(tiny_config_dict())
    out = tmp_path / "results"
    with pytest.raises(ValueError, match=re.escape(f"config field {needle}")):
        run_convergence_experiment(replace(cfg, **{field: value}), out_dir=out)
    with pytest.raises(ValueError, match=re.escape(f"config field {needle}")):
        ExperimentConfig(**{**{f.name: getattr(cfg, f.name) for f in fields(cfg)}, field: value})
    assert not out.exists()


@pytest.mark.parametrize("models", [[], [{"kind": "exponential", "lambda": 0.5,
                                           "eta": [1 / 3, 1 / 3, 1 / 3], "tag": "a,b"}]])
def test_experiment_command_rejects_bad_models_before_any_output(tmp_path, models):
    out = tmp_path / "results"
    path = _write_json(tmp_path, "config.json", tiny_config_dict(models=models))
    assert main(["experiment", "--config", path, "--out", str(out)]) == 2
    assert not out.exists()


def test_config_built_directly_stores_plain_int_tuples():
    cfg = ExperimentConfig.from_json(tiny_config_dict())
    again = replace(cfg, t_grid=[10, 20, 40], seeds=[np.int64(0), 1], multiplier=np.int64(2))
    assert again.t_grid == (10, 20, 40) and again.seeds == (0, 1) and again.multiplier == 2
    assert config_hash(again) == config_hash(cfg)


def test_random_atoms_are_deterministic_and_in_box():
    a = ExperimentConfig.from_json(tiny_config_dict())
    b = ExperimentConfig.from_json(tiny_config_dict())
    assert np.array_equal(a.measure.atoms, b.measure.atoms)
    assert a.measure.atoms.shape == (3, 2)
    assert np.all(np.abs(a.measure.atoms) <= 1.0)
    assert np.allclose(a.measure.weights, 1 / 3)
    c = ExperimentConfig.from_json(
        tiny_config_dict(measure={"random_atoms": {"count": 3, "box": 1.0, "seed": 12}})
    )
    assert not np.array_equal(a.measure.atoms, c.measure.atoms)


def test_duplicate_model_tags_rejected():
    d = tiny_config_dict(models=["none", "none"])
    with pytest.raises(ValueError, match="tag"):
        ExperimentConfig.from_json(d)


def test_record_rejects_negative_gap():
    with pytest.raises(ValueError, match="potgap"):
        ConvergenceRecord("none", 10, 0, 0.1, -1e-3, 0.0)


# ------------------------------------------------------------------- runner


def test_experiment_cardinality_and_header(tmp_path):
    cfg = ExperimentConfig.from_json(tiny_config_dict())
    records, csv_path = run_convergence_experiment(cfg, out_dir=tmp_path)
    assert len(records) == 2 * 3 * 2
    lines = Path(csv_path).read_text().splitlines()
    assert lines[0] == "model,T,seed,subopt,potgap,ms"
    assert len(lines) == 13
    for r in records:
        assert r.potgap >= 0.0
        assert math.isfinite(r.subopt)


def test_experiment_rows_follow_config_order(tmp_path):
    cfg = ExperimentConfig.from_json(tiny_config_dict(seeds=[3, 1]))
    records, _ = run_convergence_experiment(cfg, out_dir=tmp_path)
    keys = [(r.model, r.T, r.seed) for r in records]
    want = [
        (tag, T, s)
        for tag in ("none", "exponential")
        for T in (10, 20, 40)
        for s in (3, 1)
    ]
    assert keys == want


def test_experiment_byte_deterministic(tmp_path):
    cfg = ExperimentConfig.from_json(tiny_config_dict())
    _, p1 = run_convergence_experiment(cfg, out_dir=tmp_path / "a")
    _, p2 = run_convergence_experiment(cfg, out_dir=tmp_path / "b")
    assert Path(p1).read_bytes() == Path(p2).read_bytes()


def _manifest_cells(path):
    lines = (path / "manifest.jsonl").read_text().splitlines()[1:]
    return {(d["model"], d["T"], d["seed"]): (d["subopt"], d["potgap"], d["reference"]["method"])
            for d in map(json.loads, lines)}


def test_experiment_workers_match_serial(tmp_path):
    # two pool tasks per cell, finishing in any order, pair into the bytes
    # of the inline run, which feeds the same halves through the same code
    eta = [1 / 3, 1 / 3, 1 / 3]
    smooth = tiny_config_dict(t_grid=[10, 40, 160], models=[
        {"kind": "exponential", "lambda": 0.5, "eta": eta, "tag": "entropic"},
        {"kind": "uniform", "lambda": 0.5, "eta": eta, "tag": "chi2"}])
    for name, cfg in (("plain", tiny_config_dict()), ("smooth", smooth)):
        cfg = ExperimentConfig.from_json(cfg)
        _, p1 = run_convergence_experiment(cfg, out_dir=tmp_path / name / "serial", workers=1)
        _, p2 = run_convergence_experiment(cfg, out_dir=tmp_path / name / "pool", workers=2)
        assert Path(p1).read_bytes() == Path(p2).read_bytes()
        serial = _manifest_cells(tmp_path / name / "serial")
        assert serial == _manifest_cells(tmp_path / name / "pool") and len(serial) == 12


def _fail_fourth_sgd_half(monkeypatch):
    """Make the fourth cell's SGD half raise, after its reference half
    finished."""
    import sdot.cli as cli_mod

    real = cli_mod._sgd_half
    calls = {"n": 0}

    def flaky(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] == 4:
            raise RuntimeError("injected failure")
        return real(*args, **kwargs)

    monkeypatch.setattr(cli_mod, "_sgd_half", flaky)


def test_resume_after_failure_matches_uninterrupted(tmp_path, monkeypatch):
    cfg = ExperimentConfig.from_json(tiny_config_dict())
    _, full = run_convergence_experiment(cfg, out_dir=tmp_path / "full")
    _fail_fourth_sgd_half(monkeypatch)
    out = tmp_path / "broken"
    with pytest.raises(RuntimeError, match="injected"):
        run_convergence_experiment(cfg, out_dir=out)
    manifest = (out / "manifest.jsonl").read_text().splitlines()
    assert len(manifest) == 1 + 3  # header plus the three finished cells
    assert not (out / "summary.json").exists()
    monkeypatch.undo()
    _, resumed = run_convergence_experiment(cfg, out_dir=out, resume=True)
    assert Path(resumed).read_bytes() == Path(full).read_bytes()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["cells"] == 12


RUN_OUTPUTS = ("records.csv", "summary.json", "slopes.json", "manifest.jsonl",
               "convergence_subopt.svg", "convergence_potgap.svg")


def test_fresh_run_removes_the_previous_runs_outputs(tmp_path, monkeypatch, capsys):
    # a fresh run that fails at its fourth cell leaves only its own manifest,
    # not its three cells beside the previous run's records and summary
    cfg_path = _write_json(tmp_path, "config.json", tiny_config_dict())
    out = tmp_path / "results"
    assert main(["experiment", "--config", cfg_path, "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == sorted(RUN_OUTPUTS)
    _fail_fourth_sgd_half(monkeypatch)
    capsys.readouterr()
    assert main(["experiment", "--config", cfg_path, "--out", str(out)]) == 2
    assert "injected failure" in capsys.readouterr().err
    assert [p.name for p in out.iterdir()] == ["manifest.jsonl"]
    assert len((out / "manifest.jsonl").read_text().splitlines()) == 1 + 3


def test_rerun_writes_every_output_as_a_new_file(tmp_path, capsys):
    # a hard link to each first-run output keeps its bytes: no output is
    # truncated and written again in place, on any filesystem
    out, trace = tmp_path / "results", tmp_path / "trace.csv"
    solve = {"sampler": {"kind": "hypercube-uniform", "d": 1, "seed": 2},
             "measure": {"atoms": [[0.2], [0.9]], "weights": [0.5, 0.5]},
             "cost": {"kind": "p-norm-power", "p": 2}, "model": None, "solver": {"T": 32}}
    paths = [out / name for name in RUN_OUTPUTS] + [trace]

    def run(seed):
        cfg = tiny_config_dict(sampler={"kind": "gaussian-standard", "d": 2, "seed": seed})
        assert main(["experiment", "--config", _write_json(tmp_path, "config.json", cfg),
                     "--out", str(out)]) == 0
        payload = {**solve, "sampler": {**solve["sampler"], "seed": seed}}
        assert main(["solve", "--in", _write_json(tmp_path, "in.json", payload),
                     "--out", str(trace)]) == 0
        return [path.read_bytes() for path in paths]

    first = run(0)
    for path in paths:
        os.link(path, path.with_name("old-" + path.name))
    second = run(1)
    capsys.readouterr()
    for path, old, new in zip(paths, first, second):
        assert old != new, path.name
        assert path.with_name("old-" + path.name).read_bytes() == old, path.name
        assert path.read_bytes() == new, path.name


def test_manifest_records_reference_and_old_manifest_resumes(tmp_path):
    cfg = ExperimentConfig.from_json(tiny_config_dict())
    _, full = run_convergence_experiment(cfg, out_dir=tmp_path / "full", workers=2)
    lines = (tmp_path / "full" / "manifest.jsonl").read_text().splitlines()
    cells = [json.loads(line) for line in lines[1:]]
    assert len(cells) == 12
    for cell in cells:
        ref = cell["reference"]
        assert ref["s"] >= 0.0 and ref["samples"] == 2 * cell["T"]
        # stage seconds: each within the cell's milliseconds, and so their sum
        for stage in ("sgd_s", "estimate_s"):
            assert 0.0 <= cell[stage] * 1000.0 <= cell["ms"]
        assert (cell["sgd_s"] + ref["s"] + cell["estimate_s"]) * 1000.0 <= cell["ms"] + 1e-9
        # the peak memory of the worker that ran the cell: at least numpy's
        assert 10.0 <= cell["rss_mb"] <= 4096.0
        if cell["model"] == "none":
            assert ref["method"] == "lp" and abs(ref["gap"]) <= 1e-9
        else:
            assert ref["method"] == "newton" and ref["grad_norm"] <= 1e-7
            assert ref["iterations"] >= 1
    # a manifest written before cells carried stage timings and memory
    old = tmp_path / "old"
    old.mkdir()
    kept = [json.dumps({k: v for k, v in cell.items()
                        if k not in ("reference", "sgd_s", "estimate_s", "rss_mb")})
            for cell in cells[:5]]
    (old / "manifest.jsonl").write_text("\n".join(lines[:1] + kept) + "\n")
    _, resumed = run_convergence_experiment(cfg, out_dir=old, resume=True)
    assert Path(resumed).read_bytes() == Path(full).read_bytes()
    assert len((old / "manifest.jsonl").read_text().splitlines()) == 1 + 12


def test_measured_ms_is_the_sum_of_the_stage_seconds(tmp_path):
    cfg = ExperimentConfig.from_json(tiny_config_dict(timing="measured"))
    records, csv_path = run_convergence_experiment(cfg, out_dir=tmp_path, workers=2)
    lines = (tmp_path / "manifest.jsonl").read_text().splitlines()
    cells = {(d["model"], d["T"], d["seed"]): d for d in map(json.loads, lines[1:])}
    assert len(cells) == 12
    for cell in cells.values():
        assert cell["ms"] == (cell["sgd_s"] + cell["estimate_s"] + cell["reference"]["s"]) * 1000.0
    # the CSV's measured column is the manifest's ms, cell by cell
    rows = Path(csv_path).read_text().splitlines()[1:]
    for rec, row in zip(records, rows):
        assert float(row.split(",")[-1]) == cells[(rec.model, rec.T, rec.seed)]["ms"] == rec.ms


def test_summary_reports_the_schedule_of_this_invocation(tmp_path, monkeypatch):
    # wall_s, workers and busy_s give the workers' idle time, workers *
    # wall_s - busy_s; busy_s sums the stage seconds of this invocation's
    # cells only, so a resume that runs nothing reports none
    import sdot.cli as cli_mod
    cfg = ExperimentConfig.from_json(tiny_config_dict(timing="measured"))
    runs = {"inline": (1, False), "pool": (3, True), "process-pool": (2, False)}
    for name, (workers, fake) in runs.items():
        out = tmp_path / name
        with monkeypatch.context() as patch:
            if fake:
                patch.setattr(cli_mod, "ProcessPoolExecutor", _InlinePool)
            records, _ = run_convergence_experiment(cfg, out_dir=out, workers=workers)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["workers"] == workers
        busy = sum(rec.ms for rec in records) / 1000.0
        assert summary["busy_s"] == pytest.approx(busy, rel=1e-12)
        assert 0.0 < summary["busy_s"] <= workers * summary["wall_s"]
        if workers == 1 or fake:  # one task at a time: the stages fill the wall time
            assert summary["busy_s"] <= summary["wall_s"]
    run_convergence_experiment(cfg, out_dir=tmp_path / "pool", workers=3, resume=True)
    summary = json.loads((tmp_path / "pool" / "summary.json").read_text())
    assert summary["cells"] == 12 and summary["slowest"] is not None
    assert summary["workers"] == 1 and summary["busy_s"] == 0.0
    assert 0.0 <= summary["wall_s"] < 0.1


def test_summary_names_slowest_cell_and_uncertified_references(tmp_path, capsys):
    cfg = ExperimentConfig.from_json(tiny_config_dict(models=[
        {"kind": "exponential", "lambda": 0.5, "eta": [1 / 3, 1 / 3, 1 / 3]},
        {"kind": "hyperbolic", "lambda": 0.5, "eta": [1 / 3, 1 / 3, 1 / 3]},
    ], t_grid=[10, 20, 40]))
    records, _ = run_convergence_experiment(cfg, out_dir=tmp_path)
    lines = (tmp_path / "manifest.jsonl").read_text().splitlines()[1:]
    cells = {(d["model"], d["T"], d["seed"]): d for d in map(json.loads, lines)}
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["cells"] == len(records) == 12
    slow = summary["slowest"]
    cell = cells[(slow["model"], slow["T"], slow["seed"])]
    assert slow["ms"] == max(d["ms"] for d in cells.values()) == cell["ms"]
    stage_s = {"sgd": cell["sgd_s"], "reference": cell["reference"]["s"],
               "estimate": cell["estimate_s"]}
    assert slow["stage_s"] == stage_s[slow["stage"]] == max(stage_s.values())
    big = summary["largest_rss"]
    assert big["rss_mb"] == max(d["rss_mb"] for d in cells.values())
    assert big["rss_mb"] == cells[(big["model"], big["T"], big["seed"])]["rss_mb"]
    assert set(big) == {"model", "T", "seed", "rss_mb"}
    # Newton certifies at 1e-7; the long SGD run's residual is reported
    want = sorted((d["model"], d["T"], d["seed"]) for d in cells.values()
                  if d["reference"]["grad_norm"] > summary["certificate_tol"])
    got = sorted((u["model"], u["T"], u["seed"]) for u in summary["uncertified"])
    assert got == want and all(u["method"] == "sgd-50x" for u in summary["uncertified"])
    assert want and all(key[0] == "hyperbolic" for key in want)
    # one progress line per finished cell on stderr, none on stdout
    captured = capsys.readouterr()
    assert captured.out == ""
    progress = captured.err.splitlines()
    # cells run longest first, so the last one is the config's last at the smallest T
    assert len(progress) == 12 and progress[-1].startswith("[12/12] hyperbolic T=10 seed=1: ")


def test_resume_rejects_other_config(tmp_path):
    cfg = ExperimentConfig.from_json(tiny_config_dict())
    run_convergence_experiment(cfg, out_dir=tmp_path)
    other = ExperimentConfig.from_json(tiny_config_dict(seeds=[7]))
    with pytest.raises(ValueError, match="manifest"):
        run_convergence_experiment(other, out_dir=tmp_path, resume=True)


def test_records_csv_timing_modes():
    rec = [ConvergenceRecord("none", 10, 0, 0.5, 0.25, 12.5)]
    zero = records_to_csv(rec, timing="zero")
    measured = records_to_csv(rec, timing="measured")
    assert zero.splitlines()[1].endswith(",0.0")
    assert measured.splitlines()[1].endswith(",12.5")
    with pytest.raises(ValueError, match="timing"):
        records_to_csv(rec, timing="wallclock")


# -------------------------------------------------------------------- slope


def _power_law_records(tag, scale, rate, t_values=(100, 1000, 10000), seeds=(0, 1)):
    out = []
    for T in t_values:
        for s in seeds:
            y = scale * T ** -rate
            out.append(ConvergenceRecord(tag, T, s, y, max(y, 1e-12), 0.0))
    return out


def test_fit_slope_recovers_power_laws():
    slope, r2 = fit_slope(_power_law_records("a", 7.0, 1.0))
    assert abs(slope + 1.0) <= 1e-9
    assert abs(r2 - 1.0) <= 1e-12
    slope, _ = fit_slope(_power_law_records("a", 3.0, 0.5))
    assert abs(slope + 0.5) <= 1e-9
    slope, r2 = fit_slope(_power_law_records("a", 2.0, 0.0))
    assert abs(slope) <= 1e-9
    assert r2 == 1.0


def test_fit_slope_drops_nonpositive_means_with_warning():
    recs = _power_law_records("a", 7.0, 1.0, t_values=(10, 100, 1000, 10000))
    recs += [ConvergenceRecord("a", 50, s, -1.0, 0.0, 0.0) for s in (0, 1)]
    with pytest.warns(UserWarning, match="T=50"):
        slope, _ = fit_slope(recs)
    assert abs(slope + 1.0) <= 1e-9


def test_fit_slope_input_errors():
    with pytest.raises(ValueError, match="model"):
        fit_slope(_power_law_records("a", 1.0, 1.0) + _power_law_records("b", 1.0, 1.0))
    with pytest.raises(ValueError, match="T"):
        fit_slope(_power_law_records("a", 1.0, 1.0, t_values=(10, 100)))
    bad = _power_law_records("a", 1.0, 1.0, t_values=(10, 100)) + [
        ConvergenceRecord("a", 1000, 0, -2.0, 0.0, 0.0)
    ]
    with pytest.warns(UserWarning):
        with pytest.raises(ValueError, match="T"):
            fit_slope(bad)
    slope, _ = fit_slope(_power_law_records("a", 1.0, 1.0), field="potgap")
    assert abs(slope + 1.0) <= 1e-9


# -------------------------------------------------------------------- plots


def _golden_records():
    out = []
    for tag, scale, rate in (("none", 0.8, 0.5), ("entropic", 0.6, 1.0)):
        for T in (100, 1000, 10000):
            for seed in (0, 1):
                sub = scale * T ** -rate * (1.0 + 0.05 * seed)
                gap = 2.0 * scale * T ** -rate * (1.0 + 0.03 * seed)
                out.append(ConvergenceRecord(tag, T, seed, sub, gap, 1.5))
    return out


def test_emit_plots_match_golden_fixtures(tmp_path):
    paths = emit_plots(_golden_records(), tmp_path)
    by_name = {Path(p).name: Path(p) for p in paths}
    assert set(by_name) == {"convergence_subopt.svg", "convergence_potgap.svg"}
    for name, path in by_name.items():
        golden = (DATA / f"golden_{name.split('_')[1]}").with_suffix(".svg")
        assert path.read_bytes() == golden.read_bytes(), f"{name} drifted"


def test_emit_plots_deterministic(tmp_path):
    p1 = emit_plots(_golden_records(), tmp_path / "a")
    p2 = emit_plots(_golden_records(), tmp_path / "b")
    for a, b in zip(p1, p2):
        assert Path(a).read_bytes() == Path(b).read_bytes()


def test_emit_plots_omits_empty_panel_with_notice(tmp_path, capsys):
    recs = [
        ConvergenceRecord("none", T, 0, -1.0, 4.0 / T, 0.0) for T in (10, 100, 1000)
    ]
    paths = emit_plots(recs, tmp_path)
    names = {Path(p).name for p in paths}
    assert names == {"convergence_potgap.svg"}
    note = capsys.readouterr().out
    assert "subopt" in note and "omitted" in note
    assert not (tmp_path / "convergence_subopt.svg").exists()


def test_emit_plots_removes_a_stale_panel(tmp_path, capsys):
    # a panel omitted on the second call leaves no first-call SVG behind
    emit_plots(_golden_records(), tmp_path)
    recs = [ConvergenceRecord("none", T, 0, -1.0, 4.0 / T, 0.0) for T in (10, 100, 1000)]
    assert [Path(p).name for p in emit_plots(recs, tmp_path)] == ["convergence_potgap.svg"]
    capsys.readouterr()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["convergence_potgap.svg"]


def test_emit_plots_tick_labels_increase(tmp_path):
    paths = emit_plots(_golden_records(), tmp_path)
    svg = Path(paths[0]).read_text()
    labels = re.findall(r'<text x="([0-9.]+)" y="([0-9.]+)"[^>]*>1e(-?\d+)</text>', svg)
    xs = [(float(x), int(k)) for x, y, k in labels if float(y) > 440.0]
    ys = [(float(y), int(k)) for x, y, k in labels if float(x) < 70.0 and float(y) <= 440.0]
    assert len(xs) >= 2 and len(ys) >= 2
    assert all(a[0] < b[0] and a[1] < b[1] for a, b in zip(xs, xs[1:]))
    # pixel y grows downward, decades shrink downward
    ys_sorted = sorted(ys)
    assert all(a[1] > b[1] for a, b in zip(ys_sorted, ys_sorted[1:]))
    assert "http" not in svg.replace("http://www.w3.org/2000/svg", "")


def test_emit_plots_spans_a_decade_around_one_power_of_ten(tmp_path):
    # every T and every mean on one power of ten: each axis still spans a
    # decade, not a zero width that would divide by zero
    recs = [ConvergenceRecord("a", 10, s, 0.1, 0.1, 0.0) for s in (0, 1)]
    for path in emit_plots(recs, tmp_path):
        svg = Path(path).read_text()
        assert "nan" not in svg and "inf" not in svg
        assert ">1e1<" in svg and ">1e2<" in svg
        assert ">1e-1<" in svg and ">1e0<" in svg


def test_emit_plots_svg_is_ascii_and_versioned(tmp_path):
    paths = emit_plots(_golden_records(), tmp_path)
    head = Path(paths[0]).read_text()
    assert 'version="1.1"' in head
    head.encode("ascii")


# ---------------------------------------------------------------- CLI: json


def _write_json(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def test_cli_probs_matches_softmax(tmp_path, capsys):
    u = [0.3, -0.2, 0.9]
    path = _write_json(
        tmp_path,
        "in.json",
        {"model": {"kind": "exponential", "lambda": 0.7, "eta": [0.5, 0.25, 0.25]},
         "u": u},
    )
    assert main(["probs", "--in", path]) == 0
    out = json.loads(capsys.readouterr().out)
    want = probs_from_utilities(u, MarginalModel("exponential", 0.7, np.array([0.5, 0.25, 0.25])))
    assert np.allclose(out["p"], want, atol=1e-12)


def test_cli_probs_missing_field_names_it(tmp_path, capsys):
    path = _write_json(
        tmp_path, "in.json",
        {"model": {"kind": "exponential", "lambda": 0.7, "eta": [0.5, 0.5]}},
    )
    assert main(["probs", "--in", path]) == 2
    err = capsys.readouterr().err
    assert "'u'" in err


@pytest.mark.parametrize("command, flag, text, needle", [
    ("probs", "--in", '{"u": [0.0,', "input is not valid JSON"),
    ("probs", "--in", "[0.0, 1.0]", "input must be a JSON object"),
    ("volume", "--in", '"w"', "input must be a JSON object"),
    ("experiment", "--config", "[1]", "config must be a JSON object"),
])
def test_cli_rejects_input_that_is_no_json_object(tmp_path, capsys, command, flag, text, needle):
    path = tmp_path / "in.json"
    path.write_text(text)
    assert main([command, flag, str(path), *(["--out", str(tmp_path / "results")]
                                             if command == "experiment" else [])]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {needle}") and captured.err.count("\n") == 1
    assert not (tmp_path / "results").exists()


def test_cli_unreadable_input_and_unwritable_out_exit_2(tmp_path, capsys):
    # a missing --in or --config, and an --out directory that is an existing
    # file: one error line naming the path, no traceback, exit 2
    missing = tmp_path / "missing.json"
    taken = tmp_path / "taken"
    taken.write_text("")
    config = _write_json(tmp_path, "config.json", tiny_config_dict())
    for argv, path in ((["probs", "--in", str(missing)], missing),
                       (["experiment", "--config", str(missing)], missing),
                       (["experiment", "--config", config, "--out", str(taken)], taken)):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert str(path) in err


class _InlinePool:
    """Stands in for ProcessPoolExecutor: records the process count it is
    asked for in ``sizes`` and runs each task at submit, in this process."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future

    def shutdown(self, cancel_futures=False):
        pass


def test_experiment_pool_starts_no_more_workers_than_tasks(tmp_path, monkeypatch, capsys):
    # 12 cells are 24 tasks: --workers 5000 asks for 24 processes, and a
    # count below one names the field and exits 2 before any output
    import sdot.cli as cli_mod
    monkeypatch.setattr(cli_mod, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(_InlinePool, "sizes", [])
    config = _write_json(tmp_path, "config.json", tiny_config_dict())
    serial = tmp_path / "serial"
    assert main(["experiment", "--config", config, "--out", str(serial)]) == 0
    assert _InlinePool.sizes == []
    for workers, size in ((5000, 24), (3, 3)):
        out = tmp_path / str(workers)
        assert main(["experiment", "--config", config, "--out", str(out),
                     "--workers", str(workers)]) == 0
        assert _InlinePool.sizes[-1] == size
        assert (out / "records.csv").read_bytes() == (serial / "records.csv").read_bytes()
    # nothing left to run: no pool at all
    assert main(["experiment", "--config", config, "--out", str(tmp_path / "3"),
                 "--workers", "3", "--resume"]) == 0
    assert _InlinePool.sizes == [24, 3]
    capsys.readouterr()
    for bad in (0, -1):
        out = tmp_path / f"bad{bad}"
        assert main(["experiment", "--config", config, "--out", str(out),
                     "--workers", str(bad)]) == 2
        assert capsys.readouterr().err == (
            f"error: workers must be an integer of at least 1, got {bad}\n")
        assert not out.exists()
    assert _InlinePool.sizes == [24, 3]


def test_experiment_submits_cells_longest_first(tmp_path, monkeypatch):
    # cells whose reference is the direct LP go first, then descending T,
    # config order breaking ties; each cell's reference goes before its SGD
    # half, and an inline run takes the same sequence. records.csv keeps
    # config order. At a direct-LP limit of 200 variables, the 3-atom none
    # references at T = 10 and 20 (60 and 120 variables) are direct and
    # the one at T = 40 is boundary-reduced.
    import sdot.cli as cli_mod
    import sdot.solver as solver_mod
    monkeypatch.setattr(solver_mod, "_DIRECT_LIMIT", 200)
    monkeypatch.setattr(cli_mod, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(_InlinePool, "sizes", [])
    cfg = ExperimentConfig.from_json(tiny_config_dict())
    tags = {id(model): tag for tag, model in cfg.models}
    ran = []

    def recording(half):
        def run(config, model, T, seed):
            ran.append((half.__name__, tags[id(model)], T, seed))
            return half(config, model, T, seed)
        return run

    for name in ("_reference_half", "_sgd_half"):
        monkeypatch.setattr(cli_mod, name, recording(getattr(cli_mod, name)))
    order = [("none", 20, 0), ("none", 20, 1), ("none", 10, 0), ("none", 10, 1),
             ("none", 40, 0), ("none", 40, 1), ("exponential", 40, 0), ("exponential", 40, 1),
             ("exponential", 20, 0), ("exponential", 20, 1),
             ("exponential", 10, 0), ("exponential", 10, 1)]
    expected = [(half, *cell) for cell in order for half in ("_reference_half", "_sgd_half")]
    _, pooled = run_convergence_experiment(cfg, out_dir=tmp_path / "pool", workers=2)
    assert _InlinePool.sizes == [2] and ran == expected
    ran.clear()
    inline, csv_path = run_convergence_experiment(cfg, out_dir=tmp_path / "inline")
    assert _InlinePool.sizes == [2] and ran == expected
    assert Path(pooled).read_bytes() == Path(csv_path).read_bytes()
    assert [(r.model, r.T, r.seed) for r in inline] == [
        (tag, T, seed) for tag in ("none", "exponential") for T in (10, 20, 40) for seed in (0, 1)]
    # the order's direct-LP test is the reference's own
    lines = (tmp_path / "inline" / "manifest.jsonl").read_text().splitlines()[1:]
    reduced = {(d["T"], d["seed"]): d["reference"]["reduced"]
               for d in map(json.loads, lines) if d["model"] == "none"}
    assert reduced == {(T, seed): T == 40 for T in (10, 20, 40) for seed in (0, 1)}
    assert [(d["model"], d["T"], d["seed"]) for d in map(json.loads, lines)] == order


@pytest.mark.parametrize("kind, q", [("pareto", 3.0), ("hyperbolic", None)])
def test_cli_probs_huge_eps_takes_no_halvings(tmp_path, capsys, kind, q):
    model = {"kind": kind, "lambda": 0.5, "eta": [0.2, 0.3, 0.5], "q": q}
    u = [0.3, -0.2, 0.9]
    path = _write_json(tmp_path, "in.json", {"model": model, "u": u})
    assert main(["probs", "--in", path, "--eps", "1e200"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["p"] == probs_from_utilities(u, MarginalModel.from_json(model), eps=1e100).tolist()


@pytest.mark.parametrize("command", ["probs", "transform"])
def test_cli_value_and_probs_fail_the_mass_check_like_the_library(tmp_path, capsys, command):
    # utilities of 1e14 at lambda 1e-3 overflowed the sorted kernel's sums:
    # both commands once exited 0 with p summing to 1.875e16, and transform
    # with a value of 1.4e30. The max-shifted kernel solves them; at lambda
    # 1e-300 u / lambda itself overflows, and both commands exit 2
    model = {"kind": "uniform", "lambda": 1e-300, "eta": [0.25] * 4}
    u = [1e14, 1e14, 1e14, -1e14]
    payload = {"model": model, "u": u} if command == "probs" else {
        "model": model, "phi": u, "x": [0.0], "cost": {"kind": "sup-norm"},
        "measure": {"atoms": [[0.0], [1.0], [2.0], [3.0]], "weights": [0.25] * 4}}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # u / lambda overflows
        assert main([command, "--in", _write_json(tmp_path, "in.json", payload)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: choice probabilities sum to nan\n"


@pytest.mark.parametrize("kind, u", [("exponential", [math.inf, 0.0]),
                                     ("uniform", [math.nan, 0.0]),
                                     ("hyperbolic", [0.0, -math.inf]),
                                     ("exponential", [0.1, 0.2, 0.3])])
def test_cli_probs_rejects_bad_utilities(tmp_path, capsys, kind, u):
    # json reads NaN and Infinity, so they must be caught after parsing
    path = _write_json(tmp_path, "in.json",
                       {"model": {"kind": kind, "lambda": 0.5, "eta": [0.5, 0.5]}, "u": u})
    assert main(["probs", "--in", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: u must be a finite vector with one entry per atom" in captured.err


@pytest.mark.parametrize("command", ["probs", "transform"])
def test_cli_bisection_rejects_zero_eps(tmp_path, capsys, command):
    model = {"kind": "hyperbolic", "lambda": 0.5, "eta": [0.5, 0.5]}
    if command == "probs":
        payload = {"model": model, "u": [0.3, 0.0]}
    else:
        payload = {"model": model, "phi": [0.3, 0.0], "x": [0.0],
                   "measure": {"atoms": [[0.0], [0.0]], "weights": [0.5, 0.5]},
                   "cost": {"kind": "sup-norm"}}
    path = _write_json(tmp_path, "in.json", payload)
    assert main([command, "--in", path, "--eps", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "needs a positive accuracy eps" in captured.err


@pytest.mark.parametrize("command", ["probs", "transform"])
def test_cli_bisection_rejects_infinite_eps(tmp_path, capsys, command):
    # inf used to take no halving and print a mass-0.25 row with exit 0
    model = {"kind": "hyperbolic", "lambda": 0.1, "eta": [0.25] * 4}
    if command == "probs":
        payload = {"model": model, "u": [0.0] * 4}
    else:
        payload = {"model": model, "phi": [0.0] * 4, "x": [0.0],
                   "measure": {"atoms": [[0.0], [1.0], [2.0], [3.0]], "weights": [0.25] * 4},
                   "cost": {"kind": "sup-norm"}}
    path = _write_json(tmp_path, "in.json", payload)
    assert main([command, "--in", path, "--eps", "inf"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: model kind 'hyperbolic' needs a positive accuracy eps "
                            "for bisection\n")


def test_cli_probs_rejects_eps_too_small_to_halve(tmp_path, capsys):
    # pareto q = 3 at eps 1e-300: bisection_delta underflows to zero, and
    # the row is rejected before any halving, with no RuntimeWarning first
    model = {"kind": "pareto", "lambda": 0.5, "eta": [0.25] * 4, "q": 3.0}
    path = _write_json(tmp_path, "in.json", {"model": model, "u": [0.0, 1.0, 2.0, 0.5]})
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        assert main(["probs", "--in", path, "--eps", "1e-300"]) == 2
    assert seen == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: model kind 'pareto' cannot bisect at eps=1e-300: a row's "
                            "bracket is not finite, or eps is too small to halve it\n")


@pytest.mark.parametrize("model", [None, {"kind": "exponential", "lambda": 0.5, "eta": [0.5, 0.5]}])
@pytest.mark.parametrize("phi, x", [([math.nan, 0.0], [0.0]), ([0.0, 0.0], [math.inf])])
def test_cli_transform_rejects_non_finite_input(tmp_path, capsys, model, phi, x):
    payload = {
        "phi": phi,
        "x": x,
        "measure": {"atoms": [[0.0], [3.0]], "weights": [0.5, 0.5]},
        "cost": {"kind": "p-norm-power", "p": 1},
        "model": model,
    }
    path = _write_json(tmp_path, "in.json", payload)
    assert main(["transform", "--in", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: u must be a finite vector" in captured.err


def test_cli_transform_matches_library(tmp_path, capsys):
    atoms = [[0.0, 0.0], [1.0, 0.5], [-0.5, 1.0]]
    measure = {"atoms": atoms, "weights": [0.2, 0.3, 0.5]}
    model = {"kind": "hyperbolic", "lambda": 0.4, "eta": [0.2, 0.3, 0.5]}
    payload = {
        "phi": [0.1, -0.2, 0.05],
        "x": [0.3, 0.4],
        "measure": measure,
        "cost": {"kind": "p-norm-power", "p": 2},
        "model": model,
    }
    path = _write_json(tmp_path, "in.json", payload)
    assert main(["transform", "--in", path, "--eps", "1e-9"]) == 0
    out = json.loads(capsys.readouterr().out)
    nu = DiscreteMeasure(np.array(atoms), np.array([0.2, 0.3, 0.5]))
    want = smooth_c_transform(
        [0.1, -0.2, 0.05], [0.3, 0.4], nu, CostSpec("p-norm-power", p=2),
        MarginalModel("hyperbolic", 0.4, np.array([0.2, 0.3, 0.5])), eps=1e-9)
    assert abs(out["value"] - want) <= 1e-12
    assert abs(sum(out["p"]) - 1.0) <= 1e-6


def test_cli_transform_without_model_is_plain_max(tmp_path, capsys):
    payload = {
        "phi": [0.0, 2.0],
        "x": [0.0],
        "measure": {"atoms": [[0.0], [3.0]], "weights": [0.5, 0.5]},
        "cost": {"kind": "p-norm-power", "p": 1},
        "model": None,
    }
    path = _write_json(tmp_path, "in.json", payload)
    assert main(["transform", "--in", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["value"] == 0.0
    assert out["p"] == [1.0, 0.0]


def test_cli_solve_same_seed_identical_csv(tmp_path, capsys):
    payload = {
        "sampler": {"kind": "gaussian-standard", "d": 2, "seed": 5},
        "measure": {"atoms": [[0.0, 0.0], [1.0, 1.0]], "weights": [0.5, 0.5]},
        "cost": {"kind": "sup-norm"},
        "model": {"kind": "exponential", "lambda": 0.5, "eta": [0.5, 0.5]},
        "solver": {"T": 64},
    }
    path = _write_json(tmp_path, "in.json", payload)
    assert main(["solve", "--in", path]) == 0
    first = capsys.readouterr().out
    assert main(["solve", "--in", path]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert first.splitlines()[0] == "t,phi_hash,walltime_ms"
    payload["sampler"]["seed"] = 6
    assert main(["solve", "--in", _write_json(tmp_path, "seed6.json", payload)]) == 0
    assert capsys.readouterr().out != first


SOLVE_MODELS = {
    "none": None,
    "exponential": {"kind": "exponential", "lambda": 0.5, "eta": [0.2, 0.3, 0.5]},
    "uniform": {"kind": "uniform", "lambda": 0.5, "eta": [0.2, 0.3, 0.5]},
    "hyperbolic": {"kind": "hyperbolic", "lambda": 0.5, "eta": [0.2, 0.3, 0.5]},
    "pareto-q3": {"kind": "pareto", "lambda": 0.5, "eta": [0.2, 0.3, 0.5], "q": 3.0},
}


@pytest.mark.parametrize("name", sorted(SOLVE_MODELS))
@pytest.mark.parametrize("solver", [{"T": 40}, {"T": 40, "eps_bar": 0.05, "log_every": 8}])
def test_cli_solve_runs_the_models_sgd_config(tmp_path, capsys, name, solver):
    # the step rule, L, eps_bar and tikhonov of a run are sgd_config's
    entry = SOLVE_MODELS[name]
    sampler = {"kind": "gaussian-standard", "d": 2, "seed": 3}
    measure = {"atoms": [[0.0, 0.0], [1.0, 0.5], [-0.5, 1.0]], "weights": [0.2, 0.3, 0.5]}
    payload = {"sampler": sampler, "measure": measure, "cost": {"kind": "sup-norm"},
               "model": entry, "solver": solver}
    assert main(["solve", "--in", _write_json(tmp_path, "in.json", payload)]) == 0
    model = None if entry is None else MarginalModel.from_json(entry)
    config = replace(sgd_config(model, solver["T"], solver.get("eps_bar", 0.1)),
                     log_every=solver.get("log_every"))
    _, _, trace = averaged_sgd(SamplerSpec.from_json(sampler), DiscreteMeasure.from_json(measure),
                               CostSpec("sup-norm"), model, config)
    assert capsys.readouterr().out == trace.to_csv("zero")


@pytest.mark.parametrize("field", ["tikonov", "M", "theorem_variant", "rule", "L", "tikhonov"])
def test_cli_solve_rejects_unknown_solver_field(tmp_path, capsys, field):
    payload = {
        "sampler": {"kind": "gaussian-standard", "d": 2, "seed": 5},
        "measure": {"atoms": [[0.0, 0.0], [1.0, 1.0]], "weights": [0.5, 0.5]},
        "cost": {"kind": "sup-norm"},
        "model": None,
        "solver": {"T": 8, field: 0.5},
    }
    path = _write_json(tmp_path, "in.json", payload)
    assert main(["solve", "--in", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unknown field '{field}'" in captured.err


@pytest.mark.parametrize("log_every", [2.5, True, 0])
def test_cli_solve_rejects_bad_log_every(tmp_path, capsys, log_every):
    payload = {
        "sampler": {"kind": "gaussian-standard", "d": 2, "seed": 5},
        "measure": {"atoms": [[0.0, 0.0], [1.0, 1.0]], "weights": [0.5, 0.5]},
        "cost": {"kind": "sup-norm"},
        "model": None,
        "solver": {"T": 8, "log_every": log_every},
    }
    path = _write_json(tmp_path, "in.json", payload)
    assert main(["solve", "--in", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "solver field 'log_every' must be" in captured.err
    assert captured.err.endswith(f", got {log_every!r}\n")


def test_cli_solve_reads_log_every_as_a_json_integer(tmp_path, capsys):
    # 2.0 is the integer 2, as it is for T
    payload = {
        "sampler": {"kind": "gaussian-standard", "d": 2, "seed": 5},
        "measure": {"atoms": [[0.0, 0.0], [1.0, 1.0]], "weights": [0.5, 0.5]},
        "cost": {"kind": "sup-norm"},
        "model": None,
    }
    outs = []
    for every in (2, 2.0):
        payload["solver"] = {"T": 8, "log_every": every}
        assert main(["solve", "--in", _write_json(tmp_path, "in.json", payload)]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] and outs[0].count("\n") == 5


def test_cli_solve_rejects_negative_eps_bar(tmp_path, capsys):
    # a closed-form model never reads eps_bar, but a negative one is still an error
    payload = json.loads(json.dumps(VALID_INPUTS["solve"]))
    payload["solver"]["eps_bar"] = -0.1
    assert main(["solve", "--in", _write_json(tmp_path, "in.json", payload)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "eps_bar must be nonnegative" in captured.err


def test_cli_solve_writes_file(tmp_path):
    payload = {
        "sampler": {"kind": "hypercube-uniform", "d": 1, "seed": 2},
        "measure": {"atoms": [[0.2], [0.9]], "weights": [0.5, 0.5]},
        "cost": {"kind": "p-norm-power", "p": 2},
        "model": None,
        "solver": {"T": 32},
    }
    path = _write_json(tmp_path, "in.json", payload)
    out = tmp_path / "trace.csv"
    assert main(["solve", "--in", path, "--out", str(out)]) == 0
    assert out.read_text().startswith("t,phi_hash,")


def test_cli_volume_row(tmp_path, capsys):
    payload = {
        "w": [2.0],
        "b": 0.6,
        "delta": 0.01,
        "quadrature": {"kind": "grid", "m": 400},
    }
    path = _write_json(tmp_path, "in.json", payload)
    assert main(["volume", "--in", path]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "w,b,exact_volume,t_hat,delta,quadrature,oracle_calls"
    row = out[1].split(",")
    assert row[0] == "2.0"
    assert float(row[2]) == pytest.approx(0.3)
    assert float(row[3]) == pytest.approx(0.3, abs=0.02)
    assert row[5] == "grid:m=400"
    assert int(row[6]) == 2 * (math.ceil(math.log2(1 / 0.01)) + 1)
    payload["quadrature"] = {"kind": "monte-carlo", "n": 2000}
    assert main(["volume", "--in", _write_json(tmp_path, "mc.json", payload)]) == 0
    row = capsys.readouterr().out.splitlines()[1].split(",")
    assert row[5] == "monte-carlo:n=2000:seed=0"
    assert float(row[3]) == pytest.approx(0.3, abs=0.05)


def test_cli_volume_reports_the_oracle_calls_it_makes(tmp_path, capsys, monkeypatch):
    import sdot.hardness as hardness_mod

    real = hardness_mod._two_point_dual
    calls = []

    def counted(c1, c2):
        wc = real(c1, c2)

        def counting(t):
            calls.append(t)
            return wc(t)

        return counting

    monkeypatch.setattr(hardness_mod, "_two_point_dual", counted)
    for delta in (0.25, 0.01, 1e-3):
        payload = {"w": [1.0, 1.0], "b": 1.0, "delta": delta,
                   "quadrature": {"kind": "grid", "m": 100}}
        calls.clear()
        assert main(["volume", "--in", _write_json(tmp_path, "in.json", payload)]) == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert int(row[6]) == len(calls) > 0


@pytest.mark.parametrize("command, flag", [("solve", "--seed"), ("reference", "--seed"),
                                           ("volume", "--seed"), ("volume", "--tol")])
def test_cli_has_no_flag_for_a_json_field(tmp_path, capsys, command, flag):
    # the sampler's or quadrature's "seed" and the "delta" field set these
    path = _write_json(tmp_path, "in.json", VALID_INPUTS[command])
    with pytest.raises(SystemExit) as exc:
        main([command, "--in", path, flag, "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_cli_reference_unregularized(tmp_path, capsys):
    payload = {
        "sampler": {"kind": "gaussian-standard", "d": 2, "seed": 1},
        "measure": {"atoms": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
                    "weights": [0.4, 0.3, 0.3]},
        "cost": {"kind": "sup-norm"},
        "model": None,
        "T": 30,
    }
    path = _write_json(tmp_path, "in.json", payload)
    assert main(["reference", "--in", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["info"]["method"] == "lp"
    assert len(out["phi"]) == 3
    assert abs(np.mean(out["phi"])) <= 1e-9
    assert np.isfinite(out["value"])


def test_cli_reference_zero_weight_atom(tmp_path, capsys):
    payload = {
        "sampler": {"kind": "gaussian-standard", "d": 2, "seed": 1},
        "measure": {"atoms": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [-1.0, 0.0]],
                    "weights": [0.25, 0.25, 0.25, 0.25, 0.0]},
        "cost": {"kind": "sup-norm"},
        "model": None,
        "T": 316,
    }
    assert main(["reference", "--in", _write_json(tmp_path, "in.json", payload)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["info"]["reduced"] is True
    assert len(out["phi"]) == 5 and np.all(np.isfinite(out["phi"]))


@pytest.mark.parametrize("where, field", [(None, "multipler"), ("sampler", "sed"),
                                          ("model", "temperature")])
def test_cli_reference_rejects_unknown_field(tmp_path, capsys, where, field):
    payload = {
        "sampler": {"kind": "gaussian-standard", "d": 2, "seed": 1},
        "measure": {"atoms": [[0.0, 0.0], [1.0, 0.0]], "weights": [0.5, 0.5]},
        "cost": {"kind": "sup-norm"},
        "model": {"kind": "exponential", "lambda": 0.5, "eta": [0.5, 0.5]},
        "T": 5,
    }
    (payload if where is None else payload[where])[field] = 4
    path = _write_json(tmp_path, "in.json", payload)
    assert main(["reference", "--in", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unknown field '{field}'" in captured.err


MEASURE = {"atoms": [[0.0, 0.0], [1.0, 1.0]], "weights": [0.5, 0.5]}
MODEL = {"kind": "exponential", "lambda": 0.5, "eta": [0.5, 0.5]}
EMPIRICAL = {"kind": "empirical", "points": [[0.0, 0.0], [1.0, 0.5], [-0.5, 1.0]],
             "weights": [0.25, 0.25, 0.5], "seed": 5}
# a case value that deletes its field from the payload
ABSENT = object()
VALID_INPUTS = {
    "probs": {"model": {"kind": "pareto", "lambda": 0.5, "eta": [0.5, 0.5], "q": 1.5},
              "u": [0.3, 0.0]},
    "transform": {"measure": MEASURE, "cost": {"kind": "sup-norm"}, "model": MODEL,
                  "phi": [0.1, 0.0], "x": [0.2, 0.3]},
    "solve": {"sampler": EMPIRICAL, "measure": MEASURE,
              "cost": {"kind": "p-norm-power", "p": 2}, "model": MODEL, "solver": {"T": 8}},
    "volume": {"w": [1.0, 1.0], "b": 1.0, "delta": 0.25,
               "quadrature": {"kind": "grid", "m": 20}},
    "reference": {"sampler": {"kind": "gaussian-standard", "d": 2, "seed": 5},
                  "measure": MEASURE, "cost": {"kind": "sup-norm"}, "model": MODEL, "T": 5},
    "experiment": tiny_config_dict(models=["none"], t_grid=[2, 3, 4], seeds=[0]),
}


@pytest.mark.parametrize("command, path, field", [
    ("probs", (), "uu"),
    ("transform", (), "modle"),
    ("transform", ("measure",), "wieghts"),
    ("transform", ("cost",), "pp"),
    ("solve", (), "modle"),
    ("solve", ("measure",), "mass"),
    ("solve", ("cost",), "exponent"),
    ("volume", (), "detla"),
    ("volume", ("quadrature",), "sed"),
    ("experiment", ("measure", "random_atoms"), "cout"),
    ("experiment", ("measure",), "atoms"),
])
def test_cli_rejects_unknown_input_field(tmp_path, capsys, command, path, field):
    # each payload runs as given (exit 0); one stray field must fail it
    payload = json.loads(json.dumps(VALID_INPUTS[command]))
    target = payload
    for key in path:
        target = target[key]
    target[field] = 0.5
    flag = "--config" if command == "experiment" else "--in"
    argv = [command, flag, _write_json(tmp_path, "in.json", payload)]
    if command == "experiment":
        argv += ["--out", str(tmp_path / "results")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unknown field '{field}'" in captured.err
    assert main([command, flag, _write_json(tmp_path, "ok.json", VALID_INPUTS[command])]
                + argv[3:]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("command, path, field, value", [
    ("volume", (), "delta", None),
    ("volume", (), "b", "1.0"),
    ("volume", (), "p", [2.0]),
    ("volume", ("quadrature",), "m", "20"),
    ("volume", ("quadrature",), "m", 20.5),
    ("reference", (), "T", [5]),
    ("reference", (), "T", 2.5),
    ("reference", (), "eps_bar", None),
    ("reference", (), "multiplier", "2"),
    ("solve", ("solver",), "T", "8"),
    ("solve", ("solver",), "eps_bar", None),
    ("experiment", (), "t_grid", [2, [3], 4]),
    ("experiment", (), "seeds", [None]),
    ("experiment", (), "multiplier", True),
    ("experiment", (), "eps_bar", "0.1"),
    ("experiment", ("measure", "random_atoms"), "count", "3"),
    ("experiment", ("measure", "random_atoms"), "box", None),
    ("experiment", ("measure", "random_atoms"), "seed", [11]),
    ("reference", ("sampler",), "d", 2.5),
    ("reference", ("sampler",), "d", "2"),
    ("reference", ("sampler",), "seed", True),
    ("solve", ("sampler",), "points", ABSENT),
    ("solve", ("sampler",), "weights", 1.0),
    ("solve", ("cost",), "p", "2"),
    ("probs", ("model",), "q", [1.5]),
    ("probs", ("model",), "lambda", "0.5"),
    ("probs", ("model",), "lambda", True),
    # an object where an array belongs used to be an exit-1 TypeError
    ("probs", (), "u", {"a": 1}),
    ("probs", ("model",), "eta", {"a": 1}),
    ("transform", ("measure",), "atoms", {"a": 1}),
    ("transform", ("measure",), "weights", {"a": 1}),
    ("transform", (), "phi", {"a": 1}),
    ("transform", (), "x", {"a": 1}),
    ("volume", (), "w", {"a": 1}),
    ("solve", ("sampler",), "points", {"a": 1}),
    ("solve", ("sampler",), "weights", {"a": 1}),
    # a grid used to ignore n and seed, and a negative seed to fail in draw
    ("volume", ("quadrature",), "n", 7),
    ("volume", ("quadrature",), "seed", 3),
    ("reference", ("sampler",), "seed", -1),
])
def test_cli_wrong_typed_number_names_field(tmp_path, capsys, command, path, field, value):
    # a JSON value that is not a (whole) number, or a required one left out
    # (ABSENT), is an input error, exit 2, never a TypeError traceback or a
    # silent conversion
    payload = json.loads(json.dumps(VALID_INPUTS[command]))
    target = payload
    for key in path:
        target = target[key]
    if value is ABSENT:
        del target[field]
    else:
        target[field] = value
    flag = "--config" if command == "experiment" else "--in"
    argv = [command, flag, _write_json(tmp_path, "in.json", payload)]
    if command == "experiment":
        argv += ["--out", str(tmp_path / "results")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"'{field}'" in captured.err
    assert main([command, flag, _write_json(tmp_path, "ok.json", VALID_INPUTS[command])]
                + argv[3:]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("sampler", [
    {**EMPIRICAL, "points": [[math.nan, 0.0], [1.0, 1.0], [0.0, 1.0]]},
    {**EMPIRICAL, "weights": [math.nan, 0.5, 0.5]},
])
def test_cli_solve_rejects_a_non_finite_empirical_sampler(tmp_path, capsys, sampler):
    # without a model, both used to exit 0 and print a trace
    payload = {**VALID_INPUTS["solve"], "sampler": sampler}
    del payload["model"]
    assert main(["solve", "--in", _write_json(tmp_path, "in.json", payload)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "empirical sampler points and weights must be finite" in captured.err


def test_cli_experiment_negative_seed_fails_before_any_cell(tmp_path, capsys):
    # the seed-0 cell used to reach manifest.jsonl before seed -1 failed in
    # derive_seed with a message that named no field
    out = tmp_path / "results"
    path = _write_json(tmp_path, "cfg.json", tiny_config_dict(seeds=[0, -1]))
    assert main(["experiment", "--config", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config field 'seeds' entry 1 must be an integer of at least 0" in err
    assert not out.exists()
    cfg = tiny_config_dict(measure={"random_atoms": {"count": 3, "box": 1.0, "seed": -2}})
    path = _write_json(tmp_path, "cfg.json", cfg)
    assert main(["experiment", "--config", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "measure.random_atoms field 'seed' must be an integer of at least 0" in err
    # a repeated seed used to run its cells twice and count them twice in
    # every per-T mean, and the run exited 0
    path = _write_json(tmp_path, "cfg.json", tiny_config_dict(seeds=[0, 0, 1]))
    assert main(["experiment", "--config", path, "--out", str(out)]) == 2
    assert "config field 'seeds' has a duplicate seed 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("field", ["T", "multiplier"])
def test_cli_reference_names_a_count_below_one(tmp_path, capsys, field):
    # each used to fail inside draw as "draw count must be >= 1"
    payload = {**VALID_INPUTS["reference"], field: 0}
    assert main(["reference", "--in", _write_json(tmp_path, "in.json", payload)]) == 2
    assert f"{field} must be an integer of at least 1" in capsys.readouterr().err


def test_cli_size_past_the_entry_bound_exits_2_before_allocating(tmp_path, capsys, monkeypatch):
    # the allocating calls refuse, so a missing guard fails here at once
    def refuse(*args, **kwargs):
        raise AssertionError("allocated past the entry bound")

    monkeypatch.setattr(solver, "draw", refuse)
    monkeypatch.setattr(np, "meshgrid", refuse)
    payload = {**VALID_INPUTS["solve"], "solver": {"T": 10 ** 9}}
    assert main(["solve", "--in", _write_json(tmp_path, "solve.json", payload)]) == 2
    assert "SGD cost matrix (T*n) too large" in capsys.readouterr().err
    payload = {**VALID_INPUTS["volume"], "quadrature": {"kind": "grid", "m": 100_000}}
    assert main(["volume", "--in", _write_json(tmp_path, "volume.json", payload)]) == 2
    assert "quadrature (nodes*max(d, 2)) too large" in capsys.readouterr().err


@pytest.mark.parametrize("value", [math.inf, math.nan])
@pytest.mark.parametrize("command, path, kind", [
    ("solve", ("solver",), None),
    ("reference", (), "hyperbolic"),
    ("reference", (), "exponential"),
    ("experiment", (), None),
])
def test_cli_non_finite_eps_bar_names_field(tmp_path, capsys, command, path, kind, value):
    # json reads Infinity and NaN; an infinite eps_bar used to run with a
    # zero step and no halvings, NaN passed every comparison, and a
    # closed-form reference, which never reads eps_bar, took either silently
    payload = json.loads(json.dumps(VALID_INPUTS[command]))
    if kind is not None:
        payload["model"] = {"kind": kind, "lambda": 0.5, "eta": [0.5, 0.5]}
    target = payload
    for key in path:
        target = target[key]
    target["eps_bar"] = value
    flag = "--config" if command == "experiment" else "--in"
    argv = [command, flag, _write_json(tmp_path, "in.json", payload)]
    if command == "experiment":
        argv += ["--out", str(tmp_path / "results")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.search(r"eps_bar'? must be nonnegative and finite", captured.err)
    target["eps_bar"] = 0.1
    assert main([command, flag, _write_json(tmp_path, "ok.json", payload)] + argv[3:]) == 0
    capsys.readouterr()


def test_cli_reference_runtime_error_exits_2(tmp_path, capsys, monkeypatch):
    import sdot.solver as solver_mod

    def fail(*args):
        raise RuntimeError("boundary reduction did not certify a transport optimum")

    monkeypatch.setattr(solver_mod, "_reduced_transport_value_phi", fail)
    payload = {
        "sampler": {"kind": "gaussian-standard", "d": 2, "seed": 1},
        "measure": {"atoms": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
                    "weights": [0.4, 0.3, 0.3]},
        "cost": {"kind": "sup-norm"},
        "model": None,
        "T": 400,
    }
    path = _write_json(tmp_path, "in.json", payload)
    assert main(["reference", "--in", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip() == (
        "error: boundary reduction did not certify a transport optimum")


def test_cli_experiment_end_to_end(tmp_path, capsys):
    cfg = tiny_config_dict()
    cfg_path = _write_json(tmp_path, "config.json", cfg)
    out = tmp_path / "results"
    assert main(["experiment", "--config", cfg_path, "--out", str(out)]) == 0
    assert (out / "records.csv").exists()
    assert (out / "manifest.jsonl").exists()
    slopes = json.loads((out / "slopes.json").read_text())
    assert set(slopes) == {"none", "exponential"}
    svgs = list(out.glob("*.svg"))
    assert len(svgs) >= 1
    text = capsys.readouterr().out
    assert "records.csv" in text


def test_cli_experiment_writes_null_slopes_below_three_t_values(tmp_path, capsys):
    cfg = tiny_config_dict(models=["none"], t_grid=[10, 20], seeds=[0])
    out = tmp_path / "results"
    assert main(["experiment", "--config", _write_json(tmp_path, "config.json", cfg),
                 "--out", str(out)]) == 0
    capsys.readouterr()
    assert json.loads((out / "slopes.json").read_text()) == {
        "none": {"subopt": None, "potgap": None}}


def test_cli_experiment_rejects_unknown_config_field(tmp_path, capsys):
    cfg_path = _write_json(tmp_path, "config.json", tiny_config_dict(multipler=5))
    out = tmp_path / "results"
    assert main(["experiment", "--config", cfg_path, "--out", str(out)]) == 2
    assert "unknown field 'multipler'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("field, value", [
    ("tag", "a,b"), ("tag", "a\nb"), ("tag", "a\rb"), ("tag", ""), ("tag", None), ("tag", 3),
    ("out_dir", None), ("out_dir", 5),
])
def test_cli_experiment_rejects_bad_tag_or_out_dir(tmp_path, capsys, field, value, monkeypatch):
    # a tag is a CSV field and an out_dir a path: a comma would add a column,
    # and null would name a series or a directory 'None'
    cfg = tiny_config_dict()
    if field == "tag":
        cfg["models"][1]["tag"] = value
    else:
        cfg["out_dir"] = value
    monkeypatch.chdir(tmp_path)
    assert main(["experiment", "--config", _write_json(tmp_path, "config.json", cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"'{field}'" in captured.err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def test_cli_experiment_pareto_beyond_q2(tmp_path, capsys):
    model = {"kind": "pareto", "lambda": 0.5, "eta": [1 / 3, 1 / 3, 1 / 3], "q": 3.0}
    cfg_path = _write_json(tmp_path, "config.json", tiny_config_dict(models=[model], seeds=[0]))
    out = tmp_path / "results"
    assert main(["experiment", "--config", cfg_path, "--out", str(out)]) == 0
    lines = (out / "records.csv").read_text().splitlines()
    assert len(lines) == 4 and all(line.startswith("pareto,") for line in lines[1:])
    capsys.readouterr()


def _fresh_python(*args):
    """Run ``python *args`` in a fresh interpreter that imports sdot from src/."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_module_entry_point_runs_without_runpy_warning():
    out = _fresh_python("-W", "error::RuntimeWarning", "-m", "sdot.cli", "--help")
    assert "experiment" in out


# scipy's LP stack; only a transport LP may load it
LP_MODULES = ("scipy.sparse", "scipy.optimize")
_LOADED = f"[m for m in {LP_MODULES!r} if m in sys.modules]"


def test_import_loads_no_lp_stack_until_an_lp_runs():
    out = _fresh_python("-c", f"""
import sys
import numpy as np
import sdot, sdot.cli
print({_LOADED})
mu = sdot.DiscreteMeasure(np.array([[0.0], [1.0]]), np.array([0.5, 0.5]))
value = sdot.exact_discrete_ot(mu, mu, sdot.CostSpec("sup-norm"))[0]
print({_LOADED}, value)
""")
    assert out.splitlines() == ["[]", f"{list(LP_MODULES)} 0.0"]


@pytest.mark.parametrize("models, loaded", [(["none"], list(LP_MODULES)),
                                            ([MODEL, {**MODEL, "kind": "uniform"}], [])])
def test_experiment_pool_starts_after_the_lp_stack_loads(tmp_path, models, loaded):
    # forked workers inherit the parent's modules: with a series without a
    # model the parent loads the LP stack before the pool starts, so no
    # worker imports it again; closed-form series never load it
    config = _write_json(tmp_path, "config.json", tiny_config_dict(
        models=models, measure=MEASURE, t_grid=[2, 3, 4], seeds=[0]))
    out = _fresh_python("-c", f"""
import json, sys
import sdot.cli as cli
from pathlib import Path

class Recording(cli.ProcessPoolExecutor):
    def __init__(self, *args, **kwargs):
        print({_LOADED})
        super().__init__(*args, **kwargs)

cli.ProcessPoolExecutor = Recording
config = cli.ExperimentConfig.from_json(json.loads(Path({config!r}).read_text()))
records, _ = cli.run_convergence_experiment(config, out_dir={str(tmp_path / "out")!r}, workers=2)
print(len(records), {_LOADED})
""")
    assert out.splitlines() == [str(loaded), f"{3 * len(models)} {loaded}"]


def test_cli_unknown_subcommand_fails():
    with pytest.raises(SystemExit):
        main(["frobnicate"])
