"""sdot benchmark: end-to-end and per-layer numbers on seeded workloads.

Run from the root of a checkout:

    python3 bench/run.py --workload grid-none --seed 0 --seconds 30 --trace 0

With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it
carries the per-layer metrics of a traced replay instead. The line
before it records the machine, versions and commit. Workloads and
metrics are described in bench/README.md.

``--workload gating`` runs demos/convergence_config.json once and
reports its wall time and cell times; it is a reporting run, not one
of the benchmark's workloads.

The command exits with code 2 and prints no result when the checkout
holds no sdot sources to measure.
"""

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD = HERE / "workload.py"
OUT = ROOT / ".bench_out"

# Set-up runs in this many fresh interpreters, half before the workload
# and half after it, so the median samples the machine over the whole run.
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 60
# A run must end within 180 s; the workload process gets what is left
# after the set-ups still to come. The gating run is given an hour.
DEADLINE_S = 170.0
GATING_DEADLINE_S = 3600.0
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
GATING_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "fraction"}


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _run(cmd, env, timeout):
    """Run a child in its own process group. On timeout, interrupt or
    termination, end the whole group, workers included, and wait for it."""
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, start_new_session=True,
                            text=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[1:3])} exited with code {proc.returncode}")
    return stdout


def main(argv=None):
    ap = argparse.ArgumentParser(description="sdot benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0, help="workload seed (default 0)")
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="outer deadline of the measured calls; the calls are fixed")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    t_start = time.monotonic()
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "sdot" / "__init__.py").exists():
        print("error: no sdot sources under src/ in this checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    known = [w["name"] for w in spec["workloads"]] + ["gating"]
    if args.workload not in known:
        print(f"error: unknown workload {args.workload!r}; choose from {known}", file=sys.stderr)
        return 2

    env = {**os.environ, **PINNED, "PYTHONHASHSEED": "0"}
    base = [sys.executable, str(WORKLOAD), "--workload", args.workload, "--seed", str(args.seed)]
    setup_cmd = base + ["--setup-only", "--out", str(OUT / "setup")]
    setups = [float(_run(setup_cmd, env, SETUP_TIMEOUT_S).split()[-1])
              for _ in range(SETUP_REPEATS // 2)]
    result_path = OUT / "result.json"
    result_path.unlink(missing_ok=True)
    deadline = GATING_DEADLINE_S if args.workload == "gating" else DEADLINE_S
    per_setup = max(setups) + 1.0
    left = deadline - (time.monotonic() - t_start) - per_setup * (SETUP_REPEATS - len(setups))
    _run(base + ["--seconds", str(args.seconds), "--trace", str(args.trace),
                 "--out", str(OUT / "work"), "--result", str(result_path)], env, left)
    setups += [float(_run(setup_cmd, env, SETUP_TIMEOUT_S).split()[-1])
               for _ in range(SETUP_REPEATS - len(setups))]
    res = json.loads(result_path.read_text())
    print(json.dumps({"provenance": {
        "workload": args.workload, "seed": args.seed, "seed_default": 0,
        "seconds": args.seconds, "trace": args.trace, "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(), "python": platform.python_version(),
        **res["versions"], "commit": _git_commit(), **PINNED,
        "golden_checked": res["golden_checked"]}}))
    for problem in res["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    if not res["golden_checked"] and args.workload != "gating":
        print(f"warning: bench/golden.json has no outputs for seed {args.seed}; "
              "every check ran but the golden one", file=sys.stderr)

    values = dict(res["metrics"])
    values["setup_s"] = statistics.median(setups)
    values["ok_frac"] = 1.0 - res["failed"] / res["attempted"]
    if args.workload == "gating":
        units = {name: GATING_UNITS.get(name, "s") for name in values}
    else:
        units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
        if args.trace:
            unknown = set(res["metrics"]) - set(units) - {"peak_rss_mb"}
            if unknown:
                raise RuntimeError(f"workload reported undeclared metrics {sorted(unknown)}")
            # layers the workload never calls read 0
            values = {name: values.get(name, 0.0) for name in units}
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
