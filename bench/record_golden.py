"""Record bench/golden.json, the outputs the benchmark checks runs against.

For every workload and each workload seed in GOLDEN_SEEDS it stores the
(subopt, potgap) of every experiment cell a run uses, and the output of
every one-shot call, and rewrites the file in full. Run it from the root
of a checkout, only on a commit whose outputs are trusted:

    python3 bench/record_golden.py

The wall time of each run is printed, which also shows how much a
workload's time moves with its seed.
"""

import os

os.environ.update({"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})

import json
import time

import workload as wl

GOLDEN_SEEDS = range(32)


def record(name, seed, out):
    inp = wl.Inputs(name, seed, out)
    if name == "oneshot":
        t0 = time.perf_counter()
        outputs = wl.oneshot_pass(wl.NO_TRACE, inp)
        wall = time.perf_counter() - t0
        problems = wl.check_oneshot(inp, outputs, {})
        entry = {k: (v.tolist() if hasattr(v, "tolist") else v) for k, v in outputs.items()}
    else:
        # a cell does not depend on the call it runs in; record a run's cells in one call
        g = wl.GRIDS[name]
        wall, records, problems = wl.run_grid_once(
            inp, inp.write_call(range(g["calls"] * g["seeds"])), {})
        entry = {f"{r['model']},{r['T']},{r['seed']}": [r["subopt"], r["potgap"]]
                 for r in records}
    if problems:
        raise SystemExit(f"{name} seed {seed}: {problems}")
    print(f"{name} seed {seed}: {wall:.3f} s", flush=True)
    return entry


def main():
    out = wl.ROOT / ".bench_out" / "golden"
    golden = {name: {str(s): record(name, s, out) for s in GOLDEN_SEEDS}
              for name in sorted(wl.GRIDS) + ["oneshot"]}
    wl.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
