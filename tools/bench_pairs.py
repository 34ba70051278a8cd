"""Benchmark two source trees of this repository in alternating pairs and write one JSON record.

    python3 tools/bench_pairs.py PARENT_TREE CHANGE_TREE --out BENCH_sweep.json \\
        [--a-a PARENT_COPY] [--parent-label 4a5243f] [--change-label change] \\
        [--layer-moved cli.self_s ...] [--what-moved-it TEXT]

Every run is ``python3 perfbench/run.py --workload W --seed S --trace 0`` in the root of
one tree, so each tree benchmarks its own ``src`` for ``perfbench/run.py``'s own length
of run; the trees should sit at paths of equal length. The workloads and the end-to-end
metrics are those of this repository's ``BENCHMARK.json``. Pair k runs the parent first
when k is odd and the change first when k is even. The claimed workload, ``sweep``, gets
10 pairs at each of seeds 0 and 1; every other workload gets 3 pairs at seed 1. For every
end-to-end metric the record gives, per side, the median and inclusive quartiles of the
run medians, and the number of pairs where the change reads lower; for ``wall_norm_s``
also every pair, the median of the paired change/parent ratios, and whether the claim
holds: lower in at least 9 of the 10 pairs and a median drop larger than the parent's
quartile spread. ``--a-a`` runs a second copy of the parent once beside the parent on
every workload at seed 1. Each side also runs ``sweep`` once traced (``--trace 1``) at
seed 0, and the record keeps its last JSON line. Progress goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
END_TO_END = tuple(metric["name"] for metric in BENCHMARK["end_to_end"])
CLAIMED = "sweep"
CONTROLS = tuple(w["name"] for w in BENCHMARK["workloads"] if w["name"] != CLAIMED)
SEEDS = (0, 1)  # the claimed workload's seeds, 10 pairs each
PAIRS = 10
CONTROL_SEED = 1  # the other workloads' seed, 3 pairs each, and the A/A runs' seed
CONTROL_PAIRS = 3
TRACE_SEED = 0
# the traced layers reported for every claim, beside those named by --layer-moved
TRACED = ("solver.iterations", "solver.solve.s", "potentials.check_assumptions.calls",
          "potentials.check_assumptions.s", "cli.self_s", "cli.main.s")


def perfbench(tree: Path, workload: str, seed: int, trace: bool) -> dict:
    """The last JSON line of one ``perfbench/run.py`` run in ``tree``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--trace", str(int(trace))]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} failed (exit {done.returncode}):\n"
                           f"{done.stderr[-2000:]}")
    return json.loads(lines[-1])


def spread(values: list[float]) -> list[float]:
    """[median, q1, q3] with inclusive quartiles, rounded for reading."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [round(median, 5), round(q1, 5), round(q3, 5)]


def pairs(parent: Path, change: Path, workload: str, seed: int, count: int) -> dict:
    """``count`` alternating pairs of untraced runs, summarized per end-to-end metric."""
    runs = {"parent": [], "change": []}
    for k in range(1, count + 1):
        order = [("parent", parent), ("change", change)]
        for side, tree in order if k % 2 else order[::-1]:
            print(f"{workload} seed {seed} pair {k}/{count}: {side}", file=sys.stderr)
            runs[side].append(perfbench(tree, workload, seed, trace=False))
    out = {"seed": seed, "pairs_run": count}
    for name in END_TO_END:
        got = {side: [run["metrics"][name]["value"] for run in runs[side]] for side in runs}
        lower = sum(c < p for p, c in zip(got["parent"], got["change"]))
        entry = {"parent": spread(got["parent"]), "change": spread(got["change"]),
                 "change_lower": f"{lower}/{count}"}
        if name == "wall_norm_s":
            entry["pairs"] = [[round(p, 5), round(c, 5)]
                              for p, c in zip(got["parent"], got["change"])]
            entry["median_ratio"] = round(statistics.median(
                c / p for p, c in zip(got["parent"], got["change"])), 4)
            drop = entry["parent"][0] - entry["change"][0]
            quartile_spread = entry["parent"][2] - entry["parent"][1]
            entry["median_drop"] = round(drop, 5)
            entry["parent_quartile_spread"] = round(quartile_spread, 5)
            if workload == CLAIMED:
                entry["claim_holds"] = lower >= 0.9 * PAIRS and drop > quartile_spread
        out[name] = entry
    out["failed_ops"] = {side: sum(run["failed"] for run in runs[side]) for side in runs}
    return out


def host() -> str:
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    except OSError:
        pass
    import numpy

    return (f"{os.cpu_count()}-CPU {model or platform.machine()}, Python "
            f"{platform.python_version()}, numpy {numpy.__version__}, one BLAS thread per "
            f"pass, PYTHONDONTWRITEBYTECODE={os.environ.get('PYTHONDONTWRITEBYTECODE', '')}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--a-a", type=Path, default=None, dest="a_a")
    ap.add_argument("--parent-label", default=None)
    ap.add_argument("--change-label", default=None)
    ap.add_argument("--layer-moved", nargs="*", default=[])
    ap.add_argument("--what-moved-it", default="")
    args = ap.parse_args(argv)

    record = {
        "command": f"python3 perfbench/run.py --workload {CLAIMED} --seed {TRACE_SEED} "
                   "--trace 1",
        "untraced_command": "python3 perfbench/run.py --workload <w> --seed <s> --trace 0",
        "seed": TRACE_SEED, "host": host(), "layer_moved": args.layer_moved,
        "what_moved_it": args.what_moved_it,
    }
    traced = {}
    for side, tree, label in (("parent", args.parent, args.parent_label),
                              ("change", args.change, args.change_label)):
        print(f"traced {CLAIMED} seed {TRACE_SEED}: {side}", file=sys.stderr)
        traced[side] = perfbench(tree, CLAIMED, TRACE_SEED, True)
        record[side] = {"commit": label or tree.name, "last_json_line": traced[side]}
    record["traced_summary"] = {
        name: [traced[side]["metrics"][name]["value"] for side in ("parent", "change")]
        for name in dict.fromkeys([*args.layer_moved, *TRACED])}

    measured = {"note": (
        "untraced; odd pairs parent first; median [q1, q3] of the run medians (inclusive "
        "quartiles); change_lower counts the pairs where the change reads lower; "
        "median_ratio is the median of the paired change/parent ratios; claim_holds: "
        "lower in at least 9 of 10 pairs and a median drop above the parent's quartile "
        "spread")}
    for seed in SEEDS:
        measured[f"{CLAIMED}_seed{seed}"] = pairs(args.parent, args.change, CLAIMED, seed,
                                                  PAIRS)
    for workload in CONTROLS:
        measured[workload] = pairs(args.parent, args.change, workload, CONTROL_SEED,
                                   CONTROL_PAIRS)
    record["end_to_end_pairs"] = measured

    if args.a_a is not None:
        a_a = {"note": f"the parent and a second copy of it, seed {CONTROL_SEED}, "
                       "untraced: [parent, copy] run medians"}
        for workload in (CLAIMED, *CONTROLS):
            print(f"A/A {workload}", file=sys.stderr)
            runs = [perfbench(tree, workload, CONTROL_SEED, False)
                    for tree in (args.parent, args.a_a)]
            a_a[workload] = {name: [round(run["metrics"][name]["value"], 5) for run in runs]
                             for name in END_TO_END}
        record["a_a"] = a_a

    args.out.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
