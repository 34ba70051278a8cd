"""dnls benchmark: closed-loop workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table each

Run from the root of a source checkout; the package is imported from
./src. Each pass runs in a fresh child interpreter (worker.py) with one
BLAS/OpenMP thread, DNLS_THREADS unset and an empty scratch directory for
its artifacts. Passes repeat back to back until --seconds is used up (at
least two, so artifacts can be compared between passes); a timing is the
median over the passes, set-up the median over at least MIN_SETUPS fresh
interpreters.

--trace 0 reports the end-to-end metrics (wall_norm_s, cpu_norm_s, setup_s,
peak_rss_mb) from untraced passes; the table beside them also gives the raw
wall_s and cpu_s and the probe kernel's mean time (probe.py). --trace 1
alternates untraced and traced passes and reports the per-layer metrics of
tracer.LAYER_METRICS from the traced ones, plus the tracing overhead. The
last line of standard output is one JSON object: {"correct", "attempted",
"failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracer import LAYER_METRICS, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SOURCE = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"

WORKLOAD_NAMES = ("sweep", "ladder", "tiny_cells", "evolve")
END_TO_END = {"wall_norm_s": "s", "cpu_norm_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# printed in the table only: they drift with the host's speed
RAW = {"wall_s": "s", "cpu_s": "s", "probe_ms": "ms"}
MIN_PASSES = 2
MIN_SETUPS = 9
CHILD_TIMEOUT_S = 100.0
# no pass starts after this much of a run, whatever --seconds says
LAST_START_S = 60.0


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "DNLS_THREADS"}
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = str(SOURCE)
    env["PYTHONHASHSEED"] = "0"
    env["PERFBENCH_SOURCE"] = str(SOURCE)
    return env


def run_child(workload: str, seed: int, trace: bool, setup_only: bool, scratch: Path) -> dict:
    """Run worker.py once in its own empty directory and return its JSON result."""
    cwd = Path(tempfile.mkdtemp(dir=scratch))
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(trace))]
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd, cwd=cwd, env=child_env(), capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    finally:
        shutil.rmtree(cwd, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker failed (exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool, scratch: Path) -> dict:
    """Closed loop of passes for one workload; returns the aggregated run."""
    passes, setups = [], []
    start = time.perf_counter()
    last = 0.0
    while True:
        elapsed = time.perf_counter() - start
        if len(passes) >= (2 * MIN_PASSES if trace else MIN_PASSES) and (
                elapsed + last > seconds or elapsed > LAST_START_S):
            break
        traced = trace and len(passes) % 2 == 1
        t0 = time.perf_counter()
        res = run_child(workload, seed, traced, False, scratch)
        last = time.perf_counter() - t0
        res["traced"] = traced
        passes.append(res)
        setups.append(res["setup_s"])
    while len(setups) < MIN_SETUPS:
        setups.append(run_child(workload, seed, False, True, scratch)["setup_s"])

    checks = []
    for res in passes:
        checks += [tuple(c) for c in res["checks"]]
    reference = passes[0]["artifacts"]["files"]
    if reference:
        for k, res in enumerate(passes[1:], 2):
            same = res["artifacts"]["files"] == reference
            checks.append((f"artifacts of pass {k} identical to pass 1", same, ""))

    untraced = [p for p in passes if not p["traced"]]
    run = {
        "workload": workload, "seed": seed, "passes": len(passes), "setups": len(setups),
        "checks": checks,
        "env": {"python": passes[0]["python"], "numpy": passes[0]["numpy"]},
        "samples": {
            "wall_norm_s": [p["wall_norm_s"] for p in untraced],
            "cpu_norm_s": [p["cpu_norm_s"] for p in untraced],
            "setup_s": setups,
            "peak_rss_mb": [p["peak_rss_mb"] for p in untraced],
            "wall_s": [p["wall_s"] for p in untraced],
            "cpu_s": [p["cpu_s"] for p in untraced],
            "probe_ms": [p["probe_ms"] for p in untraced],
        },
    }
    if trace:
        layers = []
        for p in passes:
            if p["traced"]:
                rec = dict(p["trace"], wall_s=p["wall_s"],
                           artifact_bytes=p["artifacts"]["bytes"],
                           artifact_files=len(p["artifacts"]["files"]))
                layers.append(layer_metrics(rec))
        for name, (unit, _, _) in LAYER_METRICS.items():
            if unit in ("count", "bytes"):
                same = all(m[name] == layers[0][name] for m in layers)
                checks.append((f"{name} repeats exactly", same,
                               str([m[name] for m in layers])))
        run["layers"] = {name: [m[name] for m in layers] for name in layers[0]}
        run["layers"]["trace.overhead_s"] = [
            statistics.median(run["layers"]["trace.wall_s"])
            - statistics.median(run["samples"]["wall_s"])]
    return run


def metrics_of(run: dict, trace: bool) -> dict:
    if trace:
        # counts repeat exactly (checked in measure), so the first pass stands for all
        return {name: {"value": (run["layers"][name][0] if unit in ("count", "bytes")
                                 else statistics.median(run["layers"][name])),
                       "unit": unit} for name, (unit, _, _) in LAYER_METRICS.items()}
    return {name: {"value": statistics.median(run["samples"][name]), "unit": unit}
            for name, unit in END_TO_END.items()}


def print_table(run: dict, metrics: dict, load: tuple) -> None:
    failed = sum(1 for c in run["checks"] if not c[1])
    attempted = len(run["checks"])
    print(f"# workload {run['workload']}  seed {run['seed']}  passes {run['passes']}  "
          f"set-ups {run['setups']}  python {run['env']['python']}  "
          f"numpy {run['env']['numpy']}  nproc {os.cpu_count()}  "
          f"load {' '.join(f'{x:.2f}' for x in load)}")
    if "wall_norm_s" in metrics:
        metrics = dict(metrics, **{name: {"value": statistics.median(run["samples"][name]),
                                          "unit": unit} for name, unit in RAW.items()})
    for name, m in metrics.items():
        spread = ""
        samples = run.get("samples", {}).get(name) or run.get("layers", {}).get(name)
        if samples and len(samples) > 1:
            q1, _, q3 = statistics.quantiles(samples, n=4)
            spread = f"  (median of {len(samples)}, q1 {q1:.6g}, q3 {q3:.6g})"
        print(f"  {name:40s} {m['value']:>14.6g} {m['unit']}{spread}")
    print(f"  {'fail_frac':40s} {failed / attempted:>14.6g} 1  "
          f"({failed} failed / {attempted} attempted)")
    for name, ok, detail in run["checks"]:
        if not ok:
            print(f"  FAILED {name}: {detail}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0,
                    help="0 reproduces the acceptance-suite inputs; others jitter them")
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SOURCE / "dnls" / "__init__.py").is_file():
        print(f"no dnls source under {SOURCE}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    # turn SIGTERM into SystemExit, so that subprocess.run kills and reaps the child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    load = os.getloadavg()
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    SCRATCH.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=SCRATCH))
    try:
        runs = [measure(n, args.seed, args.seconds, bool(args.trace), scratch) for n in names]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass  # another run still uses it

    attempted = failed = 0
    metrics = {}
    for run in runs:
        m = metrics_of(run, bool(args.trace))
        print_table(run, m, load)
        attempted += len(run["checks"])
        failed += sum(1 for c in run["checks"] if not c[1])
        prefix = "" if len(runs) == 1 else f"{run['workload']}."
        metrics.update({prefix + k: v for k, v in m.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
