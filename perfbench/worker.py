"""One benchmark pass in a fresh interpreter; prints one JSON line.

    python3 worker.py --workload NAME --seed N --trace 0|1 [--setup-only]

run.py starts this with the pinned environment, the package source on
PYTHONPATH and the current directory set to an empty scratch directory,
which receives the CLI artifacts. set-up is timed from the first statement
to the first timed call: importing numpy and dnls and building the inputs.
The timed pass runs under probe.SpeedProbe; wall_s and cpu_s leave out the
probe's own share, and wall_norm_s and cpu_norm_s are them at the probe
kernel's nominal speed.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402

import dnls  # noqa: E402
from probe import SpeedProbe  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, artifact_digests  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    source = Path(os.environ["PERFBENCH_SOURCE"]).resolve()
    if source not in Path(dnls.__file__).resolve().parents:
        print(f"dnls imported from {dnls.__file__}, not from {source}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]()
    jobs = workload.build(args.seed)
    setup_s = time.perf_counter() - _T0
    result = {"setup_s": setup_s, "python": sys.version.split()[0],
              "numpy": numpy.__version__}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    tracer = None
    if args.trace:
        tracer = Tracer().install()
        for job in jobs:
            if "potential" in job:
                job["potential"] = tracer.wrap_potential(job["potential"])
    try:
        with SpeedProbe() as probe:
            outputs = workload.run(jobs)
    finally:
        if tracer is not None:
            tracer.restore()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    try:
        checks = workload.check(jobs, outputs)
    except (OSError, KeyError, ValueError) as exc:  # missing or malformed artifacts
        checks = [("outputs readable", False, repr(exc))]
    result.update(
        probe.summary(), peak_rss_mb=peak_rss_mb,
        checks=[list(c) for c in checks],
        artifacts=artifact_digests(Path.cwd()),
    )
    if tracer is not None:
        result["trace"] = tracer.dump()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
