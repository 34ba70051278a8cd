import argparse
import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import dnls
from dnls.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"

PUBLIC = [
    "AssumptionReport", "BlowUpError", "CATALOG", "Cell", "Check",
    "DecayFit", "DegenerateProfileError", "EnergyBreakdown",
    "EquilibriumReport", "EvolutionState", "HomoclinicResult",
    "HomoclinicVerdict", "IndexScheme", "Potential", "Profile",
    "RunDiagnostics", "SolverConfig", "Violation", "WaveSolution",
    "box_profile", "check_assumptions", "cone_slack", "coupling", "custom",
    "decay_fit", "energy", "exp_profile", "exp_quadratic", "grad_p",
    "homoclinic", "in_cone", "initial_ansatz",
    "integrate", "neighbor_sum", "nonconvex_rational", "oracle_maximize",
    "parse_potential_spec", "participation_ratio", "potential_energy",
    "power", "power_law", "profile_from_csv", "profile_to_csv",
    "project_cone", "quartic", "relative_equilibrium_check", "residual",
    "restrict", "saturable_arctan", "saturable_log", "sigma", "solve",
    "t_lower_bounds",
]


def test_public_names():
    assert dnls.__all__ == PUBLIC
    for name in PUBLIC:
        assert hasattr(dnls, name), name


SOLVER_FLAGS = ["--potential", "--alpha", "--rho", "--scheme", "--N", "--tau",
                "--tol-residual", "--max-iters", "--config", "--out"]
CLI = {
    "dnls": ["-h", "--help", "--version"],
    "solve": ["-h", "--help", *SOLVER_FLAGS],
    "sweep": ["-h", "--help", *SOLVER_FLAGS, "--param", "--values", "--from", "--to", "--step"],
    "homoclinic": ["-h", "--help", *SOLVER_FLAGS, "--N-seq", "--margin"],
    "check-potential": ["-h", "--help", "--potential", "--x-max", "--samples", "--out"],
    "oracle": ["-h", "--help", *SOLVER_FLAGS, "--grid-points"],
    "evolve": ["-h", "--help", *SOLVER_FLAGS, "--t-end", "--dt", "--sample-every"],
}


def test_cli_flags():
    # a flag added or removed shows up here, as a public name does above
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    commands = {"dnls": parser, **sub.choices}
    assert {name: [s for a in p._actions for s in a.option_strings]
            for name, p in commands.items()} == CLI


def test_benchmark_tracer_targets_resolve():
    # the benchmark patches these by name; a missing one breaks only the trace
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    targets = {**tracer.SPANS, **tracer.COUNTERS}
    assert targets
    for label, (module, name) in targets.items():
        assert callable(getattr(importlib.import_module(module), name, None)), label


def test_benchmark_self_test_passes():
    # it checks what the tracer assumes of dnls, beyond the names resolving
    done = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
