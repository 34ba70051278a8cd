import argparse
import ast
import dataclasses
import importlib
import importlib.util
import inspect
import subprocess
import sys
import typing
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
    "box_profile", "check_assumptions", "cone_slack", "coupling",
    "decay_fit", "energy", "exp_profile", "exp_quadratic", "grad_p",
    "homoclinic", "in_cone", "initial_ansatz",
    "integrate", "neighbor_sum", "nonconvex_rational", "oracle_maximize",
    "parse_potential_spec", "participation_ratio", "potential_energy",
    "power", "power_law", "profile_from_csv", "profile_to_csv",
    "project_cone", "quartic", "relative_equilibrium_check", "residual",
    "restrict", "saturable_arctan", "saturable_log", "solve",
    "t_lower_bounds",
]


def test_public_names():
    assert dnls.__all__ == PUBLIC
    for name in PUBLIC:
        assert hasattr(dnls, name), name


def parameter_types(fn, owner=None):
    """The annotated types of a callable's parameters, unions split; a method's ``self``
    counts as its class. Names that a module imports only for type checking are read
    from ``dnls``."""
    params = list(inspect.signature(fn, eval_str=True, locals=vars(dnls)).parameters.values())
    out = {owner} if owner is not None and params and params[0].name == "self" else set()
    for p in params:
        out.update(typing.get_args(p.annotation) or (p.annotation,))
    return out


def test_no_public_callable_takes_a_wave_beside_a_config():
    # a wave carries the config and the potential it solved; a config, one of its
    # fields or a potential passed beside it could disagree with it, and the wave's
    # own would silently lose
    callables = []
    for name in dnls.__all__:
        obj = getattr(dnls, name)
        if inspect.isclass(obj):
            callables += [(m, obj) for attr, m in inspect.getmembers(obj, inspect.isfunction)
                          if not attr.startswith("_")]
        elif inspect.isfunction(obj):
            callables.append((obj, None))
    assert (dnls.WaveSolution.to_dict, dnls.WaveSolution) in callables
    assert dnls.WaveSolution in parameter_types(dnls.decay_fit)
    assert dnls.WaveSolution in parameter_types(dnls.relative_equilibrium_check)
    assert [fn.__qualname__ for fn, owner in callables
            if {dnls.WaveSolution, dnls.SolverConfig} <= parameter_types(fn, owner)] == []
    assert [fn.__qualname__ for fn, owner in callables
            if {dnls.WaveSolution, dnls.Potential} <= parameter_types(fn, owner)] == []
    config_fields = {f.name for f in dataclasses.fields(dnls.SolverConfig)}
    assert [fn.__qualname__ for fn, owner in callables
            if dnls.WaveSolution in parameter_types(fn, owner)
            and config_fields & set(inspect.signature(fn).parameters)] == []


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


def tracer_targets():
    """(module, name) of every function the benchmark's tracer patches, by label."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return {**tracer.SPANS, **tracer.COUNTERS}


def names_used(path):
    """(name, names of the enclosing defs and classes) for each name that a file
    loads, imports, or reaches as an attribute of ``dnls`` or of one of its modules."""
    out = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope | {node.name}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.append((node.id, scope))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            out.extend((alias.name.rpartition(".")[2], scope) for alias in node.names)
        elif isinstance(node, ast.Attribute):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id == "dnls":
                out.append((node.attr, scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text()), frozenset())
    return out


def test_every_public_name_is_used():
    # the public API is what a command, the acceptance suite or the benchmark calls;
    # a use inside the name's own def or class does not count, nor does the export list
    used = {name for path in (ROOT / "src" / "dnls").glob("*.py") if path.name != "__init__.py"
            for name, scope in names_used(path) if name not in scope}
    for path in (ROOT / "tests" / "test_acceptance.py", ROOT / "perfbench" / "workloads.py"):
        used |= {name for name, _ in names_used(path)}
    used |= {name for _, name in tracer_targets().values()}
    # profile_from_csv reads the profile artifacts back; the CLI tests check them with it
    used.add("profile_from_csv")
    assert sorted(set(dnls.__all__) - used) == []


def test_benchmark_tracer_targets_resolve():
    # the benchmark patches these by name; a missing one breaks only the trace
    targets = tracer_targets()
    assert targets
    for label, (module, name) in targets.items():
        assert callable(getattr(importlib.import_module(module), name, None)), label


def test_benchmark_self_test_passes():
    # it checks what the tracer assumes of dnls, beyond the names resolving
    done = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
