"""Outside tracer for the dnls layers: spans, leaf counters and layer metrics.

The tracer never edits the package. It replaces public functions in every
``dnls`` module namespace that holds them (a function imported with
``from .lattice import cone_slack`` lives in ``dnls.solver`` as well as in
``dnls.lattice``), wraps the frozen ``Potential`` callbacks with
``dataclasses.replace``, and puts every original back on ``restore``.

Coarse boundaries record spans (name, start, end, parent) in memory; hot
leaves only bump aggregate counters. ``layer_metrics`` turns one traced
pass into the per-layer metrics listed in ``LAYER_METRICS``.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import sys
import time

# (module, function) pairs traced with a span, keyed by span name
SPANS = {
    "cli.main": ("dnls.cli", "main"),
    "solver.solve": ("dnls.solver", "solve"),
    "solver.initial_ansatz": ("dnls.solver", "initial_ansatz"),
    "potentials.check_assumptions": ("dnls.potentials", "check_assumptions"),
    "solver.decay_fit": ("dnls.solver", "decay_fit"),
    "solver.homoclinic": ("dnls.solver", "homoclinic"),
    "solver.oracle_maximize": ("dnls.solver", "oracle_maximize"),
    "evolution.integrate": ("dnls.evolution", "integrate"),
    "evolution.relative_equilibrium_check": ("dnls.evolution", "relative_equilibrium_check"),
}

# hot leaves: call count and inclusive time only
COUNTERS = {
    "lattice.neighbor_sum": ("dnls.lattice", "neighbor_sum"),
    "lattice.cone_slack": ("dnls.lattice", "cone_slack"),
    "lattice.project_cone": ("dnls.lattice", "project_cone"),
    "functionals.energy": ("dnls.functionals", "energy"),
    "functionals.residual": ("dnls.functionals", "residual"),
    "functionals.participation_ratio": ("dnls.functionals", "participation_ratio"),
}

STOP_REASONS = ("residual", "stagnation", "max_iters")

# name -> (unit, better, the end-to-end metric and workloads it should move)
LAYER_METRICS = {
    "solver.iterations": ("count", "lower", "wall_s on ladder, sweep"),
    "solver.restarts": ("count", "lower", "wall_s on ladder, sweep"),
    "solver.solve.calls": ("count", "lower", "wall_s on ladder, sweep"),
    "solver.solve.s": ("s", "lower", "wall_s on ladder, sweep; none on evolve"),
    "solver.solve.self_s": ("s", "lower", "wall_s on ladder, sweep; none on evolve"),
    "solver.ascent_us_per_iter": ("us", "lower", "wall_s on ladder, sweep"),
    "solver.max_halvings": ("count", "lower", "wall_s on ladder, sweep"),
    "solver.stop_reason.residual": ("count", "higher", "fail_frac on every workload"),
    "solver.stop_reason.stagnation": ("count", "lower", "fail_frac on every workload"),
    "solver.stop_reason.max_iters": ("count", "lower", "fail_frac on every workload"),
    "solver.initial_ansatz.s": ("s", "lower", "wall_s on tiny_cells; little on ladder"),
    "solver.decay_fit.s": ("s", "lower", "wall_s on tiny_cells; little on ladder"),
    "solver.homoclinic.s": ("s", "lower", "wall_s on ladder"),
    "solver.oracle_maximize.calls": ("count", "lower", "wall_s on tiny_cells"),
    "solver.oracle_maximize.s": ("s", "lower", "wall_s on tiny_cells"),
    "potentials.check_assumptions.calls": ("count", "lower", "wall_s on tiny_cells"),
    "potentials.check_assumptions.s": ("s", "lower", "wall_s on tiny_cells"),
    "potentials.psi.calls": ("count", "lower", "wall_s on ladder, sweep"),
    "potentials.dpsi.calls": ("count", "lower", "wall_s on ladder, sweep"),
    "potentials.psi.calls_per_iter": ("1/iter", "lower", "wall_s on ladder, sweep"),
    "potentials.dpsi.calls_per_iter": ("1/iter", "lower", "wall_s on ladder, sweep"),
    "lattice.cone_slack.calls": ("count", "lower", "wall_s on ladder"),
    "lattice.cone_slack.s": ("s", "lower", "wall_s on ladder"),
    "lattice.cone_slack.calls_per_iter": ("1/iter", "lower", "wall_s on ladder"),
    "lattice.neighbor_sum.calls": ("count", "lower", "wall_s on ladder, evolve"),
    "lattice.neighbor_sum.s": ("s", "lower", "wall_s on ladder, evolve"),
    "lattice.project_cone.calls": ("count", "lower", "wall_s on ladder (0 under the default guard)"),
    "functionals.energy.calls": ("count", "lower", "wall_s on tiny_cells, sweep"),
    "functionals.energy.s": ("s", "lower", "wall_s on tiny_cells, sweep"),
    "functionals.residual.calls": ("count", "lower", "wall_s on tiny_cells, sweep"),
    "functionals.residual.s": ("s", "lower", "wall_s on tiny_cells, sweep"),
    "functionals.participation_ratio.s": ("s", "lower", "wall_s on tiny_cells, sweep"),
    "evolution.integrate.calls": ("count", "lower", "wall_s on evolve; none elsewhere"),
    "evolution.integrate.s": ("s", "lower", "wall_s on evolve; none elsewhere"),
    "evolution.rk4_steps": ("count", "lower", "wall_s on evolve; none elsewhere"),
    "evolution.us_per_step": ("us", "lower", "wall_s on evolve; none elsewhere"),
    "evolution.relative_equilibrium_check.s": ("s", "lower", "wall_s on evolve; none elsewhere"),
    "cli.main.s": ("s", "lower", "wall_s on evolve, sweep"),
    "cli.self_s": ("s", "lower", "wall_s on evolve, sweep"),
    "cli.artifact_bytes": ("bytes", "lower", "wall_s on evolve, sweep"),
    "cli.artifact_files": ("count", "lower", "wall_s on evolve, sweep"),
    "trace.wall_s": ("s", "lower", "base of trace.overhead_s"),
    "trace.overhead_s": ("s", "lower", "none: traced wall_s minus untraced wall_s"),
}


def self_time(start: float, end: float, children) -> float:
    """Duration of [start, end] minus the part covered by the child intervals."""
    covered = 0.0
    reach = start
    for c_start, c_end in sorted(children):
        c_start, c_end = max(c_start, reach), min(c_end, end)
        if c_end > c_start:
            covered += c_end - c_start
            reach = c_end
    return (end - start) - covered


def per(numerator: float, base: float, scale: float = 1.0) -> float:
    """numerator / base * scale, or 0 when the base is 0 (the layer did not run)."""
    return numerator * scale / base if base else 0.0


class Tracer:
    """Patches the dnls namespaces in place; ``restore`` undoes every patch."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counters = {name: [0, 0.0] for name in COUNTERS}
        self.counters["potentials.psi"] = [0, 0.0]
        self.counters["potentials.dpsi"] = [0, 0.0]
        self.solves = []     # (iterations, restarted, max_halvings, stop_reason)
        self.rk4_steps = 0
        self._stack = []
        self._patches = []   # (module, attribute, original)

    # -- wrappers -----------------------------------------------------------

    def span(self, name, fn, on_result=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append([name, time.perf_counter(), None, parent])
            self._stack.append(index)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[index][2] = time.perf_counter()
            if on_result is not None:
                on_result(out)
            return out
        return wrapper

    def count(self, name, fn):
        counter = self.counters[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                counter[0] += 1
                counter[1] += time.perf_counter() - t0
        return wrapper

    def wrap_potential(self, p):
        """Copy of a frozen Potential whose psi/dpsi callbacks are counted."""
        return dataclasses.replace(p, psi=self.count("potentials.psi", p.psi),
                                   dpsi=self.count("potentials.dpsi", p.dpsi))

    def _on_solve(self, sol):
        d = sol.diagnostics
        self.solves.append((sol.iterations, d.restarted, d.max_halvings, d.stop_reason))

    def _on_integrate(self, out):
        self.rk4_steps += out[1]["steps"]

    # -- installation -------------------------------------------------------

    def patch(self, original, replacement) -> None:
        """Replace ``original`` by identity in every loaded dnls namespace."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "dnls" or mod_name.startswith("dnls.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, replacement)

    def install(self):
        hooks = {"solver.solve": self._on_solve,
                 "evolution.integrate": self._on_integrate}
        for name, (mod_name, attr) in SPANS.items():
            fn = getattr(importlib.import_module(mod_name), attr)
            self.patch(fn, self.span(name, fn, hooks.get(name)))
        for name, (mod_name, attr) in COUNTERS.items():
            fn = getattr(importlib.import_module(mod_name), attr)
            self.patch(fn, self.count(name, fn))
        parse = importlib.import_module("dnls.potentials").parse_potential_spec

        @functools.wraps(parse)
        def traced_parse(spec):
            return self.wrap_potential(parse(spec))
        self.patch(parse, traced_parse)
        return self

    def restore(self):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    # -- output -------------------------------------------------------------

    def dump(self) -> dict:
        """Everything a traced pass recorded, as plain JSON-ready data."""
        return {
            "spans": [list(s) for s in self.spans],
            "counters": {k: list(v) for k, v in self.counters.items()},
            "solves": [list(s) for s in self.solves],
            "rk4_steps": self.rk4_steps,
        }


def layer_metrics(record: dict) -> dict:
    """Per-layer metrics of one traced pass from ``Tracer.dump()`` output.

    The record also carries ``wall_s`` of the traced pass and the artifact
    totals ``artifact_bytes`` and ``artifact_files``.
    """
    spans = record["spans"]
    children = {i: [] for i in range(len(spans))}
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    total, calls, own = {}, {}, {}
    for i, (name, start, end, _) in enumerate(spans):
        total[name] = total.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        own[name] = own.get(name, 0.0) + self_time(start, end, children[i])

    counters = record["counters"]
    solves = record["solves"]
    iterations = sum(s[0] for s in solves)
    steps = record["rk4_steps"]
    m = {
        "solver.iterations": iterations,
        "solver.restarts": sum(1 for s in solves if s[1]),
        "solver.solve.calls": calls.get("solver.solve", 0),
        "solver.solve.s": total.get("solver.solve", 0.0),
        "solver.solve.self_s": own.get("solver.solve", 0.0),
        "solver.ascent_us_per_iter": per(own.get("solver.solve", 0.0), iterations, 1e6),
        "solver.max_halvings": max((s[2] for s in solves), default=0),
    }
    for reason in STOP_REASONS:
        m[f"solver.stop_reason.{reason}"] = sum(1 for s in solves if s[3] == reason)
    for name in ("solver.initial_ansatz", "solver.decay_fit", "solver.homoclinic"):
        m[f"{name}.s"] = total.get(name, 0.0)
    m["solver.oracle_maximize.calls"] = calls.get("solver.oracle_maximize", 0)
    m["solver.oracle_maximize.s"] = total.get("solver.oracle_maximize", 0.0)
    m["potentials.check_assumptions.calls"] = calls.get("potentials.check_assumptions", 0)
    m["potentials.check_assumptions.s"] = total.get("potentials.check_assumptions", 0.0)
    for leaf in ("psi", "dpsi"):
        n = counters[f"potentials.{leaf}"][0]
        m[f"potentials.{leaf}.calls"] = n
        m[f"potentials.{leaf}.calls_per_iter"] = per(n, iterations)
    m["lattice.cone_slack.calls"] = counters["lattice.cone_slack"][0]
    m["lattice.cone_slack.s"] = counters["lattice.cone_slack"][1]
    m["lattice.cone_slack.calls_per_iter"] = per(counters["lattice.cone_slack"][0], iterations)
    m["lattice.neighbor_sum.calls"] = counters["lattice.neighbor_sum"][0]
    m["lattice.neighbor_sum.s"] = counters["lattice.neighbor_sum"][1]
    m["lattice.project_cone.calls"] = counters["lattice.project_cone"][0]
    for leaf in ("energy", "residual"):
        m[f"functionals.{leaf}.calls"] = counters[f"functionals.{leaf}"][0]
        m[f"functionals.{leaf}.s"] = counters[f"functionals.{leaf}"][1]
    m["functionals.participation_ratio.s"] = counters["functionals.participation_ratio"][1]
    m["evolution.integrate.calls"] = calls.get("evolution.integrate", 0)
    m["evolution.integrate.s"] = total.get("evolution.integrate", 0.0)
    m["evolution.rk4_steps"] = steps
    m["evolution.us_per_step"] = per(total.get("evolution.integrate", 0.0), steps, 1e6)
    m["evolution.relative_equilibrium_check.s"] = total.get(
        "evolution.relative_equilibrium_check", 0.0)
    m["cli.main.s"] = total.get("cli.main", 0.0)
    m["cli.self_s"] = own.get("cli.main", 0.0)
    m["cli.artifact_bytes"] = record["artifact_bytes"]
    m["cli.artifact_files"] = record["artifact_files"]
    m["trace.wall_s"] = record["wall_s"]
    return m
