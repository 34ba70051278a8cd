"""Command-line front end: solve, sweep, homoclinic, check-potential, oracle, evolve.

Every command writes plot-ready JSON/CSV artifacts and a run manifest under
the ``--out`` prefix, creating its directory. Exit codes: 0 success, 1 usage,
validation or write error, 2 operational failure (e.g. non-convergence).
Identical flags produce byte-identical artifacts except for the wall time in
the manifest. ``--config`` reads a JSON object keyed by solver config field
names; explicit flags win over it.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .evolution import _equilibrium_steps, relative_equilibrium_check
from .functionals import participation_ratio
from .lattice import _index_labels, _whole, _write_csv, profile_to_csv
from .potentials import Potential, check_assumptions, parse_potential_spec
from .oracle import _ORACLE_GRID_POINTS, oracle_maximize
from .solver import SolverConfig, homoclinic, solve

USAGE_ERROR = 1
OPERATIONAL_ERROR = 2
_SWEEP_MAX_POINTS = 1000
_EVOLVE_MAX_SITE_STEPS = 10**7


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; usage errors are 1 here
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


class _Artifacts:
    """The files a command writes under its ``--out`` prefix, and their manifest.

    Each artifact is the prefix plus a suffix, and the first one creates the
    prefix's directory. ``close`` lists them in write order in
    ``<out>.manifest.json``, with the command, its ``config``, the wall time
    and the tool version.
    """

    def __init__(self, args):
        self.command, self.prefix, self.started = args.command, str(Path(args.out)), time.time()
        self.config, self.outputs = {}, []

    def path(self, suffix: str) -> Path:
        if not self.outputs:
            Path(self.prefix).parent.mkdir(parents=True, exist_ok=True)
        self.outputs.append(Path(self.prefix + suffix))
        return self.outputs[-1]

    def json(self, suffix: str, obj) -> None:
        self.path(suffix).write_text(json.dumps(obj, indent=2) + "\n")

    def close(self) -> None:
        if self.outputs:  # a command that wrote nothing writes no manifest either
            self.json(".manifest.json", {"command": self.command, "config": self.config,
                                         "outputs": [str(o) for o in self.outputs],
                                         "wall_time": time.time() - self.started,
                                         "tool_version": __version__})


def _add_solver_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--potential", default="saturable-arctan",
                    help="catalog name or power:eta=<r>,c=<r>")
    sp.add_argument("--alpha", type=float, default=None)
    sp.add_argument("--rho", type=float, default=None)
    sp.add_argument("--scheme", choices=["onsite", "intersite"], default=None)
    sp.add_argument("--N", type=int, default=None, dest="n")
    sp.add_argument("--tau", type=float, default=None)
    sp.add_argument("--tol-residual", type=float, default=None)
    sp.add_argument("--max-iters", type=int, default=None)
    sp.add_argument("--config", default=None,
                    help="JSON file mirroring the solver config field names")
    sp.add_argument("--out", default="wave", help="output path prefix")


def _solver_inputs(args, out: _Artifacts, varied="") -> tuple[SolverConfig, Potential]:
    """The solver config (``--config``, then the flags) and ``--potential``. ``varied`` is the
    flag of the field that the command varies (``rho``, ``alpha``, or ``N`` for ``n``): that
    flag is refused, and the manifest ``config`` lists the other solver fields, the
    potential's label, then the command's keys."""
    file = {}
    if args.config:
        try:
            file = json.loads(Path(args.config).read_text())
        except OSError as exc:
            raise ValueError(f"cannot read config file {args.config}: {exc.strerror}") from exc
        if not isinstance(file, dict):
            raise ValueError(f"config file {args.config} must hold a JSON object")
    flags = {f.name: getattr(args, f.name) for f in fields(SolverConfig)
             if getattr(args, f.name) is not None}
    field = varied.lower()
    if field in flags:
        raise ValueError(f"{args.command} varies {varied}, so --{varied} would set no wave")
    cfg = SolverConfig.from_dict({"alpha": 1.0, "rho": 1.0, **file, **flags})
    potential = parse_potential_spec(args.potential)
    out.config = {**cfg.to_dict(), "potential": potential.label}
    out.config.pop(field, None)  # the command records its values of the field
    return cfg, potential


def _finished(waves) -> int:
    """A solving command's exit once its artifacts are written, over its waves keyed by
    artifact tag: 0, or 2 and why each wave did not converge, led by its tag if it has one."""
    unconverged = {tag: sol for tag, sol in waves.items() if not sol.converged}
    for tag, sol in unconverged.items():
        print(f"{tag}{': ' if tag else ''}did not converge: stop={sol.diagnostics.stop_reason} "
              f"residual={sol.residual:.3e} after {sol.iterations} iterations", file=sys.stderr)
    return OPERATIONAL_ERROR if unconverged else 0


def cmd_solve(args, out: _Artifacts) -> int:
    cfg, potential = _solver_inputs(args, out)
    sol = solve(cfg, potential)
    out.json(".json", sol.to_dict())
    profile_to_csv(sol.profile, out.path(".profile.csv"))
    print(f"converged={sol.converged} sigma={sol.sigma:.12g} "
          f"residual={sol.residual:.3e} iterations={sol.iterations}")
    return _finished({"": sol})


def _numbers(flag: str, text: str) -> list[float]:
    """The comma-separated numbers of a grid flag, blank entries skipped."""
    numbers = []
    for x in filter(str.strip, text.split(",")):
        try:
            numbers.append(float(x))
        except ValueError:
            raise ValueError(f"{flag} takes numbers, not {x.strip()!r}") from None
    return numbers


def _sweep_grid(args):
    """The sweep values, from ``--values`` or from a range; the range is generated one by
    one so that a huge range is never built."""
    bounds = {"--from": args.start, "--to": args.stop, "--step": args.step}
    if args.values is not None:
        if any(value is not None for value in bounds.values()):
            raise ValueError("sweep takes its grid from --values or from --from, --to and "
                             "--step, not both")
        return _numbers("--values", args.values)
    for flag, value in bounds.items():
        if value is None:
            raise ValueError(f"sweep takes --values or a range, and the range lacks {flag}")
        if not np.isfinite(value):
            raise ValueError(f"{flag} must be finite, not {value}")
    if args.step <= 0:
        raise ValueError(f"--step must be positive, not {args.step}")
    # no further than one value past the cap, which a longer range exceeds
    count = round(min((args.stop - args.start) / args.step, _SWEEP_MAX_POINTS)) + 1
    grid = (args.start + k * args.step for k in range(count))
    return (g for g in grid if g <= args.stop + 1e-12 * max(1.0, abs(args.stop)))


def cmd_sweep(args, out: _Artifacts) -> int:
    base, potential = _solver_inputs(args, out, args.param)
    field = args.param.lower()
    tags = {}  # each value is judged as it arrives, before any solve
    for value in _sweep_grid(args):
        if len(tags) == _SWEEP_MAX_POINTS:
            raise ValueError(f"a sweep grid may hold at most {_SWEEP_MAX_POINTS} points")
        if field == "n":  # a cell size, converted once
            value = _whole(value, "sweep values of N")
        tag = f"{args.param}={value:g}"
        if tag in tags:
            raise ValueError(f"sweep values {tags[tag]!r} and {value!r} share the "
                             f"artifact name {tag}")
        tags[tag] = value
    if not tags:
        raise ValueError("empty sweep grid")
    grid = list(tags.values())
    out.config.update(sweep=args.param, grid=grid)

    configs = [replace(base, **{field: value}) for value in grid]
    for cfg in configs:  # every point is refused before the first solve
        cfg.validate()
    results = [solve(cfg, potential) for cfg in configs]

    rows = []
    for tag, value, sol in zip(tags, grid, results):
        out.json(f".{tag}.json", sol.to_dict())
        rows.append([value, sol.sigma, sol.energies.p_total, sol.energies.t_value, sol.residual,
                     np.max(sol.profile.values), participation_ratio(sol.profile)])
    summary = out.path(".summary.csv")
    _write_csv(summary, ["param", "sigma", "p_total", "t_value", "residual", "max_u",
                         "participation_ratio"], rows)
    n_conv = sum(s.converged for s in results)
    print(f"sweep over {args.param}: {n_conv}/{len(grid)} points converged; "
          f"summary at {summary}")
    return _finished(dict(zip(tags, results)))


def cmd_homoclinic(args, out: _Artifacts) -> int:
    cfg, potential = _solver_inputs(args, out, "N")
    result = homoclinic(cfg, potential, _numbers("--N-seq", args.n_seq), margin=args.margin)
    out.config["n_sequence"] = result.n_sequence
    for n, sol, rest in zip(result.n_sequence, result.solutions, result.restricted):
        out.json(f".N={n}.json", sol.to_dict())
        profile_to_csv(rest, out.path(f".N={n}.restricted.csv"))
    out.json(".json", result.to_dict())
    print(f"verdict={result.verdict.value} t_values={result.t_values}")
    return _finished({f"N={s.config.n}": s for s in result.solutions})


def cmd_check_potential(args, out: _Artifacts) -> int:
    potential = parse_potential_spec(args.potential)
    out.config = {"potential": potential.label, "x_max": args.x_max, "samples": args.samples}
    report = check_assumptions(potential, x_max=args.x_max, samples=args.samples)
    out.json(".json", {"potential": potential.label, **report.to_dict()})
    print(f"{potential.label}: {'passed' if report.passed else 'FAILED'} "
          f"({len(report.violations)} violations)")
    return 0 if report.passed else OPERATIONAL_ERROR


def cmd_oracle(args, out: _Artifacts) -> int:
    cfg, potential = _solver_inputs(args, out)
    out.config["grid_points"] = args.grid_points
    best, p_best = oracle_maximize(cfg, potential, grid_points=args.grid_points)
    sol = solve(cfg, potential)
    gap = abs(sol.energies.p_total - p_best) / max(abs(p_best), 1e-300)
    out.json(".json", {
        "config": cfg.to_dict(),
        "oracle_p": p_best,
        "solver_p": sol.energies.p_total,
        "relative_gap": gap,
        "profile_sup_diff": float(np.max(np.abs(best.values - sol.profile.values))),
    })
    profile_to_csv(best, out.path(".profile.csv"))
    print(f"oracle P={p_best:.12g} solver P={sol.energies.p_total:.12g} gap={gap:.2e}")
    return _finished({"": sol})


def cmd_evolve(args, out: _Artifacts) -> int:
    if args.sample_every < 1:
        raise ValueError(f"sample_every must be at least 1, not {args.sample_every}")
    steps = _equilibrium_steps(args.t_end, args.dt)
    cfg, potential = _solver_inputs(args, out)
    out.config.update(t_end=args.t_end, dt=args.dt, sample_every=args.sample_every)
    cfg.validate()
    # a float: 1e308 steps times N is inf, not an int too large to print
    site_steps = float(steps) * cfg.n
    if site_steps > _EVOLVE_MAX_SITE_STEPS:
        raise ValueError(f"evolve would take {site_steps:.3g} RK4 site-steps, "
                         f"more than the cap of {_EVOLVE_MAX_SITE_STEPS:.0e}")
    sol = solve(cfg, potential)
    if not sol.converged:  # nothing to evolve, so nothing is written
        return _finished({"": sol})

    samples = []  # (times, states) of each block's sampled rows, copied out of the block

    def sample(steps, times, states):
        keep = steps % args.sample_every == 0
        samples.append((times[keep], states[keep]))

    # the series is written only once the run has ended without a blow-up
    report = relative_equilibrium_check(sol, args.t_end, args.dt, callback=sample)
    labels = _index_labels(sol.profile.cell)
    _write_csv(out.path(".series.csv"), ["t", "j", "re", "im", "abs"],
               ([t, j, a.real, a.imag, abs(a)] for times, states in samples
                for t, amps in zip(times, states) for j, a in zip(labels, amps)))
    out.json(".json", {"config": cfg.to_dict(), "sigma": sol.sigma, **report.to_dict()})
    print(f"modulus_drift={report.modulus_drift:.3e} "
          f"sigma_mismatch={report.sigma_mismatch:.3e}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dnls", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="compute one standing wave")
    _add_solver_flags(sp)
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("sweep", help="solve over a parameter grid")
    _add_solver_flags(sp)
    sp.add_argument("--param", choices=["rho", "alpha", "N"], required=True)
    sp.add_argument("--values", default=None, help="comma-separated grid values")
    sp.add_argument("--from", dest="start", type=float, default=None)
    sp.add_argument("--to", dest="stop", type=float, default=None)
    sp.add_argument("--step", type=float, default=None)
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("homoclinic", help="periodic-to-homoclinic continuation")
    _add_solver_flags(sp)
    sp.add_argument("--N-seq", dest="n_seq", required=True,
                    help="comma-separated increasing cell sizes")
    sp.add_argument("--margin", type=float, default=1e-3)
    sp.set_defaults(func=cmd_homoclinic)

    sp = sub.add_parser("check-potential", help="verify growth assumptions")
    sp.add_argument("--potential", required=True)
    sp.add_argument("--x-max", type=float, default=100.0)
    sp.add_argument("--samples", type=int, default=1000)
    sp.add_argument("--out", default="potential-check")
    sp.set_defaults(func=cmd_check_potential)

    sp = sub.add_parser("oracle", help="brute-force maximum on tiny cells")
    _add_solver_flags(sp)
    sp.add_argument("--grid-points", type=int, default=_ORACLE_GRID_POINTS,
                    help="samples per free amplitude ratio of the one global scan, "
                         "at least 3 and capped at 701 when two ratios are free "
                         "and at 491401 when one is; "
                         "the scan runs in bounded memory and a local zoom "
                         "sharpens its best point until a window's energies "
                         "agree to rounding")
    sp.set_defaults(func=cmd_oracle, out="oracle")

    sp = sub.add_parser("evolve", help="validate a wave as a relative equilibrium")
    _add_solver_flags(sp)
    sp.add_argument("--t-end", type=float, default=10.0)
    sp.add_argument("--dt", type=float, default=1e-3)
    sp.add_argument("--sample-every", type=int, default=100)
    sp.set_defaults(func=cmd_evolve)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    out = _Artifacts(args)
    try:
        code = args.func(args, out)
        out.close()
        return code
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return OPERATIONAL_ERROR
    except MemoryError as exc:  # valid inputs that the machine cannot hold
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return OPERATIONAL_ERROR


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
