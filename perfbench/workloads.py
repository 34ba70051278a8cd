"""The four benchmark workloads: inputs from a seed, one pass, output checks.

Seed 0 reproduces the acceptance-suite inputs exactly. Any other seed
jitters the parameters inside each regime, so a claim can be re-checked on
inputs it was not tuned on, while the amount of work stays comparable.

Every workload is a closed loop with one client: the calls of a pass are
issued back to back from one thread of one fresh interpreter.

A workload is a class with
  ``build(seed)``            -> list of job dicts (set-up, untimed)
  ``run(jobs)``              -> raw outputs (the timed pass)
  ``check(jobs, outputs)``   -> list of (operation, ok, detail)
CLI workloads write their artifacts into the current directory.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math
import random
from pathlib import Path

import dnls.cli
import dnls.solver
from dnls.lattice import IndexScheme
from dnls.potentials import parse_potential_spec, quartic
from dnls.solver import SolverConfig

# criterion 5 monitors
MAX_POWER_DRIFT = 1e-12
MIN_ENERGY_INCREMENT = -1e-14


def _jitter(rng: random.Random | None, value: float, spread: float) -> float:
    """value + U(-spread, spread), or value itself for the default seed."""
    return value if rng is None else value + rng.uniform(-spread, spread)


def _rng(seed: int) -> random.Random | None:
    return None if seed == 0 else random.Random(seed)


def _monitors_ok(diag: dict) -> tuple[bool, str]:
    inc = diag["min_energy_increment"]
    ok = (diag["max_power_drift"] <= MAX_POWER_DRIFT
          and (inc is None or inc >= MIN_ENERGY_INCREMENT)
          and diag["cone_violations"] == 0)
    return ok, (f"power drift {diag['max_power_drift']:.1e}, min increment {inc}, "
                f"cone violations {diag['cone_violations']}")


def artifact_digests(directory: Path) -> dict:
    """sha256 of each artifact; the manifest's wall_time is left out.

    Also returns the byte total without the wall_time value, so that the
    total repeats exactly between passes.
    """
    digests, total = {}, 0
    for path in sorted(directory.iterdir()):
        data = path.read_bytes()
        total += len(data)
        if path.name.endswith(".manifest.json"):
            manifest = json.loads(data)
            total -= len(json.dumps(manifest.pop("wall_time")))
            data = json.dumps(manifest, sort_keys=True).encode()
        digests[path.name] = hashlib.sha256(data).hexdigest()
    return {"files": digests, "bytes": total}


class Sweep:
    """`dnls sweep` over rho on the exponential potential (criterion 2)."""

    nominal = [round(2.0 + 0.1 * k, 1) for k in range(11)]

    def build(self, seed):
        rng = _rng(seed)
        argv = ["sweep", "--param", "rho"]
        if rng is None:
            argv += ["--from", "2.0", "--to", "3.0", "--step", "0.1"]
        else:
            # on N = 41 the ascent leaves the flat branch at rho ~ 2.4102, so
            # +-0.005 keeps the 2.4 point flat and every point in its regime
            argv += ["--values", ",".join(repr(_jitter(rng, r, 0.005)) for r in self.nominal)]
        argv += ["--potential", "exp-quadratic", "--alpha", "1", "--N", "41", "--out", "run"]
        return [{"argv": argv}]

    def run(self, jobs):
        return [dnls.cli.main(job["argv"]) for job in jobs]

    def check(self, jobs, outputs):
        checks = [("exit code", outputs[0] == 0, f"exit {outputs[0]}")]
        manifest = json.loads(Path("run.manifest.json").read_text())
        points = [Path(p) for p in manifest["outputs"] if p.endswith(".json")]
        with open("run.summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        checks.append(("point count", len(points) == len(rows) == len(self.nominal),
                       f"{len(points)} points, {len(rows)} rows"))
        for nominal, point, row in zip(self.nominal, points, rows):
            data = json.loads(point.read_text())
            rho, alpha = data["config"]["rho"], data["config"]["alpha"]
            pr = float(row["participation_ratio"])
            excess = (data["energies"]["p_total"] - 2 * alpha * rho) / (alpha * rho)
            ok, detail = _monitors_ok(data["diagnostics"])
            ok &= data["converged"]
            if nominal <= 2.3:
                ok &= pr >= 0.8 and excess <= 0.05
            if nominal >= 2.5:
                ok &= pr <= 0.3 and excess >= 0.2
            checks.append((f"rho {nominal}", ok,
                           f"rho={rho:.4f} pr={pr:.3f} excess={excess:.4f} "
                           f"converged={data['converged']} {detail}"))
        return checks


class Ladder:
    """Strong-coupling quartic cells of growing size (criterion 3).

    Other seeds jitter rho, not alpha: at alpha = 2 a shift of 0.1% in alpha
    already flips which rungs end exactly flat and moves the iteration count
    of the large rungs by a quarter or more, while rho within 1% moves it by
    a few iterations.
    """

    n_seq = [24, 48, 96, 192]
    near_constant = [True, True, True, True]  # seed verdicts

    def build(self, seed):
        rho = _jitter(_rng(seed), 2.0, 0.02)
        cfg = SolverConfig(alpha=2.0, rho=rho, scheme=IndexScheme.INTER_SITE,
                           n=self.n_seq[0], tau=1.0)
        return [{"cfg": cfg, "potential": quartic()}]

    def run(self, jobs):
        return [dnls.solver.homoclinic(job["cfg"], job["potential"], self.n_seq)
                for job in jobs]

    def check(self, jobs, outputs):
        cfg, result = jobs[0]["cfg"], outputs[0]
        checks = []
        prev = None
        for n, sol, flat in zip(result.n_sequence, result.solutions, self.near_constant):
            excess = sol.energies.p_total - 2 * cfg.alpha * cfg.rho
            amp = float(sol.profile.values.max())
            ok, detail = _monitors_ok(sol.diagnostics.to_dict())
            ok &= sol.converged and sol.near_constant == flat
            if prev is not None:
                ok &= excess < prev[0] and amp < prev[1]
            prev = (excess, amp)
            checks.append((f"N {n}", ok,
                           f"excess={excess:.3e} amp={amp:.4f} converged={sol.converged} "
                           f"near_constant={sol.near_constant} iterations={sol.iterations} "
                           f"{detail}"))
        return checks


class TinyCells:
    """Solver against the brute-force oracle on the 48-combination grid (criterion 7).

    Other seeds jitter the saturable-log combinations only. Several quartic
    combinations sit within 0.3% of a switch in the ascent's behaviour: a
    jitter that small moves their iteration count between about 10 and 900,
    and N=4 on-site at alpha=0.4957, rho=0.9825 does not converge within
    20,000 iterations.
    """


    def build(self, seed):
        rng = _rng(seed)
        jobs = []
        for n, scheme, name, alpha, rho in itertools.product(
                (2, 3, 4), (IndexScheme.ON_SITE, IndexScheme.INTER_SITE),
                ("quartic", "saturable-log"), (0.5, 1.0), (1.0, 2.0)):
            if name == "saturable-log":
                alpha, rho = _jitter(rng, alpha, 0.02 * alpha), _jitter(rng, rho, 0.02 * rho)
            cfg = SolverConfig(alpha=alpha, rho=rho, scheme=scheme, n=n, tau=1.0)
            jobs.append({"cfg": cfg, "potential": parse_potential_spec(name)})
        return jobs

    def run(self, jobs):
        out = []
        for job in jobs:
            sol = dnls.solver.solve(job["cfg"], job["potential"])
            best, p_best = dnls.solver.oracle_maximize(job["cfg"], job["potential"],
                                                       grid_points=2001)
            out.append((sol, best, p_best))
        return out

    def check(self, jobs, outputs):
        checks = []
        for job, (sol, best, p_best) in zip(jobs, outputs):
            cfg = job["cfg"]
            gap = abs(sol.energies.p_total - p_best) / abs(p_best)
            sup = float(abs(best.values - sol.profile.values).max())
            checks.append((f"N={cfg.n} {cfg.scheme.value} {job['potential'].label} "
                           f"alpha={cfg.alpha:.4f} rho={cfg.rho:.4f}",
                           gap <= 1e-4 and sup <= 1e-3,
                           f"P gap {gap:.1e}, profile gap {sup:.1e}"))
        return checks


class Evolve:
    """`dnls evolve` of the saturable-arctan wave at rho = 10 (criterion 9)."""


    def build(self, seed):
        rho = _jitter(_rng(seed), 10.0, 0.2)
        argv = ["evolve", "--potential", "saturable-arctan", "--alpha", "1",
                "--rho", "10" if rho == 10.0 else repr(rho), "--N", "25",
                "--t-end", "10", "--dt", "1e-3", "--sample-every", "100", "--out", "run"]
        return [{"argv": argv}]

    def run(self, jobs):
        return [dnls.cli.main(job["argv"]) for job in jobs]

    def check(self, jobs, outputs):
        checks = [("exit code", outputs[0] == 0, f"exit {outputs[0]}")]
        rep = json.loads(Path("run.json").read_text())
        ok = (rep["modulus_drift"] <= 1e-6 and rep["power_drift_rel"] <= 1e-9
              and rep["hamiltonian_drift_rel"] <= 1e-8 and rep["sigma_mismatch"] <= 1e-4
              and math.isfinite(rep["sigma"]))
        checks.append(("criterion 9", ok,
                       f"modulus {rep['modulus_drift']:.1e}, power {rep['power_drift_rel']:.1e}, "
                       f"H {rep['hamiltonian_drift_rel']:.1e}, "
                       f"sigma mismatch {rep['sigma_mismatch']:.1e}"))
        return checks


WORKLOADS = {"sweep": Sweep, "ladder": Ladder, "tiny_cells": TinyCells, "evolve": Evolve}
