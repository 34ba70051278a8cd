"""The 48 tiny-cell solve and oracle answers at seed 0, held bit for bit.

``tests/data/tiny_cells_seed0.json`` records, for each cell of criterion 7
(the inputs of the ``tiny_cells`` benchmark workload at seed 0), the solve's
energy, frequency, residual, iterations, stop reason and profile, and the
oracle's energy and profile, every float as ``float.hex``. A change meant to
move them at rounding level regenerates the file with

    PYTHONPATH=src python tests/test_tiny_cells.py

and lists the fields that moved.
"""

import itertools
import json
from pathlib import Path

from dnls.lattice import IndexScheme
from dnls.potentials import parse_potential_spec
from dnls.solver import SolverConfig, oracle_maximize, solve

DATA = Path(__file__).resolve().parent / "data" / "tiny_cells_seed0.json"


def hexes(values):
    return [float(x).hex() for x in values]


def answers():
    """One record per cell, in the order of criterion 7's grid."""
    out = []
    for n, scheme, name, alpha, rho in itertools.product(
            (2, 3, 4), (IndexScheme.ON_SITE, IndexScheme.INTER_SITE),
            ("quartic", "saturable-log"), (0.5, 1.0), (1.0, 2.0)):
        cfg = SolverConfig(alpha=alpha, rho=rho, scheme=scheme, n=n, tau=1.0)
        p = parse_potential_spec(name)
        sol = solve(cfg, p)
        best, p_best = oracle_maximize(cfg, p, grid_points=2001)
        out.append({
            "cell": f"N={n} {scheme.value} {name} alpha={alpha} rho={rho}",
            "solve": {"p_total": sol.energies.p_total.hex(), "sigma": sol.sigma.hex(),
                      "residual": sol.residual.hex(), "iterations": sol.iterations,
                      "stop_reason": sol.diagnostics.stop_reason,
                      "profile": hexes(sol.profile.values)},
            "oracle": {"p": p_best.hex(), "profile": hexes(best.values)},
        })
    return out


def test_tiny_cell_answers_are_unchanged():
    want = json.loads(DATA.read_text())
    got = answers()
    assert [c["cell"] for c in got] == [c["cell"] for c in want]
    moved = [f"{g['cell']}: {part}.{field}" for g, w in zip(got, want)
             for part in ("solve", "oracle") for field in g[part]
             if g[part][field] != w[part][field]]
    assert moved == []


if __name__ == "__main__":
    DATA.write_text(json.dumps(answers(), indent=1) + "\n")
