"""Brute-force maximum of the energy on the sphere for cells of at most 4 sites.

The oracle scores profiles on a grid of their level-amplitude ratios and
zooms in on the best one. It is independent of the ascent in ``solver``: no
flow, no step, no cone test; it shares only the energy of the levels
(``functionals.level_energies``) and the check of the potential.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from .functionals import level_energies
from .lattice import Cell, Profile
from .potentials import Potential, _require_assumptions

if TYPE_CHECKING:
    from .solver import SolverConfig


# rows per tile of the oracle's global scan (16 x 16 with two free ratios, 256 x 1
# with one); most rows per batch of the tiles it scores, so that its memory does
# not grow with the grid; relative headroom of a tile's bound for the rounding of
# its energy; and points per ratio of each window of the local zoom
_ORACLE_TILE = 256
_ORACLE_BATCH = 1 << 12
_ORACLE_BOUND_SLACK = 1e-12
_ORACLE_ZOOM = 41


def _ratio_grid(lo, hi, n: int, dims: int):
    """np.linspace(lo, hi, n) per free ratio; a single 1.0 for an absent second ratio."""
    # per axis: a 2-D linspace rounds every axis differently once one has zero width
    r1 = np.linspace(lo[0], hi[0], n)
    return r1, np.linspace(lo[1], hi[1], n) if dims == 2 else np.ones(1)


def _level_amps(r1: np.ndarray, r2: np.ndarray, levels: int) -> np.ndarray:
    """Level amplitudes 1, r1, r1*r2 (the first ``levels`` of them) of rows with ratios r1, r2."""
    return np.stack((np.ones_like(r1), r1, r1 * r2)[:levels])


def _score_rows(r1, r2, cfg: SolverConfig, p: Potential, cell: Cell):
    """Level amplitudes at power rho, shape (L, B), and energies of rows with ratios r1, r2."""
    mult = cell.fold[1]
    amps = _level_amps(r1, r2, mult.size)
    amps *= np.sqrt(cfg.rho / (mult @ (amps * amps)))
    return amps, level_energies(amps, cell, p, cfg.alpha)


def _tile_scan(r1: np.ndarray, r2: np.ndarray, cfg: SolverConfig, p: Potential, cell: Cell):
    """Best row ``(ratios, P, level amplitudes)`` of the grid r1 x r2, rows in row-major order.

    The grid is cut into tiles of ``_ORACLE_TILE`` rows, and one
    ``level_energies`` call bounds them all: the upper ratios' amplitudes,
    normalized by the lower ratios' normalizer, dominate every row of the
    tile, and P does not decrease in any amplitude, since every weight is
    non-negative and psi does not decrease where the growth assumptions
    hold. Tiles are scored in batches of at most ``_ORACLE_BATCH`` rows,
    highest bound first, and a tile whose bound, raised by
    ``_ORACLE_BOUND_SLACK`` for rounding, falls below the best energy found
    so far is skipped (a NaN bound never is). Among equal maxima the first
    row in row-major order wins, as in a plain scan of the whole grid.
    """
    mult = cell.fold[1]
    t2 = math.isqrt(_ORACLE_TILE) if r2.size > 1 else 1
    t1 = _ORACLE_TILE // t2
    s1, s2 = np.arange(0, r1.size, t1), np.arange(0, r2.size, t2)

    def corners(reduce):
        return _level_amps(np.repeat(reduce.reduceat(r1, s1), s2.size),
                           np.tile(reduce.reduceat(r2, s2), s1.size), mult.size)

    upper, lower = corners(np.maximum), corners(np.minimum)
    upper *= np.sqrt(cfg.rho / (mult @ (lower * lower)))
    bound = level_energies(upper, cell, p, cfg.alpha)
    bound += _ORACLE_BOUND_SLACK * np.abs(bound)
    todo = np.argsort(-bound, kind="stable")
    d1, d2 = np.arange(t1)[:, None], np.arange(t2)
    tiles_per_batch = _ORACLE_BATCH // _ORACLE_TILE
    best, best_k = (None, -math.inf, None), -1
    while True:
        todo = todo[~(bound[todo] < best[1])]
        if not todo.size:
            return best
        batch, todo = todo[:tiles_per_batch], todo[tiles_per_batch:]
        i, j = np.divmod(batch, s2.size)
        i, j = np.broadcast_arrays(s1[i, None, None] + d1, s2[j, None, None] + d2)
        inside = (i < r1.size) & (j < r2.size)
        i, j = i[inside], j[inside]
        amps, p_all = _score_rows(r1[i], r2[j], cfg, p, cell)
        top = int(np.argmax(p_all))
        # no row as good as the best, or a NaN, where argmax stops as in a plain scan
        if not p_all[top] >= best[1]:
            continue
        k = i * r2.size + j
        ties = np.flatnonzero(p_all == p_all[top])
        top = ties[np.argmin(k[ties])]
        if p_all[top] > best[1] or k[top] < best_k:
            best_k = k[top]
            best = (np.array([r1[i[top]], r2[j[top]]][:mult.size - 1]), float(p_all[top]),
                    amps[:, top].copy())


def oracle_maximize(cfg: SolverConfig, p: Potential, grid_points: int = 2000):
    """Brute-force maximum of P on cone-and-sphere for cells of at most 4 sites.

    On the levels of ``Cell.fold`` at most two amplitude ratios stay free: a
    profile has level amplitudes 1, r1, r1*r2, normalized. One global scan
    covers a uniform grid of ``grid_points`` samples per free ratio (at least
    3; capped at 701 when two ratios are free and at 701**2 = 491,401 when
    one is). It scores only the tiles of 256 rows whose bound can beat the
    best row found so far (``_tile_scan``), in batches of at most 4,096
    rows, so memory does not grow with the grid; the answer is the plain
    scan's, ties included, and only the best row is expanded to the sites.
    The bound needs psi non-decreasing, so a potential that fails
    ``check_assumptions`` on [0, max(rho, 1)] is refused, as ``solve`` refuses it.
    A local zoom then rescans windows of +-2 spacings around the best point,
    41 samples per ratio, until the spacing reaches (1/(g-1)) * (4/(g-1))**5
    for g samples per ratio, where five rescans of g samples per window would
    end. A cell with no free ratio scores its one profile.
    Returns the best profile and its energy, independent of the ascent.
    """
    cfg.validate()
    if cfg.n > 4:
        raise ValueError("the brute-force oracle covers N <= 4 only")
    if grid_points < 3:
        raise ValueError(f"grid_points must be at least 3, not {grid_points}")
    _require_assumptions(p, cfg.rho)
    cell = cfg.cell()
    site_level, mult, _ = cell.fold
    dims = mult.size - 1

    if dims == 0:
        amps = np.sqrt(cfg.rho / mult)[:, None]
        p_one = float(level_energies(amps, cell, p, cfg.alpha)[0])
        return Profile(cell, amps[site_level, 0]), p_one
    # no cell scans more than a two-ratio cell's 701**2 rows; the zoom
    # recovers the resolution of a huge flat grid
    g = min(int(grid_points), 701 ** (2 // dims))
    best = _tile_scan(*_ratio_grid(np.zeros(dims), np.ones(dims), g, dims), cfg, p, cell)
    spacing = np.full(dims, 1.0 / (g - 1))
    final = spacing[0] * (4.0 * spacing[0]) ** 5
    while spacing.max() > final:
        lo = np.maximum(best[0] - 2.0 * spacing, 0.0)
        hi = np.minimum(best[0] + 2.0 * spacing, 1.0)
        spacing = (hi - lo) / (_ORACLE_ZOOM - 1)
        r1, r2 = _ratio_grid(lo, hi, _ORACLE_ZOOM, dims)
        r1, r2 = np.repeat(r1, r2.size), np.tile(r2, r1.size)
        amps, p_all = _score_rows(r1, r2, cfg, p, cell)
        k = int(np.argmax(p_all))
        if p_all[k] > best[1]:
            best = np.array([r1[k], r2[k]][:dims]), float(p_all[k]), amps[:, k]
    return Profile(cell, best[2][site_level]), best[1]
