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
from .lattice import Profile
from .potentials import Potential, _require_assumptions

if TYPE_CHECKING:
    from .solver import SolverConfig


# rows per tile of the oracle's global scan (16 x 16 with two free ratios, 256 x 1
# with one; a power of 4, so that its descent halves tiles evenly); rows per ratio
# of a box that the descent no longer halves; most rows per batch of the boxes it
# scores, so that no batch grows with the grid; relative headroom of a box's
# bound for the rounding of its energy; points per ratio of each window of the
# local zoom; and the relative spread of a window's energies that rounding alone
# can make (level_energies may miss each by 4 ulps): a window that spreads no
# wider cannot rank its rows, nor can the narrower windows inside it
_ORACLE_TILE = 256
_ORACLE_LEAF = 2
_ORACLE_BATCH = 1 << 12
_ORACLE_BOUND_SLACK = 1e-12
_ORACLE_ZOOM = 41
_ORACLE_ZOOM_RESOLUTION = 8 * np.finfo(float).eps
_NO_RATIO = np.broadcast_to(1.0, 1)  # the absent second ratio, read-only
# samples per free ratio of the global scan, unless a caller sets them
_ORACLE_GRID_POINTS = 100_000
_STEPS = {}


def _steps(n):
    """np.arange(n, dtype=float), read-only, kept per n: at most 8, all dropped for a ninth."""
    if n not in _STEPS:
        if len(_STEPS) == 8:
            _STEPS.clear()
        _STEPS[n] = k = np.arange(n, dtype=float)
        k.flags.writeable = False
    return _STEPS[n]


def _ratio_grid(lo, hi, n, dims):
    """np.linspace(lo, hi, n) per free ratio, bit for bit: its arithmetic on the cached
    steps k, k*step + lo (k/(n-1)*(hi-lo) + lo where step rounds to 0) and the last point
    hi; the read-only 1.0 for an absent second ratio."""
    # per axis: a 2-D linspace rounds every axis differently once one has zero width
    grids = [_NO_RATIO] * 2
    for d in range(dims):
        width = hi[d] - lo[d]
        step = width / (n - 1)
        r = _steps(n) * step if step else _steps(n) / (n - 1) * width
        r += lo[d]
        r[-1] = hi[d]
        grids[d] = r
    return grids


def _level_amps(r1, r2, levels):
    """Level amplitudes 1, r1, r1*r2 (the first ``levels`` of them) of the rows of r1 and r2
    broadcast together, flattened in row-major order."""
    amps = np.empty((levels, *np.broadcast(r1, r2).shape))
    amps[0], amps[1] = 1.0, r1
    if levels == 3:
        np.multiply(r1, r2, out=amps[2])
    return amps.reshape(levels, -1)


def _score_rows(r1, r2, cfg, p, cell):
    """Level amplitudes at power rho, shape (L, B), and energies of rows with ratios r1, r2."""
    mult = cell.fold[1]
    amps = _level_amps(r1, r2, mult.size)
    amps *= np.sqrt(cfg.rho / (mult @ (amps * amps)))
    return amps, level_energies(amps, cell, p, cfg.alpha)


def _box_bounds(r1, r2, first, last, cfg, p, cell):
    """Upper bounds of P on boxes of rows of the ascending grids r1 x r2, shape (B,).

    Box b holds the rows ``first[k, b]`` to ``last[k, b]`` of ratio k. The
    amplitudes of its last ratios, normalized by the normalizer of its first
    ratios, dominate every row of it, and P does not decrease in any
    amplitude, since every weight is non-negative and psi does not decrease
    where the growth assumptions hold. Each bound is raised by
    ``_ORACLE_BOUND_SLACK`` for rounding.
    """
    mult = cell.fold[1]
    upper = _level_amps(r1[last[0]], r2[last[1]], mult.size)
    upper *= np.sqrt(cfg.rho / (mult @ _level_amps(r1[first[0]], r2[first[1]], mult.size) ** 2))
    bound = level_energies(upper, cell, p, cfg.alpha)
    return bound + _ORACLE_BOUND_SLACK * np.abs(bound)


def _cut(first, cut, side, n):
    """First rows of the boxes of ``side`` rows that cut each box at ``first`` into ``cut``
    per ratio, box by box, row-major within a box; none past the grid's ``n`` rows."""
    offsets = np.indices(cut[:, 0]).reshape(2, -1) * side
    first = first.repeat(cut.prod(), 1) + np.tile(offsets, first.shape[1])
    return first.compress((first < n).all(0), 1)


def _score_batch(r1, r2, i, j, best, cfg, p, cell):
    """``best`` after scoring the rows (i, j) of the grid r1 x r2.

    ``best`` is the best row so far as ``(ratios, P, level amplitudes,
    row-major index)``. A row replaces it when its energy is higher, or equal
    and the row comes first in row-major order, so among equal maxima the
    first row wins, as in a plain scan of the whole grid. The batch's arrays
    are freed on return, so the descent's levels never coexist with them.
    """
    amps, p_all = _score_rows(r1[i], r2[j], cfg, p, cell)
    top = p_all.argmax()
    high = p_all[top]
    # no row as good as the best, or a NaN, where argmax stops as in a plain scan
    if not high >= best[1]:
        return best
    k = i * r2.size + j
    ties = np.flatnonzero(p_all == high)
    top = ties[np.argmin(k[ties])]
    if high > best[1] or k[top] < best[3]:
        return (np.array([r1[i[top]], r2[j[top]]][:len(amps) - 1]), float(p_all[top]),
                amps[:, top].copy(), k[top])
    return best


def _scan_window(r1, r2, rows, best, cfg, p, cell):
    """``best``, or the first best row of the grid r1 x r2 if higher, and whether the
    grid's energies agree to rounding (spread <= ``_ORACLE_ZOOM_RESOLUTION`` of the highest).

    ``rows`` broadcast to the grid's ratios in row-major order. argmax stops at
    the first NaN, as a plain scan does; a NaN is never higher, nor agrees.
    """
    amps, p_all = _score_rows(*rows, cfg, p, cell)
    k = p_all.argmax()
    top = p_all[k]
    if top > best[1]:
        i, j = divmod(k, r2.size)
        best = np.array([r1[i], r2[j]][:len(amps) - 1]), float(top), amps[:, k]
    return best, top - p_all.min() <= _ORACLE_ZOOM_RESOLUTION * abs(top)


def _global_scan(r1, r2, cfg, p, cell):
    """Best row ``(ratios, P, level amplitudes)`` of the ascending grids r1 x r2.

    A grid of at most ``_ORACLE_BATCH`` rows is scored whole, as one window
    of the zoom (``_scan_window``), with no bound: its first batch would
    score every tile whatever its bound. A larger one
    is a branch-and-bound descent on aligned boxes of rows. It starts from
    tiles of ``_ORACLE_TILE`` rows, and before every step it drops each box
    whose bound (``_box_bounds``) falls below the best energy found so far;
    a NaN bound is never dropped. A step scores the boxes of highest bound,
    at most ``_ORACLE_BATCH`` rows (``_score_batch``), unless a row has been
    scored already and the boxes left hold more than one batch of rows: then
    it halves every box along each ratio longer than ``_ORACLE_LEAF`` rows
    and bounds the children with one ``level_energies`` call. So the first
    batch sets the incumbent, the descent prunes down to boxes of
    ``_ORACLE_LEAF`` rows per ratio, and what is left is scored highest bound
    first.
    """
    n = np.array([[r1.size], [r2.size]])
    best = (None, -math.inf, None, -1)
    if r1.size * r2.size <= _ORACLE_BATCH:  # one batch scores every row: nothing to bound
        # its rows flat, in row-major order, as the descent scores rows
        return _scan_window(r1, r2, (r1.repeat(r2.size), np.tile(r2, r1.size)), best,
                            cfg, p, cell)[0][:3]
    t2 = math.isqrt(_ORACLE_TILE) if r2.size > 1 else 1
    side = np.array([[_ORACLE_TILE // t2], [t2]])
    first, todo, cut = np.zeros((2, 1), int), [0], -(-n // side)  # the whole grid, into tiles
    while True:
        if cut is not None:  # the boxes of todo, cut
            first = _cut(first.take(todo, 1), cut, side, n)
            bound = _box_bounds(r1, r2, first, np.minimum(first + side, n) - 1, cfg, p, cell)
            todo, cut = np.arange(bound.size), None
        todo = todo[~(bound[todo] < best[1])]
        halve = side > _ORACLE_LEAF
        if best[0] is not None and halve.any():
            span = np.minimum(n - first.take(todo, 1), side)  # rows per ratio of each box
            if span[0] @ span[1] > _ORACLE_BATCH:
                cut, side = 1 + halve, side >> halve  # the tile's sides are powers of 2
                continue
        if not todo.size:
            return best[:3]
        todo = todo[np.argsort(-bound[todo], kind="stable")]  # a no-op once ranked
        per_batch = _ORACLE_BATCH // side.prod()
        # the rows of the batch's boxes, as boxes of one row
        best = _score_batch(r1, r2, *_cut(first.take(todo[:per_batch], 1), side, 1, n), best,
                            cfg, p, cell)
        todo = todo[per_batch:]


def _finite(energy: float, p: Potential) -> float:
    """The best energy of the oracle's grid, refused unless finite: the scan of an all-NaN
    grid keeps no row, and the zoom has no point to sharpen."""
    if not math.isfinite(energy):
        raise ValueError(f"the oracle's grid holds no finite energy of {p.label}")
    return energy


def oracle_maximize(cfg: SolverConfig, p: Potential, grid_points: int = _ORACLE_GRID_POINTS):
    """Brute-force maximum of P on cone-and-sphere for cells of at most 4 sites.

    On the levels of ``Cell.fold`` at most two amplitude ratios stay free: a
    profile has level amplitudes 1, r1, r1*r2, normalized. One global scan
    covers a uniform grid of ``grid_points`` samples per free ratio (a
    finite whole number, at least 3, by default 100,000; capped at 701 when
    two ratios are free and at 701**2 = 491,401 when one is). A
    branch-and-bound descent (``_global_scan``)
    scores the tiles of 256 rows with the highest bounds, halves the tiles
    whose bound can still beat the best row so far down to boxes of 2 x 2
    rows (2 with one ratio), bounding each level with one call, and scores
    the boxes left highest bound first, in batches of at most 4,096 rows,
    so no batch grows with the grid; a grid of at most 4,096 rows is scored
    whole, unbounded. The answer is the plain scan's bit for bit, ties
    included, and only the best row is expanded to the sites.
    The bound needs psi non-decreasing, so a potential that fails
    ``check_assumptions`` on [0, max(rho, 1)] is refused, as ``solve`` refuses it.
    A local zoom then rescans windows of +-2 spacings around the best point,
    41 samples per ratio. It stops after the first window whose energies
    agree to rounding (a spread of at most ``_ORACLE_ZOOM_RESOLUTION``, 8 eps,
    relative to its highest; never on a NaN spread), since every later window
    lies inside it, and at the latest when the spacing reaches
    (1/(g-1)) * (4/(g-1))**5 for g samples per ratio, where five rescans of
    g samples per window would end. A cell with no free ratio scores its one
    profile. A grid, or a profile, with no finite energy is refused before the zoom.
    Returns the best profile and its energy, independent of the ascent.
    """
    cfg.validate()
    if cfg.n > 4:
        raise ValueError("the brute-force oracle covers N <= 4 only")
    if not grid_points < math.inf:
        raise ValueError(f"grid_points must be finite, not {grid_points}")
    if not float(grid_points).is_integer():
        raise ValueError(f"grid_points must be a whole number, not {grid_points!r}")
    if grid_points < 3:
        raise ValueError(f"grid_points must be at least 3, not {grid_points}")
    _require_assumptions(p, cfg.rho)
    cell = cfg.cell()
    site_level, mult, _ = cell.fold
    dims = mult.size - 1

    if dims == 0:
        amps = np.sqrt(cfg.rho / mult)[:, None]
        p_one = _finite(float(level_energies(amps, cell, p, cfg.alpha)[0]), p)
        return Profile(cell, amps[site_level, 0]), p_one
    # no cell scans more than a two-ratio cell's 701**2 rows; the zoom
    # recovers the resolution of a huge flat grid
    g = min(int(grid_points), 701 ** (2 // dims))
    best = _global_scan(*_ratio_grid(np.zeros(dims), np.ones(dims), g, dims), cfg, p, cell)
    _finite(best[1], p)
    spacing = np.full(dims, 1.0 / (g - 1))
    final = spacing[0] * (4.0 * spacing[0]) ** 5
    while spacing.max() > final:
        lo = np.maximum(best[0] - 2.0 * spacing, 0.0)
        hi = np.minimum(best[0] + 2.0 * spacing, 1.0)
        spacing = (hi - lo) / (_ORACLE_ZOOM - 1)
        r1, r2 = _ratio_grid(lo, hi, _ORACLE_ZOOM, dims)
        best, flat = _scan_window(r1, r2, (r1[:, None], r2), best, cfg, p, cell)
        if flat:  # every later window lies in this one
            break
    return Profile(cell, best[2][site_level]), best[1]
