"""Lattice index schemes, periodicity cells, profiles, and cone operations.

Sites are indexed by integers (on-site) or half-integers (inter-site).
Indices are stored internally as doubled integers 2j so both schemes share
exact integer arithmetic. A periodicity cell of length N is a run of N
consecutive sites chosen so that (N-1)/2 <= max(cell) <= N/2; the symmetrized
cell is its intersection with its own mirror image.

The admissible profiles form the cone of non-negative, even, unimodal
sequences; the flow preserves it, the solver's backtracking rejects every
discrete step that leaves it, and ``project_cone`` maps any profile onto it.
"""

from __future__ import annotations

import csv
import math
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache

import numpy as np


class IndexScheme(Enum):
    ON_SITE = "onsite"
    INTER_SITE = "intersite"


# periodic cells kept, with their cached geometry
_CELL_CACHE = 8


@dataclass(frozen=True)
class Cell:
    """A finite periodicity cell (n sites) or a truncated infinite lattice.

    Finite cells wrap periodically; infinite cells hold values on |j| <= j_max
    and are implicitly zero beyond the truncation.
    """

    scheme: IndexScheme
    n: int | None = None
    j_max: float | None = None

    def __post_init__(self):
        if not isinstance(self.scheme, IndexScheme):
            raise ValueError(f"scheme must be an IndexScheme, not {self.scheme!r}")
        if (self.n is None) == (self.j_max is None):
            raise ValueError("exactly one of n (periodic) or j_max (truncated) required")
        if self.n is not None:
            object.__setattr__(self, "n", _whole(self.n, "cell lengths"))
            if self.n < 1:
                raise ValueError("cell length must be positive")
        if self.j_max is not None and self.j_max <= 0:
            raise ValueError("truncation half-width must be positive")
        if self.j_max is not None and self.scheme is IndexScheme.INTER_SITE and self.j_max < 0.5:
            raise ValueError("inter-site truncation must cover |j| = 1/2")

    @staticmethod
    def periodic(scheme: IndexScheme, n: int) -> "Cell":
        """The shared cell of n sites: one per (scheme, n) of the last ``_CELL_CACHE``."""
        return _periodic_cell(scheme, n)

    @staticmethod
    def truncated(scheme: IndexScheme, j_max: float) -> "Cell":
        return Cell(scheme, j_max=float(j_max))

    @property
    def is_finite(self) -> bool:
        return self.n is not None

    def doubled_indices(self) -> np.ndarray:
        """Ordered site indices as exact doubled integers 2j; shared and read-only."""
        return self._sites[0]

    def indices(self) -> np.ndarray:
        """Ordered site indices j (half-integers inter-site); shared and read-only."""
        return self._sites[1]

    @cached_property
    def _sites(self) -> tuple[np.ndarray, np.ndarray]:
        if self.is_finite:
            n = self.n
            if self.scheme is IndexScheme.ON_SITE:
                start = -2 * ((n - 1) // 2)
            else:
                start = (-n + 1) if n % 2 == 0 else (-n + 2)
            d = start + 2 * np.arange(n, dtype=np.int64)
        elif self.scheme is IndexScheme.ON_SITE:
            m = int(np.floor(self.j_max))
            d = 2 * np.arange(-m, m + 1, dtype=np.int64)
        else:
            k = int(np.floor(self.j_max - 0.5))
            d = 2 * np.arange(-k, k + 2, dtype=np.int64) - 1
        out = (d, d / 2.0)
        for a in out:
            a.flags.writeable = False
        return out

    @property
    def size(self) -> int:
        return self.n if self.is_finite else self.doubled_indices().size

    def symmetric_doubled_max(self) -> int:
        """Largest doubled index D with both +-D in the cell (edge of the symmetrized cell)."""
        d = self.doubled_indices()
        return int(min(-d[0], d[-1]))

    @cached_property
    def fold(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only ``(site_level, mult, right)``: the only pairing of j with -j.

        Each site's level |2j| // 2, which numbers the distinct |j| of the
        cell from 0; the float multiplicity of each level; and the mask of
        j >= 0. No cell reaches further left than right, so ``v[right]``
        lists the levels in order. ``functionals.level_energies`` scores even
        profiles on these levels, with the weights of ``level_coupling``.
        """
        d = self.doubled_indices()
        site_level = np.abs(d) // 2
        out = (site_level, np.bincount(site_level).astype(float), d >= 0)
        for a in out:
            a.flags.writeable = False
        return out

    @cached_property
    def level_coupling(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only ``(self_w, pair_w)``: L = self_w @ a**2 + pair_w @ (a[:-1] * a[1:]).

        For even profiles with amplitudes a on the levels of ``fold``: a bond
        joins equal or adjacent levels, and the weights count the bonds within
        level l and between levels k and k+1, twice each as L does.
        """
        site_level, mult, _ = self.fold
        a, b = bonds(site_level, self.is_finite)
        lo, same = np.minimum(a, b), a == b
        out = (2.0 * np.bincount(lo[same], minlength=mult.size),
               2.0 * np.bincount(lo[~same], minlength=mult.size - 1))
        for a in out:
            a.flags.writeable = False
        return out


def _whole(value, what: str) -> int:
    """``value`` as an int, if it is a whole number; ``what`` names the values it refuses."""
    if not float(value).is_integer():
        raise ValueError(f"{what} must be whole numbers, not {value!r}")
    return int(value)


@lru_cache(maxsize=_CELL_CACHE)
def _periodic_cell(scheme: IndexScheme, n: int) -> Cell:
    return Cell(scheme, n=n)


@dataclass(frozen=True)
class Profile:
    """Real-valued amplitudes aligned with the ordered index list of a cell."""

    cell: Cell
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.size != self.cell.size:
            raise ValueError(
                f"expected {self.cell.size} values for the cell, got shape {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("profile values must be finite")
        object.__setattr__(self, "values", vals)

    @property
    def periodic(self) -> bool:
        return self.cell.is_finite

    def with_values(self, values) -> "Profile":
        return Profile(self.cell, np.asarray(values, dtype=float))


def bonds(a: np.ndarray, periodic: bool) -> tuple[np.ndarray, np.ndarray]:
    """Ends (a_j, a_{j+1}) of each bond along the last axis; periodic adds (a_{N-1}, a_0)."""
    if periodic:
        return a, np.concatenate((a[..., 1:], a[..., :1]), axis=-1)
    return a[..., :-1], a[..., 1:]


@lru_cache
def _wrap_index(n: int) -> np.ndarray:
    """Read-only ``[n-1, 0, 1, ..., n-1, 0]``: a periodic cell padded with its wrapped ends."""
    idx = np.arange(-1, n + 1) % n
    idx.flags.writeable = False
    return idx


def neighbor_sum(values: np.ndarray, periodic: bool) -> np.ndarray:
    """u_{j+1} + u_{j-1} with periodic wrap or zero-Dirichlet boundary.

    The periodic sum is one gather of the padded cell and one add of its
    shifted slices. On a one-site periodic cell both neighbours are the site
    itself: 2u.
    """
    if periodic:
        ends = values[_wrap_index(len(values))]
        return ends[2:] + ends[:-2]
    out = np.zeros_like(values)
    out[:-1] += values[1:]
    out[1:] += values[:-1]
    return out


def cone_slack_values(v: np.ndarray, cell: Cell) -> float:
    """Largest violation of non-negativity, evenness, or unimodality (0 on the cone)
    of the values v on ``cell``; the ascent step's cone test, with no ``Profile`` built."""
    site_level, _, right = cell.fold
    half = v[right]
    return max(0.0, -float(v.min()), float(np.abs(v - half[site_level]).max()),
               float((half[1:] - half[:-1]).max(initial=0.0)))


def cone_slack(u: Profile) -> float:
    """Largest violation of non-negativity, evenness, or unimodality (0 on the cone)."""
    return cone_slack_values(u.values, u.cell)


def in_cone(u: Profile, tol: float = 0.0) -> bool:
    """True iff u is non-negative, even on the symmetrized cell, and unimodal."""
    return cone_slack(u) <= tol


def _pav_nonincreasing(y: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Weighted least-squares isotonic fit, non-increasing (pool adjacent violators)."""
    n = y.size
    means = list(y.astype(float))
    weights = list(w.astype(float))
    counts = [1] * n
    i = 0
    while i < len(means) - 1:
        if means[i] < means[i + 1]:
            tot = weights[i] + weights[i + 1]
            merged = (means[i] * weights[i] + means[i + 1] * weights[i + 1]) / tot
            means[i:i + 2] = [merged]
            weights[i:i + 2] = [tot]
            counts[i:i + 2] = [counts[i] + counts[i + 1]]
            i = max(i - 1, 0)
        else:
            i += 1
    return np.repeat(means, counts)


def project_cone(u: Profile) -> Profile:
    """Symmetrize, clip negatives, and enforce unimodality by isotonic regression.

    The monotone fit of the clipped level means is least squares with the
    level multiplicities as weights. Idempotent on cone members.
    """
    site_level, mult, _ = u.cell.fold
    means = np.clip(np.bincount(site_level, u.values) / mult, 0.0, None)
    return u.with_values(_pav_nonincreasing(means, mult)[site_level])


def restrict(u: Profile, target: Cell) -> Profile:
    """Zero-extend u beyond its symmetrized cell and re-index on the target cell.

    Onto a finite target this is the periodic continuation of the restriction.
    """
    src_d, tgt_d = u.cell.doubled_indices(), target.doubled_indices()
    sym = u.cell.symmetric_doubled_max()
    if target.is_finite:
        sym = min(sym, target.symmetric_doubled_max())
    # a site within +-sym of the same parity as the source is a source site
    keep = (np.abs(tgt_d) <= sym) & ((tgt_d - src_d[0]) % 2 == 0)
    out = np.zeros(tgt_d.size)
    out[keep] = u.values[(tgt_d[keep] - src_d[0]) // 2]
    return Profile(target, out)


def _index_labels(cell: Cell) -> list[str]:
    """The CSV labels of the cell's sites: j on-site, j to one decimal inter-site."""
    if cell.scheme is IndexScheme.ON_SITE:
        return [str(int(dd) // 2) for dd in cell.doubled_indices()]
    return [f"{dd / 2:.1f}" for dd in cell.doubled_indices()]


@contextmanager
def _opened(path_or_buf, mode: str):
    """A path opened in ``mode`` and closed after, or an open buffer borrowed as is."""
    if isinstance(path_or_buf, (str, bytes)) or hasattr(path_or_buf, "__fspath__"):
        with open(path_or_buf, mode, newline="") as fh:
            yield fh
    else:
        yield path_or_buf


def _write_csv(path_or_buf, header: list[str], rows) -> None:
    """Every CSV artifact: the header row, then each row with text cells as
    given and every number as the ``repr`` of its float, which reads back exactly."""
    with _opened(path_or_buf, "w") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([c if isinstance(c, str) else repr(float(c)) for c in row]
                         for row in rows)


class _Record:
    """The JSON form of every result record: its fields in order but those named in ``_EXCLUDED``,
    a nested record as its ``to_dict``, an enum as its value, a non-finite float as None."""

    _EXCLUDED = ()

    def to_dict(self) -> dict:
        return {k: _json_value(v) for k, v in vars(self).items() if k not in self._EXCLUDED}


def _json_value(v):
    if isinstance(v, float):
        return v if math.isfinite(v) else None
    if isinstance(v, _Record):
        return v.to_dict()
    if isinstance(v, Enum):
        return v.value
    if isinstance(v, (list, tuple)):
        return [_json_value(x) for x in v]
    if isinstance(v, dict):
        return {k: _json_value(x) for k, x in v.items()}
    return v


def profile_to_csv(u: Profile, path_or_buf) -> None:
    """Write the profile as CSV with header ``j,u`` (full-precision values)."""
    _write_csv(path_or_buf, ["j", "u"], zip(_index_labels(u.cell), u.values))


def profile_from_csv(path_or_buf, periodic: bool | None = None) -> Profile:
    """Parse a ``j,u`` CSV back into a Profile.

    Every row after the header holds two finite numbers, the index and the
    value. The scheme is inferred from the indices. With ``periodic=None`` the cell
    is read as periodic when the index list matches a periodicity cell and as
    a truncated lattice otherwise.
    """
    with _opened(path_or_buf, "r") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != ["j", "u"]:
        raise ValueError("expected CSV header 'j,u'")
    if len(rows) == 1:
        raise ValueError("the CSV holds no site rows")
    sites = []
    for number, row in enumerate(rows[1:], start=2):
        try:
            sites.append([float(c) for c in row])
        except ValueError:
            sites.append([])
        if len(sites[-1]) != 2 or not np.all(np.isfinite(sites[-1])):
            raise ValueError(f"CSV row {number} must hold two finite numbers, not {row!r}")
    js, us = np.array(sites).T
    d = np.round(2 * js).astype(np.int64)
    if np.max(np.abs(d / 2.0 - js)) > 0:
        raise ValueError("indices must be integers or half-integers")
    scheme = IndexScheme.ON_SITE if np.all(d % 2 == 0) else IndexScheme.INTER_SITE
    if np.any(d % 2 == 0) and np.any(d % 2 != 0):
        raise ValueError("mixed integer and half-integer indices")

    n = d.size
    candidate = Cell.periodic(scheme, n)
    matches_periodic = np.array_equal(candidate.doubled_indices(), d)
    if periodic is True or (periodic is None and matches_periodic):
        if not matches_periodic:
            raise ValueError("index list is not a periodicity cell")
        return Profile(candidate, us)
    trunc = Cell.truncated(scheme, d[-1] / 2.0)
    if not np.array_equal(trunc.doubled_indices(), d):
        raise ValueError("index list is not a symmetric truncated lattice")
    return Profile(trunc, us)
