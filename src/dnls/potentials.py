"""Nonlinear on-site potentials and numerical checks of their growth assumptions.

A potential is a label and a pair (psi, dpsi) defined on x >= 0 with
psi(0) = dpsi(0) = 0.
The energy maximization relies on three structural properties:

  normalization    psi(0) = dpsi(0) = 0
  super-linearity  x * dpsi(x) >= psi(x) >= 0
  non-degeneracy   psi(x) > 0 for x > 0

Catalog entries satisfy all three; user-defined potentials are verified
numerically by ``check_assumptions``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Callable

import numpy as np

from .lattice import _Record


@dataclass(frozen=True)
class Potential:
    """Immutable potential; safe to share across concurrent evaluations.

    ``label`` names it: a catalog key, ``power:eta=<r>,c=<r>``, or any name
    given to a user-defined pair ``Potential(label, psi, dpsi)``, which
    ``check_assumptions`` verifies numerically (``solve`` runs it first).
    ``psi`` and ``dpsi`` are vectorized callables on non-negative arguments;
    every caller passes squares or a positive grid, so no domain check is made.
    """

    label: str
    psi: Callable[[np.ndarray], np.ndarray]
    dpsi: Callable[[np.ndarray], np.ndarray]


def power_law(eta: float, c: float = 1.0) -> Potential:
    """psi(x) = c x^(1+eta)/(1+eta), dpsi(x) = c x^eta with finite eta, c > 0.

    Each call builds new callbacks, so unlike a catalog entry, two equal
    power laws are two potentials and ``solve`` checks each one anew.
    """
    if not (0 < eta < np.inf and 0 < c < np.inf):
        raise ValueError(f"power potential needs finite eta > 0 and c > 0, not eta={eta}, c={c}")
    return Potential(
        f"power:eta={eta},c={c}",
        psi=lambda x: c * x ** (1.0 + eta) / (1.0 + eta),
        dpsi=lambda x: c * x**eta,
    )


# the catalog's callbacks live at module level, so that every instance of an
# entry compares and hashes alike and one kept assumption report serves them all

def _saturable_log_psi(x):
    return x - np.log1p(x)


def _saturable_log_dpsi(x):
    return x / (1.0 + x)


def _saturable_arctan_psi(x):
    return x - np.arctan(x)


def _saturable_arctan_dpsi(x):
    return (sq := x * x) / (1.0 + sq)


def _exp_quadratic_psi(x):
    return np.expm1(x) - 0.5 * x * x - x


def _exp_quadratic_dpsi(x):
    return np.expm1(x) - x


def _nonconvex_rational_psi(x):
    return x**3 / (1.0 + x * x)


def _nonconvex_rational_dpsi(x):
    return (sq := x * x) * (3.0 + sq) / (1.0 + sq) ** 2


def _quartic_psi(x):
    return x**4


def _quartic_dpsi(x):
    return 4.0 * x**3


def saturable_log() -> Potential:
    """psi(x) = x - log(1+x), dpsi(x) = x/(1+x)."""
    return Potential("saturable-log", _saturable_log_psi, _saturable_log_dpsi)


def saturable_arctan() -> Potential:
    """psi(x) = x - arctan(x), dpsi(x) = x^2/(1+x^2)."""
    return Potential("saturable-arctan", _saturable_arctan_psi, _saturable_arctan_dpsi)


def exp_quadratic() -> Potential:
    """psi(x) = e^x - x^2/2 - x - 1, dpsi(x) = e^x - x - 1."""
    return Potential("exp-quadratic", _exp_quadratic_psi, _exp_quadratic_dpsi)


def nonconvex_rational() -> Potential:
    """psi(x) = x^3/(1+x^2), dpsi(x) = x^2 (3+x^2)/(1+x^2)^2; not convex."""
    return Potential("nonconvex-rational", _nonconvex_rational_psi, _nonconvex_rational_dpsi)


def quartic() -> Potential:
    """psi(x) = x^4, dpsi(x) = 4 x^3."""
    return Potential("quartic", _quartic_psi, _quartic_dpsi)


CATALOG = {f().label: f for f in (saturable_log, saturable_arctan, exp_quadratic,
                                   nonconvex_rational, quartic)}


def parse_potential_spec(spec: str) -> Potential:
    """Parse a CLI potential name, e.g. ``quartic`` or ``power:eta=1.5,c=2``."""
    spec = spec.strip()
    if spec in CATALOG:
        return CATALOG[spec]()
    if spec.startswith("power:") or spec == "power":
        kv = {}
        for item in filter(None, spec.partition(":")[2].split(",")):
            key, _, val = item.partition("=")
            key = key.strip()
            if key in kv:
                raise ValueError(f"repeated power potential key: {key}")
            try:
                kv[key] = float(val)
            except ValueError:
                raise ValueError(f"power potential key {key} needs a number, "
                                 f"not {val!r}") from None
        unknown = sorted(set(kv) - {"eta", "c"})
        if unknown:
            raise ValueError(f"unknown power potential keys: {', '.join(unknown)}; "
                             "expected eta and c")
        return power_law(eta=kv.get("eta", 1.0), c=kv.get("c", 1.0))
    raise ValueError(
        f"unknown potential {spec!r}; expected one of "
        f"{sorted(CATALOG)} or power:eta=<r>,c=<r>"
    )


class Check(Enum):
    NORMALIZATION = "normalization"
    SUPER_LINEARITY = "super-linearity"
    NON_NEGATIVITY = "non-negativity"
    NON_DEGENERACY = "non-degeneracy"
    CONSISTENCY = "consistency"


@dataclass(frozen=True)
class Violation(_Record):
    x: float
    check: Check
    lhs: float
    rhs: float


@dataclass(frozen=True)
class AssumptionReport(_Record):
    passed: bool
    grid: str
    violations: list


# absolute slack on inequality checks; roundoff in psi/dpsi stays well below
SLACK = 1e-12


def check_assumptions(p: Potential, x_max: float, samples: int) -> AssumptionReport:
    """Verify the growth assumptions on a geometric-plus-linear grid over (0, x_max].

    Reports every violated inequality with both sides. The finite-difference
    consistency of (psi, dpsi) is checked away from zero. Violations come in
    this order: normalization at 0 (psi, then dpsi); then each failing sample
    in increasing x, either one normalization violation for a non-finite
    value or its non-negativity, super-linearity and non-degeneracy
    violations in that order; then the degeneracy at x_max when no sample is
    measurably positive; then each failing consistency point in increasing x.

    Raises ``ValueError`` for an x_max that is not finite and positive, fewer
    than 2 samples, or a psi or dpsi that does not return one value per
    sample.
    """
    if not 0 < x_max < np.inf:
        raise ValueError(f"x_max must be positive and finite, not {x_max}")
    if samples < 2:
        raise ValueError("samples must be at least 2")

    n_geo = samples // 2
    n_lin = samples - n_geo
    geo_lo = min(1e-8, x_max)
    geo = np.geomspace(geo_lo, x_max, max(n_geo, 2))
    lin = np.linspace(x_max / n_lin, x_max, max(n_lin, 2))
    # np.unique's sort-and-dedupe, spelled out: np.unique imports numpy.ma on
    # first use (about 20 ms), which no other line of the package needs
    xs = np.sort(np.concatenate([geo, lin]))
    xs = xs[np.concatenate(([True], xs[1:] != xs[:-1]))]
    violations: list[Violation] = []

    def bad(x, check, lhs, rhs):
        violations.append(Violation(float(x), check, float(lhs), float(rhs)))

    def one_per_sample(out, name, at):
        if out.shape != at.shape:
            raise ValueError(f"{name} must return one value per sample: got shape "
                             f"{out.shape} for {at.size} samples")
        return out

    def values(f, name, at):
        return one_per_sample(np.asarray(f(at), dtype=float), name, at)

    # normalization at x = 0 (values must be finite and vanish); a psi or dpsi
    # that cannot be evaluated there violates it, one of the wrong shape is refused
    zero = np.asarray(0.0)
    try:
        psi0 = np.asarray(p.psi(zero), dtype=float)
        dpsi0 = np.asarray(p.dpsi(zero), dtype=float)
    except (ArithmeticError, ValueError):
        psi0 = dpsi0 = np.asarray(np.nan)
    psi0 = float(one_per_sample(psi0, "psi", zero))
    dpsi0 = float(one_per_sample(dpsi0, "dpsi", zero))
    if not np.isfinite(psi0) or abs(psi0) > SLACK:
        bad(0.0, Check.NORMALIZATION, psi0, 0.0)
    if not np.isfinite(dpsi0) or abs(dpsi0) > SLACK:
        bad(0.0, Check.NORMALIZATION, dpsi0, 0.0)

    with np.errstate(all="ignore"):
        psi_vals = values(p.psi, "psi", xs)
        dpsi_vals = values(p.dpsi, "dpsi", xs)

        # super-linearity makes {psi > 0} an up-set, so a vanishing value is a
        # decidable degeneracy exactly when it sits above a measurably positive
        # one (well clear of the rounding noise of O(x) intermediates) or at x_max;
        # near zero a very flat psi rounds to 0.0 and positivity is unknowable
        noise = 8.0 * np.finfo(float).eps * xs
        positive = np.flatnonzero(np.isfinite(psi_vals) & (psi_vals > noise))
        first_positive = xs[positive[0]] if positive.size else np.inf

        finite = np.isfinite(psi_vals) & np.isfinite(dpsi_vals)
        x_dpsi = xs * dpsi_vals
        negative = psi_vals < -SLACK
        sublinear = x_dpsi - psi_vals < -SLACK
        degenerate = (psi_vals <= 0.0) & (xs > first_positive)
    for i in np.flatnonzero(~finite | negative | sublinear | degenerate):
        x, ps, dps = xs[i], psi_vals[i], dpsi_vals[i]
        if not finite[i]:
            bad(x, Check.NORMALIZATION, ps if np.isfinite(dps) else dps, 0.0)
            continue
        if negative[i]:
            bad(x, Check.NON_NEGATIVITY, ps, 0.0)
        if sublinear[i]:
            bad(x, Check.SUPER_LINEARITY, x_dpsi[i], ps)
        if degenerate[i]:
            bad(x, Check.NON_DEGENERACY, ps, 0.0)
    if not positive.size and not psi_vals[-1] > 0.0:
        bad(x_max, Check.NON_DEGENERACY, float(psi_vals[-1]), 0.0)

    fd_xs = np.geomspace(0.05 * x_max, x_max, 64)
    h = 6e-6 * fd_xs
    with np.errstate(all="ignore"):
        fd = (values(p.psi, "psi", fd_xs + h) - values(p.psi, "psi", fd_xs - h)) / (2.0 * h)
        exact = values(p.dpsi, "dpsi", fd_xs)
        rel = np.abs(fd - exact) / np.maximum(np.abs(exact), 1e-300)
    for i in np.flatnonzero(~np.isfinite(rel) | (rel > 1e-6)):
        bad(fd_xs[i], Check.CONSISTENCY, fd[i], exact[i])

    grid = (f"geometric {geo_lo:g}..{x_max:g} plus uniform, {xs.size} points; "
            f"fd check on [{0.05 * x_max:g}, {x_max:g}]")
    return AssumptionReport(passed=not violations, violations=violations, grid=grid)


@lru_cache(maxsize=16)
def _kept_report(p: Potential, x_max: float) -> AssumptionReport:
    return check_assumptions(p, x_max=x_max, samples=400)


def _require_assumptions(p: Potential, rho: float) -> None:
    """Refuse a potential that fails ``check_assumptions`` on [0, max(rho, 1)].

    ``solve`` and ``oracle_maximize`` both rest on them: the ascent on the
    super-linearity, the oracle's box bound on psi being non-decreasing.
    The report is kept for the last 16 (potential, range) pairs, so an
    oracle call after its solve checks nothing twice, and every instance of a
    catalog entry shares one report; a refused potential is refused on every
    call. A potential with an unhashable callback is checked afresh each time.
    """
    try:
        hash(p)
        check = _kept_report
    except TypeError:  # an unhashable callback gives no cache key
        check = _kept_report.__wrapped__
    report = check(p, max(rho, 1.0))
    if not report.passed:
        kinds = sorted({v.check.value for v in report.violations})
        raise ValueError(f"potential violates growth assumptions on [0, rho]: {kinds}")
