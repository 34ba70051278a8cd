"""Energies of lattice profiles and the building blocks of the constrained flow.

For a profile u on a cell the relevant functionals are

    power      N(u) = sum u_j^2
    coupling   L(u) = sum u_j (u_{j+1} + u_{j-1}) = 2 sum u_j u_{j+1}
    potential  W(u) = sum psi(u_j^2)
    energy     P(u) = alpha L(u) + W(u)
    hamiltonian H(u) = 2 alpha N(u) - P(u)
    t_value    T = P(u) / (alpha N(u))

Finite cells wrap periodically; truncated lattices use zero-Dirichlet
boundaries, matching the zero extension of restricted profiles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .lattice import Cell, IndexScheme, Profile, bonds, neighbor_sum
from .potentials import Potential


class DegenerateProfileError(ValueError):
    """Raised for quantities that are undefined on the zero profile."""


@dataclass(frozen=True)
class EnergyBreakdown:
    power: float
    coupling: float
    potential_energy: float
    p_total: float
    hamiltonian: float
    t_value: float | None

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def power(u: Profile) -> float:
    v = u.values
    return float(v @ v)


def coupling_values(a: np.ndarray, periodic: bool):
    """2 Re sum conj(a_j) a_{j+1} over the ``bonds``: L(u) of a profile, or of each RK4
    state in a stack, one dot per state and independent of the others."""
    left, right = bonds(a, periodic)
    return 2.0 * np.real(np.matmul(np.conj(left)[..., None, :], right[..., :, None])[..., 0, 0])


def coupling(u: Profile) -> float:
    return float(coupling_values(u.values, u.periodic))


def potential_energy(u: Profile, p: Potential) -> float:
    v = u.values
    return float(np.sum(p.psi(v * v)))


def p_value(v: np.ndarray, periodic: bool, p: Potential, alpha: float) -> float:
    """P on raw values by math.fsum, correctly rounded whatever the term order.

    Step acceptance compares energies whose difference can sit below the
    roundoff of a naive sum.
    """
    left, right = bonds(v, periodic)
    return math.fsum(np.concatenate([2.0 * alpha * left * right, p.psi(v * v)]).tolist())


def energy(u: Profile, p: Potential, alpha: float) -> EnergyBreakdown:
    """Full energy breakdown; t_value is None for the zero profile."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    n = power(u)
    ptot = p_value(u.values, u.periodic, p, alpha)
    tv = ptot / (alpha * n) if n > 0 else None
    return EnergyBreakdown(power=n, coupling=coupling(u),
                           potential_energy=potential_energy(u, p), p_total=ptot,
                           hamiltonian=2.0 * alpha * n - ptot, t_value=tv)


def field_values(a: np.ndarray, mod2: np.ndarray, periodic: bool, p: Potential,
                 alpha: float) -> np.ndarray:
    """alpha (a_{j+1}+a_{j-1}) + dpsi(|a_j|^2) a_j, with |a|^2 given as ``mod2``.

    The right-hand side of both the standing-wave equation and the lattice
    Schrödinger flow; for real v the gradient of P is 2 * field_values(v, v*v, ...).
    """
    return alpha * neighbor_sum(a, periodic) + p.dpsi(mod2) * a


def grad_p(u: Profile, p: Potential, alpha: float) -> Profile:
    """Gradient of P as a profile on the cell of u."""
    v = u.values
    return u.with_values(2.0 * field_values(v, v * v, u.periodic, p, alpha))


def _tangent(g: np.ndarray, v: np.ndarray, mult: float):
    """Tangent field g - mult*v and the standing-wave residual, half its sup norm."""
    f = g - mult * v
    return f, 0.5 * float(np.max(np.abs(f)))


def flow(v: np.ndarray, periodic: bool, p: Potential, alpha: float):
    """Flow multiplier, field grad P - multiplier*v, and residual (half its sup norm)."""
    n = float(v @ v)
    if n == 0.0:
        raise DegenerateProfileError("multiplier undefined for the zero profile")
    g = 2.0 * field_values(v, v * v, periodic, p, alpha)
    mult = float(g @ v) / n
    return (mult, *_tangent(g, v, mult))


def sigma(u: Profile, p: Potential, alpha: float) -> float:
    """Rayleigh-type flow multiplier <grad P(u), u> / ||u||^2.

    At a standing wave this equals twice the wave frequency, since the
    gradient there is twice the frequency times the profile.
    """
    return flow(u.values, u.periodic, p, alpha)[0]


def residual(u: Profile, sig: float, p: Potential, alpha: float) -> float:
    """Sup norm of sigma*u_j - alpha (u_{j+1}+u_{j-1}) - dpsi(u_j^2) u_j.

    Taken as 0.5 max|grad P(u) - 2 sigma u|, bit for bit ``flow``'s at multiplier/2.
    """
    v = u.values
    return _tangent(2.0 * field_values(v, v * v, u.periodic, p, alpha), v, 2.0 * sig)[1]


def level_energies(a: np.ndarray, cell: Cell, p: Potential, alpha: float) -> np.ndarray:
    """P of B even profiles from their amplitudes a, shape (L, B), on the levels of ``cell.fold``.

    mult @ psi(a^2) + alpha L with L from ``cell.level_coupling``. The only
    batched scorer (ansatz samples and oracle blocks). It sums plainly: a
    per-profile fsum as in ``p_value`` would make the oracle's scan far slower.
    """
    _, mult, _ = cell.fold
    self_w, pair_w = cell.level_coupling
    sq = a * a
    return mult @ p.psi(sq) + alpha * (self_w @ sq + pair_w @ (a[:-1] * a[1:]))


def participation_ratio(u: Profile) -> float:
    """(sum u^2)^2 / (n_sites * sum u^4); 1 for flat profiles, 1/N for one site."""
    v = u.values
    q = float(np.sum(v**4))
    if q == 0.0:
        raise DegenerateProfileError("participation ratio undefined for the zero profile")
    return float(v @ v) ** 2 / (u.cell.size * q)


def box_profile(scheme: IndexScheme, rho: float, m: int) -> Profile:
    """Normalized plateau profile on a truncated lattice.

    On-site: value sqrt(rho/(2m+1)) on |j| <= m (m >= 0). Inter-site: value
    sqrt(rho/(2m)) on |j| <= m - 1/2 (m >= 1); truncated two sites beyond the plateau.
    """
    if scheme is IndexScheme.ON_SITE:
        if m < 0:
            raise ValueError("on-site plateau needs m >= 0")
        height = math.sqrt(rho / (2 * m + 1))
        half_width = m
    else:
        if m < 1:
            raise ValueError("inter-site plateau needs m >= 1")
        height = math.sqrt(rho / (2 * m))
        half_width = m - 0.5
    cell = Cell.truncated(scheme, half_width + 2)
    j = cell.indices()
    vals = np.where(np.abs(j) <= half_width + 1e-9, height, 0.0)
    return Profile(cell, vals)


def exp_profile(scheme: IndexScheme, rho: float, zeta: float) -> Profile:
    """Normalized exponential profile c * exp(-zeta |j|) on a truncated lattice.

    Truncated at j_max = max(50, 20/zeta); the dropped tail is far
    below machine precision, and the profile is renormalized to the sphere.
    """
    if zeta <= 0:
        raise ValueError("decay rate zeta must be positive")
    cell = Cell.truncated(scheme, max(50.0, 20.0 / zeta))
    j = cell.indices()
    vals = np.exp(-zeta * np.abs(j))
    vals *= math.sqrt(rho) / math.sqrt(float(vals @ vals))
    return Profile(cell, vals)


def t_lower_bounds(p: Potential, alpha: float, rho: float, m_max: int,
                   zeta_grid, scheme: IndexScheme = IndexScheme.ON_SITE) -> float:
    """Best lower bound for the normalized maximal energy on the infinite lattice.

    Evaluates P/(alpha*rho) for the plateau family m = 0..m_max (inter-site:
    1..m_max) and the exponential family over zeta_grid, all numerically at
    sufficient truncation.
    """
    if alpha <= 0 or rho <= 0 or m_max < 0:
        raise ValueError("alpha, rho must be positive and m_max non-negative")
    best = -math.inf
    m_lo = 0 if scheme is IndexScheme.ON_SITE else 1
    for m in range(m_lo, m_max + 1):
        ptot = energy(box_profile(scheme, rho, m), p, alpha).p_total
        best = max(best, ptot / (alpha * rho))
    for zeta in zeta_grid:
        ptot = energy(exp_profile(scheme, rho, float(zeta)), p, alpha).p_total
        best = max(best, ptot / (alpha * rho))
    return best
