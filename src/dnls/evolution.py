"""Time integration of the gauge-normalized lattice Schrödinger equation.

The amplitudes obey  i dA_j/dt + alpha (A_{j+1} + A_{j-1}) + dpsi(|A_j|^2) A_j = 0
with periodic coupling on finite cells and zero-Dirichlet coupling on
truncated lattices. Both the total power sum |A_j|^2 and the lattice
Hamiltonian are conserved; a fixed-step classical Runge-Kutta integrator is
used and the drift of both invariants is reported as a diagnostic rather
than enforced.

A standing wave with profile u and frequency sigma evolves as
A_j(t) = exp(i sigma t) u_j; ``relative_equilibrium_check`` verifies this for
solver output by measuring modulus drift and the phase rotation rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .functionals import coupling_values, field_values
from .lattice import Cell, Profile, _Record
from .potentials import Potential

if TYPE_CHECKING:
    from .solver import WaveSolution

_BLOWUP_LIMIT = 1e6
# states checked, measured and handed out together; states per blow-up test of the steps
_BLOCK = 128
_CHECK = 16


class BlowUpError(RuntimeError):
    """Raised when an amplitude exceeds the blow-up guard during integration."""


@dataclass
class EvolutionState:
    time: float
    amplitudes: np.ndarray
    cell: Cell

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.ndim != 1 or amps.size != self.cell.size:
            raise ValueError("amplitudes must match the cell size")
        if not np.all(np.isfinite(amps)):
            raise ValueError("amplitudes must be finite")
        self.amplitudes = amps

    @staticmethod
    def from_profile(u: Profile) -> "EvolutionState":
        return EvolutionState(time=0.0, amplitudes=u.values.astype(complex), cell=u.cell)


def _invariants(a: np.ndarray, mod2: np.ndarray, periodic: bool, p: Potential,
                alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Power and Hamiltonian of each state A along the last axis, with |A|^2 given as ``mod2``.

    One psi call on the flattened ``mod2``; the coupling is ``coupling_values``. Every
    reduction runs row by row, so a row's values do not depend on the other rows.
    """
    power = mod2.sum(axis=-1)
    psi = np.asarray(p.psi(mod2.ravel())).reshape(mod2.shape).sum(axis=-1)
    ptot = alpha * coupling_values(a, periodic) + psi
    return power, 2.0 * alpha * power - ptot


def _max_into(current: float, values: np.ndarray) -> float:
    """``max(current, v)`` folded over ``values``: a nan never replaces the running maximum."""
    return float(np.fmax.reduce(values, initial=current))


def _n_steps(t_end: float, dt: float) -> int:
    """The RK4 steps of ``integrate``: round(t_end/dt), at least one unless t_end = 0.

    A step, an end time or a t_end/dt that ``integrate`` cannot run is refused, in that
    order, before any step."""
    if not math.isfinite(dt) or dt <= 0:
        raise ValueError(f"dt must be positive and finite, not {dt}")
    if not math.isfinite(t_end) or t_end < 0:
        raise ValueError(f"t_end must be non-negative and finite, not {t_end}")
    steps = t_end / dt
    if not math.isfinite(steps):
        raise ValueError(f"t_end / dt must be a finite step count, not {t_end} / {dt}")
    return max(int(round(steps)), 1) if t_end > 0 else 0


def _equilibrium_steps(t_end: float, dt: float) -> int:
    """The steps of ``integrate``, with its refusals and t_end = 0: one sample measures no
    rotation."""
    steps = _n_steps(t_end, dt)
    if t_end == 0:
        raise ValueError(f"t_end must be positive to measure a phase rotation, not {t_end}")
    return steps


def _rk4_blocks(a: np.ndarray, n_steps: int, h: float, periodic: bool, p: Potential,
                alpha: float):
    """A and each of ``n_steps`` RK4 steps of size h, in fresh blocks (states, |A|^2) of up
    to ``_BLOCK`` rows; one whose last ``_CHECK`` rows fail the blow-up test ends there.
    |A|^2 is a square of the float view (re, im, ...) into ``sq`` and an add of its even and
    odd entries, re**2 + im**2 bit for bit; the stages reuse ``b`` and ``m``. Outputs go in
    positionally: ``out=`` adds to each call's cost, which outweighs the arithmetic here."""
    # the factor i of dA/dt = i F(A) folded into the stage coefficients
    ihh, ih, ih6 = 1j * (0.5 * h), 1j * h, 1j * (h / 6.0)
    b, m, sq = np.empty_like(a), np.empty(a.size), np.empty(2 * a.size)
    bf, re2, im2 = b.view(float), sq[::2], sq[1::2]
    for first in range(0, n_steps + 1, _BLOCK):
        rows = min(_BLOCK, n_steps + 1 - first)
        states, mod2s = np.empty((rows, a.size), complex), np.empty((rows, a.size))
        for row in range(rows):
            if first + row:  # a step; the first block's row 0 is the start state
                f1 = field_values(a, mod2, periodic, p, alpha)
                np.add(a, np.multiply(f1, ihh, b), b)
                np.square(bf, sq)
                f2 = field_values(b, np.add(re2, im2, m), periodic, p, alpha)
                np.add(a, np.multiply(f2, ihh, b), b)
                np.square(bf, sq)
                f3 = field_values(b, np.add(re2, im2, m), periodic, p, alpha)
                np.add(a, np.multiply(f3, ih, b), b)
                np.square(bf, sq)
                f4 = field_values(b, np.add(re2, im2, m), periodic, p, alpha)
                a = np.add(a, ih6 * (f1 + 2.0 * f2 + 2.0 * f3 + f4), states[row])
            else:
                states[0] = a
            np.square(a.view(float), sq)
            mod2 = np.add(re2, im2, mod2s[row])
            if (row % _CHECK == _CHECK - 1
                    and not mod2s[row + 1 - _CHECK:row + 1].max() <= _BLOWUP_LIMIT**2):
                yield states[:row + 1], mod2s[:row + 1]
                return
        yield states, mod2s


def integrate(state: EvolutionState, p: Potential, alpha: float, t_end: float,
              dt: float, callback=None):
    """Fixed-step classical fourth-order Runge-Kutta up to t_end.

    The step is adjusted to land exactly on t_end (n = round(t_end/dt) steps).
    Accuracy degrades for dt beyond roughly 0.1/(1 + 2|alpha| + dpsi(max|A|^2)),
    the inverse of the fastest local rotation rate. Returns the final state
    and drift diagnostics for power and Hamiltonian.
    The trajectory, the start state and then the state after each step, is written into
    blocks of up to ``_BLOCK`` states with their |A|^2; the steps stop within ``_CHECK``
    states of a blow-up. From the block the blow-up guard checks every state, and the power
    and Hamiltonian take one psi call; their drifts are measured from row 0 of the first
    block and equal those of a step-by-step evaluation. Then the block is handed to
    ``callback(steps, times, states)``: the states' step numbers and times and the (B, N)
    states, never modified afterwards and sharing no reused buffer, so they may be kept.
    ``t_end`` and ``dt`` must be finite. An amplitude above the blow-up limit,
    or one that a step made inf or nan, raises ``BlowUpError`` with the time of
    the first such state, whose block is never handed out; numpy's overflow
    warnings are off during the steps and the callback.
    """
    periodic = state.cell.is_finite
    n_steps = _n_steps(t_end, dt)
    h = t_end / n_steps if n_steps else 0.0
    trajectory = _rk4_blocks(state.amplitudes.astype(complex), n_steps, h, periodic, p, alpha)
    max_dp = max_dh = 0.0
    first = 0

    with np.errstate(over="ignore", invalid="ignore"):
        for states, mod2 in trajectory:
            steps = np.arange(first, first + len(states))
            first += len(states)
            times = state.time + steps * h
            over = np.flatnonzero(~(mod2.max(axis=1) <= _BLOWUP_LIMIT**2))
            if over.size:
                raise BlowUpError(f"amplitude exceeded {_BLOWUP_LIMIT:g} "
                                  f"at t={times[over[0]]:g}")
            power, ham = _invariants(states, mod2, periodic, p, alpha)
            if not steps[0]:
                p0, h0 = float(power[0]), float(ham[0])
            max_dp = _max_into(max_dp, np.abs(power - p0))
            max_dh = _max_into(max_dh, np.abs(ham - h0))
            if callback is not None:
                callback(steps, times, states)
    final = EvolutionState(time=state.time + t_end, amplitudes=states[-1].copy(),
                           cell=state.cell)
    return final, {
        "steps": n_steps,
        "dt": h,
        "power_drift": max_dp,
        "power_drift_rel": max_dp / p0 if p0 > 0 else 0.0,
        "hamiltonian_drift": max_dh,
        "hamiltonian_drift_rel": max_dh / abs(h0) if h0 != 0 else max_dh,
    }


@dataclass(frozen=True)
class EquilibriumReport(_Record):
    modulus_drift: float
    sigma_measured: float
    sigma_mismatch: float
    power_drift_rel: float
    hamiltonian_drift_rel: float
    t_end: float
    dt: float


def relative_equilibrium_check(sol: WaveSolution, t_end: float, dt: float,
                               callback=None) -> EquilibriumReport:
    """Evolve A(0) = u, under the potential and at the coupling that ``sol`` was solved
    with, and compare with the rigid rotation exp(i sigma t) u.

    Reports the worst modulus deviation over the run, the measured phase
    rotation rate at the central site against the solver frequency, and the
    conservation drifts. It keeps no states: the modulus deviation and a copy
    of the central amplitudes are read from each block that ``integrate``
    hands out, with the same results as reading them state by state, and the
    block is then passed on to ``callback(steps, times, states)``, so a caller
    can sample the same trajectory without integrating it again.
    ``t_end`` must be positive and finite, so the rate is fitted to at least two samples.
    """
    _equilibrium_steps(t_end, dt)
    if not sol.converged:
        raise ValueError("relative-equilibrium check requires a converged solution")
    u = sol.profile.values
    state = EvolutionState.from_profile(sol.profile)
    center = int(np.argmin(np.abs(sol.profile.cell.doubled_indices())))

    drift = 0.0
    times, phases = [], []

    def read(steps, t, states):
        nonlocal drift
        drift = _max_into(drift, np.max(np.abs(np.abs(states) - u), axis=1))
        times.append(t)
        phases.append(states[:, center].copy())  # a copy, so the block is not kept
        if callback is not None:
            callback(steps, t, states)

    _, diag = integrate(state, sol.potential, sol.config.alpha, t_end, dt, callback=read)
    theta = np.unwrap(np.angle(np.concatenate(phases)))
    rate = float(np.polyfit(np.concatenate(times), theta, 1)[0])
    return EquilibriumReport(
        modulus_drift=drift,
        sigma_measured=rate,
        sigma_mismatch=abs(rate - sol.sigma),
        power_drift_rel=diag["power_drift_rel"],
        hamiltonian_drift_rel=diag["hamiltonian_drift_rel"],
        t_end=t_end,
        dt=diag["dt"],
    )
