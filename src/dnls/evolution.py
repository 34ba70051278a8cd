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
from dataclasses import dataclass, fields

import numpy as np

from .functionals import coupling_values, field_values
from .lattice import Cell, Profile
from .potentials import Potential

_BLOWUP_LIMIT = 1e6
# steps whose diagnostics are evaluated together, in one pass over the stacked states
_BLOCK = 128


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


def _mod2(a: np.ndarray) -> np.ndarray:
    return a.real**2 + a.imag**2


def rhs(a: np.ndarray, periodic: bool, p: Potential, alpha: float) -> np.ndarray:
    """dA/dt = i [alpha (A_{j+1}+A_{j-1}) + dpsi(|A_j|^2) A_j]."""
    return 1j * field_values(a, _mod2(a), periodic, p, alpha)


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


def _check_times(t_end: float, dt: float) -> None:
    """Refuse a step or an end time that ``integrate`` cannot run."""
    if not math.isfinite(dt) or dt <= 0:
        raise ValueError(f"dt must be positive and finite, not {dt}")
    if not math.isfinite(t_end) or t_end < 0:
        raise ValueError(f"t_end must be non-negative and finite, not {t_end}")


def _check_equilibrium_times(t_end: float, dt: float) -> None:
    """Refuse what ``integrate`` refuses, and t_end = 0: one sample measures no rotation."""
    _check_times(t_end, dt)
    if t_end == 0:
        raise ValueError(f"t_end must be positive to measure a phase rotation, not {t_end}")


def integrate(state: EvolutionState, p: Potential, alpha: float, t_end: float,
              dt: float, callback=None):
    """Fixed-step classical fourth-order Runge-Kutta up to t_end.

    The step is adjusted to land exactly on t_end (n = round(t_end/dt) steps).
    Accuracy degrades for dt beyond roughly 0.1/(1 + 2|alpha| + dpsi(max|A|^2)),
    the inverse of the fastest local rotation rate. Returns the final state
    and drift diagnostics for power and Hamiltonian. A step makes four field
    evaluations (one dpsi call each) and forms |A|^2 once per state; the new
    state's |A|^2 also feeds the next step's first stage and the blow-up
    guard. The invariants are evaluated once per block of up to ``_BLOCK``
    steps, with one psi call over the block's stacked states, and give the
    same drifts as evaluating them step by step.
    ``callback(step, t, amplitudes)`` is invoked at t=0 and after every step;
    the array it receives is never modified afterwards, so it may be kept.
    ``t_end`` and ``dt`` must be finite. An amplitude above the blow-up limit,
    or one that a step made inf or nan, raises ``BlowUpError``; numpy's
    overflow warnings are off during the steps and the callback.
    """
    _check_times(t_end, dt)
    periodic = state.cell.is_finite
    a = state.amplitudes.astype(complex)
    n_steps = max(int(round(t_end / dt)), 1) if t_end > 0 else 0
    h = t_end / n_steps if n_steps else 0.0
    # the factor i of dA/dt = i F(A) folded into the stage coefficients
    ihh, ih, ih6 = 1j * (0.5 * h), 1j * h, 1j * (h / 6.0)
    limit2 = _BLOWUP_LIMIT**2

    mod2 = _mod2(a)
    p0, h0 = map(float, _invariants(a, mod2, periodic, p, alpha))
    max_dp = 0.0
    max_dh = 0.0
    states = []  # the block's states, each a fresh array that is never modified

    def flush():
        nonlocal max_dp, max_dh
        block = np.stack(states)
        power, ham = _invariants(block, _mod2(block), periodic, p, alpha)
        max_dp = _max_into(max_dp, np.abs(power - p0))
        max_dh = _max_into(max_dh, np.abs(ham - h0))
        states.clear()

    if callback is not None:
        callback(0, state.time, a)

    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps):
            if not mod2.max() <= limit2:
                raise BlowUpError(f"amplitude exceeded {_BLOWUP_LIMIT:g} "
                                  f"at t={state.time + k * h:g}")
            f1 = field_values(a, mod2, periodic, p, alpha)
            b = a + ihh * f1
            f2 = field_values(b, _mod2(b), periodic, p, alpha)
            b = a + ihh * f2
            f3 = field_values(b, _mod2(b), periodic, p, alpha)
            b = a + ih * f3
            f4 = field_values(b, _mod2(b), periodic, p, alpha)
            a = a + ih6 * (f1 + 2.0 * f2 + 2.0 * f3 + f4)
            mod2 = _mod2(a)
            states.append(a)
            if len(states) == _BLOCK:
                flush()
            if callback is not None:
                callback(k + 1, state.time + (k + 1) * h, a)

        if n_steps and not mod2.max() <= limit2:
            raise BlowUpError(f"amplitude exceeded {_BLOWUP_LIMIT:g} at t={state.time + t_end:g}")
        if states:
            flush()
    final = EvolutionState(time=state.time + t_end, amplitudes=a, cell=state.cell)
    diagnostics = {
        "steps": n_steps,
        "dt": h,
        "power_drift": max_dp,
        "power_drift_rel": max_dp / p0 if p0 > 0 else 0.0,
        "hamiltonian_drift": max_dh,
        "hamiltonian_drift_rel": max_dh / abs(h0) if h0 != 0 else max_dh,
    }
    return final, diagnostics


@dataclass(frozen=True)
class EquilibriumReport:
    modulus_drift: float
    sigma_measured: float
    sigma_mismatch: float
    power_drift_rel: float
    hamiltonian_drift_rel: float
    t_end: float
    dt: float

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def relative_equilibrium_check(sol, p: Potential, alpha: float, t_end: float,
                               dt: float, callback=None) -> EquilibriumReport:
    """Evolve A(0) = u and compare with the rigid rotation exp(i sigma t) u.

    Reports the worst modulus deviation over the run, the measured phase
    rotation rate at the central site against the solver frequency, and the
    conservation drifts. The modulus deviation and the central amplitude are
    read once per block of up to ``_BLOCK`` states, with the same results as
    reading them state by state. ``callback`` is passed on to ``integrate``, so a
    caller can sample the same trajectory without integrating it again.
    ``t_end`` must be positive and finite, so the rate is fitted to at least
    two samples.
    """
    _check_equilibrium_times(t_end, dt)
    if not sol.converged:
        raise ValueError("relative-equilibrium check requires a converged solution")
    u = sol.profile.values
    state = EvolutionState.from_profile(sol.profile)
    center = int(np.argmin(np.abs(sol.profile.cell.doubled_indices())))

    drift = 0.0
    times, phases = [], []
    block = []  # the states since the last reduction, as integrate handed them out

    def flush():
        nonlocal drift
        stacked = np.stack(block)
        drift = _max_into(drift, np.max(np.abs(np.abs(stacked) - u), axis=1))
        phases.append(stacked[:, center].copy())  # a copy, so the block is not kept
        block.clear()

    def watch(step, t, a):
        times.append(t)
        block.append(a)
        if len(block) == _BLOCK:
            flush()
        if callback is not None:
            callback(step, t, a)

    _, diag = integrate(state, p, alpha, t_end, dt, callback=watch)
    if block:
        flush()
    theta = np.unwrap(np.angle(np.concatenate(phases)))
    rate = float(np.polyfit(np.asarray(times), theta, 1)[0])
    return EquilibriumReport(
        modulus_drift=drift,
        sigma_measured=rate,
        sigma_mismatch=abs(rate - sol.sigma),
        power_drift_rel=diag["power_drift_rel"],
        hamiltonian_drift_rel=diag["hamiltonian_drift_rel"],
        t_end=t_end,
        dt=diag["dt"],
    )
