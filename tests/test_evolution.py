import math

import numpy as np
import pytest

from dnls.evolution import (BlowUpError, EvolutionState, hamiltonian_of,
                            integrate, power_of, relative_equilibrium_check,
                            rhs)
from dnls.lattice import Cell, IndexScheme, Profile, stagger
from dnls.potentials import quartic, saturable_arctan, saturable_log
from dnls.solver import SolverConfig, solve

ON, INTER = IndexScheme.ON_SITE, IndexScheme.INTER_SITE


@pytest.fixture(scope="module")
def small_wave():
    cfg = SolverConfig(alpha=0.8, rho=3.0, scheme=ON, n=13)
    sol = solve(cfg, saturable_log())
    assert sol.converged
    return cfg, sol


def test_rhs_zero_state():
    state = EvolutionState(0.0, np.zeros(6, dtype=complex), Cell.periodic(ON, 6))
    assert np.all(rhs(state.amplitudes, True, quartic(), 1.0) == 0.0)


def test_rhs_standing_wave_rotates(small_wave):
    cfg, sol = small_wave
    state = EvolutionState.from_profile(sol.profile)
    dot = rhs(state.amplitudes, True, saturable_log(), cfg.alpha)
    expect = 1j * sol.sigma * sol.profile.values
    assert np.max(np.abs(dot - expect)) <= 10 * cfg.tol_residual


def test_integrate_zero_state_stays_zero():
    state = EvolutionState(0.0, np.zeros(5, dtype=complex), Cell.periodic(ON, 5))
    out, diag = integrate(state, quartic(), 1.0, t_end=1.0, dt=0.01)
    assert np.all(out.amplitudes == 0.0)
    assert diag["power_drift"] == 0.0
    assert diag["hamiltonian_drift"] == 0.0


def test_integrate_validates_arguments(small_wave):
    _, sol = small_wave
    state = EvolutionState.from_profile(sol.profile)
    with pytest.raises(ValueError):
        integrate(state, saturable_log(), 0.8, t_end=1.0, dt=0.0)
    with pytest.raises(ValueError):
        integrate(state, saturable_log(), 0.8, t_end=-1.0, dt=0.1)


def test_conservation_short_run(small_wave):
    cfg, sol = small_wave
    state = EvolutionState.from_profile(sol.profile)
    _, diag = integrate(state, saturable_log(), cfg.alpha, t_end=2.0, dt=1e-3)
    assert diag["power_drift_rel"] <= 1e-10
    assert diag["hamiltonian_drift_rel"] <= 1e-9


def test_relative_equilibrium_small_wave(small_wave):
    cfg, sol = small_wave
    rep = relative_equilibrium_check(sol, saturable_log(), cfg.alpha,
                                     t_end=2.0, dt=1e-3)
    assert rep.modulus_drift <= 1e-7
    assert rep.sigma_mismatch <= 1e-5
    assert rep.power_drift_rel <= 1e-10


def test_fourth_order_convergence(small_wave):
    cfg, sol = small_wave
    r1 = relative_equilibrium_check(sol, saturable_log(), cfg.alpha, 1.0, 0.02)
    r2 = relative_equilibrium_check(sol, saturable_log(), cfg.alpha, 1.0, 0.01)
    ratio = r1.modulus_drift / r2.modulus_drift
    assert 8.0 <= ratio <= 32.0


def test_perturbed_profile_detected(small_wave):
    cfg, sol = small_wave
    noisy = sol.profile.values.copy()
    noisy += 1e-2 * np.cos(np.arange(noisy.size))
    fake = type(sol)(profile=sol.profile.with_values(noisy), sigma=sol.sigma,
                     energies=sol.energies, residual=sol.residual,
                     iterations=sol.iterations, converged=True,
                     in_cone=sol.in_cone, near_constant=False, decay=None,
                     diagnostics=sol.diagnostics)
    rep = relative_equilibrium_check(fake, saturable_log(), cfg.alpha,
                                     t_end=2.0, dt=1e-3)
    assert rep.modulus_drift > 1e-4


def test_staggered_wave_under_flipped_coupling():
    # even-N wave: alternating signs map a focusing wave onto a defocusing one
    cfg = SolverConfig(alpha=0.8, rho=3.0, scheme=INTER, n=12)
    sol = solve(cfg, saturable_log())
    assert sol.converged
    plain = EvolutionState.from_profile(sol.profile)
    flipped = EvolutionState.from_profile(stagger(sol.profile))
    out1, d1 = integrate(plain, saturable_log(), cfg.alpha, 1.0, 1e-3)
    out2, d2 = integrate(flipped, saturable_log(), -cfg.alpha, 1.0, 1e-3)
    assert d1["power_drift"] == pytest.approx(d2["power_drift"], abs=1e-14)
    assert np.max(np.abs(np.abs(out2.amplitudes) - np.abs(out1.amplitudes))) <= 1e-13


def test_blow_up_guard():
    state = EvolutionState(0.0, np.full(4, 2e6, dtype=complex), Cell.periodic(ON, 4))
    with pytest.raises(BlowUpError):
        integrate(state, quartic(), 1.0, t_end=0.1, dt=0.01)


def test_truncated_cell_boundary():
    cell = Cell.truncated(ON, 4.0)
    j = cell.indices()
    vals = np.exp(-np.abs(j)).astype(complex)
    state = EvolutionState(0.0, vals, cell)
    dot = rhs(state.amplitudes, False, quartic(), 1.0)
    # outermost site couples only inward
    expect_edge = 1j * (1.0 * vals[1] + float(quartic().dpsi(np.abs(vals[0]) ** 2)) * vals[0])
    assert dot[0] == pytest.approx(expect_edge, rel=1e-14)


def test_power_and_hamiltonian_helpers(small_wave):
    cfg, sol = small_wave
    a = sol.profile.values.astype(complex)
    assert power_of(a) == pytest.approx(cfg.rho, rel=1e-12)
    h = hamiltonian_of(a, True, saturable_log(), cfg.alpha)
    assert h == pytest.approx(sol.energies.hamiltonian, rel=1e-12)


def test_relative_equilibrium_check_forwards_the_trajectory(small_wave):
    cfg, sol = small_wave
    direct, forwarded = [], []
    integrate(EvolutionState.from_profile(sol.profile), saturable_log(), cfg.alpha,
              t_end=0.05, dt=0.01, callback=lambda k, t, a: direct.append((k, t, a.copy())))
    report = relative_equilibrium_check(
        sol, saturable_log(), cfg.alpha, t_end=0.05, dt=0.01,
        callback=lambda k, t, a: forwarded.append((k, t, a.copy())))
    assert [(k, t) for k, t, _ in forwarded] == [(k, t) for k, t, _ in direct]
    assert len(direct) == 6
    assert all(np.array_equal(a, b) for (_, _, a), (_, _, b) in zip(forwarded, direct))
    assert report == relative_equilibrium_check(sol, saturable_log(), cfg.alpha,
                                                t_end=0.05, dt=0.01)


def test_callback_sampling(small_wave):
    cfg, sol = small_wave
    seen = []
    state = EvolutionState.from_profile(sol.profile)
    integrate(state, saturable_log(), cfg.alpha, t_end=0.05, dt=0.01,
              callback=lambda k, t, a: seen.append((k, t)))
    assert [k for k, _ in seen] == [0, 1, 2, 3, 4, 5]
    assert seen[-1][1] == pytest.approx(0.05, abs=1e-12)
