import math
import warnings
from itertools import combinations
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

import dnls.evolution
from dnls.evolution import (_BLOCK, _CHECK, BlowUpError, EquilibriumReport, EvolutionState,
                            _check_equilibrium_times, _invariants, integrate,
                            relative_equilibrium_check)
from dnls.functionals import field_values
from dnls.lattice import Cell, IndexScheme, Profile
from dnls.potentials import (CATALOG, Potential, quartic, saturable_arctan,
                             saturable_log)
from dnls.solver import SolverConfig, solve

from conftest import stagger
from test_kernels import reference_neighbor_sum

ON, INTER = IndexScheme.ON_SITE, IndexScheme.INTER_SITE


@pytest.fixture(scope="module")
def small_wave():
    cfg = SolverConfig(alpha=0.8, rho=3.0, scheme=ON, n=13)
    sol = solve(cfg, saturable_log())
    assert sol.converged
    return cfg, sol


def field_rhs(a, periodic, p, alpha):
    """dA/dt = i F(A): the RK4 right-hand side from the shipped field kernel."""
    return 1j * field_values(a, a.real**2 + a.imag**2, periodic, p, alpha)


def block_rows(log):
    """A block callback that logs each handed-out state as (step, time, state bytes)."""
    def callback(steps, times, states):
        assert len(steps) == len(times) == len(states)
        log.extend(zip(steps.tolist(), times.tolist(), (a.tobytes() for a in states)))
    return callback


def test_rhs_zero_state():
    state = EvolutionState(0.0, np.zeros(6, dtype=complex), Cell.periodic(ON, 6))
    assert np.all(field_rhs(state.amplitudes, True, quartic(), 1.0) == 0.0)


def test_rhs_standing_wave_rotates(small_wave):
    cfg, sol = small_wave
    state = EvolutionState.from_profile(sol.profile)
    dot = field_rhs(state.amplitudes, True, saturable_log(), cfg.alpha)
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
    for t_end, dt, name in ((math.inf, 0.1, "t_end"), (math.nan, 0.1, "t_end"),
                            (1.0, math.nan, "dt"), (1.0, math.inf, "dt")):
        with pytest.raises(ValueError, match=f"^{name} must be .* and finite"):
            integrate(state, saturable_log(), 0.8, t_end=t_end, dt=dt)
    # zero steps leave one sample, which measures no phase rotation
    assert integrate(state, saturable_log(), 0.8, t_end=0.0, dt=0.1)[1]["steps"] == 0
    with pytest.raises(ValueError, match="t_end must be positive to measure a phase rotation"):
        relative_equilibrium_check(sol, t_end=0.0, dt=0.1)


def test_a_step_count_that_is_not_finite_is_refused_before_any_step(small_wave):
    # t_end / dt overflows to inf: a clean refusal, not an OverflowError from round()
    state = EvolutionState(0.0, np.ones(3, complex), Cell.periodic(ON, 3))
    message = r"^t_end / dt must be a finite step count, not 10\.0 / 5e-324$"
    with mock.patch.object(dnls.evolution, "_rk4_blocks", side_effect=AssertionError):
        with pytest.raises(ValueError, match=message):
            integrate(state, quartic(), 1.0, t_end=10.0, dt=5e-324)
        with pytest.raises(ValueError, match=message):
            relative_equilibrium_check(small_wave[1], t_end=10.0, dt=5e-324)


@pytest.mark.parametrize("amplitudes, message", [
    (np.ones(4, dtype=complex), "amplitudes must match the cell size"),
    (np.ones((1, 5), dtype=complex), "amplitudes must match the cell size"),
    (np.array([1, 1j, np.nan, 0, 0]), "amplitudes must be finite"),
    (np.array([1, complex(0, np.inf), 0, 0, 0]), "amplitudes must be finite"),
])
def test_evolution_state_refusals(amplitudes, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        EvolutionState(0.0, amplitudes, Cell.periodic(ON, 5))


def test_conservation_short_run(small_wave):
    cfg, sol = small_wave
    state = EvolutionState.from_profile(sol.profile)
    _, diag = integrate(state, saturable_log(), cfg.alpha, t_end=2.0, dt=1e-3)
    assert diag["power_drift_rel"] <= 1e-10
    assert diag["hamiltonian_drift_rel"] <= 1e-9


def test_relative_equilibrium_small_wave(small_wave):
    cfg, sol = small_wave
    rep = relative_equilibrium_check(sol, t_end=2.0, dt=1e-3)
    assert rep.modulus_drift <= 1e-7
    assert rep.sigma_mismatch <= 1e-5
    assert rep.power_drift_rel <= 1e-10


def test_fourth_order_convergence(small_wave):
    cfg, sol = small_wave
    r1 = relative_equilibrium_check(sol, 1.0, 0.02)
    r2 = relative_equilibrium_check(sol, 1.0, 0.01)
    ratio = r1.modulus_drift / r2.modulus_drift
    assert 8.0 <= ratio <= 32.0


def test_perturbed_profile_detected(small_wave):
    cfg, sol = small_wave
    noisy = sol.profile.values.copy()
    noisy += 1e-2 * np.cos(np.arange(noisy.size))
    fake = type(sol)(config=sol.config, potential=sol.potential,
                     profile=sol.profile.with_values(noisy),
                     sigma=sol.sigma, energies=sol.energies, residual=sol.residual,
                     iterations=sol.iterations, converged=True,
                     in_cone=sol.in_cone, near_constant=False, decay=None,
                     diagnostics=sol.diagnostics)
    rep = relative_equilibrium_check(fake, t_end=2.0, dt=1e-3)
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
    dot = field_rhs(state.amplitudes, False, quartic(), 1.0)
    # outermost site couples only inward
    expect_edge = 1j * (1.0 * vals[1] + float(quartic().dpsi(np.abs(vals[0]) ** 2)) * vals[0])
    assert dot[0] == pytest.approx(expect_edge, rel=1e-14)


def test_power_and_hamiltonian_helpers(small_wave):
    cfg, sol = small_wave
    a = sol.profile.values.astype(complex)
    power, h = _invariants(a, a.real**2 + a.imag**2, True, saturable_log(), cfg.alpha)
    assert power == pytest.approx(cfg.rho, rel=1e-12)
    assert h == pytest.approx(sol.energies.hamiltonian, rel=1e-12)


def test_relative_equilibrium_check_forwards_the_trajectory(small_wave):
    # a full block and a part block, handed on as integrate handed them out
    cfg, sol = small_wave
    t_end = 0.01 * (_BLOCK + 5)
    direct, forwarded = [], []
    integrate(EvolutionState.from_profile(sol.profile), saturable_log(), cfg.alpha,
              t_end=t_end, dt=0.01, callback=lambda k, t, a: direct.append((k, t, a)))
    report = relative_equilibrium_check(
        sol, t_end=t_end, dt=0.01,
        callback=lambda k, t, a: forwarded.append((k, t, a)))
    assert [len(a) for _, _, a in direct] == [_BLOCK, 6]
    assert len(forwarded) == len(direct)
    for got, want in zip(forwarded, direct):
        assert all(x.tobytes() == y.tobytes() for x, y in zip(got, want))
    assert report == relative_equilibrium_check(sol, t_end=t_end, dt=0.01)


def test_callback_sampling(small_wave):
    cfg, sol = small_wave
    seen = []
    state = EvolutionState.from_profile(sol.profile)
    integrate(state, saturable_log(), cfg.alpha, t_end=0.05, dt=0.01,
              callback=lambda k, t, a: seen.append((k, t, a.shape)))
    assert len(seen) == 1
    steps, times, shape = seen[0]
    assert steps.tolist() == [0, 1, 2, 3, 4, 5]
    assert shape == (6, sol.profile.cell.size)
    assert times[0] == 0.0
    assert times[-1] == pytest.approx(0.05, abs=1e-12)


def reference_rhs(a, periodic, p, alpha):
    """i F(A) from the np.roll / Dirichlet neighbour sums, not the shipped kernel."""
    mod2 = a.real**2 + a.imag**2
    return 1j * (alpha * reference_neighbor_sum(a, periodic) + p.dpsi(mod2) * a)


def reference_invariants(a, periodic, p, alpha):
    power = float(np.sum(a.real**2 + a.imag**2))
    if periodic:
        coupling = 2.0 * float(np.real(np.conj(a) @ np.roll(a, -1)))
    else:
        coupling = 2.0 * float(np.real(np.conj(a[:-1]) @ a[1:]))
    ptot = alpha * coupling + float(np.sum(p.psi(a.real**2 + a.imag**2)))
    return power, 2.0 * alpha * power - ptot


def reference_integrate(state, p, alpha, t_end, dt, callback=None):
    """Reference: the plain RK4 loop, each stage and invariant formed from scratch.

    Each state is handed to ``callback(steps, times, states)`` as a one-row block.
    """
    periodic = state.cell.is_finite
    a = state.amplitudes.astype(complex).copy()
    n_steps = max(int(round(t_end / dt)), 1) if t_end > 0 else 0
    h = t_end / n_steps if n_steps else 0.0
    p0, h0 = reference_invariants(a, periodic, p, alpha)
    max_dp = 0.0
    max_dh = 0.0
    if callback is not None:
        callback(np.array([0]), np.array([state.time]), a[np.newaxis])
    for k in range(n_steps):
        if np.max(np.abs(a)) > 1e6:
            raise BlowUpError("amplitude exceeded 1e6")
        k1 = reference_rhs(a, periodic, p, alpha)
        k2 = reference_rhs(a + 0.5 * h * k1, periodic, p, alpha)
        k3 = reference_rhs(a + 0.5 * h * k2, periodic, p, alpha)
        k4 = reference_rhs(a + h * k3, periodic, p, alpha)
        a = a + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        power, ham = reference_invariants(a, periodic, p, alpha)
        max_dp = max(max_dp, abs(power - p0))
        max_dh = max(max_dh, abs(ham - h0))
        if callback is not None:
            callback(np.array([k + 1]), np.array([state.time + (k + 1) * h]), a[np.newaxis])
    final = EvolutionState(time=state.time + t_end, amplitudes=a, cell=state.cell)
    return final, {
        "steps": n_steps,
        "dt": h,
        "power_drift": max_dp,
        "power_drift_rel": max_dp / p0 if p0 > 0 else 0.0,
        "hamiltonian_drift": max_dh,
        "hamiltonian_drift_rel": max_dh / abs(h0) if h0 != 0 else max_dh,
    }


def reference_relative_equilibrium_check(sol, t_end, dt, callback=None):
    """Reference: the modulus drift and the central amplitude read state by state.

    The integrator is looked up in ``dnls.evolution`` at call time, so patching
    it there replaces it here too; each block it hands out is read one state at
    a time and then passed on to ``callback`` as it came.
    """
    _check_equilibrium_times(t_end, dt)
    if not sol.converged:
        raise ValueError("relative-equilibrium check requires a converged solution")
    u = sol.profile.values
    state = EvolutionState.from_profile(sol.profile)
    center = int(np.argmin(np.abs(sol.profile.cell.doubled_indices())))

    drift = 0.0
    times, phases = [], []

    def watch(steps, ts, states):
        nonlocal drift
        for t, a in zip(ts, states):
            drift = max(drift, float(np.max(np.abs(np.abs(a) - u))))
            times.append(t)
            phases.append(complex(a[center]))
        if callback is not None:
            callback(steps, ts, states)

    _, diag = dnls.evolution.integrate(state, sol.potential, sol.config.alpha, t_end, dt,
                                       callback=watch)
    theta = np.unwrap(np.angle(np.asarray(phases)))
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


def random_cell(periodic, inter, n):
    if periodic:
        return Cell.periodic(INTER if inter else ON, n)
    # a truncated lattice of n sites: on-site for odd n, inter-site for even
    return Cell.truncated(ON if n % 2 else INTER, n / 2.0)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(name=st.sampled_from(sorted(CATALOG)), periodic=st.booleans(),
       inter=st.booleans(), n=st.integers(1, 32), seed=st.integers(0, 2**32 - 1),
       scale=st.floats(0.05, 2.0), data=st.sampled_from(["complex", "real", "zero"]),
       alpha=st.floats(-2.0, 2.0), steps=st.integers(1, 2 * _BLOCK + 64))
def test_integrate_matches_the_plain_rk4_loop(name, periodic, inter, n, seed, scale, data,
                                              alpha, steps):
    p = CATALOG[name]()
    cell = random_cell(periodic, inter, n)
    assert cell.size == n
    rng = np.random.default_rng(seed)
    # real and zero data hold exact zeros, where a reordered product could flip their sign
    a0 = scale * (rng.normal(size=n) + 1j * rng.normal(size=n) * (data == "complex"))
    a0 = a0 * (data != "zero")
    # a step well inside the stability bound 0.1/(1 + 2|alpha| + dpsi(max|A|^2))
    dt = 0.05 / (1.0 + 2.0 * abs(alpha) + float(p.dpsi(np.max(np.abs(a0)) ** 2)))
    state = EvolutionState(0.25, a0, cell)
    got, want = [], []
    out, diag = integrate(state, p, alpha, steps * dt, dt, callback=block_rows(got))
    ref, ref_diag = reference_integrate(state, p, alpha, steps * dt, dt,
                                        callback=block_rows(want))
    assert out.amplitudes.tobytes() == ref.amplitudes.tobytes()
    assert diag == ref_diag
    assert got == want
    assert [k for k, _, _ in got] == list(range(steps + 1))
    assert out.time == ref.time
    assert (field_rhs(a0, periodic, p, alpha).tobytes()
            == reference_rhs(a0, periodic, p, alpha).tobytes())
    b = out.amplitudes
    assert (_invariants(b, b.real**2 + b.imag**2, periodic, p, alpha)
            == reference_invariants(b, periodic, p, alpha))


# one step, the steps on either side of a block's end, and a run into a third block
BLOCK_EDGES = [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(name=st.sampled_from(sorted(CATALOG)), periodic=st.booleans(),
       inter=st.booleans(), n=st.integers(1, 32), seed=st.integers(0, 2**32 - 1),
       scale=st.floats(0.05, 2.0), alpha=st.floats(-2.0, 2.0),
       steps=st.sampled_from(BLOCK_EDGES))
def test_relative_equilibrium_check_matches_the_per_step_watch(name, periodic, inter, n, seed,
                                                              scale, alpha, steps):
    p = CATALOG[name]()
    cell = random_cell(periodic, inter, n)
    rng = np.random.default_rng(seed)
    # any real profile will do: the check reads a trajectory, it does not need a wave
    u = scale * np.abs(rng.normal(size=n))
    sol = SimpleNamespace(config=SimpleNamespace(alpha=alpha), potential=p, converged=True,
                          profile=Profile(cell, u), sigma=float(rng.normal()))
    dt = 0.05 / (1.0 + 2.0 * abs(alpha) + float(p.dpsi(np.max(u) ** 2)))
    got, want = [], []
    report = relative_equilibrium_check(sol, steps * dt, dt, callback=block_rows(got))
    ref = reference_relative_equilibrium_check(sol, steps * dt, dt, callback=block_rows(want))
    assert report == ref
    assert got == want
    assert [k for k, _, _ in got] == list(range(steps + 1))


def test_callback_arrays_are_never_modified():
    # three blocks; the final state is a copy, so writing to it changes no block
    state = EvolutionState(0.0, np.exp(-np.abs(np.arange(-3, 4))).astype(complex),
                           Cell.periodic(ON, 7))
    seen = []
    out, _ = integrate(state, quartic(), 1.0, t_end=0.01 * (2 * _BLOCK + 3), dt=0.01,
                       callback=lambda k, t, a: seen.append([(x, x.copy()) for x in (k, t, a)]))
    assert [len(block[0][0]) for block in seen] == [_BLOCK, _BLOCK, 4]
    assert seen[-1][2][0][-1].tobytes() == out.amplitudes.tobytes()
    out.amplitudes[:] = 0.0
    assert all(np.array_equal(kept, copy) for block in seen for kept, copy in block)
    assert len({id(kept) for block in seen for kept, _ in block}) == 9


def test_rk4_step_kernel_budget():
    # four dpsi calls per step (one per stage) and one psi call per block of
    # states (the invariants of the start state and the states after each step)
    calls = {"psi": 0, "dpsi": 0}
    base = quartic()

    def counted(name, fn):
        def wrapper(x):
            calls[name] += 1
            return fn(x)
        return wrapper

    p = Potential("counted quartic", counted("psi", base.psi), counted("dpsi", base.dpsi))
    state = EvolutionState(0.0, np.full(5, 0.5, dtype=complex), Cell.periodic(ON, 5))
    for steps in (0, 1, 7, _BLOCK - 1, _BLOCK, _BLOCK + 1):
        calls.update(psi=0, dpsi=0)
        kept = []
        _, diag = integrate(state, p, 1.0, t_end=0.01 * steps, dt=0.01,
                            callback=lambda k, t, a: kept.append(a))
        assert diag["steps"] == steps
        assert calls == {"psi": math.ceil((steps + 1) / _BLOCK), "dpsi": 4 * steps}
        assert [len(a) for a in kept] == [_BLOCK] * ((steps + 1) // _BLOCK) + (
            [(steps + 1) % _BLOCK] if (steps + 1) % _BLOCK else [])
        # each block is an array of its own: no two share memory, and none is a
        # view (disjoint slices of one buffer share no memory, yet pin the buffer)
        assert not any(np.shares_memory(a, b) for a, b in combinations(kept, 2))
        assert all(a.base is None for a in kept)


def test_the_rk4_steps_take_their_field_from_the_one_kernel(monkeypatch):
    # every field of a step is a call of functionals.field_values, one per stage: a field
    # formed any other way would leave the dpsi calls at 4k and the kernel calls below it
    calls = {"field": 0, "dpsi": 0}
    base = saturable_arctan()

    def dpsi(x):
        calls["dpsi"] += 1
        return base.dpsi(x)

    def counted_field(*args):
        calls["field"] += 1
        return field_values(*args)

    monkeypatch.setattr(dnls.evolution, "field_values", counted_field)
    p = Potential("counted", base.psi, dpsi)
    for cell in (Cell.periodic(ON, 5), Cell.truncated(INTER, 3.0)):
        state = EvolutionState(0.0, np.linspace(0.2, 0.9, cell.size) * (1 - 0.5j), cell)
        for steps in (0, 1, 7, _BLOCK, _BLOCK + 1):
            calls.update(field=0, dpsi=0)
            out, _ = integrate(state, p, 1.0, t_end=0.01 * steps, dt=0.01)
            assert calls == {"field": 4 * steps, "dpsi": 4 * steps}
            ref, _ = reference_integrate(state, base, 1.0, t_end=0.01 * steps, dt=0.01)
            assert out.amplitudes.tobytes() == ref.amplitudes.tobytes()


def signed_zero_states(n):
    """States with -0.0 real or imaginary parts: zero states of three sign patterns, one
    with -0.0 real parts and non-zero imaginary parts, and one with -0.0 on every site's
    real or imaginary part and a non-zero other part."""
    k = np.arange(n)
    parts = [(np.full(n, -0.0), np.zeros(n)), (np.full(n, -0.0), np.full(n, -0.0)),
             (np.where(k % 2, 0.0, -0.0), np.where(k % 2, -0.0, 0.0)),
             (np.full(n, -0.0), np.full(n, 0.3)),
             (np.where(k % 2, 0.4 - 0.1 * k, -0.0), np.where(k % 2, -0.0, 0.7))]
    states = [np.empty(n, complex) for _ in parts]
    for a, (re, im) in zip(states, parts):
        a.real, a.imag = re, im
    return states


@pytest.mark.parametrize("name", ["quartic", "saturable-arctan"])
@pytest.mark.parametrize("periodic", [True, False])
@pytest.mark.parametrize("n", [1, 2, 5])
def test_signed_zeros_match_the_plain_rk4_loop(name, periodic, n):
    # x*x and re^2 + im^2 give +0.0 for either zero, and a start state or a stage must not
    # be copied by arithmetic (0 + -0.0 = +0.0): every sign bit follows the plain loop's
    p = CATALOG[name]()
    cell = random_cell(periodic, n % 2 == 0, n)
    carried = 0  # -0.0 parts of the reference's states after the start
    for a0 in signed_zero_states(n):
        for alpha in (1.0, -1.0):
            state = EvolutionState(0.0, a0, cell)
            got, want = [], []
            out, diag = integrate(state, p, alpha, 0.02 * (_CHECK + 3), 0.02,
                                  callback=block_rows(got))
            ref, ref_diag = reference_integrate(state, p, alpha, 0.02 * (_CHECK + 3), 0.02,
                                                callback=block_rows(want))
            assert got == want
            assert got[0][2] == a0.tobytes()
            assert out.amplitudes.tobytes() == ref.amplitudes.tobytes()
            assert diag == ref_diag
            later = np.frombuffer(b"".join(a for _, _, a in want[1:]))
            carried += int(np.sum((later == 0) & np.signbit(later)))
    assert carried > 0


def test_reused_buffers_never_reach_a_caller(monkeypatch):
    # the stage state b and its |b|^2 reach field_values on stages 2-4 of each step, and
    # the squares go into np.square's output: each is one buffer for the whole run, and
    # no handed-out block, nor the final state, shares memory with them or a later block
    stage_args, square_outs = [], []
    square = np.square

    def spy_field(a, mod2, *rest):
        stage_args.append((a, mod2))
        return field_values(a, mod2, *rest)

    def spy_square(x, out=None, **kwargs):
        square_outs.append(out)
        return square(x, out, **kwargs)

    monkeypatch.setattr(dnls.evolution, "field_values", spy_field)
    monkeypatch.setattr(np, "square", spy_square)
    state = EvolutionState(0.0, np.exp(-np.abs(np.arange(-3, 4))) * (1 + 0.5j),
                           Cell.periodic(ON, 7))
    kept = []

    def keep(steps, times, states):
        # the blocks kept so far are as they were handed out
        assert all(a.tobytes() == copy for a, copy in kept)
        kept.append((states, states.tobytes()))

    out, _ = integrate(state, quartic(), 1.0, t_end=0.01 * (2 * _BLOCK + 3), dt=0.01,
                       callback=keep)
    monkeypatch.undo()
    assert [len(a) for a, _ in kept] == [_BLOCK, _BLOCK, 4]
    assert len(stage_args) == 4 * (2 * _BLOCK + 3)
    stages = [args for k, args in enumerate(stage_args) if k % 4]
    b, m = stages[0]
    assert all(x is b and y is m for x, y in stages)
    assert len({id(x) for x in square_outs}) == 1 and square_outs[0] is not None
    buffers = [b, m, square_outs[0]]
    handed = [a for a, _ in kept] + [out.amplitudes]
    assert not any(np.shares_memory(a, buf) for a in handed for buf in buffers)
    assert not any(np.shares_memory(a, c) for a, c in combinations(handed, 2))
    assert all(a.tobytes() == copy for a, copy in kept)
    assert out.amplitudes.tobytes() == kept[-1][0][-1].tobytes()


def test_a_step_that_overflows_is_a_blow_up():
    # one RK4 step of h = 1e3 overflows to nan; the guard catches it in the last state
    state = EvolutionState(0.0, np.full(5, math.sqrt(0.4), dtype=complex), Cell.periodic(ON, 5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BlowUpError, match=r"^amplitude exceeded 1e\+06 at t=1000$"):
            integrate(state, quartic(), 1.0, t_end=1e3, dt=1e3)


def quartic_wave_start():
    sol = solve(SolverConfig(alpha=1.0, rho=2.0, scheme=ON, n=5), quartic())
    assert sol.converged
    return EvolutionState.from_profile(sol.profile), quartic(), 1.0


def linear_rotation_start():
    # psi = 0 and A = (1, -1, 1, -1): dA/dt = -2i A, on which an RK4 step of
    # h = 1.425 (2h just above 2 sqrt 2) multiplies |A| by about 1.055
    state = EvolutionState(0.0, np.array([1.0, -1.0, 1.0, -1.0], dtype=complex),
                           Cell.periodic(ON, 4))
    return state, Potential("free", lambda x: 0.0 * x, lambda x: 0.0 * x), 1.0


@pytest.mark.parametrize("start, t_end, dt, first_bad", [
    (quartic_wave_start, 50.0, 0.03, 2),  # in the first block: nothing is handed out
    (linear_rotation_start, 400 * 1.425, 1.425, 257),  # in the third block
])
def test_a_blow_up_inside_a_run_names_its_first_state(start, t_end, dt, first_bad):
    state, p, alpha = start()
    # the per-step reference: the first state above the limit, or not finite
    rows = []
    with np.errstate(all="ignore"):
        try:
            reference_integrate(state, p, alpha, t_end, dt, callback=block_rows(rows))
        except BlowUpError:
            pass
    h = t_end / round(t_end / dt)
    mod2 = [np.abs(np.frombuffer(a, dtype=complex)) ** 2 for _, _, a in rows]
    assert [k for k, m in enumerate(mod2) if not np.max(m) <= 1e12][0] == first_bad
    handed = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BlowUpError) as err:
            integrate(state, p, alpha, t_end, dt, callback=block_rows(handed))
    assert str(err.value) == f"amplitude exceeded 1e+06 at t={state.time + first_bad * h:g}"
    # every block before the one that holds the bad state, and nothing else
    assert handed == rows[:first_bad // _BLOCK * _BLOCK]


@pytest.mark.parametrize("start, t_end, dt, first_bad", [
    (quartic_wave_start, 50.0, 0.03, 2),
    (linear_rotation_start, 400 * 1.425, 1.425, 257),
])
def test_a_blow_up_stops_the_steps_within_one_check(start, t_end, dt, first_bad):
    # the steps stop at the first check after the first bad state, not at its block's end
    state, base, alpha = start()
    calls = [0]

    def dpsi(x):
        calls[0] += 1
        return base.dpsi(x)

    with pytest.raises(BlowUpError):
        integrate(state, Potential("counted", base.psi, dpsi), alpha, t_end, dt)
    assert 4 * first_bad <= calls[0] <= 4 * (first_bad + _CHECK)
    assert _CHECK <= 16  # the block of 128 states ran up to 508 calls on the first start


def test_an_over_limit_start_state_is_a_blow_up_without_a_step():
    state = EvolutionState(0.0, np.full(4, 2e6, dtype=complex), Cell.periodic(ON, 4))
    seen = []
    with pytest.raises(BlowUpError, match=r"^amplitude exceeded 1e\+06 at t=0$"):
        integrate(state, quartic(), 1.0, t_end=0.0, dt=0.01, callback=seen.append)
    assert seen == []


def test_relative_equilibrium_check_refuses_an_unconverged_wave():
    sol = solve(SolverConfig(alpha=0.8, rho=3.0, scheme=ON, n=9, max_iters=2), saturable_log())
    assert not sol.converged
    with pytest.raises(ValueError, match="requires a converged solution"):
        relative_equilibrium_check(sol, t_end=0.1, dt=0.01)
