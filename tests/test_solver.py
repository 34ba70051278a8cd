import inspect
import itertools
import json
import math
import tracemalloc
from dataclasses import fields, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import dnls.lattice
import dnls.oracle
import dnls.potentials
import dnls.solver
from dnls.evolution import EquilibriumReport, relative_equilibrium_check
from dnls.functionals import (DegenerateProfileError, EnergyBreakdown, energy, flow,
                              level_energies, p_value, power, residual)
from dnls.lattice import (_CELL_CACHE, Cell, IndexScheme, Profile, _periodic_cell, cone_slack,
                          cone_slack_values, in_cone, project_cone)
from dnls.oracle import _ORACLE_LEAF, _ORACLE_TILE, _ORACLE_ZOOM
from dnls.potentials import (CATALOG, AssumptionReport, Potential, Violation,
                             check_assumptions, exp_quadratic, nonconvex_rational, power_law,
                             quartic, saturable_arctan, saturable_log)
from dnls.solver import (_CONE_MONITOR_TOL, _MAX_HALVINGS, _NEAR_CONSTANT_TOL, _TOL_STEP,
                         DecayFit, HomoclinicResult, HomoclinicVerdict, RunDiagnostics,
                         SolverConfig, WaveSolution, _ansatz_basis, _energy_slack,
                         _flat_lambda1, _is_near_constant, _run, _step, decay_fit,
                         homoclinic, initial_ansatz, oracle_maximize, solve)

ON, INTER = IndexScheme.ON_SITE, IndexScheme.INTER_SITE


def small_cfg(**kw):
    base = dict(alpha=0.5, rho=2.0, scheme=ON, n=9)
    base.update(kw)
    return SolverConfig(**base)


def test_config_validation_messages():
    with pytest.raises(ValueError, match="N must be >= 2"):
        SolverConfig(alpha=1.0, rho=1.0, n=0).validate()
    with pytest.raises(ValueError):
        SolverConfig(alpha=0.0, rho=1.0).validate()
    with pytest.raises(ValueError):
        SolverConfig(alpha=1.0, rho=-1.0).validate()
    with pytest.raises(ValueError):
        SolverConfig(alpha=1.0, rho=1.0, tau=0.0).validate()
    with pytest.raises(ValueError):
        SolverConfig(alpha=1.0, rho=1.0, tau=2e3).validate()
    with pytest.raises(ValueError, match="alpha must be finite, not inf"):
        SolverConfig(alpha=math.inf, rho=1.0).validate()


@pytest.mark.parametrize("rho, n", [(1e-320, 5), (5e-324, 2), (1e-306, 1000)])
def test_config_refuses_a_subnormal_power_per_site(rho, n):
    # subnormal site values would round the ansatz and the multiplier at their coarse ulp
    with pytest.raises(ValueError, match=rf"^rho/N must be at least the smallest normal "
                                         rf"float .*, not rho/N = {rho!r}/{n}$"):
        SolverConfig(alpha=1.0, rho=rho, n=n).validate()
    SolverConfig(alpha=1.0, rho=np.finfo(float).tiny * n, n=n).validate()


@pytest.mark.parametrize("name", sorted(CATALOG))
@pytest.mark.parametrize("scheme", [ON, INTER])
@pytest.mark.parametrize("n", [2, 3, 5, 25])
def test_solve_at_the_least_power_per_site(name, scheme, n):
    # rho/N is the smallest normal float, the least that validate takes: the step
    # 1e-5 * rho/N of psi'' is still positive, so flat_lambda1 is a central difference
    sol = solve(SolverConfig(alpha=1.0, rho=np.finfo(float).tiny * n, scheme=scheme, n=n),
                CATALOG[name]())
    assert sol.converged and sol.near_constant
    if scheme is INTER and n == 2:  # the fold has one level: no k=1 mode to test
        assert sol.diagnostics.flat_lambda1 is None
    else:  # c^2 psi''(c^2) is negligible beside the coupling term
        assert sol.diagnostics.flat_lambda1 == pytest.approx(
            -4.0 * (1.0 - math.cos(2.0 * math.pi / n)), rel=1e-12)


def test_solve_refuses_a_scheme_given_as_text():
    # "onsite" is not IndexScheme.ON_SITE: it once solved the inter-site wave
    cfg = SolverConfig(alpha=1.0, rho=10.0, scheme="onsite", n=25)
    with pytest.raises(ValueError, match="scheme"):
        solve(cfg, saturable_arctan())
    with pytest.raises(ValueError, match="scheme"):
        initial_ansatz(cfg, saturable_arctan())


def test_config_round_trip():
    cfg = small_cfg(scheme=INTER, tau=0.5)
    assert SolverConfig.from_dict(cfg.to_dict()) == cfg


def test_config_from_dict_names_unknown_keys():
    data = {**small_cfg().to_dict(), "seed": 0, "bogus": 3}
    with pytest.raises(ValueError, match="unknown solver config keys: bogus, seed"):
        SolverConfig.from_dict(data)


def test_ansatz_power_and_cone():
    for scheme, n in [(ON, 25), (ON, 8), (INTER, 24), (INTER, 5)]:
        cfg = SolverConfig(alpha=1.0, rho=10.0, scheme=scheme, n=n)
        u = initial_ansatz(cfg, saturable_arctan())
        assert power(u) == pytest.approx(10.0, rel=1e-12)
        assert in_cone(u)


def test_ansatz_recovers_constant_when_coupling_dominates():
    # huge alpha rewards flat profiles; the flat candidate is in the grid
    cfg = SolverConfig(alpha=50.0, rho=1.0, n=9)
    u = initial_ansatz(cfg, quartic())
    expect = math.sqrt(cfg.rho / cfg.n)
    assert np.allclose(u.values, expect, rtol=1e-12)
    eb = energy(u, quartic(), cfg.alpha)
    const_p = 2 * cfg.alpha * cfg.rho + cfg.n * float(quartic().psi(np.float64(cfg.rho / cfg.n)))
    assert eb.p_total == pytest.approx(const_p, rel=1e-12)


def row_energies(rows, p, alpha):
    """Reference: P of every row of a (B, N) array of profiles on a periodic cell."""
    return (2.0 * alpha * np.einsum("ij,ij->i", rows, np.roll(rows, -1, axis=1))
            + np.sum(p.psi(rows * rows), axis=1))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(name=st.sampled_from(sorted(CATALOG)), scheme=st.sampled_from([ON, INTER]),
       n=st.integers(2, 64), alpha=st.floats(0.01, 10.0), data=st.data())
def test_level_energies_match_the_site_space_reference(name, scheme, n, alpha, data):
    cell = Cell.periodic(scheme, n)
    site_level, mult, _ = cell.fold
    seed = data.draw(st.integers(0, 2**32 - 1))
    scale = data.draw(st.sampled_from([1e-3, 1.0, 3.0]))
    levels = np.random.default_rng(seed).uniform(-scale, scale, size=(mult.size, 7))
    rows = levels[site_level].T
    p = CATALOG[name]()
    got = level_energies(levels, cell, p, alpha)
    assert got.shape == (7,)
    # a plain sum of 2n non-negative or mixed-sign terms: bounded by the absolute sum
    bound = 4 * n * np.finfo(float).eps * row_energies(np.abs(rows), p, alpha)
    assert np.all(np.abs(got - row_energies(rows, p, alpha)) <= bound)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(name=st.sampled_from(sorted(CATALOG)), scheme=st.sampled_from([ON, INTER]),
       n=st.one_of(st.integers(2, 64), st.sampled_from([101, 401, 1001])),
       alpha=st.floats(0.05, 5.0), rho=st.floats(0.1, 20.0))
def test_ansatz_picks_the_site_space_maximizer(name, scheme, n, alpha, rho):
    # the candidates are even, so the scored levels expand to them exactly
    cfg = SolverConfig(alpha=alpha, rho=rho, scheme=scheme, n=n)
    p = CATALOG[name]()
    with mock.patch.object(dnls.solver, "level_energies", wraps=level_energies) as scorer:
        u = initial_ansatz(cfg, p)
    rows = scorer.call_args.args[0][cfg.cell().fold[0]].T
    assert rows.shape == (120, n)
    assert u.values.tobytes() == rows[int(np.argmax(row_energies(rows, p, alpha)))].tobytes()


def test_the_ansatz_basis_is_kept_per_cell_read_only_and_bounded():
    _ansatz_basis.cache_clear()
    cfg = small_cfg()
    first = initial_ansatz(cfg, quartic())
    assert initial_ansatz(replace(cfg, rho=3.0), quartic()).cell is first.cell
    info = _ansatz_basis.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    terms, norms = _ansatz_basis(cfg.cell())
    assert terms.shape == (4, cfg.n) and norms.shape == (120,)
    for a in (terms, norms):
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0
    for n in range(2, 2 + 2 * _CELL_CACHE):
        initial_ansatz(replace(cfg, n=n), quartic())
    info = _ansatz_basis.cache_info()
    assert info.maxsize == _CELL_CACHE and info.currsize == _CELL_CACHE


def answers(cfg, p):
    """The bytes of a solve's JSON dict and profile, and of the oracle's answer on N <= 4."""
    sol = solve(cfg, p)
    out = [json.dumps(sol.to_dict()).encode(), sol.profile.values.tobytes()]
    if cfg.n <= 4:
        best, p_best = oracle_maximize(cfg, p, grid_points=2001)
        out += [best.values.tobytes(), float(p_best).hex().encode()]
    return out


@settings(max_examples=60, deadline=None, derandomize=True)
@given(name=st.sampled_from(sorted(CATALOG)), scheme=st.sampled_from([ON, INTER]),
       n=st.integers(2, 40), alpha=st.floats(0.25, 4.0), rho=st.floats(0.5, 10.0))
@example(name="quartic", scheme=ON, n=4, alpha=0.5, rho=2.0)
@example(name="saturable-log", scheme=INTER, n=3, alpha=1.0, rho=1.0)
def test_cached_cells_give_the_answers_of_fresh_ones(name, scheme, n, alpha, rho):
    p = CATALOG[name]()
    cfg = SolverConfig(alpha=alpha, rho=rho, scheme=scheme, n=n, max_iters=20_000)
    _periodic_cell.cache_clear()
    _ansatz_basis.cache_clear()
    cold = answers(cfg, p)
    assert cfg.cell() is cfg.cell()
    hits = _ansatz_basis.cache_info().hits
    warm = answers(cfg, p)
    assert _ansatz_basis.cache_info().hits == hits + 1
    # no cache at all: a new cell, its geometry and its basis on every call
    with mock.patch.object(dnls.lattice, "_periodic_cell", _periodic_cell.__wrapped__), \
            mock.patch.object(dnls.solver, "_ansatz_basis", _ansatz_basis.__wrapped__):
        assert cfg.cell() is not cfg.cell()
        fresh = answers(cfg, p)
    assert cold == warm == fresh


def stepped(u, cfg, p):
    """One backtracked ascent step from u, taken whatever its residual."""
    v = u.values
    return _step(v, cfg, p, flow(v, True, p, cfg.alpha), None, u.cell, cfg.tau)[0]


def test_iterate_once_fixes_constant_profile():
    cfg = small_cfg(n=8)
    u = Profile(cfg.cell(), np.full(8, math.sqrt(cfg.rho / 8)))
    out = stepped(u, cfg, saturable_log())
    assert np.max(np.abs(out - u.values)) <= 1e-14


def test_iterate_once_fixes_converged_wave():
    cfg = small_cfg()
    sol = solve(cfg, quartic())
    out = stepped(sol.profile, cfg, quartic())
    assert np.max(np.abs(out - sol.profile.values)) <= 1e-9


def test_iterate_once_increases_energy_from_ansatz():
    cfg = SolverConfig(alpha=1.0, rho=10.0, n=25)
    pot = saturable_arctan()
    u = initial_ansatz(cfg, pot)
    before = energy(u, pot, cfg.alpha).p_total
    v, _, _, steps, _ = _run(u.values, cfg, pot, u.cell, RunDiagnostics(), 1)
    assert steps == 1
    after = energy(u.with_values(v), pot, cfg.alpha).p_total
    assert after >= before - 1e-14


def test_iterate_once_preserves_power():
    cfg = SolverConfig(alpha=1.0, rho=10.0, n=25)
    pot = saturable_arctan()
    u = initial_ansatz(cfg, pot)
    for _ in range(5):
        v, _, _, steps, _ = _run(u.values, cfg, pot, u.cell, RunDiagnostics(), 1)
        assert steps == 1
        u = u.with_values(v)
        assert abs(power(u) - cfg.rho) <= 1e-12 * cfg.rho


def test_solve_small_quartic_wave():
    cfg = small_cfg()
    sol = solve(cfg, quartic())
    assert sol.converged and sol.residual <= cfg.tol_residual
    assert abs(power(sol.profile) - cfg.rho) <= 1e-12 * cfg.rho
    assert sol.in_cone
    assert sol.sigma > 2 * cfg.alpha
    assert sol.sigma * cfg.rho >= sol.energies.p_total - 1e-10
    assert sol.energies.p_total > 2 * cfg.alpha * cfg.rho
    assert sol.diagnostics.cone_violations == 0
    assert sol.diagnostics.min_energy_increment >= -1e-14
    assert sol.diagnostics.max_power_drift <= 1e-12


def test_solve_reports_flow_multiplier_consistency():
    # reported frequency is half the Rayleigh multiplier of the gradient
    cfg = small_cfg()
    sol = solve(cfg, quartic())
    s_flow = flow(sol.profile.values, sol.profile.periodic, quartic(), cfg.alpha)[0]
    assert sol.sigma == 0.5 * s_flow
    assert residual(sol.profile, sol.sigma, quartic(), cfg.alpha) == sol.residual
    assert sol.residual <= cfg.tol_residual


def test_fixed_point_characterization():
    cfg = small_cfg()
    sol = solve(cfg, quartic())
    moved = float(np.max(np.abs(stepped(sol.profile, cfg, quartic()) - sol.profile.values)))
    res = residual(sol.profile, sol.sigma, quartic(), cfg.alpha)
    assert (res <= 1e-10) == (moved <= 1e-9)


def test_solve_rejects_bad_potential():
    bad = Potential("custom", lambda x: np.sqrt(x),
                    lambda x: np.where(x > 0, 0.5 / np.sqrt(np.maximum(x, 1e-300)), np.inf))
    with pytest.raises(ValueError, match="growth assumptions"):
        solve(small_cfg(), bad)


def test_solve_and_oracle_refuse_a_failing_potential_alike():
    # psi decreases past x = 1, where the oracle's box bound would be wrong
    bad = Potential("hump", lambda x: x * x * np.exp(-x), lambda x: (2.0 - x) * x * np.exp(-x))
    cfg = SolverConfig(alpha=1.0, rho=3.0, scheme=ON, n=4)
    messages = []
    for run in (solve, oracle_maximize):
        with pytest.raises(ValueError, match=r"^potential violates growth assumptions") as err:
            run(cfg, bad)
        messages.append(str(err.value))
    assert messages[0] == messages[1]


def test_a_refused_potential_is_refused_on_every_call():
    # the report is kept per (potential, range), and so is its verdict
    bad = Potential("hump", lambda x: x * x * np.exp(-x), lambda x: (2.0 - x) * x * np.exp(-x))
    cfg = SolverConfig(alpha=1.0, rho=3.0, scheme=ON, n=4)
    with mock.patch.object(dnls.potentials, "check_assumptions", wraps=check_assumptions) as checker:
        for run in (solve, oracle_maximize, solve):
            with pytest.raises(ValueError, match=r"^potential violates growth assumptions"):
                run(cfg, bad)
    assert checker.call_count == 1


def test_a_potential_is_checked_once_per_range():
    p = quartic()
    cfg = SolverConfig(alpha=1.0, rho=2.0, scheme=ON, n=3)
    dnls.potentials._KEPT.clear()  # earlier tests checked the catalog too
    with mock.patch.object(dnls.potentials, "check_assumptions", wraps=check_assumptions) as checker:
        solve(cfg, p)
        oracle_maximize(cfg, p, grid_points=11)
        solve(replace(cfg, rho=3.0), p)
        solve(cfg, quartic())  # a catalog entry is a value: every instance shares its check
        # a hand-built potential has new callbacks: checked anew
        solve(cfg, Potential("quartic", lambda x: x**4, lambda x: 4.0 * x**3))
    assert [c.kwargs["x_max"] for c in checker.call_args_list] == [2.0, 3.0, 2.0]
    assert quartic() == quartic() and hash(quartic()) == hash(quartic())


def test_a_potential_with_unhashable_callbacks_is_checked_each_time():
    class Psi:
        __hash__ = None

        def __call__(self, x):
            return x ** 4

    p = Potential("unhashable", Psi(), lambda x: 4.0 * x ** 3)
    cfg = SolverConfig(alpha=1.0, rho=2.0, scheme=ON, n=3)
    with mock.patch.object(dnls.potentials, "check_assumptions", wraps=check_assumptions) as checker:
        solve(cfg, p)
        solve(cfg, p)
    assert checker.call_count == 2


def test_solve_near_constant_flag():
    # enormous coupling: the flat profile is the maximizer
    cfg = small_cfg(alpha=50.0, rho=1.0)
    sol = solve(cfg, quartic())
    assert sol.converged
    assert sol.near_constant
    assert sol.diagnostics.restarted is False
    assert sol.diagnostics.flat_lambda1 < 0
    assert np.max(np.abs(sol.profile.values - math.sqrt(cfg.rho / cfg.n))) <= 1e-8
    assert np.ptp(sol.profile.values) == 0.0


def kick_restart_reference(cfg, p):
    """The centre-site kick-restart that the closed-form flat test replaced.

    Returns the kept profile and the stop reason of the last run.
    """
    cell, diag = cfg.cell(), RunDiagnostics()
    v, _, _, steps, stop = _run(initial_ansatz(cfg, p).values.copy(), cfg, p, cell, diag,
                                cfg.max_iters)
    if _is_near_constant(v, cfg) and steps < cfg.max_iters:
        d = np.abs(cell.doubled_indices())
        kicked = v.copy()
        kicked[d == d.min()] += 1e-3 * math.sqrt(cfg.rho)
        kicked *= math.sqrt(cfg.rho / float(kicked @ kicked))
        v2, _, _, _, stop = _run(kicked, cfg, p, cell, diag, cfg.max_iters - steps)
        if p_value(v2, True, p, cfg.alpha) >= p_value(v, True, p, cfg.alpha):
            v = v2
    return v, stop


@settings(max_examples=40, deadline=None, derandomize=True)
@given(name=st.sampled_from(sorted(CATALOG)), scheme=st.sampled_from([ON, INTER]),
       n=st.integers(2, 16), alpha=st.floats(0.25, 4.0), rho=st.floats(0.5, 10.0))
def test_flat_verdict_matches_kick_restart(name, scheme, n, alpha, rho):
    p = CATALOG[name]()
    cfg = SolverConfig(alpha=alpha, rho=rho, scheme=scheme, n=n, max_iters=5000)
    sol = solve(cfg, p)
    ref, ref_stop = kick_restart_reference(cfg, p)
    # a run cut by the iteration budget has no fixed point to compare
    assume("max_iters" not in (sol.diagnostics.stop_reason, ref_stop))
    p_ref = p_value(ref, True, p, alpha)
    assert abs(sol.energies.p_total - p_ref) <= 1e-10 * abs(p_ref)
    dist = float(np.max(np.abs(ref - math.sqrt(rho / n))))
    if _NEAR_CONSTANT_TOL < dist <= 1e-6:
        # the reference's crawl back to a stable flat profile stopped short
        # of the 1e-8 band: on its residual, about |lambda_1|/2 times the
        # distance, or once its energy gains drowned in roundoff
        assert sol.near_constant and sol.diagnostics.flat_lambda1 < 0
    else:
        assert sol.near_constant == (dist <= _NEAR_CONSTANT_TOL)


def test_flat_unstable_branch_matches_kick_restart():
    # the kicked run leaves an unstable flat profile for a localized wave
    cfg = SolverConfig(alpha=0.5, rho=2.0, scheme=INTER, n=3)
    sol = solve(cfg, nonconvex_rational())
    assert sol.diagnostics.flat_lambda1 > 0
    assert sol.diagnostics.restarted
    assert sol.converged and not sol.near_constant
    ref, _ = kick_restart_reference(cfg, nonconvex_rational())
    p_ref = p_value(ref, True, nonconvex_rational(), cfg.alpha)
    assert sol.energies.p_total == pytest.approx(p_ref, rel=1e-10)


def test_a_stagnated_run_says_so():
    # P is about 1.3e7: the residual's rounding floor, about eps*|mult|*max u,
    # lies above the tolerance, and every step that is left is below rounding
    sol = solve(SolverConfig(alpha=0.5, rho=60.0, n=9), quartic())
    assert sol.diagnostics.stop_reason == "stagnation"
    assert sol.iterations == 42 and not sol.converged and sol.residual > 1e-10


def test_losing_kicked_run_keeps_the_first_stop_reason():
    # the kicked run ends lower and unconverged; the kept run's verdict stands
    cfg = SolverConfig(alpha=0.5, rho=2.0, scheme=INTER, n=3)
    first_stops = []

    def run(v, cfg, p, cell, diag, budget):
        if not first_stops:
            out = _run(v, cfg, p, cell, diag, budget)
            first_stops.append(out[4])
            return out
        return 0.5 * v, 0.0, 1.0, 1, "max_iters"

    with mock.patch.object(dnls.solver, "_run", run):
        sol = solve(cfg, nonconvex_rational())
    assert sol.diagnostics.restarted and sol.near_constant
    assert sol.diagnostics.stop_reason == first_stops[0] == "residual"
    assert sol.converged == (sol.diagnostics.stop_reason == "residual")


def test_stable_flat_converges_where_the_crawl_stagnated():
    # the kick-restart's crawl back to this stable flat profile stagnated in
    # roundoff 2.4e-8 away and reported a non-converged, non-flat result
    cfg = SolverConfig(alpha=2.0, rho=8.455870847644103, scheme=INTER, n=12)
    sol = solve(cfg, saturable_log())
    assert sol.converged and sol.near_constant
    assert sol.diagnostics.flat_lambda1 < 0


def test_flat_kept_when_mode_vanishes():
    # N=2 inter-site: flat is the only even profile, whatever the sign of lambda_1
    cfg = SolverConfig(alpha=0.5, rho=1.0, scheme=INTER, n=2)
    assert _flat_lambda1(cfg, quartic()) == pytest.approx(2.0, rel=1e-7)
    sol = solve(cfg, quartic())
    assert sol.near_constant and sol.iterations == 0
    assert sol.diagnostics.restarted is False
    assert sol.diagnostics.flat_lambda1 is None
    assert np.ptp(sol.profile.values) == 0.0


def test_flat_stability_costs_no_iterations_on_large_cells():
    # a stable flat profile is confirmed in closed form, not by an O(N^2) crawl
    cfg = SolverConfig(alpha=2.0, rho=2.0, scheme=INTER, n=1000)
    sol = solve(cfg, quartic())
    assert sol.iterations == 0
    assert sol.near_constant


def eager_step(v, cfg, p, flow0, p_v, cell, tau):
    """Reference ascent step that evaluates the energy, the cone slack and
    the flow of every trial before deciding on it. It ignores the carried
    P(v) and computes the base energy afresh at every step. Base and trials
    share the base's normalization factor, except a trial whose own factor
    lies more than 4 ulps from it. A refused trial counts against the first
    test it fails: energy, cone."""
    sqrt_rho = math.sqrt(cfg.rho)
    s0 = sqrt_rho / float(np.sqrt(v @ v))
    base = v * s0
    p0 = p_value(base, True, p, cfg.alpha)
    rejected = [0, 0]
    f = flow0[1]
    for _ in range(_MAX_HALVINGS + 1):
        w = v + tau * f
        norm = float(np.sqrt(w @ w))
        if norm == 0.0:
            raise DegenerateProfileError("ascent step collapsed to the zero profile")
        own = sqrt_rho / norm
        w *= s0 if abs(own - s0) <= 4.0 * np.spacing(s0) else own
        p1 = p_value(w, True, p, cfg.alpha)
        slack = cone_slack(Profile(cell, w))
        flow_w = flow(w, True, p, cfg.alpha)
        energy_ok = p1 - p0 >= -_energy_slack(p0)
        cone_ok = slack <= _CONE_MONITOR_TOL
        if energy_ok and cone_ok:
            return w, flow_w, p0, p1, slack, tau, rejected
        rejected[0 if not energy_ok else 1] += 1
        tau *= 0.5
    return v, flow0, p0, p0, 0.0, tau, rejected


@settings(max_examples=40, deadline=None, derandomize=True)
@given(name=st.sampled_from(sorted(CATALOG)), scheme=st.sampled_from([ON, INTER]),
       n=st.integers(2, 16), alpha=st.floats(0.25, 4.0), rho=st.floats(0.5, 10.0))
def test_lazy_step_matches_eager_step(name, scheme, n, alpha, rho):
    # the step skips the cone test and the flow of trials that an earlier
    # test already rejected, and reuses the carried P(v) where its rescale
    # factor is exactly 1; the run must not change by a single bit
    p = CATALOG[name]()
    cfg = SolverConfig(alpha=alpha, rho=rho, scheme=scheme, n=n, max_iters=2000)
    v0 = initial_ansatz(cfg, p).values
    runs = []
    for step in (dnls.solver._step, eager_step):
        diag = RunDiagnostics()
        with mock.patch.object(dnls.solver, "_step", step):
            out = _run(v0.copy(), cfg, p, cfg.cell(), diag, cfg.max_iters)
        runs.append((out, diag))
    (v, sig, res, steps, stop), diag = runs[0]
    (v_ref, sig_ref, res_ref, steps_ref, stop_ref), diag_ref = runs[1]
    assert np.array_equal(v, v_ref)
    assert (sig, res, steps, stop) == (sig_ref, res_ref, steps_ref, stop_ref)
    assert diag == diag_ref


def carried_run(v, cfg, p, cell, diag, budget):
    """Reference run with the carried step rule that the spectral step replaced.

    Each trial is twice the last accepted size, but no less than a quarter of
    the last trial, capped at the configured tau; a tiny step taken at full
    size counts as stagnation. It takes the shipped steps and returns what
    ``_run`` returns, without filling ``diag``.
    """
    flow0 = flow(v, True, p, cfg.alpha)
    sig, _, res = flow0
    p_v, steps, tau, tiny, stop = None, 0, cfg.tau, 0, "max_iters"
    for _ in range(budget):
        if res <= cfg.tol_residual:
            break
        w, flow0, _, p_v, _, tau_used, _ = dnls.solver._step(v, cfg, p, flow0, p_v, cell, tau)
        steps += 1
        step_size = float(np.abs(w - v).max())
        v = w
        sig, _, res = flow0
        tau = min(cfg.tau, max(2.0 * tau_used, 0.25 * tau))
        tiny = tiny + 1 if step_size <= _TOL_STEP else 0
        if step_size == 0.0 or tiny >= 40 or (tiny and tau_used >= cfg.tau):
            stop = "stagnation"
            break
    return v, sig, res, steps, "residual" if res <= cfg.tol_residual else stop


@settings(max_examples=100, deadline=None, derandomize=True)
@given(name=st.sampled_from(sorted(CATALOG)), scheme=st.sampled_from([ON, INTER]),
       n=st.integers(2, 40), alpha=st.floats(0.25, 4.0), rho=st.floats(0.5, 10.0))
@example(name="quartic", scheme=ON, n=3, alpha=1.5243494544488896,
         rho=5.129545406097197)  # BB2 without one normalization factor stagnated here
@example(name="saturable-log", scheme=ON, n=9, alpha=0.8, rho=3.0)  # a gap of about 1e-3
def test_spectral_steps_reach_the_carried_rules_wave(name, scheme, n, alpha, rho):
    # two converged runs each lie within about residual/gap of the wave; the
    # profile bound allows gaps down to 2e-4 (the N=9 wave's runs differ by 1.5e-7)
    p = CATALOG[name]()
    cfg = SolverConfig(alpha=alpha, rho=rho, scheme=scheme, n=n, max_iters=20_000)
    sol = solve(cfg, p)
    with mock.patch.object(dnls.solver, "_run", carried_run):
        ref = solve(cfg, p)
    assert sol.near_constant == ref.near_constant
    if ref.converged:
        assert sol.converged
        assert abs(sol.energies.p_total - ref.energies.p_total) <= 1e-12 * abs(ref.energies.p_total)
        assert float(np.abs(sol.profile.values - ref.profile.values).max()) <= 1e-6


# the retired residual test of the ascent step: once a gain falls below this
# relative scale, the 2-norm of the field may grow by at most _RES_GROWTH
_GROWTH_EVIDENCE = 1e-12
_RES_GROWTH = 1e-2


def residual_checked_step(v, cfg, p, flow0, p_v, cell, tau):
    """Reference ascent step with the residual test that the spectral step made redundant.

    It is the shipped step plus a third test on a trial that passed the
    energy and cone tests: where its gain is too small to measure, the 2-norm
    of its field may exceed the base's by at most 1% plus renormalization
    jitter. Its refusals count as halvings of the step but under no reason
    that ``_run`` records.
    """
    sqrt_rho = math.sqrt(cfg.rho)
    scale = sqrt_rho / math.sqrt(v @ v)
    near = 4.0 * math.ulp(scale)
    p0 = p_v if scale == 1.0 and p_v is not None else p_value(v * scale, True, p, cfg.alpha)
    floor = -_energy_slack(p0)
    res_limit = math.sqrt(flow0[1] @ flow0[1]) * (1.0 + _RES_GROWTH) \
        + 8.0 * np.finfo(float).eps * abs(flow0[0]) * sqrt_rho
    rejected = [0, 0, 0]
    for _ in range(_MAX_HALVINGS + 1):
        w = v + tau * flow0[1]
        own = sqrt_rho / math.sqrt(w @ w)
        w *= scale if abs(own - scale) <= near else own
        p1 = p_value(w, True, p, cfg.alpha)
        gain = p1 - p0
        if not gain >= floor:
            rejected[0] += 1
        elif (slack := cone_slack_values(w, cell)) > _CONE_MONITOR_TOL:
            rejected[1] += 1
        else:
            flow_w = flow(w, True, p, cfg.alpha)
            if (gain > _GROWTH_EVIDENCE * max(1.0, abs(p1))
                    or math.sqrt(flow_w[1] @ flow_w[1]) <= res_limit):
                return w, flow_w, p0, p1, slack, tau, rejected
            rejected[2] += 1
        tau *= 0.5
    return v, flow0, p0, p0, 0.0, tau, rejected


# exp-quadratic on-site waves with P near 4e12 and 2e10: no gain is measurable
# at that scale, and every trial of the first step that passed the energy test
# failed the residual test, so the run stopped on stagnation
RESIDUAL_TEST_STALLS = [("exp-quadratic", ON, 3, 1.2, 29.0),
                        ("exp-quadratic", ON, 10, 2.45, 23.77)]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(name=st.sampled_from(sorted(CATALOG)), scheme=st.sampled_from([ON, INTER]),
       n=st.integers(2, 40), alpha=st.floats(0.25, 4.0), rho=st.floats(0.5, 10.0))
@example(*RESIDUAL_TEST_STALLS[0])
@example(*RESIDUAL_TEST_STALLS[1])
def test_energy_and_cone_tests_reach_the_residual_tested_wave(name, scheme, n, alpha, rho):
    p = CATALOG[name]()
    cfg = SolverConfig(alpha=alpha, rho=rho, scheme=scheme, n=n)
    sol = solve(cfg, p)
    with mock.patch.object(dnls.solver, "_step", residual_checked_step):
        ref = solve(cfg, p)
    assert sol.near_constant == ref.near_constant
    if (name, scheme, n, alpha, rho) in RESIDUAL_TEST_STALLS:
        assert sol.converged and not ref.converged
    elif ref.converged:
        assert sol.converged
        assert abs(sol.energies.p_total - ref.energies.p_total) <= 1e-12 * abs(ref.energies.p_total)
        assert float(np.abs(sol.profile.values - ref.profile.values).max()) <= 1e-6


# iterations of the carried step rule on the saturable-log alpha=1, rho=1, on-site ladder
CARRIED_LADDER_ITERATIONS = {25: 1344, 101: 752, 401: 960, 1001: 1420}


def test_no_ladder_rung_takes_more_iterations_than_the_carried_rule():
    cfg = SolverConfig(alpha=1.0, rho=1.0, scheme=ON, n=25)
    res = homoclinic(cfg, saturable_log(), list(CARRIED_LADDER_ITERATIONS))
    assert res.verdict is HomoclinicVerdict.LOCALIZED
    for sol, carried in zip(res.solutions, CARRIED_LADDER_ITERATIONS.values()):
        assert sol.converged and sol.iterations <= carried


@pytest.mark.parametrize("cfg, p", [
    # a sawtooth residual that never met the tolerance in 20,000 carried steps
    (SolverConfig(alpha=0.4957, rho=0.9825, scheme=ON, n=4), quartic()),
    # stopped on stagnation at residual 4.0e-9 after 59 carried steps
    (SolverConfig(alpha=0.28, rho=5.09, scheme=ON, n=20), quartic()),
    # the crawl near the exp-quadratic threshold: 279,920 carried steps
    (SolverConfig(alpha=0.698548079098632, rho=3.1006267701793924, scheme=INTER, n=25),
     exp_quadratic()),
])
def test_the_carried_rules_slow_cases_converge_in_few_steps(cfg, p):
    sol = solve(replace(cfg, max_iters=50), p)
    assert sol.converged and sol.diagnostics.stop_reason == "residual"


def test_run_diagnostics_count_trials_by_outcome():
    # each trial is accepted or refused by exactly one test
    for cfg, refused_by in [
            (SolverConfig(alpha=0.8, rho=3.0, scheme=ON, n=9), "energy"),  # the N=9 wave
            (SolverConfig(alpha=1.0, rho=1.0, scheme=ON, n=101), "cone")]:  # a ladder rung
        sol = solve(cfg, saturable_log())
        d = sol.diagnostics
        assert list(d.rejections) == ["energy", "cone"]
        assert d.trials == sol.iterations + sum(d.rejections.values())
        assert d.rejections[refused_by] > 0
        assert sol.to_dict()["diagnostics"]["rejections"] == d.rejections


@settings(max_examples=40, deadline=None, derandomize=True)
@given(name=st.sampled_from(sorted(CATALOG)), scheme=st.sampled_from([ON, INTER]),
       n=st.integers(2, 16), alpha=st.floats(0.25, 4.0), rho=st.floats(0.5, 10.0),
       tol=st.sampled_from([1e-10, 1e-14, 1e-15]), max_iters=st.sampled_from([50, 3000]))
# the stop rule met a 1e-15 tolerance at once, yet a second residual formula
# rounded above it and reported the wave as not converged
@example(name="nonconvex-rational", scheme=ON, n=9, alpha=3.0, rho=8.0, tol=1e-15,
         max_iters=1_000_000)
def test_converged_is_the_stop_rule_verdict(name, scheme, n, alpha, rho, tol, max_iters):
    p = CATALOG[name]()
    cfg = SolverConfig(alpha=alpha, rho=rho, scheme=scheme, n=n, tol_residual=tol,
                       max_iters=max_iters)
    sol = solve(cfg, p)
    assert sol.converged == (sol.diagnostics.stop_reason == "residual")
    assert residual(sol.profile, sol.sigma, p, alpha) == sol.residual
    assert sol.sigma == 0.5 * flow(sol.profile.values, sol.profile.periodic, p, alpha)[0]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(name=st.sampled_from(sorted(CATALOG)), scheme=st.sampled_from([ON, INTER]),
       n=st.integers(2, 16), alpha=st.floats(0.25, 4.0), rho=st.floats(0.5, 10.0))
def test_accepted_iterates_are_cone_fixed_points(name, scheme, n, alpha, rho):
    # checked with the PAV projection, independently of the step's cone_slack test
    accepted = []
    step = dnls.solver._step

    def recording_step(*args):
        out = step(*args)
        if out[0] is not args[0]:  # a stalled step returns its input itself
            accepted.append(out[0].copy())
        return out

    cfg = SolverConfig(alpha=alpha, rho=rho, scheme=scheme, n=n, max_iters=2000)
    with mock.patch.object(dnls.solver, "_step", recording_step):
        sol = solve(cfg, CATALOG[name]())
    for w in accepted:
        projected = project_cone(Profile(cfg.cell(), w)).values
        assert float(np.max(np.abs(projected - w))) <= 1e-12
    assert sol.diagnostics.cone_violations == 0



@settings(max_examples=40, deadline=None, derandomize=True)
@given(name=st.sampled_from(sorted(CATALOG)), scheme=st.sampled_from([ON, INTER]),
       n=st.integers(2, 64), alpha=st.floats(0.25, 4.0), rho=st.floats(0.5, 10.0))
@example(name="saturable-log", scheme=ON, n=1001, alpha=1.0, rho=1.0)  # the ansatz at N=1001
@example(name="nonconvex-rational", scheme=INTER, n=3, alpha=0.5, rho=2.0)  # a kicked run
def test_ascent_iterates_are_even_bit_for_bit(name, scheme, n, alpha, rho):
    # every iterate equals its own mirror image exactly, not just up to roundoff
    cfg = SolverConfig(alpha=alpha, rho=rho, scheme=scheme, n=n, max_iters=2000)
    site_level, _, right = cfg.cell().fold
    step = dnls.solver._step
    calls = []

    def checking_step(v, *args):
        out = step(v, *args)
        for w in (v, out[0]):
            assert np.array_equal(w, w[right][site_level])
        calls.append(1)
        return out

    p = CATALOG[name]()
    start = initial_ansatz(cfg, p).values
    assert np.array_equal(start, start[right][site_level])
    with mock.patch.object(dnls.solver, "_step", checking_step):
        sol = solve(cfg, p)
    assert len(calls) == sol.iterations

def test_solve_determinism():
    cfg = small_cfg(n=11)
    a = solve(cfg, saturable_log())
    b = solve(cfg, saturable_log())
    assert np.array_equal(a.profile.values, b.profile.values)
    assert a.sigma == b.sigma and a.iterations == b.iterations


def test_solution_serialization_keys():
    cfg = small_cfg()
    sol = solve(cfg, quartic())
    d = sol.to_dict()
    assert list(d)[0] == "config"
    for key in ("sigma", "residual", "iterations", "converged", "in_cone",
                "near_constant", "energies", "decay", "diagnostics"):
        assert key in d
    assert d["config"]["scheme"] == "onsite"


# the hand-written record serializers that the field walks replaced
def config_dict_reference(c):
    return {"alpha": c.alpha, "rho": c.rho, "scheme": c.scheme.value, "n": c.n,
            "tau": c.tau, "tol_residual": c.tol_residual, "max_iters": c.max_iters}


def energies_dict_reference(e):
    return {"power": e.power, "coupling": e.coupling, "potential_energy": e.potential_energy,
            "p_total": e.p_total, "hamiltonian": e.hamiltonian, "t_value": e.t_value}


def decay_dict_reference(d):
    return {"fitted_rate": d.fitted_rate, "bound_rate": d.bound_rate,
            "linear_rate": d.linear_rate, "tail_window": list(d.tail_window),
            "fit_residual": d.fit_residual}


def diagnostics_dict_reference(d):
    inc = d.min_energy_increment
    return {"max_power_drift": d.max_power_drift,
            "min_energy_increment": None if math.isinf(inc) else inc,
            "cone_violations": d.cone_violations, "max_cone_slack": d.max_cone_slack,
            "max_halvings": d.max_halvings, "trials": d.trials,
            "rejections": {"energy": d.rejections["energy"], "cone": d.rejections["cone"]},
            "restarted": d.restarted,
            "flat_lambda1": d.flat_lambda1, "stop_reason": d.stop_reason}


def equilibrium_dict_reference(r):
    return {"modulus_drift": r.modulus_drift, "sigma_measured": r.sigma_measured,
            "sigma_mismatch": r.sigma_mismatch, "power_drift_rel": r.power_drift_rel,
            "hamiltonian_drift_rel": r.hamiltonian_drift_rel, "t_end": r.t_end, "dt": r.dt}


def wave_dict_reference(s):
    return {"config": s.config.to_dict(), "sigma": s.sigma, "residual": s.residual,
            "iterations": s.iterations, "converged": s.converged, "in_cone": s.in_cone,
            "near_constant": s.near_constant, "energies": s.energies.to_dict(),
            "decay": s.decay.to_dict() if s.decay else None,
            "diagnostics": s.diagnostics.to_dict()}


def homoclinic_dict_reference(r):
    return {"n_sequence": list(r.n_sequence), "t_values": list(r.t_values),
            "sup_diffs": list(r.sup_diffs), "tail_fractions": list(r.tail_fractions),
            "max_amplitudes": list(r.max_amplitudes), "verdict": r.verdict.value,
            "margin": r.margin,
            "floor": r.floor}  # the one key added since the hand-written body


def report_dict_reference(r):
    return {"passed": r.passed, "grid": r.grid,
            "violations": [{"x": v.x, "check": v.check.value, "lhs": v.lhs, "rhs": v.rhs}
                           for v in r.violations]}


def test_records_serialize_as_their_hand_written_references():
    waves = [  # a decaying wave, a flat wave, a run cut by the iteration budget
        (SolverConfig(alpha=1.0, rho=10.0, n=25), saturable_arctan()),
        (small_cfg(alpha=50.0, rho=1.0), quartic()),
        (SolverConfig(alpha=1.0, rho=2.0, scheme=INTER, n=8, max_iters=2,
                      tol_residual=1e-30), quartic()),
    ]
    sols = [solve(cfg, p) for cfg, p in waves]
    assert sols[0].decay is not None and sols[0].diagnostics.stop_reason == "residual"
    assert sols[1].diagnostics.flat_lambda1 is not None
    assert math.isinf(sols[1].diagnostics.min_energy_increment)
    assert sols[2].diagnostics.stop_reason == "max_iters"
    pairs = []
    for (cfg, _), sol in zip(waves, sols):
        pairs += [(cfg, config_dict_reference), (sol.energies, energies_dict_reference),
                  (sol.diagnostics, diagnostics_dict_reference)]
        if sol.decay is not None:
            pairs.append((sol.decay, decay_dict_reference))
        pairs.append((sol, wave_dict_reference))
        assert json.dumps(sol.to_dict()) == json.dumps(wave_dict_reference(sol))
    report = relative_equilibrium_check(sols[0], t_end=0.05, dt=0.01)
    pairs.append((report, equilibrium_dict_reference))
    pairs.append((homoclinic(small_cfg(alpha=0.3), quartic(), [9, 17]),
                  homoclinic_dict_reference))
    # a passing report, and one with violations of several kinds
    reports = [check_assumptions(quartic(), x_max=10.0, samples=50),
               check_assumptions(saturable_arctan(), x_max=1e-9, samples=50)]
    assert reports[0].passed and len({v.check for v in reports[1].violations}) > 1
    pairs += [(r, report_dict_reference) for r in reports]
    for record, reference in pairs:
        assert json.dumps(record.to_dict()) == json.dumps(reference(record)), record


RECORDS = [SolverConfig, DecayFit, RunDiagnostics, WaveSolution, HomoclinicResult,
           EnergyBreakdown, EquilibriumReport, Violation, AssumptionReport]


def test_every_record_serializes_by_the_one_rule():
    # every field in declaration order but those a record names as left out
    for record in RECORDS:
        assert record.to_dict is dnls.lattice._Record.to_dict, record
        names = [f.name for f in fields(record)]
        assert set(record._EXCLUDED) <= set(names), record
    assert WaveSolution._EXCLUDED == ("potential", "profile")
    assert HomoclinicResult._EXCLUDED == ("solutions", "restricted")


def test_non_finite_record_values_serialize_as_null():
    # JSON has no NaN or Infinity: json.dumps wrote them for every record but two
    nan, inf = math.nan, math.inf
    records = [
        (DecayFit(fitted_rate=1.0, bound_rate=inf, linear_rate=nan, tail_window=(2.0, nan),
                  fit_residual=-inf),
         {"fitted_rate": 1.0, "bound_rate": None, "linear_rate": None,
          "tail_window": [2.0, None], "fit_residual": None}),
        (EquilibriumReport(modulus_drift=inf, sigma_measured=nan, sigma_mismatch=nan,
                           power_drift_rel=0.0, hamiltonian_drift_rel=-inf, t_end=1.0, dt=0.1),
         {"modulus_drift": None, "sigma_measured": None, "sigma_mismatch": None,
          "power_drift_rel": 0.0, "hamiltonian_drift_rel": None, "t_end": 1.0, "dt": 0.1}),
        (EnergyBreakdown(power=1.0, coupling=nan, potential_energy=inf, p_total=nan,
                         hamiltonian=-inf, t_value=None),
         {"power": 1.0, "coupling": None, "potential_energy": None, "p_total": None,
          "hamiltonian": None, "t_value": None}),
        (SolverConfig(alpha=nan, rho=inf),
         {"alpha": None, "rho": None, "scheme": "onsite", "n": 25, "tau": 1.0,
          "tol_residual": 1e-10, "max_iters": 1_000_000}),
        (RunDiagnostics(max_power_drift=nan, flat_lambda1=inf),
         {"max_power_drift": None, "min_energy_increment": None, "cone_violations": 0,
          "max_cone_slack": 0.0, "max_halvings": 0, "trials": 0,
          "rejections": {"energy": 0, "cone": 0}, "restarted": False, "flat_lambda1": None,
          "stop_reason": ""}),
        (HomoclinicResult([], [], [9, 17], [2.5, nan], [inf], [0.1, 0.2], [1.0, 0.9],
                          HomoclinicVerdict.UNDETERMINED, 1e-3, 2e-9),
         {"n_sequence": [9, 17], "t_values": [2.5, None], "sup_diffs": [None],
          "tail_fractions": [0.1, 0.2], "max_amplitudes": [1.0, 0.9],
          "verdict": "undetermined", "margin": 1e-3, "floor": 2e-9}),
    ]
    for record, expected in records:
        text = json.dumps(record.to_dict(), allow_nan=False)
        assert json.loads(text) == expected, record


def test_decay_fit_matches_linearized_rate():
    cfg = SolverConfig(alpha=1.0, rho=10.0, n=25)
    sol = solve(cfg, saturable_arctan())
    fit = sol.decay
    assert fit is not None
    kappa = (sol.sigma - math.sqrt(sol.sigma**2 - 4.0)) / 2.0
    assert fit.linear_rate == pytest.approx(-math.log(kappa), rel=1e-12)
    assert abs(fit.fitted_rate - fit.linear_rate) / fit.linear_rate <= 0.05
    assert fit.bound_rate == pytest.approx(-math.log(1.0 / (sol.sigma - 1.0)), rel=1e-12)
    assert fit.fitted_rate >= fit.bound_rate * 0.95
    assert fit.tail_window[0] < fit.tail_window[1]


def test_a_wave_carries_the_config_it_solved():
    # decay_fit(sol, cfg) read alpha from its cfg: given 0.9 for a wave solved at
    # alpha = 1 it reported a linear rate of 0.912 for one of 0.758
    cfg = SolverConfig(alpha=1.0, rho=10.0, n=25)
    sol = solve(cfg, saturable_arctan())
    assert sol.config is cfg
    assert decay_fit(sol) == sol.decay
    assert list(inspect.signature(decay_fit).parameters) == ["sol"]
    assert list(inspect.signature(WaveSolution.to_dict).parameters) == ["self"]
    ladder = homoclinic(small_cfg(alpha=0.3), quartic(), [9, 17])
    assert [s.config.n for s in ladder.solutions] == [9, 17]
    assert all(s.config == replace(small_cfg(alpha=0.3), n=s.config.n)
               for s in ladder.solutions)


def test_decay_fit_tail_too_short_for_flat_wave():
    cfg = small_cfg(alpha=50.0, rho=1.0)
    sol = solve(cfg, quartic())
    assert sol.decay is None
    fake = replace(sol, sigma=2 * cfg.alpha + 1.0)
    assert decay_fit(fake) is None


def test_decay_fit_requires_frequency_gap():
    cfg = small_cfg()
    sol = solve(cfg, quartic())
    slow = replace(sol, sigma=0.5 * cfg.alpha)
    with pytest.raises(ValueError):
        decay_fit(slow)


@pytest.mark.parametrize("change, message", [
    ({"converged": False}, "decay fit requires a converged solution"),
    ({"sigma": 0.25}, r"decay fit requires sigma > 2\*alpha"),
])
def test_decay_fit_refusals(change, message):
    sol = solve(SolverConfig(alpha=1.0, rho=10.0, n=25), saturable_arctan())
    assert sol.converged and sol.decay is not None
    with pytest.raises(ValueError, match=f"^{message}$"):
        decay_fit(replace(sol, **change))


def test_oracle_intersite_two_sites_fully_constrained():
    cfg = SolverConfig(alpha=1.0, rho=4.0, scheme=INTER, n=2)
    best, p_best = oracle_maximize(cfg, saturable_log(), grid_points=100)
    assert np.allclose(best.values, math.sqrt(2.0))
    eb = energy(best, saturable_log(), 1.0)
    assert p_best == pytest.approx(eb.p_total, rel=1e-14)


def test_oracle_matches_solver_n3():
    cfg = SolverConfig(alpha=1.0, rho=2.0, n=3)
    sol = solve(cfg, quartic())
    best, p_best = oracle_maximize(cfg, quartic(), grid_points=100000)
    assert abs(sol.energies.p_total - p_best) <= 1e-4 * abs(p_best)
    assert np.max(np.abs(best.values - sol.profile.values)) <= 1e-3


def test_oracle_dominates_constant_profile():
    cfg = SolverConfig(alpha=1.0, rho=4.0, n=4)
    _, p_best = oracle_maximize(cfg, saturable_log(), grid_points=400)
    const = Profile(cfg.cell(), np.full(4, 1.0))
    assert p_best >= energy(const, saturable_log(), 1.0).p_total - 1e-12


def six_scan_oracle(cfg, p, grid_points):
    """Reference: the uniform grid scanned whole, then five windowed rescans of it."""
    cell = cfg.cell()
    d = np.abs(cell.doubled_indices())
    levels = np.unique(d)
    site_level = np.searchsorted(levels, d)
    mult = np.bincount(site_level).astype(float)
    dims = levels.size - 1

    def best_on(grids):
        mesh = np.meshgrid(*grids, indexing="ij") if grids else []
        ratios = np.stack([m.ravel() for m in mesh], axis=1) if grids else np.zeros((1, 0))
        amps = np.cumprod(np.hstack([np.ones((ratios.shape[0], 1)), ratios]), axis=1)
        amps *= np.sqrt(cfg.rho / np.einsum("ij,j,ij->i", amps, mult, amps))[:, None]
        vals = amps[:, site_level]
        p_all = row_energies(vals, p, cfg.alpha)
        k = int(np.argmax(p_all))
        return ratios[k], float(p_all[k]), vals[k]

    g = min(grid_points, 701) if dims == 2 else grid_points
    spacing = [1.0 / (g - 1)] * dims
    r_best, p_best, v_best = best_on([np.linspace(0.0, 1.0, g)] * dims)
    for _ in range(5):
        lo = [max(0.0, r_best[i] - 2.0 * spacing[i]) for i in range(dims)]
        hi = [min(1.0, r_best[i] + 2.0 * spacing[i]) for i in range(dims)]
        spacing = [(b - a) / (g - 1) for a, b in zip(lo, hi)]
        r_best, p_best, v_best = best_on([np.linspace(a, b, g) for a, b in zip(lo, hi)])
    return v_best, p_best


def assert_oracle_matches_six_scans(cfg, p, grid_points):
    best, p_best = oracle_maximize(cfg, p, grid_points=grid_points)
    v_ref, p_ref = six_scan_oracle(cfg, p, grid_points)
    assert p_best >= p_ref - 1e-12 * abs(p_ref)
    assert np.max(np.abs(best.values - v_ref)) <= 1e-6


def test_oracle_matches_six_scans_on_acceptance_cells():
    for n, scheme, name, alpha, rho in itertools.product(
            (2, 3, 4), (ON, INTER), ("quartic", "saturable-log"), (0.5, 1.0), (1.0, 2.0)):
        cfg = SolverConfig(alpha=alpha, rho=rho, scheme=scheme, n=n, tau=1.0)
        assert_oracle_matches_six_scans(cfg, CATALOG[name](), 2001)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(name=st.sampled_from(sorted(CATALOG)), scheme=st.sampled_from([ON, INTER]),
       n=st.integers(2, 4), alpha=st.floats(0.25, 4.0), rho=st.floats(0.5, 10.0),
       grid_points=st.integers(101, 100_000))
# random draws mostly land on the flat profile, a grid point; these peak inside the box
@example(name="exp-quadratic", scheme=INTER, n=3, alpha=0.5, rho=4.0, grid_points=50_001)
@example(name="quartic", scheme=INTER, n=4, alpha=0.5, rho=4.0, grid_points=40_000)
@example(name="saturable-arctan", scheme=INTER, n=4, alpha=0.25, rho=10.0,
         grid_points=100_000)
@example(name="nonconvex-rational", scheme=ON, n=4, alpha=0.5, rho=4.0, grid_points=2001)
@example(name="saturable-arctan", scheme=ON, n=4, alpha=0.25, rho=10.0, grid_points=701)
@example(name="exp-quadratic", scheme=ON, n=4, alpha=0.5, rho=4.0, grid_points=301)
def test_oracle_matches_six_scans(name, scheme, n, alpha, rho, grid_points):
    # one free ratio scans all grid_points (in batches of at most 4,096 rows); two use 701
    cfg = SolverConfig(alpha=alpha, rho=rho, scheme=scheme, n=n)
    assert_oracle_matches_six_scans(cfg, CATALOG[name](), grid_points)


def plain_scan(lo, hi, n, cfg, p, best, scorer):
    """Reference: every row of np.linspace(lo, hi, n) per ratio scored, in blocks of
    whole runs of the last ratio; a row replaces ``best`` only with a higher energy.

    Returns ``best`` and the lowest and highest energy scored (NaN if any is NaN)."""
    cell = cfg.cell()
    _, mult, _ = cell.fold
    dims = mult.size - 1
    r1_all = np.linspace(lo[0], hi[0], n)
    r2 = np.linspace(lo[1], hi[1], n) if dims == 2 else np.ones(1)
    chunk = max(1, (1 << 15) // r2.size)
    p_lo, p_hi = math.inf, -math.inf
    for start in range(0, n, chunk):
        r1 = r1_all[start:start + chunk, None]
        amps = np.stack(np.broadcast_arrays(1.0, r1, r1 * r2)[:dims + 1]).reshape(dims + 1, -1)
        amps *= np.sqrt(cfg.rho / (mult @ (amps * amps)))
        p_all = scorer(amps, cell, p, cfg.alpha)
        p_lo, p_hi = np.minimum(p_lo, p_all.min()), np.maximum(p_hi, p_all.max())
        k = int(np.argmax(p_all))
        if p_all[k] > best[1]:
            i, j = divmod(k, r2.size)
            best = np.array([r1[i, 0], r2[j]][:dims]), float(p_all[k]), amps[:, k]
    return best, (p_lo, p_hi)


def plain_zoom(cfg, p, best, g, scorer, stop=True):
    """Reference zoom from the best row ``best`` of a global scan of g points per ratio.

    Windows of +-2 spacings around the best row so far, _ORACLE_ZOOM points per
    ratio, down to the spacing (1/(g-1)) * (4/(g-1))**5 or, with ``stop``, until
    a window's energies agree to 8 eps. ``stop=False`` is the fixed-depth zoom.
    Returns the best row and the number of windows scored."""
    spacing = np.full(best[0].size, 1.0 / (g - 1))
    final = spacing[0] * (4.0 * spacing[0]) ** 5
    windows = 0
    while spacing.max() > final:
        lo = np.maximum(best[0] - 2.0 * spacing, 0.0)
        hi = np.minimum(best[0] + 2.0 * spacing, 1.0)
        spacing = (hi - lo) / (_ORACLE_ZOOM - 1)
        best, (p_lo, p_hi) = plain_scan(lo, hi, _ORACLE_ZOOM, cfg, p, best, scorer)
        windows += 1
        if stop and p_hi - p_lo <= 8 * np.finfo(float).eps * abs(p_hi):
            break
    return best, windows


def plain_oracle(cfg, p, grid_points, scorer):
    """Reference oracle: the capped grid scanned whole, then the zoom.

    Returns the best row of the global scan and the answer, profile and energy."""
    cell = cfg.cell()
    site_level, mult, _ = cell.fold
    dims = mult.size - 1
    if dims == 0:
        amps = np.sqrt(cfg.rho / mult)[:, None]
        return None, (amps[site_level, 0], float(scorer(amps, cell, p, cfg.alpha)[0]))
    g = min(grid_points, 701 ** (2 // dims))
    first, _ = plain_scan(np.zeros(dims), np.ones(dims), g, cfg, p,
                          (None, -math.inf, None), scorer)
    best, _ = plain_zoom(cfg, p, first, g, scorer)
    return first, (best[2][site_level], best[1])


def floored_scorer(quantum):
    """level_energies floored to multiples of quantum (None: unchanged). Flooring is
    monotone, so every box bound still holds, and it makes whole regions tie."""
    if quantum is None:
        return level_energies

    def scorer(a, cell, p, alpha):
        return np.floor(level_energies(a, cell, p, alpha) / quantum) * quantum
    return scorer


def same_row(a, b):
    return (a[0].tobytes(), a[1], a[2].tobytes()) == (b[0].tobytes(), b[1], b[2].tobytes())


@settings(max_examples=40, deadline=None, derandomize=True)
@given(name=st.sampled_from(sorted(CATALOG)), scheme=st.sampled_from([ON, INTER]),
       n=st.integers(2, 4), alpha=st.floats(0.05, 4.0), rho=st.floats(0.05, 20.0),
       grid_points=st.one_of(st.integers(3, 100), st.integers(3, 10**6)),
       quantum=st.sampled_from([None, 2.0**-2, 2.0**-30]))
# the single-site peak ties along all of r1 = 0, where r2 is arbitrary
@example(name="quartic", scheme=ON, n=4, alpha=0.05, rho=20.0, grid_points=701, quantum=None)
@example(name="quartic", scheme=ON, n=4, alpha=0.05, rho=20.0, grid_points=3, quantum=None)
# a coarse energy quantum makes whole regions of the grid tie exactly
@example(name="saturable-log", scheme=ON, n=4, alpha=1.0, rho=2.0, grid_points=2001,
         quantum=2.0**-2)
@example(name="exp-quadratic", scheme=INTER, n=3, alpha=0.5, rho=4.0, grid_points=10**6,
         quantum=2.0**-30)
# the descent halves down to its smallest boxes (test_the_descent_partitions_the_grid):
# ties over whole regions, a peak inside the box, and one free ratio
@example(name="quartic", scheme=ON, n=4, alpha=1.0, rho=2.0, grid_points=701, quantum=2.0**-2)
@example(name="nonconvex-rational", scheme=ON, n=4, alpha=0.5, rho=4.0, grid_points=2001,
         quantum=None)
@example(name="quartic", scheme=ON, n=3, alpha=1.0, rho=2.0, grid_points=10**6,
         quantum=2.0**-2)
def test_pruned_oracle_matches_the_plain_scan(name, scheme, n, alpha, rho, grid_points,
                                              quantum):
    # bit for bit: the global scan's best ratios, energy and amplitudes, then the answer
    p = CATALOG[name]()
    cfg = SolverConfig(alpha=alpha, rho=rho, scheme=scheme, n=n)
    scorer = floored_scorer(quantum)
    first, (v_ref, p_ref) = plain_oracle(cfg, p, grid_points, scorer)
    with mock.patch.object(dnls.oracle, "level_energies", scorer):
        best, p_best = oracle_maximize(cfg, p, grid_points=grid_points)
        if first is not None:
            dims = first[0].size
            g = min(grid_points, 701 ** (2 // dims))
            grid = dnls.oracle._ratio_grid(np.zeros(dims), np.ones(dims), g)
            assert same_row(dnls.oracle._global_scan(*grid, cfg, p, cfg.cell()), first)
    assert p_best == p_ref and best.values.tobytes() == v_ref.tobytes()


def assert_oracle_energy_is_its_profiles(cfg, p, grid_points):
    best, p_best = oracle_maximize(cfg, p, grid_points=grid_points)
    p_ref = energy(best, p, cfg.alpha).p_total
    assert abs(p_best - p_ref) <= 4 * math.ulp(p_ref)


def test_oracle_energy_is_its_profiles_on_acceptance_cells():
    # the level kernel's plain sum against the correctly rounded site-space energy
    for n, scheme, name, alpha, rho in itertools.product(
            (2, 3, 4), (ON, INTER), ("quartic", "saturable-log"), (0.5, 1.0), (1.0, 2.0)):
        cfg = SolverConfig(alpha=alpha, rho=rho, scheme=scheme, n=n, tau=1.0)
        assert_oracle_energy_is_its_profiles(cfg, CATALOG[name](), 2001)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(name=st.sampled_from(sorted(CATALOG)), scheme=st.sampled_from([ON, INTER]),
       n=st.integers(2, 4), alpha=st.floats(0.01, 10.0), rho=st.floats(0.01, 30.0),
       grid_points=st.integers(3, 3000))
def test_oracle_energy_is_its_profiles(name, scheme, n, alpha, rho, grid_points):
    assert_oracle_energy_is_its_profiles(SolverConfig(alpha=alpha, rho=rho, scheme=scheme, n=n),
                                         CATALOG[name](), grid_points)


def test_oracle_memory_does_not_grow_with_the_grid():
    cfg = SolverConfig(alpha=1.0, rho=2.0, scheme=ON, n=4)  # two free ratios, 491,401 rows
    tracemalloc.start()
    try:
        oracle_maximize(cfg, quartic(), grid_points=2001)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6


def test_oracle_scores_a_cell_without_free_ratio_once():
    cfg = SolverConfig(alpha=1.0, rho=4.0, scheme=INTER, n=2)
    with mock.patch.object(dnls.oracle, "level_energies", wraps=level_energies) as scorer:
        oracle_maximize(cfg, saturable_log(), grid_points=100)
    # one level (both sites at |j| = 1/2), one profile
    assert scorer.call_count == 1 and scorer.call_args.args[0].shape == (1, 1)


def traced_scan(cfg, p, grid_points, scorer=level_energies):
    """oracle_maximize's answer, and of its global scan: the grid's size per ratio,
    the boxes of each bounding call as (first, last, bound), the row-major index
    of the rows of each scoring call, and the energy of its best row."""
    bound_boxes, score_rows = dnls.oracle._box_bounds, dnls.oracle._score_rows
    scan, grid, levels, rows, best = dnls.oracle._global_scan, [], [], [], []

    def bounds(r1, r2, first, last, *args):
        levels.append((first.copy(), last.copy(), bound_boxes(r1, r2, first, last, *args)))
        return levels[-1][2]

    def score(r1, r2, *args):
        if len(grid) == 2:  # the zoom's windows are off the grid
            i, j = np.searchsorted(grid[0], r1), np.searchsorted(grid[1], r2)
            assert (grid[0][i] == r1).all() and (grid[1][j] == r2).all()
            rows.append(i * grid[1].size + j)
        return score_rows(r1, r2, *args)

    def scan_grid(r1, r2, *args):
        grid.extend((r1, r2))
        best.append(scan(r1, r2, *args))
        grid.append(None)
        return best[0]

    with mock.patch.multiple(dnls.oracle, _box_bounds=bounds, _score_rows=score,
                             _global_scan=scan_grid, level_energies=scorer):
        answer = oracle_maximize(cfg, p, grid_points=grid_points)
    return answer, (grid[0].size, grid[1].size), levels, rows, best[0][1]


def box_rows(first, last, n2):
    """Row-major indices of the rows of the boxes, and the box of each row."""
    d1, d2 = np.indices((last - first + 1).max(axis=1)).reshape(2, -1)
    i, j = first[0, :, None] + d1, first[1, :, None] + d2
    inside = (i <= last[0, :, None]) & (j <= last[1, :, None])
    box = np.broadcast_to(np.arange(first.shape[1])[:, None], i.shape)
    return (i * n2 + j)[inside], box[inside]


def assert_descent_partitions_the_grid(shape, levels, rows, p_scan):
    """Each row of the grid is scored exactly once or lies in a box its bound pruned.

    A box is split when a box of the next bounding call lies in it, and
    terminal otherwise. The terminal boxes partition the grid; each is scored
    whole or not at all, and one that is not scored has a bound below the
    scan's best energy."""
    scored = np.concatenate(rows)
    assert np.unique(scored).size == scored.size
    terminal, pruned = [], 0
    covered = [box_rows(first, last, shape[1])[0] for first, last, _ in levels] + [[]]
    for (first, last, bound), inner in zip(levels, covered[1:]):
        at, box = box_rows(first, last, shape[1])
        assert np.unique(at).size == at.size and 0 <= at.min() and at.max() < np.prod(shape)
        assert np.isin(inner, at).all()  # children lie in their parents
        split = np.zeros(bound.size, dtype=bool)
        split[box[np.isin(at, inner)]] = True
        end = ~split[box]
        terminal.append(at[end])
        size = np.bincount(box[end], minlength=bound.size)
        hit = np.bincount(box[end], weights=np.isin(at[end], scored), minlength=bound.size)
        assert ((hit == 0) | (hit == size))[~split].all()  # a box is scored whole or not at all
        assert (bound[~split & (hit == 0)] < p_scan).all()
        pruned += size[~split & (hit == 0)].sum()
    terminal = np.concatenate(terminal)
    assert terminal.size == np.unique(terminal).size == np.prod(shape)
    assert scored.size + pruned == np.prod(shape)
    return scored.size


def test_oracle_caps_the_scan_of_one_free_ratio():
    # N=3 has one free ratio: its scan is capped at 701**2 rows, a two-ratio cell's
    cfg = SolverConfig(alpha=1.0, rho=2.0, scheme=ON, n=3)
    (_, p_best), shape, levels, rows, p_scan = traced_scan(cfg, quartic(), 10**9)
    cap = 701**2
    assert shape == (cap, 1)
    assert levels[0][0].shape[1] == -(-cap // _ORACLE_TILE)  # one bound per tile
    scored = assert_descent_partitions_the_grid(shape, levels, rows, p_scan)
    assert scored < cap // 2
    assert p_best == pytest.approx(oracle_maximize(cfg, quartic(), grid_points=20_000)[1],
                                   rel=1e-12)


@pytest.mark.parametrize("name, n, alpha, rho, grid_points, quantum", [
    ("quartic", 4, 1.0, 2.0, 701, 2.0**-2),
    ("nonconvex-rational", 4, 0.5, 4.0, 2001, None),
    ("quartic", 3, 1.0, 2.0, 10**6, 2.0**-2),
])
def test_the_descent_partitions_the_grid(name, n, alpha, rho, grid_points, quantum):
    # examples of test_pruned_oracle_matches_the_plain_scan: each halves its tiles
    # level by level down to the smallest boxes
    cfg = SolverConfig(alpha=alpha, rho=rho, scheme=ON, n=n)
    _, shape, levels, rows, p_scan = traced_scan(cfg, CATALOG[name](), grid_points,
                                                 floored_scorer(quantum))
    sides = [int((last - first + 1).max()) for first, last, _ in levels]
    tile = _ORACLE_TILE if shape[1] == 1 else math.isqrt(_ORACLE_TILE)
    assert sides == [tile >> k for k in range(len(sides))] and sides[-1] == _ORACLE_LEAF
    assert_descent_partitions_the_grid(shape, levels, rows, p_scan)


def criterion_7_cells(dims):
    """The combinations of criterion 7 with ``dims`` free ratios, and their potentials."""
    for n, scheme, name, alpha, rho in itertools.product(
            (2, 3, 4), (ON, INTER), ("quartic", "saturable-log"), (0.5, 1.0), (1.0, 2.0)):
        cfg = SolverConfig(alpha=alpha, rho=rho, scheme=scheme, n=n, tau=1.0)
        if cfg.cell().fold[1].size == dims + 1:
            yield cfg, CATALOG[name]()


def test_the_descent_scores_few_rows_of_the_two_ratio_cells():
    # the eight N=4 on-site cells: scoring every row of each 256-row tile whose bound
    # could win scored 513,357 of their 8 * 701**2 rows; the descent scores 56,123
    # and bounds 65,203 boxes
    scored = bounded = cells = 0
    for cfg, p in criterion_7_cells(2):
        _, shape, levels, rows, _ = traced_scan(cfg, p, 2001)
        assert shape == (701, 701)
        scored += sum(r.size for r in rows)
        bounded += sum(bound.size for *_, bound in levels)
        cells += 1
    assert cells == 8 and scored <= 60_000 and bounded <= 70_000


def test_a_one_ratio_scan_of_2001_rows_scores_each_row_once():
    # the grid fits one batch, which scores every row: nothing is bounded or split
    cells = 0
    for cfg, p in criterion_7_cells(1):
        _, shape, levels, rows, _ = traced_scan(cfg, p, 2001)
        assert shape == (2001, 1) and len(levels) == 0 and len(rows) == 1
        assert np.array_equal(np.sort(rows[0]), np.arange(2001))
        cells += 1
    assert cells == 32


def test_a_two_ratio_grid_of_one_batch_is_scored_whole():
    # 64**2 = 4,096 rows: one scoring call, no bounding call, the plain scan's row
    cells = 0
    for cfg, p in criterion_7_cells(2):
        _, shape, levels, rows, _ = traced_scan(cfg, p, 64)
        assert shape == (64, 64) and len(levels) == 0 and len(rows) == 1
        assert np.array_equal(np.sort(rows[0]), np.arange(64**2))
        grid = dnls.oracle._ratio_grid(np.zeros(2), np.ones(2), 64)
        first, _ = plain_scan(np.zeros(2), np.ones(2), 64, cfg, p, (None, -math.inf, None),
                              level_energies)
        assert same_row(dnls.oracle._global_scan(*grid, cfg, p, cfg.cell()), first)
        cells += 1
    assert cells == 8


@settings(max_examples=200, deadline=None, derandomize=True)
@given(lo=st.floats(0.0, 1.0), hi=st.floats(0.0, 1.0), n=st.sampled_from([3, 41, 701, 2001]))
@example(lo=0.25, hi=0.25, n=41)  # no width
@example(lo=0.3, hi=math.nextafter(0.3, 1.0), n=2001)  # adjacent floats
@example(lo=0.0, hi=5e-324, n=2001)  # a subnormal width: the step rounds to 0
@example(lo=1e-310, hi=math.nextafter(1e-310, 1.0), n=3)
def test_cached_grids_match_linspace(lo, hi, n):
    lo, hi = min(lo, hi), max(lo, hi)
    # the second ratio has no width: a 2-D linspace would round the first differently
    got = dnls.oracle._ratio_grid(np.array([lo, hi]), np.array([hi, hi]), n)
    for r, (a, b) in zip(got, [(lo, hi), (hi, hi)]):
        assert r.tobytes() == np.linspace(np.float64(a), np.float64(b), n).tobytes()
    r1, r2 = dnls.oracle._ratio_grid(np.array([lo]), np.array([hi]), n)
    assert r1.tobytes() == got[0].tobytes() and r2.tolist() == [1.0]
    assert not r2.flags.writeable and not dnls.oracle._steps(n).flags.writeable


def test_the_grid_steps_cache_is_bounded():
    for n in range(3, 23):
        k = dnls.oracle._steps(n)
        assert np.array_equal(k, np.arange(n, dtype=float)) and not k.flags.writeable
        assert k is dnls.oracle._steps(n) and 1 <= len(dnls.oracle._STEPS) <= 8


def test_the_criterion_7_oracle_calls_build_no_linspace():
    # the potentials' checks are kept from the first pass; the second may not call linspace
    cells = [cell for dims in range(3) for cell in criterion_7_cells(dims)]
    answers = [oracle_maximize(cfg, p, grid_points=2001) for cfg, p in cells]
    with mock.patch.object(np, "linspace", side_effect=AssertionError("np.linspace called")):
        again = [oracle_maximize(cfg, p, grid_points=2001) for cfg, p in cells]
    assert len(cells) == 48
    assert [(b.values.tobytes(), e) for b, e in again] == [(b.values.tobytes(), e)
                                                           for b, e in answers]


def zoom_windows(cfg, p, grid_points):
    """oracle_maximize's answer, its global scan's best row (None on a cell with no
    free ratio) and the number of windows its zoom scored."""
    score_rows, scan = dnls.oracle._score_rows, dnls.oracle._global_scan
    calls, first = [0], []

    def score(*args):
        calls[0] += 1
        return score_rows(*args)

    def scan_grid(*args):
        first.extend((scan(*args), calls[0]))
        return first[0]

    with mock.patch.multiple(dnls.oracle, _score_rows=score, _global_scan=scan_grid):
        answer = oracle_maximize(cfg, p, grid_points=grid_points)
    return answer, *((first[0], calls[0] - first[1]) if first else (None, 0))


def assert_zoom_within_rounding_of_the_fixed_depth_zoom(cfg, p, grid_points):
    """The zoom stops within rounding of the fixed-depth zoom from the same scan, after
    no more windows. Returns both answers' profiles and the zoom's windows."""
    (best, p_best), first, windows = zoom_windows(cfg, p, grid_points)
    if first is None:
        return best.values, best.values, 0
    assert p_best >= first[1]
    g = min(grid_points, 701 ** (2 // first[0].size))
    fixed, fixed_windows = plain_zoom(cfg, p, first, g, level_energies, stop=False)
    assert abs(p_best - fixed[1]) <= 16 * np.finfo(float).eps * abs(fixed[1])
    assert windows <= fixed_windows
    return best.values, fixed[2][cfg.cell().fold[0]], windows


@settings(max_examples=40, deadline=None, derandomize=True)
@given(name=st.sampled_from(sorted(CATALOG)), scheme=st.sampled_from([ON, INTER]),
       n=st.integers(2, 4), alpha=st.floats(0.05, 4.0), rho=st.floats(0.05, 20.0),
       grid_points=st.integers(3, 3000))
def test_the_zoom_stops_within_rounding_of_the_fixed_depth_zoom(name, scheme, n, alpha, rho,
                                                                 grid_points):
    cfg = SolverConfig(alpha=alpha, rho=rho, scheme=scheme, n=n)
    assert_zoom_within_rounding_of_the_fixed_depth_zoom(cfg, CATALOG[name](), grid_points)


def test_the_zoom_stops_early_on_the_criterion_7_cells():
    # the fixed-depth zoom scores 503 windows on these 48 cells
    windows = cells = 0
    for cfg, p in itertools.chain(*map(criterion_7_cells, (0, 1, 2))):
        v, v_fixed, w = assert_zoom_within_rounding_of_the_fixed_depth_zoom(cfg, p, 2001)
        assert np.max(np.abs(v - v_fixed)) <= 1e-6
        windows += w
        cells += 1
    assert cells == 48 and windows <= 240


def test_a_nan_spread_never_stops_the_zoom():
    # energies floored to 2**-2 make the windows flat, so the zoom stops after one;
    # a NaN in every window keeps it going as deep as the fixed-depth zoom
    floored = floored_scorer(2.0**-2)

    def scorer(a, cell, p, alpha):
        out = floored(a, cell, p, alpha)
        if a.shape[1] == _ORACLE_ZOOM:  # a window, not the 2001-row scan
            out[0] = math.nan
        return out

    cfg = SolverConfig(alpha=1.0, rho=2.0, scheme=ON, n=3)
    with mock.patch.object(dnls.oracle, "level_energies", floored):
        assert zoom_windows(cfg, quartic(), 2001)[2] == 1
    with mock.patch.object(dnls.oracle, "level_energies", scorer):
        _, first, windows = zoom_windows(cfg, quartic(), 2001)
    assert windows == plain_zoom(cfg, quartic(), first, 2001, scorer, stop=False)[1] > 1


@pytest.mark.parametrize("grid_points", [math.inf, math.nan])
def test_oracle_refuses_a_non_finite_grid(grid_points):
    cfg = SolverConfig(alpha=1.0, rho=2.0, scheme=ON, n=3)
    with mock.patch.object(dnls.oracle, "_require_assumptions") as check:
        with pytest.raises(ValueError, match=rf"^grid_points must be finite, not {grid_points}$"):
            oracle_maximize(cfg, quartic(), grid_points=grid_points)
    check.assert_not_called()  # refused before any work


@pytest.mark.parametrize("grid_points", [101.9, 2.5, 1e3 + 0.5])
def test_oracle_refuses_a_fractional_grid(grid_points):
    cfg = SolverConfig(alpha=1.0, rho=2.0, scheme=ON, n=3)
    with mock.patch.object(dnls.oracle, "_require_assumptions") as check:
        with pytest.raises(ValueError,
                           match=rf"^grid_points must be whole numbers, not {grid_points}$"):
            oracle_maximize(cfg, quartic(), grid_points=grid_points)
    check.assert_not_called()  # refused before any work


def test_oracle_takes_a_whole_float_grid_as_its_integer():
    cfg = SolverConfig(alpha=1.0, rho=2.0, scheme=ON, n=3)
    best, p_best = oracle_maximize(cfg, quartic(), grid_points=101.0)
    ref, p_ref = oracle_maximize(cfg, quartic(), grid_points=101)
    assert p_best == p_ref and best.values.tobytes() == ref.values.tobytes()


@pytest.mark.parametrize("scheme, n", [
    (INTER, 2),  # one profile, which once came back as P = nan
    (ON, 3),  # 2,001 rows, scored as one batch
    (ON, 4),  # 701**2 rows, the descent
])
def test_oracle_refuses_a_grid_with_no_finite_energy(scheme, n):
    # the scans kept no row of an all-NaN grid, and the zoom ended in a TypeError
    cfg = SolverConfig(alpha=1.0, rho=2.0, scheme=scheme, n=n)
    nan = lambda amps, *_: np.full(amps.shape[1], np.nan)  # noqa: E731
    with mock.patch.object(dnls.oracle, "level_energies", nan):
        with pytest.raises(ValueError,
                           match="^the oracle's grid holds no finite energy of quartic$"):
            oracle_maximize(cfg, quartic(), grid_points=2001)


def test_oracle_rejects_large_cells():
    with pytest.raises(ValueError):
        oracle_maximize(SolverConfig(alpha=1.0, rho=1.0, n=5), quartic())


def test_homoclinic_localized_small():
    cfg = SolverConfig(alpha=0.3, rho=2.0, n=9)
    res = homoclinic(cfg, quartic(), [9, 17, 33])
    assert res.verdict is HomoclinicVerdict.LOCALIZED
    assert all(t > 2.0 + res.margin for t in res.t_values)
    assert res.sup_diffs[-1] <= res.sup_diffs[0] + 1e-12
    assert all(s.converged for s in res.solutions)


def test_homoclinic_delocalizing_small():
    cfg = SolverConfig(alpha=2.0, rho=2.0, scheme=INTER, n=8)
    res = homoclinic(cfg, quartic(), [8, 16, 32])
    assert res.verdict is HomoclinicVerdict.DELOCALIZING
    assert res.t_values[0] > res.t_values[-1]
    assert res.max_amplitudes[0] > res.max_amplitudes[-1]
    assert res.tail_fractions[0] > 0.0



@pytest.mark.parametrize("scheme, n_seq", [(ON, [25, 51, 101, 201, 401]),
                                           (INTER, [24, 50, 100, 200, 400])])
def test_converged_ladder_is_localized_above_the_noise_floor(scheme, n_seq):
    # the last diffs sit at the solver's noise (about 1e-10 each), where they
    # may rise or fall by chance; the verdict asks only that no diff rises
    # above both the one before it and the floor
    cfg = SolverConfig(alpha=1.0, rho=10.0, scheme=scheme, n=n_seq[0])
    res = homoclinic(cfg, saturable_arctan(), n_seq)
    assert all(s.converged for s in res.solutions)
    assert res.floor == 2.0 * dnls.solver._WAVE_ERROR_PER_RESIDUAL * cfg.tol_residual
    assert all(b <= max(a, res.floor) for a, b in zip(res.sup_diffs, res.sup_diffs[1:]))
    assert res.sup_diffs[-1] <= res.floor
    assert res.verdict is HomoclinicVerdict.LOCALIZED


@settings(max_examples=30, deadline=None, derandomize=True)
@given(name=st.sampled_from(["nonconvex-rational", "saturable-arctan", "saturable-log"]),
       scheme=st.sampled_from([ON, INTER]), alpha=st.floats(0.1, 0.3),
       rho=st.floats(4.0, 10.0), n0=st.integers(24, 40), gaps=st.tuples(
           st.integers(1, 24), st.integers(1, 32)))
def test_a_larger_size_never_undetermines_a_localized_ladder(name, scheme, alpha, rho, n0,
                                                             gaps):
    n_seq = [n0, n0 + gaps[0], n0 + gaps[0] + gaps[1]]
    cfg = SolverConfig(alpha=alpha, rho=rho, scheme=scheme, n=n0, max_iters=5000)
    longer = homoclinic(cfg, CATALOG[name](), n_seq)
    ladder = homoclinic(cfg, CATALOG[name](), n_seq[:2])
    # converged waves in the gap, each decayed to the noise floor at its cell's edge
    assume(ladder.verdict is HomoclinicVerdict.LOCALIZED)
    assume(all(s.converged and s.sigma > 2.0 * alpha
               and max(s.profile.values[0], s.profile.values[-1]) <= ladder.floor
               for s in longer.solutions))
    assert longer.verdict is not HomoclinicVerdict.UNDETERMINED


def test_one_sup_diff_above_the_floor_is_no_evidence():
    # two sizes give one diff (3.2e-2) and no trend; N = 8, 9, 16 was already undetermined
    cfg = SolverConfig(alpha=0.62, rho=7.64, scheme=INTER, n=8)
    res = homoclinic(cfg, saturable_arctan(), [8, 9])
    assert all(s.converged for s in res.solutions) and res.sup_diffs[0] > res.floor
    assert res.verdict is HomoclinicVerdict.UNDETERMINED


def test_a_ladder_with_unconverged_waves_is_undetermined():
    cfg = SolverConfig(alpha=0.5, rho=2.0, scheme=INTER, n=24, max_iters=3)
    res = homoclinic(cfg, quartic(), [24, 48, 96])
    assert not any(s.converged for s in res.solutions)
    assert all(t >= 2.0 + res.margin for t in res.t_values)  # energies alone say localized
    assert res.verdict is HomoclinicVerdict.UNDETERMINED


def test_homoclinic_validates_sequence(monkeypatch):
    cfg = small_cfg()
    with pytest.raises(ValueError):
        homoclinic(cfg, quartic(), [9])
    with pytest.raises(ValueError):
        homoclinic(cfg, quartic(), [9, 9])
    # a margin that is not finite and positive is refused before any solve
    monkeypatch.setattr(dnls.solver, "solve", mock.Mock(side_effect=AssertionError("solved")))
    for margin in (math.nan, math.inf, -1.0, 0.0):
        with pytest.raises(ValueError, match="margin must be positive and finite"):
            homoclinic(cfg, quartic(), [9, 17], margin=margin)
    # and so is a size that is not a whole number, which int() would truncate
    with pytest.raises(ValueError, match=r"^n_sequence sizes must be whole numbers, not 9\.7$"):
        homoclinic(cfg, quartic(), [9.7, 17.2])
    with pytest.raises(ValueError, match="not inf"):
        homoclinic(cfg, quartic(), [9, math.inf])
    with pytest.raises(AssertionError, match="solved"):  # whole-number floats reach the solve
        homoclinic(cfg, quartic(), [9.0, 17.0])


def test_t_monotone_in_alpha_and_rho_solver():
    # solver-computed normalized energies follow the analytic monotonicity
    pot = saturable_log()
    t_by_alpha = []
    for alpha in (0.5, 1.0, 2.0):
        sol = solve(SolverConfig(alpha=alpha, rho=2.0, n=9), pot)
        t_by_alpha.append(sol.energies.t_value)
    assert all(b <= a + 1e-6 for a, b in zip(t_by_alpha, t_by_alpha[1:]))
    t_by_rho = []
    for rho in (1.0, 2.0, 4.0):
        sol = solve(SolverConfig(alpha=1.0, rho=rho, n=9), pot)
        t_by_rho.append(sol.energies.t_value)
    assert all(b >= a - 1e-6 for a, b in zip(t_by_rho, t_by_rho[1:]))


def test_power_law_scaling_identity():
    # for dpsi(x) = x, T(alpha, lam^2 rho) = T(alpha/lam^2, rho)
    pot = power_law(1.0, 1.0)
    lam2 = 2.0
    t1 = solve(SolverConfig(alpha=0.8, rho=lam2 * 1.5, n=9), pot).energies.t_value
    t2 = solve(SolverConfig(alpha=0.8 / lam2, rho=1.5, n=9), pot).energies.t_value
    assert t1 == pytest.approx(t2, abs=1e-6)


def test_exp_quadratic_threshold_jump():
    pot = exp_quadratic()
    lo = solve(SolverConfig(alpha=1.0, rho=2.2, n=41), pot)
    hi = solve(SolverConfig(alpha=1.0, rho=2.6, n=41), pot)
    assert lo.energies.p_total - 2 * 2.2 <= 0.05 * 2.2
    assert hi.energies.p_total - 2 * 2.6 >= 0.2 * 2.6


def test_homoclinic_localized_above_threshold():
    cfg = SolverConfig(alpha=1.0, rho=3.0, n=41)
    res = homoclinic(cfg, exp_quadratic(), [41, 81])
    assert res.verdict is HomoclinicVerdict.LOCALIZED
    assert all(s.converged for s in res.solutions)


def test_a_step_with_no_admissible_size_stops_the_run(monkeypatch):
    # every trial leaves the cone, so all _MAX_HALVINGS + 1 sizes are refused
    # and the step hands back its input unchanged: the run stagnates at once
    monkeypatch.setattr(dnls.solver, "cone_slack_values", lambda v, cell: 1.0)
    cfg = SolverConfig(alpha=0.5, rho=2.0, n=9)
    sol = solve(cfg, quartic())
    assert sol.iterations == 1 and not sol.converged
    assert sol.diagnostics.stop_reason == "stagnation"
    assert sol.diagnostics.max_halvings == _MAX_HALVINGS + 1 == 31
    assert sol.diagnostics.min_energy_increment == 0.0
    assert np.array_equal(sol.profile.values, initial_ansatz(cfg, quartic()).values)
