import itertools
import json
import math
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import dnls.solver
from dnls.evolution import relative_equilibrium_check
from dnls.functionals import (DegenerateProfileError, energy, flow, level_energies,
                              p_value, power, residual, sigma)
from dnls.lattice import (Cell, IndexScheme, Profile, cone_slack, in_cone,
                          project_cone)
from dnls.potentials import (CATALOG, check_assumptions, custom, exp_quadratic,
                             nonconvex_rational, power_law, quartic,
                             saturable_arctan, saturable_log)
from dnls.solver import (_CONE_MONITOR_TOL, _GROWTH_EVIDENCE, _MAX_HALVINGS,
                         _NEAR_CONSTANT_TOL, _RES_GROWTH, HomoclinicVerdict,
                         RunDiagnostics, SolverConfig, _energy_slack, _flat_lambda1,
                         _is_near_constant, _run, _step, decay_fit, homoclinic,
                         initial_ansatz, oracle_maximize, solve)

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


def stepped(u, cfg, p):
    """One backtracked ascent step from u, taken whatever its residual."""
    v = u.values
    return _step(v, cfg, p, flow(v, True, p, cfg.alpha), u.cell, cfg.tau)[0]


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
    v, _, _, steps = _run(u.values, cfg, pot, u.cell, RunDiagnostics(), 1)
    assert steps == 1
    after = energy(u.with_values(v), pot, cfg.alpha).p_total
    assert after >= before - 1e-14


def test_iterate_once_preserves_power():
    cfg = SolverConfig(alpha=1.0, rho=10.0, n=25)
    pot = saturable_arctan()
    u = initial_ansatz(cfg, pot)
    for _ in range(5):
        v, _, _, steps = _run(u.values, cfg, pot, u.cell, RunDiagnostics(), 1)
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
    s_flow = sigma(sol.profile, quartic(), cfg.alpha)
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
    bad = custom(lambda x: np.sqrt(x),
                 lambda x: np.where(x > 0, 0.5 / np.sqrt(np.maximum(x, 1e-300)), np.inf))
    with pytest.raises(ValueError, match="growth assumptions"):
        solve(small_cfg(), bad)


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
    v, _, _, steps = _run(initial_ansatz(cfg, p).values.copy(), cfg, p, cell, diag,
                          cfg.max_iters)
    if _is_near_constant(v, cfg) and steps < cfg.max_iters:
        d = np.abs(cell.doubled_indices())
        kicked = v.copy()
        kicked[d == d.min()] += 1e-3 * math.sqrt(cfg.rho)
        kicked *= math.sqrt(cfg.rho / float(kicked @ kicked))
        v2 = _run(kicked, cfg, p, cell, diag, cfg.max_iters - steps)[0]
        if p_value(v2, True, p, cfg.alpha) >= p_value(v, True, p, cfg.alpha):
            v = v2
    return v, diag.stop_reason


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
    # a strongly localized quartic wave: tiny steps at full size above the tolerance
    sol = solve(SolverConfig(alpha=0.28, rho=5.09, n=20), quartic())
    assert sol.diagnostics.stop_reason == "stagnation"
    assert sol.iterations == 59 and not sol.converged and sol.residual > 1e-10


def test_losing_kicked_run_keeps_the_first_stop_reason():
    # the kicked run ends lower and unconverged; the kept run's verdict stands
    cfg = SolverConfig(alpha=0.5, rho=2.0, scheme=INTER, n=3)
    first_stops = []

    def run(v, cfg, p, cell, diag, budget):
        if not first_stops:
            out = _run(v, cfg, p, cell, diag, budget)
            first_stops.append(diag.stop_reason)
            return out
        diag.stop_reason = "max_iters"
        return 0.5 * v, 0.0, 1.0, 1

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


def eager_step(v, cfg, p, flow0, cell, tau):
    """Reference ascent step that evaluates the energy, the cone slack and
    the flow of every trial before deciding on it."""
    sqrt_rho = math.sqrt(cfg.rho)
    base = v * (sqrt_rho / float(np.sqrt(v @ v)))
    p0 = p_value(base, True, p, cfg.alpha)
    res0 = float(np.linalg.norm(flow0[1]))
    res_limit = res0 * (1.0 + _RES_GROWTH) \
        + 8.0 * np.finfo(float).eps * abs(flow0[0]) * sqrt_rho
    halvings = 0
    f = flow0[1]
    for attempt in range(_MAX_HALVINGS + 1):
        w = v + tau * f
        norm = float(np.sqrt(w @ w))
        if norm == 0.0:
            raise DegenerateProfileError("ascent step collapsed to the zero profile")
        w *= sqrt_rho / norm
        p1 = p_value(w, True, p, cfg.alpha)
        slack = cone_slack(Profile(cell, w))
        flow_w = flow(w, True, p, cfg.alpha)
        gain = p1 - p0
        admissible = gain >= -_energy_slack(p0) and slack <= _CONE_MONITOR_TOL
        if admissible and (gain > _GROWTH_EVIDENCE * max(1.0, abs(p1))
                           or float(np.linalg.norm(flow_w[1])) <= res_limit):
            return w, flow_w, p0, p1, slack, tau, halvings
        tau *= 0.5
        halvings = attempt + 1
    return v, flow0, p0, p0, 0.0, tau, halvings


@settings(max_examples=40, deadline=None, derandomize=True)
@given(name=st.sampled_from(sorted(CATALOG)), scheme=st.sampled_from([ON, INTER]),
       n=st.integers(2, 16), alpha=st.floats(0.25, 4.0), rho=st.floats(0.5, 10.0))
def test_lazy_step_matches_eager_step(name, scheme, n, alpha, rho):
    # the step skips the cone test and the flow of trials that an earlier
    # test already rejected; the run must not change by a single bit
    p = CATALOG[name]()
    cfg = SolverConfig(alpha=alpha, rho=rho, scheme=scheme, n=n, max_iters=2000)
    v0 = initial_ansatz(cfg, p).values
    runs = []
    for step in (dnls.solver._step, eager_step):
        diag = RunDiagnostics()
        with mock.patch.object(dnls.solver, "_step", step):
            out = _run(v0.copy(), cfg, p, cfg.cell(), diag, cfg.max_iters)
        runs.append((out, diag))
    (v, sig, res, steps), diag = runs[0]
    (v_ref, sig_ref, res_ref, steps_ref), diag_ref = runs[1]
    assert np.array_equal(v, v_ref)
    assert (sig, res, steps) == (sig_ref, res_ref, steps_ref)
    assert diag == diag_ref


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
    assert sol.sigma == 0.5 * sigma(sol.profile, p, alpha)


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
    d = sol.to_dict(cfg)
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
            "max_halvings": d.max_halvings, "restarted": d.restarted,
            "flat_lambda1": d.flat_lambda1, "stop_reason": d.stop_reason}


def equilibrium_dict_reference(r):
    return {"modulus_drift": r.modulus_drift, "sigma_measured": r.sigma_measured,
            "sigma_mismatch": r.sigma_mismatch, "power_drift_rel": r.power_drift_rel,
            "hamiltonian_drift_rel": r.hamiltonian_drift_rel, "t_end": r.t_end, "dt": r.dt}


def wave_dict_reference(s, cfg=None):
    out = {"sigma": s.sigma, "residual": s.residual, "iterations": s.iterations,
           "converged": s.converged, "in_cone": s.in_cone, "near_constant": s.near_constant,
           "energies": s.energies.to_dict(),
           "decay": s.decay.to_dict() if s.decay else None,
           "diagnostics": s.diagnostics.to_dict()}
    if cfg is not None:
        out = {"config": cfg.to_dict(), **out}
    return out


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
        assert json.dumps(sol.to_dict(cfg)) == json.dumps(wave_dict_reference(sol, cfg))
    report = relative_equilibrium_check(sols[0], saturable_arctan(), 1.0, t_end=0.05, dt=0.01)
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


def test_decay_fit_tail_too_short_for_flat_wave():
    cfg = small_cfg(alpha=50.0, rho=1.0)
    sol = solve(cfg, quartic())
    assert sol.decay is None
    fake = replace(sol, sigma=2 * cfg.alpha + 1.0)
    assert decay_fit(fake, cfg) is None


def test_decay_fit_requires_frequency_gap():
    cfg = small_cfg()
    sol = solve(cfg, quartic())
    slow = replace(sol, sigma=0.5 * cfg.alpha)
    with pytest.raises(ValueError):
        decay_fit(slow, cfg)


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
    # one free ratio scans all grid_points (several blocks from 32,769 on); two use 701
    cfg = SolverConfig(alpha=alpha, rho=rho, scheme=scheme, n=n)
    assert_oracle_matches_six_scans(cfg, CATALOG[name](), grid_points)


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
    with mock.patch.object(dnls.solver, "level_energies", wraps=level_energies) as scorer:
        oracle_maximize(cfg, saturable_log(), grid_points=100)
    # one level (both sites at |j| = 1/2), one profile
    assert scorer.call_count == 1 and scorer.call_args.args[0].shape == (1, 1)


def test_oracle_caps_the_scan_of_one_free_ratio():
    # N=3 has one free ratio: its scan is capped at 701**2 rows, a two-ratio cell's
    cfg = SolverConfig(alpha=1.0, rho=2.0, scheme=ON, n=3)
    with mock.patch.object(dnls.solver, "level_energies", wraps=level_energies) as scorer:
        _, p_best = oracle_maximize(cfg, quartic(), grid_points=10**9)
    rows = sum(call.args[0].shape[1] for call in scorer.call_args_list)
    assert 701**2 <= rows <= 701**2 + 41 * scorer.call_count
    assert p_best == pytest.approx(oracle_maximize(cfg, quartic(), grid_points=20_000)[1],
                                   rel=1e-12)


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
    # the last diffs sit at the solver's noise (about 1e-10 each) and rose by
    # chance from 4.5e-11 to 9.7e-11 on-site and 2.4e-11 to 8.9e-11 inter-site
    cfg = SolverConfig(alpha=1.0, rho=10.0, scheme=scheme, n=n_seq[0])
    res = homoclinic(cfg, saturable_arctan(), n_seq)
    assert all(s.converged for s in res.solutions)
    assert res.floor == 2.0 * dnls.solver._WAVE_ERROR_PER_RESIDUAL * cfg.tol_residual
    assert res.sup_diffs[-1] > res.sup_diffs[-2] and res.sup_diffs[-1] <= res.floor
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
    monkeypatch.setattr(dnls.solver, "cone_slack", lambda u: 1.0)
    cfg = SolverConfig(alpha=0.5, rho=2.0, n=9)
    sol = solve(cfg, quartic())
    assert sol.iterations == 1 and not sol.converged
    assert sol.diagnostics.stop_reason == "stagnation"
    assert sol.diagnostics.max_halvings == _MAX_HALVINGS + 1 == 31
    assert sol.diagnostics.min_energy_increment == 0.0
    assert np.array_equal(sol.profile.values, initial_ansatz(cfg, quartic()).values)
