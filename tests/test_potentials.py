import math
import os
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dnls.potentials
from dnls.potentials import (CATALOG, SLACK, AssumptionReport, Check, Violation,
                             Potential, check_assumptions, exp_quadratic,
                             nonconvex_rational, parse_potential_spec, power_law,
                             quartic, saturable_arctan, saturable_log)
from dnls.solver import SolverConfig, _d2psi, solve

ROOT = Path(__file__).resolve().parents[1]


def test_power_law_psi_value():
    # psi(x) = c x^(1+eta)/(1+eta): eta=1, c=1 at x=2 -> 2^2/2
    assert power_law(1.0, 1.0).psi(2.0) == pytest.approx(2.0, abs=1e-15)


def test_saturable_log_psi_value():
    assert saturable_log().psi(1.0) == pytest.approx(1.0 - math.log(2.0), rel=1e-14)


def test_saturable_arctan_normalized():
    assert saturable_arctan().psi(0.0) == 0.0


@pytest.mark.parametrize("p,x,expected", [
    (power_law(2.0, 1.0), 3.0, 9.0),
    (saturable_log(), 1.0, 0.5),
    (nonconvex_rational(), 1.0, 1.0),
    (saturable_arctan(), 1.0, 0.5),
    (quartic(), 2.0, 32.0),
])
def test_dpsi_values(p, x, expected):
    assert p.dpsi(x) == pytest.approx(expected, rel=1e-14)


def test_exp_quadratic_dpsi_matches_series():
    # dpsi(x) = e^x - x - 1 ~ x^2/2 for small x
    x = 1e-4
    assert exp_quadratic().dpsi(x) == pytest.approx(x * x / 2.0, rel=1e-3)


def test_vectorized_evaluation():
    xs = np.linspace(0.0, 5.0, 11)
    out = quartic().psi(xs)
    assert out.shape == xs.shape
    assert np.allclose(out, xs**4)


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_catalog_normalization_exact(name):
    p = CATALOG[name]()
    assert p.psi(0.0) == 0.0
    assert p.dpsi(0.0) == 0.0


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_catalog_passes_assumptions(name):
    report = check_assumptions(CATALOG[name](), x_max=100.0, samples=1000)
    assert report.passed, report.violations[:5]


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_catalog_superlinear_slack(name):
    p = CATALOG[name]()
    xs = np.geomspace(1e-8, 100.0, 400)
    slack = xs * p.dpsi(xs) - p.psi(xs)
    assert np.min(slack) >= -1e-12


# closed-form psi'' for each catalog entry, kept here only to check the
# solver's central difference of dpsi against
D2PSI_CLOSED_FORMS = [
    (power_law(1.5, 2.0), lambda x: 2.0 * 1.5 * x**0.5),
    (power_law(0.5, 1.0), lambda x: 0.5 * x**-0.5),
    (saturable_log(), lambda x: 1.0 / (1.0 + x) ** 2),
    (saturable_arctan(), lambda x: 2.0 * x / (1.0 + x * x) ** 2),
    (exp_quadratic(), lambda x: math.expm1(x)),
    (nonconvex_rational(), lambda x: 2.0 * x * (3.0 - x * x) / (1.0 + x * x) ** 3),
    (quartic(), lambda x: 12.0 * x * x),
]


@pytest.mark.parametrize("p,closed", [pytest.param(p, f, id=p.label)
                                      for p, f in D2PSI_CLOSED_FORMS])
@pytest.mark.parametrize("x", [1e-3, 0.05, 1.0, 4.0])
def test_solver_d2psi_matches_closed_form(p, closed, x):
    assert _d2psi(p, x) == pytest.approx(closed(x), rel=1e-7)


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_solver_d2psi_is_finite_where_its_step_underflows(name):
    # the relative step 1e-5 * x is subnormal below about 2.2e-303; validate keeps
    # x = rho/N at or above the smallest normal float, where the step is still positive
    p = CATALOG[name]()
    tiny = float(np.finfo(float).tiny)
    for x in (tiny, 2.0 * tiny, 1e-305):
        assert math.isfinite(_d2psi(p, x)), x


def test_flat_lambda1_keeps_its_central_difference():
    # _d2psi, which _flat_lambda1 reads, is bit for bit the central difference
    p = saturable_log()
    for x in (1e-3, 0.5, 3.0):
        h = 1e-5 * x
        ref = float(p.dpsi(np.float64(x + h)) - p.dpsi(np.float64(x - h))) / ((x + h) - (x - h))
        assert _d2psi(p, x) == ref


def test_power_family_passes():
    for eta, c in [(0.5, 1.0), (1.0, 2.0), (3.0, 0.1)]:
        assert check_assumptions(power_law(eta, c), 50.0, 600).passed


def test_sqrt_potential_fails_near_zero():
    p = Potential("sqrt", lambda x: np.sqrt(x),
                  lambda x: np.where(x > 0, 0.5 / np.sqrt(np.maximum(x, 1e-300)), np.inf))
    report = check_assumptions(p, x_max=100.0, samples=500)
    assert not report.passed
    kinds = {v.check for v in report.violations}
    assert Check.NORMALIZATION in kinds
    assert Check.SUPER_LINEARITY in kinds
    # the offending points sit near zero
    xs = [v.x for v in report.violations if v.check is Check.SUPER_LINEARITY]
    assert min(xs) < 1e-4


def test_zero_potential_fails_degeneracy():
    p = Potential("zero", lambda x: 0.0 * x, lambda x: 0.0 * x)
    report = check_assumptions(p, x_max=10.0, samples=200)
    assert not report.passed
    assert {v.check for v in report.violations} == {Check.NON_DEGENERACY}


def test_inconsistent_pair_caught_by_fd_check():
    p = Potential("bad-derivative", lambda x: x * x, lambda x: 3.0 * x)
    report = check_assumptions(p, x_max=10.0, samples=200)
    assert any(v.check is Check.CONSISTENCY for v in report.violations)


def test_report_passed_iff_no_violations():
    good = check_assumptions(quartic(), 10.0, 100)
    assert good.passed and not good.violations
    bad = check_assumptions(Potential("custom", lambda x: -x, lambda x: -1.0 + 0 * x),
                            10.0, 100)
    assert not bad.passed and bad.violations


@settings(max_examples=40, deadline=None)
@given(a=st.floats(0.01, 100.0), b=st.floats(0.01, 100.0), c=st.floats(0.01, 3.0))
def test_scaling_closure(a, b, c):
    # a*psi(b*x^(1+c)) with its chain-rule derivative stays admissible
    base = saturable_log()
    scaled = Potential(
        "scaled",
        lambda x, a=a, b=b, c=c: a * base.psi(b * x ** (1.0 + c)),
        lambda x, a=a, b=b, c=c: a * base.dpsi(b * x ** (1.0 + c)) * b * (1.0 + c) * x**c,
    )
    assert check_assumptions(scaled, x_max=5.0, samples=200).passed


def test_psi_superhomogeneous_in_lambda():
    # psi(lam*x) >= lam*psi(x) for lam >= 1 (lam*x kept below exp overflow)
    for name in sorted(CATALOG):
        p = CATALOG[name]()
        xs = np.geomspace(1e-4, 30.0, 60)
        for lam in (1.0, 1.5, 4.0, 20.0):
            lhs = p.psi(lam * xs)
            rhs = lam * p.psi(xs)
            assert np.all(lhs - rhs >= -1e-10 * np.maximum(1.0, np.abs(rhs)))


def test_parse_potential_spec():
    assert parse_potential_spec("quartic").label == "quartic"
    p = parse_potential_spec("power:eta=1.5,c=2")
    assert p.label == "power:eta=1.5,c=2.0"
    assert p.dpsi(4.0) == pytest.approx(2.0 * 4.0**1.5, rel=1e-14)
    with pytest.raises(ValueError):
        parse_potential_spec("cubic-nonsense")
    with pytest.raises(ValueError, match="unknown power potential keys: et;"):
        parse_potential_spec("power:et=2")
    with pytest.raises(ValueError, match="unknown power potential keys: d, e;"):
        parse_potential_spec("power:eta=2,e=1,d=3")
    # a repeated key was silently overridden by its last value
    with pytest.raises(ValueError, match="^repeated power potential key: eta$"):
        parse_potential_spec("power:eta=1,c=1,eta=2")
    with pytest.raises(ValueError, match="^repeated power potential key: c$"):
        parse_potential_spec("power:c=1, c=1")
    # a value that is not a number failed with float's bare message
    with pytest.raises(ValueError, match="^power potential key eta needs a number, not ''$"):
        parse_potential_spec("power:eta=")
    with pytest.raises(ValueError, match="^power potential key eta needs a number, not ''$"):
        parse_potential_spec("power:eta")
    with pytest.raises(ValueError, match="^power potential key c needs a number, not 'x'$"):
        parse_potential_spec("power:eta=2,c=x")
    with pytest.raises(ValueError, match="finite eta > 0 and c > 0, not eta=nan, c=1.0"):
        parse_potential_spec("power:eta=nan")
    with pytest.raises(ValueError, match="not eta=1.5, c=inf"):
        parse_potential_spec("power:eta=1.5,c=inf")
    with pytest.raises(ValueError, match="not eta=-inf"):
        parse_potential_spec("power:eta=-inf")


@pytest.mark.parametrize("x_max", [1e-9, 1e-90])
@pytest.mark.parametrize("p", [CATALOG[name]() for name in sorted(CATALOG)]
                         + [power_law(0.5), power_law(1.5, 2.0)], ids=lambda p: p.label)
def test_check_assumptions_samples_nothing_above_x_max(p, x_max):
    # every sample, and so every violation, lies in (0, x_max]
    report = check_assumptions(p, x_max=x_max, samples=400)
    assert report.grid.startswith(f"geometric {x_max:g}..{x_max:g} plus uniform")
    assert all(v.x <= x_max for v in report.violations)


# quartic's x**4 underflows at 1e-90; the saturable and exponential forms lose
# psi to cancellation below about 1e-8, so their verdicts there are not pinned
@pytest.mark.parametrize("p,x_max", [(quartic(), 1e-9), (nonconvex_rational(), 1e-9),
                                     (nonconvex_rational(), 1e-90), (power_law(0.5), 1e-90),
                                     (power_law(1.5, 2.0), 1e-90)])
def test_tiny_x_max_blames_no_sound_potential(p, x_max):
    # psi positive but below the rounding noise of O(x) terms is no degeneracy
    report = check_assumptions(p, x_max=x_max, samples=400)
    assert report.passed, report.violations[:3]


def test_check_assumptions_validates_arguments():
    for x_max in (-1.0, 0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="x_max must be positive and finite"):
            check_assumptions(quartic(), x_max, 100)
    with pytest.raises(ValueError):
        check_assumptions(quartic(), 1.0, 1)


def test_nonzero_psi_at_zero_is_a_normalization_violation():
    report = check_assumptions(Potential("custom", lambda x: 1.0 + x * x, lambda x: 2.0 * x),
                               10.0, 200)
    at_zero = [v for v in report.violations if v.check is Check.NORMALIZATION]
    assert [(v.x, v.lhs, v.rhs) for v in at_zero] == [(0.0, 1.0, 0.0)]


def test_overflowing_samples_are_normalization_violations():
    # expm1(1000 x) overflows above x = log(DBL_MAX)/1000, about 0.71
    p = Potential("custom", lambda x: np.expm1(1000.0 * x) - 1000.0 * x,
                  lambda x: 1000.0 * np.expm1(1000.0 * x))
    report = check_assumptions(p, x_max=10.0, samples=200)
    bad = [v for v in report.violations if v.check is Check.NORMALIZATION]
    assert bad and all(v.x > 0.7 and not math.isfinite(v.lhs) for v in bad)


def test_psi_vanishing_above_a_positive_value_is_degenerate():
    p = Potential("custom", lambda x: np.where(x < 1.0, x * x, 0.0),
                  lambda x: np.where(x < 1.0, 2.0 * x, 0.0))
    report = check_assumptions(p, x_max=10.0, samples=200)
    assert report.violations
    assert {v.check for v in report.violations} == {Check.NON_DEGENERACY}
    assert min(v.x for v in report.violations) == 1.0


def test_check_assumptions_warns_nothing_where_psi_overflows():
    # x * dpsi overflows for exp-quadratic far out; the check must stay silent
    expected = check_assumptions(exp_quadratic(), x_max=1000.0, samples=1000)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = check_assumptions(exp_quadratic(), x_max=1000.0, samples=1000)
    assert repr(report) == repr(expected)  # the same violations, inf and nan included
    assert not report.passed and len(report.violations) == 171


def test_violation_writes_a_non_finite_side_as_null():
    v = Violation(2.0, Check.SUPER_LINEARITY, math.inf, math.nan).to_dict()
    assert v == {"x": 2.0, "check": "super-linearity", "lhs": None, "rhs": None}
    assert Violation(2.0, Check.NON_NEGATIVITY, -1.0, 0.0).to_dict()["lhs"] == -1.0


def test_psi_that_raises_at_zero_is_a_normalization_violation():
    # psi and dpsi refuse x = 0 itself but are sound on (0, x_max]
    def at_zero_refused(f):
        def g(x):
            if np.any(np.asarray(x) == 0.0):
                raise ZeroDivisionError("undefined at 0")
            return f(x)
        return g

    report = check_assumptions(Potential("custom", at_zero_refused(lambda x: x * x),
                                         at_zero_refused(lambda x: 2.0 * x)), 10.0, 200)
    assert [v.to_dict() for v in report.violations] == [
        {"x": 0.0, "check": "normalization", "lhs": None, "rhs": 0.0}] * 2


def reference_check_assumptions(p, x_max, samples):
    """check_assumptions as a plain loop over the samples: the reference for its masks."""
    n_geo = samples // 2
    n_lin = samples - n_geo
    geo_lo = min(1e-8, x_max)
    geo = np.geomspace(geo_lo, x_max, max(n_geo, 2))
    lin = np.linspace(x_max / n_lin, x_max, max(n_lin, 2))
    xs = np.unique(np.concatenate([geo, lin]))
    violations = []

    def bad(x, check, lhs, rhs):
        violations.append(Violation(float(x), check, float(lhs), float(rhs)))

    try:
        psi0 = float(p.psi(np.asarray(0.0)))
        dpsi0 = float(p.dpsi(np.asarray(0.0)))
    except (ArithmeticError, ValueError):
        psi0, dpsi0 = np.nan, np.nan
    if not np.isfinite(psi0) or abs(psi0) > SLACK:
        bad(0.0, Check.NORMALIZATION, psi0, 0.0)
    if not np.isfinite(dpsi0) or abs(dpsi0) > SLACK:
        bad(0.0, Check.NORMALIZATION, dpsi0, 0.0)

    with np.errstate(all="ignore"):
        psi_vals = np.asarray(p.psi(xs), dtype=float)
        dpsi_vals = np.asarray(p.dpsi(xs), dtype=float)
        noise = 8.0 * np.finfo(float).eps * xs
        positive = np.flatnonzero(np.isfinite(psi_vals) & (psi_vals > noise))
        first_positive = xs[positive[0]] if positive.size else np.inf
        for x, ps, dps in zip(xs, psi_vals, dpsi_vals):
            if not (np.isfinite(ps) and np.isfinite(dps)):
                bad(x, Check.NORMALIZATION, ps if np.isfinite(dps) else dps, 0.0)
                continue
            if ps < -SLACK:
                bad(x, Check.NON_NEGATIVITY, ps, 0.0)
            if x * dps - ps < -SLACK:
                bad(x, Check.SUPER_LINEARITY, x * dps, ps)
            if ps <= 0.0 and x > first_positive:
                bad(x, Check.NON_DEGENERACY, ps, 0.0)
    if not positive.size and not psi_vals[-1] > 0.0:
        bad(x_max, Check.NON_DEGENERACY, float(psi_vals[-1]), 0.0)

    fd_xs = np.geomspace(0.05 * x_max, x_max, 64)
    h = 6e-6 * fd_xs
    with np.errstate(all="ignore"):
        fd = (np.asarray(p.psi(fd_xs + h), float)
              - np.asarray(p.psi(fd_xs - h), float)) / (2.0 * h)
        exact = np.asarray(p.dpsi(fd_xs), float)
    scale = np.maximum(np.abs(exact), 1e-300)
    rel = np.abs(fd - exact) / scale
    for x, f, e, r in zip(fd_xs, fd, exact, rel):
        if not np.isfinite(r) or r > 1e-6:
            bad(x, Check.CONSISTENCY, f, e)

    grid = (f"geometric {geo_lo:g}..{x_max:g} plus uniform, {xs.size} points; "
            f"fd check on [{0.05 * x_max:g}, {x_max:g}]")
    return AssumptionReport(passed=not violations, violations=violations, grid=grid)


# one pair per check it breaks, one that breaks three at each sample past 0.3,
# a psi that overflows where dpsi stays finite, and a NaN psi, with dpsi infinite past 0.7
VIOLATORS = [
    Potential("negative", lambda x: -x, lambda x: -1.0 + 0.0 * x),
    Potential("sub-linear", np.sqrt, lambda x: 0.5 / np.sqrt(np.maximum(x, 1e-300))),
    Potential("vanishing", lambda x: np.where(x < 0.3, x * x, 0.0),
              lambda x: np.where(x < 0.3, 2.0 * x, 0.0)),
    Potential("turning-negative", lambda x: np.where(x < 0.3, x * x, -x),
              lambda x: np.where(x < 0.3, 2.0 * x, -2.0)),
    Potential("overflowing", lambda x: np.expm1(1000.0 * x) - 1000.0 * x,
              lambda x: 1000.0 * np.expm1(np.minimum(1000.0 * x, 700.0))),
    Potential("nan", lambda x: np.where(x > 0.5, np.nan, x**4),
              lambda x: np.where(x > 0.7, np.inf, 4.0 * x**3)),
    Potential("inconsistent", lambda x: x * x, lambda x: 3.0 * x),
]


# one range's x_max, from below 1e-8 (where the geometric part has no width) to 1e3
X_MAXES = st.floats(-12.0, 3.0).map(lambda e: 10.0 ** e)


@settings(max_examples=300, deadline=None)
@given(p=st.one_of(st.sampled_from([CATALOG[name]() for name in sorted(CATALOG)] + VIOLATORS),
                   st.floats(0.05, 6.0).map(lambda eta: parse_potential_spec(f"power:eta={eta}"))),
       x_max=X_MAXES, samples=st.integers(2, 2000))
def test_check_assumptions_matches_the_loop_reference(p, x_max, samples):
    # the violations, values and order of the loop, nan and inf included
    got = check_assumptions(p, x_max, samples)
    want = reference_check_assumptions(p, x_max, samples)
    same = repr(got) == repr(want)  # a diff of two long reprs takes minutes
    pairs = enumerate(zip(got.violations, want.violations))
    assert same, next(((i, a, b) for i, (a, b) in pairs if repr(a) != repr(b)),
                      (got.grid, len(got.violations), len(want.violations)))


# positive ends: subnormal, around the checks' ranges, and anywhere up to 1e300
ENDS = st.one_of(st.floats(5e-324, 1e-300), st.floats(1e-12, 1e3), st.floats(5e-324, 1e300))


@settings(max_examples=300, deadline=None)
@given(ends=st.lists(st.tuples(ENDS, ENDS), min_size=1, max_size=4),
       n=st.sampled_from([2, 3, 64, 200, 201, 1000]))
@example(ends=[(5e-324, 5e-324), (1e-8, 1e-8)], n=200)  # no width, one end subnormal
@example(ends=[(1e-310, math.nextafter(1e-310, 1.0)), (0.25, 0.25), (3.0, 1.0)], n=64)
@example(ends=[(5e-324, 1e-322), (1.0, 3.0)], n=201)  # a subnormal width: the step rounds to 0
def test_the_grid_helpers_match_numpy_bit_for_bit(ends, n):
    # _linspace per row of a batch, _geomspace per pair of ends
    lo, hi = (np.array(side) for side in zip(*ends))
    lin = dnls.potentials._linspace(lo, hi, np.arange(n, dtype=float))
    for (a, b), l in zip(ends, lin):
        assert dnls.potentials._geomspace(a, b, n).tobytes() == np.geomspace(a, b, n).tobytes()
        assert l.tobytes() == np.linspace(a, b, n).tobytes()


def test_a_range_too_small_for_its_difference_points_is_refused_as_before():
    # below 5e-323, 0.05 * x_max rounds to 0: refused by name before any grid is built
    assert check_assumptions(quartic(), 5e-323, 400).grid.endswith("[4.94066e-324, 4.94066e-323]")
    with mock.patch.object(dnls.potentials, "_linspace", side_effect=AssertionError("grid")):
        for x_max in (math.nextafter(5e-323, 0.0), 1e-323, 5e-324):
            with pytest.raises(ValueError, match=r"^x_max must be at least 5e-323, where its "
                                                 r"finite-difference points from 0\.05 \* "
                                                 rf"x_max are positive, not {x_max}$"):
                check_assumptions(quartic(), x_max, 400)


@settings(max_examples=500, deadline=None)
@given(rho=st.one_of(st.floats(5e-324, 1e-300), st.floats(1e-3, 1e3),
                     st.floats(1.0, sys.float_info.max),
                     st.integers(-1074, 1023).map(lambda e: math.ldexp(1.0, e))))
@example(rho=2.0 ** 1023)
@example(rho=math.nextafter(2.0 ** 1023, math.inf))
@example(rho=math.nextafter(2.0, math.inf))
@example(rho=math.nextafter(1.0, 0.0))
def test_a_rho_is_checked_up_to_the_power_of_two_of_its_octave(rho):
    x, top = dnls.potentials._range_top(rho), max(rho, 1.0)
    if top > 2.0 ** 1023:  # no power of two above it is a float
        assert x == sys.float_info.max
        return
    power = math.frexp(top)[0] == 0.5
    assert math.frexp(x)[0] == 0.5 and top <= x < 2.0 * top  # an exact power of two
    assert (x == top) == power


def reference_require(p, rhos):
    """The loop of ``_require_assumptions`` with nothing kept: the x checked in their
    order, each the least power of two at or above max(rho, 1) and checked once, and
    the message of the first refusal (None when every x passes)."""
    xs = []
    for rho in rhos:
        x = 1.0
        while x < rho:
            x *= 2.0
        if x in xs:
            continue
        xs.append(x)
        failed = sorted({v.check.value for v in check_assumptions(p, x, 400).violations})
        if failed:
            return xs, f"potential violates growth assumptions on [0, {x:.17g}]: {failed}"
    return xs, None


def required(p, rhos):
    """The x_max of each check made by ``_require_assumptions(p, rhos)``, and the
    message of its refusal (None when it passes)."""
    with mock.patch.object(dnls.potentials, "check_assumptions",
                           wraps=check_assumptions) as checker:
        try:
            dnls.potentials._require_assumptions(p, rhos)
            message = None
        except ValueError as err:
            message = str(err)
    return [c.kwargs["x_max"] for c in checker.call_args_list], message


@settings(max_examples=100, deadline=None)
@given(p=st.sampled_from([quartic(), saturable_log(), exp_quadratic(), *VIOLATORS[:3]]),
       rhos=st.lists(st.one_of(st.floats(1e-3, 1200.0), st.sampled_from([1.0, 2.0, 512.0])),
                     min_size=1, max_size=8))
def test_require_assumptions_matches_the_loop_reference(p, rhos):
    # one check per distinct x in first-seen order, none after the first refusal;
    # called again, it checks nothing and refuses alike
    dnls.potentials._KEPT.clear()
    xs, message = required(p, rhos)
    assert (xs, message) == reference_require(p, rhos)
    assert required(p, rhos) == ([], message)


def test_the_first_failing_range_in_the_given_order_is_refused():
    # exp-quadratic passes on [0, 2], fails consistency alone on [0, 512], and more on [0, 1024]
    require = dnls.potentials._require_assumptions
    require(exp_quadratic(), [2.0])
    with pytest.raises(ValueError, match=r"on \[0, 512\]: \['consistency'\]$"):
        require(exp_quadratic(), [2.0, 500.0, 1000.0])
    with pytest.raises(ValueError, match=r"on \[0, 1024\]: \['consistency', 'normalization'"):
        require(exp_quadratic(), [2.0, 1000.0, 500.0])


def test_the_kept_verdicts_are_bounded():
    kept, bound = dnls.potentials._KEPT, dnls.potentials._KEPT_RANGES
    kept.clear()
    xs = [2.0 ** k for k in range(bound + 10)]
    dnls.potentials._require_assumptions(quartic(), xs)
    assert list(kept) == [(quartic(), x) for x in xs[10:]]  # the latest, oldest first
    assert set(kept.values()) == {()}


def test_violators_break_what_they_are_named_for():
    # the reference draws above would not notice a violator that breaks nothing
    kinds = {p.label: {v.check for v in check_assumptions(p, 10.0, 400).violations}
             for p in VIOLATORS}
    assert Check.NON_NEGATIVITY in kinds["negative"]
    assert Check.SUPER_LINEARITY in kinds["sub-linear"]
    assert kinds["vanishing"] == {Check.NON_DEGENERACY}
    assert {Check.NON_NEGATIVITY, Check.SUPER_LINEARITY,
            Check.NON_DEGENERACY} <= kinds["turning-negative"]
    assert Check.NORMALIZATION in kinds["overflowing"] and Check.NORMALIZATION in kinds["nan"]
    assert kinds["inconsistent"] == {Check.CONSISTENCY}


def test_a_solve_and_a_check_import_nothing_new():
    # np.unique imports numpy.ma on first use; a solve must not pay for that
    script = ("import sys\n"
              "import dnls\n"
              "before = set(sys.modules)\n"
              "dnls.solve(dnls.SolverConfig(alpha=2.0, rho=2.0, n=24,\n"
              "                             scheme=dnls.IndexScheme.INTER_SITE), dnls.quartic())\n"
              "dnls.check_assumptions(dnls.exp_quadratic(), 1000.0, 1000)\n"
              "print(sorted(set(sys.modules) - before))\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


# each callback returns one value at x = 0 and goes wrong only on the grid: one
# value for all samples, one too few (which zip used to pair off silently), or two per sample
@pytest.mark.parametrize("name,psi,dpsi", [
    ("psi", lambda x: 1.0, lambda x: 2.0 * x),
    ("dpsi", lambda x: x * x, lambda x: np.sum(2.0 * x)),
    ("dpsi", lambda x: x * x, lambda x: 2.0 * x[1:] if np.ndim(x) else 2.0 * x),
    ("psi", lambda x: np.stack([x * x, x * x]) if np.ndim(x) else x * x, lambda x: 2.0 * x),
])
def test_one_value_per_sample_or_a_value_error(name, psi, dpsi):
    p = Potential("custom", psi, dpsi)
    with pytest.raises(ValueError, match=f"^{name} must return one value per sample: got shape"):
        check_assumptions(p, 10.0, 200)
    with pytest.raises(ValueError, match=f"^{name} must return one value per sample"):
        solve(SolverConfig(alpha=1.0, rho=2.0, n=5), p)


def test_a_psi_of_the_wrong_shape_at_zero_is_a_value_error():
    # one value for the 0-d probe at x = 0 must be a 0-d value, as on the grid
    p = Potential("custom", lambda x: np.atleast_1d(x * x), lambda x: 2 * x)
    with pytest.raises(ValueError, match=r"^psi must return one value per sample: "
                                         r"got shape \(1,\) for 1 samples$"):
        check_assumptions(p, 10.0, 200)


def test_overflowing_consistency_points_raise_no_warning():
    # psi(x + h) and dpsi(x) both overflow at the last fd point: inf - inf there
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = check_assumptions(exp_quadratic(), 709.785, 400)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        want = reference_check_assumptions(exp_quadratic(), 709.785, 400)
    assert repr(report) == repr(want)
    assert len(report.violations) == 13
    assert report.violations[0].to_dict() == {
        "x": 709.785, "check": "normalization", "lhs": None, "rhs": 0.0}
    assert report.violations[-1].check is Check.CONSISTENCY
