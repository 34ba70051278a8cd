import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dnls.potentials import (CATALOG, Check, Violation, check_assumptions, custom,
                             exp_quadratic, nonconvex_rational,
                             parse_potential_spec, power_law, quartic,
                             saturable_arctan, saturable_log)
from dnls.solver import _d2psi


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


@pytest.mark.parametrize("p,closed", [pytest.param(p, f, id=p.label)
                                      for p, f in D2PSI_CLOSED_FORMS
                                      if p.label in CATALOG])
def test_solver_d2psi_at_zero_is_one_sided(p, closed):
    # inter-site tails underflow to exactly 0; the power laws are not C^2 there
    assert _d2psi(p, 0.0) == pytest.approx(closed(0.0), abs=1e-8)


def test_flat_lambda1_keeps_its_central_difference():
    # the x > 0 branch, which _flat_lambda1 reads, is bit for bit the central difference
    p = saturable_log()
    for x in (1e-3, 0.5, 3.0):
        h = 1e-5 * x
        ref = float(p.dpsi(np.float64(x + h)) - p.dpsi(np.float64(x - h))) / ((x + h) - (x - h))
        assert _d2psi(p, x) == ref


def test_power_family_passes():
    for eta, c in [(0.5, 1.0), (1.0, 2.0), (3.0, 0.1)]:
        assert check_assumptions(power_law(eta, c), 50.0, 600).passed


def test_sqrt_potential_fails_near_zero():
    p = custom(lambda x: np.sqrt(x),
               lambda x: np.where(x > 0, 0.5 / np.sqrt(np.maximum(x, 1e-300)), np.inf),
               name="sqrt")
    report = check_assumptions(p, x_max=100.0, samples=500)
    assert not report.passed
    kinds = {v.check for v in report.violations}
    assert Check.NORMALIZATION in kinds
    assert Check.SUPER_LINEARITY in kinds
    # the offending points sit near zero
    xs = [v.x for v in report.violations if v.check is Check.SUPER_LINEARITY]
    assert min(xs) < 1e-4


def test_zero_potential_fails_degeneracy():
    p = custom(lambda x: 0.0 * x, lambda x: 0.0 * x, name="zero")
    report = check_assumptions(p, x_max=10.0, samples=200)
    assert not report.passed
    assert {v.check for v in report.violations} == {Check.NON_DEGENERACY}


def test_inconsistent_pair_caught_by_fd_check():
    p = custom(lambda x: x * x, lambda x: 3.0 * x, name="bad-derivative")
    report = check_assumptions(p, x_max=10.0, samples=200)
    assert any(v.check is Check.CONSISTENCY for v in report.violations)


def test_report_passed_iff_no_violations():
    good = check_assumptions(quartic(), 10.0, 100)
    assert good.passed and not good.violations
    bad = check_assumptions(custom(lambda x: -x, lambda x: -1.0 + 0 * x), 10.0, 100)
    assert not bad.passed and bad.violations


@settings(max_examples=40, deadline=None)
@given(a=st.floats(0.01, 100.0), b=st.floats(0.01, 100.0), c=st.floats(0.01, 3.0))
def test_scaling_closure(a, b, c):
    # a*psi(b*x^(1+c)) with its chain-rule derivative stays admissible
    base = saturable_log()
    scaled = custom(
        lambda x, a=a, b=b, c=c: a * base.psi(b * x ** (1.0 + c)),
        lambda x, a=a, b=b, c=c: a * base.dpsi(b * x ** (1.0 + c)) * b * (1.0 + c) * x**c,
        name="scaled",
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
    report = check_assumptions(custom(lambda x: 1.0 + x * x, lambda x: 2.0 * x), 10.0, 200)
    at_zero = [v for v in report.violations if v.check is Check.NORMALIZATION]
    assert [(v.x, v.lhs, v.rhs) for v in at_zero] == [(0.0, 1.0, 0.0)]


def test_overflowing_samples_are_normalization_violations():
    # expm1(1000 x) overflows above x = log(DBL_MAX)/1000, about 0.71
    p = custom(lambda x: np.expm1(1000.0 * x) - 1000.0 * x,
               lambda x: 1000.0 * np.expm1(1000.0 * x))
    report = check_assumptions(p, x_max=10.0, samples=200)
    bad = [v for v in report.violations if v.check is Check.NORMALIZATION]
    assert bad and all(v.x > 0.7 and not math.isfinite(v.lhs) for v in bad)


def test_psi_vanishing_above_a_positive_value_is_degenerate():
    p = custom(lambda x: np.where(x < 1.0, x * x, 0.0), lambda x: np.where(x < 1.0, 2.0 * x, 0.0))
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

    report = check_assumptions(custom(at_zero_refused(lambda x: x * x),
                                      at_zero_refused(lambda x: 2.0 * x)), 10.0, 200)
    assert [v.to_dict() for v in report.violations] == [
        {"x": 0.0, "check": "normalization", "lhs": None, "rhs": 0.0}] * 2
