import math

import numpy as np
import pytest

from dnls.functionals import (DegenerateProfileError, box_profile, coupling,
                              energy, exp_profile, flow, grad_p, participation_ratio,
                              potential_energy, power, residual, t_lower_bounds)
from dnls.lattice import Cell, IndexScheme, Profile
from dnls.potentials import quartic, saturable_arctan, saturable_log

from conftest import random_cone_profile, random_profile, stagger

ON, INTER = IndexScheme.ON_SITE, IndexScheme.INTER_SITE


def p_of(u, pot, alpha):
    """Independent energy evaluation used as the finite-difference oracle."""
    v = u.values
    lc = 2.0 * float(v @ np.roll(v, -1)) if u.periodic else 2.0 * float(v[:-1] @ v[1:])
    return alpha * lc + float(np.sum(pot.psi(v * v)))


def test_power_examples():
    assert power(Profile(Cell.periodic(ON, 3), np.zeros(3))) == 0.0
    assert power(Profile(Cell.periodic(ON, 3), [1.0, 2.0, 1.0])) == 6.0


def test_power_stagger_invariant(rng):
    u = random_profile(rng, ON, 8)
    assert power(stagger(u)) == pytest.approx(power(u), rel=1e-15)


def test_coupling_constant_cell():
    u = Profile(Cell.periodic(ON, 4), np.ones(4))
    assert coupling(u) == 8.0


def test_coupling_box_profile_closed_form():
    # plateau of 2m+1 sites has 2m interior bonds, each rho/(2m+1), counted
    # twice by the sum over sites
    rho = 3.7
    for m in range(0, 9):
        u = box_profile(ON, rho, m)
        assert coupling(u) == pytest.approx(4 * m / (2 * m + 1) * rho, abs=1e-12)
        assert power(u) == pytest.approx(rho, rel=1e-14)


def test_coupling_box_profile_intersite():
    rho = 2.25
    for m in range(1, 7):
        u = box_profile(INTER, rho, m)
        assert coupling(u) == pytest.approx((2 * m - 1) / m * rho, abs=1e-12)
        assert power(u) == pytest.approx(rho, rel=1e-14)


def test_coupling_exponential_profile_closed_form():
    rho = 10.0
    for zeta in (0.05, 0.2, 0.8, 2.5):
        u = exp_profile(ON, rho, zeta)
        assert coupling(u) == pytest.approx(2 * rho / math.cosh(zeta), abs=1e-10)
        assert power(u) == pytest.approx(rho, rel=1e-13)


def test_potential_energy_examples():
    assert potential_energy(Profile(Cell.periodic(ON, 4), np.zeros(4)), quartic()) == 0.0
    u = Profile(Cell.periodic(ON, 2), [1.0, 1.0])
    assert potential_energy(u, quartic()) == 2.0


def test_potential_energy_superquadratic_scaling(rng):
    pot = saturable_log()
    for _ in range(20):
        u = random_cone_profile(rng, ON, 9)
        lam = rng.uniform(1.0, 5.0)
        w_lam = potential_energy(u.with_values(lam * u.values), pot)
        assert w_lam >= lam**2 * potential_energy(u, pot) - 1e-12


def test_energy_constant_profile():
    alpha, rho = 0.7, 3.0
    for n in (2, 3, 6, 17, 64):
        u = Profile(Cell.periodic(ON, n), np.full(n, math.sqrt(rho / n)))
        eb = energy(u, saturable_arctan(), alpha)
        expect = 2 * alpha * rho + n * float(saturable_arctan().psi(np.float64(rho / n)))
        assert eb.p_total == pytest.approx(expect, rel=1e-14)
        assert eb.t_value > 2.0


def test_energy_quartic_hand_computed():
    u = Profile(Cell.periodic(ON, 4), np.ones(4))
    eb = energy(u, quartic(), 1.0)
    assert eb.power == 4.0
    assert eb.coupling == 8.0
    assert eb.potential_energy == 4.0
    assert eb.p_total == 12.0
    assert eb.t_value == 3.0
    assert eb.hamiltonian == 2 * 4.0 - 12.0


def test_energy_identity_p_2an_h(rng):
    for _ in range(30):
        scheme = ON if rng.random() < 0.5 else INTER
        n = int(rng.integers(2, 20))
        alpha = rng.uniform(0.1, 3.0)
        u = random_profile(rng, scheme, n)
        eb = energy(u, saturable_log(), alpha)
        lhs = eb.hamiltonian + eb.p_total
        rhs = 2 * alpha * eb.power
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_energy_zero_profile_t_value_none():
    eb = energy(Profile(Cell.periodic(ON, 3), np.zeros(3)), quartic(), 1.0)
    assert eb.t_value is None
    assert eb.p_total == 0.0


def test_energy_requires_positive_alpha():
    u = Profile(Cell.periodic(ON, 3), np.ones(3))
    with pytest.raises(ValueError):
        energy(u, quartic(), 0.0)


@pytest.mark.parametrize("call, error, message", [
    (lambda: participation_ratio(Profile(Cell.periodic(ON, 3), np.zeros(3))),
     DegenerateProfileError, "participation ratio undefined for the zero profile"),
    (lambda: box_profile(ON, 1.0, -1), ValueError, "on-site plateau needs m >= 0"),
    (lambda: box_profile(INTER, 1.0, 0), ValueError, "inter-site plateau needs m >= 1"),
    (lambda: exp_profile(ON, 1.0, 0.0), ValueError, "decay rate zeta must be positive"),
    (lambda: exp_profile(INTER, 1.0, -0.5), ValueError, "decay rate zeta must be positive"),
    (lambda: t_lower_bounds(quartic(), 0.0, 1.0, 2, [0.5]), ValueError,
     "alpha, rho must be positive and m_max non-negative"),
    (lambda: t_lower_bounds(quartic(), 1.0, -1.0, 2, [0.5]), ValueError,
     "alpha, rho must be positive and m_max non-negative"),
    (lambda: t_lower_bounds(quartic(), 1.0, 1.0, -1, [0.5]), ValueError,
     "alpha, rho must be positive and m_max non-negative"),
])
def test_functional_refusals(call, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        call()


def test_grad_zero_profile():
    u = Profile(Cell.periodic(ON, 5), np.zeros(5))
    assert np.all(grad_p(u, quartic(), 1.0).values == 0.0)


def test_grad_single_site():
    rho, alpha, n = 4.0, 0.8, 11
    cell = Cell.periodic(ON, n)
    vals = np.zeros(n)
    center = int(np.argmin(np.abs(cell.doubled_indices())))
    vals[center] = math.sqrt(rho)
    g = grad_p(Profile(cell, vals), saturable_log(), alpha).values
    assert g[center] == pytest.approx(2 * saturable_log().dpsi(rho) * math.sqrt(rho), rel=1e-14)
    assert g[center - 1] == pytest.approx(2 * alpha * math.sqrt(rho), rel=1e-14)
    assert g[center + 1] == pytest.approx(2 * alpha * math.sqrt(rho), rel=1e-14)


@pytest.mark.parametrize("scheme", [ON, INTER])
@pytest.mark.parametrize("potname", ["arctan", "log", "quartic"])
def test_grad_matches_finite_differences(scheme, potname, rng):
    pot = {"arctan": saturable_arctan(), "log": saturable_log(),
           "quartic": quartic()}[potname]
    h = 1e-5
    for _ in range(40):
        n = int(rng.integers(2, 16))
        alpha = rng.uniform(0.2, 2.0)
        u = random_profile(rng, scheme, n)
        u = u.with_values(np.abs(u.values) + 0.1)
        eps = rng.normal(size=n)
        eps /= np.linalg.norm(eps)
        fd = (p_of(u.with_values(u.values + h * eps), pot, alpha)
              - p_of(u.with_values(u.values - h * eps), pot, alpha)) / (2 * h)
        g = grad_p(u, pot, alpha).values
        ip = float(g @ eps)
        scale = max(abs(ip), 1e-2 * float(np.linalg.norm(g)))
        assert abs(fd - ip) <= 1e-6 * scale


def test_sigma_single_site():
    rho, n = 2.5, 9
    cell = Cell.periodic(ON, n)
    vals = np.zeros(n)
    vals[int(np.argmin(np.abs(cell.doubled_indices())))] = math.sqrt(rho)
    s = flow(vals, True, saturable_arctan(), 1.3)[0]
    assert s == pytest.approx(2 * saturable_arctan().dpsi(rho), rel=1e-13)


def test_sigma_constant_profile():
    alpha, rho, n = 0.9, 6.0, 8
    u = Profile(Cell.periodic(ON, n), np.full(n, math.sqrt(rho / n)))
    s = flow(u.values, u.periodic, saturable_log(), alpha)[0]
    assert s == pytest.approx(4 * alpha + 2 * saturable_log().dpsi(rho / n), rel=1e-13)


def test_sigma_sign_invariance(rng):
    u = random_profile(rng, INTER, 7)
    u = u.with_values(u.values + 2.0)
    s1 = flow(u.values, u.periodic, quartic(), 1.0)[0]
    s2 = flow(-u.values, u.periodic, quartic(), 1.0)[0]
    assert s1 == pytest.approx(s2, rel=1e-14)


def test_sigma_zero_profile_degenerate():
    with pytest.raises(DegenerateProfileError):
        flow(np.zeros(4), True, quartic(), 1.0)


def test_flow_field_orthogonality(rng):
    # <grad P(u) - sigma(u) u, u> = 0
    for _ in range(30):
        scheme = ON if rng.random() < 0.5 else INTER
        n = int(rng.integers(2, 24))
        alpha = rng.uniform(0.1, 4.0)
        u = random_profile(rng, scheme, n)
        u = u.with_values(u.values + 3.0)
        g = grad_p(u, saturable_arctan(), alpha).values
        s = flow(u.values, u.periodic, saturable_arctan(), alpha)[0]
        ip = float((g - s * u.values) @ u.values)
        assert abs(ip) <= 1e-12 * abs(float(g @ u.values))


def test_residual_zero_profile():
    u = Profile(Cell.periodic(ON, 5), np.zeros(5))
    assert residual(u, 1.7, quartic(), 1.0) == 0.0


def test_residual_constant_profile_exact_frequency():
    alpha, rho, n = 1.1, 5.0, 7
    u = Profile(Cell.periodic(ON, n), np.full(n, math.sqrt(rho / n)))
    freq = 2 * alpha + saturable_arctan().dpsi(rho / n)
    assert residual(u, freq, saturable_arctan(), alpha) <= 1e-14


def test_participation_ratio_limits():
    n = 10
    flat = Profile(Cell.periodic(ON, n), np.ones(n))
    assert participation_ratio(flat) == pytest.approx(1.0, rel=1e-14)
    sharp = np.zeros(n)
    sharp[4] = 2.0
    assert participation_ratio(Profile(Cell.periodic(ON, n), sharp)) == pytest.approx(1 / n, rel=1e-14)


def test_t_lower_bounds_box_floor():
    # best bound dominates the widest plateau, whose normalized coupling is
    # 2 - 2/(2m+1)
    for alpha in (0.5, 1.0, 5.0):
        for rho in (0.5, 2.0):
            b = t_lower_bounds(saturable_log(), alpha, rho, m_max=7, zeta_grid=[0.3])
            assert b >= 2 - 2 / (2 * 7 + 1) - 1e-12


def test_t_lower_bounds_quartic_strict_maximum():
    b = t_lower_bounds(quartic(), 0.5, 2.0, m_max=6, zeta_grid=np.linspace(0.1, 1.5, 15))
    assert b > 2.0


def test_t_lower_bounds_monotone_in_rho():
    for alpha in (0.4, 1.0):
        prev = -np.inf
        for rho in (0.5, 1.0, 2.0, 4.0):
            b = t_lower_bounds(saturable_arctan(), alpha, rho, m_max=5,
                               zeta_grid=[0.1, 0.4, 1.0])
            assert b >= prev - 1e-12
            prev = b


def test_t_lower_bounds_intersite_variant():
    b = t_lower_bounds(quartic(), 0.5, 2.0, m_max=5, zeta_grid=[0.2, 0.6],
                       scheme=INTER)
    assert b > 2.0


def test_energy_breakdown_serialization():
    u = Profile(Cell.periodic(ON, 4), np.ones(4))
    d = energy(u, quartic(), 1.0).to_dict()
    assert sorted(d) == ["coupling", "hamiltonian", "p_total",
                         "potential_energy", "power", "t_value"]
