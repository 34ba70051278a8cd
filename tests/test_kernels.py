"""Bit-identity of the shared kernels against the formulas they replaced.

The reference formulas below are the ``np.roll`` forms the package used
before its kernels were shared. Every comparison is exact: the kernels must
reproduce them bit for bit, or CLI artifacts would change.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dnls.evolution import _invariants, rhs
from dnls.functionals import (coupling, coupling_values, field_values, flow,
                              grad_p, p_value, residual)
from dnls.lattice import Cell, IndexScheme, Profile, neighbor_sum
from dnls.potentials import CATALOG

reals = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
complexes = st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False)


def roll_neighbor_sum(v):
    return np.roll(v, -1) + np.roll(v, 1)


def dirichlet_neighbor_sum(v):
    out = np.zeros_like(v)
    out[:-1] += v[1:]
    out[1:] += v[:-1]
    return out


def roll_p_value(v, periodic, p, alpha):
    bonds = 2.0 * alpha * v * np.roll(v, -1)
    return math.fsum(np.concatenate([bonds if periodic else bonds[:-1], p.psi(v * v)]))


def roll_coupling(a, periodic):
    if np.iscomplexobj(a):
        if periodic:
            return 2.0 * float(np.real(np.conj(a) @ np.roll(a, -1)))
        return 2.0 * float(np.real(np.conj(a[:-1]) @ a[1:]))
    if periodic:
        return float(2.0 * (a @ np.roll(a, -1)))
    return float(2.0 * (a[:-1] @ a[1:]))


def same_bits(got, ref):
    got, ref = np.asarray(got), np.asarray(ref)
    return got.dtype == ref.dtype and np.array_equal(got, ref) \
        and got.tobytes() == ref.tobytes()


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.lists(reals, min_size=1, max_size=64),
                 st.lists(complexes, min_size=1, max_size=64)))
@example([1.5])  # one-site cell: 2u
@example([2.0 - 3.0j])
def test_neighbor_sum_matches_roll(vals):
    v = np.array(vals)
    assert same_bits(neighbor_sum(v, True), roll_neighbor_sum(v))


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.lists(reals, min_size=1, max_size=64),
                 st.lists(complexes, min_size=1, max_size=64)))
def test_neighbor_sum_truncated_matches_dirichlet(vals):
    v = np.array(vals)
    assert same_bits(neighbor_sum(v, False), dirichlet_neighbor_sum(v))


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(sorted(CATALOG)),
       alpha=st.floats(0.01, 10.0), periodic=st.booleans(),
       vals=st.lists(st.floats(-3.0, 3.0, allow_nan=False), min_size=1, max_size=64))
def test_compensated_energy_matches_roll(name, alpha, periodic, vals):
    v = np.array(vals)
    p = CATALOG[name]()
    assert p_value(v, periodic, p, alpha) == roll_p_value(v, periodic, p, alpha)


@settings(max_examples=300, deadline=None)
@given(periodic=st.booleans(),
       vals=st.one_of(st.lists(reals, min_size=1, max_size=192),
                      st.lists(complexes, min_size=1, max_size=192)))
def test_coupling_matches_roll(periodic, vals):
    a = np.array(vals)
    assert coupling_values(a, periodic) == roll_coupling(a, periodic)


@settings(max_examples=200, deadline=None)
@given(periodic=st.booleans(), complex_=st.booleans(), b=st.integers(1, 40),
       n=st.integers(1, 96), seed=st.integers(0, 2**32 - 1), log_scale=st.floats(-8.0, 3.0))
def test_coupling_of_a_stack_is_the_coupling_of_each_row(periodic, complex_, b, n, seed,
                                                         log_scale):
    rng = np.random.default_rng(seed)
    a = 10.0**log_scale * rng.normal(size=(b, n))
    if complex_:
        a = a + 1j * 10.0**log_scale * rng.normal(size=(b, n))
    got = coupling_values(a, periodic)
    assert same_bits(got, np.array([roll_coupling(row, periodic) for row in a]))


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 64), data=st.data())
def test_profile_coupling_and_hamiltonian_match_roll(n, data):
    v = np.array(data.draw(st.lists(reals, min_size=n, max_size=n)))
    cell = Cell.periodic(IndexScheme.ON_SITE, n)
    assert coupling(Profile(cell, v)) == roll_coupling(v, True)
    a = v + 1j * np.array(data.draw(st.lists(reals, min_size=n, max_size=n)))
    p = CATALOG["saturable-log"]()
    mod2 = a.real**2 + a.imag**2
    ref = 2.0 * 0.7 * float(np.sum(mod2)) - (0.7 * roll_coupling(a, True)
                                             + float(np.sum(p.psi(mod2))))
    assert _invariants(a, mod2, True, p, 0.7)[1] == ref


def grad_values_reference(v, periodic, p, alpha):
    """The gradient of P as the ascent wrote it before it shared ``field_values``."""
    return 2.0 * alpha * neighbor_sum(v, periodic) + 2.0 * p.dpsi(v * v) * v


@settings(max_examples=300, deadline=None, derandomize=True)
@given(name=st.sampled_from(sorted(CATALOG)), periodic=st.booleans(),
       inter=st.booleans(), n=st.integers(1, 64), seed=st.integers(0, 2**32 - 1),
       log_scale=st.floats(-8.0, 1.5), alpha=st.floats(0.01, 10.0))
@example(name="exp-quadratic", periodic=True, inter=False, n=5, seed=0,
         log_scale=1.5, alpha=1.0)  # dpsi overflows to inf
def test_gradient_of_p_is_twice_the_shared_field(name, periodic, inter, n, seed,
                                                 log_scale, alpha):
    p = CATALOG[name]()
    if periodic:
        cell = Cell.periodic(IndexScheme.INTER_SITE if inter else IndexScheme.ON_SITE, n)
    else:  # a truncated lattice of n sites: on-site for odd n, inter-site for even
        cell = Cell.truncated(IndexScheme.ON_SITE if n % 2 else IndexScheme.INTER_SITE, n / 2.0)
    assert cell.size == n
    v = 10.0**log_scale * np.random.default_rng(seed).normal(size=n)
    u = Profile(cell, v)
    with np.errstate(all="ignore"):
        g = grad_values_reference(v, periodic, p, alpha)
        mult, f, res = flow(v, periodic, p, alpha)
        ref_mult = float(g @ v) / float(v @ v)
        ref_f = g - ref_mult * v
        if np.all(np.isfinite(g)):  # a profile holds finite values only
            assert same_bits(grad_p(u, p, alpha).values, g)
        assert same_bits(mult, ref_mult)
        assert same_bits(f, ref_f)
        assert same_bits(res, 0.5 * float(np.max(np.abs(ref_f))))
        assert same_bits(residual(u, 0.5 * mult, p, alpha), res)
        a = v * np.exp(1j * np.linspace(0.0, 3.0, n))
        assert same_bits(rhs(a, periodic, p, alpha),
                         1j * field_values(a, a.real**2 + a.imag**2, periodic, p, alpha))
