import numpy as np
import pytest

from dnls.lattice import Cell, IndexScheme, Profile


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_cone_profile(rng, scheme, n, scale=1.0):
    """Random non-negative even unimodal profile on a periodic cell."""
    cell = Cell.periodic(scheme, n)
    d = cell.doubled_indices()
    m = int(np.max(np.abs(d))) // 2 + 2
    # non-increasing ladder over |j|
    ladder = np.cumsum(rng.uniform(0.0, 1.0, size=m + 1))[::-1] * scale
    if scheme is IndexScheme.ON_SITE:
        level = np.abs(d) // 2
    else:
        level = (np.abs(d) - 1) // 2
    return Profile(cell, ladder[level])


def random_profile(rng, scheme, n, scale=1.0):
    cell = Cell.periodic(scheme, n)
    return Profile(cell, rng.normal(0.0, scale, size=n))


def stagger(u: Profile) -> Profile:
    """Alternate signs site by site: u_j -> (-1)^j u_j (inter-site: (-1)^(j-1/2))."""
    d = u.cell.doubled_indices()
    if u.cell.scheme is IndexScheme.ON_SITE:
        expo = d // 2
    else:
        expo = (d - 1) // 2
    signs = np.where(expo % 2 == 0, 1.0, -1.0)
    return u.with_values(u.values * signs)
