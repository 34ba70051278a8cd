import io
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dnls.functionals import coupling, power
from dnls.lattice import (_CELL_CACHE, Cell, IndexScheme, Profile, _index_labels,
                          _pav_nonincreasing, _periodic_cell, _wrap_index, _write_csv,
                          cone_slack, in_cone, profile_from_csv, profile_to_csv,
                          project_cone, restrict)

from conftest import random_cone_profile, stagger

ON, INTER = IndexScheme.ON_SITE, IndexScheme.INTER_SITE


def test_cell_indices_examples():
    assert Cell.periodic(ON, 5).indices().tolist() == [-2, -1, 0, 1, 2]
    assert Cell.periodic(ON, 4).indices().tolist() == [-1, 0, 1, 2]
    assert Cell.periodic(INTER, 4).indices().tolist() == [-1.5, -0.5, 0.5, 1.5]
    assert Cell.periodic(INTER, 5).indices().tolist() == [-1.5, -0.5, 0.5, 1.5, 2.5]


@pytest.mark.parametrize("scheme", [ON, INTER])
@pytest.mark.parametrize("n", range(2, 65))
def test_cell_counting_identities(scheme, n):
    cell = Cell.periodic(scheme, n)
    j = cell.indices()
    assert len(j) == n
    assert np.all(np.diff(j) == 1.0)
    # (N-1)/2 <= max <= N/2
    assert (n - 1) / 2 <= j[-1] <= n / 2
    # symmetrized cell: sites within +-D where D = min(-min j, max j)
    d = cell.doubled_indices()
    sym = cell.symmetric_doubled_max()
    assert sym == min(-d[0], d[-1])
    for jj in j[np.abs(d) <= sym]:
        count = int(np.sum(np.abs(j) <= abs(jj)))
        assert count == int(2 * abs(jj) + 1)
    # scheme parity of doubled indices
    if scheme is ON:
        assert np.all(d % 2 == 0)
    else:
        assert np.all(d % 2 != 0)


@pytest.mark.parametrize("scheme", [ON, INTER])
def test_periodic_cells_are_shared(scheme):
    for n in (2, 5, 40):
        cell = Cell.periodic(scheme, n)
        assert Cell.periodic(scheme, n) is cell
        assert Cell.periodic(scheme, np.int64(n)) is cell  # the key is int(n)
        assert cell == Cell(scheme, n=n) and cell.n == n


def cached_geometry(cell):
    return [cell.doubled_indices(), cell.indices(), *cell.fold, *cell.level_coupling]


@pytest.mark.parametrize("scheme", [ON, INTER])
@pytest.mark.parametrize("periodic", [True, False])
def test_cached_geometry_is_built_once_and_read_only(scheme, periodic):
    cell = Cell.periodic(scheme, 7) if periodic else Cell.truncated(scheme, 3.5)
    arrays = cached_geometry(cell)
    assert all(a is b for a, b in zip(arrays, cached_geometry(cell)))
    for a in arrays + [_wrap_index(7)]:
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0
    assert cell.indices().tolist() == (cell.doubled_indices() / 2.0).tolist()


def test_the_periodic_cell_cache_holds_at_most_its_size():
    _periodic_cell.cache_clear()
    cells = [Cell.periodic(scheme, n) for n in range(2, 2 + _CELL_CACHE) for scheme in (ON, INTER)]
    info = _periodic_cell.cache_info()
    assert info.maxsize == _CELL_CACHE and info.currsize == _CELL_CACHE
    # the most recent cells are still shared; an evicted one is built anew, equal
    assert all(Cell.periodic(c.scheme, c.n) is c for c in cells[-_CELL_CACHE:])
    again = Cell.periodic(ON, 2)
    assert again == cells[0] and again is not cells[0]
    assert _periodic_cell.cache_info().currsize == _CELL_CACHE


def test_truncated_cells():
    c = Cell.truncated(ON, 3.0)
    assert list(c.indices()) == [-3, -2, -1, 0, 1, 2, 3]
    c = Cell.truncated(INTER, 2.0)
    assert list(c.indices()) == [-1.5, -0.5, 0.5, 1.5]


def test_cell_validation():
    with pytest.raises(ValueError):
        Cell(ON)
    with pytest.raises(ValueError):
        Cell(ON, n=3, j_max=2.0)
    with pytest.raises(ValueError):
        Cell.periodic(ON, 0)


@pytest.mark.parametrize("make", [lambda: Cell.periodic("onsite", 25),
                                  lambda: Cell.truncated("intersite", 3.0),
                                  lambda: Cell("onsite", n=5)])
def test_cell_refuses_a_scheme_given_as_text(make):
    # text is not an IndexScheme; it once solved the inter-site wave in silence
    with pytest.raises(ValueError, match="scheme must be an IndexScheme, not '(on|inter)site'"):
        make()


@pytest.mark.parametrize("make, message", [
    (lambda: Cell.truncated(ON, 0.0), "truncation half-width must be positive"),
    (lambda: Cell.truncated(INTER, -1.0), "truncation half-width must be positive"),
    # refused when built: it once failed only at its first .size or .indices()
    (lambda: Cell.truncated(INTER, 0.3), r"inter-site truncation must cover \|j\| = 1/2"),
])
def test_cell_refusals(make, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        make()
    assert Cell.truncated(INTER, 0.5).size == 2 and Cell.truncated(ON, 0.3).size == 1


def test_in_cone_examples():
    assert in_cone(Profile(Cell.periodic(ON, 3), [1.0, 2.0, 1.0]))
    assert not in_cone(Profile(Cell.periodic(ON, 3), [2.0, 1.0, 2.0]))
    assert in_cone(Profile(Cell.periodic(INTER, 2), [3.0, 3.0]))
    assert not in_cone(Profile(Cell.periodic(INTER, 2), [3.0, 2.0]))


def test_in_cone_tolerance():
    u = Profile(Cell.periodic(ON, 3), [1.0, 2.0, 1.0 - 1e-13])
    assert not in_cone(u)
    assert in_cone(u, tol=1e-12)
    assert cone_slack(u) == pytest.approx(1e-13, rel=1e-3)


def test_project_cone_idempotent_on_members(rng):
    for scheme, n in [(ON, 9), (ON, 8), (INTER, 8), (INTER, 7)]:
        u = random_cone_profile(rng, scheme, n)
        v = project_cone(u)
        assert np.allclose(v.values, u.values, atol=1e-14)


def test_project_cone_symmetrizes():
    u = Profile(Cell.periodic(ON, 3), [0.0, 1.0, 0.5])
    v = project_cone(u)
    assert np.allclose(v.values, [0.25, 1.0, 0.25])


def test_project_cone_clips_negative():
    u = Profile(Cell.periodic(ON, 5), -np.ones(5))
    assert np.all(project_cone(u).values == 0.0)


@settings(max_examples=60, deadline=None)
@given(vals=st.lists(st.floats(-5, 5, allow_nan=False), min_size=2, max_size=12))
def test_project_cone_lands_in_cone(vals):
    n = len(vals)
    for scheme in (ON, INTER):
        u = Profile(Cell.periodic(scheme, n), np.array(vals))
        assert in_cone(project_cone(u), tol=1e-12)


def test_project_cone_matches_weighted_isotonic_oracle(rng):
    sklearn = pytest.importorskip("sklearn.isotonic")
    for _ in range(25):
        n = int(rng.integers(3, 12))
        scheme = ON if rng.random() < 0.5 else INTER
        cell = Cell.periodic(scheme, n)
        u = Profile(cell, rng.normal(0, 2, size=n))
        got = project_cone(u).values

        # oracle: symmetrize, clip, then weighted non-increasing isotonic fit
        v = u.values.copy()
        d = cell.doubled_indices()
        sym = cell.symmetric_doubled_max()
        mask = np.abs(d) <= sym
        block = v[mask]
        v[mask] = 0.5 * (block + block[::-1])
        v = np.clip(v, 0.0, None)
        right = d >= 0
        w = np.where((d[right] > 0) & (d[right] <= sym), 2.0, 1.0)
        fit = sklearn.isotonic_regression(v[right], sample_weight=w, increasing=False)
        expect = v.copy()
        expect[right] = fit
        mirror = (d < 0) & mask
        expect[mirror] = fit[np.searchsorted(d[right], -d[mirror])]
        assert np.allclose(got, expect, atol=1e-12)


def minmax_isotonic_nonincreasing(y, w):
    """Weighted non-increasing isotonic fit by the min-max formula.

    yhat_i = min over j <= i of max over k >= i of the weighted mean of
    y_j..y_k; O(n^3), independent of any pooling order.
    """
    n = y.size
    wy = np.concatenate([[0.0], np.cumsum(w * y)])
    ws = np.concatenate([[0.0], np.cumsum(w)])

    def mean(j, k):
        return (wy[k + 1] - wy[j]) / (ws[k + 1] - ws[j])
    return np.array([min(max(mean(j, k) for k in range(i, n)) for j in range(i + 1))
                     for i in range(n)])


@settings(max_examples=200, deadline=None)
@given(data=st.lists(st.tuples(st.floats(-5, 5, allow_nan=False), st.floats(0.1, 4.0)),
                     min_size=1, max_size=12))
def test_pav_matches_minmax_oracle(data):
    y = np.array([a for a, _ in data])
    w = np.array([b for _, b in data])
    fit = _pav_nonincreasing(y, w)
    assert np.all(np.diff(fit) <= 0.0)
    assert np.allclose(fit, minmax_isotonic_nonincreasing(y, w), rtol=0, atol=1e-12)


def test_project_cone_matches_minmax_isotonic_oracle(rng):
    for _ in range(40):
        n = int(rng.integers(2, 12))
        scheme = ON if rng.random() < 0.5 else INTER
        cell = Cell.periodic(scheme, n)
        u = Profile(cell, rng.normal(0, 2, size=n))
        got = project_cone(u).values

        # symmetrize and clip, fit the right half with mirrored pairs weighted 2
        v = u.values.copy()
        d = cell.doubled_indices()
        sym = cell.symmetric_doubled_max()
        mask = np.abs(d) <= sym
        v[mask] = 0.5 * (v[mask] + v[mask][::-1])
        v = np.clip(v, 0.0, None)
        right = d >= 0
        w = np.where((d[right] > 0) & (d[right] <= sym), 2.0, 1.0)
        fit = minmax_isotonic_nonincreasing(v[right], w)
        expect = v.copy()
        expect[right] = fit
        mirror = (d < 0) & mask
        expect[mirror] = fit[np.searchsorted(d[right], -d[mirror])]
        assert np.allclose(got, expect, rtol=0, atol=1e-12)


def fold_cells():
    cells = [Cell.periodic(scheme, n) for scheme in (ON, INTER) for n in range(1, 65)]
    cells += [Cell.truncated(ON, j) for j in (0.5, 1.0, 3.0, 7.5, 20.0)]
    cells += [Cell.truncated(INTER, j) for j in (0.5, 1.0, 3.0, 7.5, 20.0)]
    return cells


def cell_id(cell):
    return f"{cell.scheme.value}-" + (f"N{cell.n}" if cell.is_finite else f"jmax{cell.j_max:g}")


@pytest.mark.parametrize("cell", fold_cells(), ids=cell_id)
def test_fold_matches_a_per_site_mirror_search(cell):
    site_level, mult, right = cell.fold
    d = cell.doubled_indices().tolist()
    levels = sorted({abs(x) for x in d})
    for i, x in enumerate(d):
        mirror = [k for k, y in enumerate(d) if y == -x]
        assert site_level[i] == levels.index(abs(x))
        assert right[i] == (x >= 0)
        if mirror:
            assert site_level[mirror[0]] == site_level[i]
        assert mult[site_level[i]] == (2.0 if mirror and x != 0 else 1.0)
    assert mult.dtype == float and mult.sum() == len(d)
    # the right half lists the levels in order
    assert [abs(x) for x, r in zip(d, right) if r] == levels
    for a in (site_level, mult, right):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = a[0]
    assert cell.fold is cell.fold  # computed once per cell


def reference_level_coupling(cell):
    """The bond weights of ``Cell.level_coupling`` by a loop over the cell's bonds."""
    site_level, mult, _ = cell.fold
    n = site_level.size
    self_w, pair_w = np.zeros(mult.size), np.zeros(mult.size - 1)
    for i in range(n if cell.is_finite else n - 1):  # a periodic cell closes with (N-1, 0)
        k, m = sorted((site_level[i], site_level[(i + 1) % n]))
        assert m - k <= 1  # a bond joins equal or adjacent levels
        if k == m:
            self_w[k] += 2.0
        else:
            pair_w[k] += 2.0
    return self_w, pair_w


@pytest.mark.parametrize("cell", fold_cells(), ids=cell_id)
def test_level_coupling_matches_a_loop_over_bonds(cell):
    got = cell.level_coupling
    for g, w in zip(got, reference_level_coupling(cell)):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
        assert not g.flags.writeable
    # the weights give L of the even profile with amplitudes a on the levels
    self_w, pair_w = got
    a = np.random.default_rng(cell.size).uniform(0.1, 2.0, size=self_w.size)
    expect = coupling(Profile(cell, a[cell.fold[0]]))
    assert self_w @ a**2 + pair_w @ (a[:-1] * a[1:]) == pytest.approx(expect, rel=1e-13)


def test_fold_keeps_cell_equality_and_hash():
    a, b = Cell.periodic(INTER, 7), Cell.periodic(INTER, 7)
    a.fold  # fills the cache of a only
    assert a == b and hash(a) == hash(b) and {a: 1}[b] == 1
    assert a != Cell.periodic(ON, 7)


def reference_cone_slack(u):
    """Cone slack from the reversed symmetrized block, independent of the fold."""
    v = u.values
    worst = max(0.0, -float(np.min(v)))
    d = u.cell.doubled_indices()
    sym = u.cell.symmetric_doubled_max()
    mask = np.abs(d) <= sym
    block = v[mask]
    if block.size:
        worst = max(worst, float(np.max(np.abs(block - block[::-1]))))
    right = v[d >= 0]
    if right.size >= 2:
        worst = max(worst, float(np.max(np.diff(right))))
    return worst


def reference_project_cone(u):
    """Cone projection with 2/1 weights and a mirror search, independent of the fold."""
    v = u.values.copy()
    d = u.cell.doubled_indices()
    sym = u.cell.symmetric_doubled_max()
    mask = np.abs(d) <= sym
    block = v[mask]
    v[mask] = 0.5 * (block + block[::-1])
    np.clip(v, 0.0, None, out=v)
    right_mask = d >= 0
    right = v[right_mask]
    w = np.where((d[right_mask] > 0) & (d[right_mask] <= sym), 2.0, 1.0)
    fitted = _pav_nonincreasing(right, w)
    v[right_mask] = fitted
    mirror = (d < 0) & mask
    v[mirror] = fitted[np.searchsorted(d[right_mask], -d[mirror])]
    np.clip(v, 0.0, None, out=v)
    return u.with_values(v)


def fold_test_profiles(rng, cell):
    """Random, cone-member, near-cone and signed-zero profiles on a cell."""
    n = cell.size
    level = np.abs(cell.doubled_indices()) // 2
    member = np.cumsum(rng.uniform(0.0, 1.0, size=level.max() + 1))[::-1][level]
    flat = np.full(n, 0.5)
    zeros = np.where(rng.random(n) < 0.5, -0.0, 0.0)
    return [rng.normal(0.0, 2.0, size=n), rng.uniform(-1e-12, 1.0, size=n),
            member, member + rng.normal(0.0, 1e-13, size=n), flat,
            flat + rng.normal(0.0, 1e-15, size=n), zeros, -member,
            np.round(rng.normal(0.0, 1.0, size=n), 1)]


@pytest.mark.parametrize("cell", fold_cells(), ids=cell_id)
def test_cone_slack_and_projection_match_their_references(cell):
    rng = np.random.default_rng(cell.size + 1000 * (cell.scheme is INTER) + cell.is_finite)
    for vals in fold_test_profiles(rng, cell):
        u = Profile(cell, vals)
        got, want = cone_slack(u), reference_cone_slack(u)
        assert got == want and type(got) is float
        if cell.is_finite:
            assert project_cone(u).values.tobytes() == reference_project_cone(u).values.tobytes()
        else:
            v = project_cone(u)
            assert in_cone(v, tol=1e-12)
            assert project_cone(v).values.tobytes() == v.values.tobytes()


def reference_restrict(u, target):
    """restrict as a site-by-site lookup of the doubled index."""
    sym = u.cell.symmetric_doubled_max()
    lookup = {int(dd): val for dd, val in zip(u.cell.doubled_indices(), u.values)
              if abs(dd) <= sym}
    tsym = target.symmetric_doubled_max() if target.is_finite else None
    out = [0.0 if tsym is not None and abs(int(dd)) > tsym else lookup.get(int(dd), 0.0)
           for dd in target.doubled_indices()]
    return Profile(target, np.array(out))


def test_restrict_matches_a_site_lookup(rng):
    cells = [Cell.periodic(scheme, n) for scheme in (ON, INTER) for n in (1, 2, 5, 8, 13)]
    cells += [Cell.truncated(scheme, j) for scheme in (ON, INTER) for j in (0.5, 3.0, 6.5)]
    for src in cells:
        for target in cells:
            u = Profile(src, rng.normal(size=src.size))
            got, want = restrict(u, target), reference_restrict(u, target)
            assert got.cell == target
            assert got.values.tobytes() == want.values.tobytes()


def test_restrict_even_cell_example():
    u = Profile(Cell.periodic(ON, 4), [1.0, 2.0, 3.0, 4.0])  # a,b,c,d on -1,0,1,2
    out = restrict(u, Cell.truncated(ON, 5.0))
    j = out.cell.indices()
    assert out.values[j == 0][0] == 2.0
    assert out.values[j == -1][0] == 1.0
    assert out.values[j == 1][0] == 3.0
    assert np.all(out.values[np.abs(j) > 1] == 0.0)


def test_restrict_preserves_cone_and_norm(rng):
    for scheme, n in [(ON, 11), (ON, 10), (INTER, 10), (INTER, 9)]:
        u = random_cone_profile(rng, scheme, n)
        out = restrict(u, Cell.truncated(scheme, n))
        assert in_cone(out, tol=1e-14)
        assert power(out) <= power(u) + 1e-12


def test_embed_round_trip_compact_support():
    cell = Cell.truncated(ON, 6.0)
    j = cell.indices()
    vals = np.where(np.abs(j) <= 2, 3.0 - np.abs(j), 0.0)
    u = Profile(cell, vals)
    per = restrict(u, Cell.periodic(ON, 9))
    back = restrict(per, cell)
    assert np.allclose(back.values, u.values)


def test_embed_nonexpansive_and_cone(rng):
    cell = Cell.truncated(ON, 10.0)
    j = np.abs(cell.indices())
    vals = np.exp(-0.7 * j) * 2.0
    u = Profile(cell, vals)
    for n in (5, 6, 9, 12):
        e = restrict(u, Cell.periodic(ON, n))
        assert power(e) <= power(u) + 1e-12
        assert in_cone(e, tol=1e-14)


def test_stagger_examples():
    u = Profile(Cell.periodic(ON, 3), [1.0, 1.0, 1.0])
    assert np.allclose(stagger(u).values, [-1.0, 1.0, -1.0])
    assert np.allclose(stagger(stagger(u)).values, u.values)


def test_stagger_involution_intersite():
    u = Profile(Cell.periodic(INTER, 6), np.arange(1.0, 7.0))
    assert np.allclose(stagger(stagger(u)).values, u.values)
    signs = stagger(Profile(Cell.periodic(INTER, 6), np.ones(6))).values
    assert np.all(np.abs(signs) == 1.0)
    assert np.all(signs[:-1] * signs[1:] == -1.0)


def test_stagger_flips_coupling_on_even_cells(rng):
    # direct evaluation of the coupling sum with alternating signs
    for scheme in (ON, INTER):
        for n in (4, 8, 12):
            u = Profile(Cell.periodic(scheme, n), rng.normal(size=n))
            assert coupling(stagger(u)) == pytest.approx(-coupling(u), rel=1e-12, abs=1e-12)


def test_cone_amplitude_bound(rng):
    # u_j <= ||u|| / sqrt(2|j|+1) on the symmetrized cell
    for scheme, n in [(ON, 15), (ON, 16), (INTER, 14), (INTER, 13)]:
        for _ in range(20):
            u = random_cone_profile(rng, scheme, n, scale=rng.uniform(0.1, 3.0))
            norm = np.sqrt(power(u))
            d = u.cell.doubled_indices()
            sym = u.cell.symmetric_doubled_max()
            j = u.cell.indices()
            for idx in np.flatnonzero(np.abs(d) <= sym):
                bound = norm / np.sqrt(2 * abs(j[idx]) + 1)
                assert u.values[idx] <= bound + 1e-12


def test_cone_is_convex(rng):
    for scheme, n in [(ON, 9), (INTER, 8)]:
        for _ in range(20):
            a = random_cone_profile(rng, scheme, n)
            b = random_cone_profile(rng, scheme, n)
            lam = rng.uniform()
            mix = a.with_values(lam * a.values + (1 - lam) * b.values)
            assert in_cone(mix, tol=1e-12)


@pytest.mark.parametrize("scheme,n", [(ON, 7), (ON, 6), (INTER, 6), (INTER, 5)])
def test_profile_csv_round_trip(scheme, n, rng):
    u = Profile(Cell.periodic(scheme, n), rng.normal(size=n))
    buf = io.StringIO()
    profile_to_csv(u, buf)
    buf.seek(0)
    back = profile_from_csv(buf)
    assert back.cell == u.cell
    assert np.array_equal(back.values, u.values)


def test_profile_csv_round_trip_truncated(rng):
    u = Profile(Cell.truncated(INTER, 4.0), rng.normal(size=8))
    buf = io.StringIO()
    profile_to_csv(u, buf)
    buf.seek(0)
    back = profile_from_csv(buf, periodic=False)
    assert not back.cell.is_finite
    assert np.array_equal(back.values, u.values)


def test_profile_csv_half_integer_format():
    u = Profile(Cell.periodic(INTER, 2), [1.25, 2.5])
    buf = io.StringIO()
    profile_to_csv(u, buf)
    text = buf.getvalue().splitlines()
    assert text[0] == "j,u"
    assert text[1].startswith("-0.5,")
    assert text[2].startswith("0.5,")


@pytest.mark.parametrize("scheme,j_max,label", [(INTER, 100_000.5, "100000.5"),
                                                (INTER, 2.0, "1.5"), (ON, 100_000.0, "100000")])
def test_index_labels_print_every_index_exactly(scheme, j_max, label):
    labels = _index_labels(Cell.truncated(scheme, j_max))
    assert labels[-1] == label and labels[0] == "-" + label
    assert [float(x) for x in labels] == Cell.truncated(scheme, j_max).indices().tolist()


def test_csv_cells_are_text_as_given_and_numbers_as_plain_floats():
    buf = io.StringIO()
    _write_csv(buf, ["a", "b", "c"], [["x", np.float64(0.1) / 3, 2], ("y", 1e300, np.int64(-3))])
    assert buf.getvalue().splitlines() == ["a,b,c", f"x,{0.1 / 3!r},2.0", "y,1e+300,-3.0"]
    assert not buf.closed  # a borrowed buffer stays open


@pytest.mark.parametrize("text, periodic, message", [
    ("x,u\n0,1.0\n", None, "expected CSV header 'j,u'"),
    ("j,u\n", None, "the CSV holds no site rows"),
    ("j,u\n0\n", None, r"CSV row 2 must hold two finite numbers, not \['0'\]"),
    ("j,u\n0,1.0,2\n", None,
     r"CSV row 2 must hold two finite numbers, not \['0', '1.0', '2'\]"),
    ("j,u\n0,1.0\nnan,1.0\n", None,
     r"CSV row 3 must hold two finite numbers, not \['nan', '1.0'\]"),
    ("j,u\n0,inf\n", None, r"CSV row 2 must hold two finite numbers, not \['0', 'inf'\]"),
    ("j,u\n0,x\n", None, r"CSV row 2 must hold two finite numbers, not \['0', 'x'\]"),
    ("j,u\n-0.25,1.0\n0.25,1.0\n", None, "indices must be integers or half-integers"),
    ("j,u\n-0.5,1.0\n0,1.0\n0.5,1.0\n", None, "mixed integer and half-integer indices"),
    ("j,u\n-1,1.0\n0,1.0\n1,1.0\n2,1.0\n3,1.0\n", True,
     "index list is not a periodicity cell"),
    ("j,u\n-1,1.0\n0,1.0\n1,1.0\n2,1.0\n3,1.0\n", None,
     "index list is not a symmetric truncated lattice"),
])
def test_profile_from_csv_refuses_what_no_cell_holds(text, periodic, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{message}$"):
            profile_from_csv(io.StringIO(text), periodic=periodic)


def test_profile_validation():
    with pytest.raises(ValueError):
        Profile(Cell.periodic(ON, 3), [1.0, 2.0])
    with pytest.raises(ValueError):
        Profile(Cell.periodic(ON, 2), [np.nan, 1.0])
