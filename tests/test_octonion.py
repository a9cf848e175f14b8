"""Zorn multiplication and the point-to-4-space triality leg."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarspread import families as F
from polarspread import octonion
from polarspread.gf import FieldError, standalone
from polarspread.octonion import (
    identity_octonion,
    octonion_norm,
    _class_swap,
    triality_maps,
    triality_points,
    triality_subspace_of_point,
    triality_subspaces,
    zorn_mul,
    zorn_space,
)
from polarspread.linalg import canonicalize, canonicalize_points, isin_sorted, mat_mul
from polarspread.spaces import make_orthogonal, oplus_space
from polarspread.verify import _point_key_blocks

from subspace_helpers import class_swapped, triality_oracle


def test_identity():
    fv = standalone(4)
    e = identity_octonion()
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.integers(0, 4, size=8)
        assert np.array_equal(zorn_mul(fv, e, x), x)
        assert np.array_equal(zorn_mul(fv, x, e), x)


@given(st.sampled_from([2, 3, 4]), st.data())
@settings(max_examples=80, deadline=None)
def test_norm_multiplicative(q, data):
    fv = standalone(q)
    x = np.array(data.draw(st.lists(st.integers(0, q - 1), min_size=8, max_size=8)))
    y = np.array(data.draw(st.lists(st.integers(0, q - 1), min_size=8, max_size=8)))
    lhs = octonion_norm(fv, zorn_mul(fv, x, y))
    rhs = fv.tower.mul(octonion_norm(fv, x), octonion_norm(fv, y))
    assert lhs == rhs


def test_norm_matches_oplus_form_after_isometry():
    from polarspread.spaces import find_isometry
    from polarspread.linalg import all_points

    for q in (2, 3):
        std = oplus_space(q, 4)
        zs = zorn_space(std.fv)
        iso = find_isometry(std, zs)
        for v in all_points(std.fv, 8):
            assert zs.qform(iso.vector(v)) == std.qform(v)


def test_triality_basic_images():
    fv = standalone(2)
    zs = zorn_space(fv)
    x = np.zeros(8, dtype=np.int64)
    x[0] = 1  # [[1,0],[0,0]], N = 0
    (img,) = triality_subspaces(zs, x)
    assert img.dim == 4 and zs.is_ts(img)
    # image = {[[a, v], [0, 0]]}
    for row in img.mat:
        assert not np.any(row[4:])
    with pytest.raises(FieldError):
        triality_subspaces(zs, identity_octonion())  # N = 1, not singular
    with pytest.raises(FieldError):
        triality_subspaces(zs, np.zeros(8, dtype=np.int64))


def test_triality_q2_full_properties():
    fv = standalone(2)
    zs = zorn_space(fv)
    pts = zs.singular_points()
    assert len(pts) == 135
    imgs = triality_subspaces(zs, pts)
    assert len(set(imgs)) == 135
    types = {zs.ts_type(w) for w in imgs}
    assert len(types) == 1
    for i, j in itertools.combinations(range(135), 2):
        non_perp = zs.bform(pts[i], pts[j]) != 0
        disjoint = imgs[i].intersect(imgs[j]).dim == 0
        assert non_perp == disjoint


def test_triality_representative_independent():
    fv = standalone(4)
    zs = zorn_space(fv)
    tw = fv.tower
    p = zs.singular_points()[3]
    for lam in (2, 3):
        assert triality_subspaces(zs, tw.vmul(np.int64(lam), p)) == triality_subspaces(zs, p)


def test_triality_q3_sampled():
    fv = standalone(3)
    zs = zorn_space(fv)
    pts = zs.singular_points()
    rng = np.random.default_rng(2)
    sample = rng.choice(len(pts), size=40, replace=False)
    imgs = dict(zip(sample.tolist(), triality_subspaces(zs, pts[sample])))
    for w in imgs.values():
        assert w.dim == 4 and zs.is_ts(w)
    types = {zs.ts_type(w) for w in imgs.values()}
    assert len(types) == 1
    for i, j in itertools.combinations(sorted(imgs), 2):
        non_perp = zs.bform(pts[i], pts[j]) != 0
        assert non_perp == (imgs[i].intersect(imgs[j]).dim == 0)


def test_conjugated_triality_in_standard_space():
    o8 = oplus_space(2, 4)
    p = o8.singular_points()[0]
    w = triality_subspace_of_point(o8, p)
    assert o8.is_ts(w) and w.dim == 4


def test_triality_maps_are_found_once_per_space():
    space = oplus_space(2, 4)
    maps = triality_maps(space)
    assert triality_maps(space) is maps
    # an equal space built anew is another key: spaces hash by identity
    twin = make_orthogonal(space.fv, space.qcoef, "orthogonal_plus")
    other = triality_maps(twin)
    assert other is not maps and other[1].src is twin
    assert np.array_equal(other[1].matrix, maps[1].matrix)
    with pytest.raises(FieldError):
        triality_maps(oplus_space(2, 2))


# every point family the suite and the benchmark take the triality image of
TRIALITY_FAMILIES = {
    "ex7.4(3)": lambda: F.elliptic_or_o5_partial_ovoid(3, "elliptic_quadric"),
    "ex7.4(4)": lambda: F.elliptic_or_o5_partial_ovoid(4, "elliptic_quadric"),
    "lem7.8(2)": lambda: F.two_quadrics_ovoid(2),
    "lem7.8(3)": lambda: F.two_quadrics_ovoid(3),
    "lem7.8(4)": lambda: F.two_quadrics_ovoid(4),
    "thm7.2(4)": lambda: F.orthovoid_bullet(4, 1, "A6i"),
    "appA(4)": lambda: F.desarguesian_ovoid(4),
    "one point": lambda: F.PointFamily(
        oplus_space(2, 4), oplus_space(2, 4).singular_points()[:1], F.Provenance("test", {})
    ),
}


@pytest.mark.parametrize("name", list(TRIALITY_FAMILIES))
def test_triality_subspaces_match_the_per_point_call(name):
    """The stacked images are the per-point images, one `zorn_mul` per row,
    byte for byte and in order, as is `triality_subspace_of_point` of each
    point, and are what `triality_pointset` keeps."""
    fam = TRIALITY_FAMILIES[name]()
    space = fam.space
    got = triality_subspaces(space, fam.points)
    want = [triality_oracle(space, p) for p in fam.points]
    assert [triality_subspace_of_point(space, p) for p in fam.points] == want
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == w and g.mat.dtype == w.mat.dtype and g.mat.tobytes() == w.mat.tobytes()
    assert F.triality_pointset(fam).members == got
    assert len({space.ts_type(w) for w in got}) == 1


def test_triality_subspaces_refuse_a_zero_row_or_a_nonsingular_point():
    space = oplus_space(4, 4)
    pts = space.singular_points()[:5]
    with pytest.raises(FieldError, match="zero vector"):
        triality_subspaces(space, np.vstack([pts, np.zeros(8, dtype=np.int64)]))
    bad = space.first_nonsingular_point()
    with pytest.raises(FieldError, match="not singular"):
        triality_subspaces(space, np.vstack([pts, bad]))
    with pytest.raises(FieldError, match="not singular"):
        triality_subspace_of_point(space, bad)
    assert triality_subspaces(space, pts[:0]) == []


@pytest.mark.parametrize("name", list(TRIALITY_FAMILIES))
def test_triality_points_invert_the_images(name):
    """The members' points, with the members permuted, are the family's
    points in the same order, canonical; members moved into the other class
    by sigma give the same points, as sigma moves them back."""
    fam = TRIALITY_FAMILIES[name]()
    space = fam.space
    members = triality_subspaces(space, fam.points)
    perm = np.random.default_rng(len(members)).permutation(len(members))
    want = canonicalize_points(space.fv, fam.points)[perm]
    shuffled = [members[i] for i in perm]
    assert np.array_equal(triality_points(space, shuffled), want)
    moved = class_swapped(space, shuffled)
    assert {space.ts_type(w) for w in moved} != {space.ts_type(w) for w in members}
    assert np.array_equal(triality_points(space, moved), want)


def test_triality_points_refuse_other_members(monkeypatch):
    """Members of both classes, a 4-space that is not t.s., a member of the
    wrong dimension, and points whose images do not map back onto the
    members raise FieldError; no members give no points."""
    space = oplus_space(3, 4)
    pts = space.singular_points()[:3]
    members = triality_subspaces(space, pts)
    with pytest.raises(FieldError, match="one class"):
        triality_points(space, members[:2] + class_swapped(space, members[2:]))
    flat = canonicalize(space.fv, np.eye(8, dtype=np.int64)[:4], 8)
    assert not space.is_ts(flat)
    with pytest.raises(FieldError):
        triality_points(space, members + [flat])
    with pytest.raises(FieldError, match="4-spaces"):
        triality_points(space, members + [canonicalize(space.fv, pts[:1], 8)])
    assert triality_points(space, []).shape == (0, 8)
    monkeypatch.setattr(octonion, "triality_subspaces", lambda space, pts: members[::-1])
    with pytest.raises(FieldError, match="not the members"):
        triality_points(space, members)


@pytest.mark.parametrize("q", [2, 3])
def test_the_facts_the_triality_route_rests_on(q):
    """By enumeration in O+(8,q): the images of the singular points are one
    class of the maximal t.s. subspaces, one to one; sigma is an isometry
    that maps that class onto the other; and two t.s. 4-spaces of opposite
    classes share 1 or q^2 + q + 1 points (meet in dimension 1 or 3),
    never 0."""
    space = oplus_space(q, 4)
    fv = space.fv
    pts = space.singular_points()
    images = triality_subspaces(space, pts)
    assert len(set(images)) == len(pts)
    listed = space.maximal_totally_singular()
    kind = space.ts_type(images[0])
    ours = [w for w in listed if space.ts_type(w) == kind]
    theirs = [w for w in listed if space.ts_type(w) != kind]
    assert sorted(images, key=lambda w: w.mat.tobytes()) == sorted(ours, key=lambda w: w.mat.tobytes())
    assert len(ours) == len(theirs) == len(pts)
    zs = triality_maps(space)[0]
    swap = _class_swap(fv)
    assert np.array_equal(mat_mul(fv, mat_mul(fv, swap, zs.gram), swap.T), zs.gram)
    assert set(class_swapped(space, ours)) == set(theirs)
    # incidence of the singular points with each class; shared points of
    # every opposite pair by one product
    keys = space.singular_keys()

    def incidence(subs):
        out = np.zeros((len(subs), len(keys)), dtype=np.float32)
        for lo, block in _point_key_blocks(space, subs):
            assert isin_sorted(block, keys).all()
            out[np.arange(lo, lo + len(block))[:, None], np.searchsorted(keys, block)] = 1
        return out

    shared = (incidence(ours) @ incidence(theirs).T).astype(np.int64)
    assert set(np.unique(shared).tolist()) == {1, q * q + q + 1}
