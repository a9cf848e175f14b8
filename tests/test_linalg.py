"""Subspace arithmetic: canonical forms, Grassmann identity, point
enumeration, quotient coordinates.  Oracles are brute-force vector-set
computations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarspread.gf import standalone
from polarspread.linalg import (
    AmbientMismatch,
    Subspace,
    all_points,
    canonicalize,
    canonicalize_points,
    point_keys,
    quotient_coords,
    rank_reaches,
    rref,
    zero_subspace,
)

FV2 = standalone(2)
FV3 = standalone(3)
FV4 = standalone(4)


def brute_vector_set(sub: Subspace) -> set:
    return {tuple(v) for v in sub.vectors().tolist()}


def test_canonicalize_trivial_cases():
    z = canonicalize(FV2, [], 4)
    assert z.dim == 0
    s = canonicalize(FV2, [[1, 0, 0, 0], [1, 1, 0, 0], [0, 1, 0, 0]], 4)
    assert s.dim == 2
    assert s.mat.tolist() == [[1, 0, 0, 0], [0, 1, 0, 0]]
    one = canonicalize(FV4, [[1, 2]], 2)
    assert one.mat.tolist() == [[1, 2]]


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_canonicalize_order_insensitive(data):
    fv = data.draw(st.sampled_from([FV2, FV3]))
    q = fv.q
    dim = data.draw(st.integers(2, 5))
    nvec = data.draw(st.integers(1, 4))
    rows = np.array(
        data.draw(
            st.lists(
                st.lists(st.integers(0, q - 1), min_size=dim, max_size=dim),
                min_size=nvec,
                max_size=nvec,
            )
        ),
        dtype=np.int64,
    )
    a = canonicalize(fv, rows, dim)
    perm = data.draw(st.permutations(range(nvec)))
    b = canonicalize(fv, rows[list(perm)], dim)
    assert a == b
    # any generating set drawn from the span gives the same matrix
    vecs = a.vectors()
    picks = data.draw(st.lists(st.integers(0, len(vecs) - 1), min_size=a.dim, max_size=6))
    c = canonicalize(fv, vecs[picks], dim)
    if c.dim == a.dim:
        assert c == a


def all_subspaces_gf2_dim4():
    from polarspread.verify import all_subspaces_of_dim

    subs = [zero_subspace(FV2, 4), canonicalize(FV2, np.eye(4, dtype=np.int64), 4)]
    for k in (1, 2, 3):
        for block in all_subspaces_of_dim(FV2, 4, k):
            for mat in block:
                subs.append(Subspace(FV2, 4, mat))
    return subs


def test_grassmann_identity_exhaustive_gf2_4():
    subs = all_subspaces_gf2_dim4()
    assert len(subs) == 67  # 1+15+35+15+1
    for a in subs:
        for b in subs:
            s = a.sum(b)
            i = a.intersect(b)
            assert s.dim + i.dim == a.dim + b.dim


def test_intersect_brute_force_oracle():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = canonicalize(FV2, rng.integers(0, 2, size=(3, 6)), 6)
        b = canonicalize(FV2, rng.integers(0, 2, size=(3, 6)), 6)
        inter = a.intersect(b)
        assert brute_vector_set(inter) == brute_vector_set(a) & brute_vector_set(b)


def test_intersect_self_and_disjoint():
    a = canonicalize(FV2, [[1, 0, 0, 0]], 4)
    b = canonicalize(FV2, [[0, 1, 0, 0]], 4)
    assert a.intersect(a) == a
    assert a.intersect(b).dim == 0
    assert a.sum(b).dim == 2


def test_points_counts_and_uniqueness():
    s = canonicalize(FV4, [[1, 0, 0, 0], [0, 1, 0, 0]], 4)
    pts = s.points()
    assert len(pts) == 5  # (16-1)/3
    keys = point_keys(FV4, pts)
    assert len(set(keys.tolist())) == 5
    assert sorted(keys.tolist()) == keys.tolist()
    # every nonzero vector is a multiple of exactly one emitted point
    vecs = s.vectors()
    nz = vecs[np.any(vecs != 0, axis=1)]
    canon = canonicalize_points(FV4, nz)
    assert set(point_keys(FV4, canon).tolist()) == set(keys.tolist())
    assert len(nz) == 5 * 3


def test_contains():
    s = canonicalize(FV2, [[1, 0, 0, 0], [0, 1, 0, 0]], 4)
    assert s.contains(np.array([1, 1, 0, 0]))
    assert not s.contains(np.array([0, 0, 1, 0]))


def test_ambient_mismatch():
    a = canonicalize(FV2, [[1, 0]], 2)
    b = canonicalize(FV2, [[1, 0, 0]], 3)
    with pytest.raises(AmbientMismatch):
        a.sum(b)


def test_all_points_order():
    pts = all_points(FV2, 3)
    assert pts.tolist() == [
        [0, 0, 1],
        [0, 1, 0],
        [0, 1, 1],
        [1, 0, 0],
        [1, 0, 1],
        [1, 1, 0],
        [1, 1, 1],
    ]


def test_quotient_coords():
    amb = canonicalize(FV2, np.eye(4, dtype=np.int64), 4)
    z = canonicalize(FV2, [[0, 0, 0, 1]], 4)
    basis = np.eye(4, dtype=np.int64)[:3]
    qmap = quotient_coords(FV2, amb, z, basis)
    # vectors of z map to zero
    assert qmap(np.array([0, 0, 0, 1])).tolist() == [0, 0, 0]
    # basis vectors map to unit vectors
    for i in range(3):
        assert qmap(basis[i]).tolist() == np.eye(3, dtype=int)[i].tolist()
    # coset-independence: v and v + z-element map equally
    rng = np.random.default_rng(3)
    for _ in range(20):
        v = rng.integers(0, 2, size=4)
        w = v.copy()
        w[3] ^= 1
        assert qmap(v.astype(np.int64)).tolist() == qmap(w.astype(np.int64)).tolist()


RANK_FIELDS = [standalone(q) for q in (2, 3, 4, 5, 7, 8, 9)]


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_rank_reaches_matches_rref(data):
    """The early-stopping rank test agrees with the full RREF for every k,
    on matrices with zero rows and with more rows than columns."""
    fv = data.draw(st.sampled_from(RANK_FIELDS))
    elems = fv.elements().tolist()
    ncols = data.draw(st.integers(1, 6))
    nrows = data.draw(st.integers(0, 9))
    # zero-heavy entries make dependent and zero rows common
    entry = st.one_of(st.just(0), st.sampled_from(elems))
    row = st.lists(entry, min_size=ncols, max_size=ncols)
    drawn = data.draw(st.lists(row, min_size=nrows, max_size=nrows))
    rows = np.array(drawn, dtype=np.int64).reshape(nrows, ncols)
    if nrows and data.draw(st.booleans()):
        rows[data.draw(st.integers(0, nrows - 1))] = 0
    rank = rref(fv, rows).shape[0]
    before = rows.copy()
    for k in range(ncols + 2):
        assert rank_reaches(fv, rows, k) == (rank >= k)
    assert np.array_equal(rows, before)  # the input is not modified
