"""Subspace arithmetic: canonical forms, Grassmann identity, point
enumeration.  Oracles are brute-force vector-set
computations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarspread import gf
from polarspread.gf import PRIMITIVE_POLYS, FieldView, standalone
from polarspread.linalg import (
    AmbientMismatch,
    Subspace,
    all_points,
    canonical_keys,
    canonical_point_blocks,
    canonicalize,
    canonicalize_points,
    extend_basis,
    key_rows,
    mat_mul,
    point_keys,
    rref,
    rref_stack,
)
from subspace_helpers import all_subspaces_of_dim

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
    subs = [Subspace(FV2, 4, np.zeros((0, 4), dtype=np.int64)), canonicalize(FV2, np.eye(4, dtype=np.int64), 4)]
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


def points_oracle(sub: Subspace) -> np.ndarray:
    """The former `Subspace.points`: all q^k vectors, canonicalized, sorted,
    and one row kept per point."""
    vecs = sub.vectors()
    vecs = vecs[np.any(vecs != 0, axis=1)]
    pts = canonicalize_points(sub.fv, vecs)
    keys = point_keys(sub.fv, pts)
    pts = pts[np.argsort(keys, kind="stable")]
    keys = np.sort(keys)
    keep = np.ones(len(pts), dtype=bool)
    keep[1:] = keys[1:] != keys[:-1]
    return pts[keep]


def random_subspace(fv, k: int, n: int, rng) -> Subspace:
    elems = fv.elements()
    while True:
        sub = canonicalize(fv, elems[rng.integers(0, len(elems), size=(k, n))], n)
        if sub.dim == k:
            return sub


def small_views():
    for p, d in sorted(PRIMITIVE_POLYS):
        if p**d <= 256:
            degrees = tuple(e for e in range(1, d + 1) if d % e == 0)
            tw = gf.tower(p, d, degrees)
            yield from ((p, d, FieldView(tw, e)) for e in degrees)


@pytest.mark.parametrize("p,d,fv", list(small_views()), ids=lambda v: str(getattr(v, "degree", v)))
def test_points_match_the_vector_oracle(p, d, fv):
    """One random k-subspace of fv^n for every 1 <= k <= 3, k <= n <= 6
    whose q^k vectors the oracle can hold."""
    rng = np.random.default_rng(p * 1000 + d * 10 + fv.degree)
    q = len(fv.elements())
    for n in range(2, 7):
        for k in range(1, min(3, n) + 1):
            if q**k > 1 << 16:
                continue
            sub = random_subspace(fv, k, n, rng)
            got, want = sub.points(), points_oracle(sub)
            assert got.dtype == want.dtype and np.array_equal(got, want), (n, k)


def test_points_match_the_vector_oracle_gf2048():
    fv = standalone(2048)
    rng = np.random.default_rng(2048)
    for n, k in [(2, 1), (4, 1), (5, 1), (3, 2)]:
        sub = random_subspace(fv, k, n, rng)
        got, want = sub.points(), points_oracle(sub)
        assert got.dtype == want.dtype and np.array_equal(got, want), (n, k)


def test_contains():
    s = canonicalize(FV2, [[1, 0, 0, 0], [0, 1, 0, 0]], 4)
    assert s.contains(np.array([1, 1, 0, 0]))
    assert not s.contains(np.array([0, 0, 1, 0]))


def test_ambient_mismatch():
    a = canonicalize(FV2, [[1, 0]], 2)
    b = canonicalize(FV2, [[1, 0, 0]], 3)
    with pytest.raises(AmbientMismatch):
        a.sum(b)


KEY_VIEWS = [standalone(q) for q in (2, 3, 4, 5, 7, 9)] + [FieldView(gf.tower(2, 6, (3,)), 3)]


@pytest.mark.parametrize("fv", KEY_VIEWS, ids=repr)
def test_canonical_keys_and_key_rows_match_the_point_blocks(fv):
    """The keys made without rows are the `point_keys` of the block
    enumeration, in order, and `key_rows` unpacks them into its rows; a
    subfield view of a larger tower included."""
    for dim in range(1, 5):
        pts = np.vstack(list(canonical_point_blocks(fv, dim, chunk=7)))
        keys = canonical_keys(fv, dim)
        assert np.array_equal(keys, point_keys(fv, pts)), dim
        assert np.array_equal(key_rows(fv, keys, dim), pts), dim
        assert np.array_equal(all_points(fv, dim), pts), dim
    assert key_rows(fv, np.zeros(0, dtype=np.int64), 3).shape == (0, 3)


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


def extend_basis_oracle(fv, base, rows, k):
    """The loop `ZProjection` and `conic_replace` ran before `extend_basis`:
    take a row when one rank test says it is independent of those chosen."""
    taken, chosen = [], list(base)
    for row in rows:
        if len(taken) == k:
            break
        if rref(fv, np.vstack(chosen + [row])).shape[0] == len(chosen) + 1:
            taken.append(row)
            chosen.append(row)
    return np.array(taken, dtype=np.int64).reshape(-1, base.shape[1])


@pytest.mark.parametrize("p,d,fv", list(small_views()), ids=lambda v: str(getattr(v, "degree", v)))
def test_extend_basis_matches_the_rank_loop(p, d, fv):
    """Random bases of every dimension below n; candidates mix random rows,
    zero rows, repeats and rows of the base's span; every k up to n."""
    rng = np.random.default_rng(p * 1000 + d * 10 + fv.degree)
    elems = fv.elements()
    for n in range(2, 6):
        for b in range(n):
            base = random_subspace(fv, b, n, rng).mat if b else np.zeros((0, n), dtype=np.int64)
            rows = elems[rng.integers(0, len(elems), size=(n + 2, n))]
            rows[rng.integers(0, len(rows))] = 0
            if b:
                rows[rng.integers(0, len(rows))] = mat_mul(fv, rows[:1, :b], base)[0]
            rows = np.vstack([rows, rows[:2]])[rng.permutation(len(rows) + 2)]
            for k in range(n + 1):
                got = extend_basis(fv, base, rows, k)
                assert np.array_equal(got, extend_basis_oracle(fv, base, rows, k))
                assert len(got) <= k and rref(fv, np.vstack([base, got])).shape[0] == b + len(got)


@pytest.mark.parametrize("p,d,fv", list(small_views()), ids=lambda v: str(getattr(v, "degree", v)))
def test_mat_mul_matches_scalar_field_ops(p, d, fv):
    """The field product, one integer product mod p over a prime tower,
    against sums of scalar `mul` and `add`."""
    tw, elems = fv.tower, fv.elements()
    rng = np.random.default_rng(p * 100 + d)
    a = elems[rng.integers(0, fv.q, size=(5, 7))]
    b = elems[rng.integers(0, fv.q, size=(7, 4))]
    want = np.zeros((5, 4), dtype=np.int64)
    for i in range(5):
        for j in range(4):
            for k in range(7):
                want[i, j] = tw.add(int(want[i, j]), tw.mul(int(a[i, k]), int(b[k, j])))
    assert np.array_equal(mat_mul(fv, a, b), want)


def assert_stack_matches_rref(fv, mats):
    red, ranks = rref_stack(fv, mats)
    assert red.shape == mats.shape and ranks.shape == (len(mats),)
    for m, r, rank in zip(mats, red, ranks.tolist()):
        want = rref(fv, m) if len(m) else m
        assert rank == len(want)
        assert r[:rank].tobytes() == want.tobytes()
        assert not r[rank:].any()


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16])
def test_rref_stack_matches_rref_per_matrix(q):
    """Each matrix of a random stack reduces as `rref` reduces it alone:
    full-rank and rank-deficient matrices, zero matrices and repeated or
    zero rows, tall (k > n) and wide shapes, B = 0 and B = 1."""
    fv = standalone(q)
    elems = fv.elements()
    rng = np.random.default_rng(q)
    for nmat, k, n in [(0, 3, 4), (1, 3, 5), (1, 1, 1), (40, 4, 8), (40, 7, 3), (25, 5, 5), (8, 1, 6), (6, 0, 3)]:
        mats = elems[rng.integers(0, q, size=(nmat, k, n))]
        if nmat >= 8 and k >= 2:
            mats[0] = 0
            mats[1, 1] = mats[1, 0]  # a repeated row
            mats[2, -1] = 0  # a zero row
            mats[3, :, 0] = 0  # a zero column
            mats[4, 1] = fv.tower.vmul(mats[4, 0], elems[-1])  # a multiple of a row
            mats[5:8, : k // 2] = 0
        assert_stack_matches_rref(fv, mats)


def test_rref_stack_on_subfield_views_and_sparse_stacks():
    """Views of a tower, and stacks drawn from few values so that ranks
    differ across the stack."""
    rng = np.random.default_rng(7)
    for p, d, fv in small_views():
        elems = fv.elements()
        for k, n in [(3, 6), (6, 4)]:
            mats = np.where(rng.random((30, k, n)) < 0.3, elems[rng.integers(0, len(elems), size=(30, k, n))], 0)
            assert_stack_matches_rref(fv, mats)


def test_subspaces_of_a_stack_match_one_at_a_time():
    """`Subspace.of_stack` against one `Subspace` per basis: equal, with
    equal hashes, and read-only, as is the stack they share."""
    rng = np.random.default_rng(5)
    fv = standalone(4)
    reduced, ranks = rref_stack(fv, fv.elements()[rng.integers(0, 4, size=(30, 3, 6))])
    bases = reduced[ranks == 3]
    subs = Subspace.of_stack(fv, 6, bases)
    want = [Subspace(fv, 6, b.copy()) for b in bases]
    assert subs == want
    assert [hash(s) for s in subs] == [hash(w) for w in want]
    assert len(set(subs + want)) == len({w.mat.tobytes() for w in want})
    assert not bases.flags.writeable
    assert all(not s.mat.flags.writeable for s in subs)
    assert Subspace.of_stack(fv, 6, np.zeros((0, 3, 6), dtype=np.int64)) == []
