"""Packed vector keys and the one canonical-augmentation kernel.

The keys are checked against their definition (order of `point_keys`, key
of a vector sum) on every view of every small tower, and for width on every
view and dimension the enumerator accepts.  The kernel is checked against
the former row-vector search, kept here as the oracle: it built cosets as
coordinate rows, canonicalized them by scaling, and pruned by a full RREF.
Its pivot-column eligibility test is checked against the former packed-key
coset minimum at every node.
"""

from itertools import islice

import numpy as np
import pytest

from polarspread import families as F
from polarspread import gf
from polarspread import verify as V
from polarspread.families import Provenance, SubspaceFamily
from polarspread.gf import PRIMITIVE_POLYS, FieldView, standalone
from polarspread.linalg import (
    KeyPacking,
    canonicalize,
    point_keys,
    rref,
)
from polarspread.spaces import (
    MAX_ENUM_POINTS,
    FlagSearch,
    Perp,
    iter_subspaces,
    ominus4_space,
    oplus_space,
    parabolic_space,
    perp_adjacency,
    sp_space,
)


def views(p, d):
    degrees = tuple(e for e in range(1, d + 1) if d % e == 0)
    tw = gf.tower(p, d, degrees)
    return [FieldView(tw, e) for e in degrees]


SMALL_VIEWS = [
    (p, d, fv.degree)
    for (p, d) in sorted(PRIMITIVE_POLYS)
    if p**d <= 256
    for fv in views(p, d)
]


def view_of(p, d, e):
    return next(fv for fv in views(p, d) if fv.degree == e)


@pytest.mark.parametrize("p,d,e", SMALL_VIEWS)
def test_packed_order_and_addition_on_all_pairs(p, d, e):
    """Packed keys order vectors as point_keys does, and kadd of two keys is
    the key of the vector sum, on every pair of view elements."""
    fv = view_of(p, d, e)
    tw = fv.tower
    elems = fv.elements()
    one = KeyPacking(fv, 1)
    k1 = one.pack(elems[:, None])
    assert k1[0] == 0 and np.all(np.diff(k1) > 0)
    vecs = np.stack(np.meshgrid(elems, elems, indexing="ij"), axis=-1).reshape(-1, 2)
    two = KeyPacking(fv, 2)
    assert np.array_equal(np.argsort(two.pack(vecs)), np.argsort(point_keys(fv, vecs)))
    got = one.kadd(k1[:, None], k1[None, :])
    want = one.pack(tw.vadd(elems[:, None], elems[None, :])[..., None])
    assert np.array_equal(got, want)


@pytest.mark.parametrize("p,d,e", SMALL_VIEWS)
def test_packed_addition_in_the_widest_packing(p, d, e):
    """kadd on random vectors of the largest dimension whose keys fit, so
    every digit field of an int64 key is exercised."""
    fv = view_of(p, d, e)
    tw = fv.tower
    elems = fv.elements()
    dim = 1
    while True:
        try:
            KeyPacking(fv, dim + 1)
        except gf.FieldError:
            break
        dim += 1
    pk = KeyPacking(fv, dim)
    rng = np.random.default_rng(p * 100 + d * 10 + e)
    a = elems[rng.integers(0, len(elems), size=(500, dim))]
    b = elems[rng.integers(0, len(elems), size=(500, dim))]
    a[0] = b[0] = elems[-1]  # every digit sum at its largest
    assert np.array_equal(pk.kadd(pk.pack(a), pk.pack(b)), pk.pack(tw.vadd(a, b)))
    assert np.array_equal(np.argsort(pk.pack(a), kind="stable"), np.lexsort(a.T[::-1]))


WIDTH_CASES = [
    (p, d, fv.degree, dim)
    for (p, d) in sorted(PRIMITIVE_POLYS)
    for fv in views(p, d)
    for dim in range(1, 64)
    if (fv.q**dim - 1) // (fv.q - 1) <= MAX_ENUM_POINTS
]


def test_packed_keys_fit_every_enumerable_dimension():
    """Every (tower, view, dim) with at most MAX_ENUM_POINTS points packs
    into int64, and the sum of two largest vectors stays exact."""
    widest = 0
    for p, d, e, dim in WIDTH_CASES:
        fv = view_of(p, d, e)
        pk = KeyPacking(fv, dim)
        top = np.full((1, dim), fv.elements()[-1], dtype=np.int64)
        key = pk.pack(top)
        assert 0 < key[0] < 2**62
        assert pk.kadd(key, key)[0] == pk.pack(fv.tower.vadd(top, top))[0]
        widest = max(widest, dim * e * pk.width)
    assert widest == 54  # GF(729) at dimension 3


# ---------------------------------------------------------------------------
# The former row-vector search, kept as the oracle
# ---------------------------------------------------------------------------


def coset_canonical_keys(fv, cands, span_vecs):
    """Canonical keys of every point cand + s, s in span: (len(cands), |span|)."""
    tw = fv.tower
    dim = cands.shape[1]
    flat = tw.vadd(cands[:, None, :], span_vecs[None, :, :]).reshape(-1, dim)
    lead = np.argmax(flat != 0, axis=1)
    vals = flat[np.arange(len(flat)), lead]
    flat = tw.vmul(flat, tw.vinv(np.where(vals == 0, 1, vals))[:, None])
    return point_keys(fv, flat).reshape(len(cands), -1)


def grow_rows(fv, span_vecs, p):
    tw = fv.tower
    scaled = tw.vmul(fv.elements()[:, None, None], p[None, None, :])
    return tw.vadd(span_vecs[None, :, :], scaled).reshape(-1, len(p))


def row_vector_flags(fv, pts, target, rest_after, admissible=None, on_node=None):
    """The former generic DFS, yielding flags of point indices."""
    keys = point_keys(fv, pts)

    def recurse(flag, span_vecs, cand):
        if on_node is not None and on_node(flag, cand):
            return
        if len(flag) == target:
            yield flag
            return
        if len(cand) == 0:
            return
        ck = coset_canonical_keys(fv, pts[cand], span_vecs)
        ok = ck.min(axis=1) == keys[cand]
        if admissible is not None:
            ok &= np.isin(ck, admissible).all(axis=1)
        for pos in np.flatnonzero(ok):
            i = int(cand[pos])
            yield from recurse(
                flag + [i], grow_rows(fv, span_vecs, pts[i]), rest_after(i, cand[pos + 1 :])
            )

    yield from recurse([], np.zeros((1, pts.shape[1]), dtype=np.int64), np.arange(len(pts)))


def enumeration_oracle(space):
    """The subspaces, and the nodes visited under the count bound."""
    pts = space.singular_points()
    adj = perp_adjacency(space, pts)
    q, t = space.q, space.witt_index
    nodes = 0

    def counted(flag, cand):
        nonlocal nodes
        nodes += 1
        return len(flag) < t and len(cand) < (q**t - q ** len(flag)) // (q - 1)

    flags = row_vector_flags(space.fv, pts, t, lambda i, rest: rest[adj[i, rest]], on_node=counted)
    return [canonicalize(space.fv, pts[f], space.dim) for f in flags], nodes


def enumerator_search(space):
    """The FlagSearch that `maximal_totally_singular` runs."""
    pts = space.singular_points()
    return FlagSearch(space.fv, pts, space.witt_index, perp=Perp(space, pts, dense=True))


def engine_oracle(fam, flavor):
    """Verdict, witness and node count of the former engine: the count
    prune len(cand) < t - d, then the rank prune on at most 512 candidates."""
    space = fam.space
    fv = space.fv
    pts = V._prepare_spread_search(fam, flavor, V.DEFAULT_TEST_GUARD)
    target = space.dim // 2
    adj = perp_adjacency(space, pts) if 0 < len(pts) <= 4096 else None
    nodes = 0

    def rest_after(i, rest):
        if flavor == "plain" or len(rest) == 0:
            return rest
        if adj is not None:
            return rest[adj[i, rest]]
        return rest[space.vbform(pts[rest], pts[i]) == 0]

    def pruned(flag, cand):
        nonlocal nodes
        nodes += 1
        if len(flag) == target:
            return False
        if len(cand) < target - len(flag):
            return True
        if len(cand) <= 512:
            return rref(fv, pts[flag + cand.tolist()]).shape[0] < target
        return False

    flags = row_vector_flags(fv, pts, target, rest_after, point_keys(fv, pts), pruned)
    flag = next(flags, None)
    if flag is None:
        return "maximal", None, nodes
    return "extendable", canonicalize(fv, pts[flag], space.dim), nodes


def iter_subspaces_oracle(fv, container, k):
    pts = container.points()
    flags = row_vector_flags(fv, pts, k, lambda i, rest: rest)
    return [canonicalize(fv, pts[f], container.dim_ambient) for f in flags]


ENUM_SPACES = {
    "Sp(4,5)": lambda: sp_space(5, 2),
    "Sp(4,7)": lambda: sp_space(7, 2),
    "Sp(4,9)": lambda: sp_space(9, 2),
    "Sp(6,3)": lambda: sp_space(3, 3),
    "O+(6,3)": lambda: oplus_space(3, 3),
    "O+(6,5)": lambda: oplus_space(5, 3),
    "O(5,3)": lambda: parabolic_space(3),
    "Sp(6,2)": lambda: sp_space(2, 3),
    "Sp(4,4)": lambda: sp_space(4, 2),
    "Sp(4,8)": lambda: sp_space(8, 2),
    "O(5,4)": lambda: parabolic_space(4),
    "O+(6,4)": lambda: oplus_space(4, 3),
    "O-(4,8)": lambda: ominus4_space(8),
}


@pytest.mark.parametrize("name", list(ENUM_SPACES))
def test_enumeration_matches_row_vector_oracle_in_order(name):
    space = ENUM_SPACES[name]()
    got = space.maximal_totally_singular()
    want, nodes = enumeration_oracle(space)
    assert len(got) > 0
    assert [w.mat.tolist() for w in got] == [w.mat.tolist() for w in want]
    search = enumerator_search(space)
    assert sum(1 for _ in search.flags()) == len(got)
    assert search.nodes == nodes


def coset_minimum_positions(search, cand, span):
    """The former eligibility test: positions in cand of the points that are
    the minimum of their coset, keys kadd(lambda p, s) over lambda != 0 and
    s in span."""
    pk = search.packing
    coset = pk.kadd(pk.multiples(search.pts[cand])[:, :, None], span[None, None, :])
    return np.flatnonzero(coset.min(axis=(1, 2)) == search.keys[cand])


PIVOT_CASES = {
    2: lambda: oplus_space(2, 4),
    3: lambda: sp_space(3, 3),
    4: lambda: oplus_space(4, 3),
    5: lambda: sp_space(5, 2),
    8: lambda: sp_space(8, 2),
    9: lambda: parabolic_space(9),
}


@pytest.mark.parametrize("q", list(PIVOT_CASES))
def test_pivot_columns_match_the_coset_minimum_at_every_node(q):
    """A DFS driven by the former coset minimum, with span keys grown as the
    former kernel grew them, compares the pivot-column test with it at every
    node it reaches (also those the count bound cuts), and reaches every
    maximal subspace in the enumerator's order."""
    space = PIVOT_CASES[q]()
    search = enumerator_search(space)
    pk, found, compared = search.packing, [], 0

    def walk(flag, span, cand):
        nonlocal compared
        if len(flag) == search.target:
            found.append(search.subspace(flag))
            return
        want = coset_minimum_positions(search, cand, span)
        got = search._eligible(cand, np.bitwise_or.reduce(search.lead[flag]), None)
        assert np.array_equal(got, want), flag
        compared += 1
        if len(cand) < search.need[len(flag)]:
            return
        for pos in want:
            i = int(cand[pos])
            grown = np.concatenate([span, pk.kadd(pk.multiples(search.pts[[i]])[0][:, None], span).ravel()])
            walk(flag + [i], grown, search.rest_after(i, cand[pos + 1 :]))

    walk([], np.zeros(1, dtype=np.int64), np.arange(len(search.pts)))
    assert compared > len(found)
    assert found == space.maximal_totally_singular()


def _short(fam, drop=1):
    return SubspaceFamily(fam.space, fam.members[:-drop], Provenance("t", {}), expected_size=None)


ENGINE_CASES = {
    "thm3.1(3,1)": (lambda: F.transversal_spread(3, 1), "symplectic"),
    "thm3.1(3,1)-last": (lambda: _short(F.transversal_spread(3, 1)), "symplectic"),
    "thm3.1(3,1)-last-plain": (lambda: _short(F.transversal_spread(3, 1)), "plain"),
    "thm3.1(5,1)-last2": (lambda: _short(F.transversal_spread(5, 1), 2), "symplectic"),
    "desarguesian(3,2)-last": (lambda: _short(F.desarguesian_symplectic_spread(3, 2)), "symplectic"),
    "thm8.1(3)": (lambda: F.sp6_line_replace(3), "symplectic"),
    "thm8.1(3)-last": (lambda: _short(F.sp6_line_replace(3)), "symplectic"),
    "lem7.8(3)-triality": (
        lambda: F.triality_pointset(F.two_quadrics_ovoid(3)),
        "orthogonal",
    ),
    "lem7.8(3)-triality-last": (
        lambda: _short(F.triality_pointset(F.two_quadrics_ovoid(3))),
        "orthogonal",
    ),
}


@pytest.mark.parametrize("name", list(ENGINE_CASES))
def test_engine_matches_row_vector_oracle(name):
    build, flavor = ENGINE_CASES[name]
    fam = build()
    assert fam.space.fv.char != 2
    cert = V.check_maximal_spread(fam, flavor)
    verdict, witness, nodes = engine_oracle(fam, flavor)
    assert (cert.verdict, cert.witness, cert.nodes) == (verdict, witness, nodes)


DENSE_CASES = {
    # 4,165 uncovered points in characteristic 2: the engine uses kernel masks
    "ex7.4(4)-triality-last": (
        lambda: _short(F.triality_pointset(F.elliptic_or_o5_partial_ovoid(4, "elliptic_quadric"))),
        "orthogonal",
    ),
    # the engine uses dense rows; the alternative is vbform for odd p, else masks
    "lem7.8(3)-triality-last": (
        lambda: _short(F.triality_pointset(F.two_quadrics_ovoid(3))),
        "orthogonal",
    ),
    "lem7.8(3)-triality": (lambda: F.triality_pointset(F.two_quadrics_ovoid(3)), "orthogonal"),
    "thm5.2i(2,2)": (lambda: F.grassl_spread(2, 2, "i"), "symplectic"),
}


@pytest.mark.parametrize("name", list(DENSE_CASES))
def test_engine_is_the_same_with_and_without_dense_rows(name):
    build, flavor = DENSE_CASES[name]
    fam = build()
    space = fam.space
    pts = V._prepare_spread_search(fam, flavor, V.DEFAULT_TEST_GUARD)
    cert = V.check_maximal_spread(fam, flavor)
    for dense in (True, False):
        search = FlagSearch(
            space.fv, pts, space.dim // 2, perp=Perp(space, pts, dense=dense), within=True
        )
        flag = next(search.flags(), None)
        witness = None if flag is None else search.subspace(flag)
        assert (witness, search.nodes) == (cert.witness, cert.nodes), dense


@pytest.mark.parametrize("space", [oplus_space(2, 4), oplus_space(3, 3)], ids=repr)
def test_rest_after_is_the_same_with_and_without_dense_rows(space):
    """At every node the enumerator visits, dense rows and the kernel-mask
    (p = 2) or vbform (odd p) filter keep the same candidates."""
    pts = space.singular_points()
    dense, sparse = (
        FlagSearch(space.fv, pts, space.witt_index, perp=Perp(space, pts, dense=d))
        for d in (True, False)
    )
    assert sparse.perp.adj is None and (sparse.perp.keys is None) == (space.fv.p != 2)
    compared = 0

    def walk(flag, cand):
        nonlocal compared
        if len(flag) == dense.target or len(cand) < dense.need[len(flag)]:
            return
        for pos in dense._eligible(cand, np.bitwise_or.reduce(dense.lead[flag]), None):
            i = int(cand[pos])
            rest = dense.rest_after(i, cand[pos + 1 :])
            assert np.array_equal(sparse.rest_after(i, cand[pos + 1 :]), rest), flag + [i]
            compared += 1
            walk(flag + [i], rest)

    walk([], np.arange(len(pts)))
    assert compared > len(space.maximal_totally_singular())
    assert list(dense.flags()) == list(sparse.flags())
    assert dense.nodes == sparse.nodes


@pytest.mark.parametrize(
    "p,d,e,dim,k", [(3, 1, 1, 4, 2), (5, 1, 1, 4, 2), (3, 1, 1, 5, 3), (2, 4, 2, 4, 2), (3, 4, 2, 3, 2)]
)
def test_iter_subspaces_order_matches_row_vector_oracle(p, d, e, dim, k):
    """Whole-space and proper containers; GF(4) and GF(9) as subfield views
    of GF(16) and GF(81), where view-local keys differ from tower keys."""
    fv = view_of(p, d, e)
    rng = np.random.default_rng(fv.q + dim + k)
    whole = canonicalize(fv, np.eye(dim, dtype=np.int64), dim)
    part = canonicalize(fv, fv.elements()[rng.integers(0, fv.q, size=(dim - 1, dim))], dim)
    for container in (whole, part):
        got = [w.mat.tolist() for w in iter_subspaces(fv, container, k)]
        assert got == [w.mat.tolist() for w in iter_subspaces_oracle(fv, container, k)]
        assert len(got) == len({tuple(map(tuple, m)) for m in got})


@pytest.mark.parametrize("q", [25, 27])
def test_iter_subspaces_in_a_wide_ambient_space(q):
    """Containers of GF(q)^8, whose ambient keys would not fit in int64:
    keys are taken in the container's own coordinates."""
    fv = standalone(q)
    rng = np.random.default_rng(q)
    small = canonicalize(fv, fv.elements()[rng.integers(0, q, size=(3, 8))], 8)
    got = [w.mat.tolist() for w in iter_subspaces(fv, small, 2)]
    assert got == [w.mat.tolist() for w in iter_subspaces_oracle(fv, small, 2)]
    assert len(got) == q**2 + q + 1
    # the container of families._first_anisotropic_plane: compare a prefix
    middle = canonicalize(fv, np.eye(8, dtype=np.int64)[2:6], 8)
    pts = middle.points()
    oracle = row_vector_flags(fv, pts, 2, lambda i, rest: rest)
    want = [canonicalize(fv, pts[f], 8).mat.tolist() for f in islice(oracle, 60)]
    assert [w.mat.tolist() for w in islice(iter_subspaces(fv, middle, 2), 60)] == want


def test_ovoid_construction_over_gf25():
    """ex7.4 at q = 25 picks its O-(4,q) through iter_subspaces in O+(8,q)."""
    fam = F.elliptic_or_o5_partial_ovoid(25, "elliptic_quadric")
    assert len(fam.points) == 25**2 + 1
    assert V.is_partial_ovoid(fam, "orthogonal")


def test_coset_blocks_do_not_change_results(monkeypatch):
    """Candidates split into blocks of a few coset keys give the same
    enumeration and the same engine verdict, witness and nodes."""
    from polarspread import spaces

    fam = _short(F.transversal_spread(3, 1))
    whole = V.check_maximal_spread(fam, "symplectic")
    fresh = sp_space(3, 2)
    listed = [w.mat.tolist() for w in fresh.maximal_totally_singular()]
    monkeypatch.setattr(spaces, "COSET_BLOCK", 5)
    blocked = V.check_maximal_spread(fam, "symplectic")
    assert (blocked.verdict, blocked.witness, blocked.nodes) == (
        whole.verdict,
        whole.witness,
        whole.nodes,
    )
    fresh._max_ts = None
    assert [w.mat.tolist() for w in fresh.maximal_totally_singular()] == listed
