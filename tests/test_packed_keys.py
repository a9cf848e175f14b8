"""Packed vector keys and the one canonical-augmentation kernel.

The keys are checked against their definition (order of `point_keys`, key
of a vector sum, key numbers) on every view of every small tower, and for
width on every view and dimension the enumerator accepts.  The kernel is
checked against the former row-vector search, kept here as the oracle: it
built cosets as coordinate rows and canonicalized them by scaling.  Its
pivot-column eligibility test is checked against the former packed-key
coset minimum at every node.  The engine's line-compatibility rows are
checked against their definition, and its verdicts and witnesses against
the former span-key uncovered test, also kept here.
"""

from itertools import islice

import numpy as np
import pytest

from polarspread import families as F
from polarspread import gf, spaces
from polarspread import verify as V
from polarspread.families import Provenance, SubspaceFamily
from polarspread.gf import PRIMITIVE_POLYS, FieldView, standalone
from polarspread.linalg import (
    KeyPacking,
    all_points,
    canonicalize,
    canonicalize_points,
    isin_sorted,
    mat_mul,
    point_keys,
    span_vectors,
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
def test_key_numbers_count_vectors_in_base_q(p, d, e):
    """number(key) is sum_i rank(x_i) q^(dim - 1 - i), on every vector of
    fv^dim for small dim and on random vectors of the widest packing."""
    fv = view_of(p, d, e)
    rank = {int(x): r for r, x in enumerate(fv.elements())}
    rng = np.random.default_rng(p * 1000 + d * 10 + e)
    for dim in range(1, 64):
        try:
            pk = KeyPacking(fv, dim)
        except gf.FieldError:
            break
        if fv.q**dim <= 4096:
            vecs = fv.elements()[np.indices((fv.q,) * dim).reshape(dim, -1).T]
        else:
            vecs = fv.elements()[rng.integers(0, fv.q, size=(300, dim))]
        want = [sum(rank[int(x)] * fv.q ** (dim - 1 - i) for i, x in enumerate(v)) for v in vecs]
        assert pk.number(pk.pack(vecs)).tolist() == want, dim


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
    """The subspaces, and the nodes visited under the count bound by depth."""
    pts = space.singular_points()
    adj = perp_adjacency(space, pts)
    q, t = space.q, space.witt_index
    nodes = [0] * (t + 1)

    def counted(flag, cand):
        nodes[len(flag)] += 1
        return len(flag) < t and len(cand) < (q**t - q ** len(flag)) // (q - 1)

    flags = row_vector_flags(space.fv, pts, t, lambda i, rest: rest[adj[i, rest]], on_node=counted)
    return [canonicalize(space.fv, pts[f], space.dim) for f in flags], nodes


def enumerator_search(space):
    """The FlagSearch that `maximal_totally_singular` runs."""
    pts = space.singular_points()
    return FlagSearch(space.fv, pts, space.witt_index, perp=Perp(space, pts))


def eligible_positions(search, cand, flag):
    """Positions in cand of the points the search's eligibility bitset for
    the flag's pivot columns holds."""
    bits = search.eligible(np.bitwise_or.reduce(search.lead[flag]))
    return np.flatnonzero((bits[cand // 64] >> (cand % 64).astype(np.uint64)) & np.uint64(1))


def engine_oracle_flags(fam, flavor, nodes):
    """Every flag of a row-vector engine, in DFS order: a node is cut when
    fewer of its candidates than a completion needs have their whole coset
    uncovered, which is the engine's candidate set; nodes[d] counts the
    nodes of depth d visited, cut or not."""
    space = fam.space
    fv, q = space.fv, space.q
    pts = V.cover_report(fam, flavor).uncovered_points
    keys = point_keys(fv, pts)
    target = space.dim // 2

    def rest_after(i, rest):
        if flavor == "plain" or len(rest) == 0:
            return rest
        return rest[space.vbform(pts[rest], pts[i]) == 0]

    def pruned(flag, cand):
        nodes[len(flag)] += 1
        if len(flag) == target:
            return False
        live = 0
        if len(cand):
            span = span_vectors(fv, pts[flag], space.dim)
            live = np.isin(coset_canonical_keys(fv, pts[cand], span), keys).all(axis=1).sum()
        return live < (q**target - q ** len(flag)) // (q - 1)

    return row_vector_flags(fv, pts, target, rest_after, keys, pruned)


def engine_oracle(fam, flavor):
    """Verdict, witness and node count of the row-vector engine."""
    nodes = [0] * (fam.space.dim // 2 + 1)
    flag = next(engine_oracle_flags(fam, flavor, nodes), None)
    if flag is None:
        return "maximal", None, sum(nodes)
    pts = V.cover_report(fam, flavor).uncovered_points
    return "extendable", canonicalize(fam.space.fv, pts[flag], fam.space.dim), sum(nodes)


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
    assert search.stats().depth_nodes.tolist() == nodes


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
    former kernel grew them, compares the search's eligibility bitsets with
    it at every node it reaches (also those the count bound cuts), and
    reaches every maximal subspace in the enumerator's order."""
    space = PIVOT_CASES[q]()
    search = enumerator_search(space)
    adj = perp_adjacency(space, search.pts)
    pk, found, compared = search.packing, [], 0

    def walk(flag, span, cand):
        nonlocal compared
        if len(flag) == search.target:
            found.append(search.subspace(flag))
            return
        want = coset_minimum_positions(search, cand, span)
        assert np.array_equal(eligible_positions(search, cand, flag), want), flag
        compared += 1
        if len(cand) < search.need[len(flag)]:
            return
        for pos in want:
            i = int(cand[pos])
            grown = np.concatenate([span, pk.kadd(pk.multiples(search.pts[[i]])[0][:, None], span).ravel()])
            rest = cand[pos + 1 :]
            walk(flag + [i], grown, rest[adj[i, rest]])

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


PERP_CASES = {
    # 4,165 uncovered points in characteristic 2: Perp uses kernel masks
    "ex7.4(4)-triality-last": (
        lambda: _short(F.triality_pointset(F.elliptic_or_o5_partial_ovoid(4, "elliptic_quadric"))),
        "orthogonal",
    ),
    # odd p: Perp uses vbform
    "lem7.8(3)-triality-last": (
        lambda: _short(F.triality_pointset(F.two_quadrics_ovoid(3))),
        "orthogonal",
    ),
    "lem7.8(3)-triality": (lambda: F.triality_pointset(F.two_quadrics_ovoid(3)), "orthogonal"),
    "thm5.2i(2,2)": (lambda: F.grassl_spread(2, 2, "i"), "symplectic"),
    "thm3.1(3,1)-last": (lambda: _short(F.transversal_spread(3, 1)), "symplectic"),
}


def assert_perp_is_the_adjacency(perp, adj):
    """`Perp.to`, `Perp.rows` and `Perp.bitsets` against the rows of
    `perp_adjacency`."""
    n = len(adj)
    assert np.array_equal(perp.rows(np.arange(n)), adj)
    assert np.array_equal(perp.bitsets(), spaces.pack_bits(adj))
    rng = np.random.default_rng(n)
    for k in range(n):
        idx = np.flatnonzero(rng.random(n) < 0.5)
        assert np.array_equal(perp.to(k), adj[k]) and np.array_equal(perp.to(k, idx), adj[k, idx]), k


@pytest.mark.parametrize("name", list(PERP_CASES))
def test_engine_is_the_same_on_every_perpendicularity_path(name):
    """The engine's witness and node count with its line rows narrowed by
    the default `Perp` (kernel masks or vbform) and, for the orthogonal
    flavor, by no `Perp` at all, which the engine runs; that `Perp` answers
    as the rows of `perp_adjacency` do."""
    build, flavor = PERP_CASES[name]
    fam = build()
    space = fam.space
    pts = V.cover_report(fam, flavor).uncovered_points
    cert = V.check_maximal_spread(fam, flavor)
    perps = [Perp(space, pts)]
    assert_perp_is_the_adjacency(perps[0], perp_adjacency(space, pts))
    if flavor == "orthogonal":
        perps.append(None)
    for perp in perps:
        search = FlagSearch(space.fv, pts, space.dim // 2, perp=perp, lines=True)
        flag = next(search.flags(), None)
        witness = None if flag is None else search.subspace(flag)
        assert (witness, search.nodes) == (cert.witness, cert.nodes), perp


@pytest.mark.parametrize("space", [oplus_space(2, 4), oplus_space(3, 3)], ids=repr)
def test_perp_filter_matches_the_adjacency_rows(space):
    """At every node the enumerator visits, the kernel-mask (p = 2) or
    vbform (odd p) filter keeps the same candidates after each child as the
    rows of `perp_adjacency`, and the packed rows the batched expansion
    reads are those rows after each point."""
    search = enumerator_search(space)
    adj = perp_adjacency(space, search.pts)
    assert (search.perp.keys is None) == (space.fv.p != 2)
    assert_perp_is_the_adjacency(search.perp, adj)
    assert np.array_equal(search.perp_bits, spaces.pack_bits(np.triu(adj, 1)))
    compared = 0

    def walk(flag, cand):
        nonlocal compared
        if len(flag) == search.target or len(cand) < search.need[len(flag)]:
            return
        for pos in eligible_positions(search, cand, flag):
            i, after = int(cand[pos]), cand[pos + 1 :]
            rest = after[adj[i, after]]
            assert np.array_equal(after[search.perp.to(i, after)], rest), flag + [i]
            compared += 1
            walk(flag + [i], rest)

    walk([], np.arange(len(search.pts)))
    assert compared > len(space.maximal_totally_singular())
    assert [search.subspace(f) for f in search.flags()] == space.maximal_totally_singular()


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


@pytest.mark.parametrize(
    "build,flavor",
    [
        (lambda: _short(F.transversal_spread(3, 1)), "symplectic"),
        (lambda: _short(F.descended_spread(2, 2, 2), 2), "orthogonal"),
        (lambda: F.grassl_spread(2, 2, "i"), "symplectic"),
    ],
    ids=["thm3.1(3,1)-last", "thm4.3(2,2,2)-last2", "thm5.2i(2,2)"],
)
def test_row_blocks_chunks_and_lookup_do_not_change_results(monkeypatch, build, flavor):
    """Line rows built from blocks of 1,000 keys (several rows per block for
    the 12 and 180 points of the first and last case, one row over 17
    column blocks for the 16,830 of thm4.3), passes of one pair, and keys
    looked up in the sorted multiples for every p, give the same verdict,
    witness and nodes by depth; the enumeration is untouched."""
    fam = build()
    whole = V.check_maximal_spread(fam, flavor)
    fresh = sp_space(3, 2)
    listed = [w.mat.tolist() for w in fresh.maximal_totally_singular()]
    monkeypatch.setattr(spaces, "LINE_BLOCK", 1000)
    monkeypatch.setattr(spaces, "PASS_WORDS", 1)
    monkeypatch.setattr(spaces, "DENSE_KEYS", 0)
    blocked = V.check_maximal_spread(fam, flavor)
    assert (blocked.verdict, blocked.witness, blocked.nodes) == (
        whole.verdict,
        whole.witness,
        whole.nodes,
    )
    assert blocked.stats["nodes_by_depth"] == whole.stats["nodes_by_depth"]
    fresh._max_ts = None
    assert [w.mat.tolist() for w in fresh.maximal_totally_singular()] == listed


EXACT_COUNT_CASES = {
    "thm4.3(2,2,2)-last": (lambda: _short(F.descended_spread(2, 2, 2)), "orthogonal"),
    "thm4.3(2,2,2)-last2": (lambda: _short(F.descended_spread(2, 2, 2), 2), "orthogonal"),
    "thm5.2i(2,2)": (lambda: F.grassl_spread(2, 2, "i"), "symplectic"),
    "thm3.1(3,1)-last-plain": (lambda: _short(F.transversal_spread(3, 1)), "plain"),
}


@pytest.mark.parametrize("name", list(EXACT_COUNT_CASES))
def test_pass_sizes_do_not_change_engine_counts(monkeypatch, name):
    """Passes of the default size, of 1,000 and 7 words and of one pair give
    the same verdict, witness, nodes by depth and cut children, though a
    larger pass reads pairs past the first witness and builds their rows."""
    build, flavor = EXACT_COUNT_CASES[name]
    fam = build()
    runs = []
    for words in (spaces.PASS_WORDS, 1000, 7, 1):
        monkeypatch.setattr(spaces, "PASS_WORDS", words)
        cert = V.check_maximal_spread(fam, flavor)
        runs.append((cert.verdict, cert.witness, cert.stats["nodes_by_depth"], cert.stats["skipped"]))
    assert all(run == runs[0] for run in runs), runs


@pytest.mark.parametrize("name", ["Sp(4,5)", "O(5,3)", "Sp(6,2)", "O+(6,3)"])
def test_counts_equal_the_dfs_at_every_flag(monkeypatch, name):
    """At every flag the enumerator yields, its nodes by depth equal the
    row-vector oracle's at the same flag, for passes of the default size,
    of 7 words and of one pair."""
    space = ENUM_SPACES[name]()
    pts = space.singular_points()
    adj = perp_adjacency(space, pts)
    q, t = space.q, space.witt_index
    for words in (spaces.PASS_WORDS, 7, 1):
        monkeypatch.setattr(spaces, "PASS_WORDS", words)
        nodes = [0] * (t + 1)

        def counted(flag, cand):
            nodes[len(flag)] += 1
            return len(flag) < t and len(cand) < (q**t - q ** len(flag)) // (q - 1)

        oracle = row_vector_flags(space.fv, pts, t, lambda i, rest: rest[adj[i, rest]], on_node=counted)
        search = enumerator_search(space)
        flags, seen = search.flags(), 0
        for want in oracle:
            assert next(flags) == want and search.depth_nodes == nodes, (words, want)
            seen += 1
        assert next(flags, None) is None and search.depth_nodes == nodes
        assert seen == len(space.maximal_totally_singular())


@pytest.mark.parametrize("name", ["thm3.1(5,1)-last2", "thm3.1(3,1)-last-plain", "thm8.1(3)-last"])
def test_engine_counts_equal_the_dfs_at_every_flag(monkeypatch, name):
    """Run past its first witness to its end, the engine's search yields the
    row-vector engine's flags, and at each its nodes by depth equal the
    oracle's, for passes of the default size, of 7 words and of one pair."""
    build, flavor = ENGINE_CASES[name]
    fam = build()
    space = fam.space
    pts = V.cover_report(fam, flavor).uncovered_points
    for words in (spaces.PASS_WORDS, 7, 1):
        monkeypatch.setattr(spaces, "PASS_WORDS", words)
        nodes = [0] * (space.dim // 2 + 1)
        search = V._build_search(space, flavor, pts, None)
        flags, seen = search.flags(), 0
        for want in engine_oracle_flags(fam, flavor, nodes):
            assert next(flags) == want and search.depth_nodes == nodes, (words, want)
            seen += 1
        assert next(flags, None) is None and search.depth_nodes == nodes
        assert seen > 1


@pytest.mark.parametrize("name", ["O+(6,3)", "Sp(6,2)", "Sp(4,9)"])
def test_first_point_ranges_without_lines(name):
    """flags(first=...) on the enumerator and on a search with no filter
    (as `iter_subspaces` runs it): exactly the flags of flags() whose first
    point lies in the range, in order, and the ranges count the nodes of
    the whole search but its root."""
    space = ENUM_SPACES[name]()
    pts = space.singular_points()
    for make in (lambda: enumerator_search(space), lambda: FlagSearch(space.fv, pts, 2)):
        whole = make()
        flags = list(whole.flags())
        n = len(pts)
        cuts = [0, 1, n // 3, n // 2 + 5, n + 3]
        total = np.zeros(whole.target + 1, dtype=np.int64)
        for lo, hi in zip(cuts, cuts[1:]):
            part = make()
            assert list(part.flags(range(lo, hi))) == [f for f in flags if lo <= f[0] < hi]
            total += part.stats().depth_nodes
        total[0] += 1
        assert total.tolist() == whole.depth_nodes


# ---------------------------------------------------------------------------
# Line-compatibility rows against their definition, and the former span-key
# uncovered test kept as the oracle
# ---------------------------------------------------------------------------


def greedy_partial_spread(space):
    """Pairwise disjoint maximal t.s./t.i. subspaces, first fit in
    enumeration order."""
    members, seen = [], set()
    for w in space.maximal_totally_singular():
        keys = set(point_keys(space.fv, w.points()).tolist())
        if not keys & seen:
            members.append(w)
            seen |= keys
    return members


def line_points(space, pts):
    """L[x, j, lambda]: the position in all_points of canonical j + lambda x,
    lambda != 0, for every pair of points of pts (-1 for the zero vector),
    from canonicalized coordinate rows in blocks of x."""
    fv = space.fv
    tw = fv.tower
    keys = point_keys(fv, all_points(fv, space.dim))
    nz = fv.elements()[1:]
    n, dim = pts.shape
    step = max(1, (1 << 21) // (n * len(nz) * dim))
    out = np.full((n, n, len(nz)), -1, dtype=np.int16)
    for lo in range(0, n, step):
        xs = tw.vmul(nz[None, :, None], pts[lo : lo + step, None, :])  # (b, q - 1, dim)
        flat = tw.vadd(pts[None, :, None, :], xs[:, None, :, :]).reshape(-1, dim)
        live = flat.any(axis=1)
        at = np.full(len(flat), -1, dtype=np.int16)
        at[live] = np.searchsorted(keys, point_keys(fv, canonicalize_points(fv, flat[live])))
        out[lo : lo + step] = at.reshape(-1, n, len(nz))
    return out


def rows_by_definition(space, lines, outer, pts, perp):
    """G[x, j]: every point j + lambda x, lambda != 0, is one of pts, and
    (with `perp`) B(x, j) = 0 from the field product pts G pts^T; `lines`
    holds the line points of the points `outer`, which include pts."""
    fv = space.fv
    universe = point_keys(fv, all_points(fv, space.dim))
    listed = np.zeros(len(universe) + 1, dtype=bool)  # position -1: the zero vector
    listed[np.searchsorted(universe, point_keys(fv, pts))] = True
    at = np.searchsorted(point_keys(fv, outer), point_keys(fv, pts))
    rows = listed[lines[np.ix_(at, at)]].all(axis=2)
    if perp:
        rows &= mat_mul(fv, mat_mul(fv, pts, space.gram), pts.T) == 0
    return rows


def graph_rows(search):
    g = search.graph
    bits = g.rows(np.arange(len(search.pts)))
    return np.unpackbits(bits.view(np.uint8), axis=1, bitorder="little")[:, : len(search.pts)] == 1


ROW_SPACES = {
    "O+(8,2)": lambda: oplus_space(2, 4),
    "Sp(6,2)": lambda: sp_space(2, 3),
    "O+(6,4)": lambda: oplus_space(4, 3),
    "Sp(4,4)": lambda: sp_space(4, 2),
    "O+(8,3)": lambda: oplus_space(3, 4),
    "Sp(6,3)": lambda: sp_space(3, 3),
}


@pytest.mark.parametrize("name", list(ROW_SPACES))
def test_line_rows_match_their_definition(name):
    """Every row the engine builds, for each flavor the space admits and a
    first-fit partial spread less 0 to 3 members.  Orthogonal rows are built
    without `Perp`, and equal the rows built with it."""
    space = ROW_SPACES[name]()
    members = greedy_partial_spread(space)
    flavors = ["symplectic", "plain"] + (["orthogonal"] if space.qcoef is not None else [])
    shortest = SubspaceFamily(space, members[:-3], Provenance("t", {}), expected_size=None)
    outer = V.cover_report(shortest, "plain").uncovered_points
    lines = line_points(space, outer)
    for drop in range(4):
        fam = SubspaceFamily(space, members[: len(members) - drop], Provenance("t", {}), expected_size=None)
        for flavor in flavors:
            pts = V.cover_report(fam, flavor).uncovered_points
            search = V._build_search(space, flavor, pts, None)
            assert (search.graph.perp is None) == (flavor != "symplectic")
            got = graph_rows(search)
            want = rows_by_definition(space, lines, outer, pts, flavor != "plain")
            assert np.array_equal(got, want), (drop, flavor)
            if flavor == "orthogonal":
                with_perp = FlagSearch(space.fv, pts, space.dim // 2, perp=Perp(space, pts), lines=True)
                assert np.array_equal(graph_rows(with_perp), got), drop


def span_key_engine(fam, flavor):
    """Verdict and witness of the former engine: a node keeps the keys of
    every vector of its span, and a child is eligible only if every key of
    child + span is a multiple of an uncovered point (a sorted array of the
    multiples, `isin_sorted`)."""
    space = fam.space
    pts = V.cover_report(fam, flavor).uncovered_points
    adj = None if flavor == "plain" else perp_adjacency(space, pts)
    search = FlagSearch(space.fv, pts, space.dim // 2)
    pk = search.packing
    allowed = np.sort(pk.multiples(pts).ravel())

    def walk(flag, span, cand):
        if len(flag) == search.target:
            return flag
        if len(cand) < search.need[len(flag)]:
            return None
        for pos in eligible_positions(search, cand, flag):
            i, rest = int(cand[pos]), cand[pos + 1 :]
            if not isin_sorted(pk.kadd(search.keys[i], span), allowed).all():
                continue
            grown = np.concatenate([span, pk.kadd(pk.multiples(pts[[i]])[0][:, None], span).ravel()])
            found = walk(flag + [i], grown, rest if adj is None else rest[adj[i, rest]])
            if found is not None:
                return found
        return None

    flag = walk([], np.zeros(1, dtype=np.int64), np.arange(len(pts)))
    if flag is None:
        return "maximal", None
    return "extendable", search.subspace(flag)


tri = F.triality_pointset
ENGINE_FAMILIES = {
    "thm3.1(2,1)": (lambda: F.transversal_spread(2, 1), "symplectic"),
    "thm3.1(4,1)": (lambda: F.transversal_spread(4, 1), "symplectic"),
    "thm3.1(2,2)": (lambda: F.transversal_spread(2, 2), "symplectic"),
    "thm5.2i(2,2)-sp": (lambda: F.grassl_spread(2, 2, "i"), "symplectic"),
    "thm5.2i(2,2)-o": (lambda: F.grassl_spread(2, 2, "i"), "orthogonal"),
    "thm5.2ii(2,2)": (lambda: F.grassl_spread(2, 2, "ii"), "symplectic"),
    "prop4.1(2,2)-plain": (lambda: F.orthogonal_spread(2, 2), "plain"),
    "prop4.1(2,2)-o": (lambda: F.orthogonal_spread(2, 2), "orthogonal"),
    "thm8.1(2)": (lambda: F.sp6_line_replace(2), "symplectic"),
    "thm8.1(4)": (lambda: F.sp6_line_replace(4), "symplectic"),
    "lem7.8(2)-triality": (lambda: tri(F.two_quadrics_ovoid(2)), "orthogonal"),
    "ex7.4(3)-triality": (lambda: tri(F.elliptic_or_o5_partial_ovoid(3, "elliptic_quadric")), "orthogonal"),
    "thm7.2(4)-triality": (lambda: tri(F.orthovoid_bullet(4, 1, "A6i")), "orthogonal"),
    "desarguesian(4,2)": (lambda: F.desarguesian_symplectic_spread(4, 2), "symplectic"),
    "desarguesian(8,2)": (lambda: F.desarguesian_symplectic_spread(8, 2), "symplectic"),
    "ex7.4(4)-triality": (lambda: tri(F.elliptic_or_o5_partial_ovoid(4, "elliptic_quadric")), "orthogonal"),
    "lem7.8(3)-triality": (lambda: tri(F.two_quadrics_ovoid(3)), "orthogonal"),
}


@pytest.mark.parametrize("name", list(ENGINE_FAMILIES))
def test_engine_matches_the_span_key_oracle(name):
    """Verdicts and witnesses, each family whole and less 1, 2 and 3 members."""
    build, flavor = ENGINE_FAMILIES[name]
    fam = build()
    for drop in range(4):
        short = fam if drop == 0 else _short(fam, drop)
        cert = V.check_maximal_spread(short, flavor)
        assert (cert.verdict, cert.witness) == span_key_engine(short, flavor), drop


# ---------------------------------------------------------------------------
# The batched expansion: pass sizes, laziness, the cap, batched RREF and
# stacked points
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("space", [oplus_space(3, 4), sp_space(4, 3)], ids=repr)
def test_tiny_passes_do_not_change_results(monkeypatch, space):
    """Passes of 200 words (6 to 11 pairs, a set word often split over two
    passes and a dense one taken whole) give the same lists, order and nodes
    by depth as the default passes, and so do iter_subspaces orders."""
    pts = space.singular_points()

    def listing():
        search = enumerator_search(space)
        mats = [m.mat.tolist() for m in spaces._enumerate_maximal_flags(space, pts, search.target, 10**6)]
        assert sum(1 for _ in search.flags()) == len(mats)
        return mats, search.stats().depth_nodes.tolist()

    fv = space.fv
    container = canonicalize(fv, np.eye(space.dim, dtype=np.int64)[1:5], space.dim)
    whole = listing(), [w.mat.tolist() for w in iter_subspaces(fv, container, 2)]
    monkeypatch.setattr(spaces, "PASS_WORDS", 200)
    tiny = listing(), [w.mat.tolist() for w in iter_subspaces(fv, container, 2)]
    assert tiny == whole
    assert whole[0][0] == [w.mat.tolist() for w in space.maximal_totally_singular()]


def test_the_cap_still_raises():
    space = sp_space(3, 3)
    pts = space.singular_points()
    with pytest.raises(spaces.OutOfDeskScale):
        spaces._enumerate_maximal_flags(space, pts, space.witt_index, 1119)
    assert len(spaces._enumerate_maximal_flags(space, pts, space.witt_index, 1120)) == 1120


def test_a_first_flag_visits_few_nodes():
    """The container of families._first_anisotropic_plane at q = 25 has
    16,276 points and 16,926 lines: the first line comes from the first
    small passes."""
    fv = standalone(25)
    middle = canonicalize(fv, np.eye(8, dtype=np.int64)[2:6], 8)
    pts = middle.points()
    search = FlagSearch(fv, pts[:, [2, 3, 4, 5]], 2)
    flag = next(search.flags())
    assert canonicalize(fv, pts[flag], 8) == next(iter_subspaces(fv, middle, 2))
    # the root, one pass of children and one of leaves: 16 pairs, or one
    # word's 64
    assert search.nodes <= 1 + 64 + 64


@pytest.mark.parametrize("name", ["O+(6,3)", "Sp(6,2)", "Sp(4,9)", "O(5,4)", "O-(4,8)"])
def test_reversed_flags_are_the_rref(name):
    """Every enumerated flag read backwards, and every ambient flag of
    iter_subspaces in a proper container, is its span's RREF basis."""
    space = ENUM_SPACES[name]()
    fv, search = space.fv, enumerator_search(space)
    blocks = list(search.flag_blocks())
    assert sum(map(len, blocks)) == len(space.maximal_totally_singular())
    for block in blocks:
        for flag in block:
            want = canonicalize(fv, search.pts[flag], space.dim).mat
            assert np.array_equal(search.pts[flag[::-1]], want)
    rng = np.random.default_rng(fv.q)
    container = canonicalize(fv, fv.elements()[rng.integers(0, fv.q, size=(3, space.dim))], space.dim)
    pts = container.points()
    pivots = np.argmax(container.mat != 0, axis=1)
    for flag in FlagSearch(fv, pts[:, pivots], 2).flags():
        assert np.array_equal(pts[flag[::-1]], canonicalize(fv, pts[flag], space.dim).mat)


@pytest.mark.parametrize("name", ["O+(6,3)", "Sp(6,2)", "Sp(4,9)", "O(5,4)", "O-(4,8)"])
def test_stacked_points_equal_subspace_points(name):
    """For every enumerated W, stacked with the others and alone, against
    W's canonicalized span vectors sorted by canonical index."""
    from polarspread.linalg import stacked_points

    space = ENUM_SPACES[name]()
    fv, listed = space.fv, space.maximal_totally_singular()
    stacked = stacked_points(fv, np.stack([w.mat for w in listed]))
    for pts, w in zip(stacked, listed):
        vecs = span_vectors(fv, w.mat, space.dim)[1:]
        canon = np.unique(canonicalize_points(fv, vecs), axis=0)
        want = canon[np.argsort(point_keys(fv, canon))]
        assert np.array_equal(pts, w.points())
        assert np.array_equal(pts, want)


@pytest.mark.parametrize(
    "space", [sp_space(5, 2), parabolic_space(3), sp_space(9, 2), oplus_space(3, 3)], ids=repr
)
def test_perp_row_blocks_match_the_per_point_rows(monkeypatch, space):
    """Without kernel masks (odd p), `Perp.blocks` builds row blocks with
    one product each, here of about 1,000 entries; whole and upper blocks
    equal the former one-point rows, `vbform` of every point against one."""
    monkeypatch.setattr(spaces, "PERP_BLOCK", 1000)
    pts = space.singular_points()
    perp = Perp(space, pts)
    assert perp.keys is None
    want = np.stack([space.vbform(pts, v) == 0 for v in pts])
    whole = np.zeros_like(want)
    upper = np.zeros_like(want)
    for lo, block in perp.blocks():
        whole[lo : lo + len(block)] = block
    for lo, block in perp.blocks(upper=True):
        upper[lo : lo + len(block), lo + 1 :] = block
    assert len(list(perp.blocks())) > 1
    assert np.array_equal(whole, want)
    assert np.array_equal(upper, np.triu(want, 1))
