"""Characteristic-2 kernel masks, the bit-plane ovoid scan, last-coordinate
singular points and the blocked census against the code they replaced,
kept here as the oracles: `vbform` row scans for perpendicularity and for
the ovoid scan, the per-block `vqform` filter for singular points, and the
per-hyperplane loop for the census."""

import numpy as np
import pytest

from polarspread import families as F
from polarspread import gf
from polarspread import spaces as S
from polarspread import verify as V
from polarspread.cli import TABLE_ROWS, build
from polarspread.families import PointFamily
from polarspread.gf import PRIMITIVE_POLYS, FieldView
from polarspread.linalg import (
    all_points,
    canonical_point_blocks,
    canonicalize,
    canonicalize_points,
    in_kernel,
    key_rows,
    mat_mul,
    point_keys,
)
from polarspread.spaces import (
    MAX_ENUM_POINTS,
    FormedSpace,
    OutOfDeskScale,
    Perp,
    make_orthogonal,
    ominus4_space,
    oplus_space,
    parabolic_space,
    perp_adjacency,
    sp_space,
)

# ---------------------------------------------------------------------------
# kernel masks
# ---------------------------------------------------------------------------

CHAR2_VIEWS = [
    (d, e)
    for (p, d) in sorted(PRIMITIVE_POLYS)
    if p == 2 and 2**d <= 256
    for e in range(1, d + 1)
    if d % e == 0
]


def char2_view(d, e):
    return FieldView(gf.tower(2, d, tuple(k for k in range(1, d + 1) if d % k == 0)), e)


def random_space(fv, dim, rng) -> FormedSpace:
    """A symmetric Gram with zero diagonal (alternating in characteristic 2)."""
    elems = fv.elements()
    gram = elems[rng.integers(0, len(elems), (dim, dim))]
    gram = np.triu(gram, 1)
    return FormedSpace(fv, dim, "symplectic", gram + gram.T)


def vectors(fv, dim, rng, limit=256):
    """Every vector of fv^dim when there are at most `limit`, else `limit`
    random ones."""
    elems = fv.elements()
    if len(elems) ** dim <= limit:
        grids = np.meshgrid(*[elems] * dim, indexing="ij")
        return np.stack(grids, axis=-1).reshape(-1, dim)
    return elems[rng.integers(0, len(elems), (limit, dim))]


def assert_masks_match_vbform(space, vecs):
    perp = Perp(space, vecs)
    got = in_kernel(perp.keys[None, :], perp.masks[:, None, :])
    want = np.array([space.vbform(vecs, v) == 0 for v in vecs])
    assert np.array_equal(got, want)


@pytest.mark.parametrize("d,e", CHAR2_VIEWS)
def test_kernel_masks_match_vbform_all_pairs(d, e):
    """in_kernel(key(x), masks of B(., v)) is vbform(x, v) == 0 on every
    pair of vectors in dimensions 1 to 4 (sampled where fv^dim has more
    than 256 vectors)."""
    fv = char2_view(d, e)
    rng = np.random.default_rng(1000 * d + e)
    for dim in range(1, 5):
        space = random_space(fv, dim, rng)
        assert_masks_match_vbform(space, vectors(fv, dim, rng))


@pytest.mark.parametrize("d,e", CHAR2_VIEWS)
def test_kernel_masks_in_the_widest_packing(d, e):
    """Random vectors in the largest dimension whose keys fit, so every key
    bit has a mask bit to be tested against."""
    fv = char2_view(d, e)
    rng = np.random.default_rng(2000 * d + e)
    dim = 62 // e
    space = random_space(fv, dim, rng)
    assert space.bit_packing is not None
    assert_masks_match_vbform(space, vectors(fv, dim, rng))


@pytest.mark.parametrize("d,e", CHAR2_VIEWS)
def test_kernel_masks_of_any_functional(d, e):
    """kernel_masks(c) on random coefficient rows against sum c_i x_i."""
    fv = char2_view(d, e)
    tw = fv.tower
    rng = np.random.default_rng(3000 * d + e)
    dim = min(4, 62 // e)
    elems = fv.elements()
    coefs = elems[rng.integers(0, len(elems), (64, dim))]
    xs = vectors(fv, dim, rng)
    packing = FormedSpace(fv, dim, "symplectic", np.zeros((dim, dim))).bit_packing
    got = in_kernel(packing.pack(xs)[None, :], packing.kernel_masks(coefs)[:, None, :])
    want = np.zeros((len(coefs), len(xs)), dtype=np.int64)
    for i in range(dim):
        want = tw.vadd(want, tw.vmul(coefs[:, i, None], xs[None, :, i]))
    assert np.array_equal(got, want == 0)


def test_no_bit_packing_for_odd_p_or_wide_spaces():
    assert parabolic_space(3).bit_packing is None
    wide = FieldView(gf.tower(2, 11), 11)
    assert FormedSpace(wide, 6, "symplectic", np.zeros((6, 6))).bit_packing is None
    assert oplus_space(8, 4).bit_packing is not None


def adjacency_oracle(space, pts):
    return np.array([space.vbform(pts, p) == 0 for p in pts])


@pytest.mark.parametrize("space", [sp_space(4, 3), oplus_space(2, 4), oplus_space(3, 3)])
def test_perp_adjacency_matches_row_scan(space):
    pts = space.singular_points()
    assert np.array_equal(perp_adjacency(space, pts), adjacency_oracle(space, pts))


def test_is_ti_and_partial_ovoid_match_row_scans():
    space = oplus_space(4, 4)
    rng = np.random.default_rng(5)
    pts = space.singular_points()
    for _ in range(40):
        rows = pts[rng.choice(len(pts), size=rng.integers(1, 5), replace=False)]
        sub = canonicalize(space.fv, rows, space.dim)
        want = all((space.vbform(sub.mat, r) == 0).all() for r in sub.mat)
        assert space.is_ti(sub) == want
        fam = PointFamily(space, rows, F.Provenance("test", {}))
        adj = adjacency_oracle(space, rows)
        assert V.is_partial_ovoid(fam) == (not np.triu(adj, 1).any())


# ---------------------------------------------------------------------------
# singular points
# ---------------------------------------------------------------------------


def singular_oracle(space):
    blocks = canonical_point_blocks(space.fv, space.dim)
    return np.vstack([b[space.vqform(b) == 0] for b in blocks])


def block_points(space):
    return np.vstack(list(canonical_point_blocks(space.fv, space.dim)))


def universe_rows(space, flavor):
    return key_rows(space.fv, V.universe(space, flavor), space.dim)


def fresh(space) -> FormedSpace:
    return FormedSpace(space.fv, space.dim, space.kind, space.gram, space.qcoef)


def standard_spaces():
    for q in (2, 3, 4, 5, 7, 8, 9):
        yield oplus_space(q, 2)
        yield oplus_space(q, 3)
        yield parabolic_space(q)
        yield ominus4_space(q)


@pytest.mark.parametrize("space", list(standard_spaces()), ids=repr)
def test_singular_points_match_block_filter(space):
    space = fresh(space)
    got = space.singular_points()
    assert np.array_equal(got, singular_oracle(space))
    assert len(got) == space.singular_count()


def test_standard_spaces_cover_both_cases_of_q_of_last_unit():
    last = np.eye(4, dtype=np.int64)[-1]
    assert ominus4_space(3).qform(last) != 0 and ominus4_space(4).qform(last) != 0
    assert oplus_space(3, 2).qform(last) == 0


def table_spaces():
    """(row id, fresh space) for every distinct space of a `polarspread
    table` row; a triality image lies in the space of its point family."""
    seen = set()
    for row_id, family_id, params, _flavor, _triality in TABLE_ROWS:
        space = fresh(build(family_id, **params).space)
        if repr(space.descriptor()) not in seen:
            seen.add(repr(space.descriptor()))
            yield row_id, space


def test_singular_points_of_table_spaces():
    """Every distinct space of a table row; those beyond the desk-scale
    guard must still be refused."""
    for row_id, space in table_spaces():
        if space.point_count() > MAX_ENUM_POINTS:
            with pytest.raises(OutOfDeskScale):
                space.singular_points()
            continue
        assert np.array_equal(space.singular_points(), singular_oracle(space)), row_id


ROOT_VIEWS = [
    FieldView(gf.tower(p, d), d) for p, d in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (7, 1)]
] + [char2_view(4, 2), char2_view(6, 3), FieldView(gf.tower(3, 2, (1, 2)), 1)]


@pytest.mark.parametrize("fv", ROOT_VIEWS, ids=repr)
def test_quadratic_roots_match_every_t(fv):
    """Every equation c + b t + a t^2 = 0 over the view, subfield views of a
    larger tower included: the roots are the t that vanish, by entry and in
    ascending tower index, and a = b = c = 0 gives all q of them."""
    tw, elems = fv.tower, fv.elements()
    b, c = (g.ravel() for g in np.meshgrid(elems, elems, indexing="ij"))
    for a in elems:
        vals = tw.vadd(tw.vadd(c[:, None], tw.vmul(b[:, None], elems[None, :])),
                       tw.vmul(np.int64(a), tw.vmul(elems, elems))[None, :])
        want_row, col = np.nonzero(vals == 0)
        row, t = S._quadratic_roots(fv, int(a), b, c)
        assert np.array_equal(row, want_row) and np.array_equal(t, elems[col]), int(a)
        if a == 0:
            assert np.array_equal(t[row == 0], elems)  # b = c = 0


def dimension_two_spaces(q):
    """O+(2,q) and every Q = c x1^2 + b x1 x2 + a x2^2 with b != 0, so that
    its polarization is nondegenerate; a = 0 puts e_2 on the quadric."""
    fv = gf.standalone(q)
    yield oplus_space(q, 1)
    for a in fv.elements()[:3]:
        for c in fv.elements()[:3]:
            yield make_orthogonal(fv, np.array([[c, 1], [0, a]]), "orthogonal")


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
def test_singular_points_of_dimension_two(q):
    for space in dimension_two_spaces(q):
        got = fresh(space).singular_points()
        assert np.array_equal(got, singular_oracle(space)), space.qcoef.tolist()


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_a_prefix_with_zero_q_b_and_a_yields_every_t(q):
    """In O+(4,q), Q = x1 x2 + x3 x4, Q(e_4) = 0 and the prefix y = e_1 has
    B(y, e_4) = Q(y) = 0: all q points e_1 + t e_4 are singular, in order."""
    space = fresh(oplus_space(q, 2))
    y = np.eye(4, dtype=np.int64)[0]
    last = np.eye(4, dtype=np.int64)[-1]
    assert space.qform(last) == space.bform(y, last) == space.qform(y) == 0
    pts = space.singular_points()
    line = pts[(pts[:, :3] == y[:3]).all(axis=1)]
    assert np.array_equal(line[:, 3], space.fv.elements())
    assert np.array_equal(pts, singular_oracle(space))


def key_solver_spaces():
    """Every standard space, O+(8,3) and O+(16,2), and every dimension-two
    space: p = 2 and odd p, Q(e_n) zero and not."""
    yield from standard_spaces()
    yield oplus_space(3, 4)
    yield oplus_space(2, 8)
    for q in (2, 3, 4, 5, 8, 9):
        yield from dimension_two_spaces(q)


@pytest.mark.parametrize("block", [None, 1, 40])
def test_key_solver_matches_the_filter_oracle(monkeypatch, block):
    """The solved keys are the `point_keys` of the filtered points, and the
    rows unpacked from them are those points, in order.  A small
    POINT_BLOCK splits the prefixes of one leading column over several
    blocks (1: one prefix per block; 40: partial head groups for q = 4)."""
    if block is not None:
        monkeypatch.setattr(S, "POINT_BLOCK", block)
    qs = set()
    for space in key_solver_spaces():
        want = singular_oracle(space)
        space = fresh(space)
        keys = space.singular_keys()
        assert space._singular is None  # keys first, rows only when asked
        assert np.array_equal(keys, point_keys(space.fv, want)), repr(space)
        assert np.array_equal(space.singular_points(), want), repr(space)
        qs.add(space.fv.p)
    assert {2, 3, 5} <= qs


@pytest.mark.parametrize("q,n", [(2, 3), (3, 2), (4, 2), (5, 2)])
def test_symplectic_singular_keys_are_every_point(q, n):
    """With no Q every point is singular: the keys of every canonical point
    in order, and `point_keys()` gives the same keys uncached."""
    space = fresh(sp_space(q, n))
    want = point_keys(space.fv, block_points(space))
    assert np.array_equal(space.singular_keys(), want)
    assert np.array_equal(space.point_keys(), want)
    assert np.array_equal(space.singular_points(), block_points(space))


def test_ovoid_scan_on_keys_leaves_the_rows_unmade():
    """appA(8) on a fresh O+(8,8): the scan reads the universe's keys only,
    so no singular-point rows are made, and the verdict, candidates and
    live counts are those the row-based scan gave (pinned by digest)."""
    import hashlib
    import json

    fam = F.desarguesian_ovoid(8)
    fam = PointFamily(fresh(fam.space), fam.points, fam.provenance)
    cert = V.check_maximal_ovoid(fam, "orthogonal")
    assert fam.space._singular is None
    assert (cert.verdict, cert.nodes, cert.witness) == ("maximal", 300105, None)
    live = cert.stats["live"]
    assert len(live) == 513 and live[:3] == [262144, 228928, 199872] and live[-1] == 0
    digest = hashlib.sha256(json.dumps(live).encode()).hexdigest()
    assert digest == "ecfc28588523cc9de2454244c0c1de8829b9f19d7403e7c60a5b10bf426a5ced"
    verdict, _, nodes = ovoid_oracle(fam, "orthogonal")
    assert (verdict, nodes) == (cert.verdict, cert.nodes)


@pytest.mark.parametrize("space", list(standard_spaces()), ids=repr)
def test_singular_keys_are_the_point_keys(space):
    """The cached keys are `point_keys` of the singular points, the
    `bit_packing` keys too for p = 2, read-only and made once."""
    space = fresh(space)
    keys = space.singular_keys()
    assert np.array_equal(keys, point_keys(space.fv, space.singular_points()))
    if space.fv.p == 2:
        assert np.array_equal(keys, space.bit_packing.pack(space.singular_points()))
    assert not keys.flags.writeable
    with pytest.raises(ValueError):
        keys[0] = 0
    assert space.singular_keys() is keys


def universe_spaces():
    yield from ((repr(space), space) for space in standard_spaces())
    yield from ((row_id, space) for row_id, space in table_spaces()
                if space.point_count() <= MAX_ENUM_POINTS)


@pytest.mark.parametrize("flavor", ["orthogonal", "plain"])
def test_universe_keys_strictly_ascend(flavor):
    """Singular and all-points universes, odd and even q: the keys are the
    points' `point_keys` and strictly ascending, so a `searchsorted` on them
    needs no sort."""
    qs = set()
    for name, space in universe_spaces():
        keys = V.universe(space, flavor)
        pts = space.singular_points() if flavor == "orthogonal" else block_points(space)
        assert len(pts) == len(keys) > 0, name
        assert np.array_equal(keys, point_keys(space.fv, pts)), name
        assert (keys[1:] > keys[:-1]).all(), name
        qs.add(space.q)
    assert {2, 3} <= qs


# ---------------------------------------------------------------------------
# ovoid certificates
# ---------------------------------------------------------------------------


def ovoid_oracle(fam, flavor, live=None):
    """The former scan: a boolean alive mask narrowed by one vbform per
    point.  `live`, if given, is extended by the candidates left after each
    point, up to the first 0."""
    space = fam.space
    cands = universe_rows(space, flavor)
    alive = np.ones(len(cands), dtype=bool)
    for p in fam.points:
        idx = np.nonzero(alive)[0]
        if len(idx) == 0:
            break
        alive[idx[space.vbform(cands[idx], p) == 0]] = False
        if live is not None:
            live.append(int(alive.sum()))
    hit = np.nonzero(alive)[0]
    witness = cands[hit[0]] if len(hit) else None
    return ("extendable" if len(hit) else "maximal"), witness, len(cands)


OVOID_FAMILIES = {
    "appA(8)": (lambda: F.desarguesian_ovoid(8), "orthogonal"),
    "thm7.3(8,1)-A6i": (lambda: F.orthovoid_bullet(8, 1, "A6i"), "orthogonal"),
    "thm7.3(8,1)-A6ii": (lambda: F.orthovoid_bullet(8, 1, "A6ii"), "orthogonal"),
    "lem7.8(8)": (lambda: F.two_quadrics_ovoid(8), "orthogonal"),
    "ex7.4(8)": (lambda: F.elliptic_or_o5_partial_ovoid(8, "elliptic_quadric"), "orthogonal"),
    "lem7.5-st(8)": (lambda: F.elliptic_or_o5_partial_ovoid(8, "suzuki_tits"), "orthogonal"),
    "thm7.10(8)": (lambda: F.st_pencil_replace(8), "orthogonal"),
    "thm7.11(8)": (lambda: F.st_section_replace(8), "orthogonal"),
    "thm9.1(7,1)": (lambda: F.conic_replace(7, 1), "orthogonal"),
    "thm9.1(9,1)": (lambda: F.conic_replace(9, 1), "orthogonal"),
    "ex9.2(8,3)": (lambda: F.three_lines(8, 3), "symplectic"),
}


def assert_certificate_matches(fam, flavor):
    cert = V.check_maximal_ovoid(fam, flavor)
    live = []
    verdict, witness, nodes = ovoid_oracle(fam, flavor, live)
    assert (cert.verdict, cert.nodes, cert.stats["live"]) == (verdict, nodes, live)
    if witness is None:
        assert cert.witness is None
    else:
        assert np.array_equal(cert.witness, witness)
    return cert


# (group, points dropped): every ovoid-workload family whole and less its
# last 1, 2 and 3 points; ST(8), in O(5,8) and in O+(8,8), less its first
# 1, 3 and 9; and a symplectic-flavor scan over all points of O+(8,4)
SCAN_CASES = [(name, -drop) for name in OVOID_FAMILIES for drop in range(4)]
SCAN_CASES += [(name, drop) for name in ("ST(8)", "lem7.5-st(8)") for drop in (1, 3, 9)]
SCAN_CASES += [("ex7.4(4)-symplectic", 0)]


@pytest.mark.parametrize("name,drop", SCAN_CASES, ids=[f"{n}{d:+d}" if d else n for n, d in SCAN_CASES])
def test_ovoid_certificate_matches_scan(name, drop):
    """The bit-plane scan, with its keyed tail, gives the former scan's
    verdict, witness, candidates and whole list of live counts (less
    `drop` points: the first ones if positive, the last if negative).
    Every p = 2 case here applies its first members on the bitset and the
    rest on keys."""
    if name == "ex7.4(4)-symplectic":
        fam, flavor = F.elliptic_or_o5_partial_ovoid(4, "elliptic_quadric"), "symplectic"
    elif name == "ST(8)":
        fam, flavor = F.suzuki_tits_ovoid(8), "orthogonal"
    else:
        build, flavor = OVOID_FAMILIES[name]
        fam = build()
    pts = fam.points[drop:] if drop >= 0 else fam.points[:drop]
    cert = assert_certificate_matches(PointFamily(fam.space, pts, fam.provenance), flavor)
    sliced = cert.stats["sliced"]
    if fam.space.bit_packing is None:
        assert sliced == 0
    else:
        assert 0 < sliced < len(cert.stats["live"])


def fresh_key_scan(fam, flavor):
    """The scan with the universe's keys packed again inside `Perp`."""
    space = fam.space
    cands = universe_rows(space, flavor)
    alive = np.arange(len(cands))
    perp = Perp(space, cands, fam.points)
    for k in range(len(fam.points)):
        alive = alive[~perp.to(k, alive)]
    witness = cands[alive[0]] if len(alive) else None
    return ("extendable" if len(alive) else "maximal"), witness, len(cands)


@pytest.mark.parametrize("name", list(OVOID_FAMILIES))
def test_ovoid_certificate_matches_freshly_packed_keys(name):
    """Each ovoid-workload family whole and less 1, 2 and 3 points: the
    certificate read from the cached keys gives the verdict, witness and
    nodes of a scan that packs the keys again."""
    build, flavor = OVOID_FAMILIES[name]
    fam = build()
    for drop in range(4):
        short = fam if drop == 0 else PointFamily(fam.space, fam.points[:-drop], fam.provenance)
        cert = V.check_maximal_ovoid(short, flavor)
        verdict, witness, nodes = fresh_key_scan(short, flavor)
        assert (cert.verdict, cert.nodes) == (verdict, nodes), drop
        if witness is None:
            assert cert.witness is None
        else:
            assert np.array_equal(cert.witness, witness), drop


@pytest.mark.parametrize("n", [0, 1, 63, 65, 1000])
def test_key_planes_are_the_key_bits(n):
    """Row b of `key_planes`, unpacked, is (keys >> b) & 1, for every bit up
    to the largest key's; the bits past n are 0."""
    rng = np.random.default_rng(n)
    keys = rng.integers(0, 1 << 62, n) >> rng.integers(0, 62, n)
    planes = S.key_planes(keys)
    nbits = int(keys.max()).bit_length() if n else 0
    assert planes.shape == (nbits, (n + 63) // 64) and planes.dtype == np.uint64
    bits = np.unpackbits(planes.view(np.uint8), axis=1, bitorder="little")
    want = (keys[None, :] >> np.arange(nbits)[:, None]) & 1
    assert np.array_equal(bits[:, :n], want) and not bits[:, n:].any()


def test_singular_planes_are_cached_planes_of_the_singular_keys():
    space = fresh(oplus_space(8, 4))
    planes = space.singular_planes()
    assert np.array_equal(planes, S.key_planes(space.singular_keys()))
    assert len(planes) == int(space.singular_keys().max()).bit_length() == 22
    assert not planes.flags.writeable and space.singular_planes() is planes


def test_ovoid_certificate_witness_after_removal():
    """Without one point the family extends; several candidates come alive,
    and the witness must be the first of them in canonical order."""
    fam = F.elliptic_or_o5_partial_ovoid(8, "suzuki_tits")
    short = PointFamily(fam.space, fam.points[1:], fam.provenance)
    cert = assert_certificate_matches(short, "orthogonal")
    assert cert.verdict == "extendable"


# ---------------------------------------------------------------------------
# hyperplane census
# ---------------------------------------------------------------------------


def census_oracle(u_space, fam):
    q, fv = u_space.q, u_space.fv
    tw = fv.tower
    root2q = round((2 * q) ** 0.5)
    allowed = {1, q + 1}
    if root2q * root2q == 2 * q:
        allowed |= {q - root2q + 1, q + root2q + 1}
    radical = np.zeros(5, dtype=np.int64)
    radical[0] = 1
    sing = u_space.singular_points()
    sizes, type_counts, tangent, nplanes = {}, {}, 0, 0

    def functional_values(phi, rows):
        acc = np.zeros(len(rows), dtype=np.int64)
        for i in range(5):
            if phi[i]:
                acc = tw.vadd(acc, tw.vmul(rows[:, i], np.int64(phi[i])))
        return acc

    for phi in all_points(fv, 5):
        nplanes += 1
        hits = int((functional_values(phi, fam.points) == 0).sum())
        assert hits in allowed
        sizes[hits] = sizes.get(hits, 0) + 1
        has_radical = functional_values(phi, radical[None, :])[0] == 0
        nsing = int((functional_values(phi, sing) == 0).sum())
        if has_radical:
            tag = "tangent" if hits == 1 else "secant"
        else:
            tag = "minus" if nsing == q**2 + 1 else "plus"
        type_counts[tag] = type_counts.get(tag, 0) + 1
        if hits == 1:
            tangent += 1
    return V.CensusReport(sizes, tangent, type_counts, nplanes)


def elliptic_ovoid(q):
    """The elliptic-quadric ovoid of O(5,q): the first minus-type section."""
    para = parabolic_space(q)
    pts = F._singular_points_of(para, F._elliptic_hyperplane(para))
    return PointFamily(para, pts, F.Provenance("elliptic", {"q": q}))


@pytest.mark.parametrize("build,q", [(elliptic_ovoid, 2), (F.suzuki_tits_ovoid, 8)])
def test_census_matches_hyperplane_loop(build, q):
    ovoid = build(q)
    got = V.hyperplane_census(ovoid.space, ovoid)
    want = census_oracle(ovoid.space, ovoid)
    assert got == want
    assert list(got.sizes.items()) == list(want.sizes.items())
    assert list(got.type_counts.items()) == list(want.type_counts.items())


@pytest.mark.parametrize("block", [None, 50])
@pytest.mark.parametrize("q", [3, 4, 5, 8])
def test_census_zero_counts_match_the_functional_values(monkeypatch, q, block):
    """The census's zero counts of x . phi, on bit planes for even q and by
    field products for odd q, against each functional evaluated alone; a
    small KERNEL_BLOCK splits the hyperplanes over many blocks."""
    if block is not None:
        monkeypatch.setattr(V, "KERNEL_BLOCK", block)
    space = parabolic_space(q)
    tw = space.fv.tower
    planes, pts = space.points(), space.singular_points()
    want = []
    for phi in planes:
        acc = np.zeros(len(pts), dtype=np.int64)
        for i in np.flatnonzero(phi):
            acc = tw.vadd(acc, tw.vmul(pts[:, i], np.int64(phi[i])))
        want.append(int((acc == 0).sum()))
    assert (space.bit_packing is not None) == (q % 2 == 0)
    assert [c.tolist() for c in V._zero_counts(space, planes, [pts])] == [want]
    # several sets in one call (the census counts two): each set's counts
    # are its own, though each block's masks are shared
    few = pts[::7]
    want_few = [int((mat_mul(space.fv, phi[None, :], few.T) == 0).sum()) for phi in planes]
    got = V._zero_counts(space, planes, [few, pts, few[:1]])
    assert [c.tolist() for c in got[:2]] == [want_few, want]
    assert got[2].tolist() == [int((mat_mul(space.fv, phi[None, :], few[:1].T) == 0).sum()) for phi in planes]


# ---------------------------------------------------------------------------
# plane tables and the partial-ovoid test
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [0, 1, 65, 700])
@pytest.mark.parametrize("nbits", [1, 8, 21])
def test_plane_table_entries_are_xors_of_their_planes(n, nbits):
    """Entry s of group c is the XOR of planes 8c + i for the bits i of s,
    for every s and every group; planes past the last count as zero."""
    rng = np.random.default_rng(100 * n + nbits)
    planes = S.key_planes(rng.integers(0, 1 << nbits, n) | (1 << (nbits - 1)) * (n > 0))
    tables = S.plane_tables(planes)
    groups = (len(planes) + 7) // 8
    assert tables.shape == (groups, 256, planes.shape[1]) and tables.dtype == np.uint64
    for c in range(groups):
        for s in range(256):
            want = np.zeros(planes.shape[1], dtype=np.uint64)
            for i in range(8):
                if s >> i & 1 and 8 * c + i < len(planes):
                    want ^= planes[8 * c + i]
            assert np.array_equal(tables[c, s], want), (c, s)


@pytest.mark.parametrize("n", [1, 64, 300])
def test_off_kernel_is_the_complement_of_in_kernel(n):
    """off_kernel on the tables of random keys, against in_kernel of every
    key and every mask row, packed; mask bits past the keys' count too."""
    rng = np.random.default_rng(n)
    keys = rng.integers(0, 1 << 20, n)
    masks = rng.integers(0, 1 << 30, (40, 3))
    got = S.off_kernel(S.plane_tables(S.key_planes(keys)), masks)
    want = S.pack_bits(~in_kernel(keys[None, :], masks[:, None, :]))
    assert np.array_equal(got, want)


def test_plane_tables_over_the_cap_are_refused_before_they_are_made(monkeypatch):
    """The tables' bytes are checked against MAX_BITSET_BYTES first: under a
    cap one byte short, the refusal allocates nothing near their size."""
    import tracemalloc

    planes = np.zeros((9, 4000), dtype=np.uint64)
    size = 2 * 256 * 4000 * 8
    monkeypatch.setattr(S, "MAX_BITSET_BYTES", size - 1)
    tracemalloc.start()
    try:
        with pytest.raises(OutOfDeskScale, match="plane tables.*MAX_BITSET_BYTES"):
            S.plane_tables(planes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < size // 16
    monkeypatch.setattr(S, "MAX_BITSET_BYTES", size)
    assert S.plane_tables(planes).nbytes == size


def partial_ovoid_oracle(fam, flavor):
    """The former test: every pair i < j by its kernel mask on the keys."""
    space, pts = fam.space, fam.points
    if flavor == "orthogonal" and (space.qcoef is None or np.any(space.vqform(pts))):
        return False
    return not any(block.any() for _, block in Perp(space, pts).blocks(upper=True))


# every p = 2 point family of cli.FAMILIES at its perfbench and `table`
# parameters
CHAR2_POINT_FAMILIES = [
    ("appA", {"q": 4}),
    ("thm7.2", {"q": 4}),
    ("thm7.3", {"q": 8, "s": 1}),
    ("thm7.3", {"q": 16, "s": 4, "scheme": "A6ii"}),
    ("ex7.4", {"q": 4}),
    ("lem7.5-st", {"q": 8}),
    ("lem7.5-o5", {"q": 4}),
    ("lem7.8", {"q": 2}),
    ("thm7.10", {"q": 8}),
    ("thm7.11", {"q": 8}),
    ("thm7.12", {"q": 32, "s": 2}),
    ("ex9.2", {"q": 4}),
    ("appB-st", {"q": 32}),
]


def _singular_outside(space, fam, rng, count):
    """Up to `count` canonical singular points, not in the family, from
    random vectors."""
    elems = space.fv.elements()
    rows = elems[rng.integers(0, len(elems), (64 * space.q, space.dim))]
    rows = rows[np.any(rows, axis=1)]
    if space.qcoef is not None:
        rows = rows[space.vqform(rows) == 0]
    rows = canonicalize_points(space.fv, rows)
    keys = point_keys(space.fv, rows)
    inside = np.isin(keys, point_keys(space.fv, canonicalize_points(space.fv, fam.points)))
    _, first = np.unique(keys[~inside], return_index=True)
    return rows[~inside][np.sort(first)][:count]


@pytest.mark.parametrize(
    "fid,params", CHAR2_POINT_FAMILIES, ids=[f"{f}({','.join(map(str, p.values()))})" for f, p in CHAR2_POINT_FAMILIES]
)
def test_partial_ovoid_on_plane_tables_matches_the_pair_oracle(fid, params):
    """is_partial_ovoid against the upper-triangle oracle on the family
    whole, less one point, with one added singular point, and with a point
    perpendicular to exactly one member: the family less the others that
    point is perpendicular to, plus the point (a failing case whose only
    bad pair is that one)."""
    fam = build(fid, **params)
    space = fam.space
    assert space.bit_packing is not None
    flavor = "symplectic" if space.qcoef is None else "orthogonal"
    rng = np.random.default_rng(len(fam))

    def same(points):
        sub = PointFamily(space, points, fam.provenance)
        got = V.is_partial_ovoid(sub, flavor)
        assert got == partial_ovoid_oracle(sub, flavor)
        return got

    assert same(fam.points)
    assert same(np.delete(fam.points, len(fam) // 2, axis=0))
    single = 0
    for x in _singular_outside(space, fam, rng, 4):
        same(np.vstack([fam.points, x]))
        perp = np.flatnonzero(space.vbform(fam.points, x) == 0)
        if len(perp):
            keep = np.ones(len(fam), dtype=bool)
            keep[perp[1:]] = False
            assert not same(np.vstack([fam.points[keep], x]))
            single += 1
    assert single
