"""Characteristic-2 kernel masks, last-coordinate singular points and the
blocked census against the code they replaced, kept here as the oracles:
`vbform` row scans for perpendicularity, the per-block `vqform` filter for
singular points, and the per-hyperplane loop for the census."""

import numpy as np
import pytest

from polarspread import families as F
from polarspread import gf
from polarspread import verify as V
from polarspread.cli import TABLE_ROWS, build
from polarspread.families import PointFamily
from polarspread.gf import PRIMITIVE_POLYS, FieldView
from polarspread.linalg import all_points, canonical_point_blocks, canonicalize, in_kernel
from polarspread.spaces import (
    MAX_ENUM_POINTS,
    FormedSpace,
    OutOfDeskScale,
    Perp,
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


def test_singular_points_of_table_spaces():
    """Every distinct space of a `polarspread table` row; those beyond the
    desk-scale guard must still be refused."""
    seen = set()
    for row_id, family_id, params, _flavor, _triality in TABLE_ROWS:
        # a triality image lies in the space of its point family
        space = fresh(build(family_id, **params).space)
        if repr(space.descriptor()) in seen:
            continue
        seen.add(repr(space.descriptor()))
        if space.point_count() > MAX_ENUM_POINTS:
            with pytest.raises(OutOfDeskScale):
                space.singular_points()
            continue
        assert np.array_equal(space.singular_points(), singular_oracle(space)), row_id


# ---------------------------------------------------------------------------
# ovoid certificates
# ---------------------------------------------------------------------------


def ovoid_oracle(fam, flavor):
    """The former scan: a boolean alive mask narrowed by one vbform per point."""
    space = fam.space
    cands = V.universe_points(space, flavor)
    alive = np.ones(len(cands), dtype=bool)
    for p in fam.points:
        idx = np.nonzero(alive)[0]
        if len(idx) == 0:
            break
        alive[idx[space.vbform(cands[idx], p) == 0]] = False
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
    verdict, witness, nodes = ovoid_oracle(fam, flavor)
    assert (cert.verdict, cert.nodes) == (verdict, nodes)
    if witness is None:
        assert cert.witness is None
    else:
        assert np.array_equal(cert.witness, witness)
    return cert


@pytest.mark.parametrize("name", list(OVOID_FAMILIES))
def test_ovoid_certificate_matches_scan(name):
    build, flavor = OVOID_FAMILIES[name]
    assert_certificate_matches(build(), flavor)


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
