"""Forms, perps, singular enumeration, type classification, maximal t.s.
enumeration with brute-force cross-checks, projection/lift, descent, Klein."""

import itertools

import numpy as np
import pytest

from polarspread import gf, linalg, spaces
from polarspread.families import _ovoid_context
from polarspread.gf import FieldView
from polarspread.linalg import Subspace, all_points, canonicalize, mat_mul, rref
from polarspread.spaces import (
    Perp,
    TsType,
    ZProjection,
    embed,
    field_descend,
    find_isometry,
    klein_point_of_line,
    klein_space,
    make_orthogonal,
    oplus_space,
    parabolic_in_oplus8,
    parabolic_space,
    sp_space,
)
from subspace_helpers import all_subspaces_of_dim, descent_subspace_oracle, lift_oracle, ominus4_space


def test_symplectic_form_values():
    s = sp_space(2, 2)
    e1, f1, e2, f2 = np.eye(4, dtype=np.int64)
    assert s.bform(e1, f1) == 1
    assert s.bform(e1, e2) == 0
    for v in all_points(s.fv, 4):
        assert s.bform(v, v) == 0


@pytest.mark.parametrize("space", [sp_space(3, 2), oplus_space(2, 3)], ids=repr)
def test_is_ti_gram_product_matches_the_perp_blocks(space):
    """The one Gram product M G M^T against the former `Perp` test (every
    basis row perpendicular to every basis row), on every 1-, 2- and
    3-dimensional subspace."""
    seen = {True: 0, False: 0}
    for k in (1, 2, 3):
        for mats in all_subspaces_of_dim(space.fv, space.dim, k):
            for m in mats:
                want = not Perp(space, m).off(np.arange(len(m))).any()
                assert space.is_ti(Subspace(space.fv, space.dim, m)) == want, m
                seen[want] += 1
    assert seen[True] > 0 and seen[False] > 0


def test_quadratic_scaling():
    o = oplus_space(3, 2)
    tw = o.fv.tower
    rng = np.random.default_rng(5)
    for _ in range(30):
        v = rng.integers(0, 3, size=4)
        lam = int(rng.integers(1, 3))
        lv = tw.vmul(np.int64(lam), v)
        assert o.qform(lv) == tw.mul(tw.mul(lam, lam), o.qform(v))


def test_perp_examples():
    s = sp_space(2, 2)
    z = canonicalize(s.fv, [], 4)
    assert s.perp(z).dim == 4
    e1 = canonicalize(s.fv, [[1, 0, 0, 0]], 4)
    p = s.perp(e1)
    assert p.dim == 3 and p.contains(np.array([1, 0, 0, 0]))
    o = oplus_space(3, 2)
    rng = np.random.default_rng(7)
    for _ in range(15):
        a = canonicalize(o.fv, rng.integers(0, 3, size=(2, 4)), 4)
        assert o.perp(o.perp(a)) == a


def test_singular_point_counts():
    o22 = oplus_space(2, 1)
    assert len(o22.singular_points()) == 2
    o82 = oplus_space(2, 4)
    # independent oracle: plain-python scan over all 256 vectors
    cnt = 0
    for v in itertools.product((0, 1), repeat=8):
        q = (v[0] & v[1]) ^ (v[2] & v[3]) ^ (v[4] & v[5]) ^ (v[6] & v[7])
        cnt += q == 0
    assert cnt - 1 == 135  # minus the zero vector; q=2 points = vectors
    assert len(o82.singular_points()) == 135 == o82.singular_count()
    p58 = parabolic_space(8)
    assert len(p58.singular_points()) == 585 == (8**2 + 1) * (8 + 1)
    assert ominus4_space(3).singular_count() == 10


def test_ts_ti_predicates():
    o = oplus_space(2, 1)
    e1 = canonicalize(o.fv, [[1, 0]], 2)
    assert o.is_ts(e1) and o.is_ti(e1)
    z = canonicalize(o.fv, [], 2)
    assert o.is_ts(z) and o.is_ti(z)
    o8 = oplus_space(2, 4)
    for w in o8.maximal_totally_singular()[:20]:
        assert o8.is_ti(w)  # char 2: t.s. implies t.i.


def test_enumeration_sp42_brute_force():
    s = sp_space(2, 2)
    mts = s.maximal_totally_singular()
    assert len(mts) == 15
    brute = []
    for block in all_subspaces_of_dim(s.fv, 4, 2):
        for mat in block:
            sub = canonicalize(s.fv, mat, 4)
            if s.is_ti(sub):
                brute.append(sub)
    assert set(brute) == set(mts)


def test_enumeration_oplus82_brute_force():
    """All 200,787 RREF 4-subspaces of GF(2)^8, a block at a time: a
    subspace is t.s. iff Q vanishes on its basis rows and B on the six pairs
    of them."""
    o = oplus_space(2, 4)
    mts = o.maximal_totally_singular()
    assert len(mts) == 270
    tw = o.fv.tower
    total, brute, seen = 0, 0, set()
    for block in all_subspaces_of_dim(o.fv, 8, 4):
        total += len(block)
        ok = (o.vqform(block.reshape(-1, 8)) == 0).reshape(len(block), 4).all(axis=1)
        rows_g = mat_mul(o.fv, block.reshape(-1, 8), o.gram).reshape(block.shape)
        for i, j in itertools.combinations(range(4), 2):
            b = np.zeros(len(block), dtype=np.int64)
            for c in range(8):
                b = tw.vadd(b, tw.vmul(rows_g[:, i, c], block[:, j, c]))
            ok &= b == 0
        for mat in block[ok]:
            brute += 1
            seen.add(canonicalize(o.fv, mat, 8))
    assert total == 200_787
    assert brute == 270
    assert seen == set(mts)


def test_enumeration_sp63_formula_and_membership():
    s = sp_space(3, 3)
    mts = s.maximal_totally_singular()
    assert len(mts) == 4 * 10 * 28  # 1120
    import random

    rng = random.Random(0)
    from polarspread.verify import _random_maximal_ts

    table = set(mts)
    for _ in range(25):
        assert _random_maximal_ts(s, rng) in table


def test_ts_type_invariant():
    for q, n in [(2, 2), (3, 2), (2, 4)]:
        o = oplus_space(q, n)
        mts = o.maximal_totally_singular()
        pairs = itertools.combinations(mts, 2)
        if q == 2 and n == 4:
            pairs = itertools.islice(pairs, 800)
        for w1, w2 in pairs:
            d = w1.intersect(w2).dim
            assert (o.ts_type(w1) == o.ts_type(w2)) == ((d - n) % 2 == 0)
        assert o.ts_type(o.m0()) == TsType.SAME


def test_two_types_through_hyperplane():
    # O+(4,2): every t.s. point lies on one line of each type
    o = oplus_space(2, 2)
    lines = o.maximal_totally_singular()
    for p in o.singular_points():
        through = [l for l in lines if l.contains(p)]
        assert len(through) == 2
        assert {o.ts_type(l) for l in through} == {TsType.SAME, TsType.OTHER}


def test_projection_and_lift_roundtrip_exhaustive():
    o = oplus_space(2, 4)
    z = o.first_nonsingular_point()
    proj = ZProjection(o, z)
    assert proj.quotient.dim == 6
    # one stacked lift per type takes every transported member back to itself
    for typ in TsType:
        ws = [w for w in o.maximal_totally_singular() if o.ts_type(w) == typ]
        ts = [proj.transport(w) for w in ws]
        assert {t.dim for t in ts} == {3}
        assert proj.lift(np.stack([t.mat for t in ts]), typ) == ws
    # lifts of one fixed type pairwise meet in even dimension
    ws = o.maximal_totally_singular()[:40]
    same = [w for w in ws if o.ts_type(w) == TsType.SAME]
    for a, b in itertools.combinations(same, 2):
        assert a.intersect(b).dim % 2 == 0


@pytest.mark.parametrize("q,m", [(2, 2), (4, 2), (8, 2), (2, 3)])
def test_stacked_lift_matches_the_per_member_oracle(q, m):
    """`orthogonal_spread` lifts all its members in one call; each member is
    the per-member lift's, byte for byte, and both types are checked."""
    from polarspread import families as F

    fam = F.orthogonal_spread(q, m)
    ts = F._trace_space(q, 2 * m - 1)
    proj = ZProjection(fam.space, fam.space.first_nonsingular_point())
    iso = find_isometry(ts.space, proj.quotient)
    quot = [iso.subspace(x) for x in F.desarguesian_symplectic_spread(q, 2 * m - 1).members]
    assert [w.mat.tobytes() for w in fam.members] == [
        lift_oracle(proj, x, TsType.SAME).mat.tobytes() for x in quot
    ]
    stack = np.stack([x.mat for x in quot])
    assert proj.lift(stack, TsType.SAME) == fam.members
    if q * m <= 8:
        other = proj.lift(stack, TsType.OTHER)
        assert other == [lift_oracle(proj, x, TsType.OTHER) for x in quot]
        assert all(fam.space.ts_type(w) == TsType.OTHER for w in other)


def test_lift_refuses_bad_stacks():
    o = oplus_space(2, 4)
    proj = ZProjection(o, o.first_nonsingular_point())
    good = proj.transport(o.maximal_totally_singular()[0]).mat
    assert proj.lift(np.zeros((0, 3, 6), dtype=np.int64), TsType.SAME) == []
    # a 3-space of the quotient that is not t.i.: one bad member refuses the stack
    pts = all_points(proj.quotient.fv, 6)
    bad = next(
        s.mat
        for s in (canonicalize(proj.quotient.fv, pts[[0, i, j]], 6) for i in range(1, 30) for j in range(i + 1, 30))
        if s.dim == 3 and not proj.quotient.is_ti(s)
    )
    with pytest.raises(gf.FieldError, match="not totally isotropic"):
        proj.lift(np.stack([good, bad]), TsType.SAME)
    with pytest.raises(gf.FieldError, match="not totally isotropic"):
        lift_oracle(proj, Subspace(proj.quotient.fv, 6, bad), TsType.SAME)
    # dependent rows, and a stack of lines, are not maximal t.i. subspaces
    with pytest.raises(gf.FieldError, match="full rank"):
        proj.lift(np.stack([good, np.vstack([good[:2], good[:1]])]), TsType.SAME)
    with pytest.raises(gf.FieldError, match="stack of maximal"):
        proj.lift(good[None, :2], TsType.SAME)


def test_projection_requires_nonsingular():
    o = oplus_space(2, 4)
    with pytest.raises(gf.FieldError):
        ZProjection(o, o.singular_points()[0])


def test_field_descend_oplus44():
    t4 = gf.tower(2, 2, (1,))
    fv4 = FieldView(t4, 2)
    qc = np.zeros((4, 4), dtype=np.int64)
    qc[0, 1] = 1
    qc[2, 3] = 1
    o44 = make_orthogonal(fv4, qc, "orthogonal_plus")
    dm = field_descend(o44, 1)
    assert dm.dst.dim == 8
    assert len(dm.dst.singular_points()) == 135  # plus type
    # a t.s. GF(4)-2-space descends to a t.s. GF(2)-4-space
    line = o44.maximal_totally_singular()[0]
    (down,) = dm.subspaces([line])
    assert down.dim == 4 and dm.dst.is_ts(down)


@pytest.mark.parametrize("p,d", [(2, 2), (2, 4), (3, 2), (2, 6)])
def test_stacked_descent_matches_the_per_member_oracle(p, d):
    """`DescentMap.subspaces` maps a whole list at once; each member is the
    per-member blow-down's, byte for byte, for every designated target, on
    maximal t.i. or t.s. subspaces and on random ones of several ranks."""
    tw = gf.tower(p, d, tuple(e for e in range(1, d) if d % e == 0))
    fv = FieldView(tw, d)
    rng = np.random.default_rng(p * d)
    lists = [spaces.sp_space_over(fv, 1), spaces.oplus_space_over(fv, 2) if p == 2 else spaces.sp_space_over(fv, 2)]
    for space in lists:
        members = space.maximal_totally_singular()[:50]
        loose = [canonicalize(fv, rng.choice(fv.elements(), size=(2, space.dim)), space.dim) for _ in range(20)]
        for to_deg in tw.designated[:-1]:
            dm = field_descend(space, to_deg)
            assert dm.subspaces([]) == []
            for batch in (members, [w for w in loose if w.dim == 2], [w for w in loose if w.dim == 1]):
                got = dm.subspaces(batch)
                assert [w.mat.tobytes() for w in got] == [
                    descent_subspace_oracle(dm, w).mat.tobytes() for w in batch
                ]


def test_descent_refuses_entries_off_the_field():
    tw = gf.tower(2, 4, (1, 2))
    space = spaces.sp_space_over(FieldView(tw, 2), 1)
    dm = field_descend(space, 1)
    with pytest.raises(gf.FieldError, match="outside the field"):
        dm.subspaces([Subspace(space.fv, 2, np.array([[1, 2]]))])  # 2 is not in GF(4)


def test_field_descend_appendix_form():
    ctx = _ovoid_context(4)
    dm = field_descend(ctx.space, 1)
    assert dm.dst.dim == 16
    # polar form of the descended Q is nondegenerate
    from polarspread.linalg import rref

    assert rref(dm.dst.fv, dm.dst.gram).shape[0] == 16


def descent_oracle(space, to_deg):
    """The entry loops `DescentMap` ran before `gf.trace_form`: the descended
    quadratic coefficients, or for a symplectic space the descended Gram."""
    fv = space.fv
    tw = fv.tower
    basis = tw.subfield_basis(fv.degree, to_deg)
    r = len(basis)
    out = np.zeros((space.dim * r, space.dim * r), dtype=np.int64)

    def tr(x):
        return gf.trace(tw, fv.degree, to_deg, x)

    if space.qcoef is None:
        for (i, j), g in np.ndenumerate(space.gram):
            for a in range(r):
                for b in range(r):
                    out[i * r + a, j * r + b] = tr(tw.mul(int(g), tw.mul(basis[a], basis[b])))
        return out
    two = tw.add(1, 1)
    for i, j, c in space.qterms():
        for a in range(r):
            for b in range(r):
                gagb = tw.mul(basis[a], basis[b])
                at = (i * r + a, j * r + b)
                if i != j:
                    out[at] = tw.add(int(out[at]), tr(tw.mul(c, gagb)))
                elif a < b:
                    out[at] = tw.add(int(out[at]), tr(tw.mul(c, tw.mul(two, gagb))))
                elif a == b:
                    out[at] = tw.add(int(out[at]), tr(tw.mul(c, gagb)))
    return out


@pytest.mark.parametrize("p,d", [(2, 2), (2, 4), (2, 6), (3, 2), (5, 2), (3, 4)])
def test_descent_matches_the_entry_loops(p, d):
    tw = gf.tower(p, d, tuple(e for e in range(1, d) if d % e == 0))
    fv = FieldView(tw, d)
    rng = np.random.default_rng(10 * p + d)
    upper = np.triu(rng.choice(fv.elements(), size=(4, 4)), 1)
    sources = [
        spaces.sp_space_over(fv, 1),
        spaces.sp_space_over(fv, 2),
        spaces.oplus_space_over(fv, 1),
        spaces.oplus_space_over(fv, 2),
        # every entry in play, and Q with its diagonal terms
        spaces.make_symplectic(fv, tw.vadd(upper, tw.vneg(upper).T)),
        make_orthogonal(fv, np.triu(rng.choice(fv.elements(), size=(4, 4))), "orthogonal_plus"),
    ]
    for space in sources:
        for to_deg in tw.designated[:-1]:
            dm = field_descend(space, to_deg)
            want = descent_oracle(space, to_deg)
            if space.qcoef is None:
                assert dm.dst.kind == "symplectic" and dm.dst.qcoef is None
                assert np.array_equal(dm.dst.gram, want)
            else:
                assert np.array_equal(dm.dst.qcoef, want)
                # polarizing commutes with the trace: B' = T(B)
                assert np.array_equal(dm.dst.gram, gf.trace_form(tw, d, to_deg, space.gram, dm.basis))


def test_projection_complement_and_quotient_gram():
    """The complement is the first rows of z-perp that raise the rank of z
    and the rows before them; the quotient Gram is the bform table."""
    for q in (2, 4):
        o = oplus_space(q, 4)
        pts = o.points()
        for z in pts[o.vqform(pts) != 0][::997]:
            proj = ZProjection(o, z)
            chosen = [z]
            for row in proj.zperp.mat:
                if rref(o.fv, np.vstack(chosen + [row])).shape[0] == len(chosen) + 1:
                    chosen.append(row)
            assert np.array_equal(proj.comp, np.array(chosen[1:]))
            table = [[o.bform(u, v) for v in proj.comp] for u in proj.comp]
            assert np.array_equal(proj.quotient.gram, np.array(table))


def test_klein_examples():
    s = sp_space(2, 2)
    k = klein_space(2)
    l1 = canonicalize(s.fv, [[1, 0, 0, 0], [0, 0, 1, 0]], 4)  # <e1,e2>
    l2 = canonicalize(s.fv, [[0, 1, 0, 0], [0, 0, 0, 1]], 4)  # <f1,f2>
    assert s.is_ti(l1) and s.is_ti(l2)
    p1 = klein_point_of_line(s, l1)
    p2 = klein_point_of_line(s, l2)
    assert k.qform(p1) == 0 and k.qform(p2) == 0
    assert k.bform(p1, p2) != 0  # disjoint lines -> non-perpendicular points
    # meets in a point <-> perpendicular images, over all pairs of t.i. lines
    lines = s.maximal_totally_singular()
    imgs = [klein_point_of_line(s, l) for l in lines]
    assert len({tuple(p) for p in imgs}) == 15
    for (la, pa), (lb, pb) in itertools.combinations(zip(lines, imgs), 2):
        meets = la.intersect(lb).dim > 0
        assert meets == (k.bform(pa, pb) == 0)


def test_embed_identity_and_parabolic():
    o = oplus_space(2, 2)
    ident = embed(o, o, np.eye(4, dtype=np.int64))
    sub = canonicalize(o.fv, [[1, 0, 0, 0]], 4)
    assert ident.subspace(sub) == sub
    for q in (2, 8):
        em = parabolic_in_oplus8(q)
        big = oplus_space(q, 4)
        # radical of the restricted bilinear form is the image of e0
        rows = em.matrix
        r = rows[0]
        for u in rows:
            assert big.bform(r, u) == 0
        assert big.qform(r) != 0


def test_embed_rejects_form_mismatch():
    small = oplus_space(2, 1)
    big = oplus_space(2, 2)
    good = np.zeros((2, 4), dtype=np.int64)
    good[0, 0] = 1
    good[1, 1] = 1  # an actual hyperbolic pair of the big space
    embed(small, big, good)
    worse = np.zeros((2, 4), dtype=np.int64)
    worse[0, 0] = 1
    worse[1, 2] = 1  # B = 0: Gram mismatch
    with pytest.raises(gf.FieldError):
        embed(small, big, worse)


def test_isometry_between_coordinatizations():
    from polarspread.octonion import zorn_space

    for q in (2, 3):
        std = oplus_space(q, 4)
        z = zorn_space(std.fv)
        iso = find_isometry(std, z)
        rng = np.random.default_rng(1)
        for _ in range(25):
            u = rng.integers(0, q, size=8)
            v = rng.integers(0, q, size=8)
            assert z.qform(iso.vector(u)) == std.qform(u)
            assert z.bform(iso.vector(u), iso.vector(v)) == std.bform(u, v)


def test_appendix_a_form_vanishes_on_ovoid_parametrization():
    # oracle: evaluate Q(1, t, t^(q+q^2), N(t)) for every t over GF(64), q=4
    ctx = _ovoid_context(4)
    tw = ctx.tw
    for t in tw.subfield_elements(6).tolist():
        v = ctx.vec(1, t, tw.pow(t, 4 + 16), gf.norm(ctx.tw, ctx.fdeg, ctx.kdeg, t))
        assert ctx.space.qform(v) == 0


# ---------------------------------------------------------------------------
# Hyperbolic bases: the first singular point and its first partner, read
# block by block, against the former full point lists
# ---------------------------------------------------------------------------


def hyperbolic_basis_by_point_lists(space):
    """The former `_hyperbolic_basis`: each step lists every point of the
    current subspace, takes its first singular point e and the first point
    x with B(x, e) != 0."""
    fv = space.fv
    tw = fv.tower
    has_q = space.qcoef is not None
    cur = np.eye(space.dim, dtype=np.int64)
    pairs = []
    for _ in range(space.dim // 2):
        pts = canonicalize(fv, cur, space.dim).points()
        sing = pts[space.vqform(pts) == 0] if has_q else pts
        e = sing[0]
        partner = pts[space.vbform(pts, e) != 0][0]
        f = tw.vmul(partner, np.int64(tw.inv(space.bform(partner, e))))
        if space.bform(e, f) != 1:
            f = tw.vmul(f, np.int64(tw.inv(space.bform(e, f))))
        if has_q:
            f = tw.vadd(f, tw.vmul(np.int64(tw.neg(space.qform(f))), e))
        pairs.extend([e, f])
        bfe = space.bform(f, e)
        new_rows = []
        for v in cur:
            a = tw.neg(tw.div(space.bform(v, f), space.bform(e, f)))
            b = tw.neg(tw.div(space.bform(v, e), bfe))
            new_rows.append(tw.vadd(v, tw.vadd(tw.vmul(np.int64(a), e), tw.vmul(np.int64(b), f))))
        cur = rref(fv, np.array(new_rows))
    return np.array(pairs, dtype=np.int64)


def _hyperbolic_spaces():
    """Every symplectic and plus-type space the suite builds whose point
    list the former function can hold (Sp(24,2) and O+(8,8) cannot; Sp(20,2)
    is the next test's)."""
    from polarspread import families as F
    from polarspread.octonion import zorn_space

    yield from (sp_space(q, n) for q, n in [(2, 2), (3, 2), (4, 2), (5, 2), (7, 2), (8, 2), (9, 2),
                                             (2, 3), (3, 3), (4, 3), (2, 4)])
    yield from (oplus_space(q, n) for q, n in [(2, 1), (2, 2), (3, 2), (2, 3), (3, 3), (4, 3),
                                                (5, 3), (2, 4), (3, 4), (4, 4)])
    yield from (zorn_space(oplus_space(q, 4).fv) for q in (2, 3))
    for build in [
        lambda: F.desarguesian_symplectic_spread(3, 2),
        lambda: F.transversal_spread(2, 2),
        lambda: F.orthogonal_spread(2, 2),
        lambda: F.descended_spread(2, 2, 2),
        lambda: F.folklore_pair(4)[0],
        lambda: F.grassl_spread(2, 2, "i"),
        lambda: F.sp6_line_replace(4),
        lambda: F.project_family(F.orthogonal_spread(2, 2)),
        lambda: F.descend_family(F.folklore_pair(4)[0]),
    ]:
        yield build().space


def test_hyperbolic_basis_matches_the_point_list_oracle():
    seen = 0
    for space in _hyperbolic_spaces():
        assert space.kind in ("symplectic", "orthogonal_plus"), space
        got = spaces._hyperbolic_basis(space)
        assert np.array_equal(got, hyperbolic_basis_by_point_lists(space)), space
        seen += 1
    assert seen == 32


def test_hyperbolic_basis_lists_no_whole_point_set(monkeypatch):
    """Sp(20,2) has 1,048,575 points; its basis reads a few blocks of each
    step's subspace and never the whole point list."""
    def refuse(*args):
        raise AssertionError("a whole point list was built")

    made = []
    blocks = linalg.stacked_point_blocks

    def counted(fv, bases):
        for block in blocks(fv, bases):
            made.append(block.shape[1])
            yield block

    monkeypatch.setattr(linalg, "stacked_points", refuse)
    monkeypatch.setattr(linalg.Subspace, "points", refuse)
    monkeypatch.setattr(spaces, "stacked_point_blocks", counted)
    monkeypatch.setattr(spaces, "all_points", refuse)
    space = sp_space(2, 10)
    h = space.hyperbolic_basis()
    assert h.shape == (20, 20) and 0 < sum(made) < 100
    gram = mat_mul(space.fv, mat_mul(space.fv, h, space.gram), h.T)
    assert np.array_equal(gram, np.kron(np.eye(10, dtype=np.int64), [[0, 1], [1, 0]]))


def test_first_point_makes_one_chunk_of_a_large_lead(monkeypatch):
    """In GF(8)^5 the first point with a nonzero first coordinate is e_1,
    the first of the 4,096 points led by the first row.  `_first_point`
    makes the 585 points of the later leads, which all fail, and then one
    chunk of at most POINT_CHUNK points, not the whole lead."""
    made = []
    blocks = linalg.stacked_point_blocks

    def counted(fv, bases):
        for block in blocks(fv, bases):
            made.append(block.shape[1])
            yield block

    monkeypatch.setattr(spaces, "stacked_point_blocks", counted)
    fv = gf.standalone(8)
    sub = canonicalize(fv, np.eye(5, dtype=np.int64), 5)
    got = spaces._first_point(sub, lambda pts: pts[:, 0] != 0)
    assert np.array_equal(got, np.eye(5, dtype=np.int64)[0])
    before = (8**4 - 1) // 7
    assert before < sum(made) <= before + linalg.POINT_CHUNK < 8**4


@pytest.mark.parametrize("chunk", [1, 7, 64, None])
def test_point_chunks_keep_the_point_order(monkeypatch, chunk):
    """Chunked leads concatenate to the points of `span_vectors` filtered to
    their canonical rows, in ascending canonical index, for chunks smaller
    than, across and above the leads of GF(4)^5 and GF(3)^6 subspaces."""
    if chunk is not None:
        monkeypatch.setattr(linalg, "POINT_CHUNK", chunk)
    rng = np.random.default_rng(chunk or 0)
    for q, k, n in [(4, 4, 5), (3, 5, 6), (2, 6, 6)]:
        fv = gf.standalone(q)
        mats = []
        while len(mats) < 3:
            red = rref(fv, fv.elements()[rng.integers(0, q, (k, n))])
            if len(red) == k:
                mats.append(red)
        bases = np.stack(mats)
        blocks = list(linalg.stacked_point_blocks(fv, bases))
        assert max(b.shape[1] for b in blocks) <= max(1, chunk or linalg.POINT_CHUNK)
        got = np.concatenate(blocks, axis=1)
        for m, pts in zip(mats, got):
            vecs = linalg.span_vectors(fv, m, n)
            canon = linalg.canonicalize_points(fv, vecs[np.any(vecs, axis=1)])
            want = np.unique(canon, axis=0)
            keys = linalg.point_keys(fv, pts)
            assert np.all(keys[1:] > keys[:-1]) and len(pts) == (q**k - 1) // (q - 1)
            assert np.array_equal(np.sort(keys), np.sort(linalg.point_keys(fv, want)))
