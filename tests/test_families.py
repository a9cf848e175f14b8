"""Constructor-level checks: sizes, internal structure claims, symmetry maps,
and the deterministic first-choice rules.  Heavier whole-family certificates
live in the acceptance module."""

import numpy as np
import pytest

from polarspread import families as F
from polarspread import verify as V
from polarspread.families import FamilyError, _ovoid_context
from polarspread.linalg import canonicalize, point_keys, rref
from polarspread.spaces import sp_space


def test_desarguesian_sizes_and_cover():
    for q, n, size in [(2, 2, 5), (3, 1, 4), (2, 3, 9)]:
        fam = F.desarguesian_symplectic_spread(q, n)
        assert len(fam) == size
        assert V.is_spread(fam, "symplectic")


def test_transversal_internals():
    for q, m in [(2, 1), (3, 1), (2, 2)]:
        ts, star, expect = F.transversal_star_data(q, m)
        assert len(star) == q**m + 1
        fam = F.transversal_spread(q, m)
        assert len(fam) == q ** (2 * m) - q**m + expect
        # the spread members kept are exactly those outside the star
        kept = set(F.desarguesian_symplectic_spread(q, 2 * m, mid=m).members) - set(star)
        assert set(fam.members[: len(fam) - expect]) == kept


def member_slope_oracle(ts, a):
    """The per-member build `member_slopes` replaced: the rows (b, a b)
    over the basis b of F, canonicalized alone."""
    rows = [ts.vec(b, ts.tw.mul(a, b)) for b in ts.fbasis]
    return canonicalize(ts.kview, np.array(rows), 2 * ts.n)


def assert_same_bytes(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == w and g.mat.dtype == w.mat.dtype and g.mat.tobytes() == w.mat.tobytes()


# every (q, n, mid, base) the suite builds a desarguesian spread with
DESARGUESIAN_PARAMS = [
    (2, 2, None, None), (2, 3, None, None), (2, 5, None, None), (3, 1, None, None),
    (3, 2, None, None), (3, 3, None, None), (4, 2, None, None), (4, 3, None, None),
    (4, 4, None, None), (8, 2, None, None), (8, 3, None, None),
    (2, 2, 1, None), (3, 2, 1, None), (4, 2, 1, None), (5, 2, 1, None), (2, 4, 2, None),
    (4, 4, 2, None),
]


@pytest.mark.parametrize("q,n,mid,base", DESARGUESIAN_PARAMS)
def test_desarguesian_members_match_the_per_member_build(q, n, mid, base):
    """The stacked [y = a x] are the per-member canonical bases, byte for
    byte, in the same order; so are the star members [y = a theta x] of a
    transversal pair, where mid = n / 2."""
    fam = F.desarguesian_symplectic_spread(q, n, mid, base)
    ts = F._trace_space(q, n, mid, base)
    want = [ts.member_x0()] + [member_slope_oracle(ts, a) for a in ts.tw.subfield_elements(ts.fdeg).tolist()]
    assert_same_bytes(fam.members, want)
    if mid is not None and base is None:
        ts, star, _ = F.transversal_star_data(q, mid)
        theta = F.find_theta(ts.tw, ts.kdeg)
        slopes = [ts.tw.mul(a, theta) for a in ts.tw.subfield_elements(ts.kdeg * mid).tolist()]
        assert_same_bytes(star, [ts.member_x0()] + [member_slope_oracle(ts, a) for a in slopes])


def rows_outside_oracle(fv, rows, points):
    """The filter the point-family constructors ran before `_rows_outside`:
    one key and one blocked set per candidate row."""
    blocked = point_keys(fv, points).tolist()
    out = [r for r in rows if int(point_keys(fv, r[None, :])[0]) not in set(blocked)]
    return np.array(out, dtype=np.int64).reshape(-1, rows.shape[1])


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8])
def test_rows_outside_matches_the_per_candidate_filter(q):
    space = sp_space(q, 2)
    pts = space.points()
    rng = np.random.default_rng(q)
    for size in (0, 1, 2, 7, len(pts)):
        points = pts[rng.choice(len(pts), size=size, replace=False)]
        for rows in (pts[rng.permutation(len(pts))[:40]], pts[:3], pts[:0]):
            got = F._rows_outside(space.fv, rows, points)
            assert np.array_equal(got, rows_outside_oracle(space.fv, rows, points))


def test_transversal_odd_q_pair_disjoint():
    # the two replacement subspaces intersect in 0 for odd q
    fam = F.transversal_spread(3, 1)
    z1, z2 = fam.members[-2:]
    assert z1.intersect(z2).dim == 0


def test_orthogonal_spread_counts():
    fam = F.orthogonal_spread(2, 2)
    assert len(fam) == 9
    assert V.is_spread(fam, "orthogonal")
    assert {m.dim for m in fam.members} == {4}
    types = {fam.space.ts_type(m) for m in fam.members}
    assert len(types) == 1


def test_orthogonal_spread_larger_sizes():
    assert len(F.orthogonal_spread(4, 2)) == 65
    assert len(F.orthogonal_spread(2, 3)) == 33


def test_descended_members_disjoint():
    fam = F.descended_spread(2, 1, 2)  # the m=1 footnote case, flagged
    assert fam.provenance.exploratory
    assert len(fam) == 5
    assert V.is_partial_spread(fam, "orthogonal")


def test_orthogonal_spread_tower_designates_the_descent_degree():
    """thm4.3 at q = 4, k = 2 descends O+(8,16) to GF(4): its trace tower
    GF(2^12) must designate degree 2 beside (1, 4, 12).  A tower that
    designates the degree anyway is the one built without it, so the
    spread is the same cached object."""
    assert F.trace_tower(16, 3).designated == (1, 4, 12)
    assert F.trace_tower(16, 3, base=2).designated == (1, 2, 4, 12)
    assert F.trace_tower(4, 3, base=1) is F.trace_tower(4, 3)
    assert F.orthogonal_spread(4, 2, 1) is F.orthogonal_spread(4, 2)
    assert F.orthogonal_spread(4, 2, 2) is F.orthogonal_spread(4, 2)


def test_folklore_pair():
    for q in (2, 4):
        f1, f2 = F.folklore_pair(q)
        assert len(f1) == len(f2) == q + 1
        covered = set()
        for m in f1.members:
            covered |= {tuple(p) for p in m.points().tolist()}
        assert len(covered) == (q + 1) ** 2  # the two rulings partition the quadric
        for a in f1.members:
            for b in f2.members:
                assert a.intersect(b).dim == 1
    with pytest.raises(FamilyError):
        F.folklore_pair(3)


def test_grassl_variant_i_is_ts():
    fam = F.grassl_spread(2, 2, "i")
    for m in fam.members:
        assert fam.space.is_ts(m)


def test_anchored_sum():
    from polarspread.spaces import sp_space

    s = sp_space(2, 4)
    rows = np.eye(8, dtype=np.int64)
    x = canonicalize(s.fv, rows[[0, 2, 4, 6]], 8)
    y = canonicalize(s.fv, rows[[1, 3, 5, 7]], 8)
    # partial spread of X: 2-spaces from the desarguesian GF(4)-structure
    inner = F.desarguesian_symplectic_spread(2, 2)
    sigma_x = [
        canonicalize(s.fv, np.array([x.mat.T @ r % 2 for r in m.mat]).reshape(-1, 8), 8)
        for m in inner.members
    ]
    # rebuild members of X via coordinates (map GF(2)^4 coords onto X basis)
    sigma_x = []
    for m in inner.members:
        lift = (m.mat[:, :, None] * x.mat[None, :, :]).sum(axis=1) % 2
        sigma_x.append(canonicalize(s.fv, lift, 8))
    fam = F.anchored_sum(s, x, y, sigma_x)
    assert len(fam) == 5
    assert V.is_partial_spread(fam, "symplectic")
    for m in fam.members:
        assert s.is_ti(m) and m.dim == 4
    single = F.anchored_sum(s, x, y, sigma_x[:1])
    assert len(single) == 1


def test_desarguesian_ovoid_sizes():
    assert len(F.desarguesian_ovoid(4)) == 65
    assert len(F.desarguesian_ovoid(8)) == 513
    with pytest.raises(FamilyError):
        F.desarguesian_ovoid(2)
    with pytest.raises(FamilyError):
        F.desarguesian_ovoid(3)


def test_ordinary_removal_set():
    rs1 = F.ordinary_removal_set(4, "A6i", 1)
    ctx = _ovoid_context(4)
    assert np.array_equal(rs1.points[0], ctx.vec(0, 0, ctx.pi, 0))
    assert len(F.ordinary_removal_set(4, "A6i", 3)) == 3
    with pytest.raises(FamilyError):
        F.ordinary_removal_set(4, "A6i", 4)
    with pytest.raises(FamilyError):
        F.ordinary_removal_set(4, "A6ii", 4)  # no qualifying a below q=16
    assert len(F.ordinary_removal_set(16, "A6ii", 4)) == 4


def test_ordinary_points_structure():
    # the (q+1)^2 singular points of Omega0-perp have the quoted shape
    ctx = _ovoid_context(4)
    tw = ctx.tw
    q = 4
    omega0 = [ctx.vec(0, 0, 0, 1)]
    for t in tw.subfield_elements(ctx.kdeg).tolist():
        omega0.append(ctx.vec(1, t, tw.pow(t, q + q * q), ctx.nm(t)))
    o0 = canonicalize(ctx.kview, np.array(omega0), 8)
    perp = ctx.space.perp(o0)
    pts = perp.points()
    sing = pts[ctx.space.vqform(pts) == 0]
    assert len(sing) == (q + 1) ** 2
    for v in sing:
        assert v[0] == 0 and v[7] == 0


@pytest.mark.parametrize("q", [4, 8, 16])
def test_ovoid_points_match_the_scalar_loop(q):
    """The vectorised ovoid rows equal the per-element gf.norm and tw.pow
    loop, in order; they are made once per context and are read-only."""
    ctx = _ovoid_context(q)
    tw = ctx.tw
    rows = [ctx.vec(0, 0, 0, 1)]
    for t in tw.subfield_elements(ctx.fdeg).tolist():
        rows.append(ctx.vec(1, t, tw.pow(t, q + q * q), ctx.nm(t)))
    got = ctx.ovoid_points()
    assert np.array_equal(got, np.array(rows, dtype=np.int64))
    assert got.shape == (q**3 + 1, 8)
    assert ctx.ovoid_points() is got
    with pytest.raises(ValueError):
        got[0, 0] = 1


def test_ovoid_symmetries():
    ctx = _ovoid_context(4)
    maps = F.ovoid_symmetries(4)
    space = ctx.space
    omega = ctx.ovoid_points()
    okeys = {tuple(r) for r in omega.tolist()}
    from polarspread.linalg import canonicalize_points, mat_mul

    for mat in maps:
        imgs = mat_mul(ctx.kview, omega, mat)
        # preserves Q on every ovoid vector and the ovoid setwise
        assert not np.any(space.vqform(imgs))
        assert {tuple(r) for r in canonicalize_points(ctx.kview, imgs).tolist()} == okeys
    rng = np.random.default_rng(0)
    sample = ctx.kview.elements()[rng.integers(0, 4, size=(50, 8))]
    for mat in maps:
        imgs = mat_mul(ctx.kview, sample, mat)
        assert np.array_equal(space.vqform(imgs), space.vqform(sample))
    j = maps[-1]
    jj = mat_mul(ctx.kview, j, j)
    assert np.array_equal(jj, np.eye(8, dtype=np.int64))


def test_u_maps_compose_on_slice():
    # on the trace-zero slice (0, beta, gamma, 0): u_s sends gamma -> gamma + beta*s
    # (T(beta) = 0 makes beta^q + beta^(q^2) = beta and kills the last component)
    ctx = _ovoid_context(4)
    tw = ctx.tw
    maps = F.ovoid_symmetries(4)
    from polarspread.linalg import mat_mul

    kelems = tw.subfield_elements(ctx.kdeg).tolist()
    tr0 = [x for x in tw.subfield_elements(ctx.fdeg).tolist() if ctx.tr(x) == 0]
    for s_idx, s in enumerate(kelems):
        u_s = maps[s_idx]
        for beta in tr0:
            for gamma in tr0:
                v = ctx.vec(0, beta, gamma, 0)
                img = mat_mul(ctx.kview, v[None, :], u_s)[0]
                want = ctx.vec(0, beta, tw.add(gamma, tw.mul(beta, s)), 0)
                assert np.array_equal(img, want)


def test_lemma_a4_ordinary_to_pi_form():
    # an ordinary point can be pushed to <(0,0,pi',0)> by u_k then j
    ctx = _ovoid_context(4)
    tw = ctx.tw
    q = 4
    # ordinary points of the form (0, beta, k*beta, 0), T(beta)=0, T(beta^(1+q)) != 0
    found = 0
    for beta in tw.subfield_elements(ctx.fdeg).tolist():
        if beta == 0 or ctx.tr(beta) != 0:
            continue
        if ctx.tr(tw.pow(beta, 1 + q)) == 0:
            continue
        for k in tw.subfield_elements(ctx.kdeg).tolist():
            gamma = tw.mul(k, beta)
            # u_k sends gamma -> gamma + beta*k = 0; j swaps beta and gamma
            assert tw.add(gamma, tw.mul(beta, k)) == 0
            found += 1
    assert found > 0


def test_suzuki_tits_basics():
    st = F.suzuki_tits_ovoid(8)
    assert len(st) == 65
    assert not np.any(st.space.vqform(st.points))
    assert rref(st.space.fv, st.points).shape[0] == 5  # spans the 5-space
    with pytest.raises(FamilyError):
        F.suzuki_tits_ovoid(4)
    with pytest.raises(FamilyError):
        F.suzuki_tits_ovoid(2)


def test_st_pencil_internals():
    ctx = F._st_context(8)
    uperp = ctx.space.perp(ctx.u)
    pts = uperp.points()
    assert (ctx.space.vqform(pts) == 0).sum() == 9  # q+1 singular points
    fam = F.st_pencil_replace(8)
    assert len(fam) == 73
    # x-perp meets the ovoid exactly in {p} for each adjoined x
    p = ctx.omega[0]
    for x in fam.points[-9:]:
        mask = ctx.space.vbform(ctx.omega, x) == 0
        hit = ctx.omega[mask]
        assert len(hit) == 1 and np.array_equal(hit[0], p)


def test_st_section_sizes():
    fam = F.st_section_replace(8)
    assert len(fam) == 57


def test_st_circle_partition_and_sizes():
    fam = F.st_circle_replace(8, 2)
    assert len(fam) == 8**2 - 2 * 8 + 3
    assert fam.provenance.exploratory  # proven window empty below q=32
    f32 = F.st_circle_replace(32, 2)
    assert len(f32) == 963 and not f32.provenance.exploratory


def test_two_quadrics_internals():
    fam = F.two_quadrics_ovoid(2)
    assert len(fam) == 9
    fam3 = F.two_quadrics_ovoid(3)
    assert len(fam3) == 19


def test_sp6_replacement_count():
    fam = F.sp6_line_replace(2)
    assert len(fam) == 5  # q^3 - q^2 + 1


def test_conic_replace_window():
    with pytest.raises(FamilyError):
        F.conic_replace(3, 2)  # s < (q+1)/2 fails
    fam = F.conic_replace(3, 1)
    assert len(fam) == 8


def test_three_lines():
    fam = F.three_lines(4)
    assert len(fam) == 11
    # each open line contributes q-1 points
    assert len(F.three_lines(5)) == 14
    with pytest.raises(FamilyError):
        F.three_lines(3)


def test_elliptic_variants():
    e = F.elliptic_or_o5_partial_ovoid(3, "elliptic_quadric")
    assert len(e) == 10
    o5 = F.elliptic_or_o5_partial_ovoid(3, "o5_generic")
    assert len(o5) == 10
    with pytest.raises(FamilyError):
        F.elliptic_or_o5_partial_ovoid(4, "suzuki_tits")


def test_triality_family_singleton():
    fam = F.elliptic_or_o5_partial_ovoid(2, "elliptic_quadric")
    single = F.PointFamily(
        fam.space, fam.points[:1], F.Provenance("test", {}), expected_size=1
    )
    out = F.triality_pointset(single)
    assert len(out) == 1 and out.members[0].dim == 4


def test_provenance_exploratory_flags():
    assert F.descended_spread(2, 1, 2).provenance.exploratory
    assert not F.descended_spread(2, 2, 2).provenance.exploratory
    assert F.st_circle_replace(8, 3).provenance.exploratory


def test_duplicate_members_rejected():
    fam = F.desarguesian_symplectic_spread(2, 2)
    with pytest.raises(FamilyError):
        F.SubspaceFamily(
            fam.space, fam.members + [fam.members[0]], fam.provenance, expected_size=None
        )
