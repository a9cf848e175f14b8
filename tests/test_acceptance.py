"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  The dimension-16 maximality search runs under a 600 s budget and
must certify within it; a timeout fails the criterion.
"""

import itertools
import time

import numpy as np
import pytest

from polarspread import families as F
from polarspread import verify as V
from polarspread.families import SubspaceFamily, _ovoid_context
from polarspread.linalg import point_keys
from polarspread.octonion import triality_subspaces, zorn_space
from polarspread.spaces import OutOfDeskScale, oplus_space
from subspace_helpers import all_subspaces_of_dim

_CACHE: dict = {}


def cached(name, builder):
    if name not in _CACHE:
        _CACHE[name] = builder()
    return _CACHE[name]


# one named builder per family the criteria share, so that each criterion
# builds what it reads and runs on its own
BUILDERS = {
    **{
        f"thm3.1({q},{m})": (lambda q=q, m=m: F.transversal_spread(q, m))
        for q, m in [(2, 1), (3, 1), (4, 1), (5, 1), (2, 2)]
    },
    "prop4.1(2,2)": lambda: F.orthogonal_spread(2, 2),
    "thm4.3(2,2,2)": lambda: F.descended_spread(2, 2, 2),
    "thm5.2i": lambda: F.grassl_spread(2, 2, "i"),
    "thm5.2ii": lambda: F.grassl_spread(2, 2, "ii"),
    "proj-prop4.1": lambda: F.project_family(family("prop4.1(2,2)")),
    "proj-thm5.2i": lambda: F.project_family(family("thm5.2i")),
    "appA(4)": lambda: F.desarguesian_ovoid(4),
    "thm7.2(4)": lambda: F.orthovoid_bullet(4, 1),
    "thm7.2(4)-triality": lambda: F.triality_pointset(family("thm7.2(4)")),
    "thm7.3(8,1)": lambda: F.orthovoid_bullet(8, 1),
    **{
        f"ex7.4({q})": (lambda q=q: F.elliptic_or_o5_partial_ovoid(q, "elliptic_quadric"))
        for q in (2, 3, 4)
    },
    "lem7.5-st(8)": lambda: F.elliptic_or_o5_partial_ovoid(8, "suzuki_tits"),
    **{f"lem7.8({q})": (lambda q=q: F.two_quadrics_ovoid(q)) for q in (2, 3, 4)},
    **{
        f"lem7.8({q})-triality": (lambda q=q: F.triality_pointset(family(f"lem7.8({q})")))
        for q in (2, 3, 4)
    },
    "thm7.10(8)": lambda: F.st_pencil_replace(8),
    "thm7.11(8)": lambda: F.st_section_replace(8),
    "appB-st(8)": lambda: F.suzuki_tits_ovoid(8),
    **{f"thm8.1({q})": (lambda q=q: F.sp6_line_replace(q)) for q in (2, 3, 4)},
    **{
        f"thm9.1({q},{s})": (lambda q=q, s=s: F.conic_replace(q, s))
        for q, s in [(3, 1), (5, 1), (5, 2), (4, 1)]
    },
    "ex9.2(4,2)": lambda: F.three_lines(4, 2),
    "ex9.2(4,3)": lambda: F.three_lines(4, 3),
}


def family(name):
    return cached(name, BUILDERS[name])


def report(num, detail):
    print(f"criterion {num:>2}: PASS - {detail}")


# ---------------------------------------------------------------------------


def test_c01_transversal_sizes_and_maximality():
    sizes = {}
    for (q, m), want in [((2, 1), 3), ((3, 1), 8), ((4, 1), 13), ((5, 1), 22), ((2, 2), 13)]:
        fam = family(f"thm3.1({q},{m})")
        assert len(fam) == want, (q, m)
        cert = V.check_maximal_spread(fam, "symplectic")
        assert cert.is_maximal, (q, m)
        sizes[(q, m)] = len(fam)
    report(1, f"sizes {sizes} all certified maximal-symplectic")


def test_c02_transversal_counts():
    counts = {}
    for q, m in [(2, 1), (3, 1), (4, 1), (5, 1), (2, 2)]:
        ts, star, expect = F.transversal_star_data(q, m)
        found = [
            w
            for w in ts.space.maximal_totally_singular()
            if all(w.intersect(s).dim == m for s in star)
        ]
        assert len(found) == expect, (q, m, len(found))
        if expect == 2:
            assert found[0].intersect(found[1]).dim == 0
        counts[(q, m)] = len(found)
    report(2, f"transversal counts {counts} = gcd(2,q-1); odd-q pairs disjoint")


def test_c03_orthogonal_spread_cover_and_plain_maximality():
    fam = family("prop4.1(2,2)")
    assert len(fam) == 9
    rep = V.cover_report(fam, "orthogonal")
    assert rep.total == 135 and rep.uncovered == 0
    cert = V.check_maximal_spread(fam, "plain")
    assert cert.is_maximal
    # the elementary consequence: maximal orthogonal implies maximal symplectic
    assert V.check_maximal_spread(fam, "orthogonal").is_maximal
    assert V.check_maximal_spread(fam, "symplectic").is_maximal
    report(3, "9-member O+(8,2) spread covers all 135 singular points; plain-maximal")


def _random_gf2_subspace_check(n_samples=10_000, seed=20260810):
    """Criterion 4 property: every sampled GF(2)-subspace of size > 2^6 of the
    8-dimensional GF(4)-space contains a nonzero GF(4)-singular vector."""
    space = oplus_space(4, 4)
    fv = space.fv
    rng = np.random.default_rng(seed)
    failures = 0
    batch = 500
    done = 0
    while done < n_samples:
        take = min(batch, n_samples - done)
        rows = rng.integers(0, 4, size=(take, 7, 8)).astype(np.int64)
        keys = np.zeros((take, 7), dtype=np.int64)
        for c in range(8):
            keys = (keys << 2) | rows[:, :, c]
        for i in range(take):
            # GF(2)-rank via bit elimination; resample until independent
            while True:
                basis = []
                for v in keys[i]:
                    for b in basis:
                        v = min(v, v ^ b)
                    if v:
                        basis.append(int(v))
                if len(basis) == 7:
                    break
                fresh = rng.integers(0, 4, size=(7, 8)).astype(np.int64)
                k2 = np.zeros(7, dtype=np.int64)
                for c in range(8):
                    k2 = (k2 << 2) | fresh[:, c]
                keys[i] = k2
            combos = np.zeros(1, dtype=np.int64)
            for v in keys[i]:
                combos = np.concatenate([combos, combos ^ v])
            combos = combos[1:]  # 127 nonzero vectors
            vecs = np.zeros((127, 8), dtype=np.int64)
            for c in range(8):
                vecs[:, 7 - c] = (combos >> (2 * c)) & 3
            if not np.any(space.vqform(vecs) == 0):
                failures += 1
        done += take
    return failures


def test_c04_random_subspaces_contain_singular_vectors():
    t0 = time.perf_counter()
    failures = cached("c4", lambda: _random_gf2_subspace_check())
    assert failures == 0
    report(4, f"10^4 random GF(2)-subspaces of dim 7: zero without a singular vector"
              f" ({time.perf_counter() - t0:.1f}s)")


def test_c05_descended_spread_with_budgeted_maximality():
    fam = family("thm4.3(2,2,2)")
    assert len(fam) == 65 and fam.space.dim == 16
    assert V.is_partial_spread(fam, "orthogonal")
    cert = V.check_maximal_spread(fam, "orthogonal", time_budget=600)
    assert cert.is_maximal
    report(5, f"65 disjoint t.s. 8-spaces in O+(16,2); maximality certified"
              f" ({cert.nodes} nodes)")


def test_c06_grassl_variants():
    g1 = family("thm5.2i")
    g2 = family("thm5.2ii")
    assert len(g1) == 5 and len(g2) == 9
    assert V.check_maximal_spread(g1, "symplectic").is_maximal
    assert V.check_maximal_spread(g1, "orthogonal").is_maximal
    assert V.check_maximal_spread(g2, "symplectic").is_maximal
    report(6, "sizes 5 and 9 in Sp(8,2), maximal-symplectic; variant i also"
              " maximal-orthogonal")


def test_c07_projections_to_sp6():
    p1 = family("proj-prop4.1")
    p2 = family("proj-thm5.2i")
    assert len(p1) == 9 and len(p2) == 5
    for fam in (p1, p2):
        assert fam.space.dim == 6 and fam.space.q == 2
        count = len(fam.space.maximal_totally_singular())
        assert count == 135
        verdict, _w = V.brute_force_spread_verdict(fam, "symplectic")
        assert verdict == "maximal"
    report(7, "projected families of sizes 9 and 5 certified maximal-symplectic"
              " by full enumeration of the 135 t.i. 3-spaces of Sp(6,2)")


def test_c08_triality_properties_q2():
    fv_space = zorn_space(oplus_space(2, 4).fv)
    pts = fv_space.singular_points()
    assert len(pts) == 135
    imgs = triality_subspaces(fv_space, pts)
    assert len(set(imgs)) == 135
    assert len({fv_space.ts_type(w) for w in imgs}) == 1
    for i, j in itertools.combinations(range(135), 2):
        non_perp = fv_space.bform(pts[i], pts[j]) != 0
        assert non_perp == (imgs[i].intersect(imgs[j]).dim == 0)
    report(8, "135 points -> 135 distinct t.s. 4-spaces of one type;"
              " non-perpendicular <=> disjoint images on all pairs")


def _ovoid_q4_masks():
    """Perp-intersection bitmasks of the 65-point ovoid over all singular
    points of the Appendix-style O+(8,4) space."""
    ctx = _ovoid_context(4)
    ov = family("appA(4)")
    sing = ctx.space.singular_points()
    lo = np.zeros(len(sing), dtype=np.int64)
    hi = np.zeros(len(sing), dtype=np.int64)
    for i, w in enumerate(ov.points):
        col = ctx.space.vbform(sing, w) == 0
        if i < 63:
            lo |= col.astype(np.int64) << i
        else:
            hi |= col.astype(np.int64) << (i - 63)
    member = np.zeros(len(sing), dtype=bool)
    for w in ov.points:
        member |= np.all(sing == w[None, :], axis=1)
    return ctx, ov, sing, lo, hi, member


def test_c09_appendix_ovoid_properties():
    t0 = time.perf_counter()
    ctx, ov, sing, lo, hi, member = cached("c9masks", _ovoid_q4_masks)
    assert len(ov) == 65
    assert V.is_ovoid(ov, "orthogonal")  # full 11050-space enumeration
    out = ~member
    idx = np.nonzero(out)[0]
    assert len(idx) == 5525 - 65
    worst = 0
    for t, i in enumerate(idx):
        rest = idx[t + 1 :]
        counts = np.bitwise_count(lo[rest] & lo[i]) + np.bitwise_count(hi[rest] & hi[i])
        if len(counts):
            worst = max(worst, int(counts.max()))
    assert worst <= 15  # 5q - 5 at q = 4
    # ordinary-point intersection sizes: pairs 2q, triples q+2
    tw = ctx.tw
    q = 4
    ordinary = []
    for i in np.nonzero(out)[0]:
        v = sing[i]
        if v[0] != 0 or v[7] != 0:
            continue
        beta = 0
        gamma = 0
        for t in range(3):
            beta = tw.add(beta, tw.mul(int(v[1 + t]), ctx.fbasis[t]))
            gamma = tw.add(gamma, tw.mul(int(v[4 + t]), ctx.fbasis[t]))
        if ctx.tr(beta) or ctx.tr(gamma) or ctx.tr(tw.mul(beta, gamma)):
            continue
        if beta == 0:
            ok = ctx.tr(tw.pow(gamma, 1 + q)) != 0
        else:
            ok = ctx.tr(tw.pow(beta, 1 + q)) != 0
        if ok:
            ordinary.append(i)
    assert ordinary
    pair_sizes, triple_sizes = set(), set()
    for a, b in itertools.combinations(ordinary, 2):
        if ctx.space.bform(sing[a], sing[b]) == 0:
            continue
        pair_sizes.add(int(np.bitwise_count(lo[a] & lo[b]) + np.bitwise_count(hi[a] & hi[b])))
    for a, b, c in itertools.combinations(ordinary, 3):
        if (
            ctx.space.bform(sing[a], sing[b]) == 0
            or ctx.space.bform(sing[a], sing[c]) == 0
            or ctx.space.bform(sing[b], sing[c]) == 0
        ):
            continue
        triple_sizes.add(
            int(
                np.bitwise_count(lo[a] & lo[b] & lo[c])
                + np.bitwise_count(hi[a] & hi[b] & hi[c])
            )
        )
    assert pair_sizes == {2 * q}
    assert triple_sizes == {q + 2}
    # the quoted removal-list intersection table, all subsets
    rs = F.ordinary_removal_set(4, "A6i", 3)
    masks = [ctx.space.vbform(ov.points, p) == 0 for p in rs.points]
    for r in (1, 2, 3):
        for combo in itertools.combinations(range(3), r):
            inter = np.ones(65, dtype=bool)
            for i in combo:
                inter &= masks[i]
            assert int(inter.sum()) == {1: q**2 + 1, 2: 2 * q, 3: q + 2}[r]
    report(9, f"ovoid of 65 verified complete; pair bound <= 15 exhaustive;"
              f" ordinary sizes 8/6; removal table exact ({time.perf_counter()-t0:.0f}s)")


def test_c10_bullet_ovoid_and_triality_spread_q4():
    t0 = time.perf_counter()
    b1 = family("thm7.2(4)")
    assert len(b1) == 49
    assert V.check_maximal_ovoid(b1, "orthogonal").is_maximal
    tr = family("thm7.2(4)-triality")
    assert len(tr) == 49
    assert V.is_partial_spread(tr, "orthogonal")
    count = len(tr.space.maximal_totally_singular())
    assert count == 11050
    verdict, _w = V.brute_force_spread_verdict(tr, "orthogonal")
    assert verdict == "maximal"
    report(10, f"49-point ovoid maximal; triality spread certified maximal by"
               f" enumeration of all 11050 maximal t.s. subspaces"
               f" ({time.perf_counter()-t0:.0f}s)")


def test_c11_bullet_q8():
    fam = family("thm7.3(8,1)")
    assert len(fam) == 449
    cert = V.check_maximal_ovoid(fam, "orthogonal")
    assert cert.is_maximal
    report(11, f"449-point partial ovoid maximal over {cert.nodes} singular points")


def test_c12_small_ovoid_families():
    got = {}
    for q, want in [(2, 5), (3, 10), (4, 17)]:
        fam = family(f"ex7.4({q})")
        assert len(fam) == want
        assert V.check_maximal_ovoid(fam, "orthogonal").is_maximal
        got[q] = want
    st8 = family("lem7.5-st(8)")
    assert len(st8) == 65
    assert V.check_maximal_ovoid(st8, "orthogonal").is_maximal
    report(12, f"elliptic sizes {got} and the 65-point lift at q=8, all maximal")


def test_c13_two_quadrics_and_triality():
    t0 = time.perf_counter()
    for q, want in [(2, 9), (3, 19), (4, 33)]:
        fam = family(f"lem7.8({q})")
        assert len(fam) == want
        assert V.check_maximal_ovoid(fam, "orthogonal").is_maximal
        tr = family(f"lem7.8({q})-triality")
        assert len(tr) == want
        verdict, _w = V.brute_force_spread_verdict(tr, "orthogonal")
        assert verdict == "maximal"
    report(13, f"sizes 9/19/33 maximal; triality spreads certified maximal by"
               f" full enumeration at q=2,3,4 ({time.perf_counter()-t0:.0f}s)")


def test_c14_st_replacements_q8():
    f10 = family("thm7.10(8)")
    f11 = family("thm7.11(8)")
    assert len(f10) == 73 and len(f11) == 57
    assert V.check_maximal_ovoid(f10, "orthogonal").is_maximal
    assert V.check_maximal_ovoid(f11, "orthogonal").is_maximal
    report(14, "sizes 73 and 57 in O+(8,8), both certified maximal-ovoid")


def test_c15_circle_replacement():
    a = F.st_circle_replace(32, 2)
    b = F.st_circle_replace(32, 3)
    assert len(a) == 963 and len(b) == 933
    assert V.is_partial_ovoid(a, "orthogonal") and V.is_partial_ovoid(b, "orthogonal")
    # circle-partition invariant at q=8 (also asserted inside the constructor)
    ctx = F._st_context(8)
    space = ctx.space
    ab = np.vstack([ctx.omega[0][None, :], ctx.omega[1][None, :]])
    from polarspread.linalg import canonicalize

    plane = space.perp(canonicalize(space.fv, ab, 8)).intersect(ctx.u)
    sing = plane.points()
    sing = sing[space.vqform(sing) == 0]
    assert len(sing) == 9
    seen = np.zeros(len(ctx.omega), dtype=int)
    for x in sing:
        seen += (space.vbform(ctx.omega, x) == 0).astype(int)
    assert np.all(seen[2:] == 1) and seen[0] == 9 and seen[1] == 9
    with pytest.raises(OutOfDeskScale):
        V.check_maximal_ovoid(a, "orthogonal")
    report(15, "sizes 963 and 933 at q=32 with partial certificates; circles"
               " partition the q=8 ovoid; maximality out of desk scale (refused)")


def test_c16_hyperplane_census_q8():
    st = family("appB-st(8)")
    rep = V.hyperplane_census(st.space, st)
    assert rep.hyperplanes == 4681
    assert set(rep.sizes) <= {1, 5, 9, 13}
    assert rep.tangent_count == 65
    report(16, f"all 4681 hyperplanes meet the ovoid; sizes {sorted(rep.sizes)};"
               f" tangent count 65; types {rep.type_counts}")


def test_c17_sp6_replacement():
    t0 = time.perf_counter()
    counts = {2: 135, 3: 1120, 4: 5525}
    for q, want in [(2, 5), (3, 19), (4, 49)]:
        fam = family(f"thm8.1({q})")
        assert len(fam) == want
        assert len(fam.space.maximal_totally_singular()) == counts[q]
        verdict, _w = V.brute_force_spread_verdict(fam, "symplectic")
        assert verdict == "maximal"
    report(17, f"sizes 5/19/49 certified maximal-symplectic by full enumeration"
               f" (135/1120/5525 t.i. 3-spaces) ({time.perf_counter()-t0:.0f}s)")


def test_c18_conic_replacement_and_klein():
    # (5,1) evaluates to 22 = q^2 - sq + 3s - 1; the construction agrees
    got = {}
    for (q, s), want in [((3, 1), 8), ((5, 1), 22), ((5, 2), 20), ((4, 1), 13)]:
        fam = family(f"thm9.1({q},{s})")
        assert len(fam) == want
        assert V.check_maximal_ovoid(fam, "orthogonal").is_maximal
        got[(q, s)] = want
    for q in (2, 3, 4):
        spread = F.desarguesian_symplectic_spread(q, 2)
        kf = F.klein_family(spread)
        assert V.is_ovoid(kf, "orthogonal")
    report(18, f"sizes {got} all maximal-ovoid; Klein images of desarguesian"
               f" Sp(4,q) spreads are ovoids for q=2,3,4")


def test_c19_three_lines_q4():
    f4 = family("ex9.2(4,2)")
    f6 = family("ex9.2(4,3)")
    assert len(f4) == len(f6) == 11
    assert V.check_maximal_ovoid(f4, "symplectic").is_maximal
    assert V.check_maximal_ovoid(f6, "symplectic").is_maximal
    report(19, "11-point family maximal-symplectic-ovoid in Sp(4,4) and Sp(6,4)")


def test_c20_engine_matches_brute_force():
    """Engine vs full enumeration on every enumerable space the suite
    certifies, including deletion variants for extendable coverage."""
    t0 = time.perf_counter()
    cases = []
    for q, m in [(2, 1), (3, 1), (4, 1), (5, 1), (2, 2)]:
        cases.append((f"thm3.1({q},{m})", family(f"thm3.1({q},{m})"), "symplectic"))
    cases.append(("thm5.2i", family("thm5.2i"), "symplectic"))
    cases.append(("thm5.2ii", family("thm5.2ii"), "symplectic"))
    cases.append(("proj-prop4.1", family("proj-prop4.1"), "symplectic"))
    cases.append(("proj-thm5.2i", family("proj-thm5.2i"), "symplectic"))
    cases.append(("thm7.2(4)-triality", family("thm7.2(4)-triality"), "orthogonal"))
    for q in (2, 3, 4):
        cases.append((f"lem7.8({q})-triality", family(f"lem7.8({q})-triality"), "orthogonal"))
        cases.append((f"thm8.1({q})", family(f"thm8.1({q})"), "symplectic"))
    cases.append(("prop4.1(2,2)", family("prop4.1(2,2)"), "orthogonal"))
    checked = 0
    for name, fam, flavor in cases:
        ev = V.check_maximal_spread(fam, flavor).verdict
        bv, _w = V.brute_force_spread_verdict(fam, flavor)
        assert ev == bv, (name, ev, bv)
        checked += 1
        if len(fam.members) > 1 and len(fam.space.maximal_totally_singular()) <= 3000:
            short = SubspaceFamily(
                fam.space, fam.members[:-1], fam.provenance, expected_size=None
            )
            ev2 = V.check_maximal_spread(short, flavor).verdict
            bv2, _ = V.brute_force_spread_verdict(short, flavor)
            assert ev2 == bv2 == "extendable", name
            checked += 1
    # plain-flavor cross-check for the O+(8,2) spread: enumerate all 200787
    # 4-subspaces of GF(2)^8 and confirm none consists of uncovered points
    fam = family("prop4.1(2,2)")
    assert V.check_maximal_spread(fam, "plain").is_maximal
    rep = V.cover_report(fam, "plain")
    uncovered = set(rep.uncovered_keys.tolist())
    fv = fam.space.fv
    combos = np.array(
        [[(i >> k) & 1 for k in range(4)] for i in range(1, 16)], dtype=np.int64
    )
    total = 0
    extendable = 0
    for block in all_subspaces_of_dim(fv, 8, 4):
        pts = (combos[None, :, :] @ block) % 2  # (B, 15, 8)
        keys = point_keys(fv, pts.reshape(-1, 8)).reshape(len(block), 15)
        hit = np.isin(keys, np.array(sorted(uncovered), dtype=np.int64))
        extendable += int(hit.all(axis=1).sum())
        total += len(block)
    assert total == 200787 and extendable == 0
    checked += 1
    report(20, f"engine and brute-force verdicts agree on {checked} checks;"
               f" zero disagreements ({time.perf_counter()-t0:.0f}s)")
