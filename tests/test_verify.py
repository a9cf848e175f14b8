"""Predicates, cover reports, the maximality engine and its brute-force
agreement, size formulas, fingerprints."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarspread import families as F
from polarspread import verify as V
from polarspread.families import PointFamily, Provenance, SubspaceFamily
from polarspread.linalg import canonicalize, point_keys, rref
from polarspread.spaces import OutOfDeskScale, oplus_space, sp_space


def spread_of(space, members):
    return SubspaceFamily(space, members, Provenance("test", {}), expected_size=None)


def test_partial_spread_predicate():
    fam = F.desarguesian_symplectic_spread(2, 3)
    assert V.is_partial_spread(fam, "symplectic")
    empty = spread_of(fam.space, [])
    assert V.is_partial_spread(empty, "symplectic")
    assert V.is_spread(fam, "symplectic")
    partial = spread_of(fam.space, fam.members[:-1])
    assert not V.is_spread(partial, "symplectic")


def test_partial_ovoid_predicate():
    e = F.elliptic_or_o5_partial_ovoid(3, "elliptic_quadric")
    assert V.is_partial_ovoid(e, "orthogonal")
    single = PointFamily(e.space, e.points[:1], Provenance("t", {}), expected_size=None)
    assert V.is_partial_ovoid(single, "orthogonal")
    # two perpendicular singular points fail
    o = oplus_space(2, 2)
    sing = o.singular_points()
    p = sing[0]
    perp_mask = o.vbform(sing, p) == 0
    other = sing[perp_mask][1]
    bad = PointFamily(o, np.array([p, other]), Provenance("t", {}), expected_size=None)
    assert not V.is_partial_ovoid(bad, "orthogonal")


def test_cover_report_modes():
    fam = F.transversal_spread(2, 1)
    rep = V.cover_report(fam, "any_point")
    assert rep.total == 15
    # decoded uncovered rows really are the uncovered points
    from polarspread.linalg import reduce_rows as _rr

    for row in rep.uncovered_points():
        assert not any(_rr(fam.space.fv, m.mat, row[None, :])[0] for m in fam.members)
    # oracle: enumerate points, test membership in each member directly
    from polarspread.linalg import all_points, reduce_rows

    pts = all_points(fam.space.fv, 4)
    cov = np.zeros(len(pts), dtype=bool)
    for m in fam.members:
        cov |= reduce_rows(fam.space.fv, m.mat, pts)
    assert rep.covered == int(cov.sum())
    empty = spread_of(fam.space, [])
    assert V.cover_report(empty, "any_point").covered == 0


def test_maximal_then_deletion_extendable():
    fam = F.transversal_spread(2, 1)
    assert V.check_maximal_spread(fam, "symplectic").is_maximal
    short = spread_of(fam.space, fam.members[:-1])
    cert = V.check_maximal_spread(short, "symplectic")
    assert cert.verdict == "extendable"
    grown = spread_of(fam.space, short.members + [cert.witness])
    assert V.is_partial_spread(grown, "symplectic")


def test_maximal_verdict_stable_under_reordering():
    fam = F.transversal_spread(3, 1)
    rev = spread_of(fam.space, list(reversed(fam.members)))
    assert V.check_maximal_spread(rev, "symplectic").is_maximal


def test_ovoid_deletion_witness():
    e = F.elliptic_or_o5_partial_ovoid(3, "elliptic_quadric")
    short = PointFamily(e.space, e.points[1:], Provenance("t", {}), expected_size=None)
    cert = V.check_maximal_ovoid(short, "orthogonal")
    assert cert.verdict == "extendable"
    assert np.array_equal(cert.witness, e.points[0])


@given(st.sampled_from([2, 3]), st.data())
@settings(max_examples=20, deadline=None)
def test_uncovered_reduction_sound(q, data):
    """Both directions of the key reduction: a t.i. n-space extends a partial
    spread iff all its points are uncovered."""
    space = sp_space(q, 2)
    mts = space.maximal_totally_singular()
    k = data.draw(st.integers(1, 3))
    idx = data.draw(st.lists(st.integers(0, len(mts) - 1), min_size=k, max_size=k, unique=True))
    members = []
    for i in idx:
        if all(mts[i].intersect(m).dim == 0 for m in members):
            members.append(mts[i])
    fam = spread_of(space, members)
    rep = V.cover_report(fam, "any_point")
    uncovered = set(rep.uncovered_keys.tolist())
    for w in mts:
        wkeys = set(point_keys(space.fv, w.points()).tolist())
        extends = all(w.intersect(m).dim == 0 for m in members)
        assert extends == (wkeys <= uncovered)


def test_engine_agrees_with_brute_force_sampled():
    cases = [
        F.transversal_spread(2, 1),
        F.transversal_spread(3, 1),
        F.desarguesian_symplectic_spread(2, 2),
        F.sp6_line_replace(2),
    ]
    for fam in cases:
        ev = V.check_maximal_spread(fam, "symplectic").verdict
        bv, _w = V.brute_force_spread_verdict(fam, "symplectic")
        assert ev == bv
        short = spread_of(fam.space, fam.members[:-1])
        assert (
            V.check_maximal_spread(short, "symplectic").verdict
            == V.brute_force_spread_verdict(short, "symplectic")[0]
        )


def test_expected_size_values():
    assert V.expected_size("thm3.1", {"q": 3, "m": 1}) == 8
    assert V.expected_size("thm3.1", {"q": 2, "m": 2}) == 13
    assert V.expected_size("thm7.3", {"q": 8, "s": 1}) == 449
    assert V.expected_size("thm7.12", {"q": 32, "s": 2}) == 963
    assert V.expected_size("thm9.1", {"q": 5, "s": 2}) == 20
    assert V.expected_size("thm9.1", {"q": 4, "s": 1}) == 13
    assert V.expected_size("ex9.2", {"q": 4}) == 11
    assert V.expected_size("prop4.1", {"q": 2, "m": 2}) == 9
    assert V.expected_size("thm4.3", {"q": 2, "m": 2, "k": 2}) == 65
    assert V.expected_size("thm7.3", {"q": 16, "s": 4, "scheme": "A6ii"}) == 3210


def test_guard_refuses_big_universes():
    fam = F.transversal_spread(2, 1)
    with pytest.raises(OutOfDeskScale):
        V.check_maximal_spread(fam, "symplectic", guard=10)
    e = F.elliptic_or_o5_partial_ovoid(2, "elliptic_quadric")
    with pytest.raises(OutOfDeskScale):
        V.check_maximal_ovoid(e, "orthogonal", guard=10)


def test_fingerprint_properties():
    e = F.elliptic_or_o5_partial_ovoid(2, "elliptic_quadric")
    fp1 = V.fingerprint(e)
    perm = PointFamily(e.space, e.points[::-1], e.provenance, expected_size=None)
    assert V.fingerprint(perm) == fp1
    empty = PointFamily(e.space, e.points[:0], Provenance("t", {}), expected_size=None)
    # empty family: every singular point sees zero neighbours
    assert set(V.fingerprint(empty)) == {0}
    fam = F.transversal_spread(2, 1)
    assert V.fingerprint(fam) == V.fingerprint(fam, seed=5)  # enumerable space


def test_fingerprint_spread_sampled_is_seed_deterministic():
    fam = F.orthogonal_spread(2, 2)
    a = V.fingerprint(fam, seed=3, enum_cap=10)  # force the sampled path
    b = V.fingerprint(fam, seed=3, enum_cap=10)
    assert a == b


def test_fingerprint_separates_the_two_q8_ovoid_types():
    elliptic = F.elliptic_or_o5_partial_ovoid(8, "elliptic_quadric")
    st = F.elliptic_or_o5_partial_ovoid(8, "suzuki_tits")
    fe = V.fingerprint(elliptic)
    fs = V.fingerprint(st)
    # recorded expectation: the perp-count multisets differ
    assert fe != fs


def test_parallel_search_matches_serial():
    fam = F.transversal_spread(2, 2)
    short = spread_of(fam.space, fam.members[:-1])
    serial = V.check_maximal_spread(short, "symplectic")
    par = V.check_maximal_spread(short, "symplectic", jobs=2)
    assert serial.verdict == par.verdict == "extendable"
    assert serial.witness == par.witness
    assert V.check_maximal_spread(fam, "symplectic", jobs=2).is_maximal


def test_is_ovoid_small():
    st_fam = F.suzuki_tits_ovoid(8)
    assert V.is_ovoid(st_fam, "orthogonal")
    short = PointFamily(
        st_fam.space, st_fam.points[:-1], Provenance("t", {}), expected_size=None
    )
    assert not V.is_ovoid(short, "orthogonal")


def test_census_rejects_non_ovoid():
    st_fam = F.suzuki_tits_ovoid(8)
    short = PointFamily(
        st_fam.space, st_fam.points[:-1], Provenance("t", {}), expected_size=None
    )
    from polarspread.gf import FieldError

    with pytest.raises(FieldError):
        V.hyperplane_census(st_fam.space, short)


# ---------------------------------------------------------------------------
# The one-sort partial-spread predicate against the pairwise-rank oracle
# ---------------------------------------------------------------------------


def pairwise_rank_oracle(fam, flavor):
    """The former predicate: per-member checks, then one RREF per pair (two
    n-spaces meet trivially iff their stacked bases have rank 2n)."""
    space = fam.space
    n = space.dim // 2
    members = fam.members
    if len(set(members)) != len(members):
        return False
    for m in members:
        if m.dim != n:
            return False
        if flavor == "symplectic" and not space.is_ti(m):
            return False
        if flavor == "orthogonal" and not space.is_ts(m):
            return False
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            stacked = np.vstack([members[i].mat, members[j].mat])
            if rref(space.fv, stacked).shape[0] != 2 * n:
                return False
    return True


def raw_family(space, members):
    """A family holding exactly `members`, bypassing the constructor's own
    distinctness and dimension checks."""
    fam = spread_of(space, [])
    fam.members = list(members)
    return fam


def agree(fam, flavor):
    got = V.is_partial_spread(fam, flavor)
    assert got == pairwise_rank_oracle(fam, flavor)
    return got


def _triality(build_ovoid):
    return lambda: F.triality_pointset(build_ovoid())


def _elliptic(q):
    return F.elliptic_or_o5_partial_ovoid(q, "elliptic_quadric")


# every subspace family the README, `table` and the benchmark build
SPREAD_FAMILIES = {
    "desarguesian(3,2)": (lambda: F.desarguesian_symplectic_spread(3, 2), "symplectic"),
    "desarguesian(2,3)": (lambda: F.desarguesian_symplectic_spread(2, 3), "symplectic"),
    "thm3.1(3,1)": (lambda: F.transversal_spread(3, 1), "symplectic"),
    "thm3.1(2,2)": (lambda: F.transversal_spread(2, 2), "symplectic"),
    "thm3.1(5,1)": (lambda: F.transversal_spread(5, 1), "symplectic"),
    "prop4.1(2,2)": (lambda: F.orthogonal_spread(2, 2), "orthogonal"),
    "thm4.3(2,2,2)": (lambda: F.descended_spread(2, 2, 2), "orthogonal"),
    "ex5.1a(4)": (lambda: F.folklore_pair(4)[0], "orthogonal"),
    "ex5.1b(4)": (lambda: F.folklore_pair(4)[1], "orthogonal"),
    "thm5.2i(2,2)": (lambda: F.grassl_spread(2, 2, "i"), "symplectic"),
    "thm5.2ii(2,2)": (lambda: F.grassl_spread(2, 2, "ii"), "symplectic"),
    "thm8.1(2)": (lambda: F.sp6_line_replace(2), "symplectic"),
    "thm8.1(4)": (lambda: F.sp6_line_replace(4), "symplectic"),
    "thm7.2(4)": (_triality(lambda: F.orthovoid_bullet(4, 1)), "orthogonal"),
    "ex7.4(4)-triality": (_triality(lambda: _elliptic(4)), "orthogonal"),
    "ex7.4(3)-triality": (_triality(lambda: _elliptic(3)), "orthogonal"),
    "lem7.8(2)-triality": (_triality(lambda: F.two_quadrics_ovoid(2)), "orthogonal"),
    "lem7.8(3)-triality": (_triality(lambda: F.two_quadrics_ovoid(3)), "orthogonal"),
    "project-prop4.1(2,2)": (lambda: F.project_family(F.orthogonal_spread(2, 2)), "symplectic"),
    "descend-ex5.1a(4)": (lambda: F.descend_family(F.folklore_pair(4)[0]), "symplectic"),
}


@pytest.mark.parametrize("name", list(SPREAD_FAMILIES))
def test_partial_spread_matches_pairwise_oracle_on_families(name):
    build, flavor = SPREAD_FAMILIES[name]
    fam = build()
    assert agree(fam, flavor)
    assert agree(fam, "plain")
    assert agree(raw_family(fam.space, fam.members[:-1]), flavor)


@pytest.mark.parametrize("q", [2, 3])
def test_partial_spread_matches_oracle_on_all_pairs_sp4(q):
    """Every pair of t.i. lines of Sp(4,q): disjoint pairs, and pairs that
    share exactly one point."""
    space = sp_space(q, 2)
    mts = space.maximal_totally_singular()
    verdicts = set()
    for i in range(len(mts)):
        for j in range(i + 1, len(mts)):
            verdicts.add(agree(raw_family(space, [mts[i], mts[j]]), "symplectic"))
    assert verdicts == {True, False}


@given(st.sampled_from([(2, 2), (3, 2), (2, 3)]), st.data())
@settings(max_examples=40, deadline=None)
def test_partial_spread_matches_oracle_on_random_families(qn, data):
    q, n = qn
    space = sp_space(q, n)
    mts = space.maximal_totally_singular()
    idx = data.draw(st.lists(st.integers(0, len(mts) - 1), max_size=6, unique=True))
    agree(raw_family(space, [mts[i] for i in idx]), "symplectic")


def test_partial_spread_negatives():
    fam = F.transversal_spread(2, 1)
    space = fam.space
    first = fam.members[0]
    # exactly one shared point: a t.i. line meeting `first` in one point
    mts = space.maximal_totally_singular()
    meet_one = next(w for w in mts if w.intersect(first).dim == 1)
    assert not agree(raw_family(space, [first, meet_one]), "symplectic")
    assert not agree(raw_family(space, fam.members + [meet_one]), "symplectic")
    # a duplicated member
    assert not agree(raw_family(space, fam.members + [first]), "symplectic")
    # a member of the wrong dimension, disjoint from the rest
    point = canonicalize(space.fv, first.mat[:1], space.dim)
    assert not agree(raw_family(space, fam.members[1:] + [point]), "plain")
    # a non-t.i. member: the plane of two unit vectors the form pairs
    i, j = np.argwhere(space.gram != 0)[0]
    plane = canonicalize(space.fv, np.eye(4, dtype=np.int64)[[i, j]], 4)
    assert not space.is_ti(plane)
    assert agree(raw_family(space, [plane]), "plain")
    assert not agree(raw_family(space, [plane]), "symplectic")
    # a non-t.s. member of O+(4,2): t.i. in characteristic 2 but not t.s.
    o = oplus_space(2, 2)
    diag = canonicalize(o.fv, [[1, 1, 0, 0], [0, 0, 1, 1]], 4)
    assert o.is_ti(diag) and not o.is_ts(diag)
    assert agree(raw_family(o, [diag]), "plain")
    assert not agree(raw_family(o, [diag]), "orthogonal")
    # the empty family and a one-member family
    assert agree(raw_family(space, []), "symplectic")
    assert agree(raw_family(space, [first]), "symplectic")
