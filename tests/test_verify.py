"""Predicates, cover reports, the maximality engine and its brute-force
agreement, size formulas, fingerprints."""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarspread import families as F
from polarspread import spaces
from polarspread import verify as V
from polarspread.cli import build
from polarspread.families import PointFamily, Provenance, SubspaceFamily
from polarspread.gf import FieldError
from polarspread.linalg import canonicalize, isin_sorted, point_keys, reduce_rows, rref
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

    assert len(rep.uncovered_points) == rep.uncovered
    for row in rep.uncovered_points:
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


def test_ovoid_witness_is_reverified(monkeypatch):
    """The witness for a partial ovoid less one point is that point and
    passes the re-check; a scan that removes no candidate hands back the
    first singular point, which is perpendicular to a member and refused."""
    e = F.elliptic_or_o5_partial_ovoid(4, "elliptic_quadric")
    short = PointFamily(e.space, e.points[1:], Provenance("t", {}), expected_size=None)
    cert = V.check_maximal_ovoid(short, "orthogonal")
    assert cert.verdict == "extendable" and np.array_equal(cert.witness, e.points[0])
    # the scan asks Perp.to; the p = 2 re-check reads Perp.blocks, which it leaves alone
    monkeypatch.setattr(spaces.Perp, "to", lambda self, k, idx: np.zeros(len(idx), dtype=bool))
    with pytest.raises(FieldError, match="witness failed re-verification"):
        V.check_maximal_ovoid(short, "orthogonal")


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


@pytest.mark.parametrize(
    "build,flavor",
    [
        (lambda: F.sp6_line_replace(3), "symplectic"),
        (lambda: F.triality_pointset(F.two_quadrics_ovoid(2)), "orthogonal"),
        (lambda: F.triality_pointset(F.elliptic_or_o5_partial_ovoid(3, "elliptic_quadric")), "orthogonal"),
    ],
    ids=["thm8.1(3)", "lem7.8(2)-triality", "ex7.4(3)-triality"],
)
def test_brute_force_witness_is_the_first_uncovered_subspace(monkeypatch, build, flavor):
    """Each family whole and less 1, 2 and 3 members, with blocks of one
    and of several subspaces: the witness is the first enumerated subspace
    whose points are all uncovered (the former one-subspace-at-a-time
    scan), and the engine's witness."""
    fam = build()
    space = fam.space
    for drop in range(4):
        short = fam if drop == 0 else spread_of(space, fam.members[:-drop])
        mode = "singular" if flavor == "orthogonal" else "any_point"
        uncovered = V.cover_report(short, mode).uncovered_keys
        want = next(
            (
                w
                for w in space.maximal_totally_singular()
                if isin_sorted(point_keys(space.fv, w.points()), uncovered).all()
            ),
            None,
        )
        assert V.check_maximal_spread(short, flavor).witness == want, drop
        for words in (1, 1000, spaces.PASS_WORDS):
            monkeypatch.setattr(V, "PASS_WORDS", words)
            verdict, witness = V.brute_force_spread_verdict(short, flavor)
            assert (verdict, witness) == ("maximal" if want is None else "extendable", want), (drop, words)


def test_expected_size_values():
    """The constructors' own closed-form sizes, through the CLI registry."""
    assert build("thm3.1", 3, m=1).expected_size == 8
    assert build("thm3.1", 2, m=2).expected_size == 13
    assert build("thm7.3", 8, s=1).expected_size == 449
    assert build("thm7.12", 32, s=2).expected_size == 963
    assert build("thm9.1", 5, s=2).expected_size == 20
    assert build("thm9.1", 4, s=1).expected_size == 13
    assert build("ex9.2", 4).expected_size == 11
    assert build("prop4.1", 2, m=2).expected_size == 9
    assert build("thm4.3", 2, m=2, k=2).expected_size == 65
    assert build("thm7.3", 16, s=4, scheme="A6ii").expected_size == 3210


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


def fingerprint_by_vbform(fam):
    """The point-family fingerprint with one `vbform` per member."""
    space = fam.space
    sing = space.singular_points()
    counts = sum((space.vbform(sing, p) == 0).astype(np.int64) for p in fam.points)
    inside = isin_sorted(point_keys(space.fv, sing), np.sort(point_keys(space.fv, fam.points)))
    return tuple(sorted(counts[~inside].tolist()))


@pytest.mark.parametrize(
    "build",
    [
        lambda: F.elliptic_or_o5_partial_ovoid(8, "elliptic_quadric"),
        lambda: F.two_quadrics_ovoid(8),
        lambda: F.two_quadrics_ovoid(3),
    ],
    ids=["ex7.4(8)", "lem7.8(8)", "lem7.8(3)"],
)
def test_fingerprint_matches_the_vbform_count(build):
    fam = build()
    assert V.fingerprint(fam) == fingerprint_by_vbform(fam)


def test_parallel_search_matches_serial():
    # q = 3 sends odd-p packed keys through the workers' pickled state
    for fam in (F.transversal_spread(2, 2), F.transversal_spread(3, 1)):
        short = spread_of(fam.space, fam.members[:-1])
        serial = V.check_maximal_spread(short, "symplectic")
        par = V.check_maximal_spread(short, "symplectic", jobs=2)
        assert serial.verdict == par.verdict == "extendable"
        assert serial.witness == par.witness
        assert V.check_maximal_spread(fam, "symplectic", jobs=2).is_maximal


def test_parallel_search_stops_at_the_lowest_witness():
    """thm4.3(2,2,2) less one member: the witness lies in the first range of
    2072 first-flag points, found in 33 nodes.  Run to its end, the second
    range counts millions of nodes, 4,017 in each of its first-flag
    subtrees (the first ten measured), so its worker must stop once the
    first range reports: the nodes the run discards stay below one such
    subtree (about 200 measured).  The parallel node count takes in only the
    root and the ranges at or below the winning one, so it equals the serial
    count."""
    fam = F.descended_spread(2, 2, 2)
    short = spread_of(fam.space, fam.members[:-1])
    serial = V.check_maximal_spread(short, "orthogonal")
    par = V.check_maximal_spread(short, "orthogonal", jobs=2, time_budget=120)
    assert par.verdict == "extendable"
    assert par.witness == serial.witness
    assert serial.nodes == 33
    assert par.nodes == serial.nodes
    assert par.stats["nodes_by_depth"] == serial.stats["nodes_by_depth"]
    assert serial.stats["discarded"] == 0
    assert par.stats["discarded"] < 4017
    assert par.millis < 60_000  # backstop only


def test_parallel_node_counts_are_reproducible():
    """Two jobs=2 runs count the same nodes by depth as a serial run, on
    families whose witness lies past the first range, on a maximal one, and
    on a search cut at its root."""
    cases = [
        (spread_of(F.transversal_spread(2, 2).space, F.transversal_spread(2, 2).members[:-1]), "symplectic"),
        (F.grassl_spread(2, 2, "i"), "orthogonal"),
        (spread_of(F.transversal_spread(3, 1).space, F.transversal_spread(3, 1).members[:-1]), "symplectic"),
    ]
    for fam, flavor in cases:
        serial = V.check_maximal_spread(fam, flavor)
        runs = [V.check_maximal_spread(fam, flavor, jobs=2) for _ in range(2)]
        for par in runs:
            assert (par.verdict, par.witness, par.nodes) == (serial.verdict, serial.witness, serial.nodes)
            assert par.stats["nodes_by_depth"] == serial.stats["nodes_by_depth"]
            assert par.stats["skipped"] == serial.stats["skipped"]
    # fewer points than one t-space holds, which no partial spread leaves:
    # the ranges keep the root's cut and visit nothing
    space = oplus_space(2, 4)  # O+(8,2): a t-space holds 15 points
    pts = space.singular_points()[:2]
    serial = V._build_search(space, "orthogonal", pts, None)
    assert next(serial.flags(), None) is None
    witness, stats = V._parallel_search(V._build_search(space, "orthogonal", pts, None), 2)
    assert witness is None and serial.nodes == 1
    assert stats.depth_nodes.tolist() == serial.depth_nodes


def test_branch_range_stops_inside_a_first_flag_subtree():
    """A `best` that drops below the range while the search is deep in the
    first first-flag subtree of [60, 68) (13,650 nodes, 252 of them
    entered) ends the range at the next pass, not at the next first-flag
    point."""
    fam = F.descended_spread(2, 2, 2)
    short = spread_of(fam.space, fam.members[:-1])
    pts = V._prepare_spread_search(short, "orthogonal", V.DEFAULT_TEST_GUARD)
    search = V._build_search(short.space, "orthogonal", pts, time.monotonic() + 120)

    class Best:
        @property
        def value(self):
            return len(pts) if search.nodes < 50 else 0

    assert V._branch_range(search, 60, 68, Best()) is None
    assert search.nodes == 50
    assert search.depth_nodes[:5] == [0, 1, 36, 7, 6]


def test_certificate_stats():
    """A serial certificate's stats add up to its node count, and `verify`
    writes them into the artifact with engine version 2."""
    fam = F.grassl_spread(2, 2, "i")
    cert = V.check_maximal_spread(fam, "symplectic")
    st = cert.stats
    assert sum(st["nodes_by_depth"]) == cert.nodes and st["nodes_by_depth"][0] == 1
    assert 0 < st["skipped"] < cert.nodes and 0 < st["rows"] <= 255
    assert set(st["ms"]) == {"cover", "rows", "search"}
    assert cert.descriptor()["stats"] == st
    assert cert.descriptor()["engine_version"] == V.ENGINE_VERSION == "2"


def is_ovoid_by_reduce_rows(fam):
    """The former ovoid test: one `reduce_rows` per maximal subspace."""
    space = fam.space
    return V.is_partial_ovoid(fam, "orthogonal") and all(
        reduce_rows(space.fv, w.mat, fam.points).sum() == 1 for w in space.maximal_totally_singular()
    )


@pytest.mark.parametrize(
    "build,want",
    [
        (lambda: F.suzuki_tits_ovoid(8), True),
        (lambda: F.suzuki_tits_ovoid(8), False),
        (lambda: F.desarguesian_ovoid(4), True),
        (lambda: F.klein_family(F.desarguesian_symplectic_spread(3, 2)), True),
    ],
    ids=["ST(8)", "ST(8)-last", "appA(4)", "klein(3)"],
)
def test_is_ovoid_matches_the_per_subspace_oracle(monkeypatch, build, want):
    """The block scan of point keys, with blocks of one subspace and of the
    default size, against one `reduce_rows` call per maximal subspace."""
    fam = build()
    if not want:
        fam = PointFamily(fam.space, fam.points[:-1], Provenance("t", {}), expected_size=None)
    assert is_ovoid_by_reduce_rows(fam) == want
    assert V.is_ovoid(fam, "orthogonal") == want
    monkeypatch.setattr(V, "PASS_WORDS", 1)
    assert V.is_ovoid(fam, "orthogonal") == want


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
