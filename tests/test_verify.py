"""Predicates, cover reports, the maximality engine and its brute-force
agreement, size formulas, fingerprints."""

import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

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
from polarspread.linalg import (
    canonical_point_blocks,
    canonicalize,
    canonicalize_points,
    isin_sorted,
    point_keys,
    reduce_rows,
    rref,
)
from polarspread.spaces import OutOfDeskScale, SearchTimeout, oplus_space, sp_space


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
    rep = V.cover_report(fam, "symplectic")
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
    assert V.cover_report(empty, "symplectic").covered == 0


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


@pytest.mark.parametrize("faulty", [("narrow",), ("to",), ("narrow", "to")], ids="+".join)
def test_ovoid_witness_is_reverified(monkeypatch, faulty):
    """The witness for a partial ovoid less its first point is that point
    and passes the re-check.  The scan narrows on bit planes
    (`Perp.narrow`), then on the keys left (`Perp.to`).  Less its last
    point, the first candidate the bit-plane phase leaves is perpendicular
    to a later member; when either phase, or both, removes no candidate,
    the scan hands back a point perpendicular to a member, and the re-check
    refuses it."""
    e = F.elliptic_or_o5_partial_ovoid(4, "elliptic_quadric")
    short = PointFamily(e.space, e.points[1:], Provenance("t", {}), expected_size=None)
    cert = V.check_maximal_ovoid(short, "orthogonal")
    assert cert.verdict == "extendable" and np.array_equal(cert.witness, e.points[0])
    short = PointFamily(e.space, e.points[:-1], Provenance("t", {}), expected_size=None)
    cert = V.check_maximal_ovoid(short, "orthogonal")
    assert cert.verdict == "extendable"
    assert 0 < cert.stats["sliced"] < len(short.points)  # both phases run
    # the p = 2 re-check reads Perp.blocks, which the faults leave alone
    removes_nothing = {
        "narrow": lambda self, k, live: live,
        "to": lambda self, k, idx: np.zeros(len(idx), dtype=bool),
    }
    for name in faulty:
        monkeypatch.setattr(spaces.Perp, name, removes_nothing[name])
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
    rep = V.cover_report(fam, "symplectic")
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
        uncovered = V.cover_report(short, flavor).uncovered_keys
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


def sp24_one_member() -> SubspaceFamily:
    """One t.i. 12-space of Sp(24,2), whose 16,777,215 points would take
    3.2 GB as rows."""
    space = sp_space(2, 12)
    return spread_of(space, [canonicalize(space.fv, np.eye(24, dtype=np.int64)[0::2], 24)])


def test_universe_over_the_point_cap_is_refused_before_it_is_made(monkeypatch):
    fam = sp24_one_member()
    point = PointFamily(fam.space, fam.members[0].mat[:1], Provenance("t", {}), expected_size=None)
    monkeypatch.setattr(spaces, "all_points", lambda *a: pytest.fail("the universe was made"))
    with pytest.raises(OutOfDeskScale, match="MAX_ENUM_POINTS"):
        V.check_maximal_spread(fam, "symplectic")
    with pytest.raises(OutOfDeskScale, match="MAX_ENUM_POINTS"):
        V.check_maximal_ovoid(point, "symplectic")


def test_enumerator_bitsets_over_the_cap_are_refused_before_they_are_made(monkeypatch):
    """The 300,105 singular points of O+(8,8) would take 11.3 GB of
    perpendicularity bitsets."""
    monkeypatch.setattr(spaces.Perp, "blocks", lambda *a, **k: pytest.fail("the bitsets were filled"))
    with pytest.raises(OutOfDeskScale, match="perpendicularity bitsets.*MAX_BITSET_BYTES"):
        oplus_space(8, 4).maximal_totally_singular()


def test_line_graph_over_the_bitset_cap_is_refused(monkeypatch):
    """The line graph is refused when its slot matrix would grow over
    MAX_BITSET_BYTES, and never when all of its rows fit."""
    fam = F.sp6_line_replace(3)
    want = V.check_maximal_spread(fam, "symplectic")
    assert want.stats["rows"] > 0
    n = len(V.cover_report(fam, "symplectic").uncovered_points)
    monkeypatch.setattr(spaces, "MAX_BITSET_BYTES", n * ((n + 63) // 64) * 8)
    got = V.check_maximal_spread(fam, "symplectic")
    assert (got.verdict, got.nodes, got.stats["rows"]) == (want.verdict, want.nodes, want.stats["rows"])
    monkeypatch.setattr(spaces, "MAX_BITSET_BYTES", 0)
    with pytest.raises(OutOfDeskScale, match="line graph.*MAX_BITSET_BYTES"):
        V.check_maximal_spread(fam, "symplectic")


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


# the point families of the perfbench ovoid workload
OVOID_WORKLOAD = {
    "appA(8)": lambda: F.desarguesian_ovoid(8),
    "thm7.3(8,1)-A6i": lambda: F.orthovoid_bullet(8, 1, "A6i"),
    "thm7.3(8,1)-A6ii": lambda: F.orthovoid_bullet(8, 1, "A6ii"),
    "lem7.8(8)": lambda: F.two_quadrics_ovoid(8),
    "ex7.4(8)": lambda: F.elliptic_or_o5_partial_ovoid(8, "elliptic_quadric"),
    "lem7.5-st(8)": lambda: F.elliptic_or_o5_partial_ovoid(8, "suzuki_tits"),
    "thm7.10(8)": lambda: F.st_pencil_replace(8),
    "thm7.11(8)": lambda: F.st_section_replace(8),
    "thm9.1(7,1)": lambda: F.conic_replace(7, 1),
    "thm9.1(9,1)": lambda: F.conic_replace(9, 1),
    "ex9.2(8,3)": lambda: F.three_lines(8, 3),
}


@pytest.mark.parametrize("name", list(OVOID_WORKLOAD))
def test_fingerprint_has_one_entry_per_point_outside_the_family(name):
    """Members count as inside whatever multiple their rows hold; thm7.3
    keeps its removal point as found, not canonical."""
    fam = OVOID_WORKLOAD[name]()
    if name.startswith("thm7.3"):
        assert not np.array_equal(canonicalize_points(fam.space.fv, fam.points), fam.points)
    assert len(V.fingerprint(fam)) == fam.space.singular_count() - len(fam)


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
    subtrees (the first ten measured), so its worker must be terminated
    once the first range is read.  The parallel node count takes in only
    the root and the ranges at or below the winning one, so it equals the
    serial count."""
    fam = F.descended_spread(2, 2, 2)
    short = spread_of(fam.space, fam.members[:-1])
    serial = V.check_maximal_spread(short, "orthogonal")
    par = V.check_maximal_spread(short, "orthogonal", jobs=2, time_budget=120)
    assert par.verdict == "extendable"
    assert par.witness == serial.witness
    assert serial.nodes == 33
    assert par.nodes == serial.nodes
    assert par.stats["nodes_by_depth"] == serial.stats["nodes_by_depth"]
    assert par.millis < 10_000
    assert multiprocessing.active_children() == []


def test_parallel_timeout_leaves_no_worker():
    """thm4.3(2,2,2) is maximal and takes far longer than its 1 s budget:
    the first range's SearchTimeout reaches the caller, and no worker is
    left running."""
    fam = F.descended_spread(2, 2, 2)
    t0 = time.perf_counter()
    with pytest.raises(SearchTimeout):
        V.check_maximal_spread(fam, "orthogonal", jobs=2, time_budget=1)
    assert time.perf_counter() - t0 < 60  # backstop only
    assert multiprocessing.active_children() == []


_run_range = V._run_range


def _die_on_the_first_range(search, bounds):
    """A range whose worker dies, as one killed for memory would."""
    if bounds[0] == 0:
        os._exit(9)
    return _run_range(search, bounds)


def _hung(signum, frame):
    raise TimeoutError("the parallel run did not return")


@pytest.mark.parametrize("budget", [None, 5])
def test_parallel_search_raises_when_a_worker_dies(monkeypatch, budget):
    """The range a dead worker held never reports: the run raises at once,
    with or without a budget, rather than wait for it, and leaves no
    worker.  An alarm turns a hang into a failure."""
    monkeypatch.setattr(multiprocessing, "Process", multiprocessing.get_context("fork").Process)
    monkeypatch.setattr(V, "_run_range", _die_on_the_first_range)
    fam = F.transversal_spread(2, 2)
    short = spread_of(fam.space, fam.members[:-1])
    old = signal.signal(signal.SIGALRM, _hung)
    signal.alarm(30)
    try:
        t0 = time.perf_counter()
        with pytest.raises(RuntimeError, match="worker died"):
            V.check_maximal_spread(short, "symplectic", jobs=2, time_budget=budget)
        assert time.perf_counter() - t0 < 5
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
    assert multiprocessing.active_children() == []


def _stall_on_the_first_range(search, bounds):
    """A range that never reaches its budget check."""
    if bounds[0] == 0:
        time.sleep(60)
    return _run_range(search, bounds)


def test_parallel_search_keeps_its_budget_when_a_worker_stalls(monkeypatch):
    """A range that never checks the budget: the run still raises
    SearchTimeout LATE_S past its budget and leaves no worker."""
    monkeypatch.setattr(multiprocessing, "Process", multiprocessing.get_context("fork").Process)
    monkeypatch.setattr(V, "_run_range", _stall_on_the_first_range)
    fam = F.transversal_spread(2, 2)
    short = spread_of(fam.space, fam.members[:-1])
    t0 = time.perf_counter()
    with pytest.raises(SearchTimeout):
        V.check_maximal_spread(short, "symplectic", jobs=2, time_budget=0.2)
    assert V.LATE_S < time.perf_counter() - t0 < V.LATE_S + 3
    assert multiprocessing.active_children() == []


# run in a child interpreter with the start method in argv[1]: each family
# less one member, serial against jobs=2
START_METHOD_CHECK = """
import multiprocessing
import sys

from polarspread import families as F, verify as V
from polarspread.families import Provenance, SubspaceFamily

if __name__ == "__main__":
    multiprocessing.set_start_method(sys.argv[1])
    for fam, flavor in [
        (F.transversal_spread(2, 2), "symplectic"),
        (F.transversal_spread(3, 1), "symplectic"),
        (F.descended_spread(2, 2, 2), "orthogonal"),
    ]:
        short = SubspaceFamily(fam.space, fam.members[:-1], Provenance("test", {}), None)
        serial = V.check_maximal_spread(short, flavor)
        par = V.check_maximal_spread(short, flavor, jobs=2, time_budget=120)
        assert serial.verdict == "extendable"
        assert (par.verdict, par.witness, par.nodes) == (serial.verdict, serial.witness, serial.nodes)
        for key in ("nodes_by_depth", "skipped"):
            assert par.stats[key] == serial.stats[key], key
    assert multiprocessing.active_children() == []
    print("ok")
"""


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_parallel_search_under_start_method(method):
    """Under spawn and forkserver each worker unpickles the search (its
    line graph without rows or key table) and builds its own rows, and the
    run still equals the serial one."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    argv = [sys.executable, "-c", START_METHOD_CHECK, method]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=300, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"


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


def test_certificate_stats():
    """A serial certificate's stats add up to its node count, and `verify`
    writes them into the artifact with engine version 2."""
    fam = F.grassl_spread(2, 2, "i")
    cert = V.check_maximal_spread(fam, "symplectic")
    st = cert.stats
    assert sum(st["nodes_by_depth"]) == cert.nodes and st["nodes_by_depth"][0] == 1
    assert 0 < st["skipped"] < cert.nodes and 0 < st["rows"] <= 255
    assert set(st["ms"]) == {"check", "cover", "rows", "search"}
    assert 0 < st["ms"]["check"] and sum(st["ms"].values()) <= cert.millis + 0.01
    assert cert.descriptor()["stats"] == st
    assert cert.descriptor()["engine_version"] == V.ENGINE_VERSION == "2"


@pytest.mark.parametrize(
    "build,flavor,drop",
    [
        (lambda: F.conic_replace(7, 1), "orthogonal", 0),
        (lambda: F.conic_replace(7, 1), "orthogonal", 1),
        (lambda: F.suzuki_tits_ovoid(8), "orthogonal", 0),
        (lambda: F.suzuki_tits_ovoid(8), "orthogonal", 2),
        (lambda: F.three_lines(8, 3), "symplectic", 0),
    ],
    ids=["thm9.1(7,1)", "thm9.1(7,1)-1", "ST(8)", "ST(8)-2", "ex9.2(8,3)"],
)
def test_ovoid_certificate_stats(build, flavor, drop):
    """An ovoid certificate's phases add up to at most its millis, and its
    live candidates never grow, one count per member applied, ending at 0
    exactly when the family is maximal."""
    fam = build()
    fam = PointFamily(fam.space, fam.points[: len(fam.points) - drop], fam.provenance)
    cert = V.check_maximal_ovoid(fam, flavor)
    st = cert.stats
    assert set(st["ms"]) == {"check", "universe", "scan"}
    assert min(st["ms"].values()) >= 0 and sum(st["ms"].values()) <= cert.millis + 0.01
    live = st["live"]
    assert 0 < len(live) <= len(fam.points) and live[0] <= cert.nodes
    if fam.space.bit_packing is None:
        assert st["sliced"] == 0
    else:
        assert 0 < st["sliced"] <= len(live)
    assert all(b <= a for a, b in zip(live, live[1:]))
    assert (live[-1] == 0) == cert.is_maximal == (drop == 0)
    if cert.is_maximal:
        assert 0 not in live[:-1]
    else:
        assert len(live) == len(fam.points)
    assert cert.descriptor()["stats"] == st


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


# ---------------------------------------------------------------------------
# Stacked passes: t.i./t.s. masks, bad members anywhere, cover reports
# ---------------------------------------------------------------------------


def forms_vanish(space, mat, flavor):
    """One basis at a time, one form value at a time: B on every pair of
    rows, and Q on every row for the orthogonal flavor (a FieldError on a
    space with no quadratic form)."""
    if flavor == "orthogonal" and any(space.qform(r) for r in mat):
        return False
    return all(space.bform(u, v) == 0 for u in mat for v in mat)


@pytest.mark.parametrize("name", list(SPREAD_FAMILIES))
def test_ti_ts_masks_match_the_per_member_loop(name):
    """The masks over the members' stacked bases, and over bases that take
    their last row from the previous member (mostly not t.i.)."""
    fam = SPREAD_FAMILIES[name][0]()
    space = fam.space
    mats = np.stack([m.mat for m in fam.members])
    mixed = mats.copy()
    mixed[:, -1] = np.roll(mats[:, -1], 1, axis=0)
    bases = np.concatenate([mats, mixed])
    want = [forms_vanish(space, b, "symplectic") for b in bases]
    assert space.ti_mask(bases).tolist() == want
    assert False in want
    if space.qcoef is None:
        with pytest.raises(FieldError):
            space.ts_mask(bases)
    else:
        assert space.ts_mask(bases).tolist() == [forms_vanish(space, b, "orthogonal") for b in bases]


def outcome(predicate, fam, flavor):
    try:
        return predicate(fam, flavor)
    except FieldError:
        return "FieldError"


def _bad_members(space, rng):
    """An n-space that is not t.i. and, for a quadratic form, a t.i. one
    that is not t.s. (spanned by the diagonals of the hyperbolic pairs),
    the two disjoint."""
    n = space.dim // 2
    bad = []
    if space.qcoef is not None:
        diag = np.zeros((n, space.dim), dtype=np.int64)
        i = np.arange(n)
        diag[i, 2 * i] = diag[i, 2 * i + 1] = 1
        bad.append(canonicalize(space.fv, diag, space.dim))
    while True:
        x = canonicalize(space.fv, rng.integers(0, 2, (n, space.dim)), space.dim)
        if x.dim == n and not space.is_ti(x) and all(x.intersect(b).dim == 0 for b in bad):
            return [x] + bad


@pytest.mark.parametrize("space", [oplus_space(2, 4), sp_space(2, 3)], ids=repr)
def test_a_bad_member_is_found_anywhere_in_the_stack(monkeypatch, space):
    """A non-t.i. member and (with Q) a t.i. but non-t.s. member, each
    first, in the middle and last, and a bad member on each side of a block
    boundary: maximal t.s. members are added while disjoint from every
    member so far, so only the forms can fail.  A t.s. member that meets
    the first one fails from the last block.  With blocks of two members
    and the default ones, the predicate equals the per-member loop of the
    pairwise oracle, FieldError included (orthogonal flavor in Sp(6,2))."""
    bad = _bad_members(space, np.random.default_rng(5))
    good = []
    for w in space.maximal_totally_singular():
        if all(w.intersect(m).dim == 0 for m in good + bad):
            good.append(w)
    assert len(good) >= 4
    mid = len(good) // 2
    placed = []
    for x in bad:
        placed += [[x] + good, good[:mid] + [x] + good[mid:], good + [x]]
    # blocks of two members: bad[0] ends the first and bad[1] starts the
    # second, or the one bad member starts the second
    placed.append(good[:1] + bad + good[1:] if len(bad) == 2 else good[:2] + bad + good[2:])
    # a t.s. member meeting the first one, in the last block
    meets = next(w for w in space.maximal_totally_singular() if 0 < w.intersect(good[0]).dim)
    per = (space.q ** (space.dim // 2) - 1) // (space.q - 1)
    for words in (2 * per * space.dim, spaces.PASS_WORDS):
        monkeypatch.setattr(V, "PASS_WORDS", words)
        fam = raw_family(space, good + [meets])
        for flavor in ("plain", "symplectic", "orthogonal"):
            got = outcome(V.is_partial_spread, fam, flavor)
            assert got == outcome(pairwise_rank_oracle, fam, flavor) in (False, "FieldError")
        for members in placed:
            fam = raw_family(space, members)
            assert V.is_partial_spread(fam, "plain")
            for flavor in ("symplectic", "orthogonal"):
                got = outcome(V.is_partial_spread, fam, flavor)
                assert got == outcome(pairwise_rank_oracle, fam, flavor)
                if flavor == "symplectic":
                    assert got == (bad[0] not in members)
                else:
                    assert got == ("FieldError" if space.qcoef is None else False)


def cover_report_by_members(fam, flavor):
    """The former cover report: the universe as rows, filtered from all
    points by Q for the orthogonal flavor, and one `searchsorted` per
    member."""
    space = fam.space
    pts = np.vstack(list(canonical_point_blocks(space.fv, space.dim)))
    if flavor == "orthogonal" and space.qcoef is not None:
        pts = pts[space.vqform(pts) == 0]
    keys = point_keys(space.fv, pts)
    order = np.argsort(keys)
    skeys = keys[order]
    covered = np.zeros(len(skeys), dtype=bool)
    for m in fam.members:
        mk = point_keys(space.fv, m.points())
        idx = np.searchsorted(skeys, mk)
        hit = (idx < len(skeys)) & (skeys[np.minimum(idx, len(skeys) - 1)] == mk)
        covered[idx[hit]] = True
    return V.CoverReport(len(skeys), int(covered.sum()), skeys[~covered], pts[order[~covered]])


# the families of the benchmark's engine workload, with its flavors
ENGINE_FAMILIES = [
    ("thm4.3(2,2,2)", "orthogonal"),
    ("ex7.4(3)-triality", "orthogonal"),
    ("lem7.8(3)-triality", "orthogonal"),
    ("thm5.2i(2,2)", "symplectic"),
    ("thm5.2ii(2,2)", "symplectic"),
    ("prop4.1(2,2)", "plain"),
    ("thm8.1(4)", "symplectic"),
    ("thm3.1(5,1)", "symplectic"),
]


@pytest.mark.parametrize("name,flavor", ENGINE_FAMILIES, ids=[n for n, _ in ENGINE_FAMILIES])
def test_cover_report_matches_the_per_member_loop(monkeypatch, name, flavor):
    """Each family whole and less 1, 2 and 3 members, with blocks of one
    member and of the default size: the same counts, and the same uncovered
    keys and points in the same order; the partial-spread predicate holds."""
    fam = SPREAD_FAMILIES[name][0]()
    for drop in range(4):
        short = fam if drop == 0 else spread_of(fam.space, fam.members[:-drop])
        want = cover_report_by_members(short, flavor)
        for words in (1, spaces.PASS_WORDS):
            monkeypatch.setattr(V, "PASS_WORDS", words)
            got = V.cover_report(short, flavor)
            assert (got.total, got.covered) == (want.total, want.covered), (drop, words)
            assert np.array_equal(got.uncovered_keys, want.uncovered_keys)
            assert np.array_equal(got.uncovered_points, want.uncovered_points)
            assert V.is_partial_spread(short, flavor)
