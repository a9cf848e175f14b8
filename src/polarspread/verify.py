"""Verification engine: partial-spread/ovoid predicates, cover analysis,
exhaustive maximality search with uncovered-point pruning, completeness
checks, hyperplane census, and fingerprints.

The partial-spread predicate needs no pairwise rank test.  Two members meet
nontrivially iff they share a projective point, and every point has one
canonical key, so the members are pairwise disjoint iff the point keys of
all members are pairwise distinct: one sort over the union.  It works on
stacks of member bases: one t.i./t.s. mask over all bases, then blocks of
members whose keys take about PASS_WORDS entries, written into one key
array, which is sorted in place.  No point is made as a row: keys add as
the vectors do, so a member's keys are key sums of its basis rows'
multiples (`linalg.stacked_point_keys`), in the order of its points.  The
cover report, the ovoid test and the brute-force verdict walk the same
blocks.

The maximality search rests on one exact reduction: a subspace extends a
partial spread iff every one of its points is uncovered (lies in no member).
The engine runs the package's one canonical-augmentation DFS,
`spaces.FlagSearch`, over the uncovered admissible points: it accepts an
extension p only when the whole coset p + span is uncovered and p is the
minimum of that coset (so each candidate subspace is visited once), and it
cuts a node whose candidates are fewer than the points a completion would
still need.  Candidates are bitsets narrowed by the rows of a
line-compatibility graph (`spaces.LineGraph`).  Serial and parallel runs
return the same verdict, witness and node counts: worker processes search
disjoint ranges of first-flag points, their results are read in range
order up to the first witness, and the workers still on ranges above it
are killed.  A worker that dies ends the run with an error, and the run
keeps its time budget even when a worker stops checking it.

In O+(8,q) an orthogonal partial spread of t.s. 4-spaces is decided
through triality, with no search.  Two t.s. 4-spaces of opposite classes
always meet (in dimension 1 or 3), so the members of a partial spread, and
any extension of it, lie in one class.  Triality maps the singular points
one to one onto a class, p -> p * O in the Zorn model, and two images are
disjoint iff their points are non-perpendicular (`octonion`).  So the
family is maximal iff the points of its members (`triality_points`, which
first moves members of the other class by a fixed isometry) form a
maximal partial ovoid, which the ovoid scan below decides.  A maximal
scan is the certificate; an extendable one falls through to the search,
so the witness is the search's canonical one, and a search that then
finds none raises.  The facts the route rests on are checked by
enumeration at q = 2 and 3 in the tests.

An ovoid is certified maximal by a scan: a candidate point extends the
family iff it is perpendicular to no member.  The live candidates, in
ascending canonical order, are narrowed once per member by `spaces.Perp`,
on the keys the space keeps for its singular points, so the first one left
is the first witness in canonical order.  For p = 2 the scan reads only
keys, and the witness alone is unpacked into a row.  It starts on one
bitset over all candidates: the kernel test of a member is GF(2)-linear in
the key bits, so for every candidate at once it is e XOR-reductions of the
keys' bit planes (`Perp.narrow`), which take nbits/64 of the keys' memory
(0.8 MB for the 300,105 points of O+(8,8)).  Once no more than 4
candidates per bitset word are left, and from the start for odd p, the
members left go a block at a time to a `Perp` over the candidates left
only: one `off` per block, and the candidates left after each member of
the block are the running AND of its rows.  The next block's `Perp` holds
only the candidates this block left, so no member costs a pass over
candidates an earlier one removed.  Like a spread witness, the witness is
re-checked by the partial-ovoid predicate before it is returned.  The
cover report likewise unpacks only the uncovered keys into rows.
Fingerprints count, for each candidate, the members its row of
`Perp.off_blocks` leaves out, and the hyperplane census counts the zeros
of x . phi the same way, with phi as the vector of a form whose Gram
matrix is the identity.

The partial-ovoid predicate needs no pair loop either.  A family is a
partial ovoid iff the functional B(x, .) of each point x vanishes at no
other point of the family, so it counts the points off each functional's
kernel (`Perp.off_blocks`), and stops at the first block with a point
over.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .families import PointFamily, SubspaceFamily
from .gf import FieldError
from .linalg import (
    Subspace,
    canonicalize,
    canonicalize_points,
    isin_sorted,
    key_rows,
    point_keys,
    stacked_point_keys,
)
from .octonion import triality_points
from .spaces import (
    PASS_WORDS,
    FlagSearch,
    FormedSpace,
    Perp,
    SearchStats,
    SearchTimeout,
    pack_bits,
)

ENGINE_VERSION = "3"


@dataclass
class CoverReport:
    total: int
    covered: int
    uncovered_keys: np.ndarray  # ascending canonical keys
    uncovered_points: np.ndarray  # the same points as rows, in the same order

    @property
    def uncovered(self) -> int:
        return self.total - self.covered


@dataclass
class MaximalityCertificate:
    verdict: str  # "maximal" | "extendable"
    witness: object | None
    nodes: int
    millis: float
    flavor: str
    # a spread search's counters: nodes by depth, children skipped by the
    # one-pass count, line-graph rows built, and per-phase ms; an ovoid
    # scan's live candidates after each member, the members applied on the
    # bitset, and per-phase ms; a spread certified through triality the
    # route's name and its scan's live counts, members on the bitset and ms
    stats: dict | None = None
    engine_version: str = ENGINE_VERSION

    @property
    def is_maximal(self) -> bool:
        return self.verdict == "maximal"

    def descriptor(self) -> dict:
        wit = None
        if isinstance(self.witness, Subspace):
            wit = {"kind": "subspace", "rows": self.witness.mat.tolist()}
        elif self.witness is not None:
            wit = {"kind": "point", "coords": np.asarray(self.witness).tolist()}
        return {
            "verdict": self.verdict,
            "witness": wit,
            "nodes": self.nodes,
            "millis": round(self.millis, 3),
            "flavor": self.flavor,
            "stats": self.stats,
            "engine_version": self.engine_version,
        }


# ---------------------------------------------------------------------------
# Predicates
# ---------------------------------------------------------------------------


def is_partial_spread(fam: SubspaceFamily, flavor: str = "plain") -> bool:
    space = fam.space
    n = space.dim // 2
    members = fam.members
    if len(set(members)) != len(members):
        return False
    if any(m.dim != n for m in members):
        return False
    if not members:
        return True
    if flavor in ("symplectic", "orthogonal"):
        bases = np.stack([m.mat for m in members])
        if not (space.ti_mask(bases) if flavor == "symplectic" else space.ts_mask(bases)).all():
            return False
    per = (space.q**n - 1) // (space.q - 1)
    keys = np.empty(len(members) * per, dtype=np.int64)
    for lo, block in _point_key_blocks(space, members):
        keys[lo * per : lo * per + block.size] = block.ravel()
    keys.sort()
    return not np.any(keys[1:] == keys[:-1])


def is_partial_ovoid(fam: PointFamily, flavor: str = "orthogonal") -> bool:
    space = fam.space
    pts = fam.points
    if flavor == "orthogonal":
        if space.qcoef is None:
            return False
        if np.any(space.vqform(pts)):
            return False
    # every point's functional B(x, .) may vanish at no other point of the
    # family: a block of functionals at a time, with x itself counted off
    # its own kernel
    n = len(pts)
    for own, off in Perp(space, pts).off_blocks(np.arange(n)):
        off[np.arange(len(own)), own // 64] |= np.uint64(1) << (own % 64).astype(np.uint64)
        if np.any(np.bitwise_count(off).sum(axis=1) != n):
            return False
    return True


def universe(space: FormedSpace, flavor: str) -> np.ndarray:
    """The canonical keys, ascending, of the points a member or an extension
    of a `flavor` family may hold: the space's cached singular keys for the
    orthogonal flavor and for a space with no Q, every point's otherwise."""
    if flavor == "orthogonal" or space.qcoef is None:
        return space.singular_keys()
    return space.point_keys()


def cover_report(fam: SubspaceFamily, flavor: str) -> CoverReport:
    space = fam.space
    keys = universe(space, flavor)
    covered = np.zeros(len(keys), dtype=bool)
    for _, block in _point_key_blocks(space, fam.members):
        mk = block.ravel()
        idx = np.minimum(np.searchsorted(keys, mk), len(keys) - 1)
        covered[idx[keys[idx] == mk]] = True
    left = keys[~covered]
    return CoverReport(
        total=len(keys),
        covered=len(keys) - len(left),
        uncovered_keys=left,
        uncovered_points=key_rows(space.fv, left, space.dim),
    )


def is_spread(fam: SubspaceFamily, flavor: str) -> bool:
    if not is_partial_spread(fam, flavor):
        return False
    return cover_report(fam, flavor).uncovered == 0


def is_ovoid(fam: PointFamily, flavor: str = "orthogonal") -> bool:
    """Partial ovoid meeting every maximal t.s./t.i. subspace (exactly once)."""
    if not is_partial_ovoid(fam, flavor):
        return False
    space = fam.space
    keys = np.sort(point_keys(space.fv, canonicalize_points(space.fv, fam.points)))
    blocks = _point_key_blocks(space, space.maximal_totally_singular())
    return all((isin_sorted(b, keys).sum(axis=1) == 1).all() for _, b in blocks)


# ---------------------------------------------------------------------------
# Maximality: ovoids (vectorized scan)
# ---------------------------------------------------------------------------


def check_maximal_ovoid(fam: PointFamily, flavor: str = "orthogonal") -> MaximalityCertificate:
    t0 = time.perf_counter()
    if not is_partial_ovoid(fam, flavor):
        raise FieldError("family is not a partial ovoid")
    space, members = fam.space, fam.points
    tc = time.perf_counter()
    keys = universe(space, flavor)
    nodes = len(keys)
    t1 = time.perf_counter()
    perp = Perp(space, vs=members, keys=keys)
    live = []  # candidates left after each member
    if space.bit_packing is not None:
        # kernel masks: the members go on one bitset over the universe while
        # over 4 candidates a word are left
        bits = pack_bits(np.ones((1, len(keys)), dtype=bool))[0]
        count = len(keys)
        while len(live) < len(members) and count > 4 * len(bits):
            bits = perp.narrow(len(live), bits)
            count = int(np.bitwise_count(bits).sum())
            live.append(count)
        keys = keys[_bit_mask(bits, len(keys))]
    sliced = len(live)
    # then one block of members at a time, in a Perp over the candidates
    # left only: those left after each member of the block are the running
    # AND of its bitsets.  No count is 0 before the last member's, as the
    # members not yet applied are candidates perpendicular to none applied.
    while len(live) < len(members):
        if perp.n != len(keys):
            perp = Perp(space, vs=members, keys=keys)
        _, off = next(perp.off_blocks(np.arange(len(live), len(members))))
        np.bitwise_and.accumulate(off, axis=0, out=off)
        live += np.bitwise_count(off).sum(axis=1).tolist()
        keys = keys[_bit_mask(off[-1], len(keys))]
    t2 = time.perf_counter()
    witness = None
    if len(keys):  # ascending: keys[0] is the first witness
        witness = key_rows(space.fv, keys[:1], space.dim)[0]
        grown = PointFamily(space, np.vstack([members, witness]), fam.provenance)
        if not is_partial_ovoid(grown, flavor):
            raise FieldError("witness failed re-verification (engine bug)")
    t3 = time.perf_counter()
    described = {
        "live": live,
        "sliced": sliced,
        "ms": {
            "check": round((tc - t0 + t3 - t2) * 1000, 3),
            "universe": round((t1 - tc) * 1000, 3),
            "scan": round((t2 - t1) * 1000, 3),
        },
    }
    verdict = "maximal" if witness is None else "extendable"
    return MaximalityCertificate(verdict, witness, nodes, (t3 - t0) * 1000, flavor, described)


def _bit_mask(bits: np.ndarray, n: int, axis: int | None = None) -> np.ndarray:
    """The bitset `bits` over n points as a boolean mask (each row of a
    matrix of bitsets, along axis 1)."""
    return np.unpackbits(bits.view(np.uint8), axis=axis, count=n, bitorder="little").view(bool)


# ---------------------------------------------------------------------------
# Maximality: spreads (backtracking over uncovered points)
# ---------------------------------------------------------------------------


def _build_search(space, flavor, pts, deadline) -> FlagSearch:
    # the line rows of singular points already imply perpendicularity
    perp = Perp(space, pts) if flavor == "symplectic" else None
    return FlagSearch(space.fv, pts, space.dim // 2, perp=perp, lines=True, deadline=deadline)


def check_maximal_spread(
    fam: SubspaceFamily,
    flavor: str = "plain",
    jobs: int = 1,
    time_budget: float | None = None,
) -> MaximalityCertificate:
    """Is there an n-space disjoint from every member: t.i. for symplectic
    flavor, t.s. for orthogonal, arbitrary for plain?  Returns a maximal
    verdict or the first witness in canonical search order.  An orthogonal
    family of t.s. 4-spaces in O+(8,q) is first answered through triality
    (module docstring): a maximal scan of the members' points is the
    certificate, and an extendable one falls through to the search, which
    finds the witness.  `jobs` and `time_budget` apply to the search."""
    space = fam.space
    if not (flavor == "orthogonal" and space.kind == "orthogonal_plus" and space.dim == 8 and fam.members):
        return _search_spread(fam, flavor, jobs, time_budget)
    t0 = time.perf_counter()
    if not is_partial_spread(fam, flavor):
        raise FieldError(f"family is not a {flavor} partial spread")
    t1 = time.perf_counter()
    pts = triality_points(space, fam.members)
    t2 = time.perf_counter()
    scan = check_maximal_ovoid(PointFamily(space, pts, fam.provenance), "orthogonal")
    if not scan.is_maximal:
        cert = _search(fam, flavor, jobs, time_budget)
        if cert.is_maximal:
            raise FieldError("the search found no extension the triality scan found (engine bug)")
        return cert
    t3 = time.perf_counter()
    described = {
        "route": "triality",
        "live": scan.stats["live"],
        "sliced": scan.stats["sliced"],
        "ms": {
            "check": round((t1 - t0) * 1000, 3),
            "points": round((t2 - t1) * 1000, 3),
            "scan": round((t3 - t2) * 1000, 3),
        },
    }
    return MaximalityCertificate("maximal", None, scan.nodes, (t3 - t0) * 1000, flavor, described)


def _search_spread(
    fam: SubspaceFamily,
    flavor: str = "plain",
    jobs: int = 1,
    time_budget: float | None = None,
) -> MaximalityCertificate:
    """The search engine alone: the partial-spread check, then `_search`,
    whose certificate takes in the check's time."""
    t0 = time.perf_counter()
    if not is_partial_spread(fam, flavor):
        raise FieldError(f"family is not a {flavor} partial spread")
    cert = _search(fam, flavor, jobs, time_budget)
    check = (time.perf_counter() - t0) * 1000 - cert.millis
    cert.millis += check
    cert.stats["ms"]["check"] = round(cert.stats["ms"]["check"] + check, 3)
    return cert


def _search(
    fam: SubspaceFamily,
    flavor: str,
    jobs: int,
    time_budget: float | None,
) -> MaximalityCertificate:
    """The first n-space disjoint from every member of a partial spread in
    canonical search order, or none; a witness is re-verified with the
    partial-spread check."""
    t0 = time.perf_counter()
    space = fam.space
    pts = cover_report(fam, flavor).uncovered_points  # ascending canonical order
    t1 = time.perf_counter()
    deadline = None if time_budget is None else time.monotonic() + time_budget
    search = _build_search(space, flavor, pts, deadline)
    if jobs > 1 and len(pts):
        witness, stats = _parallel_search(search, jobs)
    else:
        flag = next(search.flags(), None)
        witness = None if flag is None else search.subspace(flag)
        stats = search.stats()
    t2 = time.perf_counter()
    if witness is not None:
        checked = SubspaceFamily(
            space, fam.members + [witness], fam.provenance, expected_size=None
        )
        if not is_partial_spread(checked, flavor):
            raise FieldError("witness failed re-verification (engine bug)")
    t3 = time.perf_counter()
    # parallel workers build their rows beside the search's wall time
    search_s = t2 - t1 - (0.0 if jobs > 1 and len(pts) else stats.rows_s)
    described = {
        "nodes_by_depth": stats.depth_nodes.tolist(),
        "skipped": stats.skipped,
        "rows": stats.rows,
        "ms": {
            "check": round((t3 - t2) * 1000, 3),
            "cover": round((t1 - t0) * 1000, 3),
            "rows": round(stats.rows_s * 1000, 3),
            "search": round(search_s * 1000, 3),
        },
    }
    verdict = "maximal" if witness is None else "extendable"
    return MaximalityCertificate(verdict, witness, stats.nodes, (t3 - t0) * 1000, flavor, described)


def _run_range(search: FlagSearch, bounds: tuple[int, int]):
    """The first flag among first-flag points with index in [lo, hi), and
    the range's counters."""
    before = search.stats()
    flag = next(search.flags(range(*bounds)), None)
    return flag, search.stats() - before


def _worker(search: FlagSearch, conn) -> None:
    """A worker process: runs each range it is sent on its own pipe, until
    it is sent None, and sends back the result or the exception it raised."""
    for bounds in iter(conn.recv, None):
        try:
            result = _run_range(search, bounds)
        except Exception as e:  # re-raised when the parent reads the range
            result = e
        conn.send(result)


LATE_S = 1.0  # how long past its deadline a parallel run waits for a range


def _parallel_search(search: FlagSearch, jobs: int):
    """Ranges of first-flag points go to `jobs` worker processes, the next
    range to whichever worker reports first, and their results are read in
    range order, so a range is read only after every range below it.  The
    run adds up the counters of the ranges read until the first witness, or
    re-raises the first exception, and then kills the workers still on
    ranges above it.  So the witness is the lowest-ranked one and the node
    counts, the root included, equal a serial run's.  Rows built and their
    time take in the ranges read, as each worker builds its own rows.

    Each worker has a pipe of its own, so a worker killed while it sends
    holds no lock that another process waits on (a `multiprocessing.Pool`
    can hang on exit that way), and a worker that dies shows as the end of
    its pipe: the run then raises RuntimeError.  Results are polled every
    0.1 s, and LATE_S past the deadline the run raises SearchTimeout
    itself, as a worker checks the budget only between passes."""
    import multiprocessing
    from multiprocessing.connection import wait

    n = len(search.pts)
    chunk = max(1, (n + 4 * jobs - 1) // (4 * jobs))
    stats = SearchStats(np.array([1] + [0] * search.target))  # the root
    ranges = [(lo, min(n, lo + chunk)) for lo in range(0, n, chunk)]
    todo = iter(range(len(ranges)))
    held, results, workers = {}, {}, []  # held: pipe -> index of its worker's range

    def hand_out(conn):
        i = next(todo, None)
        conn.send(None if i is None else ranges[i])  # None ends the worker
        if i is not None:
            held[conn] = i

    try:
        for _ in range(min(jobs, len(ranges))):
            conn, end = multiprocessing.Pipe()
            workers.append(multiprocessing.Process(target=_worker, args=(search, end), daemon=True))
            workers[-1].start()
            end.close()
            hand_out(conn)
        for i in range(len(ranges)):
            while i not in results:
                for conn in wait(list(held), timeout=0.1):
                    try:
                        results[held.pop(conn)] = conn.recv()
                        hand_out(conn)
                    except (EOFError, OSError):  # the pipe ended with its worker
                        raise RuntimeError("a search worker died before reporting its range") from None
                if search.deadline is not None and time.monotonic() > search.deadline + LATE_S:
                    raise SearchTimeout("maximality search exceeded its budget")
            result = results.pop(i)
            if isinstance(result, Exception):
                raise result
            flag, st = result
            stats += st
            if flag is not None:
                break
    finally:
        for p in workers:
            p.kill()
        for p in workers:
            p.join()
    return (None if flag is None else search.subspace(flag)), stats


# ---------------------------------------------------------------------------
# Brute-force cross-checks
# ---------------------------------------------------------------------------


def brute_force_spread_verdict(fam: SubspaceFamily, flavor: str) -> tuple[str, Subspace | None]:
    """Maximality by full enumeration of maximal t.i./t.s. subspaces: the
    family extends iff some enumerated subspace has all points uncovered."""
    space = fam.space
    uncovered = cover_report(fam, flavor).uncovered_keys
    listed = space.maximal_totally_singular()
    # a subspace's first point is its last basis row, and many listed
    # subspaces are out there already: only the others are keyed whole
    firsts = np.array([w.mat[-1] for w in listed]).reshape(len(listed), space.dim)
    left = [listed[i] for i in np.flatnonzero(isin_sorted(point_keys(space.fv, firsts), uncovered))]
    for lo, keys in _point_key_blocks(space, left):
        # then one point at a time, over those with every point so far
        # uncovered
        hit = np.arange(len(keys))
        for col in keys.T[1:]:
            hit = hit[isin_sorted(col[hit], uncovered)]
        if len(hit):
            return "extendable", left[lo + int(hit[0])]
    return "maximal", None


def _point_key_blocks(space: FormedSpace, listed: list[Subspace]):
    """Yield (lo, keys): the point keys of listed[lo:lo + b], one row per
    subspace in `stacked_points` order, for blocks of subspaces of the same
    dimension whose keys take at most PASS_WORDS entries; made from key
    sums (`linalg.stacked_point_keys`), with no row."""
    if not listed:
        return
    q, t = space.q, listed[0].dim
    step = max(1, PASS_WORDS // ((q**t - 1) // (q - 1)))
    for lo in range(0, len(listed), step):
        yield lo, stacked_point_keys(space.fv, np.array([w.mat for w in listed[lo : lo + step]]))


# ---------------------------------------------------------------------------
# Hyperplane census (5-dimensional parabolic spaces)
# ---------------------------------------------------------------------------


@dataclass
class CensusReport:
    sizes: dict
    tangent_count: int
    type_counts: dict
    hyperplanes: int


def hyperplane_census(u_space: FormedSpace, fam: PointFamily) -> CensusReport:
    """Histogram of |H meet Omega| over all hyperplanes of a 5-dimensional
    parabolic space, with radical/Witt-type tags.  Requires Omega to be an
    ovoid of the space; asserts every hyperplane meets Omega and that the
    section sizes lie in {1, q+1, q - sqrt(2q) + 1, q + sqrt(2q) + 1}."""
    if u_space.kind != "parabolic" or u_space.dim != 5:
        raise FieldError("census expects a 5-dimensional parabolic space")
    if not is_ovoid(fam, "orthogonal"):
        raise FieldError("census input is not an ovoid of the space")
    q = u_space.q
    fv = u_space.fv
    root2q = round((2 * q) ** 0.5)
    allowed = {1, q + 1}
    if root2q * root2q == 2 * q:
        allowed |= {q - root2q + 1, q + root2q + 1}
    planes = u_space.points()
    # hyperplane x . phi = 0 meets the ovoid and the singular points in
    # their points in the kernel of x . phi; it holds the radical e_0 iff
    # phi_0 = 0
    hit_counts, sing_counts = _zero_counts(u_space, planes, [fam.points, u_space.singular_points()])
    sizes: dict[int, int] = {}
    type_counts: dict[str, int] = {}
    tangent = 0
    for hits, nsing, phi0 in zip(hit_counts.tolist(), sing_counts.tolist(), planes[:, 0].tolist()):
        if hits == 0:
            raise FieldError("a hyperplane misses the ovoid (census violation)")
        if hits not in allowed:
            raise FieldError(f"unexpected section size {hits}")
        sizes[hits] = sizes.get(hits, 0) + 1
        if phi0 == 0:
            tag = "tangent" if hits == 1 else "secant"
        else:
            tag = "minus" if nsing == q**2 + 1 else "plus"
        type_counts[tag] = type_counts.get(tag, 0) + 1
        if hits == 1:
            tangent += 1
    return CensusReport(sizes, tangent, type_counts, len(planes))


def _zero_counts(
    space: FormedSpace, planes: np.ndarray, point_sets: list[np.ndarray]
) -> list[np.ndarray]:
    """For each point set and each row phi of planes, the number of rows x
    of the set with x . phi = 0.  x . phi is B(x, phi) for the Gram matrix
    I, so the test runs in a space with that form.  The space's own B would
    not do: for even q the parabolic form is degenerate, and its
    hyperplanes are not all of the form B(., v)."""
    dot = FormedSpace(space.fv, space.dim, "dot", np.eye(space.dim, dtype=np.int64))
    return [_kernel_counts(Perp(dot, pts, planes)) for pts in point_sets]


def _kernel_counts(perp: Perp) -> np.ndarray:
    """For each vector v of perp.vs, the points of perp.pts in the kernel of
    B(., v): all of them less those its row of `off_blocks` marks."""
    counts = np.empty(perp.m, dtype=np.int64)
    for ks, off in perp.off_blocks(np.arange(perp.m)):
        counts[ks] = perp.n - np.bitwise_count(off).sum(axis=1)
    return counts


# ---------------------------------------------------------------------------
# Fingerprints
# ---------------------------------------------------------------------------


def fingerprint(fam, seed: int = 0, sample: int = 64, enum_cap: int = 200_000) -> tuple:
    """Cheap equivalence-distinguishing invariant: for point families the
    sorted multiset of |p-perp meet Omega| over singular points p outside the
    family; for spread families the sorted multiset of intersection
    dimensions against maximal t.s. subspaces (all if enumerable under the
    cap, else a seeded pseudorandom sample)."""
    import random

    if isinstance(fam, PointFamily):
        space = fam.space
        keys = universe(space, "orthogonal")
        fam_keys = np.sort(point_keys(space.fv, canonicalize_points(space.fv, fam.points)))
        inside = isin_sorted(keys, fam_keys)
        # B is reflexive: a universe point is perpendicular to the members
        # whose rows over the universe leave its bit clear
        counts = np.full(len(keys), len(fam.points), dtype=np.int64)
        for _, off in Perp(space, vs=fam.points, keys=keys).off_blocks(np.arange(len(fam.points))):
            counts -= _bit_mask(off, len(keys), axis=1).sum(axis=0)
        return tuple(sorted(counts[~inside].tolist()))
    space = fam.space
    expected = _maximal_ts_count(space)
    if expected is not None and expected <= enum_cap:
        todo = space.maximal_totally_singular()
    else:
        rng = random.Random(seed)
        todo = [_random_maximal_ts(space, rng) for _ in range(sample)]
    out = []
    for w in todo:
        for m in fam.members:
            out.append(w.intersect(m).dim)
    return tuple(sorted(out))


def _maximal_ts_count(space: FormedSpace) -> int | None:
    q = space.q
    if space.kind == "orthogonal_plus":
        n = space.dim // 2
        c = 2
        for i in range(1, n):
            c *= q**i + 1
        return c
    if space.kind == "symplectic":
        n = space.dim // 2
        c = 1
        for i in range(1, n + 1):
            c *= q**i + 1
        return c
    if space.kind == "parabolic":
        m = (space.dim - 1) // 2
        c = 1
        for i in range(1, m + 1):
            c *= q**i + 1
        return c
    return None


def _random_maximal_ts(space: FormedSpace, rng) -> Subspace:
    pts = space.singular_points()
    target = space.witt_index
    while True:
        flag = [pts[rng.randrange(len(pts))]]
        sub = canonicalize(space.fv, np.array(flag), space.dim)
        while sub.dim < target:
            perp = space.perp(sub)
            ppts = perp.points()
            cand = ppts[space.vqform(ppts) == 0] if space.qcoef is not None else ppts
            keep = ~np.array([sub.contains(c) for c in cand])
            cand = cand[keep]
            if len(cand) == 0:
                break
            flag.append(cand[rng.randrange(len(cand))])
            sub = canonicalize(space.fv, np.array(flag), space.dim)
        if sub.dim == target:
            return sub
