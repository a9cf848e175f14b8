"""Verification engine: partial-spread/ovoid predicates, cover analysis,
exhaustive maximality search with uncovered-point pruning, completeness
checks, hyperplane census, and fingerprints.

The partial-spread predicate needs no pairwise rank test.  Two members meet
nontrivially iff they share a projective point, and every point has one
canonical key, so the members are pairwise disjoint iff the point keys of
all members are pairwise distinct: one sort over the union.  It works on
stacks of member bases: one t.i./t.s. mask over all bases, then blocks of
members whose points take about PASS_WORDS entries, each made and keyed in
one pass and written into one key array, which is sorted in place.  The
cover report walks the same blocks.

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

An ovoid is certified maximal by a scan: a candidate point extends the
family iff it is perpendicular to no member.  The live candidates, in
ascending canonical order, are narrowed once per member by `spaces.Perp`,
on the keys the space keeps for its singular points, so the first one left
is the first witness in canonical order.  For p = 2 the scan reads only
keys, and the witness alone is unpacked into a row.  It starts on one
bitset over all candidates: the kernel test of a member is GF(2)-linear in
the key bits, so for every candidate at once it is e XOR-reductions of the
keys' bit planes (`Perp.narrow`).  The space caches the planes beside its
singular keys; they take nbits/64 of the keys' memory (0.8 MB for the
300,105 points of O+(8,8)).  Once no more than 4 candidates per bitset
word are left, the scan goes on with their indices, narrowed by kernel
masks against their keys (`Perp.to`), as a bitset pass would then cost
more than the few keys it tests.  Odd p tests on rows unpacked from the
keys.  Like a spread witness, the witness is re-checked by the
partial-ovoid predicate before it is returned.  The cover report likewise
unpacks only the uncovered keys into rows.  The
hyperplane census counts the zeros of x . phi for blocks of hyperplanes phi
at once: for p = 2 on the bit planes of the points' keys, as the scan
does, otherwise as a field product hyperplanes x points.
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
    mat_mul,
    point_keys,
    stacked_points,
)
from .spaces import (
    PASS_WORDS,
    FlagSearch,
    FormedSpace,
    Perp,
    SearchStats,
    SearchTimeout,
    key_planes,
    pack_bits,
)

ENGINE_VERSION = "2"


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
    # bitset, and per-phase ms
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
    return not any(block.any() for _, block in Perp(space, pts).blocks(upper=True))


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
    space = fam.space
    tc = time.perf_counter()
    keys = universe(space, flavor)
    planes = _universe_planes(space, flavor, keys)
    t1 = time.perf_counter()
    perp = _universe_perp(space, keys, fam.points, planes)
    live = []  # candidates left after each member, up to the first 0
    if planes is None:
        alive = np.arange(len(keys))  # ascending: alive[0] is the first witness
    else:
        # the members go on one bitset while over 4 candidates a word are left
        bits = pack_bits(np.ones((1, len(keys)), dtype=bool))[0]
        count = len(keys)
        while len(live) < len(fam.points) and count > 4 * len(bits):
            bits = perp.narrow(len(live), bits)
            count = int(np.bitwise_count(bits).sum())
            live.append(count)
        alive = np.flatnonzero(np.unpackbits(bits.view(np.uint8), count=len(keys), bitorder="little"))
    sliced = len(live)
    for k in range(sliced, len(fam.points)):
        if len(alive) == 0:
            break
        alive = alive[~perp.to(k, alive)]
        live.append(len(alive))
    t2 = time.perf_counter()
    witness = None
    if len(alive):
        witness = key_rows(space.fv, keys[alive[:1]], space.dim)[0]
        grown = PointFamily(space, np.vstack([fam.points, witness]), fam.provenance)
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
    return MaximalityCertificate(verdict, witness, len(keys), (t3 - t0) * 1000, flavor, described)


def _universe_planes(space: FormedSpace, flavor: str, keys: np.ndarray) -> np.ndarray | None:
    """The bit planes of the universe's keys, or None when the space has no
    `bit_packing`: the space's cached `singular_planes()` when the universe
    is its singular keys."""
    if space.bit_packing is None:
        return None
    if flavor == "orthogonal" or space.qcoef is None:
        return space.singular_planes()
    return key_planes(keys)


def _universe_perp(space: FormedSpace, keys: np.ndarray, vs: np.ndarray, planes=None) -> Perp:
    """A `Perp` of the universe's points, given by their keys (and their
    bit planes, if given), against `vs`: on the keys alone when the space
    has a `bit_packing`, else on the rows unpacked from them (odd p)."""
    rows = None if space.bit_packing is not None else key_rows(space.fv, keys, space.dim)
    return Perp(space, rows, vs, keys, planes)


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
    """Search for an n-space disjoint from every member: t.i. for symplectic
    flavor, t.s. for orthogonal, arbitrary for plain.  Returns a maximal
    verdict or the first witness in canonical search order."""
    t0 = time.perf_counter()
    if not is_partial_spread(fam, flavor):
        raise FieldError(f"family is not a {flavor} partial spread")
    space = fam.space
    tc = time.perf_counter()
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
            "check": round((tc - t0 + t3 - t2) * 1000, 3),
            "cover": round((t1 - tc) * 1000, 3),
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
    for lo, keys in _point_key_blocks(space, listed):
        hit = np.flatnonzero(isin_sorted(keys, uncovered).all(axis=1))
        if len(hit):
            return "extendable", listed[lo + int(hit[0])]
    return "maximal", None


def _point_key_blocks(space: FormedSpace, listed: list[Subspace]):
    """Yield (lo, keys): the point keys of listed[lo:lo + b], one row per
    subspace, for blocks of subspaces of the same dimension whose points
    take at most PASS_WORDS entries."""
    if not listed:
        return
    q, t = space.q, listed[0].dim
    step = max(1, PASS_WORDS // ((q**t - 1) // (q - 1) * space.dim))
    for lo in range(0, len(listed), step):
        block = np.stack([w.mat for w in listed[lo : lo + step]])
        pts = stacked_points(space.fv, block).reshape(-1, space.dim)
        yield lo, point_keys(space.fv, pts).reshape(len(block), -1)


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
    # hyperplane x . phi = 0 meets the ovoid and the singular points in the
    # zeros of one blocked product planes x points; it holds the radical e_0
    # iff phi_0 = 0
    hit_counts = _zero_counts(u_space, planes, fam.points)
    sing_counts = _zero_counts(u_space, planes, u_space.singular_points())
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


# int64 entries of a census block's temporaries: 125 KB, under malloc's
# default 128 KiB mmap threshold, so the blocks reuse heap memory.  Blocks
# of PERP_BLOCK entries (512 KiB) could each be mapped afresh: the q = 8
# census then took 67,000 page faults and 0.25 s instead of 0.07 s.
CENSUS_BLOCK = 16_000


def _zero_counts(space: FormedSpace, planes: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """For each row phi of planes, the number of rows x of pts with
    x . phi = 0, over row blocks of planes whose temporaries take at most
    CENSUS_BLOCK entries.  With a `bit_packing`, x . phi = 0 iff every
    parity of key(x) & mask_j is even (`KeyPacking.kernel_masks`), and
    parity j of every point at once is the XOR of the key bit planes of
    mask_j's bits, made for a block of phi one key bit at a time.
    Otherwise each block is one field product."""
    bits = space.bit_packing
    if bits is None:
        step = max(1, CENSUS_BLOCK // max(1, len(pts)))
        return np.concatenate(
            [
                (mat_mul(space.fv, planes[lo : lo + step], pts.T) == 0).sum(axis=1)
                for lo in range(0, len(planes), step)
            ]
        )
    key_bits = key_planes(bits.pack(pts))
    step = max(1, CENSUS_BLOCK // max(1, key_bits.shape[1]))
    out = []
    for lo in range(0, len(planes), step):
        masks = bits.kernel_masks(planes[lo : lo + step])
        off = np.zeros((len(masks), key_bits.shape[1]), dtype=np.uint64)  # x . phi != 0
        for mask in masks.T:
            parity = np.zeros_like(off)
            for b, plane in enumerate(key_bits):
                parity ^= plane * (mask[:, None] >> b & 1).astype(np.uint64)
            off |= parity
        out.append(len(pts) - np.bitwise_count(off).sum(axis=1))
    return np.concatenate(out)


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
        counts = np.zeros(len(keys), dtype=np.int64)
        fam_keys = np.sort(point_keys(space.fv, canonicalize_points(space.fv, fam.points)))
        inside = isin_sorted(keys, fam_keys)
        perp = _universe_perp(space, keys, fam.points)
        for k in range(len(fam.points)):
            counts += perp.to(k)
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
