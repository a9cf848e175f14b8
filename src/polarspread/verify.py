"""Verification engine: partial-spread/ovoid predicates, cover analysis,
exhaustive maximality search with uncovered-point pruning, completeness
checks, hyperplane census, and fingerprints.

The partial-spread predicate needs no pairwise rank test.  Two members meet
nontrivially iff they share a projective point, and every point has one
canonical key, so the members are pairwise disjoint iff the concatenated
point keys of all members are pairwise distinct: one sort over the union.

The maximality search rests on one exact reduction: a subspace extends a
partial spread iff every one of its points is uncovered (lies in no member).
The engine runs the package's one canonical-augmentation DFS,
`spaces.FlagSearch`, over the uncovered admissible points: it accepts an
extension p only when the whole coset p + span is uncovered and p is the
minimum of that coset (so each candidate subspace is visited once), and it
cuts a node whose candidates are fewer than the points a completion would
still need.  Candidates are bitsets narrowed by the rows of a
line-compatibility graph (`spaces.LineGraph`).  Serial and parallel runs
return the same verdict, witness and node counts: parallel workers own
disjoint ranges of first-flag points, the merge keeps the witness from the
lowest-ranked branch, and only the ranges at or below it are counted.

An ovoid is certified maximal by a scan: a candidate point extends the
family iff it is perpendicular to no member.  An ascending index array of
live candidates is narrowed once per member by `spaces.Perp`, so the first
index left is the first witness in canonical order; like a spread witness,
it is re-checked by the partial-ovoid predicate before it is returned.  The
hyperplane census counts the zeros of x . phi for all hyperplanes phi at
once, as a blocked field product hyperplanes x points.
"""

from __future__ import annotations

import multiprocessing
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass

import numpy as np

from .families import PointFamily, SubspaceFamily
from .gf import FieldError
from .linalg import (
    Subspace,
    canonicalize,
    canonicalize_points,
    isin_sorted,
    mat_mul,
    point_keys,
    stacked_points,
)
from .spaces import (
    PASS_WORDS,
    PERP_BLOCK,
    FlagSearch,
    FormedSpace,
    Perp,
    SearchStats,
    SearchStopped,
    SearchTimeout,
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
    # one-pass count, line-graph rows built, and per-phase ms
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
    for m in members:
        if m.dim != n:
            return False
        if flavor == "symplectic" and not space.is_ti(m):
            return False
        if flavor == "orthogonal" and not space.is_ts(m):
            return False
    if not members:
        return True
    # pairwise trivial intersection iff no projective point is repeated
    keys = np.sort(np.concatenate([point_keys(space.fv, m.points()) for m in members]))
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


def universe_points(space: FormedSpace, flavor: str) -> np.ndarray:
    """The points a member or an extension of a `flavor` family may hold:
    the singular points for the orthogonal flavor, every point otherwise."""
    return space.singular_points() if flavor == "orthogonal" else space.points()


def cover_report(fam: SubspaceFamily, flavor: str) -> CoverReport:
    space = fam.space
    fv = space.fv
    pts = universe_points(space, flavor)
    keys = point_keys(fv, pts)
    order = np.argsort(keys)
    skeys = keys[order]
    covered = np.zeros(len(skeys), dtype=bool)
    for m in fam.members:
        mk = point_keys(fv, m.points())
        idx = np.searchsorted(skeys, mk)
        hit = (idx < len(skeys)) & (skeys[np.minimum(idx, len(skeys) - 1)] == mk)
        covered[idx[hit]] = True
    return CoverReport(
        total=len(skeys),
        covered=int(covered.sum()),
        uncovered_keys=skeys[~covered],
        uncovered_points=pts[order[~covered]],
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
    cands = universe_points(space, flavor)
    alive = np.arange(len(cands))  # ascending: alive[0] is the first witness
    perp = Perp(space, cands, fam.points)
    for k in range(len(fam.points)):
        if len(alive) == 0:
            break
        alive = alive[~perp.to(k, alive)]
    nodes = len(cands)
    ms = (time.perf_counter() - t0) * 1000
    if len(alive):
        witness = cands[alive[0]]
        grown = PointFamily(space, np.vstack([fam.points, witness]), fam.provenance)
        if not is_partial_ovoid(grown, flavor):
            raise FieldError("witness failed re-verification (engine bug)")
        return MaximalityCertificate("extendable", witness, nodes, ms, flavor)
    return MaximalityCertificate("maximal", None, nodes, ms, flavor)


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
    ms = (t2 - t0) * 1000
    # parallel workers build their rows beside the search's wall time
    search_s = t2 - t1 - (0.0 if jobs > 1 and len(pts) else stats.rows_s)
    described = {
        "nodes_by_depth": stats.depth_nodes.tolist(),
        "skipped": stats.skipped,
        "rows": stats.rows,
        "discarded": stats.discarded,
        "ms": {
            "cover": round((t1 - tc) * 1000, 3),
            "rows": round(stats.rows_s * 1000, 3),
            "search": round(search_s * 1000, 3),
        },
    }
    if witness is not None:
        checked = SubspaceFamily(
            space, fam.members + [witness], fam.provenance, expected_size=None
        )
        if not is_partial_spread(checked, flavor):
            raise FieldError("witness failed re-verification (engine bug)")
        return MaximalityCertificate("extendable", witness, stats.nodes, ms, flavor, described)
    return MaximalityCertificate("maximal", None, stats.nodes, ms, flavor, described)


def _branch_range(search: FlagSearch, lo: int, hi: int, best=None) -> list[int] | None:
    """The first flag found among first-flag points with index in [lo, hi).
    A shared `best` below lo (a lower range holds a witness) ends the range
    at its next pass, inside a subtree too, since its outcome can no longer
    matter."""
    if best is not None:
        search.stop = lambda: best.value < lo
    try:
        return next(search.flags(range(lo, hi)), None)
    except SearchStopped:
        return None


_WORKER_STATE: dict = {}


def _worker_init(search, best):
    _WORKER_STATE["search"] = search
    _WORKER_STATE["best"] = best


def _worker_run(lo: int, hi: int):
    search: FlagSearch = _WORKER_STATE["search"]
    before = search.stats()  # a worker process runs several ranges
    try:
        flag = _branch_range(search, lo, hi, _WORKER_STATE["best"])
    except SearchTimeout:
        return "timeout", None, search.stats() - before
    return "done", flag, search.stats() - before


def _parallel_search(search: FlagSearch, jobs: int):
    """Ranges of first-flag points are queued in order.  A witness in one
    range lowers the shared `best`, and every range above it stops at its
    next pass; the run waits only for the ranges below, so the
    lowest-ranked witness wins as in a serial run.  A timeout below `best`
    ends the run and cancels the ranges still queued.  The node counts take
    in the root and the ranges at or below the winning one, which ran to
    the end or to the witness, so they equal a serial run's; the nodes of
    the ranges above it are counted as `discarded`.  Rows built and their
    time take in every range that ran, as each worker builds its own rows."""
    n = len(search.pts)
    chunk = max(1, (n + 4 * jobs - 1) // (4 * jobs))
    best = multiprocessing.RawValue("q", n)  # written by this process only
    best_flag, ranges = None, {}
    ex = ProcessPoolExecutor(jobs, initializer=_worker_init, initargs=(search, best))
    try:
        pending = {ex.submit(_worker_run, lo, min(n, lo + chunk)): lo for lo in range(0, n, chunk)}
        while any(lo < best.value for lo in pending.values()):
            done, _ = wait(pending, return_when=FIRST_COMPLETED)
            for fut in done:
                lo = pending.pop(fut)
                status, flag, ranges[lo] = fut.result()
                if lo > best.value:
                    continue
                if status == "timeout":
                    raise SearchTimeout("a worker exceeded the search budget")
                if flag is not None:
                    best.value, best_flag = lo, flag
    finally:
        ex.shutdown(cancel_futures=True)
    for fut, lo in pending.items():
        if not fut.cancelled():
            ranges[lo] = fut.result()[2]
    stats = SearchStats(np.array([1] + [0] * search.target))  # the root
    for lo, st in ranges.items():
        if lo <= best.value:
            stats += st
        else:  # a range above the witness: its nodes are discarded, its rows were built
            stats.rows, stats.rows_s = stats.rows + st.rows, stats.rows_s + st.rows_s
            stats.discarded += st.nodes
    return (None if best_flag is None else search.subspace(best_flag)), stats


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


def all_subspaces_of_dim(fv, dim: int, k: int, block: int = 1 << 14):
    """All k-subspaces of fv^dim as RREF matrices, yielded in blocks
    (cell-by-cell over pivot-column patterns).  Small q only."""
    from itertools import combinations

    elems = fv.elements()
    q = len(elems)
    for pivots in combinations(range(dim), k):
        free = []
        for i, pc in enumerate(pivots):
            for col in range(pc + 1, dim):
                if col not in pivots:
                    free.append((i, col))
        nfree = len(free)
        total = q**nfree
        for start in range(0, total, block):
            stop = min(total, start + block)
            idx = np.arange(start, stop, dtype=np.int64)
            mats = np.zeros((stop - start, k, dim), dtype=np.int64)
            for i, pc in enumerate(pivots):
                mats[:, i, pc] = 1
            for t, (i, col) in enumerate(free):
                mats[:, i, col] = elems[(idx // q ** (nfree - 1 - t)) % q]
            yield mats


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
    hit_counts = _zero_counts(fv, planes, fam.points)
    sing_counts = _zero_counts(fv, planes, u_space.singular_points())
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


def _zero_counts(fv, planes: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """For each row phi of planes, the number of rows x of pts with x . phi = 0,
    from a field product in row blocks of at most PERP_BLOCK entries."""
    step = max(1, PERP_BLOCK // max(1, len(pts)))
    return np.concatenate(
        [
            (mat_mul(fv, planes[lo : lo + step], pts.T) == 0).sum(axis=1)
            for lo in range(0, len(planes), step)
        ]
    )


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
        sing = space.singular_points()
        counts = np.zeros(len(sing), dtype=np.int64)
        fam_keys = np.sort(point_keys(space.fv, fam.points))
        keys = point_keys(space.fv, sing)
        inside = isin_sorted(keys, fam_keys)
        perp = Perp(space, sing, fam.points)
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
