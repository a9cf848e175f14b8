"""Verification engine: partial-spread/ovoid predicates, cover analysis,
exhaustive maximality search with uncovered-point pruning, completeness
checks, size formulas, hyperplane census, and fingerprints.

The partial-spread predicate needs no pairwise rank test.  Two members meet
nontrivially iff they share a projective point, and every point has one
canonical key, so the members are pairwise disjoint iff the concatenated
point keys of all members are pairwise distinct: one sort over the union.

The maximality search rests on one exact reduction: a subspace extends a
partial spread iff every one of its points is uncovered (lies in no member).
The engine grows a flag from uncovered admissible points, accepting an
extension p only when the whole coset p + span is uncovered and p is the
minimum of that coset (so each candidate subspace is visited once), and
prunes a branch when span + remaining candidates cannot reach the target
dimension.  That rank prune is a forward elimination that stops as soon as
the target rank is reached, so it never builds a full echelon form.  Serial
and parallel runs return the same verdict and witness: parallel workers own
disjoint ranges of first-flag points and the merge keeps the witness from
the lowest-ranked branch.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .families import PointFamily, SubspaceFamily
from .gf import FieldError
from .linalg import (
    key_weights,
    Subspace,
    canonicalize,
    point_keys,
    rank_reaches,
)
from .spaces import FormedSpace, OutOfDeskScale

ENGINE_VERSION = "1"
DEFAULT_TEST_GUARD = 2_000_000_000


class SearchTimeout(RuntimeError):
    """The maximality search exceeded its time budget."""


@dataclass
class CoverReport:
    mode: str
    total: int
    covered: int
    uncovered_keys: np.ndarray
    fv: object = None
    dim: int = 0

    @property
    def uncovered(self) -> int:
        return self.total - self.covered

    def uncovered_points(self) -> np.ndarray:
        """Decode the uncovered canonical keys back to coordinate rows."""
        width = int(self.fv.elements()[-1]).bit_length()
        rows = np.zeros((len(self.uncovered_keys), self.dim), dtype=np.int64)
        mask = (1 << width) - 1
        for c in range(self.dim):
            rows[:, self.dim - 1 - c] = (self.uncovered_keys >> (width * c)) & mask
        return rows


@dataclass
class MaximalityCertificate:
    verdict: str  # "maximal" | "extendable"
    witness: object | None
    nodes: int
    millis: float
    flavor: str
    engine_version: str = ENGINE_VERSION
    seed: int | None = None  # searches are seed-free; kept for the record

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
            "engine_version": self.engine_version,
            "seed": self.seed,
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
    for i in range(len(pts) - 1):
        vals = space.vbform(pts[i + 1 :], pts[i])
        if np.any(vals == 0):
            return False
    return True


def universe_points(space: FormedSpace, mode: str) -> np.ndarray:
    from .linalg import all_points

    if mode == "singular":
        return space.singular_points()
    pts = all_points(space.fv, space.dim)
    if mode == "any_point":
        return pts
    if mode == "isotropic":
        keep = np.array([space.bform(p, p) == 0 for p in pts])
        return pts[keep]
    raise ValueError(f"unknown mode {mode}")


def cover_report(fam: SubspaceFamily, mode: str = "singular") -> CoverReport:
    space = fam.space
    fv = space.fv
    pts = universe_points(space, mode)
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
        mode=mode,
        total=len(skeys),
        covered=int(covered.sum()),
        uncovered_keys=skeys[~covered],
        fv=fv,
        dim=space.dim,
    )


def is_spread(fam: SubspaceFamily, flavor: str) -> bool:
    if not is_partial_spread(fam, flavor):
        return False
    mode = "singular" if flavor == "orthogonal" else "any_point"
    return cover_report(fam, mode).uncovered == 0


def is_ovoid(fam: PointFamily, flavor: str = "orthogonal") -> bool:
    """Partial ovoid meeting every maximal t.s./t.i. subspace (exactly once)."""
    if not is_partial_ovoid(fam, flavor):
        return False
    space = fam.space
    from .linalg import reduce_rows

    for w in space.maximal_totally_singular():
        inside = reduce_rows(space.fv, w.mat, fam.points)
        if inside.sum() != 1:
            return False
    return True


# ---------------------------------------------------------------------------
# Maximality: ovoids (vectorized scan)
# ---------------------------------------------------------------------------


def check_maximal_ovoid(
    fam: PointFamily,
    flavor: str = "orthogonal",
    guard: int = DEFAULT_TEST_GUARD,
) -> MaximalityCertificate:
    t0 = time.perf_counter()
    if not is_partial_ovoid(fam, flavor):
        raise FieldError("family is not a partial ovoid")
    space = fam.space
    if flavor == "orthogonal":
        count = space.singular_count()
    else:
        count = space.point_count()
    if count * max(1, len(fam)) > guard:
        raise OutOfDeskScale(
            f"{count} candidate points x {len(fam)} members exceeds the guard"
        )
    cands = universe_points(space, "singular" if flavor == "orthogonal" else "any_point")
    alive = np.ones(len(cands), dtype=bool)
    for p in fam.points:
        idx = np.nonzero(alive)[0]
        if len(idx) == 0:
            break
        vals = space.vbform(cands[idx], p)
        alive[idx[vals == 0]] = False
    nodes = len(cands)
    ms = (time.perf_counter() - t0) * 1000
    hit = np.nonzero(alive)[0]
    if len(hit):
        return MaximalityCertificate("extendable", cands[hit[0]], nodes, ms, flavor)
    return MaximalityCertificate("maximal", None, nodes, ms, flavor)


# ---------------------------------------------------------------------------
# Maximality: spreads (backtracking over uncovered points)
# ---------------------------------------------------------------------------


def _isin_sorted(keys: np.ndarray, sorted_arr: np.ndarray) -> np.ndarray:
    if len(sorted_arr) == 0:
        return np.zeros(np.shape(keys), dtype=bool)
    idx = np.minimum(np.searchsorted(sorted_arr, keys), len(sorted_arr) - 1)
    return sorted_arr[idx] == keys


@dataclass
class _SearchState:
    space: FormedSpace
    target: int
    uncovered_vec_sorted: np.ndarray  # vector keys of all uncovered-point multiples
    pts: np.ndarray  # uncovered admissible points, ascending key
    keys: np.ndarray
    skeys: np.ndarray | None  # scaling keys (char 2 key path) or None
    adj: np.ndarray | None  # perp adjacency when small enough
    use_form: bool
    deadline: float | None
    rank_prune_cap: int = 512
    nodes: int = 0

    def spans_target(self, flag_idx: list[int], cand_idx: np.ndarray) -> bool:
        stacked = self.pts[np.concatenate([np.asarray(flag_idx, dtype=np.int64), cand_idx])]
        return rank_reaches(self.space.fv, stacked, self.target)

    def rest_after(self, i: int, rest: np.ndarray) -> np.ndarray:
        if len(rest) == 0:
            return rest
        if not self.use_form:
            return rest
        if self.adj is not None:
            return rest[self.adj[i, rest]]
        return rest[self.space.vbform(self.pts[rest], self.pts[i]) == 0]


def _search_char2(state: _SearchState, flag_idx, span_keys, cand_idx) -> Subspace | None:
    """DFS over XOR-closed span key sets (characteristic 2)."""
    space = state.space
    state.nodes += 1
    if state.deadline is not None and time.monotonic() > state.deadline:
        raise SearchTimeout("maximality search exceeded its budget")
    depth = len(flag_idx)
    if depth == state.target:
        return canonicalize(space.fv, state.pts[flag_idx], space.dim)
    need = state.target - depth
    if len(cand_idx) < need:
        return None
    if len(cand_idx) <= state.rank_prune_cap:
        if not state.spans_target(flag_idx, cand_idx):
            return None
    allk = state.skeys[cand_idx][:, :, None] ^ span_keys[None, None, :]
    flatk = allk.reshape(len(cand_idx), -1)
    ok = _isin_sorted(flatk.ravel(), state.uncovered_vec_sorted).reshape(flatk.shape)
    eligible = ok.all(axis=1) & (flatk.min(axis=1) == state.keys[cand_idx])
    for pos in np.nonzero(eligible)[0]:
        i = int(cand_idx[pos])
        new_span = np.concatenate(
            [span_keys, (state.skeys[i][:, None] ^ span_keys[None, :]).ravel()]
        )
        rest = state.rest_after(i, cand_idx[pos + 1 :])
        hit = _search_char2(state, flag_idx + [i], new_span, rest)
        if hit is not None:
            return hit
    return None


def _search_generic(state: _SearchState, flag_idx, span_vecs, cand_idx) -> Subspace | None:
    space = state.space
    fv = space.fv
    tw = fv.tower
    state.nodes += 1
    if state.deadline is not None and time.monotonic() > state.deadline:
        raise SearchTimeout("maximality search exceeded its budget")
    depth = len(flag_idx)
    if depth == state.target:
        return canonicalize(fv, state.pts[flag_idx], space.dim)
    need = state.target - depth
    if len(cand_idx) < need:
        return None
    if len(cand_idx) <= state.rank_prune_cap:
        if not state.spans_target(flag_idx, cand_idx):
            return None
    cands = state.pts[cand_idx]
    s = len(span_vecs)
    weights = key_weights(space.fv, space.dim)
    chunk = max(1, 4_000_000 // max(1, s * space.dim))
    eligible = np.zeros(len(cand_idx), dtype=bool)
    for start in range(0, len(cand_idx), chunk):
        stop = min(len(cand_idx), start + chunk)
        block = cands[start:stop]
        # the lambda=1 coset slice p + span hits every new point exactly once;
        # canonicalizing it yields the canonical keys of the whole coset
        canon = tw.vadd(block[:, None, :], span_vecs[None, :, :]).reshape(-1, space.dim)
        lead = np.argmax(canon != 0, axis=1)
        vals = canon[np.arange(len(canon)), lead]
        scale = tw.vinv(np.where(vals == 0, 1, vals))
        canon = tw.vmul(canon, scale[:, None])
        ck = (canon @ weights).reshape(stop - start, s)
        ok = _isin_sorted(ck.ravel(), state.uncovered_vec_sorted).reshape(stop - start, s)
        eligible[start:stop] = ok.all(axis=1) & (ck.min(axis=1) == state.keys[cand_idx][start:stop])
    for pos in np.nonzero(eligible)[0]:
        i = int(cand_idx[pos])
        p = state.pts[i]
        scaled = tw.vmul(fv.elements()[:, None, None], p[None, None, :])
        new_span = tw.vadd(span_vecs[None, :, :], scaled).reshape(-1, space.dim)
        rest = state.rest_after(i, cand_idx[pos + 1 :])
        hit = _search_generic(state, flag_idx + [i], new_span, rest)
        if hit is not None:
            return hit
    return None


def _prepare_spread_search(fam: SubspaceFamily, flavor: str, guard: int):
    space = fam.space
    fv = space.fv
    if flavor == "orthogonal":
        total = space.singular_count()
        mode = "singular"
    else:
        total = space.point_count()
        mode = "any_point"
    if total * max(1, len(fam)) > guard:
        raise OutOfDeskScale(
            f"{total} universe points x {len(fam)} members exceeds the guard"
        )
    report = cover_report(fam, mode)
    uncovered = report.uncovered_keys  # sorted canonical keys
    pts = universe_points(space, mode)
    keys = point_keys(fv, pts)
    order = np.argsort(keys, kind="stable")
    pts = pts[order]
    keys = keys[order]
    mask = _isin_sorted(keys, uncovered)
    return pts[mask], keys[mask]


def _build_state(space, flavor, pts, keys, deadline) -> _SearchState:
    from .spaces import perp_adjacency, scaling_keys

    char2 = space.fv.char == 2
    if char2:
        skeys = scaling_keys(space, pts) if len(pts) else np.zeros((0, 1), dtype=np.int64)
        vec_keys = np.sort(skeys.ravel()) if len(pts) else np.zeros(0, dtype=np.int64)
    else:
        skeys = None
        vec_keys = keys  # canonical keys suffice for the generic path
    adj = perp_adjacency(space, pts) if 0 < len(pts) <= 4096 else None
    return _SearchState(
        space=space,
        target=space.dim // 2,
        uncovered_vec_sorted=vec_keys,
        pts=pts,
        keys=keys,
        skeys=skeys,
        adj=adj,
        use_form=flavor in ("symplectic", "orthogonal"),
        deadline=deadline,
    )


def _run_search(state: _SearchState, cand_idx: np.ndarray) -> Subspace | None:
    if state.space.fv.char == 2:
        return _search_char2(state, [], np.zeros(1, dtype=np.int64), cand_idx)
    zero = np.zeros((1, state.space.dim), dtype=np.int64)
    return _search_generic(state, [], zero, cand_idx)


def check_maximal_spread(
    fam: SubspaceFamily,
    flavor: str = "plain",
    jobs: int = 1,
    time_budget: float | None = None,
    guard: int = DEFAULT_TEST_GUARD,
) -> MaximalityCertificate:
    """Search for an n-space disjoint from every member: t.i. for symplectic
    flavor, t.s. for orthogonal, arbitrary for plain.  Returns a maximal
    verdict or the first witness in canonical search order."""
    t0 = time.perf_counter()
    if not is_partial_spread(fam, flavor):
        raise FieldError(f"family is not a {flavor} partial spread")
    space = fam.space
    pts, keys = _prepare_spread_search(fam, flavor, guard)
    deadline = None if time_budget is None else time.monotonic() + time_budget
    state = _build_state(space, flavor, pts, keys, deadline)
    if jobs > 1 and len(pts):
        witness, nodes = _parallel_search(state, jobs, time_budget)
    else:
        witness = _run_search(state, np.arange(len(pts)))
        nodes = state.nodes
    ms = (time.perf_counter() - t0) * 1000
    if witness is not None:
        checked = SubspaceFamily(
            space, fam.members + [witness], fam.provenance, expected_size=None
        )
        if not is_partial_spread(checked, flavor):
            raise FieldError("witness failed re-verification (engine bug)")
        return MaximalityCertificate("extendable", witness, nodes, ms, flavor)
    return MaximalityCertificate("maximal", None, nodes, ms, flavor)


def _branch_range(state: _SearchState, lo: int, hi: int) -> Subspace | None:
    """Run the search restricted to first-flag points with index in [lo, hi)."""
    space = state.space
    tw = space.fv.tower
    char2 = space.fv.char == 2
    for pos in range(lo, hi):
        rest = state.rest_after(pos, np.arange(pos + 1, len(state.pts)))
        if char2:
            span = np.concatenate([np.zeros(1, dtype=np.int64), state.skeys[pos]])
            hit = _search_char2(state, [pos], span, rest)
        else:
            p = state.pts[pos]
            elems = space.fv.elements()
            scaled = tw.vmul(elems[:, None, None], p[None, None, :])
            span = scaled.reshape(-1, space.dim)
            hit = _search_generic(state, [pos], span, rest)
        if hit is not None:
            return hit
    return None


_WORKER_STATE: dict = {}


def _worker_init(payload):
    _WORKER_STATE["state"] = payload


def _worker_run(args):
    lo, hi = args
    state: _SearchState = _WORKER_STATE["state"]
    try:
        hit = _branch_range(state, lo, hi)
    except SearchTimeout:
        return (lo, "timeout", None, state.nodes)
    rows = None if hit is None else hit.mat.tolist()
    return (lo, "done", rows, state.nodes)


def _parallel_search(state: _SearchState, jobs: int, time_budget):
    n = len(state.pts)
    chunk = max(1, (n + 4 * jobs - 1) // (4 * jobs))
    ranges = [(lo, min(n, lo + chunk)) for lo in range(0, n, chunk)]
    results = {}
    nodes = 0
    with ProcessPoolExecutor(max_workers=jobs, initializer=_worker_init, initargs=(state,)) as ex:
        for lo, status, rows, nd in ex.map(_worker_run, ranges):
            results[lo] = (status, rows)
            nodes += nd
    witness = None
    for lo, _hi in ranges:
        status, rows = results[lo]
        if status == "timeout":
            raise SearchTimeout("a worker exceeded the search budget")
        if rows is not None:
            witness = canonicalize(state.space.fv, np.array(rows, dtype=np.int64), state.space.dim)
            break
    return witness, nodes


# ---------------------------------------------------------------------------
# Brute-force cross-checks
# ---------------------------------------------------------------------------


def brute_force_spread_verdict(fam: SubspaceFamily, flavor: str) -> tuple[str, Subspace | None]:
    """Maximality by full enumeration of maximal t.i./t.s. subspaces: the
    family extends iff some enumerated subspace has all points uncovered."""
    space = fam.space
    mode = "singular" if flavor == "orthogonal" else "any_point"
    report = cover_report(fam, mode)
    uncovered = report.uncovered_keys
    for w in space.maximal_totally_singular():
        wk = point_keys(space.fv, w.points())
        if _isin_sorted(wk, uncovered).all():
            return "extendable", w
    return "maximal", None


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
# Size formulas
# ---------------------------------------------------------------------------


def expected_size(family_id: str, params: dict) -> int:
    q = params.get("q")
    s = params.get("s")
    m = params.get("m")
    k = params.get("k")
    n = params.get("n")
    gcd2 = 2 if q is not None and q % 2 else 1
    if family_id == "desarguesian":
        return q**n + 1
    if family_id == "thm3.1":
        return q ** (2 * m) - q**m + gcd2
    if family_id == "prop4.1":
        return q ** (2 * m - 1) + 1
    if family_id == "thm4.3":
        return q ** (2 * m * k - k) + 1
    if family_id == "ex5.1":
        return q + 1
    if family_id == "thm5.2i":
        return q**k + 1
    if family_id == "thm5.2ii":
        return 2 * q**k + 1
    if family_id == "appA":
        return q**3 + 1
    if family_id in ("thm7.2", "thm8.1"):
        return q**3 - q**2 + 1
    if family_id == "thm7.3":
        from .families import expected_bullet_size

        return expected_bullet_size(q, s, params.get("scheme", "A6i"))
    if family_id in ("ex7.4", "lem7.5-st", "lem7.5-o5", "appB-st"):
        return q**2 + 1
    if family_id in ("lem7.8", "thm7.9"):
        return 2 * q**2 + 1
    if family_id == "thm7.10":
        return q**2 + q + 1
    if family_id == "thm7.11":
        return q**2 - q + 1
    if family_id == "thm7.12":
        return q**2 - s * q + 2 * s - 1
    if family_id == "thm9.1":
        return q**2 - s * q + (3 if q % 2 else 2) * s - 1
    if family_id == "ex9.2":
        return 3 * q - 1
    raise KeyError(f"no size formula for {family_id}")


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
    from .linalg import all_points

    if u_space.kind != "parabolic" or u_space.dim != 5:
        raise FieldError("census expects a 5-dimensional parabolic space")
    if not is_ovoid(fam, "orthogonal"):
        raise FieldError("census input is not an ovoid of the space")
    q = u_space.q
    fv = u_space.fv
    tw = fv.tower
    root2q = round((2 * q) ** 0.5)
    allowed = {1, q + 1}
    if root2q * root2q == 2 * q:
        allowed |= {q - root2q + 1, q + root2q + 1}
    radical = np.zeros(5, dtype=np.int64)
    radical[0] = 1
    sing = u_space.singular_points()
    sizes: dict[int, int] = {}
    type_counts: dict[str, int] = {}
    tangent = 0
    nplanes = 0

    def functional_values(phi, rows):
        acc = np.zeros(len(rows), dtype=np.int64)
        for i in range(5):
            if phi[i]:
                acc = tw.vadd(acc, tw.vmul(rows[:, i], np.int64(phi[i])))
        return acc

    for phi in all_points(fv, 5):
        nplanes += 1
        hits = int((functional_values(phi, fam.points) == 0).sum())
        if hits == 0:
            raise FieldError("a hyperplane misses the ovoid (census violation)")
        if hits not in allowed:
            raise FieldError(f"unexpected section size {hits}")
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
    return CensusReport(sizes, tangent, type_counts, nplanes)


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
        inside = np.zeros(len(sing), dtype=bool)
        fam_keys = np.sort(point_keys(space.fv, fam.points))
        keys = point_keys(space.fv, sing)
        inside = _isin_sorted(keys, fam_keys)
        for p in fam.points:
            counts += (space.vbform(sing, p) == 0).astype(np.int64)
        return tuple(sorted(counts[~inside].tolist()))
    space = fam.space
    n = space.dim // 2
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
