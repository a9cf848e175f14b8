"""Deterministic constructors for every partial-spread / partial-ovoid family,
each tagged with provenance (family id, parameters, proven validity window)
and an expected size from its closed formula, the only copy of it.

Family ids follow a thmX.Y / lemX.Y / exX.Y naming scheme; `cli.FAMILIES`
maps each to its constructor.
Every "any choice" in a construction is resolved as the first qualifying
object in canonical-index order, so artifacts are bit-for-bit reproducible.
Constructors self-check: the partial-spread/ovoid predicate and the exact
size formula are asserted before a family is returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import gf
from .gf import FieldView, find_pi, find_theta, trace, trace_form
from .linalg import (
    Subspace,
    canonicalize,
    canonicalize_points,
    extend_basis,
    isin_sorted,
    point_keys,
    reduce_rows,
    rref,
    rref_stack,
)
from .octonion import triality_subspaces
from .spaces import (
    FormedSpace,
    TsType,
    ZProjection,
    field_descend,
    iter_subspaces,
    make_orthogonal,
    make_symplectic,
    oplus_space,
    oplus_space_over,
    parabolic_in_oplus8,
    parabolic_space,
    sp_space,
)


class FamilyError(ValueError):
    """A constructor's self-checks failed or its preconditions are violated."""


@dataclass(frozen=True)
class Provenance:
    family: str
    params: dict
    window: str | None = None
    exploratory: bool = False
    chain: tuple[str, ...] = ()

    def describe(self) -> str:
        p = ",".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        tag = " [exploratory]" if self.exploratory else ""
        return f"{self.family}({p}){tag}"


@dataclass
class SubspaceFamily:
    space: FormedSpace
    members: list[Subspace]
    provenance: Provenance
    expected_size: int | None = None

    def __post_init__(self):
        dims = {m.dim for m in self.members}
        if len(dims) > 1:
            raise FamilyError("members have mixed dimensions")
        if len(set(self.members)) != len(self.members):
            raise FamilyError("members are not pairwise distinct")
        if self.expected_size is not None and len(self.members) != self.expected_size:
            raise FamilyError(
                f"size {len(self.members)} != expected {self.expected_size}"
                f" for {self.provenance.describe()}"
            )

    def __len__(self) -> int:
        return len(self.members)


@dataclass
class PointFamily:
    space: FormedSpace
    points: np.ndarray
    provenance: Provenance
    expected_size: int | None = None

    def __post_init__(self):
        pts = np.ascontiguousarray(self.points, dtype=np.int64)
        pts.flags.writeable = False
        self.points = pts
        # rows need not be canonical (orthovoid_bullet keeps its removal
        # points as found), so this rejects repeated rows, not repeated points
        if len({r.tobytes() for r in pts}) != len(pts):
            raise FamilyError("points are not pairwise distinct")
        if self.expected_size is not None and len(pts) != self.expected_size:
            raise FamilyError(
                f"size {len(pts)} != expected {self.expected_size}"
                f" for {self.provenance.describe()}"
            )

    def __len__(self) -> int:
        return len(self.points)


def _rows_outside(fv: FieldView, rows: np.ndarray, points: np.ndarray) -> np.ndarray:
    """The rows, in order, that are none of the given points (both canonical)."""
    return rows[~isin_sorted(point_keys(fv, rows), np.sort(point_keys(fv, points)))]


def _require_partial_ovoid(fam: PointFamily) -> PointFamily:
    from .verify import is_partial_ovoid

    flavor = "symplectic" if fam.space.qcoef is None else "orthogonal"
    if not is_partial_ovoid(fam, flavor):
        raise FamilyError(f"{fam.provenance.describe()} is not a partial ovoid")
    return fam


def _require_partial_spread(fam: SubspaceFamily, flavor: str) -> SubspaceFamily:
    from .verify import is_partial_spread

    if not is_partial_spread(fam, flavor):
        raise FamilyError(f"{fam.provenance.describe()} is not a {flavor} partial spread")
    return fam


# ---------------------------------------------------------------------------
# Trace-coordinate symplectic spaces F^2 over K and desarguesian spreads
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def trace_tower(q: int, n: int, mid: int | None = None, base: int | None = None) -> gf.FieldTower:
    """GF(q^n) designating GF(p), GF(q), GF(q^mid) and GF(p^base) (a
    descent target)."""
    p, e = gf._factor_prime_power(q)
    degs = {1, e, e * n}
    if mid:
        degs.add(e * mid)
    if base:
        degs.add(base)
    return gf.tower(p, e * n, tuple(sorted(degs)))


class TraceSymplecticSpace:
    """The K-space F + F with f((x,y),(x',y')) = T(xy') - T(x'y)."""

    def __init__(self, q: int, n: int, mid: int | None = None, base: int | None = None):
        self.q = q
        self.n = n
        tw = trace_tower(q, n, mid, base)
        p, e = gf._factor_prime_power(q)
        self.tw = tw
        self.kdeg = e
        self.fdeg = e * n
        self.kview = FieldView(tw, e)
        self.fbasis = tw.subfield_basis(self.fdeg, self.kdeg)
        self.coords = tw.subfield_coords(self.fdeg, self.kdeg)
        m = trace_form(tw, self.fdeg, self.kdeg, [[1]], self.fbasis)
        gram = np.zeros((2 * n, 2 * n), dtype=np.int64)
        gram[:n, n:] = m
        gram[n:, :n] = tw.vneg(m)
        self.space = make_symplectic(self.kview, gram)

    def vec(self, x: int, y: int) -> np.ndarray:
        return np.array(self.coords[x] + self.coords[y], dtype=np.int64)

    def member_x0(self) -> Subspace:
        rows = [self.vec(0, b) for b in self.fbasis]
        return canonicalize(self.kview, np.array(rows), 2 * self.n)

    def member_slopes(self, slopes) -> list[Subspace]:
        """The members [y = a x] for each slope a, from one stack of their
        bases (b, a b) over the basis b of F, reduced by one `rref_stack`."""
        tw, n = self.tw, self.n
        coords = np.zeros((tw.order, n), dtype=np.int64)
        coords[list(self.coords)] = list(self.coords.values())
        basis = np.array(self.fbasis, dtype=np.int64)
        ys = tw.vmul(np.asarray(slopes, dtype=np.int64)[:, None], basis[None, :])
        xs = np.broadcast_to(coords[basis], (len(ys), n, n))
        bases, _ = rref_stack(self.kview, np.concatenate([xs, coords[ys]], axis=2))
        return [Subspace(self.kview, 2 * n, b) for b in bases]

    def pair_space(self, xgens, ygens) -> Subspace:
        rows = [self.vec(x, 0) for x in xgens] + [self.vec(0, y) for y in ygens]
        return canonicalize(self.kview, np.array(rows), 2 * self.n)


@lru_cache(maxsize=None)
def _trace_space(
    q: int, n: int, mid: int | None = None, base: int | None = None
) -> TraceSymplecticSpace:
    return TraceSymplecticSpace(q, n, mid, base)


def desarguesian_symplectic_spread(
    q: int, n: int, mid: int | None = None, base: int | None = None
) -> SubspaceFamily:
    """The t.i. n-spaces [x=0] and [y=ax] of Sp(2n,q) in trace coordinates,
    over `trace_tower(q, n, mid, base)`."""
    ts = _trace_space(q, n, mid, base)
    members = [ts.member_x0()] + ts.member_slopes(ts.tw.subfield_elements(ts.fdeg))
    fam = SubspaceFamily(
        ts.space,
        members,
        Provenance("desarguesian", {"q": q, "n": n}),
        expected_size=q**n + 1,
    )
    return _require_partial_spread(fam, "symplectic")


def transversal_star_data(q: int, m: int) -> tuple[TraceSymplecticSpace, list[Subspace], int]:
    """(space, replaced members, expected transversal count): the members
    [x=0] and [y = a theta x], a in E, that the transversal pair meets."""
    ts = _trace_space(q, 2 * m, mid=m)
    tw = ts.tw
    theta = find_theta(tw, ts.kdeg)
    edeg = ts.kdeg * m
    star = [ts.member_x0()] + ts.member_slopes(tw.vmul(tw.subfield_elements(edeg), np.int64(theta)))
    return ts, star, (2 if q % 2 else 1)


def transversal_spread(q: int, m: int) -> SubspaceFamily:
    """Replace the members met by the transversal pair (E, theta*E): a maximal
    symplectic partial spread of size q^(2m) - q^m + gcd(2, q-1) in Sp(4m,q)."""
    ts, star, gcd2 = transversal_star_data(q, m)
    tw = ts.tw
    theta = find_theta(tw, ts.kdeg)
    edeg = ts.kdeg * m
    ebasis = tw.subfield_basis(edeg, ts.kdeg)
    zstar = ts.pair_space(ebasis, [tw.mul(theta, b) for b in ebasis])
    spread = desarguesian_symplectic_spread(q, 2 * m, mid=m)
    star = set(star)
    if len(star) != q**m + 1:
        raise FamilyError("replaced-member count is not q^m + 1")
    for mem in spread.members:
        hit = zstar.intersect(mem).dim
        if (mem in star) != (hit > 0):
            raise FamilyError("transversal meets the wrong members")
    transversals = [zstar]
    if q % 2 == 1:
        alpha = None
        for x in range(1, tw.order):
            if not tw.in_subfield(edeg, x) and tw.in_subfield(edeg, tw.mul(x, x)):
                alpha = x
                break
        if alpha is None:
            raise FamilyError("no second transversal for odd q (field bug)")
        abasis = [tw.mul(alpha, b) for b in ebasis]
        transversals.append(
            ts.pair_space(abasis, [tw.mul(theta, x) for x in abasis])
        )
    members = [mem for mem in spread.members if mem not in star] + transversals
    fam = SubspaceFamily(
        ts.space,
        members,
        Provenance("thm3.1", {"q": q, "m": m}),
        expected_size=q ** (2 * m) - q**m + gcd2,
    )
    return _require_partial_spread(fam, "symplectic")


# ---------------------------------------------------------------------------
# Orthogonal spreads, field descent
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _orthogonal_spread_cached(q: int, m: int, base_deg: int | None) -> SubspaceFamily:
    if q % 2:
        raise FamilyError("orthogonal spreads require even q")
    if m < 2:
        raise FamilyError("need 4m >= 8")
    ts = _trace_space(q, 2 * m - 1, base=base_deg)
    space = oplus_space_over(ts.kview, 2 * m)
    z = space.first_nonsingular_point()
    proj = ZProjection(space, z)
    from .spaces import find_isometry

    iso = find_isometry(ts.space, proj.quotient)
    spread = desarguesian_symplectic_spread(q, 2 * m - 1, base=base_deg)
    members = proj.lift(np.stack([x.mat for x in spread.members]), TsType.SAME, iso)
    fam = SubspaceFamily(
        space,
        members,
        Provenance("prop4.1", {"q": q, "m": m}),
        expected_size=q ** (2 * m - 1) + 1,
    )
    return _require_partial_spread(fam, "orthogonal")


def orthogonal_spread(q: int, m: int, base_deg: int | None = None) -> SubspaceFamily:
    """O+(4m,q) spread of size q^(2m-1)+1, even q: the desarguesian
    Sp(4m-2,q) spread lifted through a nonsingular point.  Its field tower
    also designates degree `base_deg`, a descent target; a tower that
    designates it anyway is the one built without it."""
    if base_deg is not None and base_deg in trace_tower(q, 2 * m - 1).designated:
        base_deg = None
    return _orthogonal_spread_cached(q, m, base_deg)


def descended_spread(q: int, m: int, k: int) -> SubspaceFamily:
    """Orthogonal spread over GF(q^k) blown down to GF(q) via the trace.

    For m = 1 the O+(4, q^k) spread is a ruling of the quadric (the excluded
    case of the dimension bound), so the construction reduces to descending
    the first ruling; it is flagged exploratory."""
    if q % 2:
        raise FamilyError("field descent construction requires even q")
    p, e = gf._factor_prime_power(q)
    window = "m > (k+1)/2"
    exploratory = not (m > (k + 1) / 2)
    if m == 1:
        ctx = FolkloreContext(q, k)
        dm = field_descend(ctx.fspace, e)
        members = dm.subspaces(ctx.sigma_members())
    else:
        big = orthogonal_spread(q**k, m, e)
        dm = field_descend(big.space, e)
        members = dm.subspaces(big.members)
    fam = SubspaceFamily(
        dm.dst,
        members,
        Provenance(
            "thm4.3", {"q": q, "m": m, "k": k}, window=window, exploratory=exploratory
        ),
        expected_size=q ** (2 * m * k - k) + 1,
    )
    return _require_partial_spread(fam, "orthogonal")


# ---------------------------------------------------------------------------
# O+(4, q^k): the two-ruling pair and the descended families
# ---------------------------------------------------------------------------


class FolkloreContext:
    """O+(4,F) with Q(x1,x2,y1,y2) = x1 y1 + x2 y2 over the F-view, plus the
    K-view machinery to blow members down."""

    def __init__(self, q: int, k: int):
        if q % 2:
            raise FamilyError("even q required")
        self.q, self.k = q, k
        p, e = gf._factor_prime_power(q)
        self.tw = trace_tower(q, k)
        self.fview = FieldView(self.tw, e * k)
        self.kdeg = e
        qc = np.zeros((4, 4), dtype=np.int64)
        qc[0, 2] = 1
        qc[1, 3] = 1
        self.fspace = make_orthogonal(self.fview, qc, "orthogonal_plus")

    def sigma_members(self) -> list[Subspace]:
        tw = self.tw
        out = [canonicalize(self.fview, [[0, 0, 1, 0], [0, 0, 0, 1]], 4)]
        for a in self.fview.elements().tolist():
            rows = np.array([[1, 0, 0, a], [0, 1, a, 0]], dtype=np.int64)
            out.append(canonicalize(self.fview, rows, 4))
        return out

    @staticmethod
    def swap(rows: np.ndarray) -> np.ndarray:
        out = np.array(rows, dtype=np.int64)
        out[:, [0, 2]] = out[:, [2, 0]]
        return out

    def sigma_dagger(self, sigma: list[Subspace]) -> list[Subspace]:
        return [canonicalize(self.fview, self.swap(m.mat), 4) for m in sigma]


def folklore_pair(q: int) -> tuple[SubspaceFamily, SubspaceFamily]:
    """The two rulings of the O+(4,q) quadric x1 y1 + x2 y2 = 0, even q.

    The second ruling is the image of the first under the involution
    swapping x1 and y1 (an isometry of Q)."""
    ctx = FolkloreContext(q, 1)
    sigma = ctx.sigma_members()
    dagger = ctx.sigma_dagger(sigma)
    prov = Provenance("ex5.1", {"q": q})
    f1 = SubspaceFamily(ctx.fspace, sigma, prov, expected_size=q + 1)
    f2 = SubspaceFamily(ctx.fspace, dagger, prov, expected_size=q + 1)
    _require_partial_spread(f1, "orthogonal")
    _require_partial_spread(f2, "orthogonal")
    for a in f1.members:
        for b in f2.members:
            if a.intersect(b).dim == 0:
                raise FamilyError("cross-ruling members must meet")
    return f1, f2


def grassl_spread(q: int, k: int, variant: str) -> SubspaceFamily:
    """Theorem-5.2 families in the GF(q)-space of GF(q^k)^4: variant 'i' is
    the descended ruling (size q^k+1, t.s. for Q = T(x1 y1 + x2 y2));
    variant 'ii' removes one member and adjoins one t.i. GF(q^k)-line per
    GF(q^k)-point of it (size 2 q^k + 1)."""
    if variant not in ("i", "ii"):
        raise FamilyError("variant must be 'i' or 'ii'")
    ctx = FolkloreContext(q, k)
    dm = field_descend(ctx.fspace, ctx.kdeg)
    sigma = ctx.sigma_members()
    down = dm.subspaces(sigma)
    if variant == "i":
        # identical to descending the first ruling of the O+(4,q^k) pair,
        # so the provenance chain matches the descend pipeline byte-for-byte
        fam = SubspaceFamily(
            dm.dst,
            down,
            Provenance("thm5.2i", {"q": q, "k": k}, chain=(f"ex5.1(q={q**k})",)),
            expected_size=q**k + 1,
        )
        _require_partial_spread(fam, "orthogonal")
        return _require_partial_spread(fam, "symplectic")
    dagger = ctx.sigma_dagger(sigma)
    z = sigma[0]
    lines = []
    for w in z.points():
        wsub = canonicalize(ctx.fview, [w], 4)
        dag_on_w = next(d for d in dagger if d.contains(w))
        perp = ctx.fspace.perp(wsub)
        line = None
        for s in perp.points():
            if wsub.contains(s):
                continue
            cand = canonicalize(ctx.fview, np.vstack([w[None, :], s[None, :]]), 4)
            if cand != z and cand != dag_on_w:
                line = cand
                break
        if line is None:
            raise FamilyError("no adjoinable line (impossible for q^k > 1)")
        lines.append(line)
    members = down[1:] + dm.subspaces(lines)
    fam = SubspaceFamily(
        dm.dst,
        members,
        Provenance("thm5.2ii", {"q": q, "k": k}),
        expected_size=2 * q**k + 1,
    )
    return _require_partial_spread(fam, "symplectic")


def anchored_sum(
    space: FormedSpace, x: Subspace, y: Subspace, sigma_x: list[Subspace]
) -> SubspaceFamily:
    """{A + (A-perp meet Y) : A in a partial spread of X}, for disjoint
    t.i./t.s. 2m-spaces X, Y."""
    if x.intersect(y).dim != 0:
        raise FamilyError("X and Y must intersect in 0")
    m = x.dim // 2
    members = []
    for a in sigma_x:
        aperp_y = space.perp(a).intersect(y)
        if aperp_y.dim != m:
            raise FamilyError("A-perp meet Y is not m-dimensional (degenerate pairing)")
        members.append(a.sum(aperp_y))
    flavor = "symplectic" if space.qcoef is None else "orthogonal"
    fam = SubspaceFamily(
        space,
        members,
        Provenance("ex5.3", {"size": len(sigma_x)}),
        expected_size=len(sigma_x),
    )
    return _require_partial_spread(fam, flavor)


# ---------------------------------------------------------------------------
# The trace-coordinate O+(8,q) space K + F + F + K and its ovoid families
# ---------------------------------------------------------------------------


class OvoidContext:
    """O+(8,q)-space K+F+F+K with Q(a,beta,gamma,d) = a d + T(beta gamma),
    F = GF(q^3), q even, and the q^3+1-point ovoid living in it."""

    def __init__(self, q: int):
        if q % 2 or q <= 2:
            raise FamilyError("requires even q > 2")
        self.q = q
        p, e = gf._factor_prime_power(q)
        self.tw = trace_tower(q, 3)
        self.kdeg = e
        self.fdeg = 3 * e
        self.kview = FieldView(self.tw, e)
        self.fbasis = self.tw.subfield_basis(self.fdeg, e)
        self.coords = self.tw.subfield_coords(self.fdeg, e)
        qc = np.zeros((8, 8), dtype=np.int64)
        qc[0, 7] = 1
        qc[1:4, 4:7] = trace_form(self.tw, self.fdeg, e, [[1]], self.fbasis)
        self.space = make_orthogonal(self.kview, qc, "orthogonal_plus")
        self.pi = find_pi(self.tw, e)
        self._ovoid = None

    def vec(self, a: int, beta: int, gamma: int, d: int) -> np.ndarray:
        return np.array(
            (a,) + self.coords[beta] + self.coords[gamma] + (d,), dtype=np.int64
        )

    def tr(self, x: int) -> int:
        return trace(self.tw, self.fdeg, self.kdeg, x)

    def nm(self, x: int) -> int:
        return gf.norm(self.tw, self.fdeg, self.kdeg, x)

    def ovoid_points(self) -> np.ndarray:
        """<(0,0,0,1)> and <(1, t, t^(q+q^2), N(t))> for t in F, ascending;
        made once per context and read-only.  t^(q+q^2) = t^q t^(q^2) and
        N(t) = t t^(q+q^2), each one vector product over all of F."""
        if self._ovoid is None:
            tw, e = self.tw, self.kdeg
            t = tw.subfield_elements(self.fdeg)
            tqq = tw.vmul(tw.vfrob(t, e), tw.vfrob(t, 2 * e))
            coords = np.zeros((tw.order, 3), dtype=np.int64)  # `coords` as an array
            coords[list(self.coords)] = list(self.coords.values())
            rows = np.zeros((len(t) + 1, 8), dtype=np.int64)
            rows[0, 7] = 1
            rows[1:, 0] = 1
            rows[1:, 1:4] = coords[t]
            rows[1:, 4:7] = coords[tqq]
            rows[1:, 7] = tw.vmul(t, tqq)
            rows.flags.writeable = False
            self._ovoid = rows
        return self._ovoid


@lru_cache(maxsize=None)
def _ovoid_context(q: int) -> OvoidContext:
    return OvoidContext(q)


def desarguesian_ovoid(q: int) -> PointFamily:
    """The q^3+1 singular points <(0,0,0,1)> and <(1,t,t^(q+q^2),N(t))>."""
    ctx = _ovoid_context(q)
    fam = PointFamily(
        ctx.space,
        ctx.ovoid_points(),
        Provenance("appA", {"q": q}),
        expected_size=q**3 + 1,
    )
    return _require_partial_ovoid(fam)


def ordinary_removal_set(q: int, scheme: str, s: int) -> PointFamily:
    """The first s points of the quoted removal lists: scheme 'A6i' uses
    <(0,0,pi,0)> and <(0, a pi + pi^q, a^2 pi + a pi^q, 0)> for a with
    a^2+a+1 != 0; scheme 'A6ii' the four explicit points."""
    ctx = _ovoid_context(q)
    tw = ctx.tw
    pi = ctx.pi
    piq = tw.frob(pi, ctx.kdeg)
    pts = [ctx.vec(0, 0, pi, 0)]
    if scheme == "A6i":
        for a in tw.subfield_elements(ctx.kdeg).tolist():
            if tw.add(tw.add(tw.mul(a, a), a), 1) == 0:
                continue
            beta = tw.add(tw.mul(a, pi), piq)
            gamma = tw.add(tw.mul(tw.mul(a, a), pi), tw.mul(a, piq))
            pts.append(ctx.vec(0, beta, gamma, 0))
    elif scheme == "A6ii":
        a = None
        for cand in tw.subfield_elements(ctx.kdeg).tolist():
            if cand in (0, 1):
                continue
            if tw.add(tw.add(tw.mul(cand, cand), cand), 1) != 0:
                a = cand
                break
        if a is None:
            raise FamilyError("scheme A6ii needs a in K - {0,1} with a^2+a+1 != 0 (q >= 16)")
        pts.append(ctx.vec(0, piq, 0, 0))
        pq = tw.add(pi, piq)
        pts.append(ctx.vec(0, pq, pq, 0))
        beta = tw.add(tw.mul(a, pi), piq)
        gamma = tw.add(tw.mul(tw.pow(a, 3), pi), tw.mul(tw.mul(a, a), piq))
        pts.append(ctx.vec(0, beta, gamma, 0))
    else:
        raise FamilyError("scheme must be 'A6i' or 'A6ii'")
    if not 1 <= s <= len(pts):
        raise FamilyError(f"s={s} out of range 1..{len(pts)} for scheme {scheme}")
    ovoid_keys = {tuple(r) for r in ctx.ovoid_points().tolist()}
    chosen = np.array(pts[:s], dtype=np.int64)
    for r in chosen.tolist():
        if tuple(r) in ovoid_keys:
            raise FamilyError("removal point lies in the ovoid")
    fam = PointFamily(
        ctx.space, chosen, Provenance(f"removal-{scheme}", {"q": q, "s": s}), expected_size=s
    )
    return _require_partial_ovoid(fam)


def expected_bullet_size(q: int, s: int, scheme: str) -> int:
    n_s = q**3 - s * q**2 + (s - 1) * (q + 2) + (s * (s - 1) // 2) * (q - 2) + 1
    if scheme == "A6ii" and s == 4:
        return n_s - 1
    return n_s


def orthovoid_bullet(q: int, s: int, scheme: str = "A6i") -> PointFamily:
    """Remove the perps of s removal points from the big ovoid and adjoin the
    points themselves: a maximal orthogonal partial ovoid for s <= q/5."""
    ctx = _ovoid_context(q)
    removal = ordinary_removal_set(q, scheme, s)
    omega = ctx.ovoid_points()
    keep = np.ones(len(omega), dtype=bool)
    for p in removal.points:
        keep &= ctx.space.vbform(omega, p) != 0
    if s == 1:
        hit = omega[~keep]
        span = rref(ctx.kview, hit)
        perp = ctx.space.perp(canonicalize(ctx.kview, removal.points, 8))
        if canonicalize(ctx.kview, span, 8) != perp:
            raise FamilyError("span of the removed section is not the full perp")
    pts = np.vstack([omega[keep], removal.points])
    window = "1 <= s <= q/5" if scheme == "A6i" else "q >= 16, s <= 4"
    exploratory = s > q / 5 if scheme == "A6i" else q < 16
    fam = PointFamily(
        ctx.space,
        pts,
        Provenance(
            "thm7.2" if (s == 1 and scheme == "A6i") else "thm7.3",
            {"q": q, "s": s, "scheme": scheme},
            window=window,
            exploratory=exploratory,
        ),
        expected_size=expected_bullet_size(q, s, scheme),
    )
    return _require_partial_ovoid(fam)


def ovoid_symmetries(q: int) -> list:
    """The maps u_s (s in K) and j preserving Q and the big ovoid, as
    matrices acting on row vectors."""
    ctx = _ovoid_context(q)
    tw = ctx.tw

    def u_map(s: int):
        def act(a, beta, gamma, d):
            s2 = tw.mul(s, s)
            nb = tw.add(beta, tw.mul(s, a))
            ng = tw.add(
                tw.add(gamma, tw.mul(a, s2)),
                tw.mul(tw.add(tw.frob(beta, ctx.kdeg), tw.frob(beta, 2 * ctx.kdeg)), s),
            )
            nd = tw.add(
                tw.add(d, tw.mul(a, tw.mul(s, s2))),
                tw.add(tw.mul(ctx.tr(beta), s2), tw.mul(ctx.tr(gamma), s)),
            )
            return a, nb, ng, nd

        return act

    def j_act(a, beta, gamma, d):
        return d, gamma, beta, a

    out = []
    for s in tw.subfield_elements(ctx.kdeg).tolist():
        out.append(_matrix_of_quad_map(ctx, u_map(s)))
    out.append(_matrix_of_quad_map(ctx, j_act))
    return out


def _matrix_of_quad_map(ctx: OvoidContext, act) -> np.ndarray:
    """Matrix (rows act on the right) of a K-linear map given on (a,b,g,d)."""
    tw = ctx.tw
    rows = []
    units = []
    units.append((1, 0, 0, 0))
    for b in ctx.fbasis:
        units.append((0, b, 0, 0))
    for b in ctx.fbasis:
        units.append((0, 0, b, 0))
    units.append((0, 0, 0, 1))
    for u in units:
        rows.append(ctx.vec(*act(*u)))
    return np.array(rows, dtype=np.int64)


# ---------------------------------------------------------------------------
# Small-dimensional ovoids inside O+(8,q)
# ---------------------------------------------------------------------------


def _first_anisotropic_plane(space: FormedSpace, container_rows: np.ndarray) -> Subspace:
    cont = canonicalize(space.fv, container_rows, space.dim)
    for cand in iter_subspaces(space.fv, cont, 2):
        if space.is_anisotropic(cand):
            return cand
    raise FamilyError("no anisotropic plane found")


def _ominus_subspace_o8(space: FormedSpace) -> Subspace:
    """<e1,f1> + first anisotropic plane of <e2,f2,e3,f3>: an O-(4,q) inside
    the standard O+(8,q)."""
    rows = np.eye(8, dtype=np.int64)
    a = _first_anisotropic_plane(space, rows[2:6])
    w = canonicalize(space.fv, np.vstack([rows[0:2], a.mat]), 8)
    return w


def _singular_points_of(space: FormedSpace, sub: Subspace) -> np.ndarray:
    pts = sub.points()
    return pts[space.vqform(pts) == 0]


def elliptic_or_o5_partial_ovoid(q: int, kind: str) -> PointFamily:
    """Elliptic quadric / O(5,q)-ovoid presented in O+(8,q): q^2+1 points."""
    space = oplus_space(q, 4)
    if kind == "elliptic_quadric":
        w = _ominus_subspace_o8(space)
        pts = _singular_points_of(space, w)
        fid = "ex7.4"
    elif kind == "suzuki_tits":
        st = suzuki_tits_ovoid(q)
        em = parabolic_in_oplus8(q)
        pts = canonicalize_points(space.fv, em.vector(st.points))
        fid = "lem7.5-st"
    elif kind == "o5_generic":
        para = parabolic_space(q)
        sub = _elliptic_hyperplane(para)
        inner = _singular_points_of(para, sub)
        em = parabolic_in_oplus8(q)
        pts = canonicalize_points(space.fv, em.vector(inner))
        fid = "lem7.5-o5"
    else:
        raise FamilyError("kind must be elliptic_quadric, suzuki_tits or o5_generic")
    if len(pts) != q**2 + 1:
        raise FamilyError(f"expected an O-(4,q)-sized point set, got {len(pts)}")
    fam = PointFamily(
        space, pts, Provenance(fid, {"q": q, "kind": kind}), expected_size=q**2 + 1
    )
    return _require_partial_ovoid(fam)


def _elliptic_hyperplane(para: FormedSpace) -> Subspace:
    """First hyperplane of the parabolic 5-space whose section is minus type."""
    fv = para.fv
    radical = np.zeros(5, dtype=np.int64)
    radical[0] = 1
    q = para.q
    for phi in para.points():
        h = para.nullspace(phi[None, :])
        if fv.char == 2 and h.contains(radical):
            continue
        pts = _singular_points_of(para, h)
        if len(pts) == q**2 + 1:
            return h
    raise FamilyError("no elliptic hyperplane section found")


# ---------------------------------------------------------------------------
# Suzuki-Tits ovoids and their replacements
# ---------------------------------------------------------------------------


def _st_exponent(q: int) -> int:
    e = 0
    while 2 ** (2 * e + 1) < q:
        e += 1
    if 2 ** (2 * e + 1) != q or q <= 2:
        raise FamilyError("Suzuki-Tits constructions need q = 2^(2e+1) > 2")
    return e


def suzuki_tits_ovoid(q: int) -> PointFamily:
    """q^2+1 singular points of the parabolic O(5,q)-space projecting onto the
    symplectic point set {(0,0,0,1)} + {(1, a, b, ab + a^(s+2) + b^s)} with
    s = 2^(e+1); each symplectic point lifts along its unique singular point
    on the line through the radical."""
    e = _st_exponent(q)
    sigma = 2 ** (e + 1)
    para = parabolic_space(q)
    fv = para.fv
    tw = fv.tower

    def lift(s1, s2, s3, s4):
        # symplectic coords pair 1st-4th and 2nd-3rd; parabolic pairs are
        # (x1,x2), (x3,x4), so reorder to (s1, s4, s2, s3)
        body = np.array([0, s1, s4, s2, s3], dtype=np.int64)
        lam = tw.pow(para.qform(body), 2 ** (tw.d - 1))
        body[0] = lam
        if para.qform(body) != 0:
            raise FamilyError("lift is not singular (convention bug)")
        return body

    rows = [lift(0, 0, 0, 1)]
    for a in range(q):
        for b in range(q):
            s4 = tw.add(tw.add(tw.mul(a, b), tw.pow(a, sigma + 2)), tw.pow(b, sigma))
            rows.append(lift(1, a, b, s4))
    pts = canonicalize_points(fv, np.array(rows, dtype=np.int64))
    span = rref(fv, pts)
    if span.shape[0] != 5:
        raise FamilyError("ovoid does not span the 5-space")
    fam = PointFamily(
        para, pts, Provenance("appB-st", {"q": q}), expected_size=q**2 + 1
    )
    return _require_partial_ovoid(fam)


class StContext:
    """Suzuki-Tits ovoid embedded in O+(8,q) with the ambient machinery the
    replacement constructions share."""

    def __init__(self, q: int):
        self.q = q
        self.space = oplus_space(q, 4)
        self.embed = parabolic_in_oplus8(q)
        st = suzuki_tits_ovoid(q)
        self.omega = canonicalize_points(self.space.fv, self.embed.vector(st.points))
        self.u = canonicalize(self.space.fv, self.embed.matrix, 8)

    def circle(self, x: np.ndarray) -> np.ndarray:
        return self.omega[self.space.vbform(self.omega, x) == 0]


@lru_cache(maxsize=None)
def _st_context(q: int) -> StContext:
    return StContext(q)


def st_pencil_replace(q: int) -> PointFamily:
    """Drop one ovoid point p and adjoin one interior point of each of the
    q+1 t.s. lines joining p to the singular points of U-perp."""
    _st_exponent(q)
    ctx = _st_context(q)
    space = ctx.space
    uperp = space.perp(ctx.u)
    sing = _singular_points_of(space, uperp)
    if len(sing) != q + 1:
        raise FamilyError("U-perp does not carry q+1 singular points")
    p = ctx.omega[0]
    ends = np.vstack([p[None, :], sing])
    lines = [canonicalize(space.fv, [p, x0], 8) for x0 in sing]
    x = np.array([_rows_outside(space.fv, line.points(), ends)[0] for line in lines])
    pts = np.vstack([ctx.omega[1:], x])
    fam = PointFamily(
        space,
        pts,
        Provenance("thm7.10", {"q": q}, window="q = 2^(2e+1) > 2"),
        expected_size=q**2 + q + 1,
    )
    return _require_partial_ovoid(fam)


def st_section_replace(q: int) -> PointFamily:
    """Replace a circle x-perp meet Omega by the singular point x itself."""
    _st_exponent(q)
    ctx = _st_context(q)
    space = ctx.space
    outside = _rows_outside(space.fv, _singular_points_of(space, ctx.u), ctx.omega)
    if not len(outside):
        raise FamilyError("no singular point of U outside the ovoid")
    x = outside[0]
    removed = space.vbform(ctx.omega, x) == 0
    if removed.sum() != q + 1:
        raise FamilyError("x-perp section is not a circle")
    pts = np.vstack([ctx.omega[~removed], x[None, :]])
    fam = PointFamily(
        space,
        pts,
        Provenance("thm7.11", {"q": q}, window="q = 2^(2e+1) > 2"),
        expected_size=q**2 - q + 1,
    )
    return _require_partial_ovoid(fam)


def st_circle_replace(q: int, s: int) -> PointFamily:
    """Replace s of the q+1 circles through the first two ovoid points by
    their poles; proven maximal for 1 < s <= sqrt(q/2) - 1."""
    e = _st_exponent(q)
    if not 1 <= s <= q + 1:
        raise FamilyError("s out of range")
    ctx = _st_context(q)
    space = ctx.space
    a, b = ctx.omega[0], ctx.omega[1]
    ab = canonicalize(space.fv, np.vstack([a[None, :], b[None, :]]), 8)
    plane = space.perp(ab).intersect(ctx.u)
    if plane.dim != 3:
        raise FamilyError("{a,b}-perp meet U is not a plane")
    sing = _singular_points_of(space, plane)
    if len(sing) != q + 1:
        raise FamilyError("the plane does not carry q+1 singular points")
    # the q+1 circles all pass through a and b and partition Omega - {a,b}
    seen = np.zeros(len(ctx.omega), dtype=int)
    for x in sing:
        seen += (space.vbform(ctx.omega, x) == 0).astype(int)
    interior = np.ones(len(ctx.omega), dtype=bool)
    interior[0] = interior[1] = False
    if not (np.all(seen[interior] == 1) and seen[0] == q + 1 and seen[1] == q + 1):
        raise FamilyError("circles do not partition the ovoid minus {a,b}")
    chosen = sing[:s]
    keep = np.ones(len(ctx.omega), dtype=bool)
    for x in chosen:
        keep &= space.vbform(ctx.omega, x) != 0
    pts = np.vstack([ctx.omega[keep], chosen])
    smax = 2**e - 1
    fam = PointFamily(
        space,
        pts,
        Provenance(
            "thm7.12",
            {"q": q, "s": s},
            window="1 < s <= sqrt(q/2) - 1",
            exploratory=not (1 < s <= smax),
        ),
        expected_size=q**2 - s * q + 2 * s - 1,
    )
    return _require_partial_ovoid(fam)


# ---------------------------------------------------------------------------
# Two elliptic quadrics glued along a t.s. line
# ---------------------------------------------------------------------------


def two_quadrics_ovoid(q: int) -> PointFamily:
    """(Omega - {p}) + (Omega' - {p'}) + {x} for elliptic quadrics on two
    non-perpendicular O-(4,q) subspaces: 2 q^2 + 1 points in O+(8,q)."""
    space = oplus_space(q, 4)
    fv = space.fv
    rows = np.eye(8, dtype=np.int64)
    a = _first_anisotropic_plane(space, rows[0:4])
    four = canonicalize(fv, rows[0:4], 8)
    aprime = space.perp(a).intersect(four)
    if aprime.dim != 2 or not space.is_anisotropic(aprime):
        raise FamilyError("complementary plane is not anisotropic")
    w = space.perp(four)
    wsing = _singular_points_of(space, w)
    p = wsing[0]
    pprime = None
    for cand in wsing[1:]:
        if space.bform(p, cand) == 0:
            pprime = cand
            break
    line = canonicalize(fv, np.vstack([p[None, :], pprime[None, :]]), 8)
    u_pt = None
    for cand in wsing:
        if line.contains(cand):
            continue
        if space.bform(cand, pprime) == 0:
            u_pt = cand
            break
    uprime_pt = None
    for cand in wsing:
        if line.contains(cand):
            continue
        if space.bform(cand, p) == 0 and space.bform(cand, u_pt) != 0:
            uprime_pt = cand
            break
    if u_pt is None or uprime_pt is None:
        raise FamilyError("no qualifying singular pair (impossible here)")
    u = canonicalize(fv, np.vstack([a.mat, p[None, :], u_pt[None, :]]), 8)
    uprime = canonicalize(fv, np.vstack([aprime.mat, pprime[None, :], uprime_pt[None, :]]), 8)
    omega = _singular_points_of(space, u)
    omega2 = _singular_points_of(space, uprime)
    if len(omega) != q**2 + 1 or len(omega2) != q**2 + 1:
        raise FamilyError("glued subspaces are not O-(4,q)")
    x = _rows_outside(fv, line.points(), np.vstack([p, pprime]))[:1]
    kept = [_rows_outside(fv, omega, p[None, :]), _rows_outside(fv, omega2, pprime[None, :])]
    pts = np.vstack(kept + [x])
    fam = PointFamily(
        space, pts, Provenance("lem7.8", {"q": q}), expected_size=2 * q**2 + 1
    )
    return _require_partial_ovoid(fam)


# ---------------------------------------------------------------------------
# Sp(6,q) line replacement
# ---------------------------------------------------------------------------


def sp6_line_replace(q: int) -> SubspaceFamily:
    """Swap the q^2+1 members met by a t.i. 3-space U hanging off a line of a
    desarguesian Sp(6,q)-spread member: size q^3 - q^2 + 1, any q."""
    ts = _trace_space(q, 3)
    spread = desarguesian_symplectic_spread(q, 3)
    x = ts.member_slopes([0])[0]  # the member [y = 0]
    l = next(iter_subspaces(ts.kview, x, 2))
    lperp = ts.space.perp(l)
    u = None
    for wrow in lperp.points():
        if x.contains(wrow):
            continue
        cand = canonicalize(ts.kview, np.vstack([l.mat, wrow[None, :]]), 6)
        if not ts.space.is_ti(cand):
            continue
        if cand in spread.members:
            continue
        if cand.intersect(x) != l:
            continue
        u = cand
        break
    if u is None:
        raise FamilyError("no qualifying t.i. 3-space (impossible)")
    met = [m for m in spread.members if m.intersect(u).dim > 0]
    if len(met) != q**2 + 1:
        raise FamilyError(f"|Sigma_U| = {len(met)} != q^2+1")
    members = [m for m in spread.members if m not in set(met)] + [u]
    fam = SubspaceFamily(
        ts.space,
        members,
        Provenance("thm8.1", {"q": q}),
        expected_size=q**3 - q**2 + 1,
    )
    return _require_partial_spread(fam, "symplectic")


# ---------------------------------------------------------------------------
# Parabolic O(5,q) conic replacements and the 3q-1 example
# ---------------------------------------------------------------------------


def conic_replace(q: int, s: int) -> PointFamily:
    """Replace s plane sections of an elliptic quadric through two fixed
    points by the singular points of the perp lines: sizes q^2-sq+3s-1 (odd
    q, using the two-singular-point planes) and q^2-sq+2s-1 (even q)."""
    if not 1 <= s < (q + 1) / 2:
        raise FamilyError("need 1 <= s < (q+1)/2")
    para = parabolic_space(q)
    fv = para.fv
    usub = _elliptic_hyperplane(para)
    omega = _singular_points_of(para, usub)
    a, b = omega[0], omega[1]
    ab = canonicalize(fv, np.vstack([a[None, :], b[None, :]]), 5)
    comp = extend_basis(fv, ab.mat, usub.mat, 2)
    planes = []
    for wq in canonicalize(fv, comp, 5).points():
        planes.append(canonicalize(fv, np.vstack([ab.mat, wq[None, :]]), 5))
    # each plane through <a,b> cuts a conic; together they partition Omega-{a,b}
    okeys = point_keys(fv, omega)
    covered = np.zeros(len(omega), dtype=int)
    sections = {}
    for e_pl in planes:
        inside = reduce_rows(fv, e_pl.mat, omega)
        sections[e_pl] = inside
        covered += inside.astype(int)
    if not np.all(covered == 1 + ((okeys == okeys[0]) | (okeys == okeys[1])) * (len(planes) - 1)):
        raise FamilyError("plane sections do not partition the quadric minus {a,b}")
    qualifying = []
    for e_pl in planes:
        eperp = para.perp(e_pl)
        if eperp.dim != 2:
            raise FamilyError("plane perp is not a line")
        sing = _singular_points_of(para, eperp)
        if q % 2 == 0:
            if len(sing) != 1:
                raise FamilyError("even q: perp line must carry one singular point")
            qualifying.append((e_pl, sing))
        else:
            if len(sing) == 2:
                qualifying.append((e_pl, sing))
    if len(qualifying) < s:
        raise FamilyError(f"only {len(qualifying)} qualifying planes for s={s}")
    keep = np.ones(len(omega), dtype=bool)
    new_pts = []
    for e_pl, sing in qualifying[:s]:
        keep &= ~sections[e_pl]
        new_pts.extend(sing)
    pts = np.vstack([omega[keep]] + [p[None, :] for p in new_pts])
    expected = q**2 - s * q + (3 if q % 2 else 2) * s - 1
    fam = PointFamily(
        para,
        pts,
        Provenance("thm9.1", {"q": q, "s": s}, window="1 <= s < (q+1)/2"),
        expected_size=expected,
    )
    return _require_partial_ovoid(fam)


def three_lines(q: int, ambient_m: int = 2) -> PointFamily:
    """Union of three punctured t.i. lines between X = <e1,e2> and
    Y = <f1,f2> plus a non-perpendicular pair {x,y}: 3q-1 points, q >= 4."""
    if q < 4:
        raise FamilyError("needs q >= 4")
    if ambient_m < 2:
        raise FamilyError("needs ambient dimension >= 4")
    space = sp_space(q, ambient_m)
    fv = space.fv
    dim = 2 * ambient_m
    rows = np.eye(dim, dtype=np.int64)
    xsub = canonicalize(fv, rows[[0, 2]], dim)
    ysub = canonicalize(fv, rows[[1, 3]], dim)
    xpts = xsub.points()
    ypts = ysub.points()
    x123x = xpts[:4]

    def y_perp_of(xv):
        hits = ypts[space.vbform(ypts, xv) == 0]
        if len(hits) != 1:
            raise FamilyError("X-Y pairing degenerate")
        return hits[0]

    ys = [y_perp_of(v) for v in x123x]
    # y must be a fourth point of Y: distinct from the partners y1,y2,y3 and
    # not perpendicular to x (i.e. not the partner of x either)
    y_last = _rows_outside(fv, ypts, np.array(ys))[:1]
    if not len(y_last):
        raise FamilyError("no fourth point available in Y (q too small)")
    pts = []
    for i in range(3):
        ends = np.vstack([x123x[i], ys[(i + 1) % 3]])
        pts.append(_rows_outside(fv, canonicalize(fv, ends, dim).points(), ends))
    fam = PointFamily(
        space,
        np.vstack(pts + [x123x[3:], y_last]),
        Provenance("ex9.2", {"q": q, "m": ambient_m}, window="q >= 4"),
        expected_size=3 * q - 1,
    )
    return _require_partial_ovoid(fam)


# ---------------------------------------------------------------------------
# Klein images and triality images as families
# ---------------------------------------------------------------------------


def klein_family(lines: SubspaceFamily) -> PointFamily:
    """Images of a family of t.i. Sp(4,q)-lines on the parabolic section.
    Non-standard symplectic Grams are first standardized by an isometry."""
    from .spaces import klein_point_of_line, klein_space_over, sp_space_over, standardize_symplectic

    space = lines.space
    members = lines.members
    if space.dim != 4 or space.kind != "symplectic":
        raise FamilyError("Klein images need a 4-dimensional symplectic family")
    std = sp_space_over(space.fv, 2)
    if not np.array_equal(space.gram, std.gram):
        _, iso = standardize_symplectic(space)
        members = [iso.subspace(m) for m in members]
        space = std
    target = klein_space_over(space.fv)
    pts = np.array([klein_point_of_line(space, l) for l in members], dtype=np.int64)
    fam = PointFamily(
        target,
        pts,
        Provenance(
            "klein",
            dict(lines.provenance.params),
            chain=lines.provenance.chain + (lines.provenance.describe(),),
        ),
        expected_size=len(lines),
    )
    return _require_partial_ovoid(fam)


def triality_pointset(fam: PointFamily) -> SubspaceFamily:
    """Triality image of a partial ovoid: a partial spread of t.s. 4-spaces
    of one type and the same cardinality, in the same space."""
    _require_partial_ovoid(fam)
    space = fam.space
    members = triality_subspaces(space, fam.points)
    out = SubspaceFamily(
        space,
        members,
        Provenance(
            "triality",
            dict(fam.provenance.params),
            chain=fam.provenance.chain + (fam.provenance.describe(),),
        ),
        expected_size=len(fam),
    )
    _require_partial_spread(out, "orthogonal")
    # W meets m0 in dimension 8 - rank[W; m0], so W's type (`ts_type`) is
    # the parity of that rank
    if members:
        bases = np.stack([w.mat for w in members])
        stack = np.concatenate([bases, np.broadcast_to(space.m0().mat, bases.shape)], axis=1)
        if len(np.unique(rref_stack(space.fv, stack)[1] % 2)) > 1:
            raise FamilyError("triality images straddle both types")
    return out


def project_family(fam: SubspaceFamily, z: np.ndarray | None = None) -> SubspaceFamily:
    """Transport an orthogonal family through z-perp/z into the symplectic
    quotient (even q)."""
    space = fam.space
    if z is None:
        z = space.first_nonsingular_point()
    proj = ZProjection(space, np.asarray(z, dtype=np.int64))
    members = [proj.transport(x) for x in fam.members]
    out = SubspaceFamily(
        proj.quotient,
        members,
        Provenance(
            "project",
            dict(fam.provenance.params),
            chain=fam.provenance.chain + (fam.provenance.describe(),),
        ),
        expected_size=len(fam),
    )
    return _require_partial_spread(out, "symplectic")


def descend_family(fam: SubspaceFamily, to_deg: int | None = None) -> SubspaceFamily:
    """Blow a family down to the base subfield via the trace form.

    Descending a folklore ruling reproduces the q^k+1 family bit-for-bit,
    so that case keeps its canonical id and provenance."""
    space = fam.space
    if to_deg is None:
        to_deg = space.fv.tower.designated[0]
    dm = field_descend(space, to_deg)
    members = dm.subspaces(fam.members)
    flavor = "symplectic" if dm.dst.qcoef is None else "orthogonal"
    if fam.provenance.family == "ex5.1":
        ratio = space.fv.degree // to_deg
        prov = Provenance(
            "thm5.2i",
            {"q": dm.dst.q, "k": ratio},
            chain=fam.provenance.chain + (fam.provenance.describe(),),
        )
    else:
        prov = Provenance(
            "descend",
            dict(fam.provenance.params, to_deg=to_deg),
            chain=fam.provenance.chain + (fam.provenance.describe(),),
        )
    out = SubspaceFamily(dm.dst, members, prov, expected_size=len(fam))
    return _require_partial_spread(out, flavor)
