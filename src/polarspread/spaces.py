"""Symplectic and orthogonal geometry over a FieldView.

A FormedSpace couples a coordinate space fv^dim with a bilinear form (Gram
matrix) and, for orthogonal kinds, a quadratic form given by an
upper-triangular coefficient matrix.  In characteristic 2 the Gram matrix of
an orthogonal space is the polarization B(u,v) = Q(u+v) - Q(u) - Q(v), which
is alternating, so the space doubles as a symplectic space.

Maximal totally singular / totally isotropic subspaces, the k-subspaces of a
container and the maximality engine's extensions are all found by one
canonical-augmentation DFS, `FlagSearch` (B. D. McKay, Isomorph-free
exhaustive generation, J. Algorithms 26 (1998)).  A flag is grown one point
at a time from canonical points in ascending canonical index, and a point p
extends the span S only if p is the minimum of the coset <S, p> minus S.  A
subspace W is then reached only along its greedy chain, whose (d+1)-th point
is the minimum point of W outside the span S_d of the first d, so each
subspace is generated exactly once and no dedup set is needed.

The DFS never touches coordinate rows.  Every vector is one int64 key
(`linalg.KeyPacking`) holding the ranks of its coordinates in the field view
as base-p digits.  A subfield's sorted indices count through its echelon
coordinates, so the packing is GF(p)-linear and order-preserving: the key of
a sum is the digitwise sum mod p of the keys (XOR for p = 2, a SWAR add and
reduce for odd p), and keys order vectors lexicographically by coordinate
rank, where 0 has rank 0 and 1 rank 1.

Pivot-column test.  Let S have the reduced echelon basis b_j, pivot columns
j.  Every vector of the coset lambda c + S (lambda != 0) is lambda v + s with
v the reduction of c against the b_j, scaled to leading coefficient 1, so v
is zero at every pivot column.  For s != 0 let j be the pivot of the first
b_j in s, the first nonzero coordinate of s.  If j precedes v's leading
column, lambda v + s is nonzero at j where v is zero; otherwise it agrees
with lambda v up to j and exceeds v at v's leading column (lambda != 1) or
at j.  So v is the coset minimum, and a canonical c is the minimum iff
c = v, i.e. iff c is zero at every pivot column of S.  Each flag point passed
this test, so it is zero at the leading columns of the points before it, and
the pivot columns of S are exactly the flag points' leading columns.  The
test is therefore one AND, in every characteristic: of c's support bits (its
nonzero coordinates) with the OR of the flag points' leading-column bits.

Line rows.  The maximality engine lists the uncovered points and accepts c
only if every point of <S, c> outside S is listed.  Every vector
lambda c + s (lambda != 0) is a multiple of c + s/lambda, so the points of
<S, c> outside S are the q^d points c + s, s in S.  Row G[x] of the
line-compatibility graph holds the listed j such that every point of the
line xj other than x is listed: the keys of j + lambda x, lambda != 0, are
multiples of listed points.  Let c have its coset modulo S listed and let j
be a child.  A point of <S, j, c> outside <S, j> is c + s or
c + mu (j + s/mu) with mu != 0, a point of the line from c to the point
j + s/mu; so c has its coset modulo <S, j> listed iff c lies in G[j + s]
for every s in S.  A node therefore keeps as its candidates exactly the
points whose coset is listed, as a bitset: a child's are the parent's after
j, ANDed with the q^d rows G[j + s].  The eligible children are the ones a
per-coset test would accept, in the same order.  For the symplectic flavor
G[x] also requires j perpendicular to x, which keeps every candidate
perpendicular to every flag point.  The orthogonal flavor needs no such
test: for singular x and j, Q(j + lambda x) = lambda B(x, j), so a listed
line through x and j has B(x, j) = 0.

Count bound.  Let W, of dimension t, complete a node of depth d: the flag
p_1..p_d is an initial segment of W's greedy chain, with span S_d.  Every
point of W lies in the search's point list (W is totally singular, or
uncovered in the engine).  By induction on d, every point x of W outside S_d
is a candidate: x lies outside S_(d-1), so it was a candidate one level up;
x is larger than p_d, the minimum of W outside S_(d-1); and x passes p_d's
filter, perpendicularity (W is totally isotropic) or, in the engine, the
rows G[p_d + s] (every point of W is listed).  So a node with fewer than
(q^t - q^d)/(q - 1) candidates has no completion and is cut.  The cut
removes only fruitless subtrees, so results and their order do not change;
the engine's candidate sets are smaller, so it cuts more.

Batched expansion.  No search walks nodes one Python frame at a time.  A
node is its flag, the OR of its points' leading-column bits, its candidates
as a bitset and, in the engine, the indices of its span's points; the nodes
of one depth are held as arrays, and one numpy pass expands a slice of them.
A node's children are the set bits of its candidates ANDed with the
eligibility bitset of its pivot mask (one bitset per distinct mask), and
reading the (node, child) pairs row-major lists them by parent, then by
point: when the parents are in lexicographic order of their flags, so are
the children.  Each slice's surviving children are expanded before the next
slice is read, so the flags come out in the node-by-node DFS order.  Every
search narrows a child's candidates the same way: its parent's after its
point, ANDed with the rows of its coset's points (the point's
perpendicularity row in the enumerator, the q^d line rows G[j + s] in the
engine, none in `iter_subspaces`); a child below the count bound is cut.

Exact counts.  The node-by-node DFS counts a child when it enters it, cut
or not, and walks a surviving child's subtree before it reads the next
sibling.  A pass reads its pairs ahead of that order, so it counts them
only up to and including its first survivor, and gives every survivor the
gap from it to the next survivor (to the pass's end, after the last): the
pairs the DFS counts once that survivor's subtree is done, all of them cut
but the next survivor.  A frame credits a node's gap to its depth once the
expansion has passed the node, and its parent frame up to the node's parent
row in turn; a leaf is counted as it is yielded, after its parent's frame
is credited up to it.  So whenever a flag is yielded, and at the end, the
counts by depth equal the DFS's: the engine stops at its first witness, and
the ranges of a parallel run sum to the serial count.

A greedy flag read backwards is the RREF basis of its span, so a block of
leaves needs no elimination.  A flag point p_j after p_i has the larger
canonical index and is zero at p_i's leading column (the pivot-column
test), so its leading column comes first (a later one would make p_j the
smaller point): the leading columns fall along the flag, and p_i, zero
before its own, is zero at p_j's.  Every point is 1 at its leading column
and zero at the others'.

Perpendicularity, B(x, v) = 0, of points is decided in one place, `Perp`:
the partial-ovoid test, the ovoid scan, fingerprints, the hyperplane
census, the symplectic line rows and the enumerator's filter all ask it.
A caller that asks about many points at once gets one kind of answer, the
bitsets of the points off the kernels of a block of functionals B(., v)
(`Perp.off`), and a caller that reads every functional reads them a block
at a time (`Perp.off_blocks`).  (The t.i. test of a basis M is the Gram
product M G M^T.)  For p = 2 keys within 62 bits, it is a bit test on the
keys.  For p = 2 a key is the n*e bits of the coordinates' ranks, and
ranking is GF(2)-linear, so key(x) is a GF(2)-linear bijection.  A
GF(q)-linear functional f is GF(2)-linear too, hence so is x -> rank(f(x)):
bit j of rank(f(x)) is the parity of key(x) & mask_j, where mask_j marks the
key bits b for which the basis vector u_b with key 1 << b has bit j set in
rank(f(u_b)) (`KeyPacking.kernel_masks`).  f(x) = 0 iff every such parity is
even.  The functional B(., v) has coefficient row v G^T, so `Perp` keeps e
masks per vector v.  The masks are GF(2)-linear in key(v) as well, so they
too are looked up, not computed: the space keeps the masks of the unit
vectors in tables (`mask_tables`, as below), and v's masks are one entry
per 8 bits of key(v).  The parity is GF(2)-linear in the key bits, so for
many points at once it is the XOR of the key *bit planes* of mask_j's
bits: plane b is the bitset of the points whose key has bit b set
(`key_planes`).  So one functional's test over N points is e
XOR-reductions over bitsets of N/64 words (`Perp.narrow`), and the planes
take nbits/64 of the keys' memory.  For many functionals at once the
planes go into *plane tables* (`plane_tables`): entry s of group c is the
XOR of the planes 8c + i for the bits i set in s, so the XOR of any set of
planes is one entry per 8-bit group of its mask (the Method of Four
Russians: V. L. Arlazarov, E. A. Dinic, M. A. Kronrod and I. A. Faradzev,
1970).  A block of functionals' bitsets of the points off their kernels is
then e times groups gathers (`off_kernel`).  The tables take 32 bytes per
point and group; they are refused over MAX_BITSET_BYTES.  A `Perp` makes
its planes, and their tables, when `narrow` or `off` first needs them.

Odd p, and p = 2 spaces whose keys need more than 62 bits, use digit
tables, in integers only.  Let d_b(x) be the D = n e base-p digits of the
ranks of x's coordinates, digit b = i e + k the k-th of coordinate i, and
u_b the vector with d_b = 1 and every other digit 0.  x is the GF(p)-sum of
d_b(x) u_b and rank is GF(p)-linear, so digit j of rank(B(x, v)) is
sum_b d_b(x) c_(j,b)(v) mod p, with c_(j,b)(v) digit j of rank(B(u_b, v));
B(x, v) = 0 iff every such sum is 0 mod p.  The c_(j,b)(v) are GF(p)-linear
in v's digits, so they are v's digits times one integer matrix the space
keeps (`digit_gram`), reduced mod p.  The digits go in chunks of c,
p^c <= 256 (`DigitLayout`): a point's chunk is one index, looked up from
the key field of the coordinates it covers, so no row is made from the
keys.  A functional's table for a chunk holds the chunk's sum for all p^c
digit values, one row of a table of dot products per digit j, each j in
its own field of a uint16 entry, wide enough for the sum over all chunks.
A block of functionals over N points is then one gather of N entries per
chunk and functional, added, and one lookup of whether every field is 0
mod p (`digit_off`; the Method of Four Russians again).

Singular points are solved in the last coordinate, as keys.  Write a point
as y + t e_n with y_n = 0; then Q(y + t e_n) = c + b t + a t^2 with c = Q(y),
b = B(y, e_n) and a = Q(e_n), in every characteristic (B is the
polarization of Q).  The prefixes y of one leading column are built one
free coordinate k at a time, as tables of their keys, Q(y) and B(y, e_j)
for the columns j after k: Q(y + c e_k) = Q(y) + c^2 Q(e_k) + c B(y, e_k),
B(y + c e_k, e_j) = B(y, e_j) + c G[k, j], and the key takes rank(c) at
column k.  So no prefix is made as a row, and the tables stay within
POINT_BLOCK entries per block.  The roots t come from lookup tables of
O(q) entries.  If a = 0 the equation is linear: one root -c/b, or every t
when b = c = 0.  Otherwise, for odd p, (t + h)^2 = h^2 - c/a with
h = b/(2a), and a square-root table gives the roots -h +- s; for p = 2,
t = sqrt(c/a) when b = 0, and else t = (b/a) u with u^2 + u = ac/b^2,
whose solutions are u_0 and u_0 + 1 for u_0 from a table of least
solutions.  Each prefix's roots are emitted in ascending tower index, and a
point's key is its prefix's key with rank(t) in the last digit.  The
prefixes are the canonical points of the first n - 1 coordinates in
ascending canonical index (each new coordinate is expanded prefix-major)
and t is the least significant digit, so the keys come out ascending, as a
filter over all points would give them.  The space keeps these keys
(`singular_keys`); the rows (`singular_points`) are unpacked from them by
`linalg.key_rows` only when asked for.

Member maps run on stacks.  The lift through a nonsingular point z
(`ZProjection.lift`) and the field descent (`DescentMap.subspaces`) take
all members of a family at once, as one (B, k, n) array of bases: each
step is one array operation over the stack, and the echelon forms come
from `linalg.rref_stack`, which reduces every matrix of the stack in one
column loop to the bytes `rref` gives it alone.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, lru_cache

import numpy as np

from .gf import FieldError, FieldView, sqrt_char2, standalone, trace_form
from .linalg import (
    KeyPacking,
    Subspace,
    _key_shifts,
    _ranks,
    all_points,
    canonical_keys,
    canonical_point_blocks,
    canonicalize,
    canonicalize_points,
    express,
    extend_basis,
    key_rows,
    mat_mul,
    rref,
    rref_stack,
    stacked_point_blocks,
)

# desk-scale caps, each checked before the array it bounds is made: points
# in a listed universe, maximal subspaces listed, bytes of a bitset matrix
MAX_ENUM_POINTS = 6_000_000
MAX_ENUM_SUBSPACES = 2_000_000
MAX_BITSET_BYTES = 1 << 30
# int64 entries of a singular-point block: its prefixes times q, which
# bounds its points
POINT_BLOCK = 1 << 19
# uint64 entries of a block's temporaries in a plane-table test (`Perp.off`,
# the census), or four times as many uint16 sums in a digit-table test: 125
# KB, under malloc's default 128 KiB mmap threshold, so the blocks reuse heap
# memory.  Blocks of 512 KiB could each be mapped afresh: the q = 8 census
# then took 67,000 page faults and 0.25 s instead of 0.07 s.
KERNEL_BLOCK = 16_000


class OutOfDeskScale(RuntimeError):
    """The requested exhaustive computation would make an array over one of
    the desk-scale caps (MAX_ENUM_POINTS, MAX_ENUM_SUBSPACES,
    MAX_BITSET_BYTES)."""


class SearchTimeout(RuntimeError):
    """The maximality search exceeded its time budget."""


class TsType(Enum):
    SAME = "same"
    OTHER = "other"


class FormedSpace:
    """Vector space with a symplectic and/or quadratic form."""

    def __init__(self, fv: FieldView, dim: int, kind: str, gram: np.ndarray, qcoef=None):
        self.fv = fv
        self.dim = dim
        self.kind = kind
        gram = np.ascontiguousarray(gram, dtype=np.int64)
        gram.flags.writeable = False
        self.gram = gram
        if qcoef is not None:
            qcoef = np.ascontiguousarray(qcoef, dtype=np.int64)
            qcoef.flags.writeable = False
        self.qcoef = qcoef
        self._qterms = None
        self._singular = None
        self._singular_keys = None
        self._m0 = None
        self._hyperbolic = None
        self._max_ts = None
        self._validate()

    def _validate(self) -> None:
        if self.qcoef is not None:
            if not np.array_equal(_polarization(self.fv, self.qcoef), self.gram):
                raise FieldError("Gram matrix is not the polarization of Q")
        if self.kind == "symplectic":
            if np.any(np.diagonal(self.gram)):
                raise FieldError("symplectic Gram must have zero diagonal")

    # -- scalars -----------------------------------------------------------
    @property
    def q(self) -> int:
        return self.fv.q

    @property
    def witt_index(self) -> int:
        if self.kind in ("symplectic", "orthogonal_plus"):
            return self.dim // 2
        if self.kind == "parabolic":
            return (self.dim - 1) // 2
        if self.kind == "orthogonal_minus":
            return self.dim // 2 - 1
        raise FieldError(f"unknown kind {self.kind}")

    def point_count(self) -> int:
        return (self.q**self.dim - 1) // (self.q - 1)

    def singular_count(self) -> int:
        """Closed-form number of singular projective points."""
        q, n = self.q, self.dim
        if self.kind == "symplectic":
            return self.point_count()
        if self.kind == "orthogonal_plus":
            m = n // 2
            return (q ** (m - 1) + 1) * (q**m - 1) // (q - 1)
        if self.kind == "parabolic":
            m = (n - 1) // 2
            return _parabolic_singular(q, m)
        if self.kind == "orthogonal_minus":
            m = n // 2
            return (q ** (m - 1) - 1) * (q**m + 1) // (q - 1)
        raise FieldError(f"unknown kind {self.kind}")

    # -- form evaluation ---------------------------------------------------
    def bform(self, u, v) -> int:
        tw = self.fv.tower
        acc = 0
        for i in range(self.dim):
            if u[i]:
                row = self.gram[i]
                for j in range(self.dim):
                    if row[j] and v[j]:
                        acc = tw.add(acc, tw.mul(int(u[i]), tw.mul(int(row[j]), int(v[j]))))
        return acc

    def qform(self, v) -> int:
        if self.qcoef is None:
            raise FieldError("space carries no quadratic form")
        tw = self.fv.tower
        acc = 0
        for i, j, c in self.qterms():
            if v[i] and v[j]:
                acc = tw.add(acc, tw.mul(c, tw.mul(int(v[i]), int(v[j]))))
        return acc

    def qterms(self):
        if self._qterms is None:
            terms = []
            if self.qcoef is not None:
                for i in range(self.dim):
                    for j in range(i, self.dim):
                        if self.qcoef[i, j]:
                            terms.append((i, j, int(self.qcoef[i, j])))
            self._qterms = tuple(terms)
        return self._qterms

    def vqform(self, rows: np.ndarray) -> np.ndarray:
        tw = self.fv.tower
        acc = np.zeros(len(rows), dtype=np.int64)
        for i, j, c in self.qterms():
            term = tw.vmul(rows[:, i], rows[:, j])
            if c != 1:
                term = tw.vmul(np.int64(c), term)
            acc = tw.vadd(acc, term)
        return acc

    def vbform(self, rows: np.ndarray, v: np.ndarray) -> np.ndarray:
        """B(row, v) for every row."""
        tw = self.fv.tower
        w = mat_mul(self.fv, np.asarray(v, dtype=np.int64)[None, :], self.gram.T)[0]
        acc = np.zeros(len(rows), dtype=np.int64)
        for i in range(self.dim):
            if w[i]:
                acc = tw.vadd(acc, tw.vmul(rows[:, i], np.int64(w[i])))
        return acc

    @cached_property
    def bit_packing(self) -> KeyPacking | None:
        """The view-local p = 2 keys of the space's vectors, or None for odd p
        or when the n*e key bits exceed 62."""
        if self.fv.p != 2:
            return None
        try:
            return KeyPacking(self.fv, self.dim)
        except FieldError:
            return None

    @cached_property
    def mask_tables(self) -> np.ndarray | None:
        """`plane_tables` of the kernel masks of B(., u_b) for the vectors
        u_b with key 1 << b, or None without a `bit_packing`.  B(., v) is
        GF(2)-linear in key(v), so the masks of v are `table_xor` of these
        at key(v) (`Perp`)."""
        bits = self.bit_packing
        if bits is None:
            return None
        units = key_rows(self.fv, np.int64(1) << np.arange(self.dim * self.fv.degree), self.dim)
        return plane_tables(bits.kernel_masks(mat_mul(self.fv, units, self.gram.T)))

    @cached_property
    def digit_layout(self) -> "DigitLayout":
        """The chunks of `digit_off` for the dim e digits of a vector."""
        return DigitLayout.make(self.fv.p, self.fv.degree, self.dim)

    @cached_property
    def digit_gram(self) -> np.ndarray:
        """(D, slots D) integer matrix A with A[b', j D + b] the j-th base-p
        digit of rank(B(u_b, u_b')) (0 for the padding slots j >= e),
        for the D = dim e vectors u_b whose rank digits are all 0 but digit
        b = i e + k, 1: the element of rank p^k at coordinate i.  B is
        bilinear and rank GF(p)-linear, so the digit coefficients
        c_(j,b)(v) of the functional B(., v) are the digits of v times A,
        mod p (`digit_off`)."""
        fv, n, slots = self.fv, self.dim, self.digit_layout.slots
        e, p = fv.degree, fv.p
        b = np.arange(n * e)
        units = np.zeros((n * e, n), dtype=np.int64)
        units[b, b // e] = fv.elements()[p ** (b % e)]
        ranks = _ranks(fv)[mat_mul(fv, mat_mul(fv, units, self.gram), units.T)]  # [b, b']
        digits = np.zeros((n * e, slots, n * e), dtype=np.int64)  # [b', j, b]
        digits[:, :e] = ranks.T[:, None, :] // (p ** np.arange(e))[:, None] % p
        return digits.reshape(n * e, -1)

    # -- predicates ---------------------------------------------------------
    def ti_mask(self, bases: np.ndarray) -> np.ndarray:
        """Per basis of an (m, k, n) stack, whether B vanishes on every pair
        of its rows: the Gram products M G M^T are zero, summed over the
        nonzero entries of G for the whole stack at once."""
        tw = self.fv.tower
        m, k, _ = bases.shape
        acc = np.zeros((m, k, k), dtype=np.int64)
        for i, j in zip(*np.nonzero(self.gram)):
            prod = tw.vmul(bases[:, :, i, None], bases[:, None, :, j])
            acc = tw.vadd(acc, tw.vmul(self.gram[i, j], prod))
        return ~acc.any(axis=(1, 2))

    def ts_mask(self, bases: np.ndarray) -> np.ndarray:
        """Per basis of an (m, k, n) stack, whether it spans a t.s.
        subspace: Q vanishes on its rows (one `vqform` over all m k rows)
        and B on their pairs (`ti_mask` of the bases that pass)."""
        if self.qcoef is None:
            raise FieldError("t.s. requires a quadratic form")
        m, k, n = bases.shape
        ok = ~self.vqform(bases.reshape(-1, n)).reshape(m, k).any(axis=1)
        ok[ok] = self.ti_mask(bases[ok])
        return ok

    def is_ti(self, sub: Subspace) -> bool:
        return bool(self.ti_mask(sub.mat[None])[0])

    def is_ts(self, sub: Subspace) -> bool:
        return bool(self.ts_mask(sub.mat[None])[0])

    def is_anisotropic(self, sub: Subspace) -> bool:
        pts = sub.points()
        return len(pts) == 0 or not np.any(self.vqform(pts) == 0)

    # -- perp ----------------------------------------------------------------
    def perp(self, sub: Subspace) -> Subspace:
        if sub.dim == 0:
            return Subspace(self.fv, self.dim, np.eye(self.dim, dtype=np.int64))
        constraints = mat_mul(self.fv, sub.mat, self.gram.T)
        return self.nullspace(constraints)

    def nullspace(self, constraints: np.ndarray) -> Subspace:
        """{v : constraints @ v = 0 entrywise over the field}."""
        tw = self.fv.tower
        red = rref(self.fv, constraints)
        pivots = [int(np.argmax(row != 0)) for row in red]
        free = [c for c in range(self.dim) if c not in pivots]
        rows = np.zeros((len(free), self.dim), dtype=np.int64)
        for k, fcol in enumerate(free):
            rows[k, fcol] = 1
            for i, pcol in enumerate(pivots):
                rows[k, pcol] = tw.neg(int(red[i, fcol]))
        return Subspace(self.fv, self.dim, rref(self.fv, rows) if len(rows) else rows)

    # -- point enumeration ---------------------------------------------------
    def _check_enumerable(self) -> None:
        if self.point_count() > MAX_ENUM_POINTS:
            raise OutOfDeskScale(
                f"enumerating {self.point_count()} points exceeds MAX_ENUM_POINTS ({MAX_ENUM_POINTS})"
            )

    def points(self) -> np.ndarray:
        """All canonical points, ascending canonical index."""
        self._check_enumerable()
        return all_points(self.fv, self.dim)

    def point_keys(self) -> np.ndarray:
        """The canonical keys (`linalg.point_keys`) of `points()`, ascending,
        made without the rows."""
        self._check_enumerable()
        return canonical_keys(self.fv, self.dim)

    def singular_keys(self) -> np.ndarray:
        """The canonical keys of the singular points, ascending; cached and
        read-only.  For p = 2 they are also the keys of `bit_packing`, when
        it exists.  They are solved in the last coordinate (module
        docstring); every point is singular when there is no Q."""
        if self._singular_keys is None:
            self._check_enumerable()
            if self.qcoef is None:
                keys = canonical_keys(self.fv, self.dim)
            else:
                keys = self._singular_by_last_coordinate()
            keys.flags.writeable = False
            self._singular_keys = keys
        return self._singular_keys

    def singular_points(self) -> np.ndarray:
        """The rows of `singular_keys()`, in the same order; made when first
        asked for, cached and read-only."""
        if self._singular is None:
            pts = key_rows(self.fv, self.singular_keys(), self.dim)
            pts.flags.writeable = False
            self._singular = pts
        return self._singular

    def _singular_by_last_coordinate(self) -> np.ndarray:
        """The keys of the singular points, solved in the last coordinate over
        prefix tables (module docstring), ascending."""
        fv, n, q = self.fv, self.dim, self.fv.q
        _, shifts = _key_shifts(fv, n)
        a = int(self.qcoef[-1, -1])  # Q(e_n)
        chunks = [np.ones(1, dtype=np.int64)] if a == 0 else []  # e_n, key rank(1) = 1
        cap = max(1, POINT_BLOCK // q)  # prefixes per block
        ranks = _ranks(fv)
        for lead in range(n - 2, -1, -1):
            free = n - 2 - lead  # the columns lead + 1 .. n - 2
            tail = 0  # the free columns expanded per block
            while tail < free and q ** (tail + 1) <= cap:
                tail += 1
            # y = e_lead: its key, Q(y) and B(y, e_j) for j > lead
            head = (
                np.int64(1) << shifts[lead, None],
                self.qcoef[lead, lead, None],
                self.gram[lead, None, lead + 1 :],
            )
            head = self._prefix_table(head, lead + 1, free - tail)
            step = max(1, cap // q**tail)
            for lo in range(0, len(head[0]), step):
                part = tuple(h[lo : lo + step] for h in head)
                key, qy, by = self._prefix_table(part, n - 1 - tail, tail)
                row, t = _quadratic_roots(fv, a, by[:, 0], qy)
                chunks.append(key[row] | ranks[t])
        return np.concatenate(chunks) if chunks else np.zeros(0, dtype=np.int64)

    def _prefix_table(self, table, first: int, count: int):
        """Expand the prefixes y of `table` (key, Q(y), B(y, e_j) for the
        columns j from `first` on) by y + c e_k, c in the view, for the
        columns k = first .. first + count - 1 in turn: Q(y + c e_k) =
        Q(y) + c^2 Q(e_k) + c B(y, e_k), B(y + c e_k, e_j) = B(y, e_j) +
        c G[k, j] and the key takes rank(c) at column k.  Prefix major and
        c ascending, so the keys stay ascending."""
        tw, elems, n = self.fv.tower, self.fv.elements(), self.dim
        _, shifts = _key_shifts(self.fv, n)
        digits = np.arange(len(elems), dtype=np.int64)
        key, qy, by = table
        for k in range(first, first + count):
            cq = tw.vmul(tw.vmul(elems, elems), self.qcoef[k, k])
            qy = tw.vadd(tw.vadd(qy[:, None], cq[None, :]), tw.vmul(by[:, :1], elems[None, :]))
            cg = tw.vmul(elems[:, None], self.gram[k, None, k + 1 :])
            by = tw.vadd(by[:, None, 1:], cg[None]).reshape(-1, n - 1 - k)
            key = (key[:, None] | (digits << shifts[k])[None, :]).ravel()
            qy = qy.ravel()
        return key, qy, by

    def first_nonsingular_point(self) -> np.ndarray:
        if self.qcoef is None:
            raise FieldError("symplectic spaces have no nonsingular points")
        for block in canonical_point_blocks(self.fv, self.dim, chunk=4096):
            hit = block[self.vqform(block) != 0]
            if len(hit):
                return hit[0]
        raise FieldError("no nonsingular point")

    # -- reference maximal t.s. subspace and types ---------------------------
    def m0(self) -> Subspace:
        if self._m0 is None:
            h = self.hyperbolic_basis()
            self._m0 = canonicalize(self.fv, h[0::2], self.dim)
        return self._m0

    def hyperbolic_basis(self) -> np.ndarray:
        """Rows e1,f1,e2,f2,... with Q(e)=Q(f)=0, B(e_i,f_j)=delta_ij.

        Only for nondegenerate symplectic / plus-type spaces."""
        if self._hyperbolic is None:
            if self.kind not in ("symplectic", "orthogonal_plus"):
                raise FieldError("hyperbolic basis requires symplectic or plus-type space")
            self._hyperbolic = _hyperbolic_basis(self)
        return self._hyperbolic

    def ts_type(self, w: Subspace) -> TsType:
        n = self.witt_index
        if w.dim != n or not (self.is_ts(w) if self.qcoef is not None else self.is_ti(w)):
            raise FieldError("not a maximal totally singular subspace")
        inter = w.intersect(self.m0())
        return TsType.SAME if (inter.dim - n) % 2 == 0 else TsType.OTHER

    # -- maximal t.s./t.i. enumeration ---------------------------------------
    def maximal_totally_singular(self) -> list[Subspace]:
        """Every maximal t.s. (orthogonal) or t.i. (symplectic) subspace."""
        if self._max_ts is None:
            pts = self.singular_points()
            self._max_ts = _enumerate_maximal_flags(self, pts, self.witt_index, MAX_ENUM_SUBSPACES)
        return self._max_ts

    # -- serialization ---------------------------------------------------------
    def descriptor(self) -> dict:
        return {
            "kind": self.kind,
            "dim": self.dim,
            "field": self.fv.descriptor(),
            "gram": self.gram.tolist(),
            "qcoef": None if self.qcoef is None else self.qcoef.tolist(),
        }

    def __repr__(self) -> str:
        return f"FormedSpace({self.kind}, dim={self.dim}, q={self.q})"


def _parabolic_singular(q: int, m: int) -> int:
    # (q^m+1)(q^m-1)/(q-1) singular points for the 2m+1-dim parabolic space
    return (q**m + 1) * (q**m - 1) // (q - 1)


@lru_cache(maxsize=None)
def _root_tables(fv: FieldView) -> tuple[np.ndarray, np.ndarray]:
    """Indexed by the rank of k in the view: the least s with s^2 = k and
    the least u with u^2 + u = k, or -1 where there is none (q entries
    each)."""
    tw, elems = fv.tower, fv.elements()
    squares = tw.vmul(elems, elems)
    tables = []
    for image in (squares, tw.vadd(squares, elems)):
        table = np.full(len(elems), -1, dtype=np.int64)
        ranks, first = np.unique(np.searchsorted(elems, image), return_index=True)
        table[ranks] = elems[first]  # elems ascend, so the first is the least
        tables.append(table)
    return tuple(tables)


def _quadratic_roots(fv: FieldView, a: int, b: np.ndarray, c: np.ndarray):
    """Every root t in the view of c + b t + a t^2 = 0 for each entry of b
    and c (module docstring): (row, t), by entry and then by ascending
    tower index."""
    tw, elems = fv.tower, fv.elements()
    lo = np.full(len(b), -1, dtype=np.int64)
    hi = lo.copy()
    every = np.zeros(len(b), dtype=bool)
    if a == 0:
        nz = b != 0
        lo[nz] = tw.vmul(tw.vneg(c[nz]), tw.vinv(b[nz]))
        every = ~nz & (c == 0)
    else:
        sqrt, least = _root_tables(fv)
        inv_a = np.int64(tw.inv(a))
        if fv.p == 2:
            z = b == 0
            lo[z] = sqrt[np.searchsorted(elems, tw.vmul(c[z], inv_a))]
            nz = np.nonzero(~z)[0]
            ba = tw.vmul(b[nz], inv_a)
            k = tw.vmul(tw.vmul(c[nz], np.int64(a)), tw.vinv(tw.vmul(b[nz], b[nz])))
            u = least[np.searchsorted(elems, k)]
            ok = u >= 0
            nz, ba = nz[ok], ba[ok]
            t0 = tw.vmul(ba, u[ok])
            t1 = tw.vadd(t0, ba)
        else:
            h = tw.vmul(b, np.int64(tw.inv(tw.mul(2, a))))
            s = sqrt[np.searchsorted(elems, tw.vadd(tw.vmul(h, h), tw.vneg(tw.vmul(c, inv_a))))]
            nz = np.nonzero(s >= 0)[0]
            mh, s = tw.vneg(h[nz]), s[nz]
            t0 = tw.vadd(mh, s)
            t1 = np.where(s == 0, -1, tw.vadd(mh, tw.vneg(s)))  # a double root once
        lo[nz] = np.where(t1 < 0, t0, np.minimum(t0, t1))
        hi[nz] = np.where(t1 < 0, -1, np.maximum(t0, t1))
    counts = (lo >= 0).astype(np.int64) + (hi >= 0)
    counts[every] = len(elems)
    row = np.repeat(np.arange(len(b)), counts)
    j = np.arange(len(row)) - np.repeat(np.cumsum(counts) - counts, counts)
    t = np.where(every[row], elems[j], np.where(j == 0, lo[row], hi[row]))
    return row, t


# -- standard spaces ---------------------------------------------------------


def make_symplectic(fv: FieldView, gram: np.ndarray) -> FormedSpace:
    return FormedSpace(fv, gram.shape[0], "symplectic", gram)


def _polarization(fv: FieldView, qcoef: np.ndarray) -> np.ndarray:
    """Gram matrix of B(u, v) = Q(u + v) - Q(u) - Q(v) for upper-triangular Q."""
    tw = fv.tower
    upper = np.triu(qcoef, 1)
    diag = tw.vmul(np.int64(tw.add(1, 1)), np.diagonal(qcoef))
    return upper + upper.T + np.diag(diag)


def make_orthogonal(fv: FieldView, qcoef: np.ndarray, kind: str) -> FormedSpace:
    return FormedSpace(fv, qcoef.shape[0], kind, _polarization(fv, qcoef), qcoef)


def sp_space(q: int, n: int) -> FormedSpace:
    """Sp(2n, q) with hyperbolic-pair Gram: pairs (x1,x2), (x3,x4), ..."""
    return sp_space_over(standalone(q), n)


@lru_cache(maxsize=None)
def oplus_space(q: int, n: int) -> FormedSpace:
    """O+(2n, q) with Q = x1 x2 + x3 x4 + ..."""
    return oplus_space_over(standalone(q), n)


@lru_cache(maxsize=None)
def oplus_space_over(fv: FieldView, n: int) -> FormedSpace:
    qc = np.zeros((2 * n, 2 * n), dtype=np.int64)
    for i in range(n):
        qc[2 * i, 2 * i + 1] = 1
    space = make_orthogonal(fv, qc, "orthogonal_plus")
    m0 = np.zeros((n, 2 * n), dtype=np.int64)
    for i in range(n):
        m0[i, 2 * i] = 1
    space._m0 = canonicalize(fv, m0, 2 * n)
    return space


@lru_cache(maxsize=None)
def parabolic_space(q: int) -> FormedSpace:
    """Parabolic O(5, q) with Q = x0^2 + x1 x2 + x3 x4.

    In characteristic 2 the bilinear radical is <e0> (the nucleus)."""
    fv = standalone(q)
    qc = np.zeros((5, 5), dtype=np.int64)
    qc[0, 0] = 1
    qc[1, 2] = 1
    qc[3, 4] = 1
    return make_orthogonal(fv, qc, "parabolic")


# -- hyperbolic bases, isometries --------------------------------------------


def _first_point(sub: Subspace, test) -> np.ndarray:
    """The first point of sub in canonical order where test(points) holds,
    read block by block, so the points after it are never made."""
    for block in stacked_point_blocks(sub.fv, sub.mat[None]):
        hit = np.flatnonzero(test(block[0]))
        if len(hit):
            return block[0, hit[0]]
    raise FieldError("no point of the subspace passes the test")


def _hyperbolic_basis(space: FormedSpace) -> np.ndarray:
    fv = space.fv
    tw = fv.tower
    has_q = space.qcoef is not None
    cur = np.eye(space.dim, dtype=np.int64)
    pairs = []
    for _ in range(space.dim // 2):
        sub = canonicalize(fv, cur, space.dim)
        # the first singular point, then the first point it pairs with
        if has_q:
            e = _first_point(sub, lambda pts: space.vqform(pts) == 0)
        else:
            e = _first_point(sub, lambda pts: np.ones(len(pts), dtype=bool))
        partner = _first_point(sub, lambda pts: space.vbform(pts, e) != 0)
        f = tw.vmul(partner, np.int64(tw.inv(space.bform(partner, e))))
        # force B(e,f)=1 orientation
        if space.bform(e, f) != 1:
            f = tw.vmul(f, np.int64(tw.inv(space.bform(e, f))))
        if has_q:
            lam = tw.neg(space.qform(f))
            f = tw.vadd(f, tw.vmul(np.int64(lam), e))
        pairs.extend([e, f])
        bfe = space.bform(f, e)
        new_rows = []
        for v in cur:
            a = tw.neg(tw.div(space.bform(v, f), space.bform(e, f)))
            b = tw.neg(tw.div(space.bform(v, e), bfe))
            w = tw.vadd(v, tw.vadd(tw.vmul(np.int64(a), e), tw.vmul(np.int64(b), f)))
            new_rows.append(w)
        cur = rref(fv, np.array(new_rows))
    out = np.array(pairs, dtype=np.int64)
    if has_q and any(space.qform(v) != 0 for v in out):
        raise FieldError("hyperbolic basis vectors must be singular")
    return out


@dataclass(frozen=True)
class LinearMap:
    """Row-vector map v -> v @ matrix between spaces over the same field."""

    src: FormedSpace
    dst: FormedSpace
    matrix: np.ndarray

    def vector(self, rows: np.ndarray) -> np.ndarray:
        rows = np.asarray(rows, dtype=np.int64)
        single = rows.ndim == 1
        out = mat_mul(self.src.fv, rows[None, :] if single else rows, self.matrix)
        return out[0] if single else out

    def subspace(self, sub: Subspace) -> Subspace:
        return canonicalize(self.dst.fv, self.vector(sub.mat), self.dst.dim)

    def inverse(self) -> "LinearMap":
        fv = self.src.fv
        inv = express(fv, self.matrix, np.eye(self.matrix.shape[0], dtype=np.int64))
        return LinearMap(self.dst, self.src, inv)


def find_isometry(src: FormedSpace, dst: FormedSpace) -> LinearMap:
    """Form-preserving bijection built by matching hyperbolic bases."""
    if src.fv != dst.fv or src.dim != dst.dim:
        raise FieldError("isometry requires matching field views and dimensions")
    h1 = src.hyperbolic_basis()
    h2 = dst.hyperbolic_basis()
    fv = src.fv
    c = express(fv, h1, np.eye(src.dim, dtype=np.int64))
    return LinearMap(src, dst, mat_mul(fv, c, h2))


# -- embeddings ----------------------------------------------------------------


def embed(small: FormedSpace, big: FormedSpace, target_rows: np.ndarray) -> LinearMap:
    """Linear injection sending the i-th unit vector of `small` to
    target_rows[i]; form values are checked exactly on the basis."""
    target_rows = np.asarray(target_rows, dtype=np.int64)
    if target_rows.shape != (small.dim, big.dim):
        raise FieldError("target basis has the wrong shape")
    if rref(big.fv, target_rows).shape[0] != small.dim:
        raise FieldError("target basis is not independent")
    for i in range(small.dim):
        for j in range(small.dim):
            want = small.gram[i, j]
            got = big.bform(target_rows[i], target_rows[j])
            if want != got:
                raise FieldError(f"Gram mismatch at ({i},{j}): {want} vs {got}")
        if small.qcoef is not None:
            if big.qcoef is None:
                raise FieldError("cannot embed an orthogonal space into a symplectic one")
            want = small.qform(np.eye(small.dim, dtype=np.int64)[i])
            got = big.qform(target_rows[i])
            if want != got:
                raise FieldError(f"Q mismatch on basis vector {i}: {want} vs {got}")
    return LinearMap(small, big, target_rows)


@lru_cache(maxsize=None)
def parabolic_in_oplus8(q: int) -> LinearMap:
    """Standard copy of O(5,q) inside O+(8,q): basis e3+f3, e1, f1, e2, f2."""
    big = oplus_space(q, 4)
    small = parabolic_space(q)
    rows = np.zeros((5, 8), dtype=np.int64)
    rows[0, 4] = 1
    rows[0, 5] = 1
    rows[1, 0] = 1
    rows[2, 1] = 1
    rows[3, 2] = 1
    rows[4, 3] = 1
    return embed(small, big, rows)


# -- projection z-perp / z and its inverse lift --------------------------------


class ZProjection:
    """Projection of a plus-type space O+(2n, q), q even, through a
    nonsingular point z into the symplectic quotient z-perp / z, with
    subspace transport and its inverse, the lift.

    The lift takes a maximal t.i. subspace of the quotient to a maximal
    t.s. subspace M with <z-perp meet M, z> / z equal to it, of a chosen
    type; it runs on a whole stack of members at once.  The preimage U of
    a member is t.i. and holds z, and sqrt(Q) is linear on it (q even), so
    its singular vectors form the hyperplane U' = ker sqrt(Q) of U.  U' is
    t.s. of dimension n - 1, so it lies in exactly two maximal t.s.
    subspaces, one of each type: <U', s> for the two singular points s of
    U'-perp / U', a plus-type line.  With y in U'-perp and B(y, z) = 1,
    U'-perp = U' + <z, y>, and the singular points are a z + y for the two
    roots a of Q(z) a^2 + B(z, y) a + Q(y) = 0 (z is nonsingular, so it is
    not one of them).  M has the type of m0 iff dim(M meet m0) - n =
    n - rank [M; m0] is even."""

    def __init__(self, space: FormedSpace, z: np.ndarray):
        if space.kind != "orthogonal_plus":
            raise FieldError("projection requires a plus-type space")
        if space.fv.char != 2:
            raise FieldError("projection requires characteristic 2")
        z = np.asarray(z, dtype=np.int64)
        if space.qform(z) == 0:
            raise FieldError("z must be nonsingular")
        self.space = space
        self.z = z
        fv = space.fv
        zsub = canonicalize(fv, [z], space.dim)
        self.zperp = space.perp(zsub)
        self.comp = extend_basis(fv, z[None, :], self.zperp.mat, space.dim - 2)
        if len(self.comp) != space.dim - 2:
            raise FieldError("complement extraction failed")
        gram = mat_mul(fv, mat_mul(fv, self.comp, space.gram), self.comp.T)
        self.quotient = make_symplectic(fv, gram)
        if rref(fv, gram).shape[0] != space.dim - 2:
            raise FieldError("degenerate quotient form")
        self._stacked = np.vstack([self.comp, z[None, :]])

    def to_quotient(self, rows: np.ndarray) -> np.ndarray:
        """Coordinates of z-perp vectors modulo z in the complement basis."""
        c = express(self.space.fv, self._stacked, np.atleast_2d(rows))
        return c[:, :-1]

    def transport(self, x: Subspace) -> Subspace:
        """X -> <z-perp meet X, z> / z."""
        cut = self.zperp.intersect(x)
        return canonicalize(self.space.fv, self.to_quotient(cut.mat), self.space.dim - 2)

    def lift(
        self, bases: np.ndarray, target_type: TsType, iso: LinearMap | None = None
    ) -> list[Subspace]:
        """The lifts of type `target_type` (class docstring) of the maximal
        t.i. subspaces of the quotient given by a (B, n - 1, 2n - 2) stack of
        bases, in the quotient's coordinates or, with an isometry `iso` onto
        the quotient, in those of iso.src; canonical, in stack order.  Every
        step is one array operation over the stack: one product through
        iso and the complement, one `ti_mask`, two `vqform` calls, four
        `rref_stack` reductions and one `ts_mask`.  Raises FieldError if a
        preimage is not t.i. or not of full rank, if sqrt(Q) vanishes on
        one, or if a member does not have exactly one extension of the
        requested type."""
        space, fv = self.space, self.space.fv
        tw, dim = fv.tower, space.dim
        n = dim // 2
        through = self.comp if iso is None else mat_mul(fv, iso.matrix, self.comp)
        bases = np.asarray(bases, dtype=np.int64)
        if bases.ndim != 3 or bases.shape[1:] != (n - 1, through.shape[0]):
            raise FieldError("lift expects a stack of maximal t.i. subspaces of the quotient")
        nmem = len(bases)
        if nmem == 0:
            return []
        at = np.arange(nmem)
        u = np.empty((nmem, n, dim), dtype=np.int64)  # the preimage <member, z>
        u[:, :-1] = mat_mul(fv, bases.reshape(nmem * (n - 1), -1), through).reshape(nmem, -1, dim)
        u[:, -1] = self.z
        if not space.ti_mask(u).all():
            raise FieldError("lifted preimage is not totally isotropic")
        # U' = ker phi, phi = sqrt(Q): u_i + (phi_i / phi_piv) u_piv, i != piv
        phi = sqrt_char2(tw, space.vqform(u.reshape(-1, dim))).reshape(nmem, n)
        if not phi.any(axis=1).all():
            raise FieldError("Q-kernel is not of codimension 1 (z singular or U not t.i.)")
        piv = np.argmax(phi != 0, axis=1)
        coef = tw.vmul(phi, tw.vinv(phi[at, piv])[:, None])
        rows = tw.vadd(u, tw.vmul(coef[:, :, None], u[at, piv][:, None, :]))
        keep = np.arange(n)[None, :] != piv[:, None]
        uprime, ranks = rref_stack(fv, rows[keep].reshape(nmem, n - 1, dim))
        if np.any(ranks != n - 1):
            raise FieldError("lifted preimage is not of full rank")
        # y with B(y, U') = 0 and B(y, z) = 1: [U'; z] G^T y = e_n, solved
        # at the pivot columns of the reduced system
        system = np.zeros((nmem, n, dim + 1), dtype=np.int64)
        system[:, :-1, :dim] = uprime
        system[:, -1, :dim] = self.z
        cons = mat_mul(fv, system[:, :, :dim].reshape(nmem * n, dim), space.gram.T)
        system[:, :, :dim] = cons.reshape(nmem, n, dim)
        system[:, -1, dim] = 1
        red, ranks = rref_stack(fv, system)
        lead = red[:, :, :dim] != 0
        if np.any(ranks != n) or not lead.any(axis=2).all():
            raise FieldError("degenerate preimage: no vector of U'-perp outside U")
        y = np.zeros((nmem, dim), dtype=np.int64)
        y[at[:, None], np.argmax(lead, axis=2)] = red[:, :, dim]
        # the two singular points a z + y of U'-perp / U' and their spans
        row, a = _quadratic_roots(fv, space.qform(self.z), space.vbform(y, self.z), space.vqform(y))
        if not np.array_equal(np.bincount(row, minlength=nmem), np.full(nmem, 2)):
            raise FieldError("U'-perp / U' does not hold exactly two singular points")
        cands = np.empty((len(row), n, dim), dtype=np.int64)
        cands[:, :-1] = uprime[row]
        cands[:, -1] = tw.vadd(tw.vmul(a[:, None], self.z[None, :]), y[row])
        m0 = np.broadcast_to(space.m0().mat, (len(row), n, dim))
        _, ranks = rref_stack(fv, np.concatenate([cands, m0], axis=1))
        same = (n - ranks) % 2 == 0
        hit = same if target_type == TsType.SAME else ~same
        if np.any(hit.reshape(nmem, 2).sum(axis=1) != 1):
            raise FieldError("not exactly one extension of the requested type (geometry bug)")
        lifts, ranks = rref_stack(fv, cands[hit])
        if np.any(ranks != n) or not space.ts_mask(lifts).all():
            raise FieldError("a lift is not a maximal totally singular subspace")
        return Subspace.of_stack(fv, dim, lifts)


# -- field descent --------------------------------------------------------------


class DescentMap:
    """Blow-down of a space over GF(q^r) to GF(q) via the power basis and the
    trace: Q'(v) = T(Q(v)).  Slot i of an E-vector becomes slots
    i*r..i*r+r-1, its coordinates over the power basis.  A list of members
    descends at once (`subspaces`): one table lookup maps every row g b, for
    each basis row b and power-basis element g, and one `rref_stack`
    reduces every member."""

    def __init__(self, space: FormedSpace, to_deg: int):
        fv = space.fv
        tw = fv.tower
        if to_deg not in tw.designated or fv.degree % to_deg:
            raise FieldError("descent target degree must be a designated divisor")
        self.src = space
        self.small = FieldView(tw, to_deg)
        self.basis = tw.subfield_basis(fv.degree, to_deg)
        self.r = fv.degree // to_deg
        # the power-basis coordinates by tower index; -1 off the subfield
        coords = tw.subfield_coords(fv.degree, to_deg)
        self.coords = np.full((tw.order, self.r), -1, dtype=np.int64)
        self.coords[list(coords)] = list(coords.values())
        if space.qcoef is not None:
            # T(Q(v)): a term c v_i v_j gives T(c b_a b_b) at (ia, jb); fold
            # the (jb, ia) entries, nonzero only for i = j, into the upper
            # triangle, where Q keeps its coefficients
            a = trace_form(tw, fv.degree, to_deg, np.triu(space.qcoef), self.basis)
            qc = np.triu(tw.vadd(a, a.T), 1) + np.diag(np.diagonal(a))
            self.dst = make_orthogonal(self.small, qc, "orthogonal_plus")
        else:
            gram = trace_form(tw, fv.degree, to_deg, space.gram, self.basis)
            self.dst = make_symplectic(self.small, gram)

    def subspaces(self, members: list[Subspace]) -> list[Subspace]:
        """The descended subspaces of members of one dimension, in order."""
        if not members:
            return []
        mats = np.stack([m.mat for m in members])  # (B, k, n)
        nmem, k, _ = mats.shape
        basis = np.array(self.basis, dtype=np.int64)
        scaled = self.src.fv.tower.vmul(basis[:, None], mats[:, :, None, :])  # (B, k, r, n)
        rows = self.coords[scaled].reshape(nmem, k * self.r, -1)
        if np.any(rows < 0):
            raise FieldError("a coordinate lies outside the field of the space")
        red, ranks = rref_stack(self.small, rows)
        dim = self.dst.dim
        return [Subspace(self.small, dim, m[:rank]) for m, rank in zip(red, ranks.tolist())]


def field_descend(space: FormedSpace, to_deg: int) -> DescentMap:
    return DescentMap(space, to_deg)


# -- Klein correspondence --------------------------------------------------------


@lru_cache(maxsize=None)
def klein_space_over(fv: FieldView) -> FormedSpace:
    tw = fv.tower
    qc = np.zeros((5, 5), dtype=np.int64)
    qc[0, 0] = 1
    qc[1, 4] = 1
    qc[2, 3] = tw.neg(1)
    return make_orthogonal(fv, qc, "parabolic")


def klein_space(q: int) -> FormedSpace:
    """Parabolic 5-space receiving totally isotropic lines of Sp(4,q).

    Plucker coordinates are ordered (p12, p13, p14, p23, p24, p34); the
    isotropy relation for the hyperbolic-pair Sp(4,q) form is p12 + p34 = 0,
    and dropping p34 leaves the quadratic form y0^2 + y1 y4 - y2 y3."""
    return klein_space_over(standalone(q))


@lru_cache(maxsize=None)
def sp_space_over(fv: FieldView, n: int) -> FormedSpace:
    tw = fv.tower
    gram = np.zeros((2 * n, 2 * n), dtype=np.int64)
    for i in range(n):
        gram[2 * i, 2 * i + 1] = 1
        gram[2 * i + 1, 2 * i] = tw.neg(1)
    return make_symplectic(fv, gram)


def standardize_symplectic(space: FormedSpace) -> tuple[FormedSpace, LinearMap]:
    """Isometry onto the hyperbolic-pair Gram over the same field view."""
    if space.kind != "symplectic":
        raise FieldError("expected a symplectic space")
    std = sp_space_over(space.fv, space.dim // 2)
    return std, find_isometry(space, std)


def klein_point_of_line(space: FormedSpace, line: Subspace) -> np.ndarray:
    """Image of a t.i. line of the standard Sp(4,q) space in klein_space(q)."""
    if line.dim != 2 or line.dim_ambient != 4:
        raise FieldError("expected a line of a 4-dimensional space")
    if not space.is_ti(line):
        raise FieldError("line is not totally isotropic")
    tw = space.fv.tower
    u, v = line.mat

    def pl(i, j):
        return tw.sub(tw.mul(int(u[i]), int(v[j])), tw.mul(int(u[j]), int(v[i])))

    p12, p13, p14, p23, p24, p34 = (
        pl(0, 1),
        pl(0, 2),
        pl(0, 3),
        pl(1, 2),
        pl(1, 3),
        pl(2, 3),
    )
    if tw.add(p12, p34) != 0:
        raise FieldError("Plucker image violates the isotropy section")
    y = np.array([p12, p13, p14, p23, p24], dtype=np.int64)
    return canonicalize_points(space.fv, y[None, :])[0]


# -- canonical-augmentation enumeration ------------------------------------------


class Perp:
    """B(x, v) = 0 for the points x of `pts` and the vectors v of `vs` (by
    default `pts`); the only code that chooses how to test it (module
    docstring): kernel masks of `vs` against the packed keys of `pts` when
    the space has a `bit_packing`, else digit tables.  `keys`, when given,
    are the `point_keys` of `pts`, which for p = 2 are the packed keys; `pts`
    may then be None, and no row is made from them.  The bit planes of the
    keys and their plane tables, or the points' chunk indices, are made when
    `narrow` or `off` first needs them.  The kernel masks or digit tables of
    `vs` are made for each `off` block alone, and masks whole only for
    `narrow`."""

    def __init__(
        self,
        space: FormedSpace,
        pts: np.ndarray | None = None,
        vs: np.ndarray | None = None,
        keys: np.ndarray | None = None,
    ):
        self.space, self.pts, self.keys = space, pts, keys
        self.n = len(keys if pts is None else pts)
        self.vs = vs  # None: the points themselves
        self.m = self.n if vs is None else len(vs)
        bits = space.bit_packing
        if bits is not None and keys is None:
            self.keys = bits.pack(pts)

    def _masks(self, ks: np.ndarray) -> np.ndarray:
        """(len(ks), e) kernel masks of B(., v) for v = vs[ks], looked up by
        key(v)."""
        vkeys = self.keys[ks] if self.vs is None else self.space.bit_packing.pack(self.vs[ks])
        return table_xor(self.space.mask_tables, vkeys)

    @cached_property
    def _planes(self) -> np.ndarray:
        return key_planes(self.keys)

    @cached_property
    def _plane_sel(self) -> np.ndarray:
        # (len(vs), e, nbits): whether mask j of vs[k] has bit b
        bit = np.arange(len(self._planes), dtype=np.int64)
        return (self._masks(np.arange(self.m))[..., None] >> bit & 1).astype(bool)

    @cached_property
    def _tables(self) -> np.ndarray:
        return plane_tables(self._planes)

    def _digits(self, rows: np.ndarray | None) -> np.ndarray:
        """(len, D) base-p digits of rows, or of the points' keys when rows
        is None: digit i e + k the k-th of coordinate i."""
        fv, dim = self.space.fv, self.space.dim
        if rows is not None:
            ranks = _ranks(fv)[rows]
        else:
            width, shifts = _key_shifts(fv, dim)
            ranks = (self.keys[:, None] >> shifts) & ((1 << width) - 1)
        return self.space.digit_layout.digits[ranks].reshape(len(ranks), -1)

    @cached_property
    def _chunks(self) -> np.ndarray:
        """(groups, n) uint8: chunk g of each point's digits (`DigitLayout`).
        From keys, one lookup of the key field of the coordinates the chunk
        covers, so no row is made; from rows, their digits times the chunk
        weights."""
        layout, dim = self.space.digit_layout, self.space.dim
        if self.keys is None:
            digits = self._vdigits if self.vs is None else self._digits(self.pts)
            return (digits @ layout.weights).T.astype(np.uint8)
        width = layout.width
        out = np.empty((layout.groups, self.n), dtype=np.uint8)
        for g, (first, last, table) in enumerate(layout.reads):
            out[g] = table[(self.keys >> width * (dim - 1 - last)) & ((1 << width * (last + 1 - first)) - 1)]
        return out

    @cached_property
    def _vdigits(self) -> np.ndarray:
        """(len(vs), D) base-p digits of vs: of the points, from their keys
        when given, if vs is None."""
        if self.vs is not None:
            return self._digits(self.vs)
        return self._digits(self.pts if self.keys is None else None)

    def narrow(self, k: int, live: np.ndarray) -> np.ndarray:
        """The bitset `live` over pts less the points perpendicular to
        vs[k], on the bit planes: a point stays iff some parity of its key &
        mask_j is odd, and parity j of every point at once is the XOR of the
        planes of mask_j's bits (module docstring)."""
        off = np.zeros_like(live)
        for sel in self._plane_sel[k]:
            off |= np.bitwise_xor.reduce(self._planes[sel], axis=0)
        return live & off

    def off(self, ks: np.ndarray) -> np.ndarray:
        """(len(ks), words): bit x of row r is set iff pts[x] is not
        perpendicular to vs[ks[r]]; the bits past the last point are clear.
        With a `bit_packing`, `off_kernel` on the plane tables of the keys,
        a block of KERNEL_BLOCK words at a time; otherwise `digit_off` on
        the points' chunk indices, a block of 4 KERNEL_BLOCK sums at a
        time.  Refused over MAX_BITSET_BYTES before it is allocated."""
        out = bitset_matrix(len(ks), self.n, "the perpendicularity bitsets")
        if self.space.bit_packing is not None:
            step = max(1, KERNEL_BLOCK // max(1, out.shape[1]))
            for lo in range(0, len(ks), step):
                out[lo : lo + step] = off_kernel(self._tables, self._masks(ks[lo : lo + step]))
            return out
        layout = self.space.digit_layout
        step = max(1, 4 * KERNEL_BLOCK // max(1, layout.subs * self.n))
        for lo in range(0, len(ks), step):
            coef = self._vdigits[ks[lo : lo + step]] @ self.space.digit_gram
            out[lo : lo + step] = digit_off(layout, self._chunks, coef)
        return out

    def off_blocks(self, ks: np.ndarray):
        """Yield (block, off(block)) for the blocks of ks, in order, whose
        bitsets take about KERNEL_BLOCK words, so that a caller reading
        every vector holds one block of bitsets at a time."""
        step = max(1, KERNEL_BLOCK // max(1, (self.n + 63) // 64))
        for lo in range(0, len(ks), step):
            yield ks[lo : lo + step], self.off(ks[lo : lo + step])


@dataclass(frozen=True)
class DigitLayout:
    """How `digit_off` reads the D = dim e base-p digits of a vector: in
    `groups` chunks of `chunk` digits, p^chunk <= 256, so a chunk's digits
    are one index t = sum_l d_(gc+l) p^l below p^chunk: the digits times
    `weights` (D, groups).  `digits` maps a rank to its e digits, and
    `reads` holds, per chunk, the first and last coordinate it covers and a
    table from their key field, `width` bits a coordinate, to t.  A
    functional's coefficients on a chunk are an index a of the same kind,
    and `dots[a, t]` is their dot product mod p.  Rank digit j of B(x, v)
    takes a field of `bits` bits, wide enough for the sum of `groups` dot
    products; `per` fields share one uint16 entry, so the e digits, padded
    to `slots` = subs per, take `subs` entries.  `nonzero[s]` is True iff
    some field of the summed entry s is not 0 mod p."""

    p: int
    e: int
    width: int
    chunk: int
    groups: int
    bits: int
    per: int
    subs: int
    digits: np.ndarray = field(repr=False, compare=False)
    weights: np.ndarray = field(repr=False, compare=False)
    reads: tuple = field(repr=False, compare=False)
    dots: np.ndarray = field(repr=False, compare=False)
    nonzero: np.ndarray = field(repr=False, compare=False)

    @property
    def slots(self) -> int:
        return self.subs * self.per

    @staticmethod
    @lru_cache(maxsize=None)
    def make(p: int, e: int, dim: int) -> "DigitLayout":
        chunk = 1
        while p ** (chunk + 1) <= 256:
            chunk += 1
        ndig = dim * e
        groups = -(-ndig // chunk)
        bits = (groups * (p - 1)).bit_length()
        per = min(e, max(1, 16 // bits))
        width = (p**e - 1).bit_length()
        digits = (np.arange(p**e)[:, None] // p ** np.arange(e) % p).astype(np.uint8)
        b = np.arange(ndig)
        weights = np.zeros((ndig, groups), dtype=np.int64)
        weights[b, b // chunk] = p ** (b % chunk)
        reads = []
        for lo in range(0, ndig, chunk):
            first, last = lo // e, (min(ndig, lo + chunk) - 1) // e
            fields = np.arange(1 << width * (last + 1 - first), dtype=np.int64)
            table = np.zeros(len(fields), dtype=np.int64)
            for b in range(lo, min(ndig, lo + chunk)):
                rank = (fields >> width * (last - b // e)) & ((1 << width) - 1)
                table += rank // p ** (b % e) % p * p ** (b - lo)
            reads.append((first, last, table.astype(np.uint8)))
        sums = np.arange(1 << per * bits, dtype=np.int64)
        fields = (sums[:, None] >> bits * np.arange(per)) & ((1 << bits) - 1)
        nonzero = (fields % p != 0).any(axis=1)
        tdigits = (np.arange(p**chunk)[:, None] // p ** np.arange(chunk) % p).astype(np.uint16)
        dots = sum(np.multiply.outer(d, d) for d in tdigits.T) % p  # sum_l a_l t_l
        subs = -(-e // per)
        return DigitLayout(p, e, width, chunk, groups, bits, per, subs, digits, weights, tuple(reads), dots, nonzero)


def digit_off(layout: DigitLayout, chunks: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """(m, words) bitsets of the points off the kernels of m functionals,
    from the points' chunk indices `chunks` (groups, n) and the functionals'
    digit coefficients `coef` (m, slots D), c_(j,b) at j D + b, not yet
    reduced mod p.

    Rank is GF(p)-linear, so B(x, v) = 0 iff every rank digit j has
    sum_b d_b(x) c_(j,b)(v) = 0 mod p.  Each chunk gives each functional a
    table of that sum over the chunk's digits for all p^chunk digit values
    at once (the Method of Four Russians), a row of `layout.dots` per digit
    j, each in its own field of a uint16 entry.  A point's sums are then one
    gather per chunk, added, and `layout.nonzero` reads whether any of them
    is not 0 mod p."""
    g, subs, per = layout.groups, layout.subs, layout.per
    m = len(coef)
    # (g, m, slots): the chunk's coefficients of each rank digit as one index
    index = ((coef % layout.p).reshape(m, layout.slots, -1) @ layout.weights).transpose(2, 0, 1)
    tables = layout.dots[index]  # (g, m, slots, p^chunk)
    if per > 1:  # the fields of one entry
        shifts = (layout.bits * np.arange(per, dtype=np.uint16))[:, None]
        tables = (tables.reshape(g, m * subs, per, -1) << shifts).sum(axis=2, dtype=np.uint16)
    tables = tables.reshape(g, m * subs, -1)
    acc = np.take(tables[0], chunks[0], axis=1)
    for t in range(1, g):
        acc += np.take(tables[t], chunks[t], axis=1)
    off = layout.nonzero[acc]
    if subs > 1:
        off = off.reshape(m, subs, -1).any(axis=1)
    return pack_bits(off)


def perp_adjacency(space: FormedSpace, pts: np.ndarray) -> np.ndarray:
    """Boolean matrix: adj[i, j] iff pts[i] and pts[j] are perpendicular."""
    off = Perp(space, pts).off(np.arange(len(pts)))
    return np.unpackbits(off.view(np.uint8), axis=1, count=len(pts), bitorder="little") == 0


# int64 keys per block of a line-graph row build
LINE_BLOCK = 1 << 18
# largest vector count q^dim whose keys are looked up in a dense table
DENSE_KEYS = 1 << 20
# uint64 words (or int64 flag entries) made by one pass of the expansion
PASS_WORDS = 1 << 16

# A bitset over a point list is a row of uint64 words: bit j is bit j % 64 of
# word j // 64.


def pack_bits(ok: np.ndarray) -> np.ndarray:
    """Bitsets of the rows of a (m, n) bool array."""
    out = np.zeros((len(ok), (ok.shape[1] + 63) // 64 * 8), dtype=np.uint8)
    out[:, : (ok.shape[1] + 7) // 8] = np.packbits(ok, axis=1, bitorder="little")
    return out.view("<u8")


def key_planes(keys: np.ndarray) -> np.ndarray:
    """(nbits, words) bitsets of the bit planes of nonnegative keys: bit i
    of row b is bit b of keys[i], for the bits up to the largest key's.
    One packbits per bit, over the key byte that holds it."""
    n = len(keys)
    nbits = int(keys.max()).bit_length() if n else 0
    out = np.zeros((nbits, (n + 63) // 64 * 8), dtype=np.uint8)
    octets = keys.astype("<i8", copy=False).view(np.uint8).reshape(n, 8)
    for c in range((nbits + 7) // 8):
        octet = np.ascontiguousarray(octets[:, c])
        for b in range(8 * c, min(nbits, 8 * c + 8)):
            out[b, : (n + 7) // 8] = np.packbits(octet & np.uint8(1 << b % 8), bitorder="little")
    return out.view("<u8")


def plane_tables(planes: np.ndarray) -> np.ndarray:
    """(groups, 256, words) XOR tables of (nbits, words) rows, the bit
    planes of `key_planes` or the kernel masks of `mask_tables`: entry s of
    group c is the XOR of the rows 8c + i for the bits i set in s (a row
    past the last is zero).  Each entry is one earlier entry XOR one row,
    so the tables take one pass.  Refused before they are allocated when
    they exceed MAX_BITSET_BYTES."""
    nbits, words = planes.shape
    groups = (nbits + 7) // 8
    size = groups * 256 * words * planes.itemsize
    if size > MAX_BITSET_BYTES:
        raise OutOfDeskScale(
            f"the plane tables of {nbits} rows of {words} words take {size} bytes,"
            f" over MAX_BITSET_BYTES ({MAX_BITSET_BYTES})"
        )
    out = np.zeros((groups, 256, words), dtype=planes.dtype)
    for b in range(8 * groups):
        c, lo = b // 8, 1 << b % 8
        if b < nbits:
            np.bitwise_xor(out[c, :lo], planes[b], out=out[c, lo : 2 * lo])
        else:
            out[c, lo : 2 * lo] = out[c, :lo]
    return out


def off_kernel(tables: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """(m, words): bit x of row r is set iff the functional with kernel masks
    masks[r] (`KeyPacking.kernel_masks`) is nonzero at point x.  Parity j
    of every point at once is the XOR of the planes of mask_j's bits, so it
    is one table entry per 8-bit group of mask_j (`plane_tables`): e times
    groups gathers of m rows (the Method of Four Russians)."""
    off = np.zeros((len(masks), tables.shape[2]), dtype=tables.dtype)
    for mask in masks.T:
        off |= table_xor(tables, mask)
    return off


def table_xor(tables: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """For each key, the XOR of the rows r_b of `plane_tables(r)` over the
    bits b set in it: the XOR of one entry per 8-bit group."""
    out = np.zeros((len(keys), tables.shape[2]), dtype=tables.dtype)
    for c, table in enumerate(tables):
        out ^= table[keys >> 8 * c & 255]
    return out


def bitset_matrix(rows: int, n: int, what: str) -> np.ndarray:
    """An uninitialised (rows, words) matrix of bitsets over n points,
    refused before it is allocated when it exceeds MAX_BITSET_BYTES."""
    words = (n + 63) // 64
    if rows * words * 8 > MAX_BITSET_BYTES:
        raise OutOfDeskScale(
            f"{what}: {rows} rows over {n} points take {rows * words * 8} bytes,"
            f" over MAX_BITSET_BYTES ({MAX_BITSET_BYTES})"
        )
    return np.empty((rows, words), dtype=np.uint64)


def clear_through(bits: np.ndarray, idx: np.ndarray, lo: int) -> None:
    """Clear, in place, the bits of indices up to idx[r] in row r of `bits`,
    words lo.. of a bitset (each idx at or after word lo)."""
    (m, w), word = bits.shape, idx // 64 - lo
    # row r of the mask: word[r] words before idx[r]'s, then the rest
    before = np.repeat(np.tile([True, False], m), np.stack([word, w - word], axis=1).ravel())
    np.copyto(bits, 0, where=before.reshape(m, w))
    bits[np.arange(m), word] &= ~((np.uint64(2) << (idx % 64).astype(np.uint64)) - np.uint64(1))


class LineGraph:
    """Line-compatibility rows over `pts`, the listed points of a search, on
    their keys packed by `packing` (module docstring).  Row G[x] is the
    bitset of the j in pts such that every point of the line xj other than x
    is listed: the keys of j + lambda x, lambda != 0, are multiples of listed
    points.  With a `perp` over pts, G[x] also requires j perpendicular to x.

    A key is mapped to its point by a dense table indexed by
    `KeyPacking.number` when fv^dim has at most DENSE_KEYS vectors, otherwise
    by a sorted array of the points' multiples.  Rows are built on first use, from
    blocks of at most LINE_BLOCK keys (a block of rows, or of one row's
    columns), into a slot matrix that grows on demand: r built rows take
    r * len(pts) / 8 bytes, 33 MB for all 16,320 rows of criterion 5, and a
    growth over MAX_BITSET_BYTES is refused before it is allocated.  A
    pickled graph carries no rows or table, so each worker process builds
    its own."""

    def __init__(self, packing: KeyPacking, pts: np.ndarray, keys: np.ndarray, perp: Perp | None):
        self.packing, self.pts, self.keys, self.perp = packing, pts, keys, perp
        self.words = (len(pts) + 63) // 64
        self.built, self.build_s = 0, 0.0
        self._reset()

    def __getstate__(self):
        state = dict(self.__dict__)
        for name in ("mult", "table", "owner", "sorted", "slot", "store", "used"):
            del state[name]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._reset()

    def _reset(self):
        pk, n = self.packing, len(self.pts)
        self.mult = pk.multiples(self.pts)  # (n, q - 1): the keys of each point's multiples
        self.table = self.sorted = self.owner = None
        flat = self.mult.ravel()
        owner = np.repeat(np.arange(n, dtype=np.int64), self.mult.shape[1])
        span = pk.q ** len(pk.weights)
        if span <= DENSE_KEYS:
            self.table = np.full(span, -1, dtype=np.int32)
            self.table[pk.number(flat)] = owner
        else:
            order = np.argsort(flat)
            self.sorted, self.owner = flat[order], owner[order]
        self.slot = np.full(n, -1, dtype=np.int64)
        self.store = np.zeros((0, self.words), dtype=np.uint64)
        self.used = 0

    def index(self, keys: np.ndarray) -> np.ndarray:
        """The index of the listed point each key is a multiple of, else -1."""
        if self.table is not None:
            return self.table[self.packing.number(keys)]
        if len(self.sorted) == 0:
            return np.full(np.shape(keys), -1, dtype=np.int64)
        pos = np.minimum(np.searchsorted(self.sorted, keys), len(self.sorted) - 1)
        return np.where(self.sorted[pos] == keys, self.owner[pos], -1)

    def rows(self, idx: np.ndarray, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """(len(idx), hi - lo) words lo..hi-1, by default all, of the rows of
        the points idx."""
        slots = self.slot[idx]
        if (slots < 0).any():
            todo = np.sort(idx[slots < 0])
            self._build(todo[np.concatenate([[True], todo[1:] != todo[:-1]])])
            slots = self.slot[idx]
        return self.store[slots, lo:hi]

    def _build(self, xs: np.ndarray) -> None:
        t0 = time.perf_counter()
        n, mult = len(self.pts), self.mult
        cols = max(1, LINE_BLOCK // mult.shape[1])  # columns of one row per block
        step = max(1, cols // n)
        for lo in range(0, len(xs), step):
            x = xs[lo : lo + step]
            ok = np.empty((len(x), n), dtype=bool)
            for c in range(0, n, cols):
                line = self.packing.kadd(self.keys[None, c : c + cols, None], mult[x][:, None, :])
                ok[:, c : c + cols] = (self.index(line) >= 0).all(axis=2)
            # stored before the perpendicularity rows are made, so that a
            # graph over MAX_BITSET_BYTES is refused as the line graph
            self._store(x, pack_bits(ok))
            if self.perp is not None:
                self.store[self.used - len(x) : self.used] &= ~self.perp.off(x)
        self.built += len(xs)
        self.build_s += time.perf_counter() - t0

    def _store(self, x: np.ndarray, rows: np.ndarray) -> None:
        used, top = self.used, self.used + len(x)
        if top > len(self.store):
            # a graph has at most one row per point, so one whose every row
            # fits the cap is never refused
            size = min(len(self.pts), max(top, 2 * len(self.store), 64))
            grown = bitset_matrix(size, len(self.pts), "the line graph")
            grown[:used] = self.store[:used]
            self.store = grown
        self.store[used:top] = rows
        self.slot[x] = np.arange(used, top)
        self.used = top

    def coset(self, idx: np.ndarray, span: np.ndarray) -> np.ndarray:
        """(len(idx), q^d) indices of the points j + s, s in the d-dimensional
        span of row r of `span`, given by the indices of its points, for each
        j = idx[r]: j itself, then the points j + lambda p of the lines from j
        through the span's points p."""
        line = self.packing.kadd(self.keys[idx][:, None], self.mult[span].reshape(len(idx), -1))
        return np.concatenate([idx[:, None], self.index(line)], axis=1)


@dataclass
class SearchStats:
    """Counters of a FlagSearch: nodes visited by depth (a child cut by the
    count bound is counted as visited), children cut, line-graph rows built
    and the seconds spent building them."""

    depth_nodes: np.ndarray
    skipped: int = 0
    rows: int = 0
    rows_s: float = 0.0

    def __add__(self, other: "SearchStats") -> "SearchStats":
        return SearchStats(
            self.depth_nodes + other.depth_nodes,
            self.skipped + other.skipped,
            self.rows + other.rows,
            self.rows_s + other.rows_s,
        )

    def __sub__(self, other: "SearchStats") -> "SearchStats":
        return self + SearchStats(-other.depth_nodes, -other.skipped, -other.rows, -other.rows_s)

    @property
    def nodes(self) -> int:
        return int(self.depth_nodes.sum())


@dataclass
class FlagSearch:
    """The canonical-augmentation DFS over `pts`, canonical points in
    ascending canonical index, on keys packed over `fv` in pts.shape[1]
    coordinates, run as the batched expansion of the module docstring
    (`_expand`).  `flags()` yields, in DFS order, the index list of every
    greedy flag of `target` points, and `flag_blocks()` yields them as
    arrays.  A point is eligible when it is zero at the leading columns of
    the flag points (the pivot-column test of the module docstring), a
    bitset per pivot mask (`eligible`).

    A child at point j keeps its parent's candidates after j, ANDed with
    the rows of its coset: without `perp` or `lines` (`iter_subspaces`)
    there are none; with a `perp` filter over `pts` (the enumerator) the
    coset is j and the row the points after j perpendicular to it, which
    also clears the candidates up to j (`perp_bits`); with `lines` (the
    maximality engine) the coset is the q^d points j + s, s in the span,
    and the rows are those of a `LineGraph`, into which `perp` is folded.
    A child with fewer candidates than the count bound asks is cut.

    A pass makes at most about PASS_WORDS words of bitsets, or of flag
    entries for the last depth, and each of the at most `target` frames on
    the stack keeps the bitsets of one pass and three words per set word of
    their eligible part.  Passes start at 16 pairs and double, so a first
    flag costs few.

    `nodes` counts visited nodes, cut children too, and equals a
    node-by-node DFS's count whenever a flag is yielded.  Passing `deadline`
    raises SearchTimeout at the next pass."""

    fv: FieldView
    pts: np.ndarray
    target: int
    perp: Perp | None = None
    lines: bool = False
    deadline: float | None = None

    def __post_init__(self):
        # bit c stands for coordinate c: every nonzero one, and the leading one
        nz = self.pts != 0
        self.support = nz @ (np.int64(1) << np.arange(nz.shape[1], dtype=np.int64))
        self.lead = np.int64(1) << np.argmax(nz, axis=1)
        self.packing = KeyPacking(self.fv, self.pts.shape[1])
        self.keys = self.packing.pack(self.pts)
        self.graph = LineGraph(self.packing, self.pts, self.keys, self.perp) if self.lines else None
        self.words = (len(self.pts) + 63) // 64
        self._eligible: dict[int, np.ndarray] = {}
        q = self.fv.q
        self.need = [(q**self.target - q**d) // (q - 1) for d in range(self.target + 1)]
        self.depth_nodes = [0] * (self.target + 1)
        self.skipped = 0

    @property
    def nodes(self) -> int:
        return sum(self.depth_nodes)

    def stats(self) -> SearchStats:
        g = self.graph
        return SearchStats(
            np.array(self.depth_nodes, dtype=np.int64),
            self.skipped,
            0 if g is None else g.built,
            0.0 if g is None else g.build_s,
        )

    def eligible(self, piv) -> np.ndarray:
        """Bitset of the points zero at the pivot columns `piv`, the minima
        of their cosets; made once per mask."""
        bits = self._eligible.get(int(piv))
        if bits is None:
            bits = self._eligible[int(piv)] = pack_bits(((self.support & piv) == 0)[None, :])[0]
        return bits

    def subspace(self, flag: list[int]) -> Subspace:
        return canonicalize(self.fv, self.pts[flag], self.pts.shape[1])

    def flags(self, first: range | None = None):
        """Greedy flags in DFS order; given `first`, those whose first point
        has its index in that range, without visiting the root.  Each is
        counted as it is yielded, after the gaps its DFS predecessors left."""
        for frame, rows, block in self._expand(first):
            for r, flag in zip(rows.tolist(), block.tolist()):
                frame.credit(r)
                self.depth_nodes[-1] += 1
                yield flag

    def flag_blocks(self):
        """The greedy flags as (m, target) index arrays in DFS order."""
        for frame, rows, block in self._expand():
            frame.credit(int(rows[-1]))
            self.depth_nodes[-1] += len(block)
            yield block

    @cached_property
    def perp_bits(self) -> np.ndarray:
        """Row j: the bitset of the points after j perpendicular to it."""
        n = len(self.pts)
        bits = self.perp.off(np.arange(n))
        np.invert(bits, out=bits)
        bits &= pack_bits(np.ones((1, n), dtype=bool))  # no bits past the last point
        clear_through(bits, np.arange(n), 0)
        return bits

    def _coset(self, kids: np.ndarray, span: np.ndarray | None) -> np.ndarray:
        """The points whose rows narrow each child's candidates, one column
        per row (class docstring)."""
        if self.graph is not None:
            return self.graph.coset(kids, span)
        return kids[:, None][:, : self.perp is not None]  # j itself, or no point

    def _rows(self, idx: np.ndarray, lo: int) -> np.ndarray:
        """Words lo.. of the rows of the points idx."""
        if self.graph is not None:
            return self.graph.rows(idx, lo)
        return self.perp_bits[idx, lo:]

    def _expand(self, first: range | None = None):
        """The batched expansion: yield (frame, rows, flags) for each pass of
        leaves, with the frame of their parents and each leaf's parent row
        in it; the caller counts the leaves and credits the frame."""
        n, t = len(self.pts), self.target
        within = None
        if first is not None:
            within = np.zeros((1, n), dtype=bool)
            within[0, first.start : first.stop] = True
            within = pack_bits(within)
        empty = np.zeros((1, 0), dtype=np.int64)
        ones = pack_bits(np.ones((1, n), dtype=bool))
        root = _Frame(self, empty, np.zeros(1, dtype=np.int64), ones, span=empty if self.lines else None,
                      within=within)
        if t == 0:  # the root is the only flag
            yield root, np.zeros(1, dtype=np.int64), empty
            return
        if first is None:
            self.depth_nodes[0] += 1
        if n < self.need[0]:  # the root's cut
            return
        # pairs per pass by child depth: bitset words, then flag entries
        top = [max(1, PASS_WORDS // self.words)] * t + [max(1, PASS_WORDS // (t * self.pts.shape[1]))]
        size = [min(16, c) for c in top]
        stack = [root]
        while stack:
            frame = stack[-1]
            d = frame.flags.shape[1] + 1
            rows, kids = frame.take(size[d])
            if len(kids) == 0:
                frame.credit(len(frame.flags))
                stack.pop()
                continue
            size[d] = min(2 * size[d], top[d])
            if self.deadline is not None and time.monotonic() > self.deadline:
                raise SearchTimeout("maximality search exceeded its budget")
            flags = np.concatenate([frame.flags[rows], kids[:, None]], axis=1)
            if d == t:
                yield frame, rows, flags
                continue
            lo = int(kids.min()) // 64  # no child's candidates lie before its word
            coset = self._coset(kids, None if frame.span is None else frame.span[rows])
            bits = frame.bits[rows, lo - frame.lo :]
            if self.graph is not None or self.perp is None:  # the enumerator's rows clear it
                clear_through(bits, kids, lo)
            for col in coset.T:
                bits &= self._rows(col, lo)
            count = np.bitwise_count(bits).sum(axis=1, dtype=np.int32)
            keep = np.flatnonzero(count >= self.need[d])
            # count the pairs up to the first survivor, or all if none survives
            at = int(keep[0]) if len(keep) else len(kids) - 1
            self.depth_nodes[d] += at + 1
            self.skipped += at + (len(keep) == 0)
            frame.credit(int(rows[at]))
            if len(keep):
                span = None
                if frame.span is not None:
                    span = np.concatenate([frame.span[rows[keep]], coset[keep]], axis=1)
                piv = frame.piv[rows[keep]] | self.lead[kids[keep]]
                pos = keep.tolist() + [len(kids) - 1]
                child = _Frame(self, flags[keep], piv, bits[keep], lo, span, frame, rows[keep], pos)
                stack.append(child)


class _Frame:
    """Nodes of one depth of the batched expansion, in lexicographic order of
    their flags: flags (k, d), pivot masks (k,), candidate bitsets from word
    lo on (k, words - lo) and, in a `lines` search, spans as point indices
    (k, (q^d - 1)/(q - 1)); `take` reads the (node, child) pairs of their
    eligible children row-major from the set words.

    Node i was made from row up[i] of the `parent` frame, at position
    pos[i] of that pass, whose last position is pos[k].  Its gap is the
    pos[i + 1] - pos[i] pairs after it, up to and including the next node
    (to the pass's end, after the last), all of them cut but that node.
    `credit(i)` adds the gaps of the nodes before i, whose subtrees are
    done, and credits the parent up to up[i] (module docstring)."""

    def __init__(self, search: FlagSearch, flags, piv, bits, lo=0, span=None, parent=None, up=None,
                 pos=(0, 0), within=None):
        masks, inv = np.unique(piv, return_inverse=True)
        elig = bits & np.stack([search.eligible(m)[lo:] for m in masks])[inv]
        if within is not None:
            elig &= within
        elig = elig.ravel()
        self.search, self.parent, self.up, self.pos = search, parent, up, pos
        self.flags, self.piv, self.lo, self.words = flags, piv, lo, bits.shape[1]
        # a frame whose children are leaves never reads their candidates
        leaves = flags.shape[1] + 1 == search.target
        self.bits = None if leaves else bits
        self.span = None if leaves else span
        self.at = np.flatnonzero(elig)
        self.vals = elig[self.at]
        self.ends = np.cumsum(np.bitwise_count(self.vals), dtype=np.int64)
        self.next = 0
        self.done = 0

    def take(self, count: int) -> tuple[np.ndarray, np.ndarray]:
        """(rows, children) of the next pairs: whole words, at most `count`
        pairs or the pairs of one word."""
        lo = self.next
        base = self.ends[lo - 1] if lo else 0
        hi = max(lo + 1, int(np.searchsorted(self.ends, base + count, side="right")))
        hi = self.next = min(hi, len(self.at))
        bits = np.unpackbits(self.vals[lo:hi].view(np.uint8).reshape(-1, 8), axis=1, bitorder="little")
        word, bit = np.nonzero(bits)
        at = self.at[lo:hi][word]
        return at // self.words, (at % self.words + self.lo) * 64 + bit

    def credit(self, upto: int) -> None:
        if upto <= self.done:
            return
        s, pos, last = self.search, self.pos, len(self.pos) - 2
        nodes = pos[upto] - pos[self.done]
        s.depth_nodes[self.flags.shape[1]] += nodes
        s.skipped += nodes - (min(upto, last) - min(self.done, last))  # less the next nodes
        self.done = upto
        if self.parent is not None:
            self.parent.credit(int(self.up[min(upto, len(self.up) - 1)]))


def _enumerate_maximal_flags(space: FormedSpace, pts: np.ndarray, target: int, cap: int):
    """The maximal t.s./t.i. subspaces: each leaf's flag rows, read
    backwards, are its RREF basis (module docstring)."""
    if len(pts) == 0:
        return []
    search = FlagSearch(space.fv, pts, target, perp=Perp(space, pts))
    results: list[Subspace] = []
    for block in search.flag_blocks():
        results.extend(Subspace.of_stack(space.fv, space.dim, pts[block[:, ::-1]]))
        if len(results) > cap:
            raise OutOfDeskScale(f"listing more than {cap} maximal subspaces exceeds MAX_ENUM_SUBSPACES")
    return results


def iter_subspaces(fv: FieldView, container: Subspace, k: int):
    """All k-dimensional subspaces of a small container, in greedy-chain DFS
    order (deterministic; used for 'first subspace such that' searches).

    The search runs on the coordinates of the container's points in its RREF
    basis, which are their entries in the pivot columns, so keys take the
    container's dimension, not the ambient one.  Every entry between two
    pivots depends only on the coordinates before it, so lexicographic order
    on these coordinates is canonical-index order and the yield order is the
    same as a search over ambient keys.  A point's ambient leading column
    is the pivot column of its first nonzero coordinate, and there its
    ambient entry is that coordinate, so a flag's ambient rows read
    backwards are an RREF basis too."""
    pts = container.points()
    pivots = np.argmax(container.mat != 0, axis=1)
    search = FlagSearch(fv, pts[:, pivots], k)
    for block in search.flag_blocks():
        for mat in pts[block[:, ::-1]]:
            yield Subspace(fv, container.dim_ambient, mat)
