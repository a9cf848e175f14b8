"""Symplectic and orthogonal geometry over a FieldView.

A FormedSpace couples a coordinate space fv^dim with a bilinear form (Gram
matrix) and, for orthogonal kinds, a quadratic form given by an
upper-triangular coefficient matrix.  In characteristic 2 the Gram matrix of
an orthogonal space is the polarization B(u,v) = Q(u+v) - Q(u) - Q(v), which
is alternating, so the space doubles as a symplectic space.

Maximal totally singular / totally isotropic subspaces are enumerated by a
canonical-augmentation DFS: a flag is grown one singular point at a time, and
an extension point p is accepted only if p is the minimum (by canonical
index) of its coset modulo the current span.  Each subspace is then generated
exactly once, via its greedy chain, so no dedup set is needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .gf import FieldError, FieldView, sqrt_char2, standalone
from .linalg import (
    key_weights,
    Subspace,
    canonical_point_blocks,
    canonicalize,
    canonicalize_points,
    express,
    mat_mul,
    point_keys,
    rref,
)

MAX_ENUM_POINTS = 6_000_000


class OutOfDeskScale(RuntimeError):
    """The requested exhaustive computation exceeds the configured guards."""


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
        self._m0 = None
        self._hyperbolic = None
        self._max_ts = None
        self._validate()

    def _validate(self) -> None:
        tw = self.fv.tower
        if self.qcoef is not None:
            derived = np.zeros((self.dim, self.dim), dtype=np.int64)
            for i in range(self.dim):
                for j in range(self.dim):
                    if i < j:
                        derived[i, j] = self.qcoef[i, j]
                        derived[j, i] = self.qcoef[i, j]
                    elif i == j:
                        two = tw.add(1, 1)
                        derived[i, i] = tw.mul(two, self.qcoef[i, i])
            if not np.array_equal(derived, self.gram):
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

    # -- predicates ---------------------------------------------------------
    def is_singular_point(self, v) -> bool:
        if self.qcoef is None:
            return self.bform(v, v) == 0
        return self.qform(v) == 0

    def is_ti(self, sub: Subspace) -> bool:
        m = sub.mat
        for i in range(sub.dim):
            vals = self.vbform(m, m[i])
            if np.any(vals):
                return False
        return True

    def is_ts(self, sub: Subspace) -> bool:
        if self.qcoef is None:
            raise FieldError("t.s. requires a quadratic form")
        if np.any(self.vqform(sub.mat)):
            return False
        return self.is_ti(sub)

    def is_anisotropic(self, sub: Subspace) -> bool:
        pts = sub.points()
        return len(pts) == 0 or not np.any(self.vqform(pts) == 0)

    # -- perp ----------------------------------------------------------------
    def perp(self, sub: Subspace) -> Subspace:
        if sub.dim == 0:
            return Subspace(self.fv, self.dim, np.eye(self.dim, dtype=np.int64))
        constraints = mat_mul(self.fv, sub.mat, self.gram.T)
        return self.nullspace(constraints)

    def perp_of_vector(self, v) -> Subspace:
        return self.perp(canonicalize(self.fv, [v], self.dim))

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
    def singular_points(self, cap: int = MAX_ENUM_POINTS) -> np.ndarray:
        """All singular canonical points, ascending canonical index; cached."""
        if self._singular is None:
            if self.point_count() > cap:
                raise OutOfDeskScale(
                    f"enumerating {self.point_count()} points exceeds the desk-scale guard"
                )
            chunks = []
            for block in canonical_point_blocks(self.fv, self.dim):
                if self.qcoef is None:
                    chunks.append(block)
                else:
                    chunks.append(block[self.vqform(block) == 0])
            pts = np.vstack(chunks)
            pts.flags.writeable = False
            self._singular = pts
        return self._singular

    def first_singular_point(self) -> np.ndarray:
        for block in canonical_point_blocks(self.fv, self.dim, chunk=4096):
            if self.qcoef is None:
                if len(block):
                    return block[0]
            else:
                hit = block[self.vqform(block) == 0]
                if len(hit):
                    return hit[0]
        raise FieldError("no singular point")

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
    def maximal_totally_singular(self, cap: int = 2_000_000) -> list[Subspace]:
        """Every maximal t.s. (orthogonal) or t.i. (symplectic) subspace."""
        if self._max_ts is None:
            pts = self.singular_points()
            self._max_ts = _enumerate_maximal_flags(self, pts, self.witt_index, cap)
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


# -- standard spaces ---------------------------------------------------------


def make_symplectic(fv: FieldView, gram: np.ndarray) -> FormedSpace:
    return FormedSpace(fv, gram.shape[0], "symplectic", gram)


def make_orthogonal(fv: FieldView, qcoef: np.ndarray, kind: str) -> FormedSpace:
    tw = fv.tower
    dim = qcoef.shape[0]
    gram = np.zeros((dim, dim), dtype=np.int64)
    two = tw.add(1, 1)
    for i in range(dim):
        for j in range(dim):
            if i < j:
                gram[i, j] = qcoef[i, j]
                gram[j, i] = qcoef[i, j]
            elif i == j:
                gram[i, i] = tw.mul(two, qcoef[i, i])
    return FormedSpace(fv, dim, kind, gram, qcoef)


@lru_cache(maxsize=None)
def sp_space(q: int, n: int) -> FormedSpace:
    """Sp(2n, q) with hyperbolic-pair Gram: pairs (x1,x2), (x3,x4), ..."""
    fv = standalone(q)
    tw = fv.tower
    gram = np.zeros((2 * n, 2 * n), dtype=np.int64)
    for i in range(n):
        gram[2 * i, 2 * i + 1] = 1
        gram[2 * i + 1, 2 * i] = tw.neg(1)
    return make_symplectic(fv, gram)


@lru_cache(maxsize=None)
def oplus_space(q: int, n: int) -> FormedSpace:
    """O+(2n, q) with Q = x1 x2 + x3 x4 + ..."""
    fv = standalone(q)
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


@lru_cache(maxsize=None)
def ominus4_space(q: int) -> FormedSpace:
    """O-(4, q): hyperbolic pair plus the first anisotropic binary form
    x3^2 + d x3 x4 + e x4^2 in scan order."""
    fv = standalone(q)
    tw = fv.tower
    de = None
    for dd in range(q):
        for ee in range(q):
            vals = [
                tw.add(tw.add(tw.mul(a, a), tw.mul(dd, tw.mul(a, b))), tw.mul(ee, tw.mul(b, b)))
                for a in range(q)
                for b in range(q)
                if a or b
            ]
            if all(vals):
                de = (dd, ee)
                break
        if de:
            break
    qc = np.zeros((4, 4), dtype=np.int64)
    qc[0, 1] = 1
    qc[2, 2] = 1
    qc[2, 3] = de[0]
    qc[3, 3] = de[1]
    return make_orthogonal(fv, qc, "orthogonal_minus")


# -- hyperbolic bases, isometries --------------------------------------------


def _hyperbolic_basis(space: FormedSpace) -> np.ndarray:
    fv = space.fv
    tw = fv.tower
    has_q = space.qcoef is not None
    cur = np.eye(space.dim, dtype=np.int64)
    pairs = []
    for _ in range(space.dim // 2):
        sub = canonicalize(fv, cur, space.dim)
        pts = sub.points()
        if has_q:
            sing = pts[space.vqform(pts) == 0]
        else:
            sing = pts
        e = sing[0]
        vals = space.vbform(pts, e)
        partner = pts[vals != 0][0]
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

    def point(self, v: np.ndarray) -> np.ndarray:
        return canonicalize_points(self.src.fv, self.vector(v)[None, :])[0]

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
    """Projection of a plus-type space (even q) through a nonsingular point z
    into the symplectic quotient z-perp / z, with subspace transport and the
    inverse lift through the singular-vector hyperplane."""

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
        comp = []
        chosen = [z]
        for row in self.zperp.mat:
            stack = np.vstack(chosen + [row])
            if rref(fv, stack).shape[0] == len(chosen) + 1:
                comp.append(row)
                chosen.append(row)
        self.comp = np.array(comp, dtype=np.int64)
        if len(self.comp) != space.dim - 2:
            raise FieldError("complement extraction failed")
        gram = np.zeros((space.dim - 2, space.dim - 2), dtype=np.int64)
        for i in range(space.dim - 2):
            for j in range(space.dim - 2):
                gram[i, j] = space.bform(self.comp[i], self.comp[j])
        self.quotient = make_symplectic(fv, gram)
        if rref(fv, gram).shape[0] != space.dim - 2:
            raise FieldError("degenerate quotient form")
        self._stacked = np.vstack([self.comp, z[None, :]])

    def to_quotient(self, rows: np.ndarray) -> np.ndarray:
        """Coordinates of z-perp vectors modulo z in the complement basis."""
        c = express(self.space.fv, self._stacked, np.atleast_2d(rows))
        return c[:, :-1]

    def from_quotient(self, rows: np.ndarray) -> np.ndarray:
        return mat_mul(self.space.fv, np.atleast_2d(rows), self.comp)

    def transport(self, x: Subspace) -> Subspace:
        """X -> <z-perp meet X, z> / z."""
        cut = self.zperp.intersect(x)
        return canonicalize(self.space.fv, self.to_quotient(cut.mat), self.space.dim - 2)

    def lift(self, uq: Subspace, target_type: TsType) -> Subspace:
        """Inverse of transport on maximal t.i. subspaces: take the preimage
        U = <U_q lift, z>, cut it to its hyperplane U' of singular vectors,
        and extend U' to the maximal t.s. subspace of the requested type."""
        space, fv = self.space, self.space.fv
        tw = fv.tower
        u_rows = np.vstack([self.from_quotient(uq.mat), self.z[None, :]])
        u = canonicalize(fv, u_rows, space.dim)
        if not space.is_ti(u):
            raise FieldError("lifted preimage is not totally isotropic")
        phi = np.array([sqrt_char2(tw, space.qform(b)) for b in u.mat], dtype=np.int64)
        if not np.any(phi):
            raise FieldError("Q-kernel is not of codimension 1 (z singular or U not t.i.)")
        coef_kernel = _coeff_kernel(fv, phi)
        uprime = canonicalize(fv, mat_mul(fv, coef_kernel, u.mat), space.dim)
        return self.extend_to_maximal(uprime, target_type)

    def extend_to_maximal(self, uprime: Subspace, target_type: TsType) -> Subspace:
        space, fv = self.space, self.space.fv
        tw = fv.tower
        up_perp = space.perp(uprime)
        comp = []
        chosen = list(uprime.mat)
        for row in up_perp.mat:
            if len(comp) == 2:
                break
            stack = np.vstack(chosen + [row])
            if rref(fv, stack).shape[0] == len(chosen) + 1:
                comp.append(row)
                chosen.append(row)
        d0, d1 = comp
        found = []
        for a in fv.elements().tolist():
            for b in fv.elements().tolist():
                if a == 0 and b == 0:
                    continue
                w = tw.vadd(tw.vmul(np.int64(a), d0), tw.vmul(np.int64(b), d1))
                if space.qform(w) == 0 and not uprime.contains(w):
                    cand = canonicalize(fv, np.vstack([uprime.mat, w[None, :]]), space.dim)
                    if cand not in found:
                        found.append(cand)
        for cand in found:
            if space.ts_type(cand) == target_type:
                return cand
        raise FieldError("no extension of the requested type (geometry bug)")


def _coeff_kernel(fv: FieldView, phi: np.ndarray) -> np.ndarray:
    """Kernel of the linear functional c -> sum c_i phi_i, as coefficient rows."""
    tw = fv.tower
    k = len(phi)
    piv = int(np.argmax(phi != 0))
    rows = []
    for i in range(k):
        if i == piv:
            continue
        row = np.zeros(k, dtype=np.int64)
        row[i] = 1
        row[piv] = tw.neg(tw.div(int(phi[i]), int(phi[piv])))
        rows.append(row)
    return np.array(rows, dtype=np.int64)


# -- field descent --------------------------------------------------------------


class DescentMap:
    """Blow-down of a space over GF(q^r) to GF(q) via the power basis and the
    trace: Q'(v) = T(Q(v)).  Slot i of an E-vector becomes slots i*r..i*r+r-1."""

    def __init__(self, space: FormedSpace, to_deg: int):
        fv = space.fv
        tw = fv.tower
        if to_deg not in tw.designated or fv.degree % to_deg:
            raise FieldError("descent target degree must be a designated divisor")
        self.src = space
        self.small = FieldView(tw, to_deg)
        self.basis = tw.subfield_basis(fv.degree, to_deg)
        self.coords = tw.subfield_coords(fv.degree, to_deg)
        self.r = fv.degree // to_deg
        r, dim = self.r, space.dim
        ndim = dim * r

        def tr(x):
            from .gf import trace

            return trace(tw, fv.degree, to_deg, x)

        two = tw.add(1, 1)
        if space.qcoef is not None:
            qc = np.zeros((ndim, ndim), dtype=np.int64)
            for i, j, c in space.qterms():
                for a in range(r):
                    for b in range(r):
                        gagb = tw.mul(self.basis[a], self.basis[b])
                        if i == j:
                            if a < b:
                                qc[i * r + a, i * r + b] = tw.add(
                                    int(qc[i * r + a, i * r + b]), tr(tw.mul(c, tw.mul(two, gagb)))
                                )
                            elif a == b:
                                qc[i * r + a, i * r + a] = tw.add(
                                    int(qc[i * r + a, i * r + a]), tr(tw.mul(c, gagb))
                                )
                        else:
                            qc[i * r + a, j * r + b] = tw.add(
                                int(qc[i * r + a, j * r + b]), tr(tw.mul(c, gagb))
                            )
            self.dst = make_orthogonal(self.small, qc, "orthogonal_plus")
        else:
            gram = np.zeros((ndim, ndim), dtype=np.int64)
            for i in range(dim):
                for j in range(dim):
                    g = int(space.gram[i, j])
                    if not g:
                        continue
                    for a in range(r):
                        for b in range(r):
                            gram[i * r + a, j * r + b] = tr(
                                tw.mul(g, tw.mul(self.basis[a], self.basis[b]))
                            )
            self.dst = make_symplectic(self.small, gram)

    def vector(self, v: np.ndarray) -> np.ndarray:
        out = np.zeros(self.src.dim * self.r, dtype=np.int64)
        for i, x in enumerate(np.asarray(v, dtype=np.int64)):
            out[i * self.r : (i + 1) * self.r] = self.coords[int(x)]
        return out

    def point(self, v: np.ndarray) -> np.ndarray:
        return canonicalize_points(self.small, self.vector(v)[None, :])[0]

    def subspace(self, sub: Subspace) -> Subspace:
        tw = self.src.fv.tower
        rows = []
        for row in sub.mat:
            for g in self.basis:
                rows.append(self.vector(tw.vmul(np.int64(g), row)))
        return canonicalize(self.small, np.array(rows, dtype=np.int64), self.dst.dim)


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


def perp_adjacency(space: FormedSpace, pts: np.ndarray) -> np.ndarray:
    """Boolean matrix: adj[i, j] iff pts[i] and pts[j] are perpendicular."""
    n = len(pts)
    adj = np.zeros((n, n), dtype=bool)
    for i in range(n):
        adj[i] = space.vbform(pts, pts[i]) == 0
    return adj


def scaling_keys(space: FormedSpace, pts: np.ndarray) -> np.ndarray:
    """Vector keys of all nonzero scalar multiples of each point: (n, q-1).

    In characteristic 2 the key packing is per-coordinate bit fields, so
    vector addition is XOR of keys; these scaling keys then generate coset
    key sets without touching coordinate rows."""
    tw = space.fv.tower
    elems_nz = space.fv.elements()[1:]
    scaled = tw.vmul(elems_nz[None, :, None], pts[:, None, :])
    weights = key_weights(space.fv, space.dim)
    return scaled @ weights


def _enumerate_maximal_flags(space: FormedSpace, pts: np.ndarray, target: int, cap: int):
    if len(pts) == 0:
        return []
    if space.fv.char == 2:
        return _enumerate_flags_char2(space, pts, target, cap)
    return _enumerate_flags_generic(space, pts, target, cap)


def _enumerate_flags_char2(space: FormedSpace, pts: np.ndarray, target: int, cap: int):
    """Key-arithmetic DFS: spans live as XOR-closed int64 key sets."""
    fv = space.fv
    keys = point_keys(fv, pts)
    skeys = scaling_keys(space, pts)
    adj = perp_adjacency(space, pts)
    results: list[Subspace] = []

    def recurse(flag_idx: list[int], span_keys: np.ndarray, cand_idx: np.ndarray):
        depth = len(flag_idx)
        if depth == target:
            results.append(canonicalize(fv, pts[flag_idx], space.dim))
            if len(results) > cap:
                raise OutOfDeskScale("maximal subspace enumeration exceeded the cap")
            return
        if len(cand_idx) == 0:
            return
        allk = skeys[cand_idx][:, :, None] ^ span_keys[None, None, :]
        minfull = allk.reshape(len(cand_idx), -1).min(axis=1)
        for pos in np.nonzero(minfull == keys[cand_idx])[0]:
            i = int(cand_idx[pos])
            new_span = np.concatenate(
                [span_keys, (skeys[i][:, None] ^ span_keys[None, :]).ravel()]
            )
            rest = cand_idx[pos + 1 :]
            if len(rest):
                rest = rest[adj[i, rest]]
            recurse(flag_idx + [i], new_span, rest)

    recurse([], np.zeros(1, dtype=np.int64), np.arange(len(pts)))
    return results


def _enumerate_flags_generic(space: FormedSpace, pts: np.ndarray, target: int, cap: int):
    fv = space.fv
    tw = fv.tower
    keys = point_keys(fv, pts)
    adj = perp_adjacency(space, pts)
    weights = key_weights(space.fv, space.dim)
    results: list[Subspace] = []

    def coset_min_keys(cands: np.ndarray, span_vecs: np.ndarray) -> np.ndarray:
        cosets = tw.vadd(cands[:, None, :], span_vecs[None, :, :])
        flat = cosets.reshape(-1, space.dim)
        lead = np.argmax(flat != 0, axis=1)
        vals = flat[np.arange(len(flat)), lead]
        scale = tw.vinv(np.where(vals == 0, 1, vals))
        flat = tw.vmul(flat, scale[:, None])
        k = flat @ weights
        return k.reshape(len(cands), -1).min(axis=1)

    def recurse(flag_idx: list[int], span_vecs: np.ndarray, cand_idx: np.ndarray):
        depth = len(flag_idx)
        if depth == target:
            results.append(canonicalize(fv, pts[flag_idx], space.dim))
            if len(results) > cap:
                raise OutOfDeskScale("maximal subspace enumeration exceeded the cap")
            return
        if len(cand_idx) == 0:
            return
        minkeys = coset_min_keys(pts[cand_idx], span_vecs)
        for pos in np.nonzero(minkeys == keys[cand_idx])[0]:
            i = int(cand_idx[pos])
            p = pts[i]
            scaled = tw.vmul(fv.elements()[:, None, None], p[None, None, :])
            new_span = tw.vadd(span_vecs[None, :, :], scaled).reshape(-1, space.dim)
            rest = cand_idx[pos + 1 :]
            if len(rest):
                rest = rest[adj[i, rest]]
            recurse(flag_idx + [i], new_span, rest)

    zero = np.zeros((1, space.dim), dtype=np.int64)
    recurse([], zero, np.arange(len(pts)))
    return results


def iter_subspaces(fv: FieldView, container: Subspace, k: int):
    """All k-dimensional subspaces of a small container, in greedy-chain DFS
    order (deterministic; used for 'first subspace such that' searches)."""
    pts = container.points()
    keys = point_keys(fv, pts)
    tw = fv.tower
    dim = container.dim_ambient
    weights = key_weights(fv, dim)

    def recurse(flag_rows, span_vecs, cand_idx):
        depth = len(flag_rows)
        if depth == k:
            yield canonicalize(fv, np.array(flag_rows), dim)
            return
        if len(cand_idx) == 0:
            return
        cands = pts[cand_idx]
        cosets = tw.vadd(cands[:, None, :], span_vecs[None, :, :]).reshape(-1, dim)
        lead = np.argmax(cosets != 0, axis=1)
        vals = cosets[np.arange(len(cosets)), lead]
        scale = tw.vinv(np.where(vals == 0, 1, vals))
        cosets = tw.vmul(cosets, scale[:, None])
        minkeys = (cosets @ weights).reshape(len(cands), -1).min(axis=1)
        for pos in np.nonzero(minkeys == keys[cand_idx])[0]:
            p = cands[pos]
            scaled = tw.vmul(fv.elements()[:, None, None], p[None, None, :])
            new_span = tw.vadd(span_vecs[None, :, :], scaled).reshape(-1, dim)
            yield from recurse(flag_rows + [p], new_span, cand_idx[pos + 1 :])

    zero = np.zeros((1, dim), dtype=np.int64)
    yield from recurse([], zero, np.arange(len(pts)))
