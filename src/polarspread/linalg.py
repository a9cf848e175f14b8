"""Exact linear algebra over a FieldView: RREF subspaces, points, quotients.

Vectors are numpy int64 rows of field-element indices.  A subspace is stored
as its unique reduced-row-echelon basis, so two equal subspaces compare equal
byte-for-byte.  Projective points are canonicalized by scaling the first
nonzero coordinate to 1, and are ordered by their *canonical index*: the
integer formed by reading the coordinate tuple as base-|tower| digits, most
significant first.  Every "first point such that ..." rule in the package
uses this order.
"""

from __future__ import annotations

import numpy as np

from .gf import FieldError, FieldView


class AmbientMismatch(ValueError):
    """Operands live in different ambient spaces or fields."""


def as_matrix(rows, dim: int) -> np.ndarray:
    m = np.array(rows, dtype=np.int64)
    if m.size == 0:
        return np.zeros((0, dim), dtype=np.int64)
    m = m.reshape(-1, dim)
    return m


def rref(fv: FieldView, rows: np.ndarray) -> np.ndarray:
    """Reduced row echelon form; returns only the nonzero rows."""
    tw = fv.tower
    m = np.array(rows, dtype=np.int64)
    if m.ndim == 1:
        m = m[None, :]
    nrows, ncols = m.shape
    r = 0
    for col in range(ncols):
        piv = None
        for i in range(r, nrows):
            if m[i, col]:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            m[[r, piv]] = m[[piv, r]]
        m[r] = tw.vmul(m[r], tw.inv(int(m[r, col])))
        factors = m[:, col].copy()
        factors[r] = 0
        hit = factors != 0
        if hit.any():
            m[hit] = tw.vadd(m[hit], tw.vmul(tw.vneg(factors[hit])[:, None], m[r][None, :]))
        r += 1
        if r == nrows:
            break
    return m[:r]


def rank_reaches(fv: FieldView, rows: np.ndarray, k: int) -> bool:
    """Whether the rows span at least k dimensions, i.e. rref(rows) has at
    least k rows.  Forward elimination only, clearing below each pivot and
    only right of it, and stopping as soon as k pivots are found or too few
    columns remain to find them."""
    if k <= 0:
        return True
    tw = fv.tower
    m = np.array(rows, dtype=np.int64)
    if m.ndim == 1:
        m = m[None, :]
    nrows, ncols = m.shape
    if nrows < k or ncols < k:
        return False
    r = 0
    for col in range(ncols):
        if ncols - col < k - r:
            return False
        nz = np.flatnonzero(m[r:, col])
        if len(nz) == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            m[[r, piv]] = m[[piv, r]]
        below = r + 1 + np.flatnonzero(m[r + 1 :, col])
        if len(below):
            scale = tw.vmul(tw.vneg(m[below, col]), tw.inv(int(m[r, col])))
            m[below, col:] = tw.vadd(
                m[below, col:], tw.vmul(scale[:, None], m[r, col:][None, :])
            )
        r += 1
        if r == k:
            return True
    return False


def rref_with_transform(fv: FieldView, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """RREF of independent rows together with T such that T @ rows = R."""
    k, n = rows.shape
    aug = np.concatenate([rows, np.eye(k, dtype=np.int64)], axis=1)
    red = rref(fv, aug)
    if red.shape[0] != k:
        raise FieldError("rows are not independent")
    return red[:, :n].copy(), red[:, n:].copy()


class Subspace:
    """Immutable subspace of fv^dim_ambient in canonical RREF form."""

    __slots__ = ("fv", "dim_ambient", "mat", "_hash")

    def __init__(self, fv: FieldView, dim_ambient: int, mat: np.ndarray):
        self.fv = fv
        self.dim_ambient = dim_ambient
        mat = np.ascontiguousarray(mat, dtype=np.int64)
        mat.flags.writeable = False
        self.mat = mat
        self._hash = hash((fv.degree, dim_ambient, mat.tobytes()))

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.fv == other.fv
            and self.dim_ambient == other.dim_ambient
            and self.mat.shape == other.mat.shape
            and bool(np.array_equal(self.mat, other.mat))
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, ambient={self.dim_ambient})"

    def _check_mate(self, other: "Subspace") -> None:
        if self.fv != other.fv or self.dim_ambient != other.dim_ambient:
            raise AmbientMismatch("subspaces live in different ambient spaces")

    def contains(self, v: np.ndarray) -> bool:
        v = np.asarray(v, dtype=np.int64)
        return bool(reduce_rows(self.fv, self.mat, v[None, :])[0])

    def contains_all(self, rows: np.ndarray) -> bool:
        return bool(reduce_rows(self.fv, self.mat, rows).all())

    def vectors(self) -> np.ndarray:
        """All q^dim vectors as rows (includes zero)."""
        return span_vectors(self.fv, self.mat, self.dim_ambient)

    def points(self) -> np.ndarray:
        """Canonical projective points sorted by canonical index."""
        vecs = self.vectors()
        vecs = vecs[np.any(vecs != 0, axis=1)]
        pts = canonicalize_points(self.fv, vecs)
        keys = point_keys(self.fv, pts)
        pts = pts[np.argsort(keys, kind="stable")]
        keys = np.sort(keys)
        keep = np.ones(len(pts), dtype=bool)
        keep[1:] = keys[1:] != keys[:-1]
        return pts[keep]

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_mate(other)
        return Subspace(
            self.fv, self.dim_ambient, rref(self.fv, np.vstack([self.mat, other.mat]))
        )

    def intersect(self, other: "Subspace") -> "Subspace":
        """Zassenhaus: rows of RREF([[A,A],[B,0]]) whose left block vanished
        span the intersection on the right block."""
        self._check_mate(other)
        n = self.dim_ambient
        a, b = self.mat, other.mat
        if a.shape[0] == 0 or b.shape[0] == 0:
            return Subspace(self.fv, n, np.zeros((0, n), dtype=np.int64))
        top = np.concatenate([a, a], axis=1)
        bot = np.concatenate([b, np.zeros_like(b)], axis=1)
        red = rref(self.fv, np.vstack([top, bot]))
        left_zero = ~np.any(red[:, :n] != 0, axis=1)
        inter = red[left_zero][:, n:]
        return Subspace(self.fv, n, rref(self.fv, inter) if len(inter) else inter)

    def descriptor(self) -> dict:
        return {"dim_ambient": self.dim_ambient, "rows": self.mat.tolist()}


def canonicalize(fv: FieldView, vectors, dim_ambient: int | None = None) -> Subspace:
    """Span of the given vectors in canonical form."""
    if dim_ambient is None:
        vecs = np.array(list(vectors), dtype=np.int64)
        if vecs.size == 0:
            raise AmbientMismatch("cannot infer ambient dimension from no vectors")
        dim_ambient = vecs.shape[-1]
    m = as_matrix(list(vectors), dim_ambient)
    return Subspace(fv, dim_ambient, rref(fv, m) if len(m) else m)


def zero_subspace(fv: FieldView, dim_ambient: int) -> Subspace:
    return Subspace(fv, dim_ambient, np.zeros((0, dim_ambient), dtype=np.int64))


def full_space(fv: FieldView, dim_ambient: int) -> Subspace:
    return Subspace(fv, dim_ambient, np.eye(dim_ambient, dtype=np.int64))


def span_vectors(fv: FieldView, rows: np.ndarray, dim_ambient: int) -> np.ndarray:
    """All q^k combinations of k independent rows (includes the zero vector)."""
    tw = fv.tower
    elems = fv.elements()
    q = len(elems)
    k = rows.shape[0] if rows.ndim == 2 else 0
    out = np.zeros((1, dim_ambient), dtype=np.int64)
    for i in range(k):
        scaled = tw.vmul(elems[:, None, None], rows[i][None, None, :])  # (q,1,n)
        out = tw.vadd(out[None, :, :], scaled).reshape(-1, dim_ambient)
    return out


def canonicalize_points(fv: FieldView, rows: np.ndarray) -> np.ndarray:
    """Scale each nonzero row so its first nonzero coordinate is 1."""
    tw = fv.tower
    if len(rows) == 0:
        return rows
    lead = np.argmax(rows != 0, axis=1)
    vals = rows[np.arange(len(rows)), lead]
    scale = tw.vinv(np.where(vals == 0, 1, vals))
    return tw.vmul(rows, scale[:, None])


def key_weights(fv: FieldView, dim: int) -> np.ndarray:
    """Per-coordinate weights packing element indices into an int64, first
    coordinate most significant.  The field of the packing is the bit width
    of the largest element index of the view, so keys respect coordinate-lex
    order, and for characteristic 2 the XOR of two keys is the key of the
    vector sum."""
    width = int(fv.elements()[-1]).bit_length()
    if dim * width > 62:
        raise FieldError("coordinate packing exceeds int64; space too wide")
    b = np.int64(1) << width
    return b ** np.arange(dim - 1, -1, -1, dtype=np.int64)


def point_keys(fv: FieldView, rows: np.ndarray) -> np.ndarray:
    """Canonical index of each row (packed coordinate tuple)."""
    return rows @ key_weights(fv, rows.shape[1])


def reduce_rows(fv: FieldView, basis: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Boolean mask: which rows lie in the row space of the RREF basis."""
    tw = fv.tower
    rows = np.array(rows, dtype=np.int64)
    if basis.shape[0] == 0:
        return ~np.any(rows != 0, axis=1)
    for i in range(basis.shape[0]):
        piv = int(np.argmax(basis[i] != 0))
        coef = rows[:, piv].copy()
        hit = coef != 0
        if hit.any():
            rows[hit] = tw.vadd(rows[hit], tw.vmul(tw.vneg(coef[hit])[:, None], basis[i][None, :]))
    return ~np.any(rows != 0, axis=1)


def express(fv: FieldView, basis: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Coefficient matrix C with C @ basis = rows; raises if a row is outside
    the span.  `basis` rows must be independent (not necessarily RREF)."""
    tw = fv.tower
    red, t = rref_with_transform(fv, basis)
    rows = np.array(rows, dtype=np.int64)
    coeffs = np.zeros((rows.shape[0], basis.shape[0]), dtype=np.int64)
    for i in range(red.shape[0]):
        piv = int(np.argmax(red[i] != 0))
        c = rows[:, piv].copy()
        coeffs[:, i] = c
        hit = c != 0
        if hit.any():
            rows[hit] = tw.vadd(rows[hit], tw.vmul(tw.vneg(c[hit])[:, None], red[i][None, :]))
    if np.any(rows != 0):
        raise FieldError("vector outside the basis span")
    # coeffs are w.r.t. red = t @ basis, so convert back
    return mat_mul(fv, coeffs, t)


def mat_mul(fv: FieldView, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product over the field (small sizes; used off the hot path)."""
    tw = fv.tower
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    for k in range(a.shape[1]):
        col = a[:, k]
        hit = col != 0
        if hit.any():
            out[hit] = tw.vadd(out[hit], tw.vmul(col[hit][:, None], b[k][None, :]))
    return out


def quotient_coords(
    fv: FieldView, sub: Subspace, z: Subspace, basis: np.ndarray
) -> "QuotientMap":
    """Coordinates modulo z in a fixed complement basis of z inside sub."""
    if not sub.contains_all(z.mat):
        raise AmbientMismatch("z is not contained in the subspace")
    stacked = np.vstack([basis, z.mat])
    if rref(fv, stacked).shape[0] != stacked.shape[0]:
        raise FieldError("basis is not a complement of z")
    if basis.shape[0] + z.dim != sub.dim:
        raise FieldError("basis is not a complement of z in the subspace")
    return QuotientMap(fv, stacked, basis.shape[0])


class QuotientMap:
    """Linear map v -> coordinates of v mod z, kernel exactly z."""

    def __init__(self, fv: FieldView, stacked: np.ndarray, ncoords: int):
        self.fv = fv
        self.stacked = stacked
        self.ncoords = ncoords

    def __call__(self, rows: np.ndarray) -> np.ndarray:
        rows = np.asarray(rows, dtype=np.int64)
        single = rows.ndim == 1
        if single:
            rows = rows[None, :]
        c = express(self.fv, self.stacked, rows)[:, : self.ncoords]
        return c[0] if single else c

    def lift(self, coord_rows: np.ndarray) -> np.ndarray:
        """A preimage for each coordinate row (the complement-basis combo)."""
        coord_rows = np.asarray(coord_rows, dtype=np.int64)
        single = coord_rows.ndim == 1
        if single:
            coord_rows = coord_rows[None, :]
        out = mat_mul(self.fv, coord_rows, self.stacked[: self.ncoords])
        return out[0] if single else out


def canonical_point_blocks(fv: FieldView, dim: int, chunk: int = 1 << 19):
    """Yield canonical projective points of fv^dim in ascending canonical
    index, as numpy blocks."""
    elems = fv.elements()
    q = len(elems)
    for lead in range(dim - 1, -1, -1):
        r = dim - 1 - lead
        total = q**r
        for start in range(0, total, chunk):
            stop = min(start + chunk, total)
            idx = np.arange(start, stop, dtype=np.int64)
            block = np.zeros((len(idx), dim), dtype=np.int64)
            block[:, lead] = 1
            for k in range(r):
                block[:, lead + 1 + k] = elems[(idx // q ** (r - 1 - k)) % q]
            yield block


def all_points(fv: FieldView, dim: int) -> np.ndarray:
    """All canonical projective points of fv^dim, ascending canonical index."""
    blocks = list(canonical_point_blocks(fv, dim))
    return np.vstack(blocks) if blocks else np.zeros((0, dim), dtype=np.int64)
