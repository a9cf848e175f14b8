"""Exact linear algebra over a FieldView: RREF subspaces, points, keys.

Vectors are numpy int64 rows of field-element indices.  A subspace is stored
as its unique reduced-row-echelon basis, so two equal subspaces compare equal
byte-for-byte.  Projective points are canonicalized by scaling the first
nonzero coordinate to 1, and are ordered by their *canonical index*: the
integer formed by reading the coordinate tuple as digits, most significant
first, each digit the coordinate's rank in the view's sorted elements.
Every "first point such that ..." rule in the package uses this order.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

import numpy as np

from .gf import FieldError, FieldView

# points per basis in a block of `stacked_point_blocks`
POINT_CHUNK = 1 << 10


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


def rref_stack(fv: FieldView, mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(reduced, ranks): the reduced row echelon form of every matrix of a
    (B, k, n) stack, in one column loop over the whole stack.  Matrix b's
    first ranks[b] rows are `rref` of it alone, byte for byte (the same row
    swap, scaling and elimination, column by column), and its other rows are
    zero.  The loop is over columns, not matrices, so a stack of one costs
    about three times a single `rref` (137 against 47 us for a 4 x 8 matrix
    over GF(4)): use `rref` for one matrix."""
    tw = fv.tower
    m = np.array(mats, dtype=np.int64)
    nmat, k, n = m.shape
    ranks = np.zeros(nmat, dtype=np.int64)
    below = np.arange(k)[None, :]
    for col in range(n):
        cand = (m[:, :, col] != 0) & (below >= ranks[:, None])
        b = np.flatnonzero(cand.any(axis=1))
        if not len(b):
            continue
        r, piv = ranks[b], np.argmax(cand[b], axis=1)
        prow = m[b, piv]
        m[b, piv] = m[b, r]  # swap rows r and piv (the same row when equal)
        prow = tw.vmul(prow, tw.vinv(prow[:, col])[:, None])
        factors = m[b, :, col]
        factors[np.arange(len(b)), r] = 0
        m[b] = tw.vadd(m[b], tw.vmul(tw.vneg(factors)[:, :, None], prow[:, None, :]))
        m[b, r] = prow
        ranks[b] += 1
    return m, ranks


def rref_with_transform(fv: FieldView, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """RREF of independent rows together with T such that T @ rows = R."""
    k, n = rows.shape
    aug = np.concatenate([rows, np.eye(k, dtype=np.int64)], axis=1)
    red = rref(fv, aug)
    if red.shape[0] != k:
        raise FieldError("rows are not independent")
    return red[:, :n].copy(), red[:, n:].copy()


class Subspace:
    """Immutable subspace of fv^dim_ambient in canonical RREF form.  Its
    hash is made when first asked for."""

    __slots__ = ("fv", "dim_ambient", "mat", "_hash")

    def __init__(self, fv: FieldView, dim_ambient: int, mat: np.ndarray):
        self.fv = fv
        self.dim_ambient = dim_ambient
        mat = np.ascontiguousarray(mat, dtype=np.int64)
        mat.flags.writeable = False
        self.mat = mat
        self._hash = None

    @classmethod
    def of_stack(cls, fv: FieldView, dim_ambient: int, mats: np.ndarray) -> list["Subspace"]:
        """One subspace per canonical basis of an (m, k, n) stack, each
        matrix a row of the stack, which is made read-only (copied first
        only if it is not C-contiguous int64)."""
        mats = np.ascontiguousarray(mats, dtype=np.int64)
        mats.flags.writeable = False
        out = []
        for mat in mats:
            sub = cls.__new__(cls)
            sub.fv, sub.dim_ambient, sub.mat, sub._hash = fv, dim_ambient, mat, None
            out.append(sub)
        return out

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
        if self._hash is None:
            self._hash = hash((self.fv.degree, self.dim_ambient, self.mat.tobytes()))
        return self._hash

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, ambient={self.dim_ambient})"

    def _check_mate(self, other: "Subspace") -> None:
        if self.fv != other.fv or self.dim_ambient != other.dim_ambient:
            raise AmbientMismatch("subspaces live in different ambient spaces")

    def contains(self, v: np.ndarray) -> bool:
        v = np.asarray(v, dtype=np.int64)
        return bool(reduce_rows(self.fv, self.mat, v[None, :])[0])

    def vectors(self) -> np.ndarray:
        """All q^dim vectors as rows (includes zero)."""
        return span_vectors(self.fv, self.mat, self.dim_ambient)

    def points(self) -> np.ndarray:
        """Canonical projective points in ascending canonical index, one row
        each (`stacked_points` of this one basis)."""
        return stacked_points(self.fv, self.mat[None])[0]

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


def stacked_points(fv: FieldView, bases: np.ndarray) -> np.ndarray:
    """(m, P, n): the canonical points of each of m subspaces given by their
    RREF bases (m, k, n), in ascending canonical index, one row each: the
    blocks of `stacked_point_blocks`, concatenated."""
    m, _, n = bases.shape
    empty = np.zeros((m, 0, n), dtype=np.int64)
    return np.concatenate([empty, *stacked_point_blocks(fv, bases)], axis=1)


def stacked_point_blocks(fv: FieldView, bases: np.ndarray):
    """Yield the points of each basis in blocks of at most POINT_CHUNK
    points each, as (m, size, n) arrays: the rows of `stacked_points` in
    order.

    These are the rows c B for the canonical coefficient vectors c.  The
    points led by basis row i (c leading at i) are row i + span(rows i+1..):
    rows below i vanish left of their pivots, and at pivot column i only row
    i is nonzero (= 1), so every such sum is already canonical.  They run
    from the last row up, so from the latest leading column, the smallest
    keys.  Within a lead the coefficient of row j is the entry at its pivot
    and the span takes the first row's coefficient as its most significant
    digit; every entry between two pivots depends only on the coefficients
    before it, so the order is lexicographic.  The span of the last rows
    is kept whole while it has at most POINT_CHUNK points; a lead with more
    points is yielded one head at a time, row i plus one combination of the
    rows above that tail, in lexicographic order of the combinations, plus
    the whole tail.  So a consumer that stops early makes no point past the
    chunk it stops in."""
    tw, elems = fv.tower, fv.elements()
    m, k, n = bases.shape
    span = np.zeros((m, 1, n), dtype=np.int64)  # span of the tail rows
    heads = span  # span of the rows between row i and the tail
    for i in range(k - 1, -1, -1):
        row = bases[:, i, None, :]
        if heads.shape[1] == 1:  # the zero head alone
            yield tw.vadd(row, span)
        else:
            for c in range(heads.shape[1]):
                yield tw.vadd(tw.vadd(row, heads[:, c, None]), span)
        if i and heads.shape[1] == 1 and span.shape[1] * len(elems) <= POINT_CHUNK:
            span = _grow_span(tw, elems, row, span)
        elif i:
            heads = _grow_span(tw, elems, row, heads)


def _grow_span(tw, elems: np.ndarray, row: np.ndarray, span: np.ndarray) -> np.ndarray:
    """The (m, q S, n) span of `row` and a (m, S, n) span, the row's
    coefficient most significant."""
    m, _, n = span.shape
    return tw.vadd(tw.vmul(elems[:, None, None], row[:, None]), span[:, None]).reshape(m, -1, n)


def stacked_point_keys(fv: FieldView, bases: np.ndarray) -> np.ndarray:
    """(m, P): the `point_keys` of `stacked_points(fv, bases)`, in the same
    order, made from key sums with no row.  `KeyPacking` keys add as the
    vectors do, so the keys of the points led by row i are key(row i) plus
    the keys of the span of the rows below it, grown as `stacked_point_blocks`
    grows that span: from the keys of each row's q multiples, one `kadd` per
    row.  Coordinates whose packed keys would pass 62 bits are summed in
    blocks of columns that fit (`_column_blocks`), and each block's keys are
    read back into `point_keys` form (`KeyPacking.point_keys`) at its
    shift."""
    tw, elems = fv.tower, fv.elements()
    m, k, n = bases.shape
    width, _ = _key_shifts(fv, n)
    out = np.zeros((m, (fv.q**k - 1) // (fv.q - 1)), dtype=np.int64)
    for lo, hi in _column_blocks(fv, n):
        pk = packing(fv, hi - lo)
        mult = pk.pack(tw.vmul(elems[:, None, None, None], bases[None, :, :, lo:hi]))  # (q, m, k)
        span = np.zeros((m, 1), dtype=np.int64)
        at = 0
        for i in range(k - 1, -1, -1):
            keys = pk.kadd(mult[1, :, i, None], span)  # elems[1] is 1
            out[:, at : at + keys.shape[1]] |= pk.point_keys(keys) << width * (n - hi)
            at += keys.shape[1]
            if i:
                span = pk.kadd(mult[:, :, i].T[:, :, None], span[:, None, :]).reshape(m, -1)
    return out


@lru_cache(maxsize=None)
def _column_blocks(fv: FieldView, dim: int) -> tuple[tuple[int, int], ...]:
    """Ranges of columns, first to last, each of as many columns as
    `KeyPacking` can pack in 62 bits."""
    width = 1 if fv.p == 2 else (fv.p - 1).bit_length() + 1
    per = 62 // (fv.degree * width)
    return tuple((lo, min(dim, lo + per)) for lo in range(0, dim, per))


def canonicalize(fv: FieldView, vectors, dim_ambient: int | None = None) -> Subspace:
    """Span of the given vectors in canonical form."""
    if dim_ambient is None:
        vecs = np.array(list(vectors), dtype=np.int64)
        if vecs.size == 0:
            raise AmbientMismatch("cannot infer ambient dimension from no vectors")
        dim_ambient = vecs.shape[-1]
    m = as_matrix(list(vectors), dim_ambient)
    return Subspace(fv, dim_ambient, rref(fv, m) if len(m) else m)


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


@lru_cache(maxsize=None)
def _ranks(fv: FieldView) -> np.ndarray:
    """rank[x]: the position of tower index x in the sorted fv.elements()."""
    ranks = np.zeros(fv.tower.order, dtype=np.int64)
    ranks[fv.elements()] = np.arange(fv.q, dtype=np.int64)
    return ranks


def _key_shifts(fv: FieldView, dim: int) -> tuple[int, np.ndarray]:
    """(width, shifts): the bits per coordinate of a `point_keys` key and
    each coordinate's shift, first coordinate most significant."""
    width = (fv.q - 1).bit_length()
    if dim * width > 62:
        raise FieldError("coordinate packing exceeds int64; space too wide")
    return width, width * np.arange(dim - 1, -1, -1, dtype=np.int64)


def point_keys(fv: FieldView, rows: np.ndarray) -> np.ndarray:
    """Canonical index of each row: its coordinates' ranks in the view,
    bit_length(q - 1) bits each, first coordinate most significant.  Ranks
    keep the order of the elements, so keys order rows lexicographically."""
    _, shifts = _key_shifts(fv, rows.shape[1])
    return _ranks(fv)[rows] @ (np.int64(1) << shifts)


def key_rows(fv: FieldView, keys: np.ndarray, dim: int) -> np.ndarray:
    """The rows whose `point_keys` are `keys`, in order: the inverse of
    `point_keys`, made one column at a time."""
    width, shifts = _key_shifts(fv, dim)
    keys, elems = np.asarray(keys, dtype=np.int64), fv.elements()
    rows = np.empty((len(keys), dim), dtype=np.int64)
    for i, shift in enumerate(shifts.tolist()):
        rows[:, i] = elems[(keys >> shift) & ((1 << width) - 1)]
    return rows


def canonical_keys(fv: FieldView, dim: int) -> np.ndarray:
    """The `point_keys` of all canonical points of fv^dim, ascending, made
    without their rows.  The points led by column dim - 1 - r are 1 there
    and any ranks in the r columns after it; the ranks are built one column
    at a time, each new column the most significant, so they ascend."""
    width, _ = _key_shifts(fv, dim)
    digits = np.arange(fv.q, dtype=np.int64)
    tail = np.zeros(1, dtype=np.int64)  # the ranks of the r columns after the lead
    out = []
    for r in range(dim):
        out.append((np.int64(1) << width * r) | tail)
        if r < dim - 1:
            tail = ((digits[:, None] << width * r) | tail[None, :]).ravel()
    return np.concatenate(out) if out else np.zeros(0, dtype=np.int64)


class KeyPacking:
    """View-local vector keys of fv^dim with key addition, for every p.

    An element's *rank* is its position in the sorted `fv.elements()`.  The
    view is an e-dimensional GF(p)-subspace of the tower's base-p digit
    space; take its reduced echelon basis b_1..b_e with pivots chosen from
    the most significant digit down.  The pivot digit of x = sum c_i b_i is
    c_i, and every digit above it depends on c_1..c_(i-1) only, so integer
    order on x is lexicographic order on (c_1, ..., c_e).  The base-p digits
    of the rank are therefore the echelon coordinates: ranking is GF(p)-
    linear and order-preserving.

    A key stores each coordinate as the e base-p digits of its rank, W bits
    per digit, first coordinate most significant.  Keys thus order vectors
    as `point_keys` does, and the key of a vector sum is the digitwise sum
    mod p of the keys.  For p = 2, W = 1 and that sum is XOR.  For odd p,
    W = bit_length(p - 1) + 1: a digit sum s <= 2p - 2 fits its field, and
    so does s + 2^(W-1) - p, whose top bit is set exactly when s >= p.  One
    add, shift and mask flag those fields and one subtraction of p reduces
    them, every digit at once (SWAR; H. S. Warren, Hacker's Delight, ch. 2).
    """

    def __init__(self, fv: FieldView, dim: int):
        p, e = fv.p, fv.degree
        width = 1 if p == 2 else (p - 1).bit_length() + 1
        if dim * e * width > 62:
            raise FieldError("packed keys exceed int64; space too wide")
        self.fv = fv
        self.p = p
        self.q = fv.q
        self.width = width
        # the rank's base-p digits, W bits apart, by tower index
        ranks = _ranks(fv)
        self.code = sum(((ranks // p**k) % p) << (k * width) for k in range(e))
        self.weights = np.int64(1) << (e * width * np.arange(dim - 1, -1, -1, dtype=np.int64))
        self.ones = np.int64(sum(1 << (k * width) for k in range(dim * e)))
        self.off = ((1 << (width - 1)) - p) * self.ones
        if p == 2:  # the digitwise sum mod 2: bind the ufunc, skipping a call
            self.kadd = np.bitwise_xor

    def pack(self, rows: np.ndarray) -> np.ndarray:
        """Keys of vectors given along the last axis as tower indices (one
        coordinate at a time, so no temporary outgrows the keys)."""
        rows = np.asarray(rows)
        keys = np.zeros(rows.shape[:-1], dtype=np.int64)
        for i, w in enumerate(self.weights):
            keys += self.code[rows[..., i]] * w
        return keys

    def kadd(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Key of the sum of the vectors keyed a and b (XOR for p = 2)."""
        s = a + b
        return s - self.p * (((s + self.off) >> (self.width - 1)) & self.ones)

    def point_keys(self, keys: np.ndarray) -> np.ndarray:
        """The `point_keys` of the vectors keyed `keys`: each coordinate's
        digits read back into its rank, bit_length(q - 1) bits a coordinate.
        For p = 2 these are the keys themselves.  For odd p a digit d_k of
        coordinate i adds d_k p^k to that coordinate's field, whatever the
        other digits are, so the read is one lookup per group of digit
        fields (`_rank_tables`), summed."""
        if self.p == 2:
            return keys
        bits, tables = self._rank_tables
        out = tables[0][keys & ((1 << bits) - 1)]
        for c in range(1, len(tables)):
            out += tables[c][(keys >> c * bits) & ((1 << bits) - 1)]
        return out

    @cached_property
    def _rank_tables(self) -> tuple[int, np.ndarray]:
        """(bits, tables): table c maps the key bits c*bits.. of up to 12
        bits, whole digit fields, to their part of the `point_keys` key."""
        e, width = self.fv.degree, self.width
        per = max(1, 12 // width)  # digit fields a group
        ndig = len(self.weights) * e
        fields = np.arange(1 << per * width, dtype=np.int64)
        step = (self.q - 1).bit_length()  # a coordinate's bits in a point key
        tables = []
        for lo in range(0, ndig, per):
            table = np.zeros_like(fields)
            for pos in range(lo, min(ndig, lo + per)):  # digit pos % e of coordinate pos // e from the last
                digit = (fields >> width * (pos - lo)) & ((1 << width) - 1)
                table += digit * self.p ** (pos % e) << step * (pos // e)
            tables.append(table)
        return per * width, np.stack(tables)

    def number(self, keys: np.ndarray) -> np.ndarray:
        """The integer whose base-p digits are the key's digits: a bijection
        of the keys of fv^dim onto range(q^dim); the key itself for p = 2."""
        if self.p == 2:
            return keys
        per, value = _digit_values(self.p, self.width)
        bits, mask = per * self.width, (1 << per * self.width) - 1
        out = value[keys & mask]
        for c in range(1, -(-len(self.weights) * self.fv.degree // per)):
            out += value[(keys >> (c * bits)) & mask] * self.p ** (c * per)
        return out

    def multiples(self, rows: np.ndarray) -> np.ndarray:
        """(n, q - 1) keys of the nonzero scalar multiples of each row."""
        nz = self.fv.elements()[1:]
        return self.pack(self.fv.tower.vmul(nz[None, :, None], rows[:, None, :]))

    def kernel_masks(self, coefs: np.ndarray) -> np.ndarray:
        """(m, e) bit masks of the functionals x -> sum_i coefs[r, i] x_i, for
        p = 2.  Key bit b is the key of u_b = elements()[2^k] e_i; since ranks
        are GF(2)-linear, bit j of rank(f(x)) is the parity of key(x) & mask_j,
        where mask_j holds the b with bit j set in rank(f(u_b))."""
        if self.p != 2:
            raise FieldError("kernel masks need characteristic 2")
        fv = self.fv
        e, dim = fv.degree, len(self.weights)
        elems = fv.elements()
        coefs = np.asarray(coefs, dtype=np.int64).reshape(-1, dim)
        units = elems[1 << np.arange(e)]
        ranks = np.searchsorted(elems, fv.tower.vmul(coefs[:, :, None], units))  # (m, dim, e)
        pos = e * np.arange(dim - 1, -1, -1)[:, None] + np.arange(e)  # key bit of (i, k)
        bits = (ranks[..., None] >> np.arange(e)) & 1  # (m, dim, k, j)
        return (bits << pos[:, :, None]).sum(axis=(1, 2))


@lru_cache(maxsize=None)
def packing(fv: FieldView, dim: int) -> KeyPacking:
    """The shared `KeyPacking` of fv^dim."""
    return KeyPacking(fv, dim)


@lru_cache(maxsize=None)
def _digit_values(p: int, width: int) -> tuple[int, np.ndarray]:
    """(per, value): value[f] = sum_k d_k p^k over the `per` width-bit digit
    fields d_k of f, for every f of per * width <= 16 bits."""
    per = 16 // width
    fields = np.arange(1 << (per * width), dtype=np.int64)
    return per, sum(((fields >> (k * width)) & ((1 << width) - 1)) * p**k for k in range(per))


def isin_sorted(keys: np.ndarray, sorted_arr: np.ndarray) -> np.ndarray:
    """Elementwise membership of keys in an ascending array."""
    if len(sorted_arr) == 0:
        return np.zeros(np.shape(keys), dtype=bool)
    idx = np.minimum(np.searchsorted(sorted_arr, keys), len(sorted_arr) - 1)
    return sorted_arr[idx] == keys


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


def extend_basis(fv: FieldView, base: np.ndarray, rows: np.ndarray, k: int) -> np.ndarray:
    """The first k of `rows`, in order, that each extend the independent
    `base` and the rows taken before them to an independent set (fewer if
    the rows run out)."""
    taken = np.zeros((0, base.shape[1]), dtype=np.int64)
    for row in rows:
        if len(taken) == k:
            break
        stack = np.vstack([base, taken, row[None, :]])
        if rref(fv, stack).shape[0] == len(stack):
            taken = stack[len(base) :]
    return taken


def mat_mul(fv: FieldView, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product over the field.  Over a prime field the indices are
    the residues, so it is one integer product mod p."""
    tw = fv.tower
    if tw.d == 1:
        return (a @ b) % tw.p
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    for k in range(a.shape[1]):
        col = a[:, k]
        hit = col != 0
        if hit.any():
            out[hit] = tw.vadd(out[hit], tw.vmul(col[hit][:, None], b[k][None, :]))
    return out


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
    """All canonical projective points of fv^dim, ascending canonical index,
    unpacked from their keys."""
    return key_rows(fv, canonical_keys(fv, dim), dim)
