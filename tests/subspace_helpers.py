"""Oracles and spaces shared by the tests: every k-subspace of a small
space, which the enumerators are checked against; the per-member lift,
descent and triality image and the per-point Suzuki-Tits lift that the
stacked builds replaced; the kernel-mask test of single keys that the
bit-plane tests replaced; the field product that the digit tables replaced
and the row-made point keys that key sums replaced; and the O-(4, q)
space, which no library code builds."""

from functools import lru_cache
from itertools import combinations

import numpy as np


def all_subspaces_of_dim(fv, dim: int, k: int, block: int = 1 << 14):
    """All k-subspaces of fv^dim as RREF matrices, yielded in blocks
    (cell-by-cell over pivot-column patterns).  Small q only."""
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


def lift_oracle(proj, uq, target_type):
    """The per-member lift `ZProjection.lift` ran before it took stacks:
    U = <lift of U_q, z> in canonical form, U' the kernel of the
    coefficient functional sqrt(Q) on U's rows, then each singular point
    of U'-perp outside U' tried in turn, keeping the extension whose
    `ts_type` is the requested one."""
    from polarspread.gf import FieldError, sqrt_char2
    from polarspread.linalg import canonicalize, extend_basis, mat_mul

    space, fv = proj.space, proj.space.fv
    tw = fv.tower
    u_rows = np.vstack([mat_mul(fv, uq.mat, proj.comp), proj.z[None, :]])
    u = canonicalize(fv, u_rows, space.dim)
    if not space.is_ti(u):
        raise FieldError("lifted preimage is not totally isotropic")
    phi = np.array([int(sqrt_char2(tw, space.qform(b))) for b in u.mat], dtype=np.int64)
    if not np.any(phi):
        raise FieldError("Q-kernel is not of codimension 1")
    piv = int(np.argmax(phi != 0))
    kernel = []
    for i in range(len(phi)):
        if i != piv:
            row = np.zeros(len(phi), dtype=np.int64)
            row[i] = 1
            row[piv] = tw.neg(tw.div(int(phi[i]), int(phi[piv])))
            kernel.append(row)
    uprime = canonicalize(fv, mat_mul(fv, np.array(kernel), u.mat), space.dim)
    d0, d1 = extend_basis(fv, uprime.mat, space.perp(uprime).mat, 2)
    found = []
    for a, b in [(0, 1)] + [(1, b) for b in fv.elements().tolist()]:
        w = tw.vadd(tw.vmul(np.int64(a), d0), tw.vmul(np.int64(b), d1))
        if space.qform(w) == 0 and not uprime.contains(w):
            cand = canonicalize(fv, np.vstack([uprime.mat, w[None, :]]), space.dim)
            if cand not in found:
                found.append(cand)
    for cand in found:
        if space.ts_type(cand) == target_type:
            return cand
    raise FieldError("no extension of the requested type")


def descent_subspace_oracle(dm, sub):
    """The per-member blow-down `DescentMap` ran before it took lists: the
    rows g b for each basis row b and power-basis element g, each vector
    descended entry by entry, in canonical form."""
    from polarspread.linalg import canonicalize

    tw = dm.src.fv.tower
    table = tw.subfield_coords(dm.src.fv.degree, dm.small.degree)
    rows = [
        [c for x in tw.vmul(np.int64(g), row).tolist() for c in table[x]]
        for row in sub.mat
        for g in dm.basis
    ]
    return canonicalize(dm.small, np.array(rows, dtype=np.int64), dm.dst.dim)


def triality_oracle(space, p):
    """The per-point triality image `octonion` made before it took stacks:
    the rows z * e_i of left multiplication by the point's image z in the
    Zorn space, one `zorn_mul` each, in canonical form (a 4-space), carried
    back into `space` by the inverse isometry."""
    from polarspread.linalg import canonicalize
    from polarspread.octonion import triality_maps, zorn_mul

    zs, iso, inv = triality_maps(space)
    z = iso.vector(np.asarray(p, dtype=np.int64))
    img = canonicalize(zs.fv, np.array([zorn_mul(zs.fv, z, e) for e in np.eye(8, dtype=np.int64)]), 8)
    assert img.dim == 4
    return inv.subspace(img)


def class_swapped(space, members):
    """The members moved by `octonion`'s class swap sigma, carried into
    `space` and back by its triality isometry: t.s. 4-spaces of the other
    class, in canonical form."""
    from polarspread.linalg import canonicalize, mat_mul
    from polarspread.octonion import _class_swap, triality_maps

    zs, iso, inv = triality_maps(space)
    fv = space.fv
    move = mat_mul(fv, mat_mul(fv, iso.matrix, _class_swap(fv)), inv.matrix)
    return [canonicalize(fv, mat_mul(fv, w.mat, move), space.dim) for w in members]


def in_kernel(keys: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """Whether f(x) = 0, from the p = 2 keys of x and the kernel masks of f
    (last axis of `masks`; `keys` broadcasts against masks[..., j]): iff
    every parity of key & mask_j is even, i.e. bit 0 of the OR of the
    popcounts is 0."""
    acc = np.bitwise_count(keys & masks[..., 0])
    for j in range(1, masks.shape[-1]):
        acc |= np.bitwise_count(keys & masks[..., j])
    return (acc & 1) == 0


@lru_cache(maxsize=None)
def ominus4_space(q: int):
    """O-(4, q): hyperbolic pair plus the first anisotropic binary form
    x3^2 + d x3 x4 + e x4^2 in scan order."""
    from polarspread.gf import standalone
    from polarspread.spaces import make_orthogonal

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


def st_lift_oracle(q: int) -> np.ndarray:
    """The Suzuki-Tits points as `families.suzuki_tits_ovoid` lifted them
    before it took arrays, one point at a time: (0,0,0,1), then
    (1, a, b, ab + a^(s+2) + b^s) a-major with s = 2^(e+1), q = 2^(2e+1),
    each taken to (0, s1, s4, s2, s3) with the first entry then set to
    sqrt(Q), in canonical form."""
    from polarspread.linalg import canonicalize_points
    from polarspread.spaces import parabolic_space

    para = parabolic_space(q)
    tw = para.fv.tower
    sigma = 2 ** ((q.bit_length() - 2) // 2 + 1)
    coords = [(0, 0, 0, 1)] + [
        (1, a, b, tw.add(tw.add(tw.mul(a, b), tw.pow(a, sigma + 2)), tw.pow(b, sigma)))
        for a in range(q)
        for b in range(q)
    ]
    rows = []
    for s1, s2, s3, s4 in coords:
        body = np.array([0, s1, s4, s2, s3], dtype=np.int64)
        body[0] = tw.pow(para.qform(body), 2 ** (tw.d - 1))
        rows.append(body)
    return canonicalize_points(para.fv, np.array(rows, dtype=np.int64))


def perp_off_oracle(space, pts: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """The field product `Perp.off` made for odd p and wide keys before it
    read digit tables: the bitsets of the points of `pts` off the kernel of
    B(., v) for each row v of `vs`, from (vs G^T) pts^T."""
    from polarspread.linalg import mat_mul
    from polarspread.spaces import pack_bits

    w = mat_mul(space.fv, vs, space.gram.T)
    return pack_bits(mat_mul(space.fv, w, pts.T) != 0)


def point_keys_oracle(fv, bases: np.ndarray) -> np.ndarray:
    """The (m, P) point keys of a stack of RREF bases as the partial-spread
    check made them before key sums: every point as a field row
    (`stacked_points`), then keyed (`point_keys`)."""
    from polarspread.linalg import point_keys, stacked_points

    m, _, n = bases.shape
    return point_keys(fv, stacked_points(fv, bases).reshape(-1, n)).reshape(m, -1)
