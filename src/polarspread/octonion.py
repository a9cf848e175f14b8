"""Split octonions as Zorn vector matrices, and the triality leg used here:
singular points of O+(8,q) to totally singular 4-spaces of one type, and
back (`triality_points`).

An octonion is flattened to (a, v1, v2, v3, w1, w2, w3, b) for the Zorn
matrix [[a, v], [w, b]]; its norm a*b - v.w is the quadratic form of the
Zorn coordinatization of O+(8,q).  For a singular point p, the image of
left multiplication x -> p*x is a totally singular 4-space, and two images
meet in 0 exactly when the points are non-perpendicular.  Both properties
are machine-checked where they are relied on; they pin down the convention
(signs, left vs right ideals) without appeal to any external construction.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .gf import FieldError, FieldView
from .linalg import Subspace, canonicalize_points, mat_mul, rref_stack
from .spaces import FormedSpace, LinearMap, find_isometry, make_orthogonal


def zorn_space(fv: FieldView) -> FormedSpace:
    """O+(8,q) carrying the octonion norm form a*b - v.w."""
    tw = fv.tower
    qc = np.zeros((8, 8), dtype=np.int64)
    qc[0, 7] = 1
    for i in (1, 2, 3):
        qc[i, i + 3] = tw.neg(1)
    return make_orthogonal(fv, qc, "orthogonal_plus")


def zorn_mul(fv: FieldView, x, y) -> np.ndarray:
    """Zorn product [[a,v],[w,b]] * [[a',v'],[w',b']]."""
    tw = fv.tower
    x = np.asarray(x, dtype=np.int64)
    y = np.asarray(y, dtype=np.int64)
    if x.shape != (8,) or y.shape != (8,):
        raise FieldError("octonions are 8-vectors")
    a, v, w, b = int(x[0]), x[1:4], x[4:7], int(x[7])
    a2, v2, w2, b2 = int(y[0]), y[1:4], y[4:7], int(y[7])

    def dot(u1, u2):
        acc = 0
        for i in range(3):
            acc = tw.add(acc, tw.mul(int(u1[i]), int(u2[i])))
        return acc

    def cross(u1, u2):
        out = np.zeros(3, dtype=np.int64)
        for i in range(3):
            j, k = (i + 1) % 3, (i + 2) % 3
            out[i] = tw.sub(tw.mul(int(u1[j]), int(u2[k])), tw.mul(int(u1[k]), int(u2[j])))
        return out

    def scale(c, u):
        return tw.vmul(np.int64(c), u)

    na = tw.add(tw.mul(a, a2), dot(v, w2))
    nv = tw.vadd(tw.vadd(scale(a, v2), scale(b2, v)), tw.vneg(cross(w, w2)))
    nw = tw.vadd(tw.vadd(scale(a2, w), scale(b, w2)), cross(v, v2))
    nb = tw.add(tw.mul(b, b2), dot(w, v2))
    return np.concatenate([[na], nv, nw, [nb]]).astype(np.int64)


def octonion_norm(fv: FieldView, x) -> int:
    return zorn_space(fv).qform(np.asarray(x, dtype=np.int64))


def identity_octonion() -> np.ndarray:
    e = np.zeros(8, dtype=np.int64)
    e[0] = 1
    e[7] = 1
    return e


@lru_cache(maxsize=None)
def triality_maps(space: FormedSpace) -> tuple[FormedSpace, LinearMap, LinearMap]:
    """(zorn_space, iso into it, inverse iso) for a plus-type 8-space; spaces
    hash by identity, so each space's maps are found once."""
    if space.kind != "orthogonal_plus" or space.dim != 8:
        raise FieldError("triality needs a plus-type 8-space")
    zs = zorn_space(space.fv)
    iso = find_isometry(space, zs)
    return zs, iso, iso.inverse()


def triality_subspace_of_point(space: FormedSpace, p) -> Subspace:
    """Triality image of a singular point of `space`: the t.s. 4-space p*O
    of its image in the Zorn space, conjugated back so that it lives in
    `space` itself (`triality_subspaces` of the one point)."""
    return triality_subspaces(space, p)[0]


@lru_cache(maxsize=None)
def _left_products(fv: FieldView) -> np.ndarray:
    """(8, 64): row k is the 8 x 8 matrix L[k] with rows e_k * e_i, flat.
    The Zorn product is bilinear, so p * e_i = sum_k p_k L[k][i], and the
    rows of x -> p * x for many points p are one product P L."""
    unit = np.eye(8, dtype=np.int64)
    return np.stack([np.stack([zorn_mul(fv, e, f) for f in unit]).ravel() for e in unit])


def triality_subspaces(space: FormedSpace, pts: np.ndarray) -> list[Subspace]:
    """The triality image of every row of `pts` (`triality_subspace_of_point`),
    on stacks: the points go through the isometry, their left-multiplication
    rows come from one product with the fixed matrices L[k], and the images
    and their preimages under the isometry are each reduced by one
    `rref_stack`.  Raises FieldError on a zero row, a nonsingular point or
    an image that is not 4-dimensional."""
    zs, iso, inv = triality_maps(space)
    fv = zs.fv
    zp = iso.vector(np.asarray(pts, dtype=np.int64).reshape(-1, 8))
    if not np.all(np.any(zp, axis=1)):
        raise FieldError("zero vector is not a point")
    if np.any(zs.vqform(zp)):
        raise FieldError("point is not singular")
    imgs, ranks = rref_stack(fv, mat_mul(fv, zp, _left_products(fv)).reshape(-1, 8, 8))
    if np.any(ranks != 4):
        raise FieldError("multiplication image is not 4-dimensional")
    back, _ = rref_stack(fv, mat_mul(fv, imgs[:, :4].reshape(-1, 8), inv.matrix).reshape(-1, 4, 8))
    return Subspace.of_stack(fv, 8, back)


@lru_cache(maxsize=None)
def _class_swap(fv: FieldView) -> np.ndarray:
    """sigma: (a, v, w, b) -> (b, v, w, a) on Zorn coordinates, as a matrix.
    The norm a*b - v.w is symmetric in a and b, so sigma is an isometry; it
    is the reflection in e_0 - e_7, which exchanges the two classes of t.s.
    4-spaces.  Checked exactly when made: M G M^T = G, and Q on the basis."""
    zs = zorn_space(fv)
    unit = np.eye(8, dtype=np.int64)
    swap = unit[[7, 1, 2, 3, 4, 5, 6, 0]]
    isometry = np.array_equal(mat_mul(fv, mat_mul(fv, swap, zs.gram), swap.T), zs.gram)
    if not (isometry and np.array_equal(zs.vqform(swap), zs.vqform(unit))):
        raise FieldError("the class swap is not an isometry")
    return swap


def _preimages(zs: FormedSpace, zb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(points, ranks) for a (m, 4, 8) stack of bases in the Zorn space zs:
    the 32 x 8 system B(p * e_i, w_j) = 0 of each member, made by one
    product of the rows e_k * e_i with the Gram matrix and the bases and
    reduced by one `rref_stack`, and the point read from the free column of
    a rank 7 system (rows of other ranks are zero)."""
    fv, m = zs.fv, len(zb)
    lg = mat_mul(fv, _left_products(fv).reshape(64, 8), zs.gram)  # row (k, i): B(e_k * e_i, .)
    eqs = mat_mul(fv, lg, zb.reshape(-1, 8).T).reshape(8, 8, m, 4)
    red, ranks = rref_stack(fv, eqs.transpose(2, 1, 3, 0).reshape(m, 32, 8))
    pts = np.zeros((m, 8), dtype=np.int64)
    one = np.flatnonzero(ranks == 7)
    red = red[one, :7]
    piv = np.argmax(red != 0, axis=2)  # the 7 pivot columns, ascending
    free = 28 - piv.sum(axis=1)  # the column of 0..7 that is no pivot
    pts[one, free] = 1
    pts[one[:, None], piv] = fv.tower.vneg(red[np.arange(len(one))[:, None], np.arange(7), free[:, None]])
    return pts, ranks


def triality_points(space: FormedSpace, members: list[Subspace]) -> np.ndarray:
    """The inverse of `triality_subspaces`, on stacks: the canonical point of
    `space` whose image is each member, one row per member.  p * O = W iff
    p * e_i lies in W for every i, and as W = W^perp, iff B(p * e_i, w_j) =
    0 (`_preimages`).  A rank of 7 leaves one point.  When every member has
    rank 8 they all lie in the other class: they are moved once by sigma
    (`_class_swap`), and the rows are the points of the moved members, a
    family isometric to the given one.  The points' images are compared with
    the (moved) members byte for byte.  Raises FieldError on any other rank
    pattern, or on a mismatch."""
    zs, iso, inv = triality_maps(space)
    fv = zs.fv
    if not members:
        return np.zeros((0, 8), dtype=np.int64)
    if any(w.dim != 4 or w.dim_ambient != 8 for w in members):
        raise FieldError("triality images are 4-spaces of an 8-space")
    bases = np.stack([w.mat for w in members])
    zb = iso.vector(bases.reshape(-1, 8)).reshape(bases.shape)
    pts, ranks = _preimages(zs, zb)
    if np.all(ranks == 8):
        zb = mat_mul(fv, zb.reshape(-1, 8), _class_swap(fv)).reshape(zb.shape)
        bases = rref_stack(fv, mat_mul(fv, zb.reshape(-1, 8), inv.matrix).reshape(bases.shape))[0]
        pts, ranks = _preimages(zs, zb)
    if np.any(ranks != 7):
        raise FieldError("members are not the triality images of points of one class")
    pts = canonicalize_points(fv, inv.vector(pts))
    images = np.stack([w.mat for w in triality_subspaces(space, pts)])
    if not np.array_equal(images, bases):
        raise FieldError("the points' triality images are not the members")
    return pts
