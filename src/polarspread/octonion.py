"""Split octonions as Zorn vector matrices, and the triality leg used here:
singular points of O+(8,q) to totally singular 4-spaces of one type.

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
from .linalg import Subspace, canonicalize
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


def triality_image(zspace: FormedSpace, p) -> Subspace:
    """The t.s. 4-space p*O for a singular point p of the Zorn space."""
    p = np.asarray(p, dtype=np.int64)
    if not np.any(p):
        raise FieldError("zero vector is not a point")
    if zspace.qform(p) != 0:
        raise FieldError("point is not singular")
    fv = zspace.fv
    rows = np.array([zorn_mul(fv, p, e) for e in np.eye(8, dtype=np.int64)])
    img = canonicalize(fv, rows, 8)
    if img.dim != 4:
        raise FieldError("multiplication image is not 4-dimensional")
    return img


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
    """Triality image of a singular point of `space`, conjugated back so the
    resulting t.s. 4-space lives in `space` itself."""
    zs, iso, inv = triality_maps(space)
    return inv.subspace(triality_image(zs, iso.vector(np.asarray(p, dtype=np.int64))))
