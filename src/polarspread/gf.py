"""Finite field towers GF(p) <= GF(p^e) <= ... <= GF(p^d) with table arithmetic.

A tower is a single top field GF(p^d) together with a list of designated
subfield degrees.  Elements are integer indices 0..p^d-1 whose base-p digits
are the coordinates in the polynomial basis {1, x, x^2, ...} of the defining
polynomial.  Subfields are never separate objects: a subfield is the fixed set
of the appropriate Frobenius power inside the top field, and all arithmetic
(including trace and norm between designated subfields) happens with top-field
indices.

Multiplication uses log/antilog tables, so the defining polynomials must be
primitive.  The tables carry a zero sentinel (Greenan, Miller, Schwarz,
MASCOTS 2008): with n = p^d, the real logs are 0..n-2, log[0] is 2(n-1),
and exp repeats its period over [0, 2(n-1)) and is zero from 2(n-1) up to
4(n-1).  A sum of two real logs is at most 2(n-2), and a sum involving
log[0] lands in the zero tail, so `vmul(a, b)` is the single lookup
exp[log[a] + log[b]] with no zero mask.  The scalar ops and `vfrob` keep
their own zero tests.  The table below holds, for each supported (p, d), the
lexicographically smallest primitive polynomial (coefficients low-to-high,
read as base-p digits); scripts/gen_primitive_polys.py regenerates it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

# Lexicographically smallest primitive polynomial for GF(p^d), monic, listed
# low-to-high without the leading 1.  Verified irreducible + primitive by the
# test suite.
PRIMITIVE_POLYS: dict[tuple[int, int], tuple[int, ...]] = {
    (2, 1): (1,),
    (2, 2): (1, 1),
    (2, 3): (1, 1, 0),
    (2, 4): (1, 1, 0, 0),
    (2, 5): (1, 0, 1, 0, 0),
    (2, 6): (1, 1, 0, 0, 0, 0),
    (2, 7): (1, 1, 0, 0, 0, 0, 0),
    (2, 8): (1, 0, 1, 1, 1, 0, 0, 0),
    (2, 9): (1, 0, 0, 0, 1, 0, 0, 0, 0),
    (2, 10): (1, 0, 0, 1, 0, 0, 0, 0, 0, 0),
    (2, 11): (1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0),
    (2, 12): (1, 1, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0),
    (2, 13): (1, 1, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0),
    (2, 14): (1, 1, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0),
    (2, 15): (1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (2, 16): (1, 0, 1, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (3, 1): (1,),
    (3, 2): (2, 1),
    (3, 3): (1, 2, 0),
    (3, 4): (2, 1, 0, 0),
    (3, 5): (1, 2, 0, 0, 0),
    (3, 6): (2, 1, 0, 0, 0, 0),
    (5, 1): (2,),
    (5, 2): (2, 1),
    (5, 3): (2, 3, 0),
    (5, 4): (2, 2, 1, 0),
    (7, 1): (2,),
    (7, 2): (3, 1),
    (7, 3): (2, 3, 0),
    (11, 1): (3,),
    (11, 2): (7, 1),
}


class FieldError(ValueError):
    """Illegal field operation (bad degree chain, element outside subfield, ...)."""


def _digits(n: int, p: int, d: int) -> list[int]:
    out = []
    for _ in range(d):
        out.append(n % p)
        n //= p
    return out


def _undigits(c: Sequence[int], p: int) -> int:
    out = 0
    for v in reversed(c):
        out = out * p + int(v)
    return out


class FieldTower:
    """GF(p^d) with designated subfield degrees, log/antilog multiplication.

    The generator beta (element index p, i.e. the polynomial x) is primitive,
    so exp/log tables are indexed by powers of beta.
    """

    def __init__(self, p: int, d: int, designated: Iterable[int] = ()):
        key = (p, d)
        if key not in PRIMITIVE_POLYS:
            raise FieldError(f"no defining polynomial on record for GF({p}^{d})")
        self.p = p
        self.d = d
        self.order = p**d
        self.poly = PRIMITIVE_POLYS[key] + (1,)
        degs = sorted(set(designated) | {d})
        for e in degs:
            if d % e:
                raise FieldError(f"designated degree {e} does not divide {d}")
        self.designated = tuple(degs)

        self._build_tables()
        self._subfield_cache: dict[int, np.ndarray] = {}
        self._coords_cache: dict[tuple[int, int], dict[int, tuple[int, ...]]] = {}
        self._gen_cache: dict[tuple[int, int], int] = {}

    def _build_tables(self) -> None:
        p, d, n = self.p, self.d, self.order
        # x^d = -(low coefficients) reduction, done on digit vectors
        red = [(-c) % p for c in self.poly[:d]]
        exp = np.zeros(4 * (n - 1) + 1, dtype=np.int64)
        log = np.zeros(n, dtype=np.int64)
        cur = [1] + [0] * (d - 1)
        for i in range(n - 1):
            v = _undigits(cur, p)
            exp[i] = v
            log[v] = i
            # multiply cur by x
            carry = cur[d - 1]
            cur = [0] + cur[: d - 1]
            if carry:
                cur = [(a + carry * r) % p for a, r in zip(cur, red)]
        if _undigits(cur, p) != 1:
            raise FieldError(f"polynomial for GF({p}^{d}) is not irreducible")
        if len(np.unique(exp[: n - 1])) != n - 1:
            raise FieldError(f"polynomial for GF({p}^{d}) is not primitive")
        exp[n - 1 : 2 * (n - 1)] = exp[: n - 1]
        log[0] = 2 * (n - 1)  # zero sentinel: any sum with it hits the zero tail
        self._exp = exp
        self._log = log

        if p == 2:
            self._addtab = None
        elif d == 1:
            self._addtab = None
        else:
            idx = np.arange(n)
            digs = np.stack([(idx // p**k) % p for k in range(d)])  # (d, n)
            s = (digs[:, :, None] + digs[:, None, :]) % p
            tab = np.zeros((n, n), dtype=np.int64)
            for k in range(d):
                tab += s[k] * p**k
            self._addtab = tab

        inv = np.zeros(n, dtype=np.int64)
        nz = np.arange(1, n)
        inv[nz] = exp[(n - 1 - log[nz]) % (n - 1)]
        self._inv = inv

    # -- scalar ops ------------------------------------------------------
    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if self.d == 1:
            return (a + b) % self.p
        return int(self._addtab[a, b])

    def neg(self, a: int) -> int:
        if self.p == 2:
            return a
        if self.d == 1:
            return (-a) % self.p
        digs = _digits(a, self.p, self.d)
        return _undigits([(-c) % self.p for c in digs], self.p)

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return int(self._exp[self._log[a] + self._log[b]])

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return int(self._inv[a])

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            return 0 if e else 1
        return int(self._exp[(int(self._log[a]) * e) % (self.order - 1)])

    def frob(self, a: int, i: int = 1) -> int:
        """i-fold Frobenius a -> a^(p^i)."""
        return self.pow(a, self.p**i)

    # -- vectorized ops (int64 numpy arrays of indices) -------------------
    def vadd(self, a, b):
        if self.p == 2:
            return np.bitwise_xor(a, b)
        if self.d == 1:
            return (a + b) % self.p
        return self._addtab[a, b]

    def vneg(self, a):
        if self.p == 2:
            return a
        if self.d == 1:
            return (-a) % self.p
        tab = getattr(self, "_neg", None)
        if tab is None:
            tab = np.array([self.neg(i) for i in range(self.order)], dtype=np.int64)
            self._neg = tab
        return tab[a]

    def vmul(self, a, b):
        return self._exp[self._log[a] + self._log[b]]

    def vinv(self, a):
        return self._inv[a]

    def vfrob(self, a, i: int = 1):
        a = np.asarray(a)
        e = self.p**i % (self.order - 1)
        out = self._exp[(self._log[a] * e) % (self.order - 1)]
        return np.where(a == 0, 0, out)

    # -- subfields ---------------------------------------------------------
    def subfield_elements(self, deg: int) -> np.ndarray:
        """Sorted indices of the degree-`deg` designated subfield."""
        if deg not in self.designated:
            raise FieldError(f"degree {deg} is not designated in this tower")
        cached = self._subfield_cache.get(deg)
        if cached is None:
            idx = np.arange(self.order)
            cached = idx[self.vfrob(idx, deg) == idx]
            cached.flags.writeable = False
            self._subfield_cache[deg] = cached
        return cached

    def in_subfield(self, deg: int, x: int) -> bool:
        return self.frob(x, deg) == x

    def subfield_generator(self, big_deg: int, small_deg: int) -> int:
        """First element of the degree-`big_deg` subfield generating it over
        the degree-`small_deg` subfield."""
        key = (big_deg, small_deg)
        g = self._gen_cache.get(key)
        if g is not None:
            return g
        r = big_deg // small_deg
        if r == 1:
            g = 1
        else:
            for x in self.subfield_elements(big_deg).tolist():
                orbit = 1
                y = self.frob(x, small_deg)
                while y != x:
                    orbit += 1
                    y = self.frob(y, small_deg)
                if orbit == r:
                    g = x
                    break
            else:
                raise FieldError("no generator found (impossible)")
        self._gen_cache[key] = g
        return g

    def subfield_basis(self, big_deg: int, small_deg: int) -> list[int]:
        """Power basis {1, g, g^2, ...} of the big subfield over the small one."""
        r = big_deg // small_deg
        g = self.subfield_generator(big_deg, small_deg)
        return [self.pow(g, i) for i in range(r)]

    def subfield_coords(self, big_deg: int, small_deg: int) -> dict[int, tuple[int, ...]]:
        """Coordinate table of the degree-big subfield over the degree-small
        subfield w.r.t. the power basis; values are small-subfield indices."""
        key = (big_deg, small_deg)
        table = self._coords_cache.get(key)
        if table is not None:
            return table
        if big_deg % small_deg:
            raise FieldError("degree chain violation")
        p = self.p
        r = big_deg // small_deg
        basis = self.subfield_basis(big_deg, small_deg)
        kappa = self.subfield_basis(small_deg, 1) if small_deg > 1 else [1]
        # GF(p)-basis of the big subfield: basis[j] * kappa[t]
        rows = []
        for j in range(r):
            for t in range(len(kappa)):
                rows.append(_digits(self.mul(basis[j], kappa[t]), p, self.d))
        m = np.array(rows, dtype=np.int64) % p
        table = {}
        for x in self.subfield_elements(big_deg).tolist():
            c = _solve_gfp(m, np.array(_digits(x, p, self.d)), p)
            coords = []
            for j in range(r):
                y = 0
                for t in range(len(kappa)):
                    y = self.add(y, self.mul(int(c[j * len(kappa) + t]), kappa[t]))
                coords.append(y)
            table[x] = tuple(coords)
        self._coords_cache[key] = table
        return table

    # -- serialization -----------------------------------------------------
    def descriptor(self) -> dict:
        return {
            "p": self.p,
            "d": self.d,
            "poly": list(self.poly),
            "designated": list(self.designated),
        }

    def __repr__(self) -> str:
        return f"FieldTower(GF({self.p}^{self.d}), designated={self.designated})"


def _solve_gfp(m: np.ndarray, v: np.ndarray, p: int) -> np.ndarray:
    """Solve c @ m = v over GF(p); m has full row rank and v lies in its span."""
    k, d = m.shape
    aug = np.concatenate([m % p, np.eye(k, dtype=np.int64)], axis=1)
    vv = np.concatenate([v % p, np.zeros(k, dtype=np.int64)])
    row = 0
    for col in range(d):
        piv = None
        for r in range(row, k):
            if aug[r, col]:
                piv = r
                break
        if piv is None:
            continue
        aug[[row, piv]] = aug[[piv, row]]
        aug[row] = (aug[row] * pow(int(aug[row, col]), -1, p)) % p
        for r in range(k):
            if r != row and aug[r, col]:
                aug[r] = (aug[r] - aug[r, col] * aug[row]) % p
        if vv[col]:
            vv = (vv - vv[col] * aug[row]) % p
        row += 1
        if row == k:
            break
    # remaining v columns must be clear on the m-part
    if np.any(vv[:d]):
        raise FieldError("element not in subfield span")
    return (-vv[d:]) % p


@dataclass(frozen=True)
class FieldView:
    """A designated subfield of a tower, used as the scalar field of a space.

    Scalars are top-field indices restricted to the subfield; arithmetic is
    the tower's.  `q` is the number of scalars.
    """

    tower: FieldTower
    degree: int

    def __post_init__(self):
        if self.degree not in self.tower.designated:
            raise FieldError(f"degree {self.degree} not designated")

    @property
    def p(self) -> int:
        return self.tower.p

    @property
    def q(self) -> int:
        return self.tower.p**self.degree

    @property
    def char(self) -> int:
        return self.tower.p

    def elements(self) -> np.ndarray:
        return self.tower.subfield_elements(self.degree)

    @property
    def one(self) -> int:
        return 1

    def descriptor(self) -> dict:
        d = self.tower.descriptor()
        d["view_degree"] = self.degree
        return d

    def __repr__(self) -> str:
        return f"GF({self.q})@{self.tower!r}"


@lru_cache(maxsize=None)
def tower(p: int, d: int, designated: tuple[int, ...] = ()) -> FieldTower:
    """Shared tower instances; designated degrees always include d."""
    return FieldTower(p, d, designated)


@lru_cache(maxsize=None)
def standalone(q: int) -> FieldView:
    """GF(q) as the top of its own tower."""
    p, e = _factor_prime_power(q)
    return FieldView(tower(p, e), e)


def view(p: int, d: int, designated: tuple[int, ...], degree: int) -> FieldView:
    return FieldView(tower(p, d, designated), degree)


def _factor_prime_power(q: int) -> tuple[int, int]:
    for p in (2, 3, 5, 7, 11, 13):
        if q % p == 0:
            e = 0
            n = q
            while n % p == 0:
                n //= p
                e += 1
            if n != 1:
                break
            return p, e
    raise FieldError(f"{q} is not a supported prime power")


# -- tower-level operations ------------------------------------------------

def trace(tw: FieldTower, from_deg: int, to_deg: int, x: int) -> int:
    """Relative trace between designated subfields: sum of Galois conjugates."""
    _check_chain(tw, from_deg, to_deg, x)
    acc = 0
    y = x
    for _ in range(from_deg // to_deg):
        acc = tw.add(acc, y)
        y = tw.frob(y, to_deg)
    return acc


def norm(tw: FieldTower, from_deg: int, to_deg: int, x: int) -> int:
    """Relative norm between designated subfields: product of conjugates."""
    _check_chain(tw, from_deg, to_deg, x)
    acc = 1
    y = x
    for _ in range(from_deg // to_deg):
        acc = tw.mul(acc, y)
        y = tw.frob(y, to_deg)
    return acc


def vtrace(tw: FieldTower, from_deg: int, to_deg: int, x):
    """Vectorized relative trace."""
    acc = np.zeros_like(np.asarray(x))
    y = np.asarray(x)
    for _ in range(from_deg // to_deg):
        acc = tw.vadd(acc, y)
        y = tw.vfrob(y, to_deg)
    return acc


def _check_chain(tw: FieldTower, from_deg: int, to_deg: int, x: int) -> None:
    if from_deg % to_deg:
        raise FieldError(f"{to_deg} does not divide {from_deg}")
    if from_deg not in tw.designated or to_deg not in tw.designated:
        raise FieldError("both degrees must be designated")
    if not tw.in_subfield(from_deg, x):
        raise FieldError(f"element {x} outside the degree-{from_deg} subfield")


def sqrt_char2(tw: FieldTower, x: int) -> int:
    """Unique square root in characteristic 2: x^(2^(d-1))."""
    if tw.p != 2:
        raise FieldError("square-root shortcut requires characteristic 2")
    return tw.pow(x, 2 ** (tw.d - 1))


def find_theta(tw: FieldTower, k_deg: int | None = None) -> int:
    """First theta != 0 with T(theta * E) = 0, where E is the half-degree
    designated subfield and T the trace to the base of the chain.

    The solution set of T(xE) = 0 is exactly theta*E, which callers may
    assert via `theta_line`.
    """
    if k_deg is None:
        k_deg = tw.designated[0]
    e_deg = tw.d // 2
    if e_deg not in tw.designated or e_deg % k_deg:
        raise FieldError("tower lacks the K <= E <= F chain with [F:E]=2")
    ebasis = tw.subfield_basis(e_deg, k_deg)
    for x in range(1, tw.order):
        if all(trace(tw, tw.d, k_deg, tw.mul(x, e)) == 0 for e in ebasis):
            return x
    raise FieldError("no theta found (impossible for a valid chain)")


def theta_line(tw: FieldTower, k_deg: int | None = None) -> set[int]:
    """Full solution set {x : T(xE) = 0}, for cross-checking find_theta."""
    if k_deg is None:
        k_deg = tw.designated[0]
    e_deg = tw.d // 2
    ebasis = tw.subfield_basis(e_deg, k_deg)
    return {
        x
        for x in range(tw.order)
        if all(trace(tw, tw.d, k_deg, tw.mul(x, e)) == 0 for e in ebasis)
    }


def find_pi(tw: FieldTower, k_deg: int | None = None) -> int:
    """First pi with T(pi) = 0 != T(pi^(1+q)) for the chain GF(q) in GF(q^3),
    q even.  Also checks pi^q lies outside K + K*pi."""
    if k_deg is None:
        k_deg = tw.designated[0]
    if tw.d != 3 * k_deg:
        raise FieldError("tower is not a K < F = GF(q^3) chain")
    if tw.p != 2:
        raise FieldError("pi search requires even q")
    q = tw.p**k_deg
    kelems = tw.subfield_elements(k_deg).tolist()
    for x in range(1, tw.order):
        if trace(tw, tw.d, k_deg, x) != 0:
            continue
        if trace(tw, tw.d, k_deg, tw.pow(x, 1 + q)) == 0:
            continue
        xq = tw.frob(x, k_deg)
        span = {tw.add(a, tw.mul(b, x)) for a in kelems for b in kelems}
        if xq in span:
            raise FieldError("pi^q inside K + K*pi (field arithmetic bug)")
        return x
    raise FieldError("no pi found; preconditions violated")
