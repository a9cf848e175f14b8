"""Field towers: table sanity, trace/norm against conjugate-product oracles,
Frobenius properties, theta/pi searches vs exhaustive scans."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarspread import gf
from polarspread.gf import (
    PRIMITIVE_POLYS,
    FieldError,
    FieldView,
    find_pi,
    find_theta,
    norm,
    sqrt_char2,
    standalone,
    theta_line,
    tower,
    trace,
)


def poly_is_irreducible(p, coeffs):
    """gcd(x^(p^i) - x, f) test via repeated Frobenius inside GF(p)[x]/f."""
    d = len(coeffs) - 1
    tw = gf.FieldTower(p, d)
    # if the table entry builds a working log table, x has order p^d - 1,
    # which already forces irreducibility; verify the order claim directly
    order = p**d - 1
    x = p if d > 1 else (-coeffs[0]) % p
    seen = 1
    acc = x
    for _ in range(order - 1):
        if acc == 1:
            return False  # order smaller than p^d - 1
        acc = tw.mul(acc, x)
    return acc == 1


@pytest.mark.parametrize("p,d", sorted(PRIMITIVE_POLYS))
def test_table_polynomials_are_primitive(p, d):
    if p**d > 2**13:
        pytest.skip("large-field order check covered by construction-time assert")
    coeffs = list(PRIMITIVE_POLYS[(p, d)]) + [1]
    assert poly_is_irreducible(p, coeffs)


def test_zero_one_indices():
    for p, d in [(2, 4), (3, 2), (5, 2)]:
        tw = tower(p, d)
        assert tw.add(0, 7 % tw.order) == 7 % tw.order
        assert tw.mul(1, 5 % tw.order) == 5 % tw.order
        assert tw.mul(0, 5 % tw.order) == 0


def test_trace_examples():
    t4 = tower(2, 2, (1,))
    assert trace(t4, 2, 1, 0) == 0
    g = 2
    # oracle: evaluate x + x^2 by table arithmetic
    assert trace(t4, 2, 1, g) == t4.add(g, t4.mul(g, g)) == 1
    t8 = tower(2, 3, (1,))
    assert trace(t8, 3, 1, 1) == 1


def test_norm_examples():
    t4 = tower(2, 2, (1,))
    assert norm(t4, 2, 1, 2) == 1  # g^3 = 1
    t64 = tower(2, 6, (2,))
    assert norm(t64, 6, 2, 0) == 0
    t8 = tower(2, 3, (1,))
    g = 2
    # oracle: g * g^2 * g^4 = g^7 = 1
    assert norm(t8, 3, 1, g) == t8.mul(g, t8.mul(t8.mul(g, g), t8.pow(g, 4))) == 1


def test_trace_norm_errors():
    t64 = tower(2, 6, (2,))
    with pytest.raises(FieldError):
        trace(t64, 6, 4, 1)  # 4 does not divide 6 / not designated
    with pytest.raises(FieldError):
        trace(t64, 2, 1, 1)  # 1 not designated here
    # element outside the subfield
    bad = next(x for x in range(t64.order) if not t64.in_subfield(2, x))
    with pytest.raises(FieldError):
        trace(t64, 2, 2, bad)


def test_trace_norm_land_in_subfield_exhaustive():
    t512 = tower(2, 9, (3,))
    for x in range(t512.order):
        assert t512.in_subfield(3, trace(t512, 9, 3, x))
        assert t512.in_subfield(3, norm(t512, 9, 3, x))


def test_trace_transitivity():
    t81 = tower(3, 4, (1, 2))
    for x in range(81):
        assert trace(t81, 4, 1, x) == trace(t81, 2, 1, trace(t81, 4, 2, x))
    t16 = tower(2, 4, (1, 2))
    for x in range(16):
        assert trace(t16, 4, 1, x) == trace(t16, 2, 1, trace(t16, 4, 2, x))
    # exhaustive at the GF(2^9) scale
    t512 = tower(2, 9, (1, 3))
    for x in range(512):
        assert trace(t512, 9, 1, x) == trace(t512, 3, 1, trace(t512, 9, 3, x))


@given(st.sampled_from([(2, 4), (3, 3), (5, 2)]), st.data())
@settings(max_examples=40, deadline=None)
def test_frobenius_additive_multiplicative_bijection(pd, data):
    p, d = pd
    tw = tower(p, d)
    a = data.draw(st.integers(0, tw.order - 1))
    b = data.draw(st.integers(0, tw.order - 1))
    assert tw.frob(tw.add(a, b)) == tw.add(tw.frob(a), tw.frob(b))
    assert tw.frob(tw.mul(a, b)) == tw.mul(tw.frob(a), tw.frob(b))
    x = a
    for _ in range(d):
        x = tw.frob(x)
    assert x == a  # d-fold Frobenius is the identity


def test_sqrt_char2():
    t4 = tower(2, 2)
    assert sqrt_char2(t4, 0) == 0
    assert sqrt_char2(t4, 1) == 1
    assert sqrt_char2(t4, 2) == 3  # (g^2)^2 = g^4 = g
    t8 = tower(2, 3)
    for x in range(8):
        assert t8.mul(sqrt_char2(t8, x), sqrt_char2(t8, x)) == x
    with pytest.raises(FieldError):
        sqrt_char2(tower(3, 2), 1)


def test_find_theta_smallest_case():
    t4 = tower(2, 2, (1,))
    assert find_theta(t4) == 1  # T(1) = 1 + 1 = 0 over GF(2)


def test_find_theta_q3_postcondition():
    t9 = tower(3, 2, (1,))
    th = find_theta(t9)
    assert th != 0 and trace(t9, 2, 1, th) == 0


def test_theta_span_is_theta_e():
    # q=2, m=2: F=GF(16), E=GF(4); the solution set of T(xE)=0 equals theta*E
    t16 = tower(2, 4, (1, 2))
    th = find_theta(t16)
    e_elems = t16.subfield_elements(2).tolist()
    for e in t16.subfield_basis(2, 1):
        assert trace(t16, 4, 1, t16.mul(th, e)) == 0
    span = {t16.mul(th, e) for e in e_elems}
    assert theta_line(t16) == span


@pytest.mark.parametrize("q,deg", [(4, 6), (8, 9)])
def test_find_pi(q, deg):
    p, e = gf._factor_prime_power(q)
    tw = tower(2, deg, (e,))
    pi = find_pi(tw, e)
    assert pi != 0
    assert trace(tw, deg, e, pi) == 0
    assert trace(tw, deg, e, tw.pow(pi, 1 + q)) != 0
    # oracle: pi is the first such element in index order
    for x in range(1, pi):
        ok = trace(tw, deg, e, x) == 0 and trace(tw, deg, e, tw.pow(x, 1 + q)) != 0
        assert not ok


def test_subfield_coords_roundtrip():
    t64 = tower(2, 6, (1, 2))
    table = t64.subfield_coords(6, 2)
    basis = t64.subfield_basis(6, 2)
    for x in range(64):
        acc = 0
        for c, b in zip(table[x], basis):
            assert t64.in_subfield(2, c)
            acc = t64.add(acc, t64.mul(c, b))
        assert acc == x


def test_field_view():
    fv = standalone(4)
    assert fv.q == 4
    assert fv.elements().tolist() == [0, 1, 2, 3]
    sub = FieldView(tower(2, 6, (2,)), 2)
    assert sub.q == 4
    assert len(sub.elements()) == 4
    assert 0 in sub.elements() and 1 in sub.elements()


SMALL_TOWERS = sorted(pd for pd in PRIMITIVE_POLYS if pd[0] ** pd[1] <= 256)


@pytest.mark.parametrize("p,d", SMALL_TOWERS)
def test_vmul_matches_scalar_mul_on_all_pairs(p, d):
    """The sentinel-table vmul against the zero-testing scalar mul, zero
    included, over every pair of the tower."""
    tw = gf.FieldTower(p, d)
    idx = np.arange(tw.order, dtype=np.int64)
    got = tw.vmul(idx[:, None], idx[None, :])
    assert got.dtype == np.int64
    want = np.array([[tw.mul(a, b) for b in range(tw.order)] for a in range(tw.order)])
    assert np.array_equal(got, want)


def test_vmul_call_shapes():
    tw = tower(2, 3)
    for a, b in [(0, 5), (5, 0), (3, 6), (1, 1)]:
        for x, y in [(a, b), (np.int64(a), np.int64(b)), (np.int64(a), b)]:
            r = tw.vmul(x, y)
            assert np.ndim(r) == 0 and np.asarray(r).dtype == np.int64
            assert int(r) == tw.mul(a, b)
    row = np.array([0, 3, 7, 1], dtype=np.int64)
    assert tw.vmul(row, np.int64(5)).tolist() == [tw.mul(int(x), 5) for x in row]
    assert tw.vmul(np.int64(0), row).tolist() == [0, 0, 0, 0]
    # span_vectors' (q,1,n) x (1,1,n) broadcast
    elems = np.arange(tw.order, dtype=np.int64)
    scaled = tw.vmul(elems[:, None, None], row[None, None, :])
    assert scaled.shape == (tw.order, 1, len(row))
    for e in range(tw.order):
        assert scaled[e, 0].tolist() == [tw.mul(e, int(x)) for x in row]
