"""Tests for exact angular-momentum coupling coefficients.

The Clebsch-Gordan routine is checked against an independent numeric
construction: coupled states are built by repeated application of the total
lowering operator, starting from the stretched product state, with each
top-of-ladder state fixed by orthogonalization inside its magnetization
sector and the usual positive-leading-component phase convention.  Nothing
in that construction shares code (or a closed formula) with the library.
"""

import itertools
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from akltblock.angular import (
    TOL,
    SignedSqrtRational,
    _check_jm,
    _sqrt_exact,
    _tfact,
    _three_j_zero_square,
    _triangle_ok,
    clebsch_gordan,
    factorial,
    three_j_zero,
)
from akltblock.spectrum import block_spectrum, i_polynomial

ZERO = SignedSqrtRational(0, 0)
ONE = SignedSqrtRational(1, 1)


def wigner_3j(
    tj1: int, tj2: int, tj3: int, tm1: int, tm2: int, tm3: int
) -> SignedSqrtRational:
    """General Wigner 3j symbol (twice-values), the reference for ``three_j_zero``.

    Built from ``clebsch_gordan`` by the phase relation

    (j1 j2 j3; m1 m2 m3) = (-1)^(j1-j2-m3) (J,-m3|j1,m1;j2,m2) / sqrt(2j3+1).
    """
    _check_jm(tj1, tm1, "j1")
    _check_jm(tj2, tm2, "j2")
    _check_jm(tj3, tm3, "j3")
    if tm1 + tm2 + tm3 != 0 or not _triangle_ok(tj1, tj2, tj3):
        return ZERO
    cg = clebsch_gordan(tj1, tm1, tj2, tm2, tj3, -tm3)
    if cg.sign == 0:
        return ZERO
    phase = -1 if ((tj1 - tj2 - tm3) // 2) % 2 else 1
    return SignedSqrtRational(phase * cg.sign, cg.square / (tj3 + 1))


# ---------------------------------------------------------------------------
# numeric oracle: coupled states by repeated lowering
# ---------------------------------------------------------------------------

def lowering_oracle(tj1: int, tj2: int) -> dict[tuple[int, int], np.ndarray]:
    """Coupled states |J M> of j1 (x) j2 as dense product-basis vectors.

    Product-basis index is i1 * (tj2 + 1) + i2 with i = (tm + tj) / 2.  The
    stretched state is lowered repeatedly; each next-lower top state is the
    unit vector orthogonal to every already-built state in its tM sector,
    signed so the amplitude on the maximal-m1 basis state is positive.
    """
    d1, d2 = tj1 + 1, tj2 + 1

    def idx(tm1: int, tm2: int) -> int:
        return ((tm1 + tj1) // 2) * d2 + ((tm2 + tj2) // 2)

    lower = np.zeros((d1 * d2, d1 * d2))
    for tm1 in range(-tj1, tj1 + 1, 2):
        for tm2 in range(-tj2, tj2 + 1, 2):
            col = idx(tm1, tm2)
            if tm1 > -tj1:
                lower[idx(tm1 - 2, tm2), col] += 0.5 * math.sqrt((tj1 + tm1) * (tj1 - tm1 + 2))
            if tm2 > -tj2:
                lower[idx(tm1, tm2 - 2), col] += 0.5 * math.sqrt((tj2 + tm2) * (tj2 - tm2 + 2))

    states: dict[tuple[int, int], np.ndarray] = {}
    for tJ in range(tj1 + tj2, abs(tj1 - tj2) - 1, -2):
        if tJ == tj1 + tj2:
            top = np.zeros(d1 * d2)
            top[idx(tj1, tj2)] = 1.0
        else:
            sector = [
                idx(tm1, tJ - tm1)
                for tm1 in range(-tj1, tj1 + 1, 2)
                if abs(tJ - tm1) <= tj2
            ]
            sector.sort(reverse=True)  # leading component = maximal m1
            basis = np.zeros((d1 * d2, len(sector)))
            for k, flat in enumerate(sector):
                basis[flat, k] = 1.0
            higher = np.stack(
                [states[(tJp, tJ)] for tJp in range(tJ + 2, tj1 + tj2 + 1, 2)], axis=1
            )
            coords = basis.T @ higher                      # sector coords of higher-J states
            _, _, vt = np.linalg.svd(coords.T)
            top = basis @ vt[-1]
            lead = top[idx(tj1, tJ - tj1)]
            assert abs(lead) > 1e-10
            top = top * np.sign(lead)
        states[(tJ, tJ)] = top
        for tM in range(tJ, -tJ + 1, -2):
            w = lower @ states[(tJ, tM)]
            states[(tJ, tM - 2)] = w / (0.5 * math.sqrt((tJ + tM) * (tJ - tM + 2)))
    return states


@pytest.mark.parametrize("tj1", range(5))
@pytest.mark.parametrize("tj2", range(5))
def test_clebsch_gordan_matches_lowering_construction(tj1, tj2):
    states = lowering_oracle(tj1, tj2)
    d2 = tj2 + 1
    for (tJ, tM), vec in states.items():
        assert abs(np.linalg.norm(vec) - 1.0) < 1e-12
        for tm1 in range(-tj1, tj1 + 1, 2):
            tm2 = tM - tm1
            if abs(tm2) > tj2:
                continue
            got = float(clebsch_gordan(tj1, tm1, tj2, tm2, tJ, tM))
            want = vec[((tm1 + tj1) // 2) * d2 + ((tm2 + tj2) // 2)]
            assert got == pytest.approx(want, abs=1e-12)


# ---------------------------------------------------------------------------
# frozen values
# ---------------------------------------------------------------------------

def test_factorial_values():
    assert factorial(0) == 1
    assert factorial(5) == 120
    assert factorial(12) == 479001600


def test_singlet_coefficients_frozen():
    half = clebsch_gordan(1, 1, 1, -1, 0, 0)
    assert (half.sign, half.square) == (1, Fraction(1, 2))
    spin1 = clebsch_gordan(2, 2, 2, -2, 0, 0)
    assert (spin1.sign, spin1.square) == (1, Fraction(1, 3))
    # stretched states carry coefficient exactly 1
    assert clebsch_gordan(1, 1, 1, 1, 2, 2) == ONE
    assert clebsch_gordan(4, 4, 2, 2, 6, 6) == ONE


def test_three_j_zero_frozen():
    a = three_j_zero(1, 1, 0)
    assert (a.sign, a.square) == (-1, Fraction(1, 3))
    b = three_j_zero(2, 1, 1)
    assert (b.sign, b.square) == (1, Fraction(2, 15))
    c = three_j_zero(2, 2, 2)
    assert (c.sign, c.square) == (-1, Fraction(2, 35))
    # odd order sum and broken triangle both give exact zero
    assert three_j_zero(1, 1, 1) == ZERO
    assert three_j_zero(3, 1, 1) == ZERO


def test_three_j_zero_is_exact_zero_at_any_negative_order():
    # The triangle test alone rules out every negative order.
    for orders in itertools.product(range(-4, 5), repeat=3):
        if min(orders) < 0:
            assert three_j_zero(*orders) == ZERO, orders


def test_selection_rules_give_exact_zero():
    assert clebsch_gordan(2, 2, 2, -2, 2, 2).sign == 0       # M != m1 + m2
    assert clebsch_gordan(2, 0, 2, 0, 6, 0).sign == 0        # J outside triangle


def test_argument_validation():
    with pytest.raises(ValueError):
        clebsch_gordan(1, 0, 1, 1, 0, 0)       # parity mismatch on (j1, m1)
    with pytest.raises(ValueError):
        clebsch_gordan(1, 3, 1, -1, 1, 1)      # |m1| > j1
    with pytest.raises(ValueError):
        wigner_3j(2, 2, 2, 1, -1, 0)           # odd 2m against even 2j


def test_twice_factorial_rejects_odd_twice_values():
    with pytest.raises(ValueError, match="even non-negative twice-value"):
        _tfact(3)


# ---------------------------------------------------------------------------
# cross-route and symmetry identities (exact)
# ---------------------------------------------------------------------------

def test_integer_three_j_square_matches_three_j_zero():
    # (2n+1)! (l1 l2 l3; 0 0 0)^2 from factorials only, zeros included. Past
    # (l1+l2+l3)/2 = n the scaled square need not be an integer, and a
    # nonzero one is refused; n = 15 reaches every triple of 0..10^3.
    for n in (10, 15):
        scale = factorial(2 * n + 1)
        for l1, l2, l3 in itertools.product(range(11), repeat=3):
            want = three_j_zero(l1, l2, l3).square * scale
            if want and l1 + l2 + l3 > 2 * n:
                with pytest.raises(ValueError, match="needs"):
                    _three_j_zero_square(l1, l2, l3, n)
                continue
            got = _three_j_zero_square(l1, l2, l3, n)
            assert type(got) is int and got == want, (l1, l2, l3, n)


def test_three_j_zero_agrees_with_general_route():
    for l1 in range(9):
        for l2 in range(9):
            for l3 in range(9):
                assert three_j_zero(l1, l2, l3) == wigner_3j(
                    2 * l1, 2 * l2, 2 * l3, 0, 0, 0
                )


def test_reflection_symmetry_exact():
    # (J,M | j,m1; j,m2) = (-1)^(2j-J) (J,-M | j,-m1; j,-m2), all j <= 3
    for tj in range(1, 7):
        for tJ in range(0, 2 * tj + 1, 2):
            for tm1 in range(-tj, tj + 1, 2):
                for tm2 in range(-tj, tj + 1, 2):
                    tM = tm1 + tm2
                    if abs(tM) > tJ:
                        continue
                    lhs = clebsch_gordan(tj, tm1, tj, tm2, tJ, tM)
                    rhs = clebsch_gordan(tj, -tm1, tj, -tm2, tJ, -tM)
                    phase = -1 if (tj - tJ // 2) % 2 else 1
                    assert lhs == (phase * rhs.sign, rhs.square)


def test_three_j_orthogonality_exact():
    # sum_{m1,m2} (2l+1) 3j(l1,l2,l;m1,m2,m) 3j(l1,l2,l';m1,m2,m')
    #   = delta_{ll'} delta_{mm'}, summed exactly over a shared radical: every
    #   term is a rational multiple of sqrt(radical), the first term's square.
    tj = lru_cache(maxsize=None)(wigner_3j)
    for l1 in range(7):
        for l2 in range(l1, 7):
            lmin, lmax = abs(l1 - l2), l1 + l2
            for l in range(lmin, lmax + 1):
                for lp in range(l, lmax + 1):
                    for m in range(-min(l, lp), min(l, lp) + 1):
                        total, radical = Fraction(0), None
                        for m1 in range(-l1, l1 + 1):
                            m2 = -m - m1
                            if abs(m2) > l2:
                                continue
                            a = tj(2 * l1, 2 * l2, 2 * l, 2 * m1, 2 * m2, 2 * m)
                            b = tj(2 * l1, 2 * l2, 2 * lp, 2 * m1, 2 * m2, 2 * m)
                            sign, square = a.sign * b.sign, a.square * b.square
                            if not sign:
                                continue
                            radical = radical or square
                            ratio = _sqrt_exact(square / radical)
                            assert ratio is not None, (l1, l2, l, lp, m, m1)
                            total += (2 * l + 1) * sign * ratio
                        if l == lp:
                            assert total * total * radical == 1 and total > 0, (l1, l2, l, m)
                        else:
                            assert total == 0, (l1, l2, l, lp, m)


def test_orthogonality_vanishes_across_magnetizations():
    # m != m' sums are zero term-by-term: every summand already vanishes
    for m1 in range(-2, 3):
        for m2 in range(-1, 2):
            if m1 + m2 != -1:
                assert wigner_3j(4, 2, 4, 2 * m1, 2 * m2, 2).sign == 0


# ---------------------------------------------------------------------------
# the SignedSqrtRational record
# ---------------------------------------------------------------------------

def test_signed_sqrt_basics():
    x = SignedSqrtRational(-1, Fraction(9, 4))
    assert float(x) == -1.5
    assert not ZERO
    assert x
    # huge squares fall back to a log-domain conversion instead of overflowing
    big = SignedSqrtRational(1, Fraction(10) ** 400)
    assert math.isclose(float(big), 1e200, rel_tol=1e-10)


def test_record_types_check_their_fields_and_are_immutable():
    for sign, square in [(2, 1), (1, Fraction(-1, 4)), (0, 1), (1, 0)]:
        with pytest.raises(ValueError):
            SignedSqrtRational(sign, square)
    root = SignedSqrtRational(1, 4)
    assert root.square == Fraction(4) and type(root.square) is Fraction
    assert root == SignedSqrtRational(sign=1, square=Fraction(4))
    for combine in (
        lambda: root + root,
        lambda: root * root,
        lambda: root * 2,
        lambda: 2 * root,
    ):
        with pytest.raises(TypeError):
            combine()
    records = [
        (TOL, "match"),
        (block_spectrum(1, 2), "entries"),
        (i_polynomial(1, 1), "coefficients"),
        (root, "square"),
    ]
    for record, field in records:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
