"""Tests for the exact block-spectrum formulas.

Both eigenvalue routes (recurrence in the weights I_l(x(J)) and the
closed triple sum over squared 3j symbols) are pinned against hand-evaluated
rationals, against each other, and against the spin-1 closed forms
Lambda_0 = (1 + 3(-1/3)^L)/4, Lambda_1 = (1 - (-1/3)^L)/4.
"""

import math
import types
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import akltblock.spectrum as spectrum
from akltblock.angular import factorial, three_j_zero
from akltblock.oracle import fock_block_spectrum
from akltblock.spectrum import (
    EXACT_METHODS,
    BlockSpectrum,
    InvalidSpectrumError,
    _closed_weights,
    _recurrence_weights,
    _sector_numerators,
    block_spectrum,
    degenerate_norm,
    eigenvalue_closed,
    eigenvalue_recurrence,
    flat_limit_bound,
    i_polynomial,
    lambda_coeff,
    legendre_expansion_residual,
    saturation_value,
    spin1_closed,
    vbs_norm,
)


def x_arg(S: int, J: int) -> Fraction:
    """Argument x(J) that the weight polynomials are evaluated at."""
    return Fraction(J * (J + 1), 2) - Fraction(S, 2) * (Fraction(S, 2) + 1)


# ---------------------------------------------------------------------------
# bond-kernel expansion coefficients
# ---------------------------------------------------------------------------

def test_lambda_frozen_values():
    for S in range(1, 9):
        assert lambda_coeff(0, S) == 1
    assert lambda_coeff(1, 1) == Fraction(-1, 3)
    assert lambda_coeff(2, 2) == Fraction(1, 10)


def test_lambda_ratio_law_exact():
    for S in range(1, 9):
        for l in range(S):
            assert lambda_coeff(l + 1, S) / lambda_coeff(l, S) == Fraction(-(S - l), S + l + 2)


def _identity_weights(S):
    """A table whose row l picks a_l^(L-1) alone: the kernel's N_l and D are the
    damping powers a_l^(L-1) and C(2S+1,S)^(L-1) themselves."""
    return tuple(tuple(int(l == j) for l in range(S + 1)) for j in range(S + 1)), 1


def _identity_powers(S, lengths):
    """The kernel's (powers, scale) per L of ``lengths``, read through the identity table."""
    return list(_sector_numerators(_identity_weights, S, lengths))


def test_integer_damping_ratio_is_lambda():
    # lambda(l,S) = (-1)^l C(2S+1,S-l) / C(2S+1,S); at L = 2 the kernel's
    # powers are those integers themselves.
    for S in range(0, 41):
        [(powers, scale)] = _identity_powers(S, (2,))
        assert scale == math.comb(2 * S + 1, S)
        for l in range(S + 1):
            a = (-1) ** l * math.comb(2 * S + 1, S - l)
            assert powers[l] == a
            assert Fraction(a, scale) == lambda_coeff(l, S)


@given(S=st.integers(1, 12), lengths=st.lists(st.integers(1, 60), max_size=8))
@settings(deadline=None, max_examples=60)
def test_stepped_damping_powers_equal_fresh_powers(S, lengths):
    # up, down, repeated and gapped lengths all give lambda(l,S)^(L-1) exactly
    stepped = _identity_powers(S, lengths)
    assert len(stepped) == len(lengths)
    for L, (powers, scale) in zip(lengths, stepped):
        assert scale == math.comb(2 * S + 1, S) ** (L - 1)
        for l, power in enumerate(powers):
            assert Fraction(power, scale) == lambda_coeff(l, S) ** (L - 1)


def test_lambda_out_of_range():
    with pytest.raises(ValueError):
        lambda_coeff(3, 2)
    with pytest.raises(ValueError):
        lambda_coeff(1, 0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: block_spectrum(1, True),
        lambda: eigenvalue_recurrence(2, 3, True),
        lambda: lambda_coeff(True, 2),
        lambda: spin1_closed(True, True),
        lambda: fock_block_spectrum(1, True),
        lambda: (i_polynomial(1, 2), i_polynomial(True, 2)),
        lambda: (factorial(1), factorial(True)),
    ],
    ids=["block_L", "recurrence_J", "lambda_l", "spin1_closed", "fock_L", "i_polynomial_l", "factorial"],
)
def test_integer_arguments_reject_bool(call):
    # bool is an int subclass; the shared validator refuses it everywhere,
    # also after a call with 1: (True, 2) hashes and compares equal to (1, 2),
    # so a cache in front of the check would hand back the cached value.
    with pytest.raises(ValueError):
        call()


def test_legendre_expansion_residual_hand_points():
    assert legendre_expansion_residual(1, 1.0) == pytest.approx(0.0, abs=1e-15)
    assert legendre_expansion_residual(1, -1.0) == pytest.approx(0.0, abs=1e-15)
    assert legendre_expansion_residual(2, 0.0) == pytest.approx(0.0, abs=1e-15)


def test_legendre_expansion_residual_chebyshev_grid():
    for S in range(1, 7):
        for k in range(21):
            t = math.cos(math.pi * k / 20.0)
            assert abs(legendre_expansion_residual(S, t)) < 1e-12


# ---------------------------------------------------------------------------
# weight polynomials I_l
# ---------------------------------------------------------------------------

def test_i_polynomial_seeds_and_degree():
    for S in range(1, 6):
        p0 = i_polynomial(0, S)
        assert p0.coefficients == (Fraction(1),)
        p1 = i_polynomial(1, S)
        assert p1.coefficients == (Fraction(0), Fraction(4, (S + 2) ** 2))
        for l in range(S + 1):
            pl = i_polynomial(l, S)
            assert pl.l == l
            assert len(pl.coefficients) == l + 1
            assert pl.coefficients[-1] != 0  # true degree l


def test_i_polynomial_frozen_second_order():
    # I_2 at S=2 works out to (6x^2 + 3x - 8)/100
    p = i_polynomial(2, 2)
    assert p.coefficients == (Fraction(-8, 100), Fraction(3, 100), Fraction(6, 100))


def test_i_polynomial_exact_evaluation():
    assert i_polynomial(1, 2)(Fraction(3)) == Fraction(3, 4)
    assert i_polynomial(2, 2)(Fraction(1, 2)) == Fraction(-5, 100)


def test_i_polynomial_out_of_range():
    with pytest.raises(ValueError):
        i_polynomial(3, 2)


# ---------------------------------------------------------------------------
# eigenvalues: frozen rationals and route agreement
# ---------------------------------------------------------------------------

def test_eigenvalue_frozen_values():
    assert eigenvalue_recurrence(1, 2, 0) == Fraction(1, 3)
    assert eigenvalue_recurrence(1, 3, 1) == Fraction(7, 27)
    assert eigenvalue_closed(1, 2, 1) == Fraction(2, 9)
    spectrum_s2 = [eigenvalue_recurrence(2, 2, J) for J in range(3)]
    assert spectrum_s2 == [Fraction(1, 5), Fraction(3, 20), Fraction(7, 100)]
    assert eigenvalue_closed(2, 2, 2) == Fraction(7, 100)


def test_eigenvalue_rejects_bad_sector():
    with pytest.raises(ValueError):
        eigenvalue_recurrence(1, 2, 2)
    with pytest.raises(ValueError):
        eigenvalue_closed(1, 0, 0)
    with pytest.raises(ValueError):
        spin1_closed(3, 2)


def test_spin1_closed_forms():
    assert spin1_closed(1, 0) == 0
    assert spin1_closed(2, 1) == Fraction(2, 9)
    assert spin1_closed(3, 0) == Fraction(2, 9)
    for L in range(1, 17):
        assert spin1_closed(L, 0) == Fraction(1, 4) * (1 + 3 * Fraction(-1, 3) ** L)
        for J in (0, 1):
            want = spin1_closed(L, J)
            assert eigenvalue_recurrence(1, L, J) == want
            assert eigenvalue_closed(1, L, J) == want


@given(S=st.integers(1, 5), L=st.integers(2, 30))
@settings(deadline=None, max_examples=40)
def test_routes_agree_exactly(S, L):
    for J in range(S + 1):
        assert eigenvalue_recurrence(S, L, J) == eigenvalue_closed(S, L, J)


def _as_fractions(table):
    """A weight table (T, M) of integer rows over one denominator as Fraction rows T/M."""
    rows, common = table
    return tuple(tuple(Fraction(t, common) for t in row) for row in rows)


def _lowest_terms_rows(S):
    """The recurrence table as rows (n_{J,0..S}, W_J), each row in lowest terms.

    Runs the I_l recurrence on integers N_k with I_k = N_k / D_k,
    D_k = prod_{j<k} (j+1)(S+j+2)^2, N_0 = 1 and N_1 = y = 4x(J):

        N_{k+1} = (2k+1)(y + k(k+1)) N_k - k^2 (S-k+1)^2 (S+k+1)^2 N_{k-1},

    puts every entry of row J over D_S (S+1)^2 and reduces the row by its gcd.
    It knows nothing of the one-denominator law, so it is the reference for it.
    """
    rows = []
    for J in range(S + 1):
        y = 2 * J * (J + 1) - S * (S + 2)
        prev, cur, den = 0, 1, (S + 1) ** 2
        entries = [(1, den)]
        for k in range(S):
            back = (k * (S - k + 1) * (S + k + 1)) ** 2
            prev, cur = cur, (2 * k + 1) * (y + k * (k + 1)) * cur - back * prev
            den *= (k + 1) * (S + k + 2) ** 2
            entries.append(((2 * k + 3) * cur, den))
        numerators = [n * (den // d) for n, d in entries]
        g = math.gcd(den, *numerators)
        rows.append((tuple(n // g for n in numerators), den // g))
    return tuple(rows)


def test_recurrence_table_is_the_lowest_terms_rows_over_their_lcm():
    # One denominator for the whole table: the lcm of the lowest-terms row
    # denominators, which is (2S+1) C(2S,S)^2 in closed form.
    for S in [*range(1, 61), 100]:
        reference = _lowest_terms_rows(S)
        common = math.lcm(*(w for _, w in reference))
        assert common == (2 * S + 1) * math.comb(2 * S, S) ** 2, S
        rescaled = tuple(tuple(n * (common // w) for n in row) for row, w in reference)
        assert _recurrence_weights(S) == (rescaled, common), S


def test_an_inexact_recurrence_step_raises(monkeypatch):
    # A binomial rounded through a float is off past 2^53, so at S = 40 the seed
    # T_0 is wrong and some step leaves a remainder; plain floor division
    # would return a wrong table without a word.
    floated = types.SimpleNamespace(comb=lambda n, k: int(float(math.comb(n, k))))
    monkeypatch.setattr(spectrum, "math", floated)
    with pytest.raises(InvalidSpectrumError, match="inexact I_l recurrence step at S=40"):
        _recurrence_weights.__wrapped__(40)


# The L-independent identities below hold for every length L at once: each
# route damps its weights by the same lambda(l,S)^(L-1).


def test_weight_tables_equal_for_every_length():
    # Equal tables make the two routes agree at every L, not only at sampled lengths.
    for S in range(1, 25):
        assert _recurrence_weights(S) == _closed_weights(S)


def test_weight_tables_obey_the_trace_law_for_every_length():
    # sum_J (2J+1) c(S,J,l) = delta_{l,0} is the trace law sum_J (2J+1) Lambda(J) = 1
    # at every L, term by term in lambda(l,S)^(L-1).
    for S in range(1, 25):
        for weights in (_recurrence_weights, _closed_weights):
            rows, common = weights(S)  # the whole table in lowest terms
            assert common > 0 and math.gcd(common, *(t for row in rows for t in row)) == 1
            table = _as_fractions(weights(S))
            for l in range(S + 1):
                assert sum((2 * J + 1) * table[J][l] for J in range(S + 1)) == (l == 0)


def test_first_damping_order_dominates():
    # |lambda(l,S)| <= |lambda(1,S)| for l >= 1, which flat_limit_bound relies on.
    for S in range(1, 25):
        [(powers, _)] = _identity_powers(S, (2,))
        assert all(abs(a) <= abs(powers[1]) for a in powers[1:])


def test_weight_builders_construct_no_fraction(monkeypatch):
    built = []
    real = spectrum.Fraction

    def counted(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(spectrum, "Fraction", counted)
    for S in (1, 4, 9):
        for weights in (_recurrence_weights, _closed_weights):
            weights.__wrapped__(S)
    assert built == []


def test_pointwise_recurrence_weights_match_the_polynomials():
    # _recurrence_weights runs the recurrence on values at each x(J); the
    # polynomials I_l of i_polynomial are the reference it must reproduce.
    for S in range(1, 13):
        table = _as_fractions(_recurrence_weights(S))
        for J in range(S + 1):
            x = Fraction(J * (J + 1), 2) - Fraction(S * (S + 2), 4)
            for l in range(S + 1):
                assert table[J][l] == (2 * l + 1) * i_polynomial(l, S)(x) / (S + 1) ** 2


def _closed_weights_reference(S):
    """The closed-route table as a Fraction triple sum over ``three_j_zero``."""
    rows = []
    for J in range(S + 1):
        prefactor = Fraction(
            factorial(2 * J + 1) * factorial(S) ** 2,
            factorial(S + J + 1) * factorial(S - J + 1) * factorial(J + 1) ** 2,
        )
        outer = [(2 * lL + 1) * lambda_coeff(lL, S - J) for lL in range(S - J + 1)]
        inner = [(2 * l + 1) * lambda_coeff(l, J) ** 2 for l in range(J + 1)]
        row = []
        for l1 in range(S + 1):
            total = Fraction(0)
            for lL, a in enumerate(outer):
                for l, b in enumerate(inner):
                    total += a * b * three_j_zero(l1, lL, l).square
            row.append(prefactor * (2 * l1 + 1) * total)
        rows.append(tuple(row))
    return tuple(rows)


def test_closed_weights_match_three_j_reference():
    # Pins the integer closed route to the reference 3j symbols on its own,
    # apart from the recurrence route.
    for S in range(1, 11):
        assert _as_fractions(_closed_weights(S)) == _closed_weights_reference(S), S


def test_integer_kernel_matches_fraction_reference():
    # The reference damps each route's Fraction table directly:
    # Lambda(J) = sum_l w(J,l) lambda(l,S)^(L-1).
    tables = {"recurrence": _recurrence_weights, "closed_form": _closed_weights}
    for S in range(1, 13):
        lambdas = [lambda_coeff(l, S) for l in range(S + 1)]
        for L in (1, 2, 3, 7, 50, 201):
            for method, weights in tables.items():
                want = [
                    sum(w * lam ** (L - 1) for w, lam in zip(row, lambdas))
                    for row in _as_fractions(weights(S))
                ]
                got = [value for _, value, _ in block_spectrum(S, L, method).entries]
                assert got == want, (S, L, method)


def test_block_spectrum_equals_the_stepped_kernel():
    # ``verify conjecture1`` decides on the kernel's unreduced N_J / D, while
    # ``spectrum`` and ``sweep`` print ``block_spectrum``: both read the same values.
    tables = {"recurrence": _recurrence_weights, "closed_form": _closed_weights}
    for method, weights in tables.items():
        for S in range(1, 8):
            lengths = range(1, 21)
            for L, (numerators, D) in zip(lengths, _sector_numerators(weights, S, lengths)):
                spec = block_spectrum(S, L, method)
                assert [value for _, value, _ in spec.entries] == [Fraction(n, D) for n in numerators]
                assert spec.trace() == 1, (S, L, method)


def test_length_sweep_takes_no_lambda_and_no_fraction_power(monkeypatch):
    # Once a spin's tables exist, every length is integer arithmetic only.
    S = 6
    for method in EXACT_METHODS:
        block_spectrum(S, 2, method)
    calls = {"lambda_coeff": 0, "pow": 0}
    real_lambda, real_pow = spectrum.lambda_coeff, Fraction.__pow__

    def counted_lambda(l, S):
        calls["lambda_coeff"] += 1
        return real_lambda(l, S)

    def counted_pow(self, other, *args):
        calls["pow"] += 1
        return real_pow(self, other, *args)

    monkeypatch.setattr(spectrum, "lambda_coeff", counted_lambda)
    monkeypatch.setattr(Fraction, "__pow__", counted_pow)
    for L in range(1, 60):
        for method in EXACT_METHODS:
            assert block_spectrum(S, L, method).trace() == 1
    assert calls == {"lambda_coeff": 0, "pow": 0}


def test_trace_is_exact():
    for S in range(1, 7):
        for L in (1, 2, 5, 30):
            for method in EXACT_METHODS:
                assert block_spectrum(S, L, method).trace() == 1
    skewed = BlockSpectrum(
        S=2, L=3,
        entries=((0, Fraction(1, 6), 1), (1, Fraction(-2, 15), 3), (2, Fraction(7, 100), 5)),
        method="closed_form",
    )
    assert skewed.trace() == Fraction(7, 60)
    assert isinstance(skewed.trace(), Fraction)


@given(S=st.integers(1, 8), L=st.integers(1, 64))
@settings(deadline=None, max_examples=40)
def test_trace_law_exact(S, L):
    assert sum((2 * J + 1) * eigenvalue_recurrence(S, L, J) for J in range(S + 1)) == 1


def test_positivity_for_blocks_of_two_or_more():
    for S in range(1, 5):
        for L in range(2, 8):
            for J in range(S + 1):
                assert eigenvalue_recurrence(S, L, J) > 0


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def test_vbs_norm_frozen_values():
    assert vbs_norm(1, 1) == 6
    assert vbs_norm(1, 2) == 18
    assert vbs_norm(2, 1) == 480
    # closed form [(2S+1)!/(S+1)]^N S!(S+1)!; N = 0 is the two end spins alone
    for S in (1, 2, 3):
        for N in (0, 1, 2, 3):
            want = Fraction(math.factorial(2 * S + 1), S + 1) ** N
            want *= math.factorial(S) * math.factorial(S + 1)
            assert vbs_norm(S, N) == want
        with pytest.raises(ValueError):
            vbs_norm(S, -1)


def test_degenerate_norm_frozen_values():
    assert degenerate_norm(1, 2, 0) == 6
    assert degenerate_norm(1, 3, 1) == 14
    # spin-1 closed form (3^L + 3(-1)^L)/2 and (3^L - (-1)^L)/2
    for L in range(2, 7):
        assert degenerate_norm(1, L, 0) == Fraction(3 ** L + 3 * (-1) ** L, 2)
        assert degenerate_norm(1, L, 1) == Fraction(3 ** L - (-1) ** L, 2)


def test_degenerate_norm_ties_to_eigenvalue():
    # Lambda(J) = [(S+1)/(2S+1)!]^L * (S! S!/(S+1)) * <VBS_L(J,M)|VBS_L(J,M)>
    for S in (1, 2, 3):
        for L in (2, 3, 4):
            front = Fraction(S + 1, math.factorial(2 * S + 1)) ** L
            front *= Fraction(math.factorial(S) ** 2, S + 1)
            for J in range(S + 1):
                assert eigenvalue_closed(S, L, J) == front * degenerate_norm(S, L, J)


def test_degenerate_norm_needs_two_sites():
    with pytest.raises(ValueError):
        degenerate_norm(1, 1, 0)


# ---------------------------------------------------------------------------
# flat-spectrum limit
# ---------------------------------------------------------------------------

def test_flat_limit_bound_spin1_is_tight():
    # At S=1 the deviation saturates the bound: |Lambda(J) - 1/4| equals
    # K(1,J) |lambda(1,1)|^(L-1) with K = 1/4.
    assert flat_limit_bound(1, 0) == Fraction(1, 4)
    assert flat_limit_bound(1, 1) == Fraction(1, 12)
    for L in range(2, 12):
        gap = abs(eigenvalue_recurrence(1, L, 0) - Fraction(1, 4))
        assert gap == flat_limit_bound(1, 0) * Fraction(1, 3) ** (L - 1)


def test_flat_limit_bound_grid():
    for S in range(1, 6):
        decay = abs(lambda_coeff(1, S))
        flat = Fraction(1, (S + 1) ** 2)
        for J in range(S + 1):
            K = flat_limit_bound(S, J)
            for L in (2, 5, 12, 40):
                gap = abs(eigenvalue_recurrence(S, L, J) - flat)
                assert gap <= K * decay ** (L - 1)


def test_saturation_value():
    for S in range(1, 5):
        assert saturation_value(S) == pytest.approx(2.0 * math.log(S + 1), abs=1e-15)


# ---------------------------------------------------------------------------
# assembled spectra
# ---------------------------------------------------------------------------

def test_block_spectrum_structure():
    spec = block_spectrum(2, 3, method="closed_form")
    assert spec.S == 2 and spec.L == 3 and spec.method == "closed_form"
    assert [(J, mult) for J, _, mult in spec.entries] == [(0, 1), (1, 3), (2, 5)]
    assert spec.trace() == 1


def test_block_spectrum_methods():
    for method in EXACT_METHODS:
        assert block_spectrum(1, 4, method=method).trace() == 1
    with pytest.raises(ValueError):
        block_spectrum(1, 4, method="fock_oracle")


def test_block_spectrum_single_site_rank():
    spec = block_spectrum(1, 1)
    assert dict((J, v) for J, v, _ in spec.entries) == {0: 0, 1: Fraction(1, 3)}
