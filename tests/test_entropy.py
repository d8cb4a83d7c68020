"""Tests for block entanglement entropies (von Neumann and Renyi)."""

import json
import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from akltblock import entropy, spectrum
from akltblock.cli import main
from akltblock.entropy import InvalidSpectrumError, _length_weights, renyi, von_neumann
from akltblock.spectrum import BlockSpectrum, _recurrence_weights, block_spectrum, saturation_value


def flat_spectrum(S: int) -> BlockSpectrum:
    """The infinite-block fixed point: every sector eigenvalue 1/(S+1)^2."""
    value = Fraction(1, (S + 1) ** 2)
    entries = tuple((J, value, 2 * J + 1) for J in range(S + 1))
    return BlockSpectrum(S=S, L=1, entries=entries, method="recurrence")


def test_von_neumann_hand_values():
    # flat four-fold spectrum -> ln 4
    assert von_neumann(flat_spectrum(1)) == pytest.approx(math.log(4), abs=1e-14)
    # single spin-1 site: eigenvalues {0, 1/3 x3} -> ln 3 (0 ln 0 := 0)
    assert von_neumann(block_spectrum(1, 1)) == pytest.approx(math.log(3), abs=1e-14)
    # two-site block: (1/3) ln 3 + (2/3) ln(9/2)
    want = math.log(3) / 3 + 2 * math.log(4.5) / 3
    assert von_neumann(block_spectrum(1, 2)) == pytest.approx(want, abs=1e-14)
    assert von_neumann(block_spectrum(1, 2)) == pytest.approx(1.3689220, abs=5e-7)


def test_renyi_hand_values():
    # sum of squared eigenvalues at L=2 is 1/9 + 3 (2/9)^2 = 7/27
    assert renyi(block_spectrum(1, 2), 2.0) == pytest.approx(math.log(27 / 7), abs=1e-13)
    assert renyi(block_spectrum(1, 2), 2.0) == pytest.approx(1.3499267, abs=5e-7)


def test_renyi_alpha_one_dispatches():
    spec = block_spectrum(2, 3)
    assert renyi(spec, 1.0) == von_neumann(spec)  # bit-for-bit


def test_renyi_alpha_continuity():
    spec = block_spectrum(1, 4)
    center = von_neumann(spec)
    for alpha in (1.0 - 1e-6, 1.0 + 1e-6):
        assert renyi(spec, alpha) == pytest.approx(center, abs=1e-5)


def test_flat_spectrum_is_alpha_independent():
    for S in range(1, 5):
        target = saturation_value(S)
        for alpha in (0.5, 2.0, 10.0):
            assert abs(renyi(flat_spectrum(S), alpha) - target) < 1e-14
        assert abs(von_neumann(flat_spectrum(S)) - target) < 1e-14


@given(S=st.integers(1, 4), L=st.integers(1, 20))
@settings(deadline=None, max_examples=30)
def test_renyi_monotone_in_alpha(S, L):
    spec = block_spectrum(S, L)
    values = [renyi(spec, a) for a in (0.5, 1.0, 2.0, 4.0)]
    for lo, hi in zip(values[1:], values[:-1]):
        assert lo <= hi + 1e-12


@given(S=st.integers(1, 4), L=st.integers(2, 24))
@settings(deadline=None, max_examples=30)
def test_entropy_bounded_by_saturation(S, L):
    value = von_neumann(block_spectrum(S, L))
    assert -1e-12 <= value <= saturation_value(S) + 1e-12


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2")
def test_entropy_command_stays_below_saturation_and_monotone_in_alpha(capsys):
    # S = 1, L = 17..20: the alpha = 2 value is rounded above the alpha = 1
    # value at every L, and saturation_gap is -2.2e-16 at L = 18, 19 and 20.
    assert main(["entropy", "--spin", "1", "--length", "17..20", "--alpha", "2"]) == 0
    rows = json.loads(capsys.readouterr().out)["results"]
    assert all(row["saturation_gap"] >= 0 for row in rows)
    value = {(row["L"], row["alpha"]): row["value"] for row in rows}
    assert all(value[L, 2.0] <= value[L, 1.0] for L in range(17, 21))


def test_saturation_with_block_size():
    for S in range(1, 5):
        assert saturation_value(S) - von_neumann(block_spectrum(S, 24)) < 1e-6


def test_invalid_spectra_are_rejected():
    bad_negative = BlockSpectrum(
        S=1, L=2, entries=((0, -1e-6, 1), (1, (1 + 1e-6) / 3.0, 3)), method="fock_oracle"
    )
    with pytest.raises(InvalidSpectrumError, match="not an exact Fraction"):
        von_neumann(bad_negative)
    bad_trace = BlockSpectrum(
        S=1, L=2, entries=((0, 0.5, 1), (1, 0.5, 3)), method="fock_oracle"
    )
    with pytest.raises(InvalidSpectrumError, match="not an exact Fraction"):
        von_neumann(bad_trace)
    # exact spectra: a negative eigenvalue under a trace of exactly 1, and a
    # trace of 4/3 with every eigenvalue positive
    exact_negative = BlockSpectrum(
        S=1, L=2, entries=((0, Fraction(-1, 9), 1), (1, Fraction(10, 27), 3)), method="recurrence"
    )
    assert exact_negative.trace() == 1
    with pytest.raises(InvalidSpectrumError, match="negative exact eigenvalue -1/9"):
        von_neumann(exact_negative)
    exact_trace = BlockSpectrum(
        S=1, L=2, entries=((0, Fraction(1, 3), 1), (1, Fraction(1, 3), 3)), method="recurrence"
    )
    with pytest.raises(InvalidSpectrumError, match="exact spectrum has trace 4/3"):
        renyi(exact_trace, 2.0)
    with pytest.raises(ValueError):
        renyi(block_spectrum(1, 2), 0.0)
    with pytest.raises(ValueError):
        renyi(block_spectrum(1, 2), -1.5)
    for alpha in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            renyi(block_spectrum(1, 2), alpha)


def test_float_spectrum_is_rejected_even_with_unit_trace():
    # Entropies take exact spectra only; a float list of oracle values has no
    # exact trace to check.
    floats = BlockSpectrum(S=1, L=2, entries=((0, 0.25, 1), (1, 0.25, 3)), method="fock_oracle")
    for entropy in (von_neumann, lambda spec: renyi(spec, 2.0)):
        with pytest.raises(InvalidSpectrumError, match="0.25 is not an exact Fraction"):
            entropy(floats)


@pytest.mark.parametrize("S, L, alpha", [(1, 2, 1000.0), (3, 7, 500.0), (5, 10, 700.0), (40, 2, 200.0)])
def test_renyi_large_order_matches_exact_power_sum(S, L, alpha):
    # every Lambda(J)**alpha underflows a float here; the exact power sum does not
    spec = block_spectrum(S, L)
    power_sum = sum(mult * value ** int(alpha) for _, value, mult in spec.entries)
    expected = (math.log(power_sum.numerator) - math.log(power_sum.denominator)) / (1 - alpha)
    assert renyi(spec, alpha) == pytest.approx(expected, rel=1e-14)


def _spy_exact(monkeypatch):
    """Record the length of every call to the exact fallback, ``block_spectrum``."""
    calls = []
    exact = entropy.block_spectrum

    def spy(S, L):
        calls.append(L)
        return exact(S, L)

    monkeypatch.setattr(entropy, "block_spectrum", spy)
    return calls


def _rounded_spectrum(S, L):
    return tuple((float(value), mult) for _, value, mult in block_spectrum(S, L).entries)


@pytest.mark.parametrize("S", range(1, 13))
def test_length_weights_are_the_exact_spectrum_rounded(monkeypatch, S):
    # certified and exact floats alike round like float(Fraction), one length
    # at a time and stepped over L = 1..300 and across gaps, repeats and
    # descents; only L = 1, where S of the sectors are exactly 0, goes exact
    calls = _spy_exact(monkeypatch)
    patterns = (range(1, 301), (1, 2, 3, 7, 50, 201), (1, 2, 3, 7, 7, 50, 49, 201), (201, 3, 1))
    for lengths in patterns:
        calls.clear()
        assert list(_length_weights(S, lengths)) == [_rounded_spectrum(S, L) for L in lengths]
        assert calls == [1] * lengths.count(1)
    for L in (1, 2, 3, 7, 50, 201):
        assert list(_length_weights(S, (L,))) == [_rounded_spectrum(S, L)], L


@pytest.mark.parametrize("S, last", [(5, 307), (8, 257), (11, 207)])
def test_length_weights_over_the_benchmark_entropy_windows(S, last):
    # every length perfbench's entropy_scan can ask for at these spins, in
    # one pass stepped across the whole window
    lengths = range(2, last + 1)
    for L, weights in zip(lengths, _length_weights(S, lengths), strict=True):
        assert weights == _rounded_spectrum(S, L), L


def test_length_weights_check_their_arguments():
    for S, lengths in ((0, (2,)), (2, (3, 0)), (2, (2, 2.5))):
        with pytest.raises(ValueError):
            list(_length_weights(S, lengths))
    assert list(_length_weights(2, ())) == []
    # a one-shot iterator of lengths is read once, each length in turn
    assert list(_length_weights(5, iter([2, 3, 4, 5]))) == list(_length_weights(5, (2, 3, 4, 5)))


def test_zero_eigenvalues_at_one_site_take_the_exact_path(monkeypatch):
    calls = _spy_exact(monkeypatch)
    (weights,) = _length_weights(4, (1,))
    assert [value for value, _ in weights].count(0.0) == 4
    assert weights == _rounded_spectrum(4, 1)
    assert calls == [1]


def test_low_precision_certifies_nothing(monkeypatch):
    # below 2^26 the ends v - E and v + E are distinct exact floats, so no
    # cell certifies and every length falls back with unchanged floats
    lengths = (2, 3, 7, 50, 49, 201)
    expected = list(_length_weights(5, lengths))
    monkeypatch.setattr(entropy, "_PRECISION", 8)
    calls = _spy_exact(monkeypatch)
    assert list(_length_weights(5, lengths)) == expected
    assert calls == list(lengths)


def _spy_tail(monkeypatch):
    """Record (S, L0, arguments) of every flat-tail search ``_length_weights`` makes."""
    searches = []
    search = entropy._flat_tail

    def spy(S, *args):
        L0, weights = search(S, *args)
        searches.append((S, L0, args))
        return L0, weights

    monkeypatch.setattr(entropy, "_flat_tail", spy)
    return searches


def _threshold(S):
    """The L0 of the flat tail that ``_length_weights`` finds at S, and its search's arguments."""
    with pytest.MonkeyPatch.context() as patch:
        searches = _spy_tail(patch)
        list(_length_weights(S, (10**9,)))
    ((_, L0, args),) = searches
    return L0, args


@pytest.mark.parametrize("S", range(1, 13))
def test_flat_tail_is_the_exact_spectrum_rounded(monkeypatch, S):
    # the shared tuple starts at L0 and no earlier, stepped or one length at a
    # time; L0 is the least length whose flat-limit interval certifies
    L0, (precision, certify, _) = _threshold(S)
    calls = _spy_exact(monkeypatch)
    lengths = (L0 - 1, L0, L0 + 1, 2 * L0)
    stepped = list(_length_weights(S, lengths))
    assert stepped == [_rounded_spectrum(S, L) for L in lengths]
    assert stepped[0] is not stepped[1] and stepped[1] is stepped[2] is stepped[3]
    for L, weights in zip(lengths, stepped):
        assert list(_length_weights(S, (L,))) == [weights], L
    assert calls == []
    assert entropy._flat_tail(S, precision, certify, L0 - 1)[0] == L0


def test_flat_tail_thresholds_at_the_benchmark_spins():
    # entropy_scan's windows: 178 of L = 2..301 at S = 5 and 68 of L = 2..251
    # at S = 8 take the tail; none of L = 8..207 at S = 11 does
    assert [_threshold(S)[0] for S in (5, 8, 11)] == [124, 184, 252]


def test_flat_tail_is_searched_only_when_a_length_may_reach_it(monkeypatch):
    searches = _spy_tail(monkeypatch)
    list(_length_weights(11, range(8, 208)))
    list(_length_weights(200, (2, 3000)))
    assert searches == []
    list(_length_weights(11, range(8, 260)))
    assert [(S, L0) for S, L0, _ in searches] == [(11, 252)]


def test_low_precision_has_no_flat_tail(monkeypatch):
    # at 8 bits not even the least bound of all, one unit, certifies: the
    # search must say so at once instead of stepping up forever
    monkeypatch.setattr(entropy, "_PRECISION", 8)
    searches = _spy_tail(monkeypatch)
    calls = _spy_exact(monkeypatch)
    for S in (1, 5, 12):
        assert list(_length_weights(S, (300, 301))) == [_rounded_spectrum(S, 300), _rounded_spectrum(S, 301)]
    assert [(S, L0) for S, L0, _ in searches] == [(1, math.inf), (5, math.inf), (12, math.inf)]
    assert calls == [300, 301] * 3


def test_huge_lengths_take_the_flat_tail_quickly():
    # |Lambda(J) - 1/n| is far below a quarter ulp of 1/n here, so every
    # float is float(1/n), n = (S+1)^2
    for S, L in ((40, 100000), (5, 10**6)):
        start = time.perf_counter()
        (weights,) = _length_weights(S, (L,))
        assert time.perf_counter() - start < 1.0, (S, L)
        assert weights == tuple((1 / (S + 1) ** 2, 2 * J + 1) for J in range(S + 1))


@pytest.mark.parametrize("S", range(1, 13))
def test_squared_powers_match_the_stepped_ones(monkeypatch, S):
    # with the flat tail off, fresh starts at any L and long steps raise
    # fixed-point powers by squaring; every L >= 2 still certifies
    monkeypatch.setattr(entropy, "_flat_tail", lambda *args: (math.inf, None))
    calls = _spy_exact(monkeypatch)
    stepped = list(_length_weights(S, range(1, 301)))
    assert stepped[299] == _rounded_spectrum(S, 300) and stepped[200] == _rounded_spectrum(S, 201)
    for lengths in ((300, 201, 1, 201, 300), (2, 201, 300), (50,), (201,), (300,)):
        assert list(_length_weights(S, lengths)) == [stepped[L - 1] for L in lengths], lengths
    assert calls == [1, 1]


def _patch_table(monkeypatch, table):
    """Give both the fixed-point path and its exact fallback the same table."""
    monkeypatch.setattr(entropy, "_recurrence_weights", lambda S: table)
    monkeypatch.setattr(spectrum, "_recurrence_weights", lambda S: table)


def test_trace_check_catches_one_bumped_numerator(monkeypatch, capsys):
    rows, common = _recurrence_weights(3)
    rows = list(rows)
    rows[1] = (rows[1][0] + 1, *rows[1][1:])
    _patch_table(monkeypatch, (tuple(rows), common))
    for L in (1, 2, 9):
        with pytest.raises(InvalidSpectrumError, match="table at S=3 breaks the trace law"):
            next(_length_weights(3, (L,)))
    assert main(["entropy", "--spin", "3", "--length", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "table at S=3 breaks the trace law" in captured.err


# S = 2 has bases a_l = 10, -5, 1 and M = 180; the numerator vector
# (2, 3, -5) is orthogonal to their powers at L = 1 and 2 (1, 1, 1 and
# 10, -5, 1) but not at L = 3 (100, 25, 1), where its dot product is 270, so
# a table shifted along it first goes wrong at the third length of a run from
# L = 1, reached by stepping.
_LATE = (2, 3, -5)

# Row 0 down 5 and row 2 (multiplicity 5) up 1 keeps the trace law: N_0 at
# L = 3 is 1260 - 5 * 270 = -90 over D = 180 * 10^2, so Lambda(0) = -1/200
# while the trace stays exactly 1 and only the sign check can object.
_NEUTRAL = ((0, -5), (2, 1))
_NEGATIVE_AT_3 = r"negative exact eigenvalue -1/200 of Lambda\(0\) at S=2, L=3"


def _shifted_table(shifts):
    """The S = 2 recurrence table with row J moved by factor * _LATE per (J, factor)."""
    rows, common = _recurrence_weights(2)
    rows = list(rows)
    for J, factor in shifts:
        rows[J] = tuple(t + factor * d for t, d in zip(rows[J], _LATE))
    return tuple(rows), common


def test_sign_check_catches_a_negative_eigenvalue(monkeypatch, capsys):
    _patch_table(monkeypatch, _shifted_table(_NEUTRAL))
    with pytest.raises(InvalidSpectrumError, match=_NEGATIVE_AT_3):
        list(_length_weights(2, (3,)))
    assert main(["entropy", "--spin", "2", "--length", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert _NEGATIVE_AT_3.replace("\\", "") in captured.err


def test_checks_fire_in_the_middle_of_a_stepped_run(monkeypatch, capsys):
    _patch_table(monkeypatch, _shifted_table(_NEUTRAL))
    weights = _length_weights(2, range(1, 6))
    assert next(weights) == _rounded_spectrum(2, 1)
    assert next(weights) == _rounded_spectrum(2, 2)
    with pytest.raises(InvalidSpectrumError, match=_NEGATIVE_AT_3):
        next(weights)
    assert main(["entropy", "--spin", "2", "--length", "1..5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert _NEGATIVE_AT_3.replace("\\", "") in captured.err


def _negated_row(S, J):
    rows, common = _recurrence_weights(S)
    return tuple(tuple(-t for t in row) if j == J else row for j, row in enumerate(rows)), common


@pytest.mark.parametrize(
    "S, table",
    [
        # row 0 alone along _LATE: the trace is 1 at L = 1, 2 and off by 270 / D at L = 3
        (2, _shifted_table(((0, 1),))),
        # a whole real row negated
        (2, _negated_row(2, 2)),
        # Lambda(0) = -12/(12*9) = -1/9 and Lambda(1) = 40/(12*9) = 10/27 at
        # L = 3, trace 1 there, but column l = 0 sums to 0, not to M = 12
        (1, (((0, -12), (0, 40)), 12)),
    ],
    ids=["late-row-shift", "negated-row", "hand-built-spin-1"],
)
def test_a_table_off_the_trace_law_raises_before_any_length(monkeypatch, capsys, S, table):
    assert not entropy._obeys_trace_law(table)
    _patch_table(monkeypatch, table)
    seen = _spy_exact(monkeypatch)
    message = f"recurrence weight table at S={S} breaks the trace law"
    with pytest.raises(InvalidSpectrumError, match=message):
        next(_length_weights(S, range(1, 6)))
    assert seen == []
    assert main(["entropy", "--spin", str(S), "--length", "1..5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_flat_tail_centers_on_the_table_limit(monkeypatch):
    # a trace-neutral move of column l = 0 moves the limit of Lambda(0) and
    # Lambda(1) off 1/9; the tail must follow the table, not 1/(S+1)^2
    rows, common = _recurrence_weights(2)
    rows = (
        (rows[0][0] + 3, *rows[0][1:]),
        (rows[1][0] - 1, *rows[1][1:]),
        rows[2],
    )
    _patch_table(monkeypatch, (rows, common))
    searches = _spy_tail(monkeypatch)
    calls = _spy_exact(monkeypatch)
    weights = list(_length_weights(2, (100, 1000)))
    assert weights == [_rounded_spectrum(2, 100), _rounded_spectrum(2, 1000)]
    assert [value for value, _ in weights[0]] == [23 / 180, 19 / 180, 1 / 9]
    assert len(searches) == 1 and searches[0][1] <= 100
    assert calls == []


@pytest.mark.parametrize(
    "shifts, obeys_law, calls",
    [
        # off the trace law: no length is yielded and none takes the fallback
        (((0, 1),), False, []),
        # a trace-neutral shift keeps the law; L = 3 fails to certify, as
        # Lambda(0) < 0 there, and L = 1 has zero sectors
        (_NEUTRAL, True, [1, 3]),
    ],
)
def test_the_trace_law_decides_which_lengths_go_exact(monkeypatch, shifts, obeys_law, calls):
    table = _shifted_table(shifts)
    assert entropy._obeys_trace_law(table) is obeys_law
    _patch_table(monkeypatch, table)
    seen = _spy_exact(monkeypatch)
    yielded = []
    message = "at S=2, L=3" if obeys_law else "table at S=2 breaks the trace law"
    with pytest.raises(InvalidSpectrumError, match=message):
        yielded.extend(_length_weights(2, range(1, 6)))
    assert yielded == ([_rounded_spectrum(2, 1), _rounded_spectrum(2, 2)] if obeys_law else [])
    assert seen == calls
