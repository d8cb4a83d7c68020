"""End-to-end tests of the command-line interface.

The exit-code contract: 0 success, 1 verification failure, 2 usage error,
3 resource cap exceeded.  Output must be byte-identical across reruns of
the same invocation (no timestamps, sorted grids).
"""

import collections
import csv
import io
import json
import math
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from akltblock import cli, exact_suites, spectrum, verify
from akltblock.cli import main
from akltblock.entropy import InvalidSpectrumError, renyi
from akltblock.spectrum import BlockSpectrum, block_spectrum, eigenvalue_recurrence, saturation_value


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

def test_spectrum_exact_values_spin1(capsys):
    code, out, _ = run_cli(
        capsys, "spectrum", "--spin", "1", "--length", "2", "--method", "recurrence"
    )
    assert code == 0
    doc = json.loads(out)
    rows = {(r["J"]): r for r in doc["results"]}
    assert rows[0]["lambda_exact"] == "1/3"
    assert rows[1]["lambda_exact"] == "2/9"
    assert rows[1]["multiplicity"] == 3
    assert rows[0]["lambda_float"] == pytest.approx(1 / 3, abs=1e-15)
    assert doc["version"]
    assert doc["config"]["command"] == "spectrum"


def test_spectrum_formula_agreement_check(capsys):
    code, out, _ = run_cli(
        capsys, "spectrum", "--spin", "2", "--length", "2",
        "--method", "recurrence,closed_form",
    )
    assert code == 0
    doc = json.loads(out)
    exact = {(r["J"], r["method"]): r["lambda_exact"] for r in doc["results"]}
    assert exact[(0, "recurrence")] == "1/5"
    assert exact[(1, "closed_form")] == "3/20"
    assert exact[(2, "recurrence")] == "7/100"
    agreement = [c for c in doc["checks"] if c["name"].startswith("formula_agreement")]
    assert agreement and all(c["passed"] for c in agreement)


def test_spectrum_oracle_method_labels_sectors(capsys):
    code, out, _ = run_cli(
        capsys, "spectrum", "--spin", "1", "--length", "2", "--method", "fock_oracle"
    )
    assert code == 0
    doc = json.loads(out)
    labelled = [r for r in doc["results"] if r["method"] == "fock_oracle"]
    assert [(r["J"], r["multiplicity"]) for r in labelled] == [(0, 1), (1, 3)]
    assert labelled[0]["lambda_exact"] is None or labelled[0]["lambda_exact"] == ""
    assert labelled[0]["lambda_float"] == pytest.approx(1 / 3, abs=1e-9)
    assert all(c["passed"] for c in doc["checks"])


@pytest.mark.parametrize("spin", [1, 2])
def test_fock_oracle_single_site_block(capsys, spin):
    # One site holds 2S+1 < (S+1)^2 states; the sectors J < S it lacks have
    # Lambda(J) = 0 exactly at L = 1, so they are not missing eigenvalues.
    code, out, _ = run_cli(
        capsys, "spectrum", "--spin", str(spin), "--length", "1", "--method", "fock_oracle"
    )
    assert code == 0
    doc = json.loads(out)
    assert [(r["J"], r["multiplicity"]) for r in doc["results"]] == [(spin, 2 * spin + 1)]
    assert doc["results"][0]["lambda_float"] == pytest.approx(1 / (2 * spin + 1), abs=1e-12)
    assert all(c["passed"] for c in doc["checks"])


def test_both_oracles_label_one_site_blocks_alike(capsys):
    code, out, _ = run_cli(
        capsys, "spectrum", "--spin", "1", "--length", "1..2",
        "--method", "fock_oracle,pauli_oracle",
    )
    assert code == 0
    doc = json.loads(out)
    assert all(c["passed"] for c in doc["checks"])
    rows = {"fock": [], "pauli": []}
    for r in doc["results"]:
        method, _, suffix = r["method"].partition("_oracle")
        rows[method].append((r["L"], r["J"], r["multiplicity"], suffix, r["lambda_float"]))
    fock, pauli = rows["fock"], rows["pauli"]
    assert [row[:4] for row in fock] == [row[:4] for row in pauli]
    assert fock[0] == (1, 1, 3, "", pytest.approx(1 / 3, abs=1e-12))
    assert [row[4] for row in fock] == pytest.approx([row[4] for row in pauli], abs=1e-12)


def test_spectrum_length_range(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--spin", "1", "--length", "2..4")
    assert code == 0
    doc = json.loads(out)
    assert sorted({r["L"] for r in doc["results"]}) == [2, 3, 4]


def test_spectrum_csv_format(capsys):
    code, out, _ = run_cli(
        capsys, "spectrum", "--spin", "1", "--length", "2", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "S,L,J,multiplicity,method,lambda_exact,lambda_float"
    assert lines[1].startswith("1,2,0,1,")
    assert "1/3" in lines[1]


def test_spectrum_deterministic_output(capsys):
    argv = ["spectrum", "--spin", "2", "--length", "2..3",
            "--method", "recurrence,closed_form,fock_oracle"]
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second


def test_spectrum_out_file(tmp_path, capsys):
    target = tmp_path / "spec.json"
    code, out, _ = run_cli(
        capsys, "spectrum", "--spin", "1", "--length", "2", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["results"]


@pytest.mark.parametrize("target", ["", "missing/spec.json"])
def test_unwritable_out_is_a_usage_error(tmp_path, capsys, target):
    # a directory, then a file in a directory that does not exist
    path = tmp_path / target
    code, out, err = run_cli(
        capsys, "spectrum", "--spin", "1", "--length", "2", "--out", str(path)
    )
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {path}: ")


@pytest.mark.parametrize("output_format", ["json", "csv"])
def test_spectrum_lambda_exact_beyond_int_digit_limit(output_format, capsys):
    # At L=5000 numerators and denominators run to ~7700 digits, past
    # Python's default 4300-digit int/str conversion limit.
    limit = sys.get_int_max_str_digits()
    code, out, _ = run_cli(
        capsys, "spectrum", "--spin", "3", "--length", "5000", "--format", output_format
    )
    assert code == 0
    assert sys.get_int_max_str_digits() == limit
    if output_format == "json":
        rows = json.loads(out)["results"]
    else:
        rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 4
    sys.set_int_max_str_digits(0)
    try:
        for row in rows:
            J = int(row["J"])
            assert Fraction(row["lambda_exact"]) == eigenvalue_recurrence(3, 5000, J)
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("output_format", ["json", "csv"])
def test_verify_counterexample_beyond_int_digit_limit(output_format, capsys, monkeypatch):
    # N_0 moves by 1 at S = 1, L = 9100, so the trace law fails with a trace
    # (D + 1)/D whose D runs to ~4350 digits, past Python's default
    # 4300-digit int/str conversion limit.
    real = exact_suites._sector_numerators

    def bumped(weights, S, lengths):
        for L, (numerators, D) in zip(lengths, real(weights, S, lengths)):
            if (S, L) == (1, 9100):
                numerators = [numerators[0] + 1, *numerators[1:]]
            yield numerators, D

    monkeypatch.setattr(exact_suites, "_sector_numerators", bumped)
    limit = sys.get_int_max_str_digits()
    code, out, _ = run_cli(
        capsys, "verify", "conjecture1", "--max-spin", "1", "--max-length", "9100",
        "--format", output_format,
    )
    assert code == 1
    assert sys.get_int_max_str_digits() == limit
    if output_format == "json":
        records = json.loads(out)["checks"]
    else:
        records = list(csv.DictReader(io.StringIO(out)))
    (trace,) = [record for record in records if record["name"] == "trace_law"]
    where = trace["counterexample"]
    if output_format == "csv":
        where = json.loads(where)
    assert (where["S"], where["L"]) == (1, 9100)
    assert len(where["trace"]) > 4300
    (_, D), = real(spectrum._recurrence_weights, 1, (9100,))
    sys.set_int_max_str_digits(0)
    try:
        assert Fraction(where["trace"]) == Fraction(D + 1, D)
    finally:
        sys.set_int_max_str_digits(limit)


def test_pauli_oracle_requires_spin1(capsys):
    code, _, err = run_cli(
        capsys, "spectrum", "--spin", "2", "--length", "2", "--method", "pauli_oracle"
    )
    assert code == 2
    assert "spin" in err.lower()


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_default_grid(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--spin", "1")
    assert code == 0
    doc = json.loads(out)
    assert sorted({r["L"] for r in doc["results"]}) == list(range(2, 9))
    assert {r["method"] for r in doc["results"]} == {"recurrence", "closed_form"}
    # rows arrive sorted by (S, L, J, method)
    keys = [(r["S"], r["L"], r["J"], r["method"]) for r in doc["results"]]
    assert keys == sorted(keys)


# ---------------------------------------------------------------------------
# entropy
# ---------------------------------------------------------------------------

def test_entropy_values_and_alpha_normalization(capsys):
    code, out, _ = run_cli(
        capsys, "entropy", "--spin", "1", "--length", "2", "--alpha", "2,0.5"
    )
    assert code == 0
    doc = json.loads(out)
    rows = {r["alpha"]: r for r in doc["results"]}
    assert sorted(rows) == [0.5, 1.0, 2.0]   # alpha=1 always included, sorted
    assert rows[1.0]["value"] == pytest.approx(1.3689223607402194, abs=1e-12)
    assert rows[2.0]["value"] == pytest.approx(1.3499267169490159, abs=1e-12)
    assert rows[1.0]["saturation_gap"] == pytest.approx(
        2 * 0.6931471805599453 - rows[1.0]["value"], abs=1e-12
    )


def test_entropy_validates_each_spectrum_once(capsys, monkeypatch):
    # One stepped pass over the lengths: each length is evaluated and checked
    # once, from integer numerators, shared by every alpha; no BlockSpectrum
    # is built on this path.
    passes = []
    checked = collections.Counter()
    real_weights = cli._length_weights

    def length_weights(S, lengths):
        passes.append((S, tuple(lengths)))
        for L, weights in zip(lengths, real_weights(S, lengths)):
            checked[S, L] += 1
            yield weights

    def no_spectrum(*args, **kwargs):
        raise AssertionError("entropy built a BlockSpectrum")

    monkeypatch.setattr(cli, "_length_weights", length_weights)
    monkeypatch.setattr(BlockSpectrum, "__init__", no_spectrum)
    code, _, _ = run_cli(
        capsys, "entropy", "--spin", "3", "--length", "2..5", "--alpha", "0.5,2,4"
    )
    assert code == 0
    assert passes == [(3, (2, 3, 4, 5))]
    assert checked == {(3, L): 1 for L in range(2, 6)}


@pytest.mark.parametrize(
    "command, lengths, methods",
    [
        ("spectrum", (2,), ("recurrence",)),
        ("sweep", (2, 3, 4, 5, 6, 7, 8), ("recurrence", "closed_form")),
    ],
)
def test_spectrum_and_sweep_parser_defaults(command, lengths, methods):
    assert vars(cli.build_parser().parse_args([command])) == {
        "command": command,
        "spin": 1,
        "length": lengths,
        "output_format": "json",
        "max_dim": 4096,
        "out": None,
        "method": methods,
    }


def _entropy_document_via_spectra(argv):
    """The entropy document built from exact BlockSpectrum values and ``renyi``."""
    args = cli.build_parser().parse_args(argv)
    saturation = saturation_value(args.spin)
    results = []
    for L in args.length:
        spec = block_spectrum(args.spin, L)
        for alpha in args.alpha:
            value = renyi(spec, alpha)
            results.append(
                {"S": args.spin, "L": L, "alpha": alpha, "value": value,
                 "saturation_gap": saturation - value}
            )
    doc, _ = cli._document(args, results, [])
    if args.output_format == "json":
        return cli._render_json(doc)
    return cli._render_csv(doc, "entropy")


@pytest.mark.parametrize(
    "argv",
    [
        ("--spin", "5", "--length", "2..301", "--alpha", "1.5,3.0,8.0"),
        ("--spin", "11", "--length", "8..207", "--alpha", "0.5,2.0,4.0"),
        ("--spin", "8", "--length", "2..251", "--alpha", "1.5,3.0,8.0", "--format", "csv"),
        ("--spin", "1", "--length", "1..400", "--alpha", "0.5,2,1000", "--format", "csv"),
        ("--spin", "12", "--length", "1..40", "--alpha", "0.25,6"),
    ],
)
def test_entropy_documents_equal_the_spectrum_route(capsys, argv):
    code, out, _ = run_cli(capsys, "entropy", *argv)
    assert code == 0
    assert out == _entropy_document_via_spectra(["entropy", *argv])


def test_entropy_csv(capsys):
    code, out, _ = run_cli(
        capsys, "entropy", "--spin", "1", "--length", "2", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "S,L,alpha,value"
    assert len(lines) == 4  # alphas 0.5, 1, 2 by default


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_subcommand_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "conjecture1", "--max-spin", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"] == []
    assert doc["checks"] and all(c["passed"] for c in doc["checks"])


def test_verify_reports_null_dimension(capsys):
    code, out, _ = run_cli(capsys, "verify", "hamiltonian", "--spin", "2", "--length", "3")
    assert code == 0
    doc = json.loads(out)
    names = {c["name"]: c for c in doc["checks"]}
    ground = [c for name, c in names.items() if "ground_space" in name]
    assert ground and any("9" in c["detail"] for c in ground)


def test_verify_rejects_unknown_suite(capsys):
    code, _, err = run_cli(capsys, "verify", "everything")
    assert code == 2
    assert "invalid choice" in err


def test_verify_all_honours_max_dim(capsys):
    code, _, err = run_cli(capsys, "verify", "all", "--max-dim", "10")
    assert code == 3
    assert "cap" in err


def test_verify_all_honours_max_length(capsys):
    code, out, _ = run_cli(capsys, "verify", "all", "--max-length", "3")
    assert code == 0
    details = {c["name"]: c["detail"] for c in json.loads(out)["checks"]}
    assert details["fock_spectrum_matches_formula"].startswith("S=1, L=2..3: ")
    assert details["recurrence_equals_closed_spin1"] == "exact equality over L=2..3, J=0..1"
    # flat_limit keeps its own length range
    assert "L<=40" in details["flat_limit_bound"]


def test_verify_oracle_default_length_fits_the_cap(capsys):
    # 5^6 > 4096, so the default oracle run at S=2 stops at L=5
    code, out, _ = run_cli(capsys, "verify", "oracle", "--spin", "2")
    assert code == 0
    details = {c["name"]: c["detail"] for c in json.loads(out)["checks"]}
    assert details["fock_spectrum_matches_formula"].startswith("S=2, L=2..5: ")


def test_verify_all_spin2_passes_at_default_caps(capsys):
    code, out, _ = run_cli(capsys, "verify", "all", "--spin", "2", "--max-spin", "3")
    assert code == 0
    assert all(c["passed"] for c in json.loads(out)["checks"])


def test_verify_csv(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "conjecture1", "--max-spin", "1", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "suite,name,passed,detail"
    assert all(line.split(",")[0] == "conjecture1" for line in lines[1:])


def test_failing_verify_csv_names_the_failing_cell(capsys, monkeypatch):
    real = verify._formula_entries

    def shifted(S, L):
        entries = real(S, L)
        return [(J, v + Fraction(1, 2)) for J, v in entries] if L == 3 else entries

    monkeypatch.setattr(verify, "_formula_entries", shifted)
    code, out, _ = run_cli(
        capsys, "verify", "oracle", "--max-length", "4", "--format", "csv"
    )
    assert code == 1
    rows = list(csv.DictReader(io.StringIO(out)))
    assert list(rows[0]) == ["suite", "name", "passed", "detail", "counterexample"]
    failing = next(row for row in rows if row["name"] == "fock_spectrum_matches_formula")
    assert failing["passed"] == "False"
    where = json.loads(failing["counterexample"])
    assert (where["S"], where["L"]) == (1, 3)
    assert failing["counterexample"] == json.dumps(where, sort_keys=True, separators=(",", ":"))
    assert all(row["counterexample"] == "" for row in rows if row["passed"] == "True")


def _assert_csv_matches_json(capsys, argv, header, key):
    """Both formats of one run hold the same records, cell by cell."""
    json_code, json_out, _ = run_cli(capsys, *argv)
    csv_code, csv_out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert json_code == csv_code
    records = json.loads(json_out)[key]
    reader = csv.DictReader(io.StringIO(csv_out))
    rows = list(reader)
    assert tuple(reader.fieldnames) == header
    assert len(rows) == len(records)
    for row, record in zip(rows, records):
        for column, cell in row.items():
            value = record.get(column)
            if value is None:
                assert cell == ""
            elif isinstance(value, float):
                assert float(cell) == value
            elif isinstance(value, dict):
                assert cell == json.dumps(value, sort_keys=True, separators=(",", ":"))
            else:
                assert cell == str(value)
    return records


_SPECTRUM_HEADER = ("S", "L", "J", "multiplicity", "method", "lambda_exact", "lambda_float")


@pytest.mark.parametrize(
    "argv, header",
    [
        (
            ("spectrum", "--spin", "1", "--length", "1..3",
             "--method", "recurrence,fock_oracle,pauli_oracle"),
            _SPECTRUM_HEADER,
        ),
        (("sweep", "--spin", "3", "--length", "2..4"), _SPECTRUM_HEADER),
        (
            ("entropy", "--spin", "2", "--length", "2..5", "--alpha", "0.5,2"),
            ("S", "L", "alpha", "value"),
        ),
    ],
)
def test_csv_rows_match_json_rows(capsys, argv, header):
    records = _assert_csv_matches_json(capsys, argv, header, "results")
    if argv[0] == "spectrum":
        null_modes = [r for r in records if r["method"].endswith("_null_modes")]
        assert null_modes and all(r["J"] is r["lambda_exact"] is None for r in null_modes)


def test_failing_verify_csv_matches_json(capsys, monkeypatch):
    real = verify._formula_entries

    def shifted(S, L):
        entries = real(S, L)
        return [(J, v + Fraction(1, 2)) for J, v in entries] if L == 3 else entries

    monkeypatch.setattr(verify, "_formula_entries", shifted)
    records = _assert_csv_matches_json(
        capsys,
        ("verify", "oracle", "--max-length", "4"),
        ("suite", "name", "passed", "detail", "counterexample"),
        "checks",
    )
    assert any("counterexample" in r for r in records)


def test_oracle_rows_hold_python_numbers():
    args = cli.build_parser().parse_args(
        ["spectrum", "--spin", "1", "--length", "2..4", "--method", "fock_oracle,pauli_oracle"]
    )
    doc, code = cli.run_spectrum(args)
    assert code == 0
    rows = [r for r in doc["results"] if r["method"].startswith(("fock_oracle", "pauli_oracle"))]
    assert {r["method"] for r in rows} == {
        "fock_oracle", "pauli_oracle", "fock_oracle_null_modes", "pauli_oracle_null_modes"
    }
    for row in rows:
        assert type(row["lambda_float"]) is float
        assert type(row["multiplicity"]) is int


def test_entropy_spin30_long_sweep_is_fast(capsys):
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "entropy", "--spin", "30", "--length", "2..300")
    elapsed = time.perf_counter() - start
    assert code == 0
    values = [row["value"] for row in json.loads(out)["results"]]
    assert len(values) == 299 * 3  # alpha = 0.5, 1, 2
    assert all(0.0 <= v <= 2 * math.log(31) + 1e-12 for v in values)
    # about 2 s with the integer kernel; the Fraction kernel took over 30 s
    assert elapsed < 15.0


# ---------------------------------------------------------------------------
# exit-code contract
# ---------------------------------------------------------------------------

def test_usage_errors_exit_2(capsys):
    assert run_cli(capsys, "spectrum", "--spin", "0")[0] == 2
    assert run_cli(capsys, "spectrum", "--spin", "-3")[0] == 2
    assert run_cli(capsys, "spectrum", "--spin", "1", "--method", "magic")[0] == 2
    assert run_cli(capsys, "spectrum", "--spin", "1", "--length", "5..3")[0] == 2
    assert run_cli(capsys, "entropy", "--spin", "1", "--alpha", "-2")[0] == 2
    assert run_cli(capsys, "nonsense")[0] == 2
    assert run_cli(capsys)[0] == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("conjecture1", "--max-spin", "0"),
        ("conjecture1", "--max-spin", "-2"),
        ("appendix", "--max-spin", "0"),
        ("oracle", "--max-length", "1"),
        ("conjecture1", "--length", "1"),
        ("oracle", "--length", "1"),
    ],
)
def test_verify_empty_grid_exits_2(capsys, argv):
    code, out, _ = run_cli(capsys, "verify", *argv)
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("alpha", ["inf", "nan", "0.5,inf"])
def test_non_finite_alpha_exits_2(capsys, alpha):
    code, out, err = run_cli(capsys, "entropy", "--spin", "1", "--alpha", alpha)
    assert code == 2
    assert out == ""
    assert "alpha values must be finite" in err


def test_verify_accepts_the_shortest_grid(capsys):
    code, out, _ = run_cli(capsys, "verify", "conjecture1", "--max-spin", "1", "--max-length", "2")
    assert code == 0
    assert json.loads(out)["checks"]


def test_spin_zero_message(capsys):
    _, _, err = run_cli(capsys, "spectrum", "--spin", "0")
    assert "bulk spin must be a positive integer" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("spectrum", "--spin", "abc"), "argument --spin: bulk spin must be a positive integer"),
        (("spectrum", "--max-dim", "x"), "argument --max-dim: dimension cap must be a positive integer"),
        (
            ("spectrum", "--length", "a..b"),
            "argument --length: length must be a positive integer or an inclusive range a..b",
        ),
        (("spectrum", "--method", ","), "argument --method: at least one method is required"),
        (("entropy", "--alpha", "x"), "argument --alpha: alpha values must be numbers"),
        (("entropy", "--alpha", "0"), "argument --alpha: alpha values must be positive"),
    ],
    ids=["spin", "max_dim", "length", "method", "alpha", "alpha_zero"],
)
def test_malformed_values_are_argparse_usage_errors(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("usage: akltblock ")
    assert err.endswith(f"error: {message}\n")


@pytest.mark.parametrize("method", ["fock_oracle", "pauli_oracle"])
def test_resource_cap_exits_3(capsys, method):
    code, _, err = run_cli(
        capsys, "spectrum", "--spin", "1", "--length", "3",
        "--method", method, "--max-dim", "10",
    )
    assert code == 3
    assert "cap" in err


def test_refused_pauli_run_builds_no_string_products(capsys, monkeypatch):
    from akltblock.oracle import pauli

    def forbidden(L):
        raise AssertionError("string products built past the cap")

    monkeypatch.setattr(pauli, "_string_products", forbidden)
    # L = 8 at the default cap: the dimension cap is the only upper limit
    cases = [
        (["--length", "7", "--max-dim", "100"], "2187 exceeds the cap 100"),
        (["--length", "8"], "6561 exceeds the cap 4096"),
    ]
    for argv, message in cases:
        code, out, err = run_cli(
            capsys, "spectrum", "--spin", "1", "--method", "pauli_oracle", *argv
        )
        assert code == 3
        assert out == ""
        assert err == f"error: Pauli block dimension {message}\n"


def _refuse_spectrum(S, lengths):
    raise InvalidSpectrumError(f"exact spectrum at S={S}, L={lengths[0]} has trace other than 1")


@pytest.mark.parametrize(
    "argv, patch, code, message",
    [
        (
            ("spectrum", "--spin", "2", "--method", "pauli_oracle"),
            None,
            2,
            "pauli_oracle supports bulk spin 1 only",
        ),
        (
            ("entropy", "--spin", "3", "--length", "4"),
            _refuse_spectrum,
            2,
            "exact spectrum at S=3, L=4 has trace other than 1",
        ),
        (
            ("spectrum", "--spin", "1", "--length", "7", "--method", "pauli_oracle", "--max-dim", "100"),
            None,
            3,
            "Pauli block dimension 2187 exceeds the cap 100",
        ),
    ],
    ids=["usage", "invalid_spectrum", "resource_cap"],
)
def test_run_errors_print_one_line_and_map_to_their_exit_code(
    capsys, monkeypatch, argv, patch, code, message
):
    # UsageError and InvalidSpectrumError are ValueErrors and exit 2; a
    # ResourceCapError exits 3. Either way stdout stays empty.
    if patch is not None:
        monkeypatch.setattr(cli, "_length_weights", patch)
    assert run_cli(capsys, *argv) == (code, "", f"error: {message}\n")


@pytest.mark.parametrize("value", ["0", "-3"])
@pytest.mark.parametrize(
    "argv",
    [("spectrum", "--spin", "1", "--method", "fock_oracle"), ("verify", "oracle")],
)
def test_non_positive_max_dim_is_a_usage_error(capsys, argv, value):
    code, out, err = run_cli(capsys, *argv, "--max-dim", value)
    assert code == 2
    assert out == ""
    assert "argument --max-dim: dimension cap must be a positive integer" in err


_IMPORT_GUARD = """
import contextlib, io, json, sys
from akltblock.cli import main
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv))
watched = ("akltblock.oracle", "numpy", "dataclasses", "inspect", "csv")
loaded = [name for name in watched if name in sys.modules]
print(json.dumps({"codes": codes, "loaded": loaded}))
"""


def _fresh_interpreter_run(*runs):
    """Exit codes of ``main`` over ``runs`` in a new interpreter, and which of
    the oracle package, numpy, dataclasses, inspect and csv it loaded."""
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_GUARD, json.dumps(runs)], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_exact_commands_import_neither_numpy_nor_the_oracle():
    exact = _fresh_interpreter_run(
        ["--version"],
        ["sweep", "--spin", "3", "--length", "2..4", "--method", "recurrence,closed_form"],
        ["entropy", "--spin", "2", "--length", "2..5"],
        ["spectrum", "--spin", "2", "--length", "3", "--method", "recurrence"],
        ["verify", "conjecture1", "--max-spin", "2", "--max-length", "4"],
    )
    assert exact == {"codes": [0, 0, 0, 0, 0], "loaded": []}
    oracle = _fresh_interpreter_run(
        ["spectrum", "--spin", "1", "--length", "2", "--method", "fock_oracle"]
    )
    # numpy itself loads inspect, but not dataclasses
    assert oracle == {"codes": [0], "loaded": ["akltblock.oracle", "numpy", "inspect"]}
    oracle_suite = _fresh_interpreter_run(["verify", "appendix", "--max-spin", "1"])
    assert oracle_suite == {"codes": [0], "loaded": ["akltblock.oracle", "numpy", "inspect"]}


def test_failing_oracle_agreement_names_the_first_failure(capsys, monkeypatch):
    from akltblock.oracle import fock

    values = fock.fock_block_spectrum(1, 2)
    shifted = [values[0] + 1e-6, *values[1:]]
    monkeypatch.setattr(fock, "fock_block_spectrum", lambda S, L, max_dim: list(shifted))
    code, out, _ = run_cli(
        capsys, "spectrum", "--spin", "1", "--length", "2", "--method", "fock_oracle"
    )
    assert code == 1
    doc = json.loads(out)
    (record,) = [c for c in doc["checks"] if c["name"] == "fock_oracle_agreement_L2"]
    assert not record["passed"]
    ok, detail, _ = verify.match_spectrum(shifted, verify._formula_entries(1, 2))
    assert not ok
    assert record["detail"] == detail + " (reference: recurrence)"
    labels = [(row["J"], row["multiplicity"], row["method"]) for row in doc["results"]]
    assert labels == [
        (0, 1, "fock_oracle"), (1, 3, "fock_oracle"), (None, 5, "fock_oracle_null_modes"),
    ]


def test_version_flag(capsys):
    code, out, _ = run_cli(capsys, "--version")
    assert code == 0
    assert "akltblock" in out


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "akltblock", "spectrum", "--spin", "1", "--length", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["results"]
