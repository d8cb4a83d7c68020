import json

import pytest

from akltblock import cli
from checks import check_output, document_digest
from workloads import Invocation


def _run(capsys, args):
    code = cli.main(list(args))
    return code, capsys.readouterr().out.encode()


def _sweep(fmt):
    args = ("sweep", "--spin", "2", "--length", "2..3", "--method", "recurrence,closed_form", "--format", fmt)
    return Invocation(args, "sweep", 2, (2, 3), methods=("recurrence", "closed_form"), output_format=fmt)


def _entropy(fmt):
    args = ("entropy", "--spin", "2", "--length", "2..4", "--alpha", "0.5,2.0", "--format", fmt)
    return Invocation(args, "entropy", 2, (2, 3, 4), (0.5, 2.0), output_format=fmt)


@pytest.mark.parametrize("make", [_sweep, _entropy])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_real_documents_pass(capsys, make, fmt):
    inv = make(fmt)
    code, out = _run(capsys, inv.args)
    outcome = check_output(inv, code, out, {})
    assert outcome.ok, outcome.problems
    assert outcome.cells == len(inv.lengths)


def test_verify_document_counts_check_records(capsys):
    inv = Invocation(("verify", "appendix", "--format", "csv"), "verify", output_format="csv")
    code, out = _run(capsys, inv.args)
    outcome = check_output(inv, code, out, {})
    assert outcome.ok, outcome.problems
    assert outcome.cells == len(out.decode().splitlines()) - 1


def test_broken_trace_law_fails(capsys):
    inv = _sweep("json")
    code, out = _run(capsys, inv.args)
    doc = json.loads(out)
    doc["results"][0]["lambda_exact"] = "1/2"
    outcome = check_output(inv, code, json.dumps(doc).encode(), {})
    assert any("exact trace" in p for p in outcome.problems)


def test_entropy_above_saturation_and_missing_rows_fail(capsys):
    inv = _entropy("json")
    code, out = _run(capsys, inv.args)
    doc = json.loads(out)
    doc["results"][0]["value"] = 2.3  # 2 ln 3 = 2.197...
    doc["results"].pop()
    problems = check_output(inv, code, json.dumps(doc).encode(), {}).problems
    assert any("outside [0, 2 ln(S+1)]" in p for p in problems)
    assert any("rows, expected 3 x 3" in p for p in problems)


def test_digest_covers_results_only(capsys):
    inv = _sweep("json")
    code, out = _run(capsys, inv.args)
    doc = json.loads(out)
    digest = document_digest(inv.command, doc["results"], doc["checks"])
    doc["config"]["added_field"] = 1
    doc["checks"][0]["worst"] = 0.0
    assert check_output(inv, code, json.dumps(doc).encode(), {inv.key: digest}).ok
    doc["results"][0]["lambda_float"] += 1e-6
    problems = check_output(inv, code, json.dumps(doc).encode(), {inv.key: digest}).problems
    assert [p for p in problems if "sha256" in p] == problems != []


def test_digest_ignores_float_noise_below_tolerance(capsys):
    args = ("spectrum", "--spin", "1", "--length", "2..3", "--method", "fock_oracle", "--format", "json")
    inv = Invocation(args, "spectrum", 1, (2, 3), methods=("fock_oracle",))
    code, out = _run(capsys, inv.args)
    doc = json.loads(out)
    digest = document_digest(inv.command, doc["results"], doc["checks"])
    for row in doc["results"]:
        row["lambda_float"] += 3e-15 if row["J"] is not None else -1e-16
    assert check_output(inv, code, json.dumps(doc).encode(), {inv.key: digest}).ok
    doc["results"][0]["lambda_float"] += 1e-6
    problems = check_output(inv, code, json.dumps(doc).encode(), {inv.key: digest}).problems
    assert any("sha256" in p for p in problems)


def test_verify_digest_pins_checks_and_ranges_not_deviations(capsys):
    inv = Invocation(("verify", "oracle", "--spin", "1", "--max-length", "4"), "verify", 1)
    code, out = _run(capsys, inv.args)
    doc = json.loads(out)
    digest = document_digest(inv.command, doc["results"], doc["checks"])
    assert digest != document_digest(inv.command, [], [])

    def digest_after(edit):
        changed = json.loads(out)
        edit(changed["checks"])
        return document_digest(inv.command, changed["results"], changed["checks"])

    def new_deviation(records):
        records[0]["detail"] = records[0]["detail"].replace("e-", "1e-", 1)
        records[0]["cells"] = 3

    assert digest_after(new_deviation) == digest
    assert digest_after(lambda records: records.reverse()) == digest
    assert digest_after(lambda records: records.pop()) != digest
    assert digest_after(lambda records: records[0].update(detail=records[0]["detail"].replace("L=2..4", "L=2..3"))) != digest


def test_failed_exit_or_check_record_fails(capsys):
    inv = _sweep("json")
    code, out = _run(capsys, inv.args)
    assert not check_output(inv, 2, out, {}).ok
    doc = json.loads(out)
    doc["checks"][0]["passed"] = False
    assert not check_output(inv, code, json.dumps(doc).encode(), {}).ok
