"""Output checks on one CLI document.

Every invocation, for every seed, is checked against laws the output must
obey whatever the inputs: the exact trace law per (L, method), entropies
inside [0, 2 ln(S+1)], the expected row counts, and all check records
passing. Where a sha256 was recorded for an invocation (the default-seed
plans), the digest must match too; see :func:`document_digest` for what it
covers.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from workloads import Invocation

GOLDEN_PATH = Path(__file__).with_name("golden.json")

FORMULA_METHODS = ("recurrence", "closed_form")
ORACLE_TRACE_TOL = 1e-9
# Entropies are float sums; near saturation they may round one ulp past
# 2 ln(S+1).
ENTROPY_TOL = 1e-12
# Float result fields are rounded before hashing, far below the CLI's 1e-9
# oracle match tolerance: the last bits of oracle eigenvalues depend on the
# BLAS build, its thread count and the order of floating-point operations.
FLOAT_FIELDS = ("lambda_float", "value")
FLOAT_DECIMALS = 10
# Floats in check-record details; every one is printed in e-notation.
_DETAIL_FLOAT = re.compile(r"-?\d\.\d+e[-+]\d+")


@dataclass
class Outcome:
    """What one invocation produced, as far as the benchmark cares."""

    problems: list[str] = field(default_factory=list)
    cells: int = 0
    digest: str = ""

    @property
    def ok(self) -> bool:
        return not self.problems


def load_golden() -> dict[str, str]:
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


def _sha256(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _canonical_row(row: dict) -> dict:
    row = dict(row)
    for key in FLOAT_FIELDS:
        if row.get(key) not in (None, ""):
            row[key] = round(float(row[key]), FLOAT_DECIMALS) + 0.0  # no -0.0
    return row


def document_digest(command: str, results: list, records: list[dict]) -> str:
    """sha256 of what a document must reproduce, whatever fields it gains.

    For ``verify`` (whose ``results`` is always empty) it covers the sorted
    (suite, name, detail) of the check records, with the floats of each
    detail masked, so that the set of checks and the ranges they cover are
    pinned but numeric deviations are not. Otherwise it covers the
    ``results`` rows, with float fields rounded to FLOAT_DECIMALS. Config
    and any other record fields are left out: they are expected to gain
    fields without the results changing.
    """
    if command == "verify":
        return _sha256(sorted([r["suite"], r["name"], _DETAIL_FLOAT.sub("#", r["detail"])] for r in records))
    return _sha256([_canonical_row(row) for row in results])


def _parse(inv: Invocation, text: str) -> tuple[list, list[dict]]:
    """(results rows, check records) from a JSON or CSV document."""
    if inv.output_format == "json":
        doc = json.loads(text)
        return doc["results"], doc["checks"]
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    records = [dict(zip(header, row)) for row in body]
    if inv.command == "verify":
        for record in records:
            record["passed"] = record["passed"] == "True"
        return [], records
    return records, []


def _spectrum_problems(inv: Invocation, results: list) -> list[str]:
    problems = []
    groups: dict[tuple[int, str], list] = {}
    for row in results:
        if int(row["S"]) != inv.spin:
            problems.append(f"row for S={row['S']}, expected {inv.spin}")
        if row["J"] in ("", None):
            continue  # oracle null-mode summary row
        groups.setdefault((int(row["L"]), row["method"]), []).append(row)
    expected = {(L, m) for L in inv.lengths for m in inv.methods}
    if set(groups) != expected:
        problems.append(f"(L, method) cells {sorted(groups)} != {sorted(expected)}")
    for (L, method), rows in sorted(groups.items()):
        if sorted(int(r["J"]) for r in rows) != list(range(inv.spin + 1)):
            problems.append(f"L={L} {method}: sectors are not J=0..{inv.spin}")
            continue
        if any(int(r["multiplicity"]) != 2 * int(r["J"]) + 1 for r in rows):
            problems.append(f"L={L} {method}: multiplicity is not 2J+1")
        if method in FORMULA_METHODS:
            trace = sum((2 * int(r["J"]) + 1) * Fraction(r["lambda_exact"]) for r in rows)
            if trace != 1:
                problems.append(f"L={L} {method}: exact trace {trace} != 1")
        else:
            trace = sum(int(r["multiplicity"]) * float(r["lambda_float"]) for r in rows)
            if abs(trace - 1.0) > ORACLE_TRACE_TOL:
                problems.append(f"L={L} {method}: trace {trace!r} not within {ORACLE_TRACE_TOL} of 1")
    return problems


def _entropy_problems(inv: Invocation, results: list) -> list[str]:
    problems = []
    alphas = sorted(set(inv.alphas) | {1.0})
    if len(results) != len(inv.lengths) * len(alphas):
        problems.append(f"{len(results)} rows, expected {len(inv.lengths)} x {len(alphas)}")
    cells = {(int(r["L"]), float(r["alpha"])) for r in results}
    if cells != {(L, a) for L in inv.lengths for a in alphas}:
        problems.append("(L, alpha) cells do not match the request")
    ceiling = 2.0 * math.log(inv.spin + 1) + ENTROPY_TOL
    for row in results:
        value = float(row["value"])
        if not -ENTROPY_TOL <= value <= ceiling:
            problems.append(f"L={row['L']} alpha={row['alpha']}: entropy {value!r} outside [0, 2 ln(S+1)]")
    return problems


def check_output(inv: Invocation, exit_code: int, stdout: bytes, golden: dict[str, str]) -> Outcome:
    """Validate one invocation's document; problems make it a failed operation."""
    outcome = Outcome()
    if exit_code != 0:
        outcome.problems.append(f"exit code {exit_code}")
        return outcome
    try:
        results, records = _parse(inv, stdout.decode())
        outcome.digest = document_digest(inv.command, results, records)
        failing = [r["name"] for r in records if r["passed"] is not True]
        if failing:
            outcome.problems.append(f"checks not passed: {failing}")
        if inv.command == "verify":
            if not records:
                outcome.problems.append("no check records")
        elif inv.command == "entropy":
            outcome.problems.extend(_entropy_problems(inv, results))
        else:
            outcome.problems.extend(_spectrum_problems(inv, results))
    except (ValueError, KeyError, IndexError, TypeError, ZeroDivisionError) as exc:
        outcome.problems.append(f"malformed document: {exc!r}")
        return outcome
    recorded = golden.get(inv.key)
    if recorded is not None and recorded != outcome.digest:
        outcome.problems.append(f"document sha256 {outcome.digest} != recorded {recorded}")
    if outcome.ok:
        outcome.cells = len(records) if inv.command == "verify" else len(inv.lengths)
    return outcome
