"""Golden-bytes regression grid for the CLI documents.

Each invocation runs in-process in both formats and its stdout is hashed.
Exact documents are hashed byte for byte. Documents carrying oracle floats
are canonicalised first: ``lambda_float`` and the entropy ``value`` and
``saturation_gap`` are rounded to 10 decimals (far below the 1e-9 match
tolerance) and e-notation floats in check details are masked, because those
last bits depend on the BLAS build, the thread count and the libm.
"""

import csv
import hashlib
import io
import json
import re

import pytest

from akltblock.cli import main

_FLOAT_DECIMALS = 10
_ROUNDED = ("lambda_float", "value", "saturation_gap")
_DETAIL_FLOAT = re.compile(r"-?\d\.\d+e[-+]\d+")

# (argv, canonicalise): digests for "json" and "csv" are listed in GOLDEN.
GRID = (
    (("spectrum", "--spin", "2", "--length", "2..6", "--method", "recurrence,closed_form"), False),
    (("sweep", "--spin", "5", "--length", "2..8"), False),
    (("verify", "conjecture1", "--max-spin", "3", "--max-length", "10"), False),
    (("spectrum", "--spin", "1", "--length", "2..5", "--method", "fock_oracle,pauli_oracle"), True),
    (("verify", "all"), True),
    (("entropy", "--spin", "2", "--length", "4..6", "--alpha", "0.5,2"), True),
    (("verify", "hamiltonian", "--spin", "1", "--length", "2..3", "--max-length", "3"), True),
)

GOLDEN = {
    "spectrum --spin 2 --length 2..6 --method recurrence,closed_form --format json":
        "770c2dc3b101ed463fbcd605c0da6e671fefbf3e59d929188e9364dee79cfc0b",
    "spectrum --spin 2 --length 2..6 --method recurrence,closed_form --format csv":
        "be641454e0bd24beb0e2997e02333cd3c6d906e7e08179b19925858d37b95186",
    "sweep --spin 5 --length 2..8 --format json":
        "fc185fe0ee5bd4677c1a6d93a43b6da129c2f35757db54e3f4e72bbe9a40abc9",
    "sweep --spin 5 --length 2..8 --format csv":
        "f7c364cbaf5d855afabeeb19051f77f7419514ce3cf11fed8d7ed919e52b442f",
    "verify conjecture1 --max-spin 3 --max-length 10 --format json":
        "5bb5d2cc33ba24b8050d8d02a8492e945da389f278eac95a76ca4dfd6ce8ed50",
    "verify conjecture1 --max-spin 3 --max-length 10 --format csv":
        "03367caee2811870b7b9958496ce8327e30d200e76395d353f3f0d3ee57bcab9",
    "spectrum --spin 1 --length 2..5 --method fock_oracle,pauli_oracle --format json":
        "ee6c31226ae5623837dabf64806dacb6f84eb3cfdc217b83c5adce95a7c4d552",
    "spectrum --spin 1 --length 2..5 --method fock_oracle,pauli_oracle --format csv":
        "d63dbeae4ca75f8c45bfaa840d4c2592d8070556982626a9e778977e0a6e9465",
    "verify all --format json":
        "f0c801619f01311433dcb9032aa30b2b4ce1f9126b8ba07a63005f35125ce7c1",
    "verify all --format csv":
        "ea2fcec9ea63beeb684e609d5c1f891ff416de53578ced3f0072d0db50776475",
    "entropy --spin 2 --length 4..6 --alpha 0.5,2 --format json":
        "82b1b5d32c1bf82abfbb4637a6d82c1365828a32ccac7425b83bffc0490e7cbc",
    "entropy --spin 2 --length 4..6 --alpha 0.5,2 --format csv":
        "0f90348a8daf192d0beb9ac9aae28c38136694190e8059fe471a70fca61c6dee",
    "verify hamiltonian --spin 1 --length 2..3 --max-length 3 --format json":
        "58feaaa9c72ad9bcc4c7af0f90f3b589c736f3574d7322ef8e5301f4c9de89c4",
    "verify hamiltonian --spin 1 --length 2..3 --max-length 3 --format csv":
        "011f5bc082b3f1a24a93a225ba12e721f1d55d4d26002cd65003f0ab98d62a3c",
}


def _round(value) -> float:
    return round(float(value), _FLOAT_DECIMALS) + 0.0  # no -0.0


def _canonical_json(text: str) -> str:
    doc = json.loads(text)
    for row in doc["results"]:
        for name in _ROUNDED:
            if name in row:
                row[name] = _round(row[name])
    for check in doc["checks"]:
        check["detail"] = _DETAIL_FLOAT.sub("<float>", check["detail"])
    return json.dumps(doc, indent=2) + "\n"


def _canonical_csv(text: str) -> str:
    header, *rows = csv.reader(io.StringIO(text))
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        record = dict(zip(header, row))
        for name in _ROUNDED:
            if name in record:
                record[name] = repr(_round(record[name]))
        if "detail" in record:
            record["detail"] = _DETAIL_FLOAT.sub("<float>", record["detail"])
        writer.writerow([record[name] for name in header])
    return buffer.getvalue()


def document_digest(argv, output_format: str, canonicalise: bool, capsys) -> str:
    code = main([*argv, "--format", output_format])
    text = capsys.readouterr().out
    assert code == 0
    if canonicalise:
        text = _canonical_json(text) if output_format == "json" else _canonical_csv(text)
    return hashlib.sha256(text.encode()).hexdigest()


CASES = [
    (argv, output_format, canonicalise)
    for argv, canonicalise in GRID
    for output_format in ("json", "csv")
]


@pytest.mark.parametrize(
    "argv, output_format, canonicalise",
    CASES,
    ids=[" ".join((*argv, "--format", fmt)) for argv, fmt, _ in CASES],
)
def test_golden_bytes(argv, output_format, canonicalise, capsys):
    key = " ".join((*argv, "--format", output_format))
    assert document_digest(argv, output_format, canonicalise, capsys) == GOLDEN[key]
