"""Command-line front end: spectra, entropies, grid sweeps, verification.

Every run is deterministic (no clocks, no RNG): identical configurations
produce byte-identical documents. Exact rationals are serialized as "p/q"
strings next to float renderings so JSON numbers never lose precision.

The parsed ``argparse`` namespace is the only description of a run: each
``run_*`` function takes it and returns the document and its exit code.

Exit codes: 0 success, 1 verification failure (requested methods or suites
disagree), 2 usage error, 3 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import __version__
from .angular import DEFAULT_MAX_DIM, ResourceCapError
from .entropy import _entropy, _length_weights
from .exact_suites import SUITES, _Check, _exact_text, run_suite
from .spectrum import EXACT_METHODS, block_spectrum, saturation_value

__all__ = ["run_spectrum", "run_entropy", "run_verify", "main"]

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

ORACLE_METHODS = ("fock_oracle", "pauli_oracle")
ALL_METHODS = EXACT_METHODS + ORACLE_METHODS


class UsageError(ValueError):
    """Invalid argument combination detected after parsing."""


def _oracle_values(args: argparse.Namespace, method: str, L: int) -> list[float]:
    # The oracles and ``verify`` load numpy, so they are imported only where
    # an oracle method or an oracle suite runs; exact runs never load them.
    if method == "fock_oracle":
        from .oracle.fock import fock_block_spectrum

        return fock_block_spectrum(args.spin, L, max_dim=args.max_dim)
    if args.spin != 1:
        raise UsageError("pauli_oracle supports bulk spin 1 only")
    from .oracle.pauli import pauli_block_spectrum

    return pauli_block_spectrum(L, max_dim=args.max_dim)


_ROW_FIELDS = ("S", "L", "J", "lambda_exact", "lambda_float", "multiplicity", "method")


def run_spectrum(args: argparse.Namespace) -> tuple[dict, int]:
    """Per-(L, J) eigenvalues for every requested method, with agreement checks."""
    rows = []
    checks = []
    for L in args.length:
        exact = {}
        for method in args.method:
            if method in EXACT_METHODS:
                exact[method] = block_spectrum(args.spin, L, method=method).entries
                for J, value, mult in exact[method]:
                    rows.append((args.spin, L, J, _exact_text(value), float(value), mult, method))
        if len(exact) == 2:
            agreement = _Check("spectrum", f"formula_agreement_L{L}")
            agreement.cell(exact["recurrence"] != exact["closed_form"])
            checks.append(
                agreement.record(
                    "recurrence and closed form are exactly equal"
                    if agreement.passed
                    else "recurrence and closed form differ"
                )
            )
        for method in args.method:
            if method in ORACLE_METHODS:
                from .verify import label_sectors

                labelled, ok, detail = label_sectors(_oracle_values(args, method, L), args.spin, L)
                for J, value, mult in labelled:
                    label = method if J is not None else method + "_null_modes"
                    rows.append((args.spin, L, J, None, value, mult, label))
                agreement = _Check("spectrum", f"{method}_agreement_L{L}")
                agreement.cell(not ok)
                checks.append(agreement.record(detail + " (reference: recurrence)"))
    # sorted by (S, L, J, method); S is fixed and null-mode rows come last
    rows.sort(key=lambda row: (row[1], 1 << 30 if row[2] is None else row[2], row[6]))
    return _document(args, [dict(zip(_ROW_FIELDS, row)) for row in rows], checks)


def run_entropy(args: argparse.Namespace) -> tuple[dict, int]:
    """Von Neumann plus Renyi entropies per block length, in nats."""
    results, shared = [], None
    saturation = saturation_value(args.spin)
    for L, weights in zip(args.length, _length_weights(args.spin, args.length)):
        if weights is not shared:  # the flat tail yields one tuple for every length
            shared, values = weights, [_entropy(weights, alpha) for alpha in args.alpha]
        for alpha, value in zip(args.alpha, values):
            results.append(
                {
                    "S": args.spin,
                    "L": L,
                    "alpha": alpha,
                    "value": value,
                    "saturation_gap": saturation - value,
                }
            )
    return _document(args, results, [])


def run_verify(args: argparse.Namespace) -> tuple[dict, int]:
    """Run a named suite; exit 1 carries the first counterexample in checks."""
    kwargs = {"spin": args.spin, "max_spin": args.max_spin, "max_dim": args.max_dim}
    if args.max_length is not None:
        kwargs["max_length"] = args.max_length
    if args.length is not None:
        kwargs["lengths"] = list(args.length)
        kwargs.setdefault("max_length", max(args.length))
    if kwargs.get("max_length", 2) < 2:
        raise UsageError(f"verify needs a max length of at least 2, got {kwargs['max_length']}")
    return _document(args, [], run_suite(args.suite, **kwargs))


def _config_document(args: argparse.Namespace) -> dict:
    doc = {
        "command": args.command,
        "spin": args.spin,
        "format": args.output_format,
        "max_dim": args.max_dim,
    }
    if args.command == "verify":
        doc["suite"] = args.suite
        doc["max_spin"] = args.max_spin
        if args.max_length is not None:
            doc["max_length"] = args.max_length
        if args.length is not None:
            doc["lengths"] = list(args.length)
    elif args.command == "entropy":
        doc["lengths"] = list(args.length)
        doc["alphas"] = list(args.alpha)
    else:
        doc["lengths"] = list(args.length)
        doc["methods"] = list(args.method)
    return doc


def _document(args: argparse.Namespace, results: list, checks: list) -> tuple[dict, int]:
    """The run's document and its exit code: 1 when any check record failed."""
    doc = {
        "config": _config_document(args),
        "results": results,
        "checks": checks,
        "version": __version__,
    }
    return doc, EXIT_OK if all(check["passed"] for check in checks) else EXIT_VERIFY


_SCALARS = {str, int, float, bool, type(None)}


def _render_json(doc: dict) -> str:
    """``json.dumps(doc, indent=2) + "\n"``, with lists of flat rows encoded in C.

    With ``indent`` set, CPython 3.10-3.13 use the pure-Python encoder. A
    list of non-empty dicts of scalars is encoded compactly instead, with NUL
    as the item separator (ASCII output escapes NUL inside strings, and no
    scalar ends in "}", so "}\0{" joins two rows), and then indented.
    """
    import json

    if {type(key) for key in doc} != {str}:  # empty, or keys that json converts
        return json.dumps(doc, indent=2) + "\n"
    encode = json.JSONEncoder(separators=("\0", ": ")).encode
    items = []
    for key, value in doc.items():
        if (
            type(value) is list
            and value
            and all(type(row) is dict and row for row in value)
            and {type(v) for row in value for v in row.values()} <= _SCALARS
        ):
            rows = encode(value)[2:-2].replace("}\0{", "\n    },\n    {\n      ")
            text = "[\n    {\n      " + rows.replace("\0", ",\n      ") + "\n    }\n  ]"
        else:
            text = json.dumps(value, indent=2).replace("\n", "\n  ")
        items.append(f"  {encode(key)}: {text}")
    return "{\n" + ",\n".join(items) + "\n}\n"


_SPECTRUM_COLUMNS = ("S", "L", "J", "multiplicity", "method", "lambda_exact", "lambda_float")
# Command -> (document list, CSV columns); other row keys are not written.
_CSV_COLUMNS = {
    "entropy": ("results", ("S", "L", "alpha", "value")),
    "verify": ("checks", ("suite", "name", "passed", "detail")),
    "spectrum": ("results", _SPECTRUM_COLUMNS),
    "sweep": ("results", _SPECTRUM_COLUMNS),
}


def _csv_cell(value):
    """None is empty, a float has 17 significant digits, a dict is compact sorted JSON."""
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, dict):
        import json

        return json.dumps(value, sort_keys=True, separators=(",", ":"))
    return value


def _render_csv(doc: dict, command: str) -> str:
    """One CSV row per record; a ``counterexample`` column trails when any row has one."""
    import csv
    import io

    key, columns = _CSV_COLUMNS[command]
    rows = doc[key]
    if any("counterexample" in row for row in rows):
        columns += ("counterexample",)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([_csv_cell(row.get(column)) for column in columns] for row in rows)
    return buffer.getvalue()


def _positive_integer(message: str):
    """An argparse type accepting integers >= 1 and rejecting the rest with ``message``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(message) from None
        if value < 1:
            raise argparse.ArgumentTypeError(message)
        return value

    return parse


_positive_spin = _positive_integer("bulk spin must be a positive integer")
_positive_dim = _positive_integer("dimension cap must be a positive integer")


def _length_range(text: str) -> tuple[int, ...]:
    message = "length must be a positive integer or an inclusive range a..b"
    try:
        if ".." in text:
            low_text, _, high_text = text.partition("..")
            low, high = int(low_text), int(high_text)
        else:
            low = high = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(message) from None
    if low < 1 or high < low:
        raise argparse.ArgumentTypeError(message)
    return tuple(range(low, high + 1))


def _method_list(text: str) -> tuple[str, ...]:
    methods = []
    for part in text.split(","):
        name = part.strip()
        if not name:
            continue
        if name not in ALL_METHODS:
            raise argparse.ArgumentTypeError(
                f"unknown method {name!r}; choose from {', '.join(ALL_METHODS)}"
            )
        if name not in methods:
            methods.append(name)
    if not methods:
        raise argparse.ArgumentTypeError("at least one method is required")
    return tuple(methods)


def _alpha_list(text: str) -> tuple[float, ...]:
    try:
        alphas = [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError("alpha values must be numbers") from None
    if not alphas or any(a <= 0 for a in alphas):
        raise argparse.ArgumentTypeError("alpha values must be positive")
    if not all(math.isfinite(a) for a in alphas):
        raise argparse.ArgumentTypeError("alpha values must be finite")
    return tuple(sorted(set(alphas) | {1.0}))


def _add_common(parser: argparse.ArgumentParser, *, lengths_default: str | None) -> None:
    parser.add_argument("--spin", type=_positive_spin, default=1, help="bulk spin S (positive integer)")
    parser.add_argument(
        "--length",
        type=_length_range,
        default=lengths_default,  # argparse applies the type to a string default
        help="block length, a single integer or an inclusive range a..b",
    )
    parser.add_argument("--format", choices=("json", "csv"), default="json", dest="output_format")
    parser.add_argument(
        "--max-dim",
        type=_positive_dim,
        default=DEFAULT_MAX_DIM,
        help="dimension cap (positive integer) on dense matrices and on oracle blocks",
    )
    parser.add_argument("--out", default=None, help="write the document to this path instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="akltblock",
        description="Exact block entanglement spectra of spin-S valence-bond-solid chains.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    for name, help_text, lengths_default, method_default in (
        ("spectrum", "block density-matrix eigenvalues", "2", ("recurrence",)),
        ("sweep", "spectra over a length range", "2..8", ("recurrence", "closed_form")),
    ):
        command = commands.add_parser(name, help=help_text)
        _add_common(command, lengths_default=lengths_default)
        command.add_argument(
            "--method",
            type=_method_list,
            default=method_default,
            help="comma list from: " + ", ".join(ALL_METHODS),
        )

    entropy = commands.add_parser("entropy", help="von Neumann and Renyi block entropies")
    _add_common(entropy, lengths_default="2")
    entropy.add_argument(
        "--alpha",
        type=_alpha_list,
        default=(0.5, 1.0, 2.0),
        help="comma list of positive finite Renyi orders (1 = von Neumann, always included)",
    )

    verify = commands.add_parser("verify", help="run a verification suite")
    verify.add_argument("suite", choices=sorted(SUITES) + ["all"])
    _add_common(verify, lengths_default=None)
    verify.add_argument("--max-spin", type=_positive_spin, default=5)
    verify.add_argument("--max-length", type=int, default=None)
    return parser


_DISPATCH = {
    "spectrum": run_spectrum,
    "sweep": run_spectrum,
    "entropy": run_entropy,
    "verify": run_verify,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        doc, code = _DISPATCH[args.command](args)
    except (ResourceCapError, ValueError) as exc:  # ValueError: UsageError, InvalidSpectrumError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE if isinstance(exc, ResourceCapError) else EXIT_USAGE
    text = (
        _render_json(doc)
        if args.output_format == "json"
        else _render_csv(doc, args.command)
    )
    if args.out:
        try:
            with open(args.out, "w", newline="") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc.strerror}", file=sys.stderr)
            return EXIT_USAGE
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
