"""Run one akltblock CLI invocation with spans on; write the span totals.

Usage: python trace_child.py STATS_FD ARG...

The CLI document goes to stdout exactly as from ``python -m akltblock``;
the span totals go as one JSON object to the inherited file descriptor
STATS_FD after the CLI returns: ``{"spans": ..., "coefficient_builds": n}``.

The ``spectrum.i_polynomial`` span counts every lookup, cache hits
included. ``coefficient_builds`` counts the coefficient builds: the misses
of its cache, or every call if it is not an ``lru_cache``.
"""

import json
import os
import sys

from tracer import Tracer, instrument


def main() -> int:
    stats_fd, argv = int(sys.argv[1]), sys.argv[2:]
    from akltblock import spectrum

    coefficients = spectrum.i_polynomial
    tracer = Tracer()
    instrument(tracer)
    from akltblock import cli

    try:
        code = cli.main(argv)
    finally:
        sys.stdout.flush()
        spans = tracer.snapshot()
        if hasattr(coefficients, "cache_info"):
            builds = coefficients.cache_info().misses
        else:
            builds = spans.get("spectrum.i_polynomial", {}).get("calls", 0)
        with os.fdopen(stats_fd, "w") as handle:
            json.dump({"spans": spans, "coefficient_builds": builds}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
