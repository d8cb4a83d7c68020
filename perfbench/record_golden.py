"""Record the document sha256 (see checks.document_digest) of every default-seed invocation.

Usage (from the repository root): python3 perfbench/record_golden.py

Run this only on code whose results are known to be right; it rewrites
golden.json, which run.py then checks on every invocation it names.
"""

import json
import sys
import time

import checks
import workloads
from run import RUN_LIMIT_S, Runner, child_env


def main() -> int:
    golden = {}
    for name in sorted(workloads.WORKLOADS):
        runner = Runner(child_env(), deadline=time.perf_counter() + RUN_LIMIT_S)
        for inv in workloads.plan(name, workloads.DEFAULT_SEED):
            child = runner.run(list(inv.args))
            outcome = checks.check_output(inv, child.code, child.stdout, {})
            if not outcome.ok:
                print(f"{inv.key}: {outcome.problems}", file=sys.stderr)
                return 1
            golden[inv.key] = outcome.digest
    with open(checks.GOLDEN_PATH, "w") as handle:
        json.dump(golden, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
