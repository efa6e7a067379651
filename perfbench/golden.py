"""Write golden.json: the expected exit code and output digest of every op.

    python3 perfbench/golden.py

Runs every op of every workload once, in process, from this checkout's
``src/``, and records ``[exit code, sha256 of stdout]`` per op key.  Run it
only on a commit whose outputs are trusted; the benchmark counts any later
difference as a failed op.  The documented-failure probes must keep their
documented exit codes, or nothing is written.
"""

from __future__ import annotations

import json
import sys

import worker
import workloads

# Documented failures and their exit codes: a FAIL verdict, a usage error on
# a non-rectangle, a FAIL on mu-invariance, the enumeration cap.
PROBES = {
    "csp syt --shape 3,3,1 --json": 1,
    "kl mu-invariance --shape 3,1 --json": 1,
    "kl verify-promotion --shape 4,2 --json": 2,
    "csp syt --shape 5^4 --json": 2,
}


def main() -> int:
    package = worker.import_checkout()
    golden = {}
    for name in workloads.WORKLOADS:
        result = worker.run_sweep(package, workloads.ops_for(name, seed=0))
        for key, code, digest, _ in result["ops"]:
            golden[key] = [code, digest]
        print(f"{name}: {len(result['ops'])} ops, {result['sweep_s']:.1f} s", file=sys.stderr)
    codes = {key: golden.get(key, [None])[0] for key in PROBES}
    wrong = {key: code for key, code in codes.items() if code != PROBES[key]}
    if wrong:
        print(f"documented probes changed exit code: {wrong}", file=sys.stderr)
        return 1
    worker.CHECKOUT.joinpath("perfbench", "golden.json").write_text(
        json.dumps(golden, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
