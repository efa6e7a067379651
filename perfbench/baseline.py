"""Time single ops cold, each in a fresh worker process, for comparison with
the single-run baseline table in ROADMAP.md.

    python3 perfbench/baseline.py [repeats]

Prints the median and quartiles of each op's seconds over ``repeats``
fresh processes (default 5).
"""

from __future__ import annotations

import statistics
import sys

import run

OPS = [
    ("csp", "syt", "--shape", "4^4", "--json"),
    ("csp", "syt", "--shape", "6,6,6", "--json"),
    ("kl", "table", "--rank", "6", "--json"),
]


def main() -> int:
    repeats = int(sys.argv[1]) if len(sys.argv) > 1 else 5
    for op in OPS:
        seconds = []
        for _ in range(repeats):
            result = run.spawn([op])
            (_, code, _, elapsed), = result["ops"]
            if code != 0:
                print(f"{' '.join(op)}: exit {code}", file=sys.stderr)
                return 1
            seconds.append(elapsed)
        q1, median, q3 = statistics.quantiles(seconds, n=4)
        print(f"{' '.join(op):<36} median {median:.2f} s  quartiles {q1:.2f}-{q3:.2f} s"
              f"  peak RSS {result['peak_rss_kb'] / 1024:.0f} MB  ({repeats} runs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
