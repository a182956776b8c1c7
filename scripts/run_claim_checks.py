#!/usr/bin/env python3
"""Run the claim-verification suites and print a per-claim summary table.

Writes the full JSON results with --out; exits 1 when a hard claim is
violated, mirroring `zf verify`.
"""

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from zeroforcing.verify import has_hard_violations, run_suites  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--suite", default="all",
                        choices=("named", "products", "exhaustive", "all"))
    parser.add_argument("--nmax", type=int, default=6)
    parser.add_argument("--out", help="write full JSON results here")
    args = parser.parse_args()

    start = time.monotonic()
    results = run_suites(suite=args.suite, nmax=args.nmax)
    elapsed = time.monotonic() - start

    agg = {}
    for r in results:
        row = agg.setdefault(r.claim, {"hard": r.hard, "holds": 0, "violated": 0, "budget": 0})
        key = "holds" if r.verdict == "holds" else ("violated" if r.verdict == "violated" else "budget")
        row[key] += 1

    width = max(len(c) for c in agg)
    print(f"{'claim'.ljust(width)}  kind      holds  violated  budget-exceeded")
    for claim in sorted(agg):
        row = agg[claim]
        kind = "hard" if row["hard"] else "as-stated"
        print(f"{claim.ljust(width)}  {kind.ljust(9)} {row['holds']:5d}  {row['violated']:8d}  {row['budget']:15d}")
    print(f"\n{len(results)} claim instances checked in {elapsed:.1f}s")

    if args.out:
        Path(args.out).write_text(
            json.dumps([r.to_json_dict() for r in results], indent=2) + "\n"
        )
        print(f"full results written to {args.out}")

    return 1 if has_hard_violations(results) else 0


if __name__ == "__main__":
    raise SystemExit(main())
