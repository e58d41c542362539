"""Large-u oracle probe: ``oracle_compare`` on seeded cases at chosen distances.

Run as ``python perfbench/oracle_probe.py --seed N --cases K --u 1e3,3e3``
with mirrorfield importable.  It prints one JSON list of reports, one per
(case, u), as its last line.  The command line's ``oracle-check`` only
visits u <= 100; this probe covers the memory-bound large-u band through
the public API.
"""

from __future__ import annotations

import argparse
import json
import sys

import mirrorfield


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--cases", type=int, required=True)
    parser.add_argument("--u", required=True, help="comma-separated distances")
    args = parser.parse_args(argv)
    reports = []
    for case in mirrorfield.seeded_oracle_cases(args.seed, args.cases):
        for u in (float(text) for text in args.u.split(",")):
            report = mirrorfield.oracle_compare(case.interface, case.side, case.dipole, u)
            reports.append({
                "case": case.index,
                "u": u,
                "closed_form": report.closed_form,
                "oracle_2d": report.oracle_2d,
                "oracle_1d": report.oracle_1d,
                "max_rel_error": report.max_rel_error,
            })
    print(json.dumps(reports))
    return 0


if __name__ == "__main__":
    sys.exit(main())
