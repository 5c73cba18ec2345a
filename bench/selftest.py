#!/usr/bin/env python3
"""Self-tests of the benchmark's tracing and workload choice.

    python3 bench/selftest.py [--seed N]

Run from the root of a source checkout.  For each workload it makes one
untraced and two traced runs at one seed and checks that

* the traced outputs are byte-identical to the untraced ones (and pass
  the workload's output checks);
* every per-layer counter repeats exactly between the two traced runs;
* no wrapped binding is left behind once tracing ends;

and, across the three workloads, that each is dominated by the layers it
was chosen for: of the three workloads' layer groups, its own group has
the largest self time, and that group's share of the traced self time is
larger on this workload than on the other two.

Prints one PASS/FAIL line per check and the share table; exits 1 if any
check fails.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict

from run_bench import Session, load_program


def group_self_s(self_s: Dict[str, float], prefix: str) -> float:
    return sum(
        t for name, t in self_s.items()
        if name == prefix or name.startswith(prefix + ".")
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    error = load_program()
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    from spans import leftover_patches, tracing
    from workloads import WORKLOADS

    failures = 0

    def check(ok: bool, text: str) -> None:
        nonlocal failures
        failures += not ok
        print(f"{'PASS' if ok else 'FAIL'}  {text}")

    shares: Dict[str, Dict[str, float]] = {}
    for name, workload in WORKLOADS.items():
        session = Session(workload, args.seed)
        session.run("untraced")
        tracers = []
        left = []
        for label in ("traced1", "traced2"):
            with tracing() as tracer:
                session.run(label)
            tracers.append(tracer)
            left += leftover_patches()
        check(session.failed == 0,
              f"{name}: traced outputs byte-identical to untraced and checked"
              + "".join(f"\n      {p}" for p in session.problems))
        check(tracers[0].counters() == tracers[1].counters(),
              f"{name}: counters repeat exactly")
        check(not left, f"{name}: no patched binding remains" + "".join(f" {x}" for x in left))
        self_s = tracers[0].self_s
        total = sum(self_s.values())
        shares[name] = {
            w: sum(group_self_s(self_s, p) for p in other.layers) / total
            for w, other in WORKLOADS.items()
        }

    print("self-time share of each workload's layer group (rows: traced workload)")
    print(" " * 24 + "".join(f"{w:>24}" for w in WORKLOADS))
    for name in WORKLOADS:
        print(f"{name:<24}" + "".join(f"{shares[name][w]:>24.3f}" for w in WORKLOADS))
    for name, workload in WORKLOADS.items():
        own = shares[name][name]
        check(all(own > shares[name][w] for w in WORKLOADS if w != name),
              f"{name}: {' + '.join(workload.layers)} is the largest of the groups")
        check(all(own > shares[w][name] for w in WORKLOADS if w != name),
              f"{name}: {' + '.join(workload.layers)} has its largest share here")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
