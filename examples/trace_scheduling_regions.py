#!/usr/bin/env python3
"""Sequence lengths for trace scheduling: how long can a scheduler assume it
runs without a mispredicted branch?

Section 6 of the paper: what matters to global instruction schedulers and
wide-issue machines is not the miss rate itself but the length of the
instruction sequences between *breaks in control*. This example runs one
benchmark from the suite under three predictors simultaneously and prints
the cumulative sequence-length distribution, the (misleading) profile-based
IPBC average, and the trace-based dividing length — reproducing the
paper's argument that the IPBC average misstates what a scheduler sees.

Run:  python examples/trace_scheduling_regions.py [benchmark]
"""

import sys

from repro import SuiteRunner
from repro.core.model import model_fraction


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "scc"
    runner = SuiteRunner([name])
    run = runner.run(name, "small")
    print(f"benchmark {name} ({run.instr_count} instructions, "
          f"{run.dynamic_total} dynamic branches)")

    analyzers = runner.sequences(name, "small")

    print(f"\n{'predictor':10s} {'miss':>6s} {'IPBC avg':>9s} "
          f"{'dividing len':>13s}")
    for label in ("Loop+Rand", "Heuristic", "Perfect"):
        a = analyzers[label]
        print(f"{label:10s} {100 * a.miss_rate:5.1f}% "
              f"{a.ipbc_average:9.0f} {a.dividing_length:13d}")

    print("\ncumulative % of instructions in sequences of length < x:")
    xs = (10, 20, 50, 100, 200, 500, 1000)
    header = "x:         " + "".join(f"{x:>8d}" for x in xs)
    print(header)
    for label in ("Loop+Rand", "Heuristic", "Perfect"):
        curve = dict(analyzers[label].cumulative_instructions())
        row = "".join(f"{curve.get(x, 100.0):8.1f}" for x in xs)
        print(f"{label:10s} {row}")

    # compare against the analytic model at the heuristic's miss rate
    m = analyzers["Heuristic"].miss_rate
    print(f"\nanalytic model f(m={m:.3f}, s) = 1-(1-m)^s for comparison:")
    row = "".join(f"{100 * model_fraction(m, x):8.1f}" for x in xs)
    print(f"{'model':10s} {row}")
    print("\n(the model assumes unit blocks; real code has multi-"
          "instruction blocks, so real sequences run longer)")


if __name__ == "__main__":
    main()
