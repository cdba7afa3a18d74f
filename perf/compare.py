"""Compare two benchmark results files: ``python3 perf/compare.py A.json
B.json`` (A the parent, B the change; both written by ``perf/run.py -o``).

For every end-to-end metric x workload it prints

    ok          B's median is not worse than A's by more than the bound
    regressed   it is worse by more than the bound
    unresolved  A's or B's quartile spread exceeds the bound, so the
                medians cannot tell; B counts as ok anyway when every
                B sample is better than every A sample

with the bounds of ``BENCHMARK.json``.  Where both files hold traced
per-layer numbers it also checks that the exact work counts are
identical.  Exits 1 on a regression or a count mismatch.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from layers import EXACT_COUNTS

ROOT = Path(__file__).resolve().parents[1]


def spread(values: list[float]) -> float:
    """Quartile distance as a share of the median (0 for one sample)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(a: list[float], b: list[float], bound: float,
            lower_is_better: bool) -> str:
    """ok, regressed or unresolved for B's samples against A's."""
    worse = statistics.median(b) / statistics.median(a) - 1
    if not lower_is_better:
        worse = -worse
    if max(spread(a), spread(b)) > bound:
        better = (max(b) < min(a)) if lower_is_better else (min(b) > max(a))
        return "ok" if better else "unresolved"
    return "regressed" if worse > bound else "ok"


def compare(a: dict, b: dict, spec: dict) -> tuple[list[str], bool]:
    """Report lines, and whether B regressed or a count differs."""
    lines: list[str] = []
    failed = False
    if a["config"]["seed"] != b["config"]["seed"]:
        lines.append(f"note: seeds differ ({a['config']['seed']} vs "
                     f"{b['config']['seed']}); corpus-64 inputs differ")
    for workload in a["workloads"]:
        ra, rb = a["workloads"][workload], b["workloads"].get(workload)
        if rb is None:
            lines.append(f"{workload:13s} missing from B")
            failed = True
            continue
        for m in spec["end_to_end"]:
            sa = ra["samples"].get(m["name"])
            sb = rb["samples"].get(m["name"])
            if not sa or not sb:
                lines.append(f"{workload:13s} {m['name']:12s} no samples")
                failed = True
                continue
            status = verdict(sa, sb, m["bound"], m["better"] == "lower")
            failed |= status == "regressed"
            med_a, med_b = statistics.median(sa), statistics.median(sb)
            lines.append(
                f"{workload:13s} {m['name']:12s} {status:10s} "
                f"{med_a:.4f} -> {med_b:.4f} {m['unit']} "
                f"({100 * (med_b / med_a - 1):+.1f}%, {m['better']} is "
                f"better, bound {100 * m['bound']:.0f}%, spread "
                f"{100 * spread(sa):.1f}%/{100 * spread(sb):.1f}%)")
        la, lb = ra.get("layers"), rb.get("layers")
        if la and lb:
            differ = [name for name in EXACT_COUNTS
                      if la[name]["value"] != lb[name]["value"]]
            failed |= bool(differ)
            lines.append(f"{workload:13s} exact counts "
                         + ("identical" if not differ
                            else "DIFFER: " + ", ".join(
                                f"{n} {la[n]['value']} -> {lb[n]['value']}"
                                for n in differ)))
    return lines, failed


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in argv[1:])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    lines, failed = compare(a, b, spec)
    print("\n".join(lines))
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
