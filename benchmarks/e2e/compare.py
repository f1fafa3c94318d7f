"""Compare two sets of benchmark results, end-to-end metric by metric.

    python -m benchmarks.e2e.compare A1.json [A2.json ...] -- B1.json [B2.json ...]
    python -m benchmarks.e2e.compare A.json B.json

Each file is a ``--out`` results file of ``python -m benchmarks.e2e`` or
of a single-workload run; a side pools every file given for it, one
value per file for each (workload, metric) pair.  For each pair the
tool prints both sides' medians and quartiles, the spread (quartile
distance over median) and a verdict against the metric's bound in
``BENCHMARK.json``:

- ``unresolved`` when either side's spread is wider than the bound,
  unless every B value is better (``better``) or worse (``worse``) than
  every A value;
- otherwise ``worse`` / ``better`` when B's median moved past the bound
  in that direction, else ``unchanged``.

It exits 1 when any pair is worse or unresolved, or when B has failed
ops.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[2]


def load_side(paths: Sequence[str]) -> Tuple[Dict[Tuple[str, str], List[float]], int]:
    """``{(workload, metric): [value per file]}`` and the failed-op count."""
    values: Dict[Tuple[str, str], List[float]] = defaultdict(list)
    failed = 0
    for path in paths:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        failed += int(doc.get("failed", 0))
        for workload, entry in doc["workloads"].items():
            for metric, m in entry.get("end_to_end", {}).get("metrics", {}).items():
                values[(workload, metric)].append(float(m["value"]))
    return values, failed


def summary(values: Sequence[float]) -> Tuple[float, float, float, float]:
    """``(median, q1, q3, spread)``; spread is ``(q3 - q1) / median``."""
    med = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def verdict(a: Sequence[float], b: Sequence[float], bound: float, better: str) -> str:
    sign = 1.0 if better == "lower" else -1.0
    med_a, _, _, spread_a = summary(a)
    med_b, _, _, spread_b = summary(b)
    if max(spread_a, spread_b) > bound:
        if all(sign * (y - x) < 0 for x in a for y in b):
            return "better"
        if all(sign * (y - x) > 0 for x in a for y in b):
            return "worse"
        return "unresolved"
    change = sign * (med_b - med_a) / med_a if med_a else 0.0
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "unchanged"


def main(argv: Sequence[str]) -> int:
    args = list(argv)
    if "--" in args:
        cut = args.index("--")
        side_a, side_b = args[:cut], args[cut + 1:]
    elif len(args) == 2:
        side_a, side_b = args[:1], args[1:]
    else:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    if not side_a or not side_b:
        print("error: each side needs at least one results file", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    a, failed_a = load_side(side_a)
    b, failed_b = load_side(side_b)
    bad = 0
    header = (f"{'workload':<11s} {'metric':<15s} {'A median':>11s} {'A q1..q3':>23s} "
              f"{'A spr':>6s} {'B median':>11s} {'B q1..q3':>23s} {'B spr':>6s} "
              f"{'change':>7s} {'bound':>5s}  verdict")
    print(header)
    for workload in sorted({w for w, _ in a} & {w for w, _ in b}):
        for m in spec["end_to_end"]:
            key = (workload, m["name"])
            if key not in a or key not in b:
                continue
            med_a, q1a, q3a, spr_a = summary(a[key])
            med_b, q1b, q3b, spr_b = summary(b[key])
            result = verdict(a[key], b[key], m["bound"], m["better"])
            bad += result in ("worse", "unresolved")
            change = (med_b - med_a) / med_a if med_a else 0.0
            print(f"{workload:<11s} {m['name']:<15s} {med_a:>11.5g} "
                  f"{q1a:>11.5g}..{q3a:<11.5g} {spr_a:>6.3f} {med_b:>11.5g} "
                  f"{q1b:>11.5g}..{q3b:<11.5g} {spr_b:>6.3f} {change:>+7.3f} "
                  f"{m['bound']:>5.2f}  {result}")
    print(f"failed ops: A {failed_a}, B {failed_b}")
    return 1 if bad or failed_b else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
