"""Compare two sets of benchmark runs (JSONL files of run records).

  python3 perfbench/run.py --compare parent.jsonl change.jsonl

For each workload and end-to-end metric it prints both sides' median and
quartiles, the share of pairs the change won, and a verdict:

  improved    the change wins at least 9/10 of the pairs (ties count for
              neither) and the medians differ by more than the parent's own
              spread (the distance between its quartiles);
  no worse    the change's median is not worse than the parent's by more
              than the metric's bound;
  worse       it is worse by more than the bound, and the parent's spread
              is within the bound;
  unresolved  the parent's spread is wider than the bound, so the runs can
              show neither, unless every change run beats every parent run.

Runs pair up by seed (in file order within a seed). Traced runs are
ignored. A pair whose output digests differ is flagged: the same seed must
give bit-identical outputs unless the change means to alter them.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path

WIN_SHARE = 0.9
# Metrics the run records carry beyond BENCHMARK.json's end_to_end list.
EXTRA_METRICS = {
    "unit_ms_tail": {"unit": "ms", "better": "lower", "bound": 0.25},
    "failed_frac": {"unit": "ratio", "better": "lower", "bound": 0.0},
}


def _load(path: str) -> dict[str, list[dict]]:
    by_workload: dict[str, list[dict]] = defaultdict(list)
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.strip():
            record = json.loads(line)
            if not record["trace"]:
                by_workload[record["workload"]].append(record)
    return by_workload


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def _pairs(base: list[dict], change: list[dict]) -> list[tuple[dict, dict]]:
    by_seed: dict[int, list[dict]] = defaultdict(list)
    for record in change:
        by_seed[record["seed"]].append(record)
    pairs = []
    for record in base:
        if by_seed[record["seed"]]:
            pairs.append((record, by_seed[record["seed"]].pop(0)))
    return pairs


def verdict(base: list[float], change: list[float], pair_wins: int, n_pairs: int,
            lower_is_better: bool, bound: float) -> str:
    """The choosing-metrics section 8 rule for one workload x metric."""
    sign = 1.0 if lower_is_better else -1.0
    q1, med_base, q3 = _quartiles(base)
    med_change = statistics.median(change)
    spread = q3 - q1
    if n_pairs and pair_wins >= WIN_SHARE * n_pairs and \
            sign * (med_base - med_change) > spread:
        return "improved"
    worse_by = sign * (med_change - med_base)
    limit = bound * abs(med_base)
    spread_too_wide = spread > limit
    all_better = (max(change) < min(base)) if lower_is_better else (min(change) > max(base))
    if spread_too_wide and not all_better:
        return "unresolved"
    return "no worse" if worse_by <= limit else "worse"


def compare(base_path: str, change_path: str, benchmark_json: Path) -> int:
    spec = json.loads(Path(benchmark_json).read_text(encoding="utf-8"))
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    for name, m in EXTRA_METRICS.items():
        metrics.setdefault(name, {"name": name, **m})
    base, change = _load(base_path), _load(change_path)

    header = (f"{'workload':20s} {'metric':16s} {'unit':11s} {'base q1/med/q3':>28s} "
              f"{'change q1/med/q3':>28s} {'won':>7s}  verdict")
    print(header)
    print("-" * len(header))
    for workload in sorted(set(base) | set(change)):
        if not base.get(workload) or not change.get(workload):
            print(f"{workload:20s} present on one side only")
            continue
        pairs = _pairs(base[workload], change[workload])
        for name, m in metrics.items():
            b = [r["metrics"][name] for r in base[workload] if r["metrics"].get(name) is not None]
            c = [r["metrics"][name] for r in change[workload] if r["metrics"].get(name) is not None]
            if not b or not c:
                print(f"{workload:20s} {name:16s} {m['unit']:11s} not measured on both sides")
                continue
            lower = m["better"] == "lower"
            paired = [(p["metrics"].get(name), q["metrics"].get(name)) for p, q in pairs]
            paired = [(x, y) for x, y in paired if x is not None and y is not None]
            wins = sum(1 for x, y in paired if (y < x if lower else y > x))
            share = f"{wins}/{len(paired)}"
            qb, qc = _quartiles(b), _quartiles(c)
            print(f"{workload:20s} {name:16s} {m['unit']:11s} "
                  f"{qb[0]:9.4g}/{qb[1]:9.4g}/{qb[2]:9.4g} {qc[0]:9.4g}/{qc[1]:9.4g}/{qc[2]:9.4g} "
                  f"{share:>7s}  {verdict(b, c, wins, len(paired), lower, m['bound'])}")
        for p, q in pairs:
            if p["digest"] != q["digest"]:
                print(f"{workload:20s} DIGEST MISMATCH at seed {p['seed']}: "
                      f"{p['digest'][:16]} vs {q['digest'][:16]}")
    return 0
