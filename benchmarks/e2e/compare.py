"""Judge result file B against result file A by the bounds in BENCHMARK.json.

::

    python3 benchmarks/e2e/compare.py A.json B.json

Both files come from ``run.py --out`` (ideally with ``--repeat`` of four
or more, so each side has a spread).  One row per (workload, end-to-end
metric): both medians, the ratio B/A with A as its base, the bound, the
wider of the two sides' spreads (distance between the quartiles as a
share of the median) and a verdict:

* ``ok`` — B's median is no worse than A's by more than the bound;
* ``improved`` — B is better by more than the bound;
* ``REGRESSION`` — B is worse by more than the bound;
* ``unresolved`` — the spread is wider than the bound, so the medians
  cannot settle it either way (unless every run of B beats every run of
  A, which reads ``improved``).

``failed_ops_share`` must be 0 on both sides.  Exits 1 on any regression.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def values(doc: Dict, workload: str, metric: str) -> List[float]:
    return [
        run["workloads"][workload]["end_to_end"]["metrics"][metric]["value"]
        for run in doc["runs"]
    ]


def spread(vals: List[float]) -> Optional[float]:
    if len(vals) < 2:
        return None
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return (q3 - q1) / statistics.median(vals)


def verdict(a: List[float], b: List[float], lower_is_better: bool, bound: float):
    ma, mb = statistics.median(a), statistics.median(b)
    worse = (mb - ma) / ma if lower_is_better else (ma - mb) / ma
    spreads = [s for s in (spread(a), spread(b)) if s is not None]
    wide = max(spreads) if spreads else None
    b_always_better = (
        max(b) < min(a) if lower_is_better else min(b) > max(a)
    )
    if wide is not None and wide > bound:
        word = "improved" if b_always_better else "unresolved"
    elif worse > bound:
        word = "REGRESSION"
    elif worse < -bound:
        word = "improved"
    else:
        word = "ok"
    return ma, mb, wide, word


def main(argv: List[str]) -> int:
    if len(argv) != 3:
        print(__doc__)
        return 2
    with open(argv[1]) as f:
        a_doc = json.load(f)
    with open(argv[2]) as f:
        b_doc = json.load(f)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for side, doc in (("A", a_doc), ("B", b_doc)):
        env = doc["env"]
        print(
            f"{side}: commit {env['commit'][:12]} nproc {env['nproc']} python "
            f"{env['python']} seed {env['seed']} runs {len(doc['runs'])} "
            f"window {env['window_s']} s fsync p50 {env['fsync_p50_us']:.0f} us "
            f"spin {env['spin_s'] * 1e6:.1f} us (reference {env['reference_spin_s'] * 1e6:.0f})"
        )
    print(
        f"{'workload':<11} {'metric':<20} {'A':>12} {'B':>12} {'B/A':>7} "
        f"{'bound':>6} {'spread':>7}  verdict"
    )
    regressions = 0
    for w in (w["name"] for w in spec["workloads"]):
        for m in spec["end_to_end"]:
            ma, mb, wide, word = verdict(
                values(a_doc, w, m["name"]),
                values(b_doc, w, m["name"]),
                m["better"] == "lower",
                m["bound"],
            )
            regressions += word == "REGRESSION"
            shown = "n/a" if wide is None else f"{wide:.3f}"
            print(
                f"{w:<11} {m['name']:<20} {ma:>12.4f} {mb:>12.4f} {mb / ma:>7.3f} "
                f"{m['bound']:>6.2f} {shown:>7}  {word}"
            )
        fa, fb = (
            max(run["workloads"][w]["failed_ops_share"] for run in doc["runs"])
            for doc in (a_doc, b_doc)
        )
        word = "ok" if fa == fb == 0 else "REGRESSION"
        regressions += word == "REGRESSION"
        print(
            f"{w:<11} {'failed_ops_share':<20} {fa:>12.4f} {fb:>12.4f} {'':>7} "
            f"{0:>6.2f} {'':>7}  {word}"
        )
    print(f"{regressions} regression(s)")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
