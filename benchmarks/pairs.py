"""Alternating pairs of end-to-end runs on two checkouts: the loop behind
EXPERIMENTS.md's gain and no-regression tables (E24 onwards).

::

    python3 benchmarks/pairs.py PARENT CHANGE [--pairs 10] [--seed 1]
        [--workloads point_read,analytic] [--seconds 10] [--out pairs.json]

Each side is a checkout with its own ``benchmarks/e2e/run.py``; every
run is ``run.py --workload W --seed S --seconds T --trace 0`` started in
that checkout, so each side is measured by the harness it carries.  A
pair is one run a side; the side that goes first alternates pair by
pair, so drift in the host lands on both alike.  Per workload and
end-to-end metric it prints each side's median [q1, q3], the ratio of
the medians with PARENT as its base, the pairs CHANGE won (a tie counts
for neither), PARENT's q3 - q1 as a share of its median, and a verdict
by the rule of the ``choosing-metrics`` guide, section 8:

* ``gain`` — CHANGE won at least nine tenths of the pairs and the
  medians differ by more than PARENT's own q3 - q1;
* ``worse`` — the same, the other way round;
* ``REGRESSION`` — CHANGE's median is worse by more than the metric's
  bound in ``BENCHMARK.json`` (read from PARENT);
* ``unresolved`` — neither, and PARENT's spread is wider than the bound;
* ``unchanged`` — none of the above.

Under ten pairs a would-be ``gain`` or ``worse`` reads ``too few pairs``.

A run that fails a check (non-zero exit of ``run.py``) is reported and
makes this exit 1, as does any REGRESSION.  ``--smoke`` passes
``--smoke`` through (2 s windows, tiny data sets), defaults to one pair
and exits 1 for a failed run only: it checks the runner, not the engine.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Any, Dict, List, Optional, Tuple

#: pairs a gain needs behind it (``choosing-metrics`` section 8)
MIN_PAIRS = 10

# workload -> metric -> one value a pair, per side
Samples = Dict[str, Dict[str, List[float]]]


def run_once(
    checkout: str, workload: str, seed: int, seconds: Optional[float], smoke: bool
) -> Tuple[bool, Dict[str, float]]:
    """One ``run.py`` pass; its last stdout line is the result."""
    cmd = [
        sys.executable, os.path.join("benchmarks", "e2e", "run.py"),
        "--workload", workload, "--seed", str(seed), "--trace", "0",
    ]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    if smoke:
        cmd.append("--smoke")
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{checkout}: run.py printed nothing\n{done.stderr}")
    result = json.loads(lines[-1])
    ok = done.returncode == 0 and result["correct"] and result["failed"] == 0
    return ok, {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def judge(
    parent: List[float], change: List[float], lower_is_better: bool, bound: float
) -> Dict[str, Any]:
    """One row of the table, from the paired samples of one metric."""
    sign = -1.0 if lower_is_better else 1.0
    won = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    lost = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    pq1, pm, pq3 = quartiles(parent)
    cq1, cm, cq3 = quartiles(change)
    spread = pq3 - pq1
    better_by = sign * (cm - pm)  # > 0: the change's median is better
    pairs = len(parent)
    clear = abs(better_by) > spread
    if better_by < 0 and -better_by / pm > bound:
        verdict = "REGRESSION"
    elif won >= 0.9 * pairs and better_by > 0 and clear:
        verdict = "gain"
    elif lost >= 0.9 * pairs and better_by < 0 and clear:
        verdict = "worse"
    elif spread / pm > bound:
        verdict = "unresolved"
    else:
        verdict = "unchanged"
    if verdict in ("gain", "worse") and pairs < MIN_PAIRS:
        verdict = "too few pairs"
    return {
        "parent": [pm, pq1, pq3], "change": [cm, cq1, cq3], "ratio": cm / pm,
        "won": won, "lost": lost, "pairs": pairs,
        "parent_spread": spread / pm, "bound": bound, "verdict": verdict,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="checkout of the parent commit")
    ap.add_argument("change", help="checkout of the change")
    ap.add_argument("--pairs", type=int)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workloads", help="comma-separated; default: all of BENCHMARK.json")
    ap.add_argument("--seconds", type=float, help="default: run.py's own")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--out", help="write every run and every row here as JSON")
    args = ap.parse_args()
    sides = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    with open(os.path.join(sides["parent"], "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = (
        args.workloads.split(",") if args.workloads
        else [w["name"] for w in spec["workloads"]]
    )
    pairs = args.pairs or (1 if args.smoke else MIN_PAIRS)

    samples: Dict[str, Samples] = {side: {} for side in sides}
    failed_runs = 0
    for workload in workloads:
        for i in range(pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                ok, metrics = run_once(
                    sides[side], workload, args.seed, args.seconds, args.smoke
                )
                failed_runs += not ok
                for name, value in metrics.items():
                    samples[side].setdefault(workload, {}).setdefault(name, []).append(value)
                print(
                    f"# {workload} pair {i + 1}/{pairs} {side:<6} "
                    + ("" if ok else "FAILED ")
                    + " ".join(f"{k}={v:.4g}" for k, v in metrics.items()),
                    flush=True,
                )

    print(
        f"\n{'workload':<11} {'metric':<17} {'parent median [q1, q3]':>30} "
        f"{'change median [q1, q3]':>30} {'ratio':>6} {'won':>6} {'spread':>7}  verdict"
    )
    rows = []
    regressions = 0
    for workload in workloads:
        for m in spec["end_to_end"]:
            row = judge(
                samples["parent"][workload][m["name"]],
                samples["change"][workload][m["name"]],
                m["better"] == "lower",
                m["bound"],
            )
            rows.append({"workload": workload, "metric": m["name"], **row})
            regressions += row["verdict"] == "REGRESSION"
            shown = [
                "{:.4g} [{:.4g}, {:.4g}]".format(*row[side]) for side in ("parent", "change")
            ]
            print(
                f"{workload:<11} {m['name']:<17} {shown[0]:>30} {shown[1]:>30} "
                f"{row['ratio']:>6.3f} {row['won']:>3}/{row['pairs']:<2} "
                f"{row['parent_spread']:>7.3f}  {row['verdict']}"
            )
    print(f"{failed_runs} failed run(s), {regressions} regression(s)")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(
                {"sides": sides, "seed": args.seed, "pairs": pairs, "samples": samples, "rows": rows},
                f, indent=1,
            )
    return 1 if failed_runs or (regressions and not args.smoke) else 0


if __name__ == "__main__":
    sys.exit(main())
