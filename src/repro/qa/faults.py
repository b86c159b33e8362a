"""The crash workload, its committed-prefix oracle and the sweep driver.

The failpoint hooks they arm live beside the WAL, in
:mod:`repro.wal.failpoints`, so a server never imports this module.
See :mod:`tests.test_crash_recovery` and docs/RECOVERY.md for the sweep
protocol.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import subprocess
import sys
from typing import Dict, Optional

from ..engine.database import Database
from ..wal.failpoints import CRASH_EXIT_CODE, SITES, FaultError


# -- the crash workload + oracle ----------------------------------------------
#
# A deterministic transactional workload whose effect is a pure function
# of (seed, number of committed transactions).  The runner executes it
# against a durable database, fsync-appending each transaction id to an
# *acks* file the moment its COMMIT returns.  After a crash, the oracle
# recovers the database and checks it equals the reference state for
# some admissible commit count m: every acknowledged transaction must
# have survived, and at most the single in-flight transaction beyond the
# last ack may additionally have committed (durable COMMIT, killed
# before the ack reached the file).  Anything else — a lost ack'd
# transaction, a surviving uncommitted one, torn rows — is a recovery
# bug and fails the oracle.

WORKLOAD_TABLE = "kv"
#: a CHECKPOINT is issued after every k-th transaction, so sweeps also
#: kill mid-checkpoint and mid-WAL-truncation
CHECKPOINT_EVERY = 7


def txn_ops(seed: int, t: int):
    """The (deterministic) operations of transaction *t*: a list of
    ``("insert", k, v)`` / ``("update", k, v)`` / ``("delete", k)``.
    Derived from the seed alone — never from database state — so a
    reference replay reproduces them regardless of where a run died."""
    r = random.Random(f"{seed}:{t}")
    ops = []
    for j in range(r.randint(1, 3)):
        kind = r.choice(("insert", "insert", "update", "delete"))
        if kind == "insert":
            ops.append(("insert", t * 100 + j, r.randrange(10_000)))
        else:
            u = r.randint(1, max(1, t - 1))
            k = u * 100 + r.randrange(3)
            if kind == "update":
                ops.append(("update", k, r.randrange(10_000)))
            else:
                ops.append(("delete", k))
    return ops


def reference_rows(seed: int, committed: int):
    """The exact (k, v) rows after *committed* transactions, sorted."""
    state = {}
    for t in range(1, committed + 1):
        for op in txn_ops(seed, t):
            if op[0] == "insert":
                state[op[1]] = op[2]
            elif op[0] == "update":
                if op[1] in state:
                    state[op[1]] = op[2]
            else:
                state.pop(op[1], None)
    return sorted(state.items())


def run_workload(
    data_dir: str, seed: int, txns: int, acks_path: str
) -> None:
    """Run the workload to completion (or until an armed failpoint kills
    the process).  Assumes a fresh ``data_dir``."""
    db = Database(data_dir=data_dir)
    if not db.catalog.has_table(WORKLOAD_TABLE):
        db.execute(f"CREATE TABLE {WORKLOAD_TABLE} (k INT, v INT)")
    #: a second connection that holds an *uncommitted* write open across
    #: every CHECKPOINT: fuzzy checkpoints must skip its dirty page
    #: (no-steal), record it in the ATT, and set redo_lsn below it —
    #: so sweep kills mid-checkpoint exercise genuinely fuzzy recovery.
    #: Keys are negative, and the write always rolls back, so the
    #: reference oracle is unaffected.
    side = db.create_session()
    with open(acks_path, "a") as acks:
        for t in range(1, txns + 1):
            db.execute("BEGIN")
            for op in txn_ops(seed, t):
                if op[0] == "insert":
                    db.execute(
                        f"INSERT INTO {WORKLOAD_TABLE} "
                        f"VALUES ({op[1]}, {op[2]})"
                    )
                elif op[0] == "update":
                    db.execute(
                        f"UPDATE {WORKLOAD_TABLE} SET v = {op[2]} "
                        f"WHERE k = {op[1]}"
                    )
                else:
                    db.execute(
                        f"DELETE FROM {WORKLOAD_TABLE} WHERE k = {op[1]}"
                    )
            db.execute("COMMIT")
            acks.write(f"{t}\n")
            acks.flush()
            os.fsync(acks.fileno())
            if t % CHECKPOINT_EVERY == 0:
                db.execute("BEGIN", session=side)
                db.execute(
                    f"INSERT INTO {WORKLOAD_TABLE} VALUES ({-t}, 0)",
                    session=side,
                )
                db.execute("CHECKPOINT")
                db.execute("ROLLBACK", session=side)
    db.close()


def read_acks(acks_path: str):
    """Acknowledged transaction ids (a torn final line is ignored — the
    crash may have interrupted the ack write itself)."""
    if not os.path.exists(acks_path):
        return []
    with open(acks_path, "rb") as f:
        data = f.read()
    lines = data.split(b"\n")
    if lines and lines[-1] != b"":
        lines = lines[:-1]  # torn tail: no trailing newline, not ack'd
    return [int(line) for line in lines if line.strip().isdigit()]


def verify_recovery(
    data_dir: str, seed: int, txns: int, acks_path: str
) -> dict:
    """Recover the database and check it against the committed-prefix
    oracle.  Returns a summary dict; raises :class:`FaultError` when the
    recovered state matches no admissible commit count."""
    acked = read_acks(acks_path)
    a = max(acked) if acked else 0
    if acked != list(range(1, a + 1)):
        raise FaultError(f"ack file is not a prefix: {acked!r}")
    db = Database(data_dir=data_dir)
    try:
        report = db.last_recovery
        if db.catalog.has_table(WORKLOAD_TABLE):
            got = sorted(
                db.query(f"SELECT k, v FROM {WORKLOAD_TABLE}").rows
            )
        else:
            got = None
        # admissible commit counts: every ack survived; at most the one
        # in-flight transaction past the last ack may also have committed
        for m in (a, a + 1):
            if m > txns:
                continue
            if got is None:
                if m == 0:
                    return {"committed": 0, "acked": a, "rows": 0,
                            "recovery": report.summary()}
                continue
            if got == reference_rows(seed, m):
                return {"committed": m, "acked": a, "rows": len(got),
                        "recovery": report.summary()}
        raise FaultError(
            f"recovered state matches no admissible commit count "
            f"(acked={a}, rows={'<no table>' if got is None else len(got)}); "
            f"recovery: {report.summary()}"
        )
    finally:
        db.close()


# -- sweep driver --------------------------------------------------------------

def _workload_argv(data_dir: str, seed: int, txns: int, acks: str):
    return [sys.executable, "-m", "repro.qa.faults", "--data-dir", data_dir,
            "--seed", str(seed), "--txns", str(txns), "--acks", acks]


def _subprocess_env(extra: Dict[str, str]) -> Dict[str, str]:
    src = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    env = dict(os.environ)
    env.pop("REPRO_FAILPOINTS", None)
    env.pop("REPRO_FAILPOINTS_COUNT", None)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src if not existing else src + os.pathsep + existing
    env.update(extra)
    return env


def count_workload_hits(
    base_dir: str, seed: int, txns: int
) -> Dict[str, int]:
    """One un-armed counting run: how often does each site fire?"""
    data_dir = os.path.join(base_dir, "count")
    os.makedirs(data_dir, exist_ok=True)
    acks = os.path.join(data_dir, "acks.txt")
    counts_path = os.path.join(data_dir, "counts.json")
    proc = subprocess.run(
        _workload_argv(data_dir, seed, txns, acks),
        env=_subprocess_env({"REPRO_FAILPOINTS_COUNT": counts_path}),
        capture_output=True,
        text=True,
        timeout=600,
    )
    if proc.returncode != 0:
        raise FaultError(
            f"counting run failed (rc={proc.returncode}): {proc.stderr[-2000:]}"
        )
    with open(counts_path) as f:
        return json.load(f)


def sweep_points(counts: Dict[str, int], max_points: Optional[int] = None):
    """The (site, hit_number, mode) kill points a sweep should cover —
    every hit of every site by default, evenly subsampled per (site,
    mode) when *max_points* bounds the budget."""
    points = []
    for site, modes in SITES.items():
        total = counts.get(site, 0)
        if total == 0:
            continue
        for mode in modes:
            hits = list(range(1, total + 1))
            if max_points is not None and len(hits) > max_points:
                step = len(hits) / max_points
                hits = sorted({hits[int(i * step)] for i in range(max_points)})
            for n in hits:
                points.append((site, n, mode))
    return points


def run_crash_point(
    base_dir: str, seed: int, txns: int, site: str, n: int, mode: str
) -> dict:
    """Kill one fresh workload run at (site, hit *n*, mode), then recover
    and verify.  Returns the oracle summary (with ``"skipped": True``
    when the armed point was never reached and the run completed)."""
    data_dir = os.path.join(base_dir, f"{site.replace('.', '_')}-{n}-{mode}")
    shutil.rmtree(data_dir, ignore_errors=True)
    os.makedirs(data_dir)
    acks = os.path.join(data_dir, "acks.txt")
    proc = subprocess.run(
        _workload_argv(data_dir, seed, txns, acks),
        env=_subprocess_env({"REPRO_FAILPOINTS": f"{site}={n}:{mode}"}),
        capture_output=True,
        text=True,
        timeout=600,
    )
    if proc.returncode not in (0, CRASH_EXIT_CODE):
        raise FaultError(
            f"workload died unexpectedly at {site}={n}:{mode} "
            f"(rc={proc.returncode}): {proc.stderr[-2000:]}"
        )
    summary = verify_recovery(data_dir, seed, txns, acks)
    summary["skipped"] = proc.returncode == 0  # armed point never fired
    summary.update(site=site, n=n, mode=mode)
    shutil.rmtree(data_dir, ignore_errors=True)
    return summary


def run_crash_sweep(
    base_dir: str,
    seed: int,
    txns: int,
    max_points: Optional[int] = None,
) -> list:
    """The full protocol: one counting run, then kill-and-verify once per
    sweep point.  Raises :class:`FaultError` on the first oracle failure;
    returns every point's summary otherwise."""
    counts = count_workload_hits(base_dir, seed, txns)
    results = []
    for site, n, mode in sweep_points(counts, max_points):
        results.append(run_crash_point(base_dir, seed, txns, site, n, mode))
    return results


def _main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.qa.faults",
        description="run the deterministic crash workload (sweep target)",
    )
    parser.add_argument("--data-dir", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--txns", type=int, default=20)
    parser.add_argument("--acks", default=None)
    args = parser.parse_args(argv)
    os.makedirs(args.data_dir, exist_ok=True)
    acks = args.acks or os.path.join(args.data_dir, "acks.txt")
    run_workload(args.data_dir, args.seed, args.txns, acks)
    return 0


if __name__ == "__main__":  # pragma: no cover - subprocess entry point
    raise SystemExit(_main())
