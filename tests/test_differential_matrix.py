"""The differential test matrix: seeded random queries, every planner
strategy, every batch size — all against the brute-force reference
evaluator in :mod:`repro.qa`.

Failures print a pointer to a self-contained repro script (also written
to ``repro_failures/`` when a failure occurs), so a red nightly run is
reproducible from the artifact alone.

The default (tier-1) run covers a rotating slice of the matrix; the
``slow``-marked sweep runs the full ≥200-query matrix in nightly CI with
a rotating seed taken from ``REPRO_MATRIX_SEED``.

The slice runs the engine ``Database`` defaults to (vectorized).  The
full matrix adds an engine axis — the default, and ``columnar=False``,
the tuple-at-a-time engine that produces the paper's tables (E1–E12) —
so both stay checked against the reference.
"""

import itertools
import os
from pathlib import Path

import pytest

from repro import Database
from repro.optimizer import PlannerOptions
from repro.qa import RandomWorkload, repro_script
from repro.qa.randomqueries import load_dataset

#: rotating nightly seed; defaults keep local runs deterministic
SEED = int(os.environ.get("REPRO_MATRIX_SEED", "1977"))

STRATEGIES = ["dp", "greedy", "syntactic"]
BATCH_SIZES = [1, 64, 1024]
COMBOS = list(itertools.product(STRATEGIES, BATCH_SIZES))

FAILURE_DIR = Path(__file__).resolve().parent.parent / "repro_failures"

_workload = RandomWorkload(SEED)
_reference = _workload.reference()
_databases = {}


def database_for(batch_size: int, columnar: bool = True) -> Database:
    """One engine per (batch size, engine), data loaded once
    (module-lifetime cache).  Small work memory on purpose: plans spill,
    so the matrix also exercises the external sort and the Grace hash
    join."""
    key = (batch_size, columnar)
    if key not in _databases:
        db = Database(
            buffer_pages=64,
            work_mem_pages=4,
            batch_size=batch_size,
            columnar=columnar,
        )
        load_dataset(db, _workload.dataset())
        _databases[key] = db
    return _databases[key]


def check_case(
    index: int, strategy: str, batch_size: int, columnar: bool = True
):
    """Run case *index* under one matrix cell and compare to reference.

    On mismatch, write the repro script and fail with its path — the
    script alone reproduces the failure from (seed, index, config).
    """
    case = _workload.case(index)
    db = database_for(batch_size, columnar)
    db.options = PlannerOptions(strategy=strategy)
    try:
        got = db.query(case.sql).rows
    finally:
        db.options = PlannerOptions()
    if case.matches(got, _reference):
        return
    FAILURE_DIR.mkdir(exist_ok=True)
    engine = "columnar" if columnar else "row"
    name = f"seed{SEED}_case{index}_{strategy}_b{batch_size}_{engine}.py"
    script_path = FAILURE_DIR / name
    script_path.write_text(
        repro_script(
            SEED,
            index,
            strategy=strategy,
            batch_size=batch_size,
            columnar=columnar,
        )
    )
    want = case.expected(_reference)
    pytest.fail(
        f"differential mismatch for seed={SEED} case={index} "
        f"({strategy}, batch={batch_size}, {engine} engine)\n"
        f"  sql: {case.sql}\n"
        f"  engine rows: {len(got)}, reference rows: {len(want)}\n"
        f"  repro script: {script_path}\n"
        f"  run with: PYTHONPATH=src python {script_path}"
    )


class TestMatrixSlice:
    """Tier-1 slice: 40 cases, each under a rotating matrix cell, so every
    strategy × batch combination is hit on every run."""

    @pytest.mark.parametrize("index", range(40))
    def test_case_matches_reference(self, index):
        strategy, batch_size = COMBOS[index % len(COMBOS)]
        check_case(index, strategy, batch_size)


@pytest.mark.slow
class TestFullMatrix:
    """Nightly sweep: ≥200 cases on both engines; every case runs under
    all strategies with the batch size rotating per case (1,200 engine
    executions)."""

    @pytest.mark.parametrize("index", range(200))
    @pytest.mark.parametrize(
        "columnar", [True, False], ids=["default", "row"]
    )
    def test_case_matches_reference_all_strategies(self, index, columnar):
        batch_size = BATCH_SIZES[index % len(BATCH_SIZES)]
        for strategy in STRATEGIES:
            check_case(index, strategy, batch_size, columnar)


@pytest.mark.fuzz
class TestFreshSeeds:
    """Extra fuzzing net: several derived seeds, fresh datasets each, a
    short query burst per seed — catches data-dependent bugs the fixed
    dataset can't."""

    @pytest.mark.parametrize("offset", range(4))
    def test_derived_seed_burst(self, offset):
        seed = SEED * 1_000 + offset
        workload = RandomWorkload(seed, r_rows=120, s_rows=80)
        reference = workload.reference()
        db = Database(buffer_pages=64, work_mem_pages=4)
        load_dataset(db, workload.dataset())
        for index in range(25):
            case = workload.case(index)
            strategy, _ = COMBOS[index % len(COMBOS)]
            db.options = PlannerOptions(strategy=strategy)
            got = db.query(case.sql).rows
            db.options = PlannerOptions()
            if not case.matches(got, reference):
                FAILURE_DIR.mkdir(exist_ok=True)
                name = f"seed{seed}_case{index}_{strategy}.py"
                path = FAILURE_DIR / name
                path.write_text(
                    repro_script(
                        seed, index, strategy=strategy, r_rows=120, s_rows=80
                    )
                )
                pytest.fail(
                    f"fuzz mismatch seed={seed} case={index}: {case.sql}\n"
                    f"  repro script: {path}"
                )


class TestReproScript:
    def test_script_round_trips(self, tmp_path):
        """The emitted repro script must itself run green for a passing
        case — otherwise failure artifacts would be untrustworthy."""
        import subprocess
        import sys

        script = tmp_path / "repro_case0.py"
        text = repro_script(SEED, 0, strategy="dp")
        # the engine is named, not left to the constructor's default
        assert "columnar=True" in text
        assert "columnar=False" in repro_script(SEED, 0, columnar=False)
        script.write_text(text)
        env = dict(os.environ)
        root = Path(__file__).resolve().parent.parent
        env["PYTHONPATH"] = str(root / "src")
        proc = subprocess.run(
            [sys.executable, str(script)],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "OK" in proc.stdout

    def test_mismatch_detection_is_real(self):
        """matches() must actually reject wrong answers (guards against a
        vacuously-green matrix)."""
        case = _workload.case(0)
        want = case.expected(_reference)
        assert case.matches(list(want), _reference)
        corrupted = list(want) + [("bogus",) * (len(want[0]) if want else 1)]
        assert not case.matches(corrupted, _reference)
