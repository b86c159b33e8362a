"""The price of default observability, as a count that repeats exactly.

Wall-clock overhead is the benchmark's to measure (``obs.overhead_share``
in ``benchmarks/e2e``); what a tier-1 test can hold is the number of
function calls a statement makes with observability on minus the number
it makes with it off, under ``cProfile``, on the ``point_read`` table.
At 5dd049a that difference was 192.0 calls for a point SELECT and 109.0
for a one-row INSERT.  A new span, a by-name instrument lookup or a
second walk of the plan in the recorder shows up here as a few calls.

The cuts behind the new numbers changed how some answers are computed;
the rest of this file holds them to what the old code computed.
"""

import cProfile
import math
import pstats
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import Database, ObsConfig
from repro.obs import FeedbackStore, Histogram, q_error

KV_ROWS = 4000
WARMUPS, MEASURED = 200, 1000
#: default minus off, calls per statement
SELECT_BUDGET = 97
INSERT_BUDGET = 70


def kv_db(obs: ObsConfig) -> Database:
    """The benchmark's ``kv`` table (``benchmarks/e2e/workloads.py``)."""
    rng = random.Random(1)
    db = Database(obs=obs)
    db.execute("CREATE TABLE kv (k INT PRIMARY KEY, v INT, pad TEXT)")
    db.insert_rows(
        "kv",
        [
            (k, rng.randrange(1_000_000), "p" * rng.randrange(20, 60))
            for k in range(KV_ROWS)
        ],
    )
    db.analyze()
    return db


def calls_per_statement(obs: ObsConfig, statements) -> float:
    db = kv_db(obs)
    session = db.create_session()
    warmups, measured = statements(random.Random(4))
    for sql in warmups:
        session.execute(sql)
    profile = cProfile.Profile()
    profile.enable()
    for sql in measured:
        session.execute(sql)
    profile.disable()
    return pstats.Stats(profile).total_calls / len(measured)


def point_selects(rng):
    warm = [f"SELECT v FROM kv WHERE k = {rng.randrange(KV_ROWS)}" for _ in range(WARMUPS)]
    # distinct texts, as point_read issues them
    keys = rng.sample(range(KV_ROWS), MEASURED)
    return warm, [f"SELECT v FROM kv WHERE k = {k}" for k in keys]


def one_row_inserts(rng):
    def insert(k):
        return f"INSERT INTO kv VALUES ({k}, {rng.randrange(1_000_000)}, 'own')"

    warm = [insert(10_000_000 + i) for i in range(WARMUPS)]
    return warm, [insert(20_000_000 + i) for i in range(MEASURED)]


@pytest.mark.parametrize(
    "statements, budget",
    [(point_selects, SELECT_BUDGET), (one_row_inserts, INSERT_BUDGET)],
    ids=["point select", "one-row insert"],
)
def test_default_observability_costs_a_bounded_number_of_calls(statements, budget):
    on = calls_per_statement(ObsConfig(), statements)
    off = calls_per_statement(ObsConfig.off(), statements)
    print(f"\ncalls per statement: default {on:.1f}, off {off:.1f}, price {on - off:.1f}")
    assert 0 < on - off <= budget


# -- the cuts compute what the code they replaced computed ------------------------


@given(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(allow_nan=True, allow_infinity=True),
)
def test_q_error_without_builtins_is_q_error(estimated, actual):
    if math.isfinite(estimated) and math.isfinite(actual):
        est, act = max(estimated, 1.0), max(actual, 1.0)
        assert q_error(estimated, actual) == max(est / act, act / est)
    else:
        assert q_error(estimated, actual) == math.inf


@given(st.floats(min_value=-10.0, max_value=1e5, allow_nan=False))
def test_histogram_bucket_by_bisection_is_the_first_bound_not_below(value):
    hist = Histogram()
    hist.observe(value)
    expected = next(
        (i for i, bound in enumerate(hist.bounds) if value <= bound), len(hist.bounds)
    )
    assert hist.bucket_counts[expected] == 1 and sum(hist.bucket_counts) == 1


@given(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(allow_nan=True, allow_infinity=True),
)
def test_feedback_records_finite_non_negative_pairs_only(estimated, actual):
    store = FeedbackStore()
    store.record("k", estimated, actual)
    fine = (
        math.isfinite(estimated) and math.isfinite(actual)
        and estimated >= 0 and actual >= 0
    )
    assert len(store) == (1 if fine else 0)
    if fine:
        entry = store.entries()["k"]
        est, act = max(estimated, 1.0), max(actual, 1.0)
        assert entry.est_sum == est and entry.actual_sum == act
        assert entry.worst_q == max(1.0, est / act, act / est)
