"""Options census: every independently settable value of the engine's
constructors and config objects, pinned by name.

The rule (the simplicity guide's Options rule): a new name here needs two
callers or workloads that already exist — not counting tests and examples
— that need *different* values for it; with one value in use it is a
constant, not an option.  Adding, renaming or removing a knob therefore
shows up in review as an edit to one of these tuples, and the
before/after option count of a change is one ``git diff`` of this file.
"""

import dataclasses
import inspect

import pytest

from repro import Database
from repro.engine.session import Session
from repro.executor import ExecContext
from repro.obs import ObsConfig, QueryLog, StatementStore
from repro.obs.autoexplain import AutoExplainConfig
from repro.optimizer import CostModel, EstimatorConfig, Planner, PlannerOptions
from repro.wal import TxnManager

CONSTRUCTORS = {
    Database: (
        "buffer_pages",
        "work_mem_pages",
        "page_size",
        "options",
        "obs",
        "batch_size",
        "columnar",
        "data_dir",
    ),
    ExecContext: (
        "pool",
        "work_mem_pages",
        "instrument",
        "batch_size",
        "activity",
        "columnar",
        "snapshot",
    ),
    CostModel: (
        "work_mem_pages",
        "buffer_pages",
        "vector_cpu_factor",
    ),
    # the stores and the transaction manager take nothing: their sizes
    # and the lock timeout are constants, the WAL is attached afterwards
    TxnManager: (),
    QueryLog: (),
    StatementStore: (),
}

CONFIG_FIELDS = {
    ObsConfig: (
        "enabled",
        "feedback",
        "auto_explain",
    ),
    PlannerOptions: (
        "strategy",
        "pushdown",
        "use_interesting_orders",
        "random_seed",
        "use_feedback",
    ),
    AutoExplainConfig: (
        "enabled",
        "threshold_ms",
        "path",
    ),
    EstimatorConfig: (
        "use_histograms",
        "use_mcvs",
    ),
}

# The statement path's public signatures: what a caller can hand a
# statement besides its text.  A pass-through parameter (a tracer, a
# trace id, a flag threaded down to the planner) is an option too.
SIGNATURES = {
    Database.execute: ("sql", "session"),
    Database.query: ("sql", "session"),
    Session.execute: ("sql",),
    Planner.__init__: (
        "catalog",
        "model",
        "options",
        "feedback",
        "search",
    ),
}


@pytest.mark.parametrize("cls", list(CONSTRUCTORS), ids=lambda c: c.__name__)
def test_constructor_parameters(cls):
    params = tuple(inspect.signature(cls.__init__).parameters)[1:]
    assert params == CONSTRUCTORS[cls]


@pytest.mark.parametrize("cls", list(CONFIG_FIELDS), ids=lambda c: c.__name__)
def test_config_fields(cls):
    names = tuple(f.name for f in dataclasses.fields(cls))
    assert names == CONFIG_FIELDS[cls]


@pytest.mark.parametrize(
    "func", list(SIGNATURES), ids=lambda f: f.__qualname__
)
def test_statement_path_signatures(func):
    params = tuple(inspect.signature(func).parameters)[1:]
    assert params == SIGNATURES[func]
