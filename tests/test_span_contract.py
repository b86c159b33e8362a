"""What a span promises, whatever it costs (ISSUE 21): balance under
exceptions, ``merge=True`` folding, JSON round trips, lazily allocated
containers, cheap trace ids, and the span names of a served SELECT,
INSERT and COMMIT as they were before spans became their own context
managers."""

import pytest

from repro import Database
from repro.obs import NULL_SPAN, Span, Tracer, activate_tracer, active_tracer
from repro.obs import new_trace_id, trace_span
from repro.server import Client, DatabaseServer


class Boom(Exception):
    pass


def test_raising_body_leaves_the_tracer_balanced_and_the_span_timed():
    tracer = Tracer()
    with tracer.span("root"):
        with pytest.raises(Boom):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    raise Boom
        # both closed on the way out: the next span is root's child again
        assert tracer.current().name == "root"
        with tracer.span("after"):
            pass
    assert tracer.current() is NULL_SPAN
    root = tracer.root
    assert [c.name for c in root.children] == ["outer", "after"]
    inner = root.find("inner")
    assert inner.parent_id == root.find("outer").span_id
    for span in root.walk():
        assert span.duration_ms >= 0.0
        assert span.child_time_ms() <= span.duration_ms + 1e-6
    assert root.find("outer").duration_ms >= inner.duration_ms > 0.0


def test_raising_body_restores_the_active_tracer():
    outer = Tracer()
    with activate_tracer(outer):
        with pytest.raises(Boom):
            with activate_tracer(Tracer()):
                raise Boom
        assert active_tracer() is outer
    assert active_tracer() is None


def test_merge_folds_count_and_duration_and_survives_a_raise():
    tracer = Tracer()
    with tracer.span("root"):
        durations = []
        for i in range(5):
            try:
                with tracer.span("wal.append", merge=True) as sp:
                    sp.add("bytes", 10)
                    if i == 3:
                        raise Boom
            except Boom:
                pass
            durations.append(tracer.root.find("wal.append").duration_ms)
        with tracer.span("other"):
            pass
        with tracer.span("wal.append", merge=True):  # not adjacent: a new node
            pass
    appends = tracer.root.find_all("wal.append")
    assert [a.counters["count"] for a in appends] == [5.0, 1.0]
    assert appends[0].counters["bytes"] == 50.0
    assert durations == sorted(durations) and durations[0] < durations[-1]
    assert tracer.current() is NULL_SPAN


def test_round_trip_with_and_without_counters_attrs_children():
    tracer = Tracer()
    with tracer.span("request") as root:
        root.set_attr("session", 3)
        with tracer.span("bare"):
            pass
        with tracer.span("counted") as sp:
            sp.add("rows", 2)
            with tracer.span("leaf") as leaf:
                leaf.set_attr("table", "t")
                leaf.add("pages")
    tree = tracer.root
    assert set(tree.find("bare").to_dict()) == {
        "name", "start_ms", "duration_ms", "span_id", "parent_id",
    }
    assert tree.find("leaf").to_dict()["counters"] == {"pages": 1.0}
    assert tree.to_dict()["attrs"] == {"session": "3"}
    back = Span.from_dict(tree.to_dict())
    assert back.to_dict() == tree.to_dict()
    assert Span.from_json(tree.to_json()).to_dict() == tree.to_dict()
    assert back.find("bare").children == [] and back.find("bare").counters == {}
    assert back.pretty() == tree.pretty()


def test_containers_are_allocated_on_first_use():
    span = Span("x")
    assert span._counters is None and span._children is None and span.attrs is None
    assert span.find("y") is None and list(span.walk()) == [span]
    assert span.child_time_ms() == 0.0 and "x:" in span.pretty()
    assert span.children == [] and span.counters == {}
    span.children.append(Span("y"))  # what a reader gets is the real list
    assert span.find("y") is span.children[0]


def test_trace_ids_are_sixteen_hex_digits_unique_and_overridable():
    ids = [new_trace_id() for _ in range(1000)]
    assert len(set(ids)) == 1000
    assert all(len(i) == 16 and int(i, 16) >= 0 for i in ids)
    assert len({i[:8] for i in ids}) == 1  # one prefix a process
    assert Tracer(trace_id="cafe0000cafe0000").trace_id == "cafe0000cafe0000"
    assert Tracer(enabled=False).trace_id == ""


def test_idle_trace_span_is_the_null_span():
    assert trace_span("orphan") is NULL_SPAN
    with activate_tracer(Tracer(enabled=False)):
        assert trace_span("orphan") is NULL_SPAN


# -- span names, as they were at 5dd049a ------------------------------------

EMBEDDED = {
    "SELECT b FROM t WHERE a = 7": [
        "query", "parse", "mvcc.acquire", "plan", "view_expansion",
        "decorrelation", "rewrite", "costing", "join_enumeration", "execute",
        "mvcc.release",
    ],
    "INSERT INTO t VALUES (100, 1)": [
        "query", "parse", "lock.acquire", "execute", "wal.append",
        "txn.commit", "wal.append", "wal.fsync",
    ],
    "BEGIN": ["query", "parse"],
    "INSERT INTO t VALUES (101, 1)": [
        "query", "parse", "lock.acquire", "execute", "wal.append",
    ],
    "COMMIT": ["query", "parse", "txn.commit", "wal.append", "wal.fsync"],
}
SERVED = {
    # a second point read: its plan comes out of the plan cache
    "SELECT b FROM t WHERE a = 8": [
        "query", "parse", "mvcc.acquire", "execute", "mvcc.release",
    ],
    "INSERT INTO t VALUES (102, 1)": EMBEDDED["INSERT INTO t VALUES (100, 1)"],
    "BEGIN": EMBEDDED["BEGIN"],
    "INSERT INTO t VALUES (103, 1)": EMBEDDED["INSERT INTO t VALUES (101, 1)"],
    "COMMIT": EMBEDDED["COMMIT"],
}


def dict_names(tree):
    return [tree["name"]] + [
        name for child in tree.get("children", []) for name in dict_names(child)
    ]


def test_span_names_of_select_insert_commit_are_unchanged(tmp_path):
    db = Database(data_dir=str(tmp_path))
    db.execute("CREATE TABLE t (a INT PRIMARY KEY, b INT)")
    db.insert_rows("t", [(i, i) for i in range(50)])
    db.analyze()
    for sql, expected in EMBEDDED.items():
        result = db.execute(sql)
        assert [s.name for s in result.trace.walk()] == expected, sql
        assert db.last_trace is result.trace
        assert db.last_request_trace.root is result.trace
    with DatabaseServer(db) as server, Client(*server.address) as client:
        for sql, expected in SERVED.items():
            reply = client.execute(sql, trace=True)
            head = ["request", "protocol.decode", "session.dispatch"]
            assert dict_names(reply.trace) == head + expected, sql
            kept = db.last_request_trace
            assert kept.trace_id == reply.trace_id
            assert [s.name for s in kept.root.walk()] == (
                head + expected + ["protocol.encode"]
            ), sql
    db.close()
