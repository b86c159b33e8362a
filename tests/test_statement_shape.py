"""One statement shape: what the parser slots is what the plan cache keys
and what the statement fingerprint masks.

``parse`` gives the literals of a SELECT's WHERE and JOIN … ON, and of an
UPDATE/DELETE's WHERE, parameter slots (``Literal.slot``); ``stmt.key``
is the statement's tokens with those literals masked, and the
fingerprint (``repro.obs.normalize_statement``) is made of the same
tokens.  The statements are the differential workload's
(``repro.qa.randomqueries``), the same predicates under JOIN … ON,
UPDATE and DELETE, and subqueries built from them — each re-spelled with
other literal values, the number spellings and blanks of the lexer
oracle's corpus (``tests/test_lexer_oracle.py``), and comments drawn from
its alphabet.
"""

import dataclasses
import importlib.util
import pathlib
import re
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database
from repro.expr import Expr, SubqueryExpr, walk
from repro.obs import normalize_statement, statement_fingerprint
from repro.physical.bind import bind_expr
from repro.qa.randomqueries import RandomWorkload
from repro.sql import SelectStmt, parse
from repro.sql.lexer import KEYWORDS
from repro.workloads.wholesale import WHOLESALE_QUERIES

from tests.test_lexer_oracle import SQL_ALPHABET

ROOT = pathlib.Path(__file__).resolve().parents[1]

# -- the statements -----------------------------------------------------------------

#: a string, a number standing alone, ``<>``/``!=``, a blank run, a word,
#: any other character: enough to re-spell the generated statements
_PIECE = re.compile(
    r"(?P<str>'(?:[^']|'')*')"
    r"|(?P<num>(?<![\w.])\d+(?:\.\d+)?(?![\w.]))"
    r"|(?P<ne><>|!=)"
    r"|(?P<blank>\s+)"
    r"|(?P<word>\w+)"
    r"|(?P<other>.)"
)
#: the oracle corpus's blank characters, and comments over its alphabet
_BLANKS = st.one_of(
    st.text(alphabet=" \t\n\r", min_size=1, max_size=3),
    st.text(alphabet=SQL_ALPHABET.replace("\n", ""), max_size=12).map(
        lambda body: f" --{body}\n"
    ),
)


_INTS = st.integers(0, 10**6).flatmap(lambda n: st.sampled_from([str(n), f"00{n}"]))
#: the oracle's number spellings: ``1.5``, ``1.``, ``.5``, ``1.5e-3``, ``1.e+5``
_FLOATS = st.tuples(st.integers(0, 999), st.integers(0, 999), st.integers(-3, 3)).flatmap(
    lambda t: st.sampled_from(
        [f"{t[0]}.{t[1]}", f"{t[0]}.", f".{t[1]}", f"{t[0]}.{t[1]}e{t[2]}", f"{t[0]}.e{t[2]:+d}"]
    )
)


def workload_sql(seed: int, index: int) -> str:
    return RandomWorkload(seed).case(index).sql


def joined(sql: str) -> str:
    """A comma join rewritten as ``JOIN … ON`` (the WHERE becomes the ON)."""
    head, _, tail = sql.partition(" FROM ")
    tables, _, rest = tail.partition(" WHERE ")
    if ", " not in tables:
        return sql
    return f"{head} FROM {tables.replace(', ', ' JOIN ', 1)} ON {rest}"


def where_of(sql: str) -> str:
    """The predicate of a generated SELECT."""
    where = sql.partition(" WHERE ")[2]
    return re.split(r" GROUP BY | ORDER BY ", where)[0]


def select_statements():
    return st.builds(
        lambda seed, index, join: (joined if join else str)(workload_sql(seed, index)),
        st.integers(0, 40),
        st.integers(0, 400),
        st.booleans(),
    )


def dml_statements():
    def build(seed, index, update):
        where = where_of(workload_sql(seed, index))
        if update:
            return f"UPDATE r SET f = 1.5, s = 'x' WHERE {where}"
        return f"DELETE FROM r WHERE {where}"

    return st.builds(build, st.integers(0, 40), st.integers(0, 400), st.booleans())


def subquery_statements():
    def build(seed, index, form):
        inner = f"SELECT s.k FROM s WHERE {where_of(workload_sql(seed, index))}"
        return [
            f"SELECT r.id FROM r WHERE r.f > 2.5 AND r.k IN ({inner})",
            f"SELECT r.id FROM r WHERE NOT EXISTS ({inner}) OR r.k = 3",
            f"SELECT r.id, ({inner} LIMIT 1) FROM r WHERE r.k = 3",
            f"DELETE FROM r WHERE r.k IN ({inner})",
            f"UPDATE r SET f = 2.5 WHERE r.id = 4 AND r.k = ({inner} LIMIT 1)",
        ][form]

    return st.builds(build, st.integers(0, 40), st.integers(0, 400), st.integers(0, 4))


@st.composite
def respelled(draw, sql, *, where_only, keep_type=True, signs=True, case=True):
    """*sql* with other literal values and spellings, blanks and comments,
    ``<>`` for ``!=`` and back, and keyword case.  With *where_only*, only
    the literals of the WHERE or ON change, LIKE patterns not."""
    start = min(
        (i for i in (sql.find(" WHERE "), sql.find(" ON ")) if i >= 0), default=len(sql)
    )
    end = re.search(r" GROUP BY | ORDER BY |$", sql[start:]).start() + start
    out = []
    previous = ""
    for m in _PIECE.finditer(sql):
        kind, text = m.lastgroup, m.group()
        after = previous.upper()
        # LIKE patterns and LIMIT counts are never slotted
        free = not where_only or (start < m.start() < end and after not in ("LIKE", "LIMIT"))
        if kind == "str" and free:
            text = "'" + draw(st.text(alphabet="ab '%1", max_size=4)).replace("'", "''") + "'"
        elif kind == "num" and free and after == "LIMIT":
            text = draw(_INTS)  # an unsigned integer
        elif kind == "num" and free:
            if keep_type:
                text = draw(_FLOATS if "." in text else _INTS)
            else:
                text = draw(st.one_of(_INTS, _FLOATS))
            if signs and draw(st.booleans()):
                text = "-" + text
        elif kind == "ne":
            text = draw(st.sampled_from(["<>", "!="]))
        elif kind == "blank":
            text = draw(_BLANKS)
        elif kind == "word" and case and text.upper() in KEYWORDS:
            text = draw(st.sampled_from([text.upper(), text.lower(), text.title()]))
        if kind != "blank":
            previous = m.group()
        out.append(text)
    return "".join(out)


# -- what the properties compare -----------------------------------------------------


def bind(node, params):
    """*node* — a statement, a clause or an expression — with *params*
    bound into its slotted literals."""
    if isinstance(node, Expr):
        return bind_expr(node, params)
    if isinstance(node, (list, tuple)):
        return type(node)(bind(item, params) for item in node)
    if dataclasses.is_dataclass(node):
        return dataclasses.replace(
            node,
            **{f.name: bind(getattr(node, f.name), params) for f in dataclasses.fields(node)},
        )
    return node


def expressions(node):
    """Every expression node in *node* (not descending into subqueries)."""
    if isinstance(node, Expr):
        yield from walk(node)
    elif isinstance(node, (list, tuple)):
        for item in node:
            yield from expressions(item)
    elif dataclasses.is_dataclass(node):
        for f in dataclasses.fields(node):
            yield from expressions(getattr(node, f.name))


def has_subquery(stmt) -> bool:
    return any(isinstance(e, SubqueryExpr) for e in expressions(stmt))


def shaped(stmt):
    """What a statement's key stands for: a SELECT whole, an UPDATE or a
    DELETE its table and WHERE (the scan that locates its rows)."""
    if isinstance(stmt, SelectStmt):
        return stmt
    return stmt.table, stmt.where


def same_shape(a, b):
    """Equal keys mean equal statements once one's parameters are bound
    into the other."""
    if a.key == b.key:
        assert len(a.params) == len(b.params)
        assert bind(shaped(a), b.params) == shaped(b)


# -- the properties -------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(st.one_of(select_statements(), dml_statements()).flatmap(
    lambda sql: st.tuples(st.just(sql), respelled(sql, where_only=True))
))
def test_respelled_parameters_keep_the_key_and_bind_back(pair):
    original, variant = pair
    a, b = parse(original), parse(variant)
    assert a.key is not None and a.key == b.key
    same_shape(a, b)
    same_shape(b, a)


@settings(max_examples=150, deadline=None)
@given(st.one_of(select_statements(), dml_statements()).flatmap(
    lambda sql: st.tuples(
        st.just(sql), respelled(sql, where_only=False, keep_type=False, case=False)
    )
))
def test_equal_keys_mean_equal_statements_once_bound(pair):
    """Any literal may change, in value and in type: wherever the key
    does not change, the statement is the same up to its parameters —
    the key is never coarser than the statement."""
    a, b = (parse(sql) for sql in pair)
    same_shape(a, b)
    same_shape(b, a)


@settings(max_examples=150, deadline=None)
@given(st.one_of(select_statements(), dml_statements(), subquery_statements()))
def test_a_statement_has_a_key_exactly_when_it_has_no_subquery(sql):
    stmt = parse(sql)
    assert (stmt.key is None) == has_subquery(stmt)
    assert (stmt.key is None) == ("(SELECT" in sql)


@settings(max_examples=100, deadline=None)
@given(
    st.builds(lambda s, i: where_of(workload_sql(s, i)), st.integers(0, 40), st.integers(0, 400)),
    st.lists(st.one_of(st.integers(), st.floats(allow_nan=False), st.text(alphabet="ab'")),
             min_size=2, max_size=2),
)
def test_set_values_never_enter_an_updates_key(where, values):
    spelled = [
        "'" + v.replace("'", "''") + "'" if isinstance(v, str) else repr(v)
        for v in values
    ]
    update = parse(f"UPDATE r SET f = {spelled[0]}, s = {spelled[1]} WHERE {where}")
    delete = parse(f"DELETE FROM r WHERE {where}")
    assert update.key == delete.key  # one victim scan for both
    assert update.params == delete.params
    assert parse(f"UPDATE r SET f = 1 WHERE {where}").key == update.key


@settings(max_examples=150, deadline=None)
@given(st.one_of(select_statements(), dml_statements()).flatmap(
    lambda sql: st.tuples(st.just(sql), respelled(sql, where_only=False, signs=False))
))
def test_the_fingerprint_ignores_literals_blanks_comments_and_case(pair):
    original, variant = pair
    assert statement_fingerprint(variant) == statement_fingerprint(original)
    if original.startswith("SELECT"):
        explained = normalize_statement("EXPLAIN ANALYZE " + variant)
        assert explained == normalize_statement(original)


# -- byte for byte with the fingerprint as it was --------------------------------------

_STRING = re.compile(r"'(?:[^']|'')*'")
_NUMBER = re.compile(r"\b\d+(?:\.\d+)?(?:e[+-]?\d+)?\b", re.IGNORECASE)


def reference_normalize(sql: str) -> str:
    """The regex normalization the lexer-based one replaced."""
    text = _NUMBER.sub("?", _STRING.sub("?", sql))
    text = " ".join(text.split()).lower().rstrip(";").strip()
    if text.startswith("explain"):
        idx = text.find("select")
        if idx > 0:
            text = text[idx:]
    return text


def _e2e_workloads():
    spec = importlib.util.spec_from_file_location(
        "e2e_workloads", ROOT / "benchmarks" / "e2e" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # what its dataclasses resolve against
    spec.loader.exec_module(module)
    return module


def test_fingerprints_are_unchanged_on_every_benchmark_statement():
    """Every statement the four end-to-end workloads issue (their smoke
    scale, two streams each) and every wholesale query: the lexer's
    fingerprint is the regex's, byte for byte."""
    e2e = _e2e_workloads()
    issued = list(WHOLESALE_QUERIES.values())
    for workload in (e2e.PointRead, e2e.MixedOltp, e2e.TxnCommit, e2e.Analytic):
        db = Database()
        workload.setup(db, 1, e2e.SMOKE)

        def execute(sql):
            issued.append(sql)
            return db.execute(sql).rows

        streams = [workload(1, sid, e2e.SMOKE) for sid in range(2)]
        for stream in streams:
            assert stream.prepare(execute)
            for _ in range(60):
                assert stream.run_one(execute)[1]
        assert streams[0].final_check(execute, streams)
        issued.append(streams[0].scan_query)
    assert len(set(map(normalize_statement, issued))) > 20
    for sql in issued:
        assert normalize_statement(sql) == reference_normalize(sql), sql
