"""Seeded random query workloads for differential testing.

:class:`RandomWorkload` deterministically generates query cases over a
fixed two-table schema — each case pairs SQL text with a brute-force
reference evaluation over the same data (see :class:`.reference.Reference`).
Case *i* of seed *s* is always the same query, so a failing case is fully
identified by ``(seed, index)`` and :func:`repro_script` can emit a
self-contained script that rebuilds it.

Predicates are generated as (SQL text, Python evaluator) pairs and
composed with SQL three-valued logic: an atom over a NULL operand
evaluates to ``None``, AND/OR/NOT follow Kleene semantics, and a row
qualifies only when the predicate is ``True`` — matching the engine's
NULL handling bit for bit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from .reference import Reference, approx_rows

Row = Dict[str, Any]
Pred = Callable[[Row], Optional[bool]]

#: the fixed differential schema: r is the wide, NULL-bearing fact side,
#: s the narrow dimension side sharing the join key ``k``
R_COLUMNS = ("id", "k", "f", "s")
S_COLUMNS = ("id", "k", "g")
TEXT_PALETTE = ("red", "green", "blue", "amber")


def make_dataset(
    seed: int, r_rows: int = 200, s_rows: int = 120
) -> Dict[str, List[Row]]:
    """The seed-determined table contents, as dict rows (reference form)."""
    rng = random.Random(f"data:{seed}")
    r = [
        {
            "id": i,
            "k": rng.randrange(20) if rng.random() > 0.1 else None,
            "f": round(rng.random() * 100, 3),
            "s": rng.choice(TEXT_PALETTE),
        }
        for i in range(r_rows)
    ]
    s = [
        {"id": i, "k": rng.randrange(20), "g": rng.randrange(8)}
        for i in range(s_rows)
    ]
    return {"r": r, "s": s}


def load_dataset(db, tables: Dict[str, List[Row]]) -> None:
    """Create the differential schema in *db* and load *tables* into it."""
    db.execute("CREATE TABLE r (id INT PRIMARY KEY, k INT, f FLOAT, s TEXT)")
    db.execute("CREATE TABLE s (id INT, k INT, g INT)")
    db.execute("CREATE INDEX ix_s_k ON s (k)")
    db.insert_rows("r", [tuple(x[c] for c in R_COLUMNS) for x in tables["r"]])
    db.insert_rows("s", [tuple(x[c] for c in S_COLUMNS) for x in tables["s"]])
    db.execute("ANALYZE")


# -- three-valued logic -------------------------------------------------------


def _and(a: Optional[bool], b: Optional[bool]) -> Optional[bool]:
    if a is False or b is False:
        return False
    if a is None or b is None:
        return None
    return True


def _or(a: Optional[bool], b: Optional[bool]) -> Optional[bool]:
    if a is True or b is True:
        return True
    if a is None or b is None:
        return None
    return False


def _not(a: Optional[bool]) -> Optional[bool]:
    return None if a is None else not a


_CMP = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def _cmp_atom(column: str, op: str, literal: Any) -> Pred:
    fn = _CMP[op]

    def atom(row: Row) -> Optional[bool]:
        value = row[column]
        if value is None:
            return None
        return fn(value, literal)

    return atom


@dataclass
class QueryCase:
    """One generated query: SQL plus its reference answer."""

    index: int
    sql: str
    #: True when the result carries ORDER BY and must compare as a list
    ordered: bool
    _expected: Callable[[Reference], List[Tuple[Any, ...]]]

    def expected(self, reference: Reference) -> List[Tuple[Any, ...]]:
        return self._expected(reference)

    def matches(
        self, got: List[Tuple[Any, ...]], reference: Reference
    ) -> bool:
        want = self.expected(reference)
        if self.ordered:
            return approx_rows(got) == approx_rows(want) and [
                r[0] for r in got
            ] == [r[0] for r in want]
        return approx_rows(got) == approx_rows(want)


class RandomWorkload:
    """Deterministic random query workload: ``case(i)`` is a pure function
    of ``(seed, i)``."""

    def __init__(self, seed: int, r_rows: int = 200, s_rows: int = 120):
        self.seed = seed
        self.r_rows = r_rows
        self.s_rows = s_rows

    def dataset(self) -> Dict[str, List[Row]]:
        return make_dataset(self.seed, self.r_rows, self.s_rows)

    def reference(self) -> Reference:
        return Reference(self.dataset())

    def cases(self, n: int) -> List[QueryCase]:
        return [self.case(i) for i in range(n)]

    def case(self, index: int) -> QueryCase:
        rng = random.Random(f"query:{self.seed}:{index}")
        kind = rng.randrange(6)
        if kind == 0:
            return self._single_select(index, rng)
        if kind == 1:
            return self._single_aggregate(index, rng)
        if kind == 2:
            return self._join_select(index, rng)
        if kind == 3:
            return self._join_aggregate(index, rng)
        if kind == 4:
            return self._ordered_select(index, rng)
        return self._distinct_select(index, rng)

    # -- predicate grammar ----------------------------------------------------

    def _atom(self, rng: random.Random, binding: str, table: str):
        """One random (sql, evaluator) predicate atom over *binding*."""
        if table == "r":
            choice = rng.randrange(6)
            if choice == 0:
                op = rng.choice(list(_CMP))
                lit = round(rng.uniform(0, 100), 3)
                return f"{binding}.f {op} {lit}", _cmp_atom(
                    f"{binding}.f", op, lit
                )
            if choice == 1:
                op = rng.choice(["=", "<", ">", "!="])
                lit = rng.randrange(20)
                return f"{binding}.k {op} {lit}", _cmp_atom(
                    f"{binding}.k", op, lit
                )
            if choice == 2:
                col = f"{binding}.k"
                if rng.random() < 0.5:
                    return f"{col} IS NULL", (
                        lambda row, c=col: row[c] is None
                    )
                return f"{col} IS NOT NULL", (
                    lambda row, c=col: row[c] is not None
                )
            if choice == 3:
                values = rng.sample(TEXT_PALETTE, rng.randrange(1, 3))
                quoted = ", ".join(f"'{v}'" for v in values)
                col = f"{binding}.s"
                return f"{col} IN ({quoted})", (
                    lambda row, c=col, vs=tuple(values): (
                        None if row[c] is None else row[c] in vs
                    )
                )
            if choice == 4:
                lo = rng.randrange(self.r_rows)
                hi = min(self.r_rows, lo + rng.randrange(5, 80))
                col = f"{binding}.id"
                return f"{col} BETWEEN {lo} AND {hi}", (
                    lambda row, c=col, a=lo, b=hi: (
                        None if row[c] is None else a <= row[c] <= b
                    )
                )
            prefix = rng.choice(TEXT_PALETTE)[:2]
            col = f"{binding}.s"
            return f"{col} LIKE '{prefix}%'", (
                lambda row, c=col, p=prefix: (
                    None if row[c] is None else row[c].startswith(p)
                )
            )
        choice = rng.randrange(3)
        if choice == 0:
            op = rng.choice(list(_CMP))
            lit = rng.randrange(self.s_rows)
            return f"{binding}.id {op} {lit}", _cmp_atom(
                f"{binding}.id", op, lit
            )
        if choice == 1:
            op = rng.choice(["=", "<", ">"])
            lit = rng.randrange(8)
            return f"{binding}.g {op} {lit}", _cmp_atom(
                f"{binding}.g", op, lit
            )
        op = rng.choice(["=", "<", ">", ">="])
        lit = rng.randrange(20)
        return f"{binding}.k {op} {lit}", _cmp_atom(f"{binding}.k", op, lit)

    def _predicate(self, rng: random.Random, bindings):
        """1–3 atoms joined with AND/OR, possibly one NOT."""
        count = rng.randrange(1, 4)
        sql_parts: List[str] = []
        fns: List[Pred] = []
        ops: List[str] = []
        for i in range(count):
            binding, table = rng.choice(bindings)
            sql, fn = self._atom(rng, binding, table)
            if rng.random() < 0.15:
                sql, fn = f"NOT ({sql})", (
                    lambda row, f=fn: _not(f(row))
                )
            sql_parts.append(sql)
            fns.append(fn)
            if i + 1 < count:
                ops.append(rng.choice(["AND", "OR"]))

        def evaluate(row: Row) -> Optional[bool]:
            acc = fns[0](row)
            for op, fn in zip(ops, fns[1:]):
                nxt = fn(row)
                acc = _and(acc, nxt) if op == "AND" else _or(acc, nxt)
            return acc

        sql = sql_parts[0]
        for op, part in zip(ops, sql_parts[1:]):
            sql = f"({sql} {op} {part})"
        return sql, evaluate

    # -- aggregates -----------------------------------------------------------

    def _aggs(self, rng: random.Random, bindings):
        """Random aggregate list: (sql_exprs, names, reducer over rows)."""
        # non-null numeric columns only: engine and reference then agree on
        # NULL handling without extra SQL-semantics modeling here
        numeric = []
        for binding, table in bindings:
            numeric.append(f"{binding}.id")
            if table == "r":
                numeric.append(f"{binding}.f")
            else:
                numeric.append(f"{binding}.g")
        picks = []
        picks.append(("COUNT(*)", lambda rows: len(rows)))
        for i in range(rng.randrange(1, 3)):
            col = rng.choice(numeric)
            func = rng.choice(["SUM", "MIN", "MAX", "AVG", "COUNT"])
            if func == "SUM":
                picks.append(
                    (f"SUM({col})", lambda rows, c=col: sum(x[c] for x in rows))
                )
            elif func == "MIN":
                picks.append(
                    (f"MIN({col})", lambda rows, c=col: min(x[c] for x in rows))
                )
            elif func == "MAX":
                picks.append(
                    (f"MAX({col})", lambda rows, c=col: max(x[c] for x in rows))
                )
            elif func == "AVG":
                picks.append(
                    (
                        f"AVG({col})",
                        lambda rows, c=col: sum(x[c] for x in rows)
                        / len(rows),
                    )
                )
            else:
                picks.append(
                    (
                        f"COUNT({col})",
                        lambda rows, c=col: sum(
                            1 for x in rows if x[c] is not None
                        ),
                    )
                )
        exprs = [f"{sql} AS a{i}" for i, (sql, _) in enumerate(picks)]
        return exprs, [fn for _, fn in picks]

    # -- query shapes ---------------------------------------------------------

    def _single_select(self, index: int, rng: random.Random) -> QueryCase:
        table = rng.choice(["r", "s"])
        cols = (
            rng.sample(["id", "k", "f", "s"], rng.randrange(1, 4))
            if table == "r"
            else rng.sample(["id", "k", "g"], rng.randrange(1, 3))
        )
        pred_sql, pred = self._predicate(rng, [(table, table)])
        select = ", ".join(f"{table}.{c}" for c in cols)
        sql = f"SELECT {select} FROM {table} WHERE {pred_sql}"

        def expected(ref: Reference):
            return [
                tuple(row[f"{table}.{c}"] for c in cols)
                for row in ref.join([(table, table)])
                if pred(row) is True
            ]

        return QueryCase(index, sql, False, expected)

    def _ordered_select(self, index: int, rng: random.Random) -> QueryCase:
        table = rng.choice(["r", "s"])
        extra = "f" if table == "r" else "g"
        pred_sql, pred = self._predicate(rng, [(table, table)])
        direction = rng.choice(["ASC", "DESC"])
        limit = rng.choice([None, rng.randrange(1, 40)])
        sql = (
            f"SELECT {table}.id, {table}.{extra} FROM {table} "
            f"WHERE {pred_sql} ORDER BY {table}.id {direction}"
        )
        if limit is not None:
            sql += f" LIMIT {limit}"

        def expected(ref: Reference):
            rows = [
                (row[f"{table}.id"], row[f"{table}.{extra}"])
                for row in ref.join([(table, table)])
                if pred(row) is True
            ]
            rows.sort(key=lambda r: r[0], reverse=direction == "DESC")
            return rows if limit is None else rows[:limit]

        return QueryCase(index, sql, True, expected)

    def _distinct_select(self, index: int, rng: random.Random) -> QueryCase:
        table = rng.choice(["r", "s"])
        col = "s" if table == "r" else "g"
        pred_sql, pred = self._predicate(rng, [(table, table)])
        sql = f"SELECT DISTINCT {table}.{col} FROM {table} WHERE {pred_sql}"

        def expected(ref: Reference):
            return list(
                {
                    (row[f"{table}.{col}"],)
                    for row in ref.join([(table, table)])
                    if pred(row) is True
                }
            )

        return QueryCase(index, sql, False, expected)

    def _single_aggregate(self, index: int, rng: random.Random) -> QueryCase:
        table = rng.choice(["r", "s"])
        group = f"{table}.s" if table == "r" else f"{table}.g"
        pred_sql, pred = self._predicate(rng, [(table, table)])
        exprs, reducers = self._aggs(rng, [(table, table)])
        having = rng.choice([None, rng.randrange(1, 30)])
        sql = (
            f"SELECT {group}, {', '.join(exprs)} FROM {table} "
            f"WHERE {pred_sql} GROUP BY {group}"
        )
        if having is not None:
            sql += f" HAVING COUNT(*) > {having}"

        def expected(ref: Reference):
            groups: Dict[Any, List[Row]] = {}
            for row in ref.join([(table, table)]):
                if pred(row) is True:
                    groups.setdefault(row[group], []).append(row)
            out = []
            for key, rows in groups.items():
                if having is not None and len(rows) <= having:
                    continue
                out.append(
                    (key,) + tuple(reduce(rows) for reduce in reducers)
                )
            return out

        return QueryCase(index, sql, False, expected)

    def _join_bindings(self, rng: random.Random):
        if rng.random() < 0.25:  # self-join on the dimension side
            return [("a", "s"), ("b", "s")], "a.k = b.k"
        return [("r", "r"), ("s", "s")], "r.k = s.k"

    def _join_select(self, index: int, rng: random.Random) -> QueryCase:
        bindings, join_sql = self._join_bindings(rng)
        (lb, lt), (rb, rt) = bindings
        join_pred = _join_key_pred(lb, rb)
        pred_sql, pred = self._predicate(rng, bindings)
        cols = [f"{lb}.id", f"{rb}.id"]
        if lt == "r":
            cols.append(f"{lb}.s")
        sql = (
            f"SELECT {', '.join(cols)} FROM "
            f"{_from_clause(bindings)} WHERE {join_sql} AND {pred_sql}"
        )

        def expected(ref: Reference):
            return [
                tuple(row[c] for c in cols)
                for row in ref.join(bindings)
                if join_pred(row) is True and pred(row) is True
            ]

        return QueryCase(index, sql, False, expected)

    def _join_aggregate(self, index: int, rng: random.Random) -> QueryCase:
        bindings, join_sql = self._join_bindings(rng)
        (lb, lt), (rb, rt) = bindings
        join_pred = _join_key_pred(lb, rb)
        group = f"{lb}.s" if lt == "r" else f"{rb}.g"
        pred_sql, pred = self._predicate(rng, bindings)
        exprs, reducers = self._aggs(rng, bindings)
        sql = (
            f"SELECT {group}, {', '.join(exprs)} FROM "
            f"{_from_clause(bindings)} WHERE {join_sql} AND {pred_sql} "
            f"GROUP BY {group}"
        )

        def expected(ref: Reference):
            groups: Dict[Any, List[Row]] = {}
            for row in ref.join(bindings):
                if join_pred(row) is True and pred(row) is True:
                    groups.setdefault(row[group], []).append(row)
            return [
                (key,) + tuple(reduce(rows) for reduce in reducers)
                for key, rows in groups.items()
            ]

        return QueryCase(index, sql, False, expected)


def _from_clause(bindings) -> str:
    parts = []
    for binding, table in bindings:
        parts.append(table if binding == table else f"{table} {binding}")
    return ", ".join(parts)


def _join_key_pred(left_binding: str, right_binding: str) -> Pred:
    lk, rk = f"{left_binding}.k", f"{right_binding}.k"

    def pred(row: Row) -> Optional[bool]:
        a, b = row[lk], row[rk]
        if a is None or b is None:
            return None
        return a == b

    return pred


def repro_script(
    seed: int,
    index: int,
    strategy: str = "dp",
    batch_size: int = 1024,
    r_rows: int = 200,
    s_rows: int = 120,
    columnar: bool = True,
) -> str:
    """A self-contained script reproducing one differential case.

    Run with ``PYTHONPATH=src python <script>`` from the repo root; it
    rebuilds the exact dataset and query from ``(seed, index)`` and
    asserts the engine matches the reference.  The engine the case failed
    under is spelled out in the constructor call, so the script keeps
    reproducing whatever ``Database`` defaults to later."""
    return f'''#!/usr/bin/env python
"""Differential repro: seed={seed} case={index} strategy={strategy!r}
batch_size={batch_size} columnar={columnar}.

Run from the repo root:  PYTHONPATH=src python thisfile.py
"""
from repro import Database
from repro.optimizer import PlannerOptions
from repro.qa import RandomWorkload, approx_rows
from repro.qa.randomqueries import load_dataset

workload = RandomWorkload({seed}, r_rows={r_rows}, s_rows={s_rows})
case = workload.case({index})
print("SQL:", case.sql)

db = Database(
    buffer_pages=64,
    work_mem_pages=4,
    batch_size={batch_size},
    columnar={columnar},
)
load_dataset(db, workload.dataset())
db.options = PlannerOptions(strategy={strategy!r})
print(db.explain(case.sql))
got = db.query(case.sql).rows
want = case.expected(workload.reference())
if case.matches(got, workload.reference()):
    print("OK:", len(got), "rows match the reference")
else:
    print("MISMATCH: engine", len(got), "rows, reference", len(want))
    print("engine   :", approx_rows(got)[:10])
    print("reference:", approx_rows(want)[:10])
    raise SystemExit(1)
'''
