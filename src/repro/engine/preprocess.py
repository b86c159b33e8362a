"""Preprocessing, between parse and the optimizer: INGRES-style
decomposition.  Views are merged or materialized (:mod:`.views`),
``sys_stat_*`` tables snapshotted, a correlated ``IN``/``EXISTS``
conjunct turned into a semi-join against a materialized DISTINCT
projection, and every other subquery run first and its answer
substituted as literals.  Functions of the catalog, the view
definitions, the list of live transient tables and a *run* callback
that executes a nested internal select.
"""

from __future__ import annotations

from dataclasses import replace as dc_replace
from typing import Any, Callable, Dict, List, Optional

from ..catalog import Catalog
from ..expr import (
    ColEqCol,
    ColumnRef,
    Expr,
    InList,
    Literal,
    SubqueryExpr,
    classify_conjunct,
    conjoin,
    contains_subquery,
    eq,
    map_expr,
    referenced_columns,
    split_conjuncts,
)
from ..obs import trace_span
from ..sql.ast import SelectItem, SelectStmt, TableRef
from ..types import Column, Schema
from .statement import EngineError, materialize
from .views import ViewDef, ViewExpander

#: executes a nested internal select, returning its ``QueryResult``
Run = Callable[[SelectStmt], Any]
#: a table's or view's output column names
Columns = Callable[[str], List[str]]
#: runs a nested internal select into the transient table it names
Load = Callable[[SelectStmt, str], str]


def preprocess(
    stmt: SelectStmt, catalog: Catalog, views: Dict[str, ViewDef], live: List[str], run: Run
) -> SelectStmt:
    """*stmt* with its views expanded, its system tables snapshotted and
    its subqueries decomposed, ready for ``build_plan``.  The transient
    tables this creates stay on *live* until the owning statement drops
    them."""

    def load(select: SelectStmt, name: str) -> str:
        result = run(select)
        schema = Schema(
            Column(column.name, column.dtype, name, True)
            for column in result.plan.schema
        )
        return materialize(catalog, live, name, schema, result.rows)

    def columns(table: str) -> List[str]:
        return table_columns(catalog, views, table)

    with trace_span("view_expansion") as span:
        before = len(live)
        if views:
            stmt = ViewExpander(views, load, columns).expand(stmt)
        if len(live) > before:
            span.add("views_materialized", len(live) - before)
    materialize_system_tables(catalog, live, stmt)
    with trace_span("decorrelation") as span:
        before = len(live)
        stmt = decompose_subqueries(stmt, columns, load, live, run)
        if len(live) > before:
            span.add("subqueries_decorrelated", len(live) - before)
    return stmt


# -- views and system tables ----------------------------------------------------------


def table_columns(catalog: Catalog, views: Dict[str, ViewDef], table: str) -> List[str]:
    if catalog.has_table(table):
        return catalog.table(table).schema.names()
    view = views.get(table.lower())
    if view is None:
        return []
    # output names of a view: derived from its select list
    names: List[str] = []
    for item in view.select.items:
        if item.is_star:
            for ref in list(view.select.from_tables) + [
                j.table for j in view.select.joins
            ]:
                for column in table_columns(catalog, views, ref.table):
                    if column not in names:
                        names.append(column)
            continue
        if item.alias:
            names.append(item.alias)
        elif isinstance(item.expr, ColumnRef):
            names.append(item.expr.name.split(".")[-1])
        else:
            names.append(str(item.expr))
    return names


def materialize_system_tables(catalog: Catalog, live: List[str], stmt: SelectStmt) -> None:
    """Snapshot every ``sys_stat_*`` table *stmt* references into a
    transient heap table of the same name (dropped when the statement
    finishes, exactly like a materialized view).

    Materializing — rather than teaching the executor about virtual
    tables — means the planner prices a system table like any small,
    freshly-ANALYZEd table and every SQL feature (filters, joins,
    ORDER BY, aggregation, EXPLAIN) composes with zero special cases.
    The snapshot is taken once, at statement start, so self-joins of a
    system table see one consistent picture.  A user table with the
    same name shadows the provider (``is_system_table`` is False),
    which also makes re-materialization within one statement a no-op.
    """
    refs = [ref.table for ref in stmt.from_tables]
    refs += [join.table.table for join in stmt.joins]
    for name in refs:
        key = name.lower()
        if not catalog.is_system_table(key):
            continue
        schema, rows = catalog.system_table_rows(key)
        materialize(catalog, live, key, schema, rows)


# -- subquery decomposition (INGRES-style) --------------------------------------------


def decompose_subqueries(
    stmt: SelectStmt, columns: Columns, load: Load, live: List[str], run: Run
) -> SelectStmt:
    """Replace uncorrelated subquery predicates with their results.

    The classic decomposition strategy: run each independent inner
    query first, substitute its answer as literals, then optimize the
    (now subquery-free) outer query.  Correlated subqueries are
    rejected (the inner query must plan standalone).
    """

    def substitute(expr: Expr) -> Expr:
        return substitute_subquery(expr, run)

    def rewrite(expr: Optional[Expr]) -> Optional[Expr]:
        if expr is None or not contains_subquery(expr):
            return expr
        return map_expr(expr, substitute)

    stmt = decorrelate(stmt, columns, load, live)
    changed = False
    where = rewrite(stmt.where)
    having = rewrite(stmt.having)
    joins = []
    for join in stmt.joins:
        condition = rewrite(join.condition)
        if condition is not join.condition:
            changed = True
            join = dc_replace(join, condition=condition)
        joins.append(join)
    if where is stmt.where and having is stmt.having and not changed:
        return stmt
    return dc_replace(stmt, joins=joins, where=where, having=having)


# -- correlated subqueries: semi-join decorrelation -----------------------------------


def decorrelate(stmt: SelectStmt, columns: Columns, load: Load, live: List[str]) -> SelectStmt:
    """Rewrite correlated ``IN``/``EXISTS`` conjuncts as semi-joins.

    The classic decorrelation: a top-level-conjunct subquery whose only
    references to the outer query are equality links becomes a join
    against the DISTINCT projection of the inner query over its link
    (and output) columns.  The inner query is materialized into a
    transient table first (decomposition), so the optimizer then sees a
    plain join.

    Unsupported shapes (negated forms, non-equality correlation,
    correlated aggregates, subqueries under OR) are left alone and fail
    later with a clear error if genuinely correlated.
    """
    if stmt.where is None:
        return stmt
    conjuncts = split_conjuncts(stmt.where)
    if not any(isinstance(c, SubqueryExpr) for c in conjuncts):
        return stmt

    outer_bindings = {
        ref.binding: ref.table
        for ref in list(stmt.from_tables) + [j.table for j in stmt.joins]
    }
    out_conjuncts: List[Any] = []
    extra_tables: List[TableRef] = []
    changed = False
    for conjunct in conjuncts:
        replacement = None
        if (
            isinstance(conjunct, SubqueryExpr)
            and not conjunct.negated
            and conjunct.kind in ("in", "exists")
        ):
            replacement = decorrelate_one(
                conjunct, outer_bindings, extra_tables, columns, load, live
            )
        if replacement is None:
            out_conjuncts.append(conjunct)
        else:
            out_conjuncts.extend(replacement)
            changed = True
    if not changed:
        return stmt
    return dc_replace(
        stmt,
        from_tables=list(stmt.from_tables) + extra_tables,
        where=conjoin(out_conjuncts),
    )


def decorrelate_one(
    sub: SubqueryExpr, outer_bindings: Dict[str, str], extra_tables: List[TableRef],
    columns: Columns, load: Load, live: List[str],
) -> Optional[List[Any]]:
    """Try to turn one correlated subquery conjunct into join conjuncts
    plus a transient FROM entry (appended to *extra_tables*).  Returns
    None when not applicable (including the uncorrelated case, which the
    literal-substitution path handles better)."""
    inner: SelectStmt = sub.payload
    if (
        inner.group_by
        or inner.having is not None
        or inner.order_by
        or inner.limit is not None
    ):
        return None
    if sub.kind == "in" and len(inner.items) != 1:
        return None
    inner_refs = list(inner.from_tables) + [j.table for j in inner.joins]
    inner_columns: Dict[str, int] = {}
    for ref in inner_refs:
        for column in columns(ref.table):
            inner_columns[column] = inner_columns.get(column, 0) + 1
    inner_bindings = {ref.binding for ref in inner_refs}

    def side_of(name: str) -> Optional[str]:
        if "." in name:
            qualifier = name.split(".", 1)[0]
            if qualifier in inner_bindings:
                return "inner"
            if qualifier in outer_bindings:
                return "outer"
            return None
        if inner_columns.get(name, 0) == 1:
            return "inner"
        if inner_columns.get(name, 0) > 1:
            return None  # ambiguous inside the subquery
        for table in outer_bindings.values():
            if name in columns(table):
                return "outer"
        return None

    pure_inner: List[Any] = []
    links: List[Any] = []  # (inner ColumnRef, outer ColumnRef)
    for conjunct in split_conjuncts(inner.where):
        refs = referenced_columns(conjunct)
        sides = {side_of(name) for name in refs}
        if None in sides:
            return None
        if sides <= {"inner"}:
            pure_inner.append(conjunct)
            continue
        classified = classify_conjunct(conjunct)
        if not isinstance(classified, ColEqCol):
            return None  # non-equality correlation: bail
        left_side = side_of(classified.left)
        right_side = side_of(classified.right)
        if {left_side, right_side} != {"inner", "outer"}:
            return None
        inner_name, outer_name = (
            (classified.left, classified.right)
            if left_side == "inner"
            else (classified.right, classified.left)
        )
        links.append((ColumnRef(inner_name), ColumnRef(outer_name)))
    if not links:
        return None  # uncorrelated: let literal substitution handle it

    # Build the inner DISTINCT projection over output + link columns.
    items: List[SelectItem] = []
    if sub.kind == "in":
        items.append(SelectItem(inner.items[0].expr, "__c0"))
    for i, (inner_col, _) in enumerate(links):
        items.append(SelectItem(inner_col, f"__l{i}"))
    derived = SelectStmt(
        items=items,
        from_tables=list(inner.from_tables),
        joins=list(inner.joins),
        where=conjoin(pure_inner),
        distinct=True,
    )
    alias = f"__dq{len(extra_tables)}_{len(live)}"
    table_name = load(derived, f"__decorr_{alias}")
    extra_tables.append(TableRef(table_name, alias))

    conjuncts_out: List[Any] = []
    if sub.kind == "in":
        conjuncts_out.append(eq(sub.operand, ColumnRef(f"{alias}.__c0")))
    for i, (_, outer_col) in enumerate(links):
        conjuncts_out.append(eq(ColumnRef(f"{alias}.__l{i}"), outer_col))
    return conjuncts_out


def substitute_subquery(expr: Expr, run: Run) -> Expr:
    if not isinstance(expr, SubqueryExpr):
        return expr
    inner: SelectStmt = expr.payload
    try:
        result = run(inner)
    except Exception as exc:
        raise EngineError(
            "subquery failed (correlated subqueries are not supported: "
            f"the inner query must run standalone): {exc}"
        ) from exc
    if expr.kind == "exists":
        return Literal(bool(result.rows) != expr.negated)
    if expr.kind == "scalar":
        if len(result.columns) != 1:
            raise EngineError("scalar subquery must return one column")
        if len(result.rows) > 1:
            raise EngineError("scalar subquery returned more than one row")
        value = result.rows[0][0] if result.rows else None
        return Literal(value)
    # 'in'
    if len(result.columns) != 1:
        raise EngineError("IN subquery must return exactly one column")
    values = {row[0] for row in result.rows if row[0] is not None}
    had_null = any(row[0] is None for row in result.rows)
    if not values and not had_null:
        return Literal(expr.negated)  # IN () = FALSE, NOT IN () = TRUE
    items = tuple(Literal(v) for v in sorted(values, key=repr))
    if had_null:
        items = items + (Literal(None),)
    return InList(expr.operand, items, expr.negated)
