"""Views: definition storage, view merging, and materialization fallback.

Two classic evaluation strategies, chosen per use:

* **View merging** — when the view is a simple select-project-filter over
  base tables (or other mergeable views), its FROM entries and WHERE
  conjuncts are spliced into the referencing query under fresh binding
  names, and references to the view's output columns are rewritten to the
  underlying expressions.  The optimizer then sees one flat join region —
  view usage costs nothing.
* **Materialization** — views the merger cannot flatten (aggregates,
  DISTINCT, ORDER BY/LIMIT, expression outputs) are executed and loaded
  into a transient table which the outer query references.  This is
  decomposition again: answer the inner query first, then optimize the
  rest.

The expander rewrites the AST before planning, so every planner strategy
benefits identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from dataclasses import replace as dc_replace
from typing import Callable, Dict, List, Optional, Tuple

from ..expr import ColumnRef, Expr, conjoin, map_expr
from ..sql.ast import JoinClause, SelectItem, SelectStmt, TableRef


class ViewError(Exception):
    """Raised for invalid view definitions or unsupported references."""


@dataclass
class ViewDef:
    name: str
    select: SelectStmt
    sql: str  # original definition text, for display


def is_mergeable(view: SelectStmt) -> bool:
    """Simple select-project-filter views can be merged in place."""
    if (
        view.group_by
        or view.having is not None
        or view.order_by
        or view.limit is not None
        or view.distinct
    ):
        return False
    for item in view.items:
        if item.is_star:
            continue
        if not isinstance(item.expr, ColumnRef):
            return False
    return True


class ViewExpander:
    """Rewrites statements so no view names remain in FROM."""

    def __init__(
        self,
        views: Dict[str, ViewDef],
        materialize: Callable[[SelectStmt, str], str],
        table_columns: Callable[[str], List[str]],
    ):
        self.views = views
        self.materialize = materialize
        self.table_columns = table_columns
        self._counter = 0

    def expand(self, stmt: SelectStmt, depth: int = 0) -> SelectStmt:
        if depth > 16:
            raise ViewError("view nesting too deep (cycle?)")
        refs = list(stmt.from_tables) + [j.table for j in stmt.joins]
        if not any(self._is_view(r.table) for r in refs):
            return stmt

        out = dc_replace(
            stmt,
            items=list(stmt.items),
            from_tables=[],
            joins=[],
            group_by=list(stmt.group_by),
            order_by=list(stmt.order_by),
        )
        extra_where: List[Expr] = []
        renames: List[Tuple[str, Dict[str, Expr], List[str]]] = []

        def place(ref: TableRef, condition: Optional[Expr], from_join: bool):
            if self._is_view(ref.table):
                view = self.views[ref.table.lower()]
                inner = self.expand(view.select, depth + 1)
                if is_mergeable(inner):
                    mapping, names = self._merge(
                        inner, ref.binding, out, extra_where, from_join, condition
                    )
                    renames.append((ref.binding, mapping, names))
                    return
                ref = TableRef(self._materialize_view(view, inner), ref.binding)
            if from_join:
                out.joins.append(JoinClause(ref, condition))
            else:
                out.from_tables.append(ref)

        for ref in stmt.from_tables:
            place(ref, None, from_join=False)
        for join in stmt.joins:
            place(join.table, join.condition, from_join=True)

        if renames:
            out_stmt = self._rename_outer(out, renames)
        else:
            out_stmt = out
        if extra_where:
            outer = [] if out_stmt.where is None else [out_stmt.where]
            out_stmt.where = conjoin(outer + extra_where)
        return out_stmt

    def _is_view(self, name: str) -> bool:
        return name.lower() in self.views

    def _merge(
        self,
        inner: SelectStmt,
        binding: str,
        out: SelectStmt,
        extra_where: List[Expr],
        from_join: bool,
        condition: Optional[Expr],
    ) -> Tuple[Dict[str, Expr], List[str]]:
        """Splice a mergeable view body into *out* under fresh bindings.

        Returns the mapping from the view's output column names to the
        rewritten underlying expressions, plus the output name list.
        """
        fresh: Dict[str, str] = {}
        inner_refs = list(inner.from_tables) + [j.table for j in inner.joins]
        for ref in inner_refs:
            fresh[ref.binding] = self._fresh_binding(binding, ref.binding)

        def rename_inner(expr: Expr) -> Expr:
            return map_expr(expr, lambda e: self._rename_columns(e, fresh, inner_refs))

        first = True
        for ref in inner.from_tables:
            new_ref = TableRef(ref.table, fresh[ref.binding])
            if from_join and first:
                out.joins.append(JoinClause(new_ref, condition))
            elif from_join:
                out.joins.append(JoinClause(new_ref, None))
            else:
                out.from_tables.append(new_ref)
            first = False
        for join in inner.joins:
            new_ref = TableRef(join.table.table, fresh[join.table.binding])
            cond = (
                rename_inner(join.condition)
                if join.condition is not None
                else None
            )
            out.joins.append(JoinClause(new_ref, cond))
        if inner.where is not None:
            extra_where.append(rename_inner(inner.where))

        # Build output-name -> expression mapping.
        mapping: Dict[str, Expr] = {}
        names: List[str] = []
        for item in inner.items:
            if item.is_star:
                for ref in inner_refs:
                    if (
                        item.star_qualifier is not None
                        and ref.binding != item.star_qualifier
                    ):
                        continue
                    for column in self.table_columns(ref.table):
                        if column in mapping:
                            continue
                        mapping[column] = ColumnRef(
                            f"{fresh[ref.binding]}.{column}"
                        )
                        names.append(column)
                continue
            assert isinstance(item.expr, ColumnRef)
            name = item.alias or item.expr.name.split(".")[-1]
            mapping[name] = rename_inner(item.expr)
            names.append(name)
        return mapping, names

    def _fresh_binding(self, outer: str, inner: str) -> str:
        self._counter += 1
        return f"__{outer}_{inner}{self._counter}"

    def _rename_columns(
        self, expr: Expr, fresh: Dict[str, str], inner_refs: List[TableRef]
    ) -> Expr:
        if not isinstance(expr, ColumnRef):
            return expr
        name = expr.name
        if "." in name:
            qualifier, bare = name.split(".", 1)
            if qualifier in fresh:
                return ColumnRef(f"{fresh[qualifier]}.{bare}")
            return expr
        # bare name inside the view: qualify against its FROM tables
        hits = [
            ref
            for ref in inner_refs
            if name in self.table_columns(ref.table)
        ]
        if len(hits) == 1:
            return ColumnRef(f"{fresh[hits[0].binding]}.{name}")
        if len(hits) > 1:
            raise ViewError(f"ambiguous column {name!r} in view body")
        return expr

    def _rename_outer(
        self,
        stmt: SelectStmt,
        renames: List[Tuple[str, Dict[str, Expr], List[str]]],
    ) -> SelectStmt:
        """Rewrite outer references to merged views' columns."""
        qualified: Dict[str, Expr] = {}
        bare: Dict[str, List[Expr]] = {}
        star_map: Dict[str, List[Tuple[str, Expr]]] = {}
        for binding, mapping, names in renames:
            star_map[binding] = [(n, mapping[n]) for n in names]
            for name, target in mapping.items():
                qualified[f"{binding}.{name}"] = target
                bare.setdefault(name, []).append(target)

        def rewrite_ref(expr: Expr) -> Expr:
            if not isinstance(expr, ColumnRef):
                return expr
            if expr.name in qualified:
                return qualified[expr.name]
            if "." not in expr.name:
                targets = bare.get(expr.name, [])
                if len(targets) == 1:
                    return targets[0]
                if len(targets) > 1:
                    raise ViewError(
                        f"ambiguous column {expr.name!r} across merged views"
                    )
            return expr

        def rewrite(expr: Optional[Expr]) -> Optional[Expr]:
            if expr is None:
                return None
            return map_expr(expr, rewrite_ref)

        items: List[SelectItem] = []
        for item in stmt.items:
            if item.is_star:
                if item.star_qualifier in star_map:
                    for name, target in star_map[item.star_qualifier]:
                        items.append(SelectItem(target, name))
                    continue
                if item.star_qualifier is None and star_map:
                    # bare *: expand merged views in place, keep the rest
                    for ref_binding, pairs in star_map.items():
                        for name, target in pairs:
                            items.append(SelectItem(target, name))
                    # plus every other table's columns: the tables a
                    # merge spliced in (its fresh ``__`` bindings) are the
                    # views' internals, already expanded above
                    for ref in list(stmt.from_tables) + [j.table for j in stmt.joins]:
                        if ref.binding.startswith("__"):
                            continue
                        for column in self.table_columns(ref.table):
                            items.append(
                                SelectItem(
                                    ColumnRef(f"{ref.binding}.{column}"),
                                    column,
                                )
                            )
                    continue
                items.append(item)
                continue
            new_expr = rewrite(item.expr)
            alias = item.alias
            if (
                alias is None
                and new_expr is not item.expr
                and isinstance(item.expr, ColumnRef)
            ):
                # keep the user-visible name the view exposed
                alias = item.expr.name.split(".")[-1]
            items.append(SelectItem(new_expr, alias, None))

        out = dc_replace(
            stmt,
            items=items,
            joins=[
                JoinClause(j.table, rewrite(j.condition)) for j in stmt.joins
            ],
            where=rewrite(stmt.where),
            group_by=[rewrite(g) for g in stmt.group_by],
            having=rewrite(stmt.having),
            order_by=[
                type(o)(rewrite(o.expr), o.ascending) for o in stmt.order_by
            ],
        )
        return out

    def _materialize_view(self, view: ViewDef, inner: SelectStmt) -> str:
        self._counter += 1
        return self.materialize(inner, f"__view_{view.name}_{self._counter}")
