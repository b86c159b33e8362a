"""Binding a cached physical plan to one statement's literals.

The plan cache (``engine.cache``) keeps one physical plan per statement
shape, planned from a statement whose literals carry parameter slots
(``Literal.slot``).  That plan is a *template*: it is never executed.
Every execution gets :meth:`PlanTemplate.bind` — a private copy of each
node (so per-node actuals belong to one result) in which the expressions
that still hold slotted literals are rebuilt around the new values.

Node copies are shallow and skip ``__post_init__``: schemas, tables,
indexes and slot-free expressions are shared with the template.
"""

from __future__ import annotations

from typing import Any, List, Sequence, Set, Tuple

from ..expr import Expr, Literal, map_expr, walk
from .plan import PhysicalPlan, walk_plan


def bind_expr(expr: Expr, params: Sequence[Any]) -> Expr:
    """*expr* with every slotted literal replaced by its parameter."""

    def bind(node: Expr) -> Expr:
        if type(node) is Literal and node.slot is not None:
            return Literal(params[node.slot], node.slot)
        return node

    return map_expr(expr, bind)


def _bind_value(value: Any, params: Sequence[Any]) -> Any:
    """Bind a plan-node attribute: an expression or a tuple nesting some
    (``PProject.exprs``, ``PSort.keys``' ``(expr, ascending)`` pairs)."""
    if isinstance(value, Expr):
        return bind_expr(value, params)
    if isinstance(value, tuple):
        return tuple(_bind_value(item, params) for item in value)
    return value


def slots_of(value: Any) -> Set[int]:
    """The parameter slots under a plan-node attribute (see
    :func:`_bind_value` for the shapes understood)."""
    if isinstance(value, Expr):
        return {
            node.slot
            for node in walk(value)
            if type(node) is Literal and node.slot is not None
        }
    if isinstance(value, tuple):
        out: Set[int] = set()
        for item in value:
            out |= slots_of(item)
        return out
    return set()


class PlanTemplate:
    """A physical plan prepared for repeated binding.

    ``nodes`` is the plan in pre-order; ``slots`` the parameter slots that
    survived planning somewhere in it — a slot missing here was folded
    away or dropped, and the plan is only valid for that slot's value.
    """

    def __init__(self, plan: PhysicalPlan):
        self.nodes: List[PhysicalPlan] = list(walk_plan(plan))
        position = {id(node): i for i, node in enumerate(self.nodes)}
        #: (parent, attribute, child) positions: how copies are re-linked
        self._links: List[Tuple[int, str, int]] = []
        #: (node, attribute, value) for every attribute holding a slot
        self._slotted: List[Tuple[int, str, Any]] = []
        self.slots: Set[int] = set()
        for i, node in enumerate(self.nodes):
            for attr, value in vars(node).items():
                if isinstance(value, PhysicalPlan):
                    self._links.append((i, attr, position[id(value)]))
                    continue
                found = slots_of(value)
                if found:
                    self._slotted.append((i, attr, value))
                    self.slots |= found

    def bind(self, params: Sequence[Any]) -> List[PhysicalPlan]:
        """Private copies of every node, in ``nodes`` order (the root is
        first), with slotted expressions bound to *params*."""
        copies: List[PhysicalPlan] = []
        for node in self.nodes:
            twin = object.__new__(type(node))
            twin.__dict__.update(node.__dict__)
            copies.append(twin)
        for parent, attr, child in self._links:
            setattr(copies[parent], attr, copies[child])
        for i, attr, value in self._slotted:
            setattr(copies[i], attr, _bind_value(value, params))
        return copies
