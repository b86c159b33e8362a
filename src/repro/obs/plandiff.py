"""Operator-tree diffing for plan-change events (``EXPLAIN DIFF``).

Renders a unified-diff-style view of two physical plans' structural
shapes so a plan change reads like a code review: unchanged operators
keep their indentation, dropped operators are prefixed ``-``, new ones
``+``.  Accepts live plan objects (anything with ``describe()`` /
``children()``) or pre-rendered shape text, so baseline shapes that were
persisted as strings diff against freshly planned trees.
"""

from __future__ import annotations

import difflib
from typing import Any, List, Optional


def plan_shape_lines(plan: Any) -> List[str]:
    """Indented ``describe()`` lines for a plan tree — the shape text a
    statement's baseline keeps and plan diffs compare.  (The plan
    fingerprint is :func:`.querylog.plan_fingerprint`'s own walk.)"""
    lines: List[str] = []

    def walk(node: Any, depth: int) -> None:
        lines.append("  " * depth + node.describe())
        for child in node.children():
            walk(child, depth + 1)

    walk(plan, 0)
    return lines


def plan_shape_text(plan: Any) -> str:
    return "\n".join(plan_shape_lines(plan))


def _as_lines(plan: Any) -> List[str]:
    if plan is None:
        return []
    if isinstance(plan, str):
        return plan.splitlines()
    return plan_shape_lines(plan)


def plan_diff(
    old: Any,
    new: Any,
    old_cost: Optional[float] = None,
    new_cost: Optional[float] = None,
) -> str:
    """Line diff of two plans' operator trees.

    ``old``/``new`` may be physical plan nodes or shape text.  Identical
    plans render as the shape prefixed with spaces and a ``(plans are
    identical)`` note; otherwise removed lines get ``-`` and added lines
    ``+``, with a cost-delta header when both costs are supplied.
    """
    old_lines = _as_lines(old)
    new_lines = _as_lines(new)
    out: List[str] = []
    if old_cost is not None and new_cost is not None:
        delta = new_cost - old_cost
        sign = "+" if delta >= 0 else ""
        out.append(
            f"cost: {old_cost:.1f} -> {new_cost:.1f} ({sign}{delta:.1f})"
        )
    if old_lines == new_lines:
        out.extend("  " + line for line in old_lines)
        out.append("(plans are identical)")
        return "\n".join(out)
    matcher = difflib.SequenceMatcher(a=old_lines, b=new_lines, autojunk=False)
    for op, a0, a1, b0, b1 in matcher.get_opcodes():
        if op == "equal":
            out.extend("  " + line for line in old_lines[a0:a1])
        else:
            out.extend("- " + line for line in old_lines[a0:a1])
            out.extend("+ " + line for line in new_lines[b0:b1])
    return "\n".join(out)
