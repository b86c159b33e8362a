"""Expression trees.

Expressions are immutable and hashable, appear in WHERE/HAVING clauses,
projection lists and join conditions, and are shared freely between logical
plans (the rewriter never mutates a node; it builds new ones).

Node zoo: ColumnRef, Literal, Comparison, BoolOp (AND/OR over 2+ children),
Not, Arithmetic, IsNull, InList, Like, Between (desugared by the analyzer),
and Aggregate references (CountStar/AggCall) which only the aggregation
operator evaluates.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass, field
from typing import Any, Optional, Tuple


class ExprError(Exception):
    """Raised on malformed expressions or type errors."""


class Expr:
    """Base class.  Subclasses are frozen dataclasses."""

    def children(self) -> Tuple["Expr", ...]:
        return ()

    def __str__(self) -> str:  # pragma: no cover - overridden everywhere
        return repr(self)


class CmpOp(enum.Enum):
    EQ = "="
    NE = "<>"
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="

    def flip(self) -> "CmpOp":
        """The operator with operands swapped (a OP b  ==  b flip(OP) a)."""
        return {
            CmpOp.EQ: CmpOp.EQ,
            CmpOp.NE: CmpOp.NE,
            CmpOp.LT: CmpOp.GT,
            CmpOp.LE: CmpOp.GE,
            CmpOp.GT: CmpOp.LT,
            CmpOp.GE: CmpOp.LE,
        }[self]

    def negate(self) -> "CmpOp":
        return {
            CmpOp.EQ: CmpOp.NE,
            CmpOp.NE: CmpOp.EQ,
            CmpOp.LT: CmpOp.GE,
            CmpOp.LE: CmpOp.GT,
            CmpOp.GT: CmpOp.LE,
            CmpOp.GE: CmpOp.LT,
        }[self]


class BoolKind(enum.Enum):
    AND = "AND"
    OR = "OR"


class ArithOp(enum.Enum):
    ADD = "+"
    SUB = "-"
    MUL = "*"
    DIV = "/"
    MOD = "%"


#: What ``a OP b`` means for two non-NULL values.  The scalar compiler,
#: the kernels (on arrays: numpy applies the same operator elementwise)
#: and constant folding all read these two tables; NULL operands are the
#: caller's business and never reach them.
CMP_FNS = {
    CmpOp.EQ: operator.eq,
    CmpOp.NE: operator.ne,
    CmpOp.LT: operator.lt,
    CmpOp.LE: operator.le,
    CmpOp.GT: operator.gt,
    CmpOp.GE: operator.ge,
}

#: ``/`` and ``%`` by zero are NULL (SQL engines raise; we NULL, documented)
ARITH_FNS = {
    ArithOp.ADD: operator.add,
    ArithOp.SUB: operator.sub,
    ArithOp.MUL: operator.mul,
    ArithOp.DIV: lambda a, b: None if b == 0 else a / b,
    ArithOp.MOD: lambda a, b: None if b == 0 else a % b,
}


class AggFunc(enum.Enum):
    COUNT = "COUNT"
    SUM = "SUM"
    AVG = "AVG"
    MIN = "MIN"
    MAX = "MAX"


@dataclass(frozen=True)
class ColumnRef(Expr):
    """A (possibly qualified) column reference, resolved at plan-build time."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Literal(Expr):
    value: Any
    #: parameter slot, set when the plan cache lifted this literal out of
    #: a statement (``engine.cache``).  Part of equality and hash: two
    #: lifted literals never conflate through a set or a memo, even while
    #: their values coincide, so each slot can be rebound on its own.
    slot: Optional[int] = None

    def __str__(self) -> str:
        if isinstance(self.value, str):
            escaped = self.value.replace("'", "''")
            return f"'{escaped}'"
        if self.value is None:
            return "NULL"
        return str(self.value)


@dataclass(frozen=True)
class Comparison(Expr):
    op: CmpOp
    left: Expr
    right: Expr

    def children(self) -> Tuple[Expr, ...]:
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"({self.left} {self.op.value} {self.right})"


@dataclass(frozen=True)
class BoolOp(Expr):
    kind: BoolKind
    operands: Tuple[Expr, ...]

    def __post_init__(self):
        if len(self.operands) < 2:
            raise ExprError(f"{self.kind.value} needs at least two operands")

    def children(self) -> Tuple[Expr, ...]:
        return self.operands

    def __str__(self) -> str:
        sep = f" {self.kind.value} "
        return "(" + sep.join(str(o) for o in self.operands) + ")"


@dataclass(frozen=True)
class Not(Expr):
    operand: Expr

    def children(self) -> Tuple[Expr, ...]:
        return (self.operand,)

    def __str__(self) -> str:
        return f"(NOT {self.operand})"


@dataclass(frozen=True)
class Arithmetic(Expr):
    op: ArithOp
    left: Expr
    right: Expr

    def children(self) -> Tuple[Expr, ...]:
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"({self.left} {self.op.value} {self.right})"


@dataclass(frozen=True)
class Negate(Expr):
    """Unary minus."""

    operand: Expr

    def children(self) -> Tuple[Expr, ...]:
        return (self.operand,)

    def __str__(self) -> str:
        return f"(-{self.operand})"


@dataclass(frozen=True)
class IsNull(Expr):
    operand: Expr
    negated: bool = False

    def children(self) -> Tuple[Expr, ...]:
        return (self.operand,)

    def __str__(self) -> str:
        return f"({self.operand} IS {'NOT ' if self.negated else ''}NULL)"


@dataclass(frozen=True)
class InList(Expr):
    operand: Expr
    items: Tuple[Expr, ...]
    negated: bool = False

    def children(self) -> Tuple[Expr, ...]:
        return (self.operand,) + self.items

    def __str__(self) -> str:
        inner = ", ".join(str(i) for i in self.items)
        return f"({self.operand} {'NOT ' if self.negated else ''}IN ({inner}))"


@dataclass(frozen=True)
class Between(Expr):
    """``a BETWEEN lo AND hi`` — desugared to two comparisons by analysis."""

    operand: Expr
    low: Expr
    high: Expr
    negated: bool = False

    def children(self) -> Tuple[Expr, ...]:
        return (self.operand, self.low, self.high)

    def __str__(self) -> str:
        neg = "NOT " if self.negated else ""
        return f"({self.operand} {neg}BETWEEN {self.low} AND {self.high})"


@dataclass(frozen=True)
class Like(Expr):
    """SQL LIKE with ``%`` and ``_`` wildcards against a literal pattern."""

    operand: Expr
    pattern: str
    negated: bool = False

    def children(self) -> Tuple[Expr, ...]:
        return (self.operand,)

    def __str__(self) -> str:
        neg = "NOT " if self.negated else ""
        return f"({self.operand} {neg}LIKE '{self.pattern}')"


@dataclass(frozen=True)
class SubqueryExpr(Expr):
    """A subquery predicate: ``x IN (SELECT …)``, ``(SELECT …)`` scalar, or
    ``EXISTS (SELECT …)``.

    ``payload`` is the parsed SELECT statement (opaque here: the expression
    layer never interprets it).  Subquery expressions cannot be evaluated
    directly — the engine *decomposes* them first (INGRES-style): it runs
    the inner query and substitutes its result as literals.  Only
    uncorrelated subqueries are supported.
    """

    kind: str  # 'in' | 'scalar' | 'exists'
    operand: Optional[Expr]  # the left side for 'in', else None
    payload: Any = field(compare=False, hash=False)
    negated: bool = False

    def __post_init__(self):
        if self.kind not in ("in", "scalar", "exists"):
            raise ExprError(f"unknown subquery kind {self.kind!r}")
        if (self.operand is None) != (self.kind != "in"):
            raise ExprError("'in' subqueries need an operand; others none")

    def children(self) -> Tuple[Expr, ...]:
        return (self.operand,) if self.operand is not None else ()

    def __str__(self) -> str:
        if self.kind == "in":
            neg = "NOT " if self.negated else ""
            return f"({self.operand} {neg}IN (<subquery>))"
        if self.kind == "exists":
            neg = "NOT " if self.negated else ""
            return f"({neg}EXISTS (<subquery>))"
        return "(<scalar subquery>)"


@dataclass(frozen=True)
class AggCall(Expr):
    """An aggregate over an argument expression (``SUM(price * qty)``).

    Only valid inside SELECT/HAVING of a grouped query; the plan builder
    hoists these into the Aggregate operator and replaces them with column
    references to its output.
    """

    func: AggFunc
    arg: Optional[Expr]  # None only for COUNT(*)
    distinct: bool = False

    def children(self) -> Tuple[Expr, ...]:
        return (self.arg,) if self.arg is not None else ()

    def __str__(self) -> str:
        inner = "*" if self.arg is None else str(self.arg)
        d = "DISTINCT " if self.distinct else ""
        return f"{self.func.value}({d}{inner})"


# -- convenience constructors used heavily in tests & benchmarks -------------


def col(name: str) -> ColumnRef:
    return ColumnRef(name)


def lit(value: Any) -> Literal:
    return Literal(value)


def eq(left: Expr, right: Expr) -> Comparison:
    return Comparison(CmpOp.EQ, left, right)


def ne(left: Expr, right: Expr) -> Comparison:
    return Comparison(CmpOp.NE, left, right)


def lt(left: Expr, right: Expr) -> Comparison:
    return Comparison(CmpOp.LT, left, right)


def le(left: Expr, right: Expr) -> Comparison:
    return Comparison(CmpOp.LE, left, right)


def gt(left: Expr, right: Expr) -> Comparison:
    return Comparison(CmpOp.GT, left, right)


def ge(left: Expr, right: Expr) -> Comparison:
    return Comparison(CmpOp.GE, left, right)


def and_(*operands: Expr) -> Expr:
    flat = []
    for op in operands:
        if isinstance(op, BoolOp) and op.kind is BoolKind.AND:
            flat.extend(op.operands)
        else:
            flat.append(op)
    if len(flat) == 1:
        return flat[0]
    return BoolOp(BoolKind.AND, tuple(flat))


def or_(*operands: Expr) -> Expr:
    flat = []
    for op in operands:
        if isinstance(op, BoolOp) and op.kind is BoolKind.OR:
            flat.extend(op.operands)
        else:
            flat.append(op)
    if len(flat) == 1:
        return flat[0]
    return BoolOp(BoolKind.OR, tuple(flat))


def not_(operand: Expr) -> Not:
    return Not(operand)


def walk(expr: Expr):
    """Pre-order traversal of an expression tree."""
    yield expr
    for child in expr.children():
        yield from walk(child)
