"""Recursive-descent SQL parser.

Expression precedence (loosest to tightest)::

    OR < AND < NOT < comparison | IS | IN | LIKE | BETWEEN < + - < * / % < unary

The parser emits engine expressions (:mod:`repro.expr.nodes`) directly.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..expr.nodes import (
    AggCall,
    AggFunc,
    Arithmetic,
    ArithOp,
    Between,
    CmpOp,
    ColumnRef,
    Comparison,
    Expr,
    InList,
    IsNull,
    Like,
    Literal,
    Negate,
    Not,
    SubqueryExpr,
    and_,
    or_,
)
from ..types import parse_type
from .ast import (
    AnalyzeStmt,
    BeginStmt,
    CheckpointStmt,
    ColumnDef,
    CommitStmt,
    RollbackStmt,
    CreateIndexStmt,
    CreateTableStmt,
    CreateViewStmt,
    DeleteStmt,
    DropTableStmt,
    DropViewStmt,
    ExplainStmt,
    InsertStmt,
    JoinClause,
    OrderItem,
    SelectItem,
    SelectStmt,
    Statement,
    TableRef,
    UpdateStmt,
)
from .lexer import Token, tokenize

_AGG_KEYWORDS = {"COUNT", "SUM", "AVG", "MIN", "MAX"}

_CMP_SYMBOLS = {
    "=": CmpOp.EQ,
    "<>": CmpOp.NE,
    "<": CmpOp.LT,
    "<=": CmpOp.LE,
    ">": CmpOp.GT,
    ">=": CmpOp.GE,
}


class ParseError(Exception):
    """Raised on syntax errors, with the offending token position."""

    def __init__(self, message: str, token: Token):
        super().__init__(f"{message} (near offset {token.position})")
        self.token = token


def parse(sql: str) -> Statement:
    """Parse one SQL statement (trailing ``;`` allowed)."""
    parser = _Parser(tokenize(sql))
    stmt = parser.statement()
    parser.accept_symbol(";")
    parser.expect_eof()
    return stmt


def parse_expression(sql: str) -> Expr:
    """Parse a standalone scalar expression (used by tests and the REPL)."""
    parser = _Parser(tokenize(sql))
    expr = parser.expression()
    parser.expect_eof()
    return expr


class _Parser:
    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        self.pos = 0

    # -- token plumbing ---------------------------------------------------------

    @property
    def current(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.current
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def at_keyword(self, *words: str) -> bool:
        return self.current.kind == "KEYWORD" and self.current.value in words

    def accept_keyword(self, *words: str) -> bool:
        if self.at_keyword(*words):
            self.advance()
            return True
        return False

    def expect_keyword(self, word: str) -> None:
        if not self.accept_keyword(word):
            raise ParseError(f"expected {word}, got {self.current}", self.current)

    def at_symbol(self, sym: str) -> bool:
        return self.current.kind == "SYMBOL" and self.current.value == sym

    def accept_symbol(self, sym: str) -> bool:
        if self.at_symbol(sym):
            self.advance()
            return True
        return False

    def expect_symbol(self, sym: str) -> None:
        if not self.accept_symbol(sym):
            raise ParseError(
                f"expected {sym!r}, got {self.current}", self.current
            )

    def expect_ident(self) -> str:
        if self.current.kind == "IDENT":
            return str(self.advance().value)
        raise ParseError(f"expected identifier, got {self.current}", self.current)

    def expect_eof(self) -> None:
        if self.current.kind != "EOF":
            raise ParseError(f"unexpected trailing {self.current}", self.current)

    # -- statements --------------------------------------------------------------

    def statement(self) -> Statement:
        if self.at_keyword("SELECT"):
            return self.select()
        if self.at_keyword("EXPLAIN"):
            self.advance()
            return self._explain_tail()
        if self.at_keyword("CREATE"):
            return self.create()
        if self.at_keyword("DROP"):
            self.advance()
            if self.accept_keyword("VIEW"):
                return DropViewStmt(self.expect_ident())
            self.expect_keyword("TABLE")
            return DropTableStmt(self.expect_ident())
        if self.at_keyword("INSERT"):
            return self.insert()
        if self.at_keyword("DELETE"):
            self.advance()
            self.expect_keyword("FROM")
            table = self.expect_ident()
            where = None
            if self.accept_keyword("WHERE"):
                where = self.expression()
            return DeleteStmt(table, where)
        if self.at_keyword("UPDATE"):
            return self.update()
        if self.at_keyword("ANALYZE"):
            self.advance()
            if self.current.kind == "IDENT":
                return AnalyzeStmt(self.expect_ident())
            return AnalyzeStmt(None)
        if self.accept_keyword("BEGIN"):
            self.accept_keyword("TRANSACTION", "WORK")
            return BeginStmt()
        if self.accept_keyword("COMMIT"):
            self.accept_keyword("TRANSACTION", "WORK")
            return CommitStmt()
        if self.accept_keyword("ROLLBACK"):
            self.accept_keyword("TRANSACTION", "WORK")
            return RollbackStmt()
        if self.accept_keyword("CHECKPOINT"):
            return CheckpointStmt()
        raise ParseError(f"unexpected {self.current}", self.current)

    def _explain_tail(self) -> ExplainStmt:
        """EXPLAIN options: parenthesized PostgreSQL-style list
        ``EXPLAIN (ANALYZE, VERBOSE, SEARCH)`` or the bare keyword form
        ``EXPLAIN ANALYZE VERBOSE SEARCH`` — both precede the SELECT."""
        analyze = verbose = search = diff = False

        def accept_option() -> bool:
            nonlocal analyze, verbose, search, diff
            if self.accept_keyword("ANALYZE", "ANALYSE"):
                analyze = True
            elif self.accept_keyword("VERBOSE"):
                verbose = True
            elif self.accept_keyword("SEARCH"):
                search = True
            elif self.accept_keyword("DIFF"):
                diff = True
            else:
                return False
            return True

        if self.accept_symbol("("):
            first = True
            while not self.at_symbol(")"):
                if not first:
                    self.accept_symbol(",")  # separator is optional
                if not accept_option():
                    raise ParseError(
                        f"unknown EXPLAIN option {self.current}", self.current
                    )
                first = False
            self.expect_symbol(")")
        else:
            while accept_option():
                pass
        inner = self.select()
        return ExplainStmt(
            inner, analyze, verbose=verbose, search=search, diff=diff
        )

    def select(self) -> SelectStmt:
        self.expect_keyword("SELECT")
        distinct = self.accept_keyword("DISTINCT")
        items = [self.select_item()]
        while self.accept_symbol(","):
            items.append(self.select_item())
        stmt = SelectStmt(items=items, distinct=distinct)
        if self.accept_keyword("FROM"):
            stmt.from_tables.append(self.table_ref())
            while True:
                if self.accept_symbol(","):
                    stmt.from_tables.append(self.table_ref())
                    continue
                if self.at_keyword("JOIN", "INNER", "CROSS"):
                    cross = self.accept_keyword("CROSS")
                    self.accept_keyword("INNER")
                    self.expect_keyword("JOIN")
                    table = self.table_ref()
                    condition = None
                    if not cross and self.accept_keyword("ON"):
                        condition = self.expression()
                    elif not cross:
                        raise ParseError(
                            "JOIN requires ON (use CROSS JOIN otherwise)",
                            self.current,
                        )
                    stmt.joins.append(JoinClause(table, condition))
                    continue
                break
        if self.accept_keyword("WHERE"):
            stmt.where = self.expression()
        if self.accept_keyword("GROUP"):
            self.expect_keyword("BY")
            stmt.group_by.append(self.expression())
            while self.accept_symbol(","):
                stmt.group_by.append(self.expression())
        if self.accept_keyword("HAVING"):
            stmt.having = self.expression()
        if self.accept_keyword("ORDER"):
            self.expect_keyword("BY")
            stmt.order_by.append(self.order_item())
            while self.accept_symbol(","):
                stmt.order_by.append(self.order_item())
        if self.accept_keyword("LIMIT"):
            tok = self.current
            if tok.kind != "NUMBER" or not isinstance(tok.value, int):
                raise ParseError("LIMIT expects an integer", tok)
            self.advance()
            stmt.limit = tok.value
        return stmt

    def select_item(self) -> SelectItem:
        if self.accept_symbol("*"):
            return SelectItem(None)
        # t.* : IDENT '.' '*'
        if (
            self.current.kind == "IDENT"
            and self.pos + 2 < len(self.tokens)
            and self.tokens[self.pos + 1].kind == "SYMBOL"
            and self.tokens[self.pos + 1].value == "."
            and self.tokens[self.pos + 2].kind == "SYMBOL"
            and self.tokens[self.pos + 2].value == "*"
        ):
            qualifier = self.expect_ident()
            self.advance()  # .
            self.advance()  # *
            return SelectItem(None, star_qualifier=qualifier)
        expr = self.expression()
        alias = None
        if self.accept_keyword("AS"):
            alias = self.expect_ident()
        elif self.current.kind == "IDENT":
            alias = self.expect_ident()
        return SelectItem(expr, alias)

    def table_ref(self) -> TableRef:
        table = self.expect_ident()
        alias = None
        if self.accept_keyword("AS"):
            alias = self.expect_ident()
        elif self.current.kind == "IDENT":
            alias = self.expect_ident()
        return TableRef(table, alias)

    def order_item(self) -> OrderItem:
        expr = self.expression()
        ascending = True
        if self.accept_keyword("DESC"):
            ascending = False
        else:
            self.accept_keyword("ASC")
        return OrderItem(expr, ascending)

    def create(self) -> Statement:
        self.expect_keyword("CREATE")
        if self.accept_keyword("TABLE"):
            return self.create_table()
        if self.accept_keyword("VIEW"):
            name = self.expect_ident()
            self.expect_keyword("AS")
            start = self.current.position
            inner = self.select()
            return CreateViewStmt(name, inner)
        clustered = self.accept_keyword("CLUSTERED")
        unique = self.accept_keyword("UNIQUE")  # parsed, treated as plain
        del unique
        if self.accept_keyword("INDEX"):
            return self.create_index(clustered)
        raise ParseError(f"expected TABLE or INDEX, got {self.current}", self.current)

    def create_table(self) -> CreateTableStmt:
        table = self.expect_ident()
        self.expect_symbol("(")
        columns = [self.column_def()]
        while self.accept_symbol(","):
            columns.append(self.column_def())
        self.expect_symbol(")")
        return CreateTableStmt(table, columns)

    def column_def(self) -> ColumnDef:
        name = self.expect_ident()
        tok = self.advance()
        if tok.kind not in ("IDENT", "KEYWORD"):
            raise ParseError(f"expected type name, got {tok}", tok)
        dtype = parse_type(str(tok.value))
        nullable = True
        primary_key = False
        while True:
            if self.accept_keyword("NOT"):
                self.expect_keyword("NULL")
                nullable = False
                continue
            if self.accept_keyword("PRIMARY"):
                self.expect_keyword("KEY")
                primary_key = True
                nullable = False
                continue
            break
        return ColumnDef(name, dtype, nullable, primary_key)

    def create_index(self, clustered: bool) -> CreateIndexStmt:
        name = self.expect_ident()
        self.expect_keyword("ON")
        table = self.expect_ident()
        self.expect_symbol("(")
        columns = [self.expect_ident()]
        while self.accept_symbol(","):
            columns.append(self.expect_ident())
        self.expect_symbol(")")
        if self.accept_keyword("USING"):
            # every index is a B+-tree; HASH stays a spelling of it so the
            # DDL text in old WALs keeps parsing
            tok = self.advance()
            if str(tok.value).lower() not in ("btree", "hash"):
                raise ParseError(f"unknown index kind {tok.value!r}", tok)
        return CreateIndexStmt(name, table, columns, clustered)

    def insert(self) -> InsertStmt:
        self.expect_keyword("INSERT")
        self.expect_keyword("INTO")
        table = self.expect_ident()
        columns: Optional[List[str]] = None
        if self.accept_symbol("("):
            columns = [self.expect_ident()]
            while self.accept_symbol(","):
                columns.append(self.expect_ident())
            self.expect_symbol(")")
        self.expect_keyword("VALUES")
        rows: List[Tuple[Expr, ...]] = [self.value_row()]
        while self.accept_symbol(","):
            rows.append(self.value_row())
        return InsertStmt(table, columns, rows)

    def update(self) -> "UpdateStmt":
        self.expect_keyword("UPDATE")
        table = self.expect_ident()
        self.expect_keyword("SET")
        assignments = [self.assignment()]
        while self.accept_symbol(","):
            assignments.append(self.assignment())
        where = None
        if self.accept_keyword("WHERE"):
            where = self.expression()
        return UpdateStmt(table, assignments, where)

    def assignment(self) -> Tuple[str, Expr]:
        column = self.expect_ident()
        self.expect_symbol("=")
        return column, self.expression()

    def value_row(self) -> Tuple[Expr, ...]:
        self.expect_symbol("(")
        values = [self.expression()]
        while self.accept_symbol(","):
            values.append(self.expression())
        self.expect_symbol(")")
        return tuple(values)

    # -- expressions ------------------------------------------------------------------

    def expression(self) -> Expr:
        return self.or_expr()

    def or_expr(self) -> Expr:
        left = self.and_expr()
        while self.accept_keyword("OR"):
            left = or_(left, self.and_expr())
        return left

    def and_expr(self) -> Expr:
        left = self.not_expr()
        while self.accept_keyword("AND"):
            left = and_(left, self.not_expr())
        return left

    def not_expr(self) -> Expr:
        if self.accept_keyword("NOT"):
            inner = self.not_expr()
            if isinstance(inner, SubqueryExpr) and inner.kind == "exists":
                return SubqueryExpr(
                    "exists", None, inner.payload, not inner.negated
                )
            return Not(inner)
        if self.at_keyword("EXISTS"):
            self.advance()
            self.expect_symbol("(")
            sub = self.select()
            self.expect_symbol(")")
            return SubqueryExpr("exists", None, sub)
        return self.predicate()

    def predicate(self) -> Expr:
        left = self.additive()
        tok = self.current
        if tok.kind == "SYMBOL" and tok.value in _CMP_SYMBOLS:
            self.advance()
            right = self.additive()
            return Comparison(_CMP_SYMBOLS[str(tok.value)], left, right)
        if self.accept_keyword("IS"):
            negated = self.accept_keyword("NOT")
            self.expect_keyword("NULL")
            return IsNull(left, negated)
        negated = False
        if self.at_keyword("NOT"):
            nxt = self.tokens[self.pos + 1]
            if nxt.kind == "KEYWORD" and nxt.value in ("IN", "LIKE", "BETWEEN"):
                self.advance()
                negated = True
        if self.accept_keyword("IN"):
            self.expect_symbol("(")
            if self.at_keyword("SELECT"):
                inner = self.select()
                self.expect_symbol(")")
                return SubqueryExpr("in", left, inner, negated)
            items = [self.expression()]
            while self.accept_symbol(","):
                items.append(self.expression())
            self.expect_symbol(")")
            return InList(left, tuple(items), negated)
        if self.accept_keyword("LIKE"):
            tok = self.current
            if tok.kind != "STRING":
                raise ParseError("LIKE expects a string literal", tok)
            self.advance()
            return Like(left, str(tok.value), negated)
        if self.accept_keyword("BETWEEN"):
            low = self.additive()
            self.expect_keyword("AND")
            high = self.additive()
            return Between(left, low, high, negated)
        return left

    def additive(self) -> Expr:
        left = self.multiplicative()
        while True:
            if self.accept_symbol("+"):
                left = Arithmetic(ArithOp.ADD, left, self.multiplicative())
            elif self.accept_symbol("-"):
                left = Arithmetic(ArithOp.SUB, left, self.multiplicative())
            else:
                return left

    def multiplicative(self) -> Expr:
        left = self.unary()
        while True:
            if self.accept_symbol("*"):
                left = Arithmetic(ArithOp.MUL, left, self.unary())
            elif self.accept_symbol("/"):
                left = Arithmetic(ArithOp.DIV, left, self.unary())
            elif self.accept_symbol("%"):
                left = Arithmetic(ArithOp.MOD, left, self.unary())
            else:
                return left

    def unary(self) -> Expr:
        if self.accept_symbol("-"):
            inner = self.unary()
            if isinstance(inner, Literal) and isinstance(
                inner.value, (int, float)
            ):
                return Literal(-inner.value)
            return Negate(inner)
        if self.accept_symbol("+"):
            return self.unary()
        return self.primary()

    def primary(self) -> Expr:
        tok = self.current
        if tok.kind == "NUMBER":
            self.advance()
            return Literal(tok.value)
        if tok.kind == "STRING":
            self.advance()
            return Literal(tok.value)
        if tok.kind == "KEYWORD":
            if tok.value == "NULL":
                self.advance()
                return Literal(None)
            if tok.value == "TRUE":
                self.advance()
                return Literal(True)
            if tok.value == "FALSE":
                self.advance()
                return Literal(False)
            if tok.value in _AGG_KEYWORDS:
                return self.agg_call()
        if tok.kind == "SYMBOL" and tok.value == "(":
            self.advance()
            if self.at_keyword("SELECT"):
                sub = self.select()
                self.expect_symbol(")")
                return SubqueryExpr("scalar", None, sub)
            inner = self.expression()
            self.expect_symbol(")")
            return inner
        if tok.kind == "IDENT":
            name = self.expect_ident()
            if self.accept_symbol("."):
                part = self.expect_ident()
                return ColumnRef(f"{name}.{part}")
            return ColumnRef(name)
        raise ParseError(f"unexpected {tok}", tok)

    def agg_call(self) -> Expr:
        func = AggFunc(str(self.advance().value))
        self.expect_symbol("(")
        if func is AggFunc.COUNT and self.accept_symbol("*"):
            self.expect_symbol(")")
            return AggCall(AggFunc.COUNT, None)
        distinct = self.accept_keyword("DISTINCT")
        arg = self.expression()
        self.expect_symbol(")")
        return AggCall(func, arg, distinct)
