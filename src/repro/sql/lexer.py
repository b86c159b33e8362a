"""SQL tokenizer.

Produces a flat token stream for the recursive-descent parser.  Token kinds:
KEYWORD (upper-cased), IDENT (case-preserved), NUMBER (int/float literal),
STRING (single-quoted, '' escapes), SYMBOL (punctuation/operators), EOF.
"""

from __future__ import annotations

import re
from typing import List

KEYWORDS = {
    "SELECT", "FROM", "WHERE", "AND", "OR", "NOT", "AS", "JOIN", "INNER",
    "ON", "GROUP", "BY", "HAVING", "ORDER", "ASC", "DESC", "LIMIT",
    "DISTINCT", "INSERT", "INTO", "VALUES", "CREATE", "TABLE", "INDEX",
    "UNIQUE", "CLUSTERED", "USING", "BTREE", "HASH", "ANALYZE", "EXPLAIN",
    "NULL", "TRUE", "FALSE", "IS", "IN", "LIKE", "BETWEEN", "COUNT", "SUM",
    "AVG", "MIN", "MAX", "PRIMARY", "KEY", "DROP", "CROSS", "DELETE",
    "UPDATE", "SET", "EXISTS", "VIEW", "ANALYSE", "VERBOSE", "SEARCH",
    "DIFF", "BEGIN", "COMMIT", "ROLLBACK", "TRANSACTION", "WORK",
    "CHECKPOINT",
}

SYMBOLS = [
    "<=", ">=", "<>", "!=", "=", "<", ">", "(", ")", ",", "*", "+", "-",
    "/", "%", ".", ";",
]

#: the blanks and comments before a token, then the token.  The order of
#: the alternatives is the tokenizer: a number before the ``.`` symbol,
#: ``SYMBOLS`` longest first, and last whatever character begins none.
_TOKEN = re.compile(
    r"(?:\s+|--[^\n]*\n?)*"
    r"(?:(?P<word>[^\W\d]\w*)"
    r"|(?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<string>'(?:[^']|'')*')"
    r"|(?P<symbol>" + "|".join(map(re.escape, SYMBOLS)) + ")"
    r"|(?P<end>\Z)"
    r"|(?P<other>.))",
    re.DOTALL,
)


class LexError(Exception):
    """Raised on characters the tokenizer cannot interpret."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class Token:
    """*position* is where a word or a symbol starts, and where a string
    or a number ends.  *spaced* says blanks or a comment came before it:
    layout, so not part of a token's identity, and what the statement
    fingerprint (``obs.statements``) turns into one space."""

    __slots__ = ("kind", "value", "position", "spaced")

    def __init__(self, kind: str, value: object, position: int, spaced: bool = False):
        self.kind = kind  # KEYWORD | IDENT | NUMBER | STRING | SYMBOL | EOF
        self.value = value
        self.position = position
        self.spaced = spaced

    def _key(self):
        return (self.kind, self.value, self.position)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Token) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"Token({self.kind!r}, {self.value!r}, {self.position})"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.kind}({self.value!r})"


def tokenize(sql: str) -> List[Token]:
    tokens: List[Token] = []
    append = tokens.append
    keywords = KEYWORDS
    n = len(sql)
    last = 0  # where the previous token ended: matches are contiguous
    for m in _TOKEN.finditer(sql):
        kind = m.lastgroup
        text = m[kind]
        end = m.end()
        start = end - len(text)
        spaced = start != last
        last = end
        if kind == "word":
            upper = text.upper()
            if upper in keywords:
                append(Token("KEYWORD", upper, start, spaced))
            else:
                append(Token("IDENT", text, start, spaced))
        elif kind == "symbol":
            value = "<>" if text == "!=" else text
            append(Token("SYMBOL", value, start, spaced))
        elif kind == "number":
            value = int(text) if text.isdigit() else float(text)
            append(Token("NUMBER", value, end, spaced))
        elif kind == "string":
            # the pattern backs off a trailing '' it could not close, so a
            # literal with a quote right behind it never closed
            if sql.startswith("'", end):
                raise LexError("unterminated string literal", n)
            append(Token("STRING", text[1:-1].replace("''", "'"), end, spaced))
        elif kind == "other":
            if text == "'":
                raise LexError("unterminated string literal", n)
            raise LexError(f"unexpected character {text!r}", end - 1)
    append(Token("EOF", None, n))
    return tokens
