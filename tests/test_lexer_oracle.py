"""The one-regex tokenizer against the character loop it replaced.

The loop below is the tokenizer as it stood before ISSUE 21, kept here as
the reference: for any text over the SQL alphabet the two must produce
the same tokens (kind, value, position) or raise the same ``LexError``
(message and offset).
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sql.lexer import KEYWORDS, SYMBOLS, LexError, Token, tokenize


def reference_tokens(sql):
    i = 0
    n = len(sql)
    while i < n:
        ch = sql[i]
        if ch.isspace():
            i += 1
            continue
        if sql.startswith("--", i):
            nl = sql.find("\n", i)
            i = n if nl < 0 else nl + 1
            continue
        if ch == "'":
            value, i = _string(sql, i)
            yield ("STRING", value, i)
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and sql[i + 1].isdigit()):
            value, i = _number(sql, i)
            yield ("NUMBER", value, i)
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (sql[i].isalnum() or sql[i] == "_"):
                i += 1
            word = sql[start:i]
            upper = word.upper()
            if upper in KEYWORDS:
                yield ("KEYWORD", upper, start)
            else:
                yield ("IDENT", word, start)
            continue
        for sym in SYMBOLS:
            if sql.startswith(sym, i):
                yield ("SYMBOL", "<>" if sym == "!=" else sym, i)
                i += len(sym)
                break
        else:
            raise LexError(f"unexpected character {ch!r}", i)
    yield ("EOF", None, n)


def _string(sql, i):
    out = []
    i += 1  # skip opening quote
    n = len(sql)
    while i < n:
        ch = sql[i]
        if ch == "'":
            if i + 1 < n and sql[i + 1] == "'":
                out.append("'")
                i += 2
                continue
            return "".join(out), i + 1
        out.append(ch)
        i += 1
    raise LexError("unterminated string literal", i)


def _number(sql, i):
    start = i
    n = len(sql)
    seen_dot = False
    seen_exp = False
    while i < n:
        ch = sql[i]
        if ch.isdigit():
            i += 1
        elif ch == "." and not seen_dot and not seen_exp:
            seen_dot = True
            i += 1
        elif ch in "eE" and not seen_exp and i > start:
            nxt = sql[i + 1] if i + 1 < n else ""
            if nxt.isdigit() or (
                nxt in "+-" and i + 2 < n and sql[i + 2].isdigit()
            ):
                seen_exp = True
                i += 2 if nxt in "+-" else 1
            else:
                break
        else:
            break
    text = sql[start:i]
    if seen_dot or seen_exp:
        return float(text), i
    return int(text), i


def outcome(fn, sql):
    try:
        return [
            (type(t[1]).__name__, *t) for t in fn(sql)
        ]
    except LexError as exc:
        return ("LexError", str(exc), exc.position)


def new_tokens(sql):
    return [(t.kind, t.value, t.position) for t in tokenize(sql)]


#: letters that begin keywords, exponents and identifiers; digits; every
#: symbol character; quotes; blanks of each kind; and two strangers
SQL_ALPHABET = "selctfromSELCTFROMeE_xX0123456789.'\"<>!=(),*+-/%; \t\n\r#?"


@settings(max_examples=3000, deadline=None)
@given(st.text(alphabet=SQL_ALPHABET, max_size=30))
@example("'abc''")
@example("'a'' b")
@example("1..2e5.3 .5e-3 1e+ 1.e5 1e")
@example("a -- b\n-- c")
@example("x != y <> z <= >= 1.5.")
@example("select 1   ")
@example("")
def test_one_regex_agrees_with_the_character_loop(sql):
    assert outcome(new_tokens, sql) == outcome(reference_tokens, sql)


def test_token_is_slotted_with_value_semantics():
    token = Token("IDENT", "a", 0)
    assert not hasattr(token, "__dict__")
    assert token == Token("IDENT", "a", 0) != Token("IDENT", "a", 1)
    assert len({token, Token("IDENT", "a", 0)}) == 1
