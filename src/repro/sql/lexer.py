"""Hand-written SQL lexer.

Produces a list of :class:`~repro.sql.tokens.Token` ending with an ``EOF``
token.  Supports ``--`` line comments, single-quoted strings with ``''``
escaping, double-quoted identifiers, and integer/float literals (with
exponents).
"""

from __future__ import annotations

from repro.errors import SqlSyntaxError
from repro.sql.tokens import (
    EOF,
    IDENT,
    KEYWORD,
    KEYWORDS,
    NUMBER,
    OPERATORS,
    PUNCT,
    PUNCTUATION,
    STRING,
    Token,
)


def tokenize(text: str) -> list[Token]:
    """Tokenize SQL ``text``; raise :class:`SqlSyntaxError` on bad input."""
    tokens: list[Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if text.startswith("--", i):
            newline = text.find("\n", i)
            i = n if newline < 0 else newline + 1
            continue
        if ch == "'":
            value, end = _read_string(text, i)
            tokens.append(Token(STRING, value, i))
            i = end
            continue
        if ch in ('"', "`"):
            value, end = _read_quoted_ident(text, i, ch)
            tokens.append(Token(IDENT, value, i))
            i = end
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            value, end = _read_number(text, i)
            tokens.append(Token(NUMBER, value, i))
            i = end
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            word = text[start:i]
            upper = word.upper()
            if upper in KEYWORDS:
                tokens.append(Token(KEYWORD, upper, start))
            else:
                tokens.append(Token(IDENT, word, start))
            continue
        matched_operator = next((op for op in OPERATORS if text.startswith(op, i)), None)
        if matched_operator is not None:
            tokens.append(Token("OPERATOR", matched_operator, i))
            i += len(matched_operator)
            continue
        if ch in PUNCTUATION:
            tokens.append(Token(PUNCT, ch, i))
            i += 1
            continue
        raise SqlSyntaxError(f"unexpected character {ch!r}", position=i)
    tokens.append(Token(EOF, None, n))
    return tokens


def _read_string(text: str, start: int) -> tuple[str, int]:
    """Read a single-quoted string starting at ``start``; '' escapes a quote."""
    i = start + 1
    parts: list[str] = []
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "'":
            if i + 1 < n and text[i + 1] == "'":
                parts.append("'")
                i += 2
                continue
            return "".join(parts), i + 1
        parts.append(ch)
        i += 1
    raise SqlSyntaxError("unterminated string literal", position=start)


def _read_quoted_ident(text: str, start: int, quote: str = '"') -> tuple[str, int]:
    """Read a ``"..."`` or BigQuery-style `` `...` `` quoted identifier."""
    end = text.find(quote, start + 1)
    if end < 0:
        raise SqlSyntaxError("unterminated quoted identifier", position=start)
    name = text[start + 1 : end]
    if not name:
        raise SqlSyntaxError("empty quoted identifier", position=start)
    return name, end + 1


def _read_number(text: str, start: int) -> tuple[int | float, int]:
    i = start
    n = len(text)
    seen_dot = False
    seen_exp = False
    while i < n:
        ch = text[i]
        if ch.isdigit():
            i += 1
        elif ch == "." and not seen_dot and not seen_exp:
            seen_dot = True
            i += 1
        elif ch in "eE" and not seen_exp and i > start:
            seen_exp = True
            i += 1
            if i < n and text[i] in "+-":
                i += 1
        else:
            break
    literal = text[start:i]
    try:
        if seen_dot or seen_exp:
            return float(literal), i
        return int(literal), i
    except ValueError as exc:
        raise SqlSyntaxError(f"invalid number literal {literal!r}", position=start) from exc
