"""Tests for the SQL lexer."""

import pytest

from repro.errors import SqlSyntaxError
from repro.sql.lexer import tokenize
from repro.sql.parser import parse
from repro.sql.tokens import EOF, IDENT, KEYWORD, NUMBER, OPERATOR, PUNCT, STRING


def kinds(sql: str) -> list[str]:
    return [t.type for t in tokenize(sql)]


def values(sql: str) -> list:
    return [t.value for t in tokenize(sql)[:-1]]


class TestBasics:
    def test_ends_with_eof(self):
        assert kinds("")[-1] == EOF

    def test_keywords_uppercased(self):
        tokens = tokenize("select From WHERE")
        assert [t.value for t in tokens[:-1]] == ["SELECT", "FROM", "WHERE"]
        assert all(t.type == KEYWORD for t in tokens[:-1])

    def test_identifiers_keep_case(self):
        token = tokenize("MyTable")[0]
        assert token.type == IDENT
        assert token.value == "MyTable"

    def test_underscore_identifier(self):
        assert tokenize("block_height")[0].value == "block_height"

    def test_whitespace_and_newlines_skipped(self):
        assert values("a\n\t b") == ["a", "b"]

    def test_line_comment_skipped(self):
        assert values("a -- comment here\nb") == ["a", "b"]

    def test_comment_at_eof(self):
        assert values("a -- trailing") == ["a"]


class TestNumbers:
    def test_integer(self):
        token = tokenize("42")[0]
        assert token.type == NUMBER
        assert token.value == 42
        assert isinstance(token.value, int)

    def test_float(self):
        assert tokenize("0.51")[0].value == 0.51

    def test_leading_dot(self):
        assert tokenize(".5")[0].value == 0.5

    def test_exponent(self):
        assert tokenize("1e3")[0].value == 1000.0

    def test_negative_exponent(self):
        assert tokenize("2.5e-2")[0].value == 0.025


class TestStrings:
    def test_simple(self):
        token = tokenize("'hello'")[0]
        assert token.type == STRING
        assert token.value == "hello"

    def test_escaped_quote(self):
        assert tokenize("'it''s'")[0].value == "it's"

    def test_empty_string(self):
        assert tokenize("''")[0].value == ""

    def test_unterminated_raises(self):
        with pytest.raises(SqlSyntaxError):
            tokenize("'oops")

    def test_quoted_identifier(self):
        token = tokenize('"weird name"')[0]
        assert token.type == IDENT
        assert token.value == "weird name"

    def test_unterminated_quoted_identifier(self):
        with pytest.raises(SqlSyntaxError):
            tokenize('"oops')


class TestOperators:
    @pytest.mark.parametrize("op", ["<=", ">=", "<>", "!=", "=", "<", ">", "+", "-", "*", "/", "%"])
    def test_each_operator(self, op):
        token = tokenize(op)[0]
        assert token.type == OPERATOR
        assert token.value == op

    def test_greedy_two_char(self):
        assert values("a<=b") == ["a", "<=", "b"]

    def test_punctuation(self):
        tokens = tokenize("(a, b.c)")
        assert [t.type for t in tokens[:-1]] == [PUNCT, IDENT, PUNCT, IDENT, PUNCT, IDENT, PUNCT]

    def test_unknown_character_raises_with_position(self):
        with pytest.raises(SqlSyntaxError) as excinfo:
            tokenize("a ; b")
        assert excinfo.value.position == 2


class TestOffsets:
    def test_every_token_kind_is_stamped_with_its_start(self):
        sql = "SELECT \"q c\", `b` FROM t WHERE x >= 1.5e2 AND y = 'it''s' -- note\nLIMIT 3"
        tokens = [(t.type, t.value, t.position) for t in tokenize(sql)]
        assert tokens == [
            (KEYWORD, "SELECT", 0),
            (IDENT, "q c", 7),
            (PUNCT, ",", 12),
            (IDENT, "b", 14),
            (KEYWORD, "FROM", 18),
            (IDENT, "t", 23),
            (KEYWORD, "WHERE", 25),
            (IDENT, "x", 31),
            (OPERATOR, ">=", 33),
            (NUMBER, 150.0, 36),
            (KEYWORD, "AND", 42),
            (IDENT, "y", 46),
            (OPERATOR, "=", 48),
            (STRING, "it's", 50),
            (KEYWORD, "LIMIT", 66),
            (NUMBER, 3, 72),
            (EOF, None, 73),
        ]

    @pytest.mark.parametrize(
        "sql, offset",
        [
            ("SELECT a FROM t LIMIT 1.5", 22),
            ("SELECT a FROM t WHERE b = 'x' 'y'", 30),
            ('SELECT a FROM t WHERE b = 1 "u"', 28),
        ],
    )
    def test_parse_errors_point_at_the_literal(self, sql, offset):
        with pytest.raises(SqlSyntaxError, match=rf"\(at offset {offset}\)$"):
            parse(sql)
