"""SQL lexer."""

import pytest

from repro.engine.errors import SqlSyntaxError
from repro.engine.sql.lexer import (
    EOF,
    IDENT,
    KEYWORD,
    NUMBER,
    OP,
    PUNCT,
    STRING,
    tokenize,
)


def types_of(sql):
    return [t.type for t in tokenize(sql)[:-1]]


def values_of(sql):
    return [t.value for t in tokenize(sql)[:-1]]


class TestTokens:
    def test_keywords_uppercased(self):
        tokens = tokenize("select From WHERE")
        assert [t.value for t in tokens[:-1]] == ["SELECT", "FROM", "WHERE"]
        assert all(t.type == KEYWORD for t in tokens[:-1])

    def test_identifiers_keep_case(self):
        assert values_of("ShortReadFiles") == ["ShortReadFiles"]
        assert types_of("ShortReadFiles") == [IDENT]

    def test_bracketed_identifier(self):
        tokens = tokenize("[Read]")
        assert tokens[0].type == IDENT and tokens[0].value == "Read"

    def test_bracketed_can_contain_keywords_and_spaces(self):
        assert values_of("[My Select Table]") == ["My Select Table"]

    def test_unterminated_bracket(self):
        with pytest.raises(SqlSyntaxError):
            tokenize("[oops")

    def test_string_literal(self):
        tokens = tokenize("'hello'")
        assert tokens[0].type == STRING and tokens[0].value == "hello"

    def test_doubled_quote_escape(self):
        assert tokenize("'it''s'")[0].value == "it's"

    def test_unterminated_string(self):
        with pytest.raises(SqlSyntaxError):
            tokenize("'unclosed")

    def test_numbers(self):
        assert values_of("1 2.5 1e6 3.14e-2") == ["1", "2.5", "1e6", "3.14e-2"]
        assert types_of("1 2.5") == [NUMBER, NUMBER]

    def test_operators(self):
        assert values_of("= <> != <= >= < > + - * / %") == [
            "=", "<>", "<>", "<=", ">=", "<", ">", "+", "-", "*", "/", "%",
        ]

    def test_punctuation(self):
        assert types_of("( ) , . ;") == [PUNCT] * 5

    def test_at_variables(self):
        assert values_of("@count") == ["@count"]

    def test_eof_token(self):
        assert tokenize("")[0].type == EOF

    def test_unexpected_character(self):
        with pytest.raises(SqlSyntaxError):
            tokenize("SELECT ~")


class TestComments:
    def test_line_comment(self):
        assert values_of("SELECT -- a comment\n1") == ["SELECT", "1"]

    def test_block_comment(self):
        assert values_of("SELECT /* skip\nme */ 1") == ["SELECT", "1"]

    def test_unterminated_block_comment(self):
        with pytest.raises(SqlSyntaxError):
            tokenize("SELECT /* oops")


class TestPositions:
    def test_line_and_column_tracked(self):
        tokens = tokenize("SELECT\n  name")
        assert tokens[0].line == 1
        assert tokens[1].line == 2
        assert tokens[1].column == 3

    def test_error_carries_position(self):
        try:
            tokenize("SELECT\n  'oops")
        except SqlSyntaxError as exc:
            assert exc.line == 2
        else:  # pragma: no cover
            pytest.fail("expected SqlSyntaxError")


# ---------------------------------------------------------------------------
# the lexical contract, pinned before the scanner was replaced (PR 24)
# ---------------------------------------------------------------------------

from hypothesis import given, settings, strategies as st

from repro.engine.sql.lexer import KEYWORDS

_WORD_START = "abcxyzESTUV_@"
_WORD_REST = _WORD_START + "0189$#"
_DIGITS = st.text("0123456789", min_size=1, max_size=6)
_EXPONENT = st.builds(
    lambda e, sign, digits: e + sign + digits,
    st.sampled_from("eE"), st.sampled_from(["", "+", "-"]), _DIGITS,
)
# no ']' in a bracketed name, anything at all in a string
_FREE_TEXT = "ab Z09_'\"-/*;.,()[\n\t=<>%"


@st.composite
def _keyword(draw):
    word = draw(st.sampled_from(sorted(KEYWORDS)))
    flips = draw(st.lists(st.booleans(), min_size=len(word), max_size=len(word)))
    text = "".join(c.lower() if f else c for c, f in zip(word, flips))
    return KEYWORD, word, text


@st.composite
def _plain_identifier(draw):
    word = draw(st.sampled_from(_WORD_START)) + draw(
        st.text(_WORD_REST, max_size=8)
    )
    if word.upper() in KEYWORDS:
        word += "_"
    return IDENT, word, word


@st.composite
def _number(draw):
    whole, fraction = draw(_DIGITS), draw(_DIGITS)
    mantissa = draw(
        st.sampled_from(
            [whole, f"{whole}.{fraction}", f".{fraction}", f"{whole}."]
        )
    )
    text = mantissa + draw(st.one_of(st.just(""), _EXPONENT))
    return NUMBER, text, text


_TOKEN = st.one_of(
    _keyword(),
    _plain_identifier(),
    st.text(_FREE_TEXT, max_size=8).map(lambda s: (IDENT, s, f"[{s}]")),
    _number(),
    st.text(_FREE_TEXT + "]", max_size=10).map(
        lambda s: (STRING, s, "'" + s.replace("'", "''") + "'")
    ),
    st.sampled_from(
        ["=", "<", ">", "+", "-", "*", "/", "%", "<>", "<=", ">=", "!=", "=="]
    ).map(lambda op: (OP, "<>" if op == "!=" else op, op)),
    st.sampled_from("(),.;").map(lambda p: (PUNCT, p, p)),
)

_TRIVIA_PIECE = st.one_of(
    st.sampled_from([" ", "\t", "\n", "\r", "\r\n", "  "]),
    st.text("ab '[;*/-", max_size=6).map(lambda s: f"--{s}\n"),
    st.text("ab '[;\n*-", max_size=6).map(lambda s: f"/*{s}*/"),
)
_TRIVIA = st.lists(_TRIVIA_PIECE, max_size=3).map("".join)
#: marks that never combine with a neighbour, so trivia around them may
#: be empty (everything else needs a separator: ``1`` ``2``, ``<`` ``>``,
#: ``-`` ``-``, ``.`` ``5``)
_STANDALONE = set("(),;")


class TestRoundTrip:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(_TRIVIA, _TOKEN), max_size=12), _TRIVIA)
    def test_render_then_tokenize(self, pieces, tail):
        text, expected, starts = "", [], []
        previous = "("

        def gap(trivia, following):
            # two tokens must not merge (``1`` ``2``, ``<`` ``>``), nor a
            # token with the comment after it (``-`` then ``--x``)
            if previous in _STANDALONE or trivia[:1] in tuple(" \t\r\n"):
                return trivia
            if trivia or following not in _STANDALONE:
                return " " + trivia
            return trivia

        for trivia, (kind, value, rendered) in pieces:
            text += gap(trivia, rendered)
            starts.append((len(text), rendered))
            text += rendered
            expected.append((kind, value))
            previous = rendered
        text += gap(tail, ";")
        tokens = tokenize(text)
        assert [(t.type, t.value) for t in tokens[:-1]] == expected
        assert (tokens[-1].type, tokens[-1].value) == (EOF, "")
        assert tokens[-1].offset == len(text)
        for token, (start, rendered) in zip(tokens, starts):
            assert token.offset == start
            assert text.startswith(rendered, token.offset)
        for token in tokens:
            before = text[: token.offset]
            assert token.line == before.count("\n") + 1
            assert token.column == len(before) - (before.rfind("\n") + 1) + 1


class TestErrorTable:
    @pytest.mark.parametrize(
        "text, message, line, column",
        [
            # unterminated: the position is the end of the text
            ("'unclosed", "unterminated string literal", 1, 10),
            ("SELECT\n  'oops", "unterminated string literal", 2, 8),
            ("'it''s", "unterminated string literal", 1, 7),
            ("'a'' x", "unterminated string literal", 1, 7),
            ("[oops", "unterminated bracketed identifier", 1, 6),
            ("a [b\nc", "unterminated bracketed identifier", 2, 2),
            ("SELECT /* oops", "unterminated block comment", 1, 15),
            ("SELECT 1 /* a\nb\n", "unterminated block comment", 3, 1),
            ("/*/", "unterminated block comment", 1, 4),
            # '/' before '*' is never the division operator
            ("a)/*_ (-%*)xa", "unterminated block comment", 1, 14),
            # unexpected: the position is the character's own
            ("SELECT ~", "unexpected character '~'", 1, 8),
            ("SELECT\n a ^ b", "unexpected character '^'", 2, 4),
            ('x = "q"', "unexpected character '\"'", 1, 5),
            ("a ! b", "unexpected character '!'", 1, 3),
            ("a\n\n  ?", "unexpected character '?'", 3, 3),
            ("#t", "unexpected character '#'", 1, 1),
            ("$x", "unexpected character '$'", 1, 1),
            ("a ]", "unexpected character ']'", 1, 3),
            ("a \x0c b", "unexpected character '\\x0c'", 1, 3),
        ],
    )
    def test_message_and_position(self, text, message, line, column):
        with pytest.raises(SqlSyntaxError) as caught:
            tokenize(text)
        assert str(caught.value) == (
            f"{message} (line {line}, column {column})"
        )
        assert (caught.value.line, caught.value.column) == (line, column)


class TestEdges:
    @pytest.mark.parametrize(
        "text, expected",
        [
            ("1.2.3", [(NUMBER, "1.2"), (NUMBER, ".3")]),
            ("1..2", [(NUMBER, "1."), (NUMBER, ".2")]),
            ("1.e5", [(NUMBER, "1.e5")]),
            ("1e", [(NUMBER, "1"), (IDENT, "e")]),
            ("1.5e+x", [(NUMBER, "1.5"), (IDENT, "e"), (OP, "+"), (IDENT, "x")]),
            ("a.5", [(IDENT, "a"), (NUMBER, ".5")]),
            (".e", [(PUNCT, "."), (IDENT, "e")]),
            ("1abc", [(NUMBER, "1"), (IDENT, "abc")]),
            ("a != b", [(IDENT, "a"), (OP, "<>"), (IDENT, "b")]),
            ("a<>=b", [(IDENT, "a"), (OP, "<>"), (OP, "="), (IDENT, "b")]),
            ("@x", [(IDENT, "@x")]),
            ("@@rowcount", [(IDENT, "@@rowcount")]),
            ("a$b#c", [(IDENT, "a$b#c")]),
            ("x.[y z]", [(IDENT, "x"), (PUNCT, "."), (IDENT, "y z")]),
            ("[]", [(IDENT, "")]),
            ("''", [(STRING, "")]),
            ("''''", [(STRING, "'")]),
            ("[select]", [(IDENT, "select")]),
            ("[!=]", [(IDENT, "!=")]),
            ("3--2\n-1", [(NUMBER, "3"), (OP, "-"), (NUMBER, "1")]),
            ("3- -2", [(NUMBER, "3"), (OP, "-"), (OP, "-"), (NUMBER, "2")]),
            ("a/**/b", [(IDENT, "a"), (IDENT, "b")]),
            ("a/b", [(IDENT, "a"), (OP, "/"), (IDENT, "b")]),
            ("a/ *b", [(IDENT, "a"), (OP, "/"), (OP, "*"), (IDENT, "b")]),
            ("-- only a comment", []),
        ],
    )
    def test_token_stream(self, text, expected):
        assert [(t.type, t.value) for t in tokenize(text)[:-1]] == expected

    def test_token_api(self):
        token = tokenize("select")[0]
        assert token.matches_keyword("FROM", "SELECT")
        assert not token.matches_keyword("FROM")
        assert not tokenize("[select]")[0].matches_keyword("SELECT")
        assert (token.type, token.value, token.line, token.column, token.offset) == (
            KEYWORD, "SELECT", 1, 1, 0,
        )


# ---------------------------------------------------------------------------
# what changed when the master pattern replaced the character loop (PR 24)
# ---------------------------------------------------------------------------

from repro.engine.sql.lexer import split_statements


class TestNonAscii:
    """Numbers are ``[0-9]``: ``str.isdigit()`` admitted characters that
    ``int()`` rejects (a crash) or reads as another script's digits."""

    def test_superscript_digit_is_a_syntax_error_not_a_crash(self):
        from repro.engine import Database
        from repro.engine.errors import EngineError

        with Database() as db:
            with pytest.raises(EngineError) as caught:
                db.execute("SELECT ²")
        assert isinstance(caught.value, SqlSyntaxError)
        assert (caught.value.line, caught.value.column) == (1, 8)

    @pytest.mark.parametrize(
        "text, column",
        [
            ("SELECT ²", 8),  # isdigit, not decimal: int() raised ValueError
            ("SELECT ١", 8),  # ARABIC-INDIC ONE: was the NUMBER '١' == 1
            ("SELECT 1٣", 9),  # was the NUMBER '1٣' == 13
            ("SELECT 1.٣", 10),  # was the NUMBER '1.٣'
            ("SELECT ⅷ", 8),  # numeric, no digit: an error before and now
            ("SELECT a\u00a0b", 9),  # NO-BREAK SPACE is not trivia
        ],
    )
    def test_unexpected_character(self, text, column):
        with pytest.raises(SqlSyntaxError) as caught:
            tokenize(text)
        assert str(caught.value) == (
            f"unexpected character {text[column - 1]!r} "
            f"(line 1, column {column})"
        )

    def test_exponent_digits_are_ascii_too(self):
        # was the one NUMBER '1e٣'
        assert [(t.type, t.value) for t in tokenize("1e٣")[:-1]] == [
            (NUMBER, "1"), (IDENT, "e٣"),
        ]
        # was the NUMBER '1e١' and then "unexpected character 'ⅷ'"
        assert [(t.type, t.value) for t in tokenize("1e١ⅷ")[:-1]] == [
            (NUMBER, "1"), (IDENT, "e١ⅷ"),
        ]

    def test_letters_and_digits_inside_identifiers_keep_working(self):
        assert [(t.type, t.value) for t in tokenize("SELECT é, ªb, x², y١")[:-1]] == [
            (KEYWORD, "SELECT"), (IDENT, "é"), (PUNCT, ","), (IDENT, "ªb"),
            (PUNCT, ","), (IDENT, "x²"), (PUNCT, ","), (IDENT, "y١"),
        ]
        from repro.engine import Database

        with Database() as db:
            db.execute("CREATE TABLE t (é INT PRIMARY KEY)")
            db.execute("INSERT INTO t VALUES (3)")
            assert db.query("SELECT é FROM t") == [(3,)]


class TestSplitStatements:
    def test_cuts_at_top_level_semicolons_only(self):
        assert split_statements(
            "SELECT ';' , [a;b] ; -- not; here\n  SELECT 2 /* ; */ ;;\n"
        ) == ["SELECT ';' , [a;b]", "-- not; here\n  SELECT 2 /* ; */"]
        assert split_statements("") == split_statements(" ;\n; ") == []

    def test_comments_stay_and_a_closing_comment_is_a_slice(self):
        assert split_statements(
            "-- header\nSELECT 1; SELECT 2 -- tail\n; -- closing\n"
        ) == ["-- header\nSELECT 1", "SELECT 2 -- tail", "-- closing"]

    def test_a_lexical_error_stays_in_its_statement(self):
        first, second = split_statements("SELECT ~ ; SELECT 1")
        assert second == "SELECT 1"
        with pytest.raises(SqlSyntaxError):
            tokenize(first)
        # an unterminated lexeme owns the rest of the text
        assert split_statements("SELECT 1; SELECT 'a; SELECT 2") == [
            "SELECT 1", "SELECT 'a; SELECT 2",
        ]
        assert split_statements("a /* b; c") == ["a /* b; c"]

    def test_same_boundaries_as_the_parser(self):
        from pathlib import Path

        from repro.engine.sql.parser import parse_sql

        script = (
            Path(__file__).resolve().parents[2]
            / "examples" / "analysis_queries.sql"
        ).read_text()
        assert [
            stmt.source_sql
            for piece in split_statements(script)
            for stmt in parse_sql(piece)
        ] == [stmt.source_sql for stmt in parse_sql(script)]


class TestOneScanner:
    """``sql/lexer.py`` is the only module that knows SQL's lexical
    grammar: no character loop in it, no pattern anywhere else."""

    def test_no_character_loop_and_two_patterns(self):
        import inspect

        from repro.engine.sql import lexer

        source = inspect.getsource(lexer)
        assert "_advance" not in source and "_peek" not in source
        assert source.count("re.compile(") == 2  # the grammar, the masker

    def test_the_other_readers_define_no_pattern(self):
        import inspect

        from repro import cli
        from repro.engine import plancache, querystore
        from repro.engine.optimizer import statistics
        from repro.engine.sql import lexer

        for module in (cli, querystore, plancache, statistics):
            source = inspect.getsource(module)
            assert "import re\n" not in source, module.__name__
        assert plancache.split_literals is lexer.split_literals
        assert querystore.mask_literals is lexer.mask_literals
