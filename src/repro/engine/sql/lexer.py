"""SQL lexer.

Tokenises the T-SQL subset the engine supports: keywords and identifiers
(case-insensitive, with ``[bracketed]`` quoting), string literals with
doubled-quote escapes, numeric literals, operators, and punctuation.
``--`` line comments and ``/* */`` block comments are skipped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List

from ..errors import SqlSyntaxError

# token types
KEYWORD = "KEYWORD"
IDENT = "IDENT"
NUMBER = "NUMBER"
STRING = "STRING"
OP = "OP"
PUNCT = "PUNCT"
EOF = "EOF"

KEYWORDS = {
    "SELECT", "FROM", "WHERE", "GROUP", "BY", "HAVING", "ORDER", "TOP",
    "AS", "AND", "OR", "NOT", "NULL", "IS", "IN", "LIKE", "BETWEEN",
    "CASE", "WHEN", "THEN", "ELSE", "END", "JOIN", "INNER",
    "CROSS", "APPLY", "ON", "ASC", "DESC", "DISTINCT",
    "INSERT", "INTO", "VALUES", "DELETE", "UPDATE", "SET", "CREATE",
    "TABLE", "INDEX", "DROP", "PRIMARY", "KEY", "FOREIGN", "REFERENCES",
    "IDENTITY", "ROWGUIDCOL", "FILESTREAM", "FILESTREAM_ON", "WITH",
    "DATA_COMPRESSION", "ROW", "PAGE", "NONE", "OVER", "UNIQUE",
    "OPENROWSET", "BULK", "SINGLE_BLOB", "CLUSTERED", "EXISTS", "UNION",
    "ALL", "BEGIN", "COMMIT", "ROLLBACK", "TRANSACTION", "EXPLAIN",
    "OPTION", "MAXDOP", "TRUNCATE", "STATISTICS", "ANALYZE", "OFF",
    "STORAGE", "SEGMENT_ROWS",
}

_TWO_CHAR_OPS = {"<>", "<=", ">=", "!=", "=="}
_ONE_CHAR_OPS = set("=<>+-*/%")
_PUNCT = set("(),.;")


@dataclass(frozen=True)
class Token:
    type: str
    value: str
    line: int
    column: int
    #: character offset of the token's first character in the source
    #: text, so the parser can slice out each statement's SQL for the
    #: query-stats registry
    offset: int = 0

    def matches_keyword(self, *words: str) -> bool:
        return self.type == KEYWORD and self.value in words

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Token({self.type}, {self.value!r})"


class Lexer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.line = 1
        self.column = 1

    def _error(self, message: str) -> SqlSyntaxError:
        return SqlSyntaxError(message, self.line, self.column)

    def _advance(self, count: int = 1) -> None:
        for _ in range(count):
            if self.pos < len(self.text) and self.text[self.pos] == "\n":
                self.line += 1
                self.column = 1
            else:
                self.column += 1
            self.pos += 1

    def _peek(self, offset: int = 0) -> str:
        index = self.pos + offset
        return self.text[index] if index < len(self.text) else ""

    def tokens(self) -> List[Token]:
        out: List[Token] = []
        while True:
            token = self._next_token()
            out.append(token)
            if token.type == EOF:
                return out

    def _skip_trivia(self) -> None:
        while self.pos < len(self.text):
            ch = self._peek()
            if ch in " \t\r\n":
                self._advance()
            elif ch == "-" and self._peek(1) == "-":
                while self.pos < len(self.text) and self._peek() != "\n":
                    self._advance()
            elif ch == "/" and self._peek(1) == "*":
                self._advance(2)
                while self.pos < len(self.text) and not (
                    self._peek() == "*" and self._peek(1) == "/"
                ):
                    self._advance()
                if self.pos >= len(self.text):
                    raise self._error("unterminated block comment")
                self._advance(2)
            else:
                return

    def _next_token(self) -> Token:
        self._skip_trivia()
        line, column = self.line, self.column
        offset = self.pos
        if self.pos >= len(self.text):
            return Token(EOF, "", line, column, offset)
        ch = self._peek()

        # bracketed identifier [Read]
        if ch == "[":
            self._advance()
            start = self.pos
            while self.pos < len(self.text) and self._peek() != "]":
                self._advance()
            if self.pos >= len(self.text):
                raise self._error("unterminated bracketed identifier")
            name = self.text[start : self.pos]
            self._advance()
            return Token(IDENT, name, line, column, offset)

        # string literal
        if ch == "'":
            self._advance()
            parts: List[str] = []
            while True:
                if self.pos >= len(self.text):
                    raise self._error("unterminated string literal")
                current = self._peek()
                if current == "'":
                    if self._peek(1) == "'":
                        parts.append("'")
                        self._advance(2)
                    else:
                        self._advance()
                        break
                else:
                    parts.append(current)
                    self._advance()
            return Token(STRING, "".join(parts), line, column, offset)

        # number
        if ch.isdigit() or (ch == "." and self._peek(1).isdigit()):
            start = self.pos
            saw_dot = False
            while self.pos < len(self.text) and (
                self._peek().isdigit() or (self._peek() == "." and not saw_dot)
            ):
                if self._peek() == ".":
                    # don't swallow "1." followed by identifier (rare); fine here
                    saw_dot = True
                self._advance()
            if self._peek() in "eE" and (
                self._peek(1).isdigit()
                or (self._peek(1) in "+-" and self._peek(2).isdigit())
            ):
                self._advance()
                if self._peek() in "+-":
                    self._advance()
                while self.pos < len(self.text) and self._peek().isdigit():
                    self._advance()
            return Token(NUMBER, self.text[start : self.pos], line, column, offset)

        # identifier / keyword
        if ch.isalpha() or ch == "_" or ch == "@":
            start = self.pos
            while self.pos < len(self.text) and (
                self._peek().isalnum() or self._peek() in "_@$#"
            ):
                self._advance()
            word = self.text[start : self.pos]
            upper = word.upper()
            if upper in KEYWORDS:
                return Token(KEYWORD, upper, line, column, offset)
            return Token(IDENT, word, line, column, offset)

        # operators
        two = self.text[self.pos : self.pos + 2]
        if two in _TWO_CHAR_OPS:
            self._advance(2)
            return Token(OP, "<>" if two == "!=" else two, line, column, offset)
        if ch in _ONE_CHAR_OPS:
            self._advance()
            return Token(OP, ch, line, column, offset)
        if ch in _PUNCT:
            self._advance()
            return Token(PUNCT, ch, line, column, offset)
        raise self._error(f"unexpected character {ch!r}")


def tokenize(text: str) -> List[Token]:
    return Lexer(text).tokens()


def normalized_text(tokens: Iterable[Token]) -> str:
    """Canonical text of a token run (EOF excluded by the caller):
    number and string literals become ``?``, keywords are upper-case
    already, and one space separates tokens — so comments, whitespace
    and literal values never distinguish two statements."""
    return " ".join(
        "?" if token.type in (NUMBER, STRING) else token.value
        for token in tokens
    )
