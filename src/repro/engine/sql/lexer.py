"""SQL lexical grammar: the one module that reads SQL text.

:func:`tokenize` turns the T-SQL subset the engine supports into tokens:
keywords and identifiers (case-insensitive, with ``[bracketed]``
quoting), string literals with doubled-quote escapes, numeric literals,
operators, and punctuation; ``--`` line comments and ``/* */`` block
comments are skipped. :func:`split_statements` cuts a script at its
top-level ``;``. Both walk the one compiled pattern that defines a
string, a number, an identifier and a comment. The plan cache's raw-text
literal masker sits beside it, its differences from the grammar listed.
"""

from __future__ import annotations

import re
from typing import Any, Iterable, List, NamedTuple, Optional, Tuple

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


class Token(NamedTuple):
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


#: The lexical grammar, one alternative per kind of lexeme; ``lastgroup``
#: names the one that matched, by its token type where it has one.
#: Digits are ASCII: ``str.isdigit()`` admits what ``int()`` rejects.
#: ``/`` is no operator before ``*``, so an unterminated ``/*`` reaches
#: ``bad`` (whatever no alternative starts with, the opening mark of an
#: unterminated string or bracket included), not two operators.
_MASTER = re.compile(
    r"""
      (?P<trivia> (?: [ \t\r\n]+ | --[^\n]* | /\*.*?\*/ )+ )
    | ' (?P<STRING> [^']* (?: '' [^']* )* ) '
    | (?P<NUMBER> (?: [0-9]+ \.? [0-9]* | \. [0-9]+ ) (?: [eE] [+-]? [0-9]+ )? )
    | (?P<word> [^\W\d] [\w@$#]* | @ [\w@$#]* )
    | \[ (?P<IDENT> [^\]]* ) \]
    | (?P<OP> <> | <= | >= | != | == | [=<>+\-*%] | / (?!\*) )
    | (?P<PUNCT> [(),.;] )
    | (?P<bad> . )
    """,
    re.VERBOSE | re.DOTALL,
)

_UNTERMINATED = {
    "'": "unterminated string literal",
    "[": "unterminated bracketed identifier",
    "/": "unterminated block comment",
}


def tokenize(text: str) -> List[Token]:
    out: List[Token] = []
    token = Token._make  # skips the generated __new__
    line = 1
    line_start = 0  # offset of the current line's first character
    for match in _MASTER.finditer(text):
        kind = match.lastgroup
        value = match.group(kind)
        offset = match.start()
        column = offset - line_start + 1
        if kind == "word":
            upper = value.upper()
            if upper in KEYWORDS:
                kind, value = KEYWORD, upper
            elif value[0].isalpha() or value[0] in "_@":
                kind = IDENT
            else:  # \w admits numerics such as '²' that are no letter
                kind, value = "bad", value[0]
        elif kind == STRING:
            value = value.replace("''", "'")
        elif kind == OP and value == "!=":
            value = "<>"
        if kind == "bad":
            message = _UNTERMINATED.get(value)
            if message is None:
                message = f"unexpected character {value!r}"
            else:  # reported where the text ends
                line, column = text.count("\n") + 1, len(text) - text.rfind("\n")
            raise SqlSyntaxError(message, line, column)
        if kind != "trivia":
            out.append(token((kind, value, line, column, offset)))
        if "\n" in value:  # in trivia, a string or a bracketed name
            line += value.count("\n")
            line_start = text.rfind("\n", offset, match.end()) + 1
    out.append(Token(EOF, "", line, len(text) - line_start + 1, len(text)))
    return out


def split_statements(text: str) -> List[str]:
    """Cut a script at its top-level ``;`` (one in a string, a bracketed
    name or a comment cuts nothing). A slice keeps its comments, so a
    pragma travels with the statement below it, and is not validated: a
    lexical error surfaces when that slice is tokenised, confined to its
    statement. An unterminated string, bracket or block comment owns the
    rest of the text. Blank slices are dropped; a closing slice of
    comments alone is kept (it parses to no statement)."""
    slices: List[str] = []
    start = 0
    for match in _MASTER.finditer(text):
        if match.lastgroup == PUNCT and match.group() == ";":
            slices.append(text[start : match.start()].strip())
            start = match.end()
        elif match.lastgroup == "bad" and match.group() in _UNTERMINATED:
            break
    slices.append(text[start:].strip())
    return [piece for piece in slices if piece]


def normalized_text(tokens: Iterable[Token]) -> str:
    """Canonical text of a token run (EOF excluded by the caller):
    number and string literals become ``?``, keywords are upper-case
    already, and one space separates tokens — so comments, whitespace
    and literal values never distinguish two statements."""
    return " ".join(
        "?" if token.type in (NUMBER, STRING) else token.value
        for token in tokens
    )


#: The raw-text literal masker: a quoted string or a whole-word number,
#: ``\b\d+(?:\.\d+)?\b`` written to *start* with ``\d`` so the regex
#: engine skips from digit to digit instead of trying every position;
#: ``split`` alternates gap, literal. Coarser than the grammar above on
#: purpose: a string is ``'[^']*'`` (``'it''s'`` is two strings), a
#: number has no exponent and no leading dot (``1e5`` is a word, ``.5``
#: a dot and ``5``), and comments are invisible (a literal inside one
#: counts). Safe because nothing trusts it alone: plan signatures and
#: selectivity keys only need *a* stable masking, and the plan cache
#: proves each shape before using it (see :func:`split_literals`). Not
#: derived from tokens by measurement (PR 24): 5.0-25.2 us per lookup
#: statement against 1.8-5.0 us for this one C-level ``split``, +12 %
#: on a plan-cache hit.
_LITERAL_IN_LABEL = re.compile(r"('[^']*'|\d(?<!\w\d)\d*(?:\.\d+)?\b)")


def mask_literals(text: str) -> str:
    """Replace string/number literals in free text (operator labels,
    predicate SQL) with ``?`` — the label-level analogue of
    :func:`normalized_text`, which plan signatures (the Query Store's
    and the plan cache's plan identity) are built from."""
    return _LITERAL_IN_LABEL.sub("?", text)


def split_literals(text: str) -> Tuple[str, Optional[List[Any]]]:
    """Raw SQL in one regex pass, for the plan cache's parse-free hit
    path (its only user): the statement's *shape* and literal values.

    The shape is the text whitespace-collapsed and literal-masked:
    cheaper than :func:`tokenize` + :func:`normalized_text` and *finer*
    (keyword case and comments survive); every rendition of one
    parameterized statement shares it. The values come in text order,
    converted as the parser does (``.`` → float, else int; strings
    unescaped), None when one fails. They are sound only where every
    literal is regex-visible, which the plan cache proves per shape at
    registration (exponents, doubled quotes and folded signs change the
    shape or fail the proof, so never reach the hit path)."""
    parts = _LITERAL_IN_LABEL.split(text)
    shape = " ".join("?".join(parts[::2]).split())
    values: List[Any] = []
    for token in parts[1::2]:
        if token[0] == "'":
            values.append(token[1:-1])
        else:
            try:
                values.append(float(token) if "." in token else int(token))
            except ValueError:
                return shape, None
    return shape, values
