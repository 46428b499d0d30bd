"""Every backticked name in DESIGN.md and README.md must still exist.

A span is checked when it is one token (no whitespace) outside a fenced
code block:

- a path (it holds a ``/`` or ends in a file extension) must exist,
  relative to the repository root, ``src/repro``, ``src/repro/engine``
  or ``benchmarks``; a bare file name must be a file somewhere in the
  repository or a string the code spells;
- a name with ``_``, ``.`` or camelCase must appear as a word, each of
  its dotted parts, in the ``.py`` / ``.sql`` files under ``src/``,
  ``benchmarks/``, ``examples/`` or ``tests/``;
- anything else must appear there as a word too, or be on ``ALLOWED``.

``tests/test_retired_names.py`` spells retired names on purpose and this
file spells planted ones, so neither counts as a place a name resolves.
"""

import re
from functools import lru_cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DOCS = ("DESIGN.md", "README.md")
CODE_DIRS = ("src", "benchmarks", "examples", "tests")
NOT_CODE = ("test_retired_names.py", "test_doc_names.py")
#: where a relative path in the docs may start
PATH_BASES = ("", "src/repro", "src/repro/engine", "benchmarks")

#: spans that are neither a path nor one name: slash-joined lists of names
ALLOWED = frozenset({
    "init/accumulate/merge/terminate",
    "Project/ParallelHashAggregate/ColumnStoreScan",
    "SqlType.checker()/encoder()/decoder()",
    "SqlType.validate/encode/decode",
})

_FENCE = re.compile(r"^```.*?^```", re.S | re.M)
_SPAN = re.compile(r"`([^`]+)`")
_NAME = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*(?:\(\))?")
_PATH = re.compile(r"[A-Za-z_][\w./*:()-]*")
_EXTENSION = re.compile(r"\.(?:py|sql|md|txt|json|toml|yml|fastq|fasta|tsv)$")


def doc_spans(text):
    """The backticked one-token spans of a markdown text."""
    for match in _SPAN.finditer(_FENCE.sub("", text)):
        span = match.group(1)
        if not re.search(r"\s", span):
            yield span


@lru_cache(maxsize=None)
def code_words(root=ROOT):
    """Every word of the code under ``CODE_DIRS``, and its text."""
    words, texts = set(), []
    for name in CODE_DIRS:
        for file in sorted((root / name).rglob("*")):
            if (
                file.suffix in (".py", ".sql")
                and file.name not in NOT_CODE
                and "__pycache__" not in file.parts
            ):
                text = file.read_text(encoding="utf-8")
                words.update(re.findall(r"\w+", text))
                texts.append(text)
    return frozenset(words), "\n".join(texts)


def path_exists(span, root):
    path = span.split("::")[0].rstrip("/")
    if "/" not in path:
        return any(root.rglob(path)) or path in code_words(root)[1]
    return any(any((root / base).glob(path)) for base in PATH_BASES)


def resolves(span, root=ROOT):
    if span in ALLOWED or "://" in span:  # a URL is not ours to check
        return True
    words = code_words(root)[0]
    if ("/" in span or _EXTENSION.search(span)) and _PATH.fullmatch(span):
        return path_exists(span, root)
    if not _NAME.fullmatch(span):
        return True  # not a name: a literal, a flag, an operator
    return all(part in words for part in span.removesuffix("()").split("."))


def unresolved(root=ROOT):
    return [
        (doc, span)
        for doc in DOCS
        for span in doc_spans((root / doc).read_text(encoding="utf-8"))
        if not resolves(span, root)
    ]


def test_every_backticked_name_resolves():
    assert unresolved() == []


@pytest.mark.parametrize(
    "stale",
    [
        "Database.stale_knob",   # dotted, second part gone
        "stale_setting",         # snake case
        "StaleOperator",         # camelCase
        "engine/stale.py",       # path
        "stale_record.txt",      # bare file name
        "Stalename",             # plain word
    ],
)
def test_a_planted_stale_name_is_caught(tmp_path, stale):
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "live.py").write_text("class Database:\n    knob = 1\n")
    (tmp_path / "DESIGN.md").write_text(
        f"`Database.knob` and `src/live.py` live; `{stale}` does not.\n"
        "```\n`fenced_code_is_not_checked`\n```\n"
    )
    (tmp_path / "README.md").write_text("`OPTION (MAXDOP n)` has spaces\n")
    assert unresolved(tmp_path) == [("DESIGN.md", stale)]
