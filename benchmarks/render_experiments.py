"""Fill EXPERIMENTS.md's result blocks from the committed result files.

    python3 benchmarks/render_experiments.py           # rewrite the blocks
    python3 benchmarks/render_experiments.py --check   # exit 1 if any is stale

A block is everything between ``<!-- results: PATH -->`` and
``<!-- /results -->``; rendering replaces it with a fenced copy of the
file at ``PATH`` (relative to the repo root). ``<!-- results: PATH
grep=REGEX -->`` keeps only the lines REGEX matches, for quoting a few
rows of a long table. Measured numbers reach EXPERIMENTS.md this way
and no other, so a number there always has the script that wrote it;
``tests/test_experiments_md.py`` runs the check.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DOCUMENT = ROOT / "EXPERIMENTS.md"

BLOCK = re.compile(
    r"(?P<open><!-- results: (?P<path>\S+)(?: grep=(?P<grep>.+?))? -->\n)"
    r".*?"
    r"(?P<close><!-- /results -->)",
    re.DOTALL,
)


def render(markdown: str) -> str:
    """``markdown`` with every block filled from its file."""

    def fill(match: re.Match) -> str:
        lines = (ROOT / match["path"]).read_text().splitlines()
        if match["grep"]:
            keep = re.compile(match["grep"])
            lines = [line for line in lines if keep.search(line)]
        body = "\n".join(lines)
        return f"{match['open']}```text\n{body}\n```\n{match['close']}"

    return BLOCK.sub(fill, markdown)


def stale_blocks(markdown: str) -> list:
    """Paths of the blocks whose text differs from their file."""
    return [
        match["path"]
        for match in BLOCK.finditer(markdown)
        if render(match[0]) != match[0]
    ]


if __name__ == "__main__":
    text = DOCUMENT.read_text()
    if "--check" in sys.argv[1:]:
        stale = stale_blocks(text)
        for path in stale:
            print(f"EXPERIMENTS.md: block differs from {path}", file=sys.stderr)
        sys.exit(1 if stale else 0)
    DOCUMENT.write_text(render(text))
