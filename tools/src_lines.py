"""Count the lines of src/ that hold code, per module and in total.

Usage: python tools/src_lines.py (no options). A line holds code when a token
other than a comment or a docstring starts on it or spans it; blank lines do
not count. A docstring here is any string literal that stands alone as a
statement. This is the count ROADMAP.md tracks as "lines holding code".
"""

import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
# tokens that hold no code; NL and COMMENT are dropped before the scan
_NO_CODE = (tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER,
            tokenize.ENCODING)


def code_lines(path: Path) -> int:
    with path.open("rb") as f:
        tokens = [t for t in tokenize.tokenize(f.readline)
                  if t.type not in (tokenize.NL, tokenize.COMMENT)]
    lines = set()
    for before, tok, after in zip([None, *tokens], tokens, [*tokens[1:], None]):
        if tok.type in _NO_CODE:
            continue
        alone = (before is None or before.type in _NO_CODE) and after.type == tokenize.NEWLINE
        if tok.type == tokenize.STRING and alone:
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main() -> None:
    total = 0
    for path in sorted(SRC.rglob("*.py")):
        n = code_lines(path)
        total += n
        print(f"{n:6d}  {path.relative_to(SRC)}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main()
