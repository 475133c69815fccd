"""Count the raw lines and the code lines of the Python files in directories.

Usage: python3 scripts/line_counts.py DIR...
Prints one JSON object: for each DIR, the "raw" and "code" lines of the
*.py files under it.  A raw line is any line.  A code line holds a token
other than a comment, NL, NEWLINE, INDENT or DEDENT, and lies outside every
module, class and function docstring.
"""

import argparse
import ast
import io
import json
import tokenize
from pathlib import Path

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree):
    """The lines of every module, class and function docstring in tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, SCOPES) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def line_counts(text):
    """(raw lines, code lines) of one Python source text."""
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(text.splitlines()), len(code - docstring_lines(ast.parse(text)))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("dirs", nargs="+", metavar="DIR")
    args = parser.parse_args(argv)
    report = {}
    for directory in args.dirs:
        if not Path(directory).is_dir():
            parser.error(f"not a directory: {directory}")
        raw = code = 0
        for path in sorted(Path(directory).rglob("*.py")):
            r, c = line_counts(path.read_text(encoding="utf-8"))
            raw, code = raw + r, code + c
        report[directory] = {"raw": raw, "code": code}
    print(json.dumps(report, indent=2))


if __name__ == "__main__":
    main()
