"""Count the raw lines and the code lines of Python files and directories.

Usage: python3 scripts/line_counts.py PATH...
Prints one JSON object: for each PATH, the "raw" and "code" lines of the
file, or of the *.py files under the directory.  A raw line is any line.  A
code line holds a token other than a comment, NL, NEWLINE, INDENT or
DEDENT, and lies outside every module, class and function docstring.
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
    parser.add_argument("paths", nargs="+", metavar="PATH")
    args = parser.parse_args(argv)
    report = {}
    for name in args.paths:
        path = Path(name)
        if path.is_file():
            files = [path]
        elif path.is_dir():
            files = sorted(path.rglob("*.py"))
        else:
            parser.error(f"not a file or directory: {name}")
        raw = code = 0
        for file in files:
            r, c = line_counts(file.read_text(encoding="utf-8"))
            raw, code = raw + r, code + c
        report[name] = {"raw": raw, "code": code}
    print(json.dumps(report, indent=2))


if __name__ == "__main__":
    main()
