"""The README's Python examples run and print what their comments say.

Every ```python block of README.md runs in order, in one namespace, one
top-level statement at a time.  A statement whose last line ends in a
`# ...` comment must print exactly one line matching it: the text between
numbers equal up to runs of spaces, and each number printed equal to the
one shown once rounded to the digits shown.
"""

import ast
import contextlib
import io
import re
import tokenize
from decimal import ROUND_HALF_EVEN, Decimal
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:e[-+]?\d+)?")


def python_blocks(text):
    return re.findall(r"^```python\n(.*?)^```$", text, flags=re.M | re.S)


def inline_comments(source):
    """{line number: comment text} for each comment that follows code."""
    comments = {}
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.COMMENT and token.line[:token.start[1]].strip():
            comments[token.start[0]] = token.string[1:].strip()
    return comments


def shows(expected, printed):
    """Whether a printed line matches the output a comment shows."""
    def split(line):
        return [" ".join(part.split()) for part in NUMBER.split(line)], NUMBER.findall(line)

    (texts, shown), (printed_texts, numbers) = split(expected), split(printed)
    if texts != printed_texts:
        return False
    for want, got in zip(map(Decimal, shown), map(Decimal, numbers)):
        step = Decimal(1).scaleb(want.as_tuple().exponent)
        if got.quantize(step, rounding=ROUND_HALF_EVEN) != want:
            return False
    return True


@pytest.mark.parametrize("expected, printed, verdict", [
    ("10.526  0.001177", "10.526264787904093 0.0011768983895045983", True),
    ("[1.2e-93]", "[1.20034172e-93]", True),
    ("(40, 2, 2) True", "(40, 2, 2) True", True),
    ("10.527", "10.526264787904093", False),
    ("0.001177", "0.0011768983895045983 1", False),
    ("True", "False", False),
])
def test_number_rounding_rule(expected, printed, verdict):
    assert shows(expected, printed) == verdict


def test_readme_examples_print_their_comments():
    namespace, checked = {}, 0
    for number, source in enumerate(python_blocks(README.read_text(encoding="utf-8")), 1):
        comments = inline_comments(source)
        for statement in ast.parse(source).body:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                exec(compile(ast.Module([statement], []), f"README block {number}", "exec"),
                     namespace)
            expected = comments.pop(statement.end_lineno, None)
            if expected is None:
                continue
            where = f"README block {number}, line {statement.end_lineno}"
            lines = out.getvalue().splitlines()
            assert len(lines) == 1, f"{where}: printed {lines!r}"
            assert shows(expected, lines[0]), f"{where}: printed {lines[0]!r}, shows {expected!r}"
            checked += 1
        assert not comments, f"README block {number}: comments on no statement's line {comments}"
    assert checked >= 8
