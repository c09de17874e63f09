from __future__ import annotations

import ast
import doctest
import io
import re
import tokenize
from pathlib import Path

from fishburn import perm, sequences

README = Path(__file__).resolve().parents[1] / "README.md"


def test_docstring_examples_pass():
    for module in (perm, sequences):
        result = doctest.testmod(module)
        assert result.attempted > 0, module.__name__
        assert result.failed == 0, module.__name__


def test_readme_examples_pass():
    # Each fenced python block of the README runs in a fresh namespace.  An
    # expression statement with a trailing comment states its value: the
    # comment is a Python literal the expression must equal.
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks
    for block in blocks:
        comments = {
            tok.start[0]: tok.string.lstrip("#")
            for tok in tokenize.generate_tokens(io.StringIO(block).readline)
            if tok.type == tokenize.COMMENT
        }
        namespace = {}
        checked = 0
        for stmt in ast.parse(block).body:
            if isinstance(stmt, ast.Expr) and stmt.end_lineno in comments:
                got = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
                assert got == ast.literal_eval(comments[stmt.end_lineno].strip()), ast.unparse(stmt)
                checked += 1
            else:
                exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
        assert checked > 0, block
