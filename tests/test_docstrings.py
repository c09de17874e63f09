from __future__ import annotations

import doctest

from fishburn import perm, sequences


def test_docstring_examples_pass():
    for module in (perm, sequences):
        result = doctest.testmod(module)
        assert result.attempted > 0, module.__name__
        assert result.failed == 0, module.__name__
