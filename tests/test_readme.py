"""README's examples run, and their quoted numbers are the printed ones.

Each ``~x`` in a comment of the quick-start block, or of the block under
"Kernels of your own", is the value printed on that line, shown to the digits x has: ``~2.30e-4`` must be a value that
rounds to 2.30e-4 at three significant digits. A line that prints several
values quotes them in order.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"

APPROX = re.compile(r"~(-?[0-9.]+(?:e-?[0-9]+)?)")


def python_block(heading: str) -> str:
    """The first python block after ``heading``."""
    text = README.read_text()
    section = text[text.index(heading) :]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def significant_digits(literal: str) -> int:
    mantissa = literal.split("e")[0].lstrip("-").replace(".", "")
    return len(mantissa.lstrip("0"))


def quoted_and_printed(code: str) -> int:
    """Run ``code``, check each quoted number against the printed value on
    its line, and return how many were checked."""
    printed: dict[int, list[str]] = {}

    def record(*values):
        printed.setdefault(sys._getframe(1).f_lineno, []).extend(str(v) for v in values)

    exec(compile(code, "README.md example", "exec"), {"print": record})
    quoted = 0
    for lineno, line in enumerate(code.splitlines(), start=1):
        if "#" not in line:
            continue
        wanted = APPROX.findall(line.split("#", 1)[1])
        if not wanted:
            continue
        got = printed[lineno]
        assert len(got) == len(wanted), (line, got)
        for literal, value in zip(wanted, got):
            digits = significant_digits(literal)
            assert float(f"{float(value):.{digits - 1}e}") == float(literal), (line, value)
            quoted += 1
    return quoted


def test_quick_start_prints_the_quoted_numbers():
    assert quoted_and_printed(python_block("## Quick start")) >= 7


def test_tempered_kernel_example_prints_the_quoted_numbers():
    assert quoted_and_printed(python_block("## Kernels of your own")) >= 4
