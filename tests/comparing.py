"""Whole-file comparisons that fail fast.

A plain ``assert got == want`` on two texts of tens of kB makes pytest diff
them line by line before it reports, and Hypothesis repeats that for every
example it shrinks: a broken writer then stalls a run for minutes.
"""

import pytest


def assert_same_text(got, want):
    """Fail unless the texts (or byte strings) ``got`` and ``want`` are equal,
    naming the first line that differs and giving both versions of it."""
    if got == want:
        return
    lines, wanted = got.splitlines(keepends=True), want.splitlines(keepends=True)
    i = next((i for i, (a, b) in enumerate(zip(lines, wanted)) if a != b),
             min(len(lines), len(wanted)))
    pytest.fail(f"line {i + 1} differs: got {(lines[i:] or ['<end>'])[0]!r}, "
                f"want {(wanted[i:] or ['<end>'])[0]!r}", pytrace=False)
