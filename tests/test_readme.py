"""README's quick tour, run line by line as written.

A comment that is a Python literal (before any ``;``) must equal the value
of its line; any other comment is a claim checked by ``CLAIMS``.  A comment
that is neither fails, so the tour cannot drift from the API unnoticed.
"""

import ast
import re
from pathlib import Path

from invmatch import bands

README = Path(__file__).resolve().parent.parent / "README.md"

# comment -> check of (namespace after the line, the line's value)
CLAIMS = {
    "the 7-element counterexample": lambda ns, _: ns["band"].order == 7,
    "the Cayley table, for its labels": lambda ns, _: ns["sg"].labels is not None,
    "verified involution matching":
        lambda ns, p: bands.verify_band_involution(ns["full"], p),
}


def quick_tour() -> list[str]:
    text = README.read_text(encoding="utf-8")
    block = re.search(r"A quick tour:\n\n```python\n(.*?)```", text, re.S)
    assert block, "README has no quick-tour block"
    return block.group(1).splitlines()


def test_quick_tour_returns_what_its_comments_state():
    ns: dict = {}
    checked = []
    for line in quick_tour():
        code, _, comment = line.partition("#")
        code, comment = code.strip(), comment.strip()
        if not code:
            continue
        if isinstance(ast.parse(code).body[0], ast.Expr):
            value = eval(code, ns)
        else:
            exec(code, ns)
            value = None
        if not comment:
            continue
        stated = comment.split(";")[0]
        try:
            expected = ast.literal_eval(stated)
        except (ValueError, SyntaxError):
            assert comment in CLAIMS, f"unchecked comment: {comment!r}"
            assert CLAIMS[comment](ns, value), line
        else:
            assert value == expected, line
        checked.append(comment)
    # every claim above was met, and some literal too
    assert set(CLAIMS) < set(checked)
