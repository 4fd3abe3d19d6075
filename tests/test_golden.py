"""Golden JSON reports: the CLI's behaviour contract.

Each case runs one command on an input under ``tests/golden/`` and compares
its ``--json`` report byte for byte with the committed file.  A refactor
must leave every report unchanged.  When a report changes on purpose,
rewrite the files with ``python3 tests/test_golden.py`` (with ``src`` on
``PYTHONPATH``) and say why in the change log.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from invmatch.cli import main

GOLDEN = Path(__file__).parent / "golden"

# report file -> argv; "{}" stands for the golden directory
CASES = {
    "analyze_counterexample.json": ["analyze", "{}/counterexample.band"],
    "match_counterexample.json": ["match", "{}/counterexample.band"],
    "analyze_t3.json": ["analyze", "{}/t3.cayley"],
    "factors_t3.json": ["factors", "{}/t3.cayley"],
    "analyze_o5.json": ["analyze", "{}/o5.cayley"],
    "analyze_rees.json": ["analyze", "{}/rees.cayley"],
    "involution_oracle_o3.json": ["involution", "{}/o3.cayley", "--oracle"],
    "search_q4_oracle.json": ["search-q4", "--oracle"],
    "colour_reduce_2x4.json": ["colour", "reduce", "--band", "{}/band2x4.band"],
    "colour_reduce_2x4_matching.json": [
        "colour", "reduce", "--band", "{}/band2x4.band",
        "--matching", "{}/band2x4.matching",
    ],
    "band_involution_2x4.json": ["band", "involution", "{}/band2x4.band"],
    # shapes 2x5 and 2x6 are sampled, so this pins the seeded patterns
    "search_q4_sampled.json": [
        "search-q4", "--m-max", "2", "--n-max", "6",
        "--exhaustive-limit", "256", "--samples", "4", "--oracle",
    ],
}


def report(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([a.format(GOLDEN) for a in argv] + ["--json"])
    assert code == 0
    return out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name):
    assert report(CASES[name]) == (GOLDEN / name).read_text(encoding="utf-8")


if __name__ == "__main__":
    for name, argv in CASES.items():
        (GOLDEN / name).write_text(report(argv), encoding="utf-8")
        print(f"wrote {name}", file=sys.stderr)
