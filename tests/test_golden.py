"""Golden JSON reports: the CLI's behaviour contract.

Each case runs one command on an input under ``tests/golden/`` and compares
its ``--json`` report byte for byte with the committed file.  A refactor
must leave every report unchanged.  The failure cases pin the exit code
and the stderr of a command that refuses its input instead.  When a report
changes on purpose, rewrite the files with ``python3 tests/test_golden.py``
(with ``src`` on ``PYTHONPATH``) and say why in the change log.
"""

import contextlib
import io
import json
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

# failure report file -> argv; the input is O_5 with table[73][31] changed
# from 3 to 1, whose first bad triple (1, 104, 31) comes before any triple
# with a generator in the middle, and O_3 with table[6][2] = 10
FAILURES = {
    "analyze_o5_corrupted.json": ["analyze", "{}/o5_corrupted.cayley"],
    "analyze_o3_out_of_range.json": ["analyze", "{}/o3_out_of_range.cayley"],
}


def report(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([a.format(GOLDEN) for a in argv] + ["--json"])
    assert code == 0
    return out.getvalue()


def failure(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([a.format(GOLDEN) for a in argv] + ["--json"])
    assert code != 0 and out.getvalue() == ""
    return json.dumps({"exit_code": code, "stderr": err.getvalue()},
                      sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name):
    assert report(CASES[name]) == (GOLDEN / name).read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(FAILURES))
def test_failure_matches_golden(name):
    assert failure(FAILURES[name]) == (GOLDEN / name).read_text(encoding="utf-8")


if __name__ == "__main__":
    for cases, render in ((CASES, report), (FAILURES, failure)):
        for name, argv in cases.items():
            (GOLDEN / name).write_text(render(argv), encoding="utf-8")
            print(f"wrote {name}", file=sys.stderr)
