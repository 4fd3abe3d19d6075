"""Golden JSON reports: the CLI's behaviour contract.

Each case runs one command on an input under ``tests/golden/`` and compares
its ``--json`` report byte for byte with the committed file.  A refactor
must leave every report unchanged.  The failure cases pin the exit code
and the stderr of a command that refuses its input instead, and the
``gen`` cases pin the Cayley text it prints and the map file it writes.  When a report
changes on purpose, rewrite the files with ``python3 tests/test_golden.py``
(with ``src`` on ``PYTHONPATH``) and say why in the change log.
"""

import contextlib
import hashlib
import io
import json
import random
import sys
from pathlib import Path

import pytest

from invmatch import core
from invmatch.cli import main
from invmatch.transformations import enumerate_family

GOLDEN = Path(__file__).parent / "golden"

# report file -> argv; "{}" stands for the golden directory
CASES = {
    "analyze_counterexample.json": ["analyze", "{}/counterexample.band"],
    "match_counterexample.json": ["match", "{}/counterexample.band"],
    "analyze_t3.json": ["analyze", "{}/t3.cayley"],
    "factors_t3.json": ["factors", "{}/t3.cayley"],
    # factors on a larger table, on a 2x2 class with non-group H-cells, and
    # on a band with an adjoined zero whose quotient has no matching
    "factors_o5.json": ["factors", "{}/o5.cayley"],
    "factors_rees.json": ["factors", "{}/rees.cayley"],
    "factors_counterexample.json": ["factors", "{}/counterexample.band"],
    "analyze_o5.json": ["analyze", "{}/o5.cayley"],
    "analyze_rees.json": ["analyze", "{}/rees.cayley"],
    "involution_oracle_o3.json": ["involution", "{}/o3.cayley", "--oracle"],
    "search_q4_oracle.json": ["search-q4", "--oracle"],
    # a plan that exchanges: each girl starts with two balls of one colour
    "colour_solve_2x2.json": ["colour", "solve", "{}/instance2x2.colour"],
    "colour_reduce_2x4.json": ["colour", "reduce", "--band", "{}/band2x4.band"],
    "colour_reduce_2x4_matching.json": [
        "colour", "reduce", "--band", "{}/band2x4.band",
        "--matching", "{}/band2x4.matching",
    ],
    "band_involution_2x4.json": ["band", "involution", "{}/band2x4.band"],
    "band_harem_2x4.json": ["band", "harem", "{}/band2x4.band"],
    "colour_reduce_1x60.json": ["colour", "reduce", "--band", "{}/band1x60.band"],
    "match_band4x6.json": ["match", "{}/band4x6.band"],
    # shapes where m does not divide n, decided by the clone matching
    "band_check_counterexample.json": [
        "band", "check", "{}/counterexample.band", "--oracle"],
    "band_check_4x6.json": ["band", "check", "{}/band4x6.band", "--oracle"],
    # shapes 2x5 and 2x6 are sampled, so this pins the seeded patterns
    "search_q4_sampled.json": [
        "search-q4", "--m-max", "2", "--n-max", "6",
        "--exhaustive-limit", "256", "--samples", "4", "--oracle",
    ],
    "search_on_oracle_6.json": ["search-on", "--n-max", "6", "--oracle"],
    # every D-class of O_1 to O_8 through the row-mask matcher
    "search_on_8.json": ["search-on", "--n-max", "8"],
    # and of O_9 and O_10, where Hopcroft-Karp's phases run longest
    "search_on_10.json": ["search-on", "--n-max", "10"],
    # every 4x4 pattern, decided one orbit at a time; zero separators
    "search_q4_4x4.json": [
        "search-q4", "--m-max", "4", "--n-max", "4",
        "--exhaustive-limit", "65536",
    ],
}

# failure report file -> argv; the input is O_5 with table[73][31] changed
# from 3 to 1, whose first bad triple (1, 104, 31) comes before any triple
# with a generator in the middle, O_3 with table[6][2] = 10, and the 2x3
# counterexample under ``band harem``, which needs m to divide n
FAILURES = {
    "analyze_o5_corrupted.json": ["analyze", "{}/o5_corrupted.cayley"],
    "analyze_o3_out_of_range.json": ["analyze", "{}/o3_out_of_range.cayley"],
    "band_harem_counterexample.json": [
        "band", "harem", "{}/counterexample.band"],
}


# Cayley text file -> argv of a ``gen`` call, which prints the table
GEN = {
    "gen_on_4.cayley": ["gen", "On", "4"],
    "gen_tn_3.cayley": ["gen", "Tn", "3"],
    "gen_ptn_2.cayley": ["gen", "PTn", "2"],
    "gen_opn_3.cayley": ["gen", "OPn", "3"],
    "gen_pn_3.cayley": ["gen", "Pn", "3"],
}
# the map file that ``gen PTn 2 --dict`` writes
GEN_DICT = "gen_ptn_2_dict.json"


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


def printed(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0
    return out.getvalue()


def written_dict(path) -> str:
    printed(["gen", "PTn", "2", "--dict", str(path)])
    return Path(path).read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name):
    assert report(CASES[name]) == (GOLDEN / name).read_text(encoding="utf-8")


def test_timing_adds_only_a_non_negative_timing_ms():
    timed = json.loads(report(CASES["analyze_t3.json"] + ["--timing"]))
    assert timed.pop("timing_ms") >= 0
    assert timed == json.loads((GOLDEN / "analyze_t3.json").read_text())


@pytest.mark.parametrize("name", sorted(FAILURES))
def test_failure_matches_golden(name):
    assert failure(FAILURES[name]) == (GOLDEN / name).read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(GEN))
def test_gen_matches_golden(name):
    assert printed(GEN[name]) == (GOLDEN / name).read_text(encoding="utf-8")


def test_gen_dict_matches_golden(tmp_path):
    assert written_dict(tmp_path / GEN_DICT) == (
        (GOLDEN / GEN_DICT).read_text(encoding="utf-8"))


# The tables the benchmark analyzes are too large to commit as golden
# files, so their reports are pinned by sha256: stdout of
# ``analyze - --json`` on the text ``gen`` prints.
PINNED_SHA256 = {
    ("Tn", 4): "0a1ae90c9fdd10d91f6fa514dbdd8c276b4e6f3195eeb6960554d9ba77e61d96",
    ("On", 6): "b95577d8d8dda09279f1a31a77d17a937582fa08a600ecdb12b60daf8d524c07",
}
# and the Cayley text itself: stdout of ``gen``, which the benchmark checks
# against its own tables
GEN_SHA256 = {
    ("Tn", 4): "918d93efc9ca2b5e52242f02b5848db414c7be63933029eba8b9d54f4b06cbf4",
    ("On", 6): "c0ea89cf19d21c6c3a6fe9f37480daae09dbc84da3b5bb8eb8f8e0a5251f33b2",
}


def analyze_text(text, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["analyze", "-", "--json"])
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("family,n", sorted(PINNED_SHA256))
def test_benchmark_table_report_is_pinned(family, n, monkeypatch):
    text = core.format_cayley(enumerate_family(family, n).semigroup)
    code, out, err = analyze_text(text, monkeypatch)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_SHA256[family, n]


@pytest.mark.parametrize("family,n", sorted(GEN_SHA256))
def test_benchmark_table_text_is_pinned(family, n):
    out = printed(["gen", family, str(n)])
    assert hashlib.sha256(out.encode()).hexdigest() == GEN_SHA256[family, n]


def test_seeded_corrupted_o6_report_is_pinned(monkeypatch):
    s = enumerate_family("On", 6).semigroup
    rows = [list(row) for row in s.table]
    rng = random.Random(6)
    a, b = rng.randrange(s.order), rng.randrange(s.order)
    rows[a][b] = rng.choice([v for v in range(s.order) if v != rows[a][b]])
    text = core.format_cayley(core.FiniteSemigroup(tuple(map(tuple, rows))))
    assert (a, b) == (406, 293)
    assert analyze_text(text, monkeypatch) == (3, "", (
        "invalid algebra: (ab)c != a(bc) for (a, b, c) = (1, 406, 293)\n"))


if __name__ == "__main__":
    for cases, render in ((CASES, report), (FAILURES, failure), (GEN, printed)):
        for name, argv in cases.items():
            (GOLDEN / name).write_text(render(argv), encoding="utf-8")
            print(f"wrote {name}", file=sys.stderr)
    written_dict(GOLDEN / GEN_DICT)
    print(f"wrote {GEN_DICT}", file=sys.stderr)
