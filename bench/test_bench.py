"""Tests of the benchmark harness itself.

Run from the repository root: ``python3 -m pytest -q bench/test_bench.py``.
"""

from __future__ import annotations

import json
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (puts src/ on sys.path)
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from invmatch import cli, core, matching, transformations  # noqa: E402
from invmatch.errors import NotAssociative  # noqa: E402


def test_smoke_mode_runs_every_workload_traced_and_untraced():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"],
        capture_output=True, text=True, timeout=300, cwd=HERE.parent,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    for name in workloads.NAMES:
        assert f"workload {name} seed 0: 1 untraced and 1 traced passes" in proc.stdout
    assert proc.stdout.count("trace_overhead_ratio") == len(workloads.NAMES)


def test_first_bad_triple_matches_the_full_scan():
    text = workloads.order_preserving_text(3)
    for seed in range(20):
        bad_text, triple = workloads.corrupt_table(text, random.Random(seed))
        assert triple[0] == 0 and triple[1] < workloads.CORRUPT_COLUMNS
        sg = core.parse_cayley(bad_text)
        try:
            core.validate(sg)
        except NotAssociative as exc:
            assert exc.triple == triple
        else:
            raise AssertionError("corrupted table validated")


def test_generated_tables_match_gen():
    for family, n, text in (
        ("Tn", 3, workloads.full_transformation_text(3)),
        ("On", 4, workloads.order_preserving_text(4)),
    ):
        data = transformations.enumerate_family(family, n)
        assert core.format_cayley(data.semigroup) == text


def test_band_matching_decider_agrees_with_invmatch():
    from invmatch import bands

    rng = random.Random(7)
    for _ in range(200):
        m, n = rng.randint(1, 3), rng.randint(1, 4)
        pat = workloads.covering_band(rng, m, n, 0.3)
        sg = bands.to_semigroup(bands.band_from_rows(pat))
        expected = matching.find_permutation_matching(sg) is not None
        assert workloads.band_has_matching(pat) == expected


def test_checker_rejects_a_broken_witness():
    text = workloads.full_transformation_text(3)
    item = workloads.Item("analyze T_3", ["analyze", "-", "--json"], text, 0, workloads._check_analyze(text))
    call = run.call_cli(item.argv, item.stdin)
    assert call.code == 0 and item.check(call.out, call.err) is None
    rep = json.loads(call.out)
    w = rep["witnesses"]["matching"]
    w[0], w[1] = w[1], w[0]
    assert item.check(json.dumps(rep), "") is not None


def test_classify_counts_causes():
    item = workloads.Item("x", ["x"], "", 0, lambda out, err: None)
    ok = run.Call(0, "a", "", 0.1)
    assert run.classify(item, ok, ok, None) == "ok"
    assert run.classify(item, ok, ok, "bad witness") == "wrong"
    assert run.classify(item, ok, run.Call(0, "b", "", 0.1), None) == "wrong"
    assert run.classify(item, ok, run.Call(None, "", "", 0.1, "RecursionError"), None) == "crash"
    assert run.classify(item, ok, run.Call(5, "", "", 0.1), None) == "budget"
    assert run.classify(item, ok, run.Call(7, "", "", 0.1), None) == "exit"


def test_tail_has_ten_samples_beyond_or_is_the_maximum():
    assert run.tail(list(range(100))) == (89, 100 * 89 / 99, 10)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_ref_clock_samples_during_a_call_and_takes_its_time_out():
    items = [workloads.Item("busy", ["busy"], "", 0, lambda out, err: None)]

    def busy(argv):
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.45:
            pass
        return 0

    saved = cli.main
    cli.main = busy
    try:
        with run.RefClock() as clock:
            p = run.run_pass(items, 0, clock)
    finally:
        cli.main = saved
    assert len(clock.samples) >= 3
    assert clock.spent >= sum(clock.samples) > 0
    # the call's wall time was at least 0.45 s, of which clock.spent was the
    # handler's
    assert 0.45 - clock.spent - 0.001 < p.seconds < 0.45
    assert clock.mean() == statistics.fmean(clock.samples)


def test_tracer_rebinds_imported_names_and_restores_them():
    original, original_cmd = core.green_relations, cli.cmd_analyze
    t = tracing.Tracer()
    t.install()
    try:
        assert matching.green_relations is core.green_relations is not original
        assert transformations.matching_on_graph is matching.matching_on_graph
        t.begin_call(0, "analyze T_2")
        sg = core.parse_cayley(workloads.full_transformation_text(2))
        matching.equivalence_report(sg)
        names = {s[0] for s in t.spans}
        assert {"core.green_relations", "matching.equivalence_report",
                "graphs.hopcroft_karp"} <= names
        per_pass = t.per_pass()[0]
        assert per_pass["core.green_relations.elements"] >= sg.order
        assert all(v >= 0 for k, v in per_pass.items() if k.endswith("self_s"))
    finally:
        t.uninstall()
    assert core.green_relations is original and matching.green_relations is original
    assert cli.cmd_analyze is original_cmd
