"""CLI surface: exit codes, report shape, determinism, witness
round-trips."""

import argparse
import contextlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import pytest

import corpus
import dispatch_oracle
from invmatch import (bands, cli, colours, core, graphs, matching,
                      transformations)
from invmatch.cli import build_parser, main


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def cex_file(tmp_path):
    path = tmp_path / "cex.band"
    path.write_text(bands.format_band(bands.no_matching_band()))
    return str(path)


@pytest.fixture
def t3_file(tmp_path):
    from invmatch.transformations import enumerate_family

    path = tmp_path / "t3.cayley"
    path.write_text(core.format_cayley(enumerate_family("Tn", 3).semigroup))
    return str(path)


class TestExitCodes:
    def test_parse_error(self, tmp_path, capsys):
        path = tmp_path / "junk"
        path.write_text("not a table\n")
        code, _, err = run(capsys, ["analyze", str(path)])
        assert code == 2

    def test_invalid_algebra(self, tmp_path, capsys):
        path = tmp_path / "magma.cayley"
        path.write_text("3\n0 2 2\n1 0 0\n2 1 0\n")
        code, _, err = run(capsys, ["analyze", str(path)])
        assert code == 3
        assert "0, 1, 1" in err

    def test_precondition_not_regular(self, tmp_path, capsys):
        path = tmp_path / "null.cayley"
        path.write_text(core.format_cayley(corpus.null_semigroup(3)))
        code, _, _ = run(capsys, ["analyze", str(path)])
        assert code == 4

    def test_band_check_decides_a_shape_that_does_not_divide(self, cex_file,
                                                             capsys):
        assert run(capsys, ["band", "check", cex_file]) == (
            0, "fails on rows [1]\n", "")

    def test_precondition_not_divisible(self, cex_file, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(graphs, "hopcroft_karp",
                            lambda *args: calls.append(args))
        for mode in ("harem", "involution"):
            assert run(capsys, ["band", mode, cex_file]) == (
                4, "", "precondition failed: 2 does not divide 3\n")
        # refused before any matching runs
        assert calls == []

    @pytest.mark.parametrize("command", ["match", "analyze"])
    def test_a_band_past_the_table_cap_is_refused_before_its_table(
            self, tmp_path, capsys, command):
        # 64 * 63 + 1 = 4,033 elements, one past the bound on a gen table:
        # its Cayley table would hold 16.3 M entries
        path = tmp_path / "ones.band"
        path.write_text(bands.format_band(
            bands.band_from_rows([[1] * 63 for _ in range(64)])))
        t0 = time.perf_counter()
        code, out, err = run(capsys, [command, str(path)])
        assert time.perf_counter() - t0 < 1.0
        assert (code, out) == (4, "")
        assert err == (f"precondition failed: band of order 4033 exceeds cap "
                       f"{transformations.FAMILY_CAP}\n")

    def test_a_band_past_the_clone_cap_is_refused_before_its_clones(
            self, tmp_path, capsys):
        # 159 * lcm(159, 160) = 4,044,960 clone-list entries, one full
        # m x (m + 1) shape past the 158 x 159 band that the cap admits
        path = tmp_path / "ones.band"
        path.write_text(bands.format_band(
            bands.band_from_rows([[1] * 160 for _ in range(159)])))
        t0 = time.perf_counter()
        code, out, err = run(capsys, ["band", "check", str(path)])
        assert time.perf_counter() - t0 < 1.0
        assert (code, out) == (4, "")
        assert err == (f"precondition failed: clone matching of 4044960 "
                       f"entries exceeds cap {bands.CLONE_CAP}\n")

    def test_budget_exhausted(self, tmp_path, capsys):
        inst = colours.ColourInstance(2, 2, ((0, 0), (0, 0), (1, 1), (1, 1)))
        path = tmp_path / "inst"
        path.write_text(colours.format_instance(inst))
        code, out, _ = run(
            capsys, ["colour", "solve", str(path), "--budget", "1"]
        )
        assert code == 5

    @pytest.mark.parametrize("mode", ["solve", "reduce"])
    def test_budget_exhausted_reports_no_plan(self, capsys, mode):
        source = ([mode, str(GOLDEN / "instance2x2.colour")] if mode == "solve"
                  else [mode, "--band", str(GOLDEN / "band2x4.band")])
        code, out, err = run(capsys, ["colour", *source, "--budget", "1"])
        assert (code, out, err) == (5, "budget_exhausted\n", "")
        code, out, err = run(capsys, ["colour", *source, "--budget", "1",
                                      "--json"])
        assert (code, err) == (5, "")
        report = json.loads(out)
        assert report["verdicts"] == {"status": "budget_exhausted", "nodes": 2}
        assert report["witnesses"]["plan"] is None
        assert report["witnesses"].get("involution") is None

    def test_colour_budget_defaults_to_the_backtracking_budget(self):
        args = build_parser().parse_args(["colour", "solve", "instance"])
        assert args.budget == matching.BACKTRACKING_BUDGET

    @pytest.mark.parametrize("mode", ["solve", "reduce"])
    @pytest.mark.parametrize("budget", ["0", "-3"])
    def test_colour_budget_below_one_is_a_parse_error(self, tmp_path, capsys,
                                                      mode, budget):
        # inputs that solve and reduce accept at any positive budget
        path = tmp_path / "instance"
        path.write_text(colours.format_instance(colours.ColourInstance(
            2, 2, ((0, 0), (0, 0), (1, 1), (1, 1)))))
        source = ([str(path)] if mode == "solve"
                  else ["--band", str(GOLDEN / "band2x4.band")])
        code, out, err = run(capsys, ["colour", mode, *source,
                                      "--budget", budget, "--json"])
        assert code == 2
        assert out == ""
        assert err == f"parse error: --budget must be positive, got {budget}\n"

    def test_missing_file(self, capsys):
        code, _, _ = run(capsys, ["analyze", "/nonexistent/file"])
        assert code == 2

    def test_q4_non_numeric_density_is_a_parse_error(self, capsys):
        code, out, err = run(capsys, ["search-q4", "--densities", "0.5,abc"])
        assert (code, out) == (2, "")
        assert err == "parse error: bad --densities: '0.5,abc'\n"

    def test_q4_out_of_range_density_fails_precondition(self, capsys):
        code, out, err = run(capsys, [
            "search-q4", "--densities", "1.5", "--m-max", "1", "--n-max", "2",
            "--exhaustive-limit", "1",
        ])
        assert (code, out) == (4, "")
        assert err == "precondition failed: density must lie in (0, 1]\n"

    @pytest.mark.parametrize("argv", [
        ["band", "check"], ["band", "harem"], ["band", "involution"],
        ["match"], ["analyze"], ["involution"], ["factors"],
        ["colour", "reduce", "--band"],
    ])
    @pytest.mark.parametrize("header", ["0 3", "0 0"])
    def test_band_with_an_empty_dimension_is_a_parse_error(
        self, tmp_path, capsys, argv, header
    ):
        path = tmp_path / "empty.band"
        path.write_text(header + "\n")
        code, out, err = run(capsys, argv + [str(path)])
        assert (code, out) == (2, "")
        assert err == "parse error: band dimensions must be positive\n"


class TestCounterexampleReports:
    def test_match_report(self, cex_file, capsys):
        code, out, _ = run(capsys, ["match", cex_file, "--json"])
        assert code == 0
        report = json.loads(out)
        assert report["verdicts"]["has_matching"] is False
        viol = report["witnesses"]["hall_violator"]
        assert sorted(viol["labels"]) == ["(2,2)", "(2,3)"]
        assert viol["image_labels"] == ["(1,1)"]

    def test_analyze_report(self, cex_file, capsys):
        code, out, _ = run(capsys, ["analyze", cex_file, "--json"])
        assert code == 0
        report = json.loads(out)
        assert report["structure"]["orthodox"] is True
        assert report["verdicts"]["has_matching"] is False
        assert report["verdicts"]["has_involution_matching"] is False
        assert report["witnesses"]["hall_violator"] is not None

    def test_human_violator_lines(self, cex_file, capsys):
        _, match_out, _ = run(capsys, ["match", cex_file])
        _, analyze_out, _ = run(capsys, ["analyze", cex_file])
        assert match_out == "absent\nviolator: (2,2) (2,3) -> (1,1)\n"
        assert analyze_out.endswith("hall violator: (2,2) (2,3) -> (1,1)\n")

    def test_factors_report(self, cex_file, capsys):
        code, out, _ = run(capsys, ["factors", cex_file, "--json"])
        assert code == 0
        report = json.loads(out)
        sizes = sorted(f["size"] for f in report["factors"])
        assert sizes == [1, 6]
        big = next(f for f in report["factors"] if f["size"] == 6)
        assert big["quotient"] == "2x3"
        assert big["has_matching"] is False


class TestWitnessRoundTrips:
    def test_matching_reverifies(self, t3_file, capsys):
        code, out, _ = run(capsys, ["match", t3_file, "--json"])
        report = json.loads(out)
        p = tuple(report["witnesses"]["matching"])
        sg = core.parse_cayley(open(t3_file).read())
        assert matching.verify_permutation_matching(sg, p)

    def test_involution_reverifies(self, t3_file, capsys):
        code, out, _ = run(capsys, ["involution", t3_file, "--json", "--oracle"])
        report = json.loads(out)
        assert report["verdicts"]["oracle_agrees"] is True
        p = tuple(report["witnesses"]["involution"])
        sg = core.parse_cayley(open(t3_file).read())
        assert matching.verify_involution_matching(sg, p)

    def test_violator_reverifies(self, cex_file, capsys):
        code, out, _ = run(capsys, ["match", cex_file, "--json"])
        report = json.loads(out)
        viol = report["witnesses"]["hall_violator"]
        sg = bands.to_semigroup(bands.parse_band(open(cex_file).read()))
        joint = set()
        for a in viol["elements"]:
            joint.update(corpus.inverses_of(sg, a))
        assert sorted(joint) == viol["image"]
        assert len(viol["elements"]) > len(viol["image"])

    def test_band_involution_reverifies(self, tmp_path, capsys):
        band = bands.band_from_rows([[1, 1, 1, 1], [1, 1, 1, 1]])
        path = tmp_path / "full.band"
        path.write_text(bands.format_band(band))
        code, out, _ = run(capsys, ["band", "involution", str(path), "--json"])
        assert code == 0
        report = json.loads(out)
        assert report["verdicts"]["verified"] is True
        p = tuple(report["witnesses"]["involution"])
        sg = bands.to_semigroup(band)
        assert matching.verify_involution_matching(sg, p)


class TestSemilattice:
    def test_identity_matching(self, tmp_path, capsys):
        path = tmp_path / "sl.cayley"
        path.write_text(core.format_cayley(corpus.chain_semilattice(4)))
        code, out, _ = run(capsys, ["analyze", str(path), "--json"])
        report = json.loads(out)
        assert report["structure"]["inverse"] is True
        assert report["witnesses"]["matching"] == [0, 1, 2, 3]


class TestGen:
    def test_gen_t3(self, capsys, tmp_path):
        sidecar = tmp_path / "maps.json"
        code, out, _ = run(capsys, ["gen", "Tn", "3", "--dict", str(sidecar)])
        assert code == 0
        sg = core.parse_cayley(out)
        assert sg.order == 27
        core.validate(sg)
        mapping = json.loads(sidecar.read_text())
        assert len(mapping) == 27
        assert mapping["0"] == [0, 0, 0]

    def test_gen_to_a_sidecar_it_cannot_write_prints_no_table(self, capsys,
                                                             tmp_path):
        sidecar = tmp_path / "missing" / "maps.json"
        code, out, err = run(capsys, ["gen", "Tn", "1", "--dict", str(sidecar)])
        assert (code, out) == (2, "")
        assert err.startswith("io error: ") and err.count("\n") == 1

    def test_gen_partial_has_nulls(self, capsys, tmp_path):
        sidecar = tmp_path / "maps.json"
        code, out, _ = run(capsys, ["gen", "PTn", "2", "--dict", str(sidecar)])
        mapping = json.loads(sidecar.read_text())
        assert [None, None] in mapping.values()

    def test_gen_cap(self, capsys):
        code, _, _ = run(capsys, ["gen", "Tn", "6"])
        assert code == 4

    def test_gen_default_cap_refuses_ptn5_before_any_map(self, capsys):
        code, out, err = run(capsys, ["gen", "PTn", "5"])
        assert code == 4
        assert out == ""
        assert err == (
            "precondition failed: |PTn(5)| = 7776 exceeds cap 4000\n")

    @pytest.mark.parametrize("family", sorted(transformations.FAMILIES))
    def test_gen_rejects_non_positive_n(self, capsys, family):
        for n in ("0", "-1"):
            code, out, err = run(capsys, ["gen", family, n])
            assert code == 2
            assert out == ""
            assert err == f"parse error: n must be positive, got {n}\n"

    def test_gen_cap_admits_a_family_of_exactly_its_size(self, capsys):
        code, out, err = run(capsys, ["gen", "On", "4", "--cap", "35"])
        assert (code, err) == (0, "")
        assert out == (GOLDEN / "gen_on_4.cayley").read_text(encoding="utf-8")
        code, out, err = run(capsys, ["gen", "On", "4", "--cap", "34"])
        assert (code, out) == (4, "")
        assert err == "precondition failed: |On(4)| = 35 exceeds cap 34\n"

    @pytest.mark.parametrize("cap", ["0", "-5"])
    def test_gen_rejects_a_non_positive_cap(self, capsys, cap):
        code, out, err = run(capsys, ["gen", "Tn", "3", "--cap", cap])
        assert (code, out) == (2, "")
        assert err == f"parse error: --cap must be positive, got {cap}\n"

    def test_gen_pipes_into_analyze(self, capsys, monkeypatch):
        code, out, _ = run(capsys, ["gen", "Tn", "3"])
        monkeypatch.setattr(sys, "stdin", io.StringIO(out))
        code, out2, _ = run(capsys, ["analyze", "-", "--json"])
        assert code == 0
        report = json.loads(out2)
        assert report["verdicts"]["has_matching"] is True
        assert report["verdicts"]["has_involution_matching"] is True


class TestColour:
    def test_solve_instance_file(self, tmp_path, capsys):
        inst = colours.ColourInstance(2, 2, ((0, 0), (0, 0), (1, 1), (1, 1)))
        path = tmp_path / "inst"
        path.write_text(colours.format_instance(inst))
        code, out, _ = run(capsys, ["colour", "solve", str(path), "--json"])
        assert code == 0
        report = json.loads(out)
        assert report["verdicts"]["status"] == "solved"
        assert report["verdicts"]["plan_verified"] is True
        plan = colours.ExchangePlan(tuple(report["witnesses"]["plan"]))
        assert colours.verify_plan(inst, plan)

    @pytest.mark.parametrize("header", ["0 3", "2 0", "-1 -1\n0 0"])
    def test_solve_rejects_a_non_positive_dimension(self, tmp_path, capsys,
                                                    header):
        path = tmp_path / "inst"
        path.write_text(header + "\n")
        code, out, err = run(capsys, ["colour", "solve", str(path)])
        assert (code, out) == (2, "")
        assert err == "parse error: instance dimensions must be positive\n"

    @pytest.mark.parametrize("line", ["0 0 0", "0"])
    def test_solve_names_a_bad_instance_line(self, tmp_path, capsys, line):
        path = tmp_path / "inst"
        path.write_text(f"1 1\n{line}\n")
        code, out, err = run(capsys, ["colour", "solve", str(path)])
        assert (code, out) == (2, "")
        assert err == f"parse error: bad instance line: {line!r}\n"

    def test_reduce_band(self, tmp_path, capsys):
        band = bands.band_from_rows([[1, 1], [1, 1]])
        path = tmp_path / "full.band"
        path.write_text(bands.format_band(band))
        code, out, _ = run(
            capsys, ["colour", "reduce", "--band", str(path), "--json"]
        )
        assert code == 0
        report = json.loads(out)
        assert report["verdicts"]["status"] == "solved"
        assert report["verdicts"]["involution_verified"] is True
        sg = bands.to_semigroup(band)
        p = tuple(report["witnesses"]["involution"])
        assert matching.verify_involution_matching(sg, p)

    def test_reduce_with_explicit_matching_file(self, tmp_path, capsys):
        band = bands.band_from_rows([[1, 1], [1, 1]])
        band_path = tmp_path / "full.band"
        band_path.write_text(bands.format_band(band))
        # transpose matching, supplied explicitly
        phi = [0] * band.order
        for i, j in band.cells():
            phi[band.cell_index(i, j)] = band.cell_index(j, i)
        phi_path = tmp_path / "phi"
        phi_path.write_text(matching.format_matching(tuple(phi)))
        code, out, _ = run(
            capsys,
            [
                "colour",
                "reduce",
                "--band",
                str(band_path),
                "--matching",
                str(phi_path),
                "--json",
            ],
        )
        assert code == 0
        report = json.loads(out)
        assert report["witnesses"]["matching"] == phi
        assert report["verdicts"]["involution_verified"] is True

    def test_reduce_without_matching_fails_precondition(self, cex_file, capsys):
        code, _, err = run(capsys, ["colour", "reduce", "--band", cex_file])
        assert code == 4

    @pytest.mark.parametrize("with_matching", [False, True])
    def test_reduce_irregular_band_fails_precondition(
        self, tmp_path, capsys, with_matching
    ):
        path = tmp_path / "irregular.band"
        path.write_text("2 2\n11\n00\n")
        argv = ["colour", "reduce", "--band", str(path)]
        if with_matching:
            phi_path = tmp_path / "phi"
            phi_path.write_text("0 1 2 3 4\n")
            argv += ["--matching", str(phi_path)]
        code, out, err = run(capsys, argv)
        assert code == 4
        assert out == ""
        assert err == "precondition failed: row 1 has no idempotent\n"


class TestHeadedInputErrors:
    """Band and instance files both start with an ``m n`` header: every
    message their reading can raise, through ``main``."""

    BAND_COMMANDS = [["band", "check"], ["colour", "reduce", "--band"]]

    @pytest.mark.parametrize("command", BAND_COMMANDS, ids=" ".join)
    @pytest.mark.parametrize("text, message", [
        ("", "empty input"),
        ("# a comment only\n\n", "empty input"),
        ("3\n111\n", "bad band header: '3'"),
        ("1 2 3\n11\n", "bad band header: '1 2 3'"),
        ("2 x\n11\n11\n", "bad band header: '2 x'"),
        ("2 2\n11\n", "expected 2 pattern rows, found 1"),
    ])
    def test_band(self, tmp_path, capsys, command, text, message):
        path = tmp_path / "in.band"
        path.write_text(text)
        assert run(capsys, [*command, str(path)]) == (
            2, "", f"parse error: {message}\n")

    # the table commands read a file as a band only when its first line
    # that is not blank or a comment has two tokens
    @pytest.mark.parametrize("command", [["match"], ["analyze"]], ids=" ".join)
    @pytest.mark.parametrize("text, message", [
        ("3\n111\n", "expected 3 rows, found 1"),
        ("1 2 3\n11\n", "bad order line: '1 2 3'"),
        ("# labels: a b\n", "empty input"),
    ])
    def test_table(self, tmp_path, capsys, command, text, message):
        path = tmp_path / "in.cayley"
        path.write_text(text)
        assert run(capsys, [*command, str(path)]) == (
            2, "", f"parse error: {message}\n")

    # a table file skips its comment lines as the detection does
    @pytest.mark.parametrize("command", [["match"], ["analyze"]], ids=" ".join)
    def test_table_with_a_comment_line(self, tmp_path, capsys, command):
        reports = []
        for text in ("# c\n1\n0\n", "1\n0\n"):
            path = tmp_path / "in.cayley"
            path.write_text(text)
            code, out, err = run(capsys, [*command, str(path), "--json"])
            assert (code, err) == (0, "")
            report = json.loads(out)
            del report["input"]["digest"]
            reports.append(report)
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("text, message", [
        ("", "empty input"),
        ("# a comment only\n\n", "empty input"),
        ("3\n0 0\n", "bad instance header: '3'"),
        ("1 2 3\n0 0\n", "bad instance header: '1 2 3'"),
        ("2 x\n0 0\n", "bad instance header: '2 x'"),
        ("2 2\n0 0\n", "1 balls for an 2 x 2 instance"),
        # one instance per way the balls can be malformed
        ("0 2\n", "instance dimensions must be positive"),
        ("1 2\n0 0\n0 2\n", "ball (0, 2) out of range"),
        ("2 1\n0 0\n0 0\n", "some girl does not hold exactly n balls"),
        ("1 2\n0 0\n0 0\n", "some colour does not have exactly m balls"),
    ])
    def test_instance(self, tmp_path, capsys, text, message):
        path = tmp_path / "in.inst"
        path.write_text(text)
        assert run(capsys, ["colour", "solve", str(path)]) == (
            2, "", f"parse error: {message}\n")

    def test_a_matching_with_a_non_integer_image(self, tmp_path, capsys):
        path = tmp_path / "phi"
        path.write_text("0 1 x 5 4 3 7 8 6\n")
        argv = ["colour", "reduce", "--band", str(GOLDEN / "band2x4.band"),
                "--matching", str(path)]
        assert run(capsys, argv) == (
            2, "", "parse error: bad matching line: '0 1 x 5 4 3 7 8 6\\n'\n")


class TestSearches:
    def test_q4_zero_separators_and_determinism(self, capsys):
        argv = [
            "search-q4",
            "--m-max",
            "2",
            "--n-max",
            "3",
            "--json",
            "--seed",
            "5",
        ]
        code1, out1, _ = run(capsys, argv)
        code2, out2, _ = run(capsys, argv)
        assert code1 == code2 == 0
        assert out1 == out2  # byte-identical rerun
        report = json.loads(out1)
        assert report["verdicts"]["separators_found"] == 0
        modes = {s["mode"] for s in report["verdicts"]["shapes"]}
        assert modes == {"exhaustive"}

    def test_q4_sampled_mode_labelled(self, capsys):
        code, out, _ = run(
            capsys,
            [
                "search-q4",
                "--m-max",
                "2",
                "--n-max",
                "3",
                "--exhaustive-limit",
                "4",
                "--samples",
                "3",
                "--json",
            ],
        )
        report = json.loads(out)
        modes = {s["mode"] for s in report["verdicts"]["shapes"]}
        assert "sampled" in modes

    def test_q4_sampler_gives_up_on_an_uncoverable_shape(self, capsys):
        # a 1x13 draw at density 0.3 covers its line with p = 0.3**13, so
        # the first sampled shape runs into the sampler's draw cap
        start = time.perf_counter()
        code, out, err = run(
            capsys,
            ["search-q4", "--m-max", "1", "--n-max", "20", "--samples", "1",
             "--densities", "0.3"],
        )
        assert time.perf_counter() - start < 30
        assert code == 5
        assert out == ""
        assert err.startswith("budget exhausted: no 1x13 pattern")

    @pytest.mark.parametrize("command, flag, value", [
        ("search-q4", "--m-max", "0"), ("search-q4", "--n-max", "-2"),
        ("search-q4", "--samples", "-1"), ("search-on", "--n-max", "-3"),
    ])
    def test_non_positive_size_is_a_parse_error(self, capsys,
                                                command, flag, value):
        code, out, err = run(capsys, [command, flag, value, "--json"])
        assert code == 2
        assert out == ""
        assert err == f"parse error: {flag} must be positive, got {value}\n"

    @pytest.mark.parametrize("densities", ["", ","])
    def test_q4_empty_densities_with_a_sampled_shape_is_a_parse_error(
            self, capsys, densities):
        code, out, err = run(capsys, ["search-q4", "--m-max", "1", "--n-max",
                                      "13", "--densities", densities])
        assert code == 2
        assert out == ""
        assert err == (
            "parse error: --densities is empty, but shape 1x13 is sampled\n")

    def test_q4_empty_densities_are_unused_when_every_shape_is_exhaustive(
            self, capsys):
        argv = ["search-q4", "--m-max", "2", "--n-max", "3", "--json"]
        code, out, _ = run(capsys, argv + ["--densities", ""])
        assert code == 0
        _, default_out, _ = run(capsys, argv)
        report, default = json.loads(out), json.loads(default_out)
        # the densities are hashed into the input digest, used or not
        report.pop("input"), default.pop("input")
        assert report == default

    @pytest.mark.parametrize("limit", [-5, 0, 1, 2, 3, 4, 5, 4095, 4096, 4097])
    def test_q4_shape_is_exhaustive_iff_its_pattern_count_fits(self, capsys,
                                                              limit):
        # shapes 1x1 .. 1x20 hold 1 .. 20 cells; density 1 covers a sampled
        # line at the first draw
        code, out, _ = run(capsys, [
            "search-q4", "--m-max", "1", "--n-max", "20", "--samples", "1",
            "--densities", "1", "--exhaustive-limit", str(limit), "--json"])
        assert code == 0
        modes = [s["mode"] for s in json.loads(out)["verdicts"]["shapes"]]
        assert modes == ["exhaustive" if 2**cells <= limit else "sampled"
                         for cells in range(1, 21)]
        # the empty-densities check makes the same choice for the last shape
        for cells in range(1, 21):
            code, _, _ = run(capsys, [
                "search-q4", "--m-max", "1", "--n-max", str(cells),
                "--densities", "", "--exhaustive-limit", str(limit)])
            assert code == (0 if 2**cells <= limit else 2)

    def test_q4_empty_densities_on_a_huge_shape_fail_fast(self, capsys):
        # 2**(10**10) is never built
        start = time.perf_counter()
        code, out, err = run(capsys, ["search-q4", "--m-max", "100000",
                                      "--n-max", "100000", "--densities", ""])
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err == ("parse error: --densities is empty, but shape "
                       "100000x100000 is sampled\n")

    def test_search_on_refuses_a_family_past_its_cap(self, capsys,
                                                     monkeypatch):
        def never(*args):
            raise AssertionError("family_maps called past the cap")

        monkeypatch.setattr(transformations, "family_maps", never)
        code, out, err = run(capsys, ["search-on", "--n-max", "40", "--json"])
        size = transformations.family_size("On", 40)
        assert (code, out) == (4, "")
        assert err == (f"precondition failed: |On(40)| = {size} exceeds cap "
                       f"{cli.ON_MAX_MAPS}\n")

    @pytest.mark.parametrize("argv, cap", [
        (["search-on", "--n-max", "1000000000"], cli.ON_MAX_MAPS),
        (["gen", "On", "1000000000"], transformations.FAMILY_CAP),
    ])
    def test_a_family_past_its_cap_in_n_is_refused_before_its_size(
            self, capsys, monkeypatch, argv, cap):
        # the size of On(n) takes most of a minute near n = 10**6
        def never(*args):
            raise AssertionError("family_size called for n past the cap")

        monkeypatch.setattr(transformations, "family_size", never)
        code, out, err = run(capsys, argv)
        assert (code, out) == (4, "")
        assert err == (f"precondition failed: |On(1000000000)| >= 1000000000 "
                       f"exceeds cap {cap}\n")

    def test_search_on_cap_admits_o10_and_refuses_o11(self):
        assert (transformations.family_size("On", 10) <= cli.ON_MAX_MAPS
                < transformations.family_size("On", 11))

    @pytest.mark.parametrize("argv, family, n, cap", [
        (["gen", "Tn", "2000"], "Tn", 2000, transformations.FAMILY_CAP),
        (["gen", "Tn", "4000"], "Tn", 4000, transformations.FAMILY_CAP),
        (["search-on", "--n-max", "99999"], "On", 99999, cli.ON_MAX_MAPS),
    ])
    def test_a_size_past_the_digit_limit_is_refused_in_one_true_line(
            self, capsys, argv, family, n, cap):
        # by default str() refuses an int of more than 4,300 digits
        size = transformations.family_size(family, n)
        k = size.bit_length() - 1
        assert 2**k <= size < 2**(k + 1) and size >= 10**4300
        code, out, err = run(capsys, argv)
        assert (code, out) == (4, "")
        assert err == (f"precondition failed: |{family}({n})| >= 2**{k} "
                       f"exceeds cap {cap}\n")

    def test_search_on_oracle(self, capsys):
        code, out, _ = run(
            capsys, ["search-on", "--n-max", "3", "--json", "--oracle"]
        )
        assert code == 0
        report = json.loads(out)
        rows = report["verdicts"]["families"]
        assert [r["size"] for r in rows] == [1, 3, 10]
        assert all(r["has_matching"] for r in rows)
        assert all(r["oracle_agrees"] for r in rows)
        assert all(r["size"] == r["size_formula"] for r in rows)

    def search_on_rows(self, capsys, n_max):
        code, out, err = run(capsys, ["search-on", "--n-max", str(n_max),
                                      "--json"])
        assert (code, err) == (0, "")
        return [(r["has_matching"], r["matching_verified"])
                for r in json.loads(out)["verdicts"]["families"]]

    def test_search_on_reports_a_wrong_matching_unverified(self, capsys,
                                                           monkeypatch):
        # every cell matched to itself: all maps of O_1 and O_2 are
        # idempotent, but O_3 holds 001, which is not
        monkeypatch.setattr(matching, "band_matching",
                            lambda pat: tuple(range(len(pat) * len(pat[0]) + 1)))
        assert self.search_on_rows(capsys, 3) == [
            (True, True), (True, True), (True, False)]
        code, out, _ = run(capsys, ["search-on", "--n-max", "3"])
        assert out.splitlines()[-1] == (
            "O_3: size 10, matching present (UNVERIFIED)")

    def test_search_on_reports_a_matching_that_is_no_permutation_unverified(
            self, capsys, monkeypatch):
        # every cell sent to the first: in O_2's rank-1 class, 00 and 11
        # are idempotents and mutual inverses, yet 00 is matched twice
        monkeypatch.setattr(matching, "band_matching",
                            lambda pat: (0,) + (1,) * (len(pat) * len(pat[0])))
        assert self.search_on_rows(capsys, 2) == [(True, True), (True, False)]

    def test_search_on_reports_a_matching_that_moves_the_zero_unverified(
            self, capsys, monkeypatch):
        # 0 and 1 swapped, every other cell fixed: it permutes the
        # vertices, and read past the zero it would pair the first cell
        # with the last, which in O_1 and O_2 are all mutual inverses
        def swapped(pat):
            return (1, 0, *range(2, len(pat) * len(pat[0]) + 1))

        monkeypatch.setattr(matching, "band_matching", swapped)
        assert self.search_on_rows(capsys, 2) == [(True, False)] * 2
        code, out, _ = run(capsys, ["search-on", "--n-max", "2"])
        assert (code, out) == (0, "O_1: size 1, matching present (UNVERIFIED)\n"
                               "O_2: size 3, matching present (UNVERIFIED)\n")

    def test_search_on_reports_swapped_pair_partners_unverified(
            self, capsys, monkeypatch):
        # the real matching with the partners of its first and last 2-cycle
        # swapped, (a b)(c d) -> (a d)(c b): still an involution, but in
        # both classes of O_4 with two 2-cycles a and d are no mutual
        # inverses, which a check that tests each pair once must still see
        real = matching.band_matching

        def swapped(pat):
            p = list(real(pat))
            pairs = [(a, b) for a, b in enumerate(p) if a < b and p[b] == a]
            if len(pairs) >= 2:
                (a, b), (c, d) = pairs[0], pairs[-1]
                p[a], p[d], p[c], p[b] = d, a, b, c
            assert all(p[b] == a for a, b in enumerate(p))
            return tuple(p)

        monkeypatch.setattr(matching, "band_matching", swapped)
        assert self.search_on_rows(capsys, 4) == [(True, True)] * 3 + [
            (True, False)]
        code, out, _ = run(capsys, ["search-on", "--n-max", "4"])
        assert out.splitlines()[-1] == (
            "O_4: size 35, matching present (UNVERIFIED)")

    @pytest.mark.parametrize("listed", [
        lambda real, n: itertools.chain(real(n), itertools.islice(real(n), 1)),
        lambda real, n: itertools.islice(real(n), n - 1),
    ], ids=["a class twice", "a class missing"])
    def test_search_on_reports_cells_that_miss_the_maps_unverified(
            self, capsys, monkeypatch, listed):
        real = transformations.on_d_classes
        monkeypatch.setattr(transformations, "on_d_classes",
                            lambda n: listed(real, n))
        assert self.search_on_rows(capsys, 3) == [(True, False)] * 3
        # size counts the cells the classes listed, not the maps of O_n
        code, out, _ = run(capsys, ["search-on", "--n-max", "3", "--json"])
        sizes = [(r["size"], r["size_formula"])
                 for r in json.loads(out)["verdicts"]["families"]]
        if len(list(listed(real, 1))) == 2:  # a class twice
            assert all(size > formula for size, formula in sizes)
        else:  # a class missing
            assert all(size < formula for size, formula in sizes)


def q4_report(capsys, argv):
    code, out, err = run(capsys, ["search-q4", *argv, "--json"])
    assert code == 0 and err == ""
    return out


def q4_per_pattern(capsys, monkeypatch, argv):
    """The report of the per-pattern loop that decides (and with
    ``--oracle`` cross-checks) every pattern, not one per orbit."""
    with monkeypatch.context() as patch:
        patch.setattr(bands, "pattern_orbits", corpus.pattern_by_pattern)
        return q4_report(capsys, argv)


class TestQ4Orbits:
    """Exhaustive ``search-q4`` decides one band per orbit of row and
    column permutations; its report equals the per-pattern loop's."""

    @pytest.mark.parametrize("argv", [
        ["--m-max", str(m), "--n-max", str(n), "--oracle"]
        for m in range(1, 4) for n in range(1, 5)
    ] + [["--m-max", "1", "--n-max", "12"], ["--m-max", "12", "--n-max", "1"]])
    def test_report_equals_the_per_pattern_loop(self, capsys, monkeypatch,
                                                argv):
        assert q4_report(capsys, argv) == q4_per_pattern(capsys, monkeypatch,
                                                         argv)

    @pytest.mark.parametrize("argv, found, expanded", [
        (["--m-max", "2", "--n-max", "3"], 5, 1),
        (["--m-max", "3", "--n-max", "3", "--oracle"], 12, 2),
    ])
    def test_a_separating_orbit_is_reported_pattern_by_pattern(
            self, capsys, monkeypatch, argv, found, expanded):
        # no real band separates, so the gadget is made to fail on an
        # isomorphism-invariant condition: exactly 3 idempotent cells
        involution_on_graph = matching.involution_on_graph

        def failing(g, matching=None):
            if sum(a in g.inverses[a] for a in range(1, g.n)) == 3:
                return None
            return involution_on_graph(g, matching=matching)

        monkeypatch.setattr(matching, "involution_on_graph", failing)
        orbit_members, expanded_orbits = bands.orbit_members, []

        def members(band):
            expanded_orbits.append(band)
            return orbit_members(band)

        monkeypatch.setattr(bands, "orbit_members", members)
        out = q4_report(capsys, argv)
        assert out == q4_per_pattern(capsys, monkeypatch, argv)
        # the separators are the matched 3-cell patterns: the full 1x3 and
        # 3x1, each an orbit of one, and the expanded orbits of 2x2 (four
        # patterns) and 3x3 (six)
        assert json.loads(out)["verdicts"]["separators_found"] == found
        assert len(expanded_orbits) == expanded


class TestOracleBounds:
    """All four exhaustive cross-checks are bounded, and none by an option.
    ``involution`` stops its backtracking at the placement budget,
    ``band check`` scans subsets up to a fixed longer side, and
    ``search-q4`` and ``search-on`` backtrack up to a fixed number of cells
    and a fixed n. Beyond a bound the report omits ``oracle_agrees``."""

    @pytest.mark.parametrize("command", ["search-q4", "search-on"])
    def test_oracle_max_is_not_an_option(self, command):
        code, out, err = call_in_process([command, "--oracle-max", "5"])
        assert code == 2
        assert out == ""
        assert "unrecognized arguments: --oracle-max 5" in err

    def test_search_on_oracle_stops_at_n_3(self, capsys):
        code, out, _ = run(
            capsys, ["search-on", "--n-max", "4", "--json", "--oracle"]
        )
        assert code == 0
        rows = json.loads(out)["verdicts"]["families"]
        assert [r["n"] for r in rows] == [1, 2, 3, 4]
        assert [r.get("oracle_agrees") for r in rows] == [True, True, True, None]

    def test_involution_oracle_skips_t4(self, tmp_path, capsys):
        from invmatch.transformations import enumerate_family

        path = tmp_path / "t4.cayley"
        path.write_text(core.format_cayley(enumerate_family("Tn", 4).semigroup))
        start = time.perf_counter()
        code, out, _ = run(capsys, ["involution", str(path), "--json", "--oracle"])
        assert time.perf_counter() - start < 10
        assert code == 0
        report = json.loads(out)
        assert report["order"] == 256
        assert report["verdicts"]["has_involution_matching"] is True
        assert "oracle_agrees" not in report["verdicts"]

    @pytest.mark.parametrize("family, n", [("PTn", 3), ("On", 4)])
    def test_involution_oracle_runs_within_its_budget(self, tmp_path, capsys,
                                                      family, n):
        from invmatch.transformations import enumerate_family

        path = tmp_path / "s.cayley"
        path.write_text(core.format_cayley(enumerate_family(family, n).semigroup))
        code, out, _ = run(capsys, ["involution", str(path), "--json", "--oracle"])
        assert code == 0
        assert json.loads(out)["verdicts"]["oracle_agrees"] is True

    @pytest.mark.parametrize("m, n, checked", [
        (1, 16, True), (5, 5, True), (4, 8, True), (1, 17, False), (1, 40, False),
        (16, 1, True), (17, 1, False),
    ])
    def test_band_check_oracle_is_a_side_bound(self, tmp_path, capsys,
                                               m, n, checked):
        path = tmp_path / "ones.band"
        path.write_text(bands.format_band(bands.band_from_rows([[1] * n] * m)))
        start = time.perf_counter()
        code, out, _ = run(capsys, ["band", "check", str(path), "--json", "--oracle"])
        assert time.perf_counter() - start < 10
        assert code == 0
        verdicts = json.loads(out)["verdicts"]
        assert verdicts["condition_holds"] is True
        assert verdicts.get("oracle_agrees") is (True if checked else None)


class TestOracleDisagreement:
    """A refuted verdict is flagged in text as in JSON: each oracle is
    patched to disagree, so ``oracle_agrees`` reads false and the verdict
    line ends with the marker."""

    def both(self, capsys, argv):
        code, out, err = run(capsys, argv + ["--json"])
        assert (code, err) == (0, "")
        report = json.loads(out)
        code, text, err = run(capsys, argv)
        assert (code, err) == (0, "")
        return report, text.splitlines()

    def test_search_on(self, capsys, monkeypatch):
        monkeypatch.setattr(matching, "matching_backtracking", lambda s: None)
        report, lines = self.both(capsys, ["search-on", "--n-max", "2",
                                           "--oracle"])
        rows = report["verdicts"]["families"]
        assert [r["oracle_agrees"] for r in rows] == [False, False]
        assert lines == ["O_1: size 1, matching present (ORACLE DISAGREES)",
                         "O_2: size 3, matching present (ORACLE DISAGREES)"]

    def test_involution(self, capsys, monkeypatch, t3_file):
        monkeypatch.setattr(matching, "involution_backtracking",
                            lambda s: None)
        report, lines = self.both(capsys, ["involution", t3_file, "--oracle"])
        assert report["verdicts"]["oracle_agrees"] is False
        assert lines[0] == "present (ORACLE DISAGREES)"
        assert lines[1:] == [matching.format_matching(
            report["witnesses"]["involution"]).rstrip()]

    def test_band_check(self, capsys, monkeypatch):
        monkeypatch.setattr(bands, "check_harem_condition_exhaustive",
                            lambda band: (False, ("rows", (0,))))
        report, lines = self.both(
            capsys, ["band", "check", str(GOLDEN / "band4x6.band"), "--oracle"])
        assert report["verdicts"] == {"condition_holds": True,
                                      "oracle_agrees": False}
        assert lines == ["holds (ORACLE DISAGREES)"]


GOLDEN = Path(__file__).resolve().parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"
ALONE = "import sys; from invmatch.cli import main; sys.exit(main(sys.argv[1:]))"


def call_in_process(argv, main=main):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def call_alone(argv):
    env = {**os.environ, "PYTHONPATH": str(SRC), "COLUMNS": "80"}
    proc = subprocess.run([sys.executable, "-c", ALONE, *argv],
                          capture_output=True, text=True, env=env, check=False)
    return proc.returncode, proc.stdout, proc.stderr


def walk_parsers(parser, name=""):
    """The parser and every command and mode parser below it."""
    yield name, parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub_name, sub in action.choices.items():
                yield from walk_parsers(sub, f"{name} {sub_name}".strip())


class TestSharedParser:
    """``main`` builds its parser once per process; no call may see what
    an earlier one parsed."""

    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_no_mutable_default_or_accumulating_action(self):
        for name, p in walk_parsers(build_parser()):
            for action in p._actions:
                assert not isinstance(action, (
                    argparse._AppendAction, argparse._AppendConstAction,
                    argparse._ExtendAction, argparse._CountAction,
                )), (name, action.dest)
                assert action.default is None or isinstance(
                    action.default, (bool, int, float, str)
                ), (name, action.dest)

    def test_calls_in_one_process_equal_calls_alone(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        band = str(GOLDEN / "band2x4.band")
        q4 = ["search-q4", "--m-max", "1", "--n-max", "3",
              "--exhaustive-limit", "2", "--samples", "2", "--json"]
        sequence = [
            ["colour", "reduce", "--band", band, "--budget", "5", "--json"],
            ["colour", "reduce", "--band", band, "--json"],
            q4 + ["--seed", "7"],
            q4,
            ["match", str(GOLDEN / "counterexample.band"), "--json"],
            ["match", str(GOLDEN / "counterexample.band")],
            ["colour", "reduce"],
            ["colour", "reduce", "--band", band],
        ]
        together = [call_in_process(argv) for argv in sequence]
        assert together[6][0] == 2
        assert together[0] != together[1] and together[2] != together[3]
        for argv, got in zip(sequence, together):
            assert got == call_alone(argv), argv


class Recording(argparse.Namespace):
    """A namespace that notes, once ``_reads`` is set, every option read."""

    def __getattribute__(self, name):
        attrs = object.__getattribute__(self, "__dict__")
        if "_reads" in attrs and not name.startswith("_"):
            attrs["_reads"].add(name)
        return object.__getattribute__(self, name)


class TestEveryOptionIsRead:
    """Each command and mode takes exactly the options its handler reads:
    nothing is parsed only to be ignored."""

    @staticmethod
    def paths(tmp_path):
        instance = tmp_path / "instance"
        instance.write_text(colours.format_instance(colours.ColourInstance(
            2, 2, ((0, 0), (0, 0), (1, 1), (1, 1)))))
        band = str(GOLDEN / "band2x4.band")
        return [
            ["analyze", str(GOLDEN / "t3.cayley")],
            ["match", str(GOLDEN / "counterexample.band")],
            ["involution", str(GOLDEN / "o3.cayley"), "--oracle"],
            ["factors", str(GOLDEN / "t3.cayley")],
            ["band", "check", band, "--oracle"],
            ["band", "harem", band],
            ["band", "involution", band],
            ["colour", "solve", str(instance)],
            ["colour", "reduce", "--band", band,
             "--matching", str(GOLDEN / "band2x4.matching")],
            ["gen", "Tn", "2", "--dict", str(tmp_path / "maps.json")],
            ["search-q4", "--m-max", "1", "--n-max", "3",
             "--exhaustive-limit", "2", "--samples", "2"],
            ["search-on", "--n-max", "2", "--oracle"],
        ]

    def test_every_parsed_option_is_read(self, tmp_path, capsys):
        settable, covered = 0, set()
        for argv in self.paths(tmp_path):
            args = build_parser().parse_args(argv, namespace=Recording())
            covered.add(" ".join(argv[:2] if "mode" in vars(args) else argv[:1]))
            options = set(vars(args)) - {"cmd", "mode"}
            args._t0 = time.perf_counter()
            args._reads = set()
            handler = getattr(cli, "cmd_" + args.cmd.replace("-", "_"))
            assert handler(args) == 0, argv
            assert options <= args._reads, (argv, options - args._reads)
            settable += len(options)
        capsys.readouterr()
        assert covered == {name for name, p in walk_parsers(build_parser())
                           if p._subparsers is None}
        assert settable == 59

    @pytest.mark.parametrize("argv", [
        ["gen", "Tn", "2", "--json"],
        ["analyze", "T", "--oracle"],
        ["band", "harem", "B", "--oracle"],
        ["colour", "solve", "I", "--band", "B"],
        ["colour", "reduce", "--band", "B", "I"],
        ["colour", "solve"],  # no instance file
    ])
    def test_an_option_the_handler_would_not_read_is_refused(self, argv):
        code, out, _ = call_in_process(argv)
        assert (code, out) == (2, "")

    @pytest.mark.parametrize("argv, path, extras", [
        (["gen", "Tn", "2", "--json"], "gen", "--json"),
        (["analyze", "T", "--oracle"], "analyze", "--oracle"),
        (["band", "harem", "B", "--oracle"], "band harem", "--oracle"),
        (["colour", "solve", "I", "--band", "B"], "colour solve", "--band B"),
        (["colour", "reduce", "--band", "B", "I"], "colour reduce", "I"),
    ])
    def test_a_refused_option_shows_its_own_usage(self, argv, path, extras):
        code, out, err = call_in_process(argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"usage: invmatch {path} [-h]")
        assert err.endswith(
            f"\ninvmatch {path}: error: unrecognized arguments: {extras}\n")

    def test_an_option_before_the_mode_shows_the_command_usage(self):
        code, _, err = call_in_process(["band", "--json", "harem", "B"])
        assert code == 2
        assert err.startswith("usage: invmatch band [-h]")
        assert err.endswith("\ninvmatch band: error: unrecognized arguments: --json\n")


class TestInternalError:
    def test_an_unexpected_exception_is_one_line_and_exit_4(self, monkeypatch):
        def broken(args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "cmd_analyze", broken)
        code, out, err = call_in_process(["analyze", str(GOLDEN / "t3.cayley")])
        assert (code, out, err) == (4, "", "internal error: RuntimeError: boom\n")


def reverify_table_witnesses(sg, command, rep):
    """Every witness in a table command's report, checked against ``sg``;
    ``factors`` reports none."""
    witnesses = rep.get("witnesses", {})
    if witnesses.get("matching"):
        assert matching.verify_permutation_matching(sg, witnesses["matching"])
    if witnesses.get("h_preserving"):
        p = witnesses["h_preserving"]
        assert matching.verify_permutation_matching(sg, p)
        assert matching.is_h_preserving(sg, p)
    viol = witnesses.get("hall_violator")
    if viol is not None:
        inverses = sg.inverse_graph.inverses
        assert sorted({b for a in viol["elements"] for b in inverses[a]}) == viol["image"]
        assert len(viol["elements"]) > len(viol["image"])
    if command == "match":
        assert (witnesses["matching"] is None) != (viol is None)
    if command == "involution" and witnesses["involution"] is not None:
        assert matching.verify_involution_matching(sg, witnesses["involution"])


def reverify_band_witnesses(band, mode, rep):
    """Every witness in a ``band`` mode's report, checked against ``band``."""
    witnesses = rep["witnesses"]
    if mode == "check" and witnesses["violator"] is not None:
        rows = witnesses["violator"]["indices"]
        cols = {j for i in rows for j in range(band.n) if band.pattern[i][j]}
        assert band.n * len(rows) > band.m * len(cols)
    if mode == "harem" and witnesses["functions"] is not None:
        images = [j for f in witnesses["functions"] for j in f]
        assert sorted(images) == list(range(band.n))
        assert all(band.pattern[i][j] for f in witnesses["functions"]
                   for i, j in enumerate(f))
    if mode == "involution" and witnesses["involution"] is not None:
        assert rep["verdicts"]["verified"] is True
        assert bands.verify_band_involution(band, witnesses["involution"])


class TestReportWriter:
    """``cli._dumps`` writes what ``json.dumps(obj, sort_keys=True,
    indent=2)`` writes, byte for byte."""

    def test_matches_json_dumps(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        ints = st.integers(min_value=-2**70, max_value=2**70)
        # control characters, quotes and non-ASCII letters all escape
        keys = st.text(st.characters(max_codepoint=0x3FF), max_size=6)
        leaves = st.one_of(
            st.none(), st.booleans(), ints, st.floats(), keys,
            st.lists(ints, max_size=6),
            st.lists(st.lists(ints, max_size=4), max_size=4),
            st.lists(st.one_of(st.booleans(), keys, st.none()), max_size=4),
            st.tuples(ints, ints),
        )
        values = st.recursive(leaves, lambda inner: st.one_of(
            st.lists(inner, max_size=4),
            st.tuples(inner, inner),
            st.dictionaries(keys, inner, max_size=4),
        ), max_leaves=12)

        @hypothesis.settings(max_examples=200, deadline=None,
                             derandomize=True, database=None)
        @hypothesis.given(st.dictionaries(keys, values, max_size=4))
        def check(obj):
            assert cli._dumps(obj) == json.dumps(obj, sort_keys=True, indent=2)

        check()

    @pytest.mark.parametrize("obj", [
        {}, [], (), [[]], {"a": {}}, 7, "x\ny", 2**64, -1.5, float("nan"),
        {"k": [1, True]}, {1: "int key", 2: [3]}, [{2: {"a": [1]}}],
    ], ids=repr)
    def test_edge_values(self, obj):
        assert cli._dumps(obj) == json.dumps(obj, sort_keys=True, indent=2)

    def test_unsortable_keys_raise_as_json_does(self):
        with pytest.raises(TypeError):
            json.dumps({1: 0, "2": 0}, sort_keys=True, indent=2)
        with pytest.raises(TypeError):
            cli._dumps({1: 0, "2": 0})

    def test_timing_report_matches_the_untimed_one(self, capsys):
        argv = ["colour", "reduce", "--band", str(GOLDEN / "band1x60.band"),
                "--json"]
        _, plain, _ = run(capsys, argv)
        code, timed, _ = run(capsys, argv + ["--timing"])
        assert code == 0
        timed = json.loads(timed)
        assert timed.pop("timing_ms") >= 0
        assert timed == json.loads(plain)


class TestCommandsOnRandomInputs:
    """The table commands and the ``band`` modes on random magma texts,
    corpus semigroups and random band texts, irregular ones included: every
    run ends with a documented exit code, a failure with one stderr line
    and no stdout, and every emitted witness re-verifies.  Every command
    that reads a band refuses each irregular pattern up to 3 x 3 alike."""

    TABLE_COMMANDS = [["analyze"], ["match"], ["involution"], ["factors"]]
    BAND_MODES = [["band", "check"], ["band", "harem"], ["band", "involution"]]
    BAND_READERS = [["match", "-"], ["analyze", "-"], ["involution", "-"],
                    ["factors", "-"], ["band", "check", "-"],
                    ["band", "check", "-", "--oracle"], ["band", "harem", "-"],
                    ["band", "involution", "-"],
                    ["colour", "reduce", "--band", "-"]]

    def test_random_texts(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        @st.composite
        def magma_texts(draw):
            n = draw(st.integers(1, 4))
            rows = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=n,
                                          max_size=n), min_size=n, max_size=n))
            if draw(st.booleans()):  # one entry out of range
                rows[draw(st.integers(0, n - 1))][0] = draw(st.sampled_from([-1, n]))
            return f"{n}\n" + "".join(" ".join(map(str, r)) + "\n" for r in rows)

        corpus_texts = st.integers(0, 10_000).map(lambda seed: core.format_cayley(
            corpus.corpus_semigroup(seed, max_order=10)))
        cells = st.sampled_from([True, True, True, False])  # mostly regular
        band_texts = st.integers(1, 4).flatmap(lambda m: st.integers(1, 6).flatmap(
            lambda n: st.lists(st.lists(cells, min_size=n, max_size=n),
                               min_size=m, max_size=m))).map(
            lambda rows: f"{len(rows)} {len(rows[0])}\n" + "".join(
                "".join(map("01".__getitem__, row)) + "\n" for row in rows))
        runs = (st.tuples(st.sampled_from(self.TABLE_COMMANDS),
                          corpus_texts | band_texts | magma_texts())
                | st.tuples(st.sampled_from(self.BAND_MODES), band_texts))

        # violators, which dense random patterns seldom give
        counterexample = (GOLDEN / "counterexample.band").read_text(encoding="utf-8")

        @hypothesis.settings(max_examples=500, deadline=None,
                             derandomize=True, database=None)
        @hypothesis.given(runs)
        @hypothesis.example((["match"], counterexample))
        @hypothesis.example((["analyze"], counterexample))
        @hypothesis.example((["band", "check"], "2 4\n1000\n1111\n"))
        def check(run):
            command, text = run
            with mock.patch.object(sys, "stdin", io.StringIO(text)):
                code, out, err = call_in_process(command + ["-", "--json"])
            assert code in {0, 2, 3, 4, 5}
            if code != 0:
                assert out == ""
                assert err.count("\n") == 1
                return
            assert err == ""
            rep = json.loads(out)
            if command[0] == "band":
                reverify_band_witnesses(bands.parse_band(text), command[1], rep)
            else:
                sg = (bands.to_semigroup(bands.parse_band(text))
                      if rep["input"]["kind"] == "band" else core.parse_cayley(text))
                reverify_table_witnesses(sg, command[0], rep)

        check()

    def test_every_band_reader_refuses_an_irregular_band(self):
        # every irregular pattern up to 3 x 3, each named by its first row
        # without an idempotent, else its first such column
        refused = 0
        for m, n in itertools.product(range(1, 4), repeat=2):
            for rows in itertools.product(
                    itertools.product((0, 1), repeat=n), repeat=m):
                empty = ([f"row {i}" for i, row in enumerate(rows) if not any(row)]
                         + [f"column {j}" for j, col in enumerate(zip(*rows))
                            if not any(col)])
                if not empty:
                    continue
                text = f"{m} {n}\n" + "".join(
                    "".join(map(str, row)) + "\n" for row in rows)
                expected = (4, "", f"precondition failed: {empty[0]} has no "
                                   "idempotent\n")
                for argv in self.BAND_READERS:
                    for fmt in ([], ["--json"]):
                        with mock.patch.object(sys, "stdin", io.StringIO(text)):
                            assert call_in_process(argv + fmt) == expected, (
                                argv + fmt, text)
                refused += 1
        assert refused == 355


class TestRandomArgv:
    """Whole argument lists drawn over every command and mode path, option
    values 0, negative and non-integer among them, inputs from the golden
    files: every call exits 0, 2, 3, 4 or 5 with no internal error, and a
    failing call writes no stdout and one stderr line, or argparse's usage
    and its error line. The one documented exception is ``colour`` past its
    budget, which reports ``budget_exhausted`` on stdout and exits 5."""

    # inputs that keep each call short: no O_5 under involution --oracle
    BANDS = ["counterexample.band", "band2x4.band", "band4x6.band",
             "band1x60.band"]
    TABLES = ["t3.cayley", "o3.cayley", "o3_out_of_range.cayley",
              "o5_corrupted.cayley", "rees.cayley", "gen_ptn_2.cayley"]
    OTHERS = ["band2x4.matching", "missing.cayley"]

    @classmethod
    def argvs(cls, st, tmp_path):
        """The strategy of argument lists, with an instance file written
        to ``tmp_path / "instance"``."""
        instance = tmp_path / "instance"
        # solved in a few nodes, so --budget 1 exhausts it
        instance.write_text(colours.format_instance(colours.ColourInstance(
            2, 2, ((0, 0), (0, 0), (1, 1), (1, 1)))))

        def mostly(valid, bad=("0", "-1", "1.5", "x", "")):
            """A valid value four times in five."""
            return st.integers(0, 4).flatmap(
                lambda k: st.sampled_from(bad if k == 0 else valid))

        band_files, table_files, other_files = (
            [str(GOLDEN / name) for name in group]
            for group in (cls.BANDS, cls.TABLES, cls.OTHERS))
        other_files.append(str(instance))
        algebras = mostly(band_files + table_files, other_files)
        band_inputs = mostly(band_files, table_files + other_files)
        instances = mostly([str(instance)], band_files + other_files)
        # the sizes stay small: search-on --n-max at most 6, search-q4
        # shapes at most 3 x 4, all enumerated at the default
        # --exhaustive-limit, and gen families of at most 64 maps
        ints = mostly(["1", "2", "3", "1000"])
        sizes = mostly(["1", "2", "3"])
        report = {"--json": None, "--timing": None,
                  "--seed": mostly(["0", "7", "-1"])}
        oracle = {**report, "--oracle": None}
        budget = {**report, "--budget": ints}
        # path -> (positionals, options always given, options maybe given)
        paths = {
            ("analyze",): ([algebras], {}, report),
            ("match",): ([algebras], {}, report),
            ("involution",): ([algebras], {}, oracle),
            ("factors",): ([algebras], {}, report),
            ("band", "check"): ([band_inputs], {}, oracle),
            ("band", "harem"): ([band_inputs], {}, report),
            ("band", "involution"): ([band_inputs], {}, report),
            ("colour", "solve"): ([instances], {}, budget),
            ("colour", "reduce"): ([], {"--band": band_inputs}, {
                **budget, "--matching": mostly(
                    [str(GOLDEN / "band2x4.matching")], band_files)}),
            ("gen",): ([mostly(transformations.FAMILIES, ["Xn", "tn"]),
                        sizes], {},
                       {"--cap": ints, "--dict": st.just(
                           str(tmp_path / "maps.json"))}),
            ("search-q4",): ([], {"--m-max": sizes,
                                  "--n-max": mostly(["1", "2", "4"])},
                             {**oracle, "--samples": ints,
                              "--densities": mostly(
                                  ["0.5", "0.3,0.7"], ["", "x", "0.3,2"])}),
            ("search-on",): ([], {"--n-max": mostly(["1", "3", "6"])},
                             oracle),
        }

        @st.composite
        def argvs(draw):
            path = draw(st.sampled_from(sorted(paths)))
            positionals, given, maybe = paths[path]
            argv = list(path) + [draw(s) for s in positionals]
            names = list(given) + draw(st.lists(
                st.sampled_from(sorted(maybe)), unique=True))
            options = {**given, **maybe}
            for name in draw(st.permutations(names)):
                argv.append(name)
                if options[name] is not None:
                    argv.append(draw(options[name]))
            if draw(st.integers(0, 9)) == 0 and len(argv) > len(path):
                # a missing argument
                del argv[draw(st.integers(len(path), len(argv) - 1))]
            elif draw(st.integers(0, 9)) == 0:  # a stray one
                argv.insert(draw(st.integers(0, len(argv))), "--bogus")
            return argv

        return argvs()

    def test_random_argv(self, tmp_path):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        instance = tmp_path / "instance"

        @hypothesis.settings(max_examples=400, deadline=None,
                             derandomize=True, database=None)
        @hypothesis.given(self.argvs(st, tmp_path))
        @hypothesis.example(["colour", "solve", str(instance), "--budget", "1"])
        def check(argv):
            code, out, err = call_in_process(argv)
            assert code in {0, 2, 3, 4, 5}, argv
            lines = err.splitlines()
            assert not any(ln.startswith("internal error:") for ln in lines)
            if code == 0:
                return
            if code == 5 and argv[0] == "colour" and out:
                assert "budget_exhausted" in out and err == ""
                return
            assert out == "", argv
            if len(lines) > 1:
                assert code == 2 and lines[0].startswith("usage: invmatch")
                assert ": error: " in lines[-1], argv
            else:
                assert err.endswith("\n") and lines, argv

        check()


def record_handlers(monkeypatch):
    """Rebind every ``cmd_*`` handler of the CLI to one that records its
    name and its arguments, ``_t0`` aside, and returns 0; return the
    record."""
    seen = []

    def recorder(name):
        def record(args):
            seen.append((name, {k: v for k, v in vars(args).items()
                                if k != "_t0"}))
            return 0
        return record

    for name in vars(cli):
        if name.startswith("cmd_"):
            monkeypatch.setattr(cli, name, recorder(name))
    return seen


def random_argvs(rng, count):
    """``count`` argument lists of command and mode names, stray words,
    every option (abbreviated, as ``--opt=value`` and with its value
    missing), values and ``-h``, ``--`` and ``-``, in random order."""
    parsers = cli._parsers()
    paths = [words for words in parsers if words]
    names = sorted({w for words in paths for w in words})
    # the options of each parser but help, and every option
    own = {words: sorted(s for a in p._actions for s in a.option_strings
                         if a.dest != "help")
           for words, p in parsers.items()}
    options = sorted({s for p in parsers.values()
                      for a in p._actions for s in a.option_strings})
    values = ["0", "1", "3", "-1", "1.5", "x", "", "-", "Tn", "On", "a b",
              "0.3,0.7", str(GOLDEN / "band2x4.band")]
    strays = ["bogus", "-x", "--bogus", "--bogus=1", "-", "--", "-h",
              "--help", "--h", "-jx"]
    needs = {("gen",): ["On", "2"], ("colour", "reduce"): ["--band", "B"],
             ("search-q4",): [], ("search-on",): []}

    def option(path):
        name = rng.choice(own.get(path) or options if rng.random() < 0.6
                          else options)
        if name.startswith("--") and rng.random() < 0.3:
            name = name[:rng.randrange(3, len(name))]  # a proper prefix
        kind = rng.randrange(3)
        if kind == 0:  # a flag, or an option without its value
            return [name]
        if kind == 1:
            return [f"{name}={rng.choice(values)}"]
        return [name, rng.choice(values)]

    def token(path=()):
        kind = rng.randrange(4)
        if kind == 0:
            return option(path)
        if kind == 1:
            return [rng.choice(values)]
        if kind == 2:
            return [rng.choice(strays)]
        return [rng.choice(names)]

    argvs = []
    for _ in range(count):
        start = rng.randrange(5)
        if start < 3:  # a whole command or mode path, mostly with what it needs
            argv = list(rng.choice(paths))
            if rng.random() < 0.7:
                argv += needs.get(tuple(argv), ["P"])
        elif start == 3:  # a command without its mode, or a wrong mode
            argv = [rng.choice(["band", "colour"])] + [
                rng.choice(names)][:rng.randrange(2)]
        else:
            argv = []
        path = tuple(argv[:2]) if tuple(argv[:2]) in own else tuple(argv[:1])
        for _ in range(rng.randrange(6)):
            argv += token(path)
        if rng.random() < 0.2:  # something before or inside the path
            k = rng.randrange(min(len(argv), 2) + 1)
            argv[k:k] = token()
        argvs.append(argv)
    return argvs


class TestDispatch:
    """``cli.main`` parses argv with the parser of the command words it
    starts with; ``dispatch_oracle`` parses every argv with the whole
    tree, as ``main`` did before.  They must agree on the exit code, the
    handler and its arguments, stdout and stderr."""

    DRAWN = 4000

    @staticmethod
    def outcomes(seen, argv):
        both = []
        for parse in (main, dispatch_oracle.main):
            seen.clear()
            code, out, err = call_in_process(argv, parse)
            both.append((code, list(seen), out, err))
        return both

    @pytest.mark.parametrize("argv", [
        [], ["-h"], ["bogus"], ["band"], ["band", "bogus", "B"],
        ["band", "--json", "harem", "B"], ["--bogus", "analyze", "T"],
        ["--", "analyze", "T"], ["band", "--", "check", "B"],
        ["colour", "reduce", "--", "--band", "B"], ["colour", "-h"],
        ["colour", "reduce", "-h"], ["colour", "reduce", "--bud", "3"],
        ["colour", "reduce", "--band=B", "--budget"], ["gen", "Tn", "-"],
        ["search-q4", "--n", "2"], ["analyze", "T", "U"],
    ], ids=lambda argv: " ".join(argv) or "(empty)")
    def test_chosen_argv(self, monkeypatch, argv):
        new, old = self.outcomes(record_handlers(monkeypatch), argv)
        assert new == old

    @pytest.mark.parametrize("argv, parsed", [
        (["colour", "reduce", "--band", "B"],
         ("invmatch colour reduce", ["--band", "B"])),
        (["analyze", "T", "--json"], ("invmatch analyze", ["T", "--json"])),
        (["band", "check", "-h"], ("invmatch band check", ["-h"])),
        (["band", "--json", "harem", "B"],
         ("invmatch band", ["--json", "harem", "B"])),
        (["colour"], ("invmatch colour", [])),
        (["bogus", "analyze"], ("invmatch", ["bogus", "analyze"])),
    ])
    def test_a_command_or_mode_parses_its_arguments_alone(
            self, monkeypatch, argv, parsed):
        """The parser of the command words argv starts with parses the rest:
        a command or mode alone, a command with modes or the root through
        the parsers below it; argv that starts with no command word goes to
        the root."""
        calls = []
        parse = argparse.ArgumentParser.parse_known_args

        def spy(parser, args=None, namespace=None):
            calls.append((parser.prog, list(args)))
            return parse(parser, args, namespace)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", spy)
        record_handlers(monkeypatch)
        call_in_process(argv)
        assert calls[0] == parsed
        assert len(calls) == 1 or parsed[0] in {
            "invmatch", "invmatch band", "invmatch colour"}

    @pytest.mark.parametrize("argv, usage", [
        (["--", "match", "F"], "invmatch"),
        (["--", "--", "match", "F"], "invmatch"),
        (["--", "band", "check", "B"], "invmatch"),
        (["band", "--", "check", "B"], "invmatch band"),
        (["colour", "--", "reduce", "--band", "B"], "invmatch colour"),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
    def test_a_dash_dash_for_a_command_or_mode_is_a_usage_error(
            self, monkeypatch, argv, usage):
        """Some argparse releases drop a ``--`` before a subcommand and
        dispatch, others refuse it: ``main`` and the oracle refuse it on
        every release."""
        seen = record_handlers(monkeypatch)
        for parse in (main, dispatch_oracle.main):
            code, out, err = call_in_process(argv, parse)
            assert (code, out, seen) == (2, "", [])
            assert err.startswith(f"usage: {usage} [-h]")
            assert err.endswith(f"\n{usage}: error: a command or mode word "
                                "must come before '--'\n")

    def test_seeded_random_argv(self, monkeypatch):
        seen = record_handlers(monkeypatch)
        kinds = {"dispatched": 0, "help": 0, "usage error": 0}
        handled = set()
        for argv in random_argvs(random.Random(33), self.DRAWN):
            new, old = self.outcomes(seen, argv)
            assert new == old, argv
            code, record, out, _ = new
            if record:
                kinds["dispatched"] += 1
                handled.add(record[0][0])
            else:
                kinds["help" if code == 0 and out else "usage error"] += 1
        # the draw reaches every handler and every kind of outcome
        assert handled == {name for name in vars(cli) if name.startswith("cmd_")}
        assert min(kinds.values()) >= self.DRAWN // 20, kinds

    def test_random_argv_strategy(self, monkeypatch, tmp_path):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        seen = record_handlers(monkeypatch)

        @hypothesis.settings(max_examples=300, deadline=None,
                             derandomize=True, database=None)
        @hypothesis.given(TestRandomArgv.argvs(st, tmp_path))
        def check(argv):
            new, old = self.outcomes(seen, argv)
            assert new == old, argv

        check()
