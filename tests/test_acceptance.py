"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with ``pytest tests/test_acceptance.py -v -s``).

Every tolerance and time bound is pinned here; nothing is deferred.
"""

import json
import sys
import time

import corpus
from invmatch import bands, colours, matching
from invmatch import transformations as tr
from invmatch.cli import main


def stamp(num: int, ok: bool, elapsed: float, detail: str) -> None:
    # bypass pytest capture so the line shows in plain `pytest -v` output
    print(
        f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} "
        f"({elapsed:.2f}s) {detail}",
        file=sys.__stdout__,
    )


def exhaustive_regular_bands(m_max: int = 3, n_max: int = 4):
    out = []
    for m in range(1, m_max + 1):
        for n in range(1, n_max + 1):
            for bits in range(2 ** (m * n)):
                rows = [
                    [bool(bits >> (i * n + j) & 1) for j in range(n)]
                    for i in range(m)
                ]
                if not all(any(r) for r in rows):
                    continue
                if not all(any(rows[i][j] for i in range(m)) for j in range(n)):
                    continue
                out.append(bands.band_from_rows(rows))
    return out


def divisible_bands_with_matching(count: int = 100):
    """Deterministic sample of bands with m | n possessing a matching."""
    shapes = [
        (m, a * m)
        for m in range(1, 7)
        for a in range(1, 13)
        if a * m <= 12 and (m, a) != (1, 1)
    ]
    densities = [0.35, 0.55, 0.75]
    found = []
    seed = 0
    si = 0
    while len(found) < count:
        m, n = shapes[si % len(shapes)]
        density = densities[(si // len(shapes)) % len(densities)]
        band = bands.random_band(m, n, density, 1000 + seed)
        seed += 1
        si += 1
        sg = bands.to_semigroup(band)
        phi = matching.find_permutation_matching(sg)
        if phi is not None:
            found.append((band, sg, phi))
    return found


def run_cli_json(capsys, argv):
    code = main(argv + ["--json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_criterion_1_counterexample_band(tmp_path, capsys):
    """The 7-element band: match absent, violator {(2,2),(2,3)} -> {(1,1)}."""
    path = tmp_path / "cex.band"
    path.write_text(bands.format_band(bands.no_matching_band()))
    t0 = time.perf_counter()
    code, report = run_cli_json(capsys, ["match", str(path)])
    elapsed = time.perf_counter() - t0
    viol = report["witnesses"]["hall_violator"]
    ok = (
        code == 0
        and report["verdicts"]["has_matching"] is False
        and sorted(viol["labels"]) == ["(2,2)", "(2,3)"]
        and viol["image_labels"] == ["(1,1)"]
        and len(viol["image"]) == 1
        and elapsed < 0.1
    )
    stamp(1, ok, elapsed, f"violator {sorted(viol['labels'])} -> {viol['image_labels']}")
    assert ok


def test_criterion_2_tn_matchings(capsys):
    """Signature-class pipeline matches T_n for n in {2, 3, 4}; every class
    graph is regular; n = 4 within 30 s."""
    t_total = time.perf_counter()
    t4_elapsed = None
    regular_classes = 0
    for n in (2, 3, 4):
        t0 = time.perf_counter()
        data, p = tr.tn_matching_via_classes(n)
        assert matching.verify_permutation_matching(data.semigroup, p)
        for rank in range(1, n + 1):
            for cls in tr.signature_class_partition(data, rank):
                degree = tr.signature_class_degree(data, cls)
                assert degree is not None and degree >= 1
                regular_classes += 1
        if n == 4:
            t4_elapsed = time.perf_counter() - t0
    elapsed = time.perf_counter() - t_total
    ok = t4_elapsed < 30
    stamp(2, ok, elapsed,
          f"T_2..T_4 verified; {regular_classes} regular class graphs; "
          f"T_4 leg {t4_elapsed:.2f}s")
    assert ok


def test_criterion_3_equivalence_consistency():
    """Verdicts (i), (v), (vi) agree and the (iv) construction is
    H-preserving, on exhaustive small bands plus 500 corpus semigroups."""
    t0 = time.perf_counter()
    checked = 0
    for band in exhaustive_regular_bands():
        rep = matching.equivalence_report(bands.to_semigroup(band))
        assert (rep.h_preserving is not None) == all(rep.quotient_verdicts)
        checked += 1
    for seed in range(500):
        s = corpus.corpus_semigroup(seed, max_order=12)
        rep = matching.equivalence_report(s)
        assert (rep.h_preserving is not None) == all(rep.quotient_verdicts)
        if rep.h_preserving is not None:
            assert matching.is_h_preserving(s, rep.h_preserving)
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = elapsed < 120
    stamp(3, ok, elapsed, f"zero violations over {checked} semigroups")
    assert ok


def test_criterion_4_harem_involutions():
    """100 divisible bands with a matching: the injection family exists and
    the induced involution verifies, 100/100."""
    t0 = time.perf_counter()
    samples = divisible_bands_with_matching(100)
    succeeded = 0
    for band, sg, phi in samples:
        fam = bands.harem_family(band)
        assert fam is not None, f"family absent for {band}"
        result = bands.involution_from_harem(band)
        assert result is not None
        assert matching.verify_involution_matching(sg, result.matching)
        succeeded += 1
    elapsed = time.perf_counter() - t0
    ok = succeeded == 100 and elapsed < 60
    stamp(4, ok, elapsed, f"{succeeded}/100 verified involutions")
    assert ok


def test_criterion_5_colour_pipeline():
    """Exchange-plan reduction: every solver success converts into a
    verified involution; corrupted plans are the only source of
    well-definedness violations."""
    from invmatch.errors import WellDefinednessViolation

    t0 = time.perf_counter()
    samples = divisible_bands_with_matching(100)
    solved = exhausted = failures = 0
    corrupted_raises = 0
    corrupted_tried = 0
    for band, sg, phi in samples:
        inst = colours.instance_from_matching(band, phi)
        result = colours.solve(inst, budget=200_000)
        if result.status == "budget_exhausted":
            exhausted += 1
            continue
        if result.status != "solved":
            failures += 1
            continue
        try:
            p = colours.involution_from_plan(band, inst, result.plan)
            assert matching.verify_involution_matching(sg, p)
            solved += 1
        except WellDefinednessViolation:
            failures += 1
        # deliberately corrupt a few plans: swapping the partners of two
        # balls of one exchange each must break alignment or collide
        if corrupted_tried < 10 and len(result.plan.exchanges()) >= 2:
            (i, pi), (j, pj) = result.plan.exchanges()[:2]
            pairing = list(result.plan.pairing)
            pairing[i], pairing[pj] = pj, i
            pairing[j], pairing[pi] = pi, j
            bad = colours.ExchangePlan(tuple(pairing))
            if not colours.verify_plan(inst, bad):
                corrupted_tried += 1
                try:
                    colours.involution_from_plan(band, inst, bad)
                except WellDefinednessViolation:
                    corrupted_raises += 1
    elapsed = time.perf_counter() - t0
    ok = (
        failures == 0
        and solved > 0
        and corrupted_raises == corrupted_tried
        and elapsed < 120
    )
    stamp(5, ok, elapsed,
          f"{solved} solved pipelines, {exhausted} budget-exhausted, "
          f"{failures} failures; {corrupted_raises}/{corrupted_tried} "
          "corrupted plans rejected")
    assert ok


def test_criterion_6_involution_decision_soundness():
    """Gadget decision equals the backtracking oracle on the n <= 10 corpus
    and every exhaustively enumerated band."""
    t0 = time.perf_counter()
    disagreements = 0
    checked = 0
    for seed in range(500):
        s = corpus.corpus_semigroup(seed, max_order=12)
        if s.order > 10:
            continue
        gadget = matching.find_involution_matching(s)
        oracle = matching.involution_backtracking(s)
        if (gadget is None) != (oracle is None):
            disagreements += 1
        if gadget is not None:
            assert matching.verify_involution_matching(s, gadget)
        checked += 1
    for band in exhaustive_regular_bands():
        sg = bands.to_semigroup(band)
        gadget = matching.find_involution_matching(sg)
        oracle = matching.involution_backtracking(sg)
        if (gadget is None) != (oracle is None):
            disagreements += 1
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = disagreements == 0 and elapsed < 300
    stamp(6, ok, elapsed, f"zero disagreements over {checked} inputs")
    assert ok


def test_criterion_7_open_question_probes(capsys):
    """search-on decides matching existence for O_n, n <= 8 (|O_8| = 6435),
    agreeing with the brute-force oracle at n <= 3; search-q4 over the
    exhaustive grid reports zero separators or dumps certificates."""
    from math import comb

    t0 = time.perf_counter()
    code_on, report_on = run_cli_json(
        capsys, ["search-on", "--n-max", "8", "--oracle"]
    )
    rows = report_on["verdicts"]["families"]
    on_ok = (
        code_on == 0
        and len(rows) == 8
        and rows[-1]["size"] == 6435
        and rows[-1]["size"] == comb(2 * 8 - 1, 8)
        and all(r["matching_verified"] == r["has_matching"] for r in rows)
        and all(
            r["oracle_agrees"] for r in rows if r["n"] <= 3
        )
    )
    code_q4, report_q4 = run_cli_json(
        capsys, ["search-q4", "--m-max", "3", "--n-max", "4", "--oracle"]
    )
    separators = report_q4["verdicts"]["separators_found"]
    q4_ok = code_q4 == 0 and (
        separators == 0 or report_q4["witnesses"]["separators"]
    )
    elapsed = time.perf_counter() - t0
    ok = on_ok and q4_ok and elapsed < 600
    stamp(
        7,
        ok,
        elapsed,
        f"O_n decided to n=8 (|O_8|={rows[-1]['size']}); "
        f"q4 separators: {separators}",
    )
    assert ok
