"""Ball-exchange alignment: instances, the exact solver, plan
verification, and the induced involution matching."""

import contextlib
import io
import itertools
import json
import random
import sys
from unittest import mock

import pytest

import corpus
import solve_oracle
from invmatch import bands, colours, matching
from invmatch.cli import main
from invmatch.errors import (
    BudgetExhausted,
    IndexOutOfRange,
    MalformedInstance,
    NotAMatching,
    PlanInstanceMismatch,
    WellDefinednessViolation,
)


def full_band(m, n):
    return bands.band_from_rows([[1] * n for _ in range(m)])


def identity_matching(band):
    return tuple(range(band.order))


def transpose_matching(band):
    assert band.m == band.n
    p = [0] * band.order
    for i, j in band.cells():
        p[band.cell_index(i, j)] = band.cell_index(j, i)
    return tuple(p)


# the 6x12 pattern at density 0.35 that the colour-reduce benchmark pins:
# the plain search tries 80,853 pairings on it
HARD_6X12 = (
    "6 12\n011011101011\n110001100001\n000010011111\n"
    "001100000000\n011000110010\n000010010000\n"
)


# reference: the solver's branching written as plain recursion, with no
# memory of failed states
def recursive_solve(inst, budget):
    total = inst.m * inst.n
    owner = [g for g, _ in inst.balls]
    colour = [c for _, c in inst.balls]
    need = [[True] * inst.n for _ in range(inst.m)]
    pairing = [-1] * total
    nodes = 0

    def place(i):
        nonlocal nodes
        while i < total and pairing[i] != -1:
            i += 1
        if i == total:
            return True
        gi, ci = owner[i], colour[i]
        tried = set()
        for j in range(i, total):
            gj, cj = owner[j], colour[j]
            if pairing[j] != -1 or (gj, cj) in tried:
                continue
            if i == j:
                ok = need[gi][cj]
            else:
                ok = not (gi == gj and ci == cj) and (
                    need[gi][cj] and need[gj][ci]
                )
            if not ok:
                continue
            tried.add((gj, cj))
            nodes += 1
            if budget is not None and nodes > budget:
                raise BudgetExhausted
            pairing[i], pairing[j] = j, i
            need[gi][cj] = False
            need[gj][ci] = False
            if place(i + 1):
                return True
            pairing[i] = pairing[j] = -1
            need[gi][cj] = True
            need[gj][ci] = True
        return False

    try:
        solved = place(0)
    except BudgetExhausted:
        return "budget_exhausted", None, nodes
    if not solved:
        return "unsolvable", None, nodes
    return "solved", tuple(pairing), nodes


class TestInstanceFromMatching:
    def test_identity_on_full_2x2(self):
        band = full_band(2, 2)
        inst = colours.instance_from_matching(band, identity_matching(band))
        assert inst.m == 2 and inst.n == 2
        held = {g: sorted(c for (gg, c) in inst.balls if gg == g) for g in (0, 1)}
        assert held == {0: [0, 1], 1: [0, 1]}

    def test_single_girl_holds_every_colour(self):
        band = full_band(1, 4)
        inst = colours.instance_from_matching(band, identity_matching(band))
        assert sorted(c for _, c in inst.balls) == [0, 1, 2, 3]

    def test_colour_counts_always_m(self):
        for seed in range(30):
            band = bands.random_band(2, 4, 0.6, seed)
            sg = bands.to_semigroup(band)
            phi = matching.find_permutation_matching(sg)
            if phi is None:
                continue
            inst = colours.instance_from_matching(band, phi)
            counts = [0] * inst.n
            for _, c in inst.balls:
                counts[c] += 1
            assert counts == [inst.m] * inst.n

    def test_rejects_non_matching(self):
        band = full_band(2, 2)
        bogus = (1, 0, 2, 3, 4)  # moves the zero
        with pytest.raises(NotAMatching):
            colours.instance_from_matching(band, bogus)


class TestSolve:
    def test_two_girls_two_colours_single_exchange(self):
        # girl 0 holds two balls of colour 0, girl 1 two of colour 1
        inst = colours.ColourInstance(
            2, 2, ((0, 0), (0, 0), (1, 1), (1, 1))
        )
        result = colours.solve(inst)
        assert result.status == "solved"
        assert colours.verify_plan(inst, result.plan)
        assert len(result.plan.exchanges()) == 1

    def test_aligned_instance_all_vacuous(self):
        inst = colours.ColourInstance(
            2, 2, ((0, 0), (0, 1), (1, 0), (1, 1))
        )
        result = colours.solve(inst)
        assert result.status == "solved"
        assert result.plan.pairing == (0, 1, 2, 3)

    def test_single_girl_all_vacuous(self):
        inst = colours.ColourInstance(1, 3, ((0, 0), (0, 1), (0, 2)))
        result = colours.solve(inst)
        assert result.status == "solved"
        assert result.plan.exchanges() == []

    def test_budget_exhaustion_is_reported(self):
        inst = colours.ColourInstance(
            2, 2, ((0, 0), (0, 0), (1, 1), (1, 1))
        )
        result = colours.solve(inst, budget=1)
        assert result.status == "budget_exhausted"
        assert result.plan is None

    def test_no_budget_means_the_backtracking_budget(self, monkeypatch):
        monkeypatch.setattr(matching, "BACKTRACKING_BUDGET", 100)
        band = bands.parse_band(HARD_6X12)
        inst = colours.instance_from_matching(
            band, matching.find_permutation_matching(band))
        result = colours.solve(inst)
        assert (result.status, result.plan, result.nodes) == (
            "budget_exhausted", None, 101)

    def test_malformed_instance_rejected(self):
        with pytest.raises(MalformedInstance):
            colours.solve(colours.ColourInstance(
                2, 2, ((0, 0), (0, 0), (0, 1), (1, 1))))

    def test_a_malformed_instance_is_rejected_by_every_check(self):
        # the balls are checked where the instance is built, so no check
        # is handed a malformed one
        plan = colours.ExchangePlan((0, 1, 2, 3))
        for check in (colours.solve,
                      lambda inst: colours.verify_plan(inst, plan)):
            with pytest.raises(MalformedInstance, match="some girl"):
                check(colours.ColourInstance(
                    2, 2, ((0, 0), (0, 0), (0, 1), (1, 1))))

    def test_decision_matches_unpruned_search(self):
        import random as _random

        def brute_solvable(inst):
            n_balls = len(inst.balls)

            def go(pairing):
                i = next(
                    (k for k in range(n_balls) if pairing[k] == -1), None
                )
                if i is None:
                    return colours.verify_plan(
                        inst, colours.ExchangePlan(tuple(pairing))
                    )
                for j in range(i, n_balls):
                    if pairing[j] != -1:
                        continue
                    pairing[i], pairing[j] = j, i
                    if go(pairing):
                        return True
                    pairing[i] = pairing[j] = -1
                return False

            return go([-1] * n_balls)

        rng = _random.Random(2)
        for _ in range(150):
            m = rng.randint(1, 3)
            n = rng.randint(1, 2)
            balls = [g for g in range(m) for _ in range(n)]
            pool = [c for c in range(n) for _ in range(m)]
            rng.shuffle(pool)
            inst = colours.ColourInstance(m, n, tuple(zip(balls, pool)))
            result = colours.solve(inst)
            assert (result.status == "solved") == brute_solvable(inst)
            if result.plan is not None:
                assert colours.verify_plan(inst, result.plan)

    def test_solver_handles_band_derived_instances(self):
        solved = 0
        for seed in range(25):
            band = bands.random_band(2, 4, 0.7, seed)
            sg = bands.to_semigroup(band)
            phi = matching.find_permutation_matching(sg)
            if phi is None:
                continue
            inst = colours.instance_from_matching(band, phi)
            result = colours.solve(inst, budget=200_000)
            if result.status == "solved":
                solved += 1
                assert colours.verify_plan(inst, result.plan)
        assert solved > 10


    def test_same_nodes_and_plans_as_recursive_search(self):
        rng = random.Random(5)
        instances = []
        for _ in range(200):
            m, n = rng.randint(1, 4), rng.randint(1, 4)
            balls = [g for g in range(m) for _ in range(n)]
            pool = [c for c in range(n) for _ in range(m)]
            rng.shuffle(pool)
            instances.append(colours.ColourInstance(m, n, tuple(zip(balls, pool))))
        # random instances never backtrack; some band-derived ones do
        for m, n in ((3, 6), (4, 8)):
            for seed in range(30):
                band = bands.random_band(m, n, 0.4, seed)
                phi = matching.find_permutation_matching(bands.to_semigroup(band))
                if phi is not None:
                    instances.append(colours.instance_from_matching(band, phi))
        statuses, backtracked = set(), 0
        for inst in instances:
            budget = rng.choice([None, None, 3, 15])
            result = colours.solve(inst, budget)
            plan = result.plan.pairing if result.plan else None
            expected = recursive_solve(inst, budget)
            assert (result.status, plan, result.nodes) == expected
            statuses.add(result.status)
            if plan is not None:
                backtracked += result.nodes > sum(i <= j for i, j in enumerate(plan))
        assert statuses == {"solved", "budget_exhausted"}
        assert backtracked >= 2

    @pytest.mark.parametrize(
        "make_band, plain_nodes, memo_nodes",
        [
            (lambda: bands.random_band(5, 10, 0.4, 27), 544, 190),
            (lambda: bands.random_band(6, 12, 0.35, 17), 461, 255),
            (lambda: bands.parse_band(HARD_6X12), 80_853, 1_947),
        ],
        ids=["5x10", "6x12", "hard-6x12"],
    )
    def test_failed_states_are_skipped_without_changing_the_plan(
        self, make_band, plain_nodes, memo_nodes
    ):
        band = make_band()
        phi = matching.find_permutation_matching(band)
        inst = colours.instance_from_matching(band, phi)
        status, plan, nodes = recursive_solve(inst, None)
        assert (status, nodes) == ("solved", plain_nodes)
        result = colours.solve(inst)
        assert result.status == status
        assert result.plan.pairing == plan
        assert result.nodes == memo_nodes <= nodes


# the shapes of the colour-reduce benchmark: m divides n, n <= 12, not 1x1
REDUCE_SHAPES = [(m, a * m) for m in range(1, 7) for a in range(1, 13)
                 if a * m <= 12 and (m, a) != (1, 1)]


class TestSolverOracle:
    """The bitmask partner search against the per-ball search it replaced
    (``solve_oracle``): same status, node count and plan."""

    @staticmethod
    def outcome(solver, inst, budget):
        result = solver(inst, budget)
        return result.status, result.nodes, result.plan

    def assert_same(self, inst, budget):
        got = self.outcome(colours.solve, inst, budget)
        assert got == self.outcome(solve_oracle.solve, inst, budget)
        return got

    def test_every_reduce_shape_and_density(self):
        rng = random.Random(31)
        instances = [colours.instance_from_matching(band, phi)
                     for band in [bands.parse_band(HARD_6X12)] + [
                         corpus.covering_band(rng, m, n, density)
                         for m, n in REDUCE_SHAPES
                         for density in (0.35, 0.55, 0.75)
                         for _ in range(3)]
                     if (phi := matching.find_permutation_matching(band))]
        assert len(instances) > 200
        # the hard band takes 1,947 nodes, so the lower budget cuts it short
        statuses = {self.assert_same(inst, budget)[0]
                    for inst in instances for budget in (200_000, 1_000)}
        assert statuses == {"solved", "budget_exhausted"}

    def test_random_6x12_bands_and_ball_shuffled_copies(self):
        rng = random.Random(35)
        statuses = []
        for seed in range(200):
            band = bands.random_band(6, 12, 0.35, seed)
            phi = matching.find_permutation_matching(band)
            if phi is None:
                continue
            inst = colours.instance_from_matching(band, phi)
            shuffled = list(inst.balls)
            rng.shuffle(shuffled)
            for balls in (inst.balls, tuple(shuffled)):
                copy = colours.ColourInstance(6, 12, balls)
                statuses.append(self.assert_same(copy, 2_000)[0])
        assert len(statuses) > 250
        assert statuses.count("solved") > 100
        assert statuses.count("budget_exhausted") > 50


class TestVerifyPlan:
    def test_vacuous_plan_on_misaligned_instance_fails(self):
        inst = colours.ColourInstance(
            2, 2, ((0, 0), (0, 0), (1, 1), (1, 1))
        )
        assert not colours.verify_plan(inst, colours.ExchangePlan((0, 1, 2, 3)))

    def test_out_of_range_plan(self):
        inst = colours.ColourInstance(1, 2, ((0, 0), (0, 1)))
        with pytest.raises(IndexOutOfRange):
            colours.verify_plan(inst, colours.ExchangePlan((0, 5)))

    def test_mutated_plans_fail(self):
        band = full_band(4, 4)
        phi = transpose_matching(band)
        inst = colours.instance_from_matching(band, phi)
        result = colours.solve(inst)
        assert result.status == "solved"
        good = result.plan.pairing
        guaranteed_bad = 0
        for i in range(len(good)):
            for j in range(i + 1, len(good)):
                # swap the partners of balls i and j
                pairing = list(good)
                pi, pj = pairing[i], pairing[j]
                if pi in (i, j) or pj in (i, j):
                    continue
                pairing[i], pairing[pj] = pj, i
                pairing[j], pairing[pi] = pi, j
                plan = colours.ExchangePlan(tuple(pairing))
                plan.validate(len(pairing))
                owners = {inst.balls[k][0] for k in (i, j, pi, pj)}
                # with four distinct owners, owner(i)'s holdings change by
                # exactly one ball, so different partner colours must break
                # alignment
                if len(owners) == 4 and (
                    inst.balls[pi][1] != inst.balls[pj][1]
                ):
                    assert not colours.verify_plan(inst, plan)
                    guaranteed_bad += 1
        assert guaranteed_bad > 0


class TestInvolutionFromPlan:
    def test_vacuous_plan_gives_identity_on_full_band(self):
        band = full_band(2, 2)
        phi = identity_matching(band)
        inst = colours.instance_from_matching(band, phi)
        result = colours.solve(inst)
        assert result.status == "solved"
        assert result.plan.exchanges() == []
        p = colours.involution_from_plan(band, inst, result.plan)
        assert p == tuple(range(band.order))
        sg = bands.to_semigroup(band)
        assert matching.verify_involution_matching(sg, p)

    def test_single_exchange_pipeline(self):
        band = full_band(2, 2)
        phi = transpose_matching(band)
        inst = colours.instance_from_matching(band, phi)
        held = {g: sorted(c for (gg, c) in inst.balls if gg == g) for g in (0, 1)}
        assert held == {0: [0, 0], 1: [1, 1]}
        result = colours.solve(inst)
        assert result.status == "solved"
        p = colours.involution_from_plan(band, inst, result.plan)
        sg = bands.to_semigroup(band)
        assert matching.verify_involution_matching(sg, p)

    def test_corrupted_plan_raises_well_definedness(self):
        band = full_band(3, 3)
        phi = transpose_matching(band)
        inst = colours.instance_from_matching(band, phi)
        result = colours.solve(inst)
        corrupted = []
        good = result.plan.pairing
        for i in range(len(good)):
            for j in range(i + 1, len(good)):
                pairing = list(good)
                pi, pj = pairing[i], pairing[j]
                if pi in (i, j) or pj in (i, j):
                    continue
                pairing[i], pairing[pj] = pj, i
                pairing[j], pairing[pi] = pi, j
                plan = colours.ExchangePlan(tuple(pairing))
                if not colours.verify_plan(inst, plan):
                    corrupted.append(plan)
        assert corrupted
        for plan in corrupted:
            with pytest.raises(WellDefinednessViolation):
                colours.involution_from_plan(band, inst, plan)

    def test_transposed_instance_rejected(self):
        band = full_band(2, 3)
        inst = colours.instance_from_matching(
            full_band(3, 2), identity_matching(full_band(3, 2)))
        plan = colours.ExchangePlan(tuple(range(6)))
        with pytest.raises(PlanInstanceMismatch):
            colours.involution_from_plan(band, inst, plan)

    def test_count_matrix_instances_convert(self):
        # instances built from count matrices (girl g holds counts[g][c]
        # balls of colour c, only where pattern[g][c]) come from no matching
        def count_matrix_instances(band):
            for counts in itertools.product(range(band.m + 1),
                                            repeat=band.m * band.n):
                rows = [counts[g * band.n:(g + 1) * band.n]
                        for g in range(band.m)]
                if (all(sum(row) == band.n for row in rows)
                        and all(sum(col) == band.m for col in zip(*rows))
                        and all(band.pattern[g][c] or not rows[g][c]
                                for g, c in band.cells())):
                    yield colours.ColourInstance(band.m, band.n, tuple(
                        (g, c) for g, c in band.cells()
                        for _ in range(rows[g][c])))

        cases = [bands.random_band(2, 4, 0.7, seed) for seed in range(20)]
        cases.append(bands.band_from_rows([[1, 1, 0], [1, 1, 1]]))
        converted = 0
        for band in cases:
            sg = bands.to_semigroup(band)
            for inst in count_matrix_instances(band):
                result = colours.solve(inst)
                if result.status != "solved":
                    continue
                p = colours.involution_from_plan(band, inst, result.plan)
                assert matching.verify_involution_matching(sg, p)
                converted += 1
        assert converted > 50

    def test_pipeline_soundness_on_random_bands(self):
        produced = 0
        for seed in range(40):
            band = bands.random_band(2, 4, 0.7, seed)
            sg = bands.to_semigroup(band)
            phi = matching.find_permutation_matching(sg)
            if phi is None:
                continue
            inst = colours.instance_from_matching(band, phi)
            result = colours.solve(inst, budget=200_000)
            if result.status != "solved":
                continue
            p = colours.involution_from_plan(band, inst, result.plan)
            assert matching.verify_involution_matching(sg, p)
            assert p[0] == 0
            produced += 1
        assert produced > 10


class TestReduceCommand:
    def test_full_1x1500_band_yields_a_verified_involution(self, tmp_path):
        # one search level per ball: 1500 levels, past the recursion limit
        path = tmp_path / "full.band"
        path.write_text(bands.format_band(full_band(1, 1500)))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["colour", "reduce", "--band", str(path),
                         "--budget", "200000", "--json"])
        assert code == 0
        rep = json.loads(out.getvalue())
        assert rep["verdicts"]["status"] == "solved"
        assert rep["verdicts"]["involution_verified"] is True
        sg = bands.to_semigroup(full_band(1, 1500))
        assert matching.verify_involution_matching(
            sg, rep["witnesses"]["involution"]
        )

    def test_band_past_the_plain_search_budget_is_solved(self, tmp_path):
        # the plain search exhausts a 200,000-node budget on this band
        path = tmp_path / "hard.band"
        path.write_text(bands.format_band(bands.random_band(6, 12, 0.5, 21)))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["colour", "reduce", "--band", str(path),
                         "--budget", "200000", "--json"])
        assert code == 0
        verdicts = json.loads(out.getvalue())["verdicts"]
        assert verdicts["status"] == "solved"
        assert verdicts["nodes"] == 8_245
        assert verdicts["involution_verified"] is True



class TestCommandsOnRandomInputs:
    """``colour solve`` on random instance texts, some with a stray ball,
    and ``colour reduce`` on random band texts, irregular ones included:
    every run ends with a documented exit code, a failure with one stderr
    line and no stdout, and every emitted plan and involution verifies."""

    def test_random_texts(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        @st.composite
        def instance_texts(draw):
            m, n = draw(st.integers(1, 4)), draw(st.integers(1, 6))
            cols = draw(st.permutations([c for c in range(n) for _ in range(m)]))
            balls = [(k // n, c) for k, c in enumerate(cols)]
            if draw(st.booleans()):
                k = draw(st.integers(0, m * n - 1))
                balls[k] = (draw(st.integers(-1, m)), draw(st.integers(-1, n)))
            balls = draw(st.permutations(balls))
            return f"{m} {n}\n" + "".join(f"{g} {c}\n" for g, c in balls)

        patterns = st.integers(1, 4).flatmap(lambda m: st.integers(1, 6).flatmap(
            lambda n: st.lists(st.lists(st.booleans(), min_size=n, max_size=n),
                               min_size=m, max_size=m)))
        runs = (st.tuples(st.just("solve"), instance_texts())
                | st.tuples(st.just("reduce"), patterns.map(
                    lambda rows: f"{len(rows)} {len(rows[0])}\n" + "".join(
                        "".join(map("01".__getitem__, row)) + "\n"
                        for row in rows))))

        @hypothesis.settings(max_examples=200, deadline=None,
                             derandomize=True, database=None)
        @hypothesis.given(runs)
        def check(run):
            mode, text = run
            argv = (["colour", "solve", "-"] if mode == "solve"
                    else ["colour", "reduce", "--band", "-"])
            out, err = io.StringIO(), io.StringIO()
            with mock.patch.object(sys, "stdin", io.StringIO(text)), \
                    contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = main(argv + ["--budget", "2000", "--json"])
            assert code in {0, 2, 3, 4, 5}
            if code not in (0, 5):
                assert out.getvalue() == ""
                assert err.getvalue().count("\n") == 1
                return
            rep = json.loads(out.getvalue())
            plan = rep["witnesses"]["plan"]
            if mode == "solve":
                inst = colours.parse_instance(text)
            else:
                band = bands.parse_band(text)
                inst = colours.instance_from_matching(
                    band, rep["witnesses"]["matching"])
                inv = rep["witnesses"]["involution"]
                assert (inv is not None) == (plan is not None)
                if inv is not None:
                    assert matching.verify_involution_matching(
                        bands.to_semigroup(band), inv)
            if plan is not None:
                assert colours.verify_plan(inst, colours.ExchangePlan(tuple(plan)))

        check()

class TestFormats:
    def test_instance_round_trip(self):
        inst = colours.ColourInstance(2, 2, ((0, 0), (0, 1), (1, 0), (1, 1)))
        back = colours.parse_instance(colours.format_instance(inst))
        assert back.m == inst.m and back.balls == inst.balls

    def test_plan_format(self):
        plan = colours.ExchangePlan((1, 0, 2, 3))
        assert colours.format_plan(plan) == "0 1\n"

    def test_all_vacuous_plan_serializes_empty(self):
        plan = colours.ExchangePlan((0, 1, 2))
        assert colours.format_plan(plan) == ""
