"""Call-count contracts.

The benchmark's tracer (``bench/tracer.py``) wraps the functions it lists
by rebinding their names in the ``invmatch`` modules.  These tests load it
by path to check that every listed name still resolves, and count calls
the same way to check that one ``analyze`` computes each structure once
per semigroup and Green's relations only for its input, that ``match``
runs Hopcroft-Karp once, that the band commands build no Cayley table
and ``factors`` no quotient band,
that no band path reads its inverse graph off a stream of pairs, that
only parsed Cayley tables are validated, that ``search-on`` matches each
D-class of O_n on its pattern, tests maps pairwise only to verify its
matchings and lists the maps of O_n only for its oracle, and that
``colour reduce`` verifies its involution once.  Two more check what the
matching layer hands the graph algorithms: Hopcroft-Karp gets the
inverse graph's own ``inverses``, and the involution gadget is built in
ascending order, needing no sort.
"""

import argparse
import contextlib
import importlib
import importlib.util
import io
import sys
from collections import Counter
from math import comb
from pathlib import Path

import corpus
from invmatch import (bands, cli, colours, core, graphs, matching,
                      transformations)
from invmatch.transformations import enumerate_family

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    for name in load_tracer().TRACED:
        mod_name, attr = name.rsplit(".", 1)
        module = importlib.import_module(f"invmatch.{mod_name}")
        assert callable(getattr(module, attr, None)), name


def test_bench_edge_counter_sums_the_inverse_lists():
    ((stat, count),) = load_tracer()._COUNTERS["matching.build_inverse_graph"]
    assert stat == "edges"
    band_graph = bands.no_matching_band().inverse_graph
    table_graph = enumerate_family("Tn", 3).semigroup.inverse_graph
    for g in (band_graph, table_graph):
        assert count((), {}, g) == sum(map(len, g.inverses))


def test_traced_names_are_reachable_where_the_benchmark_looks():
    assert matching.green_relations is core.green_relations
    assert transformations.matching_on_graph is matching.matching_on_graph


def count_calls(monkeypatch, paths):
    """Rebind each function under every invmatch name bound to it; return
    {path: [first argument of each call]}."""
    seen = {path: [] for path in paths}
    modules = [m for name, m in sys.modules.items()
               if m is not None and name.startswith("invmatch")]
    for path in paths:
        mod_name, attr = path.rsplit(".", 1)
        fn = getattr(importlib.import_module(f"invmatch.{mod_name}"), attr)

        def counted(*args, _fn=fn, _log=seen[path]):
            _log.append(args[0])
            return _fn(*args)

        for module in modules:
            for key, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, key, counted)
    return seen


def test_analyze_computes_each_structure_once(tmp_path, monkeypatch):
    path = tmp_path / "o4.cayley"
    path.write_text(core.format_cayley(enumerate_family("On", 4).semigroup))
    seen = count_calls(monkeypatch, [
        "core.generating_set",
        "core.inverse_graph_of",
        "core.green_relations",
        "core.principal_factors",
        "graphs.hopcroft_karp",
    ])
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["analyze", str(path), "--json"]) == 0
    # validate and green_relations share one generating set, and the four
    # principal factors take their egg-boxes from O_4's
    for name in ("core.generating_set", "core.green_relations"):
        assert len(seen[name]) == 1, name
    # one inverse graph for O_4 and one for each factor
    per_object = Counter(id(s) for s in seen["core.inverse_graph_of"])
    assert len(per_object) == 5 and set(per_object.values()) == {1}
    assert seen["core.green_relations"][0] is seen["core.principal_factors"][0]
    assert len(seen["core.principal_factors"]) == 1
    # one run on O_4, then one per factor and one per quotient pattern
    assert len(seen["graphs.hopcroft_karp"]) == 9


GOLDEN = Path(__file__).resolve().parent / "golden"


def run_quietly(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv + ["--json"]) == 0


def test_match_runs_hopcroft_karp_once(monkeypatch):
    seen = count_calls(monkeypatch, ["graphs.hopcroft_karp"])
    run_quietly(["match", str(GOLDEN / "counterexample.band")])
    assert len(seen["graphs.hopcroft_karp"]) == 1


def test_band_paths_build_no_cayley_table(monkeypatch):
    band = str(GOLDEN / "band2x4.band")
    seen = count_calls(monkeypatch, ["bands.to_semigroup"])
    run_quietly(["colour", "reduce", "--band", band])
    run_quietly(["colour", "reduce", "--band", band,
                 "--matching", str(GOLDEN / "band2x4.matching")])
    run_quietly(["search-q4", "--m-max", "2", "--n-max", "3", "--oracle"])
    run_quietly(["band", "involution", band])
    assert seen["bands.to_semigroup"] == []
    # the table commands still read a band file through its table, once
    run_quietly(["analyze", str(GOLDEN / "counterexample.band")])
    assert len(seen["bands.to_semigroup"]) == 1


def test_factors_builds_no_quotient_band(monkeypatch):
    seen = count_calls(monkeypatch, ["core.pattern_inverse_graph"])
    run_quietly(["factors", str(GOLDEN / "t3.cayley")])
    # each quotient shape is read off the D-class's box in S's egg-box
    assert seen["core.pattern_inverse_graph"] == []


def test_only_parsed_tables_are_validated(monkeypatch):
    seen = count_calls(monkeypatch, ["core.validate"])
    # a band file's table is associative and in range by construction
    run_quietly(["match", str(GOLDEN / "counterexample.band")])
    run_quietly(["analyze", str(GOLDEN / "counterexample.band")])
    assert seen["core.validate"] == []
    run_quietly(["analyze", str(GOLDEN / "t3.cayley")])
    assert len(seen["core.validate"]) == 1


def test_search_on_tests_pairs_only_to_verify(monkeypatch):
    seen = count_calls(monkeypatch, ["transformations.class_witness_holds",
                                     "transformations.mutually_inverse"])
    run_quietly(["search-on", "--n-max", "3"])
    # one witness check per D-class of O_1, O_2 and O_3, and in it one pair
    # test per fixed point or 2-cycle of its matching: every map is fixed
    # but in O_3's rank-2 class, which fixes four maps and pairs two, so
    # its six maps take five tests; the inverse graph is built without
    # testing pairs
    assert len(seen["transformations.class_witness_holds"]) == 1 + 2 + 3
    assert len(seen["transformations.mutually_inverse"]) == 1 + 3 + 9


def test_search_on_tests_each_cell_of_a_longer_cycle(monkeypatch):
    # O_3's rank-1 class, the constant maps 000, 111 and 222, matched as
    # one 3-cycle: they are pairwise mutual inverses, so every test passes
    # and none cuts the check short, and each cell takes its own test
    real = matching.band_matching
    monkeypatch.setattr(matching, "band_matching", lambda pat: (
        (0, 2, 3, 1) if (len(pat), len(pat[0])) == (1, 3) else real(pat)))
    tested = []
    test = transformations.mutually_inverse
    monkeypatch.setattr(transformations, "mutually_inverse",
                        lambda a, b, pad: tested.append((a, b)) or test(a, b, pad))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["search-on", "--n-max", "3"]) == 0
    assert "UNVERIFIED" not in out.getvalue()
    # after the 1 + 3 tests of O_1 and O_2, and before O_3's other classes
    constant = [bytes([x] * 3) for x in range(3)]
    assert len(tested) == 1 + 3 + (3 + 5 + 1)
    assert tested[4:7] == list(zip(constant, constant[1:] + constant[:1]))


def test_search_on_matches_each_d_class_on_its_pattern(monkeypatch):
    seen = count_calls(monkeypatch, ["graphs.hopcroft_karp",
                                     "core.pattern_inverse_graph",
                                     "transformations.family_inverse_graph",
                                     "matching.band_matching"])
    run_quietly(["search-on", "--n-max", "5"])
    # no map-level graph, no cell graph and no Hopcroft-Karp on either
    assert seen["transformations.family_inverse_graph"] == []
    assert seen["core.pattern_inverse_graph"] == []
    assert seen["graphs.hopcroft_karp"] == []
    # one matching per D-class of O_n, on its pattern: the convex kernels
    # with k blocks by the k-subsets
    assert [(len(p), len(p[0])) for p in seen["matching.band_matching"]] == [
        (comb(n - 1, k - 1), comb(n, k))
        for n in range(1, 6) for k in range(1, n + 1)]


def test_search_on_lists_the_maps_of_o_n_only_for_its_oracle(monkeypatch):
    seen = count_calls(monkeypatch, ["transformations.family_maps",
                                     "transformations.enumerate_family"])
    run_quietly(["search-on", "--n-max", "5"])
    # size and the cover check come from the classes' cells
    assert seen["transformations.family_maps"] == []
    run_quietly(["search-on", "--n-max", "5", "--oracle"])
    # the oracle's tables, for n <= 3, are the only maps of O_n listed
    assert seen["transformations.enumerate_family"] == ["On"] * 3
    assert seen["transformations.family_maps"] == ["On"] * 3


def test_dispatch_reaches_a_handler_rebound_after_the_first_call(monkeypatch):
    band = str(GOLDEN / "band2x4.band")
    run_quietly(["colour", "reduce", "--band", band])
    seen = []
    monkeypatch.setattr(cli, "cmd_colour", lambda args: seen.append(args) or 0)
    run_quietly(["colour", "reduce", "--band", band])
    assert [args.mode for args in seen] == ["reduce"]


def test_subcommands_are_the_cmd_functions():
    (sub,) = (a for a in cli.build_parser()._actions
              if isinstance(a, argparse._SubParsersAction))
    handlers = {name[4:].replace("_", "-")
                for name in vars(cli) if name.startswith("cmd_")}
    assert set(sub.choices) == handlers


def test_tracer_installed_after_a_call_records_the_command():
    band = str(GOLDEN / "band2x4.band")
    run_quietly(["colour", "reduce", "--band", band])
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        tracer.begin_call(0, "colour reduce 2x4")
        run_quietly(["colour", "reduce", "--band", band])
    finally:
        tracer.uninstall()
    names = [span[0] for span in tracer.spans]
    assert names.count("cli.colour") == 1 and "colours.solve" in names


def test_colour_reduce_verifies_its_involution_once(monkeypatch):
    seen = count_calls(monkeypatch, ["bands.verify_band_involution"])
    run_quietly(["colour", "reduce", "--band", str(GOLDEN / "band2x4.band")])
    assert len(seen["bands.verify_band_involution"]) == 1


def runs_of(module, name, argv) -> int:
    """How often the code named ``name`` in ``module`` runs in one CLI
    call, counted through the interpreter's profiling hook, which sees
    every run of it."""
    runs = []

    def profile(frame, event, _arg):
        code = frame.f_code
        if (event == "call" and code.co_name == name
                and code.co_filename == module.__file__):
            runs.append(code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run_quietly(argv)
    finally:
        sys.setprofile(previous)
    return len(runs)


def test_colour_reduce_scans_the_pattern_once():
    # the pattern is checked where the band is built, by no later reader
    assert runs_of(bands, "__post_init__", [
        "colour", "reduce", "--band", str(GOLDEN / "band2x4.band")]) == 1


def test_colour_reduce_checks_its_instance_once():
    # the balls are checked where the instance is built, by no later reader
    assert runs_of(colours, "__post_init__", [
        "colour", "reduce", "--band", str(GOLDEN / "band2x4.band")]) == 1


def recorded_calls(monkeypatch, name):
    """Rebind ``graphs.<name>``, which the matching layer calls by that
    attribute; return the list of argument tuples of its calls."""
    calls = []
    fn = getattr(graphs, name)

    def recorded(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(graphs, name, recorded)
    return calls


def test_hall_on_graph_hands_over_the_graph_itself(monkeypatch):
    hk = recorded_calls(monkeypatch, "hopcroft_karp")
    cert = recorded_calls(monkeypatch, "deficiency_certificate")
    for g, perfect in ((bands.no_matching_band().inverse_graph, False),
                       (enumerate_family("Tn", 3).semigroup.inverse_graph, True)):
        matching.hall_on_graph(g)
        assert hk.pop()[2] is g.inverses
        # a perfect matching needs no certificate
        assert [args[0] is g.inverses for args in cert] == [True] * (not perfect)
        cert.clear()


def sorted_gadget(g):
    """The two-copy gadget built edge by edge, cross edges included, and
    then sorted list by list."""
    n = g.n
    adj = [[] for _ in range(2 * n)]
    for a, vs in enumerate(g.inverses):
        for b in vs:
            if b == a:
                adj[a].append(a + n)
                adj[a + n].append(a)
            else:
                adj[a].append(b)
                adj[a + n].append(b + n)
    return [sorted(xs) for xs in adj]


def test_involution_gadget_is_built_in_order(monkeypatch):
    calls = recorded_calls(monkeypatch, "max_matching_general")
    inverse_graphs = [corpus.corpus_semigroup(seed).inverse_graph
                      for seed in range(40)]
    inverse_graphs += [band.inverse_graph
                       for band in corpus.all_regular_patterns(3, 3)]
    for g in inverse_graphs:
        matching.involution_on_graph(g)
        size, adj, _ = calls.pop()
        n = g.n
        assert size == len(adj) == 2 * n
        assert all(x < y for xs in adj for x, y in zip(xs, xs[1:]))
        for a in range(n):
            own = a in g.inverses[a]
            assert (adj[a][-1:] == [a + n]) == own
            assert (adj[a + n][:1] == [a]) == own
        assert [list(xs) for xs in adj] == sorted_gadget(g)
