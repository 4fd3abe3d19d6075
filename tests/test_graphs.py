"""Matching algorithms against brute-force oracles."""

import random
from collections import Counter

import pytest

import blossom_oracle
import corpus
import hk_oracle
from invmatch import bands, core, graphs, matching, transformations


def brute_bipartite_max(n_left, n_right, adj):
    """Exhaustive maximum-matching size."""

    def go(u, used):
        if u == n_left:
            return 0
        best = go(u + 1, used)
        for v in adj[u]:
            if v not in used:
                used.add(v)
                best = max(best, 1 + go(u + 1, used))
                used.remove(v)
        return best

    return go(0, set())


def brute_general_max(n, adj):
    """Exhaustive maximum-matching size on an undirected graph."""
    edges = sorted(
        {(min(a, b), max(a, b)) for a in range(n) for b in adj[a] if a != b}
    )

    def go(idx, used):
        if idx == len(edges):
            return 0
        a, b = edges[idx]
        best = go(idx + 1, used)
        if a not in used and b not in used:
            used.add(a)
            used.add(b)
            best = max(best, 1 + go(idx + 1, used))
            used.remove(a)
            used.remove(b)
        return best

    return go(0, set())


def random_bipartite(rng, n_left, n_right, p):
    return [
        sorted(v for v in range(n_right) if rng.random() < p)
        for _ in range(n_left)
    ]


def test_hopcroft_karp_against_oracle():
    rng = random.Random(7)
    for trial in range(120):
        nl = rng.randint(1, 7)
        nr = rng.randint(1, 7)
        adj = random_bipartite(rng, nl, nr, rng.choice([0.2, 0.4, 0.7]))
        size, match_l, match_r, _reached = graphs.hopcroft_karp(nl, nr, adj)
        assert size == brute_bipartite_max(nl, nr, adj)
        # matching is consistent and uses real edges
        for u, v in enumerate(match_l):
            if v != -1:
                assert v in adj[u]
                assert match_r[v] == u
        assert sum(1 for v in match_l if v != -1) == size


def test_hopcroft_karp_deterministic():
    rng = random.Random(3)
    adj = random_bipartite(rng, 6, 6, 0.5)
    first = graphs.hopcroft_karp(6, 6, adj)
    second = graphs.hopcroft_karp(6, 6, adj)
    assert first == second


def shared_list_graphs(rng, count, nl_max=12, nr_max=8):
    """Random graphs whose lists are drawn from a small pool of list
    objects, so one object recurs back to back and with other lists in
    between; the pool holds an empty list and may repeat a neighbour."""
    out = []
    for _ in range(count):
        nl, nr = rng.randint(0, nl_max), rng.randint(0, nr_max)
        pool = [[]] + [
            [rng.randrange(nr) for _ in range(rng.randint(1, 6))]
            for _ in range(rng.randint(1, 3) if nr else 0)
        ]
        adj = []
        while len(adj) < nl:
            adj += [rng.choice(pool)] * rng.randint(1, 4)
        out.append((nl, nr, adj[:nl]))
    return out


def test_hopcroft_karp_matches_the_plain_first_phase():
    """The greedy start returns what the first breadth-first phase did, on
    random graphs (unbalanced, with empty sides, unsorted and repeated
    neighbours), on random graphs of shared list objects, and on the
    two-copy graphs the matching layer builds: O_1..O_6, every regular
    band up to 3 x 4, seeded band patterns up to 7 x 14 at densities up
    to 1.0 (irregular ones included) and the full 1 x 1500 band, whose
    cells share V tuples."""
    rng = random.Random(13)
    graphs_in = []
    for _ in range(20_000):
        nl, nr = rng.randint(0, 9), rng.randint(0, 9)
        adj = [
            [rng.randrange(nr) for _ in range(rng.randint(0, 6))] if nr else []
            for _ in range(nl)
        ]
        graphs_in.append((nl, nr, adj))
    shared = shared_list_graphs(rng, 5_000)
    graphs_in += shared
    inverse_graphs = [
        transformations.family_inverse_graph(
            transformations.family_maps("On", n), n)
        for n in range(1, 7)
    ]
    inverse_graphs += [
        core.pattern_inverse_graph(band.pattern)
        for band in corpus.all_regular_patterns(3, 4)
    ]
    patterns = [[[True] * 1500]]
    for _ in range(300):
        m, n = rng.randint(1, 7), rng.randint(1, 14)
        density = rng.choice([0.2, 0.4, 0.6, 0.8, 1.0])
        patterns.append(
            [[rng.random() < density for _ in range(n)] for _ in range(m)])
    inverse_graphs += [core.pattern_inverse_graph(p) for p in patterns]
    for g in inverse_graphs:
        graphs_in.append((g.n, g.n, g.inverses))
    for nl, nr, adj in graphs_in:
        assert graphs.hopcroft_karp(nl, nr, adj)[:3] == (
            hk_oracle.hopcroft_karp(nl, nr, adj))
    assert any(nl != nr for nl, nr, _ in graphs_in)
    assert any(nl == 0 for nl, _, _ in graphs_in)
    assert any(nr == 0 and nl for nl, nr, _ in graphs_in)
    back_to_back = interleaved = repeated = 0
    for _, _, adj in shared:
        last = set()
        for u, vs in enumerate(adj):
            if u and adj[u - 1] is vs and vs:
                back_to_back += 1
            elif id(vs) in last and vs:
                interleaved += 1
            last.add(id(vs))
            repeated += len(set(vs)) < len(vs)
    assert back_to_back and interleaved and repeated
    assert any(all(map(all, p)) for p in patterns[1:])
    assert any(not any(row) for p in patterns for row in p)


def test_hopcroft_karp_matches_the_oracle_over_many_phases(monkeypatch):
    """Per-phase roots and cursors return what the plain search did on
    graphs that take several phases: the O_7 and O_8 family graphs, and
    the table graphs of T_4 and O_6 with those of their principal
    factors."""
    searches = []

    class CountedDeque(hk_oracle.deque):
        # the oracle makes one queue per breadth-first search
        def __init__(self, *args):
            searches[-1] += 1
            super().__init__(*args)

    monkeypatch.setattr(hk_oracle, "deque", CountedDeque)
    inverse_graphs = [
        transformations.family_inverse_graph(
            transformations.family_maps("On", n), n)
        for n in (7, 8)
    ]
    for family, n in (("Tn", 4), ("On", 6)):
        s = transformations.enumerate_family(family, n).semigroup
        inverse_graphs.append(s.inverse_graph)
        inverse_graphs += [f.semigroup.inverse_graph for f in s.factors]
    for g in inverse_graphs:
        searches.append(0)
        assert graphs.hopcroft_karp(g.n, g.n, g.inverses)[:3] == (
            hk_oracle.hopcroft_karp(g.n, g.n, g.inverses))
    assert len(inverse_graphs) == 14
    # breadth-first searches of the oracle, each phase's and the last
    assert searches[:2] == [7, 10] and max(searches[2:]) == 6


def test_deficiency_certificate_is_a_hall_violator():
    rng = random.Random(11)
    found = 0
    for trial in range(200):
        nl = rng.randint(2, 7)
        nr = rng.randint(1, 7)
        adj = random_bipartite(rng, nl, nr, 0.3)
        size, _match_l, _match_r, reached = graphs.hopcroft_karp(nl, nr, adj)
        cert = graphs.deficiency_certificate(adj, reached)
        if size == nl:
            assert cert is None
            continue
        found += 1
        violator, image = cert
        neighbourhood = sorted({v for u in violator for v in adj[u]})
        assert neighbourhood == image
        assert len(violator) > len(image)
    assert found > 20


def test_reached_list_gives_the_oracle_certificate(monkeypatch):
    """Hopcroft-Karp's size and match arrays, and the certificate read off
    its last breadth-first search, equal the oracle's plain search and its
    second alternating search, on random graphs up to 14 x 14 (a third
    of them runs of shared list objects, unsorted and repeated neighbours
    in all) and on the band graph and the clone graph of every regular
    pattern of at most 12 cells."""
    rng = random.Random(17)
    graphs_in = []
    for _ in range(14_000):
        nl, nr = rng.randint(0, 14), rng.randint(0, 14)
        degree = rng.choice([2, 4, 8])
        adj = [[rng.randrange(nr) for _ in range(rng.randint(0, degree))]
               if nr else [] for _ in range(nl)]
        graphs_in.append(("random", nl, nr, adj))
    graphs_in += [("shared", *g) for g in shared_list_graphs(rng, 7_000, 14, 14)]
    real = graphs.hopcroft_karp

    def recording(n_left, n_right, adj):
        graphs_in.append(("clone", n_left, n_right, adj))
        return real(n_left, n_right, adj)

    monkeypatch.setattr(graphs, "hopcroft_karp", recording)
    for band in corpus.small_regular_patterns():
        g = band.inverse_graph
        graphs_in.append(("band", g.n, g.n, g.inverses))
        bands.check_harem_condition(band)
    monkeypatch.undo()
    kinds = Counter()
    for kind, nl, nr, adj in graphs_in:
        size, match_l, match_r, reached = graphs.hopcroft_karp(nl, nr, adj)
        assert (size, match_l, match_r) == hk_oracle.hopcroft_karp(nl, nr, adj)
        cert = graphs.deficiency_certificate(adj, reached)
        assert cert == hk_oracle.deficiency_certificate(
            nl, nr, adj, match_l, match_r)
        kinds[kind, cert is None] += 1
    assert Counter(kind for kind, *_ in graphs_in) == {
        "random": 14_000, "shared": 7_000, "band": 6_761, "clone": 6_761}
    # every kind has deficient and perfect graphs
    assert min(kinds.values()) > 100 and len(kinds) == 8
    shared_runs = sum(adj[u] is adj[u - 1] and len(adj[u]) > 0
                      for kind, _, _, adj in graphs_in if kind == "shared"
                      for u in range(1, len(adj)))
    assert shared_runs > 1_000


def test_blossom_against_oracle():
    rng = random.Random(23)
    for trial in range(150):
        n = rng.randint(1, 9)
        p = rng.choice([0.15, 0.3, 0.5])
        adj = [[] for _ in range(n)]
        for a in range(n):
            for b in range(a + 1, n):
                if rng.random() < p:
                    adj[a].append(b)
                    adj[b].append(a)
        mate = graphs.max_matching_general(n, adj)
        assert mate == blossom_oracle.max_matching_general(n, adj)
        size = sum(1 for v in mate if v != -1) // 2
        assert size == brute_general_max(n, adj)
        for a, b in enumerate(mate):
            if b != -1:
                assert mate[b] == a
                assert b in adj[a]


def test_blossom_handles_odd_cycles():
    # triangle plus pendant: maximum matching has size 2
    adj = [[1, 2], [0, 2], [0, 1, 3], [2]]
    mate = graphs.max_matching_general(4, adj)
    assert sum(1 for v in mate if v != -1) == 4

    # 5-cycle: maximum matching has size 2
    adj5 = [[1, 4], [0, 2], [1, 3], [2, 4], [3, 0]]
    mate5 = graphs.max_matching_general(5, adj5)
    assert sum(1 for v in mate5 if v != -1) == 4



# Regression cross-checks against an independent implementation; networkx
# is a test-only oracle, the package itself stays standard-library only.


def test_hopcroft_karp_and_certificate_agree_with_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(41)
    deficient = 0
    for trial in range(300):
        nl = rng.randint(1, 10)
        nr = rng.randint(1, 10)
        adj = random_bipartite(rng, nl, nr, rng.choice([0.1, 0.25, 0.5]))
        g = nx.Graph()
        g.add_nodes_from(("l", u) for u in range(nl))
        g.add_nodes_from(("r", v) for v in range(nr))
        g.add_edges_from(
            (("l", u), ("r", v)) for u in range(nl) for v in adj[u]
        )
        top = [("l", u) for u in range(nl)]
        expected = len(nx.bipartite.hopcroft_karp_matching(g, top)) // 2
        size, _match_l, _match_r, reached = graphs.hopcroft_karp(nl, nr, adj)
        assert size == expected
        cert = graphs.deficiency_certificate(adj, reached)
        if size == nl:
            assert cert is None
            continue
        deficient += 1
        violator, _image = cert
        neighbourhood = {v for u in violator for v in adj[u]}
        assert len(neighbourhood) < len(violator)
        # Koenig: the certificate's deficiency is the matching's
        assert len(violator) - len(neighbourhood) == nl - size
    assert deficient > 50


def test_blossom_agrees_with_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(43)
    for trial in range(300):
        n = rng.randint(1, 12)
        g = nx.gnp_random_graph(
            n, rng.choice([0.15, 0.3, 0.5]), seed=rng.randrange(2**32)
        )
        adj = [sorted(g[a]) for a in range(n)]
        mate = graphs.max_matching_general(n, adj)
        assert mate == blossom_oracle.max_matching_general(n, adj)
        size = sum(1 for v in mate if v != -1) // 2
        assert size == len(nx.max_weight_matching(g, maxcardinality=True))


def random_partial_matching(rng, n, adj):
    """A valid mate array built from edges taken in random order, each kept
    with probability 1/2 when both ends are still free."""
    mate = [-1] * n
    edges = [(a, b) for a in range(n) for b in adj[a] if a < b]
    rng.shuffle(edges)
    for a, b in edges:
        if mate[a] == -1 and mate[b] == -1 and rng.random() < 0.5:
            mate[a], mate[b] = b, a
    return mate


def test_seeded_blossom_agrees_with_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(47)
    for trial in range(300):
        n = rng.randint(1, 14)
        g = nx.gnp_random_graph(
            n, rng.choice([0.15, 0.3, 0.5]), seed=rng.randrange(2**32)
        )
        adj = [sorted(g[a]) for a in range(n)]
        seed = random_partial_matching(rng, n, adj)
        mate = graphs.max_matching_general(n, adj, seed)
        size = sum(1 for v in mate if v != -1) // 2
        assert size == len(nx.max_weight_matching(g, maxcardinality=True))
        for a, b in enumerate(mate):
            if b != -1:
                assert mate[b] == a
                assert b in adj[a]


def test_seed_must_be_a_matching():
    adj = [[1, 2], [0, 2], [0, 1]]
    for seed in ([1, -1, -1], [1, 2, 0], [0, -1, -1], [3, -1, -1], [-1, -1]):
        with pytest.raises(ValueError):
            graphs.max_matching_general(3, adj, seed)


@pytest.mark.parametrize("family,n", [("Tn", 3), ("Tn", 4), ("On", 5), ("On", 6)])
def test_blossom_matches_oracle_on_involution_gadgets(monkeypatch, family, n):
    maps = transformations.family_maps(family, n)
    g = transformations.family_inverse_graph(maps, n)
    calls = []
    real = graphs.max_matching_general

    def recording(size, adj, mate=None):
        out = real(size, adj, mate)
        calls.append((size, adj, out))
        return out

    monkeypatch.setattr(graphs, "max_matching_general", recording)
    assert matching.involution_on_graph(g) is not None
    [(size, adj, mate)] = calls
    assert size == 2 * len(maps)
    assert mate == blossom_oracle.max_matching_general(size, adj)
