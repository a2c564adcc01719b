import random
import tracemalloc

import pytest

import _naive
from mbg import oracles
from mbg.board import GameParams
from mbg.breaker_strategies import make_breaker
from mbg.engine import play_game
from mbg.errors import InvalidParams, NotConnected, TooLarge
from mbg.maker_strategies import make_maker
from mbg.oracles import (HAMILTONIAN_CAP, LONGEST_PATH_CAP, SimpleGraph,
                         boosters, connected_components, is_connected,
                         is_hamiltonian, is_k_expander, longest_path_order,
                         min_degree)


def cycle(n):
    return SimpleGraph(n, [(i, (i + 1) % n) for i in range(n)])


def path(n):
    return SimpleGraph(n, [(i, i + 1) for i in range(n - 1)])


def star(leaves):
    return SimpleGraph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def complete(n):
    return SimpleGraph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def bipartite(s, t):
    """K_{s,t} with sides 0..s-1 and s..s+t-1."""
    return SimpleGraph(s + t, [(u, s + v) for u in range(s) for v in range(t)])


def spider(*legs):
    """Paths of the given lengths from a centre 0, numbered leg by leg."""
    edges, nxt = [], 1
    for leg in legs:
        prev = 0
        for _ in range(leg):
            edges.append((prev, nxt))
            prev, nxt = nxt, nxt + 1
    return SimpleGraph(nxt, edges)


class TestSimpleGraph:
    def test_edge_accounting(self):
        g = SimpleGraph(4, [(0, 1), (2, 3)])
        assert g.has_edge(1, 0)
        assert not g.has_edge(0, 2)
        assert g.degree(0) == 1
        assert g.edges() == [(0, 1), (2, 3)]
        assert (0, 2) in g.non_edges()
        assert g.edge_count() == 2

    def test_with_edge_leaves_original_alone(self):
        g = SimpleGraph(3, [(0, 1)])
        h = g.with_edge(1, 2)
        assert h.has_edge(1, 2)
        assert not g.has_edge(1, 2)

    @pytest.mark.parametrize("edge", [(0, 0), (0, 5), (-1, 1)])
    def test_bad_edges_rejected(self, edge):
        with pytest.raises(InvalidParams):
            SimpleGraph(4, [edge])


class TestConnectivity:
    def test_connected_and_components(self):
        g = SimpleGraph(5, [(0, 1), (1, 2), (3, 4)])
        assert not is_connected(g)
        assert connected_components(g) == [[0, 1, 2], [3, 4]]
        assert is_connected(path(5))

    def test_min_degree(self):
        assert min_degree(path(4)) == 1
        assert min_degree(cycle(4)) == 2
        assert min_degree(SimpleGraph(3)) == 0


class TestHamiltonian:
    @pytest.mark.parametrize("g,expected", [
        (cycle(3), True),
        (cycle(7), True),
        (complete(6), True),
        (path(4), False),
        (SimpleGraph(3, [(0, 1)]), False),
        (SimpleGraph(2, [(0, 1)]), False),
    ])
    def test_known_graphs(self, g, expected):
        assert is_hamiltonian(g) is expected

    def test_petersen_is_not_hamiltonian(self):
        assert not is_hamiltonian(_naive.petersen_graph())

    def test_cap(self):
        with pytest.raises(TooLarge):
            is_hamiltonian(SimpleGraph(HAMILTONIAN_CAP + 1))


class TestLongestPath:
    def test_known_values(self):
        assert longest_path_order(path(6)) == 6
        assert longest_path_order(SimpleGraph(4, [(0, 1), (2, 3)])) == 2
        assert longest_path_order(SimpleGraph(3)) == 1
        # star: best path goes leaf-center-leaf
        assert longest_path_order(SimpleGraph(5, [(0, i) for i in (1, 2, 3, 4)])) == 3

    def test_petersen_has_spanning_path(self):
        assert longest_path_order(_naive.petersen_graph()) == 10

    def test_cap(self):
        with pytest.raises(TooLarge):
            longest_path_order(SimpleGraph(LONGEST_PATH_CAP + 1))


class TestBoosters:
    def test_path_has_exactly_the_closing_booster(self):
        found = boosters(path(4))
        assert found.edges == frozenset({(0, 3)})
        assert not found.already_hamiltonian

    def test_hamiltonian_graph_has_none_by_convention(self):
        found = boosters(cycle(5))
        assert found.edges == frozenset()
        assert found.already_hamiltonian

    @pytest.mark.parametrize("g, deficiency, expected", [
        (cycle(5), 0, set()),
        (path(5), 0, {(0, 4)}),
        (star(3), 1, {(1, 2), (1, 3), (2, 3)}),
        (star(4), 2, {(u, v) for u in range(1, 5) for v in range(u + 1, 5)}),
    ], ids=["hamiltonian", "hamilton-path", "K1,3", "K1,4"])
    def test_each_case_matches_the_per_edge_reference(self, g, deficiency,
                                                      expected):
        assert g.n - longest_path_order(g) == deficiency
        found = boosters(g)
        assert found == _naive.boosters_by_edge(g)
        assert found.edges == frozenset(expected)

    # deficit: vertices a path one longer than G's longest still misses
    @pytest.mark.parametrize("g, deficit", [
        (spider(3, 3, 1, 1), 1),
        (bipartite(2, 6), 2),
        (spider(2, 2, 1, 1, 1, 1), 3),
        (bipartite(3, 9), 4),
        (bipartite(5, 8), 1),
    ], ids=["spider-3311", "K2,6", "spider-221111", "K3,9", "K5,8"])
    def test_deficit_join_matches_the_per_edge_reference(self, g, deficit):
        assert g.n - 1 - longest_path_order(g) == deficit
        found = boosters(g)
        assert found.edges
        assert found == _naive.boosters_by_edge(g)

    def test_booster_with_only_a_short_lower_side(self):
        # spider(1, 2, 2): leaf 1 and legs 0-2-3, 0-4-5.  The only path of
        # G + 25 longer than G's is 3-2-5-4-0-1.  Its side ending at 2 has
        # 2 of its 6 vertices, fewer than half, so the join reaches (2, 5)
        # only from the side ending at 5, by making the pairs symmetric.
        g = spider(1, 2, 2)
        found = boosters(g)
        assert (2, 5) in found.edges
        assert found == _naive.boosters_by_edge(g)

    @pytest.mark.parametrize("s, t", [(5, 8), (6, 9)])
    def test_bipartite_boosters_are_the_pairs_in_the_larger_side(self, s, t):
        found = boosters(bipartite(s, t))
        assert found.edges == {(u, v) for u in range(s, s + t)
                               for v in range(u + 1, s + t)}
        assert not found.already_hamiltonian

    def test_disconnected_rejected(self):
        with pytest.raises(NotConnected):
            boosters(SimpleGraph(4, [(0, 1), (2, 3)]))

    def test_petersen_boosters_are_all_thirty_non_edges(self):
        found = boosters(_naive.petersen_graph())
        assert len(found.edges) == 30
        assert found.edges == frozenset(_naive.petersen_graph().non_edges())


class TestVertex0Table:
    @pytest.fixture
    def built(self, monkeypatch):
        """Adjacencies whose vertex-0 table is built, in build order."""
        adjacencies = []
        path_table = oracles._path_table

        def counting(adj, seeds, stop=0):
            if seeds == 1:
                adjacencies.append(tuple(adj))
            return path_table(adj, seeds, stop)

        monkeypatch.setattr(oracles, "_path_table", counting)
        monkeypatch.setattr(oracles, "_vertex0_memo", None, raising=False)
        return adjacencies

    def test_one_table_per_maker_graph_in_a_stage_three_game(self, built):
        # The engine's detection, stage III's own test and boosters all ask
        # about one Maker graph between Maker's claims.
        params = GameParams(n=14, a=1, b=2, goal="hamiltonicity")
        maker = make_maker("ham-3stage", params, degree_target=2)
        play_game(params, maker, make_breaker("random", params), seed=2)
        assert maker.state.stage_log == ["I", "II", "III"]
        assert built and len(built) == len(set(built))

    def test_nothing_kept_above_the_longest_path_cap(self, built, monkeypatch):
        monkeypatch.setattr(oracles, "LONGEST_PATH_CAP", 5)
        for g in (cycle(6), cycle(6), cycle(5), cycle(5)):
            assert is_hamiltonian(g)
        assert len(built) == 3

    def test_boosters_keep_one_table_alive_at_a_time(self, built):
        # K_{5,8} has no Hamilton path, so boosters drops the vertex-0 table
        # for the all-start one; keeping both would peak about 1.6 times as
        # high as the all-start table alone.  (K_{6,9} separates the same
        # way, but tracemalloc slows its 2^15 tables to seconds.)
        g = bipartite(5, 8)

        def peak(run):
            tracemalloc.start()
            try:
                run()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        table_alone = peak(lambda: oracles._path_table(g.adj, (1 << g.n) - 1))
        assert peak(lambda: boosters(g)) < 1.2 * table_alone
        assert built == [tuple(g.adj)]


class TestExpander:
    def test_petersen_is_a_one_expander(self):
        check = is_k_expander(_naive.petersen_graph(), 1)
        assert check.holds and check.exhaustive and check.witness is None

    def test_complete_graph_fails_at_large_subsets(self):
        check = is_k_expander(complete(4), 2)
        assert not check.holds
        assert len(check.witness) == 2  # two vertices only see two others

    def test_isolated_vertex_is_a_witness(self):
        g = SimpleGraph(4, [(0, 1), (0, 2), (1, 2)])
        check = is_k_expander(g, 1)
        assert not check.holds
        assert check.witness == frozenset({3})

    def test_mode_validation(self):
        with pytest.raises(InvalidParams):
            is_k_expander(cycle(4), 0)

    def test_sampled_check_above_the_subset_cap(self, monkeypatch):
        # C_4 has 10 subsets of size <= 2; every pair sees only two others
        monkeypatch.setattr(oracles, "EXPANDER_SUBSET_CAP", 9)
        check = is_k_expander(cycle(4), 2)
        assert not check.holds and not check.exhaustive
        assert len(check.witness) == 2


@pytest.mark.parametrize("seed", range(8))
def test_oracles_agree_with_naive_search(seed):
    """Spot agreement on random graphs; the wide sweep lives in acceptance."""
    rng = random.Random(seed)
    n = rng.randint(4, 9)
    edges = _naive.random_graph_edges(rng, n, rng.uniform(0.2, 0.6))
    g = SimpleGraph(n, edges)
    assert is_hamiltonian(g) == _naive.hamiltonian_cycle_exists(n, edges)
    assert longest_path_order(g) == _naive.longest_path_vertex_count(n, edges)
    assert is_connected(g) == _naive.connected(n, edges)
    if is_connected(g):
        assert boosters(g).edges == frozenset(_naive.booster_edges(n, edges))
