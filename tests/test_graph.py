import pytest
from hypothesis import given
from strategies import graphs

from smc.graph import (
    Graph,
    connected_components,
    format_graph,
    induced_subgraph,
    parse_graph,
)


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return Graph(range(10), outer + inner + spokes)


class TestGraphBasics:
    def test_complete(self):
        g = Graph.complete(4)
        assert g.n == 4 and g.m == 6
        assert g.neighbors(2) == (0, 1, 3)
        assert g.degrees() == {v: 3 for v in range(4)}

    def test_add_edge_idempotent(self):
        g = Graph(range(2))
        g.add_edge(0, 1)
        g.add_edge(1, 0)
        assert g.m == 1

    def test_add_edge_rejects_loop(self):
        g = Graph(range(2))
        with pytest.raises(ValueError):
            g.add_edge(1, 1)

    def test_add_edge_unknown_endpoint(self):
        g = Graph(range(2))
        with pytest.raises(KeyError):
            g.add_edge(0, 5)

    def test_remove_edge_strict(self):
        g = Graph.path(3)
        g.remove_edge(0, 1)
        assert g.m == 1
        with pytest.raises(ValueError):
            g.remove_edge(0, 1)

    def test_delete_vertex(self):
        g = Graph.complete(4)
        g.delete_vertex(0)
        assert g.vertices() == [1, 2, 3] and g.m == 3
        with pytest.raises(KeyError):
            g.delete_vertex(0)

    def test_copy_is_independent(self):
        g = Graph.complete(3)
        h = g.copy()
        h.delete_vertex(0)
        assert g.n == 3 and h.n == 2


class TestPureOps:
    def test_induced_identity(self):
        g = Graph.complete(4)
        assert induced_subgraph(g, range(4)) == g

    def test_induced_pair(self):
        g = induced_subgraph(Graph.complete(4), {0, 1})
        assert g.vertices() == [0, 1] and g.edges() == [(0, 1)]

    def test_induced_unknown_id(self):
        with pytest.raises(KeyError):
            induced_subgraph(Graph.complete(3), {0, 7})

    def test_remove_vertex_k4(self):
        g = Graph.complete(4)
        g.delete_vertex(3)
        assert g == Graph.complete(3)

    def test_remove_vertex_path_center(self):
        g = Graph.path(3)
        g.delete_vertex(1)
        assert g.vertices() == [0, 2] and g.m == 0

    def test_components_empty(self):
        assert connected_components(Graph()) == []

    def test_components_two_triangles(self):
        g = Graph(range(6), [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        assert connected_components(g) == [[0, 1, 2], [3, 4, 5]]

    def test_is_connected(self):
        assert len(connected_components(petersen())) == 1
        assert len(connected_components(Graph(range(2)))) == 2

    @given(graphs(max_n=12))
    def test_remove_vertex_edge_count(self, g):
        for v in g.vertices():
            h = g.copy()
            h.delete_vertex(v)
            assert h.m == g.m - g.degree(v)
            break

    @given(graphs(max_n=12))
    def test_symmetry_invariant(self, g):
        for v in g.vertices():
            for u in g.neighbors(v):
                assert v in g.neighbors(u)

    @given(graphs(max_n=12))
    def test_component_restriction_idempotent(self, g):
        for comp in connected_components(g):
            assert connected_components(induced_subgraph(g, comp)) == [comp]


class TestTextFormat:
    def test_round_trip_canonical(self):
        text = "graph 4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n"
        assert format_graph(parse_graph(text)) == text

    def test_comments_and_blanks(self):
        text = "# header comment\n\ngraph 3 1  # inline\n0 1 # edge\n"
        g = parse_graph(text)
        assert g.n == 3 and g.edges() == [(0, 1)]

    def test_isolated_vertices_survive(self):
        g = parse_graph("graph 5 1\n2 3\n")
        assert g.vertices() == [0, 1, 2, 3, 4]

    @pytest.mark.parametrize(
        "bad",
        [
            "graf 3 0\n",
            "graph 3 2\n0 1\n",
            "graph 3 1\n0 0\n",
            "graph 3 2\n0 1\n0 1\n",
            "graph 3 1\n0 5\n",
            "graph 3 1\n0\n",
        ],
    )
    def test_parse_errors(self, bad):
        with pytest.raises(ValueError):
            parse_graph(bad)

    def test_format_requires_contiguous_ids(self):
        g = Graph([0, 2], [(0, 2)])
        with pytest.raises(ValueError):
            format_graph(g)

    @given(graphs(max_n=10))
    def test_round_trip_property(self, g):
        assert parse_graph(format_graph(g)) == g
