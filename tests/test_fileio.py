import numpy as np
import pytest

from pfising.fileio import (
    format_graph,
    format_matrix,
    format_scheme,
    parse_edge_values,
    parse_graph,
    parse_scheme,
    parse_weight_spec,
)
from pfising.fixtures import get_fixture
from pfising.kasteleyn import build_incidence_matrix


def test_graph_round_trip():
    g = get_fixture("k5-projective").graph
    assert parse_graph(format_graph(g)).edges == g.edges


def test_graph_comments_and_errors():
    g = parse_graph("# triangle\n0 1\n1 2   # second\n0 2\n")
    assert g.num_vertices == 3 and g.num_edges == 3
    with pytest.raises(ValueError):
        parse_graph("0 1 2\n")


def test_scheme_round_trip():
    fx = get_fixture("k5-projective")
    text = format_scheme(fx.scheme)
    back = parse_scheme(text, fx.graph)
    assert back.rotations == fx.scheme.rotations
    assert back.crosscaps == fx.scheme.crosscaps
    assert back.n_crosscaps == fx.scheme.n_crosscaps


def test_scheme_rejects_incomplete_rotations():
    fx = get_fixture("k3")
    with pytest.raises(ValueError):
        parse_scheme("0: 0 1\n1: 0 2\n", fx.graph)


def test_edge_values():
    vals = parse_edge_values("0 0.25\n2 1.5\n1 0.75\n", 3)
    assert np.allclose(vals, [0.25, 0.75, 1.5])
    with pytest.raises(ValueError, match="missing"):
        parse_edge_values("0 0.25\n", 2)


def test_weight_spec_uniform():
    assert np.allclose(parse_weight_spec("uniform:0.4", 5), 0.4)


def test_weight_spec_file(tmp_path):
    p = tmp_path / "w.txt"
    p.write_text("0 0.5\n1 0.25\n2 0.125\n")
    assert np.allclose(parse_weight_spec(str(p), 3), [0.5, 0.25, 0.125])


def test_matrix_dump_formats():
    fx = get_fixture("k5-projective")
    inc = build_incidence_matrix(fx.graph, fx.scheme)
    text = format_matrix(inc.skew, labels=inc.dart_graph.darts)
    lines = text.splitlines()
    assert lines[0] == "order 20"
    assert lines[1] == "ring multicomplex"
    assert lines[2] == "generators 1"
    assert any(":" in line.split()[-1] for line in lines[4:])
