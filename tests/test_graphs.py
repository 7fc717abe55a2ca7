import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from graphdiff.graphs import (
    EdgeSpec,
    GraphConfigError,
    InvalidGraphError,
    MetricGraph,
    Side,
    parse_graph,
    primal_condition_table,
    require_valid,
    trace_functionals,
    validate,
)

from reference import convert


def test_edge_accessors():
    e = EdgeSpec(id="X", length=2.0, sigma=0.5, left_vertex="u", right_vertex="v",
                 l=0.3, r=0.7, l_to={"Y": 0.3}, r_to={"Z": 0.7})
    assert e.total(Side.LEFT) == 0.3
    assert e.total(Side.RIGHT) == 0.7
    assert e.coupling(Side.LEFT) == {"Y": 0.3}
    assert e.vertex(Side.LEFT) == "u"
    assert e.vertex(Side.RIGHT) == "v"


def _row(matrix, r):
    """{column: value} of the stored entries of row r."""
    stored = slice(matrix.indptr[r], matrix.indptr[r + 1])
    return dict(zip(matrix.indices[stored].tolist(), matrix.data[stored].tolist()))


def _hub(n):
    # n edges at "hub", even ones arriving with their right end, odd ones
    # leaving with their left end; each passes all it absorbs at the hub
    # into the next edge
    edges = []
    for k in range(n):
        common = dict(id=f"E{k}", length=1.0, sigma=1.0 + k % 3)
        out = {f"E{(k + 1) % n}": 0.5}
        if k % 2 == 0:
            edges.append(EdgeSpec(**common, left_vertex=f"v{k}", right_vertex="hub",
                                  r=0.5, r_to=out))
        else:
            edges.append(EdgeSpec(**common, left_vertex="hub", right_vertex=f"v{k}",
                                  l=0.5, l_to=out))
    return MetricGraph(tuple(edges))


def test_graph_index_and_hub_rows(star_graph):
    g = star_graph
    assert g.n_edges == 3
    assert g.edge_ids == ("E1", "E2", "E3")
    assert g.index_of("E2") == 1
    # E1's right end (row 1) loses sigma_1 r_1 and passes it on into the
    # left ends of E2 and E3 (columns 2 and 4)
    x = convert(g.exchange)
    assert _row(x, 1) == {1: -1.0, 2: 0.6, 4: 0.4}
    # leaf ends touch nothing else: their rows and columns are empty
    for leaf in (0, 3, 5):
        assert _row(x, leaf) == {} and leaf not in x.indices

    n = 4000
    x = convert(_hub(n).exchange)
    assert x.nnz == 2 * n
    for k in range(n):
        end, nxt = 2 * k + 1 - k % 2, (k + 1) % n
        sigma = 1.0 + k % 3
        assert _row(x, end) == {end: -0.5 * sigma, 2 * nxt + 1 - nxt % 2: 0.5 * sigma}


def test_exchange_couples_endpoints_at_one_vertex(star_graph, chain_graph, leaky_star_graph):
    def vertex(endpoint):
        return g.edges[endpoint // 2].vertex(Side(endpoint % 2))

    for g in (star_graph, chain_graph, leaky_star_graph, _hub(7)):
        x = convert(g.exchange).tocoo()
        assert x.nnz
        for r, c, v in zip(x.row, x.col, x.data):
            assert vertex(r) == vertex(c)
            assert (v < 0) if r == c else (v > 0)


def test_parallel_edges_meet_like_for_like():
    # two coupled edges strung between the same pair of vertices: each end
    # of one passes into the matching end of the other, and nowhere else
    g = MetricGraph((
        EdgeSpec(id="P1", length=1.0, sigma=1.0, left_vertex="u", right_vertex="v",
                 l=0.5, r=1.0, l_to={"P2": 0.5}, r_to={"P2": 0.25}),
        EdgeSpec(id="P2", length=1.5, sigma=2.0, left_vertex="u", right_vertex="v",
                 l=1.0, r=0.5, l_to={"P1": 1.0}, r_to={"P1": 0.5}),
    ))
    assert np.array_equal(g.exchange.toarray(), [
        [-0.5, 0.0, 0.5, 0.0],
        [0.0, -1.0, 0.0, 0.25],
        [2.0, 0.0, -2.0, 0.0],
        [0.0, 1.0, 0.0, -1.0],
    ])


def test_validate_ok_and_conservative(star_graph, leaky_star_graph, chain_graph):
    assert validate(star_graph).ok
    assert validate(star_graph).conservative
    rep = validate(leaky_star_graph)
    assert rep.ok and not rep.conservative
    assert validate(chain_graph).conservative


def test_validate_rejects_empty():
    rep = validate(MetricGraph(()))
    assert not rep.ok


def test_validate_rejects_loop():
    g = MetricGraph((
        EdgeSpec(id="L", length=1.0, sigma=1.0, left_vertex="v", right_vertex="v"),
    ))
    rep = validate(g)
    assert not rep.ok
    assert any("loop" in p for p in rep.problems)


def test_validate_rejects_bad_scalars():
    g = MetricGraph((
        EdgeSpec(id="A", length=-1.0, sigma=0.0, left_vertex="u", right_vertex="v",
                 l=-0.5),
    ))
    rep = validate(g)
    assert len(rep.problems) >= 3


def test_validate_rejects_non_incident_coupling():
    # B's left end sits at w, nowhere near A
    g = MetricGraph((
        EdgeSpec(id="A", length=1.0, sigma=1.0, left_vertex="u", right_vertex="v",
                 r=1.0, r_to={"B": 1.0}),
        EdgeSpec(id="B", length=1.0, sigma=1.0, left_vertex="w", right_vertex="x"),
    ))
    rep = validate(g)
    assert not rep.ok
    assert any("incident" in p for p in rep.problems)


def test_validate_rejects_self_coupling_and_unknown_target():
    g = MetricGraph((
        EdgeSpec(id="A", length=1.0, sigma=1.0, left_vertex="u", right_vertex="v",
                 r=2.0, r_to={"A": 1.0, "ZZ": 1.0}),
    ))
    rep = validate(g)
    assert not rep.ok
    assert any("itself" in p for p in rep.problems)
    assert any("unknown" in p for p in rep.problems)


def test_validate_rejects_oversubscribed_membrane():
    g = MetricGraph((
        EdgeSpec(id="A", length=1.0, sigma=1.0, left_vertex="u", right_vertex="v",
                 r=0.5, r_to={"B": 0.6}),
        EdgeSpec(id="B", length=1.0, sigma=1.0, left_vertex="v", right_vertex="w"),
    ))
    rep = validate(g)
    assert not rep.ok
    with pytest.raises(InvalidGraphError):
        require_valid(g)


def test_duplicate_edge_ids_caught():
    g = MetricGraph((
        EdgeSpec(id="A", length=1.0, sigma=1.0, left_vertex="u", right_vertex="v"),
        EdgeSpec(id="A", length=1.0, sigma=1.0, left_vertex="v", right_vertex="w"),
    ))
    assert not validate(g).ok


def test_zero_permeability_edge_is_valid(sealed_edge):
    rep = validate(sealed_edge)
    assert rep.ok and rep.conservative


# ---------------------------------------------------------------------------
# trace functionals against hand-worked two-edge values
#
# For the chain with unit coefficients the condition at E1's right end reads
# value-on-E2 minus value-on-E1; doubling sigma on E1 halves the borrowed
# term in the adjoint table but leaves the forward table untouched.

def _two_edge(sigma1):
    return MetricGraph((
        EdgeSpec(id="E1", length=1.0, sigma=sigma1, left_vertex="a", right_vertex="b",
                 r=1.0, r_to={"E2": 1.0}),
        EdgeSpec(id="E2", length=2.0, sigma=1.0, left_vertex="b", right_vertex="c",
                 l=1.0, l_to={"E1": 1.0}),
    ))


def test_adjoint_trace_functional_equal_sigma():
    tab = trace_functionals(_two_edge(1.0))
    co = tab[0, Side.RIGHT.value]
    expected = np.zeros((2, 2))
    expected[0, 1] = -1.0   # minus the trace on E1's own right end
    expected[1, 0] = 1.0    # plus the trace on E2's left end
    assert_allclose(co, expected)
    # left end of E1 is impermeable: the functional vanishes
    assert_allclose(tab[0, Side.LEFT.value], 0.0)


def test_adjoint_trace_functional_weighted_sigma():
    tab = trace_functionals(_two_edge(2.0))
    co = tab[0, Side.RIGHT.value]
    assert co[0, 1] == -1.0
    assert co[1, 0] == pytest.approx(0.5)   # sigma_2 / sigma_1


def test_forward_table_ignores_sigma():
    for s in (1.0, 2.0):
        tab = primal_condition_table(_two_edge(s))
        co = tab[0, Side.RIGHT.value]
        assert co[0, 1] == -1.0
        assert co[1, 0] == 1.0


def test_star_functionals_balance_when_conservative(star_graph):
    # summing sigma_i (F at left minus F at right) over edges telescopes to
    # zero exactly when every membrane passes on all it absorbs
    tab = trace_functionals(star_graph)
    total = np.zeros((3, 2))
    for i in range(3):
        total += star_graph.edges[i].sigma * (
            tab[i, Side.LEFT.value] - tab[i, Side.RIGHT.value]
        )
    assert_allclose(total, 0.0, atol=1e-15)


def test_conservative_coupling_bookkeeping(star_graph):
    # every unit a membrane absorbs is re-emitted somewhere: the cross-edge
    # weights, with their sigma factors restored, tally up to the total
    # absorption over all membranes
    tab = trace_functionals(star_graph)
    cross = 0.0
    for i in range(star_graph.n_edges):
        for side in (Side.LEFT, Side.RIGHT):
            co = tab[i, side.value].copy()
            co[i, side.value] = 0.0
            cross += star_graph.edges[i].sigma * np.abs(co).sum()
    absorbed = sum(e.sigma * (e.l + e.r) for e in star_graph.edges)
    assert cross == pytest.approx(absorbed, abs=1e-14)


# ---------------------------------------------------------------------------
# JSON parsing

def _minimal_config():
    return {
        "edges": [
            {"id": "E1", "length": 1.0, "sigma": 1.0,
             "left_vertex": "a", "right_vertex": "b",
             "l": 0.0, "r": 1.0, "l_to": {}, "r_to": {"E2": 1.0}},
            {"id": "E2", "length": 2.0, "sigma": 1.0,
             "left_vertex": "b", "right_vertex": "c",
             "l": 1.0, "r": 0.0, "l_to": {"E1": 1.0}, "r_to": {}},
        ]
    }


def test_parse_round_trip(chain_graph):
    g = parse_graph(_minimal_config())
    assert g.edge_ids == chain_graph.edge_ids
    assert g.edges[1].length == 2.0
    assert g.edges[0].coupling(Side.RIGHT) == {"E2": 1.0}


def test_parse_defaults_optional_fields():
    cfg = {"edges": [{"id": "X", "length": 1.0, "sigma": 2.0,
                      "left_vertex": "u", "right_vertex": "v"}]}
    g = parse_graph(cfg)
    assert g.edges[0].l == 0.0 and g.edges[0].r == 0.0
    assert g.edges[0].l_to == {} and g.edges[0].r_to == {}


@pytest.mark.parametrize("mangle", [
    lambda c: c.pop("edges"),
    lambda c: c["edges"][0].pop("length"),
    lambda c: c["edges"][0].update(length="wide"),
    lambda c: c["edges"][0].update(bogus=1),
    lambda c: c["edges"][0].update(l_to=["E2"]),
    lambda c: c["edges"][0].update(id=7),
    lambda c: c["edges"].append(dict(c["edges"][0])),
])
def test_parse_rejects_malformed(mangle):
    cfg = _minimal_config()
    mangle(cfg)
    with pytest.raises(GraphConfigError):
        parse_graph(cfg)


def test_load_graph_missing_file(tmp_path):
    from graphdiff.graphs import load_graph
    with pytest.raises(GraphConfigError):
        load_graph(tmp_path / "nope.json")


def test_load_graph_bad_json(tmp_path):
    from graphdiff.graphs import load_graph
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    with pytest.raises(GraphConfigError):
        load_graph(p)


def test_load_graph_ok(tmp_path, chain_graph):
    from graphdiff.graphs import load_graph
    p = tmp_path / "g.json"
    p.write_text(json.dumps(_minimal_config()))
    g = load_graph(p)
    assert g.edge_ids == chain_graph.edge_ids
