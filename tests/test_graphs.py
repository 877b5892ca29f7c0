import numpy as np
import pytest

from roadcarbon.graphs import (
    GraphValidationError,
    Hierarchy,
    ODFlow,
    adjacency_arcs,
    build_road_graph,
    community_node_features,
    community_spatial_arcs,
    od_arcs,
    pool_internal_edges,
    pool_nodes,
)
from roadcarbon.tensor import Tensor, gather_rows


def seg(u, v, length=1.0, cls="primary", lon=0.5, lat=0.5):
    return (u, v, lon, lat, length, cls)


def test_two_nodes_one_segment():
    g = build_road_graph("r", [("a", 0.0, 0.0), ("b", 1.0, 1.0)], [seg("a", "b")])
    assert g.degrees.tolist() == [1, 1]
    assert len(g.arc_src) == 2
    assert g.arc_src.tolist() == [0, 1]
    assert g.arc_dst.tolist() == [1, 0]


def test_triangle_degrees():
    nodes = [("a", 0.0, 0.0), ("b", 0.5, 1.0), ("c", 1.0, 0.0)]
    g = build_road_graph("r", nodes, [seg("a", "b"), seg("b", "c"), seg("c", "a")])
    assert g.degrees.tolist() == [2, 2, 2]


def test_missing_endpoint_named():
    with pytest.raises(GraphValidationError, match="99"):
        build_road_graph("r", [("1", 0.0, 0.0), ("2", 0.1, 0.1)], [seg("1", "99")])


def test_duplicate_node_and_bad_length_collected_together():
    nodes = [("a", 0.0, 0.0), ("a", 0.2, 0.2), ("b", 1.0, 1.0)]
    with pytest.raises(GraphValidationError) as exc:
        build_road_graph("r", nodes, [seg("a", "b", length=-2.0)])
    msg = str(exc.value)
    assert "duplicate node id a" in msg
    assert "non-positive length" in msg


def test_self_loop_segment_rejected():
    with pytest.raises(GraphValidationError, match="self-loop"):
        build_road_graph("r", [("a", 0.0, 0.0)], [seg("a", "a")])


def test_one_hot_road_class_and_unknown_maps_to_other():
    g = build_road_graph(
        "r",
        [("a", 0.0, 0.0), ("b", 1.0, 1.0)],
        [seg("a", "b", cls="motorway"), seg("a", "b", cls="cowpath")],
    )
    assert g.arc_feats[0, 3] == 1.0  # motorway slot
    assert g.arc_feats[2, 7] == 1.0  # "other" slot
    assert g.degrees.tolist() == [2, 2]


def test_pool_nodes_mean_and_sum_identity():
    reps = Tensor([[1.0], [3.0]])
    out = pool_nodes("mean", reps, [0, 0], 1)
    assert out.values[0, 0] == 2.0
    out = pool_nodes("sum", reps, [0, 1], 2)
    assert np.array_equal(out.values, reps.values)


def test_pool_nodes_unknown_phi():
    with pytest.raises(ValueError, match="unknown pooling"):
        pool_nodes("median", Tensor([[1.0]]), [0], 1)


def test_pool_nodes_max_matches_brute_force():
    rng = np.random.default_rng(0)
    vals = rng.normal(size=(25, 6))
    groups = rng.integers(0, 4, size=25)
    groups[:4] = np.arange(4)
    out = pool_nodes("max", Tensor(vals), groups, 4)
    for g in range(4):
        assert np.allclose(out.values[g], vals[groups == g].max(axis=0))


def test_pool_permutation_invariance():
    rng = np.random.default_rng(1)
    vals = rng.normal(size=(30, 5))
    groups = rng.integers(0, 3, size=30)
    groups[:3] = np.arange(3)
    perm = rng.permutation(30)
    for phi in ("mean", "sum", "max"):
        a = pool_nodes(phi, Tensor(vals), groups, 3).values
        b = pool_nodes(phi, Tensor(vals[perm]), groups[perm], 3).values
        assert np.max(np.abs(a - b)) < 1e-9


def test_pool_internal_edges():
    # arcs: 0-1 inside group 0, 2-3 crossing groups
    edge_reps = Tensor([[2.0], [4.0], [8.0], [16.0]])
    src = [0, 1, 2, 3]
    dst = [1, 0, 3, 2]
    groups = [0, 0, 0, 1]
    out = pool_internal_edges("mean", edge_reps, src, dst, groups, 2)
    assert out.values[0, 0] == 3.0  # mean of both directions of the internal segment
    assert out.values[1, 0] == 0.0  # no internal arcs


def test_pool_internal_all_cross_gives_zeros():
    edge_reps = Tensor([[1.0], [1.0]])
    out = pool_internal_edges("mean", edge_reps, [0, 1], [1, 0], [0, 1], 2)
    assert np.array_equal(out.values, np.zeros((2, 1)))


def test_pool_internal_matches_brute_force():
    rng = np.random.default_rng(2)
    n, m = 12, 30
    src = rng.integers(0, n, size=m)
    dst = (src + 1 + rng.integers(0, n - 1, size=m)) % n
    groups = rng.integers(0, 3, size=n)
    groups[:3] = np.arange(3)
    reps = rng.normal(size=(m, 4))
    out = pool_internal_edges("sum", Tensor(reps), src, dst, groups, 3).values
    expected = np.zeros((3, 4))
    for k in range(m):
        if groups[src[k]] == groups[dst[k]]:
            expected[groups[src[k]]] += reps[k]
    assert np.allclose(out, expected, atol=1e-12)


def pool_cross(phi, edge_reps, arc_src, arc_dst, groups):
    """Pooled crossing-arc feature per spatial arc, as the community level forms it."""
    _, _, idx, pair, n_pairs = community_spatial_arcs(arc_src, arc_dst, groups)
    pooled = pool_nodes(phi, gather_rows(edge_reps, idx), pair, n_pairs)
    return gather_rows(pooled, np.repeat(np.arange(n_pairs), 2))


def test_pool_cross_edges_single_and_mean():
    edge_reps = Tensor([[2.0, 0.0], [4.0, 2.0]])
    out = pool_cross("mean", edge_reps, [0, 1], [1, 0], [0, 1])
    assert np.allclose(out.values, [[3.0, 1.0], [3.0, 1.0]])
    single = pool_cross("mean", Tensor([[5.0]]), [0], [1], [0, 1])
    assert single.values.tolist() == [[5.0], [5.0]]


def test_pool_cross_edges_requires_crossing_arc():
    # an arc inside one group links no pair: no spatial arc, nothing pooled
    src, dst, idx, pair, n_pairs = community_spatial_arcs([0], [1], [0, 0])
    assert n_pairs == 0
    assert src.size == dst.size == idx.size == pair.size == 0
    assert pool_cross("mean", Tensor([[1.0]]), [0], [1], [0, 0]).shape == (0, 1)


def brute_force_crossings(src, dst, groups):
    """Per pair (a < b), sorted: the ascending crossing arcs in either direction."""
    pairs = sorted(
        {(min(groups[s], groups[d]), max(groups[s], groups[d])) for s, d in zip(src, dst)
         if groups[s] != groups[d]}
    )
    return pairs, [
        [k for k, (s, d) in enumerate(zip(src, dst)) if {groups[s], groups[d]} == {a, b}]
        for a, b in pairs
    ]


def test_pool_cross_matches_brute_force():
    rng = np.random.default_rng(3)
    for trial in range(5):
        n, m = 12, 40
        src = rng.integers(0, n, size=m)
        dst = (src + 1 + rng.integers(0, n - 1, size=m)) % n
        groups = rng.integers(0, 4, size=n)
        reps = rng.normal(size=(m, 3))
        pairs, members = brute_force_crossings(src.tolist(), dst.tolist(), groups.tolist())

        sp_src, sp_dst, idx, pair, n_pairs = community_spatial_arcs(src, dst, groups)
        assert n_pairs == len(pairs)
        assert sp_src.tolist() == [x for a, b in pairs for x in (a, b)]
        assert sp_dst.tolist() == [x for a, b in pairs for x in (b, a)]
        assert idx.tolist() == [k for arcs in members for k in arcs]
        assert pair.tolist() == [p for p, arcs in enumerate(members) for _ in arcs]

        got = pool_cross("mean", Tensor(reps), src, dst, groups).values
        want = np.repeat([reps[arcs].mean(axis=0) for arcs in members], 2, axis=0)
        assert np.allclose(got, want.reshape(-1, 3), atol=1e-12), trial


def test_hierarchy_validation():
    h = Hierarchy({"n1": "c1", "n2": "c1"}, {"c1": "r1", "c2": "r1"})
    assert h.communities_of("r1") == ["c1", "c2"]


def test_build_hetero_graph_community_mode():
    # 2 communities joined by one segment; 1 OD record
    edge_reps = Tensor(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [7.0, 8.0]]))
    # segment arcs: (0,1) within c0; (1,2) crossing c0-c1
    src, dst = [0, 1, 1, 2], [1, 0, 2, 1]
    groups = [0, 0, 1]
    sp_src, sp_dst, idx, pair, n_pairs = community_spatial_arcs(src, dst, groups)
    assert sp_src.tolist() == [0, 1]
    assert sp_dst.tolist() == [1, 0]
    assert idx.tolist() == [2, 3] and pair.tolist() == [0, 0] and n_pairs == 1
    # pooled crossing feature = mean of arcs 2 and 3, same for both directions
    assert np.allclose(pool_cross("mean", edge_reps, src, dst, groups).values, [[6.0, 7.0]] * 2)
    od_src, od_dst, flows = od_arcs([ODFlow("ca", "cb", "community", 3.0)], {"ca": 0, "cb": 1})
    assert od_src.tolist() == [0]
    assert od_dst.tolist() == [1]
    assert flows.tolist() == [3.0]


def test_build_hetero_graph_zero_flow_dropped():
    index = {"a": 0, "b": 1}
    od_src, _, flows = od_arcs([ODFlow("a", "b", "region", 0.0)], index)
    assert len(od_src) == 0 and len(flows) == 0
    kept, _, _ = od_arcs([ODFlow("a", "b", "region", 2.0)], index, min_flow=1.0)
    dropped, _, _ = od_arcs([ODFlow("a", "b", "region", 2.0)], index, min_flow=2.0)
    assert len(kept) == 1 and len(dropped) == 0
    sp_src, _ = adjacency_arcs([("a", "b")], index)
    assert sp_src.tolist() == [0, 1]


def test_build_hetero_graph_no_links_between_unrelated_pair():
    # arc is a within-community arc only: no crossing pair, no od
    sp_src, sp_dst, _, _, n_pairs = community_spatial_arcs([0], [0], [0, 1])
    assert len(sp_src) == len(sp_dst) == n_pairs == 0
    assert len(od_arcs([], {"ca": 0, "cb": 1})[0]) == 0


def test_build_hetero_graph_unknown_area_errors():
    index = {"a": 0, "b": 1}
    with pytest.raises(ValueError, match="unknown area nope"):
        od_arcs([ODFlow("a", "nope", "region", 1.0)], index)
    with pytest.raises(ValueError, match="identical origin and destination a"):
        od_arcs([ODFlow("a", "a", "region", 1.0)], index)
    with pytest.raises(ValueError, match="unknown area nope"):
        adjacency_arcs([("a", "nope")], index)


def test_od_arcs_duplicate_record_rejected():
    record = ODFlow("a", "b", "region", 1.0)
    with pytest.raises(ValueError, match="duplicate OD record a -> b"):
        od_arcs([record, record], {"a": 0, "b": 1})


def test_spatial_arcs_symmetric():
    src, dst = adjacency_arcs(
        [("a", "b"), ("c", "b"), ("b", "a"), ("c", "c")],  # repeat and self-pair collapse
        {"a": 0, "b": 1, "c": 2},
    )
    assert src.tolist() == [0, 1, 1, 2]
    assert dst.tolist() == [1, 0, 2, 1]


def test_crossing_pairs_sorted():
    # the (1, 2) crossing comes first in arc order
    sp_src, sp_dst, _, _, _ = community_spatial_arcs([2, 0, 3], [3, 1, 2], [0, 1, 1, 2])
    pairs = list(zip(sp_src[::2].tolist(), sp_dst[::2].tolist()))
    assert pairs == [(0, 1), (1, 2)]


def test_community_node_features_width():
    node_reps = Tensor(np.ones((4, 3)))
    edge_reps = Tensor(np.ones((2, 5)))
    out = community_node_features("mean", node_reps, edge_reps, [0, 1], [1, 0], [0, 0, 1, 1], 2)
    assert out.shape == (2, 8)


def test_out_of_range_coordinates_rejected():
    with pytest.raises(GraphValidationError, match="outside"):
        build_road_graph("r", [("a", -0.2, 0.0), ("b", 1.0, 1.0)], [seg("a", "b")])
