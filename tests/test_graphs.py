import numpy as np
import pytest
from reference_impl import gather

from roadcarbon.graphs import (
    EDGE_FEATURE_DIM,
    ROAD_CLASSES,
    GraphValidationError,
    Hierarchy,
    ODFlow,
    adjacency_arcs,
    build_road_graph,
    community_node_features,
    community_spatial_arcs,
    od_arcs,
    pool,
    pool_nodes,
    road_class_index,
)
from roadcarbon.optim import Parameter, finite_difference_check
from roadcarbon.tensor import Tensor, backward, mse_loss, vstack


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


def loop_road_arrays(nodes, segments):
    """Arc and node arrays one element at a time: the reference for the
    array operations in ``build_road_graph``."""
    node_ids = sorted(nid for nid, _, _ in nodes)
    index = {nid: i for i, nid in enumerate(node_ids)}
    m = len(segments)
    arc_src = np.empty(2 * m, dtype=np.int64)
    arc_dst = np.empty(2 * m, dtype=np.int64)
    arc_feats = np.zeros((2 * m, EDGE_FEATURE_DIM))
    arc_class = np.empty(2 * m, dtype=np.int64)
    for k, (u, v, lon, lat, length, cls) in enumerate(segments):
        for slot, (s, d) in enumerate(((index[u], index[v]), (index[v], index[u]))):
            a = 2 * k + slot
            arc_src[a], arc_dst[a] = s, d
            arc_feats[a, :3] = (lon, lat, length)
            arc_feats[a, 3 + road_class_index(cls)] = 1.0
            arc_class[a] = road_class_index(cls)
    node_feats = np.zeros((len(node_ids), 3))
    for node_id, lon, lat in nodes:
        node_feats[index[node_id], :2] = (lon, lat)
    for d in arc_dst:
        node_feats[d, 2] += 1.0
    return arc_src, arc_dst, arc_feats, arc_class, node_feats


@pytest.mark.parametrize("n_segments", [0, 1, 40])
def test_build_road_graph_matches_loop_reference(n_segments):
    rng = np.random.default_rng(n_segments)
    nodes = [(f"n{i}", *rng.random(2)) for i in rng.permutation(12)]
    segments = []
    for _ in range(n_segments):
        u, v = rng.choice(12, size=2, replace=False)
        cls = ROAD_CLASSES[rng.integers(len(ROAD_CLASSES))] if rng.random() < 0.9 else "track"
        segments.append((f"n{u}", f"n{v}", rng.random(), rng.random(), 0.1 + rng.random(), cls))
    g = build_road_graph("r", nodes, segments)
    arc_src, arc_dst, arc_feats, arc_class, node_feats = loop_road_arrays(nodes, segments)
    for got, want in [
        (g.arc_src, arc_src),
        (g.arc_dst, arc_dst),
        (g.arc_feats, arc_feats),
        (g.arc_class, arc_class),
        (g.arc_length_km, arc_feats[:, 2]),
        (g.node_feats, node_feats),
        (g.node_xy, node_feats[:, :2]),
    ]:
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_pool_nodes_mean_and_sum_identity():
    reps = Tensor([[1.0], [3.0]])
    out = pool_nodes("mean", reps, [0, 0], 1)
    assert out.values[0, 0] == 2.0
    out = pool_nodes("sum", reps, [0, 1], 2)
    assert np.array_equal(out.values, reps.values)


def test_pool_nodes_unknown_phi():
    with pytest.raises(ValueError, match="unknown pooling"):
        pool_nodes("median", Tensor([[1.0]]), [0], 1)


NUMPY_POOL = {"sum": np.sum, "mean": np.mean, "max": np.max}


def pool_loop(phi, rows, src, dst, n):
    """Per-group numpy loop: group i reduces rows[src[k]] over dst[k] == i."""
    out = np.zeros((n, rows.shape[1]))
    for i in range(n):
        members = rows[src[dst == i]]
        if len(members):
            out[i] = NUMPY_POOL[phi](members, axis=0)
    return out


def test_pool_nodes_max_matches_brute_force():
    rng = np.random.default_rng(0)
    vals = rng.normal(size=(25, 6))
    groups = rng.integers(0, 4, size=25)
    groups[:4] = np.arange(4)
    out = pool_nodes("max", Tensor(vals), groups, 4)
    for g in range(4):
        assert np.allclose(out.values[g], vals[groups == g].max(axis=0))
    # pool: repeated sources, groups without entries (5 and 6), and no entries at all
    src = rng.integers(0, 25, size=40)
    dst = rng.integers(0, 5, size=40)
    for phi in ("sum", "mean", "max"):
        for s, d in ((src, dst), (src[:0], dst[:0])):
            got = pool(phi, Tensor(vals), s, d, 7).values
            assert got.dtype == np.float64
            np.testing.assert_allclose(got, pool_loop(phi, vals, s, d, 7), rtol=1e-13, atol=1e-15)
        x = Parameter("x", Tensor(vals[:6], requires_grad=True))
        target = Tensor(rng.normal(size=(7, 6)))
        err = finite_difference_check(
            lambda: mse_loss(pool(phi, x.tensor, src[:9] % 6, dst[:9], 7), target), [x]
        )
        assert err < 1e-6, phi


def test_pool_permutation_invariance():
    rng = np.random.default_rng(1)
    vals = rng.normal(size=(30, 5))
    groups = rng.integers(0, 3, size=30)
    groups[:3] = np.arange(3)
    perm = rng.permutation(30)
    src = rng.integers(0, 30, size=50)
    dst = rng.integers(0, 4, size=50)
    order = rng.permutation(50)
    for phi in ("mean", "sum", "max"):
        a = pool_nodes(phi, Tensor(vals), groups, 3).values
        b = pool_nodes(phi, Tensor(vals[perm]), groups[perm], 3).values
        assert np.max(np.abs(a - b)) < 1e-9
        a = pool(phi, Tensor(vals), src, dst, 4).values
        b = pool(phi, Tensor(vals), src[order], dst[order], 4).values
        assert np.max(np.abs(a - b)) < 1e-9


def internal_columns(phi, edge_reps, src, dst, groups, n_groups):
    """The pooled internal-arc columns of the community features."""
    node_reps = Tensor(np.zeros((len(groups), 1)))
    out = community_node_features(phi, node_reps, edge_reps, src, dst, groups, n_groups)
    return out.values[:, 1:]


def test_pool_internal_edges():
    # arcs: 0-1 inside group 0, 2-3 crossing groups
    edge_reps = Tensor([[2.0], [4.0], [8.0], [16.0]])
    src = [0, 1, 2, 3]
    dst = [1, 0, 3, 2]
    groups = [0, 0, 0, 1]
    out = internal_columns("mean", edge_reps, src, dst, groups, 2)
    assert out[0, 0] == 3.0  # mean of both directions of the internal segment
    assert out[1, 0] == 0.0  # no internal arcs


def test_pool_internal_all_cross_gives_zeros():
    edge_reps = Tensor([[1.0], [1.0]])
    for phi in ("sum", "mean", "max"):
        out = internal_columns(phi, edge_reps, [0, 1], [1, 0], [0, 1], 2)
        assert out.dtype == np.float64 and np.array_equal(out, np.zeros((2, 1)))


def test_pool_internal_matches_brute_force():
    rng = np.random.default_rng(2)
    n, m = 12, 30
    src = rng.integers(0, n, size=m)
    dst = (src + 1 + rng.integers(0, n - 1, size=m)) % n
    groups = rng.integers(0, 3, size=n)
    groups[:3] = np.arange(3)
    reps = rng.normal(size=(m, 4))
    for phi in ("sum", "mean", "max"):
        out = internal_columns(phi, Tensor(reps), src, dst, groups, 3)
        internal = np.flatnonzero(groups[src] == groups[dst])
        expected = pool_loop(phi, reps, internal, groups[src[internal]], 3)
        assert np.allclose(out, expected, atol=1e-12), phi


def pool_cross(phi, edge_reps, arc_src, arc_dst, groups):
    """Pooled crossing-arc feature per spatial arc, pair then duplicate:
    each community pair's crossing arcs pool once, into a row that spatial
    arcs 2k and 2k + 1 of pair k then share."""
    _, members = brute_force_crossings(list(arc_src), list(arc_dst), list(groups))
    idx = [k for arcs in members for k in arcs]
    pair = [p for p, arcs in enumerate(members) for _ in arcs]
    pooled = pool_nodes(phi, gather(edge_reps, idx), pair, len(members))
    return gather(pooled, np.repeat(np.arange(len(members)), 2))


def spatial_pool(phi, edge_reps, arc_src, arc_dst, groups):
    """Pooled crossing-arc feature per spatial arc, as the community level forms it."""
    sp_src, _, cross_src, cross_dst = community_spatial_arcs(arc_src, arc_dst, groups)
    return pool(phi, edge_reps, cross_src, cross_dst, sp_src.size)


def test_pool_cross_edges_single_and_mean():
    edge_reps = Tensor([[2.0, 0.0], [4.0, 2.0]])
    out = spatial_pool("mean", edge_reps, [0, 1], [1, 0], [0, 1])
    assert np.allclose(out.values, [[3.0, 1.0], [3.0, 1.0]])
    single = spatial_pool("mean", Tensor([[5.0]]), [0], [1], [0, 1])
    assert single.values.tolist() == [[5.0], [5.0]]


def test_pool_cross_edges_requires_crossing_arc():
    # an arc inside one group links no pair: no spatial arc, nothing pooled
    src, dst, cross_src, cross_dst = community_spatial_arcs([0], [1], [0, 0])
    assert src.size == dst.size == cross_src.size == cross_dst.size == 0
    for phi in ("sum", "mean", "max"):
        reps = Tensor([[1.0]], requires_grad=True)
        out = spatial_pool(phi, reps, [0], [1], [0, 0])
        assert out.shape == (0, 1) and out.values.dtype == np.float64
        # a one-community region still trains: the empty pool passes back a float64 zero
        backward(mse_loss(vstack([out, Tensor([[1.0]])]), Tensor([[0.0]])))
        assert reps.grad.dtype == np.float64 and reps.grad[0, 0] == 0.0


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

        sp_src, sp_dst, cross_src, cross_dst = community_spatial_arcs(src, dst, groups)
        assert sp_src.tolist() == [x for a, b in pairs for x in (a, b)]
        assert sp_dst.tolist() == [x for a, b in pairs for x in (b, a)]
        under = [cross_src[cross_dst == j].tolist() for j in range(sp_src.size)]
        assert under == [arcs for arcs in members for _ in (0, 1)]

        for phi in ("sum", "mean", "max"):
            e1, e2 = Tensor(reps, requires_grad=True), Tensor(reps, requires_grad=True)
            got, want = spatial_pool(phi, e1, src, dst, groups), pool_cross(phi, e2, src, dst, groups)
            target = Tensor(rng.normal(size=got.shape))
            backward(mse_loss(got, target))
            backward(mse_loss(want, target))
            brute = [NUMPY_POOL[phi](reps[arcs], axis=0) for arcs in members for _ in (0, 1)]
            np.testing.assert_allclose(got.values, brute, rtol=1e-13, atol=1e-15)
            if phi == "mean":  # the 1/|pair| weight goes in before the sum, not after
                np.testing.assert_allclose(got.values, want.values, rtol=1e-14, atol=1e-15)
            else:  # each spatial arc adds or compares its arcs in the same order
                assert np.array_equal(got.values, want.values), (trial, phi)
            np.testing.assert_allclose(e1.grad, e2.grad, rtol=1e-12, atol=1e-15)


def test_hierarchy_validation():
    h = Hierarchy({"n1": "c1", "n2": "c1"}, {"c1": "r1", "c2": "r1"})
    assert h.communities_of("r1") == ["c1", "c2"]


def test_build_hetero_graph_community_mode():
    # 2 communities joined by one segment; 1 OD record
    edge_reps = Tensor(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [7.0, 8.0]]))
    # segment arcs: (0,1) within c0; (1,2) crossing c0-c1
    src, dst = [0, 1, 1, 2], [1, 0, 2, 1]
    groups = [0, 0, 1]
    sp_src, sp_dst, cross_src, cross_dst = community_spatial_arcs(src, dst, groups)
    assert sp_src.tolist() == [0, 1]
    assert sp_dst.tolist() == [1, 0]
    assert cross_src.tolist() == [2, 2, 3, 3] and cross_dst.tolist() == [0, 1, 0, 1]
    # pooled crossing feature = mean of arcs 2 and 3, same for both directions
    assert np.allclose(spatial_pool("mean", edge_reps, src, dst, groups).values, [[6.0, 7.0]] * 2)
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
    sp_src, sp_dst, cross_src, _ = community_spatial_arcs([0], [0], [0, 1])
    assert len(sp_src) == len(sp_dst) == len(cross_src) == 0
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


@pytest.mark.parametrize(
    "pairs, message",
    [
        ([("a", "b"), ("c", "c"), ("a", "nope")], "identical origin and destination c$"),
        ([("a", "b"), ("nope", "b"), ("c", "c")], "unknown area nope$"),
        ([("b", "a"), ("a", "b"), ("a", "b"), ("b", "b")], "duplicate OD record a -> b$"),
        ([("a", "c"), ("b", "b"), ("a", "c")], "identical origin and destination b$"),
    ],
    ids=["self-loop-then-unknown", "unknown-then-self-loop", "repeat-then-self-loop",
         "self-loop-then-repeat"],
)
def test_od_arcs_names_the_first_faulty_record(pairs, message):
    records = [ODFlow(origin, dest, "region", 1.0) for origin, dest in pairs]
    with pytest.raises(GraphValidationError, match=message):
        od_arcs(records, {"a": 0, "b": 1, "c": 2})


def test_spatial_arcs_symmetric():
    src, dst = adjacency_arcs(
        [("a", "b"), ("c", "b"), ("b", "a"), ("c", "c")],  # repeat and self-pair collapse
        {"a": 0, "b": 1, "c": 2},
    )
    assert src.tolist() == [0, 1, 1, 2]
    assert dst.tolist() == [1, 0, 2, 1]


def test_crossing_pairs_sorted():
    # the (1, 2) crossing comes first in arc order
    sp_src, sp_dst, _, _ = community_spatial_arcs([2, 0, 3], [3, 1, 2], [0, 1, 1, 2])
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
