import logging
import math

import numpy as np
import pytest

from roadcarbon.data import load_dataset, write_dataset
from roadcarbon.graphs import ROAD_CLASSES, Hierarchy, ODFlow, build_road_graph
from roadcarbon.synth import (
    DEFAULT_EMISSION_FACTORS,
    DEFAULT_SPEEDS_KMH,
    SynthParams,
    edge_betweenness,
    generate_synthetic,
    oracle_emission,
    shortest_path_arcs,
)


def two_node_region(length=2.0, cls="primary"):
    graph = build_road_graph(
        "r0",
        [("n0", 0.0, 0.0), ("n1", 1.0, 1.0)],
        [("n0", "n1", 0.5, 0.5, length, cls)],
    )
    hierarchy = Hierarchy({"n0": "c0", "n1": "c1"}, {"c0": "r0", "c1": "r0"})
    return graph, hierarchy


def test_oracle_single_path_arithmetic():
    # flow 1 along a single 2 km primary road at 0.2 kg/km -> 0.4
    graph, hierarchy = two_node_region()
    totals = oracle_emission(
        {"r0": graph}, hierarchy, [ODFlow("c0", "c1", "community", 1.0)], []
    )
    assert totals["r0"] == pytest.approx(0.4, abs=1e-12)


def test_oracle_linear_in_flow():
    graph, hierarchy = two_node_region()
    od1 = [ODFlow("c0", "c1", "community", 1.0), ODFlow("c1", "c0", "community", 2.0)]
    od2 = [ODFlow("c0", "c1", "community", 2.0), ODFlow("c1", "c0", "community", 4.0)]
    t1 = oracle_emission({"r0": graph}, hierarchy, od1, [])
    t2 = oracle_emission({"r0": graph}, hierarchy, od2, [])
    assert t2["r0"] == pytest.approx(2.0 * t1["r0"], rel=1e-12)


def test_oracle_monotone_in_new_od_pairs():
    ds = generate_synthetic(SynthParams(n_regions=4, seed=9, grid_side=3))
    smaller = ds.community_od[1:]
    base = oracle_emission(ds.road_graphs, ds.hierarchy, smaller, [])
    full = oracle_emission(ds.road_graphs, ds.hierarchy, ds.community_od, [])
    for region in base:
        assert full[region] >= base[region] - 1e-12
    # and adding flow to an existing pair never decreases any total
    bump = [
        ODFlow(r.origin, r.dest, r.level, r.flow + (5.0 if i == 0 else 0.0))
        for i, r in enumerate(ds.community_od)
    ]
    bumped = oracle_emission(ds.road_graphs, ds.hierarchy, bump, [])
    for region in full:
        assert bumped[region] >= full[region] - 1e-12


def test_oracle_inter_region_split_half_each():
    graph_a, _ = two_node_region()
    graph_b = build_road_graph(
        "r1",
        [("m0", 0.0, 0.0), ("m1", 1.0, 1.0)],
        [("m0", "m1", 0.5, 0.5, 1.0, "primary")],
    )
    hierarchy = Hierarchy(
        {"n0": "c0", "n1": "c1", "m0": "c2", "m1": "c3"},
        {"c0": "r0", "c1": "r0", "c2": "r1", "c3": "r1"},
    )
    centroids = {"r0": (0.0, 0.0), "r1": (10.0, 0.0)}
    totals = oracle_emission(
        {"r0": graph_a, "r1": graph_b},
        hierarchy,
        [],
        [ODFlow("r0", "r1", "region", 2.0)],
        region_centroids_km=centroids,
    )
    worst = max(DEFAULT_EMISSION_FACTORS.values())
    expected = 2.0 * 10.0 * worst
    assert totals["r0"] == pytest.approx(expected / 2)
    assert totals["r1"] == pytest.approx(expected / 2)


def test_oracle_requires_centroids_for_region_od():
    graph, hierarchy = two_node_region()
    with pytest.raises(ValueError, match="region_centroids_km"):
        oracle_emission(
            {"r0": graph}, hierarchy, [], [ODFlow("r0", "r0x", "region", 1.0)]
        )


def test_oracle_unreachable_pair_falls_back_with_warning(caplog):
    # two disconnected components within one region
    graph = build_road_graph(
        "r0",
        [("n0", 0.0, 0.0), ("n1", 0.1, 0.0), ("n2", 1.0, 1.0), ("n3", 0.9, 1.0)],
        [
            ("n0", "n1", 0.05, 0.0, 1.0, "primary"),
            ("n2", "n3", 0.95, 1.0, 1.0, "primary"),
        ],
    )
    hierarchy = Hierarchy(
        {"n0": "c0", "n1": "c0", "n2": "c1", "n3": "c1"},
        {"c0": "r0", "c1": "r0"},
    )
    with caplog.at_level(logging.WARNING):
        totals = oracle_emission(
            {"r0": graph},
            hierarchy,
            [ODFlow("c0", "c1", "community", 1.0)],
            [],
            region_extent_km=10.0,
        )
    assert any("unreachable" in rec.message for rec in caplog.records)
    assert totals["r0"] > 0


def brute_force_best_path(graph, src, dst, speeds, factors):
    """All-simple-paths minimum-travel-time oracle (tiny graphs only)."""
    out_arcs = {}
    for k, u in enumerate(graph.arc_src):
        out_arcs.setdefault(int(u), []).append(k)
    best_time, best_emission = np.inf, None
    stack = [(src, 0.0, 0.0, {src})]
    while stack:
        node, t, e, seen = stack.pop()
        if node == dst:
            if t < best_time:
                best_time, best_emission = t, e
            continue
        for k in out_arcs.get(node, ()):
            v = int(graph.arc_dst[k])
            if v in seen:
                continue
            cls = ROAD_CLASSES[graph.arc_class[k]]
            stack.append(
                (
                    v,
                    t + graph.arc_length_km[k] / speeds[cls],
                    e + graph.arc_length_km[k] * factors[cls],
                    seen | {v},
                )
            )
    return best_time, best_emission


def test_dijkstra_matches_brute_force_enumeration():
    rng = np.random.default_rng(11)
    for trial in range(12):
        n = int(rng.integers(4, 9))
        nodes = [(f"n{i}", float(rng.random()), float(rng.random())) for i in range(n)]
        segments = []
        # random connected-ish graph: a spanning chain plus random chords
        for i in range(1, n):
            segments.append(
                (f"n{i-1}", f"n{i}", 0.5, 0.5, float(rng.uniform(0.5, 3.0)),
                 ROAD_CLASSES[int(rng.integers(0, 5))])
            )
        for _ in range(int(rng.integers(0, n))):
            a, b = rng.choice(n, size=2, replace=False)
            segments.append(
                (f"n{a}", f"n{b}", 0.5, 0.5, float(rng.uniform(0.5, 3.0)),
                 ROAD_CLASSES[int(rng.integers(0, 5))])
            )
        graph = build_road_graph("r", nodes, segments)
        src, dst = 0, n - 1
        times, pred = shortest_path_arcs(graph, src, DEFAULT_SPEEDS_KMH)
        bf_time, bf_emission = brute_force_best_path(
            graph, src, dst, DEFAULT_SPEEDS_KMH, DEFAULT_EMISSION_FACTORS
        )
        assert times[dst] == pytest.approx(bf_time, rel=1e-9)
        from roadcarbon.synth import _path_emission

        assert _path_emission(graph, pred, dst, DEFAULT_EMISSION_FACTORS) == pytest.approx(
            bf_emission, rel=1e-9
        )


def test_generator_deterministic_byte_identical(tmp_path):
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    write_dataset(generate_synthetic(SynthParams(n_regions=2, seed=7)), a_dir)
    write_dataset(generate_synthetic(SynthParams(n_regions=2, seed=7)), b_dir)
    for name in ("nodes.csv", "edges.csv", "od.csv", "labels.csv", "region_adjacency.csv"):
        assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()


def test_noise_free_labels_equal_oracle():
    params = SynthParams(n_regions=3, seed=2, noise_std=0.0)
    ds = generate_synthetic(params)
    meta_rows = max(1, int(math.sqrt(params.n_regions)))
    meta_cols = math.ceil(params.n_regions / meta_rows)
    centroids = {}
    for idx, rid in enumerate(ds.region_ids):
        row, col = divmod(idx, meta_cols)
        centroids[rid] = (
            (col + 0.5) * params.region_extent_km,
            (row + 0.5) * params.region_extent_km,
        )
    oracle = oracle_emission(
        ds.road_graphs,
        ds.hierarchy,
        ds.community_od,
        ds.region_od,
        region_centroids_km=centroids,
    )
    for rid in ds.region_ids:
        assert ds.labels[rid] == pytest.approx(oracle[rid], rel=1e-12)


def test_generated_dataset_passes_loader_validation(tmp_path):
    ds = generate_synthetic(SynthParams(n_regions=5, seed=13))
    write_dataset(ds, tmp_path)
    loaded = load_dataset(tmp_path)  # raises on any violation
    assert loaded.region_ids == ds.region_ids


def test_generated_graphs_connected():
    ds = generate_synthetic(SynthParams(n_regions=6, seed=21, edge_deletion_frac=0.35))
    for rid, graph in ds.road_graphs.items():
        seen = {0}
        stack = [0]
        adj = {}
        for s, d in zip(graph.arc_src, graph.arc_dst):
            adj.setdefault(int(s), []).append(int(d))
        while stack:
            u = stack.pop()
            for v in adj.get(u, ()):
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        assert len(seen) == graph.n_nodes, rid


def test_betweenness_ranks_bridge_highest():
    # two triangles joined by one bridge edge: the bridge dominates
    edges = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)]
    scores = edge_betweenness(6, edges)
    assert scores.argmax() == 6


def test_labels_positive_and_varied():
    ds = generate_synthetic(SynthParams(n_regions=12, seed=3))
    values = np.array([ds.labels[r] for r in ds.region_ids])
    assert np.all(values > 0)
    assert values.std() / values.mean() > 0.1
