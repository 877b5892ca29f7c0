import numpy as np
import pytest

from roadcarbon.config import RunConfig
from roadcarbon.data import Dataset
from roadcarbon.graphs import Hierarchy, build_road_graph, pool_nodes
from roadcarbon.model import (
    CHECKPOINT_FORMAT,
    CheckpointError,
    EmissionModel,
    ForwardRecord,
    fit_normalization,
    load_checkpoint,
    prepare_dataset,
    refresh_region_cache,
    save_checkpoint,
    set_ablation,
)
from roadcarbon.synth import SynthParams, generate_synthetic
from roadcarbon.tensor import Tensor, backward, no_grad, vstack


SMALL = RunConfig(hidden=8, layers=2, layers_road=2, seed=3, epochs=2)


@pytest.fixture(scope="module")
def setting():
    ds = generate_synthetic(SynthParams(n_regions=6, seed=4, grid_side=3, communities=4))
    ids = ds.region_ids
    stats = fit_normalization(ds, ids[:4])
    model = EmissionModel(SMALL, stats)
    prep = prepare_dataset(ds, stats, hops=SMALL.layers)
    return ds, stats, model, prep


def test_parameter_names_unique_and_pathlike(setting):
    _, _, model, _ = setting
    names = [p.name for p in model.parameters()]
    assert len(names) == len(set(names))
    assert "road.0.W" in names
    assert "community.0.rn.U" in names
    assert "head.W1" in names


def test_intra_rep_shape(setting):
    _, _, model, prep = setting
    out = model.intra_representation(prep.regions[prep.region_ids[0]])
    assert out.shape == (1, SMALL.hidden)


def test_intra_gradient_reaches_road_params(setting):
    _, _, model, prep = setting
    for p in model.parameters():
        p.tensor.grad = None
    out = model.intra_representation(prep.regions[prep.region_ids[0]])
    backward(out.sum())
    grads = [np.abs(layer.W.grad).max() for layer in model.road_layers]
    assert all(g > 0 for g in grads)


def test_single_community_region_intra_equals_hetero_output():
    ds = generate_synthetic(SynthParams(n_regions=2, seed=8, grid_side=3, communities=1))
    stats = fit_normalization(ds, ds.region_ids)
    model = EmissionModel(SMALL, stats)
    prep = prepare_dataset(ds, stats, hops=SMALL.layers)
    rid = ds.region_ids[0]
    record = ForwardRecord()
    intra = model.intra_representation(prep.regions[rid], record)
    # one community: the pooled region vector is the single community row, and
    # with no other area the hetero stack sees self-loops only
    assert intra.shape == (1, SMALL.hidden)
    assert record.community[0].fusion.beta.shape[0] == 1


def test_cache_refresh_deterministic(setting):
    _, _, model, prep = setting
    a = refresh_region_cache(model, prep, epoch=0)
    b = refresh_region_cache(model, prep, epoch=0)
    for rid in prep.region_ids:
        assert np.array_equal(a.reps[rid], b.reps[rid])


def test_cache_entries_carry_no_graph(setting):
    _, _, model, prep = setting
    cache = refresh_region_cache(model, prep, epoch=0)
    rid = prep.region_ids[0]
    # feeding a cache entry into the graph reaches no parameter
    t = Tensor(cache.reps[rid])
    assert not t.requires_grad


def test_inter_grads_flow_via_live_row_only(setting):
    _, _, model, prep = setting
    cache = refresh_region_cache(model, prep, epoch=0)
    rid = prep.region_ids[0]

    # live path: road params receive gradient
    for p in model.parameters():
        p.tensor.grad = None
    live = model.intra_representation(prep.regions[rid])
    out = model.inter_representation(prep, rid, live, cache)
    backward(out.sum())
    assert np.abs(model.road_layers[0].W.grad).max() > 0
    assert np.abs(model.region_layers[0]["od"].W.grad).max() > 0

    # all-cached rows: region params still learn, road params see nothing
    for p in model.parameters():
        p.tensor.grad = None
    detached = Tensor(cache.reps[rid])
    out = model.inter_representation(prep, rid, detached, cache)
    backward(out.sum())
    assert model.road_layers[0].W.grad is None
    assert np.abs(model.region_layers[0]["od"].W.grad).max() > 0


def test_inter_missing_cache_entry_errors(setting):
    _, _, model, prep = setting
    from roadcarbon.model import RegionCache

    cache = RegionCache(epoch=0, reps={})
    rid = prep.region_ids[0]
    live = Tensor(np.zeros((1, SMALL.hidden)))
    with pytest.raises(ValueError, match="missing from cache"):
        model.inter_representation(prep, rid, live, cache)


def path_adjacency_dataset(n=6, seed=2):
    """Doctored dataset whose region graph is a path with no OD links."""
    ds = generate_synthetic(SynthParams(n_regions=n, seed=seed, grid_side=3))
    ids = ds.region_ids
    return Dataset(
        road_graphs=ds.road_graphs,
        hierarchy=ds.hierarchy,
        community_od=ds.community_od,
        region_od=[],
        region_adjacency=[(ids[i], ids[i + 1]) for i in range(n - 1)],
        labels=ds.labels,
    )


def test_inter_receptive_field_on_path_graph():
    ds = path_adjacency_dataset()
    ids = ds.region_ids
    stats = fit_normalization(ds, ids)
    model = EmissionModel(SMALL, stats)  # layers=2
    prep = prepare_dataset(ds, stats, hops=SMALL.layers)
    cache = refresh_region_cache(model, prep, epoch=0)
    rid = ids[0]
    with no_grad():
        live = model.intra_representation(prep.regions[rid])
        base = model.inter_representation(prep, rid, live, cache).values.copy()

        # neighbor (1 hop): output changes
        pristine = cache.reps[ids[1]].copy()
        cache.reps[ids[1]] = pristine + 0.5
        moved = model.inter_representation(prep, rid, live, cache).values.copy()
        assert np.max(np.abs(moved - base)) > 1e-9
        cache.reps[ids[1]] = pristine

        # beyond L hops (distance 4 > 2): no change at all
        cache.reps[ids[4]] = cache.reps[ids[4]] + 10.0
        far = model.inter_representation(prep, rid, live, cache).values.copy()
        assert np.max(np.abs(far - base)) == 0.0


def test_predict_deterministic_bitwise(setting):
    _, _, model, prep = setting
    cache = refresh_region_cache(model, prep, epoch=0)
    rid = prep.region_ids[2]
    with no_grad():
        a = model.predict_region(prep, rid, cache).values.copy()
        b = model.predict_region(prep, rid, cache).values.copy()
    assert np.array_equal(a, b)


def test_predict_records_fusion_weights(setting):
    _, _, model, prep = setting
    cache = refresh_region_cache(model, prep, epoch=0)
    rid = prep.region_ids[1]
    record = ForwardRecord()
    with no_grad():
        model.predict_region(prep, rid, cache, record)
    assert record.final is not None
    assert record.final.tags == ("intra", "inter")
    assert record.final.beta.sum() == pytest.approx(1.0, abs=1e-9)
    assert len(record.community) == SMALL.layers
    assert len(record.region) == SMALL.layers
    for layer_rec in record.community + record.region:
        sums = layer_rec.fusion.beta.sum(axis=1)
        assert np.all(np.abs(sums - 1.0) < 1e-9)


def test_no_region_level_predicts_head_of_intra(setting):
    ds, stats, _, prep = setting
    model = EmissionModel(SMALL.with_overrides(ablation="no_region_level"), stats)
    rid = prep.region_ids[0]
    with no_grad():
        pred = model.predict_region(prep, rid, None).values.copy()
        intra = model.intra_representation(prep.regions[rid])
        direct = model._head_forward(intra).values.copy()
    assert np.array_equal(pred, direct)


def test_no_od_link_ignores_od_data_byte_identically(setting):
    ds, stats, _, _ = setting
    model = EmissionModel(SMALL.with_overrides(ablation="no_od_link"), stats)
    prep_a = prepare_dataset(ds, stats, hops=SMALL.layers)

    # permute all OD flow values between records
    rng = np.random.default_rng(0)
    flows = [r.flow for r in ds.community_od]
    perm = rng.permutation(len(flows))
    shuffled_community = [
        type(r)(r.origin, r.dest, r.level, flows[perm[i]])
        for i, r in enumerate(ds.community_od)
    ]
    doctored = Dataset(
        road_graphs=ds.road_graphs,
        hierarchy=ds.hierarchy,
        community_od=shuffled_community,
        region_od=list(reversed(ds.region_od)),
        region_adjacency=ds.region_adjacency,
        labels=ds.labels,
    )
    prep_b = prepare_dataset(doctored, stats, hops=SMALL.layers)
    cache_a = refresh_region_cache(model, prep_a, 0)
    cache_b = refresh_region_cache(model, prep_b, 0)
    with no_grad():
        for rid in prep_a.region_ids:
            a = model.predict_region(prep_a, rid, cache_a).values
            b = model.predict_region(prep_b, rid, cache_b).values
            assert np.array_equal(a, b)


def test_no_community_level_pools_road_reps_directly(setting):
    ds, stats, _, prep = setting
    model = EmissionModel(SMALL.with_overrides(ablation="no_community_level"), stats)
    rid = prep.region_ids[0]
    with no_grad():
        intra = model.intra_representation(prep.regions[rid])
        from roadcarbon.layers import stack_egat

        r = prep.regions[rid]
        v_road, _, _ = stack_egat(r.node_feats, r.arc_feats, r.arc_src, r.arc_dst, model.road_layers)
        pooled = pool_nodes("mean", v_road, np.zeros(v_road.shape[0], dtype=np.int64), 1)
    assert np.array_equal(intra.values, pooled.values)


def test_no_spatial_and_no_od_models_have_single_type(setting):
    ds, stats, _, prep = setting
    for variant, surviving in (("no_spatial_link", "od"), ("no_od_link", "rn")):
        model = EmissionModel(SMALL.with_overrides(ablation=variant), stats)
        cache = refresh_region_cache(model, prep, 0)
        record = ForwardRecord()
        with no_grad():
            model.predict_region(prep, prep.region_ids[0], cache, record)
        for rec in record.community + record.region:
            assert rec.fusion.tags == (surviving,)
            assert np.array_equal(rec.fusion.beta, np.ones_like(rec.fusion.beta))


def test_set_ablation_returns_fresh_variant(setting):
    _, _, model, _ = setting
    variant = set_ablation(model, "no_region_level")
    assert variant.config.ablation == "no_region_level"
    assert not variant.use_region
    names = {p.name for p in variant.parameters()}
    assert not any(n.startswith("region.") for n in names)
    with pytest.raises(Exception):
        set_ablation(model, "bogus_variant")


def test_checkpoint_round_trip(tmp_path, setting):
    _, _, model, prep = setting
    path = tmp_path / "ck.json"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    assert loaded.config == model.config
    for a, b in zip(model.parameters(), loaded.parameters()):
        assert a.name == b.name
        assert np.array_equal(a.values, b.values)
    cache_a = refresh_region_cache(model, prep, 0)
    cache_b = refresh_region_cache(loaded, prep, 0)
    with no_grad():
        for rid in prep.region_ids[:2]:
            pa = model.predict_region(prep, rid, cache_a).values
            pb = loaded.predict_region(prep, rid, cache_b).values
            assert np.array_equal(pa, pb)


def test_checkpoint_rejects_bad_format(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format": "other-v9", "config": {}, "stats": null, "params": {}}')
    with pytest.raises(CheckpointError, match=CHECKPOINT_FORMAT):
        load_checkpoint(path)


def test_checkpoint_rejects_shape_mismatch(tmp_path, setting):
    _, _, model, _ = setting
    import json

    path = tmp_path / "ck.json"
    save_checkpoint(model, path)
    payload = json.loads(path.read_text())
    payload["params"]["head.W2"]["shape"] = [3, 3]
    payload["params"]["head.W2"]["values"] = [0.0] * 9
    path.write_text(json.dumps(payload))
    with pytest.raises(CheckpointError, match="head.W2"):
        load_checkpoint(path)


def relabel_dataset(ds: Dataset, seed: int) -> Dataset:
    """Bijectively rename nodes and communities; predictions must not move."""
    rng = np.random.default_rng(seed)
    node_map = {}
    community_map = {}
    for rid in ds.region_ids:
        graph = ds.road_graphs[rid]
        perm = rng.permutation(len(graph.node_ids))
        for i, nid in enumerate(graph.node_ids):
            node_map[nid] = f"{rid}x{perm[i]:04d}"
        communities = sorted(
            {ds.hierarchy.node_to_community[n] for n in graph.node_ids}
        )
        cperm = rng.permutation(len(communities))
        for i, cid in enumerate(communities):
            community_map[cid] = f"{rid}y{cperm[i]}"

    graphs = {}
    for rid in ds.region_ids:
        g = ds.road_graphs[rid]
        nodes = [
            (node_map[nid], g.node_xy[i, 0], g.node_xy[i, 1])
            for i, nid in enumerate(g.node_ids)
        ]
        segments = []
        for k in range(g.n_segments):
            a = 2 * k
            segments.append(
                (
                    node_map[g.node_ids[g.arc_src[a]]],
                    node_map[g.node_ids[g.arc_dst[a]]],
                    g.arc_feats[a, 0],
                    g.arc_feats[a, 1],
                    g.arc_length_km[a],
                    ("motorway", "primary", "secondary", "residential", "other")[g.arc_class[a]],
                )
            )
        graphs[rid] = build_road_graph(rid, nodes, segments)

    hierarchy = Hierarchy(
        {node_map[n]: community_map[c] for n, c in ds.hierarchy.node_to_community.items()},
        {community_map[c]: r for c, r in ds.hierarchy.community_to_region.items()},
    )
    community_od = [
        type(r)(community_map[r.origin], community_map[r.dest], r.level, r.flow)
        for r in ds.community_od
    ]
    return Dataset(
        road_graphs=graphs,
        hierarchy=hierarchy,
        community_od=community_od,
        region_od=ds.region_od,
        region_adjacency=ds.region_adjacency,
        labels=ds.labels,
    )


def test_relabeling_leaves_predictions_unchanged(setting):
    ds, _, _, _ = setting
    relabeled = relabel_dataset(ds, seed=5)
    ids = ds.region_ids
    stats_a = fit_normalization(ds, ids[:4])
    stats_b = fit_normalization(relabeled, ids[:4])
    model_a = EmissionModel(SMALL, stats_a)
    model_b = EmissionModel(SMALL, stats_b)
    prep_a = prepare_dataset(ds, stats_a, hops=SMALL.layers)
    prep_b = prepare_dataset(relabeled, stats_b, hops=SMALL.layers)
    cache_a = refresh_region_cache(model_a, prep_a, 0)
    cache_b = refresh_region_cache(model_b, prep_b, 0)
    with no_grad():
        for rid in ids:
            pa = model_a.predict_region(prep_a, rid, cache_a).values[0, 0]
            pb = model_b.predict_region(prep_b, rid, cache_b).values[0, 0]
            assert abs(pa - pb) < 1e-9


def test_single_community_intra_is_identity_pool():
    # mean over one community row is that row: intra == the hetero stack output
    ds = generate_synthetic(SynthParams(n_regions=2, seed=8, grid_side=3, communities=1))
    stats = fit_normalization(ds, ds.region_ids)
    model = EmissionModel(SMALL, stats)
    prep = prepare_dataset(ds, stats, hops=SMALL.layers)
    r = prep.regions[ds.region_ids[0]]
    from roadcarbon.graphs import community_node_features
    from roadcarbon.layers import stack_egat, stack_hetero

    with no_grad():
        intra = model.intra_representation(r)
        v_road, e_road, _ = stack_egat(
            r.node_feats, r.arc_feats, r.arc_src, r.arc_dst, model.road_layers
        )
        v_comm = community_node_features(
            "mean", v_road, e_road, r.arc_src, r.arc_dst, r.groups, 1
        )
        typed = [("od", r.od_src, r.od_dst, model._embed_od(r.od_zflow, "community"))]
        typed.insert(0, ("rn", r.spatial_src, r.spatial_dst,
                         Tensor(np.zeros((0, v_road.shape[1])))))
        v_out, _ = stack_hetero(v_comm, typed, model.community_layers, model.community_fusion)
    assert np.array_equal(intra.values, v_out.values)


def test_isolated_region_inter_depends_only_on_live_row():
    ds = generate_synthetic(SynthParams(n_regions=4, seed=12, grid_side=3))
    isolated = Dataset(
        road_graphs=ds.road_graphs,
        hierarchy=ds.hierarchy,
        community_od=ds.community_od,
        region_od=[],
        region_adjacency=[],
        labels=ds.labels,
    )
    stats = fit_normalization(isolated, isolated.region_ids)
    model = EmissionModel(SMALL, stats)
    prep = prepare_dataset(isolated, stats, hops=SMALL.layers)
    cache = refresh_region_cache(model, prep, 0)
    rid = prep.region_ids[0]
    with no_grad():
        live = model.intra_representation(prep.regions[rid])
        base = model.inter_representation(prep, rid, live, cache).values.copy()
        for other in prep.region_ids[1:]:
            cache.reps[other] = cache.reps[other] + 123.0
        moved = model.inter_representation(prep, rid, live, cache).values.copy()
    assert np.array_equal(base, moved)


def test_all_ablation_variants_train_one_epoch(setting):
    ds, stats, _, prep = setting
    from roadcarbon.train import train

    splits = (prep.region_ids[:4], prep.region_ids[4:5], prep.region_ids[5:])
    variants = ("none", "no_spatial_link", "no_od_link", "no_community_level", "no_region_level")
    for variant in variants:
        cfg = SMALL.with_overrides(ablation=variant, epochs=1, batch_size=8)
        model = EmissionModel(cfg, stats)
        # one batch's backward reaches every parameter: none is computed unused
        cache = refresh_region_cache(model, prep, 0) if model.use_region else None
        for p in model.parameters():
            p.tensor.grad = None
        preds = vstack([model.predict_region(prep, rid, cache) for rid in splits[0]])
        backward(preds.sum())
        missing = [p.name for p in model.parameters() if p.grad is None]
        assert not missing, (variant, missing)

        result = train(model, prep, splits, cfg)
        assert len(result.epoch_log) == 1, variant


def test_alternate_pooling_functions_run_end_to_end(setting):
    ds, stats, _, prep = setting
    for phi in ("sum", "max"):
        model = EmissionModel(SMALL.with_overrides(pooling=phi), stats)
        cache = refresh_region_cache(model, prep, 0)
        with no_grad():
            out = model.predict_region(prep, prep.region_ids[0], cache)
        assert out.shape == (1, 1)
        assert np.isfinite(out.values[0, 0])
