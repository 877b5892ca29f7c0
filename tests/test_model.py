import base64
import gc
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_impl import entry_sum, gather, in_order

from roadcarbon import graphs
from roadcarbon import model as model_module
from roadcarbon.config import ABLATION_CHOICES, POOLING_CHOICES, RunConfig
from roadcarbon.data import Dataset, split_dataset
from roadcarbon.graphs import Hierarchy, adjacency_arcs, build_road_graph, pool_nodes
from roadcarbon.layers import EgatParams, FusionParams, attention_fusion, stack_hetero
from roadcarbon.model import (
    CHECKPOINT_FORMAT,
    CheckpointError,
    EmissionModel,
    ForwardRecord,
    RegionCache,
    fit_normalization,
    load_checkpoint,
    prepare_dataset,
    refresh_region_cache,
    save_checkpoint,
    set_ablation,
)
from roadcarbon.synth import SynthParams, generate_synthetic
from roadcarbon.tensor import (
    Tensor,
    backward,
    mse_loss,
    no_grad,
    row_prefix,
    segment_max,
    toposort,
    vstack,
)


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
    out = model.intra_representation([prep.regions[prep.region_ids[0]]])
    assert out.shape == (1, SMALL.hidden)


def test_intra_gradient_reaches_road_params(setting):
    _, _, model, prep = setting
    for p in model.parameters():
        p.tensor.grad = None
    out = model.intra_representation([prep.regions[prep.region_ids[0]]])
    backward(entry_sum(out))
    grads = [np.abs(layer.W.grad).max() for layer in model.road_layers]
    assert all(g > 0 for g in grads)


def test_single_community_region_intra_equals_hetero_output():
    ds = generate_synthetic(SynthParams(n_regions=2, seed=8, grid_side=3, communities=1))
    stats = fit_normalization(ds, ds.region_ids)
    model = EmissionModel(SMALL, stats)
    prep = prepare_dataset(ds, stats, hops=SMALL.layers)
    rid = ds.region_ids[0]
    record = ForwardRecord()
    intra = model.intra_representation([prep.regions[rid]], record)
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
    live = model.intra_representation([prep.regions[rid]])
    out = model.inter_representation(prep, [rid], live, cache)
    backward(entry_sum(out))
    assert np.abs(model.road_layers[0].W.grad).max() > 0
    assert np.abs(model.region_layers[0]["od"].W.grad).max() > 0

    # all-cached rows: region params still learn, road params see nothing
    for p in model.parameters():
        p.tensor.grad = None
    detached = Tensor(cache.reps[rid])
    out = model.inter_representation(prep, [rid], detached, cache)
    backward(entry_sum(out))
    assert model.road_layers[0].W.grad is None
    assert np.abs(model.region_layers[0]["od"].W.grad).max() > 0


def test_inter_missing_cache_entry_errors(setting):
    _, _, model, prep = setting
    cache = RegionCache(epoch=0, reps={})
    rid = prep.region_ids[0]
    live = Tensor(np.zeros((1, SMALL.hidden)))
    with pytest.raises(ValueError, match="missing from cache"):
        model.inter_representation(prep, [rid], live, cache)


def test_inter_missing_neighbor_cache_entry_errors(setting):
    # a cached row past the target raises the same error as the target's
    _, _, model, prep = setting
    rid = next(r for r in prep.region_ids if prep.egos[r].nodes.size > 1)
    ego = prep.egos[rid]
    neighbor = prep.region_ids[ego.nodes[ego.nodes != prep.region_index(rid)][-1]]
    reps = {r: np.zeros((1, SMALL.hidden)) for r in prep.region_ids if r != neighbor}
    cache = RegionCache(epoch=7, reps=reps)
    live = Tensor(np.zeros((1, SMALL.hidden)))
    with pytest.raises(ValueError, match=rf"region {neighbor} missing from cache \(epoch 7\)"):
        model.inter_representation(prep, [rid], live, cache)


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
        live = model.intra_representation([prep.regions[rid]])
        base = model.inter_representation(prep, [rid], live, cache).values.copy()

        # neighbor (1 hop): output changes
        pristine = cache.reps[ids[1]].copy()
        cache.reps[ids[1]] = pristine + 0.5
        moved = model.inter_representation(prep, [rid], live, cache).values.copy()
        assert np.max(np.abs(moved - base)) > 1e-9
        cache.reps[ids[1]] = pristine

        # beyond L hops (distance 4 > 2): no change at all
        cache.reps[ids[4]] = cache.reps[ids[4]] + 10.0
        far = model.inter_representation(prep, [rid], live, cache).values.copy()
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
        intra = model.intra_representation([prep.regions[rid]])
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
        intra = model.intra_representation([prep.regions[rid]])
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


def test_checkpoint_round_trip_is_bitwise(tmp_path, setting):
    _, stats, _, _ = setting
    model = EmissionModel(SMALL, stats)
    rng = np.random.default_rng(11)
    for p in model.parameters():
        p.tensor.values = rng.standard_normal(p.values.shape) * 10.0 ** rng.integers(-300, 300)
    edge = np.array([-0.0, 0.0, 5e-324, -2.5e-310, 1.7e308, -1.7e308, np.pi])
    big = max(model.parameters(), key=lambda p: p.values.size)
    big.values.ravel()[: edge.size] = edge
    path = tmp_path / "ck.json"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    for a, b in zip(model.parameters(), loaded.parameters()):
        assert a.values.dtype == b.values.dtype == np.float64
        assert a.values.shape == b.values.shape
        assert a.values.tobytes() == b.values.tobytes(), a.name
    assert loaded.parameters()[0].values.flags.writeable


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
    payload["params"]["head.W2"]["values"] = base64.b64encode(bytes(8 * 9)).decode("ascii")
    path.write_text(json.dumps(payload))
    with pytest.raises(CheckpointError, match="head.W2"):
        load_checkpoint(path)


def test_checkpoint_rejects_values_not_filling_shape(tmp_path, setting):
    _, _, model, _ = setting
    import json

    path = tmp_path / "ck.json"
    save_checkpoint(model, path)
    payload = json.loads(path.read_text())
    raw = base64.b64decode(payload["params"]["head.W2"]["values"])
    payload["params"]["head.W2"]["values"] = base64.b64encode(raw[:-8]).decode("ascii")
    path.write_text(json.dumps(payload))
    with pytest.raises(CheckpointError, match="head.W2.*do not fill"):
        load_checkpoint(path)


@pytest.mark.parametrize("key", ["config", "stats", "params"])
def test_checkpoint_rejects_missing_top_level_key(tmp_path, setting, key):
    _, _, model, _ = setting
    import json

    path = tmp_path / "ck.json"
    save_checkpoint(model, path)
    payload = json.loads(path.read_text())
    del payload[key]
    path.write_text(json.dumps(payload))
    with pytest.raises(CheckpointError, match=f"lacks {key}"):
        load_checkpoint(path)


def test_failed_save_keeps_previous_checkpoint(tmp_path, setting, monkeypatch):
    _, _, model, _ = setting
    import json

    path = tmp_path / "ck.json"
    save_checkpoint(model, path)
    before = path.read_bytes()

    def torn_dump(payload, fh, **kwargs):
        fh.write(json.dumps(payload)[:100])
        raise OSError("disk full")

    monkeypatch.setattr(json, "dump", torn_dump)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(model, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["ck.json"]


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
        intra = model.intra_representation([r])
        v_road, e_road, _ = stack_egat(
            r.node_feats, r.arc_feats, r.arc_src, r.arc_dst, model.road_layers
        )
        v_comm = community_node_features(
            "mean", v_road, e_road, r.arc_src, r.arc_dst, r.groups, 1
        )
        embed_w, embed_b = model.community_od_embed
        od_feats = Tensor(r.od_zflow.values @ embed_w.values + embed_b.values)
        typed = [
            ("rn", r.spatial_src, r.spatial_dst, Tensor(np.zeros((0, v_road.shape[1])))),
            ("od", r.od_src, r.od_dst, od_feats),
        ]
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
        live = model.intra_representation([prep.regions[rid]])
        base = model.inter_representation(prep, [rid], live, cache).values.copy()
        for other in prep.region_ids[1:]:
            cache.reps[other] = cache.reps[other] + 123.0
        moved = model.inter_representation(prep, [rid], live, cache).values.copy()
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
        backward(entry_sum(preds))
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


# ---------------------------------------------------------------------------
# batched forward: disjoint unions against the one-region path

VARIANTS = [(a, p) for a in ABLATION_CHOICES for p in POOLING_CHOICES]
# the all-singleton split and the one-union split
BUDGETS = (1, 10**9)

# (world, config, train regions to batch or None for all): the worlds of
# acceptance criteria 1 and 4 and the acceptance world's first train batch
UNION_WORLDS = {
    "criterion-1": (
        SynthParams(n_regions=3, grid_side=3, communities=2, seed=17, noise_std=0.1),
        RunConfig(hidden=4, layers=2, layers_road=2, seed=3),
        None,
    ),
    "criterion-4-400": (
        SynthParams(n_regions=4, grid_side=3, communities=4, seed=400),
        RunConfig(hidden=8, layers=2, layers_road=2, seed=5),
        None,
    ),
    "criterion-4-401": (
        SynthParams(n_regions=4, grid_side=3, communities=4, seed=401),
        RunConfig(hidden=8, layers=2, layers_road=2, seed=5),
        None,
    ),
    "acceptance": (SynthParams(n_regions=200, seed=42, noise_std=0.1), RunConfig(seed=2), 32),
}


def union_world(name):
    params, config, batch_size = UNION_WORLDS[name]
    ds = generate_synthetic(params)
    if batch_size is None:
        train_ids = batch = ds.region_ids
    else:
        train_ids = split_dataset(ds, config.fractions, config.seed)[0]
        batch = train_ids[:batch_size]
    stats = fit_normalization(ds, train_ids)
    prep = prepare_dataset(ds, stats, hops=config.layers)
    # random cache rows, unequal to every live row, so a target row taken
    # from the cache instead of the live pass shows in values and gradients
    rng = np.random.default_rng(11)
    cache = RegionCache(
        epoch=0, reps={r: rng.normal(size=(1, config.hidden)) for r in prep.region_ids}
    )
    return config, stats, prep, cache, batch


def loss_and_grads(model, prep, batch, forward):
    params = model.parameters()
    for p in params:
        p.tensor.grad = None
    preds = forward()
    targets = Tensor(np.array([prep.regions[r].label_norm for r in batch]).reshape(-1, 1))
    backward(mse_loss(preds, targets))
    grads = {p.name: p.grad.copy() for p in params}
    for p in params:
        p.tensor.grad = None
    return preds.values.copy(), grads


@pytest.mark.parametrize("world", list(UNION_WORLDS))
def test_predict_batch_matches_per_region_path(world, monkeypatch):
    config, stats, prep, cache, batch = union_world(world)
    for ablation, pooling in VARIANTS:
        model = EmissionModel(config.with_overrides(ablation=ablation, pooling=pooling), stats)
        use_cache = cache if model.use_region else None
        want_pred, want_grads = loss_and_grads(
            model, prep, batch,
            lambda: vstack([model.predict_region(prep, r, use_cache) for r in batch]),
        )
        for budget in BUDGETS:
            monkeypatch.setattr(model_module, "UNION_ROW_BUDGET", budget)
            got_pred, got_grads = loss_and_grads(
                model, prep, batch, lambda: model.predict_batch(prep, batch, use_cache)
            )
            where = (world, ablation, pooling, budget)
            assert got_pred.shape == (len(batch), 1)
            assert np.abs(got_pred - want_pred).max() <= 1e-12, where
            for name, want in want_grads.items():
                scale = np.abs(want).max()
                assert np.abs(got_grads[name] - want).max() <= 1e-10 * scale, (where, name)


def test_union_budget_splits_intra_passes(monkeypatch):
    config, stats, prep, cache, batch = union_world("criterion-4-400")
    model = EmissionModel(config, stats)
    calls = []
    intra = model.intra_representation

    def counted(regions, record=None):
        calls.append(len(regions))
        return intra(regions, record)

    monkeypatch.setattr(model, "intra_representation", counted)
    rows = [prep.regions[r].node_feats.shape[0] + prep.regions[r].arc_src.size for r in batch]
    for budget, runs in ((1, [1] * 4), (sum(rows[:2]), [2, 2]), (sum(rows), [4])):
        monkeypatch.setattr(model_module, "UNION_ROW_BUDGET", budget)
        calls.clear()
        with no_grad():
            model.predict_batch(prep, batch, cache)
        assert calls == runs, budget


def test_one_region_is_its_own_union(setting):
    _, _, _, prep = setting
    region = prep.regions[prep.region_ids[0]]
    assert model_module._union_regions([region]) is region
    assert not region.community_region.any()
    # a union's node -> region map is derived through the community groups
    regions = [prep.regions[r] for r in prep.region_ids[:3]]
    u = model_module._union_regions(regions)
    n_nodes = [r.node_feats.shape[0] for r in regions]
    assert np.array_equal(u.community_region[u.groups], np.repeat(np.arange(3), n_nodes))


def test_union_spatial_arcs_pair_up_with_crossing_pairs(setting):
    # the community level gives spatial arc j the pooled road arcs
    # cross_src[k] with cross_dst[k] == j, so in a union the road arcs under
    # arcs 2k and 2k + 1 must be the same ascending crossing arcs, joining
    # just the two communities of those arcs, both in one region
    _, _, _, prep = setting
    u = model_module._union_regions([prep.regions[r] for r in prep.region_ids])
    n_spatial = u.spatial_src.size
    assert n_spatial > 2 * len(prep.region_ids)
    forward, reverse = slice(0, None, 2), slice(1, None, 2)
    assert np.array_equal(u.spatial_src[forward], u.spatial_dst[reverse])
    assert np.array_equal(u.spatial_dst[forward], u.spatial_src[reverse])
    assert np.array_equal(
        u.community_region[u.spatial_src], u.community_region[u.spatial_dst]
    )
    ends = np.sort(
        np.stack([u.groups[u.arc_src[u.cross_src]], u.groups[u.arc_dst[u.cross_src]]]), axis=0
    )
    arc_ends = np.sort(np.stack([u.spatial_src, u.spatial_dst]), axis=0)
    assert np.array_equal(ends, arc_ends[:, u.cross_dst])
    assert np.array_equal(np.unique(u.cross_dst), np.arange(n_spatial))
    under = [u.cross_src[u.cross_dst == j] for j in range(n_spatial)]
    assert all(np.all(np.diff(arcs) > 0) for arcs in under)
    assert all(np.array_equal(a, b) for a, b in zip(under[forward], under[reverse]))
    crossing = np.flatnonzero(u.groups[u.arc_src] != u.groups[u.arc_dst])
    assert np.array_equal(np.unique(u.cross_src), crossing)
    assert u.cross_src.size == 2 * crossing.size


def test_max_pooling_records_as_many_nodes_as_sum_and_mean(monkeypatch):
    # max pooling reads its source rows inside segment_max: a training
    # step records as many nodes as under sum or mean, and its predictions
    # and gradients are bitwise those of gathering the rows first
    config, stats, prep, cache, batch = union_world("criterion-4-400")
    nodes = {}
    for pooling in POOLING_CHOICES:
        model = EmissionModel(config.with_overrides(pooling=pooling), stats)
        targets = Tensor(np.array([prep.regions[r].label_norm for r in batch]).reshape(-1, 1))
        loss = mse_loss(model.predict_batch(prep, batch, cache), targets)
        nodes[pooling] = sum(n._op is not None for n in toposort(loss))
    assert nodes["max"] == nodes["sum"] == nodes["mean"], nodes

    model = EmissionModel(config.with_overrides(pooling="max"), stats)
    want_pred, want_grads = loss_and_grads(
        model, prep, batch, lambda: model.predict_batch(prep, batch, cache)
    )
    pool = graphs.pool

    def gather_then_max(phi, rows, src, dst, n):
        if phi != "max":
            return pool(phi, rows, src, dst, n)
        return segment_max(gather(rows, src), in_order(dst, n))

    monkeypatch.setattr(graphs, "pool", gather_then_max)
    monkeypatch.setattr(model_module, "pool", gather_then_max)
    got_pred, got_grads = loss_and_grads(
        model, prep, batch, lambda: model.predict_batch(prep, batch, cache)
    )
    assert np.array_equal(got_pred, want_pred)
    for name, want in want_grads.items():
        assert np.array_equal(got_grads[name], want), name


# ---------------------------------------------------------------------------
# region level: each layer reads only the arcs its targets' rows need

REGION_ABLATIONS = [a for a in ABLATION_CHOICES if a != "no_region_level"]


@pytest.fixture(scope="module")
def region_dataset():
    return generate_synthetic(SynthParams(n_regions=24, grid_side=3, communities=2, seed=31))


@pytest.fixture(scope="module")
def region_world(region_dataset):
    # 4-hop egos on 24 regions: every shallower depth leaves arcs unread
    ds = region_dataset
    stats = fit_normalization(ds, ds.region_ids)
    prep = prepare_dataset(ds, stats, hops=4)
    rng = np.random.default_rng(13)
    cache = RegionCache(epoch=0, reps={r: rng.normal(size=(1, 8)) for r in prep.region_ids})
    return stats, prep, cache


def test_lone_region_ego_is_its_live_row_alone():
    # no cached rows: the union is the target's live row and no arcs
    ds = generate_synthetic(SynthParams(n_regions=1, seed=4, grid_side=3))
    stats = fit_normalization(ds, ds.region_ids)
    prep = prepare_dataset(ds, stats, hops=4)
    (region_id,) = ds.region_ids
    assert prep.egos[region_id].nodes.size == 1
    assert prep.region_spatial_src.size == prep.region_od_src.size == 0
    model = EmissionModel(RunConfig(hidden=8), stats)
    cache = refresh_region_cache(model, prep, 0)
    live = Tensor(cache.reps[region_id], requires_grad=True)
    inter = model.inter_representation(prep, [region_id], live, cache)
    typed = [
        ("rn", prep.region_spatial_src, prep.region_spatial_dst, prep.region_spatial_feats),
        ("od", prep.region_od_src, prep.region_od_dst, Tensor(np.zeros((0, 8)))),
    ]
    with no_grad():
        full, _ = stack_hetero(
            Tensor(cache.reps[region_id]), typed, model.region_layers, model.region_fusion
        )
    assert np.array_equal(inter.values, full.values)
    backward(entry_sum(inter))
    assert np.abs(live.grad).max() > 0


@pytest.mark.parametrize("depth", (2, 3, 4))
def test_region_arc_prefixes_match_unpruned_stack(region_world, depth, monkeypatch):
    stats, prep, cache = region_world
    batch = prep.region_ids[::2]
    egos = [prep.egos[r] for r in batch]
    union = model_module._union_egos(egos, depth)
    ego_arcs = {"rn": sum(e.spatial_src.size for e in egos), "od": sum(e.od_src.size for e in egos)}
    for tag in ("rn", "od"):
        counts = union.prefixes[tag]
        assert len(counts) == depth and counts == sorted(counts, reverse=True)
        assert counts[-1] < counts[0] <= ego_arcs[tag], (tag, counts, ego_arcs[tag])
        # an ego holds only the arcs its own depth reads
        assert (counts[0] == ego_arcs[tag]) == (depth == prep.ego_hops), (tag, depth)
    rows = union.prefixes["rows"]
    assert len(rows) == depth and rows == sorted(rows, reverse=True)
    assert rows[-1] == len(batch) < rows[0] < union.nodes.size, rows

    def unpruned(V, typed, layers, fusion, prefixes=None):
        # every row and arc at every layer; the region level reads its targets
        out, records = stack_hetero(V, typed, layers, fusion)
        if prefixes:
            out = row_prefix(out, prefixes["rows"][-1])
        return out, records

    for ablation in REGION_ABLATIONS:
        config = RunConfig(hidden=8, layers=depth, layers_road=2, seed=3, ablation=ablation)
        model = EmissionModel(config, stats)

        def forward():
            return model.predict_batch(prep, batch, cache)

        got_pred, got_grads = loss_and_grads(model, prep, batch, forward)
        with monkeypatch.context() as m:
            m.setattr(model_module, "stack_hetero", unpruned)
            want_pred, want_grads = loss_and_grads(model, prep, batch, forward)
        assert np.abs(got_pred - want_pred).max() <= 1e-12, ablation
        for name, want in want_grads.items():
            scale = np.abs(want).max()
            assert np.abs(got_grads[name] - want).max() <= 1e-12 * scale, (ablation, name)


@pytest.mark.parametrize("hops", (2, 3, 4))
def test_ego_carved_at_stack_depth_is_its_own_union(region_dataset, hops):
    # a union re-derives hop distances, so an ego carved for its own depth
    # comes back row for row and arc for arc
    ds = region_dataset
    prep = prepare_dataset(ds, fit_normalization(ds, ds.region_ids), hops=hops)
    for region_id, ego in prep.egos.items():
        union = model_module._union_egos([ego], hops)
        for name in ("nodes", "spatial_src", "spatial_dst", "od_src", "od_dst"):
            assert np.array_equal(getattr(union, name), getattr(ego, name)), (region_id, name)
        assert np.array_equal(union.spatial_feats.values, ego.spatial_feats.values)
        assert np.array_equal(union.od_zflow.values, ego.od_zflow.values), region_id
        assert union.prefixes == ego.prefixes, region_id
        assert union.prefixes["rn"][0] == ego.spatial_src.size
        assert union.prefixes["od"][0] == ego.od_src.size


@pytest.mark.parametrize("depth, hops", [(2, 2), (2, 4), (3, 3), (3, 4), (4, 4)])
def test_predict_region_matches_whole_region_graph_at_fresh_cache(region_dataset, depth, hops):
    """At a fresh cache every live intra row equals its cached row, so each
    region's prediction is the region stack run once on the whole region
    graph of cached rows, fused with the region's own row, then the head."""
    ds = region_dataset
    stats = fit_normalization(ds, ds.region_ids)
    prep = prepare_dataset(ds, stats, hops=hops)
    for ablation in REGION_ABLATIONS:
        config = RunConfig(hidden=8, layers=depth, layers_road=2, seed=3, ablation=ablation)
        model = EmissionModel(config, stats)
        cache = refresh_region_cache(model, prep, epoch=0)
        with no_grad():
            got = np.array(
                [model.predict_region(prep, r, cache).values[0, 0] for r in prep.region_ids]
            )
            rows = Tensor(np.concatenate([cache.reps[r] for r in prep.region_ids]))
            typed = []
            if model.use_spatial:
                typed.append((
                    "rn", prep.region_spatial_src, prep.region_spatial_dst,
                    prep.region_spatial_feats,
                ))
            if model.use_od:
                embed_w, embed_b = model.region_od_embed
                od_feats = prep.region_od_zflow.values @ embed_w.values + embed_b.values
                typed.append(("od", prep.region_od_src, prep.region_od_dst, Tensor(od_feats)))
            inter, _ = stack_hetero(rows, typed, model.region_layers, model.region_fusion)
            fused, _ = attention_fusion([("intra", rows), ("inter", inter)], model.final_fusion)
            want = model._head_forward(fused).values[:, 0]
        assert np.abs(got - want).max() <= 1e-12, (ablation, np.abs(got - want).max())


@pytest.mark.parametrize("depth", (2, 3, 4))
def test_removing_an_od_arc_into_the_target_changes_its_prediction(region_world, depth):
    stats, prep, cache = region_world
    model = EmissionModel(RunConfig(hidden=8, layers=depth, layers_road=2, seed=3), stats)
    target = next(
        r for r in prep.region_ids if (prep.egos[r].od_dst == prep.egos[r].target_local).any()
    )
    ego = prep.egos[target]
    keep = np.ones(ego.od_dst.size, dtype=bool)
    keep[np.flatnonzero(ego.od_dst == ego.target_local)[0]] = False
    truncated = model_module.RegionEgo(
        nodes=ego.nodes,
        target_local=ego.target_local,
        spatial_src=ego.spatial_src,
        spatial_dst=ego.spatial_dst,
        spatial_feats=ego.spatial_feats,
        od_src=ego.od_src[keep],
        od_dst=ego.od_dst[keep],
        od_zflow=Tensor(ego.od_zflow.values[keep]),
    )
    with no_grad():
        base = model.predict_region(prep, target, cache).values[0, 0]
        prep.egos[target] = truncated
        try:
            cut = model.predict_region(prep, target, cache).values[0, 0]
        finally:
            prep.egos[target] = ego
    assert abs(cut - base) > 1e-9, (base, cut)


def test_ego_built_from_its_eight_fields_predicts_the_same(region_world):
    # an ego built by keyword from a stored ego's eight fields, with no
    # prefixes, is carved again and predicts bitwise what the stored one does
    stats, prep, cache = region_world
    target = prep.region_ids[5]
    ego = prep.egos[target]
    rebuilt = model_module.RegionEgo(
        nodes=ego.nodes,
        target_local=ego.target_local,
        spatial_src=ego.spatial_src,
        spatial_dst=ego.spatial_dst,
        spatial_feats=ego.spatial_feats,
        od_src=ego.od_src,
        od_dst=ego.od_dst,
        od_zflow=ego.od_zflow,
    )
    assert rebuilt.prefixes is None and ego.prefixes is not None
    for depth in (2, 3, 4):
        model = EmissionModel(RunConfig(hidden=8, layers=depth, layers_road=2, seed=3), stats)
        with no_grad():
            want = model.predict_region(prep, target, cache).values
            prep.egos[target] = rebuilt
            try:
                got = model.predict_region(prep, target, cache).values
            finally:
                prep.egos[target] = ego
        assert got.tobytes() == want.tobytes(), depth


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 9),
    depth=st.integers(1, 4),
    extra_hops=st.integers(0, 2),
    tags=st.sampled_from([("rn",), ("od",), ("rn", "od")]),
    seed=st.integers(0, 2**32 - 1),
)
def test_arc_prefixes_reproduce_full_graph_target_rows(n, depth, extra_hops, tags, seed):
    """On a random region graph, the ego union lists its targets first and
    its rows in hop order, each layer's row prefix is the rows within
    ``depth - 1 - l`` hops and its arc prefix the arcs into them, and the
    prefixes give the targets' rows and the parameter gradients of the
    unpruned stack on the same union, and the rows of the stack run on the
    whole graph."""
    rng = np.random.default_rng(seed)
    ids = [f"r{i}" for i in range(n)]
    index = {r: i for i, r in enumerate(ids)}
    pairs = [(ids[a], ids[b]) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.35]
    sp_src, sp_dst = adjacency_arcs(pairs, index)
    od = np.array(
        [(a, b) for a in range(n) for b in range(n) if a != b and rng.random() < 0.3],
        dtype=np.int64,
    ).reshape(-1, 2)
    od_src, od_dst = od[:, 0], od[:, 1]
    zflow = rng.normal(size=od_src.size)
    hops = depth + extra_hops
    # each ego carved from the whole graph, as prepare_dataset carves it
    whole = model_module.RegionEgo(
        nodes=np.arange(n),
        target_local=0,
        spatial_src=sp_src,
        spatial_dst=sp_dst,
        spatial_feats=Tensor(np.zeros((sp_src.size, 1))),
        od_src=od_src,
        od_dst=od_dst,
        od_zflow=Tensor(zflow),
    )
    egos = {
        ids[t]: model_module._union_egos([replace(whole, target_local=t)], hops)
        for t in range(n)
    }

    # each ego against a breadth-first carve of its target: the rows within
    # ``hops`` hops by (distance, index), the arcs into rows within
    # ``hops - 1`` hops stably by their destination's distance
    all_src = np.concatenate([sp_src, od_src]).tolist()
    all_dst = np.concatenate([sp_dst, od_dst]).tolist()
    for t in range(n):
        ring = {t: 0}
        frontier = {t}
        for k in range(1, hops + 1):
            frontier = {s for s, d in zip(all_src, all_dst) if d in frontier and s not in ring}
            ring.update((s, k) for s in frontier)
        nodes = sorted(ring, key=lambda v: (ring[v], v))
        local = {v: i for i, v in enumerate(nodes)}
        ego = egos[ids[t]]
        assert ego.nodes.tolist() == nodes and ego.target_local == 0
        read = {}
        for tag, arc_src, arc_dst, got_src, got_dst in (
            ("rn", sp_src, sp_dst, ego.spatial_src, ego.spatial_dst),
            ("od", od_src, od_dst, ego.od_src, ego.od_dst),
        ):
            into = [a for a in range(arc_dst.size) if ring.get(arc_dst[a], hops) < hops]
            read[tag] = sorted(into, key=lambda a: ring[arc_dst[a]])
            assert got_src.tolist() == [local[arc_src[a]] for a in read[tag]], tag
            assert got_dst.tolist() == [local[arc_dst[a]] for a in read[tag]], tag
        assert ego.spatial_feats.shape == (ego.spatial_src.size, 1)
        assert np.array_equal(ego.od_zflow.values, zflow[read["od"]].reshape(-1, 1))

    targets = [ids[i] for i in rng.permutation(n)[: rng.integers(1, n + 1)]]
    union = model_module._union_egos([egos[t] for t in targets], depth)
    B = len(targets)
    assert union.nodes[:B].tolist() == [index[t] for t in targets]

    # each row's hop distance to its target, capped at depth, by breadth-first search
    src = np.concatenate([union.spatial_src, union.od_src])
    dst = np.concatenate([union.spatial_dst, union.od_dst])
    dist = np.full(union.nodes.size, depth)
    dist[:B] = 0
    frontier = list(range(B))
    for k in range(1, depth):
        frontier = [s for s, t in zip(src, dst) if t in frontier and dist[s] > k]
        dist[frontier] = k
    assert (np.diff(dist) >= 0).all(), dist
    assert union.prefixes["rows"][-1] == B
    for l in range(depth):
        prefix = np.count_nonzero(dist <= depth - 1 - l)
        assert union.prefixes["rows"][l] == prefix, (l, union.prefixes)
        for tag, arc_dst in (("rn", union.spatial_dst), ("od", union.od_dst)):
            read = union.prefixes[tag][l]
            assert (arc_dst[:read] < prefix).all() and (arc_dst[read:] >= prefix).all(), (tag, l)

    d = 3
    d_e = {"rn": 1, "od": 1}
    layers = [
        {
            tag: EgatParams.create(
                f"{tag}{i}", d, d_e[tag] if i == 0 else d, d,
                d if i + 1 < depth else None, d, rng,
            )
            for tag in tags
        }
        for i in range(depth)
    ]
    fusion = FusionParams.create("f", d, rng) if len(tags) == 2 else None
    params = [p for layer in layers for eg in layer.values() for p in eg.parameters()]
    params += fusion.parameters() if fusion else []
    X = rng.normal(size=(n, d))
    upstream = Tensor(rng.normal(size=(len(targets), d)))

    def typed(graph_src, graph_dst, sp_feats, od_src_, od_dst_, od_feats):
        arcs = {"rn": (graph_src, graph_dst, sp_feats), "od": (od_src_, od_dst_, od_feats)}
        return [(tag, *arcs[tag]) for tag in tags]

    union_arcs = typed(
        union.spatial_src, union.spatial_dst, union.spatial_feats,
        union.od_src, union.od_dst, union.od_zflow,
    )

    def rows_and_grads(V, arcs, rows, prefixes=None):
        for p in params:
            p.tensor.grad = None
        out, _ = stack_hetero(V, arcs, layers, fusion, prefixes)
        picked = gather(out, rows)
        backward(mse_loss(picked, upstream))
        return picked.values, [p.grad for p in params]

    V = Tensor(X[union.nodes])
    got, got_grads = rows_and_grads(V, union_arcs, np.arange(B), union.prefixes)
    want, want_grads = rows_and_grads(V, union_arcs, np.arange(B))
    full, _ = rows_and_grads(
        Tensor(X),
        typed(
            sp_src, sp_dst, Tensor(np.zeros((sp_src.size, 1))),
            od_src, od_dst, Tensor(zflow.reshape(-1, 1)),
        ),
        [index[t] for t in targets],
    )
    assert np.abs(got - want).max() <= 1e-12
    assert np.abs(got - full).max() <= 1e-12
    for g, w in zip(got_grads, want_grads):
        assert np.abs(g - w).max() <= 1e-12 * max(np.abs(w).max(), 1.0)


def test_prepare_rejects_region_without_intersections():
    ds = generate_synthetic(SynthParams(n_regions=3, seed=4, grid_side=3))
    stats = fit_normalization(ds, ds.region_ids)
    empty = ds.region_ids[1]
    ds.road_graphs[empty] = build_road_graph(empty, [], [])
    with pytest.raises(ValueError, match=f"region {empty} has no intersections"):
        prepare_dataset(ds, stats, hops=4)


@pytest.mark.parametrize("budget", BUDGETS)
def test_batched_loss_directional_derivative(budget, monkeypatch):
    """<grad, u> of a three-region batched loss against a central difference
    along a seeded unit direction u, the cache held fixed."""
    monkeypatch.setattr(model_module, "UNION_ROW_BUDGET", budget)
    config, stats, prep, cache, batch = union_world("criterion-1")
    assert len(batch) == 3
    model = EmissionModel(config, stats)
    targets = Tensor(np.array([prep.regions[r].label_norm for r in batch]).reshape(-1, 1))

    def loss():
        return mse_loss(model.predict_batch(prep, batch, cache), targets)

    params = model.parameters()
    _, grads = loss_and_grads(model, prep, batch, lambda: model.predict_batch(prep, batch, cache))
    rng = np.random.default_rng(101)
    direction = {p.name: rng.standard_normal(p.values.shape) for p in params}
    norm = np.sqrt(sum(float((d * d).sum()) for d in direction.values()))
    analytic = sum(float((grads[n] * d).sum()) for n, d in direction.items()) / norm

    h = 1e-5
    saved = {p.name: p.values.copy() for p in params}
    losses = []
    with no_grad():
        for sign in (1.0, -1.0):
            for p in params:
                p.tensor.values = saved[p.name] + (sign * h / norm) * direction[p.name]
            losses.append(loss().values[0, 0])
    for p in params:
        p.tensor.values = saved[p.name]
    numeric = (losses[0] - losses[1]) / (2 * h)
    rounding = 100 * np.finfo(float).eps * max(abs(x) for x in losses) / h
    assert abs(analytic - numeric) <= 1e-6 * abs(analytic) + rounding, (analytic, numeric)


def test_training_step_holds_its_graph_once():
    """Backward frees each inner node once it has passed its gradient on:
    on three 400-intersection regions, the traced peak during ``backward``
    stays near the forward graph's own bytes instead of doubling them."""
    ds = generate_synthetic(SynthParams(n_regions=3, grid_side=20, communities=25, seed=5))
    config = RunConfig().validate()
    ids = ds.region_ids
    stats = fit_normalization(ds, ids)
    prep = prepare_dataset(ds, stats, config.min_flow, hops=config.layers)
    model = EmissionModel(config, stats)
    cache = refresh_region_cache(model, prep, 0)
    targets = Tensor(np.array([prep.regions[r].label_norm for r in ids]).reshape(-1, 1))
    gc.collect()

    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        loss = mse_loss(model.predict_batch(prep, ids, cache), targets)
        graph_bytes = tracemalloc.get_traced_memory()[0] - start
        inner = weakref.ref(next(n for n in toposort(loss) if n._op == "attend"))
        tracemalloc.reset_peak()
        backward(loss)
        backward_peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert graph_bytes > 2**20
    assert backward_peak <= 1.25 * graph_bytes, (backward_peak, graph_bytes)
    assert inner() is None
    assert all(p.grad is not None for p in model.parameters())
