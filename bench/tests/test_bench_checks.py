"""Each correctness check passes on the program's output and fails on a
deliberately corrupted input."""

import csv

import numpy as np
import pytest

import checks
from roadcarbon import cli, layers, model as rc_model, tensor as rc_tensor
from roadcarbon.config import RunConfig
from roadcarbon.data import split_dataset, write_dataset
from roadcarbon.synth import SynthParams, generate_synthetic


@pytest.fixture(scope="module")
def world():
    dataset = generate_synthetic(SynthParams(n_regions=14, grid_side=4, communities=4, seed=5))
    cfg = RunConfig(seed=2, hidden=8)
    splits = split_dataset(dataset, cfg.fractions, cfg.seed)
    stats = rc_model.fit_normalization(dataset, splits[0])
    mdl = rc_model.EmissionModel(cfg, stats)
    prepared = rc_model.prepare_dataset(dataset, stats, cfg.min_flow, hops=cfg.layers)
    cache = rc_model.refresh_region_cache(mdl, prepared, 0)
    return dataset, splits, mdl, prepared, cache


def test_directional_derivative_fails_on_perturbed_gradient(world):
    _, splits, mdl, prepared, cache = world
    batch = splits[0][:8]
    grads = checks.batch_gradient(mdl, prepared, batch, cache)
    assert checks.check_directional_derivative(mdl, prepared, batch, cache, grads, seed=3).ok

    name = "head.W1"
    rng = np.random.default_rng(0)
    bad = dict(grads, **{name: grads[name] + 1e-3 * rng.standard_normal(grads[name].shape)})
    assert not checks.check_directional_derivative(mdl, prepared, batch, cache, bad, seed=3).ok


def test_road_stack_fails_on_corrupted_layer(world, monkeypatch):
    _, _, mdl, prepared, _ = world
    prep = prepared.regions[prepared.region_ids[0]]
    assert checks.check_road_stack(mdl, prep).ok

    original = layers.egat_layer

    def off_by_a_little(V, E, arc_src, arc_dst, params):
        V_out, E_out, rec = original(V, E, arc_src, arc_dst, params)
        values = V_out.values.copy()
        values[0, 0] += 1e-6
        return rc_tensor.Tensor(values), E_out, rec

    monkeypatch.setattr(layers, "egat_layer", off_by_a_little)
    assert not checks.check_road_stack(mdl, prep).ok


def test_road_stack_reference_rejects_wrong_row(world):
    _, _, mdl, prepared, _ = world
    prep = prepared.regions[prepared.region_ids[1]]
    got_v, got_e = checks.road_stack_outputs(mdl, prep)
    swapped = got_v[[1, 0] + list(range(2, got_v.shape[0]))]
    assert checks.compare_arrays("x", [(got_v, got_v), (got_e, got_e)], 1e-9, "r").ok
    assert not checks.compare_arrays("x", [(got_v, swapped)], 1e-9, "r").ok


def _predictions(mdl, prepared, cache, region_ids):
    with rc_tensor.no_grad():
        return {
            r: float(mdl.predict_region(prepared, r, cache).values[0, 0]) for r in region_ids
        }


def test_ego_carving_fails_on_truncated_subgraph(world):
    _, _, mdl, prepared, cache = world
    sample = prepared.region_ids[:5]
    reference = checks.full_graph_predictions(mdl, prepared, cache, sample)
    assert checks.check_ego_carving(_predictions(mdl, prepared, cache, sample), reference).ok

    target = sample[2]
    ego = prepared.egos[target]
    into_target = np.flatnonzero(ego.od_dst == ego.target_local)
    assert into_target.size
    keep = np.ones(ego.od_dst.size, dtype=bool)
    keep[into_target[0]] = False
    truncated = rc_model.RegionEgo(
        nodes=ego.nodes,
        target_local=ego.target_local,
        spatial_src=ego.spatial_src,
        spatial_dst=ego.spatial_dst,
        spatial_feats=ego.spatial_feats,
        od_src=ego.od_src[keep],
        od_dst=ego.od_dst[keep],
        od_zflow=rc_tensor.Tensor(ego.od_zflow.values[keep]),
    )
    prepared.egos[target] = truncated
    try:
        predicted = _predictions(mdl, prepared, cache, sample)
    finally:
        prepared.egos[target] = ego
    assert not checks.check_ego_carving(predicted, reference).ok


@pytest.fixture(scope="module")
def predict_files(world, tmp_path_factory):
    dataset, _, mdl, prepared, _ = world
    root = tmp_path_factory.mktemp("predict")
    write_dataset(dataset, root / "data")
    ckpt = root / "checkpoint.json"
    rc_model.save_checkpoint(mdl, ckpt)
    out = root / "predictions.csv"
    assert cli.main(["predict", "--checkpoint", str(ckpt), "--data", str(root / "data"), "--out", str(out)]) == 0
    return out, ckpt, prepared.region_ids


def _rewrite(src, dst, edit):
    rows = checks.read_predictions(src)
    rows = edit(rows)
    with open(dst, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=["region_id", "prediction_raw", "prediction_normalized"])
        writer.writeheader()
        writer.writerows(rows)


def _scale_first_raw(rows):
    rows[0]["prediction_raw"] = repr(float(rows[0]["prediction_raw"]) * (1 + 1e-9))
    return rows


def _nan_first(rows):
    rows[0]["prediction_normalized"] = "nan"
    return rows


@pytest.mark.parametrize(
    "edit",
    [lambda rows: rows[:-1], lambda rows: rows + rows[:1], _scale_first_raw, _nan_first],
    ids=["missing_row", "duplicate_row", "raw_off_by_1e-9", "nan_value"],
)
def test_predict_file_fails_on_corrupted_csv(predict_files, tmp_path, edit):
    out, ckpt, region_ids = predict_files
    assert checks.check_predict_file(out, region_ids, ckpt).ok
    bad = tmp_path / "bad.csv"
    _rewrite(out, bad, edit)
    assert not checks.check_predict_file(bad, region_ids, ckpt).ok


def test_training_check_fails_when_loss_did_not_drop(world):
    _, splits, mdl, prepared, _ = world
    mse = checks.split_mse(mdl, prepared, splits[0])
    assert checks.check_training_lowers_mse(0.5 * mse, mse).ok
    assert not checks.check_training_lowers_mse(mse, mse).ok
    assert not checks.check_training_lowers_mse(float("nan"), mse).ok
