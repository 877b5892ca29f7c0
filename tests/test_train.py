import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_impl import record_caches

from roadcarbon.config import ABLATION_CHOICES, POOLING_CHOICES, RunConfig
from roadcarbon.model import EmissionModel, fit_normalization, prepare_dataset, refresh_region_cache
from roadcarbon.synth import SynthParams, generate_synthetic
from roadcarbon.tensor import Tensor, backward, mse_loss
from roadcarbon.train import Metrics, compute_metrics, evaluate, predict_split, train


CFG = RunConfig(hidden=8, layers=2, layers_road=2, seed=7, epochs=3, batch_size=8)


@pytest.fixture(scope="module")
def setting():
    ds = generate_synthetic(SynthParams(n_regions=8, seed=6, grid_side=3))
    splits = (ds.region_ids[:5], ds.region_ids[5:7], ds.region_ids[7:])
    stats = fit_normalization(ds, splits[0])
    prep = prepare_dataset(ds, stats, hops=CFG.layers)
    return ds, splits, stats, prep


def test_metrics_perfect_predictions():
    m = compute_metrics([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert (m.r2, m.mae, m.rmse) == (1.0, 0.0, 0.0)


def test_metrics_mean_predictor_r2_zero():
    y = np.array([1.0, 2.0, 3.0, 10.0])
    m = compute_metrics(y, np.full(4, y.mean()))
    assert m.r2 == pytest.approx(0.0, abs=1e-12)


def test_metrics_two_point_hand_case():
    m = compute_metrics([0.0, 2.0], [1.0, 1.0])
    assert m.r2 == pytest.approx(0.0)
    assert m.mae == 1.0
    assert m.rmse == 1.0


def test_metrics_rmse_squares_to_mse_and_dominates_mae():
    rng = np.random.default_rng(0)
    y, p = rng.normal(size=30), rng.normal(size=30)
    m = compute_metrics(y, p)
    assert m.rmse**2 == pytest.approx(((p - y) ** 2).mean())
    assert m.rmse >= m.mae >= 0


def test_metrics_constant_target_reports_nan(caplog):
    with caplog.at_level(logging.WARNING):
        m = compute_metrics([2.0, 2.0], [1.0, 3.0])
    assert np.isnan(m.r2)
    assert any("constant" in r.message for r in caplog.records)


def test_train_empty_split_rejected(setting):
    ds, splits, stats, prep = setting
    model = EmissionModel(CFG, stats)
    with pytest.raises(ValueError, match="empty train split"):
        train(model, prep, ([], splits[1], splits[2]), CFG)


def test_train_runs_and_logs(setting):
    ds, splits, stats, prep = setting
    model = EmissionModel(CFG, stats)
    result = train(model, prep, splits, CFG)
    assert len(result.epoch_log) == CFG.epochs
    assert result.cache_refreshes == CFG.epochs
    assert result.steps == CFG.epochs  # 5 train regions, batch 8 -> 1 step/epoch
    for entry in result.epoch_log:
        assert set(entry) == {
            "epoch", "train_mse", "val_r2", "val_mae", "val_rmse",
            "cache_refreshes", "steps",
        }
        assert isinstance(entry["train_mse"], float)


def test_train_fully_seeded_runs_identical(setting):
    ds, splits, stats, prep = setting

    def run():
        model = EmissionModel(CFG, stats)
        return train(model, prep, splits, CFG).epoch_log

    assert run() == run()


def test_train_tracks_best_val_epoch(setting):
    ds, splits, stats, prep = setting
    model = EmissionModel(CFG.with_overrides(epochs=4), stats)
    result = train(model, prep, splits, CFG.with_overrides(epochs=4))
    finite = [e["val_r2"] for e in result.epoch_log if np.isfinite(e["val_r2"])]
    assert result.best_val_r2 == max(finite)
    assert result.epoch_log[result.best_epoch]["val_r2"] == result.best_val_r2


def test_no_region_level_train_does_zero_refreshes(setting):
    ds, splits, stats, prep = setting
    cfg = CFG.with_overrides(ablation="no_region_level")
    model = EmissionModel(cfg, stats)
    result = train(model, prep, splits, cfg)
    assert result.cache_refreshes == 0


def test_epoch_lag_cache_constant_within_epoch(setting):
    ds, splits, stats, prep = setting
    cfg = CFG.with_overrides(epochs=3, batch_size=8)
    # 5 train regions with batch 8 give one step per epoch; the validation
    # call reads the cache a second time
    model = EmissionModel(cfg, stats)
    seen = record_caches(model)
    result = train(model, prep, (splits[0], splits[1], splits[2]), cfg)
    assert result.cache_refreshes == 3
    by_epoch = {}
    for epoch, fp in seen:
        by_epoch.setdefault(epoch, set()).add(fp)
    assert sorted(by_epoch) == [0, 1, 2]
    for epoch, fps in by_epoch.items():
        assert len(fps) == 1, f"cache changed within epoch {epoch}"


def test_early_stopping_respects_patience(setting):
    ds, splits, stats, prep = setting
    cfg = CFG.with_overrides(epochs=30, patience=2)
    model = EmissionModel(cfg, stats)
    # single-region val: R^2 is NaN every epoch, so no epoch ever improves
    never_improving = (splits[0], splits[2][:1], splits[2])
    result = train(model, prep, never_improving, cfg)
    assert len(result.epoch_log) == 2


def test_stop_below_train_mse(setting):
    ds, splits, stats, prep = setting
    cfg = CFG.with_overrides(epochs=30, patience=0)
    model = EmissionModel(cfg, stats)
    result = train(model, prep, splits, cfg, stop_below_train_mse=1e9)
    assert len(result.epoch_log) == 1  # any finite loss beats 1e9


@pytest.mark.parametrize("ablation", ["none", "no_region_level"])
def test_batched_evaluate_matches_per_region_predictions(setting, ablation):
    ds, splits, stats, prep = setting
    model = EmissionModel(CFG.with_overrides(ablation=ablation), stats)
    cache = refresh_region_cache(model, prep, 0) if model.use_region else None
    for ids in splits:
        preds = predict_split(model, prep, ids, cache)
        p_norm = np.array([preds[r] for r in ids])
        want = (
            compute_metrics([prep.regions[r].label_norm for r in ids], p_norm),
            compute_metrics(
                [prep.regions[r].label_raw for r in ids],
                [prep.stats.denormalize_label(z) for z in p_norm],
            ),
        )
        for got_m, want_m in zip(evaluate(model, prep, ids, cache), want):
            for name in ("r2", "mae", "rmse"):
                got_v, want_v = getattr(got_m, name), getattr(want_m, name)
                if np.isnan(want_v):  # a one-region split has no R^2
                    assert np.isnan(got_v)
                else:
                    assert abs(got_v - want_v) <= 1e-12 * max(abs(want_v), 1.0), (ids, name)


def test_evaluate_reports_norm_and_raw(setting):
    ds, splits, stats, prep = setting
    model = EmissionModel(CFG, stats)
    cache = refresh_region_cache(model, prep, 0)
    norm, raw = evaluate(model, prep, splits[0], cache)
    assert isinstance(norm, Metrics) and isinstance(raw, Metrics)
    assert raw.mae > 0
    with pytest.raises(ValueError, match="empty"):
        evaluate(model, prep, [], cache)


@settings(max_examples=12, deadline=None)
@given(
    communities=st.integers(1, 2),
    n_regions=st.integers(2, 5),
    grid_side=st.integers(2, 3),
    ablation=st.sampled_from(ABLATION_CHOICES),
    pooling=st.sampled_from(POOLING_CHOICES),
    seed=st.integers(0, 2**16),
)
def test_one_or_two_communities_per_region_train_a_step(
    communities, n_regions, grid_side, ablation, pooling, seed
):
    # one community gives every community graph an empty spatial pool
    ds = generate_synthetic(
        SynthParams(n_regions=n_regions, grid_side=grid_side, communities=communities, seed=seed)
    )
    ids = ds.region_ids
    stats = fit_normalization(ds, ids)
    config = CFG.with_overrides(ablation=ablation, pooling=pooling)
    prep = prepare_dataset(ds, stats, hops=config.layers)
    model = EmissionModel(config, stats)
    cache = refresh_region_cache(model, prep, 0) if model.use_region else None
    targets = Tensor(np.array([prep.regions[r].label_norm for r in ids]).reshape(-1, 1))
    loss = mse_loss(model.predict_batch(prep, ids, cache), targets)
    backward(loss)
    assert np.isfinite(loss.values[0, 0])
    for p in model.parameters():
        assert p.grad is not None and np.isfinite(p.grad).all(), p.name
