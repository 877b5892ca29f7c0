"""Training loop with the epoch-lagged region cache, plus evaluation metrics."""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .model import EmissionModel, PreparedData, RegionCache, refresh_region_cache
from .optim import Adam
from .tensor import Tensor, backward, mse_loss, no_grad

logger = logging.getLogger(__name__)


class NonFiniteError(RuntimeError):
    """A training step met a non-finite loss, parameter value or gradient."""


@dataclass
class Metrics:
    r2: float
    mae: float
    rmse: float


def compute_metrics(y_true: np.ndarray, y_pred: np.ndarray) -> Metrics:
    """R^2, MAE, RMSE; constant targets make R^2 undefined (NaN, warned)."""
    y_true = np.asarray(y_true, dtype=np.float64).ravel()
    y_pred = np.asarray(y_pred, dtype=np.float64).ravel()
    if y_true.size == 0:
        raise ValueError("metrics of an empty split")
    err = y_pred - y_true
    mae = float(np.abs(err).mean())
    rmse = float(np.sqrt((err * err).mean()))
    denom = float(((y_true - y_true.mean()) ** 2).sum())
    if denom == 0.0:
        logger.warning("constant targets: R^2 undefined, reporting NaN")
        r2 = float("nan")
    else:
        r2 = float(1.0 - (err * err).sum() / denom)
    return Metrics(r2=r2, mae=mae, rmse=rmse)


def predict_split(
    model: EmissionModel,
    prepared: PreparedData,
    region_ids: list[str],
    cache: RegionCache | None,
) -> dict[str, float]:
    """Normalized-space predictions, graph-free, one region at a time.

    ``predict`` writes these.  The benchmark pins its intra passes per
    predicted region at 2.0 (the cache refresh plus this pass), so this
    stays per region until the benchmark changes; ``evaluate`` runs its
    split as one batch.
    """
    preds = {}
    with no_grad():
        for rid in region_ids:
            preds[rid] = float(model.predict_region(prepared, rid, cache).values[0, 0])
    return preds


def evaluate(
    model: EmissionModel,
    prepared: PreparedData,
    region_ids: list[str],
    cache: RegionCache | None,
) -> tuple[Metrics, Metrics]:
    """(normalized-space, raw-space) metrics over one split, predicted as
    one batch."""
    if not region_ids:
        raise ValueError("evaluate of an empty split")
    with no_grad():
        p_norm = model.predict_batch(prepared, region_ids, cache).values[:, 0]
    y_norm = np.array([prepared.regions[r].label_norm for r in region_ids])
    y_raw = np.array([prepared.regions[r].label_raw for r in region_ids])
    p_raw = np.array([prepared.stats.denormalize_label(z) for z in p_norm])
    return compute_metrics(y_norm, p_norm), compute_metrics(y_raw, p_raw)


@dataclass
class TrainResult:
    epoch_log: list[dict]
    best_epoch: int
    best_val_r2: float
    cache_refreshes: int
    steps: int


def _first_non_finite(params) -> str | None:
    """The first parameter value, else the first gradient, holding a
    non-finite number; values come first because a bad value spoils every
    gradient."""
    for what in ("value", "gradient"):
        for p in params:
            arr = p.values if what == "value" else p.grad
            if arr is not None and not np.isfinite(arr).all():
                return f"parameter {p.name} {what}"
    return None


def _train_step(
    model: EmissionModel,
    prepared: PreparedData,
    batch: list[str],
    cache: RegionCache | None,
    opt: Adam,
    where: str,
) -> float:
    """One Adam step on one minibatch, run as one batched forward; returns
    the batch MSE.

    A non-finite loss, parameter value or gradient raises NonFiniteError
    naming ``where`` (epoch and batch) before the step changes any
    parameter.  ``backward`` releases the step's compute graph as it walks
    it, so the step never holds the whole graph and all its inner
    gradients at once.
    """
    preds = model.predict_batch(prepared, batch, cache)
    targets = Tensor(np.array([prepared.regions[r].label_norm for r in batch]).reshape(-1, 1))
    loss = mse_loss(preds, targets)
    opt.zero_grad()
    backward(loss)
    value = float(loss.values[0, 0])
    bad = _first_non_finite(opt.params)
    if bad is not None or not np.isfinite(value):
        detail = f"loss {value}" + (f", {bad} is not finite" if bad else "")
        raise NonFiniteError(f"{where}: non-finite training step: {detail}")
    opt.step()
    return value


def train(
    model: EmissionModel,
    prepared: PreparedData,
    splits: tuple[list[str], list[str], list[str]],
    config: RunConfig,
    stop_below_train_mse: float | None = None,
) -> TrainResult:
    """Minibatch training with one cache refresh per epoch and best-val restore.

    Per epoch: refresh the region cache (skipped when the region level is
    ablated), shuffle the train regions, step Adam per minibatch, then log
    train MSE and validation metrics computed against the same cache.  The
    best-validation-R^2 parameter snapshot is restored at the end.  Early
    stopping after ``patience`` epochs without improvement (0 disables).
    A step with a non-finite loss, parameter or gradient raises
    NonFiniteError.
    """
    train_ids, val_ids, _ = splits
    if not train_ids:
        raise ValueError("empty train split")
    params = model.parameters()
    opt = Adam(params, lr=config.lr)
    shuffle_rng = np.random.default_rng(np.random.SeedSequence([config.seed, 23]))

    best_val = -np.inf
    best_epoch = -1
    best_values = None
    epochs_since_best = 0
    cache_refreshes = 0
    steps = 0
    epoch_log: list[dict] = []

    start = time.monotonic()
    for epoch in range(config.epochs):
        if model.use_region:
            cache = refresh_region_cache(model, prepared, epoch)
            cache_refreshes += 1
        else:
            cache = None

        order = list(np.array(train_ids)[shuffle_rng.permutation(len(train_ids))])
        sq_err_sum = 0.0
        count = 0
        for index, lo in enumerate(range(0, len(order), config.batch_size)):
            batch = order[lo : lo + config.batch_size]
            where = f"epoch {epoch} batch {index}"
            batch_mse = _train_step(model, prepared, batch, cache, opt, where)
            steps += 1
            sq_err_sum += batch_mse * len(batch)
            count += len(batch)

        train_mse = float(sq_err_sum / count)
        val_norm, _ = evaluate(model, prepared, val_ids, cache)
        entry = {
            "epoch": epoch,
            "train_mse": train_mse,
            "val_r2": val_norm.r2,
            "val_mae": val_norm.mae,
            "val_rmse": val_norm.rmse,
            "cache_refreshes": cache_refreshes,
            "steps": steps,
        }
        epoch_log.append(entry)
        logger.info(
            "epoch %d train_mse=%.6f val_r2=%.4f (%.1fs)",
            epoch,
            train_mse,
            val_norm.r2,
            time.monotonic() - start,
        )

        if np.isfinite(val_norm.r2) and val_norm.r2 > best_val:
            best_val = val_norm.r2
            best_epoch = epoch
            best_values = {p.name: p.values.copy() for p in params}
            epochs_since_best = 0
        else:
            epochs_since_best += 1
            if config.patience and epochs_since_best >= config.patience:
                logger.info("early stop at epoch %d (best %d)", epoch, best_epoch)
                break
        if stop_below_train_mse is not None and train_mse < stop_below_train_mse:
            logger.info("train MSE target %g reached at epoch %d", stop_below_train_mse, epoch)
            break

    if best_values is not None:
        for p in params:
            p.tensor.values = best_values[p.name].copy()
    else:
        best_epoch = len(epoch_log) - 1  # no finite val R^2 seen; keep final params

    return TrainResult(
        epoch_log=epoch_log,
        best_epoch=best_epoch,
        best_val_r2=float(best_val) if np.isfinite(best_val) else float("nan"),
        cache_refreshes=cache_refreshes,
        steps=steps,
    )
