"""Correctness checks run at the end of every benchmark run.

Each check compares the program's output with a computation made apart from
it (plain numpy from the paper's equations, a central difference, values read
back from written files), or with a property the method must have.  Each
returns a ``CheckResult``; a failed check counts as a failed operation.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from roadcarbon import layers, model as rc_model, tensor as rc_tensor

LEAKY_SLOPE = 0.2  # the paper's leaky-ReLU slope for attention scores and the head


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str


# ---------------------------------------------------------------------------
# gradient: directional derivative against a central difference


def batch_loss(mdl, prepared, batch, cache):
    """The training loss of one minibatch, as ``train.train`` forms it."""
    preds = rc_tensor.vstack([mdl.predict_region(prepared, rid, cache) for rid in batch])
    targets = rc_tensor.Tensor(
        np.array([prepared.regions[r].label_norm for r in batch]).reshape(-1, 1)
    )
    return rc_tensor.mse_loss(preds, targets)


def batch_gradient(mdl, prepared, batch, cache) -> dict[str, np.ndarray]:
    """Parameter gradients of one minibatch loss; untouched parameters get zeros."""
    params = mdl.parameters()
    for p in params:
        p.tensor.grad = None
    rc_tensor.backward(batch_loss(mdl, prepared, batch, cache))
    grads = {
        p.name: p.grad.copy() if p.grad is not None else np.zeros_like(p.values)
        for p in params
    }
    for p in params:
        p.tensor.grad = None
    return grads


def check_directional_derivative(
    mdl, prepared, batch, cache, grads, seed: int, tol: float = 1e-6
) -> CheckResult:
    """<grad, u> for a seeded unit direction u over all parameters, against
    (L(theta + h u) - L(theta - h u)) / 2h with the region cache held fixed.

    The difference carries a rounding error of about eps * |L| / h, so the
    tolerance is ``tol`` relative plus 100 times that bound absolute.  A
    leaky-ReLU kink within h of the current point also spoils the difference,
    so a mismatch at h = 1e-5 is retried at h = 1e-6; a wrong gradient
    disagrees at every step.
    """
    params = mdl.parameters()
    rng = np.random.default_rng(np.random.SeedSequence([seed, 101]))
    direction = {p.name: rng.standard_normal(p.values.shape) for p in params}
    norm = np.sqrt(sum(float((d * d).sum()) for d in direction.values()))
    analytic = sum(float((grads[name] * d).sum()) for name, d in direction.items()) / norm

    saved = {p.name: p.values.copy() for p in params}
    details = []
    try:
        for h in (1e-5, 1e-6):
            losses = []
            with rc_tensor.no_grad():
                for sign in (1.0, -1.0):
                    for p in params:
                        p.tensor.values = saved[p.name] + (sign * h / norm) * direction[p.name]
                    losses.append(batch_loss(mdl, prepared, batch, cache).values[0, 0])
            numeric = (losses[0] - losses[1]) / (2.0 * h)
            rounding = 100 * np.finfo(float).eps * max(abs(x) for x in losses) / h
            err = abs(analytic - numeric)
            allowed = tol * max(abs(analytic), abs(numeric)) + rounding
            details.append(
                f"h={h:g}: numeric={numeric:.10e} |diff|={err:.2e} (allowed {allowed:.2e})"
            )
            if err <= allowed:
                break
    finally:
        for p in params:
            p.tensor.values = saved[p.name]
    return CheckResult(
        "gradient_directional_derivative",
        bool(err <= allowed),
        f"analytic={analytic:.10e}; " + "; ".join(details),
    )


# ---------------------------------------------------------------------------
# road EGAT stack against a plain-numpy implementation


def egat_reference(V, E, src, dst, layer_values) -> tuple[np.ndarray, np.ndarray]:
    """The road convolution stack from its equations, one destination at a time.

    Per layer with weights (W, U, a, A): every arc k = (s -> d) is scored by
    leaky_relu([V_d | E_k | V_s] U a); each destination also scores a
    self-loop [V_d | 0 | V_d].  Scores are softmax-normalised over each
    destination's incoming arcs plus its self-loop, and the new node row is
    the weighted sum of the sources' V W rows.  The new arc feature is
    [V_d | E_k | V_s] A.
    """
    for W, U, a, A in layer_values:
        n, d_in = V.shape
        d_e = U.shape[0] - 2 * d_in
        incoming = [[] for _ in range(n)]
        for k, d in enumerate(dst):
            incoming[d].append(k)
        V_new = np.zeros((n, W.shape[1]))
        for i in range(n):
            ks = incoming[i]
            triples = [np.concatenate([V[i], E[k], V[src[k]]]) for k in ks]
            triples.append(np.concatenate([V[i], np.zeros(d_e), V[i]]))
            sources = np.array([V[src[k]] for k in ks] + [V[i]])
            raw = (np.array(triples) @ U @ a).ravel()
            scores = np.where(raw >= 0, raw, LEAKY_SLOPE * raw)
            weights = np.exp(scores - scores.max())
            weights /= weights.sum()
            V_new[i] = weights @ (sources @ W)
        arc_triples = [np.concatenate([V[d], E[k], V[s]]) for k, (s, d) in enumerate(zip(src, dst))]
        E = np.array(arc_triples) @ A
        V = V_new
    return V, E


def road_stack_outputs(mdl, prep) -> tuple[np.ndarray, np.ndarray]:
    """The program's road stack output (nodes, arcs) for one prepared region."""
    with rc_tensor.no_grad():
        V, E, _ = layers.stack_egat(
            prep.node_feats, prep.arc_feats, prep.arc_src, prep.arc_dst, mdl.road_layers
        )
    return V.values, E.values


def check_road_stack(mdl, prep, tol: float = 1e-9) -> CheckResult:
    got_v, got_e = road_stack_outputs(mdl, prep)
    weights = [(p.W.values, p.U.values, p.a.values, p.A.values) for p in mdl.road_layers]
    want_v, want_e = egat_reference(
        prep.node_feats.values, prep.arc_feats.values, prep.arc_src, prep.arc_dst, weights
    )
    return compare_arrays(
        "road_egat_reference", [(got_v, want_v), (got_e, want_e)], tol, f"region {prep.region_id}"
    )


def compare_arrays(name: str, pairs, tol: float, where: str) -> CheckResult:
    """Max absolute difference, relative to max(1, |reference|), over all pairs."""
    worst = 0.0
    for got, want in pairs:
        if got.shape != want.shape:
            return CheckResult(name, False, f"{where}: shape {got.shape} vs reference {want.shape}")
        scale = max(1.0, float(np.abs(want).max(initial=0.0)))
        worst = max(worst, float(np.abs(got - want).max(initial=0.0)) / scale)
    ok = bool(np.isfinite(worst) and worst <= tol)
    return CheckResult(name, ok, f"{where}: max scaled diff {worst:.2e} (tol {tol:g})")


# ---------------------------------------------------------------------------
# ego-subgraph carving: full region graph over the cache, numpy fusion and head


def _fusion_np(inputs: list[np.ndarray], fusion) -> np.ndarray:
    c, W, b = fusion.c.values, fusion.W.values, fusion.b.values
    scores = np.array([(np.tanh(x @ W + b) @ c).item() for x in inputs])
    beta = np.exp(scores - scores.max())
    beta /= beta.sum()
    return sum(w * x for w, x in zip(beta, inputs))


def _head_np(x: np.ndarray, head) -> float:
    hidden = x @ head["W1"].values + head["b1"].values
    hidden = np.where(hidden >= 0, hidden, LEAKY_SLOPE * hidden)
    return (hidden @ head["W2"].values + head["b2"].values).item()


def full_graph_predictions(mdl, prepared, cache, region_ids) -> dict[str, float]:
    """Normalised predictions from the region stack run once on the whole
    region graph, every row taken from the cache, then numpy fusion and head."""
    rows = rc_tensor.Tensor(np.concatenate([cache.reps[r] for r in prepared.region_ids]))
    typed = []
    if mdl.use_spatial:
        typed.append(
            ("rn", prepared.region_spatial_src, prepared.region_spatial_dst, prepared.region_spatial_feats)
        )
    if mdl.use_od:
        embed_w, embed_b = mdl.region_od_embed
        od_feats = prepared.region_od_zflow.values @ embed_w.values + embed_b.values
        typed.append(
            ("od", prepared.region_od_src, prepared.region_od_dst, rc_tensor.Tensor(od_feats))
        )
    with rc_tensor.no_grad():
        v_out, _ = layers.stack_hetero(rows, typed, mdl.region_layers, mdl.region_fusion)
    out = {}
    for rid in region_ids:
        t = prepared.region_index(rid)
        fused = _fusion_np([cache.reps[rid], v_out.values[t : t + 1]], mdl.final_fusion)
        out[rid] = _head_np(fused, mdl.head)
    return out


def check_ego_carving(
    predicted: dict[str, float], reference: dict[str, float], tol: float = 1e-9
) -> CheckResult:
    worst = max(abs(predicted[r] - reference[r]) for r in reference)
    ok = bool(np.isfinite(worst) and worst <= tol)
    return CheckResult(
        "ego_subgraph_vs_full_graph",
        ok,
        f"{len(reference)} regions: max |pred - full-graph| {worst:.2e} (tol {tol:g})",
    )


# ---------------------------------------------------------------------------
# predict output file


def read_predictions(csv_path) -> list[dict]:
    with open(csv_path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def check_predict_file(csv_path, region_ids, checkpoint_path, tol: float = 1e-12) -> CheckResult:
    """One row per region, finite values, raw == expm1(z * label_std + label_mean)."""
    name = "predict_file"
    rows = read_predictions(csv_path)
    ids = [row["region_id"] for row in rows]
    if len(ids) != len(region_ids) or set(ids) != set(region_ids):
        return CheckResult(name, False, f"{len(ids)} rows for {len(region_ids)} regions")
    z = np.array([float(row["prediction_normalized"]) for row in rows])
    raw = np.array([float(row["prediction_raw"]) for row in rows])
    if not (np.isfinite(z).all() and np.isfinite(raw).all()):
        return CheckResult(name, False, "non-finite prediction")
    with open(checkpoint_path, encoding="utf-8") as fh:
        stats = json.load(fh)["stats"]
    expected = np.expm1(z * stats["label_std"] + stats["label_mean"])
    worst = float((np.abs(raw - expected) / np.maximum(np.abs(expected), 1e-300)).max())
    return CheckResult(
        name, worst <= tol, f"{len(rows)} rows, max rel |raw - expm1(...)| {worst:.2e} (tol {tol:g})"
    )


# ---------------------------------------------------------------------------
# training lowers the train-split loss


def split_mse(mdl, prepared, region_ids) -> float:
    """Normalised-space MSE over ``region_ids`` with a cache fresh at the
    model's current parameters."""
    cache = rc_model.refresh_region_cache(mdl, prepared, 0) if mdl.use_region else None
    with rc_tensor.no_grad():
        preds = np.array(
            [mdl.predict_region(prepared, r, cache).values[0, 0] for r in region_ids]
        )
    labels = np.array([prepared.regions[r].label_norm for r in region_ids])
    return float(np.mean((preds - labels) ** 2))


def check_training_lowers_mse(trained_mse: float, fresh_mse: float) -> CheckResult:
    ok = bool(np.isfinite(trained_mse) and trained_mse < fresh_mse)
    return CheckResult(
        "train_mse_below_initial",
        ok,
        f"trained {trained_mse:.6f} vs freshly initialised {fresh_mse:.6f}",
    )
