"""Training and prediction benchmark over synthetic worlds.

A run generates one world from the seed with the program's own generator
(``roadcarbon gen-synth``, in a child process so the world's construction does
not count toward this process's memory), then repeats whole rounds until the
measuring time is spent.  One round is:

* set-up as ``roadcarbon train`` does it (load the CSV directory, split, fit
  normalisation, build the model, prepare the dataset), ``SETUP_REPEATS``
  times;
* one ``train.train`` call of ``World.epochs`` epochs with early stopping off;
* one in-process ``roadcarbon predict`` (``cli.main``) on the saved checkpoint.

Each timed operation runs under ``clock.timed``, which reports it in
reference seconds: wall time corrected for the machine's drifting speed.
The correctness checks in ``checks`` then run on the last round's model and
files.  With ``trace`` on, the rounds run under ``tracing.Tracer`` and the run
reports per-layer figures instead of the end-to-end ones.
"""

from __future__ import annotations

import logging
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import clock
import tracing
from roadcarbon import cli, config as rc_config, data, model as rc_model, tensor as rc_tensor

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_REPEATS = 2
ROUND_OPS = SETUP_REPEATS + 2  # set-ups, one train call, one predict
CONFIG_SEED = 2  # RunConfig seed: split, initialisation and shuffling
EGO_SAMPLE = 4  # regions whose predictions are recomputed on the full region graph


@dataclass(frozen=True)
class World:
    """A synthetic world (``gen-synth`` flags) and the epochs per ``train`` call."""

    regions: int
    grid_side: int
    communities: int
    epochs: int


WORLDS = {
    # the acceptance world's shape: many 16-intersection regions
    "paper": World(regions=200, grid_side=4, communities=8, epochs=1),
    # few regions with large road networks and all-pairs community OD
    # two epochs, so that a step's graph is built while the previous one is held
    "large-regions": World(regions=16, grid_side=20, communities=25, epochs=2),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "epoch_s": "s",
    "predict_regions_per_s": "regions/s",
    "peak_rss_mb": "MB",
}


class OpFailed(RuntimeError):
    pass


@dataclass
class State:
    splits: tuple
    stats: object
    model: object
    prepared: object


@dataclass
class Round:
    setup_s: list
    epoch_s: float
    predict_regions_per_s: float
    ref_per_own: float  # reference seconds per own second over the round's operations
    state: State | None  # kept for the last round only
    checkpoint: Path
    predictions: Path


def generate_world(world: World, seed: int, out_dir: Path) -> None:
    cmd = [
        sys.executable, "-m", "roadcarbon.cli", "gen-synth", "--out", str(out_dir),
        "--regions", str(world.regions), "--grid-side", str(world.grid_side),
        "--communities", str(world.communities), "--seed", str(seed),
    ]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise OpFailed(f"gen-synth exited {proc.returncode}: {proc.stderr[-2000:]}")


def setup(cfg) -> State:
    """What ``cli.cmd_train`` does before training, through module attributes
    so that a traced run sees each call."""
    dataset = data.load_dataset(cfg.data_dir)
    splits = data.split_dataset(dataset, cfg.fractions, cfg.seed)
    stats = rc_model.fit_normalization(dataset, splits[0])
    mdl = rc_model.EmissionModel(cfg, stats)
    prepared = rc_model.prepare_dataset(dataset, stats, cfg.min_flow, hops=cfg.layers)
    return State(splits, stats, mdl, prepared)


def train_module():
    # the package attribute ``roadcarbon.train`` is the function, not the module
    return sys.modules["roadcarbon.train"]


def timed_train(state: State, cfg) -> clock.Timing:
    """One ``train.train`` call; the timing is per epoch."""
    result, t = clock.timed(train_module().train, state.model, state.prepared, state.splits, cfg)
    if len(result.epoch_log) != cfg.epochs:
        raise OpFailed(f"train ran {len(result.epoch_log)} epochs, expected {cfg.epochs}")
    return clock.Timing(t.own_s / cfg.epochs, t.ref_s / cfg.epochs)


class Ops:
    """Operations attempted and failed.  A check that fails is counted and the
    run goes on; an exception aborts the run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, n: int, failed: int = 0) -> None:
        self.attempted += n
        self.failed += failed


def one_round(cfg, workdir: Path, tracer, label: str) -> Round:
    span = tracer.span if tracer else (lambda name: nullcontext())
    setups = []
    for _ in range(SETUP_REPEATS):
        with span("bench.setup"):
            state, t = clock.timed(setup, cfg)
        setups.append(t)
    epoch = timed_train(state, cfg)
    ckpt = workdir / f"checkpoint-{label}.json"
    rc_model.save_checkpoint(state.model, ckpt)
    out = workdir / f"predictions-{label}.csv"
    argv = ["predict", "--checkpoint", str(ckpt), "--data", cfg.data_dir, "--out", str(out)]
    code, predict = clock.timed(cli.main, argv)
    if code != 0:
        raise OpFailed(f"predict exited {code}")
    n_rows = len(checks.read_predictions(out))

    def show(timings):
        return " ".join(f"{t.ref_s:.4f}/{t.own_s:.4f}" for t in timings)

    print(
        f"round {label} (reference/own s): setup {show(setups)} epoch {show([epoch])} "
        f"predict {show([predict])}",
        file=sys.stderr,
    )
    timings = setups + [epoch, predict]
    return Round(
        [t.ref_s for t in setups], epoch.ref_s, n_rows / predict.ref_s,
        sum(t.ref_s for t in timings) / sum(t.own_s for t in timings),
        state, ckpt, out,
    )


def run_checks(last: Round, cfg, seed: int) -> list[checks.CheckResult]:
    """The five checks, on the model as ``predict`` loaded it from the last
    round's checkpoint and on that round's predictions file."""
    state = last.state
    prepared, train_ids = state.prepared, state.splits[0]
    rng = np.random.default_rng(np.random.SeedSequence([seed, 7]))
    mdl = rc_model.load_checkpoint(last.checkpoint)
    cache = rc_model.refresh_region_cache(mdl, prepared, 0)
    written = {
        row["region_id"]: float(row["prediction_normalized"])
        for row in checks.read_predictions(last.predictions)
    }
    results = []

    batch = train_ids[: cfg.batch_size]
    grads = checks.batch_gradient(mdl, prepared, batch, cache)
    results.append(checks.check_directional_derivative(mdl, prepared, batch, cache, grads, seed))

    region = prepared.region_ids[rng.integers(len(prepared.region_ids))]
    results.append(checks.check_road_stack(mdl, prepared.regions[region]))

    sample = sorted(rng.choice(prepared.region_ids, size=EGO_SAMPLE, replace=False).tolist())
    reference = checks.full_graph_predictions(mdl, prepared, cache, sample)
    results.append(checks.check_ego_carving({r: written[r] for r in sample}, reference))

    results.append(checks.check_predict_file(last.predictions, prepared.region_ids, last.checkpoint))

    # predict refreshed its cache at the trained parameters, so its rows for
    # the train regions give the trained model's train-split MSE
    labels = np.array([prepared.regions[r].label_norm for r in train_ids])
    trained_mse = float(np.mean((np.array([written[r] for r in train_ids]) - labels) ** 2))
    fresh = rc_model.EmissionModel(cfg, state.stats)
    results.append(
        checks.check_training_lowers_mse(trained_mse, checks.split_mse(fresh, prepared, train_ids))
    )
    return results


def matmul_flops(node) -> int:
    a, b = node._parents
    m, k = a.shape
    n = b.shape[1]
    return 2 * m * k * n * (1 + int(a.requires_grad) + int(b.requires_grad))


def step_graph_stats(state: State, cfg, tracer) -> dict:
    """Counts over the recorded graph of one training step (the first train batch)."""
    mdl, prepared = state.model, state.prepared
    cache = rc_model.refresh_region_cache(mdl, prepared, 0)
    batch = state.splits[0][: cfg.batch_size]
    calls_before = tracer.counts["layers.egat_layer"]
    loss = checks.batch_loss(mdl, prepared, batch, cache)
    egat_calls = tracer.counts["layers.egat_layer"] - calls_before
    nodes = rc_tensor.toposort(loss)
    recorded = [n for n in nodes if n._op is not None]
    graph_bytes = sum(n.values.nbytes for n in nodes)
    flops = sum(matmul_flops(n) for n in recorded if n._op == "matmul")
    params = mdl.parameters()
    for p in params:
        p.tensor.grad = None
    rc_tensor.backward(loss)
    grad_bytes = sum(n.grad.nbytes for n in nodes if n.grad is not None)
    for p in params:
        p.tensor.grad = None
    return {
        "tensor.nodes_per_region": (len(recorded) / len(batch), "count"),
        "layers.egat_calls_per_step": (egat_calls, "count"),
        "tensor.matmul_gflop_per_step": (flops / 1e9, "GFLOP_computed"),
        "tensor.graph_mb_per_step": (graph_bytes / 2**20, "MB_computed"),
        "tensor.grad_mb_per_step": (grad_bytes / 2**20, "MB_computed"),
    }


def per_layer_metrics(tracer, rounds: list[Round], untraced_epoch_s: float, cfg) -> dict:
    t = tracer
    epochs = cfg.epochs * len(rounds)
    setups = SETUP_REPEATS * len(rounds)
    predicts = len(rounds)
    under_train = {
        "model.refresh_region_cache_s": t.total("model.refresh_region_cache", "train.train"),
        "layers.stack_egat.road_s": t.total("layers.stack_egat", "train.train"),
        "graphs.community_node_features_s": t.total("graphs.community_node_features", "train.train"),
        "layers.stack_hetero.community_s": t.total(
            "layers.stack_hetero", "train.train", parent="model.EmissionModel.intra_representation"
        ),
        "layers.stack_hetero.region_s": t.total(
            "layers.stack_hetero", "train.train", parent="model.EmissionModel.inter_representation"
        ),
        "model.intra_representation.self_s": t.total(
            "model.EmissionModel.intra_representation", "train.train", self_time=True
        ),
        "model.inter_representation.self_s": t.total(
            "model.EmissionModel.inter_representation", "train.train", self_time=True
        ),
        "model.predict_region.self_s": t.total(
            "model.EmissionModel.predict_region", "train.train", self_time=True
        ),
        "tensor.backward.self_s": t.total("tensor.backward", "train.train", self_time=True),
        "tensor.toposort_s": t.total("tensor.toposort", "train.train"),
        "optim.Adam.step_s": t.total("optim.Adam.step", "train.train"),
        "train.evaluate_s": t.total("train.evaluate", "train.train"),
        "train.train.self_s": t.total("train.train", None, self_time=True),
    }
    # span times are wall seconds; scale them to reference seconds like epoch_s
    ref = statistics.mean(r.ref_per_own for r in rounds)
    metrics = {name: (ref * value / epochs, "s") for name, value in under_train.items()}
    metrics["data.load_dataset_s"] = (ref * t.total("data.load_dataset", "bench.setup") / setups, "s")
    metrics["model.prepare_dataset_s"] = (
        ref * t.total("model.prepare_dataset", "bench.setup") / setups, "s"
    )
    metrics["model.load_checkpoint_s"] = (
        ref * t.total("model.load_checkpoint", "cli.main") / predicts, "s"
    )
    metrics["cli.cmd_predict.self_s"] = (
        ref * t.total("cli.cmd_predict", "cli.main", self_time=True) / predicts, "s"
    )
    regions_written = sum(len(checks.read_predictions(r.predictions)) for r in rounds)
    metrics["model.intra_calls_per_predicted_region"] = (
        t.count("model.EmissionModel.intra_representation", "cli.cmd_predict") / regions_written,
        "count",
    )
    traced_epoch_s = statistics.median(r.epoch_s for r in rounds)
    metrics["trace.overhead_epoch_s"] = (traced_epoch_s - untraced_epoch_s, "s")
    return metrics


def end_to_end_metrics(rounds: list[Round]) -> dict:
    values = {
        "setup_s": statistics.median(s for r in rounds for s in r.setup_s),
        "epoch_s": statistics.median(r.epoch_s for r in rounds),
        "predict_regions_per_s": statistics.median(r.predict_regions_per_s for r in rounds),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {name: (value, END_TO_END_UNITS[name]) for name, value in values.items()}


def run(world: World, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    """One benchmark run; returns the result object printed by ``run.py``."""
    # one root handler at WARNING, so the predict command's basicConfig is a
    # no-op and every round logs the same way
    logging.basicConfig(stream=sys.stderr, level=logging.WARNING)
    world_dir = workdir / "world"
    generate_world(world, seed, world_dir)
    cfg = rc_config.RunConfig(
        data_dir=str(world_dir), out_dir=str(workdir / "run"), seed=CONFIG_SEED,
        epochs=world.epochs, patience=0,
    ).validate()

    ops = Ops()
    rounds: list[Round] = []
    results: list[checks.CheckResult] = []
    tracer = None
    metrics: dict = {}
    try:
        # the first train call in a process grows the heap and runs slower;
        # users pay that once per command, so it is kept out of the figures
        timed_train(setup(cfg), cfg)
        ops.add(2)
        untraced_epoch_s = None
        if trace:
            untraced_epoch_s = one_round(cfg, workdir, None, "untraced").epoch_s
            ops.add(ROUND_OPS)
            tracer = tracing.Tracer()
            tracer.install()
        deadline = time.perf_counter() + seconds
        while not rounds or time.perf_counter() < deadline:
            if rounds:
                # one model and dataset alive at a time, as in a real run;
                # holding every round's would slow each later round
                rounds[-1].state = None
            rounds.append(one_round(cfg, workdir, tracer, str(len(rounds))))
            ops.add(ROUND_OPS)
        if trace:
            with tracer.span("bench.step_stats"):
                metrics.update(step_graph_stats(rounds[-1].state, cfg, tracer))
            tracer.restore()
            metrics.update(per_layer_metrics(tracer, rounds, untraced_epoch_s, cfg))
        else:
            metrics.update(end_to_end_metrics(rounds))
        results = run_checks(rounds[-1], cfg, seed)
    except Exception:
        # the operation in flight failed and nothing after it ran: no metrics
        traceback.print_exc(file=sys.stderr)
        ops.add(1, failed=1)
        return {"correct": False, "attempted": ops.attempted, "failed": ops.failed, "metrics": {}}
    finally:
        if tracer is not None:
            tracer.restore()

    for res in results:
        print(f"check {res.name}: {'PASS' if res.ok else 'FAIL'} {res.detail}", file=sys.stderr)
    failed_checks = sum(not r.ok for r in results)
    ops.add(len(results), failed=failed_checks)
    return {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
