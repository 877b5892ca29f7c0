import argparse
import base64
import csv
import json
import math
from collections import Counter
from dataclasses import fields

import numpy as np
import pytest

from roadcarbon import cli
from roadcarbon.cli import main
from roadcarbon.config import ConfigError, RunConfig
from roadcarbon.layers import stack_hetero
from roadcarbon.model import EmissionModel, load_checkpoint, save_checkpoint
from roadcarbon.synth import SynthParams
from roadcarbon.tensor import Tensor, add, matmul, no_grad


def run_cli(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Generated data plus one small trained run, shared across CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    assert run_cli("gen-synth", "--out", data, "--regions", 10, "--seed", 1) == 0
    cfg = root / "cfg.txt"
    cfg.write_text(
        f"data_dir={data}\nout_dir={root/'run'}\nhidden=16\nlayers=2\n"
        "layers_road=2\nepochs=3\nseed=5\n",
        encoding="utf-8",
    )
    assert run_cli("train", "--config", cfg) == 0
    return root, data, cfg


def test_gen_synth_writes_all_files(workspace):
    _, data, _ = workspace
    for name in (
        "nodes.csv", "edges.csv", "od.csv", "labels.csv",
        "region_adjacency.csv", "synth_params.txt",
    ):
        assert (data / name).exists(), name


def test_train_outputs(workspace):
    root, _, _ = workspace
    run = root / "run"
    for name in ("checkpoint.json", "metrics.jsonl", "config.txt", "train_summary.json"):
        assert (run / name).exists(), name
    config = RunConfig.from_file(run / "config.txt")
    assert config.hidden == 16  # effective config echoed
    lines = (run / "metrics.jsonl").read_text().strip().splitlines()
    assert len(lines) == 3
    entry = json.loads(lines[0])
    assert {"epoch", "train_mse", "val_r2", "cache_refreshes"} <= set(entry)


def test_eval_prints_single_json_with_metric_keys(workspace, capsys):
    root, data, _ = workspace
    code = run_cli(
        "eval", "--checkpoint", root / "run" / "checkpoint.json",
        "--data", data, "--split", "test",
    )
    assert code == 0
    out = capsys.readouterr().out.strip()
    payload = json.loads(out)  # exactly one JSON object on stdout
    assert set(payload) == {
        "split", "n_regions", "r2", "mae", "rmse", "raw_r2", "raw_mae", "raw_rmse"
    }


def test_predict_writes_expected_columns(workspace, tmp_path):
    root, data, _ = workspace
    out = tmp_path / "preds.csv"
    assert run_cli(
        "predict", "--checkpoint", root / "run" / "checkpoint.json",
        "--data", data, "--out", out,
    ) == 0
    rows = list(csv.DictReader(open(out)))
    assert len(rows) == 10
    assert set(rows[0]) == {"region_id", "prediction_raw", "prediction_normalized"}
    for row in rows:
        assert float(row["prediction_raw"]) > 0


def test_dump_attention_weights_normalized(workspace, tmp_path):
    root, data, _ = workspace
    out = tmp_path / "att.csv"
    assert run_cli(
        "dump-attention", "--checkpoint", root / "run" / "checkpoint.json",
        "--data", data, "--out", out,
    ) == 0
    rows = list(csv.DictReader(open(out)))
    assert len(rows) == 10
    for row in rows:
        for site in ("community", "region"):
            total = float(row[f"beta_rn_{site}"]) + float(row[f"beta_od_{site}"])
            assert abs(total - 1.0) < 1e-9
        assert abs(float(row["beta_intra"]) + float(row["beta_inter"]) - 1.0) < 1e-9


def test_dump_attention_reads_each_target_row(workspace, tmp_path):
    # at a fresh cache every region's row holds its live vector, so the stack
    # run on the whole region graph gives each region's fusion weights
    root, data, _ = workspace
    checkpoint = root / "run" / "checkpoint.json"
    out = tmp_path / "att.csv"
    assert run_cli("dump-attention", "--checkpoint", checkpoint, "--data", data, "--out", out) == 0
    dumped = {row["region_id"]: row for row in csv.DictReader(open(out))}
    model, _, prepared, cache = cli._load_for_inference(checkpoint, data)
    embed_w, embed_b = model.region_od_embed
    typed = [
        ("rn", prepared.region_spatial_src, prepared.region_spatial_dst,
         prepared.region_spatial_feats),
        ("od", prepared.region_od_src, prepared.region_od_dst,
         add(matmul(prepared.region_od_zflow, embed_w.tensor), embed_b.tensor)),
    ]
    V = Tensor(np.concatenate([cache.reps[r] for r in prepared.region_ids]))
    with no_grad():
        _, records = stack_hetero(V, typed, model.region_layers, model.region_fusion)
    beta = np.mean([rec.fusion.beta for rec in records], axis=0)
    for i, region_id in enumerate(prepared.region_ids):
        for j, tag in enumerate(records[0].fusion.tags):
            got = float(dumped[region_id][f"beta_{tag}_region"])
            assert abs(got - beta[i, j]) <= 1e-12, (region_id, tag, got, beta[i, j])


def test_train_reproducible_byte_for_byte(workspace, tmp_path):
    root, data, _ = workspace
    cfg = tmp_path / "cfg.txt"
    out = tmp_path / "run"
    cfg.write_text(
        f"data_dir={data}\nout_dir={out}\nhidden=16\nlayers=2\n"
        "layers_road=2\nepochs=2\nseed=9\n",
        encoding="utf-8",
    )
    names = ("metrics.jsonl", "checkpoint.json", "train_summary.json")
    assert run_cli("train", "--config", cfg) == 0
    first = {name: (out / name).read_bytes() for name in names}
    assert run_cli("train", "--config", cfg) == 0
    for name in names:
        assert (out / name).read_bytes() == first[name], name


def test_gen_synth_reproducible_byte_for_byte(tmp_path):
    for sub in ("a", "b"):
        assert run_cli("gen-synth", "--out", tmp_path / sub, "--regions", 3, "--seed", 4) == 0
    for name in ("nodes.csv", "edges.csv", "od.csv", "labels.csv", "region_adjacency.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_ablation_no_region_level_logs_zero_refreshes(workspace, tmp_path, capsys):
    root, data, _ = workspace
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(
        f"data_dir={data}\nout_dir={tmp_path/'run'}\nhidden=16\nlayers=2\n"
        "layers_road=2\nepochs=2\nseed=5\n",
        encoding="utf-8",
    )
    assert run_cli("train", "--config", cfg, "--ablation", "no_region_level") == 0
    summary = json.loads(capsys.readouterr().out.strip())
    assert summary["cache_refreshes"] == 0
    lines = (tmp_path / "run" / "metrics.jsonl").read_text().strip().splitlines()
    assert all(json.loads(line)["cache_refreshes"] == 0 for line in lines)


def test_one_community_regions_train_exit_0(tmp_path):
    # one community per region: no crossing arcs, so every spatial pool is empty
    data = tmp_path / "data"
    assert run_cli(
        "gen-synth", "--out", data, "--regions", 20, "--grid-side", 3, "--communities", 1
    ) == 0
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"data_dir={data}\nout_dir={tmp_path / 'run'}\nepochs=2\nhidden=8\n")
    assert run_cli("train", "--config", cfg) == 0
    assert (tmp_path / "run" / "checkpoint.json").exists()


def test_unknown_subcommand_exits_1(capsys):
    assert run_cli("frobnicate") == 1
    assert "usage" in capsys.readouterr().err


def test_unknown_flag_exits_1(workspace, capsys):
    root, data, _ = workspace
    assert run_cli("eval", "--nonsense") == 1


def test_bad_config_value_exits_1(workspace, tmp_path, capsys):
    _, data, _ = workspace
    cfg = tmp_path / "bad.txt"
    cfg.write_text(f"data_dir={data}\nlayers=7\n", encoding="utf-8")
    assert run_cli("train", "--config", cfg) == 1
    assert "layers" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["train_frac=nan", "min_flow=nan"])
def test_non_finite_config_value_exits_1(workspace, tmp_path, capsys, line):
    _, data, _ = workspace
    cfg = tmp_path / "bad.txt"
    cfg.write_text(f"data_dir={data}\n{line}\n", encoding="utf-8")
    assert run_cli("train", "--config", cfg, "--out", tmp_path / "run") == 1
    assert line.split("=")[0] in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_repeated_config_key_exits_1(workspace, tmp_path, capsys):
    _, data, _ = workspace
    cfg = tmp_path / "repeated.txt"
    cfg.write_text(f"data_dir={data}\nepochs=5\n# later\nepochs=7\n", encoding="utf-8")
    message = r"repeated\.txt:4: repeated config key 'epochs', first set on line 2"
    with pytest.raises(ConfigError, match=message):
        RunConfig.from_file(cfg)
    assert run_cli("train", "--config", cfg, "--out", tmp_path / "run") == 1
    assert "repeated config key 'epochs'" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_missing_data_dir_exits_1(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("epochs=1\n", encoding="utf-8")
    assert run_cli("train", "--config", cfg) == 1


def test_eval_missing_checkpoint_exits_1(workspace, capsys):
    _, data, _ = workspace
    assert run_cli("eval", "--checkpoint", "/nonexistent.json", "--data", data, "--split", "val") == 1


def test_corrupt_dataset_exits_1(workspace, tmp_path, capsys):
    root, data, _ = workspace
    bad = tmp_path / "bad_data"
    bad.mkdir()
    for name in ("nodes.csv", "edges.csv", "od.csv", "labels.csv", "region_adjacency.csv"):
        (bad / name).write_bytes((data / name).read_bytes())
    (bad / "labels.csv").write_text("region_id,emission_tco2\nr000,-1\n", encoding="utf-8")
    assert run_cli(
        "eval", "--checkpoint", root / "run" / "checkpoint.json",
        "--data", bad, "--split", "test",
    ) == 1


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda path: path.write_bytes(path.read_bytes() + b"r\xff,1.0\n"),
         "labels.csv:12: not valid UTF-8"),
        (lambda path: (path.unlink(), path.mkdir()), "labels.csv: cannot read"),
    ],
    ids=["not-utf8", "directory"],
)
def test_unreadable_dataset_file_exits_1(workspace, tmp_path, capsys, corrupt, message):
    root, data, _ = workspace
    bad = tmp_path / "bad_data"
    bad.mkdir()
    for name in ("nodes.csv", "edges.csv", "od.csv", "labels.csv", "region_adjacency.csv"):
        (bad / name).write_bytes((data / name).read_bytes())
    corrupt(bad / "labels.csv")
    out = tmp_path / "p.csv"
    argv = ("predict", "--checkpoint", root / "run" / "checkpoint.json", "--data", bad)
    assert run_cli(*argv, "--out", out) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_windows_style_config_trains_as_plain_config(workspace, tmp_path, capsys):
    # a leading UTF-8 byte-order mark and CRLF line endings, as Windows
    # editors write them
    root, _, cfg = workspace
    windows = tmp_path / "windows.txt"
    windows.write_bytes(b"\xef\xbb\xbf" + cfg.read_bytes().replace(b"\n", b"\r\n"))
    assert RunConfig.from_file(windows) == RunConfig.from_file(cfg)
    out = tmp_path / "run"
    assert run_cli("train", "--config", windows, "--out", out) == 0
    for name in ("metrics.jsonl", "train_summary.json"):
        assert (out / name).read_bytes() == (root / "run" / name).read_bytes(), name


@pytest.mark.parametrize(
    "write, message",
    [
        (lambda path: path.write_bytes(b"epochs=1\r\n# caf\xe9\r\n"),
         "config file bad.txt:2: not valid UTF-8 (byte 0xe9)"),
        (lambda path: path.mkdir(), "bad.txt: cannot read"),
    ],
    ids=["not-utf8", "directory"],
)
def test_unreadable_config_exits_1(workspace, tmp_path, capsys, write, message):
    _, data, _ = workspace
    cfg = tmp_path / "bad.txt"
    write(cfg)
    out = tmp_path / "run"
    assert run_cli("train", "--config", cfg, "--data", data, "--out", out) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_config_round_trips_losslessly(tmp_path):
    config = RunConfig(
        data_dir="/tmp/x", out_dir="/tmp/y", layers=4, layers_road=2, hidden=32,
        lr=0.00037, batch_size=16, pooling="max", ablation="no_od_link",
        seed=11, epochs=7, patience=3, train_frac=0.6, val_frac=0.2, test_frac=0.2,
        min_flow=1.25,
    )
    path = tmp_path / "cfg.txt"
    config.to_file(path)
    assert RunConfig.from_file(path) == config


def test_config_unknown_key_rejected(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("bogus_key=3\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="bogus_key"):
        RunConfig.from_file(path)


@pytest.mark.parametrize("sep", ["\x85", "\u2028", "\x0c"], ids=["nel", "ls", "ff"])
def test_config_breaks_lines_only_at_cr_and_lf(tmp_path, sep):
    # a data_dir holding a Unicode line separator stays on its line, as
    # the dataset CSVs read it, and errors cite the file's own line numbers
    data_dir = f"/data/caf{sep}e"
    path = tmp_path / "cfg.txt"
    path.write_text(f"data_dir={data_dir}\r\nbogus_key=3\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=r"cfg\.txt:2: unknown config key 'bogus_key'"):
        RunConfig.from_file(path)
    config = RunConfig(data_dir=data_dir)
    config.to_file(path)
    assert RunConfig.from_file(path) == config


def test_config_validation_domains():
    with pytest.raises(ConfigError):
        RunConfig(lr=0.9).validate()
    with pytest.raises(ConfigError):
        RunConfig(batch_size=7).validate()
    with pytest.raises(ConfigError):
        RunConfig(pooling="median").validate()
    with pytest.raises(ConfigError):
        RunConfig(ablation="nope").validate()
    with pytest.raises(ConfigError):
        RunConfig(train_frac=0.5, val_frac=0.2, test_frac=0.2).validate()
    assert RunConfig().validate() is not None


@pytest.mark.parametrize("command", ["predict", "dump-attention"])
@pytest.mark.parametrize("case", ["missing-dir", "directory"])
def test_bad_out_exits_1_before_loading(workspace, tmp_path, monkeypatch, capsys, command, case):
    root, data, _ = workspace
    out = tmp_path / "out.csv"
    if case == "directory":
        out.mkdir()
    else:
        out = tmp_path / "missing" / "out.csv"
    before = sorted(tmp_path.iterdir())

    def not_reached(path):
        raise AssertionError("the checkpoint was loaded before --out was checked")

    monkeypatch.setattr(cli, "load_checkpoint", not_reached)
    code = run_cli(
        command, "--checkpoint", root / "run" / "checkpoint.json", "--data", data, "--out", out,
    )
    assert code == 1
    assert str(out) in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == before  # no temporary file left behind


@pytest.mark.parametrize("case", ["file", "parent-file"])
def test_train_bad_out_dir_exits_1_before_loading(workspace, tmp_path, monkeypatch, capsys, case):
    _, _, cfg = workspace
    blocker = tmp_path / "taken"
    blocker.write_text("not a directory", encoding="utf-8")
    out = blocker if case == "file" else blocker / "run"

    def not_reached(directory):
        raise AssertionError("the dataset was loaded before out_dir was checked")

    monkeypatch.setattr(cli, "load_dataset", not_reached)
    assert run_cli("train", "--config", cfg, "--out", out) == 1
    err = capsys.readouterr().err
    assert f"out_dir {out}: {blocker} is not a directory" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]


@pytest.mark.parametrize("case", ["file", "parent-file"])
def test_gen_synth_bad_out_exits_1_before_generating(tmp_path, monkeypatch, capsys, case):
    blocker = tmp_path / "taken"
    blocker.write_text("not a directory", encoding="utf-8")
    out = blocker if case == "file" else blocker / "data"

    def not_reached(params):
        raise AssertionError("the world was generated before --out was checked")

    monkeypatch.setattr(cli, "generate_synthetic", not_reached)
    assert run_cli("gen-synth", "--out", out, "--regions", 2) == 1
    assert f"{blocker} is not a directory" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]
    assert blocker.read_text(encoding="utf-8") == "not a directory"


def test_synth_params_fields_are_the_gen_synth_flags():
    # a world parameter comes with its flag, or is a module constant
    (gen_synth,) = (
        action.choices["gen-synth"]
        for action in cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    dests = {a.dest for a in gen_synth._actions} - {"help", "out"}
    assert dests == {f.name for f in fields(SynthParams)}


def strict_json(text):
    """json.loads that rejects NaN and Infinity, which are not JSON."""

    def reject(constant):
        raise ValueError(f"non-strict JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


def test_undefined_r2_is_strict_json_null(workspace, tmp_path, capsys):
    # 10 regions leave a one-region val split: its targets are constant, so
    # R^2 is undefined
    _, data, _ = workspace
    cfg = tmp_path / "cfg.txt"
    out = tmp_path / "run"
    cfg.write_text(
        f"data_dir={data}\nout_dir={out}\nhidden=8\nlayers=2\nlayers_road=2\nepochs=1\n",
        encoding="utf-8",
    )
    assert run_cli("train", "--config", cfg) == 0
    summary = strict_json(capsys.readouterr().out.strip())
    assert summary["best_val_r2"] is None
    assert strict_json((out / "train_summary.json").read_text()) == summary
    (line,) = (out / "metrics.jsonl").read_text().strip().splitlines()
    assert strict_json(line)["val_r2"] is None

    assert run_cli(
        "eval", "--checkpoint", out / "checkpoint.json", "--data", data, "--split", "val"
    ) == 0
    payload = strict_json(capsys.readouterr().out.strip())
    assert payload["r2"] is None and payload["raw_r2"] is None
    assert payload["mae"] > 0


@pytest.mark.parametrize(
    "flag, value, field",
    [
        ("--regions", 0, "n_regions"),
        ("--deletion-frac", 1.5, "edge_deletion_frac"),
        ("--deletion-frac", 1.0, "edge_deletion_frac"),
        ("--deletion-frac", -0.5, "edge_deletion_frac"),
        ("--gravity-gamma", -3, "gravity_gamma"),
        ("--gravity-gamma", "nan", "gravity_gamma"),
        ("--extent-km", 0, "region_extent_km"),
        ("--extent-km", "inf", "region_extent_km"),
        ("--noise-std", "nan", "noise_std"),
    ],
    ids=[
        "regions-0", "deletion-1.5", "deletion-1", "deletion-neg", "gamma-neg", "gamma-nan",
        "extent-0", "extent-inf", "noise-nan",
    ],
)
def test_bad_synth_params_exit_1(tmp_path, capsys, flag, value, field):
    assert run_cli("gen-synth", "--out", tmp_path / "d", flag, value) == 1
    assert field in capsys.readouterr().err
    assert not (tmp_path / "d").exists()


def _edited_checkpoint(workspace, tmp_path, edit):
    root, data, _ = workspace
    payload = json.loads((root / "run" / "checkpoint.json").read_text())
    edit(payload)
    path = tmp_path / "ck.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return run_cli("predict", "--checkpoint", path, "--data", data, "--out", tmp_path / "p.csv")


def _values(payload, name):
    return np.frombuffer(base64.b64decode(payload["params"][name]["values"]), dtype="<f8")


def _set_values(payload, name, values):
    raw = np.asarray(values, dtype="<f8").tobytes()
    payload["params"][name]["values"] = base64.b64encode(raw).decode("ascii")


def _set_first_value(payload, name, value):
    _set_values(payload, name, np.r_[value, _values(payload, name)[1:]])


def _edit_text(payload, name, edit):
    entry = payload["params"][name]
    entry["values"] = edit(entry["values"])


_BASE64 = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"


def _flip_last_data_bit(text):
    """Flip the lowest bit of the last character before the padding.  The
    8 bytes of one float leave that bit unused, so the text decodes to the
    same bytes but is not their canonical encoding; ``b64decode`` with
    ``validate=True`` accepts it."""
    data = text.rstrip("=")
    assert len(data) % 4 == 3  # one '=' of padding: 2 unused bits
    last = _BASE64[_BASE64.index(data[-1]) ^ 1]
    return data[:-1] + last + text[len(data):]


def test_checkpoint_values_not_filling_shape_exit_1(workspace, tmp_path, capsys):
    code = _edited_checkpoint(
        workspace, tmp_path, lambda payload: _set_values(payload, "head.b2", [])
    )
    assert code == 1
    assert "head.b2" in capsys.readouterr().err
    assert not (tmp_path / "p.csv").exists()


def test_checkpoint_without_params_exit_1(workspace, tmp_path, capsys):
    assert _edited_checkpoint(workspace, tmp_path, lambda payload: payload.pop("params")) == 1
    assert "params" in capsys.readouterr().err


@pytest.mark.parametrize(
    "edit, named",
    [
        (lambda payload: payload["stats"].pop("label_std"), "label_std"),
        (lambda payload: payload["stats"].update(label_scale=1.0), "label_scale"),
        (lambda payload: payload.update(stats=[0.0]), "stats"),
        (lambda payload: payload["params"]["head.b2"].pop("values"), "head.b2"),
        (lambda payload: payload["params"]["head.b2"].pop("shape"), "head.b2"),
        (lambda payload: payload.update(config=[1]), "config"),
        (lambda payload: payload["params"]["head.b2"].update(values="x!"), "head.b2"),
        (lambda payload: _set_first_value(payload, "head.b2", np.nan), "head.b2"),
        (lambda payload: payload["params"]["head.b2"].update(shape=1), "head.b2"),
        (lambda payload: payload["stats"].update(label_std=float("inf")), "label_std"),
        (lambda payload: payload["stats"]["node_mean"].__setitem__(0, float("nan")),
         "node_mean"),
        (lambda payload: payload["config"].update(hidden="64"), "hidden"),
        (lambda payload: payload["params"]["head.b2"].update(values=[0.0]), "head.b2"),
        (lambda payload: payload.update(params=["head.b2"]), "params is not an object"),
        (lambda payload: payload.update(format="hence-v2"), "hence-v3"),
        (lambda payload: payload["params"]["head.b2"].update(shape=[1.0, 1.0]), "head.b2"),
        (lambda payload: payload["params"]["head.b2"].update(shape=[True, 1]), "head.b2"),
        (lambda payload: _edit_text(payload, "head.W2", lambda t: t[:5] + "!" + t[5:]),
         "head.W2: values is not valid base64"),
        (lambda payload: _edit_text(payload, "head.W2", lambda t: t[:76] + "\n" + t[76:]),
         "head.W2: values is not valid base64"),
        (lambda payload: _edit_text(payload, "head.b2", lambda t: t.rstrip("=")),
         "head.b2: values is not valid base64"),
        (lambda payload: _edit_text(payload, "head.b2", _flip_last_data_bit),
         "head.b2: values is not valid base64"),
    ],
    ids=[
        "stats-key-missing", "stats-key-extra", "stats-not-object", "no-values", "no-shape",
        "config-not-object", "string-value", "nan-value", "shape-not-list", "inf-stat",
        "nan-stat-vector", "config-wrong-type", "list-values",
        "params-not-object", "v2-format", "float-shape", "bool-shape",
        "base64-non-alphabet", "base64-newline", "base64-bad-padding",
        "base64-noncanonical-bits",
    ],
)
def test_malformed_checkpoint_exit_1(workspace, tmp_path, capsys, edit, named):
    assert _edited_checkpoint(workspace, tmp_path, edit) == 1
    assert named in capsys.readouterr().err
    assert not (tmp_path / "p.csv").exists()


@pytest.mark.parametrize(
    "write, named",
    [
        (lambda path, text: path.mkdir(), "unreadable checkpoint"),
        (lambda path, text: path.write_bytes(b'{"format": "hence-\xff"}'),
         "unreadable checkpoint"),
        (lambda path, text: path.write_text("[1, 2]", encoding="utf-8"), "not a JSON object"),
        # a repeated key would otherwise take its last value silently
        (lambda path, text: path.write_text(
            text.replace('{"format": ', '{"format": "bogus", "format": ', 1),
            encoding="utf-8",
        ), "repeats key 'format'"),
        (lambda path, text: path.write_text(
            text.replace('"config": {', '"config": {"hidden": 999, ', 1), encoding="utf-8"
        ), "repeats key 'hidden'"),
    ],
    ids=["directory", "not-utf8", "top-level-list", "repeated-format", "repeated-config-key"],
)
def test_unreadable_checkpoint_exit_1(workspace, tmp_path, capsys, write, named):
    root, data, _ = workspace
    path = tmp_path / "ck.json"
    text = (root / "run" / "checkpoint.json").read_text(encoding="utf-8")
    assert text.startswith('{"format": ') and text.count('"config": {') == 1
    write(path, text)
    out = tmp_path / "p.csv"
    assert run_cli("predict", "--checkpoint", path, "--data", data, "--out", out) == 1
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_internal_value_error_exits_2(monkeypatch, caplog):
    def faulty(args):
        raise ValueError("matmul shape mismatch: (3, 4) @ (5, 1)")

    monkeypatch.setitem(cli.COMMANDS, "gen-synth", faulty)
    assert run_cli("gen-synth", "--out", "unused") == 2
    assert "runtime failure" in caplog.text


def test_predict_runs_the_region_level_once_per_batch(workspace, tmp_path, monkeypatch):
    root, data, _ = workspace
    model = load_checkpoint(root / "run" / "checkpoint.json")
    model.config = model.config.with_overrides(batch_size=8)
    ckpt = tmp_path / "checkpoint.json"
    save_checkpoint(model, ckpt)
    calls = Counter()
    for name in ("intra_representation", "inter_representation"):
        method = getattr(EmissionModel, name)

        def counted(self, *args, _name=name, _method=method, **kwargs):
            calls[_name] += 1
            return _method(self, *args, **kwargs)

        monkeypatch.setattr(EmissionModel, name, counted)
    out = tmp_path / "preds.csv"
    assert run_cli("predict", "--checkpoint", ckpt, "--data", data, "--out", out) == 0
    n = len(out.read_text().splitlines()) - 1
    assert n == 10
    # one intra pass per region for the cache refresh and one for its row
    assert calls["intra_representation"] == 2 * n
    assert calls["inter_representation"] == math.ceil(n / 8)


def test_failed_predict_keeps_previous_output(workspace, tmp_path, monkeypatch):
    root, data, _ = workspace
    out = tmp_path / "preds.csv"
    argv = ("predict", "--checkpoint", root / "run" / "checkpoint.json", "--data", data)
    assert run_cli(*argv, "--out", out) == 0
    before = out.read_bytes()

    def interrupted(stats, z):
        raise RuntimeError("interrupted after the header row")

    monkeypatch.setattr("roadcarbon.model.NormStats.denormalize_label", interrupted)
    assert run_cli(*argv, "--out", out) == 2
    assert out.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["preds.csv"]


def _poisoned_model(monkeypatch):
    """Make ``cmd_train`` build its model with ``head.b2`` set to NaN."""

    build = cli.EmissionModel

    def poisoned(config, stats):
        model = build(config, stats)
        model.head["b2"].tensor.values[...] = float("nan")
        return model

    monkeypatch.setattr(cli, "EmissionModel", poisoned)


def _train_outputs(out):
    return sorted(p.name for p in out.iterdir()) if out.exists() else []


def test_non_finite_parameter_stops_training_exit_2(workspace, tmp_path, monkeypatch, caplog):
    _, _, cfg = workspace
    _poisoned_model(monkeypatch)
    out = tmp_path / "run"
    assert run_cli("train", "--config", cfg, "--out", out, "--epochs", 1, "--hidden", 8) == 2
    assert "epoch 0 batch 0: non-finite training step" in caplog.text
    assert "parameter head.b2 value is not finite" in caplog.text
    assert _train_outputs(out) == []


def test_non_finite_checkpoint_is_not_written_exit_2(workspace, tmp_path, monkeypatch, caplog):
    from roadcarbon.train import TrainResult

    _, _, cfg = workspace
    _poisoned_model(monkeypatch)
    # skip training, so the NaN parameter reaches save_checkpoint
    monkeypatch.setattr(
        cli, "train", lambda *args: TrainResult([], 0, float("nan"), 0, 0)
    )
    out = tmp_path / "run"
    assert run_cli("train", "--config", cfg, "--out", out, "--epochs", 1, "--hidden", 8) == 2
    assert "JSON compliant" in caplog.text
    assert _train_outputs(out) == []
