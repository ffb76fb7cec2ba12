import csv
import json
import os
import struct
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import hawkmix
from hawkmix import forward, load_edge_list, load_params, save_params
from hawkmix.cli import run
from hawkmix.params import MODEL_MAGIC

from util import random_params

TINY = ["--aspects", "2", "--dim-per", "4", "--history", "3", "--negatives", "2",
        "--epochs", "1", "--batch", "16", "--seed", "1"]

# eval's probe set-ups: the default concat slice, an ablation, every slice
EVAL_SETUPS = pytest.mark.parametrize(
    "extra", [[], ["--no-attention"], ["--which", "all"]], ids=["concat", "no-attention", "all"])


@pytest.fixture(scope="module")
def simulated(tmp_path_factory):
    """A tiny planted net written by ``simulate``, and a model trained on it."""
    root = tmp_path_factory.mktemp("cli")
    assert run(["simulate", "--aspects", "2", "--nodes-per", "6", "--horizon", "6",
                "--seed", "1", "--out", str(root / "sim")]) == 0
    edges = root / "sim" / "edges.txt"
    assert run(["train", "--edges", str(edges), "--directed", *TINY,
                "--out", str(root / "train")]) == 0
    return root, edges


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_simulate_and_train_outputs(simulated):
    root, edges = simulated
    assert edges.read_text().count("\n") > 10
    assert read_csv(root / "sim" / "truth.csv")[0] == ["node", "aspect"]
    out = root / "train"
    for name in ("config.json", "model.bin", "embeddings.txt", "train_log.csv"):
        assert (out / name).is_file(), name
    cfg = json.loads((out / "config.json").read_text())
    hyper = load_params(out / "model.bin").hyper
    assert (cfg["aspects"], cfg["dim_per"], cfg["history"]) == (2, 4, 3)
    assert (hyper.n_aspects, hyper.dim, hyper.history_len, hyper.lr) == (2, 4, 3, cfg["lr"])


def test_config_replay_is_byte_identical(simulated):
    root, _ = simulated
    replay = root / "replay"
    assert run(["train", "--config", str(root / "train" / "config.json"),
                "--out", str(replay)]) == 0
    assert (replay / "model.bin").read_bytes() == (root / "train" / "model.bin").read_bytes()


def run_eval(edges, out, *extra):
    """The metrics.json record of an ``eval`` run on 3 masked edges."""
    assert run(["eval", "--edges", str(edges), "--directed", *TINY, "--mask-count", "3",
                *extra, "--out", str(out)]) == 0
    return json.loads((out / "metrics.json").read_text())


@EVAL_SETUPS
def test_eval_writes_metrics(simulated, tmp_path, extra):
    _, edges = simulated
    record = run_eval(edges, tmp_path / "eval", *extra)
    assert set(record) == {"task", "metrics", "config", "seed"}
    assert record["task"] == "link_prediction" and record["seed"] == 1
    slices = {"identity", "concat", "aspect_0", "aspect_1"} if "all" in extra else {"concat"}
    assert set(record["metrics"]) == slices
    for metrics in record["metrics"].values():
        assert sorted(metrics) == ["auc_roc", "macro_f1"]


def test_eval_record_holds_the_trained_models_hyperparameters(simulated, tmp_path):
    _, edges = simulated
    out = tmp_path / "eval"
    config = run_eval(edges, out, "--no-attention", "--no-gumbel")["config"]
    assert config.pop("masked_edges") == 3 and config.pop("n_pairs") == 6
    assert config == asdict(load_params(out / "model.bin").hyper)
    assert config["use_attention"] is False and config["use_gumbel"] is False


def test_eval_which_all_gives_the_default_runs_concat_entry_bitwise(simulated, tmp_path):
    _, edges = simulated
    default = run_eval(edges, tmp_path / "default")["metrics"]
    every = run_eval(edges, tmp_path / "all", "--which", "all")["metrics"]
    assert json.dumps(every["concat"]) == json.dumps(default["concat"])


def test_recommend_and_intensity(simulated):
    root, edges = simulated
    model = str(root / "train" / "model.bin")
    truth = root / "truth.txt"
    truth.write_text("1\n2\n")
    out = root / "rec"
    assert run(["recommend", "--model", model, "--edges", str(edges), "--directed",
                "--node", "0", "--k", "3", "--truth", str(truth), "--out", str(out)]) == 0
    rows = read_csv(out / "recommendations.csv")
    assert rows[0] == ["rank", "node", "score"] and len(rows) == 4
    assert "precision_at_3" in json.loads((out / "metrics.json").read_text())["metrics"]
    out = root / "intensity"
    assert run(["intensity", "--model", model, "--edges", str(edges), "--directed",
                "--node", "0", "--out", str(out)]) == 0
    rows = read_csv(out / "intensity.csv")
    assert rows[0] == ["time", "aspect", "lambda"] and len(rows) > 1
    assert all(float(r[2]) > 0 for r in rows[1:])


def test_train_without_batch_on_a_small_net_takes_the_models_default(simulated, tmp_path):
    """Under 10k nodes the batch size defaults to HyperParams' own, and the
    config echo and the saved model both carry it."""
    _, edges = simulated
    at = TINY.index("--batch")
    out = tmp_path / "train"
    assert run(["train", "--edges", str(edges), "--directed", *TINY[:at], *TINY[at + 2 :],
                "--out", str(out)]) == 0
    default = hawkmix.HyperParams().batch_size
    assert json.loads((out / "config.json").read_text())["batch"] == default
    assert load_params(out / "model.bin").hyper.batch_size == default


def test_a_checkpoint_is_a_model_that_recommend_reads(simulated, tmp_path):
    """``train --checkpoint-every 1`` over two epochs writes one non-empty
    checkpoint per epoch, the last one the final model, and ``recommend``
    serves from the first."""
    _, edges = simulated
    out = tmp_path / "train"
    # the later --epochs overrides TINY's
    assert run(["train", "--edges", str(edges), "--directed", *TINY, "--epochs", "2",
                "--checkpoint-every", "1", "--out", str(out)]) == 0
    first, last = (out / f"checkpoint_epoch000{e}.bin" for e in (1, 2))
    assert first.stat().st_size > 0 and last.stat().st_size > 0
    assert last.read_bytes() == (out / "model.bin").read_bytes()
    rec = tmp_path / "recommend"
    assert run(["recommend", "--model", str(first), "--edges", str(edges), "--directed",
                "--node", "0", "--k", "3", "--out", str(rec)]) == 0
    rows = read_csv(rec / "recommendations.csv")
    assert rows[0] == ["rank", "node", "score"] and len(rows) == 4


def test_intensity_rows_are_each_events_one_row_forward(simulated, tmp_path):
    """Each intensity.csv row holds exp of its event's per-aspect rate from a
    one-row forward, bitwise, for every node: no event's window is padded
    to another's and no event shares a call."""
    _, edges = simulated
    net = load_edge_list(edges, directed=True)
    model = tmp_path / "model.bin"
    save_params(random_params(np.random.default_rng(0), n_nodes=net.node_count, m=8, k=2,
                              history_len=3), model)
    params = load_params(model)
    lens = set()
    for u, label in enumerate(net.labels):
        out = tmp_path / f"node-{label}"
        assert run(["intensity", "--model", str(model), "--edges", str(edges), "--directed",
                    "--node", label, "--out", str(out)]) == 0
        expect = []
        for v, t in zip(*map(np.ndarray.tolist, net.events(u))):
            hist = net.histories([u], [t], params.hyper.history_len)
            lens.add(hist.ids.shape[1])
            rates = np.exp(forward(params, [u], hist, [[v]]).lam_k[0, 0])
            raw = format(float(net.raw_time(t)), ".17g")
            expect += [[raw, str(k), format(r, ".17g")] for k, r in enumerate(rates.tolist())]
        assert read_csv(out / "intensity.csv")[1:] == expect, label
    assert lens == set(range(params.hyper.history_len + 1))


@pytest.mark.parametrize("command", ["recommend", "intensity"])
def test_integer_node_in_a_config_names_its_label(simulated, tmp_path, command):
    """``{"node": 0}`` in a config file queries the node whose token is "0",
    as ``--node 0`` does, and writes the same file."""
    root, edges = simulated
    config = tmp_path / "in.json"
    config.write_text(json.dumps({"node": 0}))
    name = "recommendations.csv" if command == "recommend" else "intensity.csv"
    common = [command, "--model", str(root / "train" / "model.bin"), "--edges", str(edges),
              "--directed"]
    assert run([*common, "--node", "0", "--out", str(tmp_path / "flag")]) == 0
    assert run([*common, "--config", str(config), "--out", str(tmp_path / "cfg")]) == 0
    assert (tmp_path / "cfg" / name).read_bytes() == (tmp_path / "flag" / name).read_bytes()


@pytest.mark.parametrize("command", ["recommend", "intensity"])
@pytest.mark.parametrize("node", [True, 0.0, [0], {"id": 0}])
def test_node_of_another_type_in_a_config_is_a_usage_error(
    simulated, tmp_path, capsys, command, node
):
    """Checked before the model is read or config.json is written."""
    root, edges = simulated
    config = tmp_path / "in.json"
    config.write_text(json.dumps({"node": node}))
    out = tmp_path / "out"
    assert run([command, "--config", str(config), "--model", str(tmp_path / "no-model.bin"),
                "--edges", str(edges), "--directed", "--out", str(out)]) == 2
    assert f"usage error: --node must be a label or an integer, not {node!r}" in (
        capsys.readouterr().err)
    assert not out.exists()


def test_the_package_and_the_cli_module_run_as_scripts(tmp_path):
    """``python -m hawkmix`` runs a command and ``python -m hawkmix.cli``
    rejects an unknown one, outside an installed package."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(hawkmix.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}

    def python_m(*args):
        return subprocess.run([sys.executable, "-m", *args], env=env, capture_output=True,
                              text=True, timeout=120)

    out = tmp_path / "sim"
    proc = python_m("hawkmix", "simulate", "--aspects", "2", "--nodes-per", "4",
                    "--horizon", "4", "--seed", "1", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert load_edge_list(out / "edges.txt", directed=True).n_edges > 0
    proc = python_m("hawkmix.cli", "bogus")
    assert proc.returncode == 2
    assert "invalid choice: 'bogus'" in proc.stderr


def test_missing_out_is_a_usage_error(simulated, capsys):
    _, edges = simulated
    assert run(["simulate"]) == 2
    assert run(["train", "--edges", str(edges)]) == 2
    assert "missing required option --out" in capsys.readouterr().err


def test_unknown_node_is_an_error(simulated, capsys):
    root, edges = simulated
    assert run(["recommend", "--model", str(root / "train" / "model.bin"),
                "--edges", str(edges), "--directed", "--node", "nope",
                "--out", str(root / "bad")]) == 1
    assert "does not appear" in capsys.readouterr().err


@pytest.mark.parametrize("time", ["nan", "inf", "-inf"])
def test_nonfinite_time_is_a_usage_error(simulated, capsys, time):
    root, edges = simulated
    out = root / f"rec-{time}"
    assert run(["recommend", "--model", str(root / "train" / "model.bin"),
                "--edges", str(edges), "--directed", "--node", "0", f"--time={time}",
                "--out", str(out)]) == 2
    assert "--time must be a finite number" in capsys.readouterr().err
    assert not (out / "recommendations.csv").exists()


@pytest.mark.parametrize("flag, field", [
    ("--mu", "mu0"), ("--alpha", "alpha0"), ("--delta", "delta0"), ("--horizon", "horizon"),
])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_nonfinite_simulation_rate_or_horizon_is_an_error(tmp_path, capsys, flag, field, value):
    out = tmp_path / "sim"
    assert run(["simulate", "--aspects", "2", "--nodes-per", "3", f"{flag}={value}",
                "--out", str(out)]) == 1
    assert f"error: {field} must be finite, not {float(value)!r}" in capsys.readouterr().err
    assert not (out / "edges.txt").exists()
    assert not (out / "config.json").exists()


@pytest.mark.parametrize("cfg, flags, message", [
    ({"k": 2.5}, [], "--k must be a positive integer, not 2.5"),
    ({"k": "3"}, [], "--k must be a positive integer, not '3'"),
    ({"k": True}, [], "--k must be a positive integer, not True"),
    ({}, ["--k", "0"], "--k must be a positive integer, not 0"),
    ({"time": "abc"}, [], "--time must be a finite number, not 'abc'"),
    ({"time": False}, [], "--time must be a finite number, not False"),
])
def test_recommend_k_or_time_that_is_not_a_number_is_a_usage_error(
    simulated, tmp_path, capsys, cfg, flags, message
):
    """Checked before the model is read or config.json is written."""
    root, edges = simulated
    config = tmp_path / "in.json"
    config.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert run(["recommend", "--config", str(config), "--model", str(root / "train" / "model.bin"),
                "--edges", str(edges), "--directed", "--node", "0", *flags,
                "--out", str(out)]) == 2
    assert f"usage error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_simulate_seed_outside_64_bits_is_an_error(tmp_path, capsys, seed):
    """``simulate`` checks the seed range that ``train`` checks, with its
    message, before it writes anything."""
    out = tmp_path / "sim"
    assert run(["simulate", "--aspects", "2", "--nodes-per", "3", "--seed", str(seed),
                "--out", str(out)]) == 1
    assert f"error: seed must be in [0, 2**64), not {seed}" in capsys.readouterr().err
    assert not out.exists()


def run_recommend_with_truth(root, edges, truth, out):
    return run(["recommend", "--model", str(root / "train" / "model.bin"), "--edges", str(edges),
                "--directed", "--node", "0", "--truth", str(truth), "--out", str(out)])


def test_recommend_with_a_missing_truth_file_is_a_usage_error(simulated, tmp_path, capsys):
    root, edges = simulated
    out = tmp_path / "out"
    assert run_recommend_with_truth(root, edges, tmp_path / "nosuch.txt", out) == 2
    err = capsys.readouterr().err
    assert "usage error: missing input:" in err and "nosuch.txt" in err
    assert not out.exists()


def test_recommend_with_a_truth_file_that_names_no_node_is_an_error(simulated, tmp_path, capsys):
    root, edges = simulated
    truth, out = tmp_path / "truth.txt", tmp_path / "out"
    truth.write_text("nobody\n\n  \n")
    assert run_recommend_with_truth(root, edges, truth, out) == 1
    assert (f"error: ground truth is empty: {truth} names no node of the edge list"
            in capsys.readouterr().err)
    assert not out.exists()


@EVAL_SETUPS
def test_zero_mask_count_is_an_error_before_training(simulated, tmp_path, capsys, extra):
    _, edges = simulated
    out = tmp_path / "out"
    assert run(["eval", "--edges", str(edges), "--directed", *TINY, *extra,
                "--mask-count", "0", "--out", str(out)]) == 1
    assert "got 0 positives and 0 negatives" in capsys.readouterr().err
    assert not list(out.rglob("model.bin"))
    assert not (out / "config.json").exists()


@pytest.mark.parametrize("mask_count", ["1", "2"])
@EVAL_SETUPS
def test_mask_count_whose_probe_split_lacks_a_label_is_an_error_before_training(
    simulated, tmp_path, capsys, extra, mask_count
):
    """At seed 1 the probe's seeded split of 2 or 4 pairs leaves its fit half
    with one label; that is rejected before any training."""
    _, edges = simulated
    out = tmp_path / "out"
    assert run(["eval", "--edges", str(edges), "--directed", *TINY, *extra,
                "--mask-count", mask_count, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "leaves its fit half with one label" in err
    assert f"got {mask_count} positives and {mask_count} negatives" in err
    assert not list(out.rglob("model.bin"))
    assert not (out / "config.json").exists()


def test_negative_mask_count_is_an_error(simulated, tmp_path, capsys):
    _, edges = simulated
    out = tmp_path / "out"
    assert run(["eval", "--edges", str(edges), "--directed", *TINY,
                "--mask-count", "-1", "--out", str(out)]) == 1
    assert "cannot mask -1 edges; the count must be >= 0" in capsys.readouterr().err
    assert not (out / "config.json").exists()


@pytest.mark.parametrize("every", ["0", "-1"])
def test_checkpoint_every_below_one_is_an_error(simulated, capsys, every):
    """Under train and under eval, before the output directory is made."""
    root, edges = simulated
    for command, extra in [("train", []), ("eval", ["--mask-count", "3"])]:
        out = root / f"{command}-checkpoint-every{every}"
        assert run([command, "--edges", str(edges), "--directed", *TINY, *extra,
                    "--checkpoint-every", every, "--out", str(out)]) == 1
        assert f"checkpoint_every must be >= 1, not {every}" in capsys.readouterr().err
        assert not list(out.glob("*.bin"))
        assert not (out / "config.json").exists()


@pytest.mark.parametrize("which", ["foo", "2", "7"])
def test_bad_aspect_probe_slice_is_a_usage_error(simulated, tmp_path, capsys, which):
    """K=2 here: eval's --which is checked before any training."""
    _, edges = simulated
    out = tmp_path / "out"
    assert run(["eval", "--edges", str(edges), "--directed", *TINY,
                "--mask-count", "3", "--which", which, "--out", str(out)]) == 2
    assert "usage error: --which must be" in capsys.readouterr().err
    assert not (out / "model.bin").exists()
    assert not (out / "config.json").exists()


@pytest.mark.parametrize("field, value", [("epochs", 2.5), ("seed", "1"), ("aspects", "2")])
def test_config_value_of_the_wrong_type_is_an_error(simulated, tmp_path, capsys, field, value):
    """Under train and under eval, a usage error before anything else is
    checked: eval's --which never sees the raw aspect count."""
    _, edges = simulated
    cfg = {"aspects": 2, "dim_per": 4, "history": 3, "negatives": 2, "batch": 16,
           "epochs": 1, "seed": 1, "mask_count": 3, field: value}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg))
    for command in ("train", "eval"):
        out = tmp_path / command
        assert run([command, "--config", str(config), "--edges", str(edges), "--directed",
                    "--out", str(out)]) == 2
        assert f"{field} must be" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("command, key, value, message", [
    pytest.param(command, key, value, message, id=f"{command}-{key}")
    for command, key, value, message in [
        ("train", "no_attention", "false", "--no-attention must be true or false, not 'false'"),
        ("train", "directed", "no", "--directed must be true or false, not 'no'"),
        ("train", "checkpoint_every", "2", "--checkpoint-every must be an integer, not '2'"),
        ("train", "dim_per", True, "--dim-per must be an integer, not True"),
        ("eval", "mask_count", "3", "--mask-count must be an integer, not '3'"),
        ("eval", "save_pairs", 1, "--save-pairs must be true or false, not 1"),
        ("simulate", "mu", "1", "--mu must be a number, not '1'"),
        ("simulate", "nodes_per", 3.0, "--nodes-per must be an integer, not 3.0"),
    ]
])
def test_config_value_that_does_not_fit_its_flag_is_a_usage_error(
    simulated, tmp_path, capsys, command, key, value, message
):
    """Each value is checked against its own flag: an integer flag takes an
    integer but not a bool, a number flag a number, an on/off flag a bool.
    A flag on the command line does not hide a bad config value."""
    _, edges = simulated
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: value}))
    inputs = {"train": ["--edges", str(edges), "--directed", *TINY],
              "eval": ["--edges", str(edges), "--directed", *TINY, "--mask-count", "3"],
              "simulate": ["--aspects", "2", "--nodes-per", "3"]}[command]
    out = tmp_path / "out"
    assert run([command, "--config", str(config), *inputs, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"usage error: {message}" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("key", ["epoch", "variant"])
def test_config_key_that_no_command_defines_is_a_usage_error(simulated, tmp_path, capsys, key):
    """A typo (``epoch``) or a key of a removed command (``variant``) would
    otherwise be dropped without a word and train another model."""
    _, edges = simulated
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"epochs": 1, key: 2}))
    out = tmp_path / "out"
    assert run(["eval", "--config", str(config), "--edges", str(edges), "--directed",
                "--out", str(out)]) == 2
    assert f"usage error: --config {config} has keys that no hawkmix command defines: {key}" in (
        capsys.readouterr().err)
    assert not out.exists()


def test_config_that_is_not_a_json_object_is_a_usage_error(simulated, tmp_path, capsys):
    _, edges = simulated
    config = tmp_path / "config.json"
    config.write_text(json.dumps(["epochs"]))
    assert run(["train", "--config", str(config), "--edges", str(edges),
                "--out", str(tmp_path / "out")]) == 2
    assert f"usage error: --config {config} must hold a JSON object" in capsys.readouterr().err


def test_config_that_is_not_valid_json_is_a_usage_error(simulated, tmp_path, capsys):
    """A malformed file is named, and rejected before the output directory is made."""
    _, edges = simulated
    config = tmp_path / "config.json"
    config.write_text('{"seed": 1,')
    out = tmp_path / "out"
    assert run(["train", "--config", str(config), "--edges", str(edges), "--out", str(out)]) == 2
    assert f"usage error: --config {config} is not valid JSON: " in capsys.readouterr().err
    assert not out.exists()


def test_train_config_replays_under_eval(simulated, tmp_path):
    """A key of another command is ignored: train's echo holds no eval key,
    and eval reads its own keys from it."""
    root, _ = simulated
    out = tmp_path / "eval"
    assert run(["eval", "--config", str(root / "train" / "config.json"), "--mask-count", "3",
                "--out", str(out)]) == 0
    config = json.loads((out / "metrics.json").read_text())["config"]
    assert config.pop("masked_edges") == 3 and config.pop("n_pairs") == 6
    assert config == asdict(load_params(root / "train" / "model.bin").hyper)


def test_model_header_of_the_wrong_type_is_an_error(simulated, tmp_path, capsys):
    """A model whose header says ``"dim": 2.5``, passed to ``recommend``."""
    root, edges = simulated
    blob = (root / "train" / "model.bin").read_bytes()
    off = len(MODEL_MAGIC)
    (hlen,) = struct.unpack_from("<I", blob, off)
    header = json.loads(blob[off + 4 : off + 4 + hlen])
    header["hyper"]["dim"] = 2.5
    text = json.dumps(header).encode()
    model = tmp_path / "model.bin"
    model.write_bytes(MODEL_MAGIC + struct.pack("<I", len(text)) + text + blob[off + 4 + hlen :])
    assert run(["recommend", "--model", str(model), "--edges", str(edges), "--directed",
                "--node", "0", "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "malformed header" in err and "dim must be of type int" in err


@pytest.mark.parametrize("command", ["recommend", "intensity"])
def test_model_of_another_network_is_an_error(simulated, tmp_path, capsys, command):
    """A model trained on 12 nodes, queried on a 3-node edge list."""
    root, _ = simulated
    model = root / "train" / "model.bin"
    edges = tmp_path / "edges.txt"
    edges.write_text("0 1 1.0\n1 2 2.0\n")
    assert run([command, "--model", str(model), "--edges", str(edges), "--directed",
                "--node", "0", "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert f"the model has {load_params(model).node_count} nodes" in err
    assert "the edge list has 3" in err


def test_times_are_in_the_edge_lists_units(tmp_path):
    """--time and intensity.csv use raw times, not the normalized scale."""
    edges = tmp_path / "edges.txt"
    edges.write_text(
        "a b 1000\na c 2000\na d 3000\ne f 1200\ng h 1800\ni j 2200\nk l 2600\n"
    )
    assert run(["train", "--edges", str(edges), "--directed", *TINY,
                "--out", str(tmp_path / "train")]) == 0
    model = str(tmp_path / "train" / "model.bin")
    out = tmp_path / "rec"
    assert run(["recommend", "--model", model, "--edges", str(edges), "--directed",
                "--node", "a", "--time", "2500", "--k", "20", "--out", str(out)]) == 0
    ranked = {row[1] for row in read_csv(out / "recommendations.csv")[1:]}
    assert "d" in ranked  # a links to d only at 3000, after the query
    assert not ranked & {"a", "b", "c"}
    out = tmp_path / "intensity"
    assert run(["intensity", "--model", model, "--edges", str(edges), "--directed",
                "--node", "a", "--out", str(out)]) == 0
    times = [float(row[0]) for row in read_csv(out / "intensity.csv")[1:]]
    assert sorted(set(times)) == [1000.0, 2000.0, 3000.0]


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("seed", [str(2**64), str(2**64 + 3)])
def test_seed_beyond_64_bits_is_an_error(simulated, capsys, command, seed):
    """Checked before any training: the training streams key Philox with 64
    bits of the seed, so 2**64 would train as seed 0 does."""
    root, edges = simulated
    out = root / f"{command}-seed{seed}"
    extra = ["--mask-count", "3"] if command == "eval" else []
    assert run([command, "--edges", str(edges), "--directed", *TINY, "--seed", seed,
                *extra, "--out", str(out)]) == 1
    assert f"seed must be in [0, 2**64), not {seed}" in capsys.readouterr().err
    assert not list(out.glob("*.bin"))
