import csv
import json

import pytest

from hawkmix import load_params
from hawkmix.cli import run

TINY = ["--aspects", "2", "--dim-per", "4", "--history", "3", "--negatives", "2",
        "--epochs", "1", "--batch", "16", "--seed", "1"]


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


@pytest.mark.parametrize("command, extra", [
    ("eval-link", ["--mask-count", "3"]),
    ("ablate", ["--mask-count", "3", "--variant", "no_attn"]),
    ("aspect-probe", ["--mask-count", "3", "--which", "all"]),
])
def test_probe_commands_write_metrics(simulated, command, extra):
    root, edges = simulated
    out = root / command
    assert run([command, "--edges", str(edges), "--directed", *TINY, *extra,
                "--out", str(out)]) == 0
    metrics = out / ("no_attn" if command == "ablate" else "") / "metrics.json"
    assert json.loads(metrics.read_text())["metrics"]


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
