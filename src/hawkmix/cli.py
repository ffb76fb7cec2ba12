"""Command-line entry point: train, evaluate, recommend, simulate, trace.

Every subcommand writes a ``config.json`` echo of its resolved settings into
the output directory, so any run can be replayed byte-identically with
``--config config.json``. All randomness derives from ``--seed``. Times on the
command line and in output files are in the edge list's own units; the
network's normalized [0, 1] scale stays internal.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .eval import aspect_probe, precision_recall_at_k, probe_report, recommend
from .intensity import forward, window_histories
from .params import (
    HyperParams,
    ModelFileError,
    export_embeddings,
    load_params,
    save_params,
)
from .synth import PlantedSpec, generate
from .temporal_graph import (
    EdgeListParseError,
    history_windows,
    load_edge_list,
    mask_static_edges,
    write_pairs,
)
from .training import ablation_config, train

# CLI flag -> HyperParams field; the flags' defaults are the dataclass's.
_HYPER_FLAGS = {
    "aspects": "n_aspects",
    "dim_per": "dim",
    "history": "history_len",
    "negatives": "n_negatives",
    "epochs": "epochs",
    "lr": "lr",
    "seed": "seed",
}
_HYPER_DEFAULTS = {f.name: f.default for f in fields(HyperParams)}

_DEFAULTS = {
    **{flag: _HYPER_DEFAULTS[name] for flag, name in _HYPER_FLAGS.items()},
    "directed": False,
    "no_attention": False,
    "no_gumbel": False,
    "mask_count": 5000,
    "k": 10,
    "which": "all",
    "variant": "full",
    "mu": 1.0,
    "alpha": 0.3,
    "delta": 1.0,
    "horizon": 20.0,
    "cross": 0.05,
    "nodes_per": 50,
    "save_pairs": False,
}


def _add_common(p):
    p.add_argument("--config", default=None, help="JSON file with defaults for any flag")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None, help="output directory (required)")


def _add_train_flags(p):
    p.add_argument("--edges", default=None, help="edge list: one `src dst time` per line")
    p.add_argument("--directed", action="store_const", const=True, default=None)
    p.add_argument("--aspects", type=int, default=None, help="number of aspects K")
    p.add_argument("--dim-per", type=int, default=None, dest="dim_per",
                   help="size of each embedding; total dim is dim-per*(K+1)")
    p.add_argument("--history", type=int, default=None, help="history window length")
    p.add_argument("--negatives", type=int, default=None, help="negative samples per edge")
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--batch", type=int, default=None,
                   help="batch size (default 200 under 10k nodes, else 1000)")
    p.add_argument("--no-attention", action="store_const", const=True, default=None,
                   dest="no_attention")
    p.add_argument("--no-gumbel", action="store_const", const=True, default=None,
                   dest="no_gumbel")
    p.add_argument("--checkpoint-every", type=int, default=None, dest="checkpoint_every")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hawkmix",
        description="Multi-aspect temporal network embeddings via Hawkes mixtures",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("train", help="train embeddings on a temporal edge list")
    _add_train_flags(p)
    _add_common(p)

    p = sub.add_parser("eval-link", help="mask edges, train on the rest, probe link prediction")
    _add_train_flags(p)
    p.add_argument("--mask-count", type=int, default=None, dest="mask_count")
    p.add_argument("--save-pairs", action="store_const", const=True, default=None,
                   dest="save_pairs")
    _add_common(p)

    p = sub.add_parser("ablate", help="eval-link with a component switched off")
    _add_train_flags(p)
    p.add_argument("--mask-count", type=int, default=None, dest="mask_count")
    p.add_argument("--variant", default=None,
                   choices=["full", "no_attn", "no_gumbel", "no_attn_no_gumbel"])
    _add_common(p)

    p = sub.add_parser("recommend", help="rank candidate targets for a node by intensity")
    p.add_argument("--model", default=None, help="model file from a train run")
    p.add_argument("--edges", default=None)
    p.add_argument("--directed", action="store_const", const=True, default=None)
    p.add_argument("--node", default=None, help="node label as it appears in the edge list")
    p.add_argument("--time", type=float, default=None,
                   help="query time in the edge list's units (default: just after the last event)")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--truth", default=None,
                   help="optional file of true future neighbors, one label per line")
    _add_common(p)

    p = sub.add_parser("simulate", help="generate a planted multi-aspect network")
    p.add_argument("--aspects", type=int, default=None)
    p.add_argument("--nodes-per", type=int, default=None, dest="nodes_per")
    p.add_argument("--mu", type=float, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--horizon", type=float, default=None)
    p.add_argument("--cross", type=float, default=None)
    _add_common(p)

    p = sub.add_parser("intensity", help="per-aspect rate series along a node's events")
    p.add_argument("--model", default=None)
    p.add_argument("--edges", default=None)
    p.add_argument("--directed", action="store_const", const=True, default=None)
    p.add_argument("--node", default=None)
    _add_common(p)

    p = sub.add_parser("aspect-probe", help="link prediction from single embedding slices")
    _add_train_flags(p)
    p.add_argument("--mask-count", type=int, default=None, dest="mask_count")
    p.add_argument("--which", default=None,
                   help="'identity', 'concat', an aspect index, or 'all'")
    _add_common(p)
    return parser


def _resolve(args) -> dict:
    """Merge CLI values over --config file values over built-in defaults."""
    cfg = {}
    if args.config:
        with open(args.config) as fh:
            cfg = json.load(fh)
    out = {}
    for key, value in vars(args).items():
        if key in ("config",):
            continue
        if value is not None:
            out[key] = value
        elif key in cfg and cfg[key] is not None:
            out[key] = cfg[key]
        elif key in _DEFAULTS:
            out[key] = _DEFAULTS[key]
        else:
            out[key] = None
    return out


def _require(cfg, *keys):
    for key in keys:
        if cfg.get(key) is None:
            raise SystemExit2(f"missing required option --{key.replace('_', '-')}")


class SystemExit2(Exception):
    """Usage error: maps to exit code 2."""


def _outdir(cfg) -> Path:
    _require(cfg, "out")
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _echo_config(cfg, out: Path) -> None:
    with open(out / "config.json", "w") as fh:
        json.dump(cfg, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _hyper_from(cfg, node_count: int) -> HyperParams:
    batch = cfg.get("batch")
    if batch is None:
        batch = 200 if node_count < 10_000 else 1000
        cfg["batch"] = batch
    return HyperParams(
        **{name: cfg[flag] for flag, name in _HYPER_FLAGS.items()},
        batch_size=batch,
        use_attention=not cfg["no_attention"],
        use_gumbel=not cfg["no_gumbel"],
    )


def _train_to_dir(net, hyper, cfg, out: Path):
    log_rows = []

    def on_epoch(epoch, mean_loss, wall):
        print(f"{epoch},{mean_loss:.6f},{wall:.3f}")
        log_rows.append((epoch, mean_loss, wall))

    params = train(
        net, hyper, on_epoch=on_epoch,
        checkpoint_every=cfg.get("checkpoint_every"), checkpoint_dir=out,
    )
    with open(out / "train_log.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "mean_loss", "wall_seconds"])
        for epoch, loss, wall in log_rows:
            writer.writerow([epoch, format(loss, ".17g"), format(wall, ".3f")])
    save_params(params, out / "model.bin")
    export_embeddings(params, out / "embeddings.txt", labels=net.labels)
    return params


def _cmd_train(cfg) -> int:
    _require(cfg, "edges")
    out = _outdir(cfg)
    net = load_edge_list(cfg["edges"], directed=cfg["directed"])
    hyper = _hyper_from(cfg, net.node_count)
    _echo_config(cfg, out)
    _train_to_dir(net, hyper, cfg, out)
    return 0


def _cmd_eval_link(cfg, variant=None) -> int:
    _require(cfg, "edges")
    out = _outdir(cfg)
    if variant is not None:
        out = out / variant
        out.mkdir(parents=True, exist_ok=True)
    net = load_edge_list(cfg["edges"], directed=cfg["directed"])
    hyper = _hyper_from(cfg, net.node_count)
    if variant is not None:
        hyper = ablation_config(hyper, variant)
    _echo_config(cfg, out)
    rng = np.random.default_rng(cfg["seed"])
    train_net, positives, negatives = mask_static_edges(net, cfg["mask_count"], rng)
    if cfg.get("save_pairs"):
        write_pairs(positives, out / "positives.txt")
        write_pairs(negatives, out / "negatives.txt")
    params = _train_to_dir(train_net, hyper, cfg, out)
    report = probe_report(
        params, positives, negatives, cfg["seed"],
        config={"masked_edges": cfg["mask_count"], "variant": variant or "full"},
    )
    (out / "metrics.json").write_text(report.to_json() + "\n")
    print(report.to_json())
    return 0


def _model_net_node(cfg):
    """(params, network, node id) of a query; the model must fit the network."""
    params = load_params(cfg["model"])
    net = load_edge_list(cfg["edges"], directed=cfg["directed"])
    if params.node_count != net.node_count:
        raise ValueError(
            f"the model has {params.node_count} nodes but the edge list has "
            f"{net.node_count}; use the edge list the model was trained on"
        )
    node = cfg["node"]
    if node not in net.label_to_id:
        raise ValueError(f"node {node!r} does not appear in the edge list")
    return params, net, net.label_to_id[node]


def _cmd_recommend(cfg) -> int:
    _require(cfg, "model", "edges", "node")
    if cfg["time"] is not None and not math.isfinite(cfg["time"]):
        raise SystemExit2(f"--time must be a finite number, not {cfg['time']}")
    out = _outdir(cfg)
    _echo_config(cfg, out)
    params, net, u = _model_net_node(cfg)
    t = float(net.times.max()) + 1e-9 if cfg["time"] is None else net.normalized_time(cfg["time"])
    ranked = recommend(params, net, u, t, cfg["k"])
    with open(out / "recommendations.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["rank", "node", "score"])
        for rank, (v, score) in enumerate(ranked, start=1):
            writer.writerow([rank, net.labels[v], format(score, ".17g")])
    if cfg.get("truth"):
        with open(cfg["truth"]) as fh:
            truth_labels = [line.strip() for line in fh if line.strip()]
        truth = {net.label_to_id[x] for x in truth_labels if x in net.label_to_id}
        prec, rec = precision_recall_at_k(ranked, truth, cfg["k"])
        metrics = {
            "task": "temporal_node_recommendation",
            "metrics": {f"precision_at_{cfg['k']}": prec, f"recall_at_{cfg['k']}": rec},
            "seed": cfg["seed"],
        }
        (out / "metrics.json").write_text(json.dumps(metrics, sort_keys=True, indent=2) + "\n")
    return 0


def _cmd_simulate(cfg) -> int:
    out = _outdir(cfg)
    _echo_config(cfg, out)
    spec = PlantedSpec(
        n_aspects=cfg["aspects"],
        nodes_per_aspect=cfg["nodes_per"],
        mu0=cfg["mu"],
        alpha0=cfg["alpha"],
        delta0=cfg["delta"],
        horizon=cfg["horizon"],
        cross_aspect_prob=cfg["cross"],
    )
    _, truth = generate(spec, np.random.default_rng(cfg["seed"]))
    with open(out / "edges.txt", "w") as fh:
        for s, v, t in zip(truth.sources, truth.targets, truth.times):
            fh.write(f"{s} {v} {format(t, '.17g')}\n")
    with open(out / "truth.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node", "aspect"])
        for node, aspect in enumerate(truth.labels):
            writer.writerow([node, int(aspect)])
    return 0


def _cmd_intensity(cfg) -> int:
    _require(cfg, "model", "edges", "node")
    out = _outdir(cfg)
    _echo_config(cfg, out)
    params, net, u = _model_net_node(cfg)
    pos = np.arange(net.indptr[u], net.indptr[u + 1])
    ts = net.ev_time[pos]
    start, stop = history_windows(net, pos, params.hyper.history_len)
    hist = window_histories(ts, net.ev_nbr, net.ev_time, start, stop)
    fwd = forward(params, np.full(len(ts), u), hist, net.ev_nbr[pos][:, None])
    rates = np.exp(fwd.lam_k[:, 0, :])                               # (events, K)
    with open(out / "intensity.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time", "aspect", "lambda"])
        for t, row in zip(net.raw_time(ts).tolist(), rates.tolist()):
            for k, rate in enumerate(row):
                writer.writerow([format(t, ".17g"), k, format(rate, ".17g")])
    return 0


def _cmd_aspect_probe(cfg) -> int:
    _require(cfg, "edges")
    out = _outdir(cfg)
    net = load_edge_list(cfg["edges"], directed=cfg["directed"])
    hyper = _hyper_from(cfg, net.node_count)
    _echo_config(cfg, out)
    rng = np.random.default_rng(cfg["seed"])
    train_net, positives, negatives = mask_static_edges(net, cfg["mask_count"], rng)
    params = _train_to_dir(train_net, hyper, cfg, out)
    which = cfg["which"]
    if which == "all":
        slices = ["identity", "concat"] + list(range(hyper.n_aspects))
    else:
        slices = [which if which in ("identity", "concat") else int(which)]
    reports = {}
    for sl in slices:
        rep = aspect_probe(params, positives, negatives, sl, cfg["seed"])
        key = sl if isinstance(sl, str) else f"aspect_{sl}"
        reports[key] = rep.metrics
    payload = {
        "task": "aspect_probe",
        "metrics": reports,
        "config": {"masked_edges": cfg["mask_count"], "dim": hyper.dim,
                   "n_aspects": hyper.n_aspects},
        "seed": cfg["seed"],
    }
    text = json.dumps(payload, sort_keys=True, indent=2)
    (out / "metrics.json").write_text(text + "\n")
    print(text)
    return 0


_COMMANDS = {
    "train": _cmd_train,
    "eval-link": _cmd_eval_link,
    "recommend": _cmd_recommend,
    "simulate": _cmd_simulate,
    "intensity": _cmd_intensity,
    "aspect-probe": _cmd_aspect_probe,
}


def run(argv) -> int:
    """Execute one subcommand; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the usage message
        return int(exc.code) if exc.code else 0
    try:
        cfg = _resolve(args)
        if args.subcommand == "ablate":
            return _cmd_eval_link(cfg, variant=cfg["variant"])
        return _COMMANDS[args.subcommand](cfg)
    except SystemExit2 as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"usage error: missing input: {exc}", file=sys.stderr)
        return 2
    except (EdgeListParseError, ModelFileError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))
