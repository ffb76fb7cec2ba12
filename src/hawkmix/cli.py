"""Command-line entry point: train, eval, recommend, simulate, intensity.

``eval`` is the one link-prediction pipeline: it masks static edges, checks
the probe pairs, trains on the rest and probes the embedding slices that
``--which`` names. Ablations train with ``--no-attention`` and/or
``--no-gumbel``. Its ``metrics.json`` is ``{"task": "link_prediction",
"metrics": {<slice>: {"auc_roc", "macro_f1"}}, "config": {<HyperParams
fields>, "masked_edges", "n_pairs"}, "seed"}``.

Every subcommand checks its inputs, then writes a ``config.json`` echo of its
resolved settings into the output directory, so a rejected run leaves no
files and any run can be replayed byte-identically with ``--config
config.json``. A config key that no subcommand defines is a usage error, and
so is a value that does not fit its flag (a string for an integer flag); a
key that another subcommand defines is ignored, so a ``train`` config also
replays under ``eval``. All randomness derives from ``--seed``. Times on the
command line and in output files are in the edge list's own units; the
network's normalized [0, 1] scale stays internal.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import numbers
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .eval import (
    check_model_fits,
    check_probe_pairs,
    precision_recall_at_k,
    probe_report,
    recommend,
)
from .intensity import forward
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
    load_edge_list,
    mask_static_edges,
    write_pairs,
)
from .training import check_checkpointing, train

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
    "which": "concat",
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
                   help=f"batch size (default {_HYPER_DEFAULTS['batch_size']} under 10k "
                        "nodes, else 1000)")
    p.add_argument("--no-attention", action="store_const", const=True, default=None,
                   dest="no_attention", help="ablation: switch off the graph attention")
    p.add_argument("--no-gumbel", action="store_const", const=True, default=None,
                   dest="no_gumbel", help="ablation: switch off the Gumbel-Softmax noise")
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

    p = sub.add_parser("eval", help="mask edges, train on the rest, probe link prediction")
    _add_train_flags(p)
    p.add_argument("--mask-count", type=int, default=None, dest="mask_count",
                   help="static edges to hold out as positive probe pairs (default 5000)")
    p.add_argument("--save-pairs", action="store_const", const=True, default=None,
                   dest="save_pairs", help="write the probe pairs to positives.txt and negatives.txt")
    p.add_argument("--which", default=None,
                   help="embedding slice to probe: 'identity', 'concat' (default), "
                        "an aspect index, or 'all'")
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

    p = sub.add_parser("intensity", help="per-aspect relative target scores at a node's events")
    p.add_argument("--model", default=None)
    p.add_argument("--edges", default=None)
    p.add_argument("--directed", action="store_const", const=True, default=None)
    p.add_argument("--node", default=None)
    _add_common(p)
    return parser


# What a --config value of an option of each kind must be. An option whose
# command checks its range says so here, as that check's message does.
_CONFIG_KINDS = {numbers.Integral: "an integer", numbers.Real: "a number", bool: "true or false"}
_CONFIG_RANGES = {"k": "a positive integer", "time": "a finite number"}


def _check_config_value(action, value) -> None:
    """A usage error unless a --config value fits its option: an integer
    (not a bool) for ``type=int``, a number for ``type=float``, a bool for
    an on/off flag. String options take the value as it is."""
    kind = bool if action.const is True else {int: numbers.Integral,
                                              float: numbers.Real}.get(action.type)
    if kind is None or (isinstance(value, kind) and (kind is bool) == isinstance(value, bool)):
        return
    what = _CONFIG_RANGES.get(action.dest, _CONFIG_KINDS[kind])
    raise SystemExit2(f"{action.option_strings[0]} must be {what}, not {value!r}")


def _resolve(args, parser) -> dict:
    """Merge CLI values over --config file values over built-in defaults. A
    config file that is not a JSON object is a usage error, and so are a
    config key that no subcommand defines and a value of the command's own
    options that does not fit the option."""
    cfg = {}
    if args.config:
        with open(args.config) as fh:
            try:
                cfg = json.load(fh)
            except json.JSONDecodeError as err:
                raise SystemExit2(f"--config {args.config} is not valid JSON: {err}") from None
        if not isinstance(cfg, dict):
            raise SystemExit2(f"--config {args.config} must hold a JSON object")
        known = {key for name in _COMMANDS for key in vars(parser.parse_args([name]))}
        unknown = sorted(set(cfg) - known)
        if unknown:
            raise SystemExit2(f"--config {args.config} has keys that no hawkmix command "
                              f"defines: {', '.join(unknown)}")
        commands = next(a for a in parser._actions if a.dest == "subcommand").choices
        for action in commands[args.subcommand]._actions:
            if cfg.get(action.dest) is not None:
                _check_config_value(action, cfg[action.dest])
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


def _echo_config(cfg) -> Path:
    """Make the output directory and write config.json into it; a command
    calls it once its inputs are checked."""
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "config.json", "w") as fh:
        json.dump(cfg, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return out


def _hyper_from(cfg, node_count: int) -> HyperParams:
    """The run's HyperParams; the checkpoint interval is checked with them."""
    check_checkpointing(cfg.get("checkpoint_every"), cfg["out"])
    batch = cfg.get("batch")
    if batch is None:
        batch = _HYPER_DEFAULTS["batch_size"] if node_count < 10_000 else 1000
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
    _require(cfg, "edges", "out")
    net = load_edge_list(cfg["edges"], directed=cfg["directed"])
    hyper = _hyper_from(cfg, net.node_count)
    _train_to_dir(net, hyper, cfg, _echo_config(cfg))
    return 0


def _cmd_eval(cfg) -> int:
    _require(cfg, "edges", "out")
    net = load_edge_list(cfg["edges"], directed=cfg["directed"])
    hyper = _hyper_from(cfg, net.node_count)
    k, which = hyper.n_aspects, str(cfg["which"])
    slices = {"identity": ["identity"], "concat": ["concat"],
              "all": ["identity", "concat", *range(k)], **{str(i): [i] for i in range(k)}}
    if which not in slices:
        raise SystemExit2(f"--which must be 'identity', 'concat', 'all' or an aspect index "
                          f"in [0, {k}), not {which!r}")
    train_net, positives, negatives = mask_static_edges(
        net, cfg["mask_count"], np.random.default_rng(cfg["seed"]))
    check_probe_pairs(positives, negatives, cfg["seed"])
    out = _echo_config(cfg)
    if cfg["save_pairs"]:
        write_pairs(positives, out / "positives.txt")
        write_pairs(negatives, out / "negatives.txt")
    params = _train_to_dir(train_net, hyper, cfg, out)
    record = {
        "task": "link_prediction",
        "metrics": {
            sl if isinstance(sl, str) else f"aspect_{sl}":
                probe_report(params, positives, negatives, cfg["seed"], which=sl).metrics
            for sl in slices[which]
        },
        "config": {**asdict(hyper), "masked_edges": cfg["mask_count"],
                   "n_pairs": len(positives) + len(negatives)},
        "seed": cfg["seed"],
    }
    text = json.dumps(record, sort_keys=True, indent=2)
    (out / "metrics.json").write_text(text + "\n")
    print(text)
    return 0


def _node_label(node) -> str:
    """The edge-list token of a ``--node``. Labels are the file's string
    tokens, so an integer from a config file names the token it spells."""
    if isinstance(node, bool) or not isinstance(node, (str, int)):
        raise SystemExit2(f"--node must be a label or an integer, not {node!r}")
    return str(node)


def _model_net_node(cfg, node: str):
    """(params, network, node id) of a query; the model must fit the network."""
    params = load_params(cfg["model"])
    net = load_edge_list(cfg["edges"], directed=cfg["directed"])
    check_model_fits(params, net)
    if node not in net.label_to_id:
        raise ValueError(f"node {node!r} does not appear in the edge list")
    return params, net, net.label_to_id[node]


def _cmd_recommend(cfg) -> int:
    _require(cfg, "model", "edges", "node", "out")
    node = _node_label(cfg["node"])
    k, time = cfg["k"], cfg["time"]
    if k < 1:
        raise SystemExit2(f"--k must be a positive integer, not {k!r}")
    if time is not None and not math.isfinite(time):
        raise SystemExit2(f"--time must be a finite number, not {time!r}")
    params, net, u = _model_net_node(cfg, node)
    truth = None
    if cfg.get("truth"):
        with open(cfg["truth"]) as fh:
            truth = {net.label_to_id[x] for x in map(str.strip, fh) if x in net.label_to_id}
        if not truth:
            raise ValueError(f"ground truth is empty: {cfg['truth']} names no node "
                             "of the edge list")
    out = _echo_config(cfg)
    t = float(net.times.max()) + 1e-9 if time is None else net.normalized_time(time)
    ranked = recommend(params, net, u, t, k)
    with open(out / "recommendations.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["rank", "node", "score"])
        for rank, (v, score) in enumerate(ranked, start=1):
            writer.writerow([rank, net.labels[v], format(score, ".17g")])
    if truth is not None:
        prec, rec = precision_recall_at_k(ranked, truth, k)
        metrics = {
            "task": "temporal_node_recommendation",
            "metrics": {f"precision_at_{k}": prec, f"recall_at_{k}": rec},
            "seed": cfg["seed"],
        }
        (out / "metrics.json").write_text(json.dumps(metrics, sort_keys=True, indent=2) + "\n")
    return 0


def _cmd_simulate(cfg) -> int:
    _require(cfg, "out")
    spec = PlantedSpec(
        n_aspects=cfg["aspects"],
        nodes_per_aspect=cfg["nodes_per"],
        mu0=cfg["mu"],
        alpha0=cfg["alpha"],
        delta0=cfg["delta"],
        horizon=cfg["horizon"],
        cross_aspect_prob=cfg["cross"],
    )
    HyperParams(seed=cfg["seed"])  # the seed range that train checks
    out = _echo_config(cfg)
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
    _require(cfg, "model", "edges", "node", "out")
    node = _node_label(cfg["node"])
    params, net, u = _model_net_node(cfg, node)
    out = _echo_config(cfg)
    nbrs, ts = net.events(u)
    src = np.full(len(ts), u)
    # One event per call (a single slot rounds up to one query): no window
    # is padded to another's, and the attention's products over the batch,
    # which round a row differently with the batch's size, see that row
    # alone, so each event's score depends on that event only. exp(lam_k)
    # ranks targets at one event's time; it is not a rate across times.
    lam_k = np.empty((len(ts), params.hyper.n_aspects))
    for idx, hist in net.history_chunks(src, ts, params.hyper.history_len, slots=1):
        lam_k[idx] = forward(params, src[idx], hist, nbrs[idx, None]).lam_k[:, 0, :]
    scores = np.exp(lam_k)                                           # (events, K)
    with open(out / "intensity.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time", "aspect", "lambda"])
        for t, row in zip(net.raw_time(ts).tolist(), scores.tolist()):
            for k, score in enumerate(row):
                writer.writerow([format(t, ".17g"), k, format(score, ".17g")])
    return 0


_COMMANDS = {
    "train": _cmd_train,
    "eval": _cmd_eval,
    "recommend": _cmd_recommend,
    "simulate": _cmd_simulate,
    "intensity": _cmd_intensity,
}


def run(argv) -> int:
    """Execute one subcommand; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the usage message
        return int(exc.code) if exc.code else 0
    try:
        return _COMMANDS[args.subcommand](_resolve(args, parser))
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


if __name__ == "__main__":
    main()
