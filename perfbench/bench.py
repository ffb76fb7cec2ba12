"""Workloads, output checks, tracing and metrics of the hawkmix benchmark.

Only public functions of hawkmix are called and timed; no private name is
patched. ``run.py`` pins BLAS to one thread and puts ``src`` on the path
before this module is imported.
"""

from __future__ import annotations

import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np
import scipy

from hawkmix import (
    HyperParams,
    NegativeSampler,
    PlantedSpec,
    TemporalEdge,
    batch_gradients,
    batch_loss,
    build_context,
    candidate_scores,
    generate,
    history,
    infer_aspect_labels,
    init_params,
    load_edge_list,
    make_sample,
    mask_static_edges,
    mixed_intensity,
    probe_report,
    recommend,
    recovery_score,
    sample_negatives,
    train,
)

DEV_SEED = 1        # the seed to use while writing and tuning a change
HOLDOUT_SEED = 2    # never used for tuning; a claimed gain must also hold here

MIN_SESSIONS = 2    # full sessions per run at least
TOP_K = 10          # recommend(k=...) in the query loop
SCORE_RTOL = 1e-9   # recommend scores against the scalar intensity path
PROBE_EDGES = 1000  # training edges replayed through the layer probes (at least)
PROBE_QUERIES = 50  # recommend queries replayed through candidate_scores

# name -> (unit, better). BENCHMARK.json lists the same names and units.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "train_edges_per_s": ("edges/s", "higher"),
    "loss_final": ("nats", "lower"),
    "link_auc": ("auc", "higher"),
    "infer_s": ("s", "lower"),
    "recommend_p50_ms": ("ms", "lower"),
    "recommend_p95_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
PER_LAYER = {
    "synth.generate_s": "s",
    "temporal_graph.load_s": "s",
    "temporal_graph.mask_s": "s",
    "temporal_graph.history_us": "us",
    "temporal_graph.negatives_us": "us",
    "temporal_graph.neg_accept_ratio": "ratio",
    "training.sample_us_per_edge": "us/edge",
    "training.forward_us_per_edge": "us/edge",
    "training.fwd_bwd_us_per_edge": "us/edge",
    "training.touched_nodes_per_batch": "count",
    "training.other_us_per_edge": "us/edge",
    "intensity.build_context_us": "us",
    "eval.infer_us_per_event": "us/event",
    "intensity.candidate_scores_us": "us",
    "eval.recommend_candidates": "count",
    "eval.probe_s": "s",
}


@dataclass(frozen=True)
class Workload:
    planted: PlantedSpec
    directed: bool
    hyper: HyperParams      # hyper.seed is replaced by the run seed
    mask_count: int
    queries_per_session: int  # MIN_SESSIONS of them must put >= 10 queries beyond p95
    why: str


WORKLOADS = {
    "fit-planted": Workload(
        planted=PlantedSpec(n_aspects=4, nodes_per_aspect=100, mu0=1.0, alpha0=0.3,
                            delta0=1.0, horizon=20.0, cross_aspect_prob=0.05),
        directed=True,
        hyper=HyperParams(n_aspects=4, history_len=5, dim=20, n_negatives=5,
                          batch_size=200, epochs=2, lr=0.01),
        mask_count=300,
        queries_per_session=400,
        why="Small batches (B=200): per-edge sampling weighs as much as the engine; "
            "infer runs the scalar build_context path; recommend scores 400 candidates.",
    ),
    "query-10k": Workload(
        planted=PlantedSpec(n_aspects=4, nodes_per_aspect=3000, mu0=1.0, alpha0=0.3,
                            delta0=1.0, horizon=0.8, cross_aspect_prob=0.05),
        directed=True,
        hyper=HyperParams(n_aspects=4, history_len=5, dim=20, n_negatives=5,
                          batch_size=200, epochs=3, lr=0.01),
        mask_count=1000,
        queries_per_session=420,
        why="About 10k nodes: each recommend query scores ~10k candidates, which "
            "dominates its latency; set-up and read-out are per-node work on 10k nodes.",
    ),
}

_SMOKE_NET = PlantedSpec(
    n_aspects=2, nodes_per_aspect=12, mu0=1.0, alpha0=0.3, delta0=1.0,
    horizon=6.0, cross_aspect_prob=0.05,
)


def smoke_version(w: Workload) -> Workload:
    """The same pipeline on a ~24-node net: finishes in seconds."""
    return replace(w, planted=_SMOKE_NET, mask_count=10, queries_per_session=15)


# ---------------------------------------------------------------------------
# Tracing: spans are kept in memory and written out when the run ends.


class Tracer:
    """Spans with name, start, end, parent id and an optional work count."""

    def __init__(self):
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name, count=None):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._open[-1] if self._open else None,
               "start": time.perf_counter(), "end": None, "count": count}
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def add(self, name, start, end):
        """A finished span, such as an epoch reported by the trainer's callback."""
        self.spans.append({"id": len(self.spans), "name": name,
                           "parent": self._open[-1] if self._open else None,
                           "start": start, "end": end, "count": None})

    def per_item_us(self, name):
        """Total duration of the named spans over the items they counted, in us."""
        spans = [s for s in self.spans if s["name"] == name]
        total = sum(s["end"] - s["start"] for s in spans)
        return 1e6 * total / sum(s["count"] for s in spans)


def span_cost_us(n=20000) -> float:
    """Cost of opening and closing one empty span, in us."""
    tracer = Tracer()
    t0 = time.perf_counter()
    for _ in range(n):
        with tracer.span("calibration"):
            pass
    return 1e6 * (time.perf_counter() - t0) / n


class NullTracer:
    def span(self, name, count=None):
        return nullcontext()

    def add(self, name, start, end):
        pass


# ---------------------------------------------------------------------------
# Operation and check accounting.


@dataclass
class Tally:
    """Operations attempted and failed, and how often each output check ran."""

    attempted: int = 0
    failed: int = 0
    checks: dict = field(default_factory=dict)

    def check(self, name, ok) -> bool:
        ran, bad = self.checks.get(name, (0, 0))
        self.checks[name] = (ran + 1, bad + (0 if ok else 1))
        return bool(ok)

    def op(self, ok) -> None:
        self.attempted += 1
        self.failed += 0 if ok else 1


def earlier_partners(net, u, t):
    """Nodes u shares an edge with before t, from the network's edge arrays."""
    before = net.times < t
    return set(net.targets[before & (net.sources == u)].tolist()) | set(
        net.sources[before & (net.targets == u)].tolist()
    )


CHECKS = (
    "loss_finite", "sessions_agree", "auc_in_unit_interval", "labels_in_range",
    "recommend_count", "recommend_excludes_self_and_partners", "recommend_sorted",
    "recommend_score_matches_scalar_path",
)


def check_recommendation(tally, params, net, u, t, result) -> bool:
    partners = earlier_partners(net, u, t)
    n_candidates = net.node_count - 1 - len(partners)
    ok = tally.check("recommend_count", len(result) == min(TOP_K, n_candidates))
    ok &= tally.check("recommend_excludes_self_and_partners",
                      all(v != u and v not in partners for v, _ in result))
    ok &= tally.check("recommend_sorted", all(
        s1 > s2 or (s1 == s2 and v1 < v2)
        for (v1, s1), (v2, s2) in zip(result, result[1:])
    ))
    ctx = build_context(params, u, u, t, history(net, u, t, params.hyper.history_len))
    ok &= tally.check("recommend_score_matches_scalar_path", all(
        math.isclose(s, mixed_intensity(params, ctx.with_target(v)), rel_tol=SCORE_RTOL)
        for v, s in result
    ))
    return ok


# ---------------------------------------------------------------------------
# The workload.


def write_edge_list(truth, path) -> None:
    lines = [f"{s} {v} {format(t, '.17g')}\n"
             for s, v, t in zip(truth.sources.tolist(), truth.targets.tolist(), truth.times.tolist())]
    with open(path, "w") as fh:
        fh.writelines(lines)


def infer_calls(net) -> int:
    """build_context calls infer_aspect_labels makes: one per event in each
    node's history, one for a node with none."""
    per_node = np.bincount(net.sources, minlength=net.node_count)
    if not net.directed:
        per_node = per_node + np.bincount(net.targets, minlength=net.node_count)
    return int(np.maximum(per_node, 1).sum())


def set_up(w: Workload, hyper, seed, edge_path, tracer, m):
    """Edge file to ready state: load, mask, initial parameters. Timed into ``m``."""
    t0 = time.perf_counter()
    with tracer.span("temporal_graph.load_edge_list"):
        net = load_edge_list(edge_path, directed=w.directed)
    t1 = time.perf_counter()
    with tracer.span("temporal_graph.mask_static_edges"):
        masked = mask_static_edges(net, w.mask_count, np.random.default_rng(seed))
    t2 = time.perf_counter()
    with tracer.span("params.init_params"):
        init_params(hyper, net.node_count, np.random.default_rng(seed))
    t3 = time.perf_counter()
    m["setup_s"].append(t3 - t0)
    m["load_s"].append(t1 - t0)
    m["mask_s"].append(t2 - t1)
    return net, masked


def run_queries(n, fitted, tracer, tally, qrng, m):
    """Closed loop, one client: each query is sent when the previous one and
    its checks are done, at the (source, time) of an event drawn by seed."""
    params, net = fitted
    for _ in range(n):
        e = int(qrng.integers(net.n_edges))
        u, t = int(net.sources[e]), float(net.times[e])
        try:
            with tracer.span("eval.recommend"):
                t0 = time.perf_counter()
                result = recommend(params, net, u, t, TOP_K)
                m["latencies_ms"].append(1e3 * (time.perf_counter() - t0))
            ok = check_recommendation(tally, params, net, u, t, result)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            ok = False
        tally.op(ok)


class OutOfTime(Exception):
    """The rest of the run's time is shorter than its longest stretch of work."""


class Budget:
    """The run's time, checked between stretches of work.

    Once ``binding`` (after MIN_SESSIONS full sessions), a check stops the run
    when the longest stretch between two checks so far would not end within
    the run's time. So a run ends within its time, a stretch (one epoch and
    one pause at most) before it at worst, whatever a session's length.
    """

    def __init__(self, seconds):
        self.deadline = time.perf_counter() + seconds
        self.binding = False
        self.last = time.perf_counter()
        self.longest = 0.0

    def check(self):
        now = time.perf_counter()
        self.longest = max(self.longest, now - self.last)
        self.last = now
        if self.binding and now + self.longest > self.deadline:
            raise OutOfTime()


def read_out(fitted, tally, tracer, m):
    """One infer_aspect_labels call on the fitted model, timed into ``m`` and checked."""
    params, net = fitted
    with tracer.span("eval.infer_aspect_labels"):
        t0 = time.perf_counter()
        labels = infer_aspect_labels(params, net)
        m["infer_s"].append(time.perf_counter() - t0)
    tally.op(tally.check("labels_in_range", labels.shape == (net.node_count,)
                         and bool(np.all((labels >= 0) & (labels < params.hyper.n_aspects)))))
    m["labels"] = labels


def run_session(w: Workload, hyper, seed, edge_path, tracer, tally, qrng, m, budget, fitted):
    """One user session from the edge file: set up, fit, probe, query, read out.

    The set-ups, queries and read-outs are spread over the session: each
    pause, at every epoch's end and after the probe, repeats the set-up and
    sends a chunk of the queries and one read-out, so that every metric
    samples the machine at many moments of the run rather than in one
    burst. Until this session's fit is done the pauses use ``fitted``, the
    previous session's (params, training net): every session repeats the
    same seeded fit, so the two are equal. Appends timings to the lists in
    ``m`` and returns this session's (params, training net). Raises
    OutOfTime from a ``budget`` check, with the samples taken so far kept.
    """
    chunk = w.queries_per_session // (hyper.epochs + 1)

    def pause():
        budget.check()
        set_up(w, hyper, seed, edge_path, tracer, m)
        if fitted is not None:
            run_queries(chunk, fitted, tracer, tally, qrng, m)
            read_out(fitted, tally, tracer, m)

    budget.check()
    gc.collect()  # every session starts from the same heap
    net, (train_net, positives, negatives) = set_up(w, hyper, seed, edge_path, tracer, m)
    m.update(nodes=net.node_count, events=net.n_edges, train_events=train_net.n_edges)

    losses = []

    def on_epoch(epoch, loss, wall):
        # train() starts the next epoch's clock after this returns, so the
        # pause is not part of any epoch's wall time.
        end = time.perf_counter()
        tracer.add("training.epoch", end - wall, end)
        losses.append(loss)
        m["epoch_s"].append(wall)
        pause()

    with tracer.span("training.train"):
        params = train(train_net, hyper, on_epoch=on_epoch)
    fitted = (params, train_net)
    m["loss_final"].append(losses[-1])
    # Sessions of one run repeat the same seeded fit, so they must agree bitwise.
    tally.op(tally.check("loss_finite", all(math.isfinite(loss) for loss in losses))
             & tally.check("sessions_agree", m["loss_final"][-1] == m["loss_final"][0]))

    budget.check()
    with tracer.span("eval.probe_report"):
        t0 = time.perf_counter()
        report = probe_report(params, positives, negatives, seed=seed)
        m["probe_s"].append(time.perf_counter() - t0)
    m["link_auc"].append(report.metrics["auc_roc"])
    tally.op(tally.check("auc_in_unit_interval", 0.0 <= m["link_auc"][-1] <= 1.0))
    pause()
    return fitted


def run_workload(w: Workload, seed: int, seconds: float, tracer, out_dir: Path, tag: str):
    """Generate the net, then run sessions on it for ``seconds``: at least
    MIN_SESSIONS full ones, then as much of further ones as fits.

    Timings are spread over the whole run this way, so that a slow spell of
    the machine moves a few samples of each metric rather than all of one.
    """
    hyper = replace(w.hyper, seed=seed)
    tally = Tally()
    m = {k: [] for k in ("setup_s", "load_s", "mask_s", "epoch_s", "loss_final",
                         "link_auc", "probe_s", "infer_s", "latencies_ms")}

    with tracer.span("synth.generate"):
        t0 = time.perf_counter()
        _, truth = generate(w.planted, np.random.default_rng(seed))
        m["generate_s"] = time.perf_counter() - t0

    edge_path = out_dir / f"{tag}-{os.getpid()}.edges"
    write_edge_list(truth, edge_path)
    qrng = np.random.default_rng([seed, 7])
    budget = Budget(seconds)
    sessions = 0
    fitted = None
    try:
        while True:
            fitted = run_session(w, hyper, seed, edge_path, tracer, tally, qrng, m, budget, fitted)
            sessions += 1
            budget.binding = sessions >= MIN_SESSIONS
    except OutOfTime:
        pass
    finally:
        edge_path.unlink()
    params, train_net = fitted

    # recovery_score matches K labels to the K planted groups, so it is only
    # defined when the model has no more aspects than the net has groups.
    m["recovery"] = None
    if hyper.n_aspects <= w.planted.n_aspects:
        planted_ids = np.array([int(lab) for lab in train_net.labels])
        m["recovery"] = recovery_score(m["labels"], replace(truth, labels=truth.labels[planted_ids]))
    del m["labels"]
    m["sessions"] = sessions
    m["queries"] = len(m["latencies_ms"])
    m["infer_calls"] = infer_calls(train_net)
    m["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return m, tally, params, train_net, hyper


def warm_epoch_s(m) -> float:
    """Median epoch wall time; the run's first epoch is warm-up and left out."""
    return statistics.median(m["epoch_s"][1:])


def end_to_end_metrics(m) -> dict:
    values = {
        "setup_s": statistics.median(m["setup_s"]),
        "train_edges_per_s": m["train_events"] / warm_epoch_s(m),
        "loss_final": m["loss_final"][0],
        "link_auc": m["link_auc"][0],
        "infer_s": statistics.median(m["infer_s"]),
        "recommend_p50_ms": float(np.percentile(m["latencies_ms"], 50)),
        "recommend_p95_ms": float(np.percentile(m["latencies_ms"], 95)),
        "peak_rss_mb": m["peak_rss_mb"],
    }
    return {k: {"value": v, "unit": END_TO_END[k][0]} for k, v in values.items()}


class CountingSampler:
    """Forwards draws to a NegativeSampler and counts how many it made."""

    def __init__(self, sampler):
        self.sampler = sampler
        self.drawn = 0

    def draw(self, size, rng=None):
        self.drawn += size
        return self.sampler.draw(size, rng)


def probe_layers(tracer, params, net, hyper, seed, m) -> dict:
    """Replay a sample of the workload's own inputs through the lower layers."""
    b = hyper.batch_size
    n_probe = min(net.n_edges, max(PROBE_EDGES, 2 * b))
    idx = np.random.default_rng([seed, 11]).choice(net.n_edges, size=n_probe, replace=False)
    edges = [TemporalEdge(int(net.sources[i]), int(net.targets[i]), float(net.times[i]))
             for i in idx]

    with tracer.span("temporal_graph.history", count=n_probe):
        for u, _, t in edges:
            history(net, u, t, hyper.history_len)

    counting = CountingSampler(NegativeSampler(net, seed=hyper.seed))
    rngs = [np.random.default_rng([hyper.seed, 0, int(i)]) for i in idx]
    with tracer.span("temporal_graph.sample_negatives", count=n_probe):
        for (u, v, _), rng in zip(edges, rngs):
            sample_negatives(counting, net, u, v, hyper.n_negatives, rng)
    accept_ratio = n_probe * hyper.n_negatives / counting.drawn
    del rngs

    # As the trainer does: one batch of samples at a time, each drawn with a
    # fresh generator keyed by its edge. Only one batch is alive at a time,
    # so the collector's passes cost what they cost in training.
    sampler = NegativeSampler(net, seed=hyper.seed)
    pairs = list(zip(edges, idx))
    touched = []
    for s in range(0, max(n_probe - b + 1, 1), b):
        chunk = pairs[s:s + b]
        with tracer.span("training.make_sample", count=len(chunk)):
            batch = [make_sample(net, sampler, edge, hyper, np.random.default_rng([hyper.seed, 0, int(i)]))
                     for edge, i in chunk]
        with tracer.span("training.batch_loss", count=len(batch)):
            batch_loss(params, batch)
        with tracer.span("training.batch_gradients", count=len(batch)):
            _, grads = batch_gradients(params, batch)
        touched.append(len(grads.touched()))
    del batch, grads

    for u, _, t in edges:
        hist = history(net, u, t, hyper.history_len)
        with tracer.span("intensity.build_context", count=1):
            build_context(params, u, u, t, hist)

    qrng = np.random.default_rng([seed, 13])
    n_candidates = []
    for _ in range(PROBE_QUERIES):
        e = int(qrng.integers(net.n_edges))
        u, t = int(net.sources[e]), float(net.times[e])
        blocked = earlier_partners(net, u, t) | {u}
        cands = np.array([v for v in range(net.node_count) if v not in blocked], dtype=np.int64)
        ctx = build_context(params, u, u, t, history(net, u, t, hyper.history_len))
        with tracer.span("intensity.candidate_scores", count=1):
            candidate_scores(params, ctx, cands)
        n_candidates.append(len(cands))

    sample_us = tracer.per_item_us("training.make_sample")
    fwd_bwd_us = tracer.per_item_us("training.batch_gradients")
    epoch_us = 1e6 * warm_epoch_s(m) / net.n_edges
    values = {
        "synth.generate_s": m["generate_s"],
        "temporal_graph.load_s": statistics.median(m["load_s"]),
        "temporal_graph.mask_s": statistics.median(m["mask_s"]),
        "temporal_graph.history_us": tracer.per_item_us("temporal_graph.history"),
        "temporal_graph.negatives_us": tracer.per_item_us("temporal_graph.sample_negatives"),
        "temporal_graph.neg_accept_ratio": accept_ratio,
        "training.sample_us_per_edge": sample_us,
        "training.forward_us_per_edge": tracer.per_item_us("training.batch_loss"),
        "training.fwd_bwd_us_per_edge": fwd_bwd_us,
        "training.touched_nodes_per_batch": float(np.mean(touched)),
        "training.other_us_per_edge": epoch_us - sample_us - fwd_bwd_us,
        "intensity.build_context_us": tracer.per_item_us("intensity.build_context"),
        "eval.infer_us_per_event": 1e6 * statistics.median(m["infer_s"]) / m["infer_calls"],
        "intensity.candidate_scores_us": tracer.per_item_us("intensity.candidate_scores"),
        "eval.recommend_candidates": float(np.mean(n_candidates)),
        "eval.probe_s": statistics.median(m["probe_s"]),
    }
    return {k: {"value": v, "unit": PER_LAYER[k]} for k, v in values.items()}


# ---------------------------------------------------------------------------
# Environment and the run record.


def git_revision(root: Path):
    """HEAD's commit id read from .git, or None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: Path, thread_vars) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_revision": git_revision(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var) for var in thread_vars},
        "platform": platform.platform(),
    }


def main(name, seed, seconds, trace, out_dir: Path, smoke, root: Path, thread_vars) -> int:
    w = WORKLOADS[name]
    if smoke:
        w = smoke_version(w)
    out_dir.mkdir(parents=True, exist_ok=True)
    tag = f"{name}{'-smoke' if smoke else ''}-s{seed}-trace{int(trace)}"
    tracer = Tracer() if trace else NullTracer()

    t_run = time.perf_counter()
    m, tally, params, train_net, hyper = run_workload(w, seed, seconds, tracer, out_dir, tag)
    m["workload_s"] = time.perf_counter() - t_run
    if trace:
        m["workload_spans"] = len(tracer.spans)
        m["span_cost_us"] = span_cost_us()
        metrics = probe_layers(tracer, params, train_net, hyper, seed, m)
    else:
        metrics = end_to_end_metrics(m)

    checks_ran = all(tally.checks.get(c, (0, 0))[0] > 0 for c in CHECKS)
    correct = tally.failed == 0 and checks_ran
    record = {
        "workload": name,
        "smoke": smoke,
        "seed": seed,
        "dev_seed": DEV_SEED,
        "holdout_seed": HOLDOUT_SEED,
        "seconds": seconds,
        "trace": trace,
        "spec": {"planted": asdict(w.planted), "directed": w.directed,
                 "hyper": asdict(hyper), "mask_count": w.mask_count,
                 "queries_per_session": w.queries_per_session, "top_k": TOP_K,
                 "min_sessions": MIN_SESSIONS, "why": w.why},
        "environment": environment(root, thread_vars),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failed_frac": tally.failed / tally.attempted,
        "checks": {k: {"ran": ran, "failed": bad} for k, (ran, bad) in tally.checks.items()},
        "recovery": m["recovery"],
        "measurements": {k: v for k, v in m.items() if k != "latencies_ms"},
        "metrics": metrics,
    }
    (out_dir / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n")
    if trace:
        (out_dir / f"{tag}-spans.json").write_text(json.dumps(tracer.spans) + "\n")

    print(f"# {name} seed={seed} nodes={m['nodes']} events={m['events']} "
          f"queries={m['queries']} workload_s={m['workload_s']:.3f} trace={int(trace)}")
    print(f"# attempted={tally.attempted} failed={tally.failed} "
          f"failed_frac={record['failed_frac']:.4g} recovery={m['recovery']}")
    # Untraced and traced runs print the same medians; their difference is
    # the tracing overhead.
    print(f"# sessions={m['sessions']} epoch_s={warm_epoch_s(m):.4f} "
          f"infer_s={statistics.median(m['infer_s']):.4f} "
          f"recommend_p50_ms={np.percentile(m['latencies_ms'], 50):.4f}")
    if trace:
        print(f"# tracing: {m['workload_spans']} spans in the workload at "
              f"{m['span_cost_us']:.2f} us each = {m['workload_spans'] * m['span_cost_us'] / 1e3:.1f} ms")
    for k, v in metrics.items():
        print(f"{k} {v['value']:.6g} {v['unit']}")
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0
