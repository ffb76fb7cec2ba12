"""Evaluation protocols: link-prediction probe, recommendation, aspect analysis.

Link prediction follows the mask-edges / train / probe recipe: pair features
are element-wise absolute differences of node embeddings, a from-scratch
logistic regression is fit on half of the balanced pair set, and macro-F1
plus rank-based AUC are reported on the rest. Temporal recommendation ranks
candidate targets by the deterministic mixed intensity at the query time, and
aspect read-out averages each node's deterministic aspect weights over its
events; both go through ``intensity.forward``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit
from scipy.stats import rankdata

from .intensity import build_context, candidate_scores, forward, window_histories
from .params import ModelParams, all_embeddings
from .temporal_graph import TemporalNetwork, history, history_windows


@dataclass
class EvalReport:
    task: str
    metrics: dict
    config: dict = field(default_factory=dict)
    seed: int = 0

    def to_json(self) -> str:
        payload = {
            "task": self.task,
            "metrics": self.metrics,
            "config": self.config,
            "seed": self.seed,
        }
        return json.dumps(payload, sort_keys=True, indent=2)


def edge_feature(x, y) -> np.ndarray:
    """Element-wise absolute difference of two embedding vectors."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    return np.abs(x - y)


@dataclass
class LogisticModel:
    weights: np.ndarray
    bias: float
    mean: np.ndarray
    scale: np.ndarray


def logistic_fit(features, labels, l2=1e-4, max_iter=500, tol=1e-8) -> LogisticModel:
    """L2-regularized logistic regression by gradient descent with backtracking.

    Features are standardized internally (undone at prediction time); the
    intercept is left unpenalized. Stops when the gradient norm drops below
    ``tol`` or after ``max_iter`` accepted steps.
    """
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    classes = np.unique(y)
    if len(classes) < 2:
        raise ValueError("logistic_fit needs samples from both classes")
    mean = x.mean(axis=0)
    scale = x.std(axis=0)
    scale[scale < 1e-12] = 1.0
    xs = (x - mean) / scale
    n, d = xs.shape
    w = np.zeros(d)
    b = 0.0

    def loss_grad(w, b):
        z = xs @ w + b
        loss = float(np.mean(np.logaddexp(0.0, z) - y * z) + 0.5 * l2 * (w @ w))
        r = expit(z) - y
        return loss, xs.T @ r / n + l2 * w, float(r.mean())

    step = 1.0
    loss, gw, gb = loss_grad(w, b)
    for _ in range(max_iter):
        gnorm2 = gw @ gw + gb * gb
        if np.sqrt(gnorm2) < tol:
            break
        while True:
            w_new = w - step * gw
            b_new = b - step * gb
            loss_new, gw_new, gb_new = loss_grad(w_new, b_new)
            if loss_new <= loss - 0.5 * step * gnorm2 or step < 1e-16:
                break
            step *= 0.5
        w, b, loss, gw, gb = w_new, b_new, loss_new, gw_new, gb_new
        step *= 1.5
    return LogisticModel(w, b, mean, scale)


def logistic_predict(model: LogisticModel, features) -> np.ndarray:
    """Class-1 probabilities for each feature row."""
    x = (np.asarray(features, dtype=np.float64) - model.mean) / model.scale
    return expit(x @ model.weights + model.bias)


def macro_f1(y_true, y_pred) -> float:
    """Unweighted mean of the two per-class F1 scores (absent class scores 0)."""
    y_true = np.asarray(y_true, dtype=np.int64)
    y_pred = np.asarray(y_pred, dtype=np.int64)
    if len(y_true) == 0:
        raise ValueError("macro_f1 on empty input")
    f1s = []
    for cls in (0, 1):
        tp = int(np.sum((y_pred == cls) & (y_true == cls)))
        fp = int(np.sum((y_pred == cls) & (y_true != cls)))
        fn = int(np.sum((y_pred != cls) & (y_true == cls)))
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        f1s.append(2 * prec * rec / (prec + rec) if prec + rec else 0.0)
    return float(np.mean(f1s))


def auc_roc(y_true, scores) -> float:
    """Rank-statistic AUC (Mann-Whitney), ties counted one half."""
    y_true = np.asarray(y_true, dtype=np.int64)
    scores = np.asarray(scores, dtype=np.float64)
    n_pos = int(np.sum(y_true == 1))
    n_neg = int(np.sum(y_true == 0))
    if n_pos == 0 or n_neg == 0:
        raise ValueError("auc_roc needs both classes present")
    ranks = rankdata(scores, method="average")
    return float((ranks[y_true == 1].sum() - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg))


def _embedding_slice(params: ModelParams, which):
    m, k = params.hyper.dim, params.hyper.n_aspects
    emb = all_embeddings(params)
    if which == "concat":
        return emb
    if which == "identity":
        return emb[:, :m]
    if isinstance(which, int):
        if not 0 <= which < k:
            raise ValueError(f"aspect index {which} out of range [0, {k})")
        return emb[:, m * (1 + which) : m * (2 + which)]
    raise ValueError(f"unknown embedding slice {which!r}; use 'identity', 'concat', or an aspect index")


def probe_report(
    params: ModelParams,
    positives,
    negatives,
    seed: int,
    which="concat",
    task="link_prediction",
    config=None,
) -> EvalReport:
    """Fit the logistic probe on half the labeled pairs, score the other half.

    Pairs are canonically sorted before the seeded shuffle, so the report does
    not depend on the incoming pair order.
    """
    emb = _embedding_slice(params, which)
    pairs = sorted(positives) + sorted(negatives)
    y = np.array([1] * len(positives) + [0] * len(negatives), dtype=np.int64)
    feats = np.stack([edge_feature(emb[a], emb[b]) for a, b in pairs])
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(pairs))
    n_train = len(pairs) // 2
    tr, te = order[:n_train], order[n_train:]
    model = logistic_fit(feats[tr], y[tr])
    probs = logistic_predict(model, feats[te])
    report_config = dict(config or {})
    report_config.update(
        {"dim": params.hyper.dim, "n_aspects": params.hyper.n_aspects,
         "history_len": params.hyper.history_len, "slice": str(which),
         "n_pairs": len(pairs)}
    )
    return EvalReport(
        task=task,
        metrics={
            "macro_f1": macro_f1(y[te], (probs >= 0.5).astype(int)),
            "auc_roc": auc_roc(y[te], probs),
        },
        config=report_config,
        seed=seed,
    )


def aspect_probe(params: ModelParams, positives, negatives, which, seed: int) -> EvalReport:
    """Link prediction restricted to one embedding slice (identity, aspect k, or concat)."""
    return probe_report(params, positives, negatives, seed, which=which, task="aspect_probe")


def recommend(params: ModelParams, net: TemporalNetwork, u: int, t: float, k: int):
    """Top-k candidate targets for u at time t by raw mixed intensity.

    Candidates are all nodes except u and anyone u already shares a static
    edge with before t. Deterministic aspect weights; ties broken by node id.
    Returns (node, score) pairs, highest score first.
    """
    if k <= 0:
        raise ValueError("k must be >= 1")
    if not 0 <= u < net.node_count:
        raise ValueError(f"node {u} out of range")
    before = net.times < t
    eligible = np.ones(net.node_count, dtype=bool)
    eligible[u] = False
    eligible[net.targets[before & (net.sources == u)]] = False
    eligible[net.sources[before & (net.targets == u)]] = False
    candidates = np.flatnonzero(eligible)
    if len(candidates) == 0:
        return []
    ctx = build_context(params, u, u, t, history(net, u, t, params.hyper.history_len))
    scores = candidate_scores(params, ctx, candidates)
    order = np.lexsort((candidates, -scores))[:k]
    return [(int(candidates[i]), float(scores[i])) for i in order]


def precision_recall_at_k(ranked, ground_truth, k: int):
    """(precision@k, recall@k) of a ranked list against a truth set."""
    if k < 1:
        raise ValueError("k must be >= 1")
    truth = set(ground_truth)
    if not truth:
        raise ValueError("ground truth is empty")
    top = [r[0] if isinstance(r, tuple) else r for r in ranked[:k]]
    hits = len(set(top) & truth)
    return hits / k, hits / len(truth)


def infer_aspect_labels(params: ModelParams, net: TemporalNetwork) -> np.ndarray:
    """Dominant aspect per node: argmax of its summed deterministic aspect
    weights over its own events (empty-history weights at t=1 for nodes that
    never acted as a source).

    Every (node, event time) query runs through the forward pass in chunks of
    ``batch_size`` queries, with no candidate targets; the histories are
    windows of the network's CSR events.
    """
    hyper = params.hyper
    n, k = net.node_count, hyper.n_aspects
    counts = np.diff(net.indptr)
    nodes = np.repeat(np.arange(n), np.maximum(counts, 1))
    # one query per event, in CSR order; a node without events gets one
    # empty-history query at t=1
    is_event = np.repeat(counts > 0, np.maximum(counts, 1))
    times = np.ones(len(nodes))
    times[is_event] = net.ev_time
    start = np.zeros(len(nodes), dtype=np.int64)
    stop = np.zeros(len(nodes), dtype=np.int64)
    start[is_event], stop[is_event] = history_windows(
        net, np.arange(len(net.ev_time)), hyper.history_len
    )
    pi_u = np.empty((len(nodes), k))
    for lo in range(0, len(nodes), hyper.batch_size):
        sl = slice(lo, lo + hyper.batch_size)
        hist = window_histories(times[sl], net.ev_nbr, net.ev_time, start[sl], stop[sl])
        no_cand = np.empty((len(hist.ids), 0), dtype=np.int64)
        pi_u[sl] = forward(params, nodes[sl], hist, no_cand).pi_u
    acc = np.bincount(
        (nodes[:, None] * k + np.arange(k)).ravel(), weights=pi_u.ravel(), minlength=n * k
    )
    return np.argmax(acc.reshape(n, k), axis=1)
