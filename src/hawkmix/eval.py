"""Evaluation protocols: link-prediction probe, recommendation, aspect analysis.

Link prediction follows the mask-edges / train / probe recipe: pair features
are element-wise absolute differences of node embeddings, a from-scratch
logistic regression is fit on half of the balanced pair set, and macro-F1
plus rank-based AUC (Mann-Whitney, from average ranks computed here with a
stable sort) are reported on the rest. Temporal recommendation ranks
candidate targets by the deterministic mixed intensity at the query time, and
aspect read-out averages each node's deterministic aspect weights over its
events; both go through ``intensity.forward``.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, field

import numpy as np

from .intensity import forward
from .params import ModelParams, all_embeddings, sigmoid
from .temporal_graph import TemporalNetwork


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
        r = sigmoid(z) - y
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
    return sigmoid(x @ model.weights + model.bias)


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
    ranks = _average_ranks(scores)
    return float((ranks[y_true == 1].sum() - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg))


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks of a 1-D float array, each run of equal values sharing
    the mean of its positions; any NaN makes every rank NaN. These are
    ``scipy.stats.rankdata(values, method="average")``, bit for bit: a run
    over sorted positions [start, end) ranks (start + end + 1) / 2, a
    multiple of 0.5 and so exact."""
    n = len(values)
    if np.isnan(values).any():
        return np.full(n, np.nan)
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    new_run = np.ones(n, dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=new_run[1:])
    starts = np.flatnonzero(new_run)
    ends = np.append(starts[1:], n)
    ranks = np.empty(n)
    ranks[order] = np.repeat((starts + ends + 1) / 2, ends - starts)
    return ranks


def _embedding_slice(params: ModelParams, which):
    m, k = params.hyper.dim, params.hyper.n_aspects
    emb = all_embeddings(params)
    if which == "concat":
        return emb
    if which == "identity":
        return emb[:, :m]
    if isinstance(which, numbers.Integral) and not isinstance(which, bool):
        which = int(which)
        if not 0 <= which < k:
            raise ValueError(f"aspect index {which} out of range [0, {k})")
        return emb[:, m * (1 + which) : m * (2 + which)]
    raise ValueError(f"unknown embedding slice {which!r}; use 'identity', 'concat', or an aspect index")


def _probe_split(n_pos: int, n_neg: int, seed: int):
    """(labels, fit rows, test rows) of the probe's seeded half split of the
    canonically sorted pairs, positives first; it depends only on the two
    counts and the seed."""
    y = np.array([1] * n_pos + [0] * n_neg, dtype=np.int64)
    order = np.random.default_rng(seed).permutation(len(y))
    n_train = len(y) // 2
    return y, order[:n_train], order[n_train:]


def check_probe_pairs(positives, negatives, seed: int) -> None:
    """Raise ValueError unless the link probe has pairs of both labels and
    its seeded split leaves both labels in the fit half and in the test
    half (the fit and the AUC each need both)."""
    n_pos, n_neg = len(positives), len(negatives)
    got = f"got {n_pos} positives and {n_neg} negatives"
    if not n_pos or not n_neg:
        raise ValueError(f"the link probe needs positive and negative pairs; {got}")
    y, tr, te = _probe_split(n_pos, n_neg, seed)
    for half, rows in (("fit", tr), ("test", te)):
        if len(np.unique(y[rows])) < 2:
            raise ValueError(
                f"the link probe's seeded split (seed {seed}) leaves its {half} half "
                f"with one label; {got}; mask more edges"
            )


def probe_report(
    params: ModelParams,
    positives,
    negatives,
    seed: int,
    which="concat",
) -> EvalReport:
    """Fit the logistic probe on half the labeled pairs, score the other half.

    Pairs are canonically sorted before the seeded shuffle, so the report does
    not depend on the incoming pair order. Raises ValueError if either list
    is empty or either half of the split lacks a label (``check_probe_pairs``).
    """
    check_probe_pairs(positives, negatives, seed)
    emb = _embedding_slice(params, which)
    pairs = sorted(positives) + sorted(negatives)
    y, tr, te = _probe_split(len(positives), len(negatives), seed)
    ends = np.array(pairs, dtype=np.int64)
    feats = np.abs(emb[ends[:, 0]] - emb[ends[:, 1]])
    model = logistic_fit(feats[tr], y[tr])
    probs = logistic_predict(model, feats[te])
    return EvalReport(
        task="link_prediction",
        metrics={
            "macro_f1": macro_f1(y[te], (probs >= 0.5).astype(int)),
            "auc_roc": auc_roc(y[te], probs),
        },
        config={"dim": params.hyper.dim, "n_aspects": params.hyper.n_aspects,
                "history_len": params.hyper.history_len, "slice": str(which),
                "n_pairs": len(pairs)},
        seed=seed,
    )


def check_model_fits(params: ModelParams, net: TemporalNetwork) -> None:
    """Raise ValueError unless the model has one row per node of ``net``."""
    if params.node_count != net.node_count:
        raise ValueError(
            f"the model has {params.node_count} nodes but the edge list has "
            f"{net.node_count}; use the edge list the model was trained on"
        )


def recommend(params: ModelParams, net: TemporalNetwork, u: int, t: float, k: int):
    """Top-k candidate targets for u at time t by raw mixed intensity.

    Candidates are all nodes except u and anyone u already shares a static
    edge with before t. One forward pass scores every node, straight from the
    node table, and the candidates' scores are kept. Deterministic aspect
    weights; ties broken by node id. Returns (node, score) pairs, highest
    score first. Raises ValueError for a ``u`` or ``k`` that is not an
    integer (a bool included), a ``t`` that is not a real number (a bool
    included), a ``u`` out of range, a ``k`` < 1, a non-finite ``t`` or a
    model whose node count is not the network's.
    """
    check_model_fits(params, net)
    if isinstance(k, bool) or not isinstance(k, numbers.Integral) or k < 1:
        raise ValueError(f"k must be an integer >= 1, not {k!r}")
    if isinstance(u, bool) or not isinstance(u, numbers.Integral):
        raise ValueError(f"u must be an integer node id, not {u!r}")
    if not 0 <= u < net.node_count:
        raise ValueError(f"node {u} out of range")
    if isinstance(t, bool) or not isinstance(t, numbers.Real):
        raise ValueError(f"query time must be a real number, not {t!r}")
    if not np.isfinite(t):
        raise ValueError(f"query time {t} is not finite")
    # the edges are chronological, so those before t are a prefix
    before = slice(0, np.searchsorted(net.times, t))
    src, dst = net.sources[before], net.targets[before]
    eligible = np.ones(net.node_count, dtype=bool)
    eligible[u] = False
    eligible[dst[src == u]] = False
    eligible[src[dst == u]] = False
    candidates = np.flatnonzero(eligible)
    if len(candidates) == 0:
        return []
    hist = net.histories([u], [t], params.hyper.history_len)
    scores = forward(params, [u], hist, None).lam[0][candidates]
    neg = -scores
    top = np.arange(len(candidates))
    if k < len(candidates):
        # only the candidates scoring at or above the k-th best are sorted;
        # NaN scores, which the sort puts last, are kept with them
        kth = np.partition(neg, k - 1)[k - 1]
        top = np.flatnonzero(~(neg > kth))
    order = top[np.lexsort((candidates[top], neg[top]))[:k]]
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
    weights over its own events (empty-history weights at t=1 for nodes with
    no events of their own; in an undirected network both endpoints of an
    edge own its event).

    Every (node, event time) query runs through the forward pass with no
    candidate targets, which gathers the source's identity alone and
    computes its aspect weights only, from a row-local product with its
    contexts, so they are bit for bit those of a call with candidates; the
    histories are windows of the network's CSR events. The queries are
    grouped by window length (``TemporalNetwork.history_chunks``), so no
    history is padded: each call holds a single length and at most
    ``batch_size * (history_len + 1)`` node slots, as many as one fully
    padded batch of ``batch_size`` queries. The aspect weights are summed
    in query order, so the grouping does not change the order of the sums.
    Raises ValueError for a model whose node count is not the network's.
    """
    check_model_fits(params, net)
    hyper = params.hyper
    n, k = net.node_count, hyper.n_aspects
    counts = np.diff(net.indptr)
    # one query per event, in CSR order; a node without events gets one
    # query at t=1, in its CSR place, and its window there is empty
    lone = np.flatnonzero(counts == 0)
    nodes = np.insert(np.repeat(np.arange(n), counts), net.indptr[lone], lone)
    times = np.insert(net.ev_time, net.indptr[lone], 1.0)
    pi_u = np.empty((len(nodes), k))
    slots = hyper.batch_size * (hyper.history_len + 1)
    for idx, hist in net.history_chunks(nodes, times, hyper.history_len, slots):
        no_cand = np.empty((len(idx), 0), dtype=np.int64)
        pi_u[idx] = forward(params, nodes[idx], hist, no_cand).pi_u
    acc = np.bincount(
        (nodes[:, None] * k + np.arange(k)).ravel(), weights=pi_u.ravel(), minlength=n * k
    )
    return np.argmax(acc.reshape(n, k), axis=1)
