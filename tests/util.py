"""Shared builders for random model/sample fixtures."""

from typing import NamedTuple, Optional

import numpy as np
import pytest

from hawkmix import (
    HyperParams, ModelParams, NeighborEvent, Queries, TemporalEdge, batch_gradients, batch_loss,
)
from hawkmix.params import node_fields
from hawkmix.temporal_graph import Histories


class Sample(NamedTuple):
    """One loss sample as a raw record, the form ``oracle.ref_sample_loss``
    reads: an observed edge, its (neighbor, time) history events, the
    negative targets, and a node -> (K,) Gumbel draw dict for the source and
    every history node, or None for no noise."""

    edge: TemporalEdge
    history: list
    negatives: np.ndarray = np.empty(0, dtype=np.int64)
    gumbel: Optional[dict] = None


def as_query(sample) -> Queries:
    """The one-row ``Queries`` of a raw ``Sample`` record: the target and then
    the negatives as candidates, the history events as the window, and the
    source's and each history slot's draw from the noise dict."""
    (u, v, t), events = sample.edge, sample.history
    n = len(events)
    hist = Histories(
        np.array([h for h, _ in events], dtype=np.int64).reshape(1, n),
        np.array([t - th for _, th in events], dtype=np.float64).reshape(1, n),
        np.ones((1, n)),
    )
    cand = np.array([[v, *sample.negatives]], dtype=np.int64)
    if sample.gumbel is None:
        return Queries(np.array([u]), cand, hist)
    noise = sample.gumbel
    g = np.array([[noise[u]] + [noise[h] for h, _ in events]], dtype=np.float64)
    return Queries(np.array([u]), cand, hist, g)


def node_noise(noise, u, hist) -> np.ndarray:
    """(B, L+1, K) Gumbel noise from one (K,) draw per node, ``noise`` (n, K):
    the source's draw in slot 0, each history node's after it, and 0.0 in
    padded slots."""
    real = np.column_stack([np.ones(len(hist.ids)), hist.mask])
    return noise[np.column_stack([u, hist.ids])] * real[:, :, None]


def gumbel(rng, size):
    """Standard Gumbel draws, -log(-log(uniform))."""
    return -np.log(-np.log(rng.random(size)))


def random_params(
    rng,
    n_nodes=9,
    m=4,
    k=3,
    scale=0.6,
    use_attention=True,
    use_gumbel=True,
    n_negatives=2,
    history_len=4,
):
    hyper = HyperParams(
        n_aspects=k,
        history_len=history_len,
        dim=m,
        n_negatives=n_negatives,
        batch_size=4,
        epochs=1,
        lr=0.003,
        seed=0,
        use_attention=use_attention,
        use_gumbel=use_gumbel,
    )
    identity = rng.normal(0, scale, (n_nodes, m))
    aspect = rng.normal(0, scale, (n_nodes, k, m))
    rho = rng.normal(0, 0.5, n_nodes)
    theta = rng.normal(0, 0.5, n_nodes)
    table = np.column_stack([identity, aspect.reshape(n_nodes, -1), rho, theta])
    attn_w = np.eye(m) + rng.normal(0, 0.2, (m, m))
    return ModelParams(hyper, table, attn_w, rng.normal(0, 0.4, 2 * m))


def grad_fields(grads):
    """(d_identity (U, m), d_aspect (U, K, m), d_rho (U,), d_theta (U,)): the
    ``node_fields`` views of a ``GradientSet``'s rows."""
    return node_fields(grads.rows, len(grads.d_attn_w))


def random_sample(rng, params, n_hist=3, t=0.9, with_noise=True):
    """A ``Sample`` over random nodes of ``params``; u=0, v=1, negatives >= 2."""
    n = params.node_count
    k = params.hyper.n_aspects
    u, v = 0, 1
    hist_nodes = rng.integers(2, n, size=n_hist)
    hist_times = np.sort(rng.uniform(0, t, size=n_hist))
    hist = [NeighborEvent(int(h), float(tt)) for h, tt in zip(hist_nodes, hist_times)]
    negs = rng.integers(2, n, size=params.hyper.n_negatives)
    noise = None
    if with_noise and params.hyper.use_gumbel:
        noise = {}
        for node in [u] + [h for h, _ in hist]:
            if node not in noise:
                noise[node] = gumbel(rng, k)
    return Sample(TemporalEdge(u, v, t), hist, np.asarray(negs), noise)


def fd_max_rel_error(params, sample, step=1e-5):
    """Worst elementwise relative error of analytic vs central-difference grads.

    Sweeps every parameter the one-row query ``sample`` touches (plus one
    untouched node, which must have an exactly-zero analytic gradient) and
    perturbs through ``batch_loss``. Relative error uses a 1e-4 floor so
    that near-zero gradients are compared at the finite-difference noise
    scale.
    """
    gs = batch_gradients(params, [sample])[1]
    d_ident, d_aspect, d_rho, d_theta = grad_fields(gs)
    m = params.hyper.dim
    k = params.hyper.n_aspects
    worst = 0.0

    def probe(arr, idx, analytic):
        nonlocal worst
        orig = arr[idx]
        arr[idx] = orig + step
        up = batch_loss(params, [sample])[0]
        arr[idx] = orig - step
        down = batch_loss(params, [sample])[0]
        arr[idx] = orig
        fd = (up - down) / (2 * step)
        rel = abs(fd - analytic) / max(abs(fd), abs(analytic), 1e-4)
        worst = max(worst, rel)

    untouched = [w for w in range(params.node_count) if w not in gs.nodes]
    assert untouched, "fixture should leave at least one node untouched"
    for node in untouched[:1]:
        for i in range(m):
            probe(params.identity, (node, i), 0.0)
    for row, node in enumerate(gs.nodes.tolist()):
        for i in range(m):
            probe(params.identity, (node, i), d_ident[row][i])
        for kk in range(k):
            for i in range(m):
                probe(params.aspect, (node, kk, i), d_aspect[row][kk, i])
        probe(params.rho, (node,), d_rho[row])
        probe(params.theta, (node,), d_theta[row])
    for i in range(m):
        for j in range(m):
            probe(params.attn_w, (i, j), gs.d_attn_w[i, j])
    for i in range(2 * m):
        probe(params.attn_a, (i,), gs.d_attn_a[i])
    return worst


def writable_copy(params):
    """A writable model over copies of the arrays of ``params``."""
    return ModelParams(
        params.hyper, params.table.copy(), params.attn_w.copy(), params.attn_a.copy()
    )


def read_only_copy(params):
    """A read-only model over copies of the arrays of ``params``, as ``train``
    and ``load_params`` return them."""
    return writable_copy(params).freeze()


def assert_read_only(params):
    """Every write into the arrays of ``params`` raises ValueError, and
    assigning a field raises AttributeError, as it does on a writable model."""
    arrays = {name: getattr(params, name)
              for name in ("table", "identity", "aspect", "rho", "theta", "attn_w", "attn_a")}
    for name, arr in arrays.items():
        assert not arr.flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            arr[(0,) * arr.ndim] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            arr += 1.0
    for name in ("identity", "aspect", "rho", "theta"):
        with pytest.raises(AttributeError, match=name):
            setattr(params, name, np.zeros_like(arrays[name]))


def spy_forward(monkeypatch, module):
    """Record the calls ``module`` makes to ``forward``, which still run.

    Returns the list that each call appends its (u, hist, cand, result) to.
    """
    calls = []
    real = module.forward

    def spy(params, u, hist, cand, *noise):
        result = real(params, u, hist, cand, *noise)
        calls.append((np.asarray(u), hist, cand, result))
        return result

    monkeypatch.setattr(module, "forward", spy)
    return calls
