"""Shared builders for random model/sample fixtures."""

import numpy as np

from hawkmix import HyperParams, LossSample, ModelParams, NeighborEvent, TemporalEdge
from hawkmix.intensity import gumbel_noise


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
    return ModelParams(
        hyper=hyper,
        identity=rng.normal(0, scale, (n_nodes, m)),
        aspect=rng.normal(0, scale, (n_nodes, k, m)),
        rho=rng.normal(0, 0.5, n_nodes),
        theta=rng.normal(0, 0.5, n_nodes),
        attn_w=np.eye(m) + rng.normal(0, 0.2, (m, m)),
        attn_a=rng.normal(0, 0.4, 2 * m),
    )


def random_sample(rng, params, n_hist=3, t=0.9, with_noise=True):
    """A loss sample over random nodes of ``params``; u=0, v=1, negatives >= 2."""
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
                noise[node] = gumbel_noise(rng, k)
    return LossSample(TemporalEdge(u, v, t), hist, np.asarray(negs), noise)


def fd_max_rel_error(params, sample, loss_fn, step=1e-5):
    """Worst elementwise relative error of analytic vs central-difference grads.

    Sweeps every parameter the sample touches (plus one untouched node, which
    must have an exactly-zero analytic gradient) and perturbs through
    ``loss_fn(params, sample)``. Relative error uses a 1e-4 floor so that
    near-zero gradients are compared at the finite-difference noise scale.
    """
    from hawkmix import gradients

    gs = gradients(params, sample)
    m = params.hyper.dim
    k = params.hyper.n_aspects
    worst = 0.0

    def probe(arr, idx, analytic):
        nonlocal worst
        orig = arr[idx]
        arr[idx] = orig + step
        up = loss_fn(params, sample)
        arr[idx] = orig - step
        down = loss_fn(params, sample)
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
            probe(params.identity, (node, i), gs.d_identity[row][i])
        for kk in range(k):
            for i in range(m):
                probe(params.aspect, (node, kk, i), gs.d_aspect[row][kk, i])
        probe(params.rho, (node,), gs.d_rho[row])
        probe(params.theta, (node,), gs.d_theta[row])
    for i in range(m):
        for j in range(m):
            probe(params.attn_w, (i, j), gs.d_attn_w[i, j])
    for i in range(2 * m):
        probe(params.attn_a, (i,), gs.d_attn_a[i])
    return worst
