"""Negative-sampling objective, exact analytic gradients, and the trainer.

The loss for one temporal edge (u, v, t) scores the raw mixed intensity of
the true target against degree-weighted negative samples through a sigmoid:
-log sig(lam_pos) - sum_i log sig(-lam_neg_i). Gradients are derived by hand
and flow through the aspect softmax (with Gumbel noise held fixed), the
attention softmax, contexts, kernels, and the softplus reparameterizations of
the per-node decay and temperature.

Samples are padded into one batch whose forward pass is ``intensity.forward``;
the backward pass here reuses the values that forward saved. The gradients
are tested against finite differences, the loss against the loop-only oracle.
The trainer draws its batches straight into the engine's arrays from the
network's CSR events and counter-based random streams; it and
``batch_gradients`` share one checked step, which raises ``TrainingDiverged``
on a non-finite intensity, loss or gradient.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
from scipy import sparse
from scipy.special import expit

from .intensity import (
    LEAKY_SLOPE,
    Forward,
    Histories,
    forward,
    node_shared_gumbel,
    noise_arrays,
    pad_histories,
    window_histories,
)
from .params import HyperParams, ModelParams, init_params, save_params
from .temporal_graph import (
    NegativeSampler,
    TemporalEdge,
    fill_negatives,
    history,
    history_windows,
    sample_negatives,
)

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
CLIP_NORM = 5.0


class TrainingDiverged(ValueError):
    """A batch's intensities, losses or gradients became non-finite."""


@dataclass
class LossSample:
    """One training example: an observed edge, its history window, sampled
    negatives, and the per-node Gumbel draws used (kept for gradient replay)."""

    edge: TemporalEdge
    history: list
    negatives: np.ndarray
    gumbel: Optional[dict] = None


@dataclass
class GradientSet:
    """Gradients over the unique touched nodes; an absent node's are zero.

    ``nodes`` is sorted and unique, and row i of each per-node array belongs
    to ``nodes[i]``. The attention gradients are dense.
    """

    nodes: np.ndarray
    d_identity: np.ndarray  # (U, m)
    d_aspect: np.ndarray    # (U, K, m)
    d_rho: np.ndarray       # (U,)
    d_theta: np.ndarray     # (U,)
    d_attn_w: np.ndarray    # (m, m)
    d_attn_a: np.ndarray    # (2m,)

    def touched(self) -> set:
        return set(self.nodes.tolist())

    def scale(self, c: float) -> None:
        self.d_identity *= c
        self.d_aspect *= c
        self.d_rho *= c
        self.d_theta *= c
        self.d_attn_w *= c
        self.d_attn_a *= c

    def global_norm(self) -> float:
        sq = (
            np.sum(self.d_identity**2)
            + np.sum(self.d_aspect**2)
            + np.sum(self.d_rho**2)
            + np.sum(self.d_theta**2)
            + np.sum(self.d_attn_w**2)
            + np.sum(self.d_attn_a**2)
        )
        return float(np.sqrt(sq))


def make_sample(net, sampler, edge: TemporalEdge, hyper: HyperParams, rng) -> LossSample:
    """Assemble the loss sample for one edge: recent history, negatives, noise.

    The same draw rules as a training batch, for one row and with ``rng`` as
    the source of randomness.
    """
    u, v, t = edge
    hist = history(net, u, t, hyper.history_len)
    negs = sample_negatives(sampler, net, u, v, hyper.n_negatives, rng)
    noise = None
    if hyper.use_gumbel:
        nodes = [u] + [h for h, _ in hist]
        uni = rng.random((1, len(nodes), hyper.n_aspects))
        noise = dict(zip(nodes, node_shared_gumbel([nodes], [[True] * len(nodes)], uni)[0]))
    return LossSample(edge, hist, negs, noise)


def sample_loss(params: ModelParams, sample: LossSample) -> float:
    """Objective value for one sample, replaying its stored Gumbel draws."""
    return float(batch_loss(params, [sample])[0])


def gradients(params: ModelParams, sample: LossSample) -> GradientSet:
    """Exact gradient of ``sample_loss`` for every touched parameter."""
    return batch_gradients(params, [sample])[1]


def batch_loss(params: ModelParams, samples) -> np.ndarray:
    """Per-sample losses through the batched forward; raises TrainingDiverged
    on a non-finite intensity or loss."""
    return _checked_forward(params, _assemble(params.hyper, samples), "batch")[1]


def batch_gradients(params: ModelParams, samples):
    """(mean loss, mean GradientSet) over a list of samples.

    The same checked step as a training batch: raises TrainingDiverged (a
    ValueError) on a non-finite intensity, loss or gradient.
    """
    losses, grads = _step(params, _assemble(params.hyper, samples), "batch")
    return float(losses.mean()), grads


def ablation_config(base: HyperParams, variant: str) -> HyperParams:
    """Toggle the attention / Gumbel components off for submodel studies."""
    if variant == "full":
        return base
    if variant == "no_attn":
        return replace(base, use_attention=False)
    if variant == "no_gumbel":
        return replace(base, use_gumbel=False)
    if variant == "no_attn_no_gumbel":
        return replace(base, use_attention=False, use_gumbel=False)
    raise ValueError(
        f"unknown ablation variant {variant!r}; "
        "expected full, no_attn, no_gumbel, or no_attn_no_gumbel"
    )


# ---------------------------------------------------------------------------
# Batched engine: samples padded into one batch, the shared forward, the
# loss, and the hand-derived backward over the forward's saved values.


@dataclass
class _Batch:
    u: np.ndarray                 # (B,)
    cand: np.ndarray              # (B, C) column 0 is the positive target
    hist: Histories               # (B, L) padded histories
    g_u: Optional[np.ndarray]     # (B, K) Gumbel noise for the source, or None
    g_h: Optional[np.ndarray]     # (B, L, K) noise per history event (node-shared)


def _assemble(hyper: HyperParams, samples) -> _Batch:
    u = np.array([s.edge.source for s in samples], dtype=np.int64)
    t = np.array([s.edge.time for s in samples])
    cand = np.empty((len(samples), 1 + hyper.n_negatives), dtype=np.int64)
    cand[:, 0] = [s.edge.target for s in samples]
    cand[:, 1:] = [s.negatives for s in samples]
    hist = pad_histories(
        t, [([h for h, _ in s.history], [th for _, th in s.history]) for s in samples]
    )
    g_u, g_h = noise_arrays(hyper.n_aspects, u, hist, [s.gumbel for s in samples])
    return _Batch(u, cand, hist, g_u, g_h)


# ---------------------------------------------------------------------------
# Training draws: counter-based streams and the batch sampler.

_PHILOX_M = (np.uint64(0xD2511F53), np.uint64(0xCD9E8D57))
_PHILOX_W = (np.uint64(0x9E3779B9), np.uint64(0xBB67AE85))
_LOW32 = np.uint64(0xFFFFFFFF)


def philox4x32(counter, key):
    """Philox4x32-10 (Salmon et al., "Parallel random numbers: as easy as
    1, 2, 3", SC'11): one block of four 32-bit words per counter.

    ``counter`` is four broadcastable arrays of 32-bit words and ``key`` two
    32-bit words; returns the four output words as uint64 arrays.
    """
    c0, c1, c2, c3 = np.broadcast_arrays(*(np.asarray(c, dtype=np.uint64) for c in counter))
    k0, k1 = np.uint64(key[0]), np.uint64(key[1])
    for _ in range(10):
        p0, p1 = c0 * _PHILOX_M[0], c2 * _PHILOX_M[1]
        c0, c1, c2, c3 = (p1 >> 32) ^ c1 ^ k0, p1 & _LOW32, (p0 >> 32) ^ c3 ^ k1, p0 & _LOW32
        k0, k1 = (k0 + _PHILOX_W[0]) & _LOW32, (k1 + _PHILOX_W[1]) & _LOW32
    return c0, c1, c2, c3


def _unit(hi, lo) -> np.ndarray:
    """53-bit uniforms in the open interval (0, 1) from two 32-bit words."""
    return (((hi >> 5) << 26) + (lo >> 6)).astype(np.float64) * 2.0**-53 + 2.0**-54


class EdgeStreams:
    """Uniform (0, 1) draws of one epoch, keyed by (seed, epoch, edge index).

    Column j of edge i's stream is a pure function of (seed, epoch, i, j):
    Philox keyed by the seed, at counter (j // 2, i, epoch, 0). So an edge's
    draws do not depend on the batch it is drawn in, nor on its neighbors.
    """

    def __init__(self, seed: int, epoch: int):
        self.key = (seed & 0xFFFFFFFF, (seed >> 32) & 0xFFFFFFFF)
        self.epoch = epoch

    def uniforms(self, edges, start: int, size: int) -> np.ndarray:
        """(len(edges), size) draws at columns ``start:start + size``."""
        b0 = start // 2
        blocks = np.arange(b0, (start + size + 1) // 2)
        edges = np.asarray(edges)[:, None]
        w0, w1, w2, w3 = philox4x32((blocks, edges, self.epoch, 0), self.key)
        both = np.stack([_unit(w0, w1), _unit(w2, w3)], axis=2).reshape(len(edges), -1)
        return both[:, start - 2 * b0 : start - 2 * b0 + size]


class _BatchSampler:
    """Draws training batches of edge indices straight into engine arrays.

    A row's history is a gather from the network's CSR events (each edge's
    window is found once, here). Its Gumbel noise and negatives come from
    the edge's stream in ``EdgeStreams``: the first (history_len + 1) * K
    columns are the noise of the source and history slots, the rest feed
    the negatives' rejection rounds.
    """

    def __init__(self, net, hyper: HyperParams):
        self.net, self.hyper = net, hyper
        self.negatives = NegativeSampler(net)
        self.start, self.stop = history_windows(net, net.edge_pos, hyper.history_len)
        self.n_noise = (hyper.history_len + 1) * hyper.n_aspects

    def batch(self, epoch: int, idx) -> _Batch:
        net, hyper = self.net, self.hyper
        idx = np.asarray(idx, dtype=np.int64)
        stream = EdgeStreams(hyper.seed, epoch)
        u, v = net.sources[idx], net.targets[idx]
        hist = window_histories(
            net.times[idx], net.ev_nbr, net.ev_time, self.start[idx], self.stop[idx]
        )
        # A later round draws as many candidates as all earlier ones together
        # (up to 1024), so a row with a low acceptance rate needs few rounds.
        negs = fill_negatives(
            net, u, v, hyper.n_negatives,
            lambda rows, start, size: self.negatives.nodes(
                stream.uniforms(idx[rows], self.n_noise + start, max(size, min(start, 1024)))
            ),
        )
        g_u = g_h = None
        if hyper.use_gumbel:
            slots = hist.ids.shape[1] + 1
            uni = stream.uniforms(idx, 0, slots * hyper.n_aspects)
            g = node_shared_gumbel(
                np.column_stack([u, hist.ids]),
                np.column_stack([np.ones(len(idx)), hist.mask]),
                uni.reshape(len(idx), slots, hyper.n_aspects),
            )
            g_u, g_h = g[:, 0], g[:, 1:]
        return _Batch(u, np.column_stack([v, negs]), hist, g_u, g_h)


def _forward_loss(params: ModelParams, batch: _Batch):
    """(Forward, per-sample losses) of a batch; no finiteness check.

    ``_checked_forward`` raises on a non-finite intensity or loss, so a NaN
    intensity is not also warned about.
    """
    fwd = forward(params, batch.u, batch.hist, batch.cand, batch.g_u, batch.g_h)
    lam = fwd.lam
    with np.errstate(invalid="ignore"):
        losses = np.logaddexp(0.0, -lam[:, 0]) + np.logaddexp(0.0, lam[:, 1:]).sum(axis=1)
    return fwd, losses


def _checked_forward(params: ModelParams, batch: _Batch, where: str):
    """``_forward_loss``, raising TrainingDiverged (prefixed by ``where``) on a
    non-finite intensity or loss."""
    fwd, losses = _forward_loss(params, batch)
    bad = ~(np.isfinite(fwd.lam).all(axis=1) & np.isfinite(losses))
    if bad.any():
        raise TrainingDiverged(
            f"{where}: non-finite intensity or loss for source nodes "
            f"{np.unique(batch.u[bad]).tolist()}; try a lower learning rate"
        )
    return fwd, losses


def _backward(params: ModelParams, batch: _Batch, fwd: Forward) -> GradientSet:
    """Gradients of the summed batch loss, from the values ``fwd`` saved.

    Gradients are sums over the batch; ``_step`` rescales them to a mean.
    """
    hyper = params.hyper
    m, k = hyper.dim, hyper.n_aspects
    u, cand, hist = batch.u, batch.cand, batch.hist.ids
    mask, hist_dt = batch.hist.mask, batch.hist.dt
    b, c = cand.shape
    lmax = hist.shape[1]
    pi, attn, kappa = fwd.pi, fwd.attn, fwd.kappa
    f_nc, gam, w_nc, pi_w = fwd.f_nc, fwd.gam, fwd.w_nc, fwd.pi_w
    i_n, a_n, ic, ac = fwd.i_n, fwd.a_n, fwd.ic, fwd.ac
    iu, ih = i_n[:, 0], i_n[:, 1:]
    w_ex, w_self, lens_safe = fwd.w_ex, fwd.w_self, fwd.lens_safe
    tau_n, theta_n = fwd.tau_n, fwd.theta_n
    z, wu, wh = fwd.z, fwd.wu, fwd.wh

    wc = expit(fwd.lam)
    wc[:, 0] -= 1.0                                                  # dL/dlam

    # intensity backward over the slots (source, then history events); the
    # source's pi weights the mixture, an event's pi its own term
    dlam_k = pi[:, 0, :, None] * wc[:, None, :]                      # (B, K, C)
    dpi = np.einsum("bknc,bkc->bnk", gam * w_nc[:, None], dlam_k)    # (B, L+1, K)
    dpi[:, 0] = np.einsum("bc,bck->bk", wc, fwd.lam_k)
    pd = pi_w[:, :, :, None] * dlam_k[:, :, None, :]                 # (B, K, L+1, C)
    dw_nc = np.einsum("bknc,bknc->bnc", pd, gam)                     # (B, L+1, C)
    dgam2 = 2.0 * pd * w_nc[:, None]                                 # 2 dL/dgam
    e0 = np.einsum("blc,blc->bl", dw_nc[:, 1:], f_nc[:, 1:])         # dL/d(attn * kappa)
    dattn = e0 * kappa
    dkappa = e0 * attn
    df2_nc = 2.0 * dw_nc                                             # 2 dL/df_nc
    df2_nc[:, 1:] *= (attn * kappa)[:, :, None]

    # aspect-softmax backward (linear in dpi, so per-event rows of duplicated
    # nodes sum to the correct node gradient on scatter)
    dlogits = pi * (dpi - np.sum(dpi * pi, axis=2, keepdims=True))
    if hyper.use_gumbel:
        df_n = dlogits / tau_n[:, :, None]
        # tau_n**2 can underflow to 0 (0/0): every caller raises on the
        # non-finite gradient, so it is not also warned about
        with np.errstate(invalid="ignore"):
            dtau_n = -np.sum(dlogits * fwd.fg_n, axis=2) / tau_n**2
        dtheta_n = dtau_n * expit(theta_n)
    else:
        df_n = dlogits
        dtheta_n = np.zeros((b, lmax + 1))
    di_n = -2.0 * np.einsum("bnk,bnkm->bnm", df_n, fwd.diff_nc)      # (B, L+1, m)
    dctx = 2.0 * np.einsum("bnk,bnkm->bkm", df_n, fwd.diff_nc)

    # context backward
    da_n = np.zeros((b, lmax + 1, k, m))
    da_n[:, 0] = w_self[:, None, None] * dctx
    dhsum = (w_ex / lens_safe)[:, None, None] * dctx
    if lmax:
        dkappa += np.einsum("bkm,blkm->bl", dhsum, a_n[:, 1:])
        da_n[:, 1:] = dhsum[:, None] * kappa[:, :, None, None]

    # kernel / decay backward
    ddelta = -np.sum(dkappa * hist_dt * kappa, axis=1)
    drho_u = ddelta * expit(params.rho[u])

    # attention backward
    d_attn_w = np.zeros((m, m))
    d_attn_a = np.zeros(2 * m)
    if hyper.use_attention and lmax > 0:
        a1, a2 = params.attn_a[:m], params.attn_a[m:]
        de = attn * (dattn - np.sum(dattn * attn, axis=1, keepdims=True))
        dz = de * np.where(z >= 0, 1.0, LEAKY_SLOPE)
        dz_row = dz.sum(axis=1)
        d_attn_a[:m] = dz_row @ wu
        d_attn_a[m:] = np.einsum("bl,blm->m", dz, wh)
        d_attn_w = np.outer(a1, dz_row @ iu) + np.outer(a2, np.einsum("bl,blm->m", dz, ih))
        di_n[:, 0] += dz_row[:, None] * (params.attn_w.T @ a1)
        di_n[:, 1:] += dz[:, :, None] * (params.attn_w.T @ a2)

    # similarity-term backward: a pair sum is in Gram form,
    # sum_j g_j (a - b_j) = (sum_j g_j) a - g @ b, so no slot x candidate
    # difference array is built
    di_n += df2_nc @ ic
    di_n -= np.einsum("bnc->bn", df2_nc)[:, :, None] * i_n
    dic = df2_nc.transpose(0, 2, 1) @ i_n
    dic -= np.einsum("bnc->bc", df2_nc)[:, :, None] * ic
    da_n += np.einsum("bknc->bnk", dgam2)[:, :, :, None] * a_n
    da_n -= (dgam2 @ ac.transpose(0, 2, 1, 3)).transpose(0, 2, 1, 3)
    dac = np.einsum("bknc->bck", dgam2)[:, :, :, None] * ac
    dac -= (dgam2.transpose(0, 1, 3, 2) @ a_n.transpose(0, 2, 1, 3)).transpose(0, 2, 1, 3)

    # scatter per-role rows onto the unique touched nodes with one sorted
    # segment sum, a product with a 0/1 selector matrix (it adds each node's
    # rows in batch order, as np.add.at did); padded history slots are
    # excluded so they neither appear as touched nor receive zeros. Row
    # layout: identity, aspect, rho, theta.
    valid = mask.reshape(-1) > 0
    ids_all = np.concatenate([u, cand.reshape(-1), hist.reshape(-1)[valid]])
    km = k * m
    rows = np.zeros((len(ids_all), m + km + 2))
    rows[:b, :m] = di_n[:, 0]
    rows[:b, m:-2] = da_n[:, 0].reshape(b, km)
    rows[:b, -2] = drho_u
    rows[:b, -1] = dtheta_n[:, 0]
    rows[b : b + b * c, :m] = dic.reshape(-1, m)
    rows[b : b + b * c, m:-2] = dac.reshape(-1, km)
    if lmax:
        rows[b + b * c :, :m] = di_n[:, 1:].reshape(-1, m)[valid]
        rows[b + b * c :, m:-2] = da_n[:, 1:].reshape(-1, km)[valid]
        rows[b + b * c :, -1] = dtheta_n[:, 1:].reshape(-1)[valid]
    order = np.argsort(ids_all, kind="stable")
    ids_sorted = ids_all[order]
    starts = np.flatnonzero(np.r_[True, ids_sorted[1:] != ids_sorted[:-1]])
    select = sparse.csr_matrix(
        (np.ones(len(order)), order, np.r_[starts, len(order)]),
        shape=(len(starts), len(order)),
    )
    sums = select @ rows
    return GradientSet(
        ids_sorted[starts], sums[:, :m], sums[:, m:-2].reshape(-1, k, m),
        sums[:, -2], sums[:, -1], d_attn_w, d_attn_a,
    )


def _step(params: ModelParams, batch: _Batch, where: str):
    """(per-sample losses, mean GradientSet) of one batch.

    Raises TrainingDiverged, prefixed by ``where`` and naming the nodes
    involved, on a non-finite forward (before the backward pass) or a
    non-finite gradient (before any parameter changes).
    """
    fwd, losses = _checked_forward(params, batch, where)
    grads = _backward(params, batch, fwd)
    if not np.isfinite(grads.global_norm()):
        ok = (
            np.isfinite(grads.d_identity).all(axis=1)
            & np.isfinite(grads.d_aspect).all(axis=(1, 2))
            & np.isfinite(grads.d_rho)
            & np.isfinite(grads.d_theta)
        )
        raise TrainingDiverged(
            f"{where}: non-finite gradient at nodes {grads.nodes[~ok].tolist()} "
            f"(batch of source nodes {np.unique(batch.u).tolist()}); "
            "try a lower learning rate"
        )
    grads.scale(1.0 / len(losses))
    return losses, grads


class _LazyAdam:
    """Adam whose moment estimates advance only for rows present in a batch.

    Bias correction uses the global step count, matching the usual lazy/sparse
    Adam variants for embedding tables.
    """

    def __init__(self, params: ModelParams, lr: float):
        self.lr = lr
        self.step_count = 0
        self.m = {
            "identity": np.zeros_like(params.identity),
            "aspect": np.zeros_like(params.aspect),
            "rho": np.zeros_like(params.rho),
            "theta": np.zeros_like(params.theta),
            "attn_w": np.zeros_like(params.attn_w),
            "attn_a": np.zeros_like(params.attn_a),
        }
        self.v = {name: np.zeros_like(arr) for name, arr in self.m.items()}

    def _update(self, name, target, grad, rows=None):
        m, v = self.m[name], self.v[name]
        bc1 = 1.0 - ADAM_BETA1**self.step_count
        bc2 = 1.0 - ADAM_BETA2**self.step_count
        if rows is None:
            m += (1.0 - ADAM_BETA1) * (grad - m)
            v += (1.0 - ADAM_BETA2) * (grad**2 - v)
            target -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
        else:
            m[rows] += (1.0 - ADAM_BETA1) * (grad - m[rows])
            v[rows] += (1.0 - ADAM_BETA2) * (grad**2 - v[rows])
            target[rows] -= self.lr * (m[rows] / bc1) / (np.sqrt(v[rows] / bc2) + ADAM_EPS)

    def step(self, params: ModelParams, grads: GradientSet, update_attention: bool):
        self.step_count += 1
        rows = grads.nodes
        self._update("identity", params.identity, grads.d_identity, rows)
        self._update("aspect", params.aspect, grads.d_aspect, rows)
        self._update("rho", params.rho, grads.d_rho, rows)
        self._update("theta", params.theta, grads.d_theta, rows)
        if update_attention:
            self._update("attn_w", params.attn_w, grads.d_attn_w)
            self._update("attn_a", params.attn_a, grads.d_attn_a)


def train(
    net,
    hyper: HyperParams,
    on_epoch=None,
    checkpoint_every: Optional[int] = None,
    checkpoint_dir=None,
) -> ModelParams:
    """Mini-batch Adam over shuffled temporal edges.

    Each batch is drawn with array operations on the network's CSR events:
    a row's history is a gather of its source's most recent events, and its
    negatives and Gumbel noise come from a counter-based stream keyed by
    (seed, epoch, edge index) (see ``EdgeStreams``). So the draws do not
    depend on the batch schedule: a different ``batch_size`` regroups the
    same draws, and the run is a pure function of (net, hyper).
    ``on_epoch(epoch, mean_loss, wall_seconds)`` is called after every pass.
    Each batch takes the checked step of ``batch_gradients``, then clipping
    and the Adam update: a non-finite intensity, loss or gradient raises
    TrainingDiverged naming the epoch, the batch and the nodes involved,
    before its update is applied.
    """
    if net.n_edges == 0:
        raise ValueError("cannot train on an empty network")
    params = init_params(hyper, net.node_count, np.random.default_rng(hyper.seed))
    if hyper.epochs == 0:
        return params
    master = np.random.default_rng(hyper.seed)
    sampler = _BatchSampler(net, hyper)
    adam = _LazyAdam(params, hyper.lr)
    n_edges = net.n_edges
    update_attention = hyper.use_attention

    for epoch in range(hyper.epochs):
        t0 = time.perf_counter()
        order = master.permutation(n_edges)
        loss_sum = 0.0
        for n_batch, start in enumerate(range(0, n_edges, hyper.batch_size)):
            batch = sampler.batch(epoch, order[start : start + hyper.batch_size])
            losses, grads = _step(params, batch, f"epoch {epoch}, batch {n_batch}")
            loss_sum += float(losses.sum())
            norm = grads.global_norm()
            if norm > CLIP_NORM:
                grads.scale(CLIP_NORM / norm)
            adam.step(params, grads, update_attention)
        mean_loss = loss_sum / n_edges
        wall = time.perf_counter() - t0
        if on_epoch is not None:
            on_epoch(epoch, mean_loss, wall)
        if (
            checkpoint_every
            and checkpoint_dir is not None
            and (epoch + 1) % checkpoint_every == 0
        ):
            save_params(params, f"{checkpoint_dir}/checkpoint_epoch{epoch + 1:04d}.bin")
    return params
