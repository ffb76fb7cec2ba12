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
network's CSR events and counter-based random streams.
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


class TrainingDiverged(RuntimeError):
    """A batch's intensities or losses became non-finite; parameters blew up."""


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
    """Per-sample gradients, sparse over nodes: absent node means zero."""

    d_identity: dict
    d_aspect: dict
    d_rho: dict
    d_theta: dict
    d_attn_w: np.ndarray
    d_attn_a: np.ndarray

    def touched(self):
        return set(self.d_identity)


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
    """Per-sample losses through the batched forward."""
    return _checked_forward(params, _assemble(params.hyper, samples))[1]


def batch_gradients(params: ModelParams, samples):
    """(mean loss, mean GradientSet) over a list of samples."""
    batch = _assemble(params.hyper, samples)
    fwd, losses = _checked_forward(params, batch)
    compact = _backward(params, batch, fwd)
    compact.scale(1.0 / len(samples))
    return float(losses.mean()), _compact_to_set(compact)


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
    """(Forward, per-sample losses) of a batch; no finiteness check."""
    fwd = forward(params, batch.u, batch.hist, batch.cand, batch.g_u, batch.g_h)
    lam = fwd.lam
    losses = np.logaddexp(0.0, -lam[:, 0]) + np.logaddexp(0.0, lam[:, 1:]).sum(axis=1)
    return fwd, losses


def _blown_up(fwd: Forward, losses: np.ndarray) -> np.ndarray:
    """(B,) mask of samples whose intensities or loss are not finite."""
    return ~(np.isfinite(fwd.lam).all(axis=1) & np.isfinite(losses))


def _checked_forward(params: ModelParams, batch: _Batch):
    fwd, losses = _forward_loss(params, batch)
    if _blown_up(fwd, losses).any():
        raise ValueError("non-finite intensity in batch: parameters have blown up")
    return fwd, losses


@dataclass
class _CompactGrads:
    """Summed batch gradients over the unique touched nodes."""

    nodes: np.ndarray
    d_identity: np.ndarray  # (U, m)
    d_aspect: np.ndarray    # (U, K, m)
    d_rho: np.ndarray       # (U,)
    d_theta: np.ndarray     # (U,)
    d_attn_w: np.ndarray    # (m, m)
    d_attn_a: np.ndarray    # (2m,)

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


def _compact_to_set(c: _CompactGrads) -> GradientSet:
    gs = GradientSet({}, {}, {}, {}, c.d_attn_w, c.d_attn_a)
    for i, node in enumerate(c.nodes):
        node = int(node)
        gs.d_identity[node] = c.d_identity[i]
        gs.d_aspect[node] = c.d_aspect[i]
        gs.d_rho[node] = float(c.d_rho[i])
        gs.d_theta[node] = float(c.d_theta[i])
    return gs


def _backward(params: ModelParams, batch: _Batch, fwd: Forward) -> _CompactGrads:
    """Gradients of the summed batch loss, from the values ``fwd`` saved.

    Gradients are sums over the batch; the trainer rescales to a mean.
    """
    hyper = params.hyper
    m, k = hyper.dim, hyper.n_aspects
    u, cand, hist = batch.u, batch.cand, batch.hist.ids
    mask, hist_dt = batch.hist.mask, batch.hist.dt
    b, c = cand.shape
    lmax = hist.shape[1]
    lam, lam_k, mu, gam_u = fwd.lam, fwd.lam_k, fwd.mu, fwd.gam_u
    pi, pi_u, pi_h = fwd.pi, fwd.pi[:, 0, :], fwd.pi[:, 1:, :]
    attn, kappa, ak, s_lc = fwd.attn, fwd.kappa, fwd.ak, fwd.s_lc
    f_hc, gam_h, diff_nc = fwd.f_hc, fwd.gam_h, fwd.diff_nc
    iu, ic, ih, au, ac, ah = fwd.iu, fwd.ic, fwd.ih, fwd.au, fwd.ac, fwd.ah
    w_ex, w_self, lens_safe = fwd.w_ex, fwd.w_self, fwd.lens_safe
    tau_n, theta_n = fwd.tau_n, fwd.theta_n
    z, wu, wh = fwd.z, fwd.wu, fwd.wh

    wc = expit(lam)
    wc[:, 0] -= 1.0                                                  # dL/dlam

    dpi_u = np.einsum("bc,bck->bk", wc, lam_k)
    dlam_k = wc[:, :, None] * pi_u[:, None, :]                       # (B, C, K)
    dmu = np.einsum("bck,bck->bc", dlam_k, gam_u)
    dgam_u = dlam_k * mu[:, :, None]

    dkappa = np.zeros((b, lmax))
    if lmax:
        cg = np.einsum("bck,blck->blck", dlam_k, gam_h)              # (B, L, C, K)
        dpi_h = np.einsum("blck,blc->blk", cg, s_lc)
        e0 = np.einsum("blck,blk,blc->bl", cg, pi_h, f_hc)
        dattn = e0 * kappa
        dkappa += e0 * attn
        df_hc = np.einsum("blck,blk->blc", cg, pi_h) * ak[:, :, None]
        dgam_h = (dlam_k[:, None] * pi_h[:, :, None, :]) * s_lc[:, :, :, None]
    else:
        dpi_h = np.zeros((b, 0, k))
        dattn = None

    # aspect-softmax backward (linear in dpi, so per-event rows of duplicated
    # nodes sum to the correct node gradient on scatter)
    dpi = np.concatenate([dpi_u[:, None, :], dpi_h], axis=1)         # (B, L+1, K)
    dlogits = pi * (dpi - np.sum(dpi * pi, axis=2, keepdims=True))
    if hyper.use_gumbel:
        df_n = dlogits / tau_n[:, :, None]
        dtau_n = -np.sum(dlogits * fwd.fg_n, axis=2) / tau_n**2
        dtheta_n = dtau_n * expit(theta_n)
    else:
        df_n = dlogits
        dtheta_n = np.zeros((b, lmax + 1))
    di_n = -2.0 * np.einsum("bnk,bnkm->bnm", df_n, diff_nc)
    dctx = 2.0 * np.einsum("bnk,bnkm->bkm", df_n, diff_nc)

    # context backward
    dau = w_self[:, None, None] * dctx
    dhsum = (w_ex / lens_safe)[:, None, None] * dctx
    if lmax:
        dkappa += np.einsum("bkm,blkm->bl", dhsum, ah)
        dah = dhsum[:, None] * kappa[:, :, None, None]
    else:
        dah = np.zeros((b, 0, k, m))

    # kernel / decay backward
    ddelta = -np.sum(dkappa * hist_dt * kappa, axis=1)
    drho_u = ddelta * expit(params.rho[u])

    # attention backward
    d_attn_w = np.zeros((m, m))
    d_attn_a = np.zeros(2 * m)
    diu = np.zeros((b, m))
    dih = np.zeros((b, lmax, m))
    if hyper.use_attention and lmax > 0:
        a1, a2 = params.attn_a[:m], params.attn_a[m:]
        de = attn * (dattn - np.sum(dattn * attn, axis=1, keepdims=True))
        dz = de * np.where(z >= 0, 1.0, LEAKY_SLOPE)
        dz_row = dz.sum(axis=1)
        d_attn_a[:m] = dz_row @ wu
        d_attn_a[m:] = np.einsum("bl,blm->m", dz, wh)
        d_attn_w = np.outer(a1, dz_row @ iu) + np.outer(a2, np.einsum("bl,blm->m", dz, ih))
        diu += dz_row[:, None] * (params.attn_w.T @ a1)
        dih += dz[:, :, None] * (params.attn_w.T @ a2)

    # similarity-term backward
    diff_uc = iu[:, None, :] - ic
    diu += -2.0 * np.einsum("bc,bcm->bm", dmu, diff_uc)
    dic = 2.0 * dmu[:, :, None] * diff_uc
    diff_au = au[:, None] - ac
    dau += 2.0 * np.einsum("bck,bckm->bkm", dgam_u, diff_au)
    dac = -2.0 * dgam_u[:, :, :, None] * diff_au
    if lmax:
        diff_hc = ih[:, :, None, :] - ic[:, None]
        dih += -2.0 * np.einsum("blc,blcm->blm", df_hc, diff_hc)
        dic += 2.0 * np.einsum("blc,blcm->bcm", df_hc, diff_hc)
        diff_ahc = ah[:, :, None] - ac[:, None]
        dah += 2.0 * np.einsum("blck,blckm->blkm", dgam_h, diff_ahc)
        dac += -2.0 * np.einsum("blck,blckm->bckm", dgam_h, diff_ahc)

    # fold the pi-path identity gradients into their roles
    diu += di_n[:, 0, :]
    dih += di_n[:, 1:, :]

    # scatter per-role rows onto the unique touched nodes with one sorted
    # segment sum, a product with a 0/1 selector matrix (it adds each node's
    # rows in batch order, as np.add.at did); padded history slots are
    # excluded so they neither appear as touched nor receive zeros. Row
    # layout: identity, aspect, rho, theta.
    valid = mask.reshape(-1) > 0
    ids_all = np.concatenate([u, cand.reshape(-1), hist.reshape(-1)[valid]])
    km = k * m
    rows = np.zeros((len(ids_all), m + km + 2))
    rows[:b, :m] = diu
    rows[:b, m:-2] = dau.reshape(b, km)
    rows[:b, -2] = drho_u
    rows[:b, -1] = dtheta_n[:, 0]
    rows[b : b + b * c, :m] = dic.reshape(-1, m)
    rows[b : b + b * c, m:-2] = dac.reshape(-1, km)
    if lmax:
        rows[b + b * c :, :m] = dih.reshape(-1, m)[valid]
        rows[b + b * c :, m:-2] = dah.reshape(-1, km)[valid]
        rows[b + b * c :, -1] = dtheta_n[:, 1:].reshape(-1)[valid]
    order = np.argsort(ids_all, kind="stable")
    ids_sorted = ids_all[order]
    starts = np.flatnonzero(np.r_[True, ids_sorted[1:] != ids_sorted[:-1]])
    select = sparse.csr_matrix(
        (np.ones(len(order)), order, np.r_[starts, len(order)]),
        shape=(len(starts), len(order)),
    )
    sums = select @ rows
    return _CompactGrads(
        ids_sorted[starts], sums[:, :m], sums[:, m:-2].reshape(-1, k, m),
        sums[:, -2], sums[:, -1], d_attn_w, d_attn_a,
    )


def _train_grads(params: ModelParams, batch: _Batch, epoch: int, n_batch: int):
    """(per-sample losses, summed gradients) of one training batch.

    Raises TrainingDiverged on a non-finite forward (before the backward
    pass) or a non-finite gradient (before any parameter changes), naming
    the epoch, the batch and the nodes involved.
    """
    fwd, losses = _forward_loss(params, batch)
    bad = _blown_up(fwd, losses)
    if bad.any():
        raise TrainingDiverged(
            f"epoch {epoch}, batch {n_batch}: non-finite intensity or loss for "
            f"source nodes {np.unique(batch.u[bad]).tolist()}; try a lower learning rate"
        )
    compact = _backward(params, batch, fwd)
    if not np.isfinite(compact.global_norm()):
        ok = (
            np.isfinite(compact.d_identity).all(axis=1)
            & np.isfinite(compact.d_aspect).all(axis=(1, 2))
            & np.isfinite(compact.d_rho)
            & np.isfinite(compact.d_theta)
        )
        raise TrainingDiverged(
            f"epoch {epoch}, batch {n_batch}: non-finite gradient at nodes "
            f"{compact.nodes[~ok].tolist()} (batch of source nodes "
            f"{np.unique(batch.u).tolist()}); try a lower learning rate"
        )
    return losses, compact


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

    def step(self, params: ModelParams, grads: _CompactGrads, update_attention: bool):
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
    rng: Optional[np.random.Generator] = None,
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
    same draws. With the default rng, which only shuffles the edges, the run
    is a pure function of (net, hyper, seed). ``on_epoch(epoch, mean_loss,
    wall_seconds)`` is called after every pass. A batch with a non-finite
    intensity, loss or gradient raises TrainingDiverged naming the epoch,
    the batch and the nodes involved, before its update is applied.
    """
    if net.n_edges == 0:
        raise ValueError("cannot train on an empty network")
    params = init_params(hyper, net.node_count, np.random.default_rng(hyper.seed))
    if hyper.epochs == 0:
        return params
    master = rng if rng is not None else np.random.default_rng(hyper.seed)
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
            losses, compact = _train_grads(params, batch, epoch, n_batch)
            loss_sum += float(losses.sum())
            compact.scale(1.0 / len(losses))
            norm = compact.global_norm()
            if norm > CLIP_NORM:
                compact.scale(CLIP_NORM / norm)
            adam.step(params, compact, update_attention)
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
