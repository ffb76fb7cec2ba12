"""Negative-sampling objective, exact analytic gradients, and the trainer.

The loss for one temporal edge (u, v, t) scores the raw mixed intensity of
the true target against degree-weighted negative samples through a sigmoid:
-log sig(lam_pos) - sum_i log sig(-lam_neg_i). Gradients are derived by hand
and flow through the aspect softmax (with Gumbel noise held fixed), the
attention softmax, contexts, kernels, and the softplus reparameterizations of
the per-node decay and temperature.

A batch is one ``Queries`` (candidate 0 of each row the positive) whose
forward pass is ``intensity.forward``; the backward pass here reuses the
values that forward saved. A batch whose history-less rows would fill more
padded window slots than it has rows runs through the engine in two parts,
those rows at L = 0 and the rest padded to their own longest window, and
both parts' gradient rows are scattered together (see ``_step``). The
backward is derived from the forward's expanded aspect distance, so its
sums over candidates are batched products over the K*m aspect columns, and
no per-aspect (slot x candidate) array is built. The gradients are tested
against finite differences, the loss against the loop-only oracle.
The trainer draws its batches straight into the engine's arrays from the
network's CSR events and counter-based random streams, ``DRAW_BATCHES``
batches per draw. A batch's Gumbel noise is one (B, L+1, K) array, slot 0
the source's, read from the leading columns of each edge's stream and
+0.0 in padded slots. The trainer and ``batch_gradients`` share one
checked step, which raises ``TrainingDiverged`` on a non-finite
intensity, loss or gradient.
``make_sample`` draws one edge's row by the same rules from a given
generator, and ``batch_loss`` and ``batch_gradients`` score a list of such
one-row queries through ``Queries.stack``; only the benchmark and the tests
call these three.

Per-node state keeps one row layout, identity | aspect | rho | theta, from
the backward scatter to the optimizer: the scatter sums each touched node's
staged rows in batch order with numpy gathers over a radix sort of the ids,
``GradientSet.rows`` holds a touched node's gradient as one row of
``ModelParams.table``, clipping scales it whole, and ``_LazyAdam`` updates the
gathered rows of the table and of its two moment tables together, in blocks
small enough to stay in the L2 cache. The module needs numpy alone; the
loss's and the softplus's derivatives go through ``params.sigmoid``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .intensity import LEAKY_SLOPE, Queries, forward
from .params import HyperParams, ModelParams, init_params, node_fields, save_params, sigmoid
from .temporal_graph import (
    NegativeSampler,
    TemporalEdge,
    check_query,
    fill_negatives,
    sample_negatives,
)

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
CLIP_NORM = 5.0
# batches that ``train`` draws per sampler call: one call's fixed cost is
# shared by all of them, and the draws do not depend on the grouping
DRAW_BATCHES = 10


class TrainingDiverged(ValueError):
    """A batch's intensities, losses or gradients became non-finite."""


@dataclass
class GradientSet:
    """Gradients over the unique touched nodes; an absent node's are zero.

    ``nodes`` is sorted and unique, and row i of ``rows`` is the gradient of
    row ``nodes[i]`` of ``ModelParams.table``, in its layout (read it with
    ``node_fields``). The attention gradients are dense.
    """

    nodes: np.ndarray
    rows: np.ndarray        # (U, m + K*m + 2)
    d_attn_w: np.ndarray    # (m, m)
    d_attn_a: np.ndarray    # (2m,)

    def touched(self) -> set:
        return set(self.nodes.tolist())

    def scale(self, c: float) -> None:
        self.rows *= c
        self.d_attn_w *= c
        self.d_attn_a *= c

    def global_norm(self) -> float:
        sq = np.einsum("ij,ij->", self.rows, self.rows)
        sq += np.einsum("ij,ij->", self.d_attn_w, self.d_attn_w)
        return float(np.sqrt(sq + np.einsum("i,i->", self.d_attn_a, self.d_attn_a)))


def make_sample(net, sampler, edge: TemporalEdge, hyper: HyperParams, rng) -> Queries:
    """The one-row query of one edge: its source, the target and then its
    negatives as candidates, its recent window and its Gumbel noise.

    The same draw rules as a training batch, for one row and with ``rng`` as
    the source of randomness: the negatives first, then the noise of the
    source and of each window slot. Raises ValueError for an edge whose
    source or time is not a valid query (see ``check_query``).
    """
    u, v, t = edge
    check_query(net, u, t, hyper.history_len)
    hist = net.histories([u], [t], hyper.history_len)
    negs = sample_negatives(sampler, net, u, v, hyper.n_negatives, rng)
    g = None
    if hyper.use_gumbel:
        nodes = np.column_stack([[u], hist.ids])
        uniforms = rng.random(nodes.shape + (hyper.n_aspects,))
        g = _real_slot_gumbel(nodes, np.ones(nodes.shape, dtype=bool), uniforms)
    return Queries(np.array([u]), np.array([[v, *negs]], dtype=np.int64), hist, g)


def batch_loss(params: ModelParams, rows) -> np.ndarray:
    """Per-row losses of one-row queries (candidate 0 the positive), stacked
    by ``Queries.stack``, through the batched forward; raises
    TrainingDiverged on a non-finite intensity or loss."""
    return _checked_forward(params, Queries.stack(rows), "batch")[1]


def batch_gradients(params: ModelParams, rows):
    """(mean loss, mean GradientSet) over one-row queries, as ``batch_loss``
    stacks them.

    The same checked step as a training batch: raises TrainingDiverged (a
    ValueError) on a non-finite intensity, loss or gradient.
    """
    losses, grads, _ = _step(params, Queries.stack(rows), "batch")
    return float(losses.mean()), grads


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
    The key holds 64 bits, so the seed must be in [0, 2**64). A training
    batch reads each edge's stream through ``uniforms`` alone: its Gumbel
    noise ``g`` (B, L+1, K) from the leading (L+1) * K columns, slot after
    slot, and its negatives from column (history_len + 1) * K on.
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

    A row's history is a gather from the network's CSR events, through the
    network's window rule. Its Gumbel noise and negatives come from the
    edge's stream in ``EdgeStreams``: the first (history_len + 1) * K
    columns hold the noise of the source and history slots, slot after
    slot, and the rest feed the negatives' rejection rounds. A batch reads
    the noise columns of its padded width, (L + 1) * K, and takes the
    logarithms of the real slots' columns only, so a padded slot gets +0.0
    noise. The negatives' rounds all draw through one closure: the first
    takes twice the negative count, so that most rows fill in it, and a
    later one draws for the rows still short.
    """

    def __init__(self, net, hyper: HyperParams):
        self.net, self.hyper = net, hyper
        self.negatives = NegativeSampler(net)
        self.n_noise = (hyper.history_len + 1) * hyper.n_aspects

    def batch(self, epoch: int, idx) -> Queries:
        net, hyper = self.net, self.hyper
        idx = np.asarray(idx, dtype=np.int64)
        stream = EdgeStreams(hyper.seed, epoch)
        u, v = net.sources[idx], net.targets[idx]
        hist = net.histories(u, net.times[idx], hyper.history_len)

        # The first round draws twice the negative count; a later round draws
        # as many candidates as all earlier ones together (up to 1024), so a
        # row with a low acceptance rate needs few rounds.
        def draw(rows, start, size):
            size = max(size, min(start, 1024) if start else 2 * hyper.n_negatives)
            return self.negatives.nodes(stream.uniforms(idx[rows], self.n_noise + start, size))

        negs = fill_negatives(net, u, v, hyper.n_negatives, draw)
        g = None
        if hyper.use_gumbel:
            k = hyper.n_aspects
            real = np.column_stack([np.ones(len(idx), dtype=bool), hist.mask > 0])   # (B, L+1)
            uniforms = stream.uniforms(idx, 0, real.shape[1] * k).reshape(real.shape + (k,))
            g = _real_slot_gumbel(np.column_stack([u, hist.ids]), real, uniforms)
        return Queries(u, np.column_stack([v, negs]), hist, g)


def _real_slot_gumbel(nodes, real, uniforms) -> np.ndarray:
    """(B, S, K) Gumbel noise, -log(-log(uniform)), of B rows of S node slots,
    from the (B, S, K) ``uniforms`` of the ``real`` slots alone. Noise is
    per node within a row: a slot whose node already appeared earlier in
    the row reuses that first slot's draw. A padded slot (not ``real``)
    gets +0.0, and no logarithm is taken for it."""
    nodes = np.where(real, nodes, -1)
    first = np.argmax(nodes[:, :, None] == nodes[:, None, :], axis=2)    # (B, S)
    g = np.zeros(uniforms.shape)
    g[real] = -np.log(-np.log(uniforms[real]))
    return np.take_along_axis(g, first[:, :, None], axis=1)


def _forward_loss(params: ModelParams, batch: Queries):
    """(Forward, per-sample losses) of a batch; no finiteness check.

    ``_checked_forward`` raises on a non-finite intensity or loss, so a NaN
    intensity is not also warned about.
    """
    fwd = forward(params, batch.u, batch.hist, batch.cand, batch.g)
    lam = fwd.lam
    with np.errstate(invalid="ignore"):
        losses = np.logaddexp(0.0, -lam[:, 0]) + np.logaddexp(0.0, lam[:, 1:]).sum(axis=1)
    return fwd, losses


def _checked_forward(params: ModelParams, batch: Queries, where: str):
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


def _backward(params: ModelParams, batch, fwd) -> GradientSet:
    """Gradients of the summed batch loss, from the values ``fwd`` saved.

    ``batch`` and ``fwd`` are a ``Queries`` and its ``Forward``, or lists of
    the parts of one batch that ``_step`` ran through the engine apart and
    their ``Forward``s. Each part's per-role rows (sources, candidates, real
    history slots, in the layout of ``ModelParams.table``) are staged in one
    buffer, part after part, and ``_scatter`` sums them onto the touched
    nodes once, while the last part's temporaries are still alive: freed
    before the scatter, they let glibc trim the heap and fault it back in on
    every batch.
    Gradients are sums over the batch; ``_step`` rescales them to a mean.

    With v = dL/dlam * f_nc (B, L+1, C), every sum over candidates of v times
    the squared aspect distance gam_k expands as in ``forward``:
    sum_c v gam_k = |a_nk|^2 sum_c v + v @ |ac_k|^2 - 2 a_nk . (v @ ac_k).
    So the aspect weights' gradient (which feeds the aspect softmax), the
    slot weights' (which feeds attention and kappa) and those of a_n and ac
    are products over the K*m columns, and no (B, K, L+1, C) array is built.
    """
    hyper = params.hyper
    m, k = hyper.dim, hyper.n_aspects
    parts, fwds = ([batch], [fwd]) if isinstance(batch, Queries) else (batch, fwd)
    # padded history slots are left out, so they are neither touched nor
    # sent zeros
    reals = [part.hist.mask > 0 for part in parts]
    ids_all = np.concatenate([
        ids
        for part, real in zip(parts, reals)
        for ids in (part.u, part.cand.reshape(-1), part.hist.ids[real])
    ])
    rows = np.zeros((len(ids_all), hyper.row_width))
    r_ident, r_aspect, r_rho, r_theta = node_fields(rows, m)
    d_attn_w = np.zeros((m, m))
    d_attn_a = np.zeros(2 * m)
    lo = 0
    # each pass rebinds ``batch`` and ``fwd`` to one part and its Forward
    for batch, fwd, real in zip(parts, fwds, reals):
        u, cand, hist, hist_dt = batch.u, batch.cand, batch.hist.ids, batch.hist.dt
        b, c = cand.shape
        lmax = hist.shape[1]
        pi, attn, kappa = fwd.pi, fwd.attn, fwd.kappa
        f_nc, w, wa, g = fwd.f_nc, fwd.w, fwd.wa, fwd.g
        i_n, a_n, ic, ac = fwd.i_n, fwd.a_n, fwd.ic, fwd.ac
        iu, ih = i_n[:, 0], i_n[:, 1:]
        w_ex, w_self, lens_safe = fwd.w_ex, fwd.w_self, fwd.lens_safe
        tau_n, theta_n = fwd.tau_n, fwd.theta_n
        z, wu, wh = fwd.z, fwd.wu, fwd.wh
        pi_u = pi[:, 0]

        wc = sigmoid(fwd.lam)
        wc[:, 0] -= 1.0                                                  # dL/dlam

        # intensity backward: q[n, k] = sum_c v[n, c] gam_k[n, c], expanded
        v = f_nc * wc[:, None]                                           # (B, L+1, C)
        v_sum = np.einsum("bnc->bn", v)
        da_n = (v @ ac.reshape(b, c, k * m)).reshape(b, lmax + 1, k, m)  # v @ ac; dL/da_n below
        q = fwd.a_sq * v_sum[:, :, None]
        q += v @ fwd.ac_sq
        q -= 2.0 * np.einsum("bnkm,bnkm->bnk", a_n, da_n)                # (B, L+1, K)
        # the source's pi weights the mixture, an event's pi its own term, and
        # the slot weight (attn * kappa) every aspect of it
        sq = q[:, 1:] * (attn * kappa)[:, :, None]
        dpi = np.empty_like(pi)
        dpi[:, 0] = q[:, 0] + np.einsum("blk,blk->bk", pi[:, 1:], sq)
        dpi[:, 1:] = sq * pi_u[:, None]
        e0 = np.einsum("blk,blk,bk->bl", pi[:, 1:], q[:, 1:], pi_u)     # dL/d(attn * kappa)
        dattn = e0 * kappa
        dkappa = e0 * attn
        df2_nc = 2.0 * g * wc[:, None]                                   # 2 dL/df_nc

        # aspect-softmax backward (linear in dpi, so per-event rows of
        # duplicated nodes sum to the correct node gradient on scatter)
        dlogits = pi * (dpi - np.sum(dpi * pi, axis=2, keepdims=True))
        if hyper.use_gumbel:
            df_n = dlogits / tau_n[:, :, None]
            # tau_n**2 can underflow to 0 (0/0): every caller raises on the
            # non-finite gradient, so it is not also warned about
            with np.errstate(invalid="ignore"):
                dtau_n = -np.sum(dlogits * fwd.fg_n, axis=2) / tau_n**2
            dtheta_n = dtau_n * sigmoid(theta_n)
        else:
            df_n = dlogits
            dtheta_n = np.zeros((b, lmax + 1))
        # f_n = 2 i_n.ctx_k - |i_n|^2 - |ctx_k|^2, so its pair sums are in Gram
        # form too
        df2_n = 2.0 * df_n
        di_n = df2_n @ fwd.ctx                                           # (B, L+1, m)
        di_n -= np.einsum("bnk->bn", df2_n)[:, :, None] * i_n
        dctx = df2_n.transpose(0, 2, 1) @ i_n                            # (B, K, m)
        dctx -= np.einsum("bnk->bk", df2_n)[:, :, None] * fwd.ctx

        # aspect-distance backward: 2 dL/dgam_k[n, c] = 2 w[n, k] v[n, c], so
        # da_n = 2 w (a_n sum_c v - v @ ac) and dac = (v^T @ 2w) ac + v^T @ wa
        dac = (v.transpose(0, 2, 1) @ wa).reshape(b, c, k, m)
        dac += (v.transpose(0, 2, 1) @ (2.0 * w))[:, :, :, None] * ac
        da_n *= (-2.0 * w)[:, :, :, None]
        da_n -= (v_sum[:, :, None] * wa).reshape(b, lmax + 1, k, m)

        # context backward
        da_n[:, 0] += w_self[:, None, None] * dctx
        dhsum = (w_ex / lens_safe)[:, None, None] * dctx
        if lmax:
            dkappa += np.einsum("bkm,blkm->bl", dhsum, a_n[:, 1:])
            da_n[:, 1:] += dhsum[:, None] * kappa[:, :, None, None]

        # kernel / decay backward
        ddelta = -np.sum(dkappa * hist_dt * kappa, axis=1)
        drho_u = ddelta * sigmoid(params.rho[u])

        # attention backward
        if hyper.use_attention and lmax > 0:
            a1, a2 = params.attn_a[:m], params.attn_a[m:]
            de = attn * (dattn - np.sum(dattn * attn, axis=1, keepdims=True))
            dz = de * np.where(z >= 0, 1.0, LEAKY_SLOPE)
            dz_row = dz.sum(axis=1)
            d_attn_a[:m] += dz_row @ wu
            d_attn_a[m:] += np.einsum("bl,blm->m", dz, wh)
            d_attn_w += np.outer(a1, dz_row @ iu) + np.outer(a2, np.einsum("bl,blm->m", dz, ih))
            di_n[:, 0] += dz_row[:, None] * (params.attn_w.T @ a1)
            di_n[:, 1:] += dz[:, :, None] * (params.attn_w.T @ a2)

        # similarity-term backward: a pair sum is in Gram form,
        # sum_j g_j (a - b_j) = (sum_j g_j) a - g @ b, so no slot x candidate
        # difference array is built
        di_n += df2_nc @ ic
        di_n -= np.einsum("bnc->bn", df2_nc)[:, :, None] * i_n
        dic = df2_nc.transpose(0, 2, 1) @ i_n
        dic -= np.einsum("bnc->bc", df2_nc)[:, :, None] * ic

        # stage this part's rows: sources, candidates, real history slots
        at_src, at_cand, at_hist = lo, lo + b, lo + b + b * c
        lo = at_hist + np.count_nonzero(real)
        r_ident[at_src:at_cand], r_aspect[at_src:at_cand] = di_n[:, 0], da_n[:, 0]
        r_rho[at_src:at_cand], r_theta[at_src:at_cand] = drho_u, dtheta_n[:, 0]
        r_ident[at_cand:at_hist] = dic.reshape(-1, m)
        r_aspect[at_cand:at_hist] = dac.reshape(-1, k, m)
        if lmax:
            r_ident[at_hist:lo] = di_n[:, 1:][real]
            r_aspect[at_hist:lo] = da_n[:, 1:][real]
            r_theta[at_hist:lo] = dtheta_n[:, 1:][real]
    nodes, node_rows = _scatter(ids_all, rows, params.node_count)
    return GradientSet(nodes, node_rows, d_attn_w, d_attn_a)


def _scatter(ids, rows, node_count: int):
    """(nodes, sums): the sorted unique ``ids`` and, for each, the sum of the
    ``rows`` that carry it, added onto 0.0 in the order of ``rows``, as
    ``np.add.at`` adds them (bit for bit, signed zeros included).

    A stable sort of the ids, in the smallest unsigned type that holds them
    (which numpy radix-sorts), lists each node's rows in batch order. The
    output slots hold the nodes by decreasing number of rows, so the nodes
    that have an r-th row fill a prefix of the slots, and layer r is one
    gather of those rows added in place onto that prefix. A last permutation
    puts the slots in node order.
    """
    order = np.argsort(ids.astype(np.min_scalar_type(node_count - 1)), kind="stable")
    sorted_ids = ids[order]
    head = np.flatnonzero(np.diff(sorted_ids, prepend=-1))   # a node's first row in ``order``
    counts = np.diff(head, append=len(ids))
    by_count = np.argsort(-counts, kind="stable")
    start = head[by_count]
    have = len(head) - np.cumsum(np.bincount(counts))       # have[r]: nodes with > r rows
    out = rows[order[start]]
    out += 0.0                                               # a lone -0.0 sums to +0.0
    for r, c in enumerate(have[1:-1].tolist(), 1):
        out[:c] += rows[order[start[:c] + r]]
    sums = np.empty_like(out)
    sums[by_count] = out
    return sorted_ids[head], sums


def _row_groups(batch: Queries):
    """None, or the batch's history-less rows and the rest, as two index
    arrays in row order: split when the history-less rows times the padded
    window length exceed the row count, that is when padding those rows to
    the window costs more slots than the batch has rows."""
    b, lmax = batch.hist.ids.shape
    if lmax == 0:
        return None
    empty = batch.hist.mask[:, 0] == 0
    if np.count_nonzero(empty) * lmax <= b:
        return None
    return np.flatnonzero(empty), np.flatnonzero(~empty)


def _step(params: ModelParams, batch: Queries, where: str):
    """(per-sample losses, mean GradientSet, its global norm) of one batch.

    A batch with many history-less rows (see ``_row_groups``) runs through
    the engine in two parts: those rows at L = 0, and the rest padded to
    their own longest window. The losses come back in row order, and both
    parts' gradients meet in one ``_backward``, so the batch still takes one
    scatter, one norm check, one clip and one optimizer step.

    Raises TrainingDiverged, prefixed by ``where`` and naming the nodes
    involved, on a non-finite forward (before the backward pass) or a
    non-finite gradient norm (before any parameter changes).
    """
    groups = _row_groups(batch)
    if groups is None:
        fwd, losses = _checked_forward(params, batch, where)
        grads = _backward(params, batch, fwd)
    else:
        parts = [batch.take(rows) for rows in groups]
        losses = np.empty(len(batch.u))
        fwds = []
        for rows, part in zip(groups, parts):
            fwd, losses[rows] = _checked_forward(params, part, where)
            fwds.append(fwd)
        grads = _backward(params, parts, fwds)
    grads.scale(1.0 / len(losses))
    norm = grads.global_norm()
    if not np.isfinite(norm):
        bad = ~np.isfinite(grads.rows).all(axis=1)
        raise TrainingDiverged(
            f"{where}: non-finite gradient at nodes {grads.nodes[bad].tolist()} "
            f"(batch of source nodes {np.unique(batch.u).tolist()}); "
            "try a lower learning rate"
        )
    return losses, grads, norm


class _LazyAdam:
    """Adam whose moment estimates advance only for rows present in a batch.

    The per-node moments are two tables in the layout of ``ModelParams.table``.
    A step walks the touched rows in blocks of ~2**13 values per array: it
    gathers a block's rows of the parameters and of both moments, updates
    them in place and scatters each back. The six arrays of a block (those
    three, the gradient and two temporaries) take ~384 KB, so they stay in
    the L2 cache through all of the update's passes; larger blocks spill
    from it. The attention arrays and their moments are dense. Bias
    correction uses the global step count, matching the usual lazy/sparse
    Adam variants for embedding tables.
    """

    def __init__(self, params: ModelParams, lr: float):
        self.lr = lr
        self.step_count = 0
        self.m_nodes = np.zeros_like(params.table)
        self.v_nodes = np.zeros_like(params.table)
        self.m_attn = (np.zeros_like(params.attn_w), np.zeros_like(params.attn_a))
        self.v_attn = (np.zeros_like(params.attn_w), np.zeros_like(params.attn_a))

    def _update(self, target, m, v, grad):
        """One Adam update of ``target``, ``m`` and ``v`` in place.

        The same operations in the same order as
            m += (1 - beta1) * (grad - m)
            v += (1 - beta2) * (grad**2 - v)
            target -= lr * (m / bc1) / (sqrt(v / bc2) + eps)
        with two temporaries in place of one per operation.
        """
        bc1 = 1.0 - ADAM_BETA1**self.step_count
        bc2 = 1.0 - ADAM_BETA2**self.step_count
        tmp = np.subtract(grad, m)
        tmp *= 1.0 - ADAM_BETA1
        m += tmp
        np.square(grad, out=tmp)
        tmp -= v
        tmp *= 1.0 - ADAM_BETA2
        v += tmp
        np.divide(v, bc2, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += ADAM_EPS
        step = np.divide(m, bc1)
        step *= self.lr
        step /= tmp
        target -= step

    def step(self, params: ModelParams, grads: GradientSet, update_attention: bool):
        self.step_count += 1
        # ~2**13 values (64 KB) per array and block, so a block stays in L2
        chunk = max(1, 2**13 // params.table.shape[1])
        for lo in range(0, len(grads.nodes), chunk):
            rows = grads.nodes[lo : lo + chunk]
            p, m, v = params.table[rows], self.m_nodes[rows], self.v_nodes[rows]
            self._update(p, m, v, grads.rows[lo : lo + chunk])
            params.table[rows], self.m_nodes[rows], self.v_nodes[rows] = p, m, v
        if update_attention:
            self._update(params.attn_w, self.m_attn[0], self.v_attn[0], grads.d_attn_w)
            self._update(params.attn_a, self.m_attn[1], self.v_attn[1], grads.d_attn_a)


def check_checkpointing(every, directory) -> None:
    """Raise ValueError unless a checkpoint every ``every`` epochs (None:
    no checkpoints) is an interval >= 1 with a ``directory`` to write to."""
    if every is not None and every < 1:
        raise ValueError(f"checkpoint_every must be >= 1, not {every}")
    if every is not None and directory is None:
        raise ValueError("checkpoint_every needs a checkpoint_dir to write to")


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
    same draws, and the run is a pure function of (net, hyper). A batch pads
    its histories to its longest window, though, or runs its history-less
    rows apart when padding them would cost more slots than it has rows
    (see ``_step``), and the products over a padded length may round
    differently, so a different ``batch_size`` can change the results in
    the last bits. The batches are drawn ``DRAW_BATCHES`` at a time and each
    is cut out with ``Queries.take``, which pads it to its own longest
    window, so it is bitwise the batch that a draw of it alone would give.
    ``on_epoch(epoch, mean_loss, wall_seconds)`` is called after every pass.
    Each batch takes the checked step of ``batch_gradients``, then clipping
    and the Adam update: a non-finite intensity, loss or gradient raises
    TrainingDiverged naming the epoch, the batch and the nodes involved,
    before its update is applied. With ``checkpoint_every`` n (>= 1), the
    parameters are saved under ``checkpoint_dir`` after every n-th epoch; an
    interval without a directory is a ValueError, raised before training.
    The returned model is read-only (see ``ModelParams.freeze``).
    """
    check_checkpointing(checkpoint_every, checkpoint_dir)
    if net.n_edges == 0:
        raise ValueError("cannot train on an empty network")
    params = init_params(hyper, net.node_count, np.random.default_rng(hyper.seed))
    if hyper.epochs == 0:
        return params.freeze()
    master = np.random.default_rng(hyper.seed)
    sampler = _BatchSampler(net, hyper)
    adam = _LazyAdam(params, hyper.lr)
    n_edges = net.n_edges
    update_attention = hyper.use_attention
    block = DRAW_BATCHES * hyper.batch_size

    for epoch in range(hyper.epochs):
        t0 = time.perf_counter()
        order = master.permutation(n_edges)
        loss_sum = 0.0
        for n_batch, start in enumerate(range(0, n_edges, hyper.batch_size)):
            at = start % block
            if at == 0:
                drawn = sampler.batch(epoch, order[start : start + block])
            batch = drawn.take(np.arange(len(drawn.u))[at : at + hyper.batch_size])
            losses, grads, norm = _step(params, batch, f"epoch {epoch}, batch {n_batch}")
            loss_sum += float(losses.sum())
            if norm > CLIP_NORM:
                grads.scale(CLIP_NORM / norm)
            adam.step(params, grads, update_attention)
        mean_loss = loss_sum / n_edges
        wall = time.perf_counter() - t0
        if on_epoch is not None:
            on_epoch(epoch, mean_loss, wall)
        if checkpoint_every and (epoch + 1) % checkpoint_every == 0:
            save_params(params, f"{checkpoint_dir}/checkpoint_epoch{epoch + 1:04d}.bin")
    return params.freeze()
