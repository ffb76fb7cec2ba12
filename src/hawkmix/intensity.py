"""The connection-rate model: one batched forward pass.

The raw rate of a source node u linking to a target v mixes per-aspect
intensities: each aspect combines a base term (identity similarity scaled by
aspect-embedding spread) with excitation from u's recent neighbors, weighted
by graph attention, their own aspect activeness, and an exponential time
decay. Aspect weights come from a temperature-scaled softmax over context
similarities, optionally perturbed with fixed Gumbel noise during training.

``forward`` evaluates the model for a batch of queries (source, padded
history, candidate targets) and is the only implementation of it: training,
the loss, recommendation, aspect read-out and the CLI all call it.
``build_context``, ``mixed_intensity`` and ``candidate_scores`` are thin
single-query wrappers around it. Everything here is pure in (params, inputs).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .params import ModelParams, softplus

LEAKY_SLOPE = 0.2


def gumbel_noise(rng: np.random.Generator, k: int) -> np.ndarray:
    """k i.i.d. standard Gumbel draws: -log(-log(uniform))."""
    return -np.log(-np.log(rng.random(k)))


def node_shared_gumbel(nodes, real, uniforms) -> np.ndarray:
    """(B, S, K) Gumbel noise for B rows of S node slots from (B, S, K) uniforms.

    Noise is per node within a row: a slot whose node already appeared
    earlier in the row reuses that first slot's draw. Slots not ``real``
    (padding, which comes after the real slots) get zero noise.
    """
    nodes = np.asarray(nodes)
    first = np.argmax(nodes[:, :, None] == nodes[:, None, :], axis=2)   # (B, S)
    g = -np.log(-np.log(uniforms))
    g = np.take_along_axis(g, first[:, :, None], axis=1)
    return g * np.asarray(real, dtype=np.float64)[:, :, None]


@dataclass
class Histories:
    """Padded history windows of B queries; L is the longest window."""

    ids: np.ndarray   # (B, L) neighbor ids, 0 in padded slots
    dt: np.ndarray    # (B, L) query time minus event time, 0 in padded slots
    mask: np.ndarray  # (B, L) 1.0 for real events


def window_histories(t, nbr, ev_time, start, stop) -> Histories:
    """Pad the windows ``start[i]:stop[i]`` of flat event arrays into (B, L).

    ``nbr`` and ``ev_time`` hold the events' neighbor ids and times; ``t``
    holds the B query times. L is the longest window in the batch, not the
    configured history length, so a batch of short histories stays small.
    """
    t = np.asarray(t, dtype=np.float64)
    lens = np.asarray(stop) - np.asarray(start)
    lmax = int(lens.max(initial=0))
    real = np.arange(lmax) < lens[:, None]
    pos = np.where(real, np.asarray(start)[:, None] + np.arange(lmax), 0)
    ids = np.where(real, nbr[pos], 0)
    dt = np.where(real, t[:, None] - ev_time[pos], 0.0)
    return Histories(ids, dt, real.astype(np.float64))


def pad_histories(t, histories) -> Histories:
    """Pad per-query ``(neighbor ids, event times)`` pairs into (B, L) arrays.

    ``t`` holds the B query times; see ``window_histories``.
    """
    lens = np.array([len(ids) for ids, _ in histories], dtype=np.int64)
    stop = np.cumsum(lens)
    nbr = np.concatenate([np.asarray(h, dtype=np.int64) for h, _ in histories])
    ev_t = np.concatenate([np.asarray(ts, dtype=np.float64) for _, ts in histories])
    hist = window_histories(t, nbr, ev_t, stop - lens, stop)
    if np.any(hist.dt < 0):
        raise ValueError("history events must not come after the query time")
    return hist


def noise_arrays(k: int, u, hist: Histories, noises):
    """(g_u (B, K), g_h (B, L, K)) replaying per-query Gumbel draws.

    ``noises[i]`` maps each node of query i (its source and history nodes) to
    a (K,) draw; a None entry gives zero noise for that query.
    """
    b, lmax = hist.ids.shape
    g_u = np.zeros((b, k))
    g_h = np.zeros((b, lmax, k))
    lens = hist.mask.sum(axis=1).astype(np.int64).tolist()
    rows = zip(noises, np.asarray(u).tolist(), hist.ids.tolist(), lens)
    for i, (noise, src, ids, n) in enumerate(rows):
        if noise is None:
            continue
        g_u[i] = noise[src]
        for j in range(n):
            g_h[i, j] = noise[ids[j]]
    return g_u, g_h


@dataclass
class Forward:
    """Outputs of ``forward`` and the intermediates its backward reuses.

    A query's node slots are its source (slot 0) and its L history events
    (slots 1..L). The outputs are ``pi`` (B, L+1, K) aspect weights of every
    slot, ``lam_k`` (B, C, K) raw per-aspect intensities and ``lam`` (B, C)
    their pi-weighted mixture; apply exp() for a positive rate per unit time.
    ``ctx`` (B, K, m) holds the contexts, ``attn`` and ``kappa`` (B, L) the
    attention weights and kernel values, ``mu`` (B, C) the identity
    similarity of source and candidate. With no candidates (C == 0) the
    candidate terms are skipped: ``lam_k``, ``lam`` and ``mu`` are empty and
    ``f_nc``, ``gam``, ``w_nc`` and ``pi_w`` are None.
    """

    pi: np.ndarray
    lam_k: np.ndarray
    lam: np.ndarray
    ctx: np.ndarray
    attn: np.ndarray
    kappa: np.ndarray
    mu: np.ndarray
    # saved for the backward pass
    i_n: np.ndarray               # (B, L+1, m) identity embeddings of the slots
    a_n: np.ndarray               # (B, L+1, K, m) aspect embeddings of the slots
    ic: np.ndarray                # (B, C, m)
    ac: np.ndarray                # (B, C, K, m)
    z: Optional[np.ndarray]
    wu: Optional[np.ndarray]
    wh: Optional[np.ndarray]
    lens_safe: np.ndarray
    w_ex: np.ndarray
    w_self: np.ndarray
    diff_nc: np.ndarray
    fg_n: Optional[np.ndarray]    # logits before the temperature: f + g
    theta_n: Optional[np.ndarray]
    tau_n: Optional[np.ndarray]
    f_nc: Optional[np.ndarray]    # (B, L+1, C) identity similarity, slot to candidate
    gam: Optional[np.ndarray]     # (B, K, L+1, C) squared aspect distance, slot to candidate
    w_nc: Optional[np.ndarray]    # (B, L+1, C) f_nc times the slot weight (1, attn * kappa)
    pi_w: Optional[np.ndarray]    # (B, K, L+1) pi of each slot's term: 1 for the source

    @property
    def pi_u(self) -> np.ndarray:
        return self.pi[:, 0, :]


def forward(
    params: ModelParams,
    u,
    hist: Histories,
    cand,
    g_u: Optional[np.ndarray] = None,
    g_h: Optional[np.ndarray] = None,
) -> Forward:
    """The model for B queries: source ``u`` (B,), padded ``hist``, candidate
    targets ``cand`` (B, C), and fixed Gumbel noise ``g_u`` (B, K) and ``g_h``
    (B, L, K), or None for none (deterministic aspect weights).

    Every squared distance between a slot (source or history event) and a
    candidate is in Gram form, |a - b|^2 = |a|^2 + |b|^2 - 2 a.b: the cross
    terms are matrix products over the embedding dimension, so no (B, L, C,
    K, m) difference array is built, and each squared norm is computed once.
    With C == 0 (the aspect read-out) the candidate terms are skipped.

    Padded history slots carry kappa == 0, which zeroes their contribution to
    the intensities and to every gradient path that reaches node arrays.
    """
    hyper = params.hyper
    m, k = hyper.dim, hyper.n_aspects
    ident, aspect = params.identity, params.aspect
    u = np.asarray(u, dtype=np.int64)
    cand = np.asarray(cand, dtype=np.int64)
    ids, mask = hist.ids, hist.mask
    b, c = cand.shape
    lmax = ids.shape[1]
    lens = mask.sum(axis=1)
    lens_safe = np.maximum(lens, 1.0)

    nodes_n = np.concatenate([u[:, None], ids], axis=1)              # (B, L+1)
    i_n = ident[nodes_n]                                             # (B, L+1, m)
    a_n = aspect[nodes_n]                                            # (B, L+1, K, m)
    iu, ih = i_n[:, 0], i_n[:, 1:]
    au, ah = a_n[:, 0], a_n[:, 1:]
    ic = ident[cand]                                                 # (B, C, m)
    ac = aspect[cand]                                                # (B, C, K, m)

    delta_u = softplus(params.rho[u])
    kappa = np.exp(-delta_u[:, None] * hist.dt) * mask               # (B, L)

    # attention over history events
    if hyper.use_attention and lmax > 0:
        a1, a2 = params.attn_a[:m], params.attn_a[m:]
        wu = iu @ params.attn_w.T                                # (B, m)
        wh = ih @ params.attn_w.T                                # (B, L, m)
        z = (wu @ a1)[:, None] + wh @ a2                         # (B, L)
        e = np.where(z >= 0, z, LEAKY_SLOPE * z)
        row_max = np.max(np.where(mask > 0, e, -np.inf), axis=1, keepdims=True)
        row_max = np.where(np.isfinite(row_max), row_max, 0.0)   # rows w/o history
        exp_e = np.exp(np.where(mask > 0, e - row_max, -np.inf))
        denom = exp_e.sum(axis=1, keepdims=True)
        attn = np.divide(exp_e, denom, out=np.zeros_like(exp_e), where=denom > 0)
    else:
        attn = mask.copy()
        z = wu = wh = None

    # contexts: decayed history mean blended with the source's own aspects
    hsum = np.einsum("bl,blkm->bkm", kappa, ah) if lmax else np.zeros((b, k, m))
    havg = hsum / lens_safe[:, None, None]
    w_ex = np.where(lens > 0, 0.5, 0.0)
    w_self = np.where(lens > 0, 0.5, 1.0)
    ctx = w_ex[:, None, None] * havg + w_self[:, None, None] * au    # (B, K, m)

    # aspect distributions for the source (row 0) and each history event
    diff_nc = i_n[:, :, None, :] - ctx[:, None, :, :]                # (B, L+1, K, m)
    f_n = -np.sum(diff_nc**2, axis=3)                                # (B, L+1, K)
    if hyper.use_gumbel:
        fg_n = f_n if g_u is None else f_n + np.concatenate([g_u[:, None, :], g_h], axis=1)
        theta_n = params.theta[nodes_n]
        tau_n = softplus(theta_n)
        logits = fg_n / tau_n[:, :, None]
    else:
        fg_n = theta_n = tau_n = None
        logits = f_n
    logits = logits - logits.max(axis=2, keepdims=True)
    exp_l = np.exp(logits)
    pi = exp_l / exp_l.sum(axis=2, keepdims=True)                    # (B, L+1, K)
    pi_u = pi[:, 0, :]

    # Per-aspect intensities: each slot adds its identity similarity to the
    # candidate times its aspect distance to it, weighted by 1 for the source
    # and by pi * attn * kappa for a history event.
    mu, lam_k = np.zeros((b, c)), np.zeros((b, c, k))
    f_nc = gam = w_nc = pi_w = None
    if c:
        f_nc = 2.0 * np.einsum("bnm,bcm->bnc", i_n, ic)
        f_nc -= np.einsum("bnm,bnm->bn", i_n, i_n)[:, :, None]
        f_nc -= np.einsum("bcm,bcm->bc", ic, ic)[:, None]                # (B, L+1, C)
        gam = (
            np.einsum("bnkm,bnkm->bkn", a_n, a_n)[:, :, :, None]
            + np.einsum("bckm,bckm->bkc", ac, ac)[:, :, None]
        )
        gam -= 2.0 * (a_n.transpose(0, 2, 1, 3) @ ac.transpose(0, 2, 3, 1))  # (B, K, L+1, C)
        w_nc = f_nc * np.concatenate([np.ones((b, 1)), attn * kappa], axis=1)[:, :, None]
        pi_w = pi.transpose(0, 2, 1).copy()
        pi_w[:, :, 0] = 1.0                                              # (B, K, L+1)
        lam_k = np.einsum("bkn,bknc->bck", pi_w, gam * w_nc[:, None])    # (B, C, K)
        mu = f_nc[:, 0]
    lam = np.einsum("bck,bk->bc", lam_k, pi_u)                       # (B, C)

    return Forward(
        pi, lam_k, lam, ctx, attn, kappa, mu,
        i_n, a_n, ic, ac, z, wu, wh, lens_safe, w_ex, w_self, diff_nc,
        fg_n, theta_n, tau_n, f_nc, gam, w_nc, pi_w,
    )


@dataclass
class EdgeContext:
    """One (source, time) query's padded arrays, ready for ``forward``.

    The history and noise depend only on the source and the time, so one
    EdgeContext serves a positive target and all its sampled negatives (swap
    ``target`` via ``with_target``).
    """

    source: int
    target: int
    time: float
    hist: Histories                # one row
    g_u: Optional[np.ndarray] = None
    g_h: Optional[np.ndarray] = None

    def with_target(self, v: int) -> "EdgeContext":
        return replace(self, target=v)


def build_context(
    params: ModelParams,
    u: int,
    v: int,
    t: float,
    history,
    noise: Optional[dict] = None,
) -> EdgeContext:
    """Assemble the arrays for scoring targets of u at time t.

    ``history`` is a sequence of (neighbor, time) events before t. ``noise``
    replays per-node Gumbel vectors for u and each history node; without it
    the aspect weights are deterministic.
    """
    hist = pad_histories([t], [([h for h, _ in history], [th for _, th in history])])
    g_u = g_h = None
    if noise is not None:
        g_u, g_h = noise_arrays(params.hyper.n_aspects, [u], hist, [noise])
    return EdgeContext(u, v, t, hist, g_u, g_h)


def candidate_scores(params: ModelParams, ctx: EdgeContext, targets) -> np.ndarray:
    """Raw mixed intensities of the context's source toward every target."""
    cand = np.asarray(targets, dtype=np.int64)[None, :]
    return forward(params, [ctx.source], ctx.hist, cand, ctx.g_u, ctx.g_h).lam[0]


def mixed_intensity(params: ModelParams, ctx: EdgeContext) -> float:
    """Aspect mixture of raw rates; apply exp() for a positive rate per unit time."""
    return float(candidate_scores(params, ctx, [ctx.target])[0])
