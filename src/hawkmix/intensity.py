"""The target-scoring model: one batched forward pass.

The raw score lam of a source node u toward a target v at one time mixes
per-aspect intensities: each aspect combines a base term (identity
similarity scaled by aspect-embedding spread) with excitation from u's
recent neighbors, weighted by graph attention, their own aspect activeness,
and an exponential time decay. Aspect weights come from a temperature-scaled
softmax over context similarities, optionally perturbed with fixed Gumbel
noise during training. exp(lam) ranks targets at one time: it is a relative
target score, not a rate over time.

``forward`` evaluates the model for a batch of queries (source, padded
history, candidate targets) and is the only implementation of it: training,
the loss, recommendation, aspect read-out and the CLI all call it, with the
history windows that the network owns (``TemporalNetwork.histories``).
Candidates ``None`` mean every node, in id order, for each query: then the
candidate embeddings are the node table's blocks rather than gathered
copies, and their squared norms come from ``ModelParams.node_terms``
(computed once per read-only model), which is how recommendation scores a
whole network per query. Where the candidate rows come from is the only
difference: the same code computes the mixture for both, and its result
feeds the backward pass either way.
``Queries`` holds its arguments, and ``Queries.stack`` pads one-row queries
into one batch. ``build_context`` builds a one-row ``Queries`` from a list of
history events, and ``candidate_scores`` and ``mixed_intensity`` score one;
only the benchmark and the tests call these three. Everything here is pure
in (params, inputs).

Every squared distance in ``forward`` is in Gram form, |a|^2 + |b|^2 - 2 a.b,
so no array of differences over the embedding dimension is built. The
squared aspect distance is expanded inside the mixture's sum over aspects,
so no per-aspect (K, L+1, C) array is built either; ``Forward.lam_k`` builds
one only when it is read. The source's aspect logits come from a row-local
product in every call, so its weights do not depend on the padded history
length or on whether there are candidates. With no candidates (the aspect
read-out) ``forward`` computes only the contexts and the source's aspect
weights: attention weights just the history terms toward candidates, so it
is skipped too, and the history slots' identities and weights are read only
by the mixture, so they are neither gathered nor computed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .params import ModelParams, softplus
from .temporal_graph import Histories, window_histories

LEAKY_SLOPE = 0.2


@dataclass
class Forward:
    """Outputs of ``forward`` and the intermediates its backward reuses.

    A query's node slots are its source (slot 0) and its L history events
    (slots 1..L). The outputs are ``pi`` (B, L+1, K) aspect weights of every
    slot (of the source alone when C == 0) and ``lam`` (B, C) the raw mixed
    intensities; exp(lam) is a relative target score at the query's time,
    not a rate over time. ``ctx`` (B, K, m) holds the contexts, ``attn``
    and ``kappa`` (B, L) the attention weights and kernel values, ``mu``
    (B, C) the identity similarity of source and candidate. ``ic``, ``ac``
    and ``ac_sq`` hold the candidates' identity and aspect embeddings and
    per-aspect squared norms: gathered copies for explicit candidates, and
    read-only views of ``params.node_terms()`` and of the table's aspect
    block, broadcast over the B rows, when ``forward`` is called with
    ``cand=None`` (C == node count). Either way the result feeds the
    backward pass. The per-aspect intensities ``lam_k`` (B, C, K) are not
    kept: the property computes them on access, and builds a (B, L+1, C, K)
    array then.
    With no candidates (C == 0) the candidate terms, the attention and the
    history slots' identities and aspect weights are skipped: ``lam_k``,
    ``lam`` and ``mu`` are empty; ``attn``, ``z``, ``wu``, ``wh``, ``ic``,
    ``ac`` and the candidate terms from ``f_nc`` on are None; and ``i_n``,
    ``pi``, ``fg_n``, ``theta_n`` and ``tau_n`` hold the source slot only,
    (B, 1, ...). Attention never feeds ``pi`` or ``ctx``, and the source's
    logits are a row-local product in every call, so ``ctx`` and the
    source's ``pi`` are the same, bit for bit, with or without candidates.
    ``lens_safe`` (the window lengths, at least 1) and the blend weights
    ``w_ex`` and ``w_self`` (0.5 and 0.5, or 0 and 1 for an empty window)
    are kept for the backward only; ``forward`` blends without them.
    """

    pi: np.ndarray
    lam: np.ndarray
    ctx: np.ndarray
    attn: Optional[np.ndarray]
    kappa: np.ndarray
    mu: np.ndarray
    # saved for the backward pass
    i_n: np.ndarray               # (B, L+1, m) slot identities; (B, 1, m) when C == 0
    a_n: np.ndarray               # (B, L+1, K, m) aspect embeddings of the slots
    ic: Optional[np.ndarray]      # (B, C, m)
    ac: Optional[np.ndarray]      # (B, C, K, m)
    z: Optional[np.ndarray]
    wu: Optional[np.ndarray]
    wh: Optional[np.ndarray]
    lens_safe: np.ndarray
    w_ex: np.ndarray
    w_self: np.ndarray
    fg_n: Optional[np.ndarray]    # logits before the temperature: f + g
    theta_n: Optional[np.ndarray]
    tau_n: Optional[np.ndarray]
    f_nc: Optional[np.ndarray]    # (B, L+1, C) identity similarity, slot to candidate
    a_sq: Optional[np.ndarray]    # (B, L+1, K) |a_nk|^2
    ac_sq: Optional[np.ndarray]   # (B, C, K) |ac_ck|^2
    w: Optional[np.ndarray]       # (B, L+1, K) weight of slot n's aspect-k term in lam
    wa: Optional[np.ndarray]      # (B, L+1, K*m) -2 w a_n
    g: Optional[np.ndarray]       # (B, L+1, C) w-weighted aspect distance, slot to candidate

    @property
    def pi_u(self) -> np.ndarray:
        return self.pi[:, 0, :]

    @property
    def lam_k(self) -> np.ndarray:
        """(B, C, K) raw per-aspect intensities; ``lam`` is their pi_u-weighted sum."""
        b, _, k = self.pi.shape
        if self.f_nc is None:
            return np.zeros((b, 0, k))
        pw = self.pi.copy()
        pw[:, 0] = 1.0
        pw[:, 1:] *= (self.attn * self.kappa)[:, :, None]
        gam = self.a_sq[:, :, None] + self.ac_sq[:, None]                # (B, L+1, C, K)
        gam -= 2.0 * np.einsum("bnkm,bckm->bnck", self.a_n, self.ac)
        return np.einsum("bnk,bnc,bnck->bck", pw, self.f_nc, gam)


def forward(
    params: ModelParams,
    u,
    hist: Histories,
    cand,
    g: Optional[np.ndarray] = None,
) -> Forward:
    """The model for B queries: source ``u`` (B,), padded ``hist``, candidate
    targets ``cand`` (B, C), and fixed Gumbel noise ``g`` (B, L+1, K) of the
    source (slot 0) and each history slot, or None for none (deterministic
    aspect weights). With C == 0 only the source's noise, ``g[:, :1]``, is
    read.

    ``cand=None`` means every node, in id order, for each of the B rows
    (C == node count): the candidate blocks are then the contiguous identity
    block of ``params.node_terms()`` and a view of ``params.aspect`` instead
    of copies, and the candidates' |i_c|^2 and per-aspect squared norms
    |a_ck|^2 come from ``node_terms`` too. A read-only model (every trained
    or loaded one) computes those node terms on its first such call and
    reuses them; a writable one recomputes them on every call, with the same
    expressions as a gather does, so both give the same bits, and so does a
    call with explicit ``np.arange(node_count)`` rows. Only where the
    candidate rows come from differs; everything after is one computation.

    With the slot weight s (1 for the source, attn * kappa for an event)
    and pi_w (1 for the source, the event's pi), the weight of slot n's
    aspect-k term in the mixture is w[n, k] = pi_u[k] * pi_w[n, k] * s[n],
    and expanding the squared aspect distance inside the sum over k gives

        lam[c] = sum_n f_nc[n, c] * g[n, c],
        g[n, c] = sum_k w[n, k] |a_nk|^2 + (w @ S^T)[n, c] - 2 (W_a @ A^T)[n, c],

    where S (C, K) holds the candidates' per-aspect squared norms, A
    (C, K*m) their aspect embeddings and row n of W_a (L+1, K*m) stacks
    w[n, k] a_nk over k. So each row takes two batched products over the
    K*m columns, and no (K, L+1, C) array is built. ``f_nc`` keeps its
    einsum: that gives a node's distance to itself as exactly zero, so the
    expanded aspect distance of a slot to its own node, which rounds to a
    tiny value of either sign, is multiplied by an exact 0 and the sign cap
    below holds.

    Every squared distance, from a slot (source or history event) to a
    candidate or to a context, is in Gram form, |a - b|^2 = |a|^2 + |b|^2 -
    2 a.b: the cross terms are matrix products over the embedding dimension,
    so no (B, L+1, C, K, m) or (B, L+1, K, m) difference array is built, and
    each squared norm is computed once. The identity cross term toward
    candidates is an einsum that sums in the order of its norms, so a slot's
    distance to itself as a candidate is exactly zero. The source's
    slot-to-context logits are a row-local einsum of its own identity and
    contexts, so they round alike whatever the batch's padded length; the
    history slots' are one product over the batch, whose rounding can
    depend on it. With C == 0 (the aspect read-out) the candidate terms and
    the attention are skipped, and so are the history slots: only the
    source's identity is gathered, ``i_n``, ``pi``, ``fg_n``, ``theta_n``
    and ``tau_n`` hold the source slot only, and no candidate block is
    gathered (``ic``, ``ac`` and ``ac_sq`` are None). The source's weights
    are still those of a call with candidates, bit for bit.

    A row's contexts ``ctx`` (K, m) blend half and half the decayed mean of
    its window's aspect embeddings, sum_l kappa_l a_lk / n over its n
    events, with its source's own aspects a_uk: 0.5 * (mean + a_uk),
    computed in place on the product; halving is exact, so this equals
    0.5 * mean + 0.5 * a_uk bit for bit. A row with an empty window takes
    its own aspects alone, and when no row has history (L == 0) no
    decay-mean product, division or blend runs at all.

    Padded history slots carry kappa == 0, which zeroes their contribution to
    the intensities and to every gradient path that reaches node arrays.

    Every ``lam_k`` and ``lam`` is <= 0: each term is an identity similarity
    f_nc = -|i - c|^2 <= 0 times a squared aspect distance >= 0, and the
    weights (1 for the source, pi * attn * kappa for an event) and the
    mixture's pi are >= 0. So sigmoid(lam) <= 1/2, and each positive in the
    training loss -log sigmoid(lam_pos) costs at least ln 2.
    """
    hyper = params.hyper
    m, k = hyper.dim, hyper.n_aspects
    ident, aspect = params.identity, params.aspect
    u = np.asarray(u, dtype=np.int64)
    ids, mask = hist.ids, hist.mask
    b, lmax = ids.shape
    lens = mask.sum(axis=1)
    lens_safe = np.maximum(lens, 1.0)

    nodes_n = np.concatenate([u[:, None], ids], axis=1)              # (B, L+1)
    a_n = aspect[nodes_n]                                            # (B, L+1, K, m)
    au, ah = a_n[:, 0], a_n[:, 1:]
    ic = ac = ac_sq = None
    if cand is None:  # every node: the table and its kept terms, not copies
        c = params.node_count
        ident_c, ic_sq, ac_sq = params.node_terms()
        ic = np.broadcast_to(ident_c, (b, c, m))                     # (B, C, m)
        ac = np.broadcast_to(aspect, (b, c, k, m))                   # (B, C, K, m)
        ac_sq = np.broadcast_to(ac_sq, (b, c, k))                    # (B, C, K)
    else:
        cand = np.asarray(cand, dtype=np.int64)
        c = cand.shape[1]
        if c:  # the read-out (C == 0) has no candidate block to gather
            ic, ac = ident[cand], aspect[cand]
            ic_sq = np.einsum("bcm,bcm->bc", ic, ic)[:, None]        # (B, 1, C)
            ac_sq = np.einsum("bckm,bckm->bck", ac, ac)
    # the read-out (C == 0) reads the source's identity only
    i_n = ident[nodes_n] if c else ident[u][:, None]                 # (B, L+1 or 1, m)
    iu, ih = i_n[:, 0], i_n[:, 1:]

    delta_u = softplus(params.rho[u])
    kappa = np.exp(-delta_u[:, None] * hist.dt) * mask               # (B, L)

    # attention over history events: it weights only the events' terms
    # toward candidates, so the read-out (C == 0) skips it
    attn = z = wu = wh = None
    if c and hyper.use_attention and lmax > 0:
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
    elif c:
        attn = mask.copy()

    # contexts: decayed history mean blended half and half with the source's
    # own aspects, in place on the product; its own aspects alone for an
    # empty window (+ 0.0 gives +0.0 for a -0.0 entry, as 0 * mean + au does)
    w_ex = np.where(lens > 0, 0.5, 0.0)
    w_self = np.where(lens > 0, 0.5, 1.0)
    if lmax > 0:
        ctx = (kappa[:, None, :] @ ah.reshape(b, lmax, k * m)).reshape(b, k, m)
        ctx /= lens_safe[:, None, None]
        ctx += au
        ctx *= 0.5                                                   # (B, K, m)
        empty = lens == 0
        if empty.any():
            ctx[empty] = au[empty] + 0.0
    else:
        ctx = au + 0.0

    # aspect distributions for the source (slot 0) and each history event,
    # from f_n = -|i_n - ctx_k|^2 in Gram form. The source's logits are a
    # row-local einsum, so they do not depend on the batch's padded L and
    # the read-out's equal those of a call with candidates; the history
    # slots' are one product over the batch, taken only with candidates.
    i_sq = np.einsum("bnm,bnm->bn", i_n, i_n)                        # (B, L+1 or 1)
    f_n = i_n @ ctx.transpose(0, 2, 1) if c else np.empty((b, 1, k))
    np.einsum("bm,bkm->bk", iu, ctx, out=f_n[:, 0])                  # the source's own row
    f_n *= 2.0
    f_n -= i_sq[:, :, None]
    f_n -= np.einsum("bkm,bkm->bk", ctx, ctx)[:, None]               # (B, L+1 or 1, K)
    if not c:
        nodes_n = nodes_n[:, :1]
        g = None if g is None else g[:, :1]
    if hyper.use_gumbel:
        fg_n = f_n if g is None else f_n + g
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

    # The mixture: each slot adds its identity similarity to the candidate
    # times the w-weighted sum of its aspect distances to it, expanded (see
    # the docstring); w[b, n, k] weights slot n's aspect-k term.
    f_nc = a_sq = w = wa = g = None
    if not c:
        mu, lam = np.zeros((b, 0)), np.zeros((b, 0))
    else:
        f_nc = 2.0 * np.einsum("bnm,bcm->bnc", i_n, ic)
        f_nc -= i_sq[:, :, None]
        f_nc -= ic_sq                                                    # (B, L+1, C)
        mu = f_nc[:, 0]
        w = pi.copy()
        w[:, 0] = 1.0
        w[:, 1:] *= (attn * kappa)[:, :, None]
        w *= pi_u[:, None, :]                                            # (B, L+1, K)
        a_sq = np.einsum("bnkm,bnkm->bnk", a_n, a_n)                     # (B, L+1, K)
        wa = ((-2.0 * w)[:, :, :, None] * a_n).reshape(b, lmax + 1, k * m)
        g = wa @ ac.reshape(b, c, k * m).transpose(0, 2, 1)              # (B, L+1, C)
        g += w @ ac_sq.transpose(0, 2, 1)
        g += np.einsum("bnk,bnk->bn", w, a_sq)[:, :, None]
        lam = np.einsum("bnc,bnc->bc", f_nc, g)                          # (B, C)

    return Forward(
        pi, lam, ctx, attn, kappa, mu,
        i_n, a_n, ic, ac, z, wu, wh, lens_safe, w_ex, w_self,
        fg_n, theta_n, tau_n, f_nc, a_sq, ac_sq, w, wa, g,
    )


@dataclass
class Queries:
    """B link queries, the arguments of ``forward``: sources ``u`` (B,),
    candidate targets ``cand`` (B, C), padded ``hist``, and fixed Gumbel noise
    ``g`` (B, L+1, K), slot 0 the source's, or None for none."""

    u: np.ndarray
    cand: np.ndarray
    hist: Histories
    g: Optional[np.ndarray] = None

    def with_target(self, v: int) -> "Queries":
        """This one-row query with ``v`` as its only candidate."""
        return replace(self, cand=np.array([[v]], dtype=np.int64))

    def take(self, rows) -> "Queries":
        """Rows ``rows`` of these queries, in that order, with their histories
        padded only to the longest window among them."""
        hist = self.hist
        length = int(hist.mask[rows].sum(axis=1).max(initial=0))
        cut = Histories(hist.ids[rows, :length], hist.dt[rows, :length], hist.mask[rows, :length])
        g = None if self.g is None else self.g[rows, : length + 1]
        return Queries(self.u[rows], self.cand[rows], cut, g)

    @staticmethod
    def stack(rows) -> "Queries":
        """The one-row queries ``rows`` as one batch, in order. Windows are
        padded to the widest with zero ids, dt and mask, and a row without
        noise gets zero noise; with no noise in any row, ``g`` is None."""
        b = len(rows)
        widths = [row.hist.ids.shape[1] for row in rows]
        lmax = max(widths, default=0)
        ids = np.zeros((b, lmax), dtype=np.int64)
        dt, mask = np.zeros((b, lmax)), np.zeros((b, lmax))
        for i, (row, n) in enumerate(zip(rows, widths)):
            ids[i, :n], dt[i, :n], mask[i, :n] = row.hist.ids[0], row.hist.dt[0], row.hist.mask[0]
        u = np.concatenate([row.u for row in rows])
        cand = np.concatenate([row.cand for row in rows])
        noisy = [i for i, row in enumerate(rows) if row.g is not None]
        if not noisy:
            return Queries(u, cand, Histories(ids, dt, mask))
        g = np.zeros((b, lmax + 1, rows[noisy[0]].g.shape[2]))
        for i in noisy:
            g[i, : widths[i] + 1] = rows[i].g[0]
        return Queries(u, cand, Histories(ids, dt, mask), g)


def build_context(params: ModelParams, u: int, v: int, t: float, history) -> Queries:
    """The one-row query of u toward v at time t, with deterministic aspect
    weights. ``history`` is a sequence of (neighbor, time) events before t;
    raises ValueError if one comes after t.
    """
    nbr = np.array([h for h, _ in history], dtype=np.int64)
    ev_time = np.array([th for _, th in history], dtype=np.float64)
    hist = window_histories([t], nbr, ev_time, [0], [len(nbr)])
    if np.any(hist.dt < 0):
        raise ValueError("history events must not come after the query time")
    return Queries(np.array([u], dtype=np.int64), np.array([[v]], dtype=np.int64), hist)


def candidate_scores(params: ModelParams, query: Queries, targets) -> np.ndarray:
    """Raw mixed intensities of a one-row query's source toward every target."""
    cand = np.asarray(targets, dtype=np.int64)[None, :]
    return forward(params, query.u, query.hist, cand, query.g).lam[0]


def mixed_intensity(params: ModelParams, query: Queries) -> float:
    """Raw mixed score of a one-row query toward its candidate; exp() of it is
    a relative target score at the query's time."""
    return float(candidate_scores(params, query, query.cand[0])[0])
