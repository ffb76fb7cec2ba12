"""The connection-rate model: one batched forward pass.

The raw rate of a source node u linking to a target v mixes per-aspect
intensities: each aspect combines a base term (identity similarity scaled by
aspect-embedding spread) with excitation from u's recent neighbors, weighted
by graph attention, their own aspect activeness, and an exponential time
decay. Aspect weights come from a temperature-scaled softmax over context
similarities, optionally perturbed with fixed Gumbel noise during training.

``forward`` evaluates the model for a batch of queries (source, padded
history, candidate targets) and is the only implementation of it: training,
the loss, recommendation, aspect read-out and the CLI all call it, with the
history windows that the network owns (``TemporalNetwork.histories``).
Candidates ``None`` mean every node, in id order, for each query: then the
candidate embeddings are the node table's blocks rather than gathered
copies, their squared norms come from ``ModelParams.node_terms`` (computed
once per read-only model), and only the mixed intensity is computed, which
is how recommendation scores a whole network per query.
``Queries`` holds its arguments; ``assemble`` builds them from per-row event
and Gumbel lists. ``build_context`` builds a one-row ``Queries``, and
``candidate_scores`` and ``mixed_intensity`` score one; only the benchmark and
the tests call these three. Everything here is pure in (params, inputs).

Every squared distance in ``forward`` is in Gram form, |a|^2 + |b|^2 - 2 a.b,
so no array of differences over the embedding dimension is built. With no
candidates (the aspect read-out) ``forward`` computes only the contexts and
the aspect weights: attention weights just the history terms toward
candidates, so it is skipped too. On every node the squared aspect distance
is expanded inside the mixture's sum over aspects, so no per-aspect
(K, L+1, C) array is built; its ``lam`` differs from that of explicit
candidates in the last bits only.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .params import ModelParams, softplus
from .temporal_graph import Histories, window_histories

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
class Forward:
    """Outputs of ``forward`` and the intermediates its backward reuses.

    A query's node slots are its source (slot 0) and its L history events
    (slots 1..L). The outputs are ``pi`` (B, L+1, K) aspect weights of every
    slot, ``lam_k`` (B, C, K) raw per-aspect intensities and ``lam`` (B, C)
    their pi-weighted mixture; apply exp() for a positive rate per unit time.
    ``ctx`` (B, K, m) holds the contexts, ``attn`` and ``kappa`` (B, L) the
    attention weights and kernel values, ``mu`` (B, C) the identity
    similarity of source and candidate. ``ic`` and ``ac`` hold the
    candidates' identity and aspect embeddings: gathered copies for explicit
    candidates, and read-only views of the identity block of
    ``params.node_terms()`` and of the table's aspect block, broadcast over
    the B rows, when ``forward`` is called with ``cand=None`` (C == node
    count).
    With ``cand=None`` only the mixture ``lam`` is computed: ``lam_k``,
    ``gam``, ``w_nc`` and ``pi_w`` are None, so such a result cannot feed the
    backward pass. With no candidates (C == 0) the candidate terms and the
    attention are skipped: ``lam_k``, ``lam`` and ``mu`` are empty, and
    ``attn``, ``z``, ``wu``, ``wh``, ``f_nc``, ``gam``, ``w_nc`` and ``pi_w``
    are None. Attention never feeds ``pi`` or ``ctx``, so both are the same
    with or without candidates.
    """

    pi: np.ndarray
    lam_k: Optional[np.ndarray]
    lam: np.ndarray
    ctx: np.ndarray
    attn: Optional[np.ndarray]
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

    ``cand=None`` means every node, in id order, for each of the B rows
    (C == node count): the candidate blocks are then the contiguous identity
    block of ``params.node_terms()`` and a view of ``params.aspect`` instead
    of copies, the candidates' |i_c|^2 and per-aspect squared norms S come
    from ``node_terms`` too, and only the mixture is computed. A read-only
    model (every trained or loaded one) computes those node terms on its
    first such call and reuses them; a writable one recomputes them on
    every call, with the same expressions, so both give the same bits.

    With the slot weight s (1 for the source, attn * kappa for an event)
    and pi_w (1 for the source, the event's pi), the weight of slot n's
    aspect-k term in the mixture is W[n, k] = pi_u[k] * pi_w[n, k] * s[n],
    and expanding gam inside the sum over k gives

        lam[c] = sum_n f_nc[n, c] * (sum_k W[n, k] |a_nk|^2
                                    + (S @ W^T)[c, n] - 2 (A @ Z)[c, n]),

    where S (C, K) holds every node's per-aspect squared norms, A (C, K*m)
    is the table's aspect block and column n of Z (K*m, L+1) stacks W[n, k]
    a_nk over k. So two products over the table replace the (K, L+1, C)
    chain; ``pi``, ``mu`` and ``ctx`` are bitwise those of explicit
    ``np.arange(node_count)`` rows, and ``lam`` agrees with theirs up to the
    order of its sums. ``f_nc`` keeps its einsum even here: that gives a
    node's distance to itself as exactly zero, so the expanded aspect
    distance of a slot to its own node, which rounds to a tiny value of
    either sign, is multiplied by an exact 0 and the sign cap below holds.

    Every squared distance, from a slot (source or history event) to a
    candidate or to a context, is in Gram form, |a - b|^2 = |a|^2 + |b|^2 -
    2 a.b: the cross terms are matrix products over the embedding dimension,
    so no (B, L+1, C, K, m) or (B, L+1, K, m) difference array is built, and
    each squared norm is computed once. The identity cross term toward
    candidates is an einsum that sums in the order of its norms, so a slot's
    distance to itself as a candidate is exactly zero. With C == 0 (the
    aspect read-out) the candidate terms and the attention are skipped.

    Padded history slots carry kappa == 0, which zeroes their contribution to
    the intensities and to every gradient path that reaches node arrays.

    Every ``lam_k`` and ``lam`` is <= 0: each term is an identity similarity
    f_nc = -|i - c|^2 <= 0 times a squared aspect distance gam >= 0, and the
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
    i_n = ident[nodes_n]                                             # (B, L+1, m)
    a_n = aspect[nodes_n]                                            # (B, L+1, K, m)
    iu, ih = i_n[:, 0], i_n[:, 1:]
    au, ah = a_n[:, 0], a_n[:, 1:]
    if cand is None:  # every node: the table and its norms, not copies
        c = params.node_count
        ident_c, ic_sq, aspect_sq = params.node_terms()
        ic = np.broadcast_to(ident_c, (b, c, m))                     # (B, C, m)
        ac = np.broadcast_to(aspect, (b, c, k, m))                   # (B, C, K, m)
    else:
        cand = np.asarray(cand, dtype=np.int64)
        c = cand.shape[1]
        ic = ident[cand]
        ac = aspect[cand]
        ic_sq = np.einsum("bcm,bcm->bc", ic, ic)[:, None] if c else None  # (B, 1, C)

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

    # contexts: decayed history mean blended with the source's own aspects
    hsum = (kappa[:, None, :] @ ah.reshape(b, lmax, k * m)).reshape(b, k, m)
    havg = hsum / lens_safe[:, None, None]
    w_ex = np.where(lens > 0, 0.5, 0.0)
    w_self = np.where(lens > 0, 0.5, 1.0)
    ctx = w_ex[:, None, None] * havg + w_self[:, None, None] * au    # (B, K, m)

    # aspect distributions for the source (row 0) and each history event,
    # from f_n = -|i_n - ctx_k|^2 in Gram form
    i_sq = np.einsum("bnm,bnm->bn", i_n, i_n)                        # (B, L+1)
    f_n = 2.0 * (i_n @ ctx.transpose(0, 2, 1))
    f_n -= i_sq[:, :, None]
    f_n -= np.einsum("bkm,bkm->bk", ctx, ctx)[:, None]               # (B, L+1, K)
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
    f_nc = gam = w_nc = pi_w = None
    if not c:
        mu, lam, lam_k = np.zeros((b, 0)), np.zeros((b, 0)), np.zeros((b, 0, k))
    else:
        f_nc = 2.0 * np.einsum("bnm,bcm->bnc", i_n, ic)
        f_nc -= i_sq[:, :, None]
        f_nc -= ic_sq                                                    # (B, L+1, C)
        mu = f_nc[:, 0]
        slot_w = np.concatenate([np.ones((b, 1)), attn * kappa], axis=1)  # (B, L+1)
    if c and cand is None:
        # every node: the mixture alone, from the expanded aspect distance
        # (see the docstring); W[b, n, k] weights slot n's aspect-k term
        w = pi.copy()
        w[:, 0] = 1.0
        w *= pi_u[:, None, :] * slot_w[:, :, None]                       # (B, L+1, K)
        rows = b * (lmax + 1)
        z_n = ((-2.0 * w)[:, :, :, None] * a_n).reshape(rows, k * m)
        g = z_n @ aspect.reshape(c, k * m).T                             # (B(L+1), C)
        g += w.reshape(rows, k) @ aspect_sq.T
        g += np.einsum("bnk,bnkm,bnkm->bn", w, a_n, a_n).reshape(rows, 1)
        lam = np.einsum("bnc,bnc->bc", f_nc, g.reshape(b, lmax + 1, c))  # (B, C)
        lam_k = None
    elif c:
        gam = (
            np.einsum("bnkm,bnkm->bkn", a_n, a_n)[:, :, :, None]
            + np.einsum("bckm,bckm->bkc", ac, ac)[:, :, None]
        )
        gam -= 2.0 * (a_n.transpose(0, 2, 1, 3) @ ac.transpose(0, 2, 3, 1))  # (B, K, L+1, C)
        w_nc = f_nc * slot_w[:, :, None]
        pi_w = pi.transpose(0, 2, 1).copy()
        pi_w[:, :, 0] = 1.0                                              # (B, K, L+1)
        lam_k = np.einsum("bkn,bknc->bck", pi_w, gam * w_nc[:, None])    # (B, C, K)
        lam = np.einsum("bck,bk->bc", lam_k, pi_u)                       # (B, C)

    return Forward(
        pi, lam_k, lam, ctx, attn, kappa, mu,
        i_n, a_n, ic, ac, z, wu, wh, lens_safe, w_ex, w_self,
        fg_n, theta_n, tau_n, f_nc, gam, w_nc, pi_w,
    )


@dataclass
class Queries:
    """B link queries, the arguments of ``forward``: sources ``u`` (B,),
    candidate targets ``cand`` (B, C), padded ``hist``, and fixed Gumbel noise
    ``g_u`` (B, K) and ``g_h`` (B, L, K), or None for none."""

    u: np.ndarray
    cand: np.ndarray
    hist: Histories
    g_u: Optional[np.ndarray] = None
    g_h: Optional[np.ndarray] = None

    def with_target(self, v: int) -> "Queries":
        """This one-row query with ``v`` as its only candidate."""
        return replace(self, cand=np.array([[v]], dtype=np.int64))


def assemble(k: int, u, cand, t, histories, noises) -> Queries:
    """Queries from per-row lists: ``histories[i]`` holds the (neighbor, time)
    events of row i before ``t[i]``, and ``noises[i]`` maps each node of the
    row (its source and history nodes) to a (K,) Gumbel draw, or is None for
    zero noise. With no noise in any row, ``g_u`` and ``g_h`` are None.
    Raises ValueError if a history event comes after its row's query time.
    """
    u = np.asarray(u, dtype=np.int64)
    cand = np.asarray(cand, dtype=np.int64)
    lens = np.array([len(ev) for ev in histories], dtype=np.int64)
    stop = np.cumsum(lens)
    events = [e for ev in histories for e in ev]
    nbr = np.array([h for h, _ in events], dtype=np.int64)
    ev_time = np.array([th for _, th in events], dtype=np.float64)
    hist = window_histories(t, nbr, ev_time, stop - lens, stop)
    if np.any(hist.dt < 0):
        raise ValueError("history events must not come after the query time")
    if all(noise is None for noise in noises):
        return Queries(u, cand, hist)
    b, lmax = hist.ids.shape
    g_u, g_h = np.zeros((b, k)), np.zeros((b, lmax, k))
    lens = hist.mask.sum(axis=1).astype(np.int64).tolist()
    rows = zip(noises, u.tolist(), hist.ids.tolist(), lens)
    for i, (noise, src, ids, n) in enumerate(rows):
        if noise is None:
            continue
        g_u[i] = noise[src]
        for j in range(n):
            g_h[i, j] = noise[ids[j]]
    return Queries(u, cand, hist, g_u, g_h)


def build_context(params: ModelParams, u: int, v: int, t: float, history, noise=None) -> Queries:
    """The one-row query of u toward v at time t.

    ``history`` is a sequence of (neighbor, time) events before t. ``noise``
    replays per-node Gumbel vectors for u and each history node; without it
    the aspect weights are deterministic.
    """
    return assemble(params.hyper.n_aspects, [u], [[v]], [t], [history], [noise])


def candidate_scores(params: ModelParams, query: Queries, targets) -> np.ndarray:
    """Raw mixed intensities of a one-row query's source toward every target."""
    cand = np.asarray(targets, dtype=np.int64)[None, :]
    return forward(params, query.u, query.hist, cand, query.g_u, query.g_h).lam[0]


def mixed_intensity(params: ModelParams, query: Queries) -> float:
    """Raw mixed rate of a one-row query toward its candidate; apply exp() for a rate."""
    return float(candidate_scores(params, query, query.cand[0])[0])
