"""Independent straight-line reference computations.

Everything here is written with explicit Python loops over nested lists,
directly from the model definitions, on purpose: these functions are the
oracles the vectorized library code is checked against, so they must not
share any implementation with it.
"""

import math

LEAKY = 0.2


def softmax(xs):
    top = max(xs)
    exps = [math.exp(x - top) for x in xs]
    s = sum(exps)
    return [e / s for e in exps]


def ref_similarity(x, y):
    return -sum((a - b) ** 2 for a, b in zip(x, y))


def ref_attention(identity, attn_w, attn_a, u, hist_nodes):
    m = len(identity[0])
    scores = []
    wu = [sum(attn_w[i][j] * identity[u][j] for j in range(m)) for i in range(m)]
    for h in hist_nodes:
        wh = [sum(attn_w[i][j] * identity[h][j] for j in range(m)) for i in range(m)]
        z = sum(attn_a[i] * wu[i] for i in range(m))
        z += sum(attn_a[m + i] * wh[i] for i in range(m))
        scores.append(z if z >= 0 else LEAKY * z)
    return softmax(scores)


def ref_context(aspect, u, hist_nodes, dts, delta, k):
    m = len(aspect[0][0])
    if not hist_nodes:
        return list(aspect[u][k])
    acc = [0.0] * m
    for h, dt in zip(hist_nodes, dts):
        w = math.exp(-delta * dt)
        for i in range(m):
            acc[i] += w * aspect[h][k][i]
    return [0.5 * (acc[i] / len(hist_nodes) + aspect[u][k][i]) for i in range(m)]


def ref_pi(identity, contexts, n, tau, noise, use_gumbel):
    k = len(contexts)
    noise = noise if noise is not None else [0.0] * k
    if use_gumbel:
        logits = [
            (ref_similarity(identity[n], contexts[kk]) + noise[kk]) / tau
            for kk in range(k)
        ]
    else:
        logits = [ref_similarity(identity[n], contexts[kk]) for kk in range(k)]
    return softmax(logits)


def ref_aspect_intensity(identity, aspect, u, v, k, hist_nodes, dts, delta, attn, pis):
    mu = ref_similarity(identity[u], identity[v])
    gamma_u = -ref_similarity(aspect[u][k], aspect[v][k])
    total = mu * gamma_u
    for j, (h, dt) in enumerate(zip(hist_nodes, dts)):
        alpha = attn[j] * ref_similarity(identity[h], identity[v])
        gamma_h = -ref_similarity(aspect[h][k], aspect[v][k])
        total += pis[h][k] * alpha * gamma_h * math.exp(-delta * dt)
    return total


def ref_all(params, u, v, t, history, noise):
    """Full pipeline: (attn, contexts, pis, per-aspect lambdas, mixed lambda).

    ``params`` is a ModelParams; all arrays are converted to nested lists so
    every arithmetic step is scalar Python.
    """
    identity = params.identity.tolist()
    aspect = params.aspect.tolist()
    attn_w = params.attn_w.tolist()
    attn_a = params.attn_a.tolist()
    taus = params.temperature.tolist()
    delta = float(params.decay[u])
    n_aspects = params.hyper.n_aspects
    hist_nodes = [h for h, _ in history]
    dts = [t - th for _, th in history]

    if hist_nodes:
        if params.hyper.use_attention:
            attn = ref_attention(identity, attn_w, attn_a, u, hist_nodes)
        else:
            attn = [1.0] * len(hist_nodes)
    else:
        attn = []
    contexts = [
        ref_context(aspect, u, hist_nodes, dts, delta, k) for k in range(n_aspects)
    ]
    pis = {}
    for n in [u] + hist_nodes:
        if n in pis:
            continue
        g = None
        if noise is not None:
            g = list(noise[n])
        pis[n] = ref_pi(identity, contexts, n, taus[n], g, params.hyper.use_gumbel)
    lam_k = [
        ref_aspect_intensity(identity, aspect, u, v, k, hist_nodes, dts, delta, attn, pis)
        for k in range(n_aspects)
    ]
    lam = sum(pis[u][k] * lam_k[k] for k in range(n_aspects))
    return attn, contexts, pis, lam_k, lam


def ref_sample_loss(params, sample):
    """Independent evaluation of the negative-sampling objective."""
    u, v, t = sample.edge
    _, _, _, _, lam_pos = ref_all(params, u, v, t, sample.history, sample.gumbel)
    loss = math.log(1.0 + math.exp(-lam_pos))
    for w in sample.negatives:
        _, _, _, _, lam_neg = ref_all(params, u, int(w), t, sample.history, sample.gumbel)
        loss += math.log(1.0 + math.exp(lam_neg))
    return loss


def ref_node_shared_noise(nodes, real, draws):
    """Per-node Gumbel noise of rows of node slots, as nested lists.

    ``draws`` holds a (K,) draw for every slot. Within a row, a real slot
    whose node already appeared at an earlier real slot takes that first
    slot's draw, any other real slot its own; a padded slot (not ``real``)
    gets zeros.
    """
    out = []
    for row_nodes, row_real, row_draws in zip(nodes, real, draws):
        first = {}
        row = []
        for node, is_real, draw in zip(row_nodes, row_real, row_draws):
            if is_real:
                row.append(first.setdefault(node, list(draw)))
            else:
                row.append([0.0] * len(draw))
        out.append(row)
    return out


def ref_macro_f1(y_true, y_pred):
    """Confusion-matrix macro-F1, scalar arithmetic."""
    scores = []
    for cls in (0, 1):
        tp = sum(1 for yt, yp in zip(y_true, y_pred) if yp == cls and yt == cls)
        fp = sum(1 for yt, yp in zip(y_true, y_pred) if yp == cls and yt != cls)
        fn = sum(1 for yt, yp in zip(y_true, y_pred) if yp != cls and yt == cls)
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        scores.append(2 * prec * rec / (prec + rec) if prec + rec else 0.0)
    return sum(scores) / 2


def ref_auc(y_true, scores):
    """Quadratic-time pair counting with half-credit for ties."""
    pos = [s for yt, s in zip(y_true, scores) if yt == 1]
    neg = [s for yt, s in zip(y_true, scores) if yt == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


def ref_load_edge_list(path):
    """The edge-list parse, one line at a time: (labels, label_to_id,
    sources, targets, raw times) of the usable edges, or ValueError with the
    loader's message for the first bad line."""
    labels = []
    label_to_id = {}
    sources, targets, times = [], [], []

    def node_id(tok):
        nid = label_to_id.get(tok)
        if nid is None:
            nid = len(labels)
            label_to_id[tok] = nid
            labels.append(tok)
        return nid

    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 3:
                raise ValueError(
                    f"{path}:{lineno}: expected 'source target timestamp', got {len(parts)} fields"
                )
            try:
                t = float(parts[2])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: timestamp {parts[2]!r} is not a number") from None
            if not math.isfinite(t):
                raise ValueError(f"{path}:{lineno}: timestamp {parts[2]!r} is not finite")
            if parts[0] == parts[1]:
                continue  # self-loop
            sources.append(node_id(parts[0]))
            targets.append(node_id(parts[1]))
            times.append(t)
    if not times:
        raise ValueError(f"{path}: no usable edges (empty file or self-loops only)")
    return labels, label_to_id, sources, targets, times


def ref_mask_static_edges(sources, targets, n, directed, count, rng):
    """Masking by explicit pair lists: (indices of the kept edges, positives,
    negatives). Draws from ``rng`` one call at a time: a choice of the masked
    pairs, then two scalar integers per non-edge attempt."""
    def pair(a, b):
        return (a, b) if directed or a < b else (b, a)

    pairs = sorted({pair(a, b) for a, b in zip(sources, targets)})
    chosen = sorted(rng.choice(len(pairs), size=count, replace=False).tolist())
    positives = [pairs[i] for i in chosen]
    masked = set(positives)
    keep = [i for i, (a, b) in enumerate(zip(sources, targets)) if pair(a, b) not in masked]

    static = set(pairs)
    negatives = []
    budget = 1000 * count + 10000
    while len(negatives) < count:
        if budget <= 0:
            raise RuntimeError("could not find enough non-edges; graph too dense")
        budget -= 1
        a, b = int(rng.integers(0, n)), int(rng.integers(0, n))
        if a == b:
            continue
        p = pair(a, b)
        if p in static or p in negatives:
            continue
        negatives.append(p)
    return keep, positives, negatives
