import math
import re
from dataclasses import replace

import numpy as np
import pytest

from hawkmix import (
    HyperParams,
    ModelParams,
    NegativeSampler,
    NeighborEvent,
    PlantedSpec,
    Queries,
    TemporalEdge,
    TrainingDiverged,
    batch_gradients,
    batch_loss,
    generate,
    history,
    init_params,
    load_params,
    make_sample,
    sample_negatives,
    train,
)
from hawkmix import training as training_mod
from hawkmix.params import node_fields

from oracle import ref_node_shared_noise, ref_sample_loss
from util import (
    Sample, as_query, assert_read_only, fd_max_rel_error, grad_fields, gumbel, random_params,
    random_sample, spy_forward,
)


def loss_alone(p, sample):
    """The loss of a raw ``Sample`` scored alone."""
    return float(batch_loss(p, [as_query(sample)])[0])


def grads_alone(p, sample):
    """The gradients of a raw ``Sample`` scored alone."""
    return batch_gradients(p, [as_query(sample)])[1]


def zero_lambda_sample(n_neg=1):
    rng = np.random.default_rng(0)
    p = random_params(rng, n_nodes=5, m=3, k=2, n_negatives=n_neg, use_gumbel=False)
    p.identity[:] = 0.0
    p.aspect[:] = 0.0
    sample = Sample(
        TemporalEdge(0, 1, 0.9),
        [NeighborEvent(2, 0.4)],
        np.array([3] * n_neg),
        None,
    )
    return p, sample


def test_loss_all_zero_intensities():
    p, sample = zero_lambda_sample(n_neg=1)
    assert loss_alone(p, sample) == pytest.approx(2 * math.log(2), abs=1e-12)


def test_loss_scales_with_negative_count():
    p, sample = zero_lambda_sample(n_neg=4)
    assert loss_alone(p, sample) == pytest.approx(5 * math.log(2), abs=1e-12)


def test_loss_separation_limit():
    # distant negatives contribute nothing; the positive term floors at ln 2
    rng = np.random.default_rng(1)
    p = random_params(rng, n_nodes=5, m=3, k=2, n_negatives=1, use_gumbel=False)
    p.identity[:] = 0.0
    p.aspect[:] = 0.0
    p.identity[3] = 40.0
    p.aspect[3] = 40.0
    sample = Sample(TemporalEdge(0, 1, 0.9), [], np.array([3]), None)
    assert loss_alone(p, sample) == pytest.approx(math.log(2), abs=1e-9)


def test_loss_stable_for_extreme_intensities():
    # |lambda| far beyond 700 must not overflow the log-sigmoid identity
    rng = np.random.default_rng(2)
    p = random_params(rng, n_nodes=5, m=3, k=2, n_negatives=1, use_gumbel=False)
    p.identity[:] = 0.0
    p.aspect[:] = 0.0
    p.identity[1] = 100.0
    p.aspect[1] = 100.0
    sample = Sample(TemporalEdge(0, 1, 0.9), [], np.array([3]), None)
    loss = loss_alone(p, sample)
    assert np.isfinite(loss)
    # lambda_pos = mu * gamma = -(3*100^2)^2; -log sig(x) ~ |x|; the negative
    # candidate contributes exactly ln 2 (all-zero embeddings)
    dist = 3 * 100.0**2
    assert loss == pytest.approx(dist * dist + math.log(2), rel=1e-12)


def test_loss_raises_on_nonfinite():
    p, sample = zero_lambda_sample()
    p.identity[0, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        loss_alone(p, sample)
    with pytest.raises(ValueError, match="non-finite"):
        batch_gradients(p, [as_query(sample)])


def test_loss_matches_reference_oracle():
    rng = np.random.default_rng(3)
    for trial in range(20):
        p = random_params(
            rng,
            use_attention=trial % 2 == 0,
            use_gumbel=trial % 3 != 0,
            k=1 + trial % 3,
        )
        s = random_sample(rng, p, n_hist=trial % 4)
        assert loss_alone(p, s) == pytest.approx(ref_sample_loss(p, s), abs=1e-12)


def test_scalar_and_batched_loss_agree():
    """A sample's loss is the same alone and padded into a mixed-length batch."""
    rng = np.random.default_rng(4)
    for trial in range(20):
        p = random_params(rng, use_attention=trial % 2 == 0, use_gumbel=trial % 2 == 1)
        s = random_sample(rng, p, n_hist=trial % 4)
        assert batch_loss(p, [as_query(s)])[0] == pytest.approx(ref_sample_loss(p, s), abs=1e-12)
    p = random_params(rng, n_nodes=12, n_negatives=3)
    samples = [random_sample(rng, p, n_hist=n) for n in (0, 1, 3, 3, 2)]
    ref = [ref_sample_loss(p, s) for s in samples]
    alone = [loss_alone(p, s) for s in samples]
    rows = [as_query(s) for s in samples]
    assert np.allclose(batch_loss(p, rows), ref, atol=1e-12, rtol=0)
    assert np.allclose(batch_loss(p, rows), alone, atol=1e-12, rtol=0)


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(5)
    cases = [
        dict(use_attention=True, use_gumbel=True, n_hist=3),
        dict(use_attention=True, use_gumbel=True, n_hist=0),
        dict(use_attention=False, use_gumbel=True, n_hist=2),
        dict(use_attention=True, use_gumbel=False, n_hist=2),
        dict(use_attention=False, use_gumbel=False, n_hist=1),
        dict(use_attention=True, use_gumbel=True, n_hist=1),
    ]
    for case in cases:
        for _ in range(2):
            p = random_params(
                rng, use_attention=case["use_attention"], use_gumbel=case["use_gumbel"]
            )
            s = random_sample(rng, p, n_hist=case["n_hist"])
            err = fd_max_rel_error(p, as_query(s))
            assert err < 1e-4, f"{case}: rel err {err}"


def test_gradients_match_finite_differences_target_in_history():
    """The positive target is also a history node and a negative repeats
    another, so those pair distances are exactly zero in difference form."""
    rng = np.random.default_rng(6)
    for use_attention, use_gumbel in [(True, True), (False, True), (True, False), (False, False)]:
        p = random_params(rng, use_attention=use_attention, use_gumbel=use_gumbel)
        hist = [NeighborEvent(3, 0.2), NeighborEvent(1, 0.5), NeighborEvent(5, 0.7)]
        noise = None
        if use_gumbel:
            noise = {n: rng.gumbel(size=p.hyper.n_aspects) for n in (0, 1, 3, 5)}
        s = Sample(TemporalEdge(0, 1, 0.9), hist, np.array([5, 6]), noise)
        err = fd_max_rel_error(p, as_query(s))
        assert err < 1e-4, f"attention={use_attention}, gumbel={use_gumbel}: rel err {err}"


def test_batch_gradients_raise_on_nonfinite_gradient():
    """A finite forward whose backward is not finite raises ValueError: a
    temperature of ~1e-164 squares to 0, and the one-hot aspect weights give
    a 0/0 temperature gradient."""
    rng = np.random.default_rng(12)
    p = random_params(rng)
    s = random_sample(rng, p, n_hist=2)
    p.theta[0] = -378.0
    assert np.isfinite(loss_alone(p, s))
    with pytest.raises(ValueError, match="non-finite gradient"):
        batch_gradients(p, [as_query(s)])


def test_gradient_additivity_over_negatives():
    """Duplicated negative node: its gradient is exactly twice the single-copy one."""
    rng = np.random.default_rng(7)
    p = random_params(rng, n_negatives=2, use_gumbel=False)
    hist = [NeighborEvent(5, 0.2), NeighborEvent(6, 0.6)]
    s_aa = Sample(TemporalEdge(0, 1, 0.9), hist, np.array([4, 4]), None)
    p1 = ModelParams(replace(p.hyper, n_negatives=1), p.table.copy(), p.attn_w.copy(),
                     p.attn_a.copy())
    s_a = Sample(TemporalEdge(0, 1, 0.9), hist, np.array([4]), None)
    g_aa = grads_alone(p, s_aa)
    g_a = grads_alone(p1, s_a)
    # the pos-edge part of d/dI_4 is zero (4 is not u, v, or history), so the
    # whole row is the negative-candidate contribution and must double exactly
    r_aa, r_a = list(g_aa.nodes).index(4), list(g_a.nodes).index(4)
    (di_aa, da_aa, _, _), (di_a, da_a, _, _) = grad_fields(g_aa), grad_fields(g_a)
    assert np.allclose(di_aa[r_aa], 2 * di_a[r_a], atol=1e-12)
    assert np.allclose(da_aa[r_aa], 2 * da_a[r_a], atol=1e-12)


def test_gradient_locality():
    rng = np.random.default_rng(8)
    p = random_params(rng, n_nodes=10)
    s = random_sample(rng, p, n_hist=2)
    gs = grads_alone(p, s)
    involved = {0, 1} | {h for h, _ in s.history} | set(int(x) for x in s.negatives)
    assert gs.touched() == involved
    assert all(len(d) == len(involved) for d in grad_fields(gs))
    for w in range(10):
        if w not in involved:
            assert w not in gs.nodes


def test_gradient_replay_is_deterministic():
    rng = np.random.default_rng(9)
    p = random_params(rng)
    s = random_sample(rng, p, n_hist=3)
    a = grads_alone(p, s)
    b = grads_alone(p, s)
    assert np.array_equal(a.nodes, b.nodes)
    assert np.array_equal(grad_fields(a)[0], grad_fields(b)[0])
    assert np.array_equal(a.d_attn_w, b.d_attn_w)


def test_batch_gradient_equals_mean_of_samples():
    rng = np.random.default_rng(10)
    p = random_params(rng, n_nodes=12, n_negatives=3)
    samples = [random_sample(rng, p, n_hist=n) for n in (0, 1, 3, 3, 2)]
    mean_loss, gbatch = batch_gradients(p, [as_query(s) for s in samples])
    singles = [grads_alone(p, s) for s in samples]
    losses = [loss_alone(p, s) for s in samples]
    assert mean_loss == pytest.approx(np.mean(losses), abs=1e-12)
    b = len(samples)
    rows = [dict(zip(g.nodes.tolist(), range(len(g.nodes)))) for g in (gbatch, *singles)]
    ident, aspect, rho = ([grad_fields(g)[i] for g in (gbatch, *singles)] for i in range(3))
    for node, row in rows[0].items():
        expect = sum(d[r[node]] for d, r in zip(ident[1:], rows[1:]) if node in r) / b
        assert np.allclose(ident[0][row], expect, atol=1e-12)
        expect_a = sum(d[r[node]] for d, r in zip(aspect[1:], rows[1:]) if node in r) / b
        assert np.allclose(aspect[0][row], expect_a, atol=1e-12)
    expect_w = sum(g.d_attn_w for g in singles) / b
    assert np.allclose(gbatch.d_attn_w, expect_w, atol=1e-12)
    expect_rho = {}
    for g, d_rho in zip(singles, rho[1:]):
        for node, val in zip(g.nodes.tolist(), d_rho):
            expect_rho[node] = expect_rho.get(node, 0.0) + val / b
    for node, val in expect_rho.items():
        assert rho[0][rows[0][node]] == pytest.approx(val, abs=1e-12)


def tiny_net(seed=0):
    spec = PlantedSpec(2, 6, 1.0, 0.3, 1.0, 8.0, 0.1)
    net, _ = generate(spec, np.random.default_rng(seed))
    return net


def test_train_zero_epochs_returns_init():
    net = tiny_net()
    hyper = HyperParams(n_aspects=2, dim=4, epochs=0, batch_size=8, seed=5)
    params = train(net, hyper)
    ref = init_params(hyper, net.node_count, np.random.default_rng(5))
    assert np.array_equal(params.identity, ref.identity)
    assert np.array_equal(params.aspect, ref.aspect)


@pytest.mark.parametrize("epochs", [0, 1])
def test_train_returns_a_read_only_model(epochs):
    hyper = HyperParams(n_aspects=2, dim=4, epochs=epochs, batch_size=8, seed=5)
    assert_read_only(train(tiny_net(), hyper))


def test_train_deterministic_given_seed():
    net = tiny_net()
    hyper = HyperParams(n_aspects=2, dim=4, epochs=2, batch_size=8, seed=5)
    a = train(net, hyper)
    b = train(net, hyper)
    assert np.array_equal(a.identity, b.identity)
    assert np.array_equal(a.aspect, b.aspect)
    assert np.array_equal(a.rho, b.rho)
    assert np.array_equal(a.attn_w, b.attn_w)


def test_train_emits_epoch_callbacks():
    net = tiny_net()
    hyper = HyperParams(n_aspects=2, dim=4, epochs=3, batch_size=8, seed=5)
    rows = []
    train(net, hyper, on_epoch=lambda e, l, w: rows.append((e, l, w)))
    assert [r[0] for r in rows] == [0, 1, 2]
    assert all(np.isfinite(r[1]) for r in rows)
    assert all(r[2] >= 0 for r in rows)


def test_checkpoints_match_unbroken_runs(tmp_path):
    """Every second epoch of four writes a checkpoint: the parameters of an
    unbroken run of that many epochs, bit for bit."""
    net = tiny_net()
    hyper = HyperParams(n_aspects=2, dim=4, epochs=4, batch_size=8, seed=5)
    final = train(net, hyper, checkpoint_every=2, checkpoint_dir=tmp_path)
    names = ["checkpoint_epoch0002.bin", "checkpoint_epoch0004.bin"]
    assert sorted(p.name for p in tmp_path.iterdir()) == names
    expected = [train(net, replace(hyper, epochs=2)), final]
    for name, expect in zip(names, expected):
        got = load_params(tmp_path / name)
        for field in ("table", "attn_w", "attn_a"):
            assert getattr(got, field).tobytes() == getattr(expect, field).tobytes(), (name, field)


@pytest.mark.parametrize("every", [0, -1])
def test_train_rejects_checkpoint_every_below_one(tmp_path, every):
    hyper = HyperParams(n_aspects=2, dim=4, epochs=2, batch_size=8, seed=5)
    with pytest.raises(ValueError, match=f"checkpoint_every must be >= 1, not {every}"):
        train(tiny_net(), hyper, checkpoint_every=every, checkpoint_dir=tmp_path)
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("every", [2.5, True])
def test_train_rejects_checkpoint_every_that_is_not_an_integer(tmp_path, every):
    """A fractional interval would save only where an epoch count happens to
    be a multiple of it, and a bool is not a count: both are errors before
    training."""
    hyper = HyperParams(n_aspects=2, dim=4, epochs=5, batch_size=8, seed=5)
    with pytest.raises(ValueError, match=f"checkpoint_every must be an integer, not {every}"):
        train(tiny_net(), hyper, checkpoint_every=every, checkpoint_dir=tmp_path)
    assert not list(tmp_path.iterdir())


def test_train_rejects_checkpoint_every_without_a_directory():
    """A checkpoint interval with nowhere to write would save nothing: it is
    an error before the first epoch, as an interval below one is."""
    hyper = HyperParams(n_aspects=2, dim=4, epochs=2, batch_size=8, seed=5)
    epochs = []
    with pytest.raises(ValueError, match="checkpoint_every needs a checkpoint_dir"):
        train(tiny_net(), hyper, on_epoch=lambda e, l, w: epochs.append(e), checkpoint_every=1)
    assert epochs == []


def test_train_loss_decreases_on_planted_net():
    """Median loss drop over 5 seeds on a 20-node planted network >= 30%."""
    spec = PlantedSpec(2, 10, 1.0, 0.3, 1.0, 20.0, 0.05)
    drops = []
    for seed in range(5):
        net, _ = generate(spec, np.random.default_rng(200 + seed))
        hyper = HyperParams(
            n_aspects=2, history_len=5, dim=8, n_negatives=5,
            batch_size=50, epochs=20, lr=0.003, seed=seed,
        )
        losses = []
        train(net, hyper, on_epoch=lambda e, l, w: losses.append(l))
        drops.append(1.0 - losses[-1] / losses[0])
    assert np.median(drops) >= 0.30


def test_train_updates_touch_only_batch_nodes():
    net = tiny_net()
    hyper = HyperParams(n_aspects=2, dim=4, epochs=1, batch_size=4, seed=5)
    # single tiny batch via batch_size >= edge count would touch many nodes;
    # instead check directly: after one manual Adam step, untouched rows
    # keep their init values
    params = init_params(hyper, net.node_count, np.random.default_rng(hyper.seed))
    sampler = NegativeSampler(net, seed=0)
    edge = TemporalEdge(int(net.sources[0]), int(net.targets[0]), float(net.times[0]))
    sample = make_sample(net, sampler, edge, hyper, np.random.default_rng(1))
    before = params.identity.copy()
    batch = Queries.stack([sample])
    fwd, _ = training_mod._forward_loss(params, batch)
    compact = training_mod._backward(params, [batch], [fwd])
    adam = training_mod._LazyAdam(params, hyper.lr)
    adam.step(params, compact, update_attention=True)
    touched = set(int(x) for x in compact.nodes)
    for node in range(net.node_count):
        if node not in touched:
            assert np.array_equal(params.identity[node], before[node])


def test_batch_rows_with_and_without_noise_match_single_samples():
    """Rows with and without Gumbel noise batch together exactly as each
    sample scores alone, with histories of three events and with empty ones;
    a batch with no noise in any row carries none, and scores exactly as
    with zero noise. Each batch keeps one history length: padding a row to a
    longer window can move the last bits of its aspect-weight matmul."""
    rng = np.random.default_rng(11)
    p = random_params(rng)
    full = [random_sample(rng, p), random_sample(rng, p, with_noise=False)]
    empty = [random_sample(rng, p, n_hist=0), random_sample(rng, p, n_hist=0, with_noise=False)]
    for samples in (full, empty):
        rows = [as_query(s) for s in samples]
        assert batch_loss(p, rows).tolist() == [loss_alone(p, s) for s in samples]
        batch = Queries.stack(rows)
        assert batch.g[0, 0].any() and not batch.g[1].any()
    quiet = [as_query(full[1]), as_query(empty[1])]
    batch = Queries.stack(quiet)
    assert batch.g is None
    k = p.hyper.n_aspects
    zero = [replace(q, g=np.zeros((1, q.hist.ids.shape[1] + 1, k))) for q in quiet]
    assert Queries.stack(zero).g is not None
    assert batch_loss(p, quiet).tobytes() == batch_loss(p, zero).tobytes()


def test_training_diverged_detector(monkeypatch):
    net = tiny_net()
    hyper = HyperParams(n_aspects=2, dim=4, epochs=1, batch_size=8, seed=5)

    forward_loss = training_mod._forward_loss

    def bad_forward_loss(params, batch):
        fwd, losses = forward_loss(params, batch)
        return fwd, losses * np.inf

    monkeypatch.setattr(training_mod, "_forward_loss", bad_forward_loss)
    with pytest.raises(TrainingDiverged, match="epoch 0, batch 0"):
        train(net, hyper)


def test_training_diverges_at_huge_learning_rate():
    """A blow-up ends in TrainingDiverged naming epoch, batch and source nodes."""
    net = tiny_net()
    hyper = HyperParams(n_aspects=2, dim=4, epochs=5, batch_size=8, seed=5, lr=100)
    with pytest.raises(TrainingDiverged) as info:
        train(net, hyper)
    msg = str(info.value)
    assert re.search(r"epoch \d+, batch \d+: non-finite", msg)
    nodes = [int(x) for x in re.search(r"source nodes \[([\d, ]+)\]", msg).group(1).split(",")]
    assert nodes and all(0 <= x < net.node_count for x in nodes)


def test_nonfinite_gradient_stops_before_the_update(monkeypatch):
    """A backward that yields a non-finite gradient ends the run before the
    Adam step, naming its batch and the nodes whose gradient rows blew up."""
    net = tiny_net()
    hyper = HyperParams(n_aspects=2, dim=4, epochs=5, batch_size=8, seed=5, lr=100)
    n_batches = -(-net.n_edges // hyper.batch_size)
    backward, step = training_mod._backward, training_mod._LazyAdam.step
    bad_rows = []

    def spy_backward(params, batch, fwd):
        g = backward(params, batch, fwd)
        d_ident, d_aspect, d_rho, d_theta = grad_fields(g)
        ok = (
            np.isfinite(d_ident).all(axis=1) & np.isfinite(d_aspect).all(axis=(1, 2))
            & np.isfinite(d_rho) & np.isfinite(d_theta)
        )
        bad_rows.append(g.nodes[~ok].tolist())
        return g

    def spy_step(self, params, grads, update_attention):
        for arr in (*grad_fields(grads), grads.d_attn_w, grads.d_attn_a):
            assert np.isfinite(arr).all()
        return step(self, params, grads, update_attention)

    monkeypatch.setattr(training_mod, "_backward", spy_backward)
    monkeypatch.setattr(training_mod._LazyAdam, "step", spy_step)
    with pytest.raises(TrainingDiverged) as info:
        train(net, hyper)
    assert bad_rows[-1] and not any(bad_rows[:-1])
    epoch, n_batch = divmod(len(bad_rows) - 1, n_batches)
    assert str(info.value).startswith(
        f"epoch {epoch}, batch {n_batch}: non-finite gradient at nodes {bad_rows[-1]}"
    )


def mixed_batch(rng, p, lens, n_free=None):
    """A stacked batch of rows with windows of ``lens`` events over nodes
    ``0..n_free-1`` (default: every node), drawn at random for every role, so
    that nodes repeat across sources, candidates and histories; each with
    Gumbel noise."""
    n_free = p.node_count if n_free is None else n_free
    k = p.hyper.n_aspects
    samples = []
    for n_hist in lens:
        u, v = (int(x) for x in rng.integers(0, n_free, size=2))
        hist_nodes = rng.integers(0, n_free, size=n_hist)
        hist_times = np.sort(rng.uniform(0, 0.9, size=n_hist))
        hist = [NeighborEvent(int(h), float(t)) for h, t in zip(hist_nodes, hist_times)]
        noise = {int(node): gumbel(rng, k) for node in [u, *hist_nodes]}
        negs = rng.integers(0, n_free, size=p.hyper.n_negatives)
        samples.append(as_query(Sample(TemporalEdge(u, v, 0.9), hist, negs, noise)))
    return Queries.stack(samples)


def test_backward_scatter_is_a_batch_order_segment_sum(monkeypatch):
    """With nodes repeated across the source, candidate and history roles and
    padded history slots present, the staged rows are the sources', the
    candidates' and the real history slots', in batch order, and the
    GradientSet sums them onto sorted unique nodes as np.add.at does, bit
    for bit."""
    rng = np.random.default_rng(23)
    p = random_params(rng, n_nodes=7, history_len=4)
    batch = mixed_batch(rng, p, [0, 4, 2, 0, 1, 3, 4, 2])
    valid = batch.hist.mask.reshape(-1) > 0
    roles = (batch.u, batch.cand.reshape(-1), batch.hist.ids.reshape(-1)[valid])
    assert not valid.all()
    assert set.intersection(*(set(ids.tolist()) for ids in roles))

    staged = []
    scatter = training_mod._scatter

    def spy_scatter(ids, rows, node_count):
        staged.append((ids.copy(), rows.copy()))
        return scatter(ids, rows, node_count)

    monkeypatch.setattr(training_mod, "_scatter", spy_scatter)
    fwd, _ = training_mod._forward_loss(p, batch)
    grads = training_mod._backward(p, [batch], [fwd])
    [(ids, rows)] = staged
    assert ids.tolist() == np.concatenate(roles).tolist()
    nodes = np.unique(ids)
    assert grads.nodes.tolist() == nodes.tolist()
    expect = np.zeros((len(nodes), p.hyper.row_width))
    np.add.at(expect, np.searchsorted(nodes, ids), rows)
    assert grads.rows.tobytes() == expect.tobytes()


@pytest.mark.parametrize("node_count", [40, 2**16 + 9])
def test_scatter_is_add_at_bitwise(node_count):
    """``_scatter`` against ``np.add.at`` onto zeros, byte for byte: nodes
    with up to 60 rows, rows holding -0.0 (a lone -0.0 sums to +0.0), and
    ids above 2**16, which sort in a wider key type."""
    rng = np.random.default_rng(41)
    hot = rng.choice(node_count, size=6, replace=False)
    ids = np.concatenate([
        rng.integers(0, node_count, size=200), np.repeat(hot, [60, 51, 17, 3, 2, 1]),
        [node_count - 1, 0, 0],
    ])
    rng.shuffle(ids)
    rows = rng.standard_normal((len(ids), 5)) * 10.0 ** rng.integers(-6, 7, size=(len(ids), 5))
    rows[rng.random(rows.shape) < 0.3] = -0.0
    rows[ids == node_count - 1] = -0.0
    nodes, sums = training_mod._scatter(ids, rows, node_count)
    expect_nodes = np.unique(ids)
    expect = np.zeros((len(expect_nodes), 5))
    np.add.at(expect, np.searchsorted(expect_nodes, ids), rows)
    assert np.bincount(ids).max() >= 60 and ids.max() == node_count - 1
    assert not np.signbit(expect[-1]).any() and np.signbit(rows[ids == 0]).any()
    assert nodes.tolist() == expect_nodes.tolist()
    assert sums.tobytes() == expect.tobytes()


def split_batch(seed, n_free=None):
    """Params and a batch of 40 rows, 30 of them history-less, with windows of
    up to 4 events: 30 * 4 > 40, so ``_step`` runs it in two parts."""
    rng = np.random.default_rng(seed)
    p = random_params(rng, n_nodes=12, history_len=4)
    lens = np.array([0] * 30 + [4, 1, 2, 3, 4] * 2)
    rng.shuffle(lens)
    batch = mixed_batch(rng, p, lens, n_free)
    return p, batch


def test_split_batch_matches_the_whole_padded_batch(monkeypatch):
    """``batch_gradients``' step runs the history-less rows at L = 0 and the
    rest at their own longest window, and matches the forward and backward
    of the whole padded batch: losses in row order and the mean gradients
    within 1e-12 of each array's largest entry."""
    p, batch = split_batch(31)
    empty, rest = training_mod._row_groups(batch)
    assert len(empty) == 30 and (batch.hist.mask[empty] == 0).all()
    assert (batch.hist.mask[rest, 0] == 1).all()
    fwd, whole_losses = training_mod._forward_loss(p, batch)
    whole = training_mod._backward(p, [batch], [fwd])
    whole.scale(1.0 / len(whole_losses))

    calls = spy_forward(monkeypatch, training_mod)
    losses, grads, norm = training_mod._step(p, batch, "batch")
    assert [(len(u), hist.ids.shape[1]) for u, hist, _, _ in calls] == [(30, 0), (10, 4)]
    assert np.abs(losses - whole_losses).max() <= 1e-12 * np.abs(whole_losses).max()
    assert norm == pytest.approx(whole.global_norm(), rel=1e-12)
    assert grads.nodes.tolist() == whole.nodes.tolist()
    for name in ("rows", "d_attn_w", "d_attn_a"):
        got, expect = getattr(grads, name), getattr(whole, name)
        assert np.abs(got - expect).max() <= 1e-12 * np.abs(expect).max(), name


@pytest.mark.parametrize("history_less", [True, False])
def test_split_batch_divergence_names_epoch_batch_and_nodes(history_less):
    """A non-finite row in either part of a split batch raises
    TrainingDiverged naming the step's epoch and batch and the row's source."""
    p, batch = split_batch(37, n_free=11)
    row = training_mod._row_groups(batch)[0 if history_less else 1][3]
    batch.u[row] = 11                      # the only row that touches node 11
    p.identity[11] = np.nan
    with pytest.raises(TrainingDiverged, match=re.escape(
        "epoch 3, batch 7: non-finite intensity or loss for source nodes [11]"
    )):
        training_mod._step(p, batch, "epoch 3, batch 7")


def test_make_sample_contents():
    net = tiny_net()
    hyper = HyperParams(n_aspects=2, dim=4, history_len=3, n_negatives=4, seed=0)
    sampler = NegativeSampler(net, seed=0)
    idx = net.n_edges - 1
    edge = TemporalEdge(int(net.sources[idx]), int(net.targets[idx]), float(net.times[idx]))
    s = make_sample(net, sampler, edge, hyper, np.random.default_rng(2))
    window = history(net, edge.source, edge.time, 3)
    assert s.u.tolist() == [edge.source]
    assert s.cand.shape == (1, 5) and s.cand[0, 0] == edge.target
    assert s.hist.ids[0].tolist() == [h for h, _ in window]
    assert len(window) <= 3 and np.all(s.hist.mask == 1.0) and np.all(s.hist.dt > 0)
    assert s.g.shape == (1, 1 + len(window), 2)
    blocked = set(net.neighbors(edge.source).tolist()) | {edge.source, edge.target}
    assert all(int(w) not in blocked for w in s.cand[0, 1:])


def test_make_sample_shares_noise_per_node_after_the_negatives():
    """On a window that repeats a node, the noise is the oracle's node-shared
    draw of the uniforms that ``rng`` gives after the negatives, byte for
    byte; an edge with an unknown source or a non-finite time raises
    ValueError."""
    net = tiny_net()
    hyper = HyperParams(n_aspects=3, dim=4, history_len=5, n_negatives=4, seed=0)
    for i in range(net.n_edges):
        edge = TemporalEdge(int(net.sources[i]), int(net.targets[i]), float(net.times[i]))
        nodes = [edge.source] + [h for h, _ in history(net, edge.source, edge.time, 5)]
        if len(set(nodes[1:])) < len(nodes) - 1:
            break
    else:
        pytest.fail("no window repeats a node")
    s = make_sample(net, NegativeSampler(net), edge, hyper, np.random.default_rng(3))
    rng = np.random.default_rng(3)
    negs = sample_negatives(NegativeSampler(net), net, edge.source, edge.target, 4, rng)
    draws = gumbel(rng, (1, len(nodes), 3))
    want = ref_node_shared_noise([nodes], [[True] * len(nodes)], draws.tolist())
    assert s.cand[0, 1:].tolist() == negs.tolist()
    assert s.g.tobytes() == np.array(want).tobytes()
    for bad in (TemporalEdge(net.node_count, 0, 0.5), TemporalEdge(0, 1, float("nan"))):
        with pytest.raises(ValueError):
            make_sample(net, NegativeSampler(net), bad, hyper, np.random.default_rng(3))


def reference_lazy_adam(params, steps, lr):
    """Per-array lazy Adam, one fancy-indexed update per array: the formula
    the fused row-table step must reproduce bitwise. ``steps`` is a list of
    (GradientSet, update_attention); returns the final arrays and moments."""
    names = ("identity", "aspect", "rho", "theta", "attn_w", "attn_a")
    arrays = {name: getattr(params, name).copy() for name in names}
    m = {name: np.zeros_like(arr) for name, arr in arrays.items()}
    v = {name: np.zeros_like(arr) for name, arr in arrays.items()}
    b1, b2, eps = training_mod.ADAM_BETA1, training_mod.ADAM_BETA2, training_mod.ADAM_EPS
    for t, (grads, update_attention) in enumerate(steps, start=1):
        bc1, bc2 = 1.0 - b1**t, 1.0 - b2**t
        for name, g in zip(names[:4], grad_fields(grads)):
            rows, mn, vn = grads.nodes, m[name], v[name]
            mn[rows] += (1.0 - b1) * (g - mn[rows])
            vn[rows] += (1.0 - b2) * (g**2 - vn[rows])
            arrays[name][rows] -= lr * (mn[rows] / bc1) / (np.sqrt(vn[rows] / bc2) + eps)
        if update_attention:
            for name in names[4:]:
                g, mn, vn = getattr(grads, "d_" + name), m[name], v[name]
                mn += (1.0 - b1) * (g - mn)
                vn += (1.0 - b2) * (g**2 - vn)
                arrays[name] -= lr * (mn / bc1) / (np.sqrt(vn / bc2) + eps)
    return arrays, m, v


def test_fused_lazy_adam_matches_the_per_array_reference_bitwise():
    """Random touched rows over enough nodes for several blocks of rows per
    step, with and without the attention update."""
    rng = np.random.default_rng(17)
    n, m, k, lr = 3000, 8, 3, 0.01
    p = random_params(rng, n_nodes=n, m=m, k=k)
    start = {name: getattr(p, name).copy() for name in ("identity", "aspect", "rho", "theta")}
    steps = []
    for update_attention in (True, False, True, True, False):
        nodes = np.sort(rng.choice(n, size=int(rng.integers(1, 2500)), replace=False))
        rows = rng.normal(0, rng.choice([1e-6, 1.0, 30.0]), (len(nodes), m + k * m + 2))
        grads = training_mod.GradientSet(
            nodes, rows, rng.normal(size=(m, m)), rng.normal(size=2 * m)
        )
        steps.append((grads, update_attention))
    expect, exp_m, exp_v = reference_lazy_adam(p, steps, lr)
    adam = training_mod._LazyAdam(p, lr)
    for grads, update_attention in steps:
        adam.step(p, grads, update_attention)
    for name, arr in expect.items():
        assert getattr(p, name).tobytes() == arr.tobytes(), name
    moments = {"m": (adam.m_nodes, adam.m_attn, exp_m), "v": (adam.v_nodes, adam.v_attn, exp_v)}
    for which, (nodes_table, attn, ref) in moments.items():
        fields = dict(zip(("identity", "aspect", "rho", "theta"), node_fields(nodes_table, m)))
        fields.update(attn_w=attn[0], attn_a=attn[1])
        for name, arr in fields.items():
            assert arr.tobytes() == ref[name].tobytes(), (which, name)
    untouched = np.setdiff1d(np.arange(n), np.concatenate([g.nodes for g, _ in steps]))
    assert len(untouched) and np.array_equal(p.identity[untouched], start["identity"][untouched])


@pytest.mark.parametrize("m, k", [(8, 3), (64, 8)])
@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_lazy_adam_matches_the_reference_at_block_boundaries(m, k, extra):
    """Touched-row counts of one Adam block, one row either side of it, and
    of two blocks likewise, in the narrow layout (34 values a row) and a
    wide one (dim 64, K 8: 578 values a row, 14 rows a block)."""
    rng = np.random.default_rng(23 + m + extra)
    width = m + k * m + 2
    block = 2**13 // width
    assert (width, block) in {(34, 240), (578, 14)}
    n = 3 * block + 2
    p = random_params(rng, n_nodes=n, m=m, k=k)
    steps = []
    for count, update_attention in ((block + extra, True), (2 * block + extra, False)):
        nodes = np.sort(rng.choice(n, size=count, replace=False))
        grads = training_mod.GradientSet(
            nodes, rng.normal(size=(count, width)), rng.normal(size=(m, m)), rng.normal(size=2 * m)
        )
        steps.append((grads, update_attention))
    expect, exp_m, exp_v = reference_lazy_adam(p, steps, 0.01)
    adam = training_mod._LazyAdam(p, 0.01)
    for grads, update_attention in steps:
        adam.step(p, grads, update_attention)
    for name, arr in expect.items():
        assert getattr(p, name).tobytes() == arr.tobytes(), name
    for table, ref in ((adam.m_nodes, exp_m), (adam.v_nodes, exp_v)):
        for name, arr in zip(("identity", "aspect", "rho", "theta"), node_fields(table, m)):
            assert arr.tobytes() == ref[name].tobytes(), name
