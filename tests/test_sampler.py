"""The training batch sampler: counter-based draws, CSR histories, negatives
and node-shared Gumbel noise."""

from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import kstest

from hawkmix import (
    HyperParams,
    NegativeSampler,
    PlantedSpec,
    generate,
    history,
    network_from_edges,
)
from hawkmix import training as training_mod
from hawkmix.temporal_graph import fill_negatives
from hawkmix.training import EdgeStreams, philox4x32

from oracle import ref_node_shared_noise

SPEC = PlantedSpec(2, 10, 1.0, 0.3, 1.0, 10.0, 0.1)
HYPER = HyperParams(n_aspects=3, history_len=4, dim=4, n_negatives=5, seed=11)
NETS = [(directed, coarse) for directed in (True, False) for coarse in (False, True)]


def planted(directed, coarse=False):
    """A planted net; ``coarse`` floors the times so that many events tie."""
    _, truth = generate(SPEC, np.random.default_rng(4))
    times = np.floor(truth.times * 4) if coarse else truth.times
    return network_from_edges(
        list(range(SPEC.node_count)), truth.sources, truth.targets, times, directed=directed
    )


def rows(batch):
    """Each row's draws with the padding trimmed: (u, candidates, history ids,
    history dt, noise of the source and of each history slot)."""
    out = []
    for i, n in enumerate(batch.hist.mask.sum(axis=1).astype(int)):
        out.append((
            int(batch.u[i]), batch.cand[i].tolist(), batch.hist.ids[i, :n].tolist(),
            batch.hist.dt[i, :n].tolist(), batch.g[i, : n + 1].tolist(),
        ))
    return out


def test_philox_known_answers():
    """Philox4x32-10 against the Random123 known-answer vectors."""
    cases = [
        ((0, 0, 0, 0), (0, 0), (0x6627E8D5, 0xE169C58D, 0xBC57AC4C, 0x9B00DBD8)),
        ((0xFFFFFFFF,) * 4, (0xFFFFFFFF,) * 2, (0x408F276D, 0x41C83B0E, 0xA20BC7C6, 0x6D5451FD)),
        ((0x243F6A88, 0x85A308D3, 0x13198A2E, 0x03707344), (0xA4093822, 0x299F31D0),
         (0xD16CFE09, 0x94FDCCEB, 0x5001E420, 0x24126EA1)),
    ]
    for counter, key, expect in cases:
        assert tuple(int(w) for w in philox4x32(counter, key)) == expect


def test_edge_streams_are_uniform_and_addressed_by_column():
    stream = EdgeStreams(seed=3, epoch=2)
    edges = np.arange(5000)
    u = stream.uniforms(edges, 0, 20)
    assert u.shape == (5000, 20) and u.min() > 0.0 and u.max() < 1.0
    assert kstest(u.ravel(), "uniform").pvalue > 0.01
    # any column range reads the same columns; rows do not depend on each other
    assert np.array_equal(stream.uniforms(edges, 3, 7), u[:, 3:10])
    assert np.array_equal(stream.uniforms(edges[[7, 2]], 0, 20), u[[7, 2]])
    # another epoch or seed is another stream
    assert not np.array_equal(EdgeStreams(3, 1).uniforms(edges, 0, 20), u)
    assert not np.array_equal(EdgeStreams(4, 2).uniforms(edges, 0, 20), u)


@pytest.mark.parametrize("directed,coarse", NETS)
def test_draws_do_not_depend_on_the_batch(directed, coarse):
    net = planted(directed, coarse)
    sampler = training_mod._BatchSampler(net, HYPER)
    idx = np.random.default_rng(0).permutation(net.n_edges)[:60]
    whole = rows(sampler.batch(1, idx))
    assert whole[:3] == sum((rows(sampler.batch(1, [i])) for i in idx[:3]), [])
    assert whole == sum((rows(sampler.batch(1, idx[s : s + 7])) for s in range(0, 60, 7)), [])
    assert rows(sampler.batch(2, idx)) != whole


@pytest.mark.parametrize("directed,coarse", NETS)
def test_rows_hold_the_history_and_allowed_negatives(directed, coarse):
    net = planted(directed, coarse)
    batch = training_mod._BatchSampler(net, HYPER).batch(0, np.arange(net.n_edges))
    for i, (u, cand, ids, dt, _) in enumerate(rows(batch)):
        t = float(net.times[i])
        h = history(net, u, t, HYPER.history_len)
        assert ids == [e.neighbor for e in h]
        assert dt == [t - e.time for e in h]
        assert cand[0] == int(net.targets[i])
        blocked = {u, cand[0]} | set(net.neighbors(u).tolist())
        assert len(cand) == 1 + HYPER.n_negatives
        assert not blocked & set(cand[1:])
    lens = batch.hist.mask.sum(axis=1).astype(int)
    padded = np.arange(batch.hist.ids.shape[1]) >= lens[:, None]
    assert np.all(batch.hist.ids[padded] == 0) and np.all(batch.hist.dt[padded] == 0)


@pytest.mark.parametrize("directed,coarse", NETS)
def test_gumbel_noise_is_shared_per_node_and_zero_when_padded(directed, coarse):
    net = planted(directed, coarse)
    batch = training_mod._BatchSampler(net, HYPER).batch(0, np.arange(net.n_edges))
    repeats = 0
    for i, (u, _, ids, _, noise) in enumerate(rows(batch)):
        nodes = [u] + ids
        for a in range(len(nodes)):
            for b in range(a):
                assert (noise[a] == noise[b]) == (nodes[a] == nodes[b])
                repeats += nodes[a] == nodes[b]
        assert np.all(batch.g[i, 1 + len(ids) :] == 0)
    assert repeats > 0  # the nets do repeat nodes within a row


def test_negatives_follow_the_degree_weights():
    """Node 0's only eligible negatives are x (degree 1) and y (degree 16),
    drawn 1:8 by degree^(3/4) over many epochs of its 16 edges."""
    helpers = list(range(3, 19))
    sources = [0] * 16 + [2] * 16 + [1]
    targets = helpers + helpers + [3]
    net = network_from_edges(
        list(range(19)), sources, targets, np.arange(33.0), directed=True, normalize=False
    )
    sampler = training_mod._BatchSampler(net, HYPER)
    from_0 = np.flatnonzero(net.sources == 0)
    negs = np.concatenate([sampler.batch(e, from_0).cand[:, 1:].ravel() for e in range(400)])
    assert set(np.unique(negs)) == {1, 2}
    assert np.mean(negs == 1) == pytest.approx(1.0 / 9.0, abs=0.01)


def test_too_dense_graph_hits_the_rejection_cap():
    net = network_from_edges(
        [0, 1, 2], [0, 0, 1], [1, 2, 2], [0.0, 1.0, 2.0], directed=True, normalize=False
    )
    sampler = training_mod._BatchSampler(net, HYPER)
    with pytest.raises(RuntimeError, match="smaller"):
        sampler.batch(0, [0])


def test_negatives_do_not_depend_on_round_sizes():
    net = planted(True, coarse=True)
    sampler, stream = NegativeSampler(net), EdgeStreams(seed=1, epoch=0)
    idx = np.arange(net.n_edges)

    def draw(extra):
        return lambda rows, start, size: sampler.nodes(
            stream.uniforms(idx[rows], start, size + extra)
        )

    exact = fill_negatives(net, net.sources, net.targets, 5, draw(0))
    assert np.array_equal(fill_negatives(net, net.sources, net.targets, 5, draw(7)), exact)


@pytest.mark.parametrize("directed,coarse", NETS)
def test_batch_reads_noise_then_negatives_from_the_stream_columns(directed, coarse):
    """The column layout of an edge's stream: the Gumbel noise of the L+1
    slots at columns [0, (L+1)*K), the negatives' rejection rounds from
    (L+1)*K on, the same with the noise switched off."""
    net = planted(directed, coarse)
    idx = np.random.default_rng(1).permutation(net.n_edges)[:80]
    batch = training_mod._BatchSampler(net, HYPER).batch(3, idx)
    stream, k = EdgeStreams(HYPER.seed, 3), HYPER.n_aspects
    slots = batch.hist.ids.shape[1] + 1
    draws = -np.log(-np.log(stream.uniforms(idx, 0, slots * k)))
    g = np.array(ref_node_shared_noise(
        np.column_stack([batch.u, batch.hist.ids]).tolist(),
        np.column_stack([np.ones(len(idx)), batch.hist.mask]).tolist(),
        draws.reshape(len(idx), slots, k).tolist(),
    ))
    assert np.array_equal(batch.g, g)
    n_noise, nodes = (HYPER.history_len + 1) * k, NegativeSampler(net).nodes
    negs = fill_negatives(
        net, batch.u, batch.cand[:, 0], HYPER.n_negatives,
        lambda rows, start, size: nodes(stream.uniforms(idx[rows], n_noise + start, size)),
    )
    assert np.array_equal(batch.cand[:, 1:], negs)
    plain = training_mod._BatchSampler(net, replace(HYPER, use_gumbel=False)).batch(3, idx)
    assert plain.g is None and np.array_equal(plain.cand, batch.cand)


@pytest.mark.parametrize("use_gumbel", [True, False])
@pytest.mark.parametrize("directed,coarse", NETS)
def test_train_cuts_batches_from_blocks_equal_to_per_batch_draws(
    directed, coarse, use_gumbel, monkeypatch
):
    """``train`` draws ``DRAW_BATCHES`` batches per sampler call and cuts
    each out with ``Queries.take``; every batch it steps on equals the
    sampler's draw of that batch alone, in every field and bit for bit,
    also in the partial last block and the partial last batch."""
    net = planted(directed, coarse)
    hyper = replace(HYPER, batch_size=7, epochs=2, use_gumbel=use_gumbel)
    tail = net.n_edges % (training_mod.DRAW_BATCHES * hyper.batch_size)
    assert tail and tail % hyper.batch_size    # both the last block and batch are partial
    seen = []
    step = training_mod._step

    def spy(params, batch, where):
        seen.append(batch)
        return step(params, batch, where)

    monkeypatch.setattr(training_mod, "_step", spy)
    training_mod.train(net, hyper)

    sampler = training_mod._BatchSampler(net, hyper)
    master = np.random.default_rng(hyper.seed)
    alone = []
    for epoch in range(hyper.epochs):
        order = master.permutation(net.n_edges)
        b = hyper.batch_size
        alone += [sampler.batch(epoch, order[s : s + b]) for s in range(0, net.n_edges, b)]
    assert len(seen) == len(alone)

    def fields(q):
        return (q.u, q.cand, q.hist.ids, q.hist.dt, q.hist.mask, q.g)

    for got, want in zip(seen, alone):
        for a, b in zip(fields(got), fields(want)):
            if b is None:
                assert a is None
            else:
                assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


@pytest.mark.parametrize("directed", [True, False])
def test_noise_of_padded_slots_is_positive_zero(directed):
    """A padded slot's noise is +0.0 and a real slot's noise is
    the oracle's node-shared noise of the stream's full noise columns, byte
    for byte."""
    net = planted(directed)
    idx = np.random.default_rng(2).permutation(net.n_edges)[:120]
    batch = training_mod._BatchSampler(net, HYPER).batch(5, idx)
    k, slots = HYPER.n_aspects, batch.hist.ids.shape[1] + 1
    real = np.column_stack([np.ones(len(idx)), batch.hist.mask]) > 0
    draws = -np.log(-np.log(EdgeStreams(HYPER.seed, 5).uniforms(idx, 0, slots * k)))
    want = np.array(ref_node_shared_noise(
        np.column_stack([batch.u, batch.hist.ids]).tolist(), real.tolist(),
        draws.reshape(len(idx), slots, k).tolist(),
    ))
    assert (~real).sum() > 0 and real[:, 1:].sum() > 0
    assert batch.g[real].tobytes() == want[real].tobytes()
    assert batch.g[~real].tobytes() == np.zeros(((~real).sum(), k)).tobytes()
