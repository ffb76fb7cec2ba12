from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import ref_load_edge_list, ref_mask_static_edges

from hawkmix import (
    NegativeSampler,
    PlantedSpec,
    generate,
    history,
    load_edge_list,
    mask_static_edges,
    network_from_edges,
    sample_negatives,
)
from hawkmix import temporal_graph
from hawkmix.temporal_graph import EdgeListParseError


def write(tmp_path, text, name="edges.txt"):
    path = tmp_path / name
    path.write_text(text)
    return path


THREE_LINES = "a b 1\na c 2\nb c 3\n"


def test_load_directed_basics(tmp_path):
    net = load_edge_list(write(tmp_path, THREE_LINES), directed=True)
    assert net.node_count == 3
    assert net.n_edges == 3
    assert net.times.tolist() == [0.0, 0.5, 1.0]
    a = net.label_to_id["a"]
    assert len(net.events(a)[1]) == 2


def test_load_undirected_symmetric_insertion(tmp_path):
    net = load_edge_list(write(tmp_path, THREE_LINES), directed=False)
    for label in "abc":
        assert len(net.events(net.label_to_id[label])[1]) == 2


def test_undirected_both_endpoints_see_each_edge(tmp_path):
    net = load_edge_list(write(tmp_path, THREE_LINES), directed=False)
    for s, t, tt in zip(net.sources, net.targets, net.times):
        assert tt in net.events(s)[1] and tt in net.events(t)[1]
        assert t in net.events(s)[0] and s in net.events(t)[0]


def test_parse_error_names_line(tmp_path):
    path = write(tmp_path, "a b xyz\n")
    with pytest.raises(EdgeListParseError, match=":1:"):
        load_edge_list(path, directed=True)


def test_parse_error_field_count(tmp_path):
    path = write(tmp_path, "a b 1\na b\n")
    with pytest.raises(EdgeListParseError, match=":2:"):
        load_edge_list(path, directed=True)


def test_empty_file_errors(tmp_path):
    with pytest.raises(EdgeListParseError):
        load_edge_list(write(tmp_path, ""), directed=True)


def test_nonfinite_timestamp_errors(tmp_path):
    with pytest.raises(EdgeListParseError, match="finite"):
        load_edge_list(write(tmp_path, "a b inf\n"), directed=True)
    with pytest.raises(EdgeListParseError, match="finite"):
        load_edge_list(write(tmp_path, "a b nan\n"), directed=True)


def test_comments_and_blank_lines_ignored(tmp_path):
    net = load_edge_list(write(tmp_path, "# header\n\na b 1\n# mid\nb c 2\n"), directed=True)
    assert net.n_edges == 2


def test_self_loops_dropped(tmp_path):
    net = load_edge_list(write(tmp_path, "a a 1\na b 2\n"), directed=True)
    assert net.n_edges == 1


def test_duplicate_temporal_edges_kept(tmp_path):
    net = load_edge_list(write(tmp_path, "a b 1\na b 2\n"), directed=True)
    assert net.n_edges == 2
    assert net.static_edge_count == 1
    assert net.degrees.tolist() == [1, 1]


def test_constant_time_normalizes_to_zero(tmp_path):
    net = load_edge_list(write(tmp_path, "a b 5\nb c 5\n"), directed=True)
    assert net.times.tolist() == [0.0, 0.0]


def test_raw_time_range_kept_through_masking(tmp_path):
    text = "a b 1000\na c 2000\nb c 3000\nc d 1500\n"
    net = load_edge_list(write(tmp_path, text), directed=True)
    assert (net.tmin, net.tmax) == (1000.0, 3000.0)
    assert net.normalized_time(2500.0) == 0.75
    assert net.raw_time(net.times).tolist() == [1000.0, 1500.0, 2000.0, 3000.0]
    for count in (0, 1):
        train, _, _ = mask_static_edges(net, count, np.random.default_rng(0))
        assert (train.tmin, train.tmax) == (1000.0, 3000.0)
    const = load_edge_list(write(tmp_path, "a b 5\nb c 5\n", "c.txt"), directed=True)
    assert const.raw_time(const.times).tolist() == [5.0, 5.0]
    assert const.normalized_time(5.0) == 0.0


def test_tie_break_preserves_input_order(tmp_path):
    net = load_edge_list(write(tmp_path, "a b 1\na c 1\na d 2\n"), directed=True)
    a = net.label_to_id["a"]
    assert net.events(a)[0].tolist()[:2] == [net.label_to_id["b"], net.label_to_id["c"]]


@pytest.mark.parametrize("sources, targets, bad", [
    ([0, 1], [1, 5], 5),                   # past the last label: 3 labels, ids 0..2
    ([0, -1], [1, 2], -1),
    ([3, 0], [-2, 1], 3),                  # the first in edge order: source before target
])
def test_network_from_edges_rejects_ids_outside_the_labels(sources, targets, bad):
    for directed in (True, False):
        with pytest.raises(ValueError, match=rf"node id {bad} is outside \[0, 3\)"):
            network_from_edges([0, 1, 2], sources, targets, [0.0, 1.0], directed=directed)


@pytest.mark.parametrize("short, lengths", [
    ("sources", "1, 2 and 2"), ("targets", "2, 1 and 2"), ("times", "2, 2 and 1"),
])
def test_network_from_edges_rejects_arrays_of_different_lengths(short, lengths):
    """A short array would otherwise drop edges without a word (times) or
    fail inside numpy (sources, targets)."""
    arrays = {"sources": [0, 1], "targets": [1, 2], "times": [0.0, 1.0]}
    arrays[short] = arrays[short][:1]
    for directed in (True, False):
        with pytest.raises(ValueError, match=f"must be of one length; got {lengths}$"):
            network_from_edges([0, 1, 2], **arrays, directed=directed)


def simple_history_net():
    # node 0 interacts with 1, 2, 3 at raw times 0.1, 0.2, 0.3
    return network_from_edges(
        list(range(4)), [0, 0, 0], [1, 2, 3], [0.1, 0.2, 0.3],
        directed=True, normalize=False,
    )


def test_history_strict_cutoff():
    net = simple_history_net()
    ev = history(net, 0, 0.25, 5)
    assert [e.time for e in ev] == [0.1, 0.2]


def test_history_keeps_most_recent():
    net = simple_history_net()
    ev = history(net, 0, 0.25, 1)
    assert [e.time for e in ev] == [0.2]


def test_history_empty_before_first_event():
    net = simple_history_net()
    assert history(net, 0, 0.05, 5) == []


def test_history_excludes_exact_time():
    net = simple_history_net()
    assert [e.time for e in history(net, 0, 0.2, 5)] == [0.1]


def test_history_validates_arguments():
    net = simple_history_net()
    with pytest.raises(ValueError):
        history(net, 0, 0.5, 0)
    with pytest.raises(ValueError):
        history(net, 99, 0.5, 1)


@pytest.mark.parametrize("t", [float("nan"), float("inf"), float("-inf")])
def test_history_rejects_a_nonfinite_time(t):
    """NaN compares as later than every event, so it must not get this far."""
    with pytest.raises(ValueError, match=f"query time {t} is not finite"):
        history(simple_history_net(), 0, t, 5)


@settings(max_examples=60, deadline=None)
@given(
    times=st.lists(st.floats(0, 1, allow_nan=False), min_size=0, max_size=12),
    t=st.floats(0, 1.2, allow_nan=False),
    limit=st.integers(1, 6),
)
def test_history_property(times, t, limit):
    n_ev = len(times)
    targets = list(range(1, n_ev + 1))
    net = network_from_edges(
        list(range(n_ev + 1)), [0] * n_ev, targets, times, directed=True, normalize=False
    )
    got = history(net, 0, t, limit)
    before = sorted(tt for tt in times if tt < t)
    expect = before[-limit:]
    assert [e.time for e in got] == expect
    assert all(e.time < t for e in got)


def sampler_fixture():
    """Eligible nodes x (degree 1) and y (degree 16); everything else blocked.

    u = 0 is wired to all 16 helper nodes, so they are rejected as its static
    neighbors; x touches one helper, y touches all of them.
    """
    n_help = 16
    helpers = list(range(3, 3 + n_help))
    sources, targets = [], []
    for hnode in helpers:
        sources.append(0)
        targets.append(hnode)
        sources.append(2)  # y
        targets.append(hnode)
    sources.append(1)  # x
    targets.append(helpers[0])
    times = list(range(len(sources)))
    return network_from_edges(
        list(range(3 + n_help)), sources, targets, times, directed=True, normalize=False
    )


def test_sampler_probabilities_sum_to_one():
    net = sampler_fixture()
    s = NegativeSampler(net)
    assert abs(s.probs.sum() - 1.0) < 1e-12


def test_sampler_analytic_degree_weights():
    net = sampler_fixture()
    s = NegativeSampler(net)
    # 16^(3/4) = 8, so y carries 8x the mass of x
    assert s.probs[2] / s.probs[1] == pytest.approx(8.0, rel=1e-12)
    draws = sample_negatives(s, net, 0, net.node_count - 1, 30000, np.random.default_rng(5))
    freq_x = np.mean(draws == 1)
    assert freq_x == pytest.approx(1.0 / 9.0, abs=0.01)
    assert set(np.unique(draws)) == {1, 2}


def test_sampler_zero_degree_gets_zero_mass():
    net = network_from_edges([0, 1, 2], [0], [1], [0.0], directed=True, normalize=False)
    s = NegativeSampler(net)
    assert s.probs[2] == 0.0


def test_sampler_empirical_l1_at_1e6_draws():
    # 10-node toy with assorted degrees; unconditional table frequencies
    rng = np.random.default_rng(0)
    src, dst = [], []
    for i in range(1, 10):
        for j in range(i):
            src.append(i)
            dst.append(j)
    net = network_from_edges(
        list(range(10)), src, dst, list(range(len(src))), directed=False, normalize=False
    )
    s = NegativeSampler(net)
    draws = s.draw(1_000_000, rng)
    emp = np.bincount(draws, minlength=10) / 1e6
    assert np.abs(emp - s.probs).sum() <= 0.005


def test_sampler_single_eligible_node():
    # all mass-bearing nodes except one are u's neighbors
    net = network_from_edges(
        [0, 1, 2, 3], [0, 0, 1], [2, 3, 2], [0.0, 1.0, 2.0],
        directed=True, normalize=False,
    )
    s = NegativeSampler(net)
    # u=0, v=3: only node 1 is eligible (2, 3 are neighbors of 0)
    draws = sample_negatives(s, net, 0, 3, 50, np.random.default_rng(1))
    assert np.all(draws == 1)


def test_sampler_nodes_equal_a_plain_search():
    """``nodes`` looks the uniforms up in sorted order; the nodes are those
    of a plain ``searchsorted``, for uniforms equal to a ``cum`` entry too,
    where zero-degree nodes repeat the previous entry, and in any shape."""
    net = network_from_edges(
        list(range(8)), [0, 0, 3, 3, 6], [3, 6, 6, 0, 3], [0.0, 1.0, 2.0, 3.0, 4.0],
        directed=True, normalize=False,
    )
    s = NegativeSampler(net)
    assert (net.degrees == 0).sum() == 5 and len(np.unique(s.cum)) == 3
    inner = s.cum[s.cum < 1.0]  # the entries a uniform in [0, 1) can equal
    uniforms = np.concatenate([
        [0.0], inner, np.nextafter(inner, 0.0), np.nextafter(inner, 1.0),
        np.random.default_rng(3).random(381),
    ])
    uniforms = np.random.default_rng(4).permutation(uniforms)
    for u in (uniforms, uniforms.reshape(20, -1), uniforms.reshape(-1, 20)[:, 3:17]):
        got = s.nodes(u)
        expect = np.searchsorted(s.cum, u, side="right")
        assert got.dtype == expect.dtype and got.shape == expect.shape
        assert np.array_equal(got, expect)
    assert set(np.unique(s.nodes(uniforms)).tolist()) == {0, 3, 6}


@pytest.mark.parametrize("slots", [1, 4, 7, 1000])
def test_history_chunks_split_the_queries_by_window_length(slots):
    """The chunks hold every query once, each in a single window length with
    at most ``slots`` node slots (one query when even that is more), in
    their given order, and their histories are the rows of ``histories``."""
    _, truth = generate(PlantedSpec(2, 6, 1.0, 0.3, 1.0, 6.0, 0.1), np.random.default_rng(2))
    net = network_from_edges(list(range(12)), truth.sources, truth.targets, truth.times,
                             directed=True)
    rng = np.random.default_rng(5)
    u, t = rng.integers(0, 12, 300), rng.uniform(0, 1.1, 300)
    seen, lens = [], []
    for idx, hist in net.history_chunks(u, t, 3, slots):
        b, length = hist.ids.shape
        lens.append(length)
        assert np.all(hist.mask == 1.0)
        assert b * (length + 1) <= slots or b == 1
        assert np.all(np.diff(idx) > 0)
        whole = net.histories(u[idx], t[idx], 3)
        for f in ("ids", "dt", "mask"):
            assert np.array_equal(getattr(hist, f), getattr(whole, f))
        seen.append(idx)
    assert np.array_equal(np.sort(np.concatenate(seen)), np.arange(300))
    assert lens == sorted(lens) and set(lens) == {0, 1, 2, 3}


def test_sampler_rejection_cap():
    net = network_from_edges(
        [0, 1, 2], [0, 0, 1], [1, 2, 2], [0.0, 1.0, 2.0], directed=True, normalize=False
    )
    s = NegativeSampler(net)
    with pytest.raises(RuntimeError, match="smaller"):
        sample_negatives(s, net, 0, 1, 3, np.random.default_rng(0))


def triangle_net():
    return network_from_edges(
        ["a", "b", "c"], [0, 1, 2], [1, 2, 0], [0.0, 0.5, 1.0],
        directed=True, normalize=False,
    )


def test_mask_triangle():
    net = triangle_net()
    train, pos, neg = mask_static_edges(net, 1, np.random.default_rng(0))
    assert train.static_edge_count == 2
    assert len(pos) == 1 and len(neg) == 1
    assert set(pos).isdisjoint(neg)
    assert neg[0] not in net.pairs()


def test_mask_zero_is_identity():
    net = triangle_net()
    train, pos, neg = mask_static_edges(net, 0, np.random.default_rng(0))
    assert pos == [] and neg == []
    assert train.n_edges == net.n_edges
    assert np.array_equal(train.times, net.times)


def test_mask_count_too_large():
    net = triangle_net()
    with pytest.raises(ValueError):
        mask_static_edges(net, 4, np.random.default_rng(0))


def test_mask_count_negative():
    with pytest.raises(ValueError, match="cannot mask -1 edges; the count must be >= 0"):
        mask_static_edges(triangle_net(), -1, np.random.default_rng(0))


def test_mask_removes_all_temporal_occurrences():
    net = network_from_edges(
        list(range(4)), [0, 0, 0, 2], [1, 1, 2, 3], [0.0, 0.3, 0.6, 1.0],
        directed=True, normalize=False,
    )
    rng = np.random.default_rng(3)
    train, pos, neg = mask_static_edges(net, 2, rng)
    for s, t in zip(train.sources, train.targets):
        assert (int(s), int(t)) not in set(pos)
    # duplicated temporal edges vanish together with their static pair
    if (0, 1) in pos:
        assert not np.any((train.sources == 0) & (train.targets == 1))


def test_mask_undirected_uses_unordered_pairs():
    # 4-cycle: non-edges are the two diagonals
    net = network_from_edges(
        list(range(4)), [0, 1, 2, 3], [1, 2, 3, 0], [0.0, 0.3, 0.6, 1.0],
        directed=False, normalize=False,
    )
    assert net.static_edge_count == 4
    train, pos, neg = mask_static_edges(net, 1, np.random.default_rng(1))
    assert neg[0] in {(0, 2), (1, 3)}
    a, b = pos[0]
    assert a < b
    assert not np.any(
        ((train.sources == a) & (train.targets == b))
        | ((train.sources == b) & (train.targets == a))
    )


def test_mask_is_edge_disjoint_property():
    rng = np.random.default_rng(8)
    src = rng.integers(0, 12, 60)
    dst = (src + 1 + rng.integers(0, 11, 60)) % 12
    net = network_from_edges(
        list(range(12)), src, dst, rng.uniform(0, 1, 60), directed=True, normalize=False
    )
    count = net.static_edge_count // 2
    train, pos, neg = mask_static_edges(net, count, rng)
    train_pairs = set(zip(train.sources.tolist(), train.targets.tolist()))
    assert train_pairs.isdisjoint(pos)
    assert len(set(pos) & set(neg)) == 0
    assert len(neg) == count == len(pos)
    assert all(p not in net.pairs() for p in neg)


def test_degrees_count_distinct_static_neighbors(tmp_path):
    net = load_edge_list(
        write(tmp_path, "a b 1\na b 2\na c 3\nc a 4\n"), directed=True
    )
    a = net.label_to_id["a"]
    assert net.degrees[a] == 2  # b and c, duplicates and direction collapsed


def tied_planted_truth():
    """A 16-node planted log whose times floored to thirds tie often."""
    _, truth = generate(PlantedSpec(2, 8, 1.0, 0.3, 1.0, 8.0, 0.1), np.random.default_rng(6))
    return truth.sources, truth.targets, np.floor(truth.times * 3)


# Node counts at the edges of the owner-key types the CSR sort uses: up to
# 256 nodes fit uint8, up to 65,536 uint16, and more need uint32.
CSR_NODE_COUNTS = [16, 256, 257, 65_536, 65_537]


@pytest.mark.parametrize("directed, n", [
    pytest.param(directed, n, id=str(directed) if n == 16 else f"{directed}-{n}")
    for directed in (True, False) for n in CSR_NODE_COUNTS
])
def test_csr_matches_per_node_lists(directed, n):
    """The CSR arrays against per-node lists built by a plain loop over the
    chronological edges, on a planted net with tied times, repeated edges
    and self-loops, whose 16 nodes are the highest ids of ``n``. The events,
    static neighbours and adjacency are compared at every node with an edge
    and at node 0; the event counts and degrees at every node."""
    sources, targets, times = tied_planted_truth()
    top = n - 16
    net = network_from_edges(
        list(range(n)), np.r_[sources, 3, 3, 5] + top, np.r_[targets, 3, 4, 5] + top,
        np.r_[times, 1.0, 1.0, 2.0], directed=directed,
    )

    ev_n = [[] for _ in range(n)]
    ev_t = [[] for _ in range(n)]
    nbrs = [set() for _ in range(n)]
    pairs = set()
    for s, t, tt in zip(net.sources.tolist(), net.targets.tolist(), net.times.tolist()):
        ev_n[s].append(t)
        ev_t[s].append(tt)
        if not directed:
            ev_n[t].append(s)
            ev_t[t].append(tt)
        nbrs[s].add(t)
        nbrs[t].add(s)
        pairs.add((s, t) if directed or s < t else (t, s))
    assert np.diff(net.indptr).tolist() == list(map(len, ev_n))
    assert net.degrees.tolist() == list(map(len, nbrs))
    probe = np.unique(np.r_[0, net.sources, net.targets])
    for u in probe.tolist():
        ids, ts = net.events(u)
        assert ids.tolist() == ev_n[u] and ts.tolist() == ev_t[u]
        assert net.neighbors(u).tolist() == sorted(nbrs[u])
        assert net.adjacent(np.full(len(probe), u), probe).tolist() == [
            w in nbrs[u] for w in probe.tolist()
        ]
    assert net.pairs() == sorted(pairs) and net.static_edge_count == len(pairs)


@pytest.mark.parametrize("directed", [True, False])
def test_windows_match_a_plain_loop(directed):
    """``net.windows`` against each node's events read by a plain loop over
    the chronological edges, on a planted net with tied times and four nodes
    with no events: at query times before the first event, at each event
    time, between event times and after the last, for limits of 1, 3 and
    more than any node's history."""
    sources, targets, times = tied_planted_truth()
    n = 20
    net = network_from_edges(list(range(n)), sources, targets, times, directed=directed)
    events = [[] for _ in range(n)]
    for s, v, tt in zip(net.sources.tolist(), net.targets.tolist(), net.times.tolist()):
        events[s].append((v, tt))
        if not directed:
            events[v].append((s, tt))
    assert not any(events[16:])
    distinct = np.unique(net.times)
    probes = np.r_[-0.5, distinct, (distinct[:-1] + distinct[1:]) / 2, 1.5]
    u, t = np.repeat(np.arange(n), len(probes)), np.tile(probes, n)
    for limit in (1, 3, max(map(len, events)) + 1):
        start, stop = net.windows(u, t, limit)
        for i in range(len(u)):
            window = slice(start[i], stop[i])
            got = list(zip(net.ev_nbr[window].tolist(), net.ev_time[window].tolist()))
            assert got == [e for e in events[u[i]] if e[1] < t[i]][-limit:]


def network_state(net) -> dict:
    """Every field of a network, arrays as (dtype, shape, bytes), so that
    equal states mean bitwise-equal networks."""
    out = {}
    for name, value in vars(net).items():
        if isinstance(value, np.ndarray):
            value = (value.dtype.str, value.shape, value.tobytes())
        elif isinstance(value, dict):
            value = list(value.items())  # the insertion order too
        out[name] = value
    return out


LABELS = st.sampled_from(["a", "b", "c", "10", "a#b", "#x", "\u00e9"])
SEPS = st.sampled_from([" ", "  ", "\t", " \t ", "\x0c", "\u2028"])
GOOD_TIMES = st.one_of(
    st.integers(-5, 5).map(str),
    st.floats(-1e6, 1e6, allow_nan=False).map(repr),
    st.sampled_from(["1_000", "+7", "3.5", "1E3", "-0.0"]),
)
BAD_TIMES = st.sampled_from(["nan", "inf", "-Infinity", "1e400", "abc", "0x10", "1.5.2", "1__0"])
BLANKS = st.sampled_from(["", " ", "\t", "\x0c", " \u2028 "])


@st.composite
def edge_line(draw, times=GOOD_TIMES):
    src, dst, t = draw(LABELS), draw(LABELS), draw(times)
    return draw(BLANKS) + draw(SEPS).join([src, dst, t]) + draw(BLANKS)


@st.composite
def field_count_line(draw):
    tokens = draw(st.lists(st.one_of(LABELS, GOOD_TIMES), min_size=1, max_size=5).filter(
        lambda ts: len(ts) != 3 and not ts[0].startswith("#")))
    return draw(SEPS).join(tokens)


COMMENTS = st.tuples(BLANKS, st.text("ab #\t", max_size=6)).map(lambda p: p[0] + "#" + p[1])
GOOD_LINES = st.one_of(edge_line(), edge_line(), edge_line(), COMMENTS, BLANKS)
BAD_LINES = st.one_of(
    edge_line(BAD_TIMES),
    field_count_line(),
    st.tuples(LABELS, BAD_TIMES).map(lambda p: f"{p[0]} {p[0]} {p[1]}"),  # a bad self-loop
)


@st.composite
def edge_files(draw):
    """Text of an edge file: good lines with up to two bad ones inserted, each
    line ending in LF, CRLF or CR, the last one maybe in nothing."""
    lines = draw(st.lists(GOOD_LINES, max_size=30))
    for pos, bad in draw(st.lists(st.tuples(st.integers(0, 30), BAD_LINES), max_size=2)):
        lines.insert(pos, bad)
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]),
                         min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    if lines and draw(st.booleans()):
        text = text[: -len(ends[-1])]
    return text


def assert_loads_like_the_reference(path, directed):
    try:
        labels, _, sources, targets, times = ref_load_edge_list(path)
    except ValueError as exc:
        with pytest.raises(EdgeListParseError) as got:
            load_edge_list(path, directed)
        assert str(got.value) == str(exc)
        return
    expect = network_from_edges(labels, sources, targets, times, directed)
    assert network_state(load_edge_list(path, directed)) == network_state(expect)


@settings(max_examples=300, deadline=None)
@given(text=edge_files(), directed=st.booleans())
def test_load_matches_the_reference_loop(tmp_path_factory, text, directed):
    """The loader against the per-line reference on generated files: the
    same network, labels and time range, or the same error message; also
    when the file is read in blocks of a line or two."""
    path = tmp_path_factory.getbasetemp() / "differential.txt"
    path.write_bytes(text.encode("utf-8"))
    assert_loads_like_the_reference(path, directed)
    with patch.object(temporal_graph, "_BLOCK_CHARS", 12):
        assert_loads_like_the_reference(path, directed)


def test_first_bad_line_wins_across_kinds(tmp_path):
    path = write(tmp_path, "a b 1\na b x\nb c\n")
    with pytest.raises(EdgeListParseError, match=":2: timestamp 'x' is not a number"):
        load_edge_list(path, directed=True)
    path = write(tmp_path, "a b 1\na a nan\nb c x\n")
    with pytest.raises(EdgeListParseError, match=":2: timestamp 'nan' is not finite"):
        load_edge_list(path, directed=True)


def test_lines_split_as_file_iteration_splits_them(tmp_path):
    """A form feed or a line separator is whitespace inside a line, where
    ``str.splitlines`` would start a new one; CR and CRLF end lines."""
    path = tmp_path / "edges.txt"
    path.write_bytes("a\x0cb 1\r\nb\u2028c 2\rc d\t3".encode("utf-8"))
    net = load_edge_list(path, directed=True)
    assert net.labels == ["a", "b", "c", "d"] and net.n_edges == 3


small_nets = st.integers(2, 9).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), min_size=1, max_size=40),
))


@settings(max_examples=150, deadline=None)
@given(net_edges=small_nets, directed=st.booleans(), frac=st.floats(0, 1),
       seed=st.integers(0, 2**32 - 1))
def test_mask_matches_the_reference_loop(net_edges, directed, frac, seed):
    """``mask_static_edges`` against per-pair lists and per-draw scalar
    integers: the same training network, positives and negatives, and the
    generator left in the same state. The count stays within the non-edges,
    so every call succeeds."""
    n, edges = net_edges
    sources, targets = map(list, zip(*edges))
    times = np.random.default_rng(seed).uniform(0, 1, len(edges)).round(1)
    net = network_from_edges(list(range(n)), sources, targets, times, directed, normalize=False)
    non_edges = (n * (n - 1) // (1 if directed else 2)) - sum(
        a != b for a, b in net.pairs())
    count = min(round(frac * net.static_edge_count), non_edges)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)

    train, positives, negatives = mask_static_edges(net, count, rng)
    keep, ref_positives, ref_negatives = ref_mask_static_edges(
        net.sources.tolist(), net.targets.tolist(), n, directed, count, ref_rng)
    expect = network_from_edges(list(range(n)), net.sources[keep], net.targets[keep],
                                net.times[keep], directed, normalize=False)
    assert network_state(train) == network_state(expect)
    assert (positives, negatives) == (ref_positives, ref_negatives)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("directed", [True, False])
def test_mask_on_a_complete_graph_is_too_dense(directed):
    """No non-edge exists: both give up after the same number of draws."""
    pairs = [(a, b) for a in range(4) for b in range(4) if a != b]
    net = network_from_edges(list(range(4)), *zip(*pairs), np.arange(len(pairs)) / 11,
                             directed, normalize=False)
    rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
    with pytest.raises(RuntimeError, match="too dense"):
        mask_static_edges(net, 2, rng)
    with pytest.raises(RuntimeError, match="too dense"):
        ref_mask_static_edges(net.sources.tolist(), net.targets.tolist(), 4, directed, 2, ref_rng)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def rebuilt_without(net, gone_keys):
    """``_build_network`` of the edges of ``net`` whose pair key is not in
    ``gone_keys``, on the raw time range of ``net``."""
    n = net.node_count
    keys = temporal_graph._pair_keys(net.sources, net.targets, n, net.directed)
    keep = ~np.isin(keys, gone_keys)
    return temporal_graph._build_network(
        net.labels, net.label_to_id, net.sources[keep], net.targets[keep],
        net.times[keep], net.directed, t_range=(net.tmin, net.tmax))


def non_edge_count(net) -> int:
    """The pairs a mask can draw as negatives: distinct nodes, no static edge."""
    n = net.node_count
    return n * (n - 1) // (1 if net.directed else 2) - sum(a != b for a, b in net.pairs())


@pytest.mark.parametrize("directed", [True, False])
@pytest.mark.parametrize("seed", range(4))
def test_mask_filters_to_the_network_a_rebuild_makes(directed, seed):
    """The training network equals, field by field and bit for bit,
    ``_build_network`` of the edges whose pair is not ``np.isin`` the masked
    ones, for masks of no pair, one, a third and all of them (as many as
    there are non-edges, in the undirected nets). The net has duplicate
    temporal edges, equal times, pairs linked in both directions and a raw
    time range that must be kept."""
    rng = np.random.default_rng(seed)
    n = 12
    sources = rng.integers(0, n, 60)
    targets = (sources + rng.integers(1, n, 60)) % n
    sources, targets = (np.concatenate([sources, sources[:15], targets[15:25]]),
                        np.concatenate([targets, targets[:15], sources[15:25]]))
    times = rng.integers(0, 25, len(sources)) * 4.0 + 100.0
    net = network_from_edges([f"n{i}" for i in range(n)], sources, targets, times, directed)
    n_pairs = net.static_edge_count
    for count in (0, 1, n_pairs // 3, min(n_pairs, non_edge_count(net))):
        train, positives, _ = mask_static_edges(net, count, np.random.default_rng(seed))
        gone = [a * n + b for a, b in positives]
        assert len(gone) == count
        assert network_state(train) == network_state(rebuilt_without(net, gone))
        assert (train.tmin, train.tmax) == (net.tmin, net.tmax) == (100.0, 196.0)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("directed", [True, False])
def test_dropping_pairs_matches_a_plain_isin(directed, seed):
    """The mask's kept edges and events are those whose pair is not ``np.isin``
    the masked keys, searched over every key: the search of only the pairs
    at a node that a masked pair starts at misses none."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 60))
    size = int(rng.integers(1, 400))
    sources, targets = rng.integers(0, n, size), rng.integers(0, n, size)
    net = network_from_edges(list(range(n)), sources, targets, rng.uniform(0, 1, size),
                             directed, normalize=False)
    count = int(rng.integers(0, min(net.static_edge_count, non_edge_count(net)) + 1))
    train, positives, _ = mask_static_edges(net, count, rng)
    gone = [a * n + b for a, b in positives]

    def kept(a, b):
        if not directed:
            a, b = np.minimum(a, b), np.maximum(a, b)
        return ~np.isin(a * n + b, gone)

    keep = kept(net.sources, net.targets)
    owner = np.repeat(np.arange(n), np.diff(net.indptr))
    keep_ev = kept(owner, net.ev_nbr)
    for name, mask in [("sources", keep), ("targets", keep), ("times", keep),
                       ("ev_nbr", keep_ev), ("ev_time", keep_ev), ("ev_key", keep_ev)]:
        assert getattr(train, name).tobytes() == getattr(net, name)[mask].tobytes(), name
    assert np.array_equal(np.diff(train.indptr), np.bincount(owner[keep_ev], minlength=n))
