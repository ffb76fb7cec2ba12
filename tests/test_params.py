import json
import struct

import warnings

import numpy as np
import pytest
from scipy.special import expit

from hawkmix import (
    HyperParams,
    ModelParams,
    init_params,
    load_params,
    save_params,
    softplus,
    softplus_inv,
)
from hawkmix.params import (
    MODEL_MAGIC, ModelFileError, all_embeddings, export_embeddings, sigmoid,
)

from util import assert_read_only, writable_copy


def hyper(m=4, k=2, **kw):
    return HyperParams(n_aspects=k, dim=m, **kw)


def test_init_shapes():
    p = init_params(hyper(m=4, k=2), 3, np.random.default_rng(0))
    assert p.identity.shape == (3, 4)
    assert p.aspect.shape == (3, 2, 4)
    assert p.rho.shape == (3,)
    assert p.theta.shape == (3,)
    assert p.attn_w.shape == (4, 4)
    assert p.attn_a.shape == (8,)


def test_init_decay_and_temperature_are_one():
    p = init_params(hyper(), 5, np.random.default_rng(1))
    assert np.all(p.decay == 1.0)
    assert np.all(p.temperature == 1.0)


def test_init_deterministic_in_seed():
    a = init_params(hyper(), 4, np.random.default_rng(9))
    b = init_params(hyper(), 4, np.random.default_rng(9))
    assert np.array_equal(a.identity, b.identity)
    assert np.array_equal(a.aspect, b.aspect)
    assert np.array_equal(a.attn_w, b.attn_w)
    assert np.array_equal(a.attn_a, b.attn_a)


def test_init_draws_as_whole_array_uniform_calls():
    """The table is filled a block of rows at a time, from the same stream as
    one (n, m) identity draw, one (n, K, m) aspect draw, then the attention."""
    h, n = hyper(m=3, k=2), 2500
    p = init_params(h, n, np.random.default_rng(4))
    rng = np.random.default_rng(4)
    half = 0.5 / 3
    assert np.array_equal(p.identity, rng.uniform(-half, half, size=(n, 3)))
    assert np.array_equal(p.aspect, rng.uniform(-half, half, size=(n, 2, 3)))
    noise = rng.uniform(-0.01, 0.01, size=(3, 3))
    np.fill_diagonal(noise, 0.0)
    assert np.array_equal(p.attn_w, np.eye(3) + noise)
    assert np.array_equal(p.attn_a, rng.uniform(-0.01, 0.01, size=6))


def test_node_fields_are_views_of_the_table():
    rng = np.random.default_rng(6)
    n, m, k = 5, 3, 2
    arrays = {"identity": rng.normal(size=(n, m)), "aspect": rng.normal(size=(n, k, m)),
              "rho": rng.normal(size=n), "theta": rng.normal(size=n)}
    table = np.column_stack([
        arrays["identity"], arrays["aspect"].reshape(n, -1), arrays["rho"], arrays["theta"],
    ])
    p = ModelParams(hyper(m=m, k=k), table, np.eye(m), np.zeros(2 * m))
    assert p.table is table  # wrapped, not copied
    assert table.shape == (n, m + k * m + 2)
    # the views read the row layout identity | aspect | rho | theta
    for name, arr in arrays.items():
        assert np.array_equal(getattr(p, name), arr), name
        assert np.shares_memory(getattr(p, name), table), name
    p.identity[1, 2] = 7.0
    p.aspect[2, 1, 0] = 8.0
    p.rho[3] = 9.0
    p.theta[4] = 10.0
    assert table[1, 2] == 7.0 and table[2, m + m] == 8.0
    assert table[3, -2] == 9.0 and table[4, -1] == 10.0


@pytest.mark.parametrize("table", [
    np.zeros((5, 12)), np.zeros((5, 11), dtype=np.float32), np.zeros(11),
], ids=["wrong-width", "float32", "1-d"])
def test_model_rejects_a_table_of_the_wrong_shape_or_dtype(table):
    """At m=3, K=2 a row is 3 + 2*3 + 2 = 11 float64 values wide."""
    with pytest.raises(ValueError, match=r"node table must be float64 of shape \(n, 11\)"):
        ModelParams(hyper(m=3, k=2), table, np.eye(3), np.zeros(6))


@pytest.mark.parametrize("attn_w,attn_a,message", [
    (np.eye(4), np.zeros(5, dtype=np.float32),
     r"attn_w must be float64 of shape \(3, 3\), not float64 \(4, 4\)"),
    (np.eye(3, dtype=np.float32), np.zeros(6),
     r"attn_w must be float64 of shape \(3, 3\), not float32 \(3, 3\)"),
    (np.eye(3), np.zeros(5), r"attn_a must be float64 of shape \(6,\), not float64 \(5,\)"),
    (np.eye(3), np.zeros(6, dtype=np.float32),
     r"attn_a must be float64 of shape \(6,\), not float32 \(6,\)"),
], ids=["both-wrong", "w-float32", "a-short", "a-float32"])
def test_model_rejects_attention_arrays_of_the_wrong_shape_or_dtype(attn_w, attn_a, message):
    """At m=3 ``attn_w`` is (3, 3) and ``attn_a`` (6,), both float64; the
    error names the array, the shape it needs and the one it got."""
    with pytest.raises(ValueError, match=message):
        ModelParams(hyper(m=3, k=2), np.zeros((4, 11)), attn_w, attn_a)


def test_a_field_of_a_writable_model_cannot_be_assigned():
    """The fields are views of the table, so they are written through, never
    rebound; an assignment leaves the table as it was. (``assert_read_only``
    checks the same on frozen models.)"""
    p = init_params(hyper(m=3, k=2), 4, np.random.default_rng(0))
    table = p.table.copy()
    with pytest.raises(AttributeError, match="identity"):
        p.identity = np.zeros((4, 3))
    for name in ("aspect", "rho", "theta"):
        with pytest.raises(AttributeError, match=name):
            setattr(p, name, np.zeros_like(getattr(p, name)))
    assert p.table.tobytes() == table.tobytes()


def test_init_embedding_range_scales_with_dim():
    p = init_params(hyper(m=10, k=1), 50, np.random.default_rng(2))
    assert np.all(np.abs(p.identity) <= 0.05)
    assert np.all(np.abs(p.aspect) <= 0.05)


def test_init_attention_projection_near_identity():
    p = init_params(hyper(m=6), 2, np.random.default_rng(3))
    assert np.all(np.diag(p.attn_w) == 1.0)
    off = p.attn_w - np.eye(6)
    assert np.all(np.abs(off) <= 0.01)


def test_softplus_at_zero():
    assert softplus(0.0) == pytest.approx(np.log(2.0), abs=1e-15)


def test_softplus_roundtrip():
    assert softplus_inv(softplus(3.7)) == pytest.approx(3.7, abs=1e-10)


def test_softplus_no_underflow():
    assert softplus(-40.0) > 0.0


def test_softplus_large_input_no_overflow():
    assert softplus(1000.0) == 1000.0
    assert softplus_inv(1000.0) == 1000.0


def test_sigmoid_matches_scipys_expit():
    """Within 2.3e-16 of ``scipy.special.expit`` across the range where
    either is neither 0 nor 1, and exactly 1/2 at 0."""
    x = np.concatenate([
        np.linspace(-745.0, 745.0, 200_001),
        np.geomspace(1e-300, 50.0, 20_001),
        -np.geomspace(1e-300, 50.0, 20_001),
    ])
    assert np.abs(sigmoid(x) - expit(x)).max() <= 2.3e-16
    assert sigmoid(0.0) == 0.5 and sigmoid(-0.0) == 0.5


def test_sigmoid_saturates_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            y = sigmoid(np.array([-1e3, 1e3, -np.inf, np.inf]))
    assert y.tolist() == [0.0, 1.0, 0.0, 1.0]


def test_softplus_inv_rejects_nonpositive():
    with pytest.raises(ValueError):
        softplus_inv(0.0)
    with pytest.raises(ValueError):
        softplus_inv(-1.0)


def test_concat_embedding_order():
    p = init_params(hyper(m=2, k=2), 1, np.random.default_rng(0))
    p.identity[0] = [1.0, 2.0]
    p.aspect[0] = [[3.0, 4.0], [5.0, 6.0]]
    assert all_embeddings(p)[0].tolist() == [1, 2, 3, 4, 5, 6]


def test_concat_embedding_k1_length():
    p = init_params(hyper(m=3, k=1), 2, np.random.default_rng(0))
    assert len(all_embeddings(p)[1]) == 6


def test_concat_embedding_zero_params():
    p = init_params(hyper(m=2, k=2), 1, np.random.default_rng(0))
    p.identity[:] = 0
    p.aspect[:] = 0
    assert np.all(all_embeddings(p)[0] == 0)


def test_all_embeddings_matches_concat():
    p = init_params(hyper(m=3, k=2), 4, np.random.default_rng(5))
    emb = all_embeddings(p)
    for u in range(4):
        assert np.array_equal(emb[u], np.concatenate([p.identity[u], p.aspect[u].ravel()]))


def test_save_load_roundtrip_bitwise(tmp_path):
    p = init_params(hyper(m=5, k=3, seed=11), 7, np.random.default_rng(11))
    p.rho[:] = np.random.default_rng(1).normal(size=7)
    path = tmp_path / "model.bin"
    save_params(p, path)
    q = load_params(path)
    assert q.hyper == p.hyper
    for name in ("identity", "aspect", "rho", "theta", "attn_w", "attn_a"):
        assert np.array_equal(getattr(p, name), getattr(q, name)), name


def test_save_writes_each_field_whole_and_load_refills_the_table(tmp_path):
    """After the header the file holds each array whole, in C order, not the
    table's rows; a loaded model has the same table bytes and saves to the
    same file."""
    p = init_params(hyper(m=2, k=3), 4, np.random.default_rng(8))
    p.rho[:] = np.random.default_rng(1).normal(size=4)
    path = tmp_path / "model.bin"
    save_params(p, path)
    data = path.read_bytes()
    (hlen,) = struct.unpack_from("<I", data, len(MODEL_MAGIC))
    fields = ("identity", "aspect", "rho", "theta", "attn_w", "attn_a")
    body = b"".join(np.array(getattr(p, name), dtype="<f8").tobytes() for name in fields)
    assert data[len(MODEL_MAGIC) + 4 + hlen :] == body
    q = load_params(path)
    assert q.table.tobytes() == p.table.tobytes()
    save_params(q, tmp_path / "again.bin")
    assert (tmp_path / "again.bin").read_bytes() == data


def test_load_truncated_file_errors(tmp_path):
    p = init_params(hyper(), 3, np.random.default_rng(0))
    path = tmp_path / "model.bin"
    save_params(p, path)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(ModelFileError, match="truncated"):
        load_params(path)
    # one byte short of the end of each array names that array
    (hlen,) = struct.unpack_from("<I", blob, len(MODEL_MAGIC))
    end = len(MODEL_MAGIC) + 4 + hlen
    for name in ("identity", "aspect", "rho", "theta", "attn_w", "attn_a"):
        end += 8 * getattr(p, name).size
        path.write_bytes(blob[: end - 1])
        with pytest.raises(ModelFileError, match=f"truncated while reading '{name}'$"):
            load_params(path)
    assert end == len(blob)


@pytest.mark.parametrize("n", [10**13, 10**30])
def test_load_node_count_too_large_to_allocate_errors(tmp_path, n):
    """A header whose node count no table can hold is a ModelFileError, not a
    MemoryError or numpy's dimension error; no memory is touched. (Where the
    system lets 10**13 rows be reserved, the file is truncated instead.)"""
    p = init_params(hyper(), 3, np.random.default_rng(0))
    path = tmp_path / "model.bin"
    save_params(p, path)
    blob = path.read_bytes()
    off = len(MODEL_MAGIC)
    (hlen,) = struct.unpack_from("<I", blob, off)
    header = json.loads(blob[off + 4 : off + 4 + hlen])
    text = json.dumps({**header, "node_count": n}).encode()
    path.write_bytes(MODEL_MAGIC + struct.pack("<I", len(text)) + text + blob[off + 4 + hlen :])
    with pytest.raises(ModelFileError):
        load_params(path)


def test_load_wrong_magic_errors(tmp_path):
    path = tmp_path / "model.bin"
    path.write_bytes(b"NOPE9" + b"\x00" * 64)
    with pytest.raises(ModelFileError):
        load_params(path)


def test_load_trailing_garbage_errors(tmp_path):
    p = init_params(hyper(), 3, np.random.default_rng(0))
    path = tmp_path / "model.bin"
    save_params(p, path)
    path.write_bytes(path.read_bytes() + b"junk")
    with pytest.raises(ModelFileError, match="trailing"):
        load_params(path)


@pytest.mark.parametrize("edit", [
    lambda h: h.pop("hyper"),
    lambda h: h.pop("node_count"),
    lambda h: h["hyper"].update(bogus=1),
    lambda h: h.update(node_count="3"),
    lambda h: h["hyper"].update(dim=2.5),
], ids=["no-hyper", "no-node-count", "unknown-field", "text-node-count", "float-dim"])
def test_load_malformed_header_errors(tmp_path, edit):
    """A header without ``hyper`` or ``node_count``, with an unknown
    hyperparameter or one of the wrong type, or with a node count that is
    not an integer, is a ModelFileError, not a KeyError or TypeError."""
    p = init_params(hyper(), 3, np.random.default_rng(0))
    path = tmp_path / "model.bin"
    save_params(p, path)
    blob = path.read_bytes()
    off = len(MODEL_MAGIC)
    (hlen,) = struct.unpack_from("<I", blob, off)
    header = json.loads(blob[off + 4 : off + 4 + hlen])
    edit(header)
    text = json.dumps(header).encode()
    path.write_bytes(MODEL_MAGIC + struct.pack("<I", len(text)) + text + blob[off + 4 + hlen :])
    with pytest.raises(ModelFileError, match="malformed header"):
        load_params(path)


def test_save_stores_raw_rho_exactly(tmp_path):
    # the unconstrained value round-trips, so decay is preserved to 0 ulp
    p = init_params(hyper(), 3, np.random.default_rng(0))
    p.rho[:] = [0.123456789123456789, -7.5, 3.25]
    path = tmp_path / "model.bin"
    save_params(p, path)
    q = load_params(path)
    assert np.array_equal(q.rho, p.rho)
    assert np.array_equal(q.decay, p.decay)


def test_export_embeddings_format(tmp_path):
    p = init_params(hyper(m=2, k=1), 2, np.random.default_rng(0))
    path = tmp_path / "emb.txt"
    export_embeddings(p, path, labels=["alpha", "beta"])
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "2 2 1"
    first = lines[1].split()
    assert first[0] == "alpha"
    assert len(first) == 1 + 2 * 2
    vals = np.array([float(x) for x in first[1:]])
    assert np.array_equal(vals, all_embeddings(p)[0])


def test_hyperparams_validation():
    with pytest.raises(ValueError):
        HyperParams(n_aspects=0)
    with pytest.raises(ValueError):
        HyperParams(history_len=0)
    with pytest.raises(ValueError):
        HyperParams(dim=0)
    with pytest.raises(ValueError):
        HyperParams(n_negatives=0)


@pytest.mark.parametrize("lr", [-0.01, 0.0, float("nan"), float("inf")])
def test_hyperparams_rejects_a_learning_rate_that_is_not_finite_and_positive(lr):
    with pytest.raises(ValueError, match="lr"):
        HyperParams(lr=lr)


@pytest.mark.parametrize("field, value", [
    ("epochs", 2.5), ("seed", "1"), ("dim", True), ("history_len", None),
    ("use_attention", 1), ("use_gumbel", "yes"), ("lr", "0.1"),
])
def test_hyperparams_rejects_a_field_of_the_wrong_type(field, value):
    with pytest.raises(ValueError, match=field):
        HyperParams(**{field: value})


def test_hyperparams_accepts_numpy_scalars_and_an_integer_learning_rate():
    hp = HyperParams(epochs=np.int64(2), seed=np.uint32(3), lr=1, use_gumbel=False)
    assert (hp.epochs, hp.seed, hp.lr) == (2, 3, 1)


def test_hyperparams_rejects_a_negative_seed():
    with pytest.raises(ValueError, match="seed"):
        HyperParams(seed=-1)
    assert HyperParams(seed=0).seed == 0


@pytest.mark.parametrize("seed", [2**64, 2**64 + 7, 2**70])
def test_hyperparams_rejects_a_seed_beyond_64_bits(seed):
    """The training streams key Philox with 64 bits of the seed."""
    with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*64\)"):
        HyperParams(seed=seed)
    assert HyperParams(seed=2**64 - 1).seed == 2**64 - 1


def test_total_dim():
    assert HyperParams(n_aspects=4, dim=20).total_dim == 100


def test_a_frozen_model_refuses_every_write():
    p = init_params(hyper(m=3, k=2), 4, np.random.default_rng(0))
    table = p.table.copy()
    assert p.freeze() is p
    assert_read_only(p)
    assert p.table.tobytes() == table.tobytes()


def test_load_params_returns_a_read_only_model(tmp_path):
    p = init_params(hyper(m=3, k=2), 4, np.random.default_rng(0))
    save_params(p, tmp_path / "model.bin")
    q = load_params(tmp_path / "model.bin")
    assert_read_only(q)
    assert q.table.tobytes() == p.table.tobytes()
    p.identity[0, 0] = 5.0  # the model that was saved stays writable
    assert p.table[0, 0] == 5.0


def test_a_writable_copy_of_a_frozen_model_can_be_edited():
    p = init_params(hyper(m=3, k=2), 4, np.random.default_rng(0)).freeze()
    q = writable_copy(p)
    q.identity[1] = 2.0
    q.rho[:] = 0.0
    q.attn_w[0, 0] = 3.0
    assert np.all(q.identity[1] == 2.0) and np.all(q.rho == 0.0) and q.attn_w[0, 0] == 3.0
    assert p.identity[1, 0] != 2.0 and p.attn_w[0, 0] != 3.0


def test_node_terms_are_kept_only_by_a_read_only_model():
    """A read-only model computes its node terms once and keeps them, read-only;
    a writable one computes them on every call, so they follow its edits."""
    p = init_params(hyper(m=3, k=2), 5, np.random.default_rng(1))
    ident, ident_sq, aspect_sq = p.node_terms()
    assert ident.flags.c_contiguous and np.array_equal(ident, p.identity)
    assert np.array_equal(ident_sq, np.einsum("cm,cm->c", p.identity, p.identity))
    assert np.array_equal(aspect_sq, np.einsum("ckm,ckm->ck", p.aspect, p.aspect))
    p.identity[2] = 1.0
    p.aspect[2] = 1.0
    ident, ident_sq, aspect_sq = p.node_terms()
    assert np.all(ident[2] == 1.0) and ident_sq[2] == 3.0 and np.all(aspect_sq[2] == 3.0)
    assert p.node_terms()[0] is not ident
    p.freeze()
    kept = p.node_terms()
    assert all(a is b for a, b in zip(p.node_terms(), kept))
    assert all(not arr.flags.writeable for arr in kept)
    for got, expect in zip(kept, (ident, ident_sq, aspect_sq)):
        assert got.tobytes() == expect.tobytes()
