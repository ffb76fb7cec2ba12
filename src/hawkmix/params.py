"""Trainable model state: embeddings, per-node decay/temperature, attention weights.

Every node carries one identity embedding and one embedding per aspect; the
per-node decay and temperature scalars are stored unconstrained and mapped
through a softplus so they stay strictly positive under gradient updates.
A node's parameters are one row of a node table, laid out as identity |
aspect | rho | theta; the training gradients and the optimizer's moments use
the same row layout, and ``node_fields`` is the one function that reads it.

The models that ``train`` and ``load_params`` return are read-only: their
node table, its field views and the attention arrays refuse writes. To edit
one, wrap copies of its arrays: ``ModelParams(p.hyper, p.table.copy(),
p.attn_w.copy(), p.attn_a.copy())``. To build a model from separate arrays,
stack them into a table: ``np.column_stack([identity, aspect.reshape(n,
-1), rho, theta])``.
"""

from __future__ import annotations

import json
import math
import numbers
import struct
from dataclasses import asdict, dataclass, fields

import numpy as np

MODEL_MAGIC = b"MHNE1"


class ModelFileError(ValueError):
    """Raised when a model file is unreadable, truncated, the wrong version,
    or has a malformed header."""


def softplus(x):
    """log(1 + e^x), computed without overflow; output is strictly positive."""
    x = np.asarray(x, dtype=np.float64)
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def sigmoid(x):
    """1 / (1 + e^-x), the derivative of ``softplus``, computed without
    overflow: e^-|x| never exceeds 1, and the sign of x picks the numerator."""
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def softplus_inv(y):
    """Inverse of ``softplus``; defined for y > 0 only."""
    y = np.asarray(y, dtype=np.float64)
    if np.any(y <= 0.0):
        raise ValueError("softplus_inv requires strictly positive input")
    # log(e^y - 1) = y + log(1 - e^-y); -expm1 keeps the small-y branch exact.
    return y + np.log(-np.expm1(-y))


@dataclass(frozen=True)
class HyperParams:
    """Training configuration; ``dim`` is the size of each individual embedding.

    A field whose value is not of its annotated type raises ValueError; a
    bool is not an integer here, and ``lr`` takes any real number.
    """

    n_aspects: int = 4
    history_len: int = 5
    dim: int = 20
    n_negatives: int = 5
    batch_size: int = 200
    epochs: int = 20
    lr: float = 0.003
    seed: int = 0
    use_attention: bool = True
    use_gumbel: bool = True

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            kind = {"int": numbers.Integral, "float": numbers.Real, "bool": bool}[f.type]
            if not isinstance(value, kind) or (kind is not bool and isinstance(value, bool)):
                raise ValueError(f"{f.name} must be of type {f.type}, not {value!r}")
        if self.n_aspects < 1:
            raise ValueError("n_aspects must be >= 1")
        if self.history_len < 1:
            raise ValueError("history_len must be >= 1")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.n_negatives < 1:
            raise ValueError("n_negatives must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be a finite number > 0, not {self.lr!r}")
        if not 0 <= self.seed < 2**64:
            # the training streams key Philox with the seed's 64 bits
            raise ValueError(f"seed must be in [0, 2**64), not {self.seed!r}")

    @property
    def total_dim(self) -> int:
        """Length of the concatenated per-node vector: identity + all aspects."""
        return self.dim * (self.n_aspects + 1)

    @property
    def row_width(self) -> int:
        """Length of a node's row of parameters: both embeddings, rho and theta."""
        return self.total_dim + 2


def node_fields(table: np.ndarray, m: int):
    """(identity (n, m), aspect (n, K, m), rho (n,), theta (n,)) views of the
    rows of a per-node table laid out as identity | aspect | rho | theta."""
    n, width = table.shape
    k = (width - 2) // m - 1
    return table[:, :m], table[:, m:-2].reshape(n, k, m), table[:, -2], table[:, -1]


class ModelParams:
    """All trainable arrays for one model.

    table    : (n, m + K*m + 2) one row per node: identity | aspect | rho | theta
    identity : (n, m) identity embeddings
    aspect   : (n, K, m) aspect embeddings
    rho      : (n,) unconstrained; per-node kernel decay = softplus(rho)
    theta    : (n,) unconstrained; per-node temperature = softplus(theta)
    attn_w   : (m, m) shared attention projection
    attn_a   : (2m,) attention scoring vector

    The model wraps ``table`` itself, not a copy of it. ``identity``,
    ``aspect``, ``rho`` and ``theta`` are its ``node_fields`` views: a write
    through one is a write to the table, and none of them can be assigned.

    ``freeze`` makes a model read-only; ``train`` and ``load_params`` return
    frozen models. A model whose table is read-only is taken to be constant:
    ``node_terms`` then computes its per-node terms once and keeps them. To
    edit a frozen model, wrap copies of its arrays in a new one.
    """

    def __init__(self, hyper: HyperParams, table, attn_w, attn_a):
        if table.shape[1:] != (hyper.row_width,) or table.dtype != np.float64:
            raise ValueError(
                f"node table must be float64 of shape (n, {hyper.row_width}), "
                f"not {table.dtype} {table.shape}"
            )
        m = hyper.dim
        for name, arr, shape in (("attn_w", attn_w, (m, m)), ("attn_a", attn_a, (2 * m,))):
            if arr.shape != shape or arr.dtype != np.float64:
                raise ValueError(
                    f"{name} must be float64 of shape {shape}, not {arr.dtype} {arr.shape}"
                )
        self.hyper, self.attn_w, self.attn_a = hyper, attn_w, attn_a
        self._table = table
        self._fields = node_fields(table, hyper.dim)
        self._norms = None

    def freeze(self) -> "ModelParams":
        """Make this model read-only, in place, and return it.

        The table and the attention arrays refuse writes from here on, and
        the field views are taken again from the read-only table. A view
        taken before the call stays writable, so a caller that kept one must
        not write through it.
        """
        for arr in (self._table, self.attn_w, self.attn_a):
            arr.flags.writeable = False
        self._fields = node_fields(self._table, self.hyper.dim)
        return self

    def node_terms(self):
        """(identity (n, m) as a contiguous array, |identity|^2 (n,), the
        per-aspect squared norms of the aspect embeddings (n, K)).

        These are the terms of every node that scoring every node needs. A
        read-only model computes them on the first call and keeps them, as
        read-only arrays; a writable one computes them on every call, so
        they follow its edits.
        """
        if self._norms is not None:
            return self._norms
        ident = np.ascontiguousarray(self.identity)
        norms = (
            ident,
            np.einsum("cm,cm->c", ident, ident),
            np.einsum("ckm,ckm->ck", self.aspect, self.aspect),
        )
        if not self._table.flags.writeable:
            for arr in norms:
                arr.flags.writeable = False
            self._norms = norms
        return norms

    @property
    def table(self) -> np.ndarray:
        return self._table

    # the table's node_fields views: written through, never assigned
    identity = property(lambda self: self._fields[0])
    aspect = property(lambda self: self._fields[1])
    rho = property(lambda self: self._fields[2])
    theta = property(lambda self: self._fields[3])

    @property
    def node_count(self) -> int:
        return self._table.shape[0]

    @property
    def decay(self) -> np.ndarray:
        return softplus(self.rho)

    @property
    def temperature(self) -> np.ndarray:
        return softplus(self.theta)


# rows drawn per call in init_params; the draws do not depend on it
_INIT_BLOCK = 1024


def init_params(hyper: HyperParams, node_count: int, rng: np.random.Generator) -> ModelParams:
    """Fresh parameters: small uniform embeddings, decay and temperature both 1.

    Embedding entries are drawn from uniform(-0.5/m, 0.5/m) so initial
    intensities stay O(1); the attention projection starts at the identity
    map plus small off-diagonal noise. The embeddings are drawn straight
    into the node table, a block of rows at a time, in the order of one
    (n, m) identity draw followed by one (n, K, m) aspect draw.
    """
    if node_count < 1:
        raise ValueError("node_count must be >= 1")
    m = hyper.dim
    half = 0.5 / m
    table = np.empty((node_count, hyper.row_width))
    identity, aspect, rho, theta = node_fields(table, m)
    # uniform(-half, half) is -half + (2 * half) * random(), bit for bit: the
    # draws go to one reused buffer, and the shift writes them to the table
    buf = np.empty(_INIT_BLOCK * hyper.total_dim)
    for field in (identity, aspect):
        for lo in range(0, node_count, _INIT_BLOCK):
            block = field[lo : lo + _INIT_BLOCK]
            draws = rng.random(out=buf[: block.size].reshape(block.shape))
            draws *= half - (-half)
            np.add(draws, -half, out=block)
    rho[:] = theta[:] = float(softplus_inv(1.0))
    attn_w = np.eye(m)
    noise = rng.uniform(-0.01, 0.01, size=(m, m))
    np.fill_diagonal(noise, 0.0)
    attn_w += noise
    attn_a = rng.uniform(-0.01, 0.01, size=2 * m)
    return ModelParams(hyper, table, attn_w, attn_a)


def all_embeddings(params: ModelParams) -> np.ndarray:
    """Concatenated embeddings for every node, shape (n, m*(K+1))."""
    return np.concatenate([params.identity, params.aspect.reshape(params.node_count, -1)], axis=1)


_ARRAY_FIELDS = ("identity", "aspect", "rho", "theta", "attn_w", "attn_a")


def save_params(params: ModelParams, path) -> None:
    """Binary dump: magic, JSON header, then raw little-endian float64 arrays."""
    header = {"node_count": params.node_count, "hyper": asdict(params.hyper)}
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for name in _ARRAY_FIELDS:
            arr = getattr(params, name)
            fh.write(np.ascontiguousarray(arr, dtype="<f8").data)


def load_params(path) -> ModelParams:
    """Read a file written by ``save_params``; raw arrays round-trip bitwise.
    The model is read-only (see ``ModelParams.freeze``)."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < len(MODEL_MAGIC) or data[: len(MODEL_MAGIC)] != MODEL_MAGIC:
        raise ModelFileError(f"{path}: not a {MODEL_MAGIC.decode()} model file")
    off = len(MODEL_MAGIC)
    if len(data) < off + 4:
        raise ModelFileError(f"{path}: truncated header")
    (hlen,) = struct.unpack_from("<I", data, off)
    off += 4
    if len(data) < off + hlen:
        raise ModelFileError(f"{path}: truncated header")
    try:
        header = json.loads(data[off : off + hlen].decode("utf-8"))
        hyper = HyperParams(**header["hyper"])
        n = header["node_count"]
        if type(n) is not int or n < 1:
            raise ValueError(f"node_count must be a positive integer, not {n!r}")
    except (ValueError, KeyError, TypeError) as exc:
        raise ModelFileError(f"{path}: malformed header: {exc!r}") from exc
    off += hlen
    m = hyper.dim
    try:
        table = np.empty((n, hyper.row_width))
    except (MemoryError, ValueError) as exc:  # a count that no file can hold
        raise ModelFileError(f"{path}: node_count {n} is too large: {exc}") from exc
    attn_w, attn_a = np.empty((m, m)), np.empty(2 * m)
    for name, arr in zip(_ARRAY_FIELDS, (*node_fields(table, m), attn_w, attn_a)):
        if len(data) < off + 8 * arr.size:
            raise ModelFileError(f"{path}: truncated while reading '{name}'")
        arr[...] = np.frombuffer(data, dtype="<f8", count=arr.size, offset=off).reshape(arr.shape)
        off += 8 * arr.size
    if off != len(data):
        raise ModelFileError(f"{path}: {len(data) - off} unexpected trailing bytes")
    return ModelParams(hyper, table, attn_w, attn_a).freeze()


def export_embeddings(params: ModelParams, path, labels=None) -> None:
    """Text export: header `node_count m K`, then one `id v1 v2 ...` line per node."""
    n = params.node_count
    emb = all_embeddings(params)
    with open(path, "w") as fh:
        fh.write(f"{n} {params.hyper.dim} {params.hyper.n_aspects}\n")
        for u in range(n):
            label = labels[u] if labels is not None else u
            vals = " ".join(format(v, ".17g") for v in emb[u])
            fh.write(f"{label} {vals}\n")
