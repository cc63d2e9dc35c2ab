"""Three-branch recurrent classifier built on plain numpy.

Each feature branch (global motion, finger motion, raw skeleton) runs two
bidirectional LSTM layers and one FC layer; branch outputs are concatenated
into an FC head ending in a softmax. Backpropagation through time is exact,
training uses Adam with optional global-norm gradient clipping, and every
run is deterministic given its seed on a single thread.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import container
from .config import check_optimization
from .dataset import EmptyDataset
from .errors import GestrecError

CHECKPOINT_MAGIC = "GESTREC-CKPT 1"
PROB_FLOOR = 1e-12
GROUPED_BELOW = 4  # inference batches below this run every branch in one LSTM loop


class NetworkError(GestrecError):
    pass


class ShapeMismatch(NetworkError):
    pass


class InvalidMask(NetworkError):
    pass


class LabelOutOfRange(NetworkError):
    pass


class CheckpointError(NetworkError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    batch_size: int = 32
    epochs: int = 100
    rng_seed: int = 0
    clip_norm: float = 5.0      # 0 disables clipping
    stop_accuracy: float = 0.0  # 0 disables early stopping
    record_accuracy: bool = False  # measure train accuracy even without early stopping

    def __post_init__(self):
        check_optimization(self, NetworkError)


@dataclass
class Sample:
    """One training/evaluation item: per-branch (T, d) streams and a 0-based label."""

    streams: dict[str, np.ndarray]
    label: int


@dataclass
class EpochStats:
    """One epoch of `train`. `accuracy` is the inference-mode training-set
    accuracy, None unless early stopping or `record_accuracy` asked for it;
    the gradient norms are the global L2 norms before clipping."""

    epoch: int
    loss: float
    accuracy: float | None
    grad_norm_mean: float
    grad_norm_max: float
    clipped_fraction: float  # share of steps whose norm exceeded clip_norm
    seconds: float


@dataclass
class NetworkModel:
    branches: tuple[str, ...]
    input_dims: dict[str, int]
    classes: int
    hidden: int
    fc_out: int
    head: tuple[int, ...]
    dropout: float
    bidirectional: bool
    seed: int
    dtype: np.dtype  # of every parameter and every activation; features stay float64
    params: dict[str, np.ndarray] = field(default_factory=dict)
    norm: dict[str, dict[str, np.ndarray]] = field(default_factory=dict)

    @property
    def directions(self) -> tuple[str, ...]:
        return ("fwd", "bwd") if self.bidirectional else ("fwd",)

    @property
    def summary_dim(self) -> int:
        return self.hidden * len(self.directions)


def init_model(branches, input_dims: dict[str, int], classes: int, hidden: int = 100,
               fc_out: int = 128, head: tuple[int, ...] = (256, 128),
               dropout: float = 0.3, bidirectional: bool = True,
               seed: int = 0, dtype=np.float32) -> NetworkModel:
    """Build a model with uniform(+/- 1/sqrt(fan_in)) weights, zero biases and
    forget-gate bias +1. Branch names must be distinct, and every size at
    least 1. The weights are drawn in float64, so a seed gives the same draws
    at either `dtype` (float32 or float64), and then rounded to `dtype` once."""
    if np.dtype(dtype) not in (np.float32, np.float64):
        raise NetworkError(f"dtype must be float32 or float64, got {np.dtype(dtype)}")
    model = NetworkModel(tuple(branches), dict(input_dims), classes, hidden,
                         fc_out, tuple(head), dropout, bidirectional, seed, np.dtype(dtype))
    if len(set(model.branches)) < len(model.branches):
        raise NetworkError(f"branches repeat a name: {model.branches}")
    for name in model.branches:
        if name not in input_dims:
            raise ShapeMismatch(f"missing input dim for branch {name!r}")
    sizes = {"classes": classes, "hidden": hidden, "fc_out": fc_out,
             **{f"head width {i}": width for i, width in enumerate(model.head)},
             **{f"input dim of {name!r}": input_dims[name] for name in model.branches}}
    for what, size in sizes.items():
        if size < 1:
            raise NetworkError(f"{what} must be at least 1, got {size}")
    rng = np.random.default_rng(seed)

    def uniform(rows, cols):
        bound = 1.0 / np.sqrt(cols)
        return rng.uniform(-bound, bound, (rows, cols))

    def lstm_block(prefix, in_dim):
        model.params[f"{prefix}.W"] = uniform(4 * hidden, in_dim)
        model.params[f"{prefix}.U"] = uniform(4 * hidden, hidden)
        bias = np.zeros(4 * hidden)
        bias[hidden:2 * hidden] = 1.0
        model.params[f"{prefix}.b"] = bias

    for name in model.branches:
        for direction in model.directions:
            lstm_block(f"{name}.l1.{direction}", input_dims[name])
        for direction in model.directions:
            lstm_block(f"{name}.l2.{direction}", model.summary_dim)
        model.params[f"{name}.fc.W"] = uniform(fc_out, model.summary_dim)
        model.params[f"{name}.fc.b"] = np.zeros(fc_out)

    widths = (len(model.branches) * fc_out,) + model.head + (classes,)
    for i in range(len(model.head)):
        model.params[f"head.{i}.W"] = uniform(widths[i + 1], widths[i])
        model.params[f"head.{i}.b"] = np.zeros(widths[i + 1])
    model.params["head.out.W"] = uniform(classes, widths[-2])
    model.params["head.out.b"] = np.zeros(classes)
    model.params = {key: arr.astype(model.dtype, copy=False)
                    for key, arr in model.params.items()}

    for name in model.branches:
        model.norm[name] = {"mean": np.zeros(input_dims[name]),
                            "std": np.ones(input_dims[name])}
    return model


def _validate_batch(model, streams, mask):
    mask = np.asarray(mask)
    if mask.dtype != bool:
        if mask.dtype.kind not in "iu" or not np.all((mask == 0) | (mask == 1)):
            raise InvalidMask(f"mask must be boolean, or integers holding only 0 and 1; "
                              f"got dtype {mask.dtype}")
        mask = mask.astype(bool)
    if mask.ndim != 2:
        raise InvalidMask(f"mask must be (batch, time), got {mask.shape}")
    if np.any(mask[:, 1:] & ~mask[:, :-1]):
        raise InvalidMask("mask has holes: valid steps must form a prefix")
    if mask.shape[1] == 0 or not mask[:, 0].all():
        raise InvalidMask("every sample needs at least one valid step")
    bsz, t_len = mask.shape
    for name in model.branches:
        if name not in streams:
            raise ShapeMismatch(f"missing stream for branch {name!r}")
        arr = streams[name]
        expected = (bsz, t_len, model.input_dims[name])
        if arr.shape != expected:
            raise ShapeMismatch(f"{name}: expected {expected}, got {arr.shape}")
    return mask


@dataclass(frozen=True)
class _Packing:
    """Where each valid (sample, step) of a padded batch sits among the N
    packed rows the LSTM layers run on.

    Samples are stable-sorted by length, longest first, and rows are
    time-major: step t is the contiguous block `steps[t]` = (first row, row
    count) of the samples still running at t, in sorted order, so each
    step's samples are the first rows of the step before. Padded steps have
    no row.
    """

    steps: tuple[tuple[int, int], ...]
    gather: np.ndarray  # (N,) each row's flat index into a (B * T) padded batch
    flip: np.ndarray    # (N,) row of the same sample at step length - 1 - t
    prev: np.ndarray    # row of step t - 1 for every row after step 0
    last: np.ndarray    # (B,) each sample's last row, in batch order


def _pack(mask) -> _Packing:
    bsz, t_len = mask.shape
    lengths = mask.sum(axis=1)
    order = np.argsort(-lengths, kind="stable")
    rank = np.empty(bsz, dtype=np.intp)
    rank[order] = np.arange(bsz)
    valid = np.arange(lengths.max())[:, None] < lengths[order]  # (steps, sorted samples)
    counts = valid.sum(axis=1)
    starts = np.cumsum(counts) - counts
    t, j = np.nonzero(valid)
    return _Packing(steps=tuple(zip(starts.tolist(), counts.tolist())),
                    gather=order[j] * t_len + t,
                    flip=starts[lengths[order][j] - 1 - t] + j,
                    prev=starts[t[bsz:] - 1] + j[bsz:],
                    last=starts[lengths - 1] + rank)


def _packed(padded, pack):
    """The packed (N, d) rows of a padded (B, T, d) array."""
    return padded.reshape(-1, padded.shape[-1])[pack.gather]


def _flip_reverse(a, pack):
    """`a` (N, dirs, ...) with the reverse direction's rows taken through
    `pack.flip`, which maps its own time order to forward time order and
    back."""
    return np.concatenate([a[:, :1], a[pack.flip, 1:]], axis=1)


def _layer2_input(h1, pack, keep):
    """Layer 2's packed input (N, dirs * h): layer 1's hidden states `h1`
    in forward time order, times the padded dropout mask `keep` if any."""
    x = _flip_reverse(h1, pack).reshape(len(h1), -1)
    if keep is not None:
        x *= _packed(keep, pack)
    return x


def _buffer(buffers, key, shape, dtype, fresh=np.empty):
    """A `shape` view of `buffers[key]`, which grows to the largest size
    asked for and keeps the values of its last use; `fresh(shape, dtype)`
    if `buffers` is None."""
    if buffers is None:
        return fresh(shape, dtype)
    size = math.prod(shape)
    flat = buffers.get(key)
    if flat is None or flat.size < size:
        flat = buffers[key] = np.zeros(size, dtype)
    return flat[:size].reshape(shape)


def _bilstm_forward(model, layers, pack, keep, buffers=None):
    """Every direction of one or more LSTM layers in one time loop over
    packed rows.

    `layers` lists (prefix, x) pairs, each `x` (N, d) a layer input in
    forward time order; the layers may differ in d. The reverse direction
    reads its input through `pack.flip`, so it runs forward in time over
    each sample's flipped valid prefix: every direction shares each step's
    rows and ends on each sample's last row. Returns the hidden states
    (N, layers * dirs, h), layer-major and each direction in its own time
    order, and, if `keep`, the gates (N, layers * dirs, 4h), the (i, f, g, o)
    activations from which `_bilstm_backward` rebuilds the rest. Each
    direction keeps its own input-projection GEMM and its own per-step
    product on its own `U`, and the rest is elementwise, so a layer's bytes
    do not depend on which layers share its loop. With `buffers`, the gates
    are a view of the group's own array there, and the hidden and cell
    states are views of one scratch pair that every group shares: the
    hidden states are valid only until the next group runs.
    """
    h, dtype = model.hidden, model.dtype
    # sigmoid(z) = 0.5 + 0.5 tanh(z / 2): with the i, f, o rows scaled by 0.5,
    # tanh(z * scale) * scale + shift gives all four gates with one tanh
    scale = np.full(4 * h, 0.5, dtype)
    scale[2 * h:3 * h] = 1.0
    shift = 1.0 - scale
    units = [(f"{prefix}.{direction}", x) for prefix, x in layers
             for direction in model.directions]
    n, dirs = len(pack.gather), len(units)
    key = "+".join(prefix for prefix, _ in layers)
    gates = _buffer(buffers, f"{key}.gates", (n, dirs, 4 * h), dtype)
    for k, (p, x) in enumerate(units):
        # every step's input projection in one GEMM; the loop adds only h_prev @ U.T
        np.matmul(x[pack.flip] if p.endswith(".bwd") else x, model.params[f"{p}.W"].T,
                  out=gates[:, k])
    gates += np.stack([model.params[f"{p}.b"] for p, _ in units])
    u_t = [model.params[f"{p}.U"].T for p, _ in units]
    # OpenBLAS rounds a one-row product, and at some sizes a two- or
    # three-row one, through other kernels than a larger product. A padded
    # batch multiplies all B rows at every step, so each step here
    # multiplies at least min(B, 4) rows, reading past its own into zeros or
    # other rows: at hidden 100 a sample's hidden states then do not depend
    # on how many others are still running (README Conventions says what
    # holds at other sizes).
    min_rows = min(len(pack.last), 4)
    hidden = _buffer(buffers, "hidden", (n + min_rows - 1, dirs, h), dtype, np.zeros)
    hidden[n:] = 0.0
    cell = _buffer(buffers, "cell", (n, dirs, h), dtype)
    h_prev = c_prev = np.zeros(hidden[:pack.steps[0][1]].shape, dtype)
    product = np.empty((dirs, len(h_prev), 4 * h), dtype)
    for start, rows in pack.steps:
        g = gates[start:start + rows]
        m = max(rows, min_rows)
        for k, u in enumerate(u_t):
            np.matmul(h_prev[:m, k], u, out=product[k, :m])
        g += product[:, :rows].transpose(1, 0, 2)
        g *= scale  # exact: the scales are powers of two
        np.tanh(g, out=g)
        g *= scale
        g += shift
        c = np.multiply(g[..., h:2 * h], c_prev[:rows], out=cell[start:start + rows])
        c += g[..., :h] * g[..., 2 * h:3 * h]
        np.tanh(c, out=hidden[start:start + rows])
        hidden[start:start + rows] *= g[..., 3 * h:]
        h_prev, c_prev = hidden[start:], c
    return hidden[:n], (gates if keep else None)


def _lstm_states(model, gates, pack, buffers=None):
    """The cell states, their tanh and the hidden states, each (N, dirs, h),
    that `_bilstm_forward` formed along with `gates`, rebuilt from them.
    Every element sees the forward's operations in the same order, so the
    bytes are the same: c = f * c_prev + i * g, one step block at a time
    since each reads the block before, then tanh(c) and * o; i * g, tanh
    and * o are one call each over all rows. With `buffers`, they are views
    of scratch that every layer shares."""
    h = model.hidden
    shape = gates.shape[:2] + (h,)
    cell = _buffer(buffers, "cell", shape, model.dtype)
    tanh_c = _buffer(buffers, "tanh_c", shape, model.dtype)
    hidden = _buffer(buffers, "hidden", shape, model.dtype)
    gi, gf, gg, go = (gates[..., k * h:(k + 1) * h] for k in range(4))
    i_g = np.multiply(gi, gg, out=hidden)
    # step 0 adds i * g to f * 0, as the forward does, so a -0.0 product becomes +0.0
    c_prev = np.zeros((pack.steps[0][1],) + shape[1:], model.dtype)
    for start, rows in pack.steps:
        c = np.multiply(gf[start:start + rows], c_prev[:rows], out=cell[start:start + rows])
        c += i_g[start:start + rows]
        c_prev = c
    np.tanh(cell, out=tanh_c)
    np.multiply(tanh_c, go, out=hidden)
    return cell, tanh_c, hidden


def _bilstm_backward(model, layer, pack, d_hidden, grads, input_grad, buffers=None):
    """Exact BPTT for one `_bilstm_forward` layer (prefix, input, gates)
    from d_hidden (N, dirs, h), which it overwrites. Writes dW, dU and db
    into `grads`; returns the input gradient (N, d) in forward time order if
    `input_grad`. The layer's states are first rebuilt from its gates, into
    the shared scratch of `buffers` if given.

    dz (N, dirs, 4h), the gradient at the gate pre-activations, is
        dz_i = dc * g * i(1 - i)        dz_f = dc * c_prev * f(1 - f)
        dz_g = dc * i * (1 - g^2)       dz_o = dh * tanh(c) * o(1 - o)
    One time loop, last step first, carries dh and dc back for every
    direction. Each step block's dz is formed from its gates, cell states
    and tanh(c) and the cell states of the step before, while they are in
    cache, and is written over the gates. dW, dU and db are then one GEMM or sum
    each over the valid rows.
    """
    prefix, x, gates = layer
    cell, tanh_cell, hidden = _lstm_states(model, gates, pack, buffers)
    h = model.hidden
    prefixes = [f"{prefix}.{direction}" for direction in model.directions]
    us = [model.params[f"{p}.U"] for p in prefixes]
    first = pack.steps[0][1]  # the rows of step 0 start from the zero state
    dh_carry = np.empty((len(prefixes), first, h), model.dtype)
    dc_carry = cell[:0]  # nothing flows into the last step
    for t in range(len(pack.steps) - 1, -1, -1):
        start, rows = pack.steps[t]
        block = slice(start, start + rows)
        g = gates[block]
        gi, gf, gg, go = (g[..., k * h:(k + 1) * h] for k in range(4))
        dh = d_hidden[block]
        dh[:len(dc_carry)] += dh_carry[:, :len(dc_carry)].transpose(1, 0, 2)
        tanh_c = tanh_cell[block]
        # dc/dh through h = o * tanh(c)
        dc = np.multiply(tanh_c, tanh_c)
        np.subtract(1.0, dc, out=dc)
        dc *= go
        dc *= dh
        dc[:len(dc_carry)] += dc_carry
        local = np.subtract(1.0, g)
        local *= g  # i(1 - i), f(1 - f), o(1 - o); the g block is replaced below
        dz_i, dz_f, dz_g, dz_o = (local[..., k * h:(k + 1) * h] for k in range(4))
        dz_i *= gg
        if t:  # each step's rows are the first rows of the step before
            prev_start = pack.steps[t - 1][0]
            dz_f *= cell[prev_start:prev_start + rows]
        else:
            dz_f[...] = 0.0
        np.multiply(gg, gg, out=dz_g)
        np.subtract(1.0, dz_g, out=dz_g)
        dz_g *= gi
        dz_o *= tanh_c
        dc_carry = dc * gf  # the last read of the gates: dz goes over them
        np.multiply(local.reshape(rows, -1, 4, h)[:, :, :3], dc[:, :, None],
                    out=g.reshape(rows, -1, 4, h)[:, :, :3])
        np.multiply(dz_o, dh, out=go)
        for k, u in enumerate(us):
            np.matmul(g[:, k], u, out=dh_carry[k, :rows])

    dz = gates
    d_x = None
    for k, p in enumerate(prefixes):
        reverse = p.endswith(".bwd")
        grads[f"{p}.W"] = dz[:, k].T @ (x[pack.flip] if reverse else x)
        grads[f"{p}.U"] = dz[first:, k].T @ hidden[pack.prev, k]
        grads[f"{p}.b"] = dz[:, k].sum(axis=0)
        if input_grad:
            part = dz[:, k] @ model.params[f"{p}.W"]
            if reverse:
                part = part[pack.flip]
            d_x = part if d_x is None else d_x + part
    return d_x


def _dense_forward(model, prefixes, a, dropped):
    """FC layers in order, each but `head.out` followed by ReLU and each
    followed by the dropout mask named after its parameter prefix. Returns
    the output and each layer's (prefix, input, pre-activation)."""
    layers = []
    for p in prefixes:
        pre = a @ model.params[f"{p}.W"].T + model.params[f"{p}.b"]
        layers.append((p, a, pre))
        a = dropped(pre if p == "head.out" else np.maximum(pre, 0.0), p)
    return a, layers


def _dense_backward(model, layers, d_out, undrop, grads):
    """Gradients of one `_dense_forward` stack, written into `grads`; returns
    the gradient at its input."""
    for p, a, pre in reversed(layers):
        d_pre = undrop(d_out, p)
        if p != "head.out":
            d_pre = d_pre * (pre > 0)
        grads[f"{p}.W"] = d_pre.T @ a
        grads[f"{p}.b"] = d_pre.sum(axis=0)
        d_out = d_pre @ model.params[f"{p}.W"]
    return d_out


def forward(model: NetworkModel, streams: dict[str, np.ndarray], mask: np.ndarray,
            train_mode: bool = False, rng: np.random.Generator | None = None,
            dropout_masks: dict[str, np.ndarray] | None = None, *,
            buffers: dict[str, np.ndarray] | None = None):
    """Class probabilities for a padded batch; returns (probs, cache).

    In train mode inverted dropout follows every LSTM and FC layer. Unless
    explicit `dropout_masks` are supplied, each mask is drawn from `rng` when
    it is first used: per branch `l1`, `summary`, `fc`, then `head.0`, ...,
    `head.out`. The cache records the masks so gradients and finite
    differences see the same network. Only a train-mode cache holds the
    layer activations `backward` needs: each LSTM layer's gates, and layer
    1's input. `backward` rebuilds the cell and hidden states and layer 2's
    input from them. An inference cache keeps none, so the gates and cell
    states of each `_bilstm_forward` call are freed when it returns.

    The branches run in groups, one `_bilstm_forward` call per layer and
    group. An inference batch of fewer than `GROUPED_BELOW` samples runs
    every branch in one group: a step then multiplies at most 3 rows per
    direction, so the time loop's cost is per-call overhead, and one loop
    instead of three cuts it. A larger inference batch, and every train-mode
    forward, runs one branch per group: at a large batch a grouped loop is
    slower and holds every branch's gates at once, and a train step keeps
    the dropout draw order, buffers and cache of one branch at a time. Each
    layer's bytes are the same either way.

    `buffers`, a dict `train` makes once per call, holds each LSTM layer's
    gates and one cell, hidden and tanh(c) scratch that all layers share
    across train-mode calls, so no step allocates them again. Such a cache
    is valid only until the next forward on the same buffers, and `backward`
    turns its gates into gate gradients. An inference forward never touches
    `buffers`.
    """
    mask = _validate_batch(model, streams, mask)
    bsz, t_len = mask.shape
    pack = _pack(mask)
    use_dropout = train_mode and model.dropout > 0.0
    if use_dropout and dropout_masks is None:
        if rng is None:
            raise NetworkError("train-mode forward needs an rng (or explicit dropout masks)")
        dropout_masks = {}

    def drop_mask(key, shape):
        if key not in dropout_masks:
            keep = (rng.random(shape) >= model.dropout).astype(model.dtype)
            dropout_masks[key] = keep / (1.0 - model.dropout)
        return dropout_masks[key]

    def dropped(x, key):
        return x * drop_mask(key, x.shape) if use_dropout else x

    layer_buffers = buffers if train_mode else None
    cache = {"mask": mask, "pack": pack, "dropout": dropout_masks if use_dropout else None,
             "buffers": layer_buffers, "branches": {}}
    dirs = len(model.directions)
    grouped = not train_mode and bsz < GROUPED_BELOW
    groups = [model.branches] if grouped else [(name,) for name in model.branches]
    branch_outputs = []
    for group in groups:
        # one layer's inputs at a time; layer 1's stay on only in a train-mode cache
        layers = [(f"{name}.l1", ((_packed(streams[name], pack) - model.norm[name]["mean"])
                                  / model.norm[name]["std"]).astype(model.dtype, copy=False))
                  for name in group]
        h1, gates1 = _bilstm_forward(model, layers, pack, train_mode, layer_buffers)
        l1 = [layer + (gates1,) for layer in layers] if train_mode else None
        keep_shape = (bsz, t_len, model.summary_dim)
        layers = [(f"{name}.l2", _layer2_input(
                      h1[:, j * dirs:(j + 1) * dirs], pack,
                      drop_mask(f"{name}.l1", keep_shape) if use_dropout else None))
                  for j, name in enumerate(group)]
        h2, gates2 = _bilstm_forward(model, layers, pack, train_mode, layer_buffers)
        del layers  # held to the return, they made batch-1 serving's peak RSS grow per request
        for j, name in enumerate(group):
            # each direction's last row: forward at the last valid step, reverse at step 0
            summary = h2[pack.last, j * dirs:(j + 1) * dirs].reshape(bsz, -1)
            branch_out, fc = _dense_forward(model, [f"{name}.fc"],
                                            dropped(summary, f"{name}.summary"), dropped)
            if train_mode:  # a train step's groups are single branches
                cache["branches"][name] = (l1[j], gates2, fc)
            branch_outputs.append(branch_out)

    head = [f"head.{i}" for i in range(len(model.head))] + ["head.out"]
    logits, head_layers = _dense_forward(model, head, np.concatenate(branch_outputs, axis=1),
                                         dropped)
    if train_mode:
        cache["head"] = head_layers
    # the softmax runs in float64 whatever the model's dtype, so each row
    # sums to 1 within float64 rounding
    logits = logits.astype(np.float64, copy=False)
    shifted = logits - logits.max(axis=1, keepdims=True)
    ex = np.exp(shifted)
    probs = ex / ex.sum(axis=1, keepdims=True)
    cache["probs"] = probs
    return probs, cache


def cross_entropy(probs: np.ndarray, labels: np.ndarray) -> float:
    """Mean categorical cross-entropy with the probability floored at 1e-12."""
    labels = np.asarray(labels)
    if labels.min() < 0 or labels.max() >= probs.shape[1]:
        raise LabelOutOfRange(
            f"labels must be in [0, {probs.shape[1]}), got [{labels.min()}, {labels.max()}]")
    picked = probs[np.arange(len(labels)), labels]
    return float(np.mean(-np.log(np.maximum(picked, PROB_FLOOR))))


def backward(model: NetworkModel, cache, labels: np.ndarray) -> dict[str, np.ndarray]:
    """Exact gradients of the mean cross-entropy for every parameter, in
    `model.params` order.

    Consumes the train-mode cache: each branch's layer activations leave
    `cache["branches"]` as its gradients are formed, each LSTM layer's gates
    are overwritten by their gradients, and layer 2's activations are
    released before layer 1's BPTT runs (what `forward`'s `buffers` hold
    stays there). Each layer's cell and hidden states are rebuilt from its
    gates just before its BPTT, and layer 2's input from layer 1's rebuilt
    hidden states, byte for byte as `forward` formed them. `mask`, `pack`,
    `dropout`, `buffers` and `probs` stay.
    """
    labels = np.asarray(labels)
    probs = cache["probs"]
    bsz, classes = probs.shape
    if labels.min() < 0 or labels.max() >= classes:
        raise LabelOutOfRange(f"labels out of range for {classes} classes")
    pack = cache["pack"]
    rows = np.arange(bsz)
    masks = cache["dropout"]

    def undrop(d, key):
        if masks is None:
            return d
        return d * masks[key]

    picked = probs[rows, labels]
    dldp = np.zeros_like(probs)
    active = picked > PROB_FLOOR
    dldp[rows[active], labels[active]] = -1.0 / (bsz * picked[active])
    # softmax jacobian: dz = p * (dldp - sum_j dldp_j p_j)
    inner = (dldp * probs).sum(axis=1, keepdims=True)
    grads = {}
    d_logits = (probs * (dldp - inner)).astype(model.dtype, copy=False)
    da = _dense_backward(model, cache.pop("head"), d_logits, undrop, grads)
    buffers = cache["buffers"]
    for i, name in enumerate(model.branches):
        l1, gates2, fc = cache["branches"].pop(name)
        d_fc = da[:, i * model.fc_out:(i + 1) * model.fc_out]
        d_summary = undrop(_dense_backward(model, fc, d_fc, undrop, grads), f"{name}.summary")
        d_h2 = np.zeros(gates2.shape[:2] + (model.hidden,), model.dtype)
        d_h2[pack.last] = d_summary.reshape(bsz, -1, model.hidden)
        keep = None if masks is None else masks[f"{name}.l1"]
        x = _layer2_input(_lstm_states(model, l1[2], pack, buffers)[2], pack, keep)
        d_x = _bilstm_backward(model, (f"{name}.l2", x, gates2), pack, d_h2, grads,
                               True, buffers)
        del x, gates2, d_h2  # layer 2's activations go before layer 1's BPTT starts
        if keep is not None:
            d_x *= _packed(keep, pack)
        d_h1 = _flip_reverse(d_x.reshape(len(d_x), -1, model.hidden), pack)
        del d_x
        _bilstm_backward(model, l1, pack, d_h1, grads, False, buffers)
        del l1, d_h1
    return {key: grads[key] for key in model.params}


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0


def adam_init(params: dict[str, np.ndarray]) -> AdamState:
    return AdamState({k: np.zeros_like(p) for k, p in params.items()},
                     {k: np.zeros_like(p) for k, p in params.items()})


def adam_step(params, grads, state: AdamState, config: TrainConfig):
    """Standard bias-corrected Adam update of `params`, `state.m` and
    `state.v` in place, with two scratch arrays per parameter. The operation
    order is that of
        m = b1 m + (1 - b1) g        v = b2 v + ((1 - b2) g) g
        p -= (lr (m / c1)) / (sqrt(v / c2) + eps)
    so the result is bit-identical to evaluating those expressions."""
    state.t += 1
    b1, b2 = config.beta1, config.beta2
    correction1 = 1.0 - b1 ** state.t
    correction2 = 1.0 - b2 ** state.t
    for key, p in params.items():
        g, m, v = grads[key], state.m[key], state.v[key]
        m *= b1
        scratch = np.multiply(g, 1.0 - b1)
        m += scratch
        v *= b2
        np.multiply(g, 1.0 - b2, out=scratch)
        scratch *= g
        v += scratch
        denom = np.divide(v, correction2, out=scratch)
        np.sqrt(denom, out=denom)
        denom += config.epsilon
        step = np.divide(m, correction1)
        step *= config.learning_rate
        step /= denom
        p -= step
    return params, state


def clip_gradients(grads, clip_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most clip_norm."""
    total = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    if clip_norm > 0 and total > clip_norm:
        scale = clip_norm / total
        for g in grads.values():
            g *= scale
    return total


def _sample_length(model, sample):
    t_len = None
    for name in model.branches:
        arr = sample.streams.get(name)
        if arr is None:
            raise ShapeMismatch(f"missing stream for branch {name!r}")
        if arr.ndim != 2 or arr.shape[1] != model.input_dims[name]:
            raise ShapeMismatch(f"{name}: expected (frames, {model.input_dims[name]}), "
                                f"got {arr.shape}")
        if t_len is not None and arr.shape[0] != t_len:
            raise ShapeMismatch(f"{name}: {arr.shape[0]} frames, but "
                                f"{model.branches[0]} has {t_len}")
        t_len = arr.shape[0]
    return t_len


def pad_batch(model: NetworkModel, samples: list[Sample]):
    """Stack variable-length samples into padded streams plus a prefix mask.

    Every sample needs a (T, input_dims[branch]) stream per branch, all of
    one length T."""
    lengths = [_sample_length(model, s) for s in samples]
    t_max = max(lengths)
    bsz = len(samples)
    mask = np.zeros((bsz, t_max), dtype=bool)
    streams = {name: np.zeros((bsz, t_max, model.input_dims[name])) for name in model.branches}
    for i, (sample, t_i) in enumerate(zip(samples, lengths)):
        mask[i, :t_i] = True
        for name in model.branches:
            streams[name][i, :t_i] = sample.streams[name]
    return streams, mask


# The raw-skeleton stream is already scaled per sequence during feature
# extraction, so its branch keeps identity normalization stats.
UNNORMALIZED_BRANCHES = ("skeleton",)
EVAL_BATCH = 64  # samples per inference-mode forward in `evaluate`


def fit_normalization(model: NetworkModel, samples: list[Sample]) -> None:
    """Per-dimension z-score statistics from the training set, for every
    branch but those of `UNNORMALIZED_BRANCHES`."""
    for name in model.branches:
        if name in UNNORMALIZED_BRANCHES:
            model.norm[name] = {"mean": np.zeros(model.input_dims[name]),
                                "std": np.ones(model.input_dims[name])}
            continue
        stacked = np.concatenate([s.streams[name] for s in samples], axis=0)
        std = stacked.std(axis=0)
        model.norm[name] = {"mean": stacked.mean(axis=0),
                            "std": np.maximum(std, 1e-8)}


def evaluate(model: NetworkModel, samples: list[Sample]):
    """Inference-mode predictions in batches of `EVAL_BATCH`; returns
    (predicted labels, probabilities)."""
    preds = np.empty(len(samples), dtype=int)
    all_probs = np.empty((len(samples), model.classes))
    for start in range(0, len(samples), EVAL_BATCH):
        chunk = samples[start:start + EVAL_BATCH]
        streams, mask = pad_batch(model, chunk)
        probs, _ = forward(model, streams, mask, train_mode=False)
        preds[start:start + len(chunk)] = probs.argmax(axis=1)
        all_probs[start:start + len(chunk)] = probs
    return preds, all_probs


def train(model: NetworkModel, samples: list[Sample],
          config: TrainConfig = TrainConfig()) -> list[EpochStats]:
    """Train in place; returns the per-epoch log.

    Normalization statistics are fit from `samples` before the first update.
    Inference-mode training accuracy costs a pass over `samples` per epoch,
    so it is measured only when `config.stop_accuracy` is above 0 (training
    stops once it is reached) or `config.record_accuracy` is set. Either way
    the updates, and so the trained weights, are the same.
    """
    if not samples:
        raise EmptyDataset("no training samples")
    labels_all = np.array([s.label for s in samples])
    if labels_all.min() < 0 or labels_all.max() >= model.classes:
        raise LabelOutOfRange(
            f"labels must be in [0, {model.classes}), got [{labels_all.min()}, {labels_all.max()}]")
    for sample in samples:  # fit_normalization stacks the streams before pad_batch checks them
        _sample_length(model, sample)

    fit_normalization(model, samples)
    rng = np.random.default_rng(config.rng_seed)
    state = adam_init(model.params)
    measure_accuracy = config.record_accuracy or config.stop_accuracy > 0
    buffers = {}  # every step's LSTM activations, so no step faults in fresh memory
    log: list[EpochStats] = []
    for epoch in range(1, config.epochs + 1):
        started = time.perf_counter()
        order = rng.permutation(len(samples))
        total_loss = 0.0
        norms = []
        for start in range(0, len(samples), config.batch_size):
            batch = [samples[i] for i in order[start:start + config.batch_size]]
            labels = np.array([s.label for s in batch])
            streams, mask = pad_batch(model, batch)
            probs, cache = forward(model, streams, mask, train_mode=True, rng=rng,
                                   buffers=buffers)
            total_loss += cross_entropy(probs, labels) * len(batch)
            grads = backward(model, cache, labels)
            norms.append(clip_gradients(grads, config.clip_norm))
            adam_step(model.params, grads, state, config)
            # of this step, only what `buffers` holds is alive at the next step's forward
            del streams, probs, cache, grads
        accuracy = None
        if measure_accuracy:
            preds, _ = evaluate(model, samples)
            accuracy = float(np.mean(preds == labels_all))
        norms = np.array(norms)
        clipped = float(np.mean(norms > config.clip_norm)) if config.clip_norm > 0 else 0.0
        log.append(EpochStats(epoch, total_loss / len(samples), accuracy,
                              float(norms.mean()), float(norms.max()), clipped,
                              time.perf_counter() - started))
        if config.stop_accuracy > 0 and accuracy >= config.stop_accuracy:
            break
    return log


def predict(model: NetworkModel, streams: dict[str, np.ndarray]):
    """(class id, probability vector) for a single unpadded sample."""
    sample = Sample({k: np.asarray(v) for k, v in streams.items()}, 0)
    preds, probs = evaluate(model, [sample])
    return int(preds[0]), probs[0]


def _array_manifest(model: NetworkModel):
    arrays = [(f"params/{name}", model.params[name]) for name in model.params]
    for branch in model.branches:
        arrays.append((f"norm/{branch}/mean", model.norm[branch]["mean"]))
        arrays.append((f"norm/{branch}/std", model.norm[branch]["std"]))
    return arrays


def save_checkpoint(model: NetworkModel, path: str | Path) -> None:
    """Header (architecture, the model's `dtype` and the array manifest) then
    the arrays as little-endian float64, written atomically. Every float32
    value is a float64 value too, so a float32 model is stored exactly."""
    arrays = _array_manifest(model)
    header = {
        "dtype": model.dtype.name,
        "classes": model.classes,
        "branches": list(model.branches),
        "input_dims": model.input_dims,
        "hidden": model.hidden,
        "fc_out": model.fc_out,
        "head": list(model.head),
        "dropout": model.dropout,
        "bidirectional": model.bidirectional,
        "seed": model.seed,
        "arrays": [[name, list(arr.shape)] for name, arr in arrays],
    }
    container.write(path, CHECKPOINT_MAGIC, header, [arr for _, arr in arrays])


def load_checkpoint(path: str | Path) -> NetworkModel:
    """Rebuild the header's architecture with `init_model` and fill its arrays
    from the payload; the header's manifest and the payload size must match
    that architecture exactly, every value must be finite, every
    normalization `std` positive, and every parameter exactly representable
    in the header's `dtype` ("float32" or "float64"; float64 if the header
    has none, as in checkpoints written before models had a dtype)."""
    header, payload = container.read(path, CHECKPOINT_MAGIC, CheckpointError)
    dropout = header.get("dropout")
    if type(header.get("bidirectional")) is not bool \
            or type(dropout) not in (int, float) or not 0 <= dropout < 1:
        raise CheckpointError(f"{path}: header needs a boolean 'bidirectional' "
                              f"and a 'dropout' in [0, 1)")
    dtype = header.get("dtype", "float64")
    if dtype not in ("float32", "float64"):
        raise CheckpointError(f"{path}: header 'dtype' must be \"float32\" or \"float64\", "
                              f"got {dtype!r}")
    try:
        model = init_model(header["branches"], header["input_dims"], header["classes"],
                           header["hidden"], header["fc_out"], header["head"],
                           dropout, header["bidirectional"], header["seed"], dtype)
    except (KeyError, TypeError, ValueError, OverflowError, NetworkError) as e:
        raise CheckpointError(f"{path}: bad architecture in header: {e!r}") from e
    arrays = _array_manifest(model)
    if header.get("arrays") != [[name, list(arr.shape)] for name, arr in arrays] \
            or payload.size != sum(arr.size for _, arr in arrays):
        raise CheckpointError(f"{path}: array manifest or payload size does not match "
                              f"the architecture in the header")
    offset = 0
    for name, arr in arrays:
        values = payload[offset:offset + arr.size].reshape(arr.shape)
        offset += arr.size
        if not np.isfinite(values).all():
            raise CheckpointError(f"{path}: array {name} holds a non-finite value")
        with np.errstate(over="ignore"):  # a finite value beyond float32's range fails below
            arr[...] = values
        if not np.array_equal(arr, values):
            raise CheckpointError(f"{path}: array {name} holds a value that {dtype} "
                                  f"cannot represent exactly")
        if name.endswith("/std") and not (arr > 0).all():
            raise CheckpointError(f"{path}: array {name} holds a non-positive value")
    return model
