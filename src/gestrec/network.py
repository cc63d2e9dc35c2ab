"""Three-branch recurrent classifier built on plain numpy.

Each feature branch (global motion, finger motion, raw skeleton) runs two
bidirectional LSTM layers and one FC layer; branch outputs are concatenated
into an FC head ending in a softmax. Backpropagation through time is exact,
training uses Adam with optional global-norm gradient clipping, and every
run is deterministic given its seed on a single thread.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import container
from .dataset import EmptyDataset
from .errors import GestrecError

CHECKPOINT_MAGIC = "GESTREC-CKPT 1"
PROB_FLOOR = 1e-12


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


@dataclass
class Sample:
    """One training/evaluation item: per-branch (T, d) streams and a 0-based label."""

    streams: dict[str, np.ndarray]
    label: int


@dataclass
class EpochStats:
    epoch: int
    loss: float
    accuracy: float


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
               seed: int = 0) -> NetworkModel:
    """Build a model with uniform(+/- 1/sqrt(fan_in)) weights, zero biases and
    forget-gate bias +1."""
    model = NetworkModel(tuple(branches), dict(input_dims), classes, hidden,
                         fc_out, tuple(head), dropout, bidirectional, seed)
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
        if name not in input_dims:
            raise ShapeMismatch(f"missing input dim for branch {name!r}")
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

    for name in model.branches:
        model.norm[name] = {"mean": np.zeros(input_dims[name]),
                            "std": np.ones(input_dims[name])}
    return model


def lstm_forward(w, u, b, x, mask, reverse=False):
    """One LSTM direction over a padded batch.

    `x` is (B, T, d), `mask` (B, T) with valid steps as a prefix. Masked steps
    copy the previous hidden/cell state; the reverse direction consumes time
    back-to-front so its state at position t summarizes x_t..x_last.
    Returns (hidden (B, T, h), cache for backward); the cache's `gates` hold
    the (i, f, g, o) activations.
    """
    bsz, t_len, d = x.shape
    h = u.shape[1]
    # sigmoid(z) = 0.5 + 0.5 tanh(z / 2): with the i, f, o rows scaled by 0.5,
    # tanh(z * scale) * scale + shift gives all four gates with one tanh
    scale = np.full(4 * h, 0.5)
    scale[2 * h:3 * h] = 1.0
    shift = 1.0 - scale
    # every step's input projection in one GEMM; the loop adds only h_prev @ U
    gates = ((x.reshape(-1, d) @ w.T + b) * scale).reshape(bsz, t_len, 4 * h)
    u_scaled = u.T * scale
    hidden = np.zeros((bsz, t_len, h))
    cell = np.zeros((bsz, t_len, h))
    h_prev = np.zeros((bsz, h))
    c_prev = np.zeros((bsz, h))
    order = range(t_len - 1, -1, -1) if reverse else range(t_len)
    for t in order:
        m = mask[:, t:t + 1]
        g = gates[:, t]
        g += h_prev @ u_scaled
        np.tanh(g, out=g)
        g *= scale
        g += shift
        c_new = g[:, h:2 * h] * c_prev + g[:, :h] * g[:, 2 * h:3 * h]
        h_new = g[:, 3 * h:] * np.tanh(c_new)
        h_prev = np.where(m, h_new, h_prev)
        c_prev = np.where(m, c_new, c_prev)
        hidden[:, t] = h_prev
        cell[:, t] = c_prev
    cache = {"x": x, "mask": mask, "hidden": hidden, "cell": cell,
             "gates": gates, "w": w, "u": u, "reverse": reverse}
    return hidden, cache


def lstm_backward(cache, d_hidden):
    """Exact BPTT for one direction. Returns (dW, dU, db, dz).

    dz (B, T, 4h), the gradient at the gate pre-activations, is
        dz_i = dc * g * i(1 - i)        dz_f = dc * c_prev * f(1 - f)
        dz_g = dc * i * (1 - g^2)       dz_o = dh * tanh(c) * o(1 - o)
    on valid steps and 0 on masked ones. Every factor but dc and dh is filled
    in for all steps up front; the time loop only carries dh and dc back and
    scales dz by them. dW, dU and db are then one reduction each over dz; the
    input gradient, for a caller that needs it, is `dz @ W`.
    """
    x, mask = cache["x"], cache["mask"]
    hidden, cell, gates = cache["hidden"], cache["cell"], cache["gates"]
    u = cache["u"]
    bsz, t_len, d = x.shape
    h = u.shape[1]
    reverse = cache["reverse"]
    # the first step processed starts from the zero state; every other step t
    # starts from the state at t_prev (t + 1 in reverse, else t - 1)
    first = t_len - 1 if reverse else 0
    t_has_prev, t_prev = ((slice(0, -1), slice(1, None)) if reverse
                          else (slice(1, None), slice(0, -1)))
    valid = mask[:, :, None]
    gi, gf, gg, go = (gates[..., k * h:(k + 1) * h] for k in range(4))
    dz = 1.0 - gates
    dz *= gates  # i(1 - i), f(1 - f), o(1 - o); the g block is replaced below
    dz_i, dz_f, dz_g, dz_o = (dz[..., k * h:(k + 1) * h] for k in range(4))
    dz_i *= gg
    dz_f[:, t_has_prev] *= cell[:, t_prev]
    dz_f[:, first] = 0.0
    np.multiply(gg, gg, out=dz_g)
    np.subtract(1.0, dz_g, out=dz_g)
    dz_g *= gi
    tanh_c = np.tanh(cell)
    dz_o *= tanh_c
    dz *= valid
    # dc/dh through h = o * tanh(c), 0 on masked steps (in tanh_c's buffer)
    dc_dh = np.multiply(tanh_c, tanh_c, out=tanh_c)
    np.subtract(1.0, dc_dh, out=dc_dh)
    dc_dh *= go
    dc_dh *= valid

    dz4 = dz.reshape(bsz, t_len, 4, h)
    dh_carry = np.zeros((bsz, h))
    dc = np.zeros((bsz, h))
    for t in (range(t_len) if reverse else range(t_len - 1, -1, -1)):
        dh = d_hidden[:, t] + dh_carry
        dc += dh * dc_dh[:, t]
        dz4[:, t, :3] *= dc[:, None]
        dz4[:, t, 3] *= dh
        dh_carry = np.where(mask[:, t:t + 1], dz[:, t] @ u, dh)
        # Valid steps form a prefix, so a masked step either precedes every
        # valid one here (forward: dc is still 0) or follows them all
        # (reverse: its dc reaches no valid step); gf needs no mask.
        dc *= gf[:, t]

    dz2 = dz.reshape(-1, 4 * h)
    dw = dz2.T @ x.reshape(-1, d)
    db = dz2.sum(axis=0)
    # dU pairs each step's dz with h at t_prev. With the first step's dz
    # zeroed (its h_prev is 0), shifting the flat (B*T) rows by one pairs
    # every row correctly, so one GEMM over views does it without a copy.
    dz_first = dz[:, first].copy()
    dz[:, first] = 0.0
    h2 = hidden.reshape(-1, h)
    du = dz2[:-1].T @ h2[1:] if reverse else dz2[1:].T @ h2[:-1]
    dz[:, first] = dz_first
    return dw, du, db, dz


def _validate_batch(model, streams, mask):
    mask = np.asarray(mask)
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


def _bilstm_forward(model, prefix, x, mask):
    """Every direction of one LSTM layer. Returns the (B, T, h) hidden states
    and the (prefix, cache) pairs of each direction, forward first."""
    outputs, layer = [], []
    for direction in model.directions:
        p = f"{prefix}.{direction}"
        hseq, layer_cache = lstm_forward(
            model.params[f"{p}.W"], model.params[f"{p}.U"], model.params[f"{p}.b"],
            x, mask, reverse=direction == "bwd")
        outputs.append(hseq)
        layer.append((p, layer_cache))
    return outputs, layer


def _bilstm_backward(layer, d_out, grads, input_grad):
    """Gradients of one `_bilstm_forward` layer from d_out (B, T, dirs * h),
    written into `grads`; returns the input gradient if `input_grad`."""
    d_x = None
    for i, (p, layer_cache) in enumerate(layer):
        h = layer_cache["u"].shape[1]
        grads[f"{p}.W"], grads[f"{p}.U"], grads[f"{p}.b"], dz = lstm_backward(
            layer_cache, d_out[:, :, i * h:(i + 1) * h])
        if input_grad:
            part = (dz.reshape(-1, 4 * h) @ layer_cache["w"]).reshape(layer_cache["x"].shape)
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
            dropout_masks: dict[str, np.ndarray] | None = None):
    """Class probabilities for a padded batch; returns (probs, cache).

    In train mode inverted dropout follows every LSTM and FC layer. Unless
    explicit `dropout_masks` are supplied, each mask is drawn from `rng` when
    it is first used: per branch `l1`, `summary`, `fc`, then `head.0`, ...,
    `head.out`. The cache records the masks so gradients and finite
    differences see the same network.
    """
    mask = _validate_batch(model, streams, mask)
    bsz = mask.shape[0]
    last_idx = mask.sum(axis=1).astype(int) - 1
    rows = np.arange(bsz)
    use_dropout = train_mode and model.dropout > 0.0
    if use_dropout and dropout_masks is None:
        if rng is None:
            raise NetworkError("train-mode forward needs an rng (or explicit dropout masks)")
        dropout_masks = {}

    def dropped(x, key):
        if not use_dropout:
            return x
        if key not in dropout_masks:
            keep = (rng.random(x.shape) >= model.dropout).astype(np.float64)
            dropout_masks[key] = keep / (1.0 - model.dropout)
        return x * dropout_masks[key]

    cache = {"mask": mask, "last_idx": last_idx, "dropout": dropout_masks if use_dropout else None,
             "branches": {}}
    branch_outputs = []
    for name in model.branches:
        stats = model.norm[name]
        x = (streams[name] - stats["mean"]) / stats["std"]
        h1, l1 = _bilstm_forward(model, f"{name}.l1", x, mask)
        h2, l2 = _bilstm_forward(model, f"{name}.l2",
                                 dropped(np.concatenate(h1, axis=2), f"{name}.l1"), mask)
        # forward direction at each sample's last valid step, backward at step 0
        summary = np.concatenate([h2[0][rows, last_idx], *(hb[:, 0] for hb in h2[1:])], axis=1)
        branch_out, fc = _dense_forward(model, [f"{name}.fc"],
                                        dropped(summary, f"{name}.summary"), dropped)
        cache["branches"][name] = (l1, l2, fc)
        branch_outputs.append(branch_out)

    head = [f"head.{i}" for i in range(len(model.head))] + ["head.out"]
    logits, cache["head"] = _dense_forward(model, head, np.concatenate(branch_outputs, axis=1),
                                           dropped)
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
    `model.params` order."""
    labels = np.asarray(labels)
    probs = cache["probs"]
    bsz, classes = probs.shape
    if labels.min() < 0 or labels.max() >= classes:
        raise LabelOutOfRange(f"labels out of range for {classes} classes")
    mask = cache["mask"]
    last_idx = cache["last_idx"]
    rows = np.arange(bsz)
    h = model.hidden
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
    da = _dense_backward(model, cache["head"], probs * (dldp - inner), undrop, grads)
    for i, name in enumerate(model.branches):
        l1, l2, fc = cache["branches"][name]
        d_fc = da[:, i * model.fc_out:(i + 1) * model.fc_out]
        d_summary = undrop(_dense_backward(model, fc, d_fc, undrop, grads), f"{name}.summary")
        d_h2 = np.zeros((bsz, mask.shape[1], model.summary_dim))
        d_h2[rows, last_idx, :h] = d_summary[:, :h]
        d_h2[:, 0, h:] = d_summary[:, h:]
        d_h1 = _bilstm_backward(l2, d_h2, grads, input_grad=True)
        _bilstm_backward(l1, undrop(d_h1, f"{name}.l1"), grads, input_grad=False)
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
    """Standard bias-corrected Adam update, in place."""
    state.t += 1
    b1, b2 = config.beta1, config.beta2
    correction1 = 1.0 - b1 ** state.t
    correction2 = 1.0 - b2 ** state.t
    for key, p in params.items():
        g = grads[key]
        state.m[key] = b1 * state.m[key] + (1.0 - b1) * g
        state.v[key] = b2 * state.v[key] + (1.0 - b2) * g * g
        m_hat = state.m[key] / correction1
        v_hat = state.v[key] / correction2
        p -= config.learning_rate * m_hat / (np.sqrt(v_hat) + config.epsilon)
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


def fit_normalization(model: NetworkModel, samples: list[Sample],
                      skip: tuple[str, ...] = ("skeleton",)) -> None:
    """Per-dimension z-score statistics from the training set.

    The raw-skeleton branch keeps identity stats: its scaling is already done
    per sequence during feature extraction.
    """
    for name in model.branches:
        if name in skip:
            model.norm[name] = {"mean": np.zeros(model.input_dims[name]),
                                "std": np.ones(model.input_dims[name])}
            continue
        stacked = np.concatenate([s.streams[name] for s in samples], axis=0)
        std = stacked.std(axis=0)
        model.norm[name] = {"mean": stacked.mean(axis=0),
                            "std": np.maximum(std, 1e-8)}


def evaluate(model: NetworkModel, samples: list[Sample], batch_size: int = 64):
    """Inference-mode predictions; returns (predicted labels, probabilities)."""
    preds = np.empty(len(samples), dtype=int)
    all_probs = np.empty((len(samples), model.classes))
    for start in range(0, len(samples), batch_size):
        chunk = samples[start:start + batch_size]
        streams, mask = pad_batch(model, chunk)
        probs, _ = forward(model, streams, mask, train_mode=False)
        preds[start:start + len(chunk)] = probs.argmax(axis=1)
        all_probs[start:start + len(chunk)] = probs
    return preds, all_probs


def train(model: NetworkModel, samples: list[Sample],
          config: TrainConfig = TrainConfig()) -> list[EpochStats]:
    """Train in place; returns the per-epoch (loss, train accuracy) log.

    Normalization statistics are fit from `samples` before the first update.
    Early-stops once inference-mode training accuracy reaches
    `config.stop_accuracy` (if set above 0).
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
    log: list[EpochStats] = []
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(len(samples))
        total_loss = 0.0
        for start in range(0, len(samples), config.batch_size):
            batch = [samples[i] for i in order[start:start + config.batch_size]]
            labels = np.array([s.label for s in batch])
            streams, mask = pad_batch(model, batch)
            probs, cache = forward(model, streams, mask, train_mode=True, rng=rng)
            total_loss += cross_entropy(probs, labels) * len(batch)
            grads = backward(model, cache, labels)
            clip_gradients(grads, config.clip_norm)
            adam_step(model.params, grads, state, config)
        preds, _ = evaluate(model, samples)
        accuracy = float(np.mean(preds == labels_all))
        log.append(EpochStats(epoch, total_loss / len(samples), accuracy))
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
    """Header (architecture + array manifest) then the float64 LE arrays, written atomically."""
    arrays = _array_manifest(model)
    header = {
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
    that architecture exactly."""
    header, payload = container.read(path, CHECKPOINT_MAGIC, CheckpointError)
    dropout = header.get("dropout")
    if type(header.get("bidirectional")) is not bool \
            or type(dropout) not in (int, float) or not 0 <= dropout < 1:
        raise CheckpointError(f"{path}: header needs a boolean 'bidirectional' "
                              f"and a 'dropout' in [0, 1)")
    try:
        model = init_model(header["branches"], header["input_dims"], header["classes"],
                           header["hidden"], header["fc_out"], header["head"],
                           dropout, header["bidirectional"], header["seed"])
    except (KeyError, TypeError, ValueError, OverflowError, NetworkError) as e:
        raise CheckpointError(f"{path}: bad architecture in header: {e!r}") from e
    arrays = _array_manifest(model)
    if header.get("arrays") != [[name, list(arr.shape)] for name, arr in arrays] \
            or payload.size != sum(arr.size for _, arr in arrays):
        raise CheckpointError(f"{path}: array manifest or payload size does not match "
                              f"the architecture in the header")
    offset = 0
    for _, arr in arrays:
        arr[...] = payload[offset:offset + arr.size].reshape(arr.shape)
        offset += arr.size
    return model
