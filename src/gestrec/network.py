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


def _sigmoid(x):
    # exp(-|x|) never overflows; it is exp(-x) where x >= 0 and exp(x) elsewhere
    ex = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + ex), ex / (1.0 + ex))


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
    Returns (hidden (B, T, h), cache for backward).
    """
    bsz, t_len, _ = x.shape
    h = u.shape[1]
    hidden = np.zeros((bsz, t_len, h))
    cell = np.zeros((bsz, t_len, h))
    gates = np.zeros((bsz, t_len, 4 * h))
    h_prev = np.zeros((bsz, h))
    c_prev = np.zeros((bsz, h))
    order = range(t_len - 1, -1, -1) if reverse else range(t_len)
    for t in order:
        m = mask[:, t:t + 1]
        z = x[:, t] @ w.T + h_prev @ u.T + b
        g = gates[:, t]
        g[:] = _sigmoid(z)
        gi, gf, gg, go = g[:, :h], g[:, h:2 * h], g[:, 2 * h:3 * h], g[:, 3 * h:]
        gg[:] = np.tanh(z[:, 2 * h:3 * h])
        c_new = gf * c_prev + gi * gg
        h_new = go * np.tanh(c_new)
        h_prev = np.where(m, h_new, h_prev)
        c_prev = np.where(m, c_new, c_prev)
        hidden[:, t] = h_prev
        cell[:, t] = c_prev
    cache = {"x": x, "mask": mask, "hidden": hidden, "cell": cell,
             "gates": gates, "w": w, "u": u, "reverse": reverse}
    return hidden, cache


def lstm_backward(cache, d_hidden):
    """Exact BPTT for one direction. Returns (dW, dU, db, dX)."""
    x, mask = cache["x"], cache["mask"]
    hidden, cell, gates = cache["hidden"], cache["cell"], cache["gates"]
    w, u = cache["w"], cache["u"]
    bsz, t_len, _ = x.shape
    h = u.shape[1]
    dw = np.zeros_like(w)
    du = np.zeros_like(u)
    db = np.zeros(4 * h)
    dx = np.zeros_like(x)
    dh_carry = np.zeros((bsz, h))
    dc_carry = np.zeros((bsz, h))
    order = list(range(t_len - 1, -1, -1)) if cache["reverse"] else list(range(t_len))
    for k in range(len(order) - 1, -1, -1):
        t = order[k]
        m = mask[:, t:t + 1].astype(np.float64)
        if k > 0:
            h_prev = hidden[:, order[k - 1]]
            c_prev = cell[:, order[k - 1]]
        else:
            h_prev = np.zeros((bsz, h))
            c_prev = np.zeros((bsz, h))
        dh = d_hidden[:, t] + dh_carry
        dc = dc_carry

        gi = gates[:, t, :h]
        gf = gates[:, t, h:2 * h]
        gg = gates[:, t, 2 * h:3 * h]
        go = gates[:, t, 3 * h:]
        tanh_c = np.tanh(cell[:, t])

        do = dh * tanh_c
        dc_valid = dc + dh * go * (1.0 - tanh_c * tanh_c)
        di = dc_valid * gg
        df = dc_valid * c_prev
        dg = dc_valid * gi
        dz = np.concatenate([
            di * gi * (1.0 - gi),
            df * gf * (1.0 - gf),
            dg * (1.0 - gg * gg),
            do * go * (1.0 - go),
        ], axis=1) * m

        dw += dz.T @ x[:, t]
        du += dz.T @ h_prev
        db += dz.sum(axis=0)
        dx[:, t] = dz @ w
        dh_carry = dz @ u + dh * (1.0 - m)
        dc_carry = dc_valid * gf * m + dc * (1.0 - m)
    return dw, du, db, dx


def _validate_batch(model, streams, mask):
    mask = np.asarray(mask)
    if mask.ndim != 2:
        raise InvalidMask(f"mask must be (batch, time), got {mask.shape}")
    if np.any(mask[:, 1:] & ~mask[:, :-1]):
        raise InvalidMask("mask has holes: valid steps must form a prefix")
    if not mask[:, 0].all():
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


def _make_dropout_masks(model, shapes, rng):
    masks = {}
    p = model.dropout
    for name, shape in shapes.items():
        keep = (rng.random(shape) >= p).astype(np.float64)
        masks[name] = keep / (1.0 - p)
    return masks


def forward(model: NetworkModel, streams: dict[str, np.ndarray], mask: np.ndarray,
            train_mode: bool = False, rng: np.random.Generator | None = None,
            dropout_masks: dict[str, np.ndarray] | None = None):
    """Class probabilities for a padded batch; returns (probs, cache).

    In train mode inverted dropout follows every LSTM and FC layer, sampling
    masks from `rng` unless explicit `dropout_masks` are supplied (the cache
    records them so gradients and finite differences see the same network).
    """
    mask = _validate_batch(model, streams, mask)
    bsz, t_len = mask.shape
    lengths = mask.sum(axis=1).astype(int)
    last_idx = lengths - 1
    rows = np.arange(bsz)
    use_dropout = train_mode and model.dropout > 0.0

    if use_dropout and dropout_masks is None:
        if rng is None:
            raise NetworkError("train-mode forward needs an rng (or explicit dropout masks)")
        shapes = {}
        for name in model.branches:
            shapes[f"{name}.l1"] = (bsz, t_len, model.summary_dim)
            shapes[f"{name}.summary"] = (bsz, model.summary_dim)
            shapes[f"{name}.fc"] = (bsz, model.fc_out)
        for i in range(len(model.head)):
            shapes[f"head.{i}"] = (bsz, model.head[i])
        shapes["head.out"] = (bsz, model.classes)
        dropout_masks = _make_dropout_masks(model, shapes, rng)

    def dropped(x, key):
        if not use_dropout:
            return x
        return x * dropout_masks[key]

    cache = {"mask": mask, "last_idx": last_idx, "dropout": dropout_masks if use_dropout else None,
             "branches": {}, "train_mode": train_mode}
    branch_outputs = []
    for name in model.branches:
        stats = model.norm[name]
        x = (streams[name] - stats["mean"]) / stats["std"]
        bc = {}
        seq_parts = []
        for direction in model.directions:
            p = f"{name}.l1.{direction}"
            hseq, bc[f"l1.{direction}"] = lstm_forward(
                model.params[f"{p}.W"], model.params[f"{p}.U"], model.params[f"{p}.b"],
                x, mask, reverse=direction == "bwd")
            seq_parts.append(hseq)
        h1 = np.concatenate(seq_parts, axis=2)
        h1d = dropped(h1, f"{name}.l1")

        summaries = []
        for direction in model.directions:
            p = f"{name}.l2.{direction}"
            hseq, bc[f"l2.{direction}"] = lstm_forward(
                model.params[f"{p}.W"], model.params[f"{p}.U"], model.params[f"{p}.b"],
                h1d, mask, reverse=direction == "bwd")
            if direction == "fwd":
                summaries.append(hseq[rows, last_idx])
            else:
                summaries.append(hseq[:, 0])
        summary = np.concatenate(summaries, axis=1)
        summary_d = dropped(summary, f"{name}.summary")

        fc_pre = summary_d @ model.params[f"{name}.fc.W"].T + model.params[f"{name}.fc.b"]
        fc_act = np.maximum(fc_pre, 0.0)
        branch_out = dropped(fc_act, f"{name}.fc")
        bc.update(fc_in=summary_d, fc_pre=fc_pre)
        cache["branches"][name] = bc
        branch_outputs.append(branch_out)

    z = np.concatenate(branch_outputs, axis=1)
    cache["head"] = {"inputs": [], "pres": []}
    a = z
    for i in range(len(model.head)):
        cache["head"]["inputs"].append(a)
        pre = a @ model.params[f"head.{i}.W"].T + model.params[f"head.{i}.b"]
        cache["head"]["pres"].append(pre)
        a = dropped(np.maximum(pre, 0.0), f"head.{i}")
    cache["head"]["inputs"].append(a)
    logits = a @ model.params["head.out.W"].T + model.params["head.out.b"]
    logits = dropped(logits, "head.out")

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
    """Exact gradients of the mean cross-entropy for every parameter."""
    labels = np.asarray(labels)
    probs = cache["probs"]
    bsz, classes = probs.shape
    if labels.min() < 0 or labels.max() >= classes:
        raise LabelOutOfRange(f"labels out of range for {classes} classes")
    mask = cache["mask"]
    last_idx = cache["last_idx"]
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
    dlogits_dropped = probs * (dldp - inner)
    dlogits = undrop(dlogits_dropped, "head.out")

    grads = {name: np.zeros_like(arr) for name, arr in model.params.items()}

    a_last = cache["head"]["inputs"][-1]
    grads["head.out.W"] += dlogits.T @ a_last
    grads["head.out.b"] += dlogits.sum(axis=0)
    da = dlogits @ model.params["head.out.W"]
    for i in range(len(model.head) - 1, -1, -1):
        da = undrop(da, f"head.{i}")
        dpre = da * (cache["head"]["pres"][i] > 0)
        grads[f"head.{i}.W"] += dpre.T @ cache["head"]["inputs"][i]
        grads[f"head.{i}.b"] += dpre.sum(axis=0)
        da = dpre @ model.params[f"head.{i}.W"]

    offset = 0
    for name in model.branches:
        bc = cache["branches"][name]
        d_branch = da[:, offset:offset + model.fc_out]
        offset += model.fc_out

        d_fc_act = undrop(d_branch, f"{name}.fc")
        d_fc_pre = d_fc_act * (bc["fc_pre"] > 0)
        grads[f"{name}.fc.W"] += d_fc_pre.T @ bc["fc_in"]
        grads[f"{name}.fc.b"] += d_fc_pre.sum(axis=0)
        d_summary_d = d_fc_pre @ model.params[f"{name}.fc.W"]
        d_summary = undrop(d_summary_d, f"{name}.summary")

        h = model.hidden
        d_h1d = None
        for d_i, direction in enumerate(model.directions):
            part = d_summary[:, d_i * h:(d_i + 1) * h]
            layer_cache = bc[f"l2.{direction}"]
            d_hidden = np.zeros_like(layer_cache["hidden"])
            if direction == "fwd":
                d_hidden[rows, last_idx] = part
            else:
                d_hidden[:, 0] = part
            dw, du, dbias, dx = lstm_backward(layer_cache, d_hidden)
            p = f"{name}.l2.{direction}"
            grads[f"{p}.W"] += dw
            grads[f"{p}.U"] += du
            grads[f"{p}.b"] += dbias
            d_h1d = dx if d_h1d is None else d_h1d + dx

        d_h1 = undrop(d_h1d, f"{name}.l1")
        for d_i, direction in enumerate(model.directions):
            layer_cache = bc[f"l1.{direction}"]
            dw, du, dbias, _ = lstm_backward(layer_cache, d_h1[:, :, d_i * h:(d_i + 1) * h])
            p = f"{name}.l1.{direction}"
            grads[f"{p}.W"] += dw
            grads[f"{p}.U"] += du
            grads[f"{p}.b"] += dbias
    return grads


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


def pad_batch(model: NetworkModel, samples: list[Sample]):
    """Stack variable-length samples into padded streams plus a prefix mask."""
    t_max = max(s.streams[model.branches[0]].shape[0] for s in samples)
    bsz = len(samples)
    mask = np.zeros((bsz, t_max), dtype=bool)
    streams = {name: np.zeros((bsz, t_max, model.input_dims[name])) for name in model.branches}
    for i, sample in enumerate(samples):
        t_i = sample.streams[model.branches[0]].shape[0]
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
