import dataclasses
import inspect
import json
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

import gestrec.network as network
from gestrec.network import (
    CheckpointError,
    Diverged,
    EmptyDataset,
    InvalidMask,
    LabelOutOfRange,
    NetworkError,
    Sample,
    ShapeMismatch,
    TrainConfig,
    adam_init,
    adam_step,
    backward,
    cross_entropy,
    evaluate,
    fit_normalization,
    forward,
    init_model,
    load_checkpoint,
    predict,
    save_checkpoint,
    train,
)

from gradcheck import max_relative_error, random_batch, random_tiny_model


def small_model(dropout=0.0, seed=1, classes=4, bidirectional=True, dtype=np.float32):
    dims = {"global": 5, "finger": 7, "skeleton": 6}
    return init_model(("global", "finger", "skeleton"), dims, classes=classes,
                      hidden=3, fc_out=4, head=(6, 5), dropout=dropout,
                      bidirectional=bidirectional, seed=seed, dtype=dtype)


def batch_for(model, rng, batch=3, t_len=6, lengths=None):
    lengths = lengths or [t_len] * batch
    mask = np.zeros((batch, t_len), dtype=bool)
    for i, length in enumerate(lengths):
        mask[i, :length] = True
    streams = {name: rng.normal(0, 1, (batch, t_len, dim))
               for name, dim in model.input_dims.items()}
    return streams, mask


# ---------------------------------------------------------------- LSTM core
#
# The layer functions run on the packed rows `forward` builds; these helpers
# go between them and padded (B, T, ...) arrays, every direction in forward
# time order.

def layer_model(d, h, bidirectional=True, rng=None, dtype=np.float32):
    """A one-branch model whose `b.l1` layer the tests drive directly, with
    N(0, 0.7) layer parameters if `rng` is given."""
    model = init_model(("b",), {"b": d}, classes=2, hidden=h, fc_out=2, head=(),
                       dropout=0.0, bidirectional=bidirectional, dtype=dtype)
    if rng is not None:
        for key in model.params:
            if key.startswith("b.l1."):
                model.params[key] = rng.normal(0, 0.7, model.params[key].shape).astype(dtype)
    return model


def run_layer(model, x, lengths, buffers=None):
    """Layer `b.l1` on a padded (B, T, d) input, rounded to the model's
    dtype; returns (pack, hidden, layer cache (prefix, input, gates))."""
    pack = network._pack(np.arange(x.shape[1]) < np.array(lengths)[:, None])
    x = network._packed(x, pack).astype(model.dtype)
    hidden, gates = network._bilstm_forward(model, [("b.l1", x)], pack, True, buffers)
    return pack, hidden, ("b.l1", x, gates)


def to_padded(packed, pack, shape):
    """Packed (N, dirs, ...) rows, each direction in its own time order, as a
    zero-padded (B, T, dirs, ...) array in forward time order."""
    rows = network._flip_reverse(packed, pack)
    out = np.zeros((shape[0] * shape[1],) + rows.shape[1:])
    out[pack.gather] = rows
    return out.reshape(shape + rows.shape[1:])


def test_zero_parameter_lstm_outputs_zero():
    rng = np.random.default_rng(0)
    model = layer_model(3, 2)
    for key in model.params:
        model.params[key][:] = 0.0
    _, hidden, _ = run_layer(model, rng.normal(size=(2, 5, 3)), [5, 3])
    assert hidden.shape == (8, 2, 2)
    np.testing.assert_array_equal(hidden, 0.0)


def test_scalar_lstm_matches_hand_computation():
    # d = h = 1, two steps, gate order (input, forget, cell, output)
    w = np.array([[0.5], [-0.3], [0.8], [0.2]])
    u = np.array([[0.1], [0.4], [-0.2], [0.3]])
    b = np.array([0.05, 1.0, -0.1, 0.2])
    xs = [0.7, -1.2]

    def sigmoid(v):
        return 1.0 / (1.0 + math.exp(-v))

    def oracle(seq):  # explicit scalar recurrence
        h_prev = c_prev = 0.0
        state_track = []
        for x in seq:
            gi = sigmoid(w[0, 0] * x + u[0, 0] * h_prev + b[0])
            gf = sigmoid(w[1, 0] * x + u[1, 0] * h_prev + b[1])
            gg = math.tanh(w[2, 0] * x + u[2, 0] * h_prev + b[2])
            go = sigmoid(w[3, 0] * x + u[3, 0] * h_prev + b[3])
            c_prev = gf * c_prev + gi * gg
            h_prev = go * math.tanh(c_prev)
            state_track.append(h_prev)
        return state_track

    model = layer_model(1, 1, dtype=np.float64)
    for direction in model.directions:
        for name, value in (("W", w), ("U", u), ("b", b)):
            model.params[f"b.l1.{direction}.{name}"] = value
    pack, hidden, _ = run_layer(model, np.array(xs).reshape(1, 2, 1), [2])
    padded = to_padded(hidden, pack, (1, 2))
    np.testing.assert_allclose(padded[0, :, 0, 0], oracle(xs), atol=1e-14)
    # the reverse direction at step t has read x_last..x_t
    np.testing.assert_allclose(padded[0, :, 1, 0], oracle(xs[::-1])[::-1], atol=1e-14)


def test_padded_steps_are_not_computed():
    rng = np.random.default_rng(1)
    model = layer_model(3, 2, rng=rng)
    x = rng.normal(size=(1, 7, 3))
    pack, hidden, _ = run_layer(model, x, [4])
    x[0, 4:] = np.nan  # padded steps are never read
    _, hidden_nan, _ = run_layer(model, x, [4])
    assert hidden.shape == (4, 2, 2) and [rows for _, rows in pack.steps] == [1, 1, 1, 1]
    np.testing.assert_array_equal(hidden_nan, hidden)
    _, alone, _ = run_layer(model, x[:, :4], [4])
    np.testing.assert_array_equal(hidden, alone)
    # both directions' summaries sit on the sample's last row: forward at
    # step 3, reverse at step 0 after reading x_3..x_0
    padded = to_padded(hidden, pack, (1, 7))
    np.testing.assert_array_equal(hidden[pack.last[0], 0], padded[0, 3, 0])
    np.testing.assert_array_equal(hidden[pack.last[0], 1], padded[0, 0, 1])
    np.testing.assert_array_equal(padded[0, 4:], 0.0)


def _oracle_sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def _oracle_lstm_forward(w, u, b, x, mask, reverse=False):
    """One direction over a padded batch, the per-step kernel the packed
    layer replaced: every GEMM and every gate activation inside the time
    loop, and masked steps copying the previous state."""
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
        gi = _oracle_sigmoid(z[:, :h])
        gf = _oracle_sigmoid(z[:, h:2 * h])
        gg = np.tanh(z[:, 2 * h:3 * h])
        go = _oracle_sigmoid(z[:, 3 * h:])
        gates[:, t] = np.concatenate([gi, gf, gg, go], axis=1)
        c_new = gf * c_prev + gi * gg
        h_new = go * np.tanh(c_new)
        h_prev = np.where(m, h_new, h_prev)
        c_prev = np.where(m, c_new, c_prev)
        hidden[:, t] = h_prev
        cell[:, t] = c_prev
    return hidden, gates, cell


def _oracle_lstm_backward(w, u, x, mask, hidden, cell, gates, reverse, d_hidden):
    """Per-step BPTT with the weight-gradient GEMMs inside the loop."""
    bsz, t_len, _ = x.shape
    h = u.shape[1]
    dw, du, db, dx = np.zeros_like(w), np.zeros_like(u), np.zeros(4 * h), np.zeros_like(x)
    dh_carry = np.zeros((bsz, h))
    dc_carry = np.zeros((bsz, h))
    order = list(range(t_len - 1, -1, -1)) if reverse else list(range(t_len))
    for k in range(len(order) - 1, -1, -1):
        t = order[k]
        m = mask[:, t:t + 1].astype(np.float64)
        h_prev = hidden[:, order[k - 1]] if k > 0 else np.zeros((bsz, h))
        c_prev = cell[:, order[k - 1]] if k > 0 else np.zeros((bsz, h))
        dh = d_hidden[:, t] + dh_carry
        dc = dc_carry
        gi, gf = gates[:, t, :h], gates[:, t, h:2 * h]
        gg, go = gates[:, t, 2 * h:3 * h], gates[:, t, 3 * h:]
        tanh_c = np.tanh(cell[:, t])
        do = dh * tanh_c
        dc_valid = dc + dh * go * (1.0 - tanh_c * tanh_c)
        dz = np.concatenate([
            dc_valid * gg * gi * (1.0 - gi),
            dc_valid * c_prev * gf * (1.0 - gf),
            dc_valid * gi * (1.0 - gg * gg),
            do * go * (1.0 - go),
        ], axis=1) * m
        dw += dz.T @ x[:, t]
        du += dz.T @ h_prev
        db += dz.sum(axis=0)
        dx[:, t] = dz @ w
        dh_carry = dz @ u + dh * (1.0 - m)
        dc_carry = dc_valid * gf * m + dc * (1.0 - m)
    return dw, du, db, dx


@pytest.mark.parametrize("bidirectional", [False, True])
@pytest.mark.parametrize("lengths", [[5], [7, 4, 1, 6]])
def test_lstm_matches_per_step_oracle(lengths, bidirectional):
    rng = np.random.default_rng(40 + len(lengths))
    d, h, t_len = 5, 3, 7
    model = layer_model(d, h, bidirectional, rng, dtype=np.float64)
    x = rng.normal(size=(len(lengths), t_len, d))
    mask = np.arange(t_len) < np.array(lengths)[:, None]
    dirs = len(model.directions)
    # padded steps have no hidden state, so nothing flows back from them
    d_hidden = rng.normal(size=(len(lengths), t_len, dirs, h)) * mask[:, :, None, None]

    pack, hidden, cache = run_layer(model, x, lengths)
    gates = cache[2]
    cell = network._lstm_states(model, gates, pack)[0]
    # read before the backward pass writes the gate gradients over the gates
    got = {key: to_padded(value, pack, mask.shape)
           for key, value in (("hidden", hidden), ("gates", gates), ("cell", cell))}
    d_packed = network._flip_reverse(network._packed(d_hidden.reshape(len(lengths), t_len, -1),
                                                     pack).reshape(-1, dirs, h), pack)
    grads = {}
    dx = network._bilstm_backward(model, cache, pack, d_packed, grads, input_grad=True)
    got["dX"] = to_padded(dx[:, None], pack, mask.shape)[:, :, 0]
    want = {"dX": np.zeros_like(x)}
    for k, direction in enumerate(model.directions):
        p = f"b.l1.{direction}"
        w, u, b = (model.params[f"{p}.{name}"] for name in "WUb")
        reverse = direction == "bwd"
        o_hidden, o_gates, o_cell = _oracle_lstm_forward(w, u, b, x, mask, reverse)
        o_dw, o_du, o_db, o_dx = _oracle_lstm_backward(w, u, x, mask, o_hidden, o_cell, o_gates,
                                                       reverse, d_hidden[:, :, k])
        for key, value in (("hidden", o_hidden), ("gates", o_gates), ("cell", o_cell)):
            want.setdefault(key, np.zeros_like(got[key]))[:, :, k] = value * mask[:, :, None]
        for key, value in (("W", o_dw), ("U", o_du), ("b", o_db)):
            got[f"{p}.{key}"], want[f"{p}.{key}"] = grads[f"{p}.{key}"], value
        want["dX"] += o_dx
    assert sorted(got) == sorted(want)
    for key in want:
        assert got[key].shape == want[key].shape, key
        np.testing.assert_allclose(got[key], want[key], rtol=0, atol=1e-12, err_msg=key)


def _whole_array_bilstm_backward(model, layer, hidden, cell, pack, d_hidden):
    """Reference BPTT that leaves the gates as they are: dz is formed for
    every row before the time loop, in a fresh array, from the hidden and
    cell states the forward pass formed, and each element sees the
    operations of `_bilstm_backward` in the same order, so the two agree to
    the byte. Returns (dW, dU and db by parameter name, dX)."""
    prefix, x, gates = layer
    h = model.hidden
    first = pack.steps[0][1]
    gi, gf, gg, go = (gates[..., k * h:(k + 1) * h] for k in range(4))
    dz = 1.0 - gates
    dz *= gates
    dz_i, dz_f, dz_g, dz_o = (dz[..., k * h:(k + 1) * h] for k in range(4))
    dz_i *= gg
    dz_f[first:] *= cell[pack.prev]
    dz_f[:first] = 0.0
    np.multiply(gg, gg, out=dz_g)
    np.subtract(1.0, dz_g, out=dz_g)
    dz_g *= gi
    tanh_c = np.tanh(cell)
    dz_o *= tanh_c
    dc_dh = np.multiply(tanh_c, tanh_c, out=tanh_c)
    np.subtract(1.0, dc_dh, out=dc_dh)
    dc_dh *= go
    prefixes = [f"{prefix}.{direction}" for direction in model.directions]
    us = [model.params[f"{p}.U"] for p in prefixes]
    dz4 = dz.reshape(len(dz), len(prefixes), 4, h)
    dh_carry = np.empty((len(prefixes), first, h), gates.dtype)
    dc_carry = hidden[:0]
    for start, rows in reversed(pack.steps):
        block = slice(start, start + rows)
        dh = d_hidden[block]
        dh[:len(dc_carry)] += dh_carry[:, :len(dc_carry)].transpose(1, 0, 2)
        dc = dh * dc_dh[block]
        dc[:len(dc_carry)] += dc_carry
        dz4[block, :, :3] *= dc[:, :, None]
        dz4[block, :, 3] *= dh
        for k, u in enumerate(us):
            np.matmul(dz[block, k], u, out=dh_carry[k, :rows])
        dc *= gf[block]
        dc_carry = dc
    grads, d_x = {}, None
    for k, p in enumerate(prefixes):
        reverse = p.endswith(".bwd")
        grads[f"{p}.W"] = dz[:, k].T @ (x[pack.flip] if reverse else x)
        grads[f"{p}.U"] = dz[first:, k].T @ hidden[pack.prev, k]
        grads[f"{p}.b"] = dz[:, k].sum(axis=0)
        part = dz[:, k] @ model.params[f"{p}.W"]
        if reverse:
            part = part[pack.flip]
        d_x = part if d_x is None else d_x + part
    return grads, d_x


@pytest.mark.parametrize("bidirectional", [False, True])
@pytest.mark.parametrize("lengths,d,h", [
    ([1], 5, 16), ([7, 4, 1, 6], 5, 16), ([9, 1, 1, 3, 9, 2], 5, 16),
    # the reference width: OpenBLAS picks its kernels by the product's size
    ([38, 31, 38, 12, 25, 1, 33, 20, 38, 7, 29, 16], 30, 100),
], ids=[f"lengths{i}" for i in range(4)])
def test_in_place_lstm_backward_matches_whole_array_bytes(lengths, d, h, bidirectional):
    for dtype in (np.float64, np.float32):
        rng = np.random.default_rng(60 + len(lengths))
        model = layer_model(d, h, bidirectional, rng, dtype=dtype)
        x = rng.normal(size=(len(lengths), max(lengths), d))
        buffers = {}
        pack, hidden, cache = run_layer(model, x, lengths, buffers)
        cell = buffers["cell"][:hidden.size].reshape(hidden.shape).copy()
        d_hidden = rng.normal(size=hidden.shape).astype(dtype)
        want, want_dx = _whole_array_bilstm_backward(model, cache, hidden.copy(), cell, pack,
                                                     d_hidden.copy())
        got = {}
        dx = network._bilstm_backward(model, cache, pack, d_hidden, got, True, buffers)
        assert sorted(got) == sorted(want)
        for key in want:
            assert got[key].dtype == dtype, key
            assert got[key].tobytes() == want[key].tobytes(), (dtype, key)
        assert dx.tobytes() == want_dx.tobytes(), dtype


def _view_product_bilstm_forward(model, layers, pack):
    """Reference forward loop that multiplies by the `U.T` view at every
    batch size, into a (dirs, rows, 4h) product added through a transpose,
    with (4h,) gate scales broadcast over each step: `_bilstm_forward`
    gives its bytes. Returns (hidden, gates), both fresh arrays."""
    h, dtype = model.hidden, model.dtype
    scale = np.full(4 * h, 0.5, dtype)
    scale[2 * h:3 * h] = 1.0
    shift = 1.0 - scale
    units = [(f"{prefix}.{direction}", x) for prefix, x in layers
             for direction in model.directions]
    n, dirs = len(pack.gather), len(units)
    gates = np.empty((n, dirs, 4 * h), dtype)
    for k, (p, x) in enumerate(units):
        np.matmul(x[pack.flip] if p.endswith(".bwd") else x, model.params[f"{p}.W"].T,
                  out=gates[:, k])
    gates += np.stack([model.params[f"{p}.b"] for p, _ in units])
    u_t = [model.params[f"{p}.U"].T for p, _ in units]
    min_rows = min(len(pack.last), 4)
    hidden = np.zeros((n + min_rows - 1, dirs, h), dtype)
    cell = np.empty((n, dirs, h), dtype)
    h_prev = c_prev = np.zeros((pack.steps[0][1], dirs, h), dtype)
    product = np.empty((dirs, len(h_prev), 4 * h), dtype)
    for start, rows in pack.steps:
        g = gates[start:start + rows]
        m = max(rows, min_rows)
        for k, u in enumerate(u_t):
            np.matmul(h_prev[:m, k], u, out=product[k, :m])
        g += product[:, :rows].transpose(1, 0, 2)
        g *= scale
        np.tanh(g, out=g)
        g *= scale
        g += shift
        c = np.multiply(g[..., h:2 * h], c_prev[:rows], out=cell[start:start + rows])
        c += g[..., :h] * g[..., 2 * h:3 * h]
        np.tanh(c, out=hidden[start:start + rows])
        hidden[start:start + rows] *= g[..., 3 * h:]
        h_prev, c_prev = hidden[start:], c
    return hidden[:n], gates


@pytest.mark.parametrize("batch", [1, 3, 4, 5, 13, 32])
def test_lstm_forward_matches_the_view_product_bytes(batch):
    # ragged lengths: one sample runs 24 steps, the rest 1-23, so the last
    # steps multiply 16 rows or fewer, down to 1, and at B >= 4 each step
    # below 4 rows reads past its own into other rows
    lengths = [24] + [1 + (7 * i) % 23 for i in range(1, batch)]
    pack = network._pack(np.arange(24) < np.array(lengths)[:, None])
    for dtype in (np.float32, np.float64):
        rng = np.random.default_rng(90 + batch)
        model = layer_model(30, 100, rng=rng, dtype=dtype)
        x = rng.normal(size=(len(pack.gather), 30)).astype(dtype)
        want_hidden, want_gates = _view_product_bilstm_forward(model, [("b.l1", x)], pack)
        for buffers in (None, {}):
            hidden, gates = network._bilstm_forward(model, [("b.l1", x)], pack, True, buffers)
            assert hidden.tobytes() == want_hidden.tobytes(), (dtype, buffers is None)
            assert gates.tobytes() == want_gates.tobytes(), (dtype, buffers is None)


@pytest.mark.parametrize("bidirectional", [False, True])
def test_train_forward_refills_one_u_copy_per_direction(bidirectional):
    # Adam updates every U in place between steps, so a U.T copy held in
    # `buffers` from the step before must not be read again
    model = small_model(dropout=0.3, seed=54, bidirectional=bidirectional)
    lengths = [6, 3, 5, 1, 6]
    streams, mask = batch_for(model, np.random.default_rng(55), batch=5, lengths=lengths)
    buffers = {}
    forward(model, streams, mask, train_mode=True, rng=np.random.default_rng(56),
            buffers=buffers)
    gates = [f"{name}.l{i}.gates" for name in model.branches for i in (1, 2)]
    assert sorted(buffers) == sorted(gates + ["cell", "hidden"])
    # the hidden scratch: the hidden states with 3 rows of zeros after them,
    # the gate scales and shifts, and one U.T copy per direction
    h, dirs = model.hidden, len(model.directions)
    assert buffers["hidden"].size == ((sum(lengths) + 3) * dirs * h
                                      + 2 * len(lengths) * dirs * 4 * h + dirs * h * 4 * h)
    for key, p in model.params.items():
        if key.endswith(".U"):
            p *= 1.5
    got, cache = forward(model, streams, mask, train_mode=True, rng=np.random.default_rng(56),
                         buffers=buffers)
    want, fresh = forward(model, streams, mask, train_mode=True,
                          rng=np.random.default_rng(56), buffers={})
    assert got.tobytes() == want.tobytes()
    for name in model.branches:
        for a, b in zip(cache["branches"][name][:2], fresh["branches"][name][:2]):
            a, b = (a[2], b[2]) if isinstance(a, tuple) else (a, b)
            assert a.tobytes() == b.tobytes(), name


def test_train_mode_forwards_share_one_set_of_layer_buffers():
    model = small_model(dropout=0.3, seed=52)
    rng = np.random.default_rng(53)
    buffers = {}
    caches = []
    for lengths in ([6, 3, 5], [2, 1]):  # the second batch has fewer rows
        streams, mask = batch_for(model, rng, batch=len(lengths), lengths=lengths)
        _, cache = forward(model, streams, mask, train_mode=True, rng=rng, buffers=buffers)
        caches.append(cache)
    for name in model.branches:
        (_, _, gates1), gates2, _ = caches[0]["branches"][name]
        (_, _, again1), again2, _ = caches[1]["branches"][name]
        assert np.shares_memory(gates1, again1) and np.shares_memory(gates2, again2)
    before = {key: arr.copy() for key, arr in buffers.items()}
    streams, mask = batch_for(model, rng, batch=4, lengths=[6, 6, 2, 4])
    forward(model, streams, mask, buffers=buffers)
    assert sorted(buffers) == sorted(before)
    for key, arr in buffers.items():
        assert arr.tobytes() == before[key].tobytes(), key


@pytest.mark.parametrize("bidirectional", [False, True])
@pytest.mark.parametrize("lengths", [[7], [7, 3], [2, 7, 7], [9, 1, 4, 9, 2]])
def test_grouped_layers_match_each_layer_alone(lengths, bidirectional):
    # a small inference batch runs every branch's layer in one time loop;
    # each direction keeps its own GEMM and its own U product there, so at
    # every min(B, 4) row count a layer gives the bytes it gives alone
    dims = {"a": 5, "b": 9, "c": 30}
    for dtype in (np.float32, np.float64):
        rng = np.random.default_rng(80 + len(lengths))
        model = init_model(tuple(dims), dims, classes=2, hidden=100, fc_out=2, head=(),
                           dropout=0.0, bidirectional=bidirectional, dtype=dtype)
        for key in model.params:
            if ".l1." in key:
                model.params[key] = rng.normal(0, 0.7, model.params[key].shape).astype(dtype)
        pack = network._pack(np.arange(max(lengths)) < np.array(lengths)[:, None])
        layers = [(f"{name}.l1", rng.normal(size=(len(pack.gather), d)).astype(dtype))
                  for name, d in dims.items()]
        hidden, gates = network._bilstm_forward(model, layers, pack, True)
        dirs = len(model.directions)
        assert hidden.shape == (sum(lengths), len(dims) * dirs, model.hidden)
        for j, layer in enumerate(layers):
            alone, alone_gates = network._bilstm_forward(model, [layer], pack, True)
            own = slice(j * dirs, (j + 1) * dirs)
            assert hidden[:, own].tobytes() == alone.tobytes(), (dtype, layer[0])
            assert gates[:, own].tobytes() == alone_gates.tobytes(), (dtype, layer[0])


@pytest.mark.parametrize("bidirectional", [False, True])
@pytest.mark.parametrize("lengths", [[1], [7, 4, 1, 6], [9, 1, 1, 3, 9, 2]])
def test_rebuilt_states_match_the_forward_bytes(lengths, bidirectional):
    # both layers of a branch run on one shared scratch, so layer 1's states
    # are gone once layer 2 has run; backward rebuilds them from the gates
    for dtype in (np.float64, np.float32):
        rng = np.random.default_rng(70 + len(lengths))
        d, h = 5, 16
        model = layer_model(d, h, bidirectional, rng, dtype=dtype)
        for key in model.params:
            if key.startswith("b.l2."):
                model.params[key] = rng.normal(0, 0.7, model.params[key].shape).astype(dtype)
        x = rng.normal(size=(len(lengths), max(lengths), d))
        buffers = {}
        pack, h1, (_, _, gates1) = run_layer(model, x, lengths, buffers)
        states1 = [buffers[key][:h1.size].reshape(h1.shape).copy() for key in ("cell", "hidden")]
        keep = network._packed(
            (rng.integers(0, 2, x.shape[:2] + (model.summary_dim,)) / 0.5).astype(dtype), pack)
        x2 = network._layer2_input(h1, pack, keep)
        h2, gates2 = network._bilstm_forward(model, [("b.l2", x2)], pack, True, buffers)
        states2 = [buffers[key][:h2.size].reshape(h2.shape).copy() for key in ("cell", "hidden")]
        assert np.shares_memory(h1, h2) and h2.dtype == dtype

        for gates, (cell, hidden) in ((gates2, states2), (gates1, states1)):
            got_cell, got_tanh, got_hidden = network._lstm_states(model, gates, pack, buffers)
            assert got_cell.tobytes() == cell.tobytes(), dtype
            assert got_hidden.tobytes() == hidden.tobytes(), dtype
            assert np.array_equal(got_tanh, np.tanh(cell)), dtype
        assert network._layer2_input(got_hidden, pack, keep).tobytes() == x2.tobytes(), dtype


def test_train_mode_buffers_hold_only_gates_per_layer():
    model = small_model(dropout=0.3, seed=57)
    streams, mask = batch_for(model, np.random.default_rng(58), lengths=[6, 3, 5])
    buffers = {}
    _, cache = forward(model, streams, mask, train_mode=True, rng=np.random.default_rng(59),
                       buffers=buffers)
    gates = [f"{name}.l{i}.gates" for name in model.branches for i in (1, 2)]
    assert sorted(buffers) == sorted(gates + ["cell", "hidden"])
    for name in model.branches:
        (prefix, x, gates1), gates2, _ = cache["branches"][name]
        assert prefix == f"{name}.l1" and x.shape == (mask.sum(), model.input_dims[name])
        assert np.shares_memory(gates1, buffers[f"{name}.l1.gates"])
        assert np.shares_memory(gates2, buffers[f"{name}.l2.gates"])
    backward(model, cache, np.array([0, 1, 2]))
    assert sorted(buffers) == sorted(gates + ["cell", "hidden", "tanh_c"])


@pytest.mark.parametrize("magnitude", [800.0, 1e6])
def test_saturated_lstm_stays_finite(magnitude):
    h = 2
    model = layer_model(1, h)
    for key, arr in model.params.items():
        arr[:] = 0.0 if key.endswith(".b") else 1.0
    x = magnitude * np.array([1.0, -1.0, -1.0, 1.0, 1.0])[None, :, None]
    with np.errstate(over="raise", invalid="raise"):
        _, hidden, (_, _, gates) = run_layer(model, x, [5])
    sigmoid_gates = np.delete(gates, np.s_[2 * h:3 * h], axis=2)
    assert np.all(np.isfinite(hidden)) and np.all(np.abs(hidden) <= 1.0)
    assert np.all((sigmoid_gates >= 0.0) & (sigmoid_gates <= 1.0))
    assert np.all(np.abs(gates[..., 2 * h:3 * h]) <= 1.0)


# ------------------------------------------------------------------ forward

def test_softmax_rows_are_distributions():
    model = small_model(seed=3)
    streams, mask = batch_for(model, np.random.default_rng(4), lengths=[6, 4, 2])
    probs, _ = forward(model, streams, mask)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(probs > 0.0) and np.all(probs < 1.0)


def test_zero_parameters_give_uniform_distribution():
    model = small_model(seed=5)
    for key in model.params:
        model.params[key][:] = 0.0
    streams, mask = batch_for(model, np.random.default_rng(6))
    probs, _ = forward(model, streams, mask)
    np.testing.assert_allclose(probs, 1.0 / model.classes, atol=1e-15)


def test_inference_forward_is_deterministic():
    model = small_model(seed=7)
    streams, mask = batch_for(model, np.random.default_rng(8))
    p1, _ = forward(model, streams, mask)
    p2, _ = forward(model, streams, mask)
    np.testing.assert_array_equal(p1, p2)


def test_padding_invariance_bit_level():
    model = small_model(seed=9)
    rng = np.random.default_rng(10)
    t_len = 5
    streams = {name: rng.normal(0, 1, (1, t_len, dim))
               for name, dim in model.input_dims.items()}
    mask = np.ones((1, t_len), dtype=bool)
    probs, _ = forward(model, streams, mask)

    pad = 3
    streams_padded = {name: np.concatenate(
        [arr, np.zeros((1, pad, arr.shape[2]))], axis=1) for name, arr in streams.items()}
    mask_padded = np.concatenate([mask, np.zeros((1, pad), dtype=bool)], axis=1)
    probs_padded, _ = forward(model, streams_padded, mask_padded)
    np.testing.assert_array_equal(probs, probs_padded)


def test_forward_shape_and_mask_errors():
    model = small_model(seed=11)
    rng = np.random.default_rng(12)
    streams, mask = batch_for(model, rng)
    bad = dict(streams)
    bad["finger"] = bad["finger"][:, :, :-1]
    with pytest.raises(ShapeMismatch):
        forward(model, bad, mask)
    hole = mask.copy()
    hole[0, 2] = False          # valid steps continue after the hole
    with pytest.raises(InvalidMask):
        forward(model, streams, hole)
    empty = mask.copy()
    empty[1] = False
    with pytest.raises(InvalidMask):
        forward(model, streams, empty)


@pytest.mark.parametrize("dtype", [np.float64, np.int8, np.uint16, np.int64])
def test_mask_dtype_is_bool_or_zero_one_integers(dtype):
    model = small_model(seed=11)
    streams, mask = batch_for(model, np.random.default_rng(12), lengths=[6, 2, 4])
    if np.issubdtype(dtype, np.integer):
        np.testing.assert_array_equal(forward(model, streams, mask.astype(dtype))[0],
                                      forward(model, streams, mask)[0])
        bad = mask.astype(dtype)
        bad[0, 0] = 2
    else:
        bad = mask.astype(dtype)
    with pytest.raises(InvalidMask, match=np.dtype(dtype).name):
        forward(model, streams, bad)


def test_batch_composition_leaves_each_sample_unchanged():
    # packing sorts samples by length and runs each step over the samples
    # still running; at float64 the probabilities come back in batch order,
    # bit-identical wherever a sample sits among two or more. Alone, BLAS
    # multiplies one row with its matrix-vector kernel, which rounds
    # differently. (The layer-2 gates of a batch of at most 18 packed rows
    # already differ in their last bits, see the float32 test below; at
    # float64 the probabilities round that away.)
    dims = {"global": 5, "finger": 7, "skeleton": 6}
    model = init_model(tuple(dims), dims, classes=4, hidden=16, fc_out=4, head=(6,), seed=44,
                       dtype=np.float64)
    rng = np.random.default_rng(45)
    lengths = [7, 4, 4, 1, 6]
    samples = [{name: rng.normal(size=(t, dim)) for name, dim in model.input_dims.items()}
               for t in lengths]

    def probs_of(order):
        chunk = [Sample(samples[i], 0) for i in order]
        return dict(zip(order, evaluate(model, chunk)[1]))

    reference = probs_of(list(range(5)))
    for order in ([4, 3, 2, 1, 0], [1, 0], [3, 2], [2, 4, 1], [3, 1, 0, 2, 4, 1]):
        for i, probs in probs_of(order).items():
            assert probs.tobytes() == reference[i].tobytes(), (order, i)
    for i in range(5):
        np.testing.assert_allclose(probs_of([i])[i], reference[i], rtol=1e-12, atol=0)

    # the same at the layer's hidden states, where a step's rounding shows
    layer = layer_model(5, 16, rng=rng, dtype=np.float64)
    xs = [rng.normal(size=(t, 5)) for t in lengths]

    def hidden_of(order):
        x = np.zeros((len(order), max(lengths[i] for i in order), 5))
        for row, i in enumerate(order):
            x[row, :lengths[i]] = xs[i]
        pack, hidden, _ = run_layer(layer, x, [lengths[i] for i in order])
        padded = to_padded(hidden, pack, x.shape[:2])
        return {i: padded[row, :lengths[i]] for row, i in enumerate(order)}

    reference = hidden_of(list(range(5)))
    for order in ([4, 3, 2, 1, 0], [1, 0], [3, 2], [2, 4, 1], [3, 1, 0, 2, 4]):
        for i, hidden in hidden_of(order).items():
            assert hidden.tobytes() == reference[i].tobytes(), (order, i)


@pytest.mark.parametrize("hidden,dims,lengths", [
    (16, {"global": 5, "finger": 7, "skeleton": 6}, [7, 4, 4, 1, 6]),
    (100, {"global": 30, "finger": 100, "skeleton": 66}, [30, 26, 38, 34, 29])])
def test_batch_composition_at_float32_moves_only_the_last_bits(hidden, dims, lengths):
    # OpenBLAS picks a GEMM kernel by the product's size, and its kernels
    # round differently: a one-row product, and, on AVX-512 builds, the
    # small-matrix kernel that x @ W.T takes when out_dim * rows <= 1200 and
    # in_dim >= 32, which can also round a row by its position. It takes the
    # layer-2 input projection of a hidden-16 model while a batch has at most
    # 18 packed rows, and the FC head of a batch of a few samples. So at
    # float32 a sample's probabilities move with its batch-mates and its
    # place among them, by the last bits of its float32 logits: at most
    # 2.3e-9 relative over these batches, batch 1 included. The bound, 1e-6,
    # is set from the dtype: about 8 float32 ulps of a logit near 1. The same
    # batch always gives the same bytes.
    model = init_model(tuple(dims), dims, classes=14, hidden=hidden, seed=44)
    assert model.dtype == np.float32
    rng = np.random.default_rng(45)
    samples = [Sample({name: rng.normal(size=(t, dim)) for name, dim in dims.items()}, 0)
               for t in lengths]

    def probs_of(order):
        return dict(zip(order, evaluate(model, [samples[i] for i in order])[1]))

    reference = probs_of(list(range(len(lengths))))
    again = probs_of(list(range(len(lengths))))
    assert all(again[i].tobytes() == reference[i].tobytes() for i in reference)
    for order in ([4, 3, 2, 1, 0], [1, 0], [3, 2], [2, 4, 1], [3, 1, 0, 2, 4, 1],
                  [0], [1], [2], [3], [4]):
        for i, probs in probs_of(order).items():
            np.testing.assert_allclose(probs, reference[i], rtol=1e-6, atol=0,
                                       err_msg=str((order, i)))


def test_dropout_masks_follow_the_documented_draw_order():
    # every trained model's reproducibility rests on this order: per branch
    # l1, summary, fc, then head.0, ..., head.out, each drawn as
    # (rng.random(shape) >= p) / (1 - p) from the generator passed in, in
    # float64, and the comparison cast to the model's dtype
    for bidirectional, dtype in ((True, np.float64), (False, np.float64), (True, np.float32)):
        model = small_model(dropout=0.3, seed=41, bidirectional=bidirectional, dtype=dtype)
        streams, mask = batch_for(model, np.random.default_rng(42), lengths=[6, 2, 4])
        _, cache = forward(model, streams, mask, train_mode=True, rng=np.random.default_rng(43))
        bsz, t_len = mask.shape
        shapes = {}
        for name in model.branches:
            shapes[f"{name}.l1"] = (bsz, t_len, model.summary_dim)
            shapes[f"{name}.summary"] = (bsz, model.summary_dim)
            shapes[f"{name}.fc"] = (bsz, model.fc_out)
        for i, width in enumerate(model.head):
            shapes[f"head.{i}"] = (bsz, width)
        shapes["head.out"] = (bsz, model.classes)
        assert list(cache["dropout"]) == list(shapes)
        rng = np.random.default_rng(43)
        for key, shape in shapes.items():
            want = (rng.random(shape) >= 0.3).astype(dtype) / (1.0 - 0.3)
            if key.endswith(".l1"):  # drawn padded, kept as its packed rows
                want = network._packed(want, cache["pack"])
            assert cache["dropout"][key].dtype == dtype, key
            np.testing.assert_array_equal(cache["dropout"][key], want, err_msg=key)


# --------------------------------------------------------------------- loss

def test_loss_uniform_is_log_c():
    probs = np.full((4, 14), 1.0 / 14)
    labels = np.array([0, 5, 9, 13])
    assert cross_entropy(probs, labels) == pytest.approx(math.log(14), abs=1e-12)


def test_loss_perfect_prediction_is_zero():
    probs = np.zeros((2, 5))
    probs[0, 3] = 1.0
    probs[1, 0] = 1.0
    assert cross_entropy(probs, np.array([3, 0])) == 0.0


def test_loss_mean_over_batch():
    probs = np.full((2, 4), 0.01)
    probs[0, 1] = 1.0
    probs[1, 2] = 1.0 / math.e
    assert cross_entropy(probs, np.array([1, 2])) == pytest.approx(0.5, abs=1e-12)


def test_loss_label_out_of_range():
    probs = np.full((2, 4), 0.25)
    with pytest.raises(LabelOutOfRange):
        cross_entropy(probs, np.array([0, 4]))


# --------------------------------------------------------------------- adam

def test_adam_first_step_closed_form():
    config = TrainConfig()
    params = {"w": np.array([0.5, -2.0, 0.0])}
    grads = {"w": np.array([0.3, -1.5, 0.0])}
    state = adam_init(params)
    before = params["w"].copy()
    adam_step(params, grads, state, config)
    g = grads["w"]
    expected = before - config.learning_rate * g / (np.abs(g) + config.epsilon)
    np.testing.assert_allclose(params["w"], expected, atol=1e-9)
    assert state.t == 1


def test_adam_zero_gradient_leaves_params():
    config = TrainConfig()
    params = {"w": np.array([1.0, -1.0])}
    state = adam_init(params)
    for _ in range(7):
        adam_step(params, {"w": np.zeros(2)}, state, config)
    np.testing.assert_array_equal(params["w"], [1.0, -1.0])


def test_adam_two_steps_match_scalar_oracle():
    lr, b1, b2, eps = 0.001, 0.9, 0.999, 1e-8
    g = 0.37
    # oracle: hand-rolled two iterations
    m = v = 0.0
    theta = 1.0
    for t in (1, 2):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        theta -= lr * (m / (1 - b1 ** t)) / (math.sqrt(v / (1 - b2 ** t)) + eps)

    params = {"w": np.array([1.0])}
    state = adam_init(params)
    config = TrainConfig(learning_rate=lr, beta1=b1, beta2=b2, epsilon=eps)
    for _ in range(2):
        adam_step(params, {"w": np.array([g])}, state, config)
    assert params["w"][0] == pytest.approx(theta, abs=1e-15)


def _adam_reference(params, grads, state, config):
    """The expression form of one Adam step, allocating fresh arrays."""
    state.t += 1
    b1, b2 = config.beta1, config.beta2
    c1, c2 = 1.0 - b1 ** state.t, 1.0 - b2 ** state.t
    for key, p in params.items():
        g = grads[key]
        state.m[key] = b1 * state.m[key] + (1.0 - b1) * g
        state.v[key] = b2 * state.v[key] + (1.0 - b2) * g * g
        p -= config.learning_rate * (state.m[key] / c1) / (np.sqrt(state.v[key] / c2)
                                                           + config.epsilon)


def test_adam_in_place_matches_expression_bytes():
    rng = np.random.default_rng(44)
    config = TrainConfig(learning_rate=0.003, beta1=0.8, beta2=0.99, epsilon=1e-7)
    params = {"w": rng.normal(size=(7, 5)), "b": rng.normal(size=3)}
    want = {k: v.copy() for k, v in params.items()}
    state, want_state = adam_init(params), adam_init(want)
    arrays = [state.m[k] for k in params] + [state.v[k] for k in params]
    for _ in range(6):
        grads = {k: rng.normal(size=v.shape) * rng.choice([1e-9, 1.0, 1e3])
                 for k, v in params.items()}
        adam_step(params, grads, state, config)
        _adam_reference(want, grads, want_state, config)
        for key in params:
            assert params[key].tobytes() == want[key].tobytes(), key
            assert state.m[key].tobytes() == want_state.m[key].tobytes(), key
            assert state.v[key].tobytes() == want_state.v[key].tobytes(), key
    assert state.t == want_state.t == 6
    assert all(a is b for a, b in zip(arrays, [state.m[k] for k in params]
                                      + [state.v[k] for k in params]))


# ---------------------------------------------------------------- gradients

@pytest.mark.parametrize("bidirectional,dropout", [(True, 0.3), (False, 0.3), (True, 0.0)])
def test_gradients_match_finite_differences(bidirectional, dropout):
    rng = np.random.default_rng(13)
    model = random_tiny_model(rng, bidirectional=bidirectional, dropout=dropout)
    streams, mask, labels = random_batch(model, rng, batch=2, t_len=4)
    err = max_relative_error(model, streams, mask, labels, np.random.default_rng(14))
    assert err < 1e-4


@pytest.mark.parametrize("bidirectional", [True, False])
def test_gradients_match_finite_differences_on_ragged_lengths(bidirectional):
    # a tie (4, 4) and a length-1 sample exercise the packing's row counts
    rng = np.random.default_rng(46)
    model = random_tiny_model(rng, bidirectional=bidirectional, dropout=0.3)
    streams, mask = batch_for(model, rng, batch=5, t_len=7, lengths=[7, 4, 4, 1, 6])
    labels = rng.integers(0, model.classes, 5)
    err = max_relative_error(model, streams, mask, labels, np.random.default_rng(47))
    assert err < 1e-4


@pytest.mark.parametrize("hidden,lengths", [(3, [6, 4, 2]), (16, [20, 17, 9, 12, 20, 3])])
def test_float32_gradients_agree_with_float64(hidden, lengths):
    # the same parameter values, inputs and dropout draws at both dtypes. The
    # bound, 1e-4 on each parameter's normwise relative error, was set from
    # the dtype before measuring: float32 rounds at 6e-8, and a gradient
    # element sums a few thousand rounded terms. Measured over seeds 1-3 and
    # these sizes, and at hidden 100: at most 5.9e-6 (a layer-2 U at hidden
    # 3), 1.2e-6 at hidden 100; the losses agree to 1.2e-9 relative.
    dims = {"global": 5, "finger": 7, "skeleton": 6}
    for seed in (1, 2, 3):
        model = init_model(tuple(dims), dims, classes=4, hidden=hidden, fc_out=4, head=(6, 5),
                           dropout=0.3, seed=seed)
        twin = dataclasses.replace(model, dtype=np.dtype(np.float64),
                                   params={k: v.astype(np.float64)
                                           for k, v in model.params.items()})
        rng = np.random.default_rng(seed + 1)
        streams, mask = batch_for(model, rng, batch=len(lengths), t_len=max(lengths),
                                  lengths=lengths)
        labels = rng.integers(0, model.classes, len(lengths))
        losses, grads = [], []
        for m in (model, twin):
            probs, cache = forward(m, streams, mask, train_mode=True,
                                   rng=np.random.default_rng(seed + 2))
            losses.append(cross_entropy(probs, labels))
            grads.append(backward(m, cache, labels))
        assert all(g.dtype == np.float32 for g in grads[0].values())
        assert losses[0] == pytest.approx(losses[1], rel=1e-4)
        for key, want in grads[1].items():
            error = np.linalg.norm(grads[0][key] - want)
            if error:  # where dropout cut a branch off, both gradients are 0
                error /= np.linalg.norm(want)
            assert error < 1e-4, (seed, key, error)


def test_zero_input_zero_bias_gives_zero_weight_gradients():
    model = small_model(seed=15)
    for key in model.params:
        if key.endswith(".b"):
            model.params[key][:] = 0.0
    streams = {name: np.zeros((2, 5, dim)) for name, dim in model.input_dims.items()}
    mask = np.ones((2, 5), dtype=bool)
    probs, cache = forward(model, streams, mask, train_mode=True)
    grads = backward(model, cache, np.array([0, 1]))
    for key, grad in grads.items():
        if key.endswith(".W") or key.endswith(".U"):
            np.testing.assert_array_equal(grad, 0.0, err_msg=key)


def test_batch_gradient_linearity_doubles_duplicate():
    model = small_model(seed=16, dtype=np.float64)
    rng = np.random.default_rng(17)
    t_len = 4
    sample = {name: rng.normal(0, 1, (1, t_len, dim))
              for name, dim in model.input_dims.items()}
    other = {name: rng.normal(0, 1, (1, t_len, dim))
             for name, dim in model.input_dims.items()}
    mask1 = np.ones((1, t_len), dtype=bool)

    def grads_of(streams_list, labels):
        streams = {name: np.concatenate([s[name] for s in streams_list])
                   for name in sample}
        mask = np.ones((len(streams_list), t_len), dtype=bool)
        _, cache = forward(model, streams, mask, train_mode=True)
        return backward(model, cache, np.array(labels))

    g_a = grads_of([sample], [0])
    g_b = grads_of([other], [2])
    g_ab = grads_of([sample, other], [0, 2])
    g_abb = grads_of([sample, other, other], [0, 2, 2])
    for key in g_a:
        np.testing.assert_allclose(g_ab[key], (g_a[key] + g_b[key]) / 2, atol=1e-12)
        np.testing.assert_allclose(g_abb[key], (g_a[key] + 2 * g_b[key]) / 3, atol=1e-12)


# ----------------------------------------------------------------- training

def make_samples(model, rng, count=9, t_len=6):
    samples = []
    for i in range(count):
        streams = {name: rng.normal(0, 1, (t_len, dim))
                   for name, dim in model.input_dims.items()}
        samples.append(Sample(streams, i % model.classes))
    return samples


def train_small(**config):
    """Train a fresh dropout model on fixed samples; returns (params, log)."""
    model = small_model(dropout=0.2, seed=18)
    samples = make_samples(model, np.random.default_rng(19))
    log = train(model, samples, TrainConfig(epochs=3, batch_size=4, rng_seed=20, **config))
    return model.params, log


def test_training_is_deterministic_given_seed():
    (params_a, log_a), (params_b, log_b) = train_small(), train_small()
    for key in params_a:
        np.testing.assert_array_equal(params_a[key], params_b[key])
    # every logged figure but the wall time repeats exactly
    assert [dataclasses.replace(e, seconds=0.0) for e in log_a] == \
        [dataclasses.replace(e, seconds=0.0) for e in log_b]
    assert all(e.seconds > 0 for e in log_a)


def test_train_accuracy_pass_runs_only_when_asked(monkeypatch):
    calls = []
    original = network.evaluate

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(network, "evaluate", counting)
    params_off, log_off = train_small()
    assert len(calls) == 0
    assert all(e.accuracy is None for e in log_off)
    params_on, log_on = train_small(record_accuracy=True)
    assert len(calls) == len(log_on) == 3
    assert all(0.0 <= e.accuracy <= 1.0 for e in log_on)
    # the pass draws no random numbers, so training is unchanged by it
    for key in params_off:
        assert np.array_equal(params_off[key], params_on[key])
    assert [e.loss for e in log_off] == [e.loss for e in log_on]


def test_train_records_gradient_norms_and_clipping():
    _, clipped = train_small(clip_norm=1e-6)
    _, unclipped = train_small(clip_norm=0.0)
    assert all(e.clipped_fraction == 1.0 for e in clipped)
    assert all(e.clipped_fraction == 0.0 for e in unclipped)
    assert all(e.grad_norm_max >= e.grad_norm_mean > 0 for e in clipped + unclipped)


def test_zero_learning_rate_keeps_parameters():
    model = small_model(seed=21)
    samples = make_samples(model, np.random.default_rng(22))
    before = {k: v.copy() for k, v in model.params.items()}
    train(model, samples, TrainConfig(learning_rate=0.0, epochs=2, batch_size=4, rng_seed=3))
    for key, arr in model.params.items():
        np.testing.assert_array_equal(arr, before[key])


def test_train_stops_at_the_first_non_finite_loss_without_warnings():
    model = small_model(seed=21)
    samples = make_samples(model, np.random.default_rng(22))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(Diverged, match=r"^training diverged at epoch 1, step 2: "
                                           r"the loss is nan$"):
            train(model, samples, TrainConfig(learning_rate=1e30, epochs=3, batch_size=4,
                                              rng_seed=3))
    assert [str(w.message) for w in caught] == []


def test_train_stops_at_a_non_finite_gradient_norm_before_the_update(monkeypatch):
    model = small_model(seed=21)
    samples = make_samples(model, np.random.default_rng(22))
    before = {k: v.copy() for k, v in model.params.items()}
    monkeypatch.setattr(network, "clip_gradients", lambda grads, clip_norm: math.inf)
    with pytest.raises(Diverged, match=r"^training diverged at epoch 1, step 1: "
                                       r"the gradient norm is inf$"):
        train(model, samples, TrainConfig(epochs=2, batch_size=4, rng_seed=3))
    for key, arr in model.params.items():
        np.testing.assert_array_equal(arr, before[key])


def test_evaluate_refuses_non_finite_probabilities():
    model = small_model(seed=23)
    samples = make_samples(model, np.random.default_rng(24), count=70)
    fit_normalization(model, samples)
    evaluate(model, samples)
    # a sample of the second batch of `EVAL_BATCH` is named by its index
    samples[network.EVAL_BATCH + 1].streams["finger"][2, 3] = np.nan
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(Diverged, match=rf"^the model has diverged: sample "
                                           rf"{network.EVAL_BATCH + 1} has non-finite class "
                                           rf"probabilities$"):
            evaluate(model, samples)
    assert [str(w.message) for w in caught] == []


@pytest.mark.parametrize("field,value", [
    ("batch_size", 0), ("batch_size", -1), ("epochs", 0),
    ("learning_rate", float("nan")), ("learning_rate", -0.1),
    ("clip_norm", float("inf")), ("clip_norm", -1.0),
    ("epsilon", 0.0), ("epsilon", float("nan")),
    ("beta1", 1.0), ("beta2", -0.1), ("beta2", float("nan")),
    ("stop_accuracy", 1.5), ("stop_accuracy", -0.1)])
def test_train_config_rejects_bad_values(field, value):
    with pytest.raises(NetworkError, match=field):
        TrainConfig(**{field: value})


@pytest.mark.parametrize("bidirectional", [True, False])
def test_train_matches_a_loop_of_fresh_steps(bidirectional):
    # ragged lengths, so the packed row count N shrinks and grows from step
    # to step, and 11 samples in batches of 4, so each epoch ends on 3
    model = small_model(dropout=0.3, seed=54, bidirectional=bidirectional)
    rng = np.random.default_rng(55)
    samples = [Sample({name: rng.normal(0, 1, (t_len, dim))
                       for name, dim in model.input_dims.items()}, i % model.classes)
               for i, t_len in enumerate(rng.integers(1, 10, 11))]
    config = TrainConfig(epochs=3, batch_size=4, rng_seed=56, clip_norm=1.0)
    reference = dataclasses.replace(model, params={k: v.copy() for k, v in model.params.items()},
                                    norm={})
    log = train(model, samples, config)

    network.fit_normalization(reference, samples)
    rng = np.random.default_rng(config.rng_seed)
    state = adam_init(reference.params)
    want, rows = [], []
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(len(samples))
        loss, norms = 0.0, []
        for start in range(0, len(samples), config.batch_size):
            batch = [samples[i] for i in order[start:start + config.batch_size]]
            labels = np.array([s.label for s in batch])
            streams, mask = network.pad_batch(reference, batch)
            rows.append(int(mask.sum()))
            probs, cache = forward(reference, streams, mask, train_mode=True, rng=rng)
            loss += cross_entropy(probs, labels) * len(batch)
            grads = backward(reference, cache, labels)
            norms.append(network.clip_gradients(grads, config.clip_norm))
            adam_step(reference.params, grads, state, config)
        want.append(network.EpochStats(epoch, loss / len(samples), None, float(np.mean(norms)),
                                       float(np.max(norms)),
                                       float(np.mean(np.array(norms) > config.clip_norm)), 0.0))
    steps = np.diff(rows)
    assert (steps < 0).any() and (steps[np.argmax(steps < 0):] > 0).any(), rows
    assert [dataclasses.replace(e, seconds=0.0) for e in log] == want
    for key, arr in model.params.items():
        assert arr.tobytes() == reference.params[key].tobytes(), key


def test_train_holds_one_step_of_activations():
    # long sequences on a small model, so activations dominate the
    # parameters, gradients and Adam state
    dims = {"global": 4, "finger": 6, "skeleton": 5}
    model = init_model(tuple(dims), dims, classes=3, hidden=8, fc_out=4, head=(6,),
                       dropout=0.2, seed=45)
    samples = make_samples(model, np.random.default_rng(46), count=48, t_len=120)
    tracemalloc.start()
    streams, mask = network.pad_batch(model, samples[:16])
    _, cache = forward(model, streams, mask, train_mode=True, rng=np.random.default_rng(0))
    backward(model, cache, np.array([s.label for s in samples[:16]]))
    one_step = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    del streams, mask, cache
    tracemalloc.start()
    train(model, samples, TrainConfig(epochs=1, batch_size=16, rng_seed=47))
    whole = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert whole <= 1.3 * one_step, (whole, one_step)


def test_backward_consumes_the_layer_cache():
    model = small_model(dropout=0.3, seed=48)
    streams, mask = batch_for(model, np.random.default_rng(49), lengths=[6, 3, 5])
    _, cache = forward(model, streams, mask, train_mode=True, rng=np.random.default_rng(50))
    assert set(cache["branches"]) == set(model.branches)
    backward(model, cache, np.array([0, 1, 2]))
    assert cache["branches"] == {}
    assert cache["mask"].shape == mask.shape and cache["pack"] is not None
    assert set(cache["dropout"]) >= {f"{name}.l1" for name in model.branches}


def test_train_empty_dataset():
    model = small_model(seed=23)
    with pytest.raises(EmptyDataset):
        train(model, [], TrainConfig(epochs=1))


def test_train_rejects_out_of_range_labels():
    model = small_model(seed=24, classes=3)
    samples = make_samples(model, np.random.default_rng(25))
    samples[0].label = 3
    with pytest.raises(LabelOutOfRange):
        train(model, samples, TrainConfig(epochs=1))


def test_train_rejects_mismatched_stream_width():
    model = small_model(seed=24, classes=3)
    samples = make_samples(model, np.random.default_rng(25))
    samples[1].streams["finger"] = samples[1].streams["finger"][:, :-1]
    with pytest.raises(ShapeMismatch, match="finger"):
        train(model, samples, TrainConfig(epochs=1))


@pytest.mark.parametrize("change,message", [
    ({"branches": ("global", "finger", "global")}, "repeat"), ({"classes": 0}, "classes"),
    ({"hidden": 0}, "hidden"), ({"fc_out": 0}, "fc_out"), ({"head": (6, 0)}, "head width 1"),
    ({"input_dims": {"global": 5, "finger": 0, "skeleton": 6}}, "'finger'"),
    ({"dtype": np.float16}, "dtype"), ({"dropout": -0.5}, "dropout"),
    ({"dropout": 1.0}, "dropout"), ({"dropout": float("nan")}, "dropout"),
    ({"dropout": 5}, "dropout"), ({"dropout": "0.3"}, "dropout"),
    ({"bidirectional": 1}, "bidirectional"), ({"hidden": 3.0}, "hidden"),
    ({"hidden": True}, "hidden"), ({"fc_out": "4"}, "fc_out"), ({"seed": -1}, "seed"),
    ({"seed": True}, "seed"), ({"branches": ()}, "branches"),
    ({"branches": {"global": 1, "finger": 1, "skeleton": 1}}, "branches"),
    ({"classes": np.int64(4)}, "classes"), ({"head": (np.int64(3),)}, "head width 0"),
    ({"input_dims": {"global": 5, "finger": 7.0, "skeleton": 6}}, "'finger'")])
def test_init_model_refuses_repeated_branches_and_empty_sizes(change, message):
    args = {"branches": ("global", "finger", "skeleton"),
            "input_dims": {"global": 5, "finger": 7, "skeleton": 6},
            "classes": 4, "hidden": 3, "fc_out": 4, "head": (6, 5)}
    with pytest.raises(NetworkError, match=message):
        init_model(**{**args, **change})


def test_initialization_bounds_and_forget_bias():
    model = small_model(seed=26)
    h = model.hidden
    for key, arr in model.params.items():
        if key.endswith(".W") or key.endswith(".U"):
            bound = 1.0 / np.sqrt(arr.shape[1])
            assert np.all(np.abs(arr) <= bound)
        elif ".l" in key and key.endswith(".b"):
            np.testing.assert_array_equal(arr[h:2 * h], 1.0)
            np.testing.assert_array_equal(arr[:h], 0.0)
            np.testing.assert_array_equal(arr[2 * h:], 0.0)
        else:
            np.testing.assert_array_equal(arr, 0.0)


# --------------------------------------------------------------- prediction

def test_predict_zero_model_tie_breaks_to_class_zero():
    model = small_model(seed=27, classes=14)
    for key in model.params:
        model.params[key][:] = 0.0
    streams = {name: np.random.default_rng(28).normal(size=(5, dim))
               for name, dim in model.input_dims.items()}
    label, probs = predict(model, streams)
    assert label == 0
    np.testing.assert_allclose(probs, 1.0 / 14, atol=1e-15)


def test_predict_after_overfitting_single_sample():
    model = small_model(seed=36, classes=4)
    rng = np.random.default_rng(37)
    streams = {name: rng.normal(size=(5, dim)) for name, dim in model.input_dims.items()}
    train(model, [Sample(streams, 2)],
          TrainConfig(learning_rate=0.05, epochs=300, batch_size=1, rng_seed=38))
    label, probs = predict(model, streams)
    assert label == 2
    assert probs[2] > 0.99


def test_predict_matches_forward_exactly():
    model = small_model(seed=29)
    rng = np.random.default_rng(30)
    streams = {name: rng.normal(size=(6, dim)) for name, dim in model.input_dims.items()}
    label, probs = predict(model, streams)
    batch = {name: arr[None] for name, arr in streams.items()}
    expected, _ = forward(model, batch, np.ones((1, 6), dtype=bool))
    np.testing.assert_array_equal(probs, expected[0])
    assert label == int(np.argmax(expected[0]))


@pytest.mark.parametrize("case,error,message", [
    ("missing", ShapeMismatch, "finger"), ("width", ShapeMismatch, "finger"),
    ("length", ShapeMismatch, "finger"), ("empty", InvalidMask, "valid step")])
def test_predict_rejects_malformed_streams(case, error, message):
    model = small_model(seed=34)
    streams = {name: np.random.default_rng(35).normal(size=(6, dim))
               for name, dim in model.input_dims.items()}
    if case == "missing":
        del streams["finger"]
    elif case == "width":
        streams["finger"] = streams["finger"][:, :-1]
    elif case == "length":
        streams["finger"] = streams["finger"][:-1]
    else:
        streams = {name: arr[:0] for name, arr in streams.items()}
    with pytest.raises(error, match=message):
        predict(model, streams)


# -------------------------------------------------------------- checkpoints

def test_checkpoint_roundtrip_bit_exact(tmp_path):
    for dtype in (np.float32, np.float64):
        model = small_model(dropout=0.25, seed=31, dtype=dtype)
        rng = np.random.default_rng(32)
        samples = make_samples(model, rng)
        train(model, samples, TrainConfig(epochs=2, batch_size=4, rng_seed=33))

        first = tmp_path / "model.ckpt"
        save_checkpoint(model, first)
        loaded = load_checkpoint(first)
        assert loaded.branches == model.branches
        assert loaded.classes == model.classes
        assert loaded.dtype == dtype
        for key, arr in model.params.items():
            assert loaded.params[key].tobytes() == arr.tobytes(), (dtype, key)
        for name in model.branches:
            np.testing.assert_array_equal(loaded.norm[name]["mean"], model.norm[name]["mean"])
            np.testing.assert_array_equal(loaded.norm[name]["std"], model.norm[name]["std"])

        second = tmp_path / "again.ckpt"
        save_checkpoint(loaded, second)
        assert first.read_bytes() == second.read_bytes()

        streams = {name: rng.normal(size=(5, dim)) for name, dim in model.input_dims.items()}
        assert predict(model, streams)[1].tobytes() == predict(loaded, streams)[1].tobytes()


def test_checkpoint_without_a_dtype_loads_as_float64(tmp_path):
    # checkpoints written before models had a dtype hold float64 models
    model = small_model(dropout=0.25, seed=31, dtype=np.float64)
    train(model, make_samples(model, np.random.default_rng(32)),
          TrainConfig(epochs=1, batch_size=4, rng_seed=33))
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    magic, header, rest = path.read_bytes().split(b"\n", 2)
    header = json.loads(header)
    assert header.pop("dtype") == "float64"
    path.write_bytes(b"\n".join([magic, json.dumps(header, sort_keys=True).encode(), rest]))
    loaded = load_checkpoint(path)
    assert loaded.dtype == np.float64
    for key, arr in model.params.items():
        assert loaded.params[key].tobytes() == arr.tobytes(), key
    streams = {name: np.random.default_rng(34).normal(size=(5, dim))
               for name, dim in model.input_dims.items()}
    assert predict(model, streams)[1].tobytes() == predict(loaded, streams)[1].tobytes()


def _with_header(header, **changes):
    return json.dumps({**header, **changes}, sort_keys=True).encode()


def _without_classes(magic, header, rest):
    """A checkpoint of the same model with 0 classes, whose header, manifest
    and payload agree: `head.out`'s arrays are empty."""
    marker, payload = rest[:7], np.frombuffer(rest[7:], dtype="<f8")
    arrays, kept, offset = [], [], 0
    for name, shape in header["arrays"]:
        size = math.prod(shape)
        if name.startswith("params/head.out."):
            shape = [0] + shape[1:]
        else:
            kept.append(payload[offset:offset + size])
        arrays.append([name, shape])
        offset += size
    return [magic, _with_header(header, classes=0, arrays=arrays),
            marker + np.concatenate(kept).tobytes()]


def _inexact_float32(magic, header, rest):
    """A float32 checkpoint whose first parameter value lies strictly
    between two float32 values."""
    payload = np.frombuffer(rest[7:], dtype="<f8").copy()
    payload[0] = np.nextafter(payload[0], np.inf)
    return [magic, _with_header(header, dtype="float32"), rest[:7] + payload.tobytes()]


# Each case maps (magic line, header dict, BINARY marker + payload) to file bytes.
CORRUPT_CHECKPOINTS = {
    "truncated": lambda m, h, rest: [m, _with_header(h), rest[:-13]],
    "trailing-bytes": lambda m, h, rest: [m, _with_header(h), rest + bytes(8)],
    "header-not-json": lambda m, h, rest: [m, b"{hidden", rest],
    "no-hidden": lambda m, h, rest: [m, _with_header({k: v for k, v in h.items()
                                                      if k != "hidden"}), rest],
    "magic-not-utf8": lambda m, h, rest: [b"\xff\xfe" + m, _with_header(h), rest],
    "hidden-mismatch": lambda m, h, rest: [m, _with_header(h, hidden=h["hidden"] + 1), rest],
    "zero-classes": _without_classes,
    "dtype-unknown": lambda m, h, rest: [m, _with_header(h, dtype="float16"), rest],
    "dtype-alias": lambda m, h, rest: [m, _with_header(h, dtype="f4"), rest],
    "float32-inexact": _inexact_float32,
    "unknown-key": lambda m, h, rest: [m, _with_header(h, lstm_hidden=7, note="x"), rest],
    "dropout-one": lambda m, h, rest: [m, _with_header(h, dropout=1.0), rest],
    "bidirectional-int": lambda m, h, rest: [m, _with_header(h, bidirectional=1), rest],
    "seed-bool": lambda m, h, rest: [m, _with_header(h, seed=True), rest],
    "seed-list": lambda m, h, rest: [m, _with_header(h, seed=[True]), rest],
    # not sorted, so the object's keys are the branches in the model's order
    "branches-object": lambda m, h, rest: [m, json.dumps(
        {**h, "branches": {name: 1 for name in h["branches"]}}).encode(), rest],
}


@pytest.mark.parametrize("case", sorted(CORRUPT_CHECKPOINTS))
def test_malformed_checkpoint_raises_checkpoint_error(case, tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(small_model(seed=36), path)
    magic, header, rest = path.read_bytes().split(b"\n", 2)
    path.write_bytes(b"\n".join(CORRUPT_CHECKPOINTS[case](magic, json.loads(header), rest)))
    with pytest.raises(CheckpointError, match=re.escape(str(path))):
        load_checkpoint(path)


def test_checkpoint_header_keys_are_init_models_parameters_and_arrays(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(small_model(seed=37, bidirectional=False), path)
    header = json.loads(path.read_bytes().split(b"\n", 2)[1])
    assert set(header) == {*inspect.signature(init_model).parameters, "arrays"}
    assert header["dtype"] == "float32" and header["bidirectional"] is False


@pytest.mark.parametrize("array,value", [("params/head.out.b", float("nan")),
                                         ("params/global.l1.fwd.U", float("inf")),
                                         ("norm/finger/std", 0.0),
                                         ("norm/finger/std", -1.0)])
def test_checkpoint_with_a_bad_value_is_refused(array, value, tmp_path):
    # the value goes into the file's payload: save_checkpoint refuses a
    # non-finite one itself
    path = tmp_path / "model.ckpt"
    save_checkpoint(small_model(seed=51), path)
    magic, header, rest = path.read_bytes().split(b"\n", 2)
    payload = np.frombuffer(rest[7:], dtype="<f8").copy()
    end = 0
    for name, shape in json.loads(header)["arrays"]:
        end += math.prod(shape)
        if name == array:
            break
    payload[end - 1] = value
    path.write_bytes(b"\n".join([magic, header, rest[:7] + payload.tobytes()]))
    with pytest.raises(CheckpointError, match=re.escape(f"{path}: array {array} ")):
        load_checkpoint(path)


@pytest.mark.parametrize("array,value", [("params/head.out.b", float("nan")),
                                         ("params/global.l1.fwd.U", float("inf")),
                                         ("norm/finger/mean", float("-inf"))])
def test_save_checkpoint_refuses_a_non_finite_value_and_writes_nothing(array, value, tmp_path):
    model = small_model(seed=51)
    kind, *key = array.split("/")
    arr = model.params[key[0]] if kind == "params" else model.norm[key[0]][key[1]]
    arr.flat[-1] = value
    path = tmp_path / "model.ckpt"
    with pytest.raises(CheckpointError,
                       match=re.escape(f"{path}: array {array} holds a non-finite value")):
        save_checkpoint(model, path)
    assert list(tmp_path.iterdir()) == []


def test_inference_forward_keeps_no_backward_cache():
    # the reference architecture at batch 1, at the largest batch whose
    # inference runs all branches in one LSTM loop, and at evaluate's batch
    # size; without dropout both modes compute the same probabilities, and a
    # train-mode forward runs one branch per loop
    dims = {"global": 30, "finger": 100, "skeleton": 66}
    model = init_model(tuple(dims), dims, classes=14, dropout=0.0, seed=3)
    for batch in (1, 3, 64):
        rng = np.random.default_rng(4)
        streams = {name: rng.normal(0, 1, (batch, 38, dim)) for name, dim in dims.items()}
        mask = np.ones((batch, 38), dtype=bool)
        probs, peaks = {}, {}
        for train_mode in (False, True):
            tracemalloc.start()
            probs[train_mode], cache = forward(model, streams, mask, train_mode=train_mode)
            peaks[train_mode] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        assert cache["branches"] and "head" in cache
        _, cache = forward(model, streams, mask)
        assert cache["branches"] == {} and "head" not in cache
        # one branch's LSTM activations at a time at batch 64; a grouped
        # batch holds every branch's gates of one layer at once, still less
        # than a train-mode cache keeps
        assert peaks[False] < peaks[True] / (2 if batch == 64 else 1), (batch, peaks)
        assert probs[False].tobytes() == probs[True].tobytes(), batch


def test_unidirectional_mode_works():
    model = small_model(seed=34, bidirectional=False)
    assert model.directions == ("fwd",)
    streams, mask = batch_for(model, np.random.default_rng(35))
    probs, cache = forward(model, streams, mask, train_mode=True)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
    grads = backward(model, cache, np.array([0, 1, 2]))
    assert set(grads) == set(model.params)
