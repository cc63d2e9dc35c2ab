import json
import math
import re

import numpy as np
import pytest

from gestrec.network import (
    CheckpointError,
    EmptyDataset,
    InvalidMask,
    LabelOutOfRange,
    Sample,
    ShapeMismatch,
    TrainConfig,
    adam_init,
    adam_step,
    backward,
    cross_entropy,
    forward,
    init_model,
    load_checkpoint,
    lstm_backward,
    lstm_forward,
    predict,
    save_checkpoint,
    train,
)

from gradcheck import max_relative_error, random_batch, random_tiny_model


def small_model(dropout=0.0, seed=1, classes=4, bidirectional=True):
    dims = {"global": 5, "finger": 7, "skeleton": 6}
    return init_model(("global", "finger", "skeleton"), dims, classes=classes,
                      hidden=3, fc_out=4, head=(6, 5), dropout=dropout,
                      bidirectional=bidirectional, seed=seed)


def batch_for(model, rng, batch=3, t_len=6, lengths=None):
    lengths = lengths or [t_len] * batch
    mask = np.zeros((batch, t_len), dtype=bool)
    for i, length in enumerate(lengths):
        mask[i, :length] = True
    streams = {name: rng.normal(0, 1, (batch, t_len, dim))
               for name, dim in model.input_dims.items()}
    return streams, mask


# ---------------------------------------------------------------- LSTM core

def test_zero_parameter_lstm_outputs_zero():
    rng = np.random.default_rng(0)
    w = np.zeros((8, 3))
    u = np.zeros((8, 2))
    b = np.zeros(8)
    x = rng.normal(size=(2, 5, 3))
    mask = np.ones((2, 5), dtype=bool)
    hidden, _ = lstm_forward(w, u, b, x, mask)
    np.testing.assert_array_equal(hidden, 0.0)


def test_scalar_lstm_matches_hand_computation():
    # d = h = 1, two steps, gate order (input, forget, cell, output)
    w = np.array([[0.5], [-0.3], [0.8], [0.2]])
    u = np.array([[0.1], [0.4], [-0.2], [0.3]])
    b = np.array([0.05, 1.0, -0.1, 0.2])
    xs = [0.7, -1.2]

    def sigmoid(v):
        return 1.0 / (1.0 + math.exp(-v))

    h_prev = c_prev = 0.0
    state_track = []
    for x in xs:  # oracle: explicit scalar recurrence
        gi = sigmoid(w[0, 0] * x + u[0, 0] * h_prev + b[0])
        gf = sigmoid(w[1, 0] * x + u[1, 0] * h_prev + b[1])
        gg = math.tanh(w[2, 0] * x + u[2, 0] * h_prev + b[2])
        go = sigmoid(w[3, 0] * x + u[3, 0] * h_prev + b[3])
        c_prev = gf * c_prev + gi * gg
        h_prev = go * math.tanh(c_prev)
        state_track.append(h_prev)

    inputs = np.array(xs).reshape(1, 2, 1)
    hidden, _ = lstm_forward(w, u, b, inputs, np.ones((1, 2), dtype=bool))
    np.testing.assert_allclose(hidden[0, :, 0], state_track, atol=1e-14)


def test_masked_tail_copies_last_valid_state():
    rng = np.random.default_rng(1)
    w = rng.normal(size=(8, 3))
    u = rng.normal(size=(8, 2))
    b = rng.normal(size=8)
    x = rng.normal(size=(1, 7, 3))
    mask = np.zeros((1, 7), dtype=bool)
    mask[0, :4] = True
    fwd, _ = lstm_forward(w, u, b, x, mask)
    for t in range(4, 7):
        np.testing.assert_array_equal(fwd[0, t], fwd[0, 3])
    bwd, _ = lstm_forward(w, u, b, x, mask, reverse=True)
    np.testing.assert_array_equal(bwd[0, 4:], 0.0)
    assert np.any(bwd[0, 3] != 0.0)


def _oracle_sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def _oracle_lstm_forward(w, u, b, x, mask, reverse=False):
    """The per-step kernel the hoisted one replaced: every GEMM and every gate
    activation inside the time loop."""
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


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("lengths", [[5], [7, 4, 1, 6]])
def test_lstm_matches_per_step_oracle(lengths, reverse):
    rng = np.random.default_rng(40 + len(lengths))
    d, h, t_len = 5, 3, 7
    w = rng.normal(0, 0.7, (4 * h, d))
    u = rng.normal(0, 0.7, (4 * h, h))
    b = rng.normal(0, 0.7, 4 * h)
    x = rng.normal(size=(len(lengths), t_len, d))
    mask = np.arange(t_len) < np.array(lengths)[:, None]
    d_hidden = rng.normal(size=(len(lengths), t_len, h))

    hidden, cache = lstm_forward(w, u, b, x, mask, reverse=reverse)
    dw, du, db, dz = lstm_backward(cache, d_hidden)
    grads = (dw, du, db, dz @ w)
    want_hidden, want_gates, want_cell = _oracle_lstm_forward(w, u, b, x, mask, reverse)
    want_grads = _oracle_lstm_backward(w, u, x, mask, want_hidden, want_cell, want_gates,
                                       reverse, d_hidden)
    got = {"hidden": hidden, "gates": cache["gates"], "cell": cache["cell"],
           **dict(zip(("dW", "dU", "db", "dX"), grads))}
    want = {"hidden": want_hidden, "gates": want_gates, "cell": want_cell,
            **dict(zip(("dW", "dU", "db", "dX"), want_grads))}
    for key in want:
        assert got[key].shape == want[key].shape, key
        np.testing.assert_allclose(got[key], want[key], rtol=0, atol=1e-12, err_msg=key)


@pytest.mark.parametrize("magnitude", [800.0, 1e6])
def test_saturated_lstm_stays_finite(magnitude):
    h = 2
    w = np.ones((4 * h, 1))
    u = np.ones((4 * h, h))
    x = magnitude * np.array([1.0, -1.0, -1.0, 1.0, 1.0])[None, :, None]
    mask = np.ones((1, 5), dtype=bool)
    with np.errstate(over="raise", invalid="raise"):
        for reverse in (False, True):
            hidden, cache = lstm_forward(w, u, np.zeros(4 * h), x, mask, reverse=reverse)
            sigmoid_gates = np.delete(cache["gates"], np.s_[2 * h:3 * h], axis=2)
            assert np.all(np.isfinite(hidden)) and np.all(np.abs(hidden) <= 1.0)
            assert np.all((sigmoid_gates >= 0.0) & (sigmoid_gates <= 1.0))
            assert np.all(np.abs(cache["gates"][..., 2 * h:3 * h]) <= 1.0)


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


def test_dropout_masks_follow_the_documented_draw_order():
    # every trained model's reproducibility rests on this order: per branch
    # l1, summary, fc, then head.0, ..., head.out, each drawn as
    # (rng.random(shape) >= p) / (1 - p) from the generator passed in
    for bidirectional in (True, False):
        model = small_model(dropout=0.3, seed=41, bidirectional=bidirectional)
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
            want = (rng.random(shape) >= 0.3).astype(np.float64) / (1.0 - 0.3)
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


# ---------------------------------------------------------------- gradients

@pytest.mark.parametrize("bidirectional,dropout", [(True, 0.3), (False, 0.3), (True, 0.0)])
def test_gradients_match_finite_differences(bidirectional, dropout):
    rng = np.random.default_rng(13)
    model = random_tiny_model(rng, bidirectional=bidirectional, dropout=dropout)
    streams, mask, labels = random_batch(model, rng, batch=2, t_len=4)
    err = max_relative_error(model, streams, mask, labels, np.random.default_rng(14))
    assert err < 1e-4


def test_zero_input_zero_bias_gives_zero_weight_gradients():
    model = small_model(seed=15)
    for key in model.params:
        if key.endswith(".b"):
            model.params[key][:] = 0.0
    streams = {name: np.zeros((2, 5, dim)) for name, dim in model.input_dims.items()}
    mask = np.ones((2, 5), dtype=bool)
    probs, cache = forward(model, streams, mask)
    grads = backward(model, cache, np.array([0, 1]))
    for key, grad in grads.items():
        if key.endswith(".W") or key.endswith(".U"):
            np.testing.assert_array_equal(grad, 0.0, err_msg=key)


def test_batch_gradient_linearity_doubles_duplicate():
    model = small_model(seed=16)
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
        _, cache = forward(model, streams, mask)
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


def test_training_is_deterministic_given_seed():
    results = []
    for _ in range(2):
        model = small_model(dropout=0.2, seed=18)
        samples = make_samples(model, np.random.default_rng(19))
        train(model, samples, TrainConfig(epochs=3, batch_size=4, rng_seed=20))
        results.append({k: v.copy() for k, v in model.params.items()})
    for key in results[0]:
        np.testing.assert_array_equal(results[0][key], results[1][key])


def test_zero_learning_rate_keeps_parameters():
    model = small_model(seed=21)
    samples = make_samples(model, np.random.default_rng(22))
    before = {k: v.copy() for k, v in model.params.items()}
    train(model, samples, TrainConfig(learning_rate=0.0, epochs=2, batch_size=4, rng_seed=3))
    for key, arr in model.params.items():
        np.testing.assert_array_equal(arr, before[key])


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
    model = small_model(dropout=0.25, seed=31)
    rng = np.random.default_rng(32)
    samples = make_samples(model, rng)
    train(model, samples, TrainConfig(epochs=2, batch_size=4, rng_seed=33))

    first = tmp_path / "model.ckpt"
    save_checkpoint(model, first)
    loaded = load_checkpoint(first)
    assert loaded.branches == model.branches
    assert loaded.classes == model.classes
    for key, arr in model.params.items():
        np.testing.assert_array_equal(loaded.params[key], arr)
    for name in model.branches:
        np.testing.assert_array_equal(loaded.norm[name]["mean"], model.norm[name]["mean"])
        np.testing.assert_array_equal(loaded.norm[name]["std"], model.norm[name]["std"])

    second = tmp_path / "again.ckpt"
    save_checkpoint(loaded, second)
    assert first.read_bytes() == second.read_bytes()

    streams = {name: rng.normal(size=(5, dim)) for name, dim in model.input_dims.items()}
    np.testing.assert_array_equal(predict(model, streams)[1], predict(loaded, streams)[1])


def _with_header(header, **changes):
    return json.dumps({**header, **changes}, sort_keys=True).encode()


# Each case maps (magic line, header dict, BINARY marker + payload) to file bytes.
CORRUPT_CHECKPOINTS = {
    "truncated": lambda m, h, rest: [m, _with_header(h), rest[:-13]],
    "trailing-bytes": lambda m, h, rest: [m, _with_header(h), rest + bytes(8)],
    "header-not-json": lambda m, h, rest: [m, b"{hidden", rest],
    "no-hidden": lambda m, h, rest: [m, _with_header({k: v for k, v in h.items()
                                                      if k != "hidden"}), rest],
    "magic-not-utf8": lambda m, h, rest: [b"\xff\xfe" + m, _with_header(h), rest],
    "hidden-mismatch": lambda m, h, rest: [m, _with_header(h, hidden=h["hidden"] + 1), rest],
}


@pytest.mark.parametrize("case", sorted(CORRUPT_CHECKPOINTS))
def test_malformed_checkpoint_raises_checkpoint_error(case, tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(small_model(seed=36), path)
    magic, header, rest = path.read_bytes().split(b"\n", 2)
    path.write_bytes(b"\n".join(CORRUPT_CHECKPOINTS[case](magic, json.loads(header), rest)))
    with pytest.raises(CheckpointError, match=re.escape(str(path))):
        load_checkpoint(path)


def test_unidirectional_mode_works():
    model = small_model(seed=34, bidirectional=False)
    assert model.directions == ("fwd",)
    streams, mask = batch_for(model, np.random.default_rng(35))
    probs, cache = forward(model, streams, mask)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
    grads = backward(model, cache, np.array([0, 1, 2]))
    assert set(grads) == set(model.params)
