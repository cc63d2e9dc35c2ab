"""Central finite-difference gradient checking used by unit and acceptance tests."""

import numpy as np

from gestrec.network import backward, cross_entropy, forward, init_model


def random_tiny_model(rng, bidirectional=True, dropout=0.3):
    dims = {"global": int(rng.integers(3, 6)),
            "finger": int(rng.integers(3, 6)),
            "skeleton": int(rng.integers(3, 6))}
    model = init_model(
        ("global", "finger", "skeleton"), dims, classes=3,
        hidden=int(rng.integers(2, 4)), fc_out=int(rng.integers(2, 4)),
        head=(int(rng.integers(3, 5)),), dropout=dropout, bidirectional=bidirectional,
        seed=int(rng.integers(0, 2 ** 31)))
    # jitter every parameter (biases included) so no ReLU pre-activation sits
    # exactly on its kink, where finite differences and the subgradient
    # convention legitimately disagree
    for arr in model.params.values():
        arr += rng.normal(0.0, 0.05, arr.shape)
    return model


def random_batch(model, rng, batch=2, t_len=5):
    lengths = [t_len] + [int(rng.integers(2, t_len + 1)) for _ in range(batch - 1)]
    mask = np.zeros((batch, t_len), dtype=bool)
    for i, length in enumerate(lengths):
        mask[i, :length] = True
    streams = {name: rng.normal(0, 1, (batch, t_len, dim))
               for name, dim in model.input_dims.items()}
    labels = rng.integers(0, model.classes, batch)
    return streams, mask, labels


def max_relative_error(model, streams, mask, labels, rng, h=1e-5):
    """Worst guarded relative error |fd - grad| / max(|fd| + |grad|, 1e-6)
    over every parameter element, with dropout masks held fixed."""
    probs, cache = forward(model, streams, mask, train_mode=True, rng=rng)
    grads = backward(model, cache, labels)
    masks = cache["dropout"]

    def loss_now():
        p, _ = forward(model, streams, mask, train_mode=True, dropout_masks=masks)
        return cross_entropy(p, labels)

    worst = 0.0
    for name, param in model.params.items():
        grad = grads[name]
        it = np.nditer(param, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = param[idx]
            param[idx] = orig + h
            loss_plus = loss_now()
            param[idx] = orig - h
            loss_minus = loss_now()
            param[idx] = orig
            fd = (loss_plus - loss_minus) / (2.0 * h)
            denom = max(abs(fd) + abs(grad[idx]), 1e-6)
            worst = max(worst, abs(fd - grad[idx]) / denom)
    return worst
