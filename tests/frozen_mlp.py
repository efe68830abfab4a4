"""The MLP's own forward, backward and SGD loop, kept as a reference.

An MLP used to be a separate model type with these passes and a flattened
(N, H*W) input. It is now a ``Network`` of a Flatten stage and Dense
stages; tests check that the stage network reproduces these results bit
for bit.
"""

import numpy as np

from faultlab.netcore.network import cross_entropy, softmax


def mlp_forward(model, x: np.ndarray, linear_fn=None):
    """Forward pass returning (logits, activations list).

    ``linear_fn(model, layer, a) -> a @ W[layer] + b[layer]`` may be
    substituted; activations[l] is the input to layer l, activations[-1]
    the logits.
    """
    n_layers = len(model.weights)
    a = np.asarray(x, dtype=np.float64)
    if a.ndim == 1:
        a = a[None, :]
    acts = [a]
    for l in range(n_layers):
        z = (
            a @ model.weights[l] + model.biases[l]
            if linear_fn is None
            else linear_fn(model, l, a)
        )
        a = np.maximum(z, 0.0) if l < n_layers - 1 else z
        acts.append(a)
    return acts[-1], acts


def mlp_backward(model, acts, labels):
    """Gradients of mean cross-entropy from cached activations."""
    n_layers = len(model.weights)
    logits = acts[-1]
    n = logits.shape[0]
    probs = softmax(logits)
    delta = probs.copy()
    delta[np.arange(n), labels] -= 1.0
    delta /= n

    grads_w, grads_b = [None] * n_layers, [None] * n_layers
    for l in range(n_layers - 1, -1, -1):
        grads_w[l] = acts[l].T @ delta
        grads_b[l] = delta.sum(axis=0)
        if l > 0:
            delta = (delta @ model.weights[l].T) * (acts[l] > 0)
    return grads_w, grads_b


def flat_float(dataset) -> np.ndarray:
    """Images flattened to (N, H*W) floats in [0, 1]."""
    return dataset.images.reshape(len(dataset), -1).astype(np.float64) / 255.0


def train_sgd(model, train, epochs, lr, seed, batch_size=64, test=None):
    """The SGD loop of ``netcore.train.train_sgd`` on the passes above."""
    model = model.copy()
    xs, ys = flat_float(train), train.labels
    rng = np.random.default_rng(seed)
    history = []
    for _ in range(epochs):
        order = rng.permutation(len(train))
        for start in range(0, len(train), batch_size):
            idx = order[start : start + batch_size]
            logits, acts = mlp_forward(model, xs[idx])
            assert np.isfinite(cross_entropy(logits, ys[idx]))
            grads_w, grads_b = mlp_backward(model, acts, ys[idx])
            for l in range(len(model.weights)):
                model.weights[l] -= lr * grads_w[l]
                model.biases[l] -= lr * grads_b[l]
        held = test if test is not None else train
        pred = np.argmax(mlp_forward(model, flat_float(held))[0], axis=1)
        history.append(float(np.mean(pred == held.labels)))
    return model, history
