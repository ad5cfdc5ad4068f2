"""Feed-forward frame classifier producing per-state alignment posteriors.

A plain ReLU MLP with a softmax output over the 33 word states, trained by
mini-batch SGD with momentum on hard alignment labels.  Inference produces
a (T, 33) array of state posteriors, the same plain array as any other
alignment; posteriors computed elsewhere are read from DVPO files with
``formats.read_dvpo``, which checks them.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import DigitsvError, NonFiniteLoss
from .features import FeatureKind, FeatureSequence
from .gmm import column_mean_var
from .hmm import N_STATES


@dataclass
class MlpModel:
    weights: list          # per layer, (fan_in, fan_out)
    biases: list           # per layer, (fan_out,)
    input_mean: np.ndarray
    input_std: np.ndarray
    input_kind: FeatureKind
    class_priors: np.ndarray

    def __post_init__(self):
        if not all(isinstance(a, np.ndarray) for a in (*self.weights, *self.biases)):
            raise ValueError("every layer weight and bias must be an array")
        shapes = [np.shape(w) for w in self.weights]
        if not shapes or len(self.biases) != len(shapes) or any(len(s) != 2 for s in shapes):
            raise ValueError("an MLP needs one (fan_in, fan_out) weight matrix and one bias "
                             "per layer")
        for k, ((fan_in, fan_out), bias) in enumerate(zip(shapes, self.biases)):
            if np.shape(bias) != (fan_out,):
                raise ValueError(f"layer {k} has {fan_out} outputs but bias {np.shape(bias)}")
            if k and fan_in != shapes[k - 1][1]:
                raise ValueError(f"layer {k} takes {fan_in} inputs, layer {k - 1} gives "
                                 f"{shapes[k - 1][1]}")
        for name, size in (("input_mean", shapes[0][0]), ("input_std", shapes[0][0]),
                           ("class_priors", shapes[-1][1])):
            if np.shape(getattr(self, name)) != (size,):
                raise ValueError(f"{name} is {np.shape(getattr(self, name))}, not ({size},)")

    @property
    def input_dim(self):
        return self.weights[0].shape[0]

    @property
    def n_outputs(self):
        return self.weights[-1].shape[1]


LR_DECAY = 0.9           # multiplicative, per epoch
MOMENTUM = 0.9
HELDOUT_FRACTION = 0.1   # of the frames, held out to pick the best epoch


@dataclass
class MlpTrainConfig:
    hidden_dims: tuple = (512, 512, 512, 512)
    n_outputs: int = N_STATES
    learning_rate: float = 0.05
    batch_size: int = 256
    epochs: int = 15
    seed: int = 0
    input_kind: FeatureKind = FeatureKind.SPLICED

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")


def _forward(model: MlpModel, x: np.ndarray):
    """Hidden activations (post-ReLU) and output log-softmax rows."""
    h = (x - model.input_mean) / model.input_std
    hidden = []
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        h = np.maximum(h @ w + b, 0.0)
        hidden.append(h)
    logits = h @ model.weights[-1] + model.biases[-1]
    logits -= logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(logits).sum(axis=1, keepdims=True))
    return hidden, logits - log_z


def posterior_matrix(model: MlpModel, frames: np.ndarray) -> np.ndarray:
    """(T, n_outputs) softmax posteriors for raw (unnormalized) frames."""
    _, log_post = _forward(model, np.asarray(frames, dtype=np.float64))
    return np.exp(log_post)


def loss_and_gradients(model: MlpModel, frames: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy over the batch and its parameter gradients."""
    frames = np.asarray(frames, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n = frames.shape[0]
    hidden, log_post = _forward(model, frames)
    loss = -float(log_post[np.arange(n), labels].mean())

    delta = np.exp(log_post)
    delta[np.arange(n), labels] -= 1.0
    delta /= n

    x0 = (frames - model.input_mean) / model.input_std
    acts = [x0] + hidden
    grads_w = [None] * len(model.weights)
    grads_b = [None] * len(model.biases)
    for layer in range(len(model.weights) - 1, -1, -1):
        grads_w[layer] = acts[layer].T @ delta
        grads_b[layer] = delta.sum(axis=0)
        if layer > 0:
            delta = (delta @ model.weights[layer].T) * (acts[layer] > 0)
    return loss, grads_w, grads_b


def _init_model(dim, cfg: MlpTrainConfig, input_mean, input_std, priors, rng) -> MlpModel:
    sizes = [dim, *cfg.hidden_dims, cfg.n_outputs]
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return MlpModel(weights, biases, input_mean, input_std, cfg.input_kind, priors)


def _snapshot(model: MlpModel) -> MlpModel:
    return replace(
        model,
        weights=[w.copy() for w in model.weights],
        biases=[b.copy() for b in model.biases],
    )


# at most this many rows per forward pass when a whole frame set is
# evaluated, and per statistics chunk: a default minibatch, not the corpus
_CHUNK_ROWS = 256


def _chunks(idx: np.ndarray) -> list[np.ndarray]:
    """``idx`` in nearly equal runs of at most _CHUNK_ROWS.

    No run has a single row unless ``idx`` does: a one-row matrix product
    goes to BLAS gemv, which may sum in another order than the gemm of the
    unchunked product.
    """
    return np.array_split(idx, max(1, -(-len(idx) // _CHUNK_ROWS)))


def _mean_log_posterior(model: MlpModel, frames: np.ndarray, idx: np.ndarray,
                        labels: np.ndarray) -> float:
    """Mean log posterior of ``labels`` on the rows ``frames[idx]``, a chunk at a time."""
    picked = np.empty(len(idx))
    start = 0
    for chunk in _chunks(idx):
        rows = slice(start, start + len(chunk))
        _, log_post = _forward(model, np.asarray(frames[chunk], dtype=np.float64))
        picked[rows] = log_post[np.arange(len(chunk)), labels[rows]]
        start = rows.stop
    return float(picked.mean())


def train_mlp(frames: np.ndarray, labels: np.ndarray, cfg: MlpTrainConfig | None = None) -> MlpModel:
    """Train the frame classifier; deterministic under a fixed seed.

    Raises DigitsvError unless every label 0..n_outputs-1 occurs.  If the
    loss goes non-finite, NonFiniteLoss is raised carrying the last
    finite-loss epoch snapshot as ``checkpoint``.  ``frames`` are kept in
    their own dtype; each minibatch or chunk is widened to float64 on its own.
    """
    cfg = cfg or MlpTrainConfig()
    frames = np.asarray(frames)
    labels = np.asarray(labels, dtype=np.int64)
    present = np.bincount(labels, minlength=cfg.n_outputs)
    missing = np.nonzero(present == 0)[0]
    if missing.size:
        raise DigitsvError(f"no training examples for states {missing.tolist()}")

    rng = np.random.default_rng(cfg.seed)
    order = rng.permutation(frames.shape[0])
    n_held = max(1, int(round(HELDOUT_FRACTION * frames.shape[0])))
    # minibatches and statistics index into ``frames``; no split copy is made
    held_idx, train_idx = order[:n_held], order[n_held:]
    y_train, y_held = labels[train_idx], labels[held_idx]

    mean, var = column_mean_var(lambda: (frames[chunk] for chunk in _chunks(train_idx)))
    std = np.sqrt(np.maximum(var, 1e-8))
    priors = np.maximum(np.bincount(y_train, minlength=cfg.n_outputs) / len(y_train), 1e-8)
    model = _init_model(frames.shape[1], cfg, mean, std, priors, rng)

    vel_w = [np.zeros_like(w) for w in model.weights]
    vel_b = [np.zeros_like(b) for b in model.biases]
    lr = cfg.learning_rate
    best = (_snapshot(model), -_mean_log_posterior(model, frames, held_idx, y_held))
    checkpoint = best[0]
    for _ in range(cfg.epochs):
        perm = rng.permutation(len(y_train))
        for start in range(0, len(perm), cfg.batch_size):
            batch = perm[start:start + cfg.batch_size]
            loss, gw, gb = loss_and_gradients(model, frames[train_idx[batch]],
                                              y_train[batch])
            if not np.isfinite(loss):
                raise NonFiniteLoss(f"training loss became {loss!r}", checkpoint=checkpoint)
            for k in range(len(model.weights)):
                vel_w[k] = MOMENTUM * vel_w[k] - lr * gw[k]
                vel_b[k] = MOMENTUM * vel_b[k] - lr * gb[k]
                model.weights[k] += vel_w[k]
                model.biases[k] += vel_b[k]
        lr *= LR_DECAY
        checkpoint = _snapshot(model)
        held_ce = -_mean_log_posterior(model, frames, held_idx, y_held)
        if held_ce < best[1]:
            best = (checkpoint, held_ce)

    model, held_ce = best
    baseline = -float(np.log(priors.max()))
    if held_ce >= baseline:
        warnings.warn(
            f"held-out cross-entropy {held_ce:.4f} did not beat the prior baseline {baseline:.4f}"
        )
    return model


def mlp_posteriors(model: MlpModel, feats: FeatureSequence) -> np.ndarray:
    """(T, 33) per-frame state posteriors from the classifier."""
    if feats.kind != model.input_kind:
        raise DigitsvError(f"model expects {model.input_kind.value} input, got {feats.kind.value}")
    if feats.dim != model.input_dim:
        raise DigitsvError(f"model expects {model.input_dim}-dim input, got {feats.dim}")
    if model.n_outputs != N_STATES:
        raise DigitsvError(f"alignment needs {N_STATES} outputs, model has {model.n_outputs}")
    return posterior_matrix(model, feats.frames)
