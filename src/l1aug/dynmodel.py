"""Ensemble of feedforward networks learning the one-step state increment.

Members are small tanh MLPs, stored once as stacked per-layer arrays and
trained in lockstep with Adam on normalized inputs (x, u) and targets
dx = x_next - x. The control-affinization step consumes the mean prediction
and its input Jacobian, an exact chain rule through the layers unnormalized
by the stored statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .envsim import ConfigError

Array = np.ndarray

SD_FLOOR = 1e-8


class TrainingDivergenceError(RuntimeError):
    """Loss became non-finite while training a member."""


@dataclass(frozen=True)
class Normalizer:
    """Affine input/output statistics, componentwise, stds floored at 1e-8."""

    mu_in: Array
    sd_in: Array
    mu_out: Array
    sd_out: Array

    @classmethod
    def identity(cls, dim_in: int, dim_out: int) -> "Normalizer":
        return cls(np.zeros(dim_in), np.ones(dim_in), np.zeros(dim_out), np.ones(dim_out))

    @classmethod
    def fit(cls, inputs: Array, targets: Array) -> "Normalizer":
        return cls(
            mu_in=inputs.mean(axis=0),
            sd_in=np.maximum(inputs.std(axis=0), SD_FLOOR),
            mu_out=targets.mean(axis=0),
            sd_out=np.maximum(targets.std(axis=0), SD_FLOOR),
        )

    def norm_in(self, z: Array) -> Array:
        return (z - self.mu_in) / self.sd_in

    def norm_out(self, y: Array) -> Array:
        return (y - self.mu_out) / self.sd_out

    def denorm_out(self, y: Array) -> Array:
        return y * self.sd_out + self.mu_out


def unnormalize_jacobian(j_norm: Array, sd_out: Array, sd_in: Array) -> Array:
    """Rescale a Jacobian computed in normalized coordinates to raw units.

    J = diag(sd_out) @ J' @ diag(sd_in)^-1, applied columnwise to whichever
    input slice ``j_norm`` covers.
    """
    return np.asarray(sd_out)[:, None] * j_norm / np.asarray(sd_in)[None, :]


def forward(weights: list[Array], biases: list[Array], z: Array) -> tuple[Array, list[Array]]:
    """Every member's forward pass: tanh hidden layers, identity output.

    Normalized (rows, in) inputs shared by all members, or (members, rows, in)
    per-member inputs, to (members, rows, out) outputs plus the hidden
    activations. tanh keeps the map continuously differentiable, which the
    affinization step requires.
    """
    acts = []
    a = z
    for w, b in zip(weights[:-1], biases[:-1]):
        # In place: each (members, rows, width) temporary adds to a full-dataset loss's peak memory.
        a = a @ w.swapaxes(1, 2)
        a += b[:, None, :]
        np.tanh(a, out=a)
        acts.append(a)
    return a @ weights[-1].swapaxes(1, 2) + biases[-1][:, None, :], acts


@dataclass
class Ensemble:
    """Shared-normalizer MLP members predicting dx, stored once as stacked arrays.

    Layer i is ``weights[i]``, (members, out, in), and ``biases[i]``,
    (members, out). The mean prediction is the mean over members, and its
    input Jacobian the mean of member Jacobians. Treat a trained ensemble as
    immutable: prediction and Jacobian evaluation are pure.
    """

    weights: list[Array]
    biases: list[Array]
    normalizer: Normalizer

    @property
    def n(self) -> int:
        return self.weights[-1].shape[1]

    @property
    def m(self) -> int:
        return self.weights[0].shape[2] - self.n

    def _check(self, x: Array, u: Array) -> Array:
        x, u = np.asarray(x, dtype=float), np.asarray(u, dtype=float)
        if x.shape[-1] != self.n or u.shape[-1] != self.m:
            raise ValueError(f"expected trailing dims ({self.n},), ({self.m},), got {x.shape}, {u.shape}")
        xu = np.concatenate([x, u], axis=-1)
        if not np.isfinite(xu).all():
            raise ValueError("non-finite model input")
        return xu

    def predict_mean(self, x: Array, u: Array) -> Array:
        """Denormalized mean increment prediction; supports leading batch axes."""
        xu = self._check(x, u)
        out, _ = forward(self.weights, self.biases, self.normalizer.norm_in(xu.reshape(-1, xu.shape[-1])))
        mean = self.normalizer.denorm_out(out.sum(axis=0) / len(out))
        return mean.reshape(xu.shape[:-1] + (self.n,))

    @cached_property
    def planning_map(self) -> "PlanningMap":
        """Float32 folded copy of predict_mean, built on first use.

        The cache is safe because a trained ensemble is never mutated:
        ``train`` returns a new Ensemble.
        """
        return PlanningMap(self)

    def jacobian_u(self, x: Array, u: Array) -> Array:
        """Analytic (n, m) Jacobian of predict_mean with respect to u."""
        z = self.normalizer.norm_in(self._check(x, u))
        _, acts = forward(self.weights, self.biases, z[None, :])
        jac = self.weights[-1]
        for w, a in zip(self.weights[-2::-1], acts[::-1]):
            jac = (jac * (1.0 - a**2)) @ w
        full = unnormalize_jacobian(jac.sum(axis=0) / len(jac), self.normalizer.sd_out, self.normalizer.sd_in)
        return full[:, self.n:]


class PlanningMap:
    """The ensemble mean map in float32, for the planner's batched rollouts.

    A float32 cast of the stacked weights as (members, in, out) arrays, with
    ``norm_in`` folded into the first layer and the member mean and
    ``denorm_out`` into the last, so one call takes raw [x | u] rows to raw
    mean increments. It agrees with ``predict_mean`` to float32 precision;
    everything else reads the float64 ensemble.
    """

    def __init__(self, ensemble: Ensemble):
        norm = ensemble.normalizer
        weights = [w.swapaxes(1, 2) for w in ensemble.weights]
        biases = list(ensemble.biases)
        # (xu - mu_in) / sd_in @ W  ==  xu @ (W / sd_in) - (mu_in / sd_in) @ W
        biases[0] = biases[0] - (norm.mu_in / norm.sd_in) @ weights[0]
        weights[0] = weights[0] / norm.sd_in[:, None]
        # mean over members of (a @ W + b) * sd_out + mu_out
        weights[-1] = weights[-1] * (norm.sd_out / len(weights[-1]))
        biases[-1] = biases[-1].mean(axis=0) * norm.sd_out + norm.mu_out
        self.weights = [np.ascontiguousarray(w, dtype=np.float32) for w in weights]
        self.biases = [b[:, None, :].astype(np.float32) for b in biases[:-1]] + [biases[-1].astype(np.float32)]
        self._full_biases: dict[int, list[Array]] = {}

    def __call__(self, xu: Array) -> Array:
        """(rows, n + m) float32 inputs to (rows, n) mean increments.

        Each hidden bias is added as a contiguous (members, rows, width) copy,
        built on the first call at a row count and kept: broadcasting the
        (members, 1, width) bias instead runs one short inner loop per row,
        which costs about twice as much as the add itself.
        """
        full = self._full_biases.get(len(xu))
        if full is None:
            full = self._full_biases[len(xu)] = [np.repeat(b, len(xu), axis=1) for b in self.biases[:-1]]
        a = xu
        for w, b in zip(self.weights[:-1], full):
            # In place: a fresh (members, rows, width) temporary per op costs more than the op.
            a = a @ w
            a += b
            np.tanh(a, out=a)
        return (a @ self.weights[-1]).sum(axis=0) + self.biases[-1]


def make_ensemble(
    n: int,
    m: int,
    hidden: tuple[int, ...] = (64, 64),
    members: int = 3,
    seed: int = 0,
) -> Ensemble:
    """Fresh ensemble with distinct member initializations and identity stats."""
    widths = (n + m, *hidden, n)
    root = np.random.default_rng([seed, 0x6D6F64])
    rngs = [np.random.default_rng(root.integers(2**63)) for _ in range(members)]
    weights = []
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(np.stack([rng.uniform(-bound, bound, size=(fan_out, fan_in)) for rng in rngs]))
    return Ensemble(weights, [np.zeros(w.shape[:2]) for w in weights], Normalizer.identity(n + m, n))


class TransitionDataset:
    """Append-only store of (x, u_logged, x_next) rows.

    Rows containing non-finite entries are rejected at insertion and counted
    in ``n_rejected``. Targets are the increments x_next - x.
    """

    def __init__(self, n: int, m: int):
        self.n = n
        self.m = m
        self._x: list[Array] = []
        self._u: list[Array] = []
        self._xn: list[Array] = []
        self.n_rejected = 0

    def __len__(self) -> int:
        return len(self._x)

    def append(self, x: Array, u: Array, x_next: Array) -> bool:
        x, u, x_next = (np.asarray(a, dtype=float) for a in (x, u, x_next))
        if x.shape != (self.n,) or u.shape != (self.m,) or x_next.shape != (self.n,):
            raise ValueError("dataset row has wrong dimensions")
        if not np.isfinite(np.concatenate([x, u, x_next])).all():
            self.n_rejected += 1
            return False
        self._x.append(x)
        self._u.append(u)
        self._xn.append(x_next)
        return True

    def as_arrays(self) -> tuple[Array, Array, Array]:
        if not self._x:
            return np.zeros((0, self.n)), np.zeros((0, self.m)), np.zeros((0, self.n))
        return np.stack(self._x), np.stack(self._u), np.stack(self._xn)


@dataclass(frozen=True)
class TrainOptions:
    lr: float = 1e-3
    batch_size: int = 64
    max_epochs: int = 150
    patience: int = 10
    val_fraction: float = 0.2
    min_rows: int = 64
    seed: int = 0

    def __post_init__(self):
        for name in ("batch_size", "max_epochs", "patience", "min_rows", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"TrainOptions: {name} must be an integer, got {value!r}")
        if not self.lr > 0 or self.batch_size < 1 or self.max_epochs < 0 or self.patience < 0 or self.seed < 0:
            raise ValueError("TrainOptions: need lr > 0, batch_size >= 1, and max_epochs, patience and seed >= 0")
        if not 0.0 <= self.val_fraction < 1.0:
            raise ValueError("TrainOptions: val_fraction must lie in [0, 1)")


@dataclass
class TrainReport:
    initial_val: list[float]
    final_train: list[float]
    best_val: list[float]
    epochs_run: list[int]


class _Adam:
    """Adam over one (members, P) parameter buffer, stepped in place.

    Every step runs the same elementwise ufuncs in the same order over the
    whole buffer, through two scratch buffers, so it allocates nothing.
    """

    def __init__(self, flat: Array, lr: float):
        self.lr = lr
        self.b1, self.b2, self.eps = 0.9, 0.999, 1e-8
        self.t = 0
        self.m, self.v, self._a, self._b = (np.zeros_like(flat) for _ in range(4))

    def step(self, flat: Array, grad: Array) -> None:
        self.t += 1
        c1 = 1.0 - self.b1**self.t
        c2 = 1.0 - self.b2**self.t
        a, b = self._a, self._b
        self.m *= self.b1
        self.m += np.multiply(grad, 1.0 - self.b1, out=a)
        self.v *= self.b2
        np.multiply(grad, 1.0 - self.b2, out=a)
        self.v += np.multiply(a, grad, out=a)
        # flat -= lr * (m / c1) / (sqrt(v / c2) + eps)
        np.divide(self.m, c1, out=a)
        a *= self.lr
        np.sqrt(np.divide(self.v, c2, out=b), out=b)
        b += self.eps
        a /= b
        flat -= a


def _layer_views(flat: Array, weights: list[Array]) -> tuple[list[Array], list[Array]]:
    """(members, out, in) weight and (members, out) bias views of a (members, P) buffer.

    Each member's row holds layer 0's weights, then its biases, then layer 1's,
    and so on; ``weights`` supplies the layer shapes.
    """
    ws, bs, start = [], [], 0
    for w in weights:
        _, n_out, n_in = w.shape
        ws.append(flat[:, start : start + n_out * n_in].reshape(-1, n_out, n_in))
        bs.append(flat[:, start + n_out * n_in : start + n_out * (n_in + 1)])
        start += n_out * (n_in + 1)
    return ws, bs


def _mse(weights: list[Array], biases: list[Array], z: Array, y: Array) -> Array:
    """Per-member mean squared error, as a (members,) array."""
    out, _ = forward(weights, biases, z)
    return np.mean((out - y) ** 2, axis=(1, 2))


def _grads(weights: list[Array], z: Array, delta: Array, acts: list[Array],
           g_w: list[Array], g_b: list[Array]) -> None:
    """Stacked gradients of sum(delta * output), written into every layer's ``g_w`` and ``g_b``."""
    ins = [z, *acts]
    for i in range(len(weights) - 1, -1, -1):
        np.matmul(delta.swapaxes(1, 2), ins[i], out=g_w[i])
        delta.sum(axis=1, out=g_b[i])
        if i > 0:
            delta = (delta @ weights[i]) * (1.0 - ins[i] ** 2)


def _fit(ensemble: Ensemble, z_tr: Array, y_tr: Array, z_val: Array, y_val: Array,
         opts: TrainOptions) -> tuple[Array, Array, Array, Array]:
    """Every member's Adam epochs with early stopping, over one (members, P) buffer.

    Returns the initial and best validation losses, the best-weight buffer and
    the epochs each member ran. The epoch's gathered rows, Adam's state and the
    gradient buffer are freed on return, before the caller's full-training-set
    loss sets the peak memory.
    """
    flat = np.concatenate([a.reshape(len(a), -1) for pair in zip(ensemble.weights, ensemble.biases)
                           for a in pair], axis=1)
    weights, biases = _layer_views(flat, ensemble.weights)
    grad = np.empty_like(flat)
    g_w, g_b = _layer_views(grad, ensemble.weights)
    adam = _Adam(flat, opts.lr)
    initial_val = _mse(weights, biases, z_val, y_val)
    member_rngs = [np.random.default_rng([opts.seed, 0x6D62, k]) for k in range(len(initial_val))]
    best_val, best = initial_val.copy(), flat.copy()
    best_epoch, epochs_run = np.zeros((2, len(initial_val)), dtype=int)
    active = np.ones(len(initial_val), dtype=bool)
    for epoch in range(1, opts.max_epochs + 1):
        if not active.any():
            break
        order = np.stack([r.permutation(len(z_tr)) for r in member_rngs])
        z_ep, y_ep = z_tr[order], y_tr[order]
        for start in range(0, len(z_tr), opts.batch_size):
            zb, yb = z_ep[:, start : start + opts.batch_size], y_ep[:, start : start + opts.batch_size]
            pred, acts = forward(weights, biases, zb)
            grad_out = 2.0 * (pred - yb) / (yb.shape[1] * yb.shape[2])
            _grads(weights, zb, grad_out, acts, g_w, g_b)
            adam.step(flat, grad)
        val_loss = _mse(weights, biases, z_val, y_val)
        epochs_run[active] = epoch
        diverged = active & ~np.isfinite(val_loss)
        if diverged.any():
            raise TrainingDivergenceError(f"member {np.argmax(diverged)}: non-finite validation loss at epoch {epoch}")
        improved = active & (val_loss < best_val)
        best_val[improved] = val_loss[improved]
        best_epoch[improved] = epoch
        best[improved] = flat[improved]
        active &= improved | (epoch - best_epoch < opts.patience)
    return initial_val, best_val, best, epochs_run


def train(ensemble: Ensemble, data: TransitionDataset, opts: TrainOptions) -> tuple[Ensemble, TrainReport]:
    """Train every member on the normalized increment loss with early stopping.

    The normalizer is refit on the training split only. Members step in
    lockstep, each on its own shuffle stream, until the last one stops; a
    stopped member's losses are no longer read, and each member's
    best-validation weights are restored. The layer arrays train as views of
    one (members, P) buffer, which Adam and the best-weight snapshot treat
    whole, and each epoch gathers every member's shuffled rows once. Returns a
    new Ensemble, with contiguous copies of the best weights, bound to the
    refit normalizer plus per-member losses.
    """
    if len(data) == 0:
        raise ConfigError("training dataset is empty")
    if len(data) < opts.min_rows:
        raise ConfigError(f"training dataset has {len(data)} rows, need at least {opts.min_rows}")

    xs, us, xns = data.as_arrays()
    inputs = np.concatenate([xs, us], axis=1)
    targets = xns - xs

    perm = np.random.default_rng([opts.seed, 0x7472]).permutation(len(inputs))
    n_val = max(1, int(round(opts.val_fraction * len(inputs))))
    val_idx, tr_idx = perm[:n_val], perm[n_val:]
    if len(tr_idx) == 0:
        raise ConfigError("validation fraction leaves no training rows")

    normalizer = Normalizer.fit(inputs[tr_idx], targets[tr_idx])
    z_tr = normalizer.norm_in(inputs[tr_idx])
    y_tr = normalizer.norm_out(targets[tr_idx])
    z_val = normalizer.norm_in(inputs[val_idx])
    y_val = normalizer.norm_out(targets[val_idx])

    initial_val, best_val, best, epochs_run = _fit(ensemble, z_tr, y_tr, z_val, y_val, opts)
    weights, biases = ([a.copy() for a in views] for views in _layer_views(best, ensemble.weights))
    final_train = _mse(weights, biases, z_tr, y_tr)
    if not np.isfinite(final_train).all():
        raise TrainingDivergenceError(f"member {np.argmin(np.isfinite(final_train))}: non-finite training loss")
    report = TrainReport(initial_val.tolist(), final_train.tolist(), best_val.tolist(), epochs_run.tolist())
    return Ensemble(weights=weights, biases=biases, normalizer=normalizer), report
