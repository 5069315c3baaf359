"""Ensemble of feedforward networks learning the one-step state increment.

Members are small tanh MLPs trained independently with Adam on normalized
inputs (x, u) and normalized targets dx = x_next - x. The mean prediction and
its analytic Jacobian with respect to the input are the quantities consumed
by the control-affinization step, so the Jacobian is computed by an exact
chain rule through the layers and unnormalized by the stored statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .envsim import ConfigError

Array = np.ndarray

SD_FLOOR = 1e-8
ENSEMBLE_FILE_VERSION = 1


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

    def denorm_in(self, z: Array) -> Array:
        return z * self.sd_in + self.mu_in

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


class MlpModel:
    """Feedforward net, tanh hidden layers, identity output.

    ``widths`` includes input and output sizes, e.g. (5, 64, 64, 4); a
    two-entry tuple gives a plain linear map. tanh keeps the model
    continuously differentiable everywhere, which the affinization step
    requires.
    """

    def __init__(self, widths: tuple[int, ...], rng: np.random.Generator):
        if len(widths) < 2:
            raise ConfigError("MlpModel needs at least input and output widths")
        self.widths = tuple(int(w) for w in widths)
        self.weights: list[Array] = []
        self.biases: list[Array] = []
        for fan_in, fan_out in zip(self.widths[:-1], self.widths[1:]):
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            self.weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
            self.biases.append(np.zeros(fan_out))

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def forward(self, z: Array) -> Array:
        """Normalized input (, in) or (batch, in) to normalized output."""
        a = z
        for i in range(self.n_layers - 1):
            a = np.tanh(a @ self.weights[i].T + self.biases[i])
        return a @ self.weights[-1].T + self.biases[-1]

    def forward_cached(self, z: Array) -> tuple[Array, list[Array]]:
        """Forward pass keeping hidden activations for backprop."""
        acts = []
        a = z
        for i in range(self.n_layers - 1):
            a = np.tanh(a @ self.weights[i].T + self.biases[i])
            acts.append(a)
        return a @ self.weights[-1].T + self.biases[-1], acts

    def backprop(self, z: Array, grad_out: Array, acts: list[Array]) -> list[tuple[Array, Array]]:
        """Gradients of sum(grad_out * output) w.r.t. weights and biases."""
        grads: list[tuple[Array, Array]] = [None] * self.n_layers  # type: ignore[list-item]
        delta = grad_out
        for i in range(self.n_layers - 1, -1, -1):
            a_prev = acts[i - 1] if i > 0 else z
            grads[i] = (delta.T @ a_prev, delta.sum(axis=0))
            if i > 0:
                delta = (delta @ self.weights[i]) * (1.0 - acts[i - 1] ** 2)
        return grads

    def input_jacobian(self, z: Array) -> Array:
        """Exact (out, in) Jacobian of the normalized map at a single input."""
        _, acts = self.forward_cached(z[None, :])
        jac = self.weights[-1]
        for i in range(self.n_layers - 2, -1, -1):
            jac = (jac * (1.0 - acts[i][0] ** 2)[None, :]) @ self.weights[i]
        return jac

    def copy_weights(self) -> list[tuple[Array, Array]]:
        return [(w.copy(), b.copy()) for w, b in zip(self.weights, self.biases)]

    def load_weights(self, snapshot: list[tuple[Array, Array]]) -> None:
        self.weights = [w.copy() for w, _ in snapshot]
        self.biases = [b.copy() for _, b in snapshot]


@dataclass
class Ensemble:
    """Shared-normalizer collection of MLP members predicting dx.

    The mean prediction is the arithmetic mean over members; the input
    Jacobian of the mean is the mean of member Jacobians. Treat a trained
    ensemble as immutable: prediction and Jacobian evaluation are pure.
    """

    members: list[MlpModel]
    normalizer: Normalizer
    n: int
    m: int
    seed: int

    def _check(self, x: Array, u: Array) -> Array:
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        if x.shape[-1] != self.n or u.shape[-1] != self.m:
            raise ValueError(f"expected trailing dims ({self.n},), ({self.m},), got {x.shape}, {u.shape}")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(u))):
            raise ValueError("non-finite model input")
        return np.concatenate([x, u], axis=-1)

    def predict_mean(self, x: Array, u: Array) -> Array:
        """Denormalized mean increment prediction; supports leading batch axes."""
        z = self.normalizer.norm_in(self._check(x, u))
        out = self.members[0].forward(z)
        for member in self.members[1:]:
            out = out + member.forward(z)
        return self.normalizer.denorm_out(out / len(self.members))

    @cached_property
    def planning_map(self) -> "PlanningMap":
        """Float32 stacked copy of predict_mean, built on first use.

        The cache is safe because a trained ensemble is never mutated:
        ``train`` returns a new Ensemble.
        """
        return PlanningMap(self)

    def jacobian_u(self, x: Array, u: Array) -> Array:
        """Analytic (n, m) Jacobian of predict_mean with respect to u."""
        z = self.normalizer.norm_in(self._check(x, u))
        jac = self.members[0].input_jacobian(z)
        for member in self.members[1:]:
            jac = jac + member.input_jacobian(z)
        jac = jac / len(self.members)
        full = unnormalize_jacobian(jac, self.normalizer.sd_out, self.normalizer.sd_in)
        return full[:, self.n:]


class PlanningMap:
    """The ensemble mean map in float32, for the planner's batched rollouts.

    Member weights are stacked and pre-transposed as (members, in, out)
    arrays. ``norm_in`` is folded into the first layer, and the member mean
    and ``denorm_out`` into the last, so one call takes raw [x | u] rows to
    raw mean increments: tanh layers over the stacked (members, rows, width)
    activations, then a sum over members. It agrees with ``predict_mean`` to
    float32 precision; everything else reads the float64 ensemble.
    """

    def __init__(self, ensemble: Ensemble):
        norm = ensemble.normalizer
        members = ensemble.members
        layers = range(members[0].n_layers)
        weights = [np.stack([net.weights[i].T for net in members]) for i in layers]
        biases = [np.stack([net.biases[i] for net in members]) for i in layers]
        # (xu - mu_in) / sd_in @ W  ==  xu @ (W / sd_in) - (mu_in / sd_in) @ W
        biases[0] = biases[0] - (norm.mu_in / norm.sd_in) @ weights[0]
        weights[0] = weights[0] / norm.sd_in[:, None]
        # mean over members of (a @ W + b) * sd_out + mu_out
        weights[-1] = weights[-1] * (norm.sd_out / len(members))
        biases[-1] = biases[-1].mean(axis=0) * norm.sd_out + norm.mu_out
        self.weights = [np.ascontiguousarray(w, dtype=np.float32) for w in weights]
        self.biases = [b[:, None, :].astype(np.float32) for b in biases[:-1]] + [biases[-1].astype(np.float32)]

    def __call__(self, xu: Array) -> Array:
        """(rows, n + m) float32 inputs to (rows, n) mean increments."""
        a = xu
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
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
    nets = [MlpModel(widths, np.random.default_rng(root.integers(2**63))) for _ in range(members)]
    return Ensemble(members=nets, normalizer=Normalizer.identity(n + m, n), n=n, m=m, seed=seed)


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
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        x_next = np.asarray(x_next, dtype=float)
        if x.shape != (self.n,) or u.shape != (self.m,) or x_next.shape != (self.n,):
            raise ValueError("dataset row has wrong dimensions")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(u)) and np.all(np.isfinite(x_next))):
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
        if not self.lr > 0 or self.batch_size < 1 or self.max_epochs < 0 or self.patience < 0:
            raise ValueError("TrainOptions: need lr > 0, batch_size >= 1, max_epochs >= 0 and patience >= 0")
        if not 0.0 <= self.val_fraction < 1.0:
            raise ValueError("TrainOptions: val_fraction must lie in [0, 1)")


@dataclass
class TrainReport:
    initial_val: list[float] = field(default_factory=list)
    final_train: list[float] = field(default_factory=list)
    best_val: list[float] = field(default_factory=list)
    epochs_run: list[int] = field(default_factory=list)


class _Adam:
    def __init__(self, params: list[Array], lr: float):
        self.lr = lr
        self.b1, self.b2, self.eps = 0.9, 0.999, 1e-8
        self.t = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]

    def step(self, params: list[Array], grads: list[Array]) -> None:
        self.t += 1
        c1 = 1.0 - self.b1**self.t
        c2 = 1.0 - self.b2**self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= self.b1
            m += (1.0 - self.b1) * g
            v *= self.b2
            v += (1.0 - self.b2) * g * g
            p -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)


def _mse(member: MlpModel, z: Array, y: Array) -> float:
    pred = member.forward(z)
    return float(np.mean((pred - y) ** 2))


def train(ensemble: Ensemble, data: TransitionDataset, opts: TrainOptions) -> tuple[Ensemble, TrainReport]:
    """Train every member on the normalized increment loss with early stopping.

    The normalizer is refit on the training split only, members keep their
    own shuffle streams, and the best-validation weights are restored. Returns
    a new Ensemble bound to the refit normalizer plus per-member losses.
    """
    if len(data) == 0:
        raise ConfigError("training dataset is empty")
    if len(data) < opts.min_rows:
        raise ConfigError(f"training dataset has {len(data)} rows, need at least {opts.min_rows}")

    xs, us, xns = data.as_arrays()
    inputs = np.concatenate([xs, us], axis=1)
    targets = xns - xs

    rng = np.random.default_rng([opts.seed, 0x7472])
    perm = rng.permutation(len(inputs))
    n_val = max(1, int(round(opts.val_fraction * len(inputs))))
    val_idx, tr_idx = perm[:n_val], perm[n_val:]
    if len(tr_idx) == 0:
        raise ConfigError("validation fraction leaves no training rows")

    normalizer = Normalizer.fit(inputs[tr_idx], targets[tr_idx])
    z_tr = normalizer.norm_in(inputs[tr_idx])
    y_tr = normalizer.norm_out(targets[tr_idx])
    z_val = normalizer.norm_in(inputs[val_idx])
    y_val = normalizer.norm_out(targets[val_idx])

    report = TrainReport()
    new_members: list[MlpModel] = []
    for idx, member in enumerate(ensemble.members):
        net = MlpModel(member.widths, np.random.default_rng(0))
        net.load_weights(member.copy_weights())
        member_rng = np.random.default_rng([opts.seed, 0x6D62, idx])
        params = net.weights + net.biases
        adam = _Adam(params, opts.lr)

        best_val = _mse(net, z_val, y_val)
        report.initial_val.append(best_val)
        best_snapshot = net.copy_weights()
        best_epoch = 0
        epoch = 0
        for epoch in range(1, opts.max_epochs + 1):
            order = member_rng.permutation(len(z_tr))
            for start in range(0, len(order), opts.batch_size):
                batch = order[start : start + opts.batch_size]
                zb, yb = z_tr[batch], y_tr[batch]
                pred, acts = net.forward_cached(zb)
                grad_out = 2.0 * (pred - yb) / (len(batch) * yb.shape[1])
                grads = net.backprop(zb, grad_out, acts)
                flat = [g for g, _ in grads] + [g for _, g in grads]
                adam.step(params, flat)
            val_loss = _mse(net, z_val, y_val)
            if not np.isfinite(val_loss):
                raise TrainingDivergenceError(f"member {idx}: non-finite validation loss at epoch {epoch}")
            if val_loss < best_val:
                best_val = val_loss
                best_snapshot = net.copy_weights()
                best_epoch = epoch
            elif epoch - best_epoch >= opts.patience:
                break
        net.load_weights(best_snapshot)
        train_loss = _mse(net, z_tr, y_tr)
        if not np.isfinite(train_loss):
            raise TrainingDivergenceError(f"member {idx}: non-finite training loss")
        report.final_train.append(train_loss)
        report.best_val.append(best_val)
        report.epochs_run.append(epoch)
        new_members.append(net)

    trained = Ensemble(members=new_members, normalizer=normalizer, n=ensemble.n, m=ensemble.m, seed=ensemble.seed)
    return trained, report


def save_ensemble(path: str | Path, ensemble: Ensemble) -> None:
    """Persist weights, widths, normalizer stats, and seed to a versioned npz."""
    payload: dict[str, Array] = {
        "version": np.array(ENSEMBLE_FILE_VERSION),
        "n": np.array(ensemble.n),
        "m": np.array(ensemble.m),
        "seed": np.array(ensemble.seed),
        "n_members": np.array(len(ensemble.members)),
        "mu_in": ensemble.normalizer.mu_in,
        "sd_in": ensemble.normalizer.sd_in,
        "mu_out": ensemble.normalizer.mu_out,
        "sd_out": ensemble.normalizer.sd_out,
    }
    for i, member in enumerate(ensemble.members):
        payload[f"widths_{i}"] = np.asarray(member.widths)
        for layer, (w, b) in enumerate(zip(member.weights, member.biases)):
            payload[f"w_{i}_{layer}"] = w
            payload[f"b_{i}_{layer}"] = b
    np.savez(Path(path), **payload)


def load_ensemble(path: str | Path) -> Ensemble:
    with np.load(Path(path)) as data:
        version = int(data["version"])
        if version != ENSEMBLE_FILE_VERSION:
            raise ConfigError(f"unsupported ensemble file version {version}")
        normalizer = Normalizer(
            mu_in=data["mu_in"], sd_in=data["sd_in"], mu_out=data["mu_out"], sd_out=data["sd_out"]
        )
        members = []
        for i in range(int(data["n_members"])):
            widths = tuple(int(w) for w in data[f"widths_{i}"])
            net = MlpModel(widths, np.random.default_rng(0))
            net.weights = [data[f"w_{i}_{layer}"].copy() for layer in range(len(widths) - 1)]
            net.biases = [data[f"b_{i}_{layer}"].copy() for layer in range(len(widths) - 1)]
            members.append(net)
        return Ensemble(
            members=members, normalizer=normalizer,
            n=int(data["n"]), m=int(data["m"]), seed=int(data["seed"]),
        )
