from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from l1aug.dynmodel import (
    Ensemble,
    Normalizer,
    PlanningMap,
    TrainOptions,
    TrainReport,
    TrainingDivergenceError,
    TransitionDataset,
    forward,
    make_ensemble,
    train,
    unnormalize_jacobian,
)
from l1aug.envsim import ConfigError

from conftest import linear_increment


# --- Normalizer ---------------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(arrays(np.float64, (6,), elements=st.floats(-1e3, 1e3)))
def test_normalizer_round_trip(y):
    norm = Normalizer(
        mu_in=np.arange(6.0), sd_in=np.linspace(0.5, 3.0, 6),
        mu_out=np.arange(6.0), sd_out=np.linspace(0.5, 3.0, 6),
    )
    assert np.allclose(norm.norm_out(norm.denorm_out(y)), y, atol=1e-12, rtol=1e-12)
    assert np.allclose(norm.denorm_out(norm.norm_out(y)), y, atol=1e-12, rtol=1e-12)
    assert np.allclose(norm.norm_in(y * norm.sd_in + norm.mu_in), y, atol=1e-12, rtol=1e-12)


def test_normalizer_sd_floor():
    data = np.ones((10, 3))
    norm = Normalizer.fit(data, data)
    assert np.all(norm.sd_in >= 1e-8)
    assert np.all(norm.sd_out >= 1e-8)


# --- Jacobian unnormalization ---------------------------------------------------


def test_unnormalize_jacobian_scalar_case():
    j = unnormalize_jacobian(np.array([[1.0]]), sd_out=np.array([2.0]), sd_in=np.array([4.0]))
    assert j[0, 0] == pytest.approx(0.5, abs=0)


def test_unnormalize_jacobian_random_diagonals():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n, k = rng.integers(1, 5), rng.integers(1, 5)
        j_norm = rng.normal(size=(n, k))
        sd_out = rng.uniform(0.1, 3.0, n)
        sd_in = rng.uniform(0.1, 3.0, k)
        expected = np.diag(sd_out) @ j_norm @ np.linalg.inv(np.diag(sd_in))
        assert np.allclose(unnormalize_jacobian(j_norm, sd_out, sd_in), expected, atol=1e-12)


# --- Dataset --------------------------------------------------------------------


def test_dataset_rejects_non_finite_rows():
    ds = TransitionDataset(2, 1)
    assert ds.append(np.zeros(2), np.zeros(1), np.ones(2))
    assert not ds.append(np.array([np.nan, 0.0]), np.zeros(1), np.ones(2))
    assert not ds.append(np.zeros(2), np.array([np.inf]), np.ones(2))
    assert len(ds) == 1
    assert ds.n_rejected == 2


def test_dataset_dimension_check():
    ds = TransitionDataset(2, 1)
    with pytest.raises(ValueError):
        ds.append(np.zeros(3), np.zeros(1), np.zeros(2))


# --- Training -------------------------------------------------------------------


def test_train_requires_rows():
    ens = make_ensemble(2, 1)
    with pytest.raises(ConfigError):
        train(ens, TransitionDataset(2, 1), TrainOptions())
    small = TransitionDataset(2, 1)
    for _ in range(10):
        small.append(np.zeros(2), np.zeros(1), np.zeros(2))
    with pytest.raises(ConfigError):
        train(ens, small, TrainOptions(min_rows=64))


@pytest.mark.parametrize("bad", [
    {"batch_size": 0}, {"lr": 0.0}, {"lr": float("nan")}, {"max_epochs": -1}, {"patience": -1},
    {"val_fraction": 1.0}, {"val_fraction": -0.1},
    {"batch_size": 2.5}, {"max_epochs": True}, {"patience": 3.0}, {"min_rows": "64"}, {"min_rows": False},
    {"seed": 1.5}, {"seed": True}, {"seed": -2},
])
def test_train_options_reject_unrunnable_values(bad):
    with pytest.raises(ValueError, match="TrainOptions"):
        TrainOptions(**bad)


def test_train_linear_system_reaches_low_val_loss(linear_ensemble):
    _, report = linear_ensemble
    assert max(report.best_val) < 1e-3


def test_trained_prediction_close_to_generator(linear_ensemble):
    trained, report = linear_ensemble
    rng = np.random.default_rng(1)
    xs = rng.uniform(-2, 2, size=(200, 2))
    us = rng.uniform(-2, 2, size=(200, 1))
    pred = trained.predict_mean(xs, us)
    truth = linear_increment(xs, us)
    rmse_limit = 3.0 * np.sqrt(max(report.best_val)) * np.max(trained.normalizer.sd_out)
    assert np.sqrt(np.mean((pred - truth) ** 2)) < rmse_limit


def test_constant_target_regression():
    ds = TransitionDataset(2, 1)
    x = np.array([0.5, -0.5])
    u = np.array([0.3])
    rng = np.random.default_rng(0)
    for _ in range(200):
        jitter = rng.normal(scale=1e-3, size=2)
        ds.append(x + jitter, u, x + jitter)  # dx identically zero
    ens = make_ensemble(2, 1, hidden=(16,), members=1, seed=0)
    trained, _ = train(ens, ds, TrainOptions(max_epochs=60, patience=10, seed=1))
    assert np.linalg.norm(trained.predict_mean(x, u)) < 1e-3


def test_members_have_distinct_weights():
    ens = make_ensemble(2, 1, members=3, seed=0)
    w0, w1, w2 = ens.weights[0]
    assert not np.array_equal(w0, w1)
    assert not np.array_equal(w1, w2)


def test_training_monotonicity_across_seeds(linear_dataset):
    for seed in (0, 1, 2):
        ens = make_ensemble(2, 1, hidden=(32,), members=2, seed=seed)
        _, report = train(ens, linear_dataset, TrainOptions(max_epochs=15, patience=5, seed=seed))
        for init, best in zip(report.initial_val, report.best_val):
            assert best <= init


def noisy_dataset(rows, seed):
    ds = TransitionDataset(1, 1)
    rng = np.random.default_rng(seed)
    for _ in range(rows):
        x = rng.normal(size=1)
        ds.append(x, rng.normal(size=1), x + rng.normal(size=1))
    return ds


@pytest.mark.parametrize("poisoned", [0, 1, 2])
def test_training_divergence_names_member(poisoned):
    # Members train in lockstep, so a NaN member must not leak into its siblings.
    ens = make_ensemble(1, 1, hidden=(8,), members=3, seed=0)
    ens.weights[0][poisoned] = np.nan
    with pytest.raises(TrainingDivergenceError, match=f"member {poisoned}:"):
        train(ens, noisy_dataset(128, 0), TrainOptions(max_epochs=5, seed=0))


def test_lockstep_training_keeps_members_independent():
    # Member 0 trained alone and beside two siblings that stop at other
    # epochs: it keeps stepping after its own stop only in the trio, so its
    # restored best weights pin the freeze-and-snapshot bookkeeping.
    data, opts = noisy_dataset(200, 0), TrainOptions(lr=1e-2, patience=3, seed=0)
    solo, solo_report = train(make_ensemble(1, 1, hidden=(16, 16), members=1, seed=0), data, opts)
    trio, trio_report = train(make_ensemble(1, 1, hidden=(16, 16), members=3, seed=0), data, opts)
    for a, b in zip(solo.weights + solo.biases, trio.weights + trio.biases):
        assert np.array_equal(a[0], b[0])
    for name in ("initial_val", "best_val", "final_train", "epochs_run"):
        assert getattr(solo_report, name)[0] == getattr(trio_report, name)[0]
    assert len(set(trio_report.epochs_run)) > 1
    assert max(trio_report.epochs_run) > trio_report.epochs_run[0]


class ReferenceAdam:
    """Adam stepped one parameter array at a time, with a fresh temporary per ufunc."""

    def __init__(self, params, lr):
        self.lr = lr
        self.b1, self.b2, self.eps = 0.9, 0.999, 1e-8
        self.t = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]

    def step(self, params, grads):
        self.t += 1
        c1 = 1.0 - self.b1**self.t
        c2 = 1.0 - self.b2**self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= self.b1
            m += (1.0 - self.b1) * g
            v *= self.b2
            v += (1.0 - self.b2) * g * g
            p -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)


def reference_train(ensemble, data, opts):
    """``train`` over separate per-layer arrays, gathering every batch's rows on its own."""
    xs, us, xns = data.as_arrays()
    inputs, targets = np.concatenate([xs, us], axis=1), xns - xs
    perm = np.random.default_rng([opts.seed, 0x7472]).permutation(len(inputs))
    n_val = max(1, int(round(opts.val_fraction * len(inputs))))
    val_idx, tr_idx = perm[:n_val], perm[n_val:]
    normalizer = Normalizer.fit(inputs[tr_idx], targets[tr_idx])
    z_tr, y_tr = normalizer.norm_in(inputs[tr_idx]), normalizer.norm_out(targets[tr_idx])
    z_val, y_val = normalizer.norm_in(inputs[val_idx]), normalizer.norm_out(targets[val_idx])

    def mse(weights, biases, z, y):
        return np.mean((forward(weights, biases, z)[0] - y) ** 2, axis=(1, 2))

    def grads(weights, z, delta, acts):
        ins = [z, *acts]
        g_w, g_b = [None] * len(weights), [None] * len(weights)
        for i in range(len(weights) - 1, -1, -1):
            g_w[i], g_b[i] = delta.swapaxes(1, 2) @ ins[i], delta.sum(axis=1)
            if i > 0:
                delta = (delta @ weights[i]) * (1.0 - ins[i] ** 2)
        return g_w + g_b

    n_layers = len(ensemble.weights)
    params = [p.copy() for p in ensemble.weights + ensemble.biases]
    weights, biases = params[:n_layers], params[n_layers:]
    adam = ReferenceAdam(params, opts.lr)
    initial_val = mse(weights, biases, z_val, y_val)
    member_rngs = [np.random.default_rng([opts.seed, 0x6D62, k]) for k in range(len(initial_val))]
    best_val, best = initial_val.copy(), [p.copy() for p in params]
    best_epoch, epochs_run = np.zeros((2, len(initial_val)), dtype=int)
    active = np.ones(len(initial_val), dtype=bool)
    for epoch in range(1, opts.max_epochs + 1):
        if not active.any():
            break
        order = np.stack([r.permutation(len(z_tr)) for r in member_rngs])
        for start in range(0, len(z_tr), opts.batch_size):
            batch = order[:, start : start + opts.batch_size]
            zb, yb = z_tr[batch], y_tr[batch]
            pred, acts = forward(weights, biases, zb)
            grad_out = 2.0 * (pred - yb) / (batch.shape[1] * yb.shape[2])
            adam.step(params, grads(weights, zb, grad_out, acts))
        val_loss = mse(weights, biases, z_val, y_val)
        epochs_run[active] = epoch
        improved = active & (val_loss < best_val)
        best_val[improved] = val_loss[improved]
        best_epoch[improved] = epoch
        for b, p in zip(best, params):
            b[improved] = p[improved]
        active &= improved | (epoch - best_epoch < opts.patience)

    weights, biases = best[:n_layers], best[n_layers:]
    final_train = mse(weights, biases, z_tr, y_tr)
    report = TrainReport(initial_val.tolist(), final_train.tolist(), best_val.tolist(), epochs_run.tolist())
    return Ensemble(weights=weights, biases=biases, normalizer=normalizer), report


@pytest.mark.parametrize("hidden, members, opts, staggered", [
    ((16, 16), 3, TrainOptions(lr=1e-2, patience=3, seed=0), True),
    ((8,), 4, TrainOptions(lr=1e-2, batch_size=7, max_epochs=6, seed=1), False),
    ((), 1, TrainOptions(max_epochs=5, seed=2), False),
    ((8,), 4, TrainOptions(max_epochs=0, seed=3), False),
    ((16, 16), 1, TrainOptions(lr=1e-2, batch_size=7, max_epochs=8, patience=2, seed=4), False),
], ids=["staggered-stops", "batch-7-four-members", "no-hidden-layer", "zero-epochs", "one-member-batch-7"])
def test_train_matches_per_array_reference(hidden, members, opts, staggered):
    # The flat-buffer Adam, in-place gradients and per-epoch gather reproduce
    # the per-array loop bit for bit; 160 training rows leave a partial last
    # batch of 6 at batch size 7.
    data = noisy_dataset(200, 0)
    ens = make_ensemble(1, 1, hidden=hidden, members=members, seed=3)
    before = [a.copy() for a in ens.weights + ens.biases]
    trained, report = train(ens, data, opts)
    ref, ref_report = reference_train(ens, data, opts)
    for a, b in zip(trained.weights + trained.biases, ref.weights + ref.biases):
        assert a.shape == b.shape and a.flags.c_contiguous
        assert np.array_equal(a, b)
    assert report == ref_report
    assert (len(set(report.epochs_run)) > 1) == staggered
    for original, kept in zip(before, ens.weights + ens.biases):
        assert np.array_equal(original, kept)
        assert not any(np.shares_memory(kept, a) for a in trained.weights + trained.biases)


# --- Prediction and ensemble arithmetic ----------------------------------------


def member_output(ens, idx, x, u):
    """One member's denormalized prediction, through the shared normalizer."""
    a = ens.normalizer.norm_in(np.concatenate([x, u], axis=-1))
    for i, (w, b) in enumerate(zip(ens.weights, ens.biases)):
        a = a @ w[idx].T + b[idx]
        a = np.tanh(a) if i < len(ens.weights) - 1 else a
    return ens.normalizer.denorm_out(a)


def test_predict_mean_single_member_equals_member():
    ens = make_ensemble(2, 1, hidden=(8,), members=1, seed=4)
    x, u = np.array([0.1, 0.2]), np.array([0.3])
    assert np.allclose(ens.predict_mean(x, u), member_output(ens, 0, x, u), atol=1e-15)


def test_predict_mean_is_mean_of_members():
    ens = make_ensemble(3, 2, hidden=(16, 16), members=4, seed=9)
    rng = np.random.default_rng(2)
    for _ in range(10):
        x, u = rng.normal(size=3), rng.normal(size=2)
        per_member = np.stack([member_output(ens, i, x, u) for i in range(4)])
        assert np.allclose(ens.predict_mean(x, u), per_member.mean(axis=0), atol=1e-12)


def test_symmetric_members_cancel():
    # Two members whose outputs are +v and -v around mu_out average to denorm(0).
    base = make_ensemble(1, 1, hidden=(4,), members=2, seed=0)
    weights = [np.stack([w[0], w[0]]) for w in base.weights]
    biases = [np.stack([b[0], b[0]]) for b in base.biases]
    weights[-1][1] = -weights[-1][1]
    biases[-1][1] = -biases[-1][1]
    norm = Normalizer(np.zeros(2), np.ones(2), np.array([0.7]), np.array([2.0]))
    ens = Ensemble(weights=weights, biases=biases, normalizer=norm)
    out = ens.predict_mean(np.array([0.4]), np.array([-0.2]))
    assert out[0] == pytest.approx(0.7, abs=1e-12)


def test_non_finite_input_rejected():
    ens = make_ensemble(2, 1)
    with pytest.raises(ValueError):
        ens.predict_mean(np.array([np.nan, 0.0]), np.zeros(1))


# --- Float32 planning map ---------------------------------------------------------


def assert_plan_matches_mean(ens, xs, us, rtol=1e-5):
    """The planning map reproduces predict_mean to float32 precision."""
    xu = np.concatenate([xs, us], axis=1).astype(np.float32)
    plan = ens.planning_map(xu)
    ref = ens.predict_mean(xs, us)
    assert plan.dtype == np.float32 and plan.shape == ref.shape
    assert np.max(np.abs(plan - ref)) <= rtol * np.max(np.abs(ref))


def test_planning_map_matches_trained_ensemble(linear_ensemble):
    trained, _ = linear_ensemble
    rng = np.random.default_rng(8)
    assert len(trained.weights[0]) == 3
    assert_plan_matches_mean(trained, rng.uniform(-2, 2, (200, 2)), rng.uniform(-2, 2, (200, 1)))


def test_planning_map_matches_single_member_and_linear_nets():
    rng = np.random.default_rng(4)
    norm = Normalizer(mu_in=rng.normal(size=5), sd_in=rng.uniform(0.5, 2.0, 5),
                      mu_out=rng.normal(size=3), sd_out=rng.uniform(0.5, 2.0, 3))
    for hidden, members in (((16, 16), 1), ((), 1), ((), 3), ((8,), 2), ((16,), 4)):
        ens = replace(make_ensemble(3, 2, hidden=hidden, members=members, seed=6), normalizer=norm)
        assert_plan_matches_mean(ens, rng.normal(size=(50, 3)), rng.normal(size=(50, 2)))


def test_planning_map_is_rebuilt_for_a_trained_ensemble(linear_dataset):
    ens = make_ensemble(2, 1, hidden=(16,), members=2, seed=3)
    rng = np.random.default_rng(1)
    xs, us = rng.uniform(-2, 2, (64, 2)), rng.uniform(-2, 2, (64, 1))
    xu = np.concatenate([xs, us], axis=1).astype(np.float32)
    before = ens.planning_map(xu)
    trained, _ = train(ens, linear_dataset, TrainOptions(max_epochs=3, seed=2))
    assert trained.planning_map is not ens.planning_map
    assert not np.allclose(trained.planning_map(xu), before)
    assert_plan_matches_mean(trained, xs, us)
    assert np.array_equal(ens.planning_map(xu), before)


def test_planning_map_alternating_row_counts_match_a_fresh_map(linear_ensemble):
    # The full-shape biases are built per row count: switching between the
    # planner's batch and a smaller one must not reuse the wrong shape.
    trained, _ = linear_ensemble
    rng = np.random.default_rng(12)
    batches = [rng.uniform(-2, 2, (rows, 3)).astype(np.float32) for rows in (200, 16, 200, 1, 16)]
    reused = PlanningMap(trained)
    for xu in batches:
        assert np.array_equal(reused(xu), PlanningMap(trained)(xu))
    assert sorted(reused._full_biases) == [1, 16, 200]


# --- Input Jacobian --------------------------------------------------------------


def finite_difference_jacobian_u(ens, x, u, h_norm=1e-5):
    """Central differences with steps of h_norm in normalized input units."""
    sd_u = ens.normalizer.sd_in[ens.n:]
    cols = []
    for j in range(ens.m):
        e = np.zeros(ens.m)
        e[j] = h_norm * sd_u[j]
        cols.append((ens.predict_mean(x, u + e) - ens.predict_mean(x, u - e)) / (2 * h_norm * sd_u[j]))
    return np.stack(cols, axis=1)


def assert_gradcheck(ens, x, u):
    analytic = ens.jacobian_u(x, u)
    fd = finite_difference_jacobian_u(ens, x, u)
    assert np.all(np.abs(analytic - fd) <= np.maximum(1e-4 * np.abs(fd), 1e-8))


def test_jacobian_matches_finite_differences_random_models():
    rng = np.random.default_rng(7)
    ens = replace(
        make_ensemble(3, 2, hidden=(24, 24), members=3, seed=5),
        normalizer=Normalizer(
            mu_in=rng.normal(size=5), sd_in=rng.uniform(0.5, 2.0, 5),
            mu_out=rng.normal(size=3), sd_out=rng.uniform(0.5, 2.0, 3),
        ),
    )
    for _ in range(25):
        assert_gradcheck(ens, rng.normal(size=3), rng.normal(size=2))


def test_jacobian_matches_finite_differences_trained(linear_ensemble):
    trained, _ = linear_ensemble
    rng = np.random.default_rng(3)
    for _ in range(100):
        assert_gradcheck(trained, rng.uniform(-2, 2, 2), rng.uniform(-2, 2, 1))


def test_linear_member_jacobian_is_scaled_weight():
    # A net with no hidden layer is the linear map W z + b.
    norm = Normalizer(
        mu_in=np.zeros(3), sd_in=np.array([1.0, 2.0, 4.0]),
        mu_out=np.zeros(2), sd_out=np.array([3.0, 0.5]),
    )
    ens = replace(make_ensemble(2, 1, hidden=(), members=1, seed=0), normalizer=norm)
    expected = norm.sd_out[:, None] * ens.weights[0][0][:, 2:] / norm.sd_in[None, 2:]
    assert np.allclose(ens.jacobian_u(np.zeros(2), np.zeros(1)), expected, atol=1e-15)
