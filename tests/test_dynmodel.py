import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from l1aug.dynmodel import (
    Ensemble,
    MlpModel,
    Normalizer,
    TrainOptions,
    TrainingDivergenceError,
    TransitionDataset,
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
    assert np.allclose(norm.norm_in(norm.denorm_in(y)), y, atol=1e-12, rtol=1e-12)


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
    w0, w1, w2 = (member.weights[0] for member in ens.members)
    assert not np.array_equal(w0, w1)
    assert not np.array_equal(w1, w2)


def test_training_monotonicity_across_seeds(linear_dataset):
    for seed in (0, 1, 2):
        ens = make_ensemble(2, 1, hidden=(32,), members=2, seed=seed)
        _, report = train(ens, linear_dataset, TrainOptions(max_epochs=15, patience=5, seed=seed))
        for init, best in zip(report.initial_val, report.best_val):
            assert best <= init


def test_training_divergence_names_member():
    ds = TransitionDataset(1, 1)
    rng = np.random.default_rng(0)
    for _ in range(128):
        x = rng.normal(size=1)
        ds.append(x, rng.normal(size=1), x + rng.normal(size=1))
    ens = make_ensemble(1, 1, hidden=(8,), members=2, seed=0)
    ens.members[1].weights[0][:] = np.nan
    with pytest.raises(TrainingDivergenceError, match="member 1"):
        train(ens, ds, TrainOptions(max_epochs=5, seed=0))


# --- Prediction and ensemble arithmetic ----------------------------------------


def member_output(ens, idx, x, u):
    """One member's denormalized prediction, through the shared normalizer."""
    z = ens.normalizer.norm_in(np.concatenate([x, u], axis=-1))
    return ens.normalizer.denorm_out(ens.members[idx].forward(z))


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
    ens = make_ensemble(1, 1, hidden=(4,), members=2, seed=0)
    m0, m1 = ens.members
    for i in range(m0.n_layers):
        m1.weights[i] = m0.weights[i].copy()
        m1.biases[i] = m0.biases[i].copy()
    m1.weights[-1] = -m1.weights[-1]
    m1.biases[-1] = -m1.biases[-1]
    norm = Normalizer(np.zeros(2), np.ones(2), np.array([0.7]), np.array([2.0]))
    ens = Ensemble(members=[m0, m1], normalizer=norm, n=1, m=1, seed=0)
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
    assert len(trained.members) == 3
    assert_plan_matches_mean(trained, rng.uniform(-2, 2, (200, 2)), rng.uniform(-2, 2, (200, 1)))


def test_planning_map_matches_single_member_and_linear_nets():
    rng = np.random.default_rng(4)
    norm = Normalizer(mu_in=rng.normal(size=5), sd_in=rng.uniform(0.5, 2.0, 5),
                      mu_out=rng.normal(size=3), sd_out=rng.uniform(0.5, 2.0, 3))
    for hidden, members in (((16, 16), 1), ((), 1), ((), 3), ((8,), 2)):
        base = make_ensemble(3, 2, hidden=hidden, members=members, seed=6)
        ens = Ensemble(members=base.members, normalizer=norm, n=3, m=2, seed=6)
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
    ens = make_ensemble(3, 2, hidden=(24, 24), members=3, seed=5)
    ens = Ensemble(
        members=ens.members,
        normalizer=Normalizer(
            mu_in=rng.normal(size=5), sd_in=rng.uniform(0.5, 2.0, 5),
            mu_out=rng.normal(size=3), sd_out=rng.uniform(0.5, 2.0, 3),
        ),
        n=3, m=2, seed=5,
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
    net = MlpModel((3, 2), np.random.default_rng(0))
    norm = Normalizer(
        mu_in=np.zeros(3), sd_in=np.array([1.0, 2.0, 4.0]),
        mu_out=np.zeros(2), sd_out=np.array([3.0, 0.5]),
    )
    ens = Ensemble(members=[net], normalizer=norm, n=2, m=1, seed=0)
    expected = norm.sd_out[:, None] * net.weights[0][:, 2:] / norm.sd_in[None, 2:]
    assert np.allclose(ens.jacobian_u(np.zeros(2), np.zeros(1)), expected, atol=1e-15)
