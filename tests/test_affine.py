import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from l1aug.affine import affinize, reanchor, switching_check

from conftest import replay_switch_count


class QuadraticModel:
    """Scalar toy: dx = u^2, independent of x."""

    def predict_mean(self, x, u):
        return np.array([float(u[0]) ** 2])

    def jacobian_u(self, x, u):
        return np.array([[2.0 * float(u[0])]])


class LinearModel:
    """dx = A x + B u, its own expansion everywhere."""

    def __init__(self, a, b):
        self.a = np.asarray(a, dtype=float)
        self.b = np.asarray(b, dtype=float)

    def predict_mean(self, x, u):
        return self.a @ np.asarray(x, dtype=float) + self.b @ np.asarray(u, dtype=float)

    def jacobian_u(self, x, u):
        return self.b


@pytest.fixture
def linear_model():
    rng = np.random.default_rng(8)
    return LinearModel(rng.normal(size=(3, 3)), rng.normal(size=(3, 2)))


def test_quadratic_hand_taylor():
    am = affinize(QuadraticModel(), np.array([1.0]))
    x = np.zeros(1)
    f_anchor, jac = am.parts(x)
    assert (f_anchor - jac @ am.ubar)[0] == pytest.approx(-1.0, abs=1e-14)
    assert jac[0, 0] == pytest.approx(2.0, abs=1e-14)
    assert am.predict(am.parts(x), np.array([1.5]))[0] == pytest.approx(2.0, abs=1e-14)
    # while the full model gives 2.25
    assert QuadraticModel().predict_mean(x, np.array([1.5]))[0] == pytest.approx(2.25)


def test_anchor_exactness_quadratic():
    am = affinize(QuadraticModel(), np.array([0.7]))
    x = np.zeros(1)
    diff = am.predict(am.parts(x), np.array([0.7])) - QuadraticModel().predict_mean(x, np.array([0.7]))
    assert abs(diff[0]) <= 1e-12


def test_anchor_exactness_trained_ensemble(linear_ensemble):
    trained, _ = linear_ensemble
    rng = np.random.default_rng(0)
    for _ in range(20):
        x, ubar = rng.uniform(-2, 2, 2), rng.uniform(-2, 2, 1)
        am = affinize(trained, ubar)
        assert np.linalg.norm(am.predict(am.parts(x), ubar) - trained.predict_mean(x, ubar)) <= 1e-12


def test_linear_model_is_its_own_expansion(linear_model):
    rng = np.random.default_rng(1)
    am = affinize(linear_model, rng.normal(size=2))
    for _ in range(50):
        x, u = rng.normal(size=3), rng.normal(size=2)
        f_anchor, jac = am.parts(x)
        assert np.allclose(am.predict(am.parts(x), u), linear_model.predict_mean(x, u), atol=1e-10)
        assert np.allclose(jac, linear_model.b, atol=1e-14)
        assert np.allclose(f_anchor - jac @ am.ubar, linear_model.a @ x, atol=1e-10)


def test_switching_fires_on_quadratic_remainder():
    am = affinize(QuadraticModel(), np.zeros(1))
    x = np.zeros(1)
    decision = switching_check(am, x, np.array([1.1]), eps_a=1.0)
    assert decision.switch
    assert decision.residual == pytest.approx(1.21, abs=1e-12)


def test_switching_threshold_inclusive():
    am = affinize(QuadraticModel(), np.zeros(1))
    x = np.zeros(1)
    eps = 0.25
    assert switching_check(am, x, np.array([0.5]), eps).switch  # residual exactly eps
    assert not switching_check(am, x, np.array([0.499999]), eps).switch


def test_no_switch_at_anchor():
    am = affinize(QuadraticModel(), np.array([0.3]))
    decision = switching_check(am, np.zeros(1), np.array([0.3]), eps_a=1e-12)
    assert not decision.switch
    assert decision.residual == 0.0


def test_linear_model_never_switches(linear_model):
    rng = np.random.default_rng(2)
    am = affinize(linear_model, rng.normal(size=2))
    for _ in range(200):
        decision = switching_check(am, rng.normal(size=3), rng.normal(size=2), eps_a=1e-6)
        assert not decision.switch


def test_forced_per_step_reanchoring_recovers_full_model(linear_ensemble):
    # Re-anchoring at u_t every step makes the one-step prediction exact.
    trained, _ = linear_ensemble
    rng = np.random.default_rng(4)
    x = np.array([0.5, -0.5])
    for _ in range(50):
        u = rng.uniform(-2, 2, 1)
        am = affinize(trained, u)
        assert np.linalg.norm(am.predict(am.parts(x), u) - trained.predict_mean(x, u)) <= 1e-12
        x = x + trained.predict_mean(x, u)
        x = np.clip(x, -2.0, 2.0)


def test_switch_counts_monotone_in_eps(linear_ensemble):
    trained, _ = linear_ensemble
    rng = np.random.default_rng(5)
    xs = rng.uniform(-2, 2, size=(400, 2))
    us = rng.uniform(-2, 2, size=(400, 1))
    counts = [replay_switch_count(trained, xs, us, eps) for eps in (1e-6, 1e-4, 1e-2)]
    assert counts[0] >= counts[1] >= counts[2]


def test_reanchor_anchors_silently_then_switches_at_eps():
    # Around ubar = 1 the quadratic's residual at u is (u - 1)^2.
    model, x = QuadraticModel(), np.zeros(1)
    am, decision = reanchor(None, model, x, np.array([1.0]), eps_a=0.25)
    assert not decision.switch and decision.residual == 0.0
    assert np.array_equal(am.ubar, [1.0])
    kept, decision = reanchor(am, model, x, np.array([1.4]), eps_a=0.25)
    assert kept is am
    assert not decision.switch
    moved, decision = reanchor(am, model, x, np.array([1.5]), eps_a=0.25)
    assert decision.switch
    assert decision.residual == 0.25
    assert np.array_equal(moved.ubar, [1.5])


def test_affinize_rejects_non_finite_anchor():
    with pytest.raises(ValueError):
        affinize(QuadraticModel(), np.array([np.nan]))


def test_switching_check_rejects_bad_eps():
    am = affinize(QuadraticModel(), np.zeros(1))
    with pytest.raises(ValueError):
        switching_check(am, np.zeros(1), np.zeros(1), eps_a=0.0)


@settings(max_examples=40, deadline=None)
@given(
    ubar=st.floats(-2, 2),
    u=st.floats(-2, 2),
    x=st.floats(-2, 2),
)
def test_quadratic_residual_is_taylor_remainder(ubar, u, x):
    am = affinize(QuadraticModel(), np.array([ubar]))
    decision = switching_check(am, np.array([x]), np.array([u]), eps_a=1e-9)
    assert decision.residual == pytest.approx((u - ubar) ** 2, abs=1e-9)
