import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from l1aug.envsim import ConfigError, DisturbanceSpec, make_env, rk4_step, step_true


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def test_catalog_dimensions():
    assert (make_env("double_integrator").n, make_env("double_integrator").m) == (2, 1)
    assert (make_env("pendulum").n, make_env("pendulum").m) == (2, 1)
    assert (make_env("cartpole").n, make_env("cartpole").m) == (4, 1)


def test_unknown_env_rejected():
    with pytest.raises(ConfigError):
        make_env("swimmer")


def test_unknown_override_rejected():
    with pytest.raises(ConfigError, match="unknown override"):
        make_env("pendulum", {"viscosity": 2.0})


def test_override_applies():
    env = make_env("pendulum", {"dt": 0.01, "horizon": 7})
    assert env.dt == 0.01
    assert env.horizon == 7


def test_in_state_bounds_over_leading_axes(rng):
    # Cartpole's box, with states on, inside, just outside and NaN: the result
    # keeps every leading axis and equals the per-state scalar rule.
    env = make_env("cartpole")
    low, high = env.state_low, env.state_high
    special = np.stack([low, high, 0.5 * (low + high), np.nextafter(low, -np.inf), np.nextafter(high, np.inf),
                        np.where(np.arange(4) == 2, np.nan, 0.0), np.full(4, np.nan),
                        np.where(np.arange(4) == 0, high, low)])
    assert env.in_state_bounds(special).tolist() == [True, True, True, False, False, False, False, True]
    block = rng.uniform(1.2 * low, 1.2 * high, size=(5, 9, 4))
    block[0, :len(special)] = special
    block[3, 2, 1] = high[1]
    block[4, 8, 3] = np.nan
    inside = env.in_state_bounds(block)
    assert inside.shape == (5, 9)
    for index in np.ndindex(5, 9):
        x = block[index]
        assert inside[index] == (all(low <= x) and all(x <= high))
        assert env.in_state_bounds(x) == inside[index] and env.in_state_bounds(x).shape == ()
    assert np.array_equal(env.in_state_bounds(block[2]), inside[2])
    assert inside[3, 2] == all(low <= block[3, 2]) and not inside[4, 8]


def test_double_integrator_equilibrium(rng):
    env = make_env("double_integrator")
    tr = step_true(env, DisturbanceSpec(), np.array([1.0, 0.0]), np.zeros(1), 0, rng)
    assert np.allclose(tr.x_next, [1.0, 0.0], atol=1e-15)


def test_pendulum_stable_equilibrium(rng):
    env = make_env("pendulum")
    tr = step_true(env, DisturbanceSpec(), np.zeros(2), np.zeros(1), 0, rng)
    assert np.allclose(tr.x_next, [0.0, 0.0], atol=1e-15)


def test_double_integrator_constant_matched(rng):
    # x2' = u + d = 1.5 over dt = 0.1: closed form (0.5*1.5*dt^2, 1.5*dt).
    env = make_env("double_integrator")
    dist = DisturbanceSpec(kind="constant_matched", amplitude=0.5)
    tr = step_true(env, dist, np.zeros(2), np.array([1.0]), 0, rng)
    assert np.allclose(tr.x_next, [0.0075, 0.15], atol=1e-12)


def test_rk4_exact_for_polynomial_flow(rng):
    # Double integrator flow is polynomial of degree <= 2, RK4 is exact.
    env = make_env("double_integrator")
    x = np.array([0.3, -0.2])
    u = np.array([0.7])
    tr = step_true(env, DisturbanceSpec(), x, u, 0, rng)
    dt = env.dt
    expected = np.array([x[0] + x[1] * dt + 0.5 * u[0] * dt**2, x[1] + u[0] * dt])
    assert np.allclose(tr.x_next, expected, atol=1e-12)


def test_rk4_step_evaluates_f_at_t_x_first():
    # The bound harness records e(t) from this first stage.
    calls = []

    def f(t, x):
        calls.append((t, x.copy()))
        return -x

    x = np.array([0.3, -0.2])
    rk4_step(f, 0.7, x, 0.1)
    assert len(calls) == 4
    assert calls[0][0] == 0.7
    assert np.array_equal(calls[0][1], x)


@pytest.mark.parametrize("horizon", [40.0, True, "40"])
def test_non_integer_horizon_rejected(horizon):
    with pytest.raises(ConfigError, match="horizon must be an integer"):
        make_env("double_integrator", {"horizon": horizon})


def test_deterministic_without_noise():
    env = make_env("pendulum")
    x = np.array([0.4, -0.1])
    u = np.array([0.5])
    a = step_true(env, DisturbanceSpec(), x, u, 3, np.random.default_rng(42))
    b = step_true(env, DisturbanceSpec(), x, u, 3, np.random.default_rng(99))
    assert np.array_equal(a.x_next, b.x_next)


def test_obs_noise_leaves_true_state_untouched():
    env = make_env("pendulum")
    clean = DisturbanceSpec()
    noisy = DisturbanceSpec(kind="obs_noise", sigma_o=0.1)
    x_clean = np.array([0.4, -0.1])
    x_noisy = x_clean.copy()
    for t in range(20):
        u = np.array([0.3 * math.sin(0.2 * t)])
        tr_c = step_true(env, clean, x_clean, u, t, np.random.default_rng(t))
        tr_n = step_true(env, noisy, x_noisy, u, t, np.random.default_rng(t))
        assert np.array_equal(tr_c.x_next_true, tr_n.x_next_true)
        assert not np.array_equal(tr_n.x_next, tr_n.x_next_true)
        x_clean = tr_c.x_next_true
        x_noisy = tr_n.x_next_true


def test_action_noise_perturbs_dynamics_not_reward():
    env = make_env("double_integrator")
    noisy = DisturbanceSpec(kind="action_noise", sigma_a=0.5)
    x = np.zeros(2)
    u = np.array([1.0])
    tr_n = step_true(env, noisy, x, u, 0, np.random.default_rng(5))
    tr_c = step_true(env, DisturbanceSpec(), x, u, 0, np.random.default_rng(5))
    assert not np.array_equal(tr_n.x_next, tr_c.x_next)
    assert tr_n.reward == tr_c.reward  # reward uses the clamped command


def test_input_clamped_before_integration(rng):
    env = make_env("double_integrator")
    tr = step_true(env, DisturbanceSpec(), np.zeros(2), np.array([100.0]), 0, rng)
    assert np.allclose(tr.u_applied, env.input_high)
    assert tr.x_next[1] == pytest.approx(env.input_high[0] * env.dt, abs=1e-12)


def test_pendulum_energy_drift_is_fourth_order():
    # Undriven pendulum energy: per-unit-time drift should drop ~16x when dt halves.
    def drift_over_second(dt):
        env = make_env("pendulum", {"dt": dt})
        x = np.array([2.5, 0.0])
        g, l, m = 9.81, 1.0, 1.0

        def energy(x):
            return 0.5 * m * l**2 * x[1] ** 2 - m * g * l * math.cos(x[0])

        e0 = energy(x)
        rng = np.random.default_rng(0)
        for t in range(int(round(1.0 / dt))):
            x = step_true(env, DisturbanceSpec(), x, np.zeros(1), t, rng).x_next_true
        return abs(energy(x) - e0)

    coarse = drift_over_second(0.1)
    fine = drift_over_second(0.05)
    assert coarse > 0
    assert 8.0 <= coarse / fine <= 32.0


def test_dimension_mismatch_rejected(rng):
    env = make_env("pendulum")
    with pytest.raises(ValueError):
        step_true(env, DisturbanceSpec(), np.zeros(3), np.zeros(1), 0, rng)
    with pytest.raises(ValueError):
        step_true(env, DisturbanceSpec(), np.zeros(2), np.zeros(2), 0, rng)


def test_non_finite_input_rejected(rng):
    env = make_env("pendulum")
    with pytest.raises(ValueError):
        step_true(env, DisturbanceSpec(), np.array([np.nan, 0.0]), np.zeros(1), 0, rng)


def test_bad_disturbance_kind_rejected():
    with pytest.raises(ConfigError):
        DisturbanceSpec(kind="wind")
    with pytest.raises(ConfigError):
        DisturbanceSpec(kind="action_noise", sigma_a=-0.1)


def test_sinusoid_matched_value():
    dist = DisturbanceSpec(kind="sinusoid_matched", amplitude=2.0, frequency=0.25)
    assert dist.matched_value(1.0) == pytest.approx(2.0)  # sin(pi/2)
    assert dist.matched_value(0.0) == pytest.approx(0.0)


@settings(max_examples=30, deadline=None)
@given(
    u=st.floats(min_value=-50, max_value=50, allow_nan=False),
    x1=st.floats(min_value=-2, max_value=2, allow_nan=False),
    x2=st.floats(min_value=-2, max_value=2, allow_nan=False),
)
def test_applied_input_always_inside_box(u, x1, x2):
    env = make_env("double_integrator")
    tr = step_true(env, DisturbanceSpec(), np.array([x1, x2]), np.array([u]), 0, np.random.default_rng(0))
    assert env.input_low[0] <= tr.u_applied[0] <= env.input_high[0]
