import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from l1aug import envsim
from l1aug.envsim import ConfigError, DisturbanceSpec, EpisodeDiverged, make_env, rk4_step, step_true


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
        calls.append((t, list(x)))
        return [-a for a in x]

    x = [0.3, -0.2]
    rk4_step(f, 0.7, x, 0.1)
    assert len(calls) == 4
    assert calls[0] == (0.7, x)


# The array integrator that the float RK4 replaced: the catalog fields over
# float64 arrays, with numpy's elementwise operations in the same order.
def _array_drift(name):
    if name == "double_integrator":
        return lambda x, u: np.stack([x[..., 1], u[..., 0]], axis=-1)
    if name == "pendulum":
        gl, inv_ml2 = 9.81 / 1.0, 1.0 / (1.0 * 1.0**2)
        return lambda x, u: np.stack([x[..., 1], -gl * np.sin(x[..., 0]) + inv_ml2 * u[..., 0]], axis=-1)
    total_mass, pole_mass, pole_length, ml = 1.1, 0.1, 0.5, 0.1 * 0.5

    def drift(x, u):
        th, thdot, force = x[..., 2], x[..., 3], u[..., 0]
        sin_th, cos_th = np.sin(th), np.cos(th)
        tmp = (force + ml * thdot**2 * sin_th) / total_mass
        th_acc = (9.81 * sin_th - cos_th * tmp) / (pole_length * (4.0 / 3.0 - pole_mass * cos_th**2 / total_mass))
        p_acc = tmp - ml * th_acc * cos_th / total_mass
        return np.stack([x[..., 1], p_acc, thdot, th_acc], axis=-1)

    return drift


def _array_rk4_step(f, t, x, h):
    k1 = f(t, x)
    k2 = f(t + 0.5 * h, x + 0.5 * h * k1)
    k3 = f(t + 0.5 * h, x + 0.5 * h * k2)
    k4 = f(t + h, x + h * k3)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _array_step_true(env, dist, x, u, t, rng):
    drift = _array_drift(env.name)

    def field(tt, xt):
        # The matched disturbance offsets the first executed input.
        d = dist.matched_value(tt)
        if d == 0.0:
            return drift(xt, u_exec)
        u_dist = u_exec.copy()
        u_dist[0] += d
        return drift(xt, u_dist)

    u_cmd = env.clamp_input(u)
    u_exec = u_cmd
    if dist.sigma_a > 0:
        u_exec = env.clamp_input(u_cmd + rng.uniform(-dist.sigma_a, dist.sigma_a, size=env.m))
    h = env.dt / envsim.RK4_SUBSTEPS
    x_next_true = x
    for k in range(envsim.RK4_SUBSTEPS):
        x_next_true = _array_rk4_step(field, t * env.dt + k * h, x_next_true, h)
    x_next = x_next_true
    if dist.sigma_o > 0:
        x_next = x_next_true + rng.uniform(-dist.sigma_o, dist.sigma_o, size=env.n)
    return u_cmd, x_next, x_next_true


@pytest.mark.parametrize("name", ["double_integrator", "pendulum", "cartpole"])
def test_float_fields_match_array_fields_bit_for_bit(name):
    # Over one state, numpy's np.cos returns a scalar whose **2 is libm pow, not
    # cos * cos; the two differ in the last bit for about one cosine in 1200, so
    # a field is compared on enough states to see such a rounding.
    env = make_env(name)
    drift = _array_drift(name)
    draws = np.random.default_rng(5)
    xs = draws.uniform(1.5 * env.state_low, 1.5 * env.state_high, size=(40000, env.n))
    us = draws.uniform(1.5 * env.input_low, 1.5 * env.input_high, size=(40000, env.m))
    mismatches = [i for i, (x, u) in enumerate(zip(xs, us))
                  if not np.array_equal(np.array(env.drift(x.tolist(), u.tolist())), drift(x, u))]
    assert mismatches == []


@pytest.mark.parametrize("name", ["double_integrator", "pendulum", "cartpole"])
@pytest.mark.parametrize("dist", [
    DisturbanceSpec(),
    DisturbanceSpec(kind="constant_matched", amplitude=0.3),
    DisturbanceSpec(kind="sinusoid_matched", amplitude=0.7, frequency=0.8),
    DisturbanceSpec(kind="action_noise", sigma_a=0.1),
    DisturbanceSpec(kind="obs_noise", sigma_o=0.05),
], ids=["none", "constant", "sinusoid", "action_noise", "obs_noise"])
def test_float_step_matches_array_integrator_bit_for_bit(name, dist):
    env = make_env(name)
    draws = np.random.default_rng(11)
    for _ in range(150):
        # States past the box and inputs past the clamp, at random times.
        x = draws.uniform(1.5 * env.state_low, 1.5 * env.state_high)
        u = draws.uniform(1.5 * env.input_low, 1.5 * env.input_high)
        t = int(draws.integers(0, 400))
        seed = int(draws.integers(2**32))
        tr = step_true(env, dist, x, u, t, np.random.default_rng(seed))
        u_cmd, x_next, x_next_true = _array_step_true(env, dist, x, u, t, np.random.default_rng(seed))
        assert np.array_equal(tr.u_applied, u_cmd)
        assert np.array_equal(tr.x_next_true, x_next_true)
        assert np.array_equal(tr.x_next, x_next)
        assert isinstance(tr.x_next, np.ndarray) and tr.x_next.dtype == float


@pytest.mark.parametrize("name", ["double_integrator", "pendulum", "cartpole"])
def test_matched_disturbance_is_an_input_offset_after_the_clamp(name):
    env = make_env(name)
    dist = DisturbanceSpec(kind="constant_matched", amplitude=0.3)
    draws = np.random.default_rng(3)
    for _ in range(50):
        x = draws.uniform(env.state_low, env.state_high)
        # Inside the box, the disturbed step is the undisturbed one at u + d, bit for bit.
        u = draws.uniform(env.input_low, env.input_high - dist.amplitude)
        shifted = step_true(env, DisturbanceSpec(), x, u + dist.amplitude, 0, np.random.default_rng(0))
        assert np.array_equal(step_true(env, dist, x, u, 0, np.random.default_rng(0)).x_next_true,
                              shifted.x_next_true)
        # At the box edge, d is added after the clamp, so the clamped u + d is a different step.
        edge = step_true(env, dist, x, env.input_high, 0, np.random.default_rng(0))
        clamped = step_true(env, DisturbanceSpec(), x, env.input_high + dist.amplitude, 0, np.random.default_rng(0))
        assert not np.array_equal(edge.x_next_true, clamped.x_next_true)


@pytest.mark.parametrize("name, overrides", [("double_integrator", {}), ("pendulum", {"length": 0.8, "mass": 1.3}),
                                             ("cartpole", {"pole_mass": 0.2, "gravity": 9.7})])
def test_catalog_env_pickles_by_value(name, overrides):
    # A pool worker steps the env it unpickles, so the copy must keep the
    # builder's constants and step with the original's bits.
    env = make_env(name, overrides)
    copy = pickle.loads(pickle.dumps(env))
    dist = DisturbanceSpec(kind="sinusoid_matched", amplitude=0.7, frequency=0.8, sigma_a=0.1)
    rng_a, rng_b, draws = np.random.default_rng(9), np.random.default_rng(9), np.random.default_rng(10)
    x = env.x0_sampler(rng_a)
    assert x.tobytes() == copy.x0_sampler(rng_b).tobytes()
    for t in range(300):
        u = draws.uniform(env.input_low, env.input_high)
        a, b = step_true(env, dist, x, u, t, rng_a), step_true(copy, dist, x, u, t, rng_b)
        assert a.x_next_true.tobytes() == b.x_next_true.tobytes() and a.reward == b.reward
        x = a.x_next_true


@pytest.mark.parametrize("name,x", [("cartpole", [0.0, 0.0, 0.0, 1e200]), ("pendulum", [0.0, 1e308]),
                                    ("cartpole", [0.0, 0.0, 1e308, 1e308]), ("double_integrator", [0.0, 1e308])])
def test_overflowing_state_is_episode_diverged(name, x, rng):
    # Float arithmetic overflows to inf, and math.sin(inf) raises ValueError where np.sin returns NaN.
    env = make_env(name)
    with pytest.raises(EpisodeDiverged):
        step_true(env, DisturbanceSpec(), np.array(x), np.zeros(1), 0, rng)


def test_float_power_overflow_is_episode_diverged(rng):
    # A field written with float ** raises OverflowError instead of returning inf.
    env = envsim.EnvSpec(
        name="power", n=1, m=1, dt=0.1, horizon=5,
        drift=lambda x, u: (x[0] ** 2,),
        x0_sampler=lambda rng: np.zeros(1),
        state_low=np.array([-1e300]), state_high=np.array([1e300]),
        input_low=np.array([-1.0]), input_high=np.array([1.0]),
        reward=lambda x, u: -(x**2).sum(axis=-1),
    )
    with pytest.raises(EpisodeDiverged) as info:
        step_true(env, DisturbanceSpec(), np.array([1e200]), np.zeros(1), 0, rng)
    assert isinstance(info.value.__cause__, OverflowError)


def test_drift_with_too_few_rates_is_rejected(rng):
    env = make_env("double_integrator")
    short = envsim.EnvSpec(**{**env.__dict__, "drift": lambda x, u: (u[0],)})
    with pytest.raises(ValueError, match="drift returned 1 rates, expected 2"):
        step_true(short, DisturbanceSpec(), np.zeros(2), np.zeros(1), 0, rng)


@pytest.mark.parametrize("horizon", [40.0, True, "40"])
def test_non_integer_horizon_rejected(horizon):
    with pytest.raises(ConfigError, match="horizon must be an integer"):
        make_env("double_integrator", {"horizon": horizon})


@pytest.mark.parametrize("name, overrides", [
    ("pendulum", {"mass": 0.0}),
    ("pendulum", {"length": -1.0}),
    ("pendulum", {"mass": -1.0}),
    ("pendulum", {"length": float("inf")}),
    ("cartpole", {"cart_mass": -0.1}),
    ("cartpole", {"pole_length": 0.0}),
    ("cartpole", {"pole_mass": float("nan")}),
])
def test_non_positive_mass_or_length_rejected(name, overrides):
    # The dynamics divide by these constants, and a negative mass flips the input gain's sign.
    (key,) = overrides
    with pytest.raises(ConfigError, match=f"{key} must be finite and > 0"):
        make_env(name, overrides)


def test_gravity_may_take_any_sign():
    assert make_env("pendulum", {"gravity": -9.81}).name == "pendulum"
    assert make_env("cartpole", {"gravity": 0.0}).name == "cartpole"


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
    with pytest.raises(ConfigError, match="reads no amplitude"):
        DisturbanceSpec(amplitude=0.3)
    with pytest.raises(ConfigError, match="reads no frequency"):
        DisturbanceSpec(kind="constant_matched", amplitude=0.3, frequency=0.5)
    for kind in ("constant_matched", "sinusoid_matched"):
        with pytest.raises(ConfigError, match="needs an amplitude > 0"):
            DisturbanceSpec(kind=kind, frequency=0.5 if kind == "sinusoid_matched" else 0.0)
    with pytest.raises(ConfigError, match="needs a nonzero frequency"):
        DisturbanceSpec(kind="sinusoid_matched", amplitude=0.3)


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
