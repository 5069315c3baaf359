"""Ground-truth continuous-time benchmark systems with disturbance injection.

Each environment is a smooth vector field integrated with fixed-step RK4 to
produce discrete transitions x_{t+1} = x_t + dx. Disturbances enter either
as an offset on the first input (matched), as actuation noise, or as
observation noise on the reported next state.

The plant is integrated on short lists of Python floats: a step is a few
dozen scalar operations, which numpy would pay for one small array at a
time. The vector field keeps numpy's elementwise operations and their order,
so a step has the bits of the same RK4 written over float64 arrays.
"""

from __future__ import annotations

import functools
import inspect
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

Array = np.ndarray

DISTURBANCE_KINDS = ("none", "constant_matched", "sinusoid_matched", "action_noise", "obs_noise")

RK4_SUBSTEPS = 4  # RK4 steps per env.dt


class ConfigError(ValueError):
    """Invalid configuration (unknown name, bad field value, bad key)."""


class EpisodeDiverged(RuntimeError):
    """State became non-finite during integration; the episode has failed."""


@dataclass(frozen=True)
class EnvSpec:
    """A continuous-time control benchmark with box-bounded state and input.

    ``drift`` is the vector field F(x, u): it takes the state and the input as
    sequences of floats and returns the n rates as a sequence of floats. A
    matched disturbance d enters as F(x, u + d e1), which for a plant affine
    in u is F(x, u) + B(x) d through the input channel's first column. Leaving
    ``state_low``/``state_high`` terminates the episode with zero reward
    thereafter. ``reward`` must be vectorized over leading axes.
    """

    name: str
    n: int
    m: int
    dt: float
    horizon: int
    drift: Callable[[Sequence[float], Sequence[float]], Sequence[float]]
    x0_sampler: Callable[[np.random.Generator], Array]
    state_low: Array
    state_high: Array
    input_low: Array
    input_high: Array
    reward: Callable[[Array, Array], Array]

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ConfigError(f"env {self.name}: need n >= 1 and m >= 1")
        if not self.dt > 0:
            raise ConfigError(f"env {self.name}: dt must be positive")
        if isinstance(self.horizon, bool) or not isinstance(self.horizon, int) or self.horizon < 1:
            raise ConfigError(f"env {self.name}: horizon must be an integer >= 1, got {self.horizon!r}")
        for arr, dim, label in (
            (self.state_low, self.n, "state_low"),
            (self.state_high, self.n, "state_high"),
            (self.input_low, self.m, "input_low"),
            (self.input_high, self.m, "input_high"),
        ):
            if np.shape(arr) != (dim,):
                raise ConfigError(f"env {self.name}: {label} must have shape ({dim},)")
        if not np.all(np.isfinite(self.input_low)) or not np.all(np.isfinite(self.input_high)):
            raise ConfigError(f"env {self.name}: input bounds must be a bounded box")
        if np.any(self.input_low >= self.input_high) or np.any(self.state_low >= self.state_high):
            raise ConfigError(f"env {self.name}: bounds must satisfy low < high")

    def clamp_input(self, u: Array) -> Array:
        return np.clip(u, self.input_low, self.input_high)

    def in_state_bounds(self, x: Array) -> Array:
        """Whether each state along the last axis of ``x`` lies in the closed state box; NaN lies outside.

        A plan's (H, N, n) block is tested one component at a time over the
        leading axes, which costs a quarter of reducing a short last axis. A
        single state is tested on floats.
        """
        lows, highs = self.state_low.tolist(), self.state_high.tolist()
        if x.ndim == 1:
            return np.bool_(all(lo <= v <= hi for v, lo, hi in zip(x.tolist(), lows, highs)))
        inside = True
        for i, (lo, hi) in enumerate(zip(lows, highs)):
            xi = x[..., i]
            inside = inside & (xi >= lo) & (xi <= hi)
        return inside


@dataclass(frozen=True)
class DisturbanceSpec:
    """What perturbs the system.

    ``kind`` names the matched disturbance, an offset on the first input
    after the clamp and the actuation noise (amplitude in input units,
    frequency in Hz for the sinusoid). ``sigma_a`` and ``sigma_o`` are
    independent i.i.d. uniform noise half-widths on the actuation and the
    reported observation; they compose with any kind, and the kinds
    ``action_noise``/``obs_noise`` label the pure-noise scenarios.
    """

    kind: str = "none"
    amplitude: float = 0.0
    frequency: float = 0.0
    sigma_a: float = 0.0
    sigma_o: float = 0.0

    def __post_init__(self):
        if self.kind not in DISTURBANCE_KINDS:
            raise ConfigError(f"unknown disturbance kind {self.kind!r}; expected one of {DISTURBANCE_KINDS}")
        if not all(map(math.isfinite, (self.amplitude, self.frequency, self.sigma_a, self.sigma_o))):
            raise ConfigError("disturbance amplitude, frequency and sigmas must be finite")
        if min(self.amplitude, self.sigma_a, self.sigma_o) < 0:
            raise ConfigError("disturbance amplitudes must be nonnegative")
        # A field the kind never reads would be ignored without a word.
        if self.amplitude != 0.0 and not self.kind.endswith("_matched"):
            raise ConfigError(f"kind {self.kind!r} reads no amplitude; noise sizes are sigma_a and sigma_o")
        if self.frequency != 0.0 and self.kind != "sinusoid_matched":
            raise ConfigError(f"kind {self.kind!r} reads no frequency")
        # A matched kind that never disturbs would run undisturbed without a word.
        if self.kind.endswith("_matched") and self.amplitude == 0.0:
            raise ConfigError(f"kind {self.kind!r} needs an amplitude > 0")
        if self.kind == "sinusoid_matched" and self.frequency == 0.0:
            raise ConfigError("kind 'sinusoid_matched' needs a nonzero frequency")

    def matched_value(self, t: float) -> float:
        """Time value of the matched disturbance d(t), zero for noise kinds."""
        if self.kind == "constant_matched":
            return self.amplitude
        if self.kind == "sinusoid_matched":
            return self.amplitude * math.sin(2.0 * math.pi * self.frequency * t)
        return 0.0


@dataclass(frozen=True)
class Transition:
    """One executed step: true state in, observed next state out.

    ``u_applied`` is the clamped command actually handed to the actuators
    (before actuation noise, which is the environment's business).
    ``x_next`` carries observation noise when configured; ``x_next_true`` is
    the internal state to continue from.
    """

    x: Array
    u_applied: Array
    x_next: Array
    x_next_true: Array
    reward: float


def rk4_step(
    f: Callable[[float, Sequence[float]], Sequence[float]], t: float, x: Sequence[float], h: float
) -> list[float]:
    """One classical RK4 step of x' = f(t, x) over sequences of floats, elementwise as numpy would."""
    half, sixth = 0.5 * h, h / 6.0
    k1 = f(t, x)
    k2 = f(t + half, [a + half * k for a, k in zip(x, k1)])
    k3 = f(t + half, [a + half * k for a, k in zip(x, k2)])
    k4 = f(t + h, [a + h * k for a, k in zip(x, k3)])
    return [a + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4) for a, b1, b2, b3, b4 in zip(x, k1, k2, k3, k4)]


def integrate(env: EnvSpec, dist: DisturbanceSpec, x: Sequence[float], u: Sequence[float], t0: float) -> list[float]:
    """Advance the disturbed field F(x, u + d(t) e1) by one dt via RK4, on floats."""

    def field(t: float, xt: Sequence[float]) -> Sequence[float]:
        d = dist.matched_value(t)  # d == 0 hands drift ``u`` itself, so an undisturbed step keeps its bits
        return env.drift(xt, u if d == 0.0 else [u[0] + d, *u[1:]])

    h = env.dt / RK4_SUBSTEPS
    for k in range(RK4_SUBSTEPS):
        x = rk4_step(field, t0 + k * h, x, h)
    return x


def step_true(
    env: EnvSpec,
    dist: DisturbanceSpec,
    x: Array,
    u: Array,
    t: int,
    rng: np.random.Generator,
) -> Transition:
    """Execute one discrete step of the true disturbed system.

    The command ``u`` is clamped to the input box before anything else.
    Action noise perturbs the clamped command at the actuator (re-clamped so
    the physical input stays in the box); observation noise perturbs only the
    returned ``x_next``, never the internal true state. Reward is computed on
    the true state and the clamped command. A state that overflows or turns
    non-finite during integration raises ``EpisodeDiverged``.
    """
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    if x.shape != (env.n,) or u.shape != (env.m,):
        raise ValueError(f"step_true: expected shapes ({env.n},) and ({env.m},), got {x.shape} and {u.shape}")
    if not (np.isfinite(x).all() and np.isfinite(u).all()):
        raise ValueError("step_true: non-finite state or input")

    u_cmd = env.clamp_input(u)
    u_exec = u_cmd
    if dist.sigma_a > 0:
        u_exec = env.clamp_input(u_cmd + rng.uniform(-dist.sigma_a, dist.sigma_a, size=env.m))

    try:
        x_next_true = integrate(env, dist, x.tolist(), u_exec.tolist(), t0=t * env.dt)
    except (OverflowError, ValueError) as exc:  # float overflow, or math.sin of an infinite state
        raise EpisodeDiverged(f"env {env.name}: state overflowed during step {t}") from exc
    # The float RK4 zips the state with the rates, so a short drift would shorten the state silently.
    x_next_true = np.array(x_next_true, dtype=float)
    if x_next_true.shape != (env.n,):
        raise ValueError(f"env {env.name}: drift returned {x_next_true.shape[0]} rates, expected {env.n}")
    if not np.isfinite(x_next_true).all():
        raise EpisodeDiverged(f"env {env.name}: non-finite state after step {t}")

    x_next = x_next_true
    if dist.sigma_o > 0:
        x_next = x_next_true + rng.uniform(-dist.sigma_o, dist.sigma_o, size=env.n)

    r = float(env.reward(x, u_cmd))
    return Transition(x=x, u_applied=u_cmd, x_next=x_next, x_next_true=x_next_true, reward=r)


# --- Environment catalog ----------------------------------------------------
#
# Rewards are quadratic stabilization costs (cartpole adds an alive bonus so
# that leaving the state box is never advantageous). All constants are
# overridable through make_env(name, overrides).
#
# A catalog env pickles by value, so a pool worker can step it: its reward and
# initial-state sampler are module-level functions, and its drift is one, or a
# functools.partial of one over the constants the builder derives.


def _box(*vals: float) -> Array:
    return np.asarray(vals, dtype=float)


def _double_integrator_drift(x, u):
    return (x[1], u[0])


def _double_integrator_reward(x, u):
    return -(x[..., 0] ** 2 + 0.1 * x[..., 1] ** 2 + 0.01 * u[..., 0] ** 2)


def _double_integrator_x0(rng):
    return np.array([rng.uniform(0.5, 1.5), rng.uniform(-0.5, 0.5)])


def double_integrator(dt: float = 0.1, horizon: int = 60) -> EnvSpec:
    """Point mass on a line: x1' = x2, x2' = u."""
    return EnvSpec(
        name="double_integrator", n=2, m=1, dt=dt, horizon=horizon,
        drift=_double_integrator_drift, x0_sampler=_double_integrator_x0,
        state_low=_box(-5.0, -5.0), state_high=_box(5.0, 5.0),
        input_low=_box(-2.0), input_high=_box(2.0), reward=_double_integrator_reward,
    )


def _pendulum_drift(gl, inv_ml2, x, u):
    return (x[1], -gl * math.sin(x[0]) + inv_ml2 * u[0])


def _pendulum_reward(x, u):
    return -(x[..., 0] ** 2 + 0.1 * x[..., 1] ** 2 + 0.001 * u[..., 0] ** 2)


def _pendulum_x0(rng):
    return np.array([rng.uniform(-0.6, 0.6), rng.uniform(-0.5, 0.5)])


def pendulum(
    dt: float = 0.05,
    horizon: int = 200,
    gravity: float = 9.81,
    length: float = 1.0,
    mass: float = 1.0,
) -> EnvSpec:
    """Pendulum regulated at the hanging equilibrium: th'' = -(g/l) sin th + u/(m l^2)."""
    return EnvSpec(
        name="pendulum", n=2, m=1, dt=dt, horizon=horizon,
        drift=functools.partial(_pendulum_drift, gravity / length, 1.0 / (mass * length**2)),
        x0_sampler=_pendulum_x0,
        state_low=_box(-math.pi, -8.0), state_high=_box(math.pi, 8.0),
        input_low=_box(-2.0), input_high=_box(2.0), reward=_pendulum_reward,
    )


def _cartpole_drift(gravity, pole_length, pole_mass, total_mass, ml, x, u):
    thdot = x[3]
    sin_th = math.sin(x[2])
    cos_th = math.cos(x[2])
    # Squares round as numpy's do over one state: a 0-d array's thdot**2 is
    # thdot * thdot (written so, it cannot raise float **'s OverflowError), and
    # a numpy scalar's cos_th**2 is libm pow, as float ** is. The two differ in
    # the last bit for about one cosine in 1200; |cos_th| <= 1 cannot overflow.
    tmp = (u[0] + ml * (thdot * thdot) * sin_th) / total_mass
    th_acc = (gravity * sin_th - cos_th * tmp) / (
        pole_length * (4.0 / 3.0 - pole_mass * cos_th**2 / total_mass)
    )
    p_acc = tmp - ml * th_acc * cos_th / total_mass
    return (x[1], p_acc, thdot, th_acc)


def _cartpole_reward(x, u):
    return 1.0 - (x[..., 2] ** 2 + 0.05 * x[..., 0] ** 2 + 0.001 * u[..., 0] ** 2)


def _cartpole_x0(rng):
    return rng.uniform(-0.05, 0.05, size=4)


def cartpole(
    dt: float = 0.04,
    horizon: int = 150,
    cart_mass: float = 1.0,
    pole_mass: float = 0.1,
    pole_length: float = 0.5,
    gravity: float = 9.81,
) -> EnvSpec:
    """Cart with an inverted pole, state (p, pdot, th, thdot), force input.

    th = 0 is upright and unstable. The reward pays an alive bonus minus a
    quadratic cost, sized so staying inside the state box always beats an
    early exit.
    """
    return EnvSpec(
        name="cartpole", n=4, m=1, dt=dt, horizon=horizon,
        drift=functools.partial(_cartpole_drift, gravity, pole_length, pole_mass, cart_mass + pole_mass,
                                pole_mass * pole_length),
        x0_sampler=_cartpole_x0,
        state_low=_box(-2.4, -8.0, -0.6, -8.0), state_high=_box(2.4, 8.0, 0.6, 8.0),
        input_low=_box(-10.0), input_high=_box(10.0), reward=_cartpole_reward,
    )


_CATALOG: dict[str, Callable[..., EnvSpec]] = {
    "double_integrator": double_integrator,
    "pendulum": pendulum,
    "cartpole": cartpole,
}


def build_from_catalog(catalog: dict[str, Callable], name: str, kwargs: dict, kind: str, keys: str):
    """``catalog[name](**kwargs)``, with an unknown name or keyword reported as a ConfigError."""
    if name not in catalog:
        raise ConfigError(f"unknown {kind} {name!r}; expected one of {sorted(catalog)}")
    builder = catalog[name]
    allowed = set(inspect.signature(builder).parameters)
    unknown = set(kwargs) - allowed
    if unknown:
        raise ConfigError(f"{kind} {name}: unknown {keys} {sorted(unknown)}; allowed: {sorted(allowed)}")
    return builder(**kwargs)


def make_env(name: str, overrides: dict | None = None) -> EnvSpec:
    """Build a catalog environment, optionally overriding its constants."""
    return build_from_catalog(_CATALOG, name, dict(overrides or {}), "environment", "override keys")
