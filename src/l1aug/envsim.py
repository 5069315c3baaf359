"""Ground-truth continuous-time benchmark systems with disturbance injection.

Each environment is a smooth vector field integrated with fixed-step RK4 to
produce discrete transitions x_{t+1} = x_t + dx. Disturbances enter either
through the true input channel (matched), as actuation noise, or as
observation noise on the reported next state.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

Array = np.ndarray

DISTURBANCE_KINDS = ("none", "constant_matched", "sinusoid_matched", "action_noise", "obs_noise")


class ConfigError(ValueError):
    """Invalid configuration (unknown name, bad field value, bad key)."""


class EpisodeDiverged(RuntimeError):
    """State became non-finite during integration; the episode has failed."""


@dataclass(frozen=True)
class EnvSpec:
    """A continuous-time control benchmark with box-bounded state and input.

    ``drift`` is the undisturbed vector field F(x, u). ``input_matrix`` gives
    the true input channel B(x) through which matched disturbances enter.
    Leaving ``state_low``/``state_high`` terminates the episode with zero
    reward thereafter. ``reward`` must be vectorized over leading axes.
    """

    name: str
    n: int
    m: int
    dt: float
    horizon: int
    drift: Callable[[Array, Array], Array]
    input_matrix: Callable[[Array], Array]
    x0_sampler: Callable[[np.random.Generator], Array]
    state_low: Array
    state_high: Array
    input_low: Array
    input_high: Array
    reward: Callable[[Array, Array], Array]
    rk4_substeps: int = 4

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ConfigError(f"env {self.name}: need n >= 1 and m >= 1")
        if self.dt <= 0:
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

    def in_state_bounds(self, x: Array) -> bool:
        return bool((x >= self.state_low).all() and (x <= self.state_high).all())


@dataclass(frozen=True)
class DisturbanceSpec:
    """What perturbs the system.

    ``kind`` names the structured matched disturbance entering through the
    input channel (amplitude in input units, frequency in Hz for the
    sinusoid). ``sigma_a`` and ``sigma_o`` are independent i.i.d. uniform
    noise half-widths on the actuation and the reported observation; they
    compose with any kind, and the kinds ``action_noise``/``obs_noise`` are
    the conventional labels for the pure-noise scenarios.
    """

    kind: str = "none"
    amplitude: float = 0.0
    frequency: float = 0.0
    sigma_a: float = 0.0
    sigma_o: float = 0.0

    def __post_init__(self):
        if self.kind not in DISTURBANCE_KINDS:
            raise ConfigError(f"unknown disturbance kind {self.kind!r}; expected one of {DISTURBANCE_KINDS}")
        if self.amplitude < 0 or self.sigma_a < 0 or self.sigma_o < 0:
            raise ConfigError("disturbance amplitudes must be nonnegative")
        if self.kind in ("action_noise", "obs_noise") and self.amplitude != 0.0:
            raise ConfigError(f"kind {self.kind!r} takes its size from sigma, not amplitude")

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
    t: int


def rk4_step(f: Callable[[float, Array], Array], t: float, x: Array, h: float) -> Array:
    k1 = f(t, x)
    k2 = f(t + 0.5 * h, x + 0.5 * h * k1)
    k3 = f(t + 0.5 * h, x + 0.5 * h * k2)
    k4 = f(t + h, x + h * k3)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def integrate(env: EnvSpec, dist: DisturbanceSpec, x: Array, u: Array, t0: float) -> Array:
    """Advance the disturbed field F(x,u) + B(x) d(t) by one dt via RK4."""

    def field(t: float, xt: Array) -> Array:
        xdot = env.drift(xt, u)
        d = dist.matched_value(t)
        if d != 0.0:
            xdot = xdot + env.input_matrix(xt)[:, 0] * d
        return xdot

    h = env.dt / env.rk4_substeps
    for k in range(env.rk4_substeps):
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
    the true state and the clamped command.
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

    x_next_true = integrate(env, dist, x, u_exec, t0=t * env.dt)
    if not np.isfinite(x_next_true).all():
        raise EpisodeDiverged(f"env {env.name}: non-finite state after step {t}")

    x_next = x_next_true
    if dist.sigma_o > 0:
        x_next = x_next_true + rng.uniform(-dist.sigma_o, dist.sigma_o, size=env.n)

    r = float(env.reward(x, u_cmd))
    return Transition(x=x, u_applied=u_cmd, x_next=x_next, x_next_true=x_next_true, reward=r, t=t)


# --- Environment catalog ----------------------------------------------------
#
# Rewards are quadratic stabilization costs (cartpole adds an alive bonus so
# that leaving the state box is never advantageous). All constants are
# overridable through make_env(name, overrides).


def _box(*vals: float) -> Array:
    return np.asarray(vals, dtype=float)


def double_integrator(dt: float = 0.1, horizon: int = 60) -> EnvSpec:
    """Point mass on a line: x1' = x2, x2' = u."""

    def drift(x, u):
        return np.stack([x[..., 1], u[..., 0]], axis=-1)

    def input_matrix(x):
        return np.array([[0.0], [1.0]])

    def reward(x, u):
        return -(x[..., 0] ** 2 + 0.1 * x[..., 1] ** 2 + 0.01 * u[..., 0] ** 2)

    def x0_sampler(rng):
        return np.array([rng.uniform(0.5, 1.5), rng.uniform(-0.5, 0.5)])

    return EnvSpec(
        name="double_integrator", n=2, m=1, dt=dt, horizon=horizon,
        drift=drift, input_matrix=input_matrix, x0_sampler=x0_sampler,
        state_low=_box(-5.0, -5.0), state_high=_box(5.0, 5.0),
        input_low=_box(-2.0), input_high=_box(2.0), reward=reward,
    )


def pendulum(
    dt: float = 0.05,
    horizon: int = 200,
    gravity: float = 9.81,
    length: float = 1.0,
    mass: float = 1.0,
) -> EnvSpec:
    """Pendulum regulated at the hanging equilibrium: th'' = -(g/l) sin th + u/(m l^2)."""
    gl = gravity / length
    inv_ml2 = 1.0 / (mass * length**2)

    def drift(x, u):
        return np.stack([x[..., 1], -gl * np.sin(x[..., 0]) + inv_ml2 * u[..., 0]], axis=-1)

    def input_matrix(x):
        return np.array([[0.0], [inv_ml2]])

    def reward(x, u):
        return -(x[..., 0] ** 2 + 0.1 * x[..., 1] ** 2 + 0.001 * u[..., 0] ** 2)

    def x0_sampler(rng):
        return np.array([rng.uniform(-0.6, 0.6), rng.uniform(-0.5, 0.5)])

    return EnvSpec(
        name="pendulum", n=2, m=1, dt=dt, horizon=horizon,
        drift=drift, input_matrix=input_matrix, x0_sampler=x0_sampler,
        state_low=_box(-math.pi, -8.0), state_high=_box(math.pi, 8.0),
        input_low=_box(-2.0), input_high=_box(2.0), reward=reward,
    )


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
    total_mass = cart_mass + pole_mass
    ml = pole_mass * pole_length

    def drift(x, u):
        th = x[..., 2]
        thdot = x[..., 3]
        force = u[..., 0]
        sin_th = np.sin(th)
        cos_th = np.cos(th)
        tmp = (force + ml * thdot**2 * sin_th) / total_mass
        th_acc = (gravity * sin_th - cos_th * tmp) / (
            pole_length * (4.0 / 3.0 - pole_mass * cos_th**2 / total_mass)
        )
        p_acc = tmp - ml * th_acc * cos_th / total_mass
        return np.stack([x[..., 1], p_acc, thdot, th_acc], axis=-1)

    def input_matrix(x):
        # Accelerations are affine in the force, so a central difference of the
        # drift is the exact input channel.
        e = np.array([1.0])
        col = 0.5 * (drift(x, e) - drift(x, -e))
        return col.reshape(-1, 1)

    def reward(x, u):
        return 1.0 - (x[..., 2] ** 2 + 0.05 * x[..., 0] ** 2 + 0.001 * u[..., 0] ** 2)

    def x0_sampler(rng):
        return rng.uniform(-0.05, 0.05, size=4)

    return EnvSpec(
        name="cartpole", n=4, m=1, dt=dt, horizon=horizon,
        drift=drift, input_matrix=input_matrix, x0_sampler=x0_sampler,
        state_low=_box(-2.4, -8.0, -0.6, -8.0), state_high=_box(2.4, 8.0, 0.6, 8.0),
        input_low=_box(-10.0), input_high=_box(10.0), reward=reward,
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
