"""Estimation-error bound experiments on synthetic systems with known errors.

The harness builds systems where the true field, the disturbance, and the
model error are closed-form, so the model-error bound eps_l is exact rather
than estimated. It then runs the adaptive machinery against the synthetic
model (anchoring and switching included) while co-integrating the
prediction-error dynamics in continuous time, and records the estimation
error e(t) = true rate - affine model rate - uncertainty estimate at a dense
grid of times. The headline checks: e stays below eps_l + eps_a on the first
sampling interval, and its supremum afterwards shrinks linearly with the
sampling time toward a 2 eps_a floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .affine import AffineModel, reanchor
from .envsim import ConfigError, build_from_catalog, rk4_step
from .l1core import L1Config, default_l1_config, l1_input

Array = np.ndarray

SUBSTEPS = 8  # RK4 steps per sampling interval


@dataclass(frozen=True)
class SyntheticSpec:
    """A fully known system for exercising the estimation-error bound.

    The spec is its own synthetic learned model: ``predict_mean`` is F + delta
    (rates, not increments) and the field ``jacobian_u`` its input Jacobian in
    closed form. The residual error is W - delta and eps_l must upper-bound
    its norm over the test box; ``check_assumption_bound`` spot-checks that
    by sampling.
    """

    n: int
    m: int
    drift: Callable[[Array, Array], Array]
    disturbance: Callable[[float, Array, Array], Array]
    model_error: Callable[[Array, Array], Array]
    jacobian_u: Callable[[Array, Array], Array]
    eps_l: float
    eps_a: float
    x0: Array
    u_star: Callable[[float], Array]
    state_low: Array
    state_high: Array
    input_low: Array
    input_high: Array
    t_max: float = 6.0
    ts_grid: tuple[float, ...] = (0.02, 0.01, 0.005)

    def __post_init__(self):
        if not (self.eps_l >= 0 and self.eps_a > 0):
            raise ConfigError("SyntheticSpec: need eps_l >= 0 and eps_a > 0")
        if not 0 < self.t_max < math.inf or not self.ts_grid:
            raise ConfigError("SyntheticSpec: need a finite t_max > 0 and a nonempty ts_grid")
        if not all(ts > 0 and round(self.t_max / ts) >= 2 for ts in self.ts_grid):
            raise ConfigError(f"SyntheticSpec: each ts must be > 0 and split t_max into >= 2 intervals: {self.ts_grid}")

    def predict_mean(self, x: Array, u: Array) -> Array:
        return self.drift(x, u) + self.model_error(x, u)

    def residual_error(self, t: float, x: Array, u: Array) -> Array:
        """l(t, x, u) = true rate minus model rate = W - delta."""
        return self.disturbance(t, x, u) - self.model_error(x, u)


@dataclass
class ErrorTrace:
    """Dense estimation-error record for one sampling time."""

    ts: float
    times: Array
    e_norms: Array
    sigma_per_interval: Array
    first_interval_max: float
    post_sup: float
    n_intervals: int
    switch_count: int


def run_bound_experiment(spec: SyntheticSpec, cfg: L1Config) -> ErrorTrace:
    """Drive the synthetic system with the adaptive loop and record e(t).

    Between samples the true state and the prediction error are integrated
    jointly with RK4 substeps, which keeps the interval response of the error
    dynamics exact to well below the bound tolerances. At the sample
    boundaries the controller's own switching law (``reanchor``) and
    adaptive law (``l1_input``) run; unlike the controller's Euler predictor,
    the prediction error is integrated exactly and with the clamped input.
    e(t) is recorded at each substep's first RK4 stage, f(t, z) at its start;
    the check, the adaptive law and the sample's first stage share one ``parts``.
    """
    ts = cfg.ts
    n_int = int(round(spec.t_max / ts))
    h = ts / SUBSTEPS

    x = spec.x0.astype(float).copy()
    xtilde = np.zeros(spec.n)
    q = np.zeros(spec.m)
    am: AffineModel | None = None

    times: list[float] = []
    e_norms: list[float] = []
    sigmas = np.zeros((n_int, spec.n))
    switch_count = 0

    for i in range(n_int):
        t0 = i * ts
        u_rl = np.asarray(spec.u_star(t0), dtype=float)
        am, decision = reanchor(am, spec, x, u_rl, spec.eps_a)
        switch_count += int(decision.switch)

        # The synthetic model predicts rates; its input gain over one sample is jac * ts.
        parts = decision.parts
        u, sigma_rate, _, _, q = l1_input(u_rl, xtilde, parts[1] * ts, q, cfg)
        sigmas[i] = sigma_rate
        u = np.clip(u, spec.input_low, spec.input_high)

        stage = 0

        def joint_field(t: float, z: Array) -> Array:
            nonlocal stage
            xt, et = z[: spec.n], z[spec.n :]
            rate_true = spec.drift(xt, u) + spec.disturbance(t, xt, u)
            d = rate_true - am.predict(parts if stage == 0 else am.parts(xt), u)
            if stage % 4 == 0:  # rk4_step's first stage, f(t, z) at the substep start
                times.append(t)
                e_norms.append(float(np.linalg.norm(d - sigma_rate)))
            stage += 1
            return np.concatenate([rate_true, cfg.as_diag * et + sigma_rate - d])

        z = np.concatenate([x, xtilde])
        for k in range(SUBSTEPS):
            z = rk4_step(joint_field, t0 + k * h, z, h)
        x, xtilde = z[: spec.n], z[spec.n :]

    times_arr = np.asarray(times)
    e_arr = np.asarray(e_norms)
    first_mask = times_arr < ts
    return ErrorTrace(
        ts=ts,
        times=times_arr,
        e_norms=e_arr,
        sigma_per_interval=sigmas,
        first_interval_max=float(e_arr[first_mask].max()),
        post_sup=float(e_arr[~first_mask].max()),
        n_intervals=n_int,
        switch_count=switch_count,
    )


def check_assumption_bound(spec: SyntheticSpec, samples: int, rng: np.random.Generator) -> dict:
    """Monte-Carlo sup ||true rate - model rate|| over the test box, from one draw of (t, x, u) rows."""
    if samples < 1:
        raise ConfigError("check_assumption_bound: samples must be >= 1")
    low = np.concatenate([[0.0], spec.state_low, spec.input_low])
    high = np.concatenate([[spec.t_max], spec.state_high, spec.input_high])
    draws = rng.uniform(low, high, size=(samples, 1 + spec.n + spec.m))
    worst = 0.0
    for t, x, u in zip(draws[:, 0].tolist(), draws[:, 1 : 1 + spec.n], draws[:, 1 + spec.n :]):
        worst = max(worst, float(np.linalg.norm(spec.residual_error(t, x, u))))
    return {"sup_estimate": worst, "eps_l": spec.eps_l, "passed": worst <= spec.eps_l, "samples": samples}


def fit_sup_line(ts_values: Array, sups: Array, eps_a: float) -> dict:
    """Least-squares slope of sup(ts) through the fixed 2*eps_a intercept."""
    ts_values = np.asarray(ts_values, dtype=float)
    sups = np.asarray(sups, dtype=float)
    shifted = sups - 2.0 * eps_a
    slope = float(shifted @ ts_values / (ts_values @ ts_values))
    fitted = 2.0 * eps_a + slope * ts_values
    rel_residual = float(np.linalg.norm(sups - fitted) / max(np.linalg.norm(sups), 1e-300))
    return {"intercept": 2.0 * eps_a, "slope": slope, "rel_residual": rel_residual}


def grid_l1_configs(spec: SyntheticSpec, as_value: float = -1.0, omega_factor: float = 0.35) -> list[L1Config]:
    """One controller config per sampling time of the grid; raises ValueError on invalid gains."""
    return [default_l1_config(spec.n, ts, spec.eps_a, as_value, omega_factor) for ts in spec.ts_grid]


def run_ts_grid(spec: SyntheticSpec, as_value: float = -1.0, omega_factor: float = 0.35) -> dict:
    """Run the bound experiment across the sampling-time grid and judge it.

    Checks, per sampling time: the first-interval bound eps_l + eps_a; across
    the grid: monotone post-interval sups and a halving ratio of the
    2*eps_a-shifted sups inside [1.5, 2.5] wherever the shifted value stays
    positive. Also reports the fitted slope line and switch-storm flags
    (more than half the steps switching).
    """
    traces = [run_bound_experiment(spec, cfg) for cfg in grid_l1_configs(spec, as_value, omega_factor)]

    first_bound = spec.eps_l + spec.eps_a + 1e-12
    first_ok = [tr.first_interval_max <= first_bound for tr in traces]
    sups = np.asarray([tr.post_sup for tr in traces])
    ts_values = np.asarray([tr.ts for tr in traces])
    order = np.argsort(-ts_values)
    sups_sorted = sups[order]
    monotone = bool(np.all(np.diff(sups_sorted) <= 1e-12))

    shifted = sups_sorted - 2.0 * spec.eps_a
    ratios = [float(a / b) if a > 0 and b > 0 else float("nan") for a, b in zip(shifted[:-1], shifted[1:])]
    ratios_ok = all(1.5 <= r <= 2.5 for r in ratios if r == r)  # NaN marks a pair with no measurable trend

    fit = fit_sup_line(ts_values, sups, spec.eps_a)
    # When every sup already sits below the 2*eps_a floor the bound holds
    # trivially and no sampling-time trend is measurable.
    trend_measurable = bool(np.any(shifted > 0))
    slope_ok = fit["slope"] >= 0.0 or not trend_measurable
    return {
        "per_ts": [
            {
                "ts": tr.ts,
                "first_interval_max": tr.first_interval_max,
                "post_sup": tr.post_sup,
                "switch_count": tr.switch_count,
                "n_intervals": tr.n_intervals,
                "switch_storm": tr.switch_count > 0.5 * tr.n_intervals,
            }
            for tr in traces
        ],
        "first_interval_bound": first_bound,
        "first_interval_pass": all(first_ok),
        "monotone_pass": monotone,
        "halving_ratios": ratios,
        "halving_pass": ratios_ok,
        "fit": fit,
        "trend_measurable": trend_measurable,
        "slope_nonnegative": slope_ok,
        "pass": all(first_ok) and monotone and ratios_ok and slope_ok,
    }


# --- Spec presets -----------------------------------------------------------


def scalar_constant_spec(
    d: float = 0.5,
    eps_a: float = 0.1,
    t_max: float = 3.0,
    ts_grid: tuple[float, ...] = (0.1,),
) -> SyntheticSpec:
    """Scalar integrator with a constant matched disturbance and exact model.

    The model is affine in u, so the affinization error is identically zero
    and the residual error is exactly the constant d; eps_l = |d|.
    """

    def drift(x, u):
        return np.array([u[0]])

    def disturbance(t, x, u):
        return np.array([d])

    def model_error(x, u):
        return np.zeros(1)

    def jacobian_u(x, u):
        return np.array([[1.0]])

    return SyntheticSpec(
        n=1, m=1, drift=drift, disturbance=disturbance, model_error=model_error, jacobian_u=jacobian_u,
        eps_l=abs(d), eps_a=eps_a,
        x0=np.zeros(1), u_star=lambda t: np.zeros(1),
        state_low=np.array([-5.0]), state_high=np.array([5.0]),
        input_low=np.array([-3.0]), input_high=np.array([3.0]),
        t_max=t_max, ts_grid=tuple(ts_grid),
    )


def default_synthetic_spec(
    eps_a: float = 2e-4,
    t_max: float = 6.0,
    ts_grid: tuple[float, ...] = (0.02, 0.01, 0.005),
) -> SyntheticSpec:
    """Planar nonlinear system with a time-varying disturbance and model error.

    eps_l is the analytic triangle-inequality bound on ||W - delta||; the
    model error includes a mild input nonlinearity so the switching law is
    exercised without storming at the default tolerance.
    """
    w_const = 0.25
    w_amp = 0.45
    w_freq = 1.7
    d1 = 0.12
    d2 = 0.08
    du = 0.05

    def drift(x, u):
        return np.array([x[1], -1.2 * x[0] - 0.6 * x[1] + 0.4 * math.sin(x[0]) + u[0]])

    def disturbance(t, x, u):
        return np.array([0.0, w_const + w_amp * math.sin(w_freq * t)])

    def model_error(x, u):
        return np.array([d1 * math.sin(x[0]), d2 * math.tanh(x[1]) + du * math.sin(1.3 * u[0])])

    def jacobian_u(x, u):
        return np.array([[0.0], [1.0 + du * 1.3 * math.cos(1.3 * u[0])]])

    # sup||W - delta|| <= sqrt(d1^2 + (w_const + w_amp + d2 + du)^2)
    eps_l = math.sqrt(d1**2 + (w_const + w_amp + d2 + du) ** 2)

    def u_star(t):
        return np.array([0.8 * math.sin(1.1 * t) + 0.5 * math.sin(0.37 * t + 0.5) + 0.3 * math.sin(2.3 * t + 1.1)])

    return SyntheticSpec(
        n=2, m=1, drift=drift, disturbance=disturbance, model_error=model_error, jacobian_u=jacobian_u,
        eps_l=eps_l, eps_a=eps_a,
        x0=np.array([0.3, 0.0]), u_star=u_star,
        state_low=np.array([-4.0, -4.0]), state_high=np.array([4.0, 4.0]),
        input_low=np.array([-2.0]), input_high=np.array([2.0]),
        t_max=t_max, ts_grid=tuple(ts_grid),
    )


SPEC_PRESETS: dict[str, Callable[..., SyntheticSpec]] = {
    "default": default_synthetic_spec,
    "scalar_constant": scalar_constant_spec,
}


def make_synthetic_spec(preset: str, **kwargs) -> SyntheticSpec:
    return build_from_catalog(SPEC_PRESETS, preset, kwargs, "synthetic preset", "params")
