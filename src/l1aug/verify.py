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

``run_ts_grid`` runs the grid's experiments and the Monte-Carlo assumption
check side by side over the usable CPUs, one ``pool.map_jobs`` call with the
longest first; ``taskset -c 0`` runs them in turn in-process. Each is a pure
float computation whose result comes back by pickle, so the report has the
same bits at any CPU count.

As the plant in ``envsim``, the harness steps on Python floats: the fields
are float closed forms. It runs no unmatched split, so no QR. ``row_norms``
takes all the norms of a run in one stacked product whose rows are the
``ddot`` of ``np.linalg.norm``, so they keep its bits.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from operator import add, mul, sub
from typing import Callable, Sequence

import numpy as np

from . import pool
from .affine import AffineModel, reanchor
from .envsim import ConfigError, build_from_catalog, rk4_step
from .l1core import L1Config, default_l1_config, l1_input

Array = np.ndarray

SUBSTEPS = 8  # RK4 steps per sampling interval


@dataclass(frozen=True)
class SyntheticSpec:
    """A fully known system for exercising the estimation-error bound.

    The fields take the state and the input as sequences of floats: ``drift``
    F(x, u), ``disturbance`` W(t, x, u) and ``model_error`` delta(x, u) return
    n rates, ``input_jacobian`` d(F + delta)/du n rows of m. The spec is its
    own learned model: ``predict_mean`` (F + delta, in rates) and ``jacobian_u``
    wrap the fields as arrays. eps_l must bound the norm of the residual error
    l = W - delta over the test box, which ``check_assumption_bound`` samples.

    ``run_ts_grid`` hands the spec to pool workers, so a grid's spec must
    pickle, as the presets do; a spec with lambdas still runs through
    ``run_bound_experiment`` and ``check_assumption_bound`` directly.
    """

    n: int
    m: int
    drift: Callable[[Sequence[float], Sequence[float]], Sequence[float]]
    disturbance: Callable[[float, Sequence[float], Sequence[float]], Sequence[float]]
    model_error: Callable[[Sequence[float], Sequence[float]], Sequence[float]]
    input_jacobian: Callable[[Sequence[float], Sequence[float]], Sequence[Sequence[float]]]
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
        # The float path zips, so an x0, bound or field of the wrong length would silently shorten the state.
        x0, u0 = np.asarray(self.x0, dtype=float), np.asarray(self.u_star(0.0), dtype=float)
        vectors = (x0, self.state_low, self.state_high, u0, self.input_low, self.input_high)
        if [np.shape(v) for v in vectors] != [(self.n,)] * 3 + [(self.m,)] * 3:
            raise ConfigError(f"SyntheticSpec: x0 and state bounds need shape ({self.n},), "
                              f"u_star(0) and input bounds ({self.m},)")
        x0, u0 = x0.tolist(), u0.tolist()
        rates = (self.drift(x0, u0), self.disturbance(0.0, x0, u0), self.model_error(x0, u0))
        if [np.shape(r) for r in (*rates, *self.input_jacobian(x0, u0))] != [(self.n,)] * 3 + [(self.m,)] * self.n:
            raise ConfigError(f"SyntheticSpec: fields need {self.n} rates, input_jacobian {self.n} rows of {self.m}")

    def predict_mean(self, x: Sequence[float], u: Sequence[float]) -> Array:
        return np.add(self.drift(x, u), self.model_error(x, u))

    def jacobian_u(self, x: Sequence[float], u: Sequence[float]) -> Array:
        return np.array(self.input_jacobian(x, u), dtype=float)


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
    Later stages sum f + J (u - ubar) per row on floats, which gives numpy's
    matmul bits for m = 1 only; for m > 1 the last bit may differ.
    """
    ts = cfg.ts
    n_int = int(round(spec.t_max / ts))
    h = ts / SUBSTEPS

    x = spec.x0.astype(float).copy()
    xtilde = np.zeros(spec.n)
    q = np.zeros(spec.m)
    am: AffineModel | None = None
    drift, disturbance, model_error, jacobian = spec.drift, spec.disturbance, spec.model_error, spec.input_jacobian

    times: list[float] = []
    errors: list[list[float]] = []
    sigmas = np.zeros((n_int, spec.n))
    switch_count = 0

    for i in range(n_int):
        t0 = i * ts
        u_rl = np.asarray(spec.u_star(t0), dtype=float)
        am, decision = reanchor(am, spec, x, u_rl, spec.eps_a)
        switch_count += int(decision.switch)

        # The synthetic model predicts rates; its input gain over one sample is jac * ts.
        parts = decision.parts
        u, sigma_rate, _, q = l1_input(u_rl, xtilde, parts[1] * ts, q, cfg)
        sigmas[i] = sigma_rate
        u = np.clip(u, spec.input_low, spec.input_high)

        uf, ubar, sig, gain = u.tolist(), am.ubar.tolist(), sigma_rate.tolist(), cfg.as_diag.tolist()
        du = [a - b for a, b in zip(uf, ubar)]
        anchor_parts = (parts[0].tolist(), parts[1].tolist())
        stage = 0

        def joint_field(t: float, z: list[float]) -> list[float]:
            nonlocal stage
            xt, et = z[: spec.n], z[spec.n :]
            f_anchor, jac = anchor_parts if stage == 0 else (
                list(map(add, drift(xt, ubar), model_error(xt, ubar))), jacobian(xt, ubar))
            rate_true = list(map(add, drift(xt, uf), disturbance(t, xt, uf)))
            d = [r - (f + sum(map(mul, row, du))) for r, f, row in zip(rate_true, f_anchor, jac)]
            if stage % 4 == 0:  # rk4_step's first stage, f(t, z) at the substep start
                times.append(t)
                errors.append([a - s for a, s in zip(d, sig)])
            stage += 1
            return rate_true + [g * e + s - a for g, e, s, a in zip(gain, et, sig, d)]

        z = x.tolist() + xtilde.tolist()
        for k in range(SUBSTEPS):
            z = rk4_step(joint_field, t0 + k * h, z, h)
        x, xtilde = np.array(z[: spec.n]), np.array(z[spec.n :])

    times_arr = np.asarray(times)
    e_arr = row_norms(errors)
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


def row_norms(rows: Sequence[Sequence[float]]) -> Array:
    """Euclidean norm of each row, as one stacked product whose rows are the ``ddot`` of ``np.linalg.norm``."""
    e = np.asarray(rows, dtype=float)
    return np.sqrt(np.matmul(e[:, None, :], e[:, :, None])[:, 0, 0])


def check_assumption_bound(spec: SyntheticSpec, samples: int, rng: np.random.Generator) -> dict:
    """Monte-Carlo sup ||true rate - model rate|| over the test box, from one draw of (t, x, u) rows."""
    if samples < 1:
        raise ConfigError("check_assumption_bound: samples must be >= 1")
    low = np.concatenate([[0.0], spec.state_low, spec.input_low])
    high = np.concatenate([[spec.t_max], spec.state_high, spec.input_high])
    draws = rng.uniform(low, high, size=(samples, 1 + spec.n + spec.m))
    points = zip(draws[:, 0].tolist(), draws[:, 1 : 1 + spec.n].tolist(), draws[:, 1 + spec.n :].tolist())
    residuals = [list(map(sub, spec.disturbance(t, x, u), spec.model_error(x, u))) for t, x, u in points]
    norms = row_norms(residuals).tolist()
    worst = max([0.0, *norms])  # max skips NaN, so only the count below fails a NaN norm
    non_finite = sum(not math.isfinite(v) for v in norms)
    if non_finite:
        print(f"check_assumption_bound: {non_finite} of {samples} residual norms are not finite", file=sys.stderr)
    passed = worst <= spec.eps_l and not non_finite
    return {"sup_estimate": worst, "eps_l": spec.eps_l, "passed": passed, "samples": samples}


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


def _call(fn: Callable, *args):
    """``fn(*args)``, so that one map runs both the experiments and the assumption check."""
    return fn(*args)


def run_ts_grid(spec: SyntheticSpec, as_value: float = -1.0, omega_factor: float = 0.35,
                assumption_samples: int = 20000, assumption_seed: int = 0) -> dict:
    """Run the bound experiment across the sampling-time grid, check the assumption bound, and judge both.

    Checks, per sampling time: the first-interval bound eps_l + eps_a; across
    the grid: monotone post-interval sups and a halving ratio of the
    2*eps_a-shifted sups inside [1.5, 2.5] wherever the shifted value stays
    positive. Also reports the fitted slope line, switch-storm flags (more
    than half the steps switching) and, under ``assumption``, the Monte-Carlo
    check that the residual error stays below eps_l; ``pass`` needs both.

    The experiments and the check map through ``pool.map_jobs`` over the
    usable CPUs, longest first: the smallest ts (most intervals) first, the
    check last. So the spec must pickle.
    """
    configs = grid_l1_configs(spec, as_value, omega_factor)
    longest_first = sorted(range(len(configs)), key=lambda i: configs[i].ts)
    calls = [(run_bound_experiment, spec, configs[i]) for i in longest_first]
    calls.append((check_assumption_bound, spec, assumption_samples, np.random.default_rng(assumption_seed)))
    *finished, assumption = pool.map_jobs(_call, calls, pool.usable_cpus())
    by_index = dict(zip(longest_first, finished))
    traces = [by_index[i] for i in range(len(configs))]

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
        "assumption": assumption,
        "pass": all(first_ok) and monotone and ratios_ok and slope_ok and assumption["passed"],
    }


# --- Spec presets -----------------------------------------------------------
#
# A preset spec pickles by value, so a pool worker can run it: its fields are
# module-level functions, or a functools.partial of one over a preset argument.


def _scalar_drift(x, u):
    return (u[0],)


def _scalar_disturbance(d, t, x, u):
    return (d,)


def _scalar_model_error(x, u):
    return (0.0,)


def _scalar_input_jacobian(x, u):
    return ((1.0,),)


def _zero_input(t):
    return np.zeros(1)


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
    return SyntheticSpec(
        n=1, m=1, drift=_scalar_drift, disturbance=functools.partial(_scalar_disturbance, d),
        model_error=_scalar_model_error, input_jacobian=_scalar_input_jacobian,
        eps_l=abs(d), eps_a=eps_a,
        x0=np.zeros(1), u_star=_zero_input,
        state_low=np.array([-5.0]), state_high=np.array([5.0]),
        input_low=np.array([-3.0]), input_high=np.array([3.0]),
        t_max=t_max, ts_grid=tuple(ts_grid),
    )


# The default preset's disturbance W = (0, W_CONST + W_AMP sin(W_FREQ t)) and
# model error delta = (D1 sin x0, D2 tanh x1 + DU sin(1.3 u)).
W_CONST, W_AMP, W_FREQ = 0.25, 0.45, 1.7
D1, D2, DU = 0.12, 0.08, 0.05


def _default_drift(x, u):
    return (x[1], -1.2 * x[0] - 0.6 * x[1] + 0.4 * math.sin(x[0]) + u[0])


def _default_disturbance(t, x, u):
    return (0.0, W_CONST + W_AMP * math.sin(W_FREQ * t))


def _default_model_error(x, u):
    return (D1 * math.sin(x[0]), D2 * math.tanh(x[1]) + DU * math.sin(1.3 * u[0]))


def _default_input_jacobian(x, u):
    return ((0.0,), (1.0 + DU * 1.3 * math.cos(1.3 * u[0]),))


def _default_u_star(t):
    return np.array([0.8 * math.sin(1.1 * t) + 0.5 * math.sin(0.37 * t + 0.5) + 0.3 * math.sin(2.3 * t + 1.1)])


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
    # sup||W - delta|| <= sqrt(D1^2 + (W_CONST + W_AMP + D2 + DU)^2)
    eps_l = math.sqrt(D1**2 + (W_CONST + W_AMP + D2 + DU) ** 2)
    return SyntheticSpec(
        n=2, m=1, drift=_default_drift, disturbance=_default_disturbance, model_error=_default_model_error,
        input_jacobian=_default_input_jacobian,
        eps_l=eps_l, eps_a=eps_a,
        x0=np.array([0.3, 0.0]), u_star=_default_u_star,
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
