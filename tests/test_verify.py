import math

import numpy as np
import pytest

from l1aug.affine import reanchor
from l1aug.envsim import ConfigError, rk4_step
from l1aug.l1core import L1Config, l1_input
from l1aug.verify import (
    SUBSTEPS,
    SyntheticSpec,
    check_assumption_bound,
    default_synthetic_spec,
    fit_sup_line,
    make_synthetic_spec,
    run_bound_experiment,
    run_ts_grid,
    scalar_constant_spec,
)


def cfg_for(spec, ts, lam=-1.0, omega_factor=0.35):
    return L1Config(ts=ts, as_diag=np.full(spec.n, lam), omega=omega_factor / ts, eps_a=spec.eps_a)


def affine_noiseless_spec():
    """No disturbance, no model error, model exactly affine: e stays at zero."""

    def drift(x, u):
        return np.array([0.3 * x[1], -0.5 * x[0] + u[0]])

    zero2 = lambda *_: np.zeros(2)
    return SyntheticSpec(
        n=2, m=1, drift=drift, disturbance=lambda t, x, u: np.zeros(2), model_error=lambda x, u: np.zeros(2),
        jacobian_u=lambda x, u: np.array([[0.0], [1.0]]),
        eps_l=1e-9, eps_a=0.05,
        x0=np.array([0.4, -0.2]), u_star=lambda t: np.array([math.sin(t)]),
        state_low=np.array([-3.0, -3.0]), state_high=np.array([3.0, 3.0]),
        input_low=np.array([-2.0]), input_high=np.array([2.0]),
        t_max=2.0, ts_grid=(0.02,),
    )


def reference_bound_experiment(spec, cfg):
    """The bound loop with a separate record after each RK4 substep: every point evaluated afresh."""
    ts = cfg.ts
    n_int = int(round(spec.t_max / ts))
    x, xtilde, q, am = spec.x0.astype(float).copy(), np.zeros(spec.n), np.zeros(spec.m), None
    times, e_norms, sigmas, switch_count = [], [], np.zeros((n_int, spec.n)), 0
    for i in range(n_int):
        t0 = i * ts
        u_rl = np.asarray(spec.u_star(t0), dtype=float)
        am, decision = reanchor(am, spec, x, u_rl, spec.eps_a)
        switch_count += int(decision.switch)
        _, jac = am.parts(x)
        u, sigma_rate, _, _, q = l1_input(u_rl, xtilde, jac * ts, q, cfg)
        sigmas[i] = sigma_rate
        u = np.clip(u, spec.input_low, spec.input_high)

        def joint_field(t, z, anchor=am, u=u, sigma_rate=sigma_rate):
            xt, et = z[: spec.n], z[spec.n :]
            rate_true = spec.drift(xt, u) + spec.disturbance(t, xt, u)
            d = rate_true - anchor.predict(anchor.parts(xt), u)
            return np.concatenate([rate_true, cfg.as_diag * et + sigma_rate - d])

        def record(t, xt, anchor=am, u=u, sigma_rate=sigma_rate):
            d = spec.drift(xt, u) + spec.disturbance(t, xt, u) - anchor.predict(anchor.parts(xt), u)
            times.append(t)
            e_norms.append(float(np.linalg.norm(d - sigma_rate)))

        z = np.concatenate([x, xtilde])
        h = ts / SUBSTEPS
        record(t0, x)
        for k in range(SUBSTEPS):
            z = rk4_step(joint_field, t0 + k * h, z, h)
            if k < SUBSTEPS - 1:
                record(t0 + (k + 1) * h, z[: spec.n])
        x, xtilde = z[: spec.n], z[spec.n :]
    return np.asarray(times), np.asarray(e_norms), sigmas, switch_count


@pytest.mark.parametrize("spec,ts", [(default_synthetic_spec(t_max=2.0), 0.01), (scalar_constant_spec(), 0.1)],
                         ids=["default", "scalar_constant"])
def test_bound_experiment_matches_separate_record_loop(spec, ts):
    trace = run_bound_experiment(spec, cfg_for(spec, ts))
    times, e_norms, sigmas, switch_count = reference_bound_experiment(spec, cfg_for(spec, ts))
    assert np.array_equal(trace.times, times)
    assert np.array_equal(trace.e_norms, e_norms)
    assert np.array_equal(trace.sigma_per_interval, sigmas)
    assert trace.switch_count == switch_count
    if spec.n == 2:
        assert switch_count > 0  # the shared parts evaluation is exercised across re-anchorings


@pytest.mark.parametrize("seed", [0, 3])
def test_assumption_bound_matches_per_sample_draws(seed):
    spec = default_synthetic_spec()
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(3000):
        t = rng.uniform(0.0, spec.t_max)
        x = rng.uniform(spec.state_low, spec.state_high)
        u = rng.uniform(spec.input_low, spec.input_high)
        worst = max(worst, float(np.linalg.norm(spec.residual_error(t, x, u))))
    report = check_assumption_bound(spec, 3000, np.random.default_rng(seed))
    assert report["sup_estimate"] == worst


def test_zero_uncertainty_error_is_machine_scale():
    spec = affine_noiseless_spec()
    trace = run_bound_experiment(spec, cfg_for(spec, 0.02))
    assert trace.e_norms.max() <= 1e-9
    assert trace.switch_count == 0


def test_scalar_constant_first_interval_and_tail():
    # l = d = 0.5; first interval sup is exactly |d|, afterwards (1 - e^-ts) d.
    spec = scalar_constant_spec(d=0.5, eps_a=0.1, t_max=2.0)
    trace = run_bound_experiment(spec, cfg_for(spec, 0.1))
    assert trace.first_interval_max == pytest.approx(0.5, abs=1e-12)
    assert trace.first_interval_max <= spec.eps_l + spec.eps_a
    expected_tail = (1.0 - math.exp(-0.1)) * 0.5
    assert trace.post_sup == pytest.approx(expected_tail, abs=1e-9)


def test_scalar_constant_sigma_matches_interval_decay_form():
    spec = scalar_constant_spec(d=0.5, eps_a=0.1, t_max=3.0)
    trace = run_bound_experiment(spec, cfg_for(spec, 0.1))
    target = math.exp(-0.1) * 0.5
    sig = trace.sigma_per_interval[:, 0]
    assert sig[0] == 0.0
    assert np.abs(sig[1:] - target).max() <= 1e-9


def test_first_interval_bound_default_spec():
    spec = default_synthetic_spec()
    trace = run_bound_experiment(spec, cfg_for(spec, 0.02))
    assert trace.first_interval_max <= spec.eps_l + spec.eps_a + 1e-12


def test_ts_grid_report_passes_default_spec():
    report = run_ts_grid(default_synthetic_spec())
    assert report["first_interval_pass"]
    assert report["monotone_pass"]
    assert report["halving_pass"]
    for ratio in report["halving_ratios"]:
        assert 1.5 <= ratio <= 2.5
    assert report["fit"]["slope"] >= 0.0
    assert report["fit"]["rel_residual"] <= 0.10
    assert report["pass"]


def test_assumption_bound_zero_error():
    spec = affine_noiseless_spec()
    report = check_assumption_bound(spec, 500, np.random.default_rng(0))
    assert report["sup_estimate"] == 0.0
    assert report["passed"]


def test_assumption_bound_sine_error_approaches_eps_l():
    eps_l = 0.4

    def drift(x, u):
        return np.array([u[0], -x[0]])

    spec = SyntheticSpec(
        n=2, m=1, drift=drift, disturbance=lambda t, x, u: np.zeros(2),
        model_error=lambda x, u: np.array([eps_l * math.sin(x[0]), 0.0]),
        jacobian_u=lambda x, u: np.array([[1.0], [0.0]]),
        eps_l=eps_l, eps_a=0.1,
        x0=np.zeros(2), u_star=lambda t: np.zeros(1),
        state_low=np.array([-4.0, -4.0]), state_high=np.array([4.0, 4.0]),
        input_low=np.array([-1.0]), input_high=np.array([1.0]),
        t_max=1.0, ts_grid=(0.05,),
    )
    report = check_assumption_bound(spec, 4000, np.random.default_rng(1))
    assert report["passed"]
    assert report["sup_estimate"] == pytest.approx(eps_l, rel=0.02)


def test_assumption_bound_negative_control():
    spec = scalar_constant_spec(d=0.5)
    bad = SyntheticSpec(
        n=spec.n, m=spec.m, drift=spec.drift, disturbance=spec.disturbance,
        model_error=spec.model_error, jacobian_u=spec.jacobian_u, eps_l=0.4, eps_a=spec.eps_a,
        x0=spec.x0, u_star=spec.u_star,
        state_low=spec.state_low, state_high=spec.state_high,
        input_low=spec.input_low, input_high=spec.input_high,
        t_max=spec.t_max, ts_grid=spec.ts_grid,
    )
    report = check_assumption_bound(bad, 200, np.random.default_rng(0))
    assert not report["passed"]


def test_check_assumption_requires_samples():
    with pytest.raises(ConfigError):
        check_assumption_bound(scalar_constant_spec(), 0, np.random.default_rng(0))


def test_fit_line_recovers_slope():
    ts = np.array([0.02, 0.01, 0.005])
    eps_a = 0.01
    sups = 2 * eps_a + 1.7 * ts
    fit = fit_sup_line(ts, sups, eps_a)
    assert fit["slope"] == pytest.approx(1.7, rel=1e-9)
    assert fit["rel_residual"] <= 1e-12


def test_make_synthetic_spec_presets():
    assert make_synthetic_spec("default").n == 2
    assert make_synthetic_spec("scalar_constant", d=0.7).eps_l == pytest.approx(0.7)
    with pytest.raises(ConfigError):
        make_synthetic_spec("cubic")


@pytest.mark.parametrize("spec", [default_synthetic_spec(), scalar_constant_spec()], ids=["default", "scalar_constant"])
def test_preset_jacobian_matches_central_differences(spec):
    rng = np.random.default_rng(3)
    h = 1e-6
    for _ in range(50):
        x = rng.uniform(spec.state_low, spec.state_high)
        u = rng.uniform(spec.input_low, spec.input_high)
        jac = spec.jacobian_u(x, u)
        assert jac.shape == (spec.n, spec.m)
        for j in range(spec.m):
            e = np.zeros(spec.m)
            e[j] = h
            fd = (spec.predict_mean(x, u + e) - spec.predict_mean(x, u - e)) / (2 * h)
            assert np.allclose(jac[:, j], fd, rtol=0, atol=1e-8)


def test_spec_validation():
    with pytest.raises(ConfigError):
        scalar_constant_spec(d=0.5, eps_a=-1.0)
    spec = scalar_constant_spec()
    with pytest.raises(ConfigError):
        SyntheticSpec(
            n=1, m=1, drift=spec.drift, disturbance=spec.disturbance,
            model_error=spec.model_error, jacobian_u=spec.jacobian_u, eps_l=0.5, eps_a=0.1,
            x0=spec.x0, u_star=spec.u_star,
            state_low=spec.state_low, state_high=spec.state_high,
            input_low=spec.input_low, input_high=spec.input_high,
            t_max=1.0, ts_grid=(),
        )


def test_switch_storm_flagged_for_tiny_eps_a():
    # eps_a far below the Taylor remainder floor forces near-every-step switching.
    spec = default_synthetic_spec(eps_a=1e-9)
    report = run_ts_grid(spec)
    assert any(row["switch_storm"] for row in report["per_ts"])
