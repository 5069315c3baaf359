import math
import pickle
from dataclasses import replace

import numpy as np
import pytest

from l1aug import l1core, pool
from l1aug.affine import reanchor
from l1aug.envsim import ConfigError, rk4_step
from l1aug.l1core import L1Config, l1_input
from l1aug.verify import (
    SUBSTEPS,
    SyntheticSpec,
    check_assumption_bound,
    default_synthetic_spec,
    fit_sup_line,
    grid_l1_configs,
    make_synthetic_spec,
    row_norms,
    run_bound_experiment,
    run_ts_grid,
    scalar_constant_spec,
)

from conftest import force_usable_cpus


def cfg_for(spec, ts, lam=-1.0, omega_factor=0.35):
    return L1Config(ts=ts, as_diag=np.full(spec.n, lam), omega=omega_factor / ts, eps_a=spec.eps_a)


def affine_noiseless_spec():
    """No disturbance, no model error, model exactly affine: e stays at zero."""

    def drift(x, u):
        return (0.3 * x[1], -0.5 * x[0] + u[0])

    return SyntheticSpec(
        n=2, m=1, drift=drift, disturbance=lambda t, x, u: (0.0, 0.0), model_error=lambda x, u: (0.0, 0.0),
        input_jacobian=lambda x, u: ((0.0,), (1.0,)),
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
        u, sigma_rate, _, q = l1_input(u_rl, xtilde, jac * ts, q, cfg)
        sigmas[i] = sigma_rate
        u = np.clip(u, spec.input_low, spec.input_high)

        def joint_field(t, z, anchor=am, u=u, sigma_rate=sigma_rate):
            z = np.array(z)
            xt, et = z[: spec.n], z[spec.n :]
            rate_true = np.add(spec.drift(xt, u), spec.disturbance(t, xt, u))
            d = rate_true - anchor.predict(anchor.parts(xt), u)
            return np.concatenate([rate_true, cfg.as_diag * et + sigma_rate - d]).tolist()

        def record(t, xt, anchor=am, u=u, sigma_rate=sigma_rate):
            d = np.add(spec.drift(xt, u), spec.disturbance(t, xt, u)) - anchor.predict(anchor.parts(xt), u)
            times.append(t)
            e_norms.append(float(np.linalg.norm(d - sigma_rate)))

        z = np.concatenate([x, xtilde]).tolist()
        h = ts / SUBSTEPS
        record(t0, x)
        for k in range(SUBSTEPS):
            z = rk4_step(joint_field, t0 + k * h, z, h)
            if k < SUBSTEPS - 1:
                record(t0 + (k + 1) * h, np.array(z[: spec.n]))
        x, xtilde = np.array(z[: spec.n]), np.array(z[spec.n :])
    return np.asarray(times), np.asarray(e_norms), sigmas, switch_count


# --- Array reference: the presets and the bound loop written over float64 arrays ---------


class ArraySpec:
    """A preset's fields over float64 arrays; box, x0, input and tolerances come from the float spec."""

    def __init__(self, spec, drift, disturbance, model_error, jacobian_u):
        self.spec, self.drift, self.disturbance, self.model_error, self.jacobian_u = (
            spec, drift, disturbance, model_error, jacobian_u)

    def __getattr__(self, name):
        return getattr(self.spec, name)

    def predict_mean(self, x, u):
        return self.drift(x, u) + self.model_error(x, u)

    def residual_error(self, t, x, u):
        return self.disturbance(t, x, u) - self.model_error(x, u)


def array_default(spec):
    w_const, w_amp, w_freq, d1, d2, du = 0.25, 0.45, 1.7, 0.12, 0.08, 0.05
    return ArraySpec(
        spec,
        lambda x, u: np.array([x[1], -1.2 * x[0] - 0.6 * x[1] + 0.4 * math.sin(x[0]) + u[0]]),
        lambda t, x, u: np.array([0.0, w_const + w_amp * math.sin(w_freq * t)]),
        lambda x, u: np.array([d1 * math.sin(x[0]), d2 * math.tanh(x[1]) + du * math.sin(1.3 * u[0])]),
        lambda x, u: np.array([[0.0], [1.0 + du * 1.3 * math.cos(1.3 * u[0])]]),
    )


def array_scalar_constant(spec, d=0.5):
    return ArraySpec(spec, lambda x, u: np.array([u[0]]), lambda t, x, u: np.array([d]),
                     lambda x, u: np.zeros(1), lambda x, u: np.array([[1.0]]))


def array_bound_experiment(spec, cfg):
    """The bound loop with its joint field over arrays: f + J (u - ubar) by matmul, one ``parts`` per stage."""
    ts = cfg.ts
    n_int = int(round(spec.t_max / ts))
    h = ts / SUBSTEPS
    x, xtilde, q, am = spec.x0.astype(float).copy(), np.zeros(spec.n), np.zeros(spec.m), None
    times, e_norms, sigmas, switch_count = [], [], np.zeros((n_int, spec.n)), 0
    for i in range(n_int):
        t0 = i * ts
        u_rl = np.asarray(spec.u_star(t0), dtype=float)
        am, decision = reanchor(am, spec, x, u_rl, spec.eps_a)
        switch_count += int(decision.switch)
        parts = decision.parts
        u, sigma_rate, _, q = l1_input(u_rl, xtilde, parts[1] * ts, q, cfg)
        sigmas[i] = sigma_rate
        u = np.clip(u, spec.input_low, spec.input_high)
        stage = 0

        def joint_field(t, z, anchor=am, parts=parts, u=u, sigma_rate=sigma_rate):
            nonlocal stage
            z = np.array(z)
            xt, et = z[: spec.n], z[spec.n :]
            rate_true = spec.drift(xt, u) + spec.disturbance(t, xt, u)
            d = rate_true - anchor.predict(parts if stage == 0 else anchor.parts(xt), u)
            if stage % 4 == 0:
                times.append(t)
                e_norms.append(float(np.linalg.norm(d - sigma_rate)))
            stage += 1
            return np.concatenate([rate_true, cfg.as_diag * et + sigma_rate - d]).tolist()

        z = np.concatenate([x, xtilde]).tolist()
        for k in range(SUBSTEPS):
            z = rk4_step(joint_field, t0 + k * h, z, h)
        x, xtilde = np.array(z[: spec.n]), np.array(z[spec.n :])
    return np.asarray(times), np.asarray(e_norms), sigmas, switch_count


def array_assumption_sup(spec, samples, rng):
    low = np.concatenate([[0.0], spec.state_low, spec.input_low])
    high = np.concatenate([[spec.t_max], spec.state_high, spec.input_high])
    draws = rng.uniform(low, high, size=(samples, 1 + spec.n + spec.m))
    worst = 0.0
    for t, x, u in zip(draws[:, 0].tolist(), draws[:, 1 : 1 + spec.n], draws[:, 1 + spec.n :]):
        worst = max(worst, float(np.linalg.norm(spec.residual_error(t, x, u))))
    return worst


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
        worst = max(worst, float(np.linalg.norm(np.subtract(spec.disturbance(t, x, u), spec.model_error(x, u)))))
    report = check_assumption_bound(spec, 3000, np.random.default_rng(seed))
    assert report["sup_estimate"] == worst
    assert report["sup_estimate"] == array_assumption_sup(array_default(spec), 3000, np.random.default_rng(seed))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_row_norms_match_numpy_norm_row_by_row(n):
    # The report's bits rest on each stacked row being the same ddot as np.linalg.norm's.
    rng = np.random.default_rng(n)
    rows = np.concatenate([rng.normal(size=(4000, n)), np.zeros((50, n)),
                           1e-160 * rng.normal(size=(2000, n)), 1e150 * rng.normal(size=(2000, n))])
    assert same_bits(row_norms(rows.tolist()), [np.linalg.norm(row) for row in rows])


def test_bound_experiment_reaches_no_qr_and_one_norm_per_interval_at_most(monkeypatch):
    def refuse(h):
        raise AssertionError("the bound harness computes no unmatched split")

    monkeypatch.setattr(l1core, "orthonormal_complement", refuse)
    real_norm, calls = np.linalg.norm, []
    monkeypatch.setattr(np.linalg, "norm", lambda *a, **k: calls.append(1) or real_norm(*a, **k))
    spec = default_synthetic_spec(t_max=1.0)
    trace = run_bound_experiment(spec, cfg_for(spec, 0.01))
    assert 0 < len(calls) <= trace.n_intervals  # the switching check's, once per sample
    calls.clear()
    check_assumption_bound(spec, 500, np.random.default_rng(0))
    assert not calls


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


@pytest.mark.parametrize("cpus", [1, 2])
def test_ts_grid_maps_longest_first_and_reports_in_grid_order(monkeypatch, cpus):
    force_usable_cpus(monkeypatch, cpus)
    real_map_jobs, submitted = pool.map_jobs, []

    def map_jobs(fn, calls, jobs):
        submitted.extend(call[2].ts if call[0] is run_bound_experiment else call[0].__name__ for call in calls)
        return real_map_jobs(fn, calls, jobs)

    monkeypatch.setattr(pool, "map_jobs", map_jobs)
    spec = default_synthetic_spec(t_max=1.0, ts_grid=(0.01, 0.02, 0.005))
    report = run_ts_grid(spec, assumption_samples=300, assumption_seed=4)
    assert submitted == [0.005, 0.01, 0.02, "check_assumption_bound"]
    want = [run_bound_experiment(spec, cfg) for cfg in grid_l1_configs(spec)]
    assert [(row["ts"], row["first_interval_max"], row["post_sup"], row["switch_count"]) for row in report["per_ts"]] \
        == [(tr.ts, tr.first_interval_max, tr.post_sup, tr.switch_count) for tr in want]
    assert report["assumption"] == check_assumption_bound(spec, 300, np.random.default_rng(4))


def test_assumption_bound_zero_error():
    spec = affine_noiseless_spec()
    report = check_assumption_bound(spec, 500, np.random.default_rng(0))
    assert report["sup_estimate"] == 0.0
    assert report["passed"]


def test_assumption_bound_sine_error_approaches_eps_l():
    eps_l = 0.4

    def drift(x, u):
        return (u[0], -x[0])

    spec = SyntheticSpec(
        n=2, m=1, drift=drift, disturbance=lambda t, x, u: (0.0, 0.0),
        model_error=lambda x, u: (eps_l * math.sin(x[0]), 0.0),
        input_jacobian=lambda x, u: ((1.0,), (0.0,)),
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
        model_error=spec.model_error, input_jacobian=spec.input_jacobian, eps_l=0.4, eps_a=spec.eps_a,
        x0=spec.x0, u_star=spec.u_star,
        state_low=spec.state_low, state_high=spec.state_high,
        input_low=spec.input_low, input_high=spec.input_high,
        t_max=spec.t_max, ts_grid=spec.ts_grid,
    )
    report = check_assumption_bound(bad, 200, np.random.default_rng(0))
    assert not report["passed"]


def test_assumption_bound_fails_on_non_finite_residual(capsys):
    # NaN only at x[0] > 1, so construction, which evaluates the fields at x0 = 0, accepts the spec.
    spec = replace(affine_noiseless_spec(), eps_l=1.0,
                   model_error=lambda x, u: (0.0, math.nan if x[0] > 1.0 else 0.5))
    report = check_assumption_bound(spec, 400, np.random.default_rng(2))
    draws = np.random.default_rng(2).uniform([0.0, -3.0, -3.0, -2.0], [2.0, 3.0, 3.0, 2.0], size=(400, 4))
    assert report == {"sup_estimate": 0.5, "eps_l": 1.0, "passed": False, "samples": 400}
    bad = int((draws[:, 1] > 1.0).sum())
    assert 0 < bad < 400
    assert capsys.readouterr().err == f"check_assumption_bound: {bad} of 400 residual norms are not finite\n"


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
            model_error=spec.model_error, input_jacobian=spec.input_jacobian, eps_l=0.5, eps_a=0.1,
            x0=spec.x0, u_star=spec.u_star,
            state_low=spec.state_low, state_high=spec.state_high,
            input_low=spec.input_low, input_high=spec.input_high,
            t_max=1.0, ts_grid=(),
        )


@pytest.mark.parametrize("spec,ts", [
    (default_synthetic_spec(t_max=1.0), 0.01),
    (default_synthetic_spec(eps_a=1e-9, t_max=1.0), 0.01),
    (scalar_constant_spec(d=-0.3, t_max=1.0), 0.1),
], ids=["default", "default-eps_a-1e-9", "scalar_constant-d"])
def test_preset_specs_pickle_and_run_the_same(spec, ts):
    # run_ts_grid hands its spec to pool workers, which get it by pickle.
    copy = pickle.loads(pickle.dumps(spec))
    want, got = run_bound_experiment(spec, cfg_for(spec, ts)), run_bound_experiment(copy, cfg_for(spec, ts))
    assert np.array_equal(got.times, want.times)
    assert np.array_equal(got.e_norms, want.e_norms)
    assert np.array_equal(got.sigma_per_interval, want.sigma_per_interval)
    assert got.switch_count == want.switch_count


def test_switch_storm_flagged_for_tiny_eps_a():
    # eps_a far below the Taylor remainder floor forces near-every-step switching.
    spec = default_synthetic_spec(eps_a=1e-9)
    report = run_ts_grid(spec)
    assert any(row["switch_storm"] for row in report["per_ts"])


BIT_CASES = [
    (default_synthetic_spec(t_max=2.0), array_default, 0.02),
    (default_synthetic_spec(t_max=2.0), array_default, 0.01),
    (default_synthetic_spec(t_max=2.0), array_default, 0.005),
    (scalar_constant_spec(), array_scalar_constant, 0.1),
    (default_synthetic_spec(eps_a=1e-9, t_max=2.0), array_default, 0.01),
]


@pytest.mark.parametrize("spec,to_array,ts", BIT_CASES,
                         ids=["default-0.02", "default-0.01", "default-0.005", "scalar_constant", "switch_storm"])
def test_float_harness_matches_array_harness_bit_for_bit(spec, to_array, ts):
    trace = run_bound_experiment(spec, cfg_for(spec, ts))
    times, e_norms, sigmas, switch_count = array_bound_experiment(to_array(spec), cfg_for(spec, ts))
    assert np.array_equal(trace.times, times)
    assert np.array_equal(trace.e_norms, e_norms)
    assert np.array_equal(trace.sigma_per_interval, sigmas)
    assert trace.switch_count == switch_count
    if spec.eps_a < 1e-6:
        assert switch_count > 0.5 * trace.n_intervals


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("spec,to_array", [(default_synthetic_spec(), array_default),
                                           (scalar_constant_spec(), array_scalar_constant)],
                         ids=["default", "scalar_constant"])
def test_float_fields_match_array_fields_bit_for_bit(spec, to_array):
    ref = to_array(spec)
    rng = np.random.default_rng(11)
    ts = rng.uniform(0.0, spec.t_max, 40_000)
    xs = rng.uniform(spec.state_low, spec.state_high, (40_000, spec.n))
    us = rng.uniform(spec.input_low, spec.input_high, (40_000, spec.m))
    got, want = [], []
    for t, x, u in zip(ts.tolist(), xs, us):
        xf, uf = x.tolist(), u.tolist()
        got.append([spec.drift(xf, uf), spec.disturbance(t, xf, uf), spec.model_error(xf, uf),
                    spec.predict_mean(x, u), np.subtract(spec.disturbance(t, xf, uf), spec.model_error(xf, uf))])
        want.append([ref.drift(x, u), ref.disturbance(t, x, u), ref.model_error(x, u),
                     ref.predict_mean(x, u), ref.residual_error(t, x, u)])
        got.append([spec.input_jacobian(xf, uf), spec.jacobian_u(x, u)])
        want.append([ref.jacobian_u(x, u)] * 2)
    assert all(same_bits(g, w) for g, w in zip(got, want))


@pytest.mark.parametrize("change", [
    {"drift": lambda x, u: (x[1],)},
    {"disturbance": lambda t, x, u: (0.0, 0.0, 0.0)},
    {"model_error": lambda x, u: (0.0,)},
    {"input_jacobian": lambda x, u: ((0.0,),)},
    {"input_jacobian": lambda x, u: ((0.0,), (1.0, 0.0))},
    {"input_jacobian": lambda x, u: (0.0, 1.0)},
    {"x0": np.zeros(3)},
    {"state_low": np.array([-4.0])},
    {"input_high": np.array([2.0, 2.0])},
    {"u_star": lambda t: np.zeros(2)},
], ids=["drift", "disturbance", "model_error", "jacobian_rows", "jacobian_row", "jacobian_flat", "x0", "state_low",
        "input_high", "u_star"])
def test_spec_rejects_wrong_lengths(change):
    with pytest.raises(ConfigError):
        replace(default_synthetic_spec(), **change)
