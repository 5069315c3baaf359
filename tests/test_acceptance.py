"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
measurements. The cartpole loop experiment is shared between the end-to-end
and switch-rate criteria through a session fixture.
"""

import math
import sys

import numpy as np
import pytest

from l1aug import mbrl
from l1aug.affine import affinize, switching_check
from l1aug.dynmodel import TrainOptions, make_ensemble, train, unnormalize_jacobian
from l1aug.envsim import DisturbanceSpec, make_env
from l1aug.l1core import L1Config, default_l1_config, filter_step
from l1aug.mbrl import LoopConfig, MpcConfig, episode_rng, run_episode, train_loop
from l1aug.verify import default_synthetic_spec, run_bound_experiment, run_ts_grid, scalar_constant_spec

from conftest import collect_random_rows, replay_switch_count


def report(num: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:2d} [{status}] {detail}", file=sys.stderr)


def test_criterion_1_adaptation_law_exactness():
    # Constant matched d = 0.5, exact model, lambda = -1, ts = 0.1: from the
    # second sampling interval the estimate equals exp(-0.1) * 0.5 to 1e-9.
    spec = scalar_constant_spec(d=0.5, eps_a=0.1, t_max=3.0)
    cfg = L1Config(ts=0.1, as_diag=np.array([-1.0]), omega=3.5, eps_a=0.1)
    trace = run_bound_experiment(spec, cfg)
    target = math.exp(-0.1) * 0.5
    worst = float(np.abs(trace.sigma_per_interval[1:, 0] - target).max())
    ok = worst <= 1e-9
    report(1, ok, f"max |sigma - exp(-0.1)*0.5| = {worst:.2e} (tol 1e-9)")
    assert ok


def test_criterion_2_first_interval_bound():
    spec = default_synthetic_spec()
    cfg = L1Config(ts=0.02, as_diag=np.full(spec.n, -1.0), omega=0.35 / 0.02, eps_a=spec.eps_a)
    trace = run_bound_experiment(spec, cfg)
    bound = spec.eps_l + spec.eps_a + 1e-12
    ok = trace.first_interval_max <= bound
    report(2, ok, f"first-interval sup {trace.first_interval_max:.4f} <= eps_l+eps_a = {bound:.4f}")
    assert ok


def test_criterion_3_ts_trend():
    spec = default_synthetic_spec(ts_grid=(0.02, 0.01, 0.005))
    rep = run_ts_grid(spec)
    sups = [row["post_sup"] for row in rep["per_ts"]]
    ok = rep["monotone_pass"] and rep["halving_pass"] and rep["fit"]["slope"] >= 0.0 \
        and rep["fit"]["rel_residual"] <= 0.10
    report(3, ok, f"sups {np.round(sups, 4).tolist()} ratios {np.round(rep['halving_ratios'], 2).tolist()} "
                  f"slope {rep['fit']['slope']:.2f} residual {rep['fit']['rel_residual']:.1%}")
    assert ok


def test_criterion_4_jacobian_gradcheck(linear_ensemble):
    trained, _ = linear_ensemble
    rng = np.random.default_rng(2024)
    sd_u = trained.normalizer.sd_in[trained.n:]
    worst = 0.0
    for _ in range(100):
        x = rng.uniform(-2, 2, trained.n)
        u = rng.uniform(-2, 2, trained.m)
        analytic = trained.jacobian_u(x, u)
        h = 1e-5
        fd = np.zeros_like(analytic)
        for j in range(trained.m):
            e = np.zeros(trained.m)
            e[j] = h * sd_u[j]
            fd[:, j] = (trained.predict_mean(x, u + e) - trained.predict_mean(x, u - e)) / (2 * h * sd_u[j])
        err = np.abs(analytic - fd) / np.maximum(np.abs(fd), 1e-4)
        worst = max(worst, float(err.max()))
    ok = worst <= 1e-4
    report(4, ok, f"max relative error over 100 draws = {worst:.2e} (tol 1e-4)")
    assert ok


def test_criterion_5_unnormalization_rule():
    j = unnormalize_jacobian(np.array([[1.0]]), np.array([2.0]), np.array([4.0]))
    exact_ok = j[0, 0] == 0.5
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(50):
        n, k = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        j_norm = rng.normal(size=(n, k))
        sd_out = rng.uniform(0.1, 5.0, n)
        sd_in = rng.uniform(0.1, 5.0, k)
        expected = np.diag(sd_out) @ j_norm @ np.linalg.inv(np.diag(sd_in))
        worst = max(worst, float(np.abs(unnormalize_jacobian(j_norm, sd_out, sd_in) - expected).max()))
    ok = exact_ok and worst <= 1e-12
    report(5, ok, f"scalar case exact: {exact_ok}; randomized max deviation {worst:.2e} (tol 1e-12)")
    assert ok


def test_criterion_6_affinization_properties(linear_ensemble):
    trained, _ = linear_ensemble
    rng = np.random.default_rng(4)

    worst_anchor = 0.0
    for _ in range(50):
        x, ubar = rng.uniform(-2, 2, 2), rng.uniform(-2, 2, 1)
        am = affinize(trained, ubar)
        worst_anchor = max(worst_anchor, float(np.linalg.norm(
            am.predict(am.parts(x), ubar) - trained.predict_mean(x, ubar))))
    anchor_ok = worst_anchor <= 1e-12

    class LinearModel:
        def __init__(self):
            self.a = rng.normal(size=(2, 2))
            self.b = rng.normal(size=(2, 1))

        def predict_mean(self, x, u):
            return self.a @ x + self.b @ u

        def jacobian_u(self, x, u):
            return self.b

    xs = rng.uniform(-3, 3, size=(10_000, 2))
    us = rng.uniform(-3, 3, size=(10_000, 1))
    closure_ok = replay_switch_count(LinearModel(), xs, us, eps_a=1e-9) == 0

    class Quadratic:
        def predict_mean(self, x, u):
            return np.array([float(u[0]) ** 2])

        def jacobian_u(self, x, u):
            return np.array([[2.0 * float(u[0])]])

    # Switch fires exactly when the quadratic remainder (u - ubar)^2 reaches
    # eps_a: the residual is the remainder to float precision, the threshold
    # is inclusive, and any point clear of the boundary by more than float
    # noise agrees with the analytic rule.
    eps = 0.04
    am = affinize(Quadratic(), np.array([0.3]))
    quad_ok = True
    for du in np.linspace(-0.5, 0.5, 101):
        decision = switching_check(am, np.zeros(1), np.array([0.3 + du]), eps)
        quad_ok = quad_ok and abs(decision.residual - du**2) <= 1e-12
        quad_ok = quad_ok and (decision.switch == (decision.residual >= eps))
        if abs(du**2 - eps) > 1e-9:
            quad_ok = quad_ok and (decision.switch == (du**2 >= eps))
    at_threshold = switching_check(am, np.zeros(1), np.array([0.3 + math.sqrt(eps)]), eps)
    quad_ok = quad_ok and at_threshold.switch and at_threshold.residual >= eps

    ok = anchor_ok and closure_ok and quad_ok
    report(6, ok, f"anchor sup {worst_anchor:.1e}; linear closure switches 0: {closure_ok}; "
                  f"quadratic threshold exact: {quad_ok}")
    assert ok


def test_criterion_7_zero_uncertainty_transparency():
    env = make_env("double_integrator", {"horizon": 200})
    h = env.dt

    class ExactDI:
        def predict_mean(self, x, u):
            x = np.asarray(x, dtype=float)
            u = np.asarray(u, dtype=float)
            out = np.zeros_like(x)
            out[..., 0] = x[..., 1] * h + 0.5 * u[..., 0] * h * h
            out[..., 1] = u[..., 0] * h
            return out

        def jacobian_u(self, x, u):
            return np.array([[0.5 * h * h], [h]])

    mpc = MpcConfig(horizon=5, n_candidates=32)
    l1cfg = default_l1_config(2, h, eps_a=0.3)
    clean = DisturbanceSpec()
    off = run_episode(env, clean, ExactDI(), mpc, l1cfg, False, episode_rng(0, 0, 0, "eval"))
    on = run_episode(env, clean, ExactDI(), mpc, l1cfg, True, episode_rng(0, 0, 0, "eval"))
    max_ua = float(np.max(np.abs(on.rows[:, mbrl.step_columns(env.n, env.m)["u_a"]])))
    max_traj = max(float(np.max(np.abs(a - b))) for a, b in zip(on.x_next, off.x_next))
    ok = max_ua <= 1e-9 and max_traj <= 1e-9 and on.steps == 200
    report(7, ok, f"max |u_a| = {max_ua:.1e}, max trajectory gap = {max_traj:.1e} over 200 steps (tol 1e-9)")
    assert ok


@pytest.fixture(scope="session")
def pendulum_rejection(pendulum_ensemble):
    """Criterion 8 experiment: paired episodes under the disturbed pendulum."""
    env, model = pendulum_ensemble
    mpc = MpcConfig(horizon=15, n_candidates=200)
    l1cfg = default_l1_config(env.n, env.dt, eps_a=0.3)
    dist = DisturbanceSpec(kind="constant_matched", amplitude=0.3, sigma_a=0.1)
    switch_col = mbrl.step_columns(env.n, env.m)["switch"]

    def arm_cost(use_l1, seed):
        costs = []
        switches = 0
        steps = 0
        for ep in range(2):
            res = run_episode(env, dist, model, mpc, l1cfg, use_l1, episode_rng(seed, 0, ep, "eval"))
            costs.append(-res.episode_return)
            switches += int(res.rows[:, switch_col].sum())
            steps += res.steps
        return float(np.mean(costs)), switches, steps

    cost_off, cost_on = [], []
    switch_total, step_total = 0, 0
    for seed in range(10):
        c_off, _, _ = arm_cost(False, seed)
        c_on, sw, st = arm_cost(True, seed)
        cost_off.append(c_off)
        cost_on.append(c_on)
        switch_total += sw
        step_total += st
    return {
        "cost_off": cost_off,
        "cost_on": cost_on,
        "switch_rate": 1000.0 * switch_total / max(step_total, 1),
    }


@pytest.mark.slow
def test_criterion_8_disturbance_rejection(pendulum_rejection):
    cost_off = pendulum_rejection["cost_off"]
    cost_on = pendulum_rejection["cost_on"]
    wins = sum(a < b for a, b in zip(cost_on, cost_off))
    mean_ok = np.mean(cost_on) < np.mean(cost_off)
    ok = mean_ok and wins >= 8
    report(8, ok, f"pendulum const 0.3 + action noise 0.1: mean cost on {np.mean(cost_on):.3f} "
                  f"< off {np.mean(cost_off):.3f}: {mean_ok}; paired wins {wins}/10 (need >= 8)")
    assert ok


@pytest.fixture(scope="session")
def cartpole_loop():
    """Criterion 9 experiment: full loop, augmented vs baseline, 5 seeds."""
    env = make_env("cartpole")
    dist = DisturbanceSpec(kind="action_noise", sigma_a=0.1)
    mpc = MpcConfig(horizon=15, n_candidates=200)
    opts = TrainOptions(max_epochs=60, patience=8)
    l1cfg = L1Config(ts=env.dt, as_diag=np.full(env.n, -1.0), omega=0.05 / env.dt, eps_a=1.0)

    def run(seed, on):
        loop = LoopConfig(iterations=5, episodes_per_iteration=8, eval_episodes=3,
                          l1_train=on, l1_test=on, l1_warmup_iterations=1)
        record, _ = train_loop(env, dist, loop, mpc, l1cfg, train_opts=opts, seed=seed)
        return record

    out = {"on": [], "off": [], "records_on": []}
    for seed in range(5):
        rec_on = run(seed, True)
        rec_off = run(seed, False)
        out["on"].append(float(np.mean(rec_on.eval_returns[5])))
        out["off"].append(float(np.mean(rec_off.eval_returns[5])))
        out["records_on"].append(rec_on)
    return out


@pytest.mark.slow
def test_criterion_9_end_to_end_loop(cartpole_loop):
    mean_on = float(np.mean(cartpole_loop["on"]))
    mean_off = float(np.mean(cartpole_loop["off"]))
    direction_ok = mean_on >= mean_off

    audit_ok = True
    audited_rows = 0
    augmented_rows = 0
    for record in cartpole_loop["records_on"]:
        xs, us, xns = record.dataset.as_arrays()
        collect = np.concatenate([rows for phase, *_, rows in record.trace if phase == "collect"])
        assert len(collect) == len(xs)
        c = mbrl.step_columns(record.n, record.m)
        for row, u_logged in zip(collect, us):
            audited_rows += 1
            if u_logged.tobytes() != row[c["u_rl"]].tobytes():
                audit_ok = False
            if row[c["u"]].tobytes() != row[c["u_rl"]].tobytes():
                augmented_rows += 1
    audit_ok = audit_ok and augmented_rows > 0

    ok = direction_ok and audit_ok
    report(9, ok, f"final return on {mean_on:.1f} >= off {mean_off:.1f}: {direction_ok}; "
                  f"logging audit on {audited_rows} rows (augmented rows {augmented_rows}): {audit_ok}")
    assert ok


@pytest.mark.slow
def test_criterion_10_switch_rate(pendulum_rejection, cartpole_loop, linear_ensemble):
    rates = {"pendulum": pendulum_rejection["switch_rate"]}

    switch_total, step_total = 0, 0
    for record in cartpole_loop["records_on"]:
        for row in record.episodes:
            step_total += int(row[4])
            switch_total += int(row[7])
    rates["cartpole"] = 1000.0 * switch_total / max(step_total, 1)

    env = make_env("double_integrator")
    ds = collect_random_rows(env, DisturbanceSpec(), 600, seed=99)
    ens = make_ensemble(env.n, env.m, hidden=(32, 32), members=2, seed=1)
    trained, _ = train(ens, ds, TrainOptions(max_epochs=30, patience=6, seed=2))
    mpc = MpcConfig(horizon=10, n_candidates=64)
    l1cfg = default_l1_config(env.n, env.dt, eps_a=0.3)
    switch_col = mbrl.step_columns(env.n, env.m)["switch"]
    sw, st = 0, 0
    for seed in range(3):
        res = run_episode(env, DisturbanceSpec(), trained, mpc, l1cfg, True, episode_rng(seed, 0, 0, "eval"))
        sw += int(res.rows[:, switch_col].sum())
        st += res.steps
    rates["double_integrator"] = 1000.0 * sw / max(st, 1)

    in_range = {name: 0.0 <= rate <= 100.0 for name, rate in rates.items()}
    detail = ", ".join(f"{name}: {rate:.1f}/1000" for name, rate in rates.items())
    report(10, all(in_range.values()), detail + " (target [0, 100]; violations warn only)")
    for name, rate in rates.items():
        if not in_range[name]:
            print(f"WARNING: switch rate for {name} is {rate:.1f} per 1000 steps; "
                  f"retune eps_a for this environment", file=sys.stderr)


def test_criterion_11_filter_characterization():
    cfg = L1Config(ts=0.1, as_diag=np.array([-1.0]), omega=3.5, eps_a=0.1)  # omega*ts = 0.35
    q = np.zeros(1)
    dc_ok = True
    for k in range(1, 50):
        q, _ = filter_step(q, np.ones(1), cfg)
        if q[0] != pytest.approx(1.0 - 0.65**k, abs=1e-12):
            dc_ok = False

    ts, omega = 0.01, 5.0
    cfg_fine = L1Config(ts=ts, as_diag=np.array([-1.0]), omega=omega, eps_a=0.1)
    q = np.zeros(1)
    out = []
    for k in range(4000):
        q, _ = filter_step(q, np.array([math.sin(10.0 * omega * k * ts)]), cfg_fine)
        out.append(q[0])
    period = int(round(2 * math.pi / (10 * omega * ts)))
    atten = float(np.abs(np.array(out[-3 * period:])).max())
    atten_ok = atten <= 0.15

    ok = dc_ok and atten_ok
    report(11, ok, f"DC step matches 1-0.65^k exactly: {dc_ok}; 10w attenuation {atten:.3f} (tol 0.15)")
    assert ok
