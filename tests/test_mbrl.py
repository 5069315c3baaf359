import concurrent.futures
import csv
import logging
import multiprocessing
from dataclasses import replace

import numpy as np
import pytest

from l1aug import envsim, mbrl
from l1aug.affine import reanchor
from l1aug.dynmodel import Normalizer, TrainingDivergenceError, TrainOptions, make_ensemble
from l1aug.envsim import DisturbanceSpec, make_env
from l1aug.l1core import default_l1_config, l1_input
from l1aug.mbrl import (
    EPISODE_COLUMNS,
    LoopConfig,
    MpcConfig,
    RunRecord,
    episode_rng,
    mpc_action,
    run_episode,
    step_columns,
    trace_columns,
    train_loop,
)

from conftest import force_usable_cpus, point_mass, point_mass_drift, replay_switch_count


class UnitIncrementModel:
    """dx = u per step, scalar; handy for brute-force MPC oracles."""

    def predict_mean(self, x, u):
        return np.asarray(u, dtype=float).copy()

    def jacobian_u(self, x, u):
        return np.array([[1.0]])


def make_scalar_env(reward, horizon=10, box=(-2.0, 2.0)):
    return envsim.EnvSpec(
        name="scalar", n=1, m=1, dt=1.0, horizon=horizon,
        drift=lambda x, u: (u[0],),
        x0_sampler=lambda rng: np.array([1.0]),
        state_low=np.array([-100.0]), state_high=np.array([100.0]),
        input_low=np.array([box[0]]), input_high=np.array([box[1]]),
        reward=reward,
    )


class FixedCandidateRng:
    """Stands in for a Generator: hands out preset candidate sequences.

    mpc_action scales ``random`` draws onto the input box, so the presets come
    back unchanged only on the unit box.
    """

    def __init__(self, cands):
        self.cands = np.asarray(cands, dtype=float)

    def random(self, size):
        assert size == self.cands.shape
        return self.cands


def test_mpc_brute_force_three_candidates():
    # dx = u, reward -(x_next^2), x = 1, horizon 1: u = -1.0 is the argmax.
    env = make_scalar_env(lambda x, u: -(x[..., 0] ** 2), box=(0.0, 1.0))
    mpc = MpcConfig(horizon=1, n_candidates=3)
    rng = FixedCandidateRng(np.array([-1.2, -1.0, 0.0]).reshape(3, 1, 1))
    u = mpc_action(UnitIncrementModel(), env, np.array([1.0]), mpc, rng)
    assert u[0] == pytest.approx(-1.0)


def test_mpc_single_candidate_returned():
    env = make_scalar_env(lambda x, u: -(x[..., 0] ** 2), box=(0.0, 1.0))
    mpc = MpcConfig(horizon=3, n_candidates=1)
    seq = np.array([0.7, -0.3, 0.1]).reshape(1, 3, 1)
    u = mpc_action(UnitIncrementModel(), env, np.array([1.0]), mpc, FixedCandidateRng(seq))
    assert u[0] == pytest.approx(0.7)


def test_mpc_zero_reward_tie_breaks_to_first():
    env = make_scalar_env(lambda x, u: np.zeros(np.shape(x[..., 0])), box=(0.0, 1.0))
    mpc = MpcConfig(horizon=2, n_candidates=4)
    seq = np.arange(8, dtype=float).reshape(4, 2, 1)
    u = mpc_action(UnitIncrementModel(), env, np.array([0.0]), mpc, FixedCandidateRng(seq))
    assert u[0] == pytest.approx(0.0)  # candidate index 0, first action


def test_mpc_deterministic_given_seed():
    env = make_env("double_integrator")
    model = UnitIncrementModel2D()
    mpc = MpcConfig(horizon=5, n_candidates=32)
    a = mpc_action(model, env, np.array([1.0, 0.0]), mpc, np.random.default_rng(77))
    b = mpc_action(model, env, np.array([1.0, 0.0]), mpc, np.random.default_rng(77))
    assert np.array_equal(a, b)


class ZeroIncrementModel:
    def predict_mean(self, x, u):
        return np.zeros(np.shape(x))


@pytest.mark.parametrize("name, box", [
    ("pendulum", None), ("cartpole", None), ("double_integrator", None),
    ("pendulum", ([-1.5, 0.25], [0.5, 3.0])),
], ids=["pendulum", "cartpole", "double-integrator", "two-inputs"])
def test_mpc_candidates_are_the_generators_uniform_draws(name, box):
    # The candidates scale the generator's random() onto the input box: the
    # same bits as Generator.uniform over the box, with the generator left in
    # the same state. The reward records the (horizon, N, m) block it scores.
    env = make_env(name)
    if box is not None:
        env = replace(env, m=2, input_low=np.array(box[0]), input_high=np.array(box[1]))
    scored = []
    env = replace(env, reward=lambda x, u: scored.append(u.copy()) or np.zeros(x.shape[:-1]))
    mpc = MpcConfig(horizon=7, n_candidates=50)
    for seed in range(20):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        mpc_action(ZeroIncrementModel(), env, np.zeros(env.n), mpc, rng)
        draws = ref.uniform(env.input_low, env.input_high, size=(50, 7, env.m))
        assert scored.pop().swapaxes(0, 1).tobytes() == draws.tobytes()
        assert rng.bit_generator.state == ref.bit_generator.state


class MeanOnly:
    """Hides an Ensemble's planning map, so mpc_action falls back to predict_mean."""

    def __init__(self, ensemble):
        self.predict_mean = ensemble.predict_mean


def test_mpc_float32_planning_picks_the_float64_actions(pendulum_ensemble):
    env, model = pendulum_ensemble
    mpc = MpcConfig(horizon=15, n_candidates=200)
    states = np.random.default_rng(21).uniform([-1.5, -3.0], [1.5, 3.0], size=(20, 2))
    for i, x in enumerate(states):
        fast = mpc_action(model, env, x, mpc, np.random.default_rng(i))
        exact = mpc_action(MeanOnly(model), env, x, mpc, np.random.default_rng(i))
        assert np.array_equal(fast, exact)


def reference_mpc_action(model, env, x, mpc, rng):
    """The planner as one map call, one bounds test and one reward per horizon step.

    Returns the action and the (horizon, N) survival mask. An Ensemble's
    planning map runs with its (members, 1, width) biases broadcast.
    """
    cands = rng.uniform(env.input_low, env.input_high, size=(mpc.n_candidates, mpc.horizon, env.m))
    if hasattr(model, "planning_map"):
        pm = model.planning_map

        def plan(xu):
            a = xu
            for w, b in zip(pm.weights[:-1], pm.biases[:-1]):
                a = a @ w
                a += b
                np.tanh(a, out=a)
            return (a @ pm.weights[-1]).sum(axis=0) + pm.biases[-1]

        dtype = np.float32
    else:
        plan, dtype = (lambda xu: model.predict_mean(xu[:, :env.n], xu[:, env.n:])), float
    xu = np.empty((mpc.n_candidates, env.n + env.m), dtype=dtype)
    states = np.broadcast_to(x, (mpc.n_candidates, env.n)).copy()
    total = np.zeros(mpc.n_candidates)
    alive = np.ones(mpc.n_candidates, dtype=bool)
    survival = []
    for k in range(mpc.horizon):
        u = cands[:, k, :]
        xu[:, :env.n] = states
        xu[:, env.n:] = u
        states = states + plan(xu)
        in_bounds = ((states >= env.state_low) & (states <= env.state_high)).all(axis=1)
        alive &= in_bounds
        survival.append(alive.copy())
        total += np.where(alive, env.reward(states, u), 0.0)
    return cands[int(np.argmax(total)), 0, :], np.array(survival)


def assert_block_matches_reference(model, env, states, mpc, seed0=0):
    """Equal actions for every start state; returns the reference survival masks."""
    masks = []
    for i, x in enumerate(states):
        got = mpc_action(model, env, x, mpc, np.random.default_rng(seed0 + i))
        want, alive = reference_mpc_action(model, env, x, mpc, np.random.default_rng(seed0 + i))
        assert np.array_equal(got, want), (i, got, want)
        masks.append(alive)
    return np.array(masks)


def left_mid_horizon(masks):
    """How many rollouts were alive after the first step and dead by the last."""
    return int((masks[:, 0] & ~masks[:, -1]).sum())


def test_block_rollout_matches_per_step_reference(pendulum_ensemble):
    # Start states near the angle bound, so many rollouts leave the box mid-horizon.
    env, model = pendulum_ensemble
    states = np.random.default_rng(5).uniform([2.4, -6.0], [3.1, 6.0], size=(40, 2))
    states[::2] *= -1
    for mpc in (MpcConfig(horizon=15, n_candidates=200), MpcConfig(horizon=1, n_candidates=200),
                MpcConfig(horizon=6, n_candidates=2)):
        for m in (model, MeanOnly(model)):
            masks = assert_block_matches_reference(m, env, states, mpc, seed0=100)
            if mpc.horizon > 1:
                assert left_mid_horizon(masks) > 0


def test_block_rollout_matches_reference_on_an_untrained_four_state_net():
    # A cartpole-shaped net with a non-trivial normalizer, and start states on
    # and near the box, exactly on a bound included.
    env = make_env("cartpole")
    rng = np.random.default_rng(9)
    norm = Normalizer(mu_in=rng.normal(size=5), sd_in=rng.uniform(0.5, 2.0, 5),
                      mu_out=np.zeros(4), sd_out=np.full(4, 0.05))
    model = replace(make_ensemble(4, 1, hidden=(16, 8), members=3, seed=2), normalizer=norm)
    states = rng.uniform(0.8 * env.state_low, 0.8 * env.state_high, size=(30, 4))
    states[:10, 2] = env.state_high[2]
    for m in (model, MeanOnly(model)):
        masks = assert_block_matches_reference(m, env, states, MpcConfig(horizon=8, n_candidates=64))
        assert left_mid_horizon(masks) > 0


def test_block_rollout_breaks_exact_ties_like_the_reference():
    # Rewards rounded to whole numbers tie across many candidates; the lowest
    # index wins in both.
    env = make_scalar_env(lambda x, u: -np.round(np.abs(x[..., 0])))
    unit_box = make_scalar_env(env.reward, box=(0.0, 1.0))
    for horizon in (1, 4):
        mpc = MpcConfig(horizon=horizon, n_candidates=50)
        states = np.linspace(-3.0, 3.0, 25)[:, None]
        assert_block_matches_reference(UnitIncrementModel(), env, states, mpc)
        # Each candidate alternates c, -c, so every visited state rounds to 0.
        first = np.array([0.3, 0.1, 0.2, -0.1])
        seq = first[:, None, None] * (-1.0) ** np.arange(horizon)[None, :, None]
        u = mpc_action(UnitIncrementModel(), unit_box, np.array([0.0]), MpcConfig(horizon=horizon, n_candidates=4),
                       FixedCandidateRng(seq))
        assert u[0] == 0.3


def test_mpc_validates_the_start_state_at_entry():
    env = make_env("pendulum")
    model = make_ensemble(env.n, env.m, hidden=(8,), members=2, seed=0)
    mpc = MpcConfig(horizon=3, n_candidates=8)
    for x in (np.array([np.nan, 0.0]), np.array([0.0, np.inf])):
        with pytest.raises(ValueError, match="non-finite model input"):
            mpc_action(model, env, x, mpc, np.random.default_rng(0))
    with pytest.raises(ValueError, match="state shape"):
        mpc_action(model, env, np.zeros(3), mpc, np.random.default_rng(0))


class UnitIncrementModel2D:
    def predict_mean(self, x, u):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        out[..., 0] = x[..., 1] * 0.1
        out[..., 1] = np.asarray(u, dtype=float)[..., 0] * 0.1
        return out

    def jacobian_u(self, x, u):
        return np.array([[0.0], [0.1]])


@pytest.fixture
def di_setup():
    env = make_env("double_integrator", {"horizon": 30})
    model = UnitIncrementModel2D()  # exact discrete map minus the u h^2/2 term
    mpc = MpcConfig(horizon=5, n_candidates=32)
    l1cfg = default_l1_config(env.n, env.dt, eps_a=0.3)
    return env, model, mpc, l1cfg


def test_run_episode_logs_baseline_input(di_setup):
    env, model, mpc, l1cfg = di_setup
    result = run_episode(env, DisturbanceSpec(), model, mpc, l1cfg, use_l1=True,
                         rng=episode_rng(0, 0, 0, "collect"))
    assert result.steps > 0
    c = step_columns(env.n, env.m)
    for row in result.rows:
        expected_applied = env.clamp_input(row[c["u_rl"]] + row[c["u_a"]])
        assert np.allclose(row[c["u"]], expected_applied, atol=1e-12)


def test_run_episode_without_l1_applies_baseline(di_setup):
    env, model, mpc, l1cfg = di_setup
    result = run_episode(env, DisturbanceSpec(), model, mpc, l1cfg, use_l1=False,
                         rng=episode_rng(0, 0, 0, "collect"))
    c = step_columns(env.n, env.m)
    for row in result.rows:
        assert np.array_equal(row[c["u"]], env.clamp_input(row[c["u_rl"]]))


def test_run_episode_return_is_sum_of_rewards(di_setup):
    env, model, mpc, l1cfg = di_setup
    result = run_episode(env, DisturbanceSpec(), model, mpc, l1cfg, use_l1=False,
                         rng=episode_rng(1, 0, 0, "collect"))
    assert result.episode_return == pytest.approx(sum(result.rows[:, step_columns(env.n, env.m)["reward"]]))


def test_run_episode_terminates_on_leaving_state_box():
    env = make_env("double_integrator", {"horizon": 50})
    env = envsim.EnvSpec(
        name=env.name, n=env.n, m=env.m, dt=env.dt, horizon=50,
        drift=env.drift,
        x0_sampler=lambda rng: np.array([4.9, 2.0]),  # exits x1 < 5 quickly
        state_low=env.state_low, state_high=env.state_high,
        input_low=env.input_low, input_high=env.input_high, reward=env.reward,
    )
    model = UnitIncrementModel2D()
    mpc = MpcConfig(horizon=3, n_candidates=8)
    result = run_episode(env, DisturbanceSpec(), model, mpc,
                         default_l1_config(2, env.dt, 0.3), use_l1=False,
                         rng=episode_rng(0, 0, 0, "collect"))
    assert result.terminated_early
    assert result.steps < 50
    assert result.episode_return == pytest.approx(sum(result.rows[:, step_columns(env.n, env.m)["reward"]]))
    assert not env.in_state_bounds(result.x_final)


class SquareModel:
    """Prediction u^2: the expansion misses (u - ubar)^2, so any new input re-anchors."""

    def predict_mean(self, x, u):
        return np.asarray(u, dtype=float) ** 2

    def jacobian_u(self, x, u):
        return np.array([[2.0 * u[0]]])


def test_divergence_keeps_partial_rows_and_counts_only_their_switches(tmp_path):
    # x rises at unit rate and the drift turns NaN past 0.33: step t = 3
    # (x = 0.3 -> 0.4) diverges after its switch, and its row is dropped;
    # x = 0.3 is the last observation.
    env = envsim.EnvSpec(
        name="diverging", n=1, m=1, dt=0.1, horizon=10,
        drift=lambda x, u: np.ones(1) if x[0] < 0.33 else np.full(1, np.nan),
        x0_sampler=lambda rng: np.zeros(1),
        state_low=np.array([-10.0]), state_high=np.array([10.0]),
        input_low=np.array([-1.0]), input_high=np.array([1.0]),
        reward=lambda x, u: -(x**2).sum(axis=-1),
    )
    l1cfg = default_l1_config(1, env.dt, eps_a=1e-9)
    result = run_episode(env, DisturbanceSpec(), SquareModel(), MpcConfig(horizon=2, n_candidates=4), l1cfg,
                         True, episode_rng(0, 0, 0, "eval"))
    assert result.terminated_early
    assert result.steps == 3
    assert result.x_final == pytest.approx([0.3])
    record = RunRecord(n=env.n, m=env.m)
    record.add_episode("eval", 0, 0, 0, result)
    record.write_trace_csv(tmp_path / "trace.csv")
    record.write_episodes_csv(tmp_path / "episodes.csv")
    with open(tmp_path / "trace.csv", newline="") as fh:
        trace = list(csv.DictReader(fh))
    with open(tmp_path / "episodes.csv", newline="") as fh:
        (episode,) = list(csv.DictReader(fh))
    assert [row["switch"] for row in trace] == ["0", "1", "1"]
    assert int(episode["n_switches"]) == 2


def test_transparency_pairing_exact_model():
    # Exact discrete model of the double integrator: the augmented run matches
    # the baseline run to tight tolerance everywhere.
    env = make_env("double_integrator", {"horizon": 40})
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
    off = run_episode(env, DisturbanceSpec(), ExactDI(), mpc, l1cfg, False, episode_rng(3, 0, 0, "eval"))
    on = run_episode(env, DisturbanceSpec(), ExactDI(), mpc, l1cfg, True, episode_rng(3, 0, 0, "eval"))
    assert on.steps == off.steps
    c = step_columns(env.n, env.m)
    for a, b in zip(on.rows, off.rows):
        assert np.allclose(a[c["u"]], b[c["u"]], atol=1e-9)
    on_traj, off_traj = (np.vstack((r.rows[:, c["x"]], r.x_final)) for r in (on, off))
    assert np.allclose(on_traj, off_traj, atol=1e-9)
    max_ua = max(abs(float(r[c["u_a"]][0])) for r in on.rows)
    assert max_ua <= 1e-9


def test_anchor_validity_invariant(pendulum_ensemble):
    # Between switches the checked residual stays below eps_a; the step that
    # reaches it re-anchors before control.
    env, model = pendulum_ensemble
    mpc = MpcConfig(horizon=10, n_candidates=64)
    l1cfg = default_l1_config(env.n, env.dt, eps_a=2e-4)
    result = run_episode(env, DisturbanceSpec(kind="constant_matched", amplitude=0.3),
                         model, mpc, l1cfg, True, episode_rng(0, 0, 0, "eval"))
    c = step_columns(env.n, env.m)
    assert result.rows[:, c["switch"]].any()
    for row in result.rows:
        if row[c["switch"]]:
            assert row[c["switch_residual"]] >= l1cfg.eps_a
        elif not np.isnan(row[c["switch_residual"]]) and row[c["t"]] > 0:
            assert row[c["switch_residual"]] < l1cfg.eps_a


def test_replay_counts_the_switches_of_run_episode(pendulum_ensemble):
    # eps_a small enough that the episode re-anchors a few dozen times.
    env, model = pendulum_ensemble
    mpc = MpcConfig(horizon=10, n_candidates=64)
    l1cfg = default_l1_config(env.n, env.dt, eps_a=2e-4)
    result = run_episode(env, DisturbanceSpec(kind="constant_matched", amplitude=0.3),
                         model, mpc, l1cfg, True, episode_rng(0, 0, 0, "eval"))
    c = step_columns(env.n, env.m)
    n_switches = int(result.rows[:, c["switch"]].sum())
    assert n_switches >= 10
    xs, us = result.rows[:, c["x"]], result.rows[:, c["u_rl"]]
    assert replay_switch_count(model, xs, us, l1cfg.eps_a) == n_switches


def assert_controller_columns_replay(env, model, l1cfg, result):
    """From row 0's state and a zero filter, the switching law, the adaptive law
    and the Euler predictor reproduce every logged estimate bit for bit."""
    c = step_columns(env.n, env.m)
    assert result.rows[1:, c["switch"]].any()
    am, xhat, q = None, result.rows[0, c["x"]], np.zeros(env.m)
    for t, row in enumerate(result.rows):
        x, u_rl = row[c["x"]], row[c["u_rl"]]
        am, decision = reanchor(am, model, x, u_rl, l1cfg.eps_a)
        xtilde = xhat - x
        u, sigma, sigma_m, sigma_um, q = l1_input(u_rl, xtilde, decision.parts[1], q, l1cfg)
        u_a = env.clamp_input(u) - env.clamp_input(u_rl)
        for name, value in (("xhat", xhat), ("xtilde", xtilde), ("sigma", sigma), ("sigma_m", sigma_m),
                            ("sigma_um", sigma_um), ("u_a", u_a)):
            assert np.array_equal(row[c[name]], value), (t, name)
        xhat = xhat + am.predict(decision.parts, u) + (sigma + l1cfg.as_diag * xtilde) * l1cfg.ts


def test_logged_controller_columns_replay_the_adaptive_law(pendulum_ensemble):
    env, model = pendulum_ensemble
    l1cfg = default_l1_config(env.n, env.dt, eps_a=5e-4)
    dist = DisturbanceSpec(kind="constant_matched", amplitude=0.3, sigma_a=0.1)
    result = run_episode(env, dist, model, MpcConfig(horizon=10, n_candidates=64), l1cfg, True,
                         episode_rng(0, 0, 0, "eval"))
    assert_controller_columns_replay(env, model, l1cfg, result)


def test_logged_controller_columns_replay_the_adaptive_law_with_two_inputs(point_mass_ensemble):
    env, model = point_mass_ensemble
    l1cfg = default_l1_config(env.n, env.dt, eps_a=1e-2)
    dist = DisturbanceSpec(kind="constant_matched", amplitude=0.3, sigma_a=0.1)
    result = run_episode(env, dist, model, MpcConfig(horizon=8, n_candidates=64), l1cfg, True,
                         episode_rng(0, 0, 0, "eval"))
    assert result.steps == env.horizon
    assert_controller_columns_replay(env, model, l1cfg, result)


def test_train_loop_runs_augmented_with_two_inputs():
    env = point_mass()
    loop = LoopConfig(iterations=2, episodes_per_iteration=3, eval_episodes=1, l1_warmup_iterations=1)
    opts = TrainOptions(max_epochs=10, patience=3, min_rows=32)  # episodes may leave the box early
    record, _ = train_loop(env, DisturbanceSpec(kind="constant_matched", amplitude=0.3), loop,
                           MpcConfig(horizon=5, n_candidates=32), default_l1_config(env.n, env.dt, 0.05),
                           train_opts=opts, members=2, hidden=(16, 16), seed=2)
    augmented = [result for phase, iteration, _, _, result in record.episodes if phase == "eval" or iteration > 1]
    assert len(augmented) == 3 + 3
    assert all(np.isfinite(result.rows).all() for result in augmented)
    assert [len(losses["val_loss"]) for losses in record.iteration_losses] == [2, 2]
    assert all(np.isfinite(losses["train_loss"] + losses["val_loss"]).all() for losses in record.iteration_losses)


def test_a_dead_second_input_channel_runs_through_the_truncation(caplog):
    # The plant's own field over one Euler step with the second input cut: h
    # has a zero column, so every step is a rank fallback, and that channel's
    # estimate stays zero.
    env = point_mass(horizon=20)

    class DeadSecondInput:
        def predict_mean(self, x, u):
            x, u = np.asarray(x, dtype=float), np.array(u, dtype=float)
            u[..., 1] = 0.0
            return np.stack(point_mass_drift(x.T, u.T), axis=-1) * env.dt

        def jacobian_u(self, x, u):
            return np.array([[0.0, 0.0], [0.0, 0.0], [env.dt, 0.0], [0.0, 0.0]])

    with caplog.at_level(logging.WARNING, logger="l1aug.l1core"):
        result = run_episode(env, DisturbanceSpec(kind="constant_matched", amplitude=0.3), DeadSecondInput(),
                             MpcConfig(horizon=5, n_candidates=32), default_l1_config(env.n, env.dt, 0.05), True,
                             episode_rng(1, 0, 0, "eval"))
    c = step_columns(env.n, env.m)
    assert result.steps == env.horizon
    assert np.isfinite(result.rows).all()
    assert np.all(result.rows[:, c["sigma_m"]][:, 1] == 0.0)
    assert np.any(result.rows[:, c["u_a"]][:, 0] != 0.0)
    assert len([r for r in caplog.records if r.name == "l1aug.l1core"]) == env.horizon


@pytest.mark.parametrize("use_l1", [False, True], ids=["l1_off", "l1_on"])
def test_a_non_finite_model_runs_the_episode_unaugmented(use_l1, capfd):
    # One NaN hidden weight in one member makes every prediction NaN. The
    # planner falls back to candidate 0, and the augmented step executes u_rl
    # without reaching the least-squares solve.
    env = make_env("pendulum", {"horizon": 20})
    model = make_ensemble(env.n, env.m, hidden=(16, 16), members=2, seed=0)
    model.weights[1][1, 0, 0] = np.nan
    result = run_episode(env, DisturbanceSpec(), model, MpcConfig(horizon=5, n_candidates=16),
                         default_l1_config(env.n, env.dt, 0.3), use_l1, episode_rng(0, 0, 0, "eval"))
    assert result.steps == 20
    assert "DLASCL" not in capfd.readouterr().err
    c = step_columns(env.n, env.m)
    if use_l1:
        assert np.array_equal(result.rows[:, c["u_a"]], np.zeros((20, env.m)))
        assert np.isnan(result.rows[:, c["sigma_m"]]).all()
        assert np.isnan(result.rows[:, c["switch_residual"]]).all()  # undefined, so its trace cell is empty
        assert not result.rows[:, c["switch"]].any()


def test_horizon_zero_like_empty_dataset():
    env = make_env("double_integrator", {"horizon": 1})
    model = UnitIncrementModel2D()
    mpc = MpcConfig(horizon=2, n_candidates=4)
    result = run_episode(env, DisturbanceSpec(), model, mpc,
                         default_l1_config(2, env.dt, 0.3), False, episode_rng(0, 0, 0, "collect"))
    assert result.steps == 1


def test_train_loop_zero_iterations_records_untrained_eval():
    env = make_env("double_integrator", {"horizon": 15})
    loop = LoopConfig(iterations=0, episodes_per_iteration=1, eval_episodes=2)
    record, model = train_loop(env, DisturbanceSpec(), loop, MpcConfig(horizon=3, n_candidates=8),
                               default_l1_config(2, env.dt, 0.3), seed=0)
    assert set(record.eval_returns) == {0}
    assert len(record.eval_returns[0]) == 2
    assert len(record.episodes) == 2
    assert all(row[0] == "eval" for row in record.episodes)


def test_train_loop_skips_retrain_below_min_rows():
    # One 15-step episode per iteration against min_rows 16: the first
    # iteration keeps the untrained model and logs empty losses.
    env = make_env("double_integrator", {"horizon": 15})
    loop = LoopConfig(iterations=1, episodes_per_iteration=1, eval_episodes=1)
    opts = TrainOptions(max_epochs=2, min_rows=16)
    record, model = train_loop(env, DisturbanceSpec(), loop, MpcConfig(horizon=3, n_candidates=8),
                               default_l1_config(2, env.dt, 0.3), train_opts=opts, members=2, hidden=(8,), seed=4)
    assert record.iteration_losses == [{"iteration": 1, "rows": len(record.dataset), "train_loss": [], "val_loss": [],
                                        "initial_val": [], "epochs_run": []}]
    assert len(record.dataset) < opts.min_rows
    assert set(record.eval_returns) == {0, 1}
    untrained = make_ensemble(2, 1, hidden=(8,), members=2, seed=4)
    x, u = np.array([0.3, -0.2]), np.array([0.5])
    assert np.array_equal(model.predict_mean(x, u), untrained.predict_mean(x, u))


def _tiny_loop_record(l1_train, l1_test, seed=5):
    env = make_env("double_integrator", {"horizon": 30})
    loop = LoopConfig(iterations=1, episodes_per_iteration=3, eval_episodes=1,
                      l1_train=l1_train, l1_test=l1_test)
    opts = TrainOptions(max_epochs=5, patience=3, min_rows=32)
    record, _ = train_loop(env, DisturbanceSpec(), loop, MpcConfig(horizon=3, n_candidates=16),
                           default_l1_config(2, env.dt, 0.3), train_opts=opts, seed=seed)
    return record


def test_train_loop_keeps_the_model_when_a_fit_diverges(monkeypatch):
    # The first fit diverges: that iteration logs empty losses and the error,
    # its evaluation runs on the untrained model, and the next fit goes ahead.
    real_train, fits = mbrl.train, []

    def train(model, dataset, opts):
        fits.append(opts.seed)
        if len(fits) == 1:
            raise TrainingDivergenceError("member 1: non-finite validation loss at epoch 2", member=1, epoch=2)
        return real_train(model, dataset, opts)

    monkeypatch.setattr(mbrl, "train", train)
    env = make_env("double_integrator", {"horizon": 20})
    loop = LoopConfig(iterations=2, episodes_per_iteration=2, eval_episodes=1)
    mpc, l1cfg = MpcConfig(horizon=3, n_candidates=8), default_l1_config(2, env.dt, 0.3)
    record, _ = train_loop(env, DisturbanceSpec(), loop, mpc, l1cfg,
                           train_opts=TrainOptions(max_epochs=2, min_rows=16), members=2, hidden=(8,), seed=4)
    assert len(fits) == 2
    diverged, trained = record.iteration_losses
    assert diverged == {"iteration": 1, "rows": diverged["rows"], "train_loss": [], "val_loss": [], "initial_val": [],
                        "epochs_run": [], "diverged": "member 1: non-finite validation loss at epoch 2"}
    assert "diverged" not in trained and len(trained["val_loss"]) == 2
    (eval_1,) = [result for phase, iteration, *_, result in record.episodes if (phase, iteration) == ("eval", 1)]
    untrained = make_ensemble(2, 1, hidden=(8,), members=2, seed=4)
    expected = run_episode(env, DisturbanceSpec(), untrained, mpc, l1cfg, True, episode_rng(4, 1, 0, "eval"))
    assert eval_1.rows.tobytes() == expected.rows.tobytes()


def _loop_outputs(tmp_path, env, dist, loop):
    """Trace and episodes CSV bytes, dataset arrays and losses of a tiny train_loop."""
    record, _ = train_loop(env, dist, loop, MpcConfig(horizon=3, n_candidates=16),
                           default_l1_config(env.n, env.dt, 0.5), train_opts=TrainOptions(max_epochs=3, min_rows=16),
                           members=2, hidden=(8,), seed=3)
    record.write_trace_csv(tmp_path / "trace.csv")
    record.write_episodes_csv(tmp_path / "episodes.csv")
    return ((tmp_path / "trace.csv").read_bytes(), (tmp_path / "episodes.csv").read_bytes(),
            [a.tobytes() for a in record.dataset.as_arrays()], record.iteration_losses)


@pytest.mark.parametrize("name, dist, loop", [
    ("double_integrator", DisturbanceSpec(kind="constant_matched", amplitude=0.3),
     LoopConfig(iterations=2, episodes_per_iteration=2, eval_episodes=2)),
    ("cartpole", DisturbanceSpec(kind="action_noise", sigma_a=0.1),
     LoopConfig(iterations=2, episodes_per_iteration=3, eval_episodes=2, l1_warmup_iterations=1)),
], ids=["double_integrator", "cartpole_l1_after_warmup"])
def test_train_loop_outputs_do_not_depend_on_the_cpu_count(tmp_path, monkeypatch, name, dist, loop):
    # One CPU steps every episode here; two fork a worker pair per batch of
    # episodes (and per fit). The record must not tell them apart.
    env = make_env(name, {"horizon": 20})
    pools = []

    class CountingExecutor(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            pools.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingExecutor)
    outputs = []
    for cpus in (1, 2):
        force_usable_cpus(monkeypatch, cpus)
        outputs.append(_loop_outputs(tmp_path, env, dist, loop))
        assert len(pools) == (0 if cpus == 1 else 5)  # three episode batches and two fits
    assert outputs[0] == outputs[1]
    assert multiprocessing.active_children() == []


def test_train_loop_logs_the_train_report():
    record = _tiny_loop_record(True, True)
    (row,) = record.iteration_losses
    assert set(row) == {"iteration", "rows", "train_loss", "val_loss", "initial_val", "epochs_run"}
    assert len(row["initial_val"]) == len(row["val_loss"]) == 3
    assert all(isinstance(e, int) and 1 <= e <= 5 for e in row["epochs_run"])
    assert all(best <= init for best, init in zip(row["val_loss"], row["initial_val"]))


def test_train_loop_deterministic_bytes(tmp_path):
    rec_a = _tiny_loop_record(True, True)
    rec_b = _tiny_loop_record(True, True)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    rec_a.write_trace_csv(a)
    rec_b.write_trace_csv(b)
    assert a.read_bytes() == b.read_bytes()
    rec_a.write_episodes_csv(a)
    rec_b.write_episodes_csv(b)
    assert a.read_bytes() == b.read_bytes()


def test_ablation_collection_isolated_from_test_flag():
    # With the same seed, the collection-phase rows must match bit for bit
    # across l1_test settings (independently seeded phases).
    rec_a = _tiny_loop_record(False, False)
    rec_b = _tiny_loop_record(False, True)
    collect_a = [(*key, result.rows.tobytes()) for *key, result in rec_a.episodes if key[0] == "collect"]
    collect_b = [(*key, result.rows.tobytes()) for *key, result in rec_b.episodes if key[0] == "collect"]
    assert collect_a
    assert collect_a == collect_b


def test_learning_progress_double_integrator():
    env = make_env("double_integrator", {"horizon": 40})
    loop = LoopConfig(iterations=5, episodes_per_iteration=3, eval_episodes=2,
                      l1_train=False, l1_test=False)
    opts = TrainOptions(max_epochs=40, patience=6)
    for seed in (0, 1):
        record, _ = train_loop(env, DisturbanceSpec(), loop, MpcConfig(horizon=10, n_candidates=64),
                               default_l1_config(2, env.dt, 0.3), train_opts=opts, seed=seed)
        first = np.mean(record.eval_returns[0])
        last = np.mean(record.eval_returns[max(record.eval_returns)])
        assert last > first


def test_trace_schema_columns():
    cols = trace_columns(2, 1)
    assert cols[:5] == ["phase", "iteration", "episode", "seed", "t"]
    assert cols[-4:] == ["reward", "switch", "switch_residual", "anchor_norm"]
    assert "x0" in cols and "x1" in cols and "xhat0" in cols
    assert "sigma_um0" in cols and "u_rl0" in cols and "u_a0" in cols and "u0" in cols
    assert EPISODE_COLUMNS[0] == "phase"


def test_record_row_width_matches_schema(di_setup, tmp_path):
    env, model, mpc, l1cfg = di_setup
    record = RunRecord(n=env.n, m=env.m)
    result = run_episode(env, DisturbanceSpec(), model, mpc, l1cfg, True, episode_rng(0, 0, 0, "eval"))
    record.add_episode("eval", 0, 0, 0, result)
    width = len(trace_columns(env.n, env.m))
    assert result.rows.shape == (result.steps, width - 4)
    record.write_trace_csv(tmp_path / "trace.csv")
    with open(tmp_path / "trace.csv", newline="") as fh:
        lines = list(csv.reader(fh))
    assert len(lines) == 1 + result.steps
    assert all(len(line) == width for line in lines)


def test_trace_csv_cells_equal_the_row_arrays(di_setup, tmp_path):
    # An L1-on and an L1-off episode: every written cell reads back as its
    # array value bit for bit, and a cell is empty exactly where the array is NaN.
    env, model, mpc, l1cfg = di_setup
    record = RunRecord(n=env.n, m=env.m)
    results = []
    for ep, use_l1 in enumerate((True, False)):
        result = run_episode(env, DisturbanceSpec(), model, mpc, l1cfg, use_l1, episode_rng(2, 1, ep, "eval"))
        record.add_episode("eval", 1, ep, 2, result)
        results.append(result)
    record.write_trace_csv(tmp_path / "trace.csv")
    with open(tmp_path / "trace.csv", newline="") as fh:
        header, *lines = list(csv.reader(fh))
    assert header == trace_columns(env.n, env.m)
    rows = np.concatenate([r.rows for r in results])
    assert len(lines) == len(rows) == sum(r.steps for r in results)
    n_on = results[0].steps
    c = step_columns(env.n, env.m)
    absent_without_l1 = np.zeros(rows.shape[1], dtype=bool)
    for name in ("xhat", "xtilde", "sigma", "sigma_m", "sigma_um", "u_a", "switch_residual", "anchor_norm"):
        absent_without_l1[c[name]] = True
    assert not np.isnan(rows[:n_on]).any()
    assert (np.isnan(rows[n_on:]) == absent_without_l1).all()
    for i, (line, row) in enumerate(zip(lines, rows)):
        assert line[:4] == ["eval", "1", str(int(i >= n_on)), "2"]
        for name, cell, value in zip(header[4:], line[4:], row):
            if np.isnan(value):
                assert cell == ""
            elif name in ("t", "switch"):
                assert cell == str(int(value)) and float(cell) == value
            else:
                assert cell != ""
                assert np.float64(float(cell)).tobytes() == value.tobytes()
        assert int(line[4 + c["t"]]) == (i if i < n_on else i - n_on)


def test_train_loop_stores_the_baseline_input():
    # The dataset rows are the collect rows' (x, u_rl) and the observed next
    # states (each episode's later rows' x, then its x_final), bit for bit,
    # and collection was augmented.
    record = _tiny_loop_record(True, True)
    c = step_columns(record.n, record.m)
    collect = [result for phase, *_, result in record.episodes if phase == "collect"]
    rows = np.concatenate([result.rows for result in collect])
    next_states = np.concatenate([np.vstack((result.rows[1:, c["x"]], result.x_final)) for result in collect])
    xs, us, x_next = record.dataset.as_arrays()
    assert xs.tobytes() == rows[:, c["x"]].tobytes()
    assert us.tobytes() == rows[:, c["u_rl"]].tobytes()
    assert rows[:, c["u"]].tobytes() != rows[:, c["u_rl"]].tobytes()
    assert x_next.tobytes() == next_states.tobytes()


def test_the_audited_training_set_is_the_one_train_received(monkeypatch):
    # Audits read record.dataset; the last fit must have received those very
    # rows, with the baseline input of every (augmented) collect step.
    real_train, received = mbrl.train, []

    def train(model, dataset, opts):
        received.append([a.tobytes() for a in dataset.as_arrays()])
        return real_train(model, dataset, opts)

    monkeypatch.setattr(mbrl, "train", train)
    env = make_env("double_integrator", {"horizon": 30})
    loop = LoopConfig(iterations=2, episodes_per_iteration=2, eval_episodes=1)
    record, _ = train_loop(env, DisturbanceSpec(), loop, MpcConfig(horizon=3, n_candidates=16),
                           default_l1_config(2, env.dt, 0.3), train_opts=TrainOptions(max_epochs=3, min_rows=32),
                           members=2, hidden=(8,), seed=5)
    assert len(received) == 2
    assert received[-1] == [a.tobytes() for a in record.dataset.as_arrays()]
    c = step_columns(record.n, record.m)
    collect = np.concatenate([result.rows for phase, *_, result in record.episodes if phase == "collect"])
    assert received[-1][1] == collect[:, c["u_rl"]].tobytes() != collect[:, c["u"]].tobytes()
