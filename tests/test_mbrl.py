import csv
from dataclasses import replace

import numpy as np
import pytest

from l1aug import envsim
from l1aug.affine import reanchor
from l1aug.dynmodel import Normalizer, TrainOptions, make_ensemble
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

from conftest import replay_switch_count


class UnitIncrementModel:
    """dx = u per step, scalar; handy for brute-force MPC oracles."""

    def predict_mean(self, x, u):
        return np.asarray(u, dtype=float).copy()

    def jacobian_u(self, x, u):
        return np.array([[1.0]])


def make_scalar_env(reward, horizon=10):
    def drift(x, u):
        return u[..., 0:1] if x.ndim > 1 else np.array([u[0]])

    return envsim.EnvSpec(
        name="scalar", n=1, m=1, dt=1.0, horizon=horizon,
        drift=lambda x, u: np.stack([u[..., 0]], axis=-1),
        input_matrix=lambda x: np.array([[1.0]]),
        x0_sampler=lambda rng: np.array([1.0]),
        state_low=np.array([-100.0]), state_high=np.array([100.0]),
        input_low=np.array([-2.0]), input_high=np.array([2.0]),
        reward=reward,
    )


class FixedCandidateRng:
    """Stands in for a Generator: hands out preset candidate sequences."""

    def __init__(self, cands):
        self.cands = np.asarray(cands, dtype=float)

    def uniform(self, low, high, size):
        assert size == self.cands.shape
        return self.cands


def test_mpc_brute_force_three_candidates():
    # dx = u, reward -(x_next^2), x = 1, horizon 1: u = -1.0 is the argmax.
    env = make_scalar_env(lambda x, u: -(x[..., 0] ** 2))
    mpc = MpcConfig(horizon=1, n_candidates=3)
    rng = FixedCandidateRng(np.array([-1.2, -1.0, 0.0]).reshape(3, 1, 1))
    u = mpc_action(UnitIncrementModel(), env, np.array([1.0]), mpc, rng)
    assert u[0] == pytest.approx(-1.0)


def test_mpc_single_candidate_returned():
    env = make_scalar_env(lambda x, u: -(x[..., 0] ** 2))
    mpc = MpcConfig(horizon=3, n_candidates=1)
    seq = np.array([0.7, -0.3, 0.1]).reshape(1, 3, 1)
    u = mpc_action(UnitIncrementModel(), env, np.array([1.0]), mpc, FixedCandidateRng(seq))
    assert u[0] == pytest.approx(0.7)


def test_mpc_zero_reward_tie_breaks_to_first():
    env = make_scalar_env(lambda x, u: np.zeros(np.shape(x[..., 0])))
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
    for horizon in (1, 4):
        mpc = MpcConfig(horizon=horizon, n_candidates=50)
        states = np.linspace(-3.0, 3.0, 25)[:, None]
        assert_block_matches_reference(UnitIncrementModel(), env, states, mpc)
        # Each candidate alternates c, -c, so every visited state rounds to 0.
        first = np.array([0.3, 0.1, 0.2, -0.1])
        seq = first[:, None, None] * (-1.0) ** np.arange(horizon)[None, :, None]
        u = mpc_action(UnitIncrementModel(), env, np.array([0.0]), MpcConfig(horizon=horizon, n_candidates=4),
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
        drift=env.drift, input_matrix=env.input_matrix,
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


class SquareModel:
    """Prediction u^2: the expansion misses (u - ubar)^2, so any new input re-anchors."""

    def predict_mean(self, x, u):
        return np.asarray(u, dtype=float) ** 2

    def jacobian_u(self, x, u):
        return np.array([[2.0 * u[0]]])


def test_divergence_keeps_partial_rows_and_counts_only_their_switches(tmp_path):
    # x rises at unit rate and the drift turns NaN past 0.33: step t = 3
    # (x = 0.3 -> 0.4) diverges after its switch, and its row is dropped.
    env = envsim.EnvSpec(
        name="diverging", n=1, m=1, dt=0.1, horizon=10,
        drift=lambda x, u: np.ones(1) if x[0] < 0.33 else np.full(1, np.nan),
        input_matrix=lambda x: np.array([[1.0]]),
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
    for a, b, a_next, b_next in zip(on.rows, off.rows, on.x_next, off.x_next):
        assert np.allclose(a[c["u"]], b[c["u"]], atol=1e-9)
        assert np.allclose(a_next, b_next, atol=1e-9)
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


def test_logged_controller_columns_replay_the_adaptive_law(pendulum_ensemble):
    # From row 0's state and a zero filter, the switching law, the adaptive law
    # and the Euler predictor reproduce every logged estimate bit for bit.
    env, model = pendulum_ensemble
    l1cfg = default_l1_config(env.n, env.dt, eps_a=5e-4)
    dist = DisturbanceSpec(kind="constant_matched", amplitude=0.3, sigma_a=0.1)
    result = run_episode(env, dist, model, MpcConfig(horizon=10, n_candidates=64), l1cfg, True,
                         episode_rng(0, 0, 0, "eval"))
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
                                        "initial_val": [], "epochs_run": [], "n_rejected": 0}]
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


def test_train_loop_logs_the_train_report():
    record = _tiny_loop_record(True, True)
    (row,) = record.iteration_losses
    assert set(row) == {"iteration", "rows", "train_loss", "val_loss", "initial_val", "epochs_run", "n_rejected"}
    assert row["n_rejected"] == record.dataset.n_rejected
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
    # states, bit for bit, and collection was augmented.
    record = _tiny_loop_record(True, True)
    c = step_columns(record.n, record.m)
    collect = np.concatenate([result.rows for phase, *_, result in record.episodes if phase == "collect"])
    xs, us, x_next = record.dataset.as_arrays()
    assert xs.tobytes() == collect[:, c["x"]].tobytes()
    assert us.tobytes() == collect[:, c["u_rl"]].tobytes()
    assert collect[:, c["u"]].tobytes() != collect[:, c["u_rl"]].tobytes()
    starts = collect[:, c["t"]] == 0
    assert x_next[:-1][~starts[1:]].tobytes() == xs[1:][~starts[1:]].tobytes()
