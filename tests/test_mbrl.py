import numpy as np
import pytest

from l1aug import envsim
from l1aug.affine import replay_switch_count
from l1aug.dynmodel import TrainOptions, make_ensemble
from l1aug.envsim import DisturbanceSpec, make_env
from l1aug.l1core import default_l1_config
from l1aug.mbrl import (
    EPISODE_COLUMNS,
    LoopConfig,
    MpcConfig,
    RunRecord,
    episode_rng,
    mpc_action,
    run_episode,
    trace_columns,
    train_loop,
)


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
    for trans, row in zip(result.transitions, result.rows):
        assert np.array_equal(trans.u_logged, row["u_rl"])
        expected_applied = env.clamp_input(row["u_rl"] + row["u_a"])
        assert np.allclose(trans.u_applied, expected_applied, atol=1e-12)


def test_run_episode_without_l1_applies_baseline(di_setup):
    env, model, mpc, l1cfg = di_setup
    result = run_episode(env, DisturbanceSpec(), model, mpc, l1cfg, use_l1=False,
                         rng=episode_rng(0, 0, 0, "collect"))
    for trans in result.transitions:
        assert np.array_equal(trans.u_applied, env.clamp_input(trans.u_logged))


def test_run_episode_return_is_sum_of_rewards(di_setup):
    env, model, mpc, l1cfg = di_setup
    result = run_episode(env, DisturbanceSpec(), model, mpc, l1cfg, use_l1=False,
                         rng=episode_rng(1, 0, 0, "collect"))
    assert result.episode_return == pytest.approx(sum(t.reward for t in result.transitions))


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
    assert result.episode_return == pytest.approx(sum(t.reward for t in result.transitions))


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
    for a, b in zip(on.transitions, off.transitions):
        assert np.allclose(a.u_applied, b.u_applied, atol=1e-9)
        assert np.allclose(a.x_next, b.x_next, atol=1e-9)
    max_ua = max(abs(float(r["u_a"][0])) for r in on.rows)
    assert max_ua <= 1e-9


def test_anchor_validity_invariant(pendulum_ensemble):
    # Between switches the checked residual stays below eps_a; the step that
    # reaches it re-anchors before control.
    env, model = pendulum_ensemble
    mpc = MpcConfig(horizon=10, n_candidates=64)
    l1cfg = default_l1_config(env.n, env.dt, eps_a=0.02)
    result = run_episode(env, DisturbanceSpec(kind="constant_matched", amplitude=0.3),
                         model, mpc, l1cfg, True, episode_rng(0, 0, 0, "eval"))
    switch_steps = {e.t for e in result.switch_events}
    for row in result.rows:
        if row["switch"]:
            assert row["t"] in switch_steps
            assert row["switch_residual"] >= l1cfg.eps_a
        elif row["switch_residual"] is not None and row["t"] > 0:
            assert row["switch_residual"] < l1cfg.eps_a


def test_replay_counts_the_switches_of_run_episode(pendulum_ensemble):
    # eps_a small enough that the episode re-anchors a few dozen times.
    env, model = pendulum_ensemble
    mpc = MpcConfig(horizon=10, n_candidates=64)
    l1cfg = default_l1_config(env.n, env.dt, eps_a=2e-4)
    result = run_episode(env, DisturbanceSpec(kind="constant_matched", amplitude=0.3),
                         model, mpc, l1cfg, True, episode_rng(0, 0, 0, "eval"))
    assert len(result.switch_events) >= 10
    xs = [row["x"] for row in result.rows]
    us = [row["u_rl"] for row in result.rows]
    assert replay_switch_count(model, xs, us, l1cfg.eps_a) == len(result.switch_events)


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
    assert record.iteration_losses == [{"iteration": 1, "rows": len(record.dataset), "train_loss": [], "val_loss": []}]
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
    collect_a = [row for row in rec_a.trace if row[0] == "collect"]
    collect_b = [row for row in rec_b.trace if row[0] == "collect"]
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


def test_record_row_width_matches_schema(di_setup):
    env, model, mpc, l1cfg = di_setup
    record = RunRecord(n=env.n, m=env.m)
    result = run_episode(env, DisturbanceSpec(), model, mpc, l1cfg, True, episode_rng(0, 0, 0, "eval"))
    record.add_episode("eval", 0, 0, 0, result)
    width = len(trace_columns(env.n, env.m))
    assert all(len(row) == width for row in record.trace)
