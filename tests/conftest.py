import numpy as np
import pytest

from l1aug import dynmodel, envsim
from l1aug.affine import reanchor

LINEAR_A = np.array([[0.95, 0.08], [-0.05, 0.9]]) - np.eye(2)
LINEAR_B = np.array([[0.02], [0.11]])


def linear_increment(x, u):
    """Ground-truth generator for the synthetic linear-system dataset."""
    return x @ LINEAR_A.T + u @ LINEAR_B.T


@pytest.fixture(scope="session")
def linear_dataset():
    rng = np.random.default_rng(314)
    ds = dynmodel.TransitionDataset(2, 1)
    xs = rng.uniform(-2, 2, size=(5000, 2))
    us = rng.uniform(-2, 2, size=(5000, 1))
    dxs = linear_increment(xs, us)
    for x, u, dx in zip(xs, us, dxs):
        ds.append(x, u, x + dx)
    return ds


@pytest.fixture(scope="session")
def linear_ensemble(linear_dataset):
    ens = dynmodel.make_ensemble(2, 1, hidden=(64, 64), members=3, seed=11)
    trained, report = dynmodel.train(
        ens, linear_dataset, dynmodel.TrainOptions(max_epochs=120, patience=12, seed=5)
    )
    return trained, report


def collect_random_rows(env, dist, n_rows, seed, steps_per_episode=100):
    """Uniform-input rollouts, the standard excitation for model fitting."""
    rng = np.random.default_rng(seed)
    ds = dynmodel.TransitionDataset(env.n, env.m)
    while len(ds) < n_rows:
        x = env.x0_sampler(rng)
        for t in range(steps_per_episode):
            u = rng.uniform(env.input_low, env.input_high)
            tr = envsim.step_true(env, dist, x, u, t, rng)
            ds.append(tr.x, tr.u_applied, tr.x_next)
            x = tr.x_next_true
            if not env.in_state_bounds(x) or len(ds) >= n_rows:
                break
    return ds


def replay_switch_count(model, xs, us, eps_a):
    """Reference count of the switching law's re-anchorings over a recorded (x_t, u_t) trajectory."""
    am, count = None, 0
    for x, u in zip(xs, us):
        am, decision = reanchor(am, model, x, u, eps_a)
        count += int(decision.switch)
    return count


@pytest.fixture(scope="session")
def pendulum_ensemble():
    """Well-trained pendulum model, shared by the slower control tests."""
    env = envsim.make_env("pendulum")
    ds = collect_random_rows(env, envsim.DisturbanceSpec(), 4000, seed=12345)
    ens = dynmodel.make_ensemble(env.n, env.m, hidden=(64, 64), members=3, seed=7)
    trained, _ = dynmodel.train(ens, ds, dynmodel.TrainOptions(max_epochs=60, patience=8, seed=3))
    return env, trained
