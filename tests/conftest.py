import multiprocessing
import os

import numpy as np
import pytest

from l1aug import dynmodel, envsim, pool
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


CAN_FORK = "fork" in multiprocessing.get_all_start_methods() and multiprocessing.parent_process() is None


def force_usable_cpus(monkeypatch, cpus):
    """Make ``pool.usable_cpus`` report ``cpus`` here and, as it does, 1 inside a pool worker.

    Skips the test for more than one CPU where this process cannot fork.
    """
    if cpus > 1 and not CAN_FORK:
        pytest.skip("pool maps fork workers only where this process can fork")
    monkeypatch.setattr(pool, "usable_cpus", lambda: 1 if multiprocessing.parent_process() else cpus)


def force_training_path(monkeypatch, path):
    """Make ``train`` fork one worker per member group ("fan-out") or step one lockstep group here ("in-process").

    The CLI's seed and cell maps see the same CPU count: two workers, or none.
    Skips the test for a fan-out where this process cannot fork.
    """
    force_usable_cpus(monkeypatch, 2 if path == "fan-out" else 1)


def training_paths(monkeypatch):
    """Each path ``train`` can take in this process, forced in turn as it is yielded."""
    for path in ("fan-out", "in-process") if CAN_FORK else ("in-process",):
        force_training_path(monkeypatch, path)
        yield path


REAL_FIT = dynmodel._fit


def die_in_first_group(ensemble, members, *splits):
    """Stand-in for ``dynmodel._fit``: member 0's worker dies, the other groups train."""
    if multiprocessing.parent_process() is None:
        raise AssertionError("member groups must run in forked workers")
    if members[0] == 0:
        os._exit(7)
    return REAL_FIT(ensemble, members, *splits)


def die_in_episode_worker(*args):
    """Stand-in for ``mbrl.run_episode``: the episode's worker exits."""
    if multiprocessing.parent_process() is None:
        raise AssertionError("episodes must run in forked workers")
    os._exit(7)
