"""Model-learning loop: MPC baseline, episode rollouts, records and the training set they hold.

The loop alternates data collection under the current model, ensemble
retraining, and held-out evaluation. The adaptive augmentation can be
switched on independently for the collection and evaluation phases. When it
is on, the training set holds the baseline input rather than the augmented
one, so the model keeps learning the dynamics that remain after the
augmentation cancels the uncertainty it can see.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import pool
from .dynmodel import Ensemble, TrainingDivergenceError, TrainOptions, TransitionDataset, make_ensemble, train
from .envsim import DisturbanceSpec, EnvSpec, EpisodeDiverged, step_true
from .l1core import L1Config, L1State, l1_control

Array = np.ndarray

PHASE_COLLECT = "collect"
PHASE_EVAL = "eval"


@dataclass(frozen=True)
class MpcConfig:
    """Random-shooting planner: sample open-loop sequences, apply the best head.

    Candidate actions are i.i.d. uniform over the input box. Sequences are
    scored by rolling the learned model forward and accumulating the reward
    of each successor state; rollouts that leave the state box stop earning.
    Ties break toward the lowest candidate index.
    """

    horizon: int = 15
    n_candidates: int = 256

    def __post_init__(self):
        if self.horizon < 1 or self.n_candidates < 1:
            raise ValueError("MpcConfig: horizon and n_candidates must be >= 1")


@dataclass(frozen=True)
class LoopConfig:
    """Outer-loop sizing and the two independent augmentation flags.

    ``l1_warmup_iterations`` delays the augmentation during data collection
    until that many model updates have happened. Before the first update the
    estimator compares reality against an untrained network, and storing the
    baseline input while executing the augmented one then bakes the resulting
    junk compensation into the dataset as a permanent input-map bias. One
    warmup iteration (collecting without augmentation) prevents that loop;
    zero reproduces the unconditional scheme.
    """

    iterations: int = 5
    episodes_per_iteration: int = 3
    eval_episodes: int = 2
    l1_train: bool = True
    l1_test: bool = True
    l1_warmup_iterations: int = 0

    def __post_init__(self):
        if self.iterations < 0 or self.episodes_per_iteration < 1 or self.eval_episodes < 1:
            raise ValueError("LoopConfig: bad loop sizing")
        if self.l1_warmup_iterations < 0:
            raise ValueError("LoopConfig: l1_warmup_iterations must be >= 0")


def mpc_action(model: Ensemble, env: EnvSpec, x: Array, mpc: MpcConfig, rng: np.random.Generator) -> Array:
    """First action of the best sampled sequence under the learned model.

    The plan rolls out as one block. The candidates are written once into a
    (horizon, N, n + m) input block in the map's dtype; each horizon step
    copies the states in, calls the map and adds the increments into a
    (horizon + 1, N, n) float64 state block. The state-box test, survival,
    reward and the sum over the horizon (in horizon order) then run once over
    the whole block. An Ensemble rolls out through its float32 planning map;
    any other model through its predict_mean. The start state is validated
    once, here.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (env.n,):
        raise ValueError(f"expected state shape ({env.n},), got {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("non-finite model input")
    n, horizon, n_cands = env.n, mpc.horizon, mpc.n_candidates
    # numpy's own uniform formula on the same stream, without its broadcast path for array bounds.
    cands = env.input_low + (env.input_high - env.input_low) * rng.random((n_cands, horizon, env.m))
    u = cands.swapaxes(0, 1)
    if hasattr(model, "planning_map"):
        plan, dtype = model.planning_map, np.float32
    else:
        plan, dtype = (lambda xu: model.predict_mean(xu[:, :n], xu[:, n:])), float
    xu = np.empty((horizon, n_cands, n + env.m), dtype=dtype)
    xu[:, :, n:] = u
    states = np.empty((horizon + 1, n_cands, n))
    states[0] = x
    for k in range(horizon):
        xu[k, :, :n] = states[k]
        np.add(states[k], plan(xu[k]), out=states[k + 1])
    alive = np.logical_and.accumulate(env.in_state_bounds(states[1:]), axis=0)
    total = np.where(alive, env.reward(states[1:], u), 0.0).sum(axis=0)
    return cands[int(np.argmax(total)), 0, :]


def _step_fields(n: int, m: int) -> tuple[tuple[str, int | None], ...]:
    """The per-step trace fields in column order: (name, width), width None for a scalar."""
    return (("t", None), ("x", n), ("xhat", n), ("xtilde", n), ("sigma", n), ("sigma_m", m),
            ("sigma_um", max(n - m, 0)), ("u_rl", m), ("u_a", m), ("u", m),
            ("reward", None), ("switch", None), ("switch_residual", None), ("anchor_norm", None))


def step_columns(n: int, m: int) -> dict[str, int | slice]:
    """Where each field sits in a row of ``EpisodeResult.rows``: an index for a scalar, a slice for a vector."""
    cols, start = {}, 0
    for name, width in _step_fields(n, m):
        cols[name] = start if width is None else slice(start, start + width)
        start += 1 if width is None else width
    return cols


TRACE_KEYS = ["phase", "iteration", "episode", "seed"]


def trace_columns(n: int, m: int) -> list[str]:
    cols = list(TRACE_KEYS)
    for name, width in _step_fields(n, m):
        cols += [name] if width is None else [f"{name}{i}" for i in range(width)]
    return cols


@dataclass
class EpisodeResult:
    """One episode, one float row per executed step.

    ``rows`` has the columns of ``step_columns``; NaN marks a value that does
    not exist: with the adaptive loop off, the controller columns from
    ``xhat`` to ``u_a`` plus ``switch_residual`` and ``anchor_norm``.
    ``x_final`` is the state observed after the last executed step.
    """

    rows: Array
    x_final: Array
    episode_return: float
    terminated_early: bool

    @property
    def steps(self) -> int:
        return len(self.rows)


def run_episode(
    env: EnvSpec,
    dist: DisturbanceSpec,
    model: Ensemble,
    mpc: MpcConfig,
    l1cfg: L1Config,
    use_l1: bool,
    rng: np.random.Generator,
) -> EpisodeResult:
    """Roll one episode, augmenting each baseline input when the adaptive loop is on.

    Each step samples the baseline input, runs one ``l1_control`` step
    (switching law and adaptive law) when the adaptive loop is on, executes
    on the true system, and records (x_t, u_RL) in the step's row; x_{t+1} is
    the next row's ``x``, or ``x_final`` after the last step. The controller
    and the rows see observations; the integrator sees the true state.
    Divergence ends the episode with its rows so far, and ``x_final`` is then
    the last finite observation.
    """
    x_true = env.x0_sampler(rng)
    x_obs = x_true
    l1 = L1State.initial(x_obs, env.m)
    c = step_columns(env.n, env.m)
    rows = np.full((env.horizon, len(trace_columns(env.n, env.m)) - len(TRACE_KEYS)), np.nan)
    episode_return = 0.0
    steps = env.horizon
    for t in range(env.horizon):
        if not env.in_state_bounds(x_true):
            steps = t
            break
        u_rl = mpc_action(model, env, x_obs, mpc, rng)
        row = rows[t]
        row[c["switch"]] = 0
        if use_l1:
            row[c["xhat"]] = l1.xhat
            u_cmd, l1, estimates, decision = l1_control(u_rl, x_obs, model, l1, l1cfg)
            row[c["xtilde"]], row[c["sigma"]], row[c["sigma_m"]], row[c["sigma_um"]] = estimates
            row[c["switch"]] = decision.switch
            row[c["switch_residual"]] = decision.residual
            if l1.am is not None:
                row[c["anchor_norm"]] = np.linalg.norm(l1.am.ubar)
        else:
            u_cmd = u_rl

        try:
            trans = step_true(env, dist, x_true, u_cmd, t, rng)
        except EpisodeDiverged:
            steps = t
            break

        episode_return += trans.reward
        row[c["t"]] = t
        row[c["x"]] = x_obs
        row[c["u_rl"]] = u_rl
        row[c["u"]] = trans.u_applied
        row[c["reward"]] = trans.reward
        if use_l1:
            row[c["u_a"]] = trans.u_applied - env.clamp_input(u_rl)
        x_true = trans.x_next_true
        x_obs = trans.x_next

    return EpisodeResult(rows=rows[:steps], x_final=x_obs, episode_return=episode_return,
                         terminated_early=steps < env.horizon)


EPISODE_COLUMNS = ["phase", "iteration", "episode", "seed", "steps", "episode_return", "terminated_early", "n_switches"]


@dataclass
class RunRecord:
    """Everything a run produced, in insertion order, ready for CSV emission.

    ``episodes`` holds one ``(phase, iteration, episode, seed, result)`` entry
    per episode; both CSV files, the evaluation returns and the training set
    derive from it.
    """

    n: int
    m: int
    episodes: list[tuple[str, int, int, int, EpisodeResult]] = field(default_factory=list)
    iteration_losses: list[dict] = field(default_factory=list)

    def add_episode(self, phase: str, iteration: int, episode: int, seed: int, result: EpisodeResult) -> None:
        self.episodes.append((phase, iteration, episode, seed, result))

    @property
    def dataset(self) -> TransitionDataset:
        """The training set, built on each access: the collect rows' ``x`` and ``u_rl``, each with the
        next row's ``x`` as its next state, and the episode's ``x_final`` for its last row."""
        c = step_columns(self.n, self.m)
        data = TransitionDataset(self.n, self.m)
        for phase, _, _, _, result in self.episodes:
            if phase == PHASE_COLLECT:
                next_states = np.vstack((result.rows[:, c["x"]], result.x_final))[1:]
                for row, x_next in zip(result.rows, next_states):
                    data.append(row[c["x"]], row[c["u_rl"]], x_next)
        return data

    @property
    def eval_returns(self) -> dict[int, list[float]]:
        """Evaluation returns per iteration, in episode order."""
        returns: dict[int, list[float]] = {}
        for phase, iteration, _, _, result in self.episodes:
            if phase == PHASE_EVAL:
                returns.setdefault(iteration, []).append(result.episode_return)
        return returns

    def write_trace_csv(self, path: str | Path) -> None:
        """Full round-trip floats, integers for ``t`` and ``switch``, and an empty cell for NaN."""
        c = step_columns(self.n, self.m)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(trace_columns(self.n, self.m))
            for phase, iteration, episode, seed, result in self.episodes:
                head = [phase, str(iteration), str(episode), str(seed)]
                for row in result.rows.tolist():
                    cells = ["" if v != v else repr(v) for v in row]
                    cells[c["t"]] = str(int(row[c["t"]]))
                    cells[c["switch"]] = str(int(row[c["switch"]]))
                    writer.writerow(head + cells)

    def write_episodes_csv(self, path: str | Path) -> None:
        """One row per episode; ``n_switches`` counts the nonzero cells of its ``switch`` column."""
        switch = step_columns(self.n, self.m)["switch"]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(EPISODE_COLUMNS)
            for phase, iteration, episode, seed, result in self.episodes:
                writer.writerow([phase, iteration, episode, seed, result.steps, repr(float(result.episode_return)),
                                 int(result.terminated_early), np.count_nonzero(result.rows[:, switch])])


def episode_rng(seed: int, iteration: int, episode: int, phase: str) -> np.random.Generator:
    """Independent stream per (seed, iteration, episode, phase)."""
    return np.random.default_rng([seed, iteration, episode, 0 if phase == PHASE_COLLECT else 1])


def train_loop(
    env: EnvSpec,
    dist: DisturbanceSpec,
    loop_cfg: LoopConfig,
    mpc: MpcConfig,
    l1cfg: L1Config,
    train_opts: TrainOptions = TrainOptions(),
    members: int = 3,
    hidden: tuple[int, ...] = (64, 64),
    seed: int = 0,
) -> tuple[RunRecord, Ensemble]:
    """Collect, retrain, evaluate, repeat for a fixed iteration budget.

    Each iteration trains on ``record.dataset``, every collect step so far.
    Evaluation episodes are separate from collection episodes so the two
    augmentation flags act independently; iteration 0 records the
    untrained-model evaluation. An iteration whose training set is still
    below ``min_rows`` rows (early terminations) keeps the current model and
    logs empty losses; so does one whose fit raises
    ``TrainingDivergenceError``, whose losses row also carries the error as
    ``diverged``. A losses row also carries the train report's
    ``initial_val`` and ``epochs_run``.

    The episodes that run on one model, iteration i - 1's evaluation and
    iteration i's collection, form one batch mapped through ``pool.map_jobs``
    over ``pool.usable_cpus()``, so ``env`` must pickle (catalog envs do).
    Each episode reads only the model and its own ``episode_rng`` stream, and
    results come back in call order, so the record does not depend on the
    CPU count.
    """
    record = RunRecord(n=env.n, m=env.m)
    model = make_ensemble(env.n, env.m, hidden=hidden, members=members, seed=seed)

    def episodes(phase: str, iteration: int) -> list[tuple[str, int, int, bool]]:
        """(phase, iteration, episode, use_l1) of one phase's episodes."""
        if phase == PHASE_EVAL:
            return [(phase, iteration, ep, loop_cfg.l1_test) for ep in range(loop_cfg.eval_episodes)]
        use_l1 = loop_cfg.l1_train and iteration > loop_cfg.l1_warmup_iterations
        return [(phase, iteration, ep, use_l1) for ep in range(loop_cfg.episodes_per_iteration)]

    def run_batch(batch: list[tuple[str, int, int, bool]]) -> None:
        calls = [(env, dist, model, mpc, l1cfg, use_l1, episode_rng(seed, iteration, ep, phase))
                 for phase, iteration, ep, use_l1 in batch]
        for (phase, iteration, ep, _), result in zip(batch, pool.map_jobs(run_episode, calls, pool.usable_cpus())):
            record.add_episode(phase, iteration, ep, seed, result)

    pending = episodes(PHASE_EVAL, 0)
    for iteration in range(1, loop_cfg.iterations + 1):
        run_batch(pending + episodes(PHASE_COLLECT, iteration))
        dataset = record.dataset
        losses = {"iteration": iteration, "rows": len(dataset), "train_loss": [], "val_loss": [],
                  "initial_val": [], "epochs_run": []}
        if len(dataset) >= train_opts.min_rows:
            opts = replace(train_opts, seed=train_opts.seed * 1_000_003 + seed * 1_009 + iteration)
            try:
                model, report = train(model, dataset, opts)
            except TrainingDivergenceError as exc:
                losses["diverged"] = str(exc)
            else:
                losses.update(train_loss=report.final_train, val_loss=report.best_val,
                              initial_val=report.initial_val, epochs_run=report.epochs_run)
        record.iteration_losses.append(losses)
        pending = episodes(PHASE_EVAL, iteration)
    run_batch(pending)
    return record, model
