"""The benchmark's workloads: set-up, one operation, its output checks, its quality.

Every workload is a closed loop in one process: the next operation starts
when the previous one returns. An operation's inputs derive only from the
run's seed and the operation's index (see ``op_seed``), so the same seed
gives the same outputs.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stdout
from dataclasses import dataclass, field, replace
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np
import yaml

from l1aug import cli, dynmodel, envsim, l1core, mbrl

from tracer import Probe, Tracer

CONFIG_DIR = Path(__file__).resolve().parent / "configs"


@dataclass
class OpResult:
    """What one operation did.

    ``work`` is counted in the workload's unit of work, ``quality`` holds the
    numbers its quality ratio is computed from, and ``output`` is compared
    between the traced and untraced passes, so it must be deterministic.
    """

    work: float
    quality: tuple
    output: object
    failures: list[str] = field(default_factory=list)


def op_seed(seed: int, k: int, quality_ops: int) -> int:
    """Input seed of operation k.

    The first ``quality_ops`` operations are a fixed reference set and fix
    the quality ratio, so it repeats exactly from run to run: over a few
    seed-chosen inputs it would not (one pendulum pair's cost ratio ranges
    from about 0.8 to 1.2, one fit's validation loss by about 20%). Later
    operations, which only add timing, take their inputs from the run's seed.
    """
    return k if k < quality_ops else 1000 * seed + k


def random_rows(env: envsim.EnvSpec, n_rows: int, seed: int) -> dynmodel.TransitionDataset:
    """Uniform-input rollouts of the undisturbed plant, at most 100 steps each."""
    rng = np.random.default_rng(seed)
    data = dynmodel.TransitionDataset(env.n, env.m)
    dist = envsim.DisturbanceSpec()
    while len(data) < n_rows:
        x = env.x0_sampler(rng)
        for t in range(100):
            tr = envsim.step_true(env, dist, x, rng.uniform(env.input_low, env.input_high), t, rng)
            data.append(tr.x, tr.u_applied, tr.x_next)
            x = tr.x_next_true
            if not env.in_state_bounds(x) or len(data) >= n_rows:
                break
    return data


def invoke_cli(args: list[str]) -> int:
    """Run the l1aug command line in this process and return its exit code."""
    try:
        with redirect_stdout(sys.stderr):
            cli.main.main(args=args, prog_name="l1aug", standalone_mode=False)
    except SystemExit as exc:
        if exc.code is None or isinstance(exc.code, int):
            return exc.code or 0
        return 1
    return 0


def cli_startup(workdir: Path) -> None:
    """Start a fresh interpreter that imports the CLI: what every command pays first."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-m", "l1aug.cli", "--version"], cwd=workdir, env=env,
                   check=True, capture_output=True, timeout=60)


def finite(*values: float) -> bool:
    return all(math.isfinite(v) for v in values)


def _digest(*paths: Path) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.read_bytes())
    return h.hexdigest()


def _keep_record(records: list) -> Callable:
    def count(args, kwargs, result):
        records.append(result[0])
        return {}

    return count


class PendulumRejection:
    """Criterion-8 experiment: paired L1-off / L1-on episodes on the disturbed pendulum.

    The ensemble is the acceptance suite's criterion-8 model (data seed 12345,
    ensemble seed 7, training seed 3).
    """

    name = "pendulum_rejection"
    work_unit = "plant steps"
    setup_reps = 3
    quality_ops = 3
    rows = 4000
    env_overrides = {"horizon": 200}
    mpc = mbrl.MpcConfig(horizon=15, n_candidates=200)
    dist = envsim.DisturbanceSpec(kind="constant_matched", amplitude=0.3, sigma_a=0.1)
    train_opts = dynmodel.TrainOptions(max_epochs=60, patience=8, seed=3)

    def setup(self, seed: int, workdir: Path) -> SimpleNamespace:
        env = envsim.make_env("pendulum", self.env_overrides)
        fresh = dynmodel.make_ensemble(env.n, env.m, hidden=(64, 64), members=3, seed=7)
        model, _ = dynmodel.train(fresh, random_rows(env, self.rows, 12345), self.train_opts)
        return SimpleNamespace(env=env, model=model, seed=seed,
                               l1cfg=l1core.default_l1_config(env.n, env.dt, eps_a=0.3))

    def op(self, st: SimpleNamespace, k: int) -> OpResult:
        costs, steps = [], 0
        for use_l1 in (False, True):
            # Both arms replay the same initial state and noise stream.
            rng = np.random.default_rng(op_seed(st.seed, k, self.quality_ops))
            res = mbrl.run_episode(st.env, self.dist, st.model, self.mpc, st.l1cfg, use_l1, rng)
            costs.append(-res.episode_return)
            steps += res.steps
        failures = [] if finite(*costs) else [f"non-finite episode cost {costs}"]
        return OpResult(work=steps, quality=tuple(costs), output=tuple(costs), failures=failures)

    def quality_ratio(self, results: list[OpResult]) -> float:
        """Mean L1-on cost over mean L1-off cost."""
        return float(np.mean([r.quality[1] for r in results]) / np.mean([r.quality[0] for r in results]))


class CartpoleLoop:
    """Criterion-9 augmented arm: collect, retrain, evaluate through ``l1aug run``."""

    name = "cartpole_loop"
    work_unit = "plant steps"
    setup_reps = 9
    quality_ops = 1
    config = CONFIG_DIR / "cartpole_loop.yaml"

    def setup(self, seed: int, workdir: Path) -> SimpleNamespace:
        cli_startup(workdir)
        template = yaml.safe_load(self.config.read_text())
        return SimpleNamespace(template=template, seed=seed, workdir=workdir,
                               horizon=template["env"]["overrides"]["horizon"])

    def op(self, st: SimpleNamespace, k: int) -> OpResult:
        out = Path(tempfile.mkdtemp(dir=st.workdir))
        cfg_path = out / "run.yaml"
        seed = op_seed(st.seed, k, self.quality_ops)
        cfg_path.write_text(yaml.safe_dump(dict(st.template, seeds=[seed], out=str(out))))
        records: list = []
        capture = Probe("mbrl.train_loop", "mbrl:train_loop", count=_keep_record(records))
        with Tracer((capture,)):
            code = invoke_cli(["run", str(cfg_path)])

        failures = [] if code == 0 else [f"l1aug run exited {code}"]
        with open(out / "episodes.csv", newline="") as fh:
            episodes = list(csv.DictReader(fh))
        with open(out / "trace.csv", newline="") as fh:
            trace = list(csv.DictReader(fh))
        steps = sum(int(e["steps"]) for e in episodes)
        if len(trace) != steps:
            failures.append(f"trace.csv has {len(trace)} rows for {steps} episode steps")
        failures += self._audit(records, trace)

        returns = [float(e["episode_return"]) for e in episodes]
        losses = json.loads((out / "meta.json").read_text())["losses"]
        loss_values = [v for row in losses for key in ("train_loss", "val_loss") for v in row[key]]
        if not finite(*returns, *loss_values):
            failures.append("non-finite return or loss")
        last = max(int(e["iteration"]) for e in episodes)
        final = [float(e["episode_return"]) for e in episodes if e["phase"] == "eval" and int(e["iteration"]) == last]
        if not final or np.mean(final) <= 0:
            failures.append(f"final evaluation returns {final} are not positive")
        output = (_digest(out / "trace.csv", out / "episodes.csv"), tuple(loss_values))
        return OpResult(work=steps, quality=(st.horizon, float(np.mean(final or [0.0]))), output=output,
                        failures=failures)

    @staticmethod
    def _audit(records: list, trace: list[dict]) -> list[str]:
        """Criterion-9 logging audit: the dataset stores the baseline input of every collect row."""
        if len(records) != 1 or records[0].dataset is None:
            return [f"expected one run record with a dataset, got {len(records)}"]
        _, u_logged, _ = records[0].dataset.as_arrays()
        collect = [row for row in trace if row["phase"] == "collect"]
        if len(collect) != len(u_logged):
            return [f"{len(collect)} collect rows but {len(u_logged)} dataset rows"]
        failures = []
        if any(float(row["u_rl0"]) != u[0] for row, u in zip(collect, u_logged)):
            failures.append("a dataset u_logged differs from the trace's u_rl0")
        if not any(row["u0"] != row["u_rl0"] for row in collect):
            failures.append("no collect row was augmented")
        return failures

    def quality_ratio(self, results: list[OpResult]) -> float:
        """Episode horizon over the mean final-iteration evaluation return (1 is a perfect score)."""
        return float(np.mean([r.quality[0] / r.quality[1] for r in results]))


class VerifyGrid:
    """Default estimation-error bound grid through ``l1aug verify``: no learned model at all."""

    name = "verify_grid"
    work_unit = "sampling intervals"
    setup_reps = 9
    quality_ops = 2
    config = CONFIG_DIR / "verify_grid.yaml"

    def setup(self, seed: int, workdir: Path) -> SimpleNamespace:
        cli_startup(workdir)
        return SimpleNamespace(template=yaml.safe_load(self.config.read_text()), seed=seed, workdir=workdir)

    def op(self, st: SimpleNamespace, k: int) -> OpResult:
        out = Path(tempfile.mkdtemp(dir=st.workdir))
        cfg_path = out / "verify.yaml"
        seed = op_seed(st.seed, k, self.quality_ops)
        cfg_path.write_text(yaml.safe_dump(dict(st.template, assumption_seed=seed, out=str(out))))
        code = invoke_cli(["verify", str(cfg_path)])

        failures = [] if code == 0 else [f"l1aug verify exited {code}"]
        report_path = out / "bound_report.json"
        report = json.loads(report_path.read_text())
        if report["pass"] is not True:
            failures.append("bound_report.json does not pass")
        per_ts = report["per_ts"]
        sups = [row[key] for row in per_ts for key in ("first_interval_max", "post_sup")]
        if not finite(*sups, report["assumption"]["sup_estimate"]):
            failures.append("non-finite sup")
        smallest = min(per_ts, key=lambda row: row["ts"])
        return OpResult(work=sum(row["n_intervals"] for row in per_ts),
                        quality=(smallest["post_sup"], report["first_interval_bound"]),
                        output=_digest(report_path), failures=failures)

    def quality_ratio(self, results: list[OpResult]) -> float:
        """Estimation-error sup after the first interval at the smallest ts, over eps_l + eps_a."""
        return float(np.mean([r.quality[0] / r.quality[1] for r in results]))


class ModelFit:
    """A fresh 3x(64,64) ensemble fitted for 60 epochs on random-input cartpole rows.

    The dataset is fixed (seed 2024); ``op_seed`` picks the ensemble's
    initialization and the shuffle order.
    """

    name = "model_fit"
    work_unit = "member-row-epochs"
    setup_reps = 3
    quality_ops = 2
    rows = 6000
    # Patience equal to the epoch budget: every fit runs all 60 epochs.
    train_opts = dynmodel.TrainOptions(max_epochs=60, patience=60)

    def setup(self, seed: int, workdir: Path) -> SimpleNamespace:
        env = envsim.make_env("cartpole")
        return SimpleNamespace(env=env, seed=seed, data=random_rows(env, self.rows, 2024))

    def op(self, st: SimpleNamespace, k: int) -> OpResult:
        seed = op_seed(st.seed, k, self.quality_ops)
        fresh = dynmodel.make_ensemble(st.env.n, st.env.m, hidden=(64, 64), members=3, seed=seed)
        _, report = dynmodel.train(fresh, st.data, replace(self.train_opts, seed=seed))
        n_val = max(1, int(round(self.train_opts.val_fraction * len(st.data))))
        val = tuple(report.best_val)
        failures = [] if finite(*val, *report.final_train) else ["non-finite loss"]
        return OpResult(work=(len(st.data) - n_val) * sum(report.epochs_run), quality=(float(np.mean(val)),),
                        output=val + tuple(report.final_train), failures=failures)

    def quality_ratio(self, results: list[OpResult]) -> float:
        """Mean best validation MSE over members, in normalized units."""
        return float(np.mean([r.quality[0] for r in results]))


WORKLOADS = {w.name: w for w in (PendulumRejection, CartpoleLoop, VerifyGrid, ModelFit)}
