"""Operator entry point: YAML configs in, reproducible CSV/JSON artifacts out.

Commands:
  run      train-and-evaluate loop per seed, optionally as an ablation grid
  verify   estimation-error bound experiment across a sampling-time grid
  compare  paired baseline-vs-augmented experiments on shared seeds

Every run directory receives a meta.json echoing the fully resolved config,
so a run is reproducible from its own outputs. Exit codes: 0 success,
1 config error, 2 criterion failure, 3 runtime abort.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import os
import sys
import traceback
import typing
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path

import click
import numpy as np
import yaml

from . import __version__
from .dynmodel import TrainOptions
from .envsim import ConfigError, DisturbanceSpec, make_env
from .l1core import default_l1_config
from .mbrl import (
    PHASE_EVAL,
    LoopConfig,
    MpcConfig,
    RunRecord,
    episode_rng,
    run_episode,
    train_loop,
)
from .verify import check_assumption_bound, grid_l1_configs, make_synthetic_spec, run_ts_grid

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_CRITERION = 2
EXIT_RUNTIME = 3

OUT_ROOT_ENV = "L1AUG_OUT_ROOT"

# Switching tolerance defaults per catalog environment (config-overridable).
EPS_A_DEFAULTS = {"cartpole": 1.0, "pendulum": 0.3, "double_integrator": 0.3}


# --- Config schema ----------------------------------------------------------
#
# The disturbance, mpc and loop sections are the library's own dataclasses, so
# the loader checks their values with the same rules the library applies.


@dataclass
class EnvSection:
    name: str = "pendulum"
    overrides: dict = field(default_factory=dict)


@dataclass
class ModelSection:
    """Ensemble shape plus the TrainOptions fields a config may set (not the seed)."""

    members: int = 3
    hidden: list[int] = field(default_factory=lambda: [64, 64])
    lr: float = 1e-3
    batch_size: int = 64
    max_epochs: int = 150
    patience: int = 10
    val_fraction: float = 0.2
    min_rows: int = 64

    def __post_init__(self):
        if self.members < 1 or not all(isinstance(w, int) and w >= 1 for w in self.hidden):
            raise ValueError("need members >= 1 and hidden a list of positive integer widths")


@dataclass
class L1Section:
    as_value: float = -1.0
    omega_factor: float = 0.35
    eps_a: float | None = None


@dataclass
class ExperimentConfig:
    """The sections a run and a compare config share."""

    name: str = "run"
    env: EnvSection = field(default_factory=EnvSection)
    model: ModelSection = field(default_factory=ModelSection)
    mpc: MpcConfig = field(default_factory=MpcConfig)
    l1: L1Section = field(default_factory=L1Section)
    loop: LoopConfig = field(default_factory=LoopConfig)
    seeds: list[int] = field(default_factory=lambda: [0])
    out: str | None = None


@dataclass
class RunConfig(ExperimentConfig):
    disturbance: DisturbanceSpec = field(default_factory=DisturbanceSpec)
    ablation_grid: bool = False


@dataclass
class SyntheticSection:
    preset: str = "default"
    params: dict = field(default_factory=dict)


@dataclass
class VerifyConfig:
    name: str = "bound"
    synthetic: SyntheticSection = field(default_factory=SyntheticSection)
    as_value: float = -1.0
    omega_factor: float = 0.35
    assumption_samples: int = 20000
    assumption_seed: int = 0
    out: str | None = None


@dataclass
class CompareConfig(ExperimentConfig):
    name: str = "compare"
    scenarios: list[DisturbanceSpec] = field(default_factory=lambda: [DisturbanceSpec()])
    sim_to_real: bool = False
    report_window: int = 5


@contextmanager
def _config_section(path: str):
    """Report a ValueError or TypeError raised while building ``path`` as a ConfigError."""
    try:
        yield
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _from_dict(cls, data, path="config"):
    """Build a config dataclass, rejecting unknown keys and invalid values at every level."""
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected a mapping, got {type(data).__name__}")
    hints = typing.get_type_hints(cls)
    allowed = sorted(f.name for f in dataclasses.fields(cls))
    unknown = set(data) - set(allowed)
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}; allowed: {allowed}")
    kwargs = {name: _load_value(hints[name], value, f"{path}.{name}") for name, value in data.items()}
    with _config_section(path):
        return cls(**kwargs)


# The types each scalar hint accepts and the wording of a mismatch; a bool passes only a bool hint.
_SCALARS = {bool: ((bool,), "true or false"), int: ((int,), "an integer"),
            float: ((int, float), "a number"), str: ((str,), "a string")}


def _load_value(hint, value, path):
    """One config value checked against its type hint: a section, a list or a scalar (``X | None`` takes None)."""
    if dataclasses.is_dataclass(hint):
        return _from_dict(hint, value, path)
    if typing.get_origin(hint) is list:
        if not isinstance(value, list):
            raise ConfigError(f"{path}: expected a list, got {value!r}")
        (item,) = typing.get_args(hint)
        return [_load_value(item, v, f"{path}[{i}]") for i, v in enumerate(value)]
    if type(None) in typing.get_args(hint):  # X | None
        if value is None:
            return value
        hint = typing.get_args(hint)[0]
    if hint in _SCALARS:
        accepted, expected = _SCALARS[hint]
        if not isinstance(value, accepted) or (isinstance(value, bool) and hint is not bool):
            raise ConfigError(f"{path}: expected {expected}, got {value!r}")
    return value


def load_config(cls, path: str | Path):
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML: {exc}") from exc
    return _from_dict(cls, raw, path=str(path))


def _build_pieces(cfg: ExperimentConfig):
    """The env, L1Config and TrainOptions a loaded run or compare config describes."""
    with _config_section("env"):
        env = make_env(cfg.env.name, cfg.env.overrides)
    with _config_section("l1"):
        l1cfg = default_l1_config(env.n, env.dt, cfg.l1.eps_a, cfg.l1.as_value, cfg.l1.omega_factor)
    m = cfg.model
    with _config_section("model"):
        opts = TrainOptions(lr=m.lr, batch_size=m.batch_size, max_epochs=m.max_epochs, patience=m.patience,
                            val_fraction=m.val_fraction, min_rows=m.min_rows)
    first_rows = cfg.loop.episodes_per_iteration * env.horizon
    if cfg.loop.iterations and first_rows < opts.min_rows:
        raise ConfigError(
            f"loop: the first iteration collects at most {first_rows} rows "
            f"(episodes_per_iteration x env horizon {env.horizon}), fewer than model.min_rows {opts.min_rows}"
        )
    return env, l1cfg, opts


def resolve_config(cfg: ExperimentConfig, seed_override: tuple[int, ...] = (), out_override: str | None = None):
    """Fill in the eps_a, out and seed defaults of a run or compare config; check it builds."""
    if cfg.l1.eps_a is None:
        cfg.l1.eps_a = EPS_A_DEFAULTS.get(cfg.env.name, 0.3)
    if out_override:
        cfg.out = out_override
    elif cfg.out is None:
        cfg.out = f"runs/{cfg.name}"
    cfg.seeds = list(seed_override or cfg.seeds)
    if not cfg.seeds:
        raise ConfigError("seeds list must not be empty")
    if any(seed < 0 for seed in cfg.seeds):
        raise ConfigError(f"seeds must be >= 0, got {cfg.seeds}")
    if len(set(cfg.seeds)) < len(cfg.seeds):
        raise ConfigError(f"seeds must not repeat, got {cfg.seeds}")
    _build_pieces(cfg)
    return cfg


def _config_error(exc: ConfigError):
    click.echo(f"config error: {exc}", err=True)
    sys.exit(EXIT_CONFIG)


def out_dir(path_str: str) -> Path:
    path = Path(path_str)
    root = os.environ.get(OUT_ROOT_ENV)
    if root and not path.is_absolute():
        path = Path(root) / path
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_meta(directory: Path, cfg, extra: dict | None = None) -> None:
    meta = {"version": __version__, "config": dataclasses.asdict(cfg)}
    if extra:
        meta.update(extra)
    with open(directory / "meta.json", "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _map_jobs(fn, calls: list[tuple], jobs: int):
    """Yield ``fn(*call)`` for each call in order: in ``jobs`` worker processes when jobs > 1, else here."""
    if jobs <= 1:
        yield from map(fn, *zip(*calls))
        return
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        yield from pool.map(fn, *zip(*calls))


# --- run --------------------------------------------------------------------


def _run_one_seed(cfg: RunConfig, seed: int) -> RunRecord:
    env, l1cfg, opts = _build_pieces(cfg)
    record, _ = train_loop(env, cfg.disturbance, cfg.loop, cfg.mpc, l1cfg, train_opts=opts,
                           members=cfg.model.members, hidden=tuple(cfg.model.hidden), seed=seed)
    return record


def _emit_run_outputs(directory: Path, cfg: RunConfig, records: list[tuple[int, RunRecord]]) -> None:
    if not records:
        return
    merged = RunRecord(n=records[0][1].n, m=records[0][1].m)
    curve_rows = []
    for seed, record in records:
        merged.episodes.extend(record.episodes)
        merged.iteration_losses.extend(dict(row, seed=seed) for row in record.iteration_losses)
        for iteration, returns in record.eval_returns.items():
            curve_rows.append([iteration, seed, float(np.mean(returns)), float(np.std(returns))])
    merged.write_trace_csv(directory / "trace.csv")
    merged.write_episodes_csv(directory / "episodes.csv")
    with open(directory / "learning_curve.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["iteration", "seed", "mean_return", "std_return"])
        writer.writerows(curve_rows)
    _write_meta(directory, cfg, {"losses": merged.iteration_losses})


def _grid_variants(cfg: RunConfig) -> list[RunConfig]:
    variants = []
    for l1_train in (False, True):
        for l1_test in (False, True):
            tag = f"l1_{'on' if l1_train else 'off'}_{'on' if l1_test else 'off'}"
            variants.append(replace(
                cfg, name=f"{cfg.name}_{tag}", out=str(Path(cfg.out) / tag), ablation_grid=False,
                loop=replace(cfg.loop, l1_train=l1_train, l1_test=l1_test),
            ))
    return variants


@click.group()
@click.version_option(version=__version__)
def main():
    """Adaptive-augmentation experiments for model-based RL."""


@main.command("run")
@click.argument("config_path", type=click.Path())
@click.option("--seed-override", "-s", multiple=True, type=int, help="Replace the config seed list.")
@click.option("--out", "out_override", default=None, help="Override the output directory.")
@click.option("--jobs", default=1, show_default=True, help="Worker processes across seeds.")
def cmd_run(config_path, seed_override, out_override, jobs):
    """Execute the train-and-evaluate loop for every seed in the config."""
    try:
        cfg = resolve_config(load_config(RunConfig, config_path), seed_override, out_override)
    except ConfigError as exc:
        _config_error(exc)

    configs = _grid_variants(cfg) if cfg.ablation_grid else [cfg]
    for sub in configs:
        directory = out_dir(sub.out)
        records: list[tuple[int, RunRecord]] = []
        try:
            for seed, record in zip(sub.seeds, _map_jobs(_run_one_seed, [(sub, seed) for seed in sub.seeds], jobs)):
                records.append((seed, record))
        except Exception:
            _emit_run_outputs(directory, sub, records)
            click.echo("runtime abort; partial outputs flushed", err=True)
            traceback.print_exc()
            sys.exit(EXIT_RUNTIME)
        _emit_run_outputs(directory, sub, records)
        click.echo(f"wrote {directory}")
    sys.exit(EXIT_OK)


# --- verify -------------------------------------------------------------------


@main.command("verify")
@click.argument("config_path", type=click.Path())
@click.option("--out", "out_override", default=None, help="Override the output directory.")
def cmd_verify(config_path, out_override):
    """Run the estimation-error bound experiment across the sampling grid."""
    try:
        cfg = load_config(VerifyConfig, config_path)
        if cfg.out is None:
            cfg.out = f"runs/{cfg.name}"
        if out_override:
            cfg.out = out_override
        with _config_section(f"{config_path}.synthetic"):
            spec = make_synthetic_spec(cfg.synthetic.preset, **cfg.synthetic.params)
        with _config_section(config_path):
            grid_l1_configs(spec, cfg.as_value, cfg.omega_factor)
            if cfg.assumption_samples < 1 or cfg.assumption_seed < 0:
                raise ValueError("need assumption_samples >= 1 and assumption_seed >= 0")
    except ConfigError as exc:
        _config_error(exc)

    directory = out_dir(cfg.out)
    try:
        report = run_ts_grid(spec, as_value=cfg.as_value, omega_factor=cfg.omega_factor)
        assumption = check_assumption_bound(
            spec, cfg.assumption_samples, np.random.default_rng(cfg.assumption_seed)
        )
        report["assumption"] = assumption
        report["pass"] = bool(report["pass"] and assumption["passed"])
        with open(directory / "bound_report.json", "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        _write_meta(directory, cfg)
    except Exception:
        traceback.print_exc()
        sys.exit(EXIT_RUNTIME)

    for row in report["per_ts"]:
        if row["switch_storm"]:
            click.echo(
                f"warning: switch storm at ts={row['ts']:g} "
                f"({row['switch_count']}/{row['n_intervals']} intervals); consider raising eps_a",
                err=True,
            )
    click.echo(f"wrote {directory / 'bound_report.json'} (pass={report['pass']})")
    sys.exit(EXIT_OK if report["pass"] else EXIT_CRITERION)


# --- compare ------------------------------------------------------------------


def _final_window_mean(record: RunRecord, window: int) -> float:
    ordered = [r for returns in record.eval_returns.values() for r in returns]
    tail = ordered[-window:] if window > 0 else ordered
    return float(np.mean(tail))


def _compare_cell(cfg: CompareConfig, scenario: DisturbanceSpec, seed: int, use_l1: bool) -> float:
    """Final-window return for one (scenario, seed, arm) cell."""
    env, l1cfg, opts = _build_pieces(cfg)
    model_kw = dict(train_opts=opts, members=cfg.model.members, hidden=tuple(cfg.model.hidden), seed=seed)
    if cfg.sim_to_real:
        # Train clean without augmentation, then deploy on the disturbed system.
        loop = replace(cfg.loop, l1_train=False, l1_test=False)
        _, model = train_loop(env, DisturbanceSpec(), loop, cfg.mpc, l1cfg, **model_kw)
        returns = []
        for ep in range(cfg.loop.eval_episodes):
            result = run_episode(env, scenario, model, cfg.mpc, l1cfg, use_l1,
                                 episode_rng(seed, 10_000, ep, PHASE_EVAL))
            returns.append(result.episode_return)
        return float(np.mean(returns))

    loop = replace(cfg.loop, l1_train=use_l1, l1_test=use_l1)
    record, _ = train_loop(env, scenario, loop, cfg.mpc, l1cfg, **model_kw)
    return _final_window_mean(record, cfg.report_window)


def _sign_test_p(wins: int, losses: int) -> float:
    """Two-sided exact binomial p-value for a paired sign test."""
    n = wins + losses
    if n == 0:
        return 1.0
    k = max(wins, losses)
    tail = sum(math.comb(n, i) for i in range(k, n + 1)) / 2**n
    return min(1.0, 2.0 * tail)


@main.command("compare")
@click.argument("config_path", type=click.Path())
@click.option("--seed-override", "-s", multiple=True, type=int, help="Replace the config seed list.")
@click.option("--out", "out_override", default=None, help="Override the output directory.")
@click.option("--jobs", default=1, show_default=True, help="Worker processes across cells.")
def cmd_compare(config_path, seed_override, out_override, jobs):
    """Paired baseline-vs-augmented runs per scenario on shared seeds."""
    try:
        cfg = resolve_config(load_config(CompareConfig, config_path), seed_override, out_override)
        if not cfg.scenarios:
            raise ConfigError("scenarios must be a non-empty list")
    except ConfigError as exc:
        _config_error(exc)

    directory = out_dir(cfg.out)
    cells = [(si, seed, use_l1) for si in range(len(cfg.scenarios)) for seed in cfg.seeds for use_l1 in (False, True)]
    try:
        calls = [(cfg, cfg.scenarios[si], seed, use_l1) for si, seed, use_l1 in cells]
        results = dict(zip(cells, _map_jobs(_compare_cell, calls, jobs)))
    except Exception:
        traceback.print_exc()
        sys.exit(EXIT_RUNTIME)

    def scenario_label(s: DisturbanceSpec) -> str:
        bits = [s.kind]
        for key in ("amplitude", "frequency", "sigma_a", "sigma_o"):
            if getattr(s, key):
                bits.append(f"{key}={getattr(s, key):g}")
        return "_".join(bits)

    rows = [["scenario", "arm", "mean_return", "std_return", "n_seeds", "l1_wins", "l1_losses", "sign_p"]]
    for si, scenario in enumerate(cfg.scenarios):
        base = [results[(si, seed, False)] for seed in cfg.seeds]
        aug = [results[(si, seed, True)] for seed in cfg.seeds]
        wins = sum(a > b for a, b in zip(aug, base))
        losses = sum(a < b for a, b in zip(aug, base))
        p = _sign_test_p(wins, losses)
        label = scenario_label(scenario)
        for arm, vals in (("baseline", base), ("l1", aug)):
            rows.append([label, arm, float(np.mean(vals)), float(np.std(vals)), len(vals), wins, losses, p])
    with open(directory / "comparison.csv", "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    _write_meta(directory, cfg)
    click.echo(f"wrote {directory / 'comparison.csv'}")
    sys.exit(EXIT_OK)


if __name__ == "__main__":
    main()
