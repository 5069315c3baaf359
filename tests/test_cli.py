import concurrent.futures
import csv
import dataclasses
import gc
import json
import multiprocessing
import os
import subprocess
import sys
import time
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

import l1aug
from l1aug import cli, dynmodel, mbrl, pool, verify
from l1aug.cli import CompareConfig, EnvSection, RunConfig, VerifyConfig, _from_dict, load_config, resolve_config
from l1aug.dynmodel import TrainOptions
from l1aug.envsim import ConfigError, DisturbanceSpec
from l1aug.l1core import L1Config, default_l1_config
from l1aug.mbrl import EPISODE_COLUMNS, LoopConfig, MpcConfig, trace_columns
from l1aug.verify import grid_l1_configs, make_synthetic_spec

from conftest import CAN_FORK, die_in_episode_worker, die_in_first_group, force_training_path, force_usable_cpus


# The directory this test run imported l1aug from. A relative PYTHONPATH entry
# (`PYTHONPATH=src`) does not resolve from the child's cwd, so the child is
# given this absolute path ahead of any entries it already has.
L1AUG_ROOT = str(Path(l1aug.__file__).resolve().parents[1])


def run_cli(args, cwd, env=None):
    """Run `python -m l1aug.cli` in a child process that imports this run's l1aug."""
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [L1AUG_ROOT, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "l1aug.cli", *args],
        capture_output=True, text=True, cwd=cwd, env=env,
    )


def write_yaml(path, data):
    with open(path, "w") as fh:
        yaml.safe_dump(data, fh)
    return path


# An experiment that runs in seconds.
TINY_EXPERIMENT = {
    "env": {"name": "double_integrator", "overrides": {"horizon": 40}},
    "model": {"members": 2, "hidden": [16, 16], "max_epochs": 8, "min_rows": 32},
    "mpc": {"horizon": 4, "n_candidates": 16},
    "loop": {"iterations": 1, "episodes_per_iteration": 2, "eval_episodes": 1},
    "seeds": [0],
}


@pytest.fixture
def tiny_run_cfg(tmp_path):
    return write_yaml(tmp_path / "run.yaml", {"name": "tiny", **TINY_EXPERIMENT, "out": str(tmp_path / "out")})


def test_unknown_top_level_key_rejected(tmp_path):
    path = write_yaml(tmp_path / "bad.yaml", {"name": "x", "environment": {}})
    with pytest.raises(ConfigError, match="unknown keys"):
        load_config(RunConfig, path)


def test_unknown_nested_key_rejected(tmp_path):
    path = write_yaml(tmp_path / "bad.yaml", {"name": "x", "loop": {"iters": 3}})
    with pytest.raises(ConfigError, match="loop"):
        load_config(RunConfig, path)


def test_missing_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(RunConfig, tmp_path / "nope.yaml")


def test_eps_a_default_resolution(tmp_path):
    path = write_yaml(tmp_path / "r.yaml", {"name": "x", "env": {"name": "cartpole"}})
    cfg = resolve_config(load_config(RunConfig, path))
    assert cfg.l1.eps_a == 1.0
    path2 = write_yaml(tmp_path / "r2.yaml", {"name": "x", "env": {"name": "pendulum"}})
    cfg2 = resolve_config(load_config(RunConfig, path2))
    assert cfg2.l1.eps_a == 0.3


def test_cli_run_invalid_config_exits_1(tmp_path):
    path = write_yaml(tmp_path / "bad.yaml", {"name": "x", "env": {"name": "hovercraft"}})
    proc = run_cli(["run", str(path)], cwd=tmp_path)
    assert proc.returncode == 1
    assert "config error" in proc.stderr


@pytest.mark.parametrize("command,data", [
    ("run", {"mpc": {"horizon": 0}}),
    ("run", {"l1": {"omega_factor": 5}}),
    ("run", {"model": {"batch_size": 0}}),
    ("run", {"model": {"members": 0}}),
    ("compare", {"mpc": {"horizon": 0}}),
    ("verify", {"omega_factor": 5.0}),
    ("run", {"env": {"overrides": {"horizon": 5}}, "loop": {"iterations": 1, "episodes_per_iteration": 1}}),
    ("compare", {"env": {"overrides": {"horizon": 5}}, "loop": {"episodes_per_iteration": 2}}),
    ("run", {"ablation_grid": "false"}),
    ("run", {"loop": {"l1_train": "false"}}),
    ("compare", {"sim_to_real": "false"}),
    ("compare", {"loop": {"l1_test": 0}}),
    ("run", {"mpc": {"n_candidates": 16.0}}),
    ("run", {"loop": {"eval_episodes": 1.5}}),
    ("run", {"model": {"max_epochs": 8.0}}),
    ("run", {"mpc": {"horizon": True}}),
    ("run", {"seeds": [0, 1.5]}),
    ("run", {"seeds": [True]}),
    ("run", {"seeds": 3}),
    ("compare", {"report_window": 2.5}),
    ("compare", {"scenarios": []}),
    ("compare", {"scenarios": {"kind": "none"}}),
    ("compare", {"scenarios": [{"kind": "none"}, {"kind": "bogus"}]}),
    ("verify", {"assumption_samples": 100.0}),
    ("run", {"env": {"overrides": {"horizon": 40.0}}}),
    ("run", {"model": {"hidden": [True, 16]}}),
    ("run", {"seeds": [-1]}),
    ("compare", {"seeds": [0, -3]}),
    ("verify", {"assumption_seed": -1}),
    ("run", {"disturbance": {"amplitude": float("nan")}}),
    ("run", {"disturbance": {"sigma_a": float("inf")}}),
    ("run", {"l1": {"eps_a": float("nan")}}),
    ("verify", {"synthetic": {"params": {"eps_a": float("nan")}}}),
    ("verify", {"synthetic": {"params": {"ts_grid": 0.01}}}),
    ("run", {"model": {"lr": True}}),
    ("run", {"disturbance": {"amplitude": True}}),
    ("run", {"disturbance": {"sigma_a": True}}),
    ("run", {"l1": {"eps_a": True}}),
    ("run", {"l1": {"omega_factor": True}}),
    ("run", {"model": {"lr": "1e-3"}}),
    ("verify", {"synthetic": {"params": {"t_max": 0.02}}}),
    ("verify", {"synthetic": {"params": {"t_max": float("inf")}}}),
    ("run", {"out": 5}),
    ("compare", {"out": 5}),
    ("run", {"name": 7}),
    ("compare", {"name": 7}),
    ("run", {"seeds": [0, 0]}),
    ("compare", {"seeds": [0, 0]}),
    ("run", {"disturbance": {"amplitude": 0.3}}),
    ("run", {"disturbance": {"kind": "constant_matched", "amplitude": 0.3, "frequency": 0.5}}),
    ("compare", {"report_window": -2}),
    ("run", {"disturbance": {"kind": "constant_matched"}}),
    ("run", {"disturbance": {"kind": "sinusoid_matched", "amplitude": 0.3}}),
    ("compare", {"loop": {"l1_train": False}}),
    ("run", {"ablation_grid": True, "loop": {"l1_test": False}}),
    ("run", {"env": {"overrides": {"dt": True}}}),
    ("verify", {"synthetic": {"params": {"eps_a": True}}}),
    ("verify", {"synthetic": {"params": {"ts_grid": [True]}}}),
    ("run", {"env": {"name": "pendulum", "overrides": {"mass": 0.0}}}),
    ("run", {"env": {"name": "pendulum", "overrides": {"length": -1.0}}}),
    ("run", {"env": {"name": "cartpole", "overrides": {"cart_mass": -0.1}}}),
])
def test_cli_invalid_value_is_config_error(tmp_path, command, data):
    # run and compare cases override sections of the tiny experiment key by key, so a
    # case that the loader stopped rejecting runs for seconds before it fails.
    base = {"out": str(tmp_path / "out"), **(TINY_EXPERIMENT if command != "verify" else {})}
    for key, value in data.items():
        base[key] = {**base[key], **value} if isinstance(base.get(key), dict) and isinstance(value, dict) else value
    path = write_yaml(tmp_path / "bad.yaml", base)
    proc = run_cli([command, str(path)], cwd=tmp_path)
    assert proc.returncode == 1, proc.stderr
    assert "config error" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert [p.name for p in tmp_path.iterdir()] == ["bad.yaml"]


def test_string_fields_must_be_strings():
    for data, key in (({"out": 5}, "out"), ({"name": 7}, "name"), ({"env": {"name": 1}}, "env.name"),
                      ({"disturbance": {"kind": False}}, "disturbance.kind")):
        with pytest.raises(ConfigError, match=rf"config\.{key}: expected a string"):
            _from_dict(RunConfig, data)
    assert _from_dict(RunConfig, {"out": None}).out is None


def test_float_fields_must_be_numbers():
    for section, key in (("model", "lr"), ("l1", "eps_a"), ("disturbance", "amplitude")):
        for value in (True, "1e-3"):
            with pytest.raises(ConfigError, match=rf"config\.{section}\.{key}: expected a number"):
                _from_dict(RunConfig, {section: {key: value}})
    cfg = _from_dict(RunConfig, {"model": {"lr": 1}, "l1": {"eps_a": None, "as_value": -2}})
    assert (cfg.model.lr, cfg.l1.eps_a, cfg.l1.as_value) == (1, None, -2)


COMMITTED_CONFIGS = sorted((Path(L1AUG_ROOT).parent / "configs").glob("*.yaml")) + sorted(
    (Path(L1AUG_ROOT).parent / "bench" / "configs").glob("*.yaml"))


def test_committed_configs_load_unchanged():
    """Every YAML config in the repo loads and builds as its kind: ``verify*``, ``compare*`` or a run."""
    assert len(COMMITTED_CONFIGS) >= 5
    for path in COMMITTED_CONFIGS:
        if path.stem.startswith("verify"):
            cfg = load_config(VerifyConfig, path)
            spec = make_synthetic_spec(cfg.synthetic.preset, **cfg.synthetic.params)
            assert len(grid_l1_configs(spec, cfg.as_value, cfg.omega_factor)) == len(spec.ts_grid)
        else:
            resolve_config(load_config(CompareConfig if path.stem.startswith("compare") else RunConfig, path))


@pytest.mark.parametrize("hidden", [[True, 16], [16, 8.0], [16, False]])
def test_hidden_widths_must_be_integers(hidden):
    with pytest.raises(ConfigError, match=r"config\.model\.hidden\[\d\]: expected an integer"):
        _from_dict(RunConfig, {"model": {"hidden": hidden}})
    assert _from_dict(RunConfig, {"model": {"hidden": [16, 8]}}).model.hidden == [16, 8]


def test_compare_scenarios_load_as_disturbance_specs(tmp_path):
    path = write_yaml(tmp_path / "c.yaml", {"scenarios": [{"kind": "none"}, {"kind": "action_noise", "sigma_a": 0.1}]})
    cfg = load_config(CompareConfig, path)
    assert cfg.scenarios == [DisturbanceSpec(), DisturbanceSpec(kind="action_noise", sigma_a=0.1)]
    assert _from_dict(CompareConfig, dataclasses.asdict(cfg)) == cfg
    assert CompareConfig().scenarios == [DisturbanceSpec()]
    bad = write_yaml(tmp_path / "bad.yaml", {"scenarios": [{"kind": "none"}, {"kind": "none", "sigma": 1}]})
    with pytest.raises(ConfigError, match=r"bad\.yaml\.scenarios\[1\]: unknown keys"):
        load_config(CompareConfig, bad)
    with pytest.raises(ConfigError, match="scenarios must be a non-empty list"):
        load_config(CompareConfig, write_yaml(tmp_path / "empty.yaml", {"scenarios": []}))


RUN_KEYS = {
    "": {"name", "env", "disturbance", "model", "mpc", "l1", "loop", "seeds", "out", "ablation_grid"},
    "env": {"name", "overrides"},
    "disturbance": {"kind", "amplitude", "frequency", "sigma_a", "sigma_o"},
    "model": {"members", "hidden", "lr", "batch_size", "max_epochs", "patience", "val_fraction", "min_rows"},
    "mpc": {"horizon", "n_candidates"},
    "l1": {"as_value", "omega_factor", "eps_a"},
    "loop": {"iterations", "episodes_per_iteration", "eval_episodes", "l1_train", "l1_test", "l1_warmup_iterations"},
}
VERIFY_KEYS = {
    "": {"name", "synthetic", "as_value", "omega_factor", "assumption_samples", "assumption_seed", "out"},
    "synthetic": {"preset", "params"},
}
COMPARE_KEYS = dict(
    {k: v for k, v in RUN_KEYS.items() if k != "disturbance"},
    **{"": {"name", "env", "scenarios", "model", "mpc", "l1", "loop", "sim_to_real", "seeds", "out",
            "report_window"}},
)


@pytest.mark.parametrize("cls,keys", [(RunConfig, RUN_KEYS), (VerifyConfig, VERIFY_KEYS), (CompareConfig, COMPARE_KEYS)])
def test_config_section_key_sets(cls, keys):
    for section, expected in keys.items():
        data = {"bogus": 1} if not section else {section: {"bogus": 1}}
        with pytest.raises(ConfigError, match="unknown keys") as info:
            _from_dict(cls, data)
        assert set(yaml.safe_load(str(info.value).split("allowed: ")[1])) == expected, section
    if "model" in keys:  # TrainOptions.seed is derived per run and seed, never configured
        with pytest.raises(ConfigError, match=r"\['seed'\]"):
            _from_dict(cls, {"model": {"seed": 1}})


def test_cli_run_outputs_and_determinism(tiny_run_cfg, tmp_path):
    out = tmp_path / "out"
    proc = run_cli(["run", str(tiny_run_cfg)], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    for name in ("trace.csv", "episodes.csv", "learning_curve.csv", "meta.json"):
        assert (out / name).exists()
    first = {name: (out / name).read_bytes() for name in ("trace.csv", "episodes.csv", "learning_curve.csv")}

    proc = run_cli(["run", str(tiny_run_cfg)], cwd=tmp_path)
    assert proc.returncode == 0
    for name, blob in first.items():
        assert (out / name).read_bytes() == blob


@pytest.mark.parametrize("command, outputs", [
    ("run", ("trace.csv", "episodes.csv", "learning_curve.csv", "meta.json")),
    ("compare", ("comparison.csv", "meta.json")),
], ids=["run", "compare"])
def test_cli_jobs_two_writes_the_same_bytes_as_jobs_one(tiny_run_cfg, tmp_path, monkeypatch, command, outputs):
    # Seeds and cells map over the usable CPUs: one runs them here in turn,
    # two in two workers. Both must write the same bytes.
    blobs = []
    for cpus in (1, 2):
        force_usable_cpus(monkeypatch, cpus)
        out = tmp_path / "out"
        result = CliRunner().invoke(cli.main, [command, str(tiny_run_cfg), "--out", str(out), "-s", "0", "-s", "1"])
        assert result.exit_code == 0, result.output
        blobs.append({name: (out / name).read_bytes() for name in outputs})
    assert blobs[0] == blobs[1]


@pytest.mark.parametrize("cpus", [1, 2])
def test_cli_run_flushes_earlier_seeds_when_a_seed_raises(tiny_run_cfg, tmp_path, monkeypatch, cpus):
    force_usable_cpus(monkeypatch, cpus)
    clean = tmp_path / "clean"
    assert run_cli(["run", str(tiny_run_cfg), "--out", str(clean), "-s", "0"], cwd=tmp_path).returncode == 0
    real_train_loop = cli.train_loop

    def train_loop(*args, seed, **kwargs):
        if seed == 1:
            raise RuntimeError("seed 1 fails")
        return real_train_loop(*args, seed=seed, **kwargs)

    monkeypatch.setattr(cli, "train_loop", train_loop)
    out = tmp_path / "partial"
    result = CliRunner().invoke(cli.main, ["run", str(tiny_run_cfg), "--out", str(out), "-s", "0", "-s", "1"])
    assert result.exit_code == 3
    assert "partial outputs flushed" in result.output
    assert multiprocessing.active_children() == []
    for name in ("trace.csv", "episodes.csv", "learning_curve.csv"):
        assert (out / name).read_bytes() == (clean / name).read_bytes()


def test_cli_run_flushes_earlier_seeds_when_a_member_worker_dies(tiny_run_cfg, tmp_path, monkeypatch):
    # The seed map is held to one CPU while training sees two, as in a
    # one-seed run, so the seeds run here in turn and seed 1's members fan
    # out. The worker of member 0 dies: the run must abort promptly with
    # seed 0's outputs flushed and no worker left.
    force_training_path(monkeypatch, "fan-out")
    monkeypatch.setattr(cli, "pool", SimpleNamespace(map_jobs=pool.map_jobs, usable_cpus=lambda: 1))
    clean = tmp_path / "clean"
    assert run_cli(["run", str(tiny_run_cfg), "--out", str(clean), "-s", "0"], cwd=tmp_path).returncode == 0
    real_train_loop = cli.train_loop

    def train_loop(*args, seed, **kwargs):
        if seed == 1:
            monkeypatch.setattr(dynmodel, "_fit", die_in_first_group)
        return real_train_loop(*args, seed=seed, **kwargs)

    monkeypatch.setattr(cli, "train_loop", train_loop)
    out = tmp_path / "partial"
    result = CliRunner().invoke(cli.main, ["run", str(tiny_run_cfg), "--out", str(out), "-s", "0", "-s", "1"])
    assert result.exit_code == 3
    assert "partial outputs flushed" in result.output
    assert multiprocessing.active_children() == []
    for name in ("trace.csv", "episodes.csv", "learning_curve.csv"):
        assert (out / name).read_bytes() == (clean / name).read_bytes()


def test_cli_run_flushes_earlier_seeds_when_a_seed_worker_dies(tiny_run_cfg, tmp_path, monkeypatch):
    # Seeds 0 and 1 start in the two workers, and seed 2 waits for the first
    # to come free. Seed 1's worker exits once seed 2 has started, so seed 0's
    # result is back by then: the run must flush seed 0 alone, exit 3 and
    # leave no worker.
    force_usable_cpus(monkeypatch, 2)
    clean = tmp_path / "clean"
    assert run_cli(["run", str(tiny_run_cfg), "--out", str(clean), "-s", "0"], cwd=tmp_path).returncode == 0
    real_train_loop = cli.train_loop
    seed_2_started = tmp_path / "seed_2_started"

    def train_loop(*args, seed, **kwargs):
        if seed == 1:
            if multiprocessing.parent_process() is None:
                raise AssertionError("seeds must run in forked workers")
            deadline = time.monotonic() + 60.0
            while not seed_2_started.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            os._exit(7)
        if seed == 2:
            seed_2_started.touch()
        return real_train_loop(*args, seed=seed, **kwargs)

    monkeypatch.setattr(cli, "train_loop", train_loop)
    out = tmp_path / "partial"
    result = CliRunner().invoke(cli.main, ["run", str(tiny_run_cfg), "--out", str(out), "-s", "0", "-s", "1",
                                           "-s", "2"])
    assert seed_2_started.exists()
    assert result.exit_code == 3
    assert "partial outputs flushed" in result.output
    assert multiprocessing.active_children() == []
    for name in ("trace.csv", "episodes.csv", "learning_curve.csv"):
        assert (out / name).read_bytes() == (clean / name).read_bytes()


@pytest.mark.parametrize("cpus", [1, 2])
def test_cli_compare_flushes_finished_scenarios_when_a_cell_raises(tmp_path, monkeypatch, cpus):
    # Cells run scenario by scenario; one of the second scenario's raises.
    # The first scenario's rows must be written as a clean run writes them.
    force_usable_cpus(monkeypatch, cpus)
    cfg = write_yaml(tmp_path / "c.yaml", {**TINY_EXPERIMENT, "name": "cmp",
                                           "scenarios": [{"kind": "none"}, {"kind": "action_noise", "sigma_a": 0.1}]})
    clean, out = tmp_path / "clean", tmp_path / "partial"
    assert run_cli(["compare", str(cfg), "--out", str(clean)], cwd=tmp_path).returncode == 0
    real_train_loop = cli.train_loop

    def train_loop(env, dist, loop, *args, **kwargs):
        if dist.kind == "action_noise" and loop.l1_train:
            raise RuntimeError("a cell of the second scenario fails")
        return real_train_loop(env, dist, loop, *args, **kwargs)

    monkeypatch.setattr(cli, "train_loop", train_loop)
    result = CliRunner().invoke(cli.main, ["compare", str(cfg), "--out", str(out)])
    assert result.exit_code == 3
    assert "partial outputs flushed" in result.output
    assert multiprocessing.active_children() == []
    assert (out / "comparison.csv").read_text().splitlines() == (clean / "comparison.csv").read_text().splitlines()[:3]
    assert (out / "meta.json").read_text().replace(str(out), str(clean)) == (clean / "meta.json").read_text()


def test_cli_run_exits_3_when_an_episode_worker_dies(tiny_run_cfg, tmp_path, monkeypatch):
    # A one-seed run maps its episodes over two CPUs, and an episode's
    # worker exits: the run must abort with exit 3 and leave no worker.
    force_usable_cpus(monkeypatch, 2)
    monkeypatch.setattr(mbrl, "run_episode", die_in_episode_worker)
    out = tmp_path / "out"
    result = CliRunner().invoke(cli.main, ["run", str(tiny_run_cfg), "--out", str(out)])
    assert result.exit_code == 3
    assert "runtime abort; partial outputs flushed" in result.output
    assert "BrokenProcessPool" in result.output
    assert multiprocessing.active_children() == []
    assert not (out / "trace.csv").exists()


def test_cli_jobs_never_exceed_the_calls(tiny_run_cfg, tmp_path, monkeypatch):
    # With eight CPUs, two seeds ask the seed map for two workers; each
    # seed's first batch of episodes (one eval, two collect) asks for three,
    # its two member groups ask training's map for two, and its last batch
    # (one eval) runs without a pool: no map may ask for more workers than
    # it has calls. The calls run inline here.
    force_usable_cpus(monkeypatch, 8)
    executors = []

    class InlineExecutor:
        def __init__(self, max_workers, **kwargs):
            self.max_workers, self.calls = max_workers, 0
            executors.append(self)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            self.calls += 1
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlineExecutor)
    out = tmp_path / "cpus8"
    result = CliRunner().invoke(cli.main, ["run", str(tiny_run_cfg), "--out", str(out), "-s", "0", "-s", "1"])
    assert result.exit_code == 0, result.output
    assert [(e.max_workers, e.calls) for e in executors] == [(2, 2)] + [(3, 3), (2, 2)] * 2
    assert multiprocessing.active_children() == []


def test_usable_cpus_is_the_affinity_here_and_one_in_a_worker():
    # A seed worker sees one CPU, so its training keeps one group in-process
    # instead of nesting a pool.
    if not CAN_FORK or not hasattr(os, "sched_getaffinity"):
        pytest.skip("needs fork and sched_getaffinity")
    assert pool.usable_cpus() == len(os.sched_getaffinity(0))
    assert list(pool.map_jobs(pool.usable_cpus, [(), ()], 2)) == [1, 1]


def test_map_jobs_freezes_the_heap_only_while_its_workers_fork():
    # The workers start with the parent's objects frozen; the parent's are
    # thawed once the map returns, and also when a worker dies.
    if not CAN_FORK:
        pytest.skip("needs fork")
    assert gc.get_freeze_count() == 0
    assert all(count > 0 for count in pool.map_jobs(gc.get_freeze_count, [(), ()], 2))
    assert gc.get_freeze_count() == 0
    with pytest.raises(BrokenProcessPool):
        list(pool.map_jobs(die_in_episode_worker, [(), ()], 2))
    assert gc.get_freeze_count() == 0
    assert multiprocessing.active_children() == []


def test_cli_seed_isolation_across_out_dirs(tiny_run_cfg, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run_cli(["run", str(tiny_run_cfg), "--out", str(out_a)], cwd=tmp_path).returncode == 0
    assert run_cli(["run", str(tiny_run_cfg), "--out", str(out_b)], cwd=tmp_path).returncode == 0
    assert (out_a / "trace.csv").read_bytes() == (out_b / "trace.csv").read_bytes()


def test_cli_trace_schema(tiny_run_cfg, tmp_path):
    proc = run_cli(["run", str(tiny_run_cfg)], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    header = (tmp_path / "out" / "trace.csv").read_text().splitlines()[0]
    assert header.split(",") == trace_columns(2, 1)
    ep_header = (tmp_path / "out" / "episodes.csv").read_text().splitlines()[0]
    assert ep_header.split(",") == EPISODE_COLUMNS


def test_cli_meta_echo_round_trip(tiny_run_cfg, tmp_path):
    proc = run_cli(["run", str(tiny_run_cfg)], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    meta = json.loads((tmp_path / "out" / "meta.json").read_text())
    reparsed = _from_dict(RunConfig, meta["config"])
    original = resolve_config(load_config(RunConfig, tiny_run_cfg))
    assert reparsed == original


def test_cli_run_zero_iterations(tmp_path):
    cfg = write_yaml(tmp_path / "r.yaml", {
        "name": "evalonly",
        "env": {"name": "double_integrator", "overrides": {"horizon": 10}},
        "mpc": {"horizon": 3, "n_candidates": 8},
        "loop": {"iterations": 0, "episodes_per_iteration": 1, "eval_episodes": 2},
        "seeds": [0],
        "out": str(tmp_path / "out"),
    })
    proc = run_cli(["run", str(cfg)], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = (tmp_path / "out" / "episodes.csv").read_text().splitlines()
    assert len(lines) == 3  # header + 2 eval episodes
    assert all(line.startswith("eval,0,") for line in lines[1:])


def test_cli_ablation_grid_directories(tmp_path):
    cfg = write_yaml(tmp_path / "grid.yaml", {
        "name": "grid",
        "env": {"name": "double_integrator", "overrides": {"horizon": 10}},
        "mpc": {"horizon": 3, "n_candidates": 8},
        "loop": {"iterations": 0, "episodes_per_iteration": 1, "eval_episodes": 1},
        "seeds": [0],
        "ablation_grid": True,
        "out": str(tmp_path / "out"),
    })
    proc = run_cli(["run", str(cfg)], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    for tag in ("l1_off_off", "l1_off_on", "l1_on_off", "l1_on_on"):
        assert (tmp_path / "out" / tag / "trace.csv").exists()


def test_cli_verify_default_passes(tmp_path):
    cfg = write_yaml(tmp_path / "v.yaml", {
        "name": "bound",
        "synthetic": {"preset": "default"},
        "assumption_samples": 2000,
        "out": str(tmp_path / "vout"),
    })
    proc = run_cli(["verify", str(cfg)], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    report = json.loads((tmp_path / "vout" / "bound_report.json").read_text())
    assert report["pass"] is True
    assert report["first_interval_pass"] is True
    assert {"ts", "first_interval_max", "post_sup", "switch_count"} <= set(report["per_ts"][0])


# A grid that runs in well under a second.
TINY_VERIFY = {"name": "bound", "synthetic": {"preset": "default", "params": {"t_max": 1.0}},
               "assumption_samples": 500}


def test_cli_verify_writes_the_same_bytes_at_one_and_two_cpus(tmp_path, monkeypatch):
    # The grid's experiments and the assumption check run here in turn at one
    # CPU and in two workers at two. Both must write the same bytes.
    cfg = write_yaml(tmp_path / "v.yaml", TINY_VERIFY)
    out = tmp_path / "vout"
    blobs = []
    for cpus in (1, 2):
        force_usable_cpus(monkeypatch, cpus)
        result = CliRunner().invoke(cli.main, ["verify", str(cfg), "--out", str(out)])
        assert result.exit_code == 0, result.output
        blobs.append({name: (out / name).read_bytes() for name in ("bound_report.json", "meta.json")})
    assert blobs[0] == blobs[1]
    assert multiprocessing.active_children() == []


def raise_in_assumption_check(*args):
    """Stand-in for ``verify.check_assumption_bound``: the check raises."""
    raise RuntimeError("the assumption check fails")


def exit_in_assumption_check(*args):
    """Stand-in for ``verify.check_assumption_bound``: the check's worker exits."""
    if multiprocessing.parent_process() is None:
        raise AssertionError("the assumption check must run in a forked worker")
    os._exit(7)


@pytest.mark.parametrize("check, cpus", [(raise_in_assumption_check, 1), (raise_in_assumption_check, 2),
                                         (exit_in_assumption_check, 2)], ids=["raises-1", "raises-2", "exits-2"])
def test_cli_verify_exits_3_when_the_assumption_check_fails(tmp_path, monkeypatch, check, cpus):
    force_usable_cpus(monkeypatch, cpus)
    monkeypatch.setattr(verify, "check_assumption_bound", check)
    cfg = write_yaml(tmp_path / "v.yaml", TINY_VERIFY)
    out = tmp_path / "vout"
    start = time.monotonic()
    result = CliRunner().invoke(cli.main, ["verify", str(cfg), "--out", str(out)])
    assert time.monotonic() - start < 30.0
    assert result.exit_code == 3, result.output
    assert ("BrokenProcessPool" if check is exit_in_assumption_check else "the assumption check fails") in result.output
    assert not (out / "bound_report.json").exists()
    assert multiprocessing.active_children() == []


def test_cli_import_leaves_the_process_pool_unloaded(tmp_path):
    # concurrent.futures loads its process pool on first use; every command
    # would pay for that import at start-up if the CLI's import pulled it in.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [L1AUG_ROOT, env.get("PYTHONPATH")]))
    code = "import sys, l1aug.cli; print('concurrent.futures.process' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, cwd=tmp_path, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cli_verify_empty_ts_grid_is_config_error(tmp_path):
    cfg = write_yaml(tmp_path / "v.yaml", {
        "name": "bound",
        "synthetic": {"preset": "default", "params": {"ts_grid": []}},
        "out": str(tmp_path / "vout"),
    })
    proc = run_cli(["verify", str(cfg)], cwd=tmp_path)
    assert proc.returncode == 1
    assert "config error" in proc.stderr


def test_cli_verify_switch_storm_warns_but_passes_bounds(tmp_path):
    cfg = write_yaml(tmp_path / "v.yaml", {
        "name": "storm",
        "synthetic": {"preset": "default", "params": {"eps_a": 1e-9, "ts_grid": [0.02, 0.01, 0.005]}},
        "assumption_samples": 500,
        "out": str(tmp_path / "vout"),
    })
    proc = run_cli(["verify", str(cfg)], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "switch storm" in proc.stderr
    report = json.loads((tmp_path / "vout" / "bound_report.json").read_text())
    assert report["first_interval_pass"] is True


def test_cli_verify_unknown_preset_param_is_config_error(tmp_path):
    cfg = write_yaml(tmp_path / "v.yaml", {
        "name": "bound",
        "synthetic": {"preset": "default", "params": {"wavelength": 3}},
        "out": str(tmp_path / "vout"),
    })
    proc = run_cli(["verify", str(cfg)], cwd=tmp_path)
    assert proc.returncode == 1
    assert "config error" in proc.stderr


def test_cli_compare_table_layout(tmp_path):
    cfg = write_yaml(tmp_path / "c.yaml", {
        "name": "cmp",
        "env": {"name": "double_integrator", "overrides": {"horizon": 40}},
        "scenarios": [{"kind": "none"}, {"kind": "action_noise", "sigma_a": 0.1}],
        "model": {"members": 2, "hidden": [16, 16], "max_epochs": 8, "min_rows": 32},
        "mpc": {"horizon": 4, "n_candidates": 16},
        "loop": {"iterations": 1, "episodes_per_iteration": 3, "eval_episodes": 1},
        "seeds": [0, 1],
        "out": str(tmp_path / "cout"),
    })
    proc = run_cli(["compare", str(cfg)], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = (tmp_path / "cout" / "comparison.csv").read_text().splitlines()
    assert lines[0] == "scenario,arm,mean_return,std_return,n_seeds,l1_wins,l1_losses,sign_p"
    assert len(lines) == 1 + 2 * 2  # two scenarios x two arms
    assert lines[1].startswith("none,baseline,")
    assert lines[2].startswith("none,l1,")
    assert lines[3].startswith("action_noise_sigma_a=0.1,baseline,")


def test_cli_compare_single_cell_degenerate(tmp_path):
    cfg = write_yaml(tmp_path / "c.yaml", {
        "name": "cmp1",
        "env": {"name": "double_integrator", "overrides": {"horizon": 40}},
        "scenarios": [{"kind": "none"}],
        "model": {"members": 2, "hidden": [16, 16], "max_epochs": 8, "min_rows": 32},
        "mpc": {"horizon": 4, "n_candidates": 16},
        "loop": {"iterations": 1, "episodes_per_iteration": 3, "eval_episodes": 1},
        "seeds": [0],
        "out": str(tmp_path / "cout"),
    })
    proc = run_cli(["compare", str(cfg)], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    rows = (tmp_path / "cout" / "comparison.csv").read_text().splitlines()[1:]
    for row in rows:
        fields = row.split(",")
        assert fields[3] == "0.0"  # std over a single seed
        assert fields[4] == "1"


def test_cli_compare_sim_to_real_mode(tmp_path):
    # Train clean without augmentation, deploy on the noisy system with and
    # without it; one row pair per scenario.
    cfg = write_yaml(tmp_path / "s2r.yaml", {
        "name": "s2r",
        "env": {"name": "double_integrator", "overrides": {"horizon": 40}},
        "scenarios": [{"kind": "action_noise", "sigma_a": 0.1}],
        "model": {"members": 2, "hidden": [16, 16], "max_epochs": 8, "min_rows": 32},
        "mpc": {"horizon": 4, "n_candidates": 16},
        "loop": {"iterations": 1, "episodes_per_iteration": 3, "eval_episodes": 2},
        "sim_to_real": True,
        "seeds": [0, 1],
        "out": str(tmp_path / "s2r_out"),
    })
    proc = run_cli(["compare", str(cfg)], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = (tmp_path / "s2r_out" / "comparison.csv").read_text().splitlines()
    assert len(lines) == 3
    assert lines[1].startswith("action_noise_sigma_a=0.1,baseline,")
    assert lines[2].startswith("action_noise_sigma_a=0.1,l1,")
    meta = json.loads((tmp_path / "s2r_out" / "meta.json").read_text())
    assert meta["config"]["sim_to_real"] is True


TINY_SIM_TO_REAL = {**TINY_EXPERIMENT, "name": "s2r", "sim_to_real": True,
                    "scenarios": [{"kind": "none"}, {"kind": "action_noise", "sigma_a": 0.1}]}


def test_cli_compare_sim_to_real_fits_each_seed_once(tmp_path, monkeypatch):
    # Both scenarios and both arms deploy the seed's one clean model, and the
    # table has the same bytes at one and two CPUs.
    cfg = write_yaml(tmp_path / "s2r.yaml", TINY_SIM_TO_REAL)
    out = tmp_path / "out"
    real_train_loop = cli.train_loop
    blobs = []
    for cpus in (1, 2):
        force_usable_cpus(monkeypatch, cpus)
        fits = []

        def train_loop(*args, seed, **kwargs):
            fits.append(seed)
            return real_train_loop(*args, seed=seed, **kwargs)

        monkeypatch.setattr(cli, "train_loop", train_loop)
        result = CliRunner().invoke(cli.main, ["compare", str(cfg), "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert fits == [0]
        blobs.append({name: (out / name).read_bytes() for name in ("comparison.csv", "meta.json")})
    assert blobs[0] == blobs[1]
    assert len(blobs[0]["comparison.csv"].splitlines()) == 5
    assert multiprocessing.active_children() == []


def raise_in_noisy_augmented_episode(env, dist, model, mpc, l1cfg, use_l1, rng):
    """Stand-in for ``cli.run_episode``: an augmented deployment under action noise raises."""
    if dist.kind == "action_noise" and use_l1:
        raise RuntimeError("a cell of the second scenario fails")
    return mbrl.run_episode(env, dist, model, mpc, l1cfg, use_l1, rng)


@pytest.mark.parametrize("cpus", [1, 2])
def test_cli_compare_sim_to_real_flushes_finished_scenarios_when_a_cell_raises(tmp_path, monkeypatch, cpus):
    force_usable_cpus(monkeypatch, cpus)
    cfg = write_yaml(tmp_path / "s2r.yaml", TINY_SIM_TO_REAL)
    clean, out = tmp_path / "clean", tmp_path / "partial"
    assert run_cli(["compare", str(cfg), "--out", str(clean)], cwd=tmp_path).returncode == 0
    monkeypatch.setattr(cli, "run_episode", raise_in_noisy_augmented_episode)
    result = CliRunner().invoke(cli.main, ["compare", str(cfg), "--out", str(out)])
    assert result.exit_code == 3
    assert "partial outputs flushed" in result.output
    assert multiprocessing.active_children() == []
    assert (out / "comparison.csv").read_text().splitlines() == (clean / "comparison.csv").read_text().splitlines()[:3]


@pytest.mark.parametrize("sim_to_real", [False, True], ids=["loop", "sim_to_real"])
def test_cli_compare_means_are_the_cells_final_window_means(tmp_path, sim_to_real):
    # Each arm's mean_return over one seed is its cell's final-window mean. Under
    # sim_to_real the window is every deployment, so report_window 1 against two
    # deployments must not cut it.
    cfg_path = write_yaml(tmp_path / "c.yaml", {
        **TINY_EXPERIMENT, "name": "cmp", "scenarios": [{"kind": "action_noise", "sigma_a": 0.1}],
        "loop": {**TINY_EXPERIMENT["loop"], "eval_episodes": 2}, "report_window": 1, "sim_to_real": sim_to_real,
        "out": str(tmp_path / "out"),
    })
    assert run_cli(["compare", str(cfg_path)], cwd=tmp_path).returncode == 0
    with open(tmp_path / "out" / "comparison.csv", newline="") as fh:
        written = {row["arm"]: row["mean_return"] for row in csv.DictReader(fh)}
    cfg = resolve_config(load_config(CompareConfig, cfg_path))
    for arm, use_l1 in (("baseline", False), ("l1", True)):
        if sim_to_real:
            env, l1cfg, _ = cli._build_pieces(cfg)
            model = cli._clean_model(cfg, 0)
            returns = [mbrl.run_episode(env, cfg.scenarios[0], model, cfg.mpc, l1cfg, use_l1,
                                        mbrl.episode_rng(0, 10_000, ep, mbrl.PHASE_EVAL)).episode_return
                       for ep in range(2)]
            assert returns[0] != returns[1]
            expected = float(np.mean(returns))
        else:
            record = cli._compare_cell(cfg, cfg.scenarios[0], 0, use_l1)
            expected = cli._final_window_mean(record, cfg.report_window)
            assert expected == record.eval_returns[1][-1]
        assert written[arm] == repr(expected)


@pytest.mark.parametrize("sim_to_real", [False, True], ids=["loop", "sim_to_real"])
def test_cli_compare_cells_hand_back_one_float_each(tmp_path, monkeypatch, sim_to_real):
    # The parent holds each cell's value, not its record; under sim_to_real the
    # only other map is the seeds' clean fits.
    maps = []

    def map_jobs(fn, calls, jobs):
        results = list(pool.map_jobs(fn, calls, jobs))
        maps.append((fn, results))
        return iter(results)

    monkeypatch.setattr(cli, "pool", SimpleNamespace(map_jobs=map_jobs, usable_cpus=pool.usable_cpus))
    cfg = write_yaml(tmp_path / "c.yaml", {**TINY_SIM_TO_REAL, "sim_to_real": sim_to_real})
    result = CliRunner().invoke(cli.main, ["compare", str(cfg), "--out", str(tmp_path / "out")])
    assert result.exit_code == 0, result.output
    fn, values = maps.pop()
    assert [fn for fn, _ in maps] == ([cli._clean_model] if sim_to_real else [])
    assert fn is (cli._deploy_cell if sim_to_real else cli._loop_cell)
    assert len(values) == 4 and all(type(value) is float for value in values)  # 2 scenarios x 1 seed x 2 arms


def test_cli_run_seeds_hand_back_their_records_only(tiny_run_cfg, tmp_path, monkeypatch):
    # run writes no model, so a seed's worker sends back its record and keeps its ensemble.
    maps = []

    def map_jobs(fn, calls, jobs):
        results = list(pool.map_jobs(fn, calls, jobs))
        maps.append((fn, results))
        return iter(results)

    monkeypatch.setattr(cli, "pool", SimpleNamespace(map_jobs=map_jobs, usable_cpus=pool.usable_cpus))
    result = CliRunner().invoke(cli.main, ["run", str(tiny_run_cfg), "--out", str(tmp_path / "out"), "-s", "0",
                                           "-s", "1"])
    assert result.exit_code == 0, result.output
    ((fn, records),) = maps
    assert fn is cli._run_cell
    assert len(records) == 2 and all(type(record) is mbrl.RunRecord for record in records)


COMPARE_CARTPOLE = Path(__file__).resolve().parents[1] / "configs" / "compare_cartpole.yaml"


def test_compare_cartpole_resolves_to_the_criterion_9_pieces():
    # Acceptance criterion 9 runs this file's cells on seeds 0-4, so an edit to
    # the file fails here before it can move the gate. No training runs.
    cfg = resolve_config(load_config(CompareConfig, COMPARE_CARTPOLE))
    env, l1cfg, opts = cli._build_pieces(cfg)
    assert cfg.env == EnvSection(name="cartpole", overrides={"horizon": 150})
    assert (env.name, env.horizon) == ("cartpole", 150)
    assert cfg.scenarios == [DisturbanceSpec(kind="action_noise", sigma_a=0.1)]
    assert not cfg.sim_to_real
    assert opts == TrainOptions(max_epochs=60, patience=8)
    expected = default_l1_config(4, 0.04, 1.0, -1.0, 0.05)
    for f in dataclasses.fields(L1Config):
        assert np.array_equal(getattr(l1cfg, f.name), getattr(expected, f.name)), f.name
    assert cfg.mpc == MpcConfig(horizon=15, n_candidates=200)
    assert cfg.loop == LoopConfig(iterations=5, episodes_per_iteration=8, eval_episodes=3, l1_train=True,
                                  l1_test=True, l1_warmup_iterations=1)
    assert (cfg.model.members, cfg.model.hidden) == (3, [64, 64])
    assert cfg.report_window == cfg.loop.eval_episodes
    assert cfg.seeds[:5] == [0, 1, 2, 3, 4]


def test_model_section_passes_every_training_setting_through():
    # Each of the six settings differs from its default, so a dropped or swapped one shows.
    settings = {"lr": 3e-3, "batch_size": 17, "max_epochs": 9, "patience": 4, "val_fraction": 0.3, "min_rows": 50}
    assert all(getattr(TrainOptions(), key) != value for key, value in settings.items())
    cfg = resolve_config(_from_dict(RunConfig, {**TINY_EXPERIMENT, "model": {"members": 2, **settings}}))
    assert cli._build_pieces(cfg)[2] == TrainOptions(**settings)
    assert dataclasses.asdict(cfg)["model"] == {"members": 2, "hidden": [64, 64], **settings}


def test_cli_out_root_env_var(tiny_run_cfg, tmp_path):
    import os

    env = dict(os.environ)
    env["L1AUG_OUT_ROOT"] = str(tmp_path / "root")
    cfg = write_yaml(tmp_path / "rel.yaml", {
        "name": "rel",
        "env": {"name": "double_integrator", "overrides": {"horizon": 10}},
        "mpc": {"horizon": 3, "n_candidates": 8},
        "loop": {"iterations": 0, "episodes_per_iteration": 1, "eval_episodes": 1},
        "seeds": [0],
        "out": "nested/run",
    })
    proc = run_cli(["run", str(cfg)], cwd=tmp_path, env=env)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "root" / "nested" / "run" / "trace.csv").exists()


def test_seed_override(tiny_run_cfg, tmp_path):
    out = tmp_path / "so"
    proc = run_cli(["run", str(tiny_run_cfg), "--out", str(out), "-s", "7"], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = (out / "episodes.csv").read_text().splitlines()[1:]
    assert all(line.split(",")[3] == "7" for line in lines)


@pytest.mark.parametrize("command", ["run", "compare"])
def test_repeated_seed_override_is_config_error(tiny_run_cfg, tmp_path, command):
    out = tmp_path / "dup"
    proc = run_cli([command, str(tiny_run_cfg), "--out", str(out), "-s", "0", "-s", "0"], cwd=tmp_path)
    assert proc.returncode == 1, proc.stderr
    assert "config error" in proc.stderr and "seeds must not repeat" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "compare"])
def test_negative_seed_override_is_config_error(tiny_run_cfg, tmp_path, command):
    out = tmp_path / "neg"
    proc = run_cli([command, str(tiny_run_cfg), "--out", str(out), "-s", "-1"], cwd=tmp_path)
    assert proc.returncode == 1, proc.stderr
    assert "config error" in proc.stderr and "seeds must be >= 0" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "verify"])
@pytest.mark.parametrize("args, message", [
    (["--bogus", "1"], "--bogus"),
    (None, "CONFIG_PATH"),
    (["-s", "abc"], "-s"),
], ids=["unknown-option", "missing-argument", "bad-seed"])
def test_cli_usage_error_is_config_error(tiny_run_cfg, tmp_path, command, args, message):
    # Click exits 2 on a usage error, the code of a failed criterion here; it must exit 1 with click's message.
    argv = [command] if args is None else [command, str(tiny_run_cfg), *args]
    result = CliRunner().invoke(cli.main, argv)
    assert result.exit_code == 1, result.output
    assert "Usage:" in result.output and "Error:" in result.output
    assert message in result.output
    assert not (tmp_path / "out").exists()
