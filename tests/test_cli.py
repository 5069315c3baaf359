import dataclasses
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml
from click.testing import CliRunner

import l1aug
from l1aug import cli
from l1aug.cli import CompareConfig, RunConfig, VerifyConfig, _from_dict, load_config, resolve_config
from l1aug.envsim import ConfigError, DisturbanceSpec
from l1aug.mbrl import EPISODE_COLUMNS, trace_columns
from l1aug.verify import grid_l1_configs, make_synthetic_spec


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


@pytest.fixture
def tiny_run_cfg(tmp_path):
    return write_yaml(tmp_path / "run.yaml", {
        "name": "tiny",
        "env": {"name": "double_integrator", "overrides": {"horizon": 40}},
        "model": {"members": 2, "hidden": [16, 16], "max_epochs": 8, "min_rows": 32},
        "mpc": {"horizon": 4, "n_candidates": 16},
        "loop": {"iterations": 1, "episodes_per_iteration": 2, "eval_episodes": 1},
        "seeds": [0],
        "out": str(tmp_path / "out"),
    })


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
])
def test_cli_invalid_value_is_config_error(tmp_path, command, data):
    path = write_yaml(tmp_path / "bad.yaml", {"out": str(tmp_path / "out"), **data})
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
    ("run", ("trace.csv", "episodes.csv", "learning_curve.csv")),
    ("compare", ("comparison.csv",)),
], ids=["run", "compare"])
def test_cli_jobs_two_writes_the_same_bytes_as_jobs_one(tiny_run_cfg, tmp_path, command, outputs):
    blobs = []
    for jobs in (1, 2):
        out = tmp_path / f"jobs{jobs}"
        proc = run_cli([command, str(tiny_run_cfg), "--out", str(out), "-s", "0", "-s", "1", "--jobs", str(jobs)],
                       cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        blobs.append({name: (out / name).read_bytes() for name in outputs})
    assert blobs[0] == blobs[1]


@pytest.mark.parametrize("jobs", [1, 2])
def test_cli_run_flushes_earlier_seeds_when_a_seed_raises(tiny_run_cfg, tmp_path, monkeypatch, jobs):
    if jobs > 1 and multiprocessing.get_start_method() != "fork":
        pytest.skip("worker processes inherit the patched train_loop only when forked")
    clean = tmp_path / "clean"
    assert run_cli(["run", str(tiny_run_cfg), "--out", str(clean), "-s", "0"], cwd=tmp_path).returncode == 0
    real_train_loop = cli.train_loop

    def train_loop(*args, seed, **kwargs):
        if seed == 1:
            raise RuntimeError("seed 1 fails")
        return real_train_loop(*args, seed=seed, **kwargs)

    monkeypatch.setattr(cli, "train_loop", train_loop)
    out = tmp_path / "partial"
    result = CliRunner().invoke(cli.main, ["run", str(tiny_run_cfg), "--out", str(out), "-s", "0", "-s", "1",
                                           "--jobs", str(jobs)])
    assert result.exit_code == 3
    assert "partial outputs flushed" in result.output
    for name in ("trace.csv", "episodes.csv", "learning_curve.csv"):
        assert (out / name).read_bytes() == (clean / name).read_bytes()


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
