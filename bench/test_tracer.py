"""Checks of the benchmark's tracer on small versions of the four workloads.

    python3 -m pytest bench/test_tracer.py

- a traced pass gives the same outputs as an untraced one (returns, losses,
  bound report, trace.csv bytes);
- every wrapped attribute is put back afterwards, also after an error;
- a span's self time plus the self times of everything below it equal its
  duration, within clock resolution.
"""

import json
import time
from pathlib import Path

import pytest
import yaml

import run

run.import_program()

from l1aug import dynmodel, mbrl  # noqa: E402
from tracer import PROBES, Tracer, _bindings  # noqa: E402
from workloads import CartpoleLoop, ModelFit, PendulumRejection, VerifyGrid  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


class TinyPendulum(PendulumRejection):
    quality_ops = 2
    rows = 300
    env_overrides = {"horizon": 15}
    mpc = mbrl.MpcConfig(horizon=4, n_candidates=16)
    train_opts = dynmodel.TrainOptions(max_epochs=3, patience=3, seed=3)


class TinyModelFit(ModelFit):
    rows = 300
    train_opts = dynmodel.TrainOptions(max_epochs=2, patience=2)


def _tiny_config(source: Path, directory: Path, changes: dict) -> Path:
    raw = yaml.safe_load(source.read_text())
    for section, values in changes.items():
        if isinstance(values, dict):
            raw[section].update(values)
        else:
            raw[section] = values
    path = directory / source.name
    path.write_text(yaml.safe_dump(raw))
    return path


@pytest.fixture
def tiny_workloads(tmp_path):
    cartpole = CartpoleLoop()
    cartpole.setup_reps = 1
    cartpole.config = _tiny_config(CartpoleLoop.config, tmp_path, {
        "env": {"overrides": {"horizon": 12}},
        "model": {"hidden": [16, 16], "max_epochs": 3, "min_rows": 4},
        "mpc": {"horizon": 4, "n_candidates": 16},
        "loop": {"episodes_per_iteration": 2, "eval_episodes": 1},
    })
    verify = VerifyGrid()
    verify.setup_reps = 1
    verify.config = _tiny_config(VerifyGrid.config, tmp_path, {
        "synthetic": {"params": {"eps_a": 0.0002, "t_max": 1.0, "ts_grid": [0.02, 0.01, 0.005]}},
        "assumption_samples": 100,
    })
    return [TinyPendulum(), cartpole, verify, TinyModelFit()]


def _snapshot():
    return [(owner, attr, vars(owner)[attr]) for probe in PROBES for owner, attr, _ in _bindings(probe)]


def test_traced_outputs_match_untraced(tiny_workloads, tmp_path):
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    for workload in tiny_workloads:
        metrics, done, tracer = run.trace(workload, 3, tmp_path)
        plain, traced = done[:workload.quality_ops], done[workload.quality_ops:]
        assert [d.failures for d in done] == [[]] * len(done), workload.name
        assert [d.result.output for d in plain] == [d.result.output for d in traced], workload.name
        assert set(metrics) == per_layer
        assert tracer.missing == []


def test_untraced_metrics_match_benchmark_json(tiny_workloads, tmp_path):
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    metrics, done = run.measure(tiny_workloads[0], 3, 0.0, tmp_path)
    assert set(metrics) == end_to_end
    assert all(not d.failures for d in done)
    assert all(value > 0 for value in metrics.values())


def test_every_wrapped_attribute_is_restored(tiny_workloads, tmp_path):
    before = _snapshot()
    assert before, "no probe found its target"
    with pytest.raises(RuntimeError):
        with Tracer():
            wrapped = _snapshot()
            assert all(new is not old for (_, _, old), (_, _, new) in zip(before, wrapped))
            raise RuntimeError("abort inside the traced block")
    assert all(vars(owner)[attr] is original for owner, attr, original in before)

    run.trace(tiny_workloads[0], 3, tmp_path)
    assert all(vars(owner)[attr] is original for owner, attr, original in before)


def test_self_times_add_up_to_durations(tiny_workloads, tmp_path):
    _, _, tracer = run.trace(tiny_workloads[1], 3, tmp_path)
    spans = tracer.spans
    self_s = tracer.self_times()
    subtree = list(self_s)
    # Children are recorded after their parents, so a reverse pass sums whole subtrees.
    for i in range(len(spans) - 1, -1, -1):
        if spans[i].parent >= 0:
            subtree[spans[i].parent] += subtree[i]
    resolution = time.get_clock_info("perf_counter").resolution
    assert len(spans) > 100
    assert {s.name for s in spans} >= {"bench.op", "mbrl.run_episode", "mbrl.mpc_action", "dynmodel.predict_mean"}
    for span, own, total in zip(spans, self_s, subtree):
        assert own >= -resolution
        assert abs(total - span.duration) <= resolution
