"""Outside-in tracing of the l1aug layers for the benchmark's traced run.

The tracer replaces public functions and methods of the ``l1aug`` modules
with wrappers that record one span per call (name, parent span, start, end)
in memory, plus counters taken at the same boundaries. Nothing under ``src/`` is edited: on exit every attribute is put
back exactly as it was.

Functions imported by name live on under several module attributes (for
example ``mbrl.mpc_action`` is the binding ``run_episode`` calls), so a
probe wraps every binding of the function inside the ``l1aug`` package, or
only those in the modules it names.
"""

from __future__ import annotations

import functools
import importlib
import logging
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

PACKAGE = "l1aug"
LOG_NAME = f"{PACKAGE}.l1core"  # rank-deficiency fallbacks are logged here


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _rows(x) -> int:
    shape = getattr(x, "shape", ())
    rows = 1
    for size in shape[:-1]:
        rows *= size
    return rows


@dataclass(frozen=True)
class Probe:
    """One traced name.

    ``target`` is ``module:function`` or ``module:Class.method`` inside the
    package. ``modules`` restricts which by-name bindings of a function are
    wrapped (default: all of them). ``count(args, kwargs, result)`` returns
    counter increments keyed by counter name, recorded as ``span.counter``.
    """

    span: str
    target: str
    modules: tuple[str, ...] | None = None
    count: Callable[[tuple, dict, object], dict] | None = None


PROBES: tuple[Probe, ...] = (
    Probe("mbrl.run_episode", "mbrl:run_episode",
          count=lambda a, k, r: {"steps": r.steps, "episodes": 1, "early_terms": int(r.terminated_early)}),
    Probe("mbrl.mpc_action", "mbrl:mpc_action"),
    Probe("mbrl.add_episode", "mbrl:RunRecord.add_episode",
          count=lambda a, k, r: {"rows": len(_arg(a, k, 5, "result").rows)}),
    Probe("dynmodel.predict_mean", "dynmodel:Ensemble.predict_mean",
          count=lambda a, k, r: {"rows": _rows(r)}),
    Probe("dynmodel.jacobian_u", "dynmodel:Ensemble.jacobian_u"),
    Probe("dynmodel.train", "dynmodel:train",
          count=lambda a, k, r: {"epochs": sum(r[1].epochs_run)}),
    Probe("affine.parts", "affine:AffineModel.parts"),
    Probe("affine.affinize", "affine:affinize"),
    Probe("affine.switching_check", "affine:switching_check",
          count=lambda a, k, r: {"switches": int(r.switch)}),
    Probe("l1core.l1_control", "l1core:l1_control"),
    Probe("l1core.decompose", "l1core:decompose"),
    Probe("envsim.step_true", "envsim:step_true"),
    # Only the verify harness's RK4; the env's own integration stays inside step_true.
    Probe("envsim.rk4_step", "envsim:rk4_step", modules=("verify",)),
    Probe("verify.run_bound_experiment", "verify:run_bound_experiment"),
    Probe("verify.check_assumption_bound", "verify:check_assumption_bound",
          count=lambda a, k, r: {"samples": r["samples"]}),
    Probe("cli.load_config", "cli:load_config"),
    Probe("cli.write_csv", "mbrl:RunRecord.write_trace_csv",
          count=lambda a, k, r: {"trace_bytes": os.path.getsize(_arg(a, k, 1, "path"))}),
    Probe("cli.write_csv", "mbrl:RunRecord.write_episodes_csv"),
)


class Span:
    __slots__ = ("name", "parent", "start", "end")

    def __init__(self, name: str, parent: int):
        self.name = name
        self.parent = parent
        self.start = 0.0
        self.end = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class _LogCounter(logging.Handler):
    def __init__(self):
        super().__init__(level=logging.DEBUG)
        self.records = 0

    def emit(self, record: logging.LogRecord) -> None:
        self.records += 1


def _bindings(probe: Probe) -> list[tuple[object, str, object]]:
    """(owner, attribute, original) for every place the probe must wrap."""
    module_name, qualname = probe.target.split(":")
    home = sys.modules[f"{PACKAGE}.{module_name}"]
    if "." in qualname:
        cls_name, attr = qualname.split(".")
        owner = getattr(home, cls_name, None)
        if owner is None or attr not in vars(owner):
            return []
        return [(owner, attr, vars(owner)[attr])]
    original = getattr(home, qualname, None)
    if original is None:
        return []
    found = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
            continue
        if probe.modules is not None and name.rsplit(".", 1)[-1] not in probe.modules:
            continue
        if vars(module).get(qualname) is original:
            found.append((module, qualname, original))
    return found


class Tracer:
    """Collects spans and counters while installed; restores everything on exit.

    Use as a context manager around the traced work, and wrap each benchmark
    operation in ``operation()`` so its spans hang under one root span.
    """

    def __init__(self, probes: tuple[Probe, ...] = PROBES):
        self.probes = probes
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []
        self._log_counter = _LogCounter()

    @property
    def log_records(self) -> int:
        return self._log_counter.records

    def _wrap(self, fn: Callable, probe: Probe) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts
        name, count = probe.span, probe.count
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if count is not None:
                for key, value in count(args, kwargs, result).items():
                    counts[f"{name}.{key}"] = counts.get(f"{name}.{key}", 0) + value
            return result

        return traced

    def __enter__(self) -> "Tracer":
        for probe in self.probes:
            # Import every home module first so by-name bindings all exist.
            importlib.import_module(f"{PACKAGE}.{probe.target.split(':')[0]}")
        try:
            for probe in self.probes:
                bindings = _bindings(probe)
                if not bindings:
                    self.missing.append(probe.target)
                for owner, attr, original in bindings:
                    setattr(owner, attr, self._wrap(original, probe))
                    self._installed.append((owner, attr, original))
            logging.getLogger(LOG_NAME).addHandler(self._log_counter)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        """Put every wrapped attribute back, last wrapped first."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)
        logging.getLogger(LOG_NAME).removeHandler(self._log_counter)

    @contextmanager
    def operation(self):
        """Root span ``bench.op`` for one benchmark operation."""
        span = Span("bench.op", -1)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        try:
            yield
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        child_total = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_total[span.parent] += span.duration
        return [span.duration - covered for span, covered in zip(self.spans, child_total)]

    def stats(self) -> dict[str, SpanStats]:
        out: dict[str, SpanStats] = {}
        for span, self_s in zip(self.spans, self.self_times()):
            entry = out.setdefault(span.name, SpanStats())
            entry.calls += 1
            entry.total_s += span.duration
            entry.self_s += self_s
        return out

    def augment_overhead(self) -> tuple[float, float]:
        """(time in the augmentation, time of the episodes it ran in).

        The augmentation is every l1_control, switching_check and affinize
        span directly under a run_episode span; only episodes that ran the
        adaptive loop (at least one l1_control child) count.
        """
        augment_names = {"l1core.l1_control", "affine.switching_check", "affine.affinize"}
        inside: dict[int, float] = {}
        l1_on: set[int] = set()
        for span in self.spans:
            if span.name in augment_names and span.parent >= 0 and self.spans[span.parent].name == "mbrl.run_episode":
                inside[span.parent] = inside.get(span.parent, 0.0) + span.duration
                if span.name == "l1core.l1_control":
                    l1_on.add(span.parent)
        augment = sum(inside[i] for i in l1_on)
        episodes = sum(self.spans[i].duration for i in l1_on)
        return augment, episodes


def layer_metrics(tracer: Tracer, ops: int, untraced_s: float, traced_s: float) -> dict[str, float]:
    """Per-layer metrics from one traced pass of ``ops`` operations.

    Counts are totals over the traced pass; ``share`` is self time over the
    traced operations' wall time; ``us_per_call`` uses inclusive time.
    """
    st = tracer.stats()
    c = tracer.counts

    def s(name: str) -> SpanStats:
        return st.get(name, SpanStats())

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    def per_call_us(name: str) -> float:
        return 1e6 * ratio(s(name).total_s, s(name).calls)

    def share(name: str) -> float:
        return ratio(s(name).self_s, traced_s)

    augment, l1_episodes = tracer.augment_overhead()
    return {
        "mbrl.mpc_action.calls": s("mbrl.mpc_action").calls,
        "mbrl.mpc_action.self_us_per_call": 1e6 * ratio(s("mbrl.mpc_action").self_s, s("mbrl.mpc_action").calls),
        "mbrl.mpc_action.share": share("mbrl.mpc_action"),
        "mbrl.run_episode.ms_per_step": 1e3 * ratio(s("mbrl.run_episode").total_s, c.get("mbrl.run_episode.steps", 0)),
        "mbrl.early_term_frac": ratio(c.get("mbrl.run_episode.early_terms", 0), c.get("mbrl.run_episode.episodes", 0)),
        "mbrl.add_episode.us_per_row": 1e6 * ratio(s("mbrl.add_episode").total_s, c.get("mbrl.add_episode.rows", 0)),
        "mbrl.add_episode.share": share("mbrl.add_episode"),
        "mbrl.augment_overhead_frac": ratio(augment, l1_episodes),
        "dynmodel.predict_mean.calls": s("dynmodel.predict_mean").calls,
        "dynmodel.predict_mean.rows": c.get("dynmodel.predict_mean.rows", 0),
        "dynmodel.predict_mean.us_per_row": 1e6 * ratio(s("dynmodel.predict_mean").total_s,
                                                        c.get("dynmodel.predict_mean.rows", 0)),
        "dynmodel.predict_mean.share": share("dynmodel.predict_mean"),
        "dynmodel.jacobian_u.calls": s("dynmodel.jacobian_u").calls,
        "dynmodel.jacobian_u.us_per_call": per_call_us("dynmodel.jacobian_u"),
        "dynmodel.train.calls": s("dynmodel.train").calls,
        "dynmodel.train.epochs": c.get("dynmodel.train.epochs", 0),
        "dynmodel.train.ms_per_epoch": 1e3 * ratio(s("dynmodel.train").total_s, c.get("dynmodel.train.epochs", 0)),
        "dynmodel.train.share": share("dynmodel.train"),
        "affine.parts.calls": s("affine.parts").calls,
        "affine.parts.us_per_call": per_call_us("affine.parts"),
        "affine.parts.share": share("affine.parts"),
        "affine.switching_check.calls": s("affine.switching_check").calls,
        "affine.switching_check.us_per_call": per_call_us("affine.switching_check"),
        "affine.affinize.calls": s("affine.affinize").calls,
        "affine.switch_ratio": ratio(c.get("affine.switching_check.switches", 0), s("affine.switching_check").calls),
        "l1core.l1_control.calls": s("l1core.l1_control").calls,
        "l1core.l1_control.us_per_call": per_call_us("l1core.l1_control"),
        "l1core.decompose.calls": s("l1core.decompose").calls,
        "l1core.decompose.us_per_call": per_call_us("l1core.decompose"),
        "l1core.rank_fallbacks": tracer.log_records,
        "envsim.step_true.calls": s("envsim.step_true").calls,
        "envsim.step_true.us_per_call": per_call_us("envsim.step_true"),
        "envsim.step_true.share": share("envsim.step_true"),
        "envsim.rk4_step.calls": s("envsim.rk4_step").calls,
        "verify.run_bound_experiment.self_s": ratio(s("verify.run_bound_experiment").self_s, ops),
        "verify.check_assumption_bound.us_per_sample": 1e6 * ratio(s("verify.check_assumption_bound").total_s,
                                                                   c.get("verify.check_assumption_bound.samples", 0)),
        "cli.load_config.ms": 1e3 * ratio(s("cli.load_config").total_s, s("cli.load_config").calls),
        "cli.write_csv.ms": 1e3 * ratio(s("cli.write_csv").total_s, ops),
        "cli.trace_csv.bytes": ratio(c.get("cli.write_csv.trace_bytes", 0), ops),
        "bench.trace_overhead_frac": ratio(traced_s, untraced_s) - 1.0,
    }
