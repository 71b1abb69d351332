"""Spans and counters around calls into coca_tta's public functions.

The benchmark installs wrappers on module attributes from outside the
package; nothing under ``src/`` knows about them. Two levels exist:

* ``probe``: spans on ``harness.run``, ``harness.prepare_models``, the
  adaptation step functions and ``cli._sweep_one``. It costs one pair of
  clock reads per call, so the untraced run keeps it on to get per-step
  latency and per-point timings from sweep workers.
* ``full``: the probe plus every stage of a step (forward, ``learn_tau``,
  ensemble, guard, backward, SGD), the data layer, pretraining, and call
  counters on the autodiff ops.

A span's self time is its duration minus the time of its child spans. Op
counters time the forward call of an op only; they are not spans and are
not subtracted from any self time. Each span carries a context: the
innermost of ``prepare`` (inside ``harness.prepare_models``), ``step``
(inside an adaptation step) or ``run`` (inside ``harness.run``).
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict
from pathlib import Path

from coca_tta import adaptation, autodiff, cli, harness, models, shiftgen
import coca_tta

_MODULES = (coca_tta, autodiff, models, shiftgen, adaptation, harness, cli)
_clock = time.perf_counter

STEP = "adaptation.step"
SWEEP_POINT = "cli.sweep_point"
TRACE_OPS = ("matmul", "conv2d", "layernorm", "batchnorm", "logsumexp",
             "softmax", "add", "mul")
# Worker processes of `coca sweep` leave their spans here, next to the
# point's report.json; the parent reads them after the sweep.
WORKER_EXPORT = "perfbench_spans.json"


def _step_breakdown(result):
    """LossBreakdown of either step function's return value."""
    return result[1] if isinstance(result, tuple) else result.breakdown


class Tracer:
    """Aggregates spans in memory; one instance per benchmark process.

    Sweep workers are forked from the benchmark process and inherit the
    installed wrappers and this object; each worker resets its copy per
    sweep point and writes it out next to the point's outputs.
    """

    def __init__(self):
        self.owner_pid = os.getpid()
        self._patched: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        # (context, name) -> [calls, total_s, self_s]
        self.totals: dict = defaultdict(lambda: [0, 0.0, 0.0])
        # (context, name) -> count
        self.counts: dict = defaultdict(int)
        self.steps: list[dict] = []
        self._stack: list[list] = []

    # --- spans -----------------------------------------------------------

    def _enter(self, name: str, ctx: str | None) -> list:
        stack = self._stack
        if ctx is None:
            ctx = stack[-1][2] if stack else "other"
        # name, child time, context, children {name: [calls, s]}, start
        frame = [name, 0.0, ctx, {}, 0.0]
        stack.append(frame)
        frame[4] = _clock()
        return frame

    def _leave(self, frame: list) -> float:
        dur = _clock() - frame[4]
        stack = self._stack
        stack.pop()
        agg = self.totals[(frame[2], frame[0])]
        agg[0] += 1
        agg[1] += dur
        agg[2] += dur - frame[1]
        if stack:
            parent = stack[-1]
            parent[1] += dur
            ch = parent[3].setdefault(frame[0], [0, 0.0])
            ch[0] += 1
            ch[1] += dur
        return dur

    def span(self, name: str, fn, ctx: str | None = None, on_enter=None,
             on_exit=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._enter(name, ctx)
            if on_enter is not None:
                on_enter(frame, args, kwargs)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._leave(frame)
                raise
            dur = tracer._leave(frame)
            if on_exit is not None:
                on_exit(frame, dur, result)
            return result

        return wrapper

    def op_counter(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = _clock()
            out = fn(*args, **kwargs)
            dt = _clock() - t0
            stack = tracer._stack
            agg = tracer.totals[(stack[-1][2] if stack else "other", name)]
            agg[0] += 1
            agg[1] += dt
            agg[2] += dt
            return out

        return wrapper

    def timed_iter(self, name: str, fn):
        """Wrap a generator function so each ``next`` is one span."""
        tracer = self

        def timed(it):
            while True:
                frame = tracer._enter(name, None)
                try:
                    item = next(it)
                except StopIteration:
                    tracer._leave(frame)
                    return
                tracer._leave(frame)
                yield item

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return timed(fn(*args, **kwargs))

        return wrapper

    # --- hooks -----------------------------------------------------------

    def _count_nodes(self, frame, args, kwargs) -> None:
        tape = autodiff.active_tape()
        n = len(tape) if tape is not None else 0
        self.counts[(frame[2], "autodiff.nodes")] += n
        for f in reversed(self._stack):
            if f[0] == STEP:
                f.append(n)
                break

    def _record_step(self, frame, dur, result) -> None:
        bd = _step_breakdown(result)
        self.steps.append({
            "s": dur,
            "self_s": dur - frame[1],
            "children": {k: v[:] for k, v in frame[3].items()},
            "nodes": sum(frame[5:]),
            "kept_frac": bd.kept_frac,
            "loss": bd.l_total,
        })

    def _record_run(self, frame, dur, report) -> None:
        self.counts[(frame[2], "samples")] += report.n_samples

    def _sweep_point(self, fn):
        """Span around one sweep point; a worker writes its spans to a file."""
        tracer = self
        inner = self.span(SWEEP_POINT, fn)

        @functools.wraps(fn)
        def wrapper(cfg_dict, point, index, out_dir):
            worker = os.getpid() != tracer.owner_pid
            if worker:
                tracer.reset()
            row = inner(cfg_dict, point, index, out_dir)
            if worker:
                path = Path(out_dir) / f"run_{index:03d}" / WORKER_EXPORT
                path.write_text(json.dumps(tracer.export()))
            return row

        return wrapper

    # --- install ---------------------------------------------------------

    def _patch(self, module, attr: str, wrapper) -> None:
        """Replace ``module.attr`` everywhere the package holds a reference."""
        original = getattr(module, attr)
        for mod in _MODULES:
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, name, value))
                    setattr(mod, name, wrapper)

    def install(self, level: str) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        if level not in ("probe", "full"):
            raise ValueError(f"unknown trace level {level!r}")
        self._patch(harness, "run", self.span(
            "harness.run", harness.run, ctx="run", on_exit=self._record_run))
        self._patch(harness, "prepare_models", self.span(
            "harness.prepare_models", harness.prepare_models, ctx="prepare"))
        for fn_name in ("coca_step", "multi_model_step"):
            fn = getattr(adaptation, fn_name)
            self._patch(adaptation, fn_name, self.span(
                STEP, fn, ctx="step", on_exit=self._record_step))
        self._patch(cli, "_sweep_one", self._sweep_point(cli._sweep_one))
        if level == "probe":
            return
        for module, attr, name in (
                (shiftgen, "gen_source", "shiftgen.gen_source"),
                (shiftgen, "apply_corruption", "shiftgen.apply_corruption"),
                (models, "pretrain", "models.pretrain"),
                (models, "forward_logits", "models.forward"),
                (adaptation, "learn_tau", "adaptation.learn_tau"),
                (adaptation, "ensemble", "adaptation.ensemble"),
                (adaptation, "drop_auxiliary", "adaptation.drop_auxiliary")):
            self._patch(module, attr, self.span(name, getattr(module, attr)))
        self._patch(shiftgen, "make_stream", self.timed_iter(
            "shiftgen.stream", shiftgen.make_stream))
        self._patch(autodiff, "backward", self.span(
            "autodiff.backward", autodiff.backward, on_enter=self._count_nodes))
        sgd_step = autodiff.SGD.step
        self._patched.append((autodiff.SGD, "step", sgd_step))
        autodiff.SGD.step = self.span("autodiff.sgd_step", sgd_step)
        for op in TRACE_OPS:
            self._patch(autodiff, op, self.op_counter(
                f"autodiff.op.{op}", getattr(autodiff, op)))

    def uninstall(self) -> None:
        for owner, name, value in reversed(self._patched):
            setattr(owner, name, value)
        self._patched.clear()

    # --- export / merge --------------------------------------------------

    def export(self) -> dict:
        return {
            "totals": [[c, n, *v] for (c, n), v in self.totals.items()],
            "counts": [[c, n, v] for (c, n), v in self.counts.items()],
            "steps": self.steps,
        }

    def merge(self, exported: dict) -> None:
        for c, n, calls, total, self_s in exported["totals"]:
            agg = self.totals[(c, n)]
            agg[0] += calls
            agg[1] += total
            agg[2] += self_s
        for c, n, v in exported["counts"]:
            self.counts[(c, n)] += v
        self.steps.extend(exported["steps"])

    # --- queries ---------------------------------------------------------

    def _get(self, ctx: str, name: str) -> list:
        return self.totals.get((ctx, name), [0, 0.0, 0.0])

    def calls(self, ctx: str, name: str) -> int:
        return self._get(ctx, name)[0]

    def seconds(self, ctx: str, name: str) -> float:
        return self._get(ctx, name)[1]

    def self_seconds(self, ctx: str, name: str) -> float:
        return self._get(ctx, name)[2]
