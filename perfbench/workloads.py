"""The benchmark's workloads: configs, closed-loop drivers and output checks.

Every workload is a closed loop: one adaptation step must finish and
update the norm parameters before the next batch is sent, and one sweep
must finish before the next starts. Each workload is measured for a fixed
wall time and reports totals over its repetitions, rescaled to a nominal
machine speed (see "machine speed" below).
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import shutil
import statistics
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from coca_tta import cli, harness
from coca_tta.harness import ModelEntry, RunConfig
from coca_tta.models import ModelSpec
from coca_tta.shiftgen import CorruptionSpec, SourceTask, StreamSpec

from tracer import STEP, SWEEP_POINT, TRACE_OPS, WORKER_EXPORT, Tracer

# Pretrained models of the adapt workloads come from this fixed seed, so
# --seed varies only the test stream and acc_combined does not swing with
# the luck of pretraining. The sweep derives every point's seed from --seed.
MODEL_SEED = 0
SETUP_REPS = 3
# Sweep workers. Each runs one BLAS thread (run.py pins it), so workers x
# BLAS threads stays <= nproc = 2 on the reference machine.
PARALLEL = 2
# acc_combined may differ from the value recorded for the seed by this
# share: a few flipped predictions, as from an ulp-level change in
# summation order, pass; a changed result does not.
ACC_TOLERANCE = 0.02

_clock = time.perf_counter


def mlp_pair_entries(anchor_epochs: int = 45, aux_epochs: int = 18) -> list[ModelEntry]:
    """The reference pair: layernorm 128x3 MLP anchor, batchnorm 32 auxiliary."""
    return [
        ModelEntry(spec=ModelSpec(kind="mlp", input_shape=(32,),
                                  hidden_sizes=[128, 128, 128],
                                  norm_kind="layernorm", num_classes=16),
                   lr=1e-3, pretrain_epochs=anchor_epochs),
        ModelEntry(spec=ModelSpec(kind="mlp", input_shape=(32,),
                                  hidden_sizes=[32], norm_kind="batchnorm",
                                  num_classes=16),
                   lr=0.12, pretrain_epochs=aux_epochs),
    ]


REF_TASK = SourceTask(kind="gaussian_mixture", num_classes=16, dims=32,
                      center_separation=4.5)


def mlp_iid_config(seed: int) -> RunConfig:
    return RunConfig(
        models=mlp_pair_entries(), task=REF_TASK, strategy="coca",
        corruption=CorruptionSpec(kind="gaussian_noise", severity=5),
        stream=StreamSpec(order="iid_shuffled", batch_size=64, total_samples=3200),
        n_per_class=50, seed=seed)


def conv_sorted_config(seed: int) -> RunConfig:
    task = SourceTask(kind="procedural_images", num_classes=10,
                      image_shape=(1, 8, 8), center_separation=9.0)
    entries = [ModelEntry(spec=ModelSpec(kind="convnet", input_shape=(1, 8, 8),
                                         hidden_sizes=ch, norm_kind="batchnorm",
                                         num_classes=10),
                          lr=0.05, pretrain_epochs=8)
               for ch in ([8, 16], [8, 8], [4, 4])]
    return RunConfig(
        models=entries, task=task, strategy="coca_filtered",
        corruption=CorruptionSpec(kind="blur3x3", severity=2),
        stream=StreamSpec(order="label_sorted", batch_size=64, total_samples=1920),
        n_per_class=60, collapse_threshold=0.5, seed=seed)


SWEEP_GRID = {"loss_masks": ["sa+mar+ckd", "sa"], "lam_col": [1.0, 0.5]}
# Sweep points pretrain on fewer samples than the adapt workloads, so a
# sweep takes about 2 s and a 30 s run averages over about 15 sweeps.
SWEEP_N_PER_CLASS = 20


def sweep_config(seed: int) -> RunConfig:
    return replace(mlp_iid_config(seed), n_per_class=SWEEP_N_PER_CLASS)


@dataclass(frozen=True)
class Workload:
    name: str
    config: Callable[[int], RunConfig]
    grid: Optional[dict] = None   # sweep grid; None for an adapt workload


WORKLOADS = {
    "adapt-mlp-iid": Workload("adapt-mlp-iid", mlp_iid_config),
    "adapt-conv-sorted": Workload("adapt-conv-sorted", conv_sorted_config),
    "sweep": Workload("sweep", sweep_config, SWEEP_GRID),
}


def config_doc(wl: Workload, seed: int) -> dict:
    """Everything that defines a run's inputs, for the config digest."""
    return {"workload": wl.name, "seed": seed, "model_seed": MODEL_SEED,
            "config": wl.config(seed).to_dict(), "grid": wl.grid,
            "setup_reps": SETUP_REPS, "parallel": PARALLEL,
            "ref_reps": REF_REPS, "ref_share": REF_SHARE,
            "ref_nominal_s": REF_NOMINAL_S,
            "tail_pct": TAIL_PCT, "min_steps": MIN_STEPS}


# --- shared pieces ---------------------------------------------------------

@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)   # name -> (value, unit)
    details: dict = field(default_factory=dict)

    def fail(self, message: str, batches: int) -> None:
        self.failed += batches
        if message not in self.problems:
            self.problems.append(message)


def _median(values) -> float:
    return float(statistics.median(values)) if values else float("nan")


# step_ms_tail is the mean over timed units (adapt runs, sweeps) of this
# percentile of the unit's step times. A unit has 30 to 200 steps; timing
# at least MIN_STEPS steps keeps at least 10 beyond their unit's percentile.
TAIL_PCT = 90.0
MIN_STEPS = 200
_REPORTED_PCTS = (10, 25, 50, 75, 90, 95, 99)


def _pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else float("nan")


def _percentiles(values) -> dict:
    return {f"p{q}": _pct(values, q) for q in _REPORTED_PCTS}


# --- machine speed -------------------------------------------------------------

# Other tenants of the shared host slow this machine by 1.5-2x, for seconds
# to minutes at a time, and every timing slows with it: raw wall times of
# one program spread by 0.1-0.3 (IQR / median) over ten runs. Before the
# first timed unit and after every one, the benchmark times a fixed
# reference, a numpy im2col-and-matmul kernel on arrays the size of the
# conv workload's, repeated until it has run for REF_SHARE of the unit's
# time. Timings are rescaled to the speed at which the reference takes
# REF_NOMINAL_S:
#     phase totals   x REF_NOMINAL_S / (median reference time of the phase)
#     a unit's steps x REF_NOMINAL_S / (median of the references around it)
# The program cannot change the reference, so a change to the program
# moves a rescaled timing as much as the raw one. Raw timings stay in the
# result file.
REF_REPS = 12
REF_SHARE = 0.1
REF_NOMINAL_S = 0.032
_REF_X = np.random.default_rng(0).standard_normal((64, 8, 10, 10))
_REF_W = np.random.default_rng(1).standard_normal((16, 72))


def reference_s() -> float:
    """Seconds the fixed reference takes now."""
    t0 = _clock()
    for _ in range(REF_REPS):
        cols = np.empty((64, 8, 8, 8, 3, 3))
        for i in range(3):
            for j in range(3):
                cols[..., i, j] = _REF_X[:, :, i:i + 8, j:j + 8].transpose(0, 2, 3, 1)
        cols = cols.reshape(64, 8, 8, 72)
        np.tensordot(cols @ _REF_W.T, cols, axes=([0, 1, 2], [0, 1, 2]))
    return _clock() - t0


def sample_reference(unit_s: float) -> list[float]:
    """Reference times, repeated until they add up to REF_SHARE x unit_s."""
    times = [reference_s()]
    while sum(times) < REF_SHARE * unit_s:
        times.append(reference_s())
    return times


def speed_scale(gaps: list[list[float]]) -> float:
    """Factor from wall times to nominal-speed times over these samples."""
    return REF_NOMINAL_S / _median([t for gap in gaps for t in gap])


def ref_details(gaps: list[list[float]]) -> dict:
    return {"speed_scale": speed_scale(gaps),
            "ref_s": _percentiles([t for gap in gaps for t in gap])}


def step_latency(outcome: Outcome, unit_steps: list[list[float]],
                 scales: list[float]) -> None:
    """Step-time metrics; unit i's step times are multiplied by scales[i]."""
    units = [np.asarray(steps) * 1e3 * scale for steps, scale in zip(unit_steps, scales)]
    ms = np.concatenate(units)
    tails = [_pct(u, TAIL_PCT) for u in units]
    beyond = sum(int((u > t).sum()) for u, t in zip(units, tails))
    outcome.metrics["step_ms_p50"] = (_pct(ms, 50), "ms")
    outcome.metrics["step_ms_tail"] = (float(np.mean(tails)), "ms")
    outcome.details.update(step_samples=len(ms), tail_pct=TAIL_PCT,
                           steps_beyond_tail=beyond, step_ms=_percentiles(ms),
                           unit_tail_ms=_percentiles(tails))
    if beyond < 10:
        outcome.problems.append(
            f"only {beyond} steps beyond p{TAIL_PCT:g}; need 10")


def check_acc(outcome: Outcome, wl: Workload, seed: int, acc: float,
              expected: dict, bound: float = ACC_TOLERANCE) -> None:
    """acc_combined within `bound` (relative) of the value recorded for the seed.

    Seeds without a recorded value must fall inside the recorded range
    widened by the same bound.
    """
    if not math.isfinite(acc):
        outcome.problems.append(f"acc_combined is not finite: {acc}")
        return
    recorded = expected.get(wl.name, {})
    if str(seed) in recorded:
        ref = recorded[str(seed)]
        outcome.details["acc_combined_recorded"] = ref
        if abs(acc - ref) > bound * ref:
            outcome.problems.append(
                f"acc_combined {acc:.6f} is not within {bound:.0%} of the "
                f"value recorded for seed {seed} ({ref:.6f})")
    elif recorded:
        lo, hi = min(recorded.values()), max(recorded.values())
        outcome.details["acc_combined_recorded_range"] = [lo, hi]
        if not lo * (1 - bound) <= acc <= hi * (1 + bound):
            outcome.problems.append(
                f"acc_combined {acc:.6f} is outside the recorded range "
                f"[{lo:.6f}, {hi:.6f}] widened by {bound:.0%}")


def _per(x: float, n: int) -> float:
    return x / n if n else 0.0


def layer_metrics(t: Tracer) -> dict:
    """Per-layer numbers from a full trace, normalised per unit of work.

    Step stages are per adaptation step; pretraining is per
    ``prepare_models`` call; data and harness numbers are per pipeline,
    one pretraining plus one ``harness.run``.
    """
    n_prep = t.calls("prepare", "harness.prepare_models")
    n_run = t.calls("run", "harness.run")
    n_step = t.calls("step", STEP)

    def pipeline(name: str) -> float:
        return (_per(t.seconds("prepare", name), n_prep)
                + _per(t.seconds("run", name) + t.seconds("step", name), n_run))

    decisions = t.calls("step", "adaptation.learn_tau")
    m = {
        "shiftgen.gen_source_s": (pipeline("shiftgen.gen_source"), "s/pipeline"),
        "shiftgen.apply_corruption_s": (pipeline("shiftgen.apply_corruption"), "s/pipeline"),
        "shiftgen.stream_s": (pipeline("shiftgen.stream"), "s/pipeline"),
        "models.pretrain_s": (_per(t.seconds("prepare", "models.pretrain"), n_prep), "s/pretrain"),
        "models.pretrain_steps": (_per(t.calls("prepare", "autodiff.sgd_step"), n_prep),
                                  "count/pretrain"),
        "models.forward_s": (_per(t.seconds("step", "models.forward"), n_step), "s/step"),
        "models.forward_calls": (_per(t.calls("step", "models.forward"), n_step), "count/step"),
        "autodiff.backward_s": (_per(t.seconds("step", "autodiff.backward"), n_step), "s/step"),
        "autodiff.sgd_step_s": (_per(t.seconds("step", "autodiff.sgd_step"), n_step), "s/step"),
        "autodiff.nodes_per_step": (_per(t.counts.get(("step", "autodiff.nodes"), 0), n_step),
                                    "count/step"),
    }
    for op in TRACE_OPS:
        name = f"autodiff.op.{op}"
        m[f"{name}.calls"] = (_per(t.calls("step", name), n_step), "count/step")
        m[f"{name}.s"] = (_per(t.seconds("step", name), n_step), "s/step")
    m.update({
        "adaptation.step_s": (_per(t.seconds("step", STEP), n_step), "s/step"),
        "adaptation.learn_tau_s": (_per(t.seconds("step", "adaptation.learn_tau"), n_step),
                                   "s/step"),
        "adaptation.ensemble_s": (_per(t.seconds("step", "adaptation.ensemble"), n_step),
                                  "s/step"),
        "adaptation.step_self_s": (_per(t.self_seconds("step", STEP), n_step), "s/step"),
        "adaptation.guard_drop_frac": (_per(t.calls("step", "adaptation.drop_auxiliary"),
                                            decisions), "fraction"),
        "adaptation.filter_kept_frac": (float(np.mean([s["kept_frac"] for s in t.steps]))
                                        if t.steps else 0.0, "fraction"),
        "harness.run_self_s": (_per(t.self_seconds("run", "harness.run"), n_run), "s/run"),
    })
    return m


def nesting_errors(steps: list[dict]) -> int:
    """Steps whose child spans add up to more than the step span."""
    return sum(1 for s in steps if s["self_s"] < -1e-6)


def trace_metrics(outcome: Outcome, full: Tracer, traced_rates, untraced_rates) -> None:
    traced, untraced = _median(traced_rates), _median(untraced_rates)
    outcome.metrics["trace.untraced_samples_per_s"] = (untraced, "1/s")
    outcome.metrics["trace.traced_samples_per_s"] = (traced, "1/s")
    outcome.metrics["trace.overhead_frac"] = (1.0 - traced / untraced, "fraction")
    errors = nesting_errors(full.steps)
    outcome.metrics["trace.nesting_errors"] = (errors, "count")
    if errors:
        outcome.problems.append(f"{errors} steps have child spans longer than the step")


def _param_bytes(models) -> list[bytes]:
    return [p.data.tobytes() for m in models for p in m.params.values()]


def _nonfinite_losses(report) -> int:
    """Number of batches whose total loss is not finite."""
    return sum(1 for r in report.records
               if r.l_total is not None and not math.isfinite(r.l_total))


# --- adapt workloads ---------------------------------------------------------

def run_adapt(wl: Workload, seed: int, seconds: float, trace: bool,
              expected: dict) -> tuple[Outcome, Tracer]:
    out = Outcome()
    probe, full = Tracer(), Tracer()
    setup_cfg = wl.config(MODEL_SEED)
    run_cfg = replace(setup_cfg, seed=seed)

    setup_s, setup_ref, first_params, pretrained = [], [], None, None
    if trace:
        full.install("full")
    try:
        for _ in range(SETUP_REPS):
            t0 = _clock()
            pretrained = harness.prepare_models(setup_cfg)
            setup_s.append(_clock() - t0)
            setup_ref.append(sample_reference(setup_s[-1]))
            params = _param_bytes(pretrained)
            if first_params is None:
                first_params = params
            elif params != first_params:
                out.problems.append("set-up repetitions gave different parameters")
    finally:
        full.uninstall()

    first_csv, acc = None, float("nan")
    runs = {False: [], True: []}   # traced? -> [(samples, seconds)]
    run_steps = []   # untraced run -> its step times
    run_ref = [] if trace else [sample_reference(0.0)]
    start = _clock()
    while (_clock() - start < seconds or not runs[trace]
           or (not trace and len(probe.steps) < MIN_STEPS)):
        traced = trace and len(runs[False]) > len(runs[True])
        tracer = full if traced else probe
        clones = [m.clone() for m in pretrained]
        tracer.install("full" if traced else "probe")
        k = len(probe.steps)
        try:
            t0 = _clock()
            report = harness.run(run_cfg, models=clones)
            dt = _clock() - t0
        except Exception as exc:  # counted as a failure; the loop stops
            out.attempted += 1
            out.fail(f"harness.run raised {type(exc).__name__}: {exc}", 1)
            break
        finally:
            tracer.uninstall()
        runs[traced].append((report.n_samples, dt))
        if not trace:
            run_ref.append(sample_reference(dt))
            run_steps.append([st["s"] for st in probe.steps[k:]])
        n = len(report.records)
        out.attempted += n
        csv_text = report.metrics_csv()
        if first_csv is None:
            first_csv, acc = csv_text, float(report.acc_combined)
        if csv_text != first_csv:
            out.fail("repeated runs from the same models disagree", n)
        elif _nonfinite_losses(report):
            out.fail("non-finite loss", _nonfinite_losses(report))

    check_acc(out, wl, seed, acc, expected)
    rates = {k: [n / s for n, s in v] for k, v in runs.items()}
    out.details.update(runs=len(runs[False]) + len(runs[True]), setup_runs_s=setup_s,
                       setup_ref_s=setup_ref, acc_combined=acc)
    m = out.metrics
    if trace:
        m.update(layer_metrics(full))
        m["cli.sweep_point_s"] = (0.0, "s/point")
        m["cli.worker_idle_frac"] = (0.0, "fraction")
        trace_metrics(out, full, rates[True], rates[False])
    else:
        run_s = [s for _, s in runs[False]]
        nominal_s = sum(run_s) * speed_scale(run_ref)
        m["setup_s"] = (_median(setup_s) * speed_scale(setup_ref), "s")
        m["adapt_samples_per_s"] = (sum(n for n, _ in runs[False]) / nominal_s, "1/s")
        m["runs_per_s"] = (len(run_s) / nominal_s, "1/s")
        out.details.update(run_s=_percentiles(run_s), **ref_details(run_ref))
        step_latency(out, run_steps,
                     [speed_scale(run_ref[i:i + 2]) for i in range(len(run_steps))])
        m["acc_combined"] = (acc, "fraction")
    return out, full


# --- sweep workload ------------------------------------------------------------

def summary_accs(summary_csv: str) -> list[float]:
    """acc_combined of every point in a sweep's summary.csv."""
    return [float(row["acc_combined"]) for row in csv.DictReader(io.StringIO(summary_csv))]


def _adapt_loop(exported: dict) -> tuple[int, float]:
    """Samples and seconds of one point's adaptation loop, set-up excluded."""
    tot = {(c, n): s for c, n, _, s, _ in exported["totals"]}
    samples = sum(v for c, n, v in exported["counts"] if n == "samples")
    loop_s = tot.get(("run", "harness.run"), 0.0) - tot.get(("prepare", "harness.prepare_models"), 0.0)
    return samples, loop_s


def run_sweep(wl: Workload, seed: int, seconds: float, trace: bool,
              expected: dict, work: Path) -> tuple[Outcome, Tracer]:
    out = Outcome()
    probe, full = Tracer(), Tracer()
    work.mkdir(parents=True, exist_ok=True)
    cfg_path, grid_path = work / "config.json", work / "grid.json"
    cfg_path.write_text(json.dumps(wl.config(seed).to_dict()))
    grid_path.write_text(json.dumps(wl.grid))
    cfg_dict = cli.load_config(str(cfg_path)).to_dict()
    points = harness.sweep_points(wl.grid)

    # Set-up: the first point, run serially the way a worker runs it. Its
    # report must match the parallel sweep's byte for byte.
    setup_s, setup_ref = [], []
    for i in range(SETUP_REPS):
        t0 = _clock()
        cli._sweep_one(cfg_dict, points[0], 0, str(work / f"setup_{i}"))
        setup_s.append(_clock() - t0)
        setup_ref.append(sample_reference(setup_s[-1]))
    serial_report = (work / "setup_0" / "run_000" / "report.json").read_text()

    first_summary, accs = None, []
    point_loops = {False: [], True: []}   # traced? -> [(samples, seconds)]
    sweep_s, sweep_steps, traced_wall = [], [], 0.0
    sweep_ref = [] if trace else [sample_reference(0.0)]
    start = _clock()
    n = 0
    while (_clock() - start < seconds or (trace and n < 2)
           or (not trace and len(probe.steps) < MIN_STEPS)):
        traced = trace and n % 2 == 1
        tracer = full if traced else probe
        sweep_dir = work / f"sweep_{n}"
        argv = ["sweep", str(cfg_path), "--grid", str(grid_path), "--out", str(sweep_dir),
                "--parallel", str(PARALLEL)]
        tracer.install("full" if traced else "probe")
        try:
            t0 = _clock()
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(argv)
            dt = _clock() - t0
        except Exception as exc:  # counted as a failure; the loop stops
            rc = f"{type(exc).__name__}: {exc}"
        finally:
            tracer.uninstall()
        n += 1
        out.attempted += len(points)
        if rc != 0:
            out.fail(f"coca sweep failed: {rc}", len(points))
            break
        if traced:
            traced_wall += dt
        else:
            sweep_s.append(dt)
        if not trace:
            sweep_ref.append(sample_reference(dt))
        k = len(probe.steps)
        nonfinite = 0
        for i in range(len(points)):
            exported = json.loads((sweep_dir / f"run_{i:03d}" / WORKER_EXPORT).read_text())
            tracer.merge(exported)
            point_loops[traced].append(_adapt_loop(exported))
            nonfinite += any(not math.isfinite(s["loss"]) for s in exported["steps"])
        if not traced:
            sweep_steps.append([st["s"] for st in probe.steps[k:]])
        summary = (sweep_dir / "summary.csv").read_text()
        if first_summary is None:
            first_summary = summary
            accs = summary_accs(summary)
        if summary != first_summary:
            out.fail("repeated sweeps disagree", len(points))
        elif (sweep_dir / "run_000" / "report.json").read_text() != serial_report:
            out.fail("parallel sweep disagrees with the serial run of point 0", len(points))
        elif nonfinite:
            out.fail("non-finite loss", nonfinite)
        else:
            bad = sum(1 for a in accs if not 0.0 <= a <= 1.0)
            if bad:
                out.fail("acc_combined outside [0, 1] or not finite", bad)
        shutil.rmtree(sweep_dir)

    acc = float(np.mean(accs)) if accs else float("nan")
    check_acc(out, wl, seed, acc, expected)
    out.details.update(sweeps=n, points_per_sweep=len(points), setup_runs_s=setup_s,
                       setup_ref_s=setup_ref, acc_combined=acc)
    m = out.metrics
    if trace:
        m.update(layer_metrics(full))
        point_s = full.seconds("other", SWEEP_POINT)
        m["cli.sweep_point_s"] = (_per(point_s, full.calls("other", SWEEP_POINT)), "s/point")
        m["cli.worker_idle_frac"] = (1.0 - _per(point_s, PARALLEL * traced_wall), "fraction")
        trace_metrics(out, full, *([n / s for n, s in point_loops[k]] for k in (True, False)))
    else:
        scale = speed_scale(sweep_ref)
        loops = point_loops[False]
        m["setup_s"] = (_median(setup_s) * speed_scale(setup_ref), "s")
        m["adapt_samples_per_s"] = (sum(n for n, _ in loops)
                                    / (sum(s for _, s in loops) * scale), "1/s")
        m["runs_per_s"] = (len(points) * len(sweep_s) / (sum(sweep_s) * scale), "1/s")
        out.details.update(sweep_s=_percentiles(sweep_s), sweep_s_all=sweep_s,
                           **ref_details(sweep_ref))
        # Step times inside the two workers did not follow the reference
        # taken between sweeps (rescaled, their spread over ten runs rose
        # from 0.07 to 0.19), so they stay raw.
        step_latency(out, sweep_steps, [1.0] * len(sweep_steps))
        m["acc_combined"] = (acc, "fraction")
    return out, full
