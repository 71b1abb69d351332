"""Run orchestration: configs, determinism, metrics, sweeps, the process pool."""

import concurrent.futures
import ctypes
import importlib
import inspect
import json
import multiprocessing
import os
import resource
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from coca_tta import adaptation, cli, harness
from coca_tta import autodiff as ad
from coca_tta.adaptation import LossBreakdown, LossMasks
from coca_tta.harness import (CSV_HEADER, MASK_NAMES, MetricsRecord, ModelEntry,
                              RunConfig, evaluate_accuracy, mix64,
                              point_config, prepare_models, run, sweep_points)
from coca_tta.models import ModelSpec, anchor_select, build_model, pretrain
from coca_tta.shiftgen import SourceTask, StreamSpec


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def committed_config(name: str) -> RunConfig:
    """configs/<name>.json, read afresh on every call, so no two configs share an entry."""
    return cli.load_config(CONFIGS / f"{name}.json")


def small_config(strategy="coca", seed=0, pretrain_epochs=8, **overrides):
    """configs/tiny.json on a 256-sample stream; ``pretrain_epochs`` is every
    default entry's budget."""
    tiny = committed_config("tiny")
    return replace(tiny, **{
        "models": [replace(e, pretrain_epochs=pretrain_epochs) for e in tiny.models],
        "stream": replace(tiny.stream, total_samples=256),
        "strategy": strategy, "seed": seed, **overrides})


class TestMix64:
    def test_deterministic(self):
        assert mix64(7, 3) == mix64(7, 3)

    def test_distinct_indices_differ(self):
        vals = {mix64(0, i) for i in range(100)}
        assert len(vals) == 100

    def test_nonnegative_63_bit(self):
        for s, i in [(0, 0), (2**62, 5), (123456789, 999)]:
            v = mix64(s, i)
            assert 0 <= v < 2**63


class TestRunConfig:
    def test_rejects_unknown_strategy(self):
        with pytest.raises(ValueError):
            small_config(strategy="magic")

    def test_coca_needs_two_models(self):
        cfg = small_config()
        with pytest.raises(ValueError):
            RunConfig(**{**cfg.__dict__, "models": cfg.models[:1],
                         "strategy": "coca"})

    def test_class_count_mismatch_rejected(self):
        cfg = small_config()
        bad = ModelEntry(spec=ModelSpec(kind="mlp", input_shape=(8,),
                                        hidden_sizes=[8], norm_kind="layernorm",
                                        num_classes=7), lr=1e-3)
        with pytest.raises(ValueError):
            RunConfig(**{**cfg.__dict__, "models": [cfg.models[0], bad]})

    def test_rejects_all_loss_masks_off(self):
        # an objective with no term has no gradient to step on
        with pytest.raises(ValueError, match="loss_masks"):
            small_config(loss_masks=LossMasks(sa=False, mar=False, ckd=False))
        with pytest.raises(ValueError, match="loss_masks"):
            point_config(small_config(),
                         {"loss_masks": {"sa": False, "mar": False, "ckd": False}}, 0)

    @pytest.mark.parametrize("lam_col", [-0.5, float("nan"), float("inf")])
    def test_rejects_negative_lam_col(self, lam_col):
        with pytest.raises(ValueError, match="lam_col"):
            small_config(lam_col=lam_col)

    def test_rejects_identically_zero_objective(self):
        # lam_col = 0 with sa off leaves no term: the run would adapt nothing
        for name in ("mar", "ckd", "mar+ckd"):
            with pytest.raises(ValueError, match="identically 0"):
                small_config(lam_col=0.0, loss_masks=MASK_NAMES[name])
        assert small_config(lam_col=0.0, loss_masks=MASK_NAMES["sa"]).lam_col == 0.0

    @pytest.mark.parametrize("name", ["pretrain_epochs", "n_per_class"])
    @pytest.mark.parametrize("value", [0, -2])
    def test_rejects_pretraining_sizes_below_one(self, name, value):
        # they used to fail only inside the pretraining jobs, after the pool started
        with pytest.raises(ValueError, match=f"{name} must be >= 1"):
            small_config(**{name: value})

    @pytest.mark.parametrize("epochs", [0, -1])
    def test_rejects_an_entry_budget_below_one(self, epochs):
        # an entry budget of 0 used to pretrain for the run's epoch count
        entry = small_config().models[0]
        with pytest.raises(ValueError, match="pretrain_epochs must be >= 1"):
            replace(entry, pretrain_epochs=epochs)
        doc = small_config().to_dict()
        doc["models"][1]["pretrain_epochs"] = epochs
        with pytest.raises(ValueError, match=r"<root>\.models\[1\]: pretrain_epochs"):
            RunConfig.from_dict(doc)

    def test_each_entry_pretrains_for_its_own_budget(self):
        cfg = small_config(pretrain_epochs=3)
        cfg.models[1] = replace(cfg.models[1], pretrain_epochs=1)
        _, logs = harness.pretrain_models(cfg)
        assert [len(log) for log in logs] == [3, 1]

    def test_rejects_a_stream_of_single_sample_batches(self):
        # make_stream drops such batches; the run used to divide by zero samples
        doc = small_config().to_dict()
        doc["stream"]["batch_size"] = 1
        with pytest.raises(ValueError, match="batch_size must be >= 2"):
            RunConfig.from_dict(doc)

    @pytest.mark.parametrize("name", ["collapse_threshold"])
    def test_thresholds_in_unit_interval(self, name):
        for bad in (-0.1, 1.5, float("nan")):
            with pytest.raises(ValueError, match=name):
                small_config(**{name: bad})
        for ok in (0.0, 1.0):
            assert getattr(small_config(**{name: ok}), name) == ok


class TestMetricsRecord:
    def test_csv_row_with_values(self):
        rec = MetricsRecord(batch=3, n_samples=32, acc_per_model=[0.5, 0.25],
                            acc_combined=0.75, tau=1.5,
                            losses=LossBreakdown(l_mar=0.1, l_ckd=0.2, l_sa=0.3,
                                                 l_total=0.6, kept_frac=1.0))
        assert rec.csv_row() == "3,0.5,0.25,0.75,1.5,0.1,0.2,0.3,0.6,1"

    def test_csv_row_na_for_missing(self):
        rec = MetricsRecord(batch=0, n_samples=32, acc_per_model=[1.0],
                            acc_combined=None, tau=None, losses=None)
        assert rec.csv_row() == "0,1,NA,NA,NA,NA,NA,NA,NA,NA"

    def test_header_field_count_matches_row(self):
        rec = MetricsRecord(batch=0, n_samples=32, acc_per_model=[1.0],
                            acc_combined=None, tau=None, losses=None)
        assert len(CSV_HEADER.split(",")) == len(rec.csv_row().split(","))


class TestEvaluateAccuracy:
    def test_hand_count(self):
        assert evaluate_accuracy(np.array([0, 1, 2, 2]),
                                 np.array([0, 1, 1, 2])) == 0.75

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            evaluate_accuracy(np.zeros(3), np.zeros(4))


class TestPretrainCache:
    """What pretraining reads. A caller shares a pretraining between configs
    whose _pretrain_job lists are equal, so a job holds everything it reads."""

    @staticmethod
    def count_pretrains(monkeypatch) -> list:
        """Return a list that grows per pretrained model.

        One usable CPU keeps pretraining in this process, where it is counted.
        """
        monkeypatch.setattr(harness, "usable_cpus", lambda: 1)
        calls, pretrain = [], harness.pretrain
        monkeypatch.setattr(harness, "pretrain",
                            lambda *a, **kw: calls.append(1) or pretrain(*a, **kw))
        return calls

    @staticmethod
    def param_bytes(models) -> list:
        return [[p.data.tobytes() for p in m.all_params()] for m in models]

    @staticmethod
    def jobs(cfg) -> list:
        return [harness._pretrain_job(cfg, i) for i in range(len(cfg.models))]

    def test_added_model_pretrains_only_itself(self, monkeypatch):
        # a caller that adds a model to a pretrained pair pretrains only the
        # new one, as the larger config's entry of that index
        calls = self.count_pretrains(monkeypatch)
        cfg2 = small_config(pretrain_epochs=2)
        third = ModelEntry(spec=ModelSpec(kind="mlp", input_shape=(8,), hidden_sizes=[6],
                                          norm_kind="layernorm", num_classes=4), lr=5e-3,
                           pretrain_epochs=2)
        cfg3 = small_config(models=cfg2.models + [third])
        pair = prepare_models(cfg2)
        assert len(calls) == 2
        added, _ = harness._pretrain_one(*harness._pretrain_job(cfg3, 2))
        assert len(calls) == 3
        assert self.param_bytes(pair + [added]) == self.param_bytes(prepare_models(cfg3))

    def test_adaptation_lr_is_not_part_of_the_key(self):
        cfg = small_config(pretrain_epochs=2)
        relr = small_config(models=[replace(e, lr=e.lr * 3) for e in cfg.models])
        assert relr != cfg and self.jobs(relr) == self.jobs(cfg)

    @pytest.mark.parametrize("override", [
        {"seed": 1}, {"pretrain_epochs": 3}, {"n_per_class": 30},
        {"task": SourceTask(kind="gaussian_mixture", num_classes=4, dims=8,
                            center_separation=3.0)},
    ], ids=lambda o: next(iter(o)))
    def test_pretraining_inputs_are_part_of_the_key(self, override):
        base = self.jobs(small_config(pretrain_epochs=2))
        other = self.jobs(small_config(**{"pretrain_epochs": 2, **override}))
        assert [a != b for a, b in zip(base, other)] == [True, True]

    def test_entry_spec_epochs_and_index_are_part_of_the_key(self):
        cfg = small_config(pretrain_epochs=2)
        longer = [replace(cfg.models[0], pretrain_epochs=3), cfg.models[1]]
        narrower = [cfg.models[0], replace(cfg.models[1], spec=replace(
            cfg.models[1].spec, hidden_sizes=[10]))]
        swapped = self.jobs(small_config(models=cfg.models[::-1]))
        base = self.jobs(cfg)
        # only the changed entry's job differs
        assert [[a != b for a, b in zip(self.jobs(small_config(models=m)), base)]
                for m in (longer, narrower)] == [[True, False], [False, True]]
        # a moved entry's job differs from its old one in the index alone
        index = list(inspect.signature(harness._pretrain_one).parameters).index("index")
        for moved, old in zip(swapped[::-1], base):
            assert moved != old
            assert moved[:index] + moved[index + 1:] == old[:index] + old[index + 1:]


class TestBenchmarkContract:
    """What perfbench/ relies on: it patches functions by name and reads run reports."""

    @staticmethod
    def count_prepares(monkeypatch, pretrains: list) -> list:
        """Wrap harness.prepare_models; the list gets each call's pretrain count."""
        spans, prepare = [], harness.prepare_models

        def counted(*args, **kwargs):
            before = len(pretrains)
            models = prepare(*args, **kwargs)
            spans.append(len(pretrains) - before)
            return models

        monkeypatch.setattr(harness, "prepare_models", counted)
        return spans

    def test_config_fields_the_benchmark_sets(self):
        # the keywords that perfbench/workloads.py builds its configs with
        assert {"spec", "lr", "pretrain_epochs"} <= {f.name for f in fields(ModelEntry)}
        assert {"models", "task", "strategy", "corruption", "stream", "n_per_class",
                "collapse_threshold", "seed"} <= {f.name for f in fields(RunConfig)}

    @pytest.mark.parametrize("seed", [0, 1, 201])
    def test_benchmark_mlp_config_is_the_committed_reference(self, monkeypatch, seed):
        # perfbench/workloads.py still writes the reference pair out by hand;
        # this keeps that copy from drifting from configs/reference.json
        monkeypatch.syspath_prepend(str(CONFIGS.parent / "perfbench"))
        workloads = importlib.import_module("workloads")
        expected = replace(committed_config("reference"), n_per_class=50, seed=seed)
        assert workloads.mlp_iid_config(seed) == expected

    def test_autodiff_ops_the_tracer_wraps(self):
        # perfbench/tracer.py wraps these by name; a renamed op would zero
        # its counters, and A1 calls conv2d with input and kernel only
        for op in ("matmul", "conv2d", "layernorm", "batchnorm", "logsumexp",
                   "softmax", "add", "mul"):
            assert callable(getattr(ad, op, None)), op
        out = ad.conv2d(np.ones((2, 3, 4, 4)), np.ones((5, 3, 3, 3)))
        assert out.shape == (2, 5, 4, 4)

    def test_run_and_pretraining_take_only_the_config(self):
        # the set-up times prepare_models(config); adapt runs pass clones
        assert list(inspect.signature(harness.run).parameters) == ["config", "models"]
        for fn in (harness.prepare_models, harness.pretrain_models):
            assert list(inspect.signature(fn).parameters) == ["config"], fn.__name__

    @pytest.mark.parametrize("explicit_none", [True, False])
    def test_run_pretrains_inside_one_prepare_models_call(self, monkeypatch, explicit_none):
        # the sweep's adaptation time is harness.run minus this one span;
        # models=None passed explicitly must pretrain just like the default
        pretrains = TestPretrainCache.count_pretrains(monkeypatch)
        spans = self.count_prepares(monkeypatch, pretrains)
        cfg = small_config(pretrain_epochs=2)
        kwargs = {"models": None} if explicit_none else {}
        run(cfg, **kwargs)
        assert spans == [2]
        assert len(pretrains) == 2
        run(cfg, **kwargs)
        assert spans == [2, 2]
        assert len(pretrains) == 4

    def test_prepare_models_pretrains_on_every_call(self, monkeypatch):
        # the adapt set-up times it, so every call pretrains
        pretrains = TestPretrainCache.count_pretrains(monkeypatch)
        cfg = small_config(pretrain_epochs=2)
        first = harness.prepare_models(cfg)
        again = harness.prepare_models(cfg)
        assert len(pretrains) == 4
        assert TestPretrainCache.param_bytes(first) == TestPretrainCache.param_bytes(again)

    @pytest.mark.parametrize("strategy", ["coca", "tent"])
    def test_run_report_holds_what_the_benchmark_reads(self, strategy):
        # the adapt loop counts report.records and report.n_samples, checks
        # record.l_total for non-finite losses, compares report.metrics_csv()
        # across runs and reads report.acc_combined; the tracer reads n_samples
        report = run(small_config(strategy=strategy, pretrain_epochs=2))
        assert len(report.records) == 8
        assert report.n_samples == sum(r.n_samples for r in report.records) == 256
        lines = report.metrics_csv().splitlines()
        assert lines[0] == CSV_HEADER and len(lines) == len(report.records) + 1
        assert ([line.split(",")[8] for line in lines[1:]]
                == [harness.fmt_number(r.l_total) for r in report.records])
        if strategy == "tent":
            assert all(r.l_total is None for r in report.records)
            assert report.acc_combined is None
        else:
            assert all(isinstance(r.l_total, float) for r in report.records)
            assert isinstance(report.acc_combined, float)

    def test_tent_runs_each_model_through_the_traced_step(self, monkeypatch):
        # the tracer replaces these adaptation functions by name, and
        # multi_model_step also where harness holds it; its step span must
        # then time tent's steps too, one one-model step per model and batch
        for name in ("coca_step", "multi_model_step", "learn_tau", "ensemble",
                     "drop_auxiliary"):
            assert callable(getattr(adaptation, name)), name
        assert harness.multi_model_step is adaptation.multi_model_step
        calls, step = [], harness.multi_model_step

        def counted(models_desc, *args, **kwargs):
            calls.append(len(models_desc))
            return step(models_desc, *args, **kwargs)

        monkeypatch.setattr(harness, "multi_model_step", counted)
        report = run(small_config(strategy="tent", pretrain_epochs=2))
        assert calls == [1] * 2 * len(report.records) and len(report.records) == 8

    def test_sweep_point_pretrains_inside_one_uncached_call(self, monkeypatch, tmp_path):
        # the tracer wraps cli._sweep_one, and models.pretrain wherever it is held
        assert list(inspect.signature(cli._sweep_one).parameters) == [
            "cfg_dict", "point", "index", "out_dir"]
        assert harness.pretrain is pretrain
        pretrains = TestPretrainCache.count_pretrains(monkeypatch)
        spans = self.count_prepares(monkeypatch, pretrains)
        cli._sweep_one(small_config(pretrain_epochs=2).to_dict(), {"tau_steps": 1}, 0,
                       str(tmp_path))
        assert spans == [2]


def conv_config(pretrain_epochs=2, **overrides):
    """Three batchnorm convnets of different widths on 6x6 images."""
    task = SourceTask(kind="procedural_images", num_classes=4, image_shape=(1, 6, 6),
                      center_separation=9.0)
    entries = [ModelEntry(spec=ModelSpec(kind="convnet", input_shape=(1, 6, 6),
                                         hidden_sizes=ch, norm_kind="batchnorm",
                                         num_classes=4), lr=0.05,
                          pretrain_epochs=pretrain_epochs)
               for ch in ([6, 8], [4, 4], [2, 3])]
    kwargs = dict(models=entries, task=task, strategy="coca", n_per_class=12, seed=3)
    kwargs.update(overrides)
    return RunConfig(**kwargs)


def nested_pids():
    """This process's pid, and the pids that a nested two-job parallel_map ran in."""
    return os.getpid(), harness.parallel_map(os.getpid, [(), ()], 2)


def fail_on_one(i):
    if i == 1:
        raise LookupError(f"job {i} has no entry")
    return i


def second_pretrain_faults() -> int:
    """Minor page faults of the second of two equal convnet pretrainings here."""
    task = SourceTask(kind="procedural_images", num_classes=10, image_shape=(1, 8, 8),
                      center_separation=9.0)
    entry = ModelEntry(spec=ModelSpec(kind="convnet", input_shape=(1, 8, 8),
                                      hidden_sizes=[8, 16], norm_kind="batchnorm",
                                      num_classes=10), lr=0.05, pretrain_epochs=3)
    cfg = RunConfig(models=[entry], task=task, strategy="tent", n_per_class=13)
    job = harness._pretrain_job(cfg, 0)
    harness._pretrain_one(*job)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    harness._pretrain_one(*job)
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before


# Serial pretraining of a 128-wide anchor in a fresh interpreter: the
# OpenBLAS thread count it ran with, and a digest of its parameters.
BLAS_PROBE = """
import ctypes, hashlib, json, sys
from pathlib import Path
import numpy as np
from coca_tta import harness
threads = None
for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*")):
    get = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_num_threads64_", None)
    if get is not None:
        get.argtypes, get.restype = [], ctypes.c_int
        threads = get()
models, _ = harness.pretrain_models(harness.RunConfig.from_dict(json.loads(sys.argv[1])))
digest = hashlib.sha256(b"".join(p.data.tobytes() for p in models[0].all_params()))
print(json.dumps({"threads": threads, "digest": digest.hexdigest()}))
"""


class TestProcessPool:
    @staticmethod
    def record_pools(monkeypatch, processes: bool) -> list:
        """Record the worker count of every pool that parallel_map starts.

        With processes=False a one-thread pool runs the jobs, so no process
        starts; its thread is no pool worker.
        """
        requested = []
        base = (concurrent.futures.ProcessPoolExecutor if processes
                else concurrent.futures.ThreadPoolExecutor)

        class RecordingPool(base):
            def __init__(self, max_workers, initializer):
                requested.append(max_workers)
                assert initializer is harness._pool_worker_init
                if processes:
                    super().__init__(max_workers=max_workers, initializer=initializer)
                else:
                    super().__init__(max_workers=1)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        return requested

    @staticmethod
    def pretrained_bytes(models, logs) -> list:
        return [[p.data.tobytes() for p in m.all_params()] for m in models] + [json.dumps(logs)]

    @pytest.mark.parametrize("n_models,cpus,expected", [
        (3, 2, [2]), (3, 8, [3]), (2, 2, [2]), (3, 1, []), (1, 4, [])])
    def test_worker_count_is_models_capped_at_cpus(self, monkeypatch, n_models, cpus,
                                                   expected):
        requested = self.record_pools(monkeypatch, processes=False)
        monkeypatch.setattr(harness, "usable_cpus", lambda: cpus)
        cfg = conv_config(pretrain_epochs=1)
        cfg = replace(cfg, models=cfg.models[:n_models],
                      strategy="coca" if n_models > 1 else "tent")
        models, logs = harness.pretrain_models(cfg)
        assert requested == expected
        assert len(models) == len(logs) == n_models

    def test_call_inside_a_pool_worker_runs_serially(self):
        outer = harness.parallel_map(nested_pids, [(), ()], 2)
        for pid, inner in outer:
            assert pid != os.getpid()
            assert inner == [pid, pid]

    def test_workers_keep_their_heap(self):
        if getattr(ctypes.CDLL(None), "mallopt", None) is None:
            pytest.skip("no glibc mallopt: the allocator is left alone")
        # a spawned worker starts from glibc's defaults, whatever this
        # process's heap has been through
        faults = []
        for init in (None, harness._pool_worker_init):
            with concurrent.futures.ProcessPoolExecutor(
                    max_workers=1, mp_context=multiprocessing.get_context("spawn"),
                    initializer=init) as pool:
                faults.append(pool.submit(second_pretrain_faults).result())
        default, pinned = faults
        assert default >= 10 * max(pinned, 1), faults

    def test_serial_path_never_runs_the_worker_init(self, monkeypatch):
        def forbidden():
            raise AssertionError("the calling process ran the pool initializer")

        monkeypatch.setattr(harness, "_pool_worker_init", forbidden)
        pid = os.getpid()
        assert harness.parallel_map(os.getpid, [(), ()], 1) == [pid, pid]
        assert harness.parallel_map(os.getpid, [()], 4) == [pid]
        assert not harness._IN_POOL_WORKER

    def test_serial_pretraining_ignores_the_blas_thread_count(self):
        if harness.usable_cpus() < 2:
            pytest.skip("OpenBLAS runs one thread on one CPU")
        # the reference anchor's 64x128 by 128x128 products lie above
        # OpenBLAS's threading threshold
        ref = committed_config("reference")
        cfg = replace(ref, models=[replace(ref.models[0], pretrain_epochs=3)], strategy="tent",
                      corruption=None, stream=StreamSpec(), n_per_class=20, seed=5)
        blas_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        env = {k: v for k, v in os.environ.items() if k not in blas_vars}
        # the fresh interpreter imports the package under test, not another copy
        env["PYTHONPATH"] = str(Path(harness.__file__).resolve().parents[1])
        results = []
        for threads in ("1", "2"):
            out = subprocess.run([sys.executable, "-c", BLAS_PROBE, json.dumps(cfg.to_dict())],
                                 env={**env, "OPENBLAS_NUM_THREADS": threads},
                                 capture_output=True, text=True, check=True)
            results.append(json.loads(out.stdout))
        if results[0]["threads"] is not None:
            assert [r["threads"] for r in results] == [1, 2]
        assert results[0]["digest"] == results[1]["digest"]

    def test_worker_exception_reaches_the_caller(self):
        with pytest.raises(LookupError, match="job 1 has no entry"):
            harness.parallel_map(fail_on_one, [(0,), (1,), (2,)], 2)

    def test_pool_matches_serial_loop_byte_for_byte(self, monkeypatch):
        cfg = conv_config()
        monkeypatch.setattr(harness, "usable_cpus", lambda: 1)
        serial = self.pretrained_bytes(*harness.pretrain_models(cfg))
        requested = self.record_pools(monkeypatch, processes=True)
        monkeypatch.setattr(harness, "usable_cpus", lambda: 3)
        pooled = self.pretrained_bytes(*harness.pretrain_models(cfg))
        assert requested == [3]
        assert pooled == serial


class TestRun:
    def test_coca_run_shape_and_determinism(self):
        r1 = run(small_config(seed=3))
        r2 = run(small_config(seed=3))
        assert r1.to_json() == r2.to_json()
        assert r1.n_samples == 256
        assert len(r1.acc_per_model) == 2
        assert r1.acc_combined is not None
        assert r1.tau_final is not None
        assert r1.tau_min_seen <= r1.tau_final <= r1.tau_max_seen

    def test_aggregate_accuracy_matches_records(self):
        r = run(small_config(seed=4))
        total = sum(rec.n_samples for rec in r.records)
        anchor = sum(rec.acc_anchor * rec.n_samples for rec in r.records) / total
        comb = sum(rec.acc_combined * rec.n_samples for rec in r.records) / total
        assert abs(r.acc_anchor - anchor) < 1e-12
        assert abs(r.acc_combined - comb) < 1e-12

    def test_tent_has_no_combined_or_tau(self):
        r = run(small_config(strategy="tent", seed=5))
        assert r.acc_combined is None
        assert r.tau_final is None
        assert all(rec.acc_combined is None for rec in r.records)

    def test_three_model_records_keep_every_accuracy(self):
        r = run(conv_config())
        assert all(len(rec.acc_per_model) == 3 for rec in r.records)
        assert r.n_samples == sum(rec.n_samples for rec in r.records)
        for i in range(3):
            total = 0.0
            for rec in r.records:
                total += rec.acc_per_model[i] * rec.n_samples
            assert r.acc_per_model[i] == total / r.n_samples

    @pytest.mark.parametrize("n_entries,order", [
        (3, [2, 1]),   # three entries configured, two models of other specs
        (2, [1, 0]),   # the two models swapped: each would get the other's lr
        (2, [0, 2]),   # a model of another spec in place of the second
    ], ids=["fewer", "swapped", "other-spec"])
    def test_rejects_models_that_do_not_match_the_config(self, n_entries, order):
        base = small_config()
        entries = base.models + [ModelEntry(
            spec=replace(base.models[1].spec, hidden_sizes=[6]), lr=0.1)]
        cfg = replace(base, models=entries[:n_entries])
        models = [build_model(entries[i].spec, seed=i) for i in order]
        with pytest.raises(ValueError, match="config entr"):
            run(cfg, models=models)

    @pytest.mark.parametrize("strategy", ["tent", "coca"])
    def test_rejects_one_model_passed_twice(self, strategy):
        # one object would be adapted twice per batch, at one entry's lr
        base = small_config(strategy=strategy)
        cfg = replace(base, models=[base.models[0], replace(base.models[0], lr=0.5)])
        m = build_model(cfg.models[0].spec, seed=0)
        before = {n: p.data.copy() for n, p in m.params.items()}
        with pytest.raises(ValueError, match="models 0 and 1 are the same object"):
            run(cfg, models=[m, m])
        assert all(np.array_equal(m.params[n].data, a) for n, a in before.items())

    def test_coca_filtered_drops_rows_that_coca_keeps(self):
        cfg = small_config(seed=10)
        models = prepare_models(cfg)
        coca = run(cfg, models=[m.clone() for m in models])
        filtered = run(replace(cfg, strategy="coca_filtered"),
                       models=[m.clone() for m in models])
        assert all(rec.losses.kept_frac == 1.0 for rec in coca.records)
        assert any(rec.losses.kept_frac < 1.0 for rec in filtered.records)

        # the first batch is one filtered step of the pretrained models
        ordered = [m.clone() for m in anchor_select(models)]
        for m in ordered:
            m.set_trainable(norm_only=True)
        opts = [ad.SGD(m.norm_params(), lr=0.0) for m in ordered]
        xb, yb = next(iter(harness.build_test_stream(cfg)))
        out = adaptation.multi_model_step(ordered, [1.0], xb, opts,
                                          filter_factor=harness.FILTER_FACTOR)
        first = filtered.records[0]
        assert first.losses == out.breakdown and first.tau == out.taus[-1]
        assert first.acc_combined == evaluate_accuracy(out.y_hat, yb)
        assert first.acc_per_model == [evaluate_accuracy(p, yb) for p in out.per_model_preds]

    def test_source_only_never_updates(self):
        cfg = small_config(strategy="source_only", seed=6)
        models = prepare_models(cfg)
        before = {n: p.data.copy() for n, p in models[0].params.items()}
        run(cfg, models=models)
        for n, arr in before.items():
            assert np.array_equal(models[0].params[n].data, arr)

    def test_metrics_csv_starts_with_fixed_header(self):
        r = run(small_config(seed=7))
        lines = r.metrics_csv().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == len(r.records) + 1

    def test_different_seeds_give_different_streams(self):
        r1 = run(small_config(seed=8))
        r2 = run(small_config(seed=9))
        assert r1.to_json() != r2.to_json()


class TestSweeps:
    def test_sweep_points_cartesian(self):
        pts = sweep_points({"lam_col": [0.0, 1.0], "tau_steps": [1, 5, 10]})
        assert len(pts) == 6
        assert {"lam_col": 0.0, "tau_steps": 10} in pts

    def test_sweep_points_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            sweep_points({})

    def test_apply_override_masks_by_name(self):
        cfg = point_config(small_config(), {"loss_masks": "sa+mar"}, 0)
        assert cfg.loss_masks.sa and cfg.loss_masks.mar and not cfg.loss_masks.ckd

    def test_apply_override_severity(self):
        cfg = point_config(small_config(), {"severity": 5}, 0)
        assert cfg.corruption.severity == 5

    def test_severity_override_requires_a_corruption_spec(self):
        with pytest.raises(ValueError, match="<point 2>: severity override requires"):
            point_config(small_config(corruption=None), {"severity": 3}, 2)

    def test_apply_override_unknown_key(self):
        with pytest.raises(ValueError):
            point_config(small_config(), {"nonsense": 1}, 0)

    def test_point_config_derives_seed_and_validates_whole_point(self):
        base = small_config(seed=5, lam_col=0.0)
        cfg = harness.point_config(base, {"loss_masks": "mar", "lam_col": 1.0}, 3)
        assert cfg.seed == mix64(5, 1003)
        assert (cfg.lam_col, cfg.loss_masks) == (1.0, MASK_NAMES["mar"])
        assert harness.point_config(base, {"seed": 9}, 3).seed == 9
        with pytest.raises(ValueError, match="identically 0"):
            harness.point_config(base, {"loss_masks": "mar"}, 0)

    def test_a_budget_point_sets_every_entry(self):
        # entries that set their own budget take the point's too; a budget
        # sweep over such a base used to pretrain every point alike
        base = small_config(models=[replace(e, pretrain_epochs=n)
                                    for e, n in zip(small_config().models, (45, 18))])
        cfg = point_config(base, {"pretrain_epochs": 3}, 1)
        epochs = list(inspect.signature(harness._pretrain_one).parameters).index("epochs")
        assert [harness._pretrain_job(cfg, i)[epochs] for i in range(2)] == [3, 3]

    def test_mask_names_cover_all_seven(self):
        assert len(MASK_NAMES) == 7
        assert all(m.sa or m.mar or m.ckd for m in MASK_NAMES.values())
