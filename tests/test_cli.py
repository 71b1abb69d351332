"""End-to-end exercises of the command-line interface."""

import argparse
import concurrent.futures
import csv
import ctypes
import json
import multiprocessing
import os
from pathlib import Path
from typing import Optional

import numpy as np
import pytest

from coca_tta import harness, models
from coca_tta.cli import ConfigError, build_parser, load_config, main, validate_config
from coca_tta.shiftgen import StreamSpec
from test_harness import CONFIGS


def blas_thread_getter():
    """numpy's bundled OpenBLAS thread-count getter, or None without one."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("libscipy_openblas*")):
        fn = getattr(ctypes.CDLL(str(lib_path)), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.argtypes, fn.restype = [], ctypes.c_int
            return fn
    return None


def worker_blas_threads() -> int:
    return blas_thread_getter()()


def write_config(path: Path, epochs: Optional[int] = None, **overrides) -> Path:
    """Write configs/tiny.json with ``overrides``; ``epochs`` sets each model
    entry's pretraining budget."""
    doc = json.loads((CONFIGS / "tiny.json").read_text())
    if epochs is not None:
        for entry in doc["models"]:
            entry["pretrain_epochs"] = epochs
    doc.update(overrides)
    p = path / "config.json"
    p.write_text(json.dumps(doc))
    return p


CONFIG_FILES = sorted(CONFIGS.glob("*.json"))


@pytest.mark.parametrize("path", CONFIG_FILES, ids=[p.stem for p in CONFIG_FILES])
def test_committed_config_loads(path):
    # a malformed edit fails here rather than in whichever demo reads the
    # file; loading checks each model's input shape and classes against the task
    assert load_config(path).models


# Removed config fields, at the values that a config file written before
# their removal carries. All but the run's pretrain_epochs, which each model
# entry now holds, are constants of the library.
REMOVED_KEYS = {"pretrain_lr": 0.05, "pretrain_batch_size": 64, "tau_clamp": 20.0,
                "tau_min": 1e-2, "tau_max": 1e3, "filter_threshold_factor": 0.4,
                "task.noise_std": 1.0, "task.center_seed": 0, "pretrain_epochs": 30,
                "tau_step_size": 0.01}


class TestValidateConfig:
    def test_accepts_full_document(self, tmp_path):
        cfg_path = write_config(tmp_path)
        cfg = validate_config(json.loads(cfg_path.read_text()))
        assert cfg.seed == 11
        assert len(cfg.models) == 2

    def test_accepts_document_without_stream(self, tmp_path):
        doc = json.loads(write_config(tmp_path).read_text())
        del doc["stream"]
        assert validate_config(doc).stream == StreamSpec()

    def test_rejects_unknown_top_level_key(self, tmp_path):
        doc = json.loads(write_config(tmp_path).read_text())
        doc["learning_rate"] = 0.1
        with pytest.raises(ConfigError, match="learning_rate"):
            validate_config(doc)

    def test_rejects_unknown_nested_key(self, tmp_path):
        doc = json.loads(write_config(tmp_path).read_text())
        doc["models"][0]["spec"]["dropout"] = 0.5
        with pytest.raises(ConfigError, match="dropout"):
            validate_config(doc)

    def test_requires_models_and_task(self):
        with pytest.raises(ConfigError):
            validate_config({"seed": 0})

    def test_rejects_all_loss_masks_off(self, tmp_path, capsys):
        cfg = write_config(tmp_path, loss_masks={"sa": False, "mar": False,
                                                 "ckd": False})
        with pytest.raises(ConfigError, match="loss_masks"):
            validate_config(json.loads(cfg.read_text()))
        assert main(["adapt", str(cfg), "--out", str(tmp_path / "out")]) == 1
        assert "loss_masks" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("overrides", [
        {"lam_col": -0.5},
        {"lam_col": 0.0, "loss_masks": {"sa": False, "mar": True, "ckd": True}},
        {"collapse_threshold": 1.5},
        # these ran to the end with NaN norm parameters or models at chance,
        # or failed only at the first batch, after pretraining
        {"lr": float("nan")},
        {"lr": float("inf")},
        {"lr": -1.0},
        {"tau_steps": -1},
        # this ended at chance accuracy with tau at its upper bound
        {"task": {"center_separation": float("nan")}},
        # these fields are now constants; a config that still sets one, to any
        # value, is refused before anything runs
        {"pretrain_lr": float("nan")},
        {"pretrain_lr": -0.05},
        {"tau_clamp": 0.0},
        {"tau_clamp": float("nan")},
        {"task": {"noise_std": float("nan")}},
        {"task": {"noise_std": -1.0}},
    ], ids=["lam_col", "zero_objective", "collapse", "lr_nan", "lr_inf", "lr_negative",
            "tau_steps_negative", "center_separation_nan", "pretrain_lr_nan",
            "pretrain_lr_negative", "tau_clamp_zero", "tau_clamp_nan", "noise_std_nan",
            "noise_std_negative"])
    def test_rejects_out_of_range_values(self, tmp_path, capsys, overrides):
        doc = json.loads(write_config(tmp_path).read_text())
        if "lr" in overrides:   # an entry's adaptation lr
            doc["models"][1]["lr"] = overrides["lr"]
            overrides = {"models": doc["models"]}
        if "task" in overrides:   # one field of the source task
            overrides = {"task": {**doc["task"], **overrides["task"]}}
        cfg = write_config(tmp_path, **overrides)
        with pytest.raises(ConfigError):
            validate_config(json.loads(cfg.read_text()))
        assert main(["adapt", str(cfg), "--out", str(tmp_path / "out")]) == 1
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("overrides,message", [
        # ended in an IndexError inside run; pretrain wrote 0 checkpoints
        ({"models": [], "strategy": "source_only"}, "at least one entry"),
        # failed with a ShapeError at the first pretraining forward pass
        ({"task": {"kind": "gaussian_mixture", "num_classes": 4, "dims": 6,
                   "center_separation": 5.0}}, "input shape"),
        # failed in apply_corruption, after every model had pretrained
        ({"corruption": {"kind": "blur3x3", "severity": 2}}, "blur3x3"),
    ], ids=["no_models", "input_shape", "blur_on_vectors"])
    def test_rejects_before_any_pool_starts(self, tmp_path, capsys, monkeypatch,
                                            overrides, message):
        def no_pool(*args):
            raise AssertionError("a process pool started")

        monkeypatch.setattr(harness, "parallel_map", no_pool)
        cfg = write_config(tmp_path, **overrides)
        with pytest.raises(ConfigError, match=message):
            validate_config(json.loads(cfg.read_text()))
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"lam_col": [0.5]}))
        for argv in (["adapt", str(cfg)], ["pretrain", str(cfg)],
                     ["sweep", str(cfg), "--grid", str(grid)]):
            assert main(argv + ["--out", str(tmp_path / "out")]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: invalid config: ") and message in err
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", list(REMOVED_KEYS))
    def test_rejects_a_removed_key(self, tmp_path, capsys, key):
        doc = json.loads(write_config(tmp_path).read_text())
        *parent, name = key.split(".")
        (doc[parent[0]] if parent else doc)[name] = REMOVED_KEYS[key]
        cfg = write_config(tmp_path, **doc)
        path = ".".join(["<root>", *parent])
        assert main(["adapt", str(cfg), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (f"error: invalid config: {path}: "
                                           f"unknown keys [{name!r}]\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("old,new,key", [
        ('"seed": 11', '"seed": 17, "seed": 99', "seed"),
        ('"lr": 0.001', '"lr": 0.001, "lr": 5.0', "lr"),
    ], ids=["top_level", "model_entry"])
    def test_rejects_duplicate_key_before_pretraining(self, tmp_path, capsys, monkeypatch,
                                                      old, new, key):
        # the last copy used to win silently: seed 99, or an anchor lr of 5.0
        def no_pretraining(*args):
            raise AssertionError("pretraining started")

        monkeypatch.setattr(harness, "pretrain_models", no_pretraining)
        cfg = write_config(tmp_path)
        text = cfg.read_text()
        assert text.count(old) == 1
        cfg.write_text(text.replace(old, new))
        for command in ("pretrain", "adapt"):
            out = tmp_path / command
            assert main([command, str(cfg), "--out", str(out)]) == 1
            assert capsys.readouterr().err == (f"error: invalid config: {cfg}: "
                                               f"duplicate key {key!r}\n")
            assert not out.exists()

    @pytest.mark.parametrize("overrides,path", [
        ({"loss_masks": {"sa": "false"}}, "<root>.loss_masks.sa"),
        ({"corruption": {"kind": "gaussian_noise", "severity": 3.7}},
         "<root>.corruption.severity"),
        ({"n_per_class": 2.9}, "<root>.n_per_class"),
        ({"seed": True}, "<root>.seed"),
        ({"models": 5}, "<root>.models"),
        ({"models": None}, "<root>.models"),
        ({"corruption": {}}, "<root>.corruption"),
        # the stream's order is drawn from the run seed; a seed of its own
        # used to be accepted and then ignored
        ({"stream": {"order": "iid_shuffled", "batch_size": 32, "total_samples": 192,
                     "seed": 3}}, "<root>.stream"),
        # each used to load as schema 1; true is refused although True == 1
        ({"schema": 99}, "<root>.schema"),
        ({"schema": "one"}, "<root>.schema"),
        ({"schema": None}, "<root>.schema"),
        ({"schema": True}, "<root>.schema"),
    ], ids=["mask_str", "severity_float", "n_per_class_float", "seed_bool",
            "models_int", "models_null", "corruption_empty", "stream_seed",
            "schema_99", "schema_str", "schema_null", "schema_true"])
    def test_rejects_malformed_value_naming_its_path(self, tmp_path, capsys, overrides, path):
        cfg = write_config(tmp_path, **overrides)
        assert main(["adapt", str(cfg), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith(f"error: invalid config: {path}: ")
        assert not (tmp_path / "out").exists()


class TestPretrainAdaptReport:
    def test_full_pipeline(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        ckpt = tmp_path / "ckpt"
        assert main(["pretrain", str(cfg), "--out", str(ckpt)]) == 0
        assert (ckpt / "model_0.ckpt").exists()
        assert (ckpt / "model_1.ckpt").exists()
        assert (ckpt / "training_log.json").exists()

        run_dir = tmp_path / "run"
        rc = main(["adapt", str(cfg), "--checkpoints", str(ckpt),
                   "--out", str(run_dir)])
        assert rc == 0
        report = json.loads((run_dir / "report.json").read_text())
        assert sorted(report) == ["acc_combined", "acc_per_model", "config", "n_batches",
                                  "n_samples", "schema", "seed", "tau_summary"]
        assert sorted(report["config"]) == [
            "collapse_threshold", "corruption", "lam_col", "loss_masks", "models",
            "n_per_class", "schema", "seed", "strategy", "stream", "task", "tau_steps"]
        assert report["n_samples"] == 192
        assert 0.0 <= report["acc_combined"] <= 1.0
        header = (run_dir / "metrics.csv").read_text().splitlines()[0]
        assert header == ("batch,acc_anchor,acc_aux,acc_combined,tau,"
                          "L_mar,L_ckd,L_sa,L_total,kept_frac")

        plot = tmp_path / "plot.csv"
        assert main(["report", "--in", str(run_dir), "--plot-data", str(plot)]) == 0
        lines = plot.read_text().splitlines()
        assert lines[0] == "series,x,y"
        assert any("acc_combined" in ln for ln in lines[1:])

    def test_pretrain_checkpoints_match_prepare_models(self, tmp_path):
        cfg_path = write_config(tmp_path)
        ckpt = tmp_path / "ckpt"
        assert main(["pretrain", str(cfg_path), "--out", str(ckpt)]) == 0
        cfg = validate_config(json.loads(cfg_path.read_text()))
        expected = harness.prepare_models(cfg)
        for i, model in enumerate(expected):
            loaded = models.load_checkpoint(str(ckpt / f"model_{i}.ckpt"))
            assert list(loaded.params) == list(model.params)
            for name, p in model.params.items():
                assert loaded.params[name].data.tobytes() == p.data.tobytes()
        log = json.loads((ckpt / "training_log.json").read_text())
        assert log["config"] == cfg.to_dict()
        assert log["logs"] == json.loads(json.dumps(harness.pretrain_models(cfg)[1]))

    def test_pipeline_is_reproducible(self, tmp_path):
        cfg = write_config(tmp_path)
        outs = []
        for name in ("a", "b"):
            ckpt = tmp_path / f"ckpt_{name}"
            run_dir = tmp_path / f"run_{name}"
            main(["pretrain", str(cfg), "--out", str(ckpt)])
            main(["adapt", str(cfg), "--checkpoints", str(ckpt),
                  "--out", str(run_dir)])
            outs.append((run_dir / "report.json").read_bytes())
        assert outs[0] == outs[1]

    def test_seed_override_changes_output(self, tmp_path):
        cfg = write_config(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        main(["adapt", str(cfg), "--out", str(a)])
        main(["adapt", str(cfg), "--out", str(b), "--seed", "99"])
        assert (a / "report.json").read_bytes() != (b / "report.json").read_bytes()

    def test_out_dir_env_var(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path)
        env_dir = tmp_path / "from_env"
        monkeypatch.setenv("COCA_OUT_DIR", str(env_dir))
        assert main(["adapt", str(cfg)]) == 0
        assert (env_dir / "report.json").exists()

    def test_missing_checkpoint_fails_cleanly(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        rc = main(["adapt", str(cfg), "--checkpoints", str(tmp_path / "nope"),
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


    def test_non_finite_checkpoint_fails_cleanly(self, tmp_path, capsys):
        # a NaN norm scale used to load, and adapt exited 0 with the batchnorm
        # auxiliary at chance accuracy on every batch
        cfg = write_config(tmp_path, epochs=1)
        ckpt = tmp_path / "ckpt"
        assert main(["pretrain", str(cfg), "--out", str(ckpt)]) == 0
        path = str(ckpt / "model_1.ckpt")
        model = models.load_checkpoint(path)
        model.params["layer0.norm_scale"].data[0] = np.nan
        models.save_checkpoint(model, path)
        out = tmp_path / "out"
        assert main(["adapt", str(cfg), "--checkpoints", str(ckpt), "--out", str(out)]) == 1
        assert capsys.readouterr().err == ("error: parameter 'layer0.norm_scale' "
                                           "is not finite\n")
        assert not out.exists()

    def test_checkpoints_of_another_config_fail_cleanly(self, tmp_path, capsys):
        ckpt = tmp_path / "ckpt"
        assert main(["pretrain", str(write_config(tmp_path, epochs=1)),
                     "--out", str(ckpt)]) == 0
        other = tmp_path / "other"
        other.mkdir()
        doc = json.loads((tmp_path / "config.json").read_text())
        swapped = write_config(other, models=doc["models"][::-1])
        out = tmp_path / "out"
        assert main(["adapt", str(swapped), "--checkpoints", str(ckpt),
                     "--out", str(out)]) == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists()


class TestSweep:
    def test_sweep_writes_summary_and_runs(self, tmp_path):
        cfg = write_config(tmp_path)
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"lam_col": [0.0, 1.0]}))
        out = tmp_path / "sweep"
        assert main(["sweep", str(cfg), "--grid", str(grid),
                     "--out", str(out)]) == 0
        summary = (out / "summary.csv").read_text().splitlines()
        assert summary[0] == "run,point,acc_anchor,acc_aux,acc_combined,tau_final"
        assert len(summary) == 3
        assert (out / "run_000" / "report.json").exists()
        assert (out / "run_001" / "metrics.csv").exists()

    def test_each_run_equals_a_lone_run(self, tmp_path):
        cfg_path = write_config(tmp_path)
        grid = {"lam_col": [0.5, 1.0], "stream_order": ["iid_shuffled", "label_sorted"]}
        (tmp_path / "grid.json").write_text(json.dumps(grid))
        out = tmp_path / "sweep"
        assert main(["sweep", str(cfg_path), "--grid", str(tmp_path / "grid.json"),
                     "--out", str(out)]) == 0
        with open(out / "summary.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        cfg = validate_config(json.loads(cfg_path.read_text()))
        points = harness.sweep_points(grid)
        assert [json.loads(r["point"]) for r in rows] == points
        for i, (point, row) in enumerate(zip(points, rows)):
            lone = harness.run(harness.point_config(cfg, point, i))
            sub = out / f"run_{i:03d}"
            assert (sub / "report.json").read_bytes() == lone.to_json().encode()
            assert (sub / "metrics.csv").read_bytes() == lone.metrics_csv().encode()
            assert row["acc_combined"] == harness.fmt_number(lone.acc_combined)

    def test_parallel_matches_serial(self, tmp_path):
        cfg = write_config(tmp_path)
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"tau_steps": [1, 5]}))
        serial, parallel = tmp_path / "serial", tmp_path / "parallel"
        main(["sweep", str(cfg), "--grid", str(grid), "--out", str(serial)])
        main(["sweep", str(cfg), "--grid", str(grid), "--out", str(parallel),
              "--parallel", "2"])
        assert ((serial / "summary.csv").read_bytes()
                == (parallel / "summary.csv").read_bytes())
        for sub in ("run_000", "run_001"):
            assert ((serial / sub / "report.json").read_bytes()
                    == (parallel / sub / "report.json").read_bytes())

    @pytest.mark.parametrize("parallel", ["0", "-2"])
    def test_rejects_parallel_below_one(self, tmp_path, capsys, parallel):
        cfg = write_config(tmp_path)
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"lam_col": [0.0, 1.0]}))
        out = tmp_path / "sweep"
        rc = main(["sweep", str(cfg), "--grid", str(grid), "--out", str(out),
                   "--parallel", parallel])
        assert rc == 1
        assert "--parallel" in capsys.readouterr().err
        assert not out.exists()

    def test_parallel_capped_at_point_count(self, tmp_path, monkeypatch):
        # a thread pool with one worker stands in for the process pool, so
        # no process starts; only the requested worker count is recorded.
        # Its threads are no pool workers, so one usable CPU keeps each
        # point's pretraining from asking for a pool of its own.
        requested = []

        class RecordingPool(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, max_workers, initializer):
                requested.append(max_workers)
                assert initializer is harness._pool_worker_init
                super().__init__(max_workers=1)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(harness, "usable_cpus", lambda: 1)
        cfg = write_config(tmp_path)
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"tau_steps": [1, 5]}))
        assert main(["sweep", str(cfg), "--grid", str(grid),
                     "--out", str(tmp_path / "sweep"), "--parallel", "8"]) == 0
        assert requested == [2]

    def test_workers_run_one_blas_thread(self):
        get_threads = blas_thread_getter()
        if get_threads is None:
            pytest.skip("numpy's bundled OpenBLAS does not export its thread count")
        # a spawned worker starts from OpenBLAS's default thread count
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=1, mp_context=multiprocessing.get_context("spawn"),
                initializer=harness._pool_worker_init) as pool:
            assert pool.submit(worker_blas_threads).result() == 1

    def test_invalid_point_fails_before_any_run(self, tmp_path, capsys):
        # lam_col = 0 with only "mar" on is an identically zero objective
        cfg = write_config(tmp_path)
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"lam_col": [1.0, 0.0], "loss_masks": ["mar"]}))
        out = tmp_path / "sweep"
        assert main(["sweep", str(cfg), "--grid", str(grid), "--out", str(out)]) == 1
        assert "identically 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("grid,message", [
        ({"pretrain_epochs": [2, 0]},
         "<point 1>.models[0]: pretrain_epochs must be >= 1, got 0"),
        ({"n_per_class": [0]}, "<point 0>: n_per_class must be >= 1, got 0"),
        ({"tau_steps": [5, -1]}, "<point 1>: tau_steps must be >= 0, got -1"),
    ], ids=["pretrain_epochs", "n_per_class", "tau_steps"])
    def test_empty_pretraining_fails_before_any_pool(self, tmp_path, capsys, monkeypatch,
                                                     grid, message):
        # such points used to fail inside the pretraining jobs, after the
        # output directory was written and the pool had started
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        cfg = write_config(tmp_path)
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps(grid))
        out = tmp_path / "sweep"
        assert main(["sweep", str(cfg), "--grid", str(grid_path), "--out", str(out),
                     "--parallel", "2"]) == 1
        assert capsys.readouterr().err == f"error: invalid config: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("grid,path", [
        ({"loss_masks": [{"sa": "no"}]}, "<point 0>.loss_masks.sa"),
        ({"lam_col": ["0.5"]}, "<point 0>.lam_col"),
        ({"tau_steps": [1.5]}, "<point 0>.tau_steps"),
        ({"tau_steps": [1, 5], "lam_col": [1.0, True]}, "<point 1>.lam_col"),
        ({"loss_masks": ["sa+bogus"]}, "<point 0>.loss_masks"),
        ({"severity": [3.7]}, "<point 0>.corruption.severity"),
        ({"lam_col": 0.5}, "<grid>.lam_col"),
        # ran no point, wrote a header-only summary.csv and exited 0
        ({"lam_col": [1.0], "tau_steps": []}, "<grid>.tau_steps"),
    ], ids=["mask_str", "lam_col_str", "tau_steps_float", "second_point",
            "mask_name", "severity_float", "values_not_list", "empty_values"])
    def test_malformed_grid_fails_before_any_run(self, tmp_path, capsys, grid, path):
        cfg = write_config(tmp_path)
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps(grid))
        out = tmp_path / "sweep"
        assert main(["sweep", str(cfg), "--grid", str(grid_path), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: invalid config: {path}: ")
        assert not out.exists()

    def test_duplicate_grid_key_fails_before_any_run(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        grid = tmp_path / "grid.json"
        grid.write_text('{"lam_col": [1.0], "lam_col": [0.5, 2.0]}')
        out = tmp_path / "sweep"
        assert main(["sweep", str(cfg), "--grid", str(grid), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (f"error: invalid config: {grid}: "
                                           f"duplicate key 'lam_col'\n")
        assert not out.exists()

    def test_bad_config_returns_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"seed": 3}))
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"lam_col": [1.0]}))
        rc = main(["sweep", str(bad), "--grid", str(grid),
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestCommandSet:
    def test_parser_has_exactly_the_run_commands(self):
        sub, = [a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)]
        assert set(sub.choices) == {"pretrain", "adapt", "sweep", "report"}

    @pytest.mark.parametrize("command", ["dataset-export", "dataset-import"])
    def test_dataset_commands_are_usage_errors(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([command, "--out", str(out)])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
        assert not out.exists()


def test_report_with_no_metrics_fails(tmp_path, capsys):
    rc = main(["report", "--in", str(tmp_path), "--plot-data",
               str(tmp_path / "plot.csv")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("text,message", [
    ("batch,acc\n0,0.5\n", "header is not"),
    ("", "header is not"),
    (harness.CSV_HEADER + "\n0,0.5,0.5,0.5,1,0,0,0,0,1\n1,0.5\n",
     "line 3 does not have the header's 10 fields"),
    (harness.CSV_HEADER + "\n0,0.5,0.5,0.5,1,0,0,0,0,1,7\n",
     "line 2 does not have the header's 10 fields"),
], ids=["other_header", "empty", "short_row", "long_row"])
def test_report_rejects_a_malformed_metrics_file(tmp_path, capsys, text, message):
    # a file without the pinned columns ended in a KeyError traceback, and a
    # short row wrote None as plot values and exited 0
    (tmp_path / "run").mkdir()
    (tmp_path / "run" / "metrics.csv").write_text(text)
    plot = tmp_path / "plot.csv"
    assert main(["report", "--in", str(tmp_path), "--plot-data", str(plot)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {tmp_path / 'run' / 'metrics.csv'}: {message}")
    assert not plot.exists()
