"""Acceptance gate: end-to-end checks on gradients, temperature learning,
ensembling, and the reference benchmark. Each test prints one PASS/FAIL line."""

import functools
import json
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from coca_tta import autodiff as ad
from coca_tta.adaptation import coca_step, ensemble, entropy_rows, learn_tau
from coca_tta.autodiff import SGD, Tape, Tensor
from coca_tta.cli import main as cli_main
from coca_tta.harness import (MASK_NAMES, ModelEntry, _pretrain_job, _pretrain_one,
                              prepare_models, run)
from coca_tta.models import ModelSpec, build_model, forward_logits
from coca_tta.shiftgen import StreamSpec
from test_autodiff import check_op
from test_harness import CONFIGS, committed_config

SEEDS = tuple(range(1, 6))
PT = 100.0  # accuracy deltas below are quoted in percentage points


# --- reference benchmark ------------------------------------------------------

def ref_config(seed, **overrides):
    return replace(committed_config("reference"), seed=seed, **overrides)


@functools.lru_cache(maxsize=None)
def ref_pair(seed):
    """The reference pair of ``seed``, pretrained once; runs adapt clones of it."""
    return tuple(prepare_models(ref_config(seed)))


def ref_run(seed, **overrides):
    """run(ref_config(seed, **overrides)), starting from the seed's reference pair.

    The overrides leave the pair's pretraining as it is; a model past the
    pair pretrains as that entry of the config.
    """
    cfg = ref_config(seed, **overrides)
    jobs = [_pretrain_job(cfg, i) for i in range(len(cfg.models))]
    assert jobs[:2] == [_pretrain_job(ref_config(seed), i) for i in range(2)]
    models = [m.clone() for m in ref_pair(seed)] + [_pretrain_one(*job)[0] for job in jobs[2:]]
    return run(cfg, models)


@functools.lru_cache(maxsize=None)
def coca_runs():
    return tuple(ref_run(s) for s in SEEDS)


@functools.lru_cache(maxsize=None)
def tent_runs():
    return tuple(ref_run(s, strategy="tent") for s in SEEDS)


# --- A1: gradient correctness -------------------------------------------------

def test_a1_all_ops_match_finite_differences():
    t0 = time.perf_counter()
    ops = {
        "add": (ad.add, [(4, 5), (4, 5)], {}),
        "sub": (ad.sub, [(4, 5), (4, 5)], {}),
        "mul": (ad.mul, [(4, 5), (4, 5)], {}),
        "scalar_div": (lambda a: ad.scalar_div(a, 2.3), [(4, 5)], {}),
        "relu": (ad.relu, [(4, 5)], {"low": 0.2, "high": 2.0}),
        "matmul": (ad.matmul, [(3, 4), (4, 5)], {}),
        "reshape": (lambda a: ad.reshape(a, (5, 4)), [(4, 5)], {}),
        "sum": (lambda a: ad.tensor_sum(a, axis=1), [(4, 5)], {}),
        "mean": (lambda a: ad.tensor_mean(a, axis=0), [(4, 5)], {}),
        "softmax": (ad.softmax, [(4, 5)], {}),
        "logsumexp": (ad.logsumexp, [(4, 5)], {}),
        "conv2d": (ad.conv2d, [(2, 3, 5, 5), (4, 3, 3, 3)], {}),
        "batchnorm": (ad.batchnorm, [(8, 5), (5,), (5,)], {"low": 0.5, "high": 2.0}),
        "layernorm": (ad.layernorm, [(8, 5), (5,), (5,)], {"low": 0.5, "high": 2.0}),
    }
    failed = []
    for name, (fn, shapes, kw) in ops.items():
        try:
            check_op(fn, shapes, n_cases=100, rel_tol=1e-4, **kw)
        except AssertionError:
            failed.append(name)
    elapsed = time.perf_counter() - t0
    ok = not failed and elapsed < 60.0
    print(f"A1 gradient checks: {'PASS' if ok else 'FAIL'} "
          f"({len(ops)} ops, 100 cases each, {elapsed:.1f}s; failed={failed})")
    assert ok


# --- A2: temperature learning -------------------------------------------------

def grid_minimizer(p_a, p_s, lo=0.1, hi=20.0, step=1e-3, clamp=20.0):
    ea = np.exp(np.clip(p_a, -clamp, clamp)).ravel()
    s = p_s.ravel()
    taus = np.arange(lo, hi, step)
    best_tau, best_val = None, np.inf
    chunks = np.array_split(taus, 64)
    buf = np.empty((len(chunks[0]), s.size))
    for chunk in chunks:
        # |ea - exp(clip(s / tau))| in place; maximum then minimum is np.clip
        t = buf[:len(chunk)]
        np.divide(s[None], chunk[:, None], out=t)
        np.minimum(np.maximum(t, -clamp, out=t), clamp, out=t)
        np.abs(np.subtract(ea[None], np.exp(t, out=t), out=t), out=t)
        d = t.sum(axis=1)
        i = int(np.argmin(d))
        if d[i] < best_val:
            best_tau, best_val = float(chunk[i]), float(d[i])
    return best_tau


def test_a2_tau_tracks_grid_minimizer():
    rng = np.random.default_rng(42)
    hits = 0
    n = 200
    for _ in range(n):
        p_a = rng.standard_normal((64, 8)) * 2.0
        k = rng.uniform(1.0, 4.0)
        p_s = p_a * k + rng.standard_normal((64, 8)) * 0.1
        oracle = grid_minimizer(p_a, p_s)
        tau = learn_tau(1.0, p_a, p_s, steps=5)
        if abs(tau - oracle) / oracle < 0.15:
            hits += 1

    z = rng.standard_normal((64, 8)) * 3.0
    tau_same = learn_tau(1.0, z, z, steps=50)
    tau_two = learn_tau(1.0, np.tile([2.0, 0.0], (8, 1)), np.tile([4.0, 0.0], (8, 1)),
                        steps=50)

    ok = (hits >= 0.9 * n and abs(tau_same - 1.0) < 0.01
          and abs(tau_two - 2.0) < 0.02)
    print(f"A2 temperature learning: {'PASS' if ok else 'FAIL'} "
          f"(grid hits {hits}/{n}, identical tau={tau_same:.4f}, "
          f"doubled tau={tau_two:.4f})")
    assert ok


# --- A3: max-preserving ensemble ----------------------------------------------

def test_a3_ensemble_preserves_anchor_maximum():
    rng = np.random.default_rng(7)
    worst = 0.0
    total = 0
    for _ in range(100):
        p_a = rng.uniform(0.05, 10.0, size=(100, 8))
        p_s = rng.uniform(-5.0, 10.0, size=(100, 8))
        p_s[:, 0] = np.abs(p_s[:, 0]) + 0.05  # keep the aux max positive
        out = ensemble(p_a, p_s, tau=float(rng.uniform(0.2, 5.0)))
        worst = max(worst, float(np.abs(out.p_e.max(axis=1)
                                        - p_a.max(axis=1)).max()))
        total += len(p_a)

    guarded = ensemble(np.array([[-1.0, -3.0], [2.0, 1.0]]),
                       np.array([[4.0, 1.0], [-9.0, -8.0]]), tau=1.0)
    ok = worst < 1e-9 and guarded.T[0] == 1.0 and guarded.T[1] == 1.0
    print(f"A3 max preservation: {'PASS' if ok else 'FAIL'} "
          f"({total} samples, worst err {worst:.2e}, guard T={guarded.T.tolist()})")
    assert ok


# --- A4: reference benchmark vs entropy-minimization baseline ------------------

def test_a4_beats_best_single_model_baseline():
    t0 = time.perf_counter()
    tents = tent_runs()
    cocas = coca_runs()
    elapsed = time.perf_counter() - t0

    best_single = np.mean([max(r.acc_per_model) for r in tents])
    combined = np.mean([r.acc_combined for r in cocas])
    margin = (combined - best_single) * PT
    per_model = (np.mean([r.acc_per_model for r in cocas], axis=0)
                 - np.mean([r.acc_per_model for r in tents], axis=0)) * PT

    ok = margin >= 1.0 and per_model.min() >= -0.5 and elapsed < 300.0
    print(f"A4 benchmark margin: {'PASS' if ok else 'FAIL'} "
          f"(combined {combined:.4f} vs best-single {best_single:.4f}, "
          f"margin {margin:+.2f}pt, per-model {np.round(per_model, 2).tolist()}pt, "
          f"{elapsed:.0f}s)")
    assert ok


# --- A5: full objective vs partial-term ablations -------------------------------

def test_a5_full_loss_dominates_ablations():
    means = {}
    for name, masks in MASK_NAMES.items():
        if name == "sa+mar+ckd":
            reports = coca_runs()
        else:
            reports = [ref_run(s, loss_masks=masks) for s in SEEDS]
        means[name] = np.mean([r.acc_combined for r in reports])
    full = means["sa+mar+ckd"]
    deficits = {k: float((full - v) * PT) for k, v in means.items()}
    worst = min(deficits.values())
    ok = worst >= -0.3
    print(f"A5 loss ablations: {'PASS' if ok else 'FAIL'} "
          f"(full {full:.4f}, worst deficit {worst:+.2f}pt, "
          f"deltas { {k: round(v, 2) for k, v in deficits.items()} })")
    assert ok


# --- A6: label-shift stress with a batchnorm auxiliary --------------------------

def test_a6_sorted_stream_raises_tau_without_collapse():
    sorted_stream = StreamSpec(order="label_sorted", batch_size=64,
                               total_samples=3200)
    tau_wins = 0
    combined, anchor_tent = [], []
    for s in SEEDS:
        r_iid = ref_run(s, corruption=None)
        r_sorted = ref_run(s, corruption=None, stream=sorted_stream)
        r_tent = ref_run(s, corruption=None, stream=sorted_stream, strategy="tent")
        tau_wins += r_sorted.tau_final > r_iid.tau_final
        combined.append(r_sorted.acc_combined)
        anchor_tent.append(r_tent.acc_per_model[0])
    delta = (np.mean(combined) - np.mean(anchor_tent)) * PT
    ok = tau_wins >= 4 and delta >= -2.0
    print(f"A6 label-shift stress: {'PASS' if ok else 'FAIL'} "
          f"(tau wins {tau_wins}/5, combined-vs-anchor-tent {delta:+.2f}pt)")
    assert ok


# --- A7: robustness to the inner step count ------------------------------------

def test_a7_step_count_insensitivity():
    accs = {5: [r.acc_combined for r in coca_runs()]}
    for k in (0, 1, 3, 10):
        accs[k] = [ref_run(s, tau_steps=k).acc_combined for s in SEEDS]
    means = {k: np.mean(v) for k, v in accs.items()}
    active = [means[k] for k in (1, 3, 5, 10)]
    spread = (max(active) - min(active)) * PT
    wins = sum(a5 > a0 for a5, a0 in zip(accs[5], accs[0]))
    ok = spread <= 2.0 and wins >= 4
    print(f"A7 step-count sweep: {'PASS' if ok else 'FAIL'} "
          f"(spread {spread:.2f}pt over K=1/3/5/10, K5>K0 in {wins}/5 seeds)")
    assert ok


# --- A8: three-model cascade ----------------------------------------------------

def test_a8_third_model_does_not_hurt():
    third = ModelEntry(spec=ModelSpec(kind="mlp", input_shape=(32,),
                                      hidden_sizes=[16], norm_kind="layernorm",
                                      num_classes=16),
                       lr=5e-3, pretrain_epochs=18)
    entries3 = committed_config("reference").models + [third]
    acc3 = np.mean([ref_run(s, models=entries3).acc_combined for s in SEEDS])
    acc2 = np.mean([r.acc_combined for r in coca_runs()])
    delta = (acc3 - acc2) * PT
    ok = delta >= -0.5
    print(f"A8 three-model cascade: {'PASS' if ok else 'FAIL'} "
          f"(3-model {acc3:.4f} vs 2-model {acc2:.4f}, {delta:+.2f}pt)")
    assert ok


# --- A9: collaboration weight zero reduces to independent adaptation -----------

def test_a9_lam_zero_equals_sum_of_entropy_losses():
    rng = np.random.default_rng(0)
    batch = rng.standard_normal((32, 12))
    pair = []
    for i, (hidden, norm) in enumerate([([24, 24], "layernorm"),
                                        ([10], "batchnorm")]):
        m = build_model(ModelSpec(kind="mlp", input_shape=(12,),
                                  hidden_sizes=hidden, norm_kind=norm,
                                  num_classes=6), seed=i)
        m.set_trainable(norm_only=True)
        pair.append(m)
    opts = [SGD(m.norm_params(), lr=0.0) for m in pair]
    _, bd = coca_step(pair[0], pair[1], 1.0, batch, opts, lam_col=0.0)
    expected = 0.0
    for m in pair:
        with Tape():
            expected += entropy_rows(forward_logits(m, Tensor(batch))).data.mean()
    err = abs(bd.l_total - expected)
    ok = err < 1e-12
    print(f"A9 lam_col=0 identity: {'PASS' if ok else 'FAIL'} "
          f"(|L_total - sum of entropy losses| = {err:.2e})")
    assert ok


# --- A10: byte-identical pipeline outputs --------------------------------------

def _pipeline_config(path: Path) -> Path:
    doc = json.loads((CONFIGS / "tiny.json").read_text())
    doc["seed"] = 17
    p = path / "config.json"
    p.write_text(json.dumps(doc))
    return p


def test_a10_pipeline_is_byte_reproducible(tmp_path):
    cfg = _pipeline_config(tmp_path)
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"lam_col": [0.0, 0.5], "tau_steps": [1, 5]}))

    artifacts = []
    for tag in ("first", "second"):
        root = tmp_path / tag
        assert cli_main(["pretrain", str(cfg), "--out", str(root / "ckpt")]) == 0
        assert cli_main(["adapt", str(cfg), "--checkpoints", str(root / "ckpt"),
                         "--out", str(root / "run")]) == 0
        assert cli_main(["report", "--in", str(root / "run"),
                         "--plot-data", str(root / "plot.csv")]) == 0
        assert cli_main(["sweep", str(cfg), "--grid", str(grid),
                         "--out", str(root / "sweep"), "--parallel", "4"]) == 0
        blob = (root / "run" / "report.json").read_bytes()
        blob += (root / "plot.csv").read_bytes()
        blob += (root / "sweep" / "summary.csv").read_bytes()
        for i in range(4):
            blob += (root / "sweep" / f"run_{i:03d}" / "report.json").read_bytes()
        artifacts.append(blob)

    ok = artifacts[0] == artifacts[1]
    print(f"A10 reproducibility: {'PASS' if ok else 'FAIL'} "
          f"({len(artifacts[0])} bytes compared across two executions)")
    assert ok
