#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads adapt-mlp-iid sweep --seeds 1-10

For every end-to-end metric it prints the median, the quartiles and the
spread, (Q3 - Q1) / median with quartiles from
``statistics.quantiles(values, n=4)``, next to the metric's bound in
BENCHMARK.json. Runs are sequential; each is one ``perfbench/run.py``
process. The per-run JSON lines go to ``perfbench/out/spread_<tag>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--tag", default=time.strftime("%Y%m%d-%H%M%S"))
    args = p.parse_args(argv)

    metrics = spec["end_to_end"]
    log = ROOT / "perfbench" / "out" / f"spread_{args.tag}.jsonl"
    log.parent.mkdir(parents=True, exist_ok=True)
    summary = {}
    ok = True
    for wl in args.workloads:
        values: dict[str, list[float]] = {m["name"]: [] for m in metrics}
        for seed in args.seeds:
            cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", wl,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            wall = time.perf_counter() - t0
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
            result = json.loads(last) if last.startswith("{") else {}
            with open(log, "a", encoding="utf-8") as f:
                f.write(json.dumps({"workload": wl, "seed": seed, "rc": proc.returncode,
                                    "wall_s": wall, "result": result}) + "\n")
            if proc.returncode != 0 or not result.get("correct"):
                ok = False
                print(f"{wl} seed {seed}: rc={proc.returncode}\n{proc.stdout[-2000:]}"
                      f"\n{proc.stderr[-2000:]}", file=sys.stderr)
                continue
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print(f"{wl} seed {seed}: {wall:.1f}s", file=sys.stderr, flush=True)
        summary[wl] = {}
        print(f"\n{wl}")
        for m in metrics:
            v = values[m["name"]]
            if len(v) < 2:
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = m["bound"]
            summary[wl][m["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                                      "n": len(v)}
            flag = "ok" if spread <= bound / 3 else ("WIDE" if spread <= bound else "OVER")
            print(f"  {m['name']:32s} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {spread:7.4f}  bound {bound}  {flag}")
    (log.with_suffix(".summary.json")).write_text(json.dumps(summary, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
