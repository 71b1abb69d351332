#!/usr/bin/env python3
"""Record acc_combined per workload and seed into perfbench/expected.json.

    python3 perfbench/record_expected.py --seeds 0-31

run.py checks each run's acc_combined against the value recorded here
for its seed. Record again only when a change to the program is meant to
change results, and say so in the change's description.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import shutil
import sys
from dataclasses import replace
from pathlib import Path

import run
from spread import seed_list

EXPECTED = Path(__file__).resolve().parent / "expected.json"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=seed_list, required=True)
    args = p.parse_args(argv)
    workloads = run.load_program()
    if workloads is None:
        return 2
    import numpy as np
    from coca_tta import cli, harness

    expected = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    for wl in workloads.WORKLOADS.values():
        rec = expected.setdefault(wl.name, {})
        if wl.grid is None:
            cfg = wl.config(workloads.MODEL_SEED)
            pretrained = harness.prepare_models(cfg)
            for seed in args.seeds:
                report = harness.run(replace(cfg, seed=seed),
                                     models=[m.clone() for m in pretrained])
                rec[str(seed)] = report.acc_combined
            continue
        work = run.OUT / "record_expected"
        work.mkdir(parents=True, exist_ok=True)
        (work / "grid.json").write_text(json.dumps(wl.grid))
        for seed in args.seeds:
            (work / "config.json").write_text(json.dumps(wl.config(seed).to_dict()))
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(["sweep", str(work / "config.json"), "--grid",
                               str(work / "grid.json"), "--out", str(work / "sweep"),
                               "--parallel", str(workloads.PARALLEL)])
            if rc != 0:
                print(f"sweep failed for seed {seed}", file=sys.stderr)
                return 1
            accs = workloads.summary_accs((work / "sweep" / "summary.csv").read_text())
            rec[str(seed)] = float(np.mean(accs))
        shutil.rmtree(work)
        print(f"{wl.name}: {len(rec)} seeds recorded", file=sys.stderr)
    for name in expected:
        expected[name] = dict(sorted(expected[name].items(), key=lambda kv: int(kv[0])))
    EXPECTED.write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
