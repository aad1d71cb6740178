"""Run every workload in BENCHMARK.json in turn, one process at a time, and
print each metric by name and unit, workload by workload.

    python3 bench/all.py --seed 1            # end-to-end metrics
    python3 bench/all.py --seed 1 --trace 1  # per-layer metrics, tracing overhead

Exits 1 if any run fails or reports a wrong answer.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    for w in spec["workloads"]:
        cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", w["name"], "--seed", str(args.seed),
               "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"{w['name']}: exit code {proc.returncode}\n{proc.stderr}")
            ok = False
            continue
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        ok = ok and res["correct"] and not res["failed"]
        print(f"{w['name']}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}")
        for name, m in res["metrics"].items():
            print(f"  {name} = {m['value']:.6g} {m['unit']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
