"""Self-test for the benchmark, at a tiny size.

    python3 bench/selftest.py

1. Runs every workload with --tiny for one second, tracing off and on, and
   checks that the last line of output is the result object and carries
   every metric BENCHMARK.json names, with its unit.
2. Feeds each workload's checker a deliberately wrong answer and checks that
   the runner counts it as a failed operation; does the same for an
   operation that raises and one that misses the deadline.
3. Checks that an operation longer than the sampling period gets a host
   factor measured inside it and a time that leaves the sampling out.

Exits 0 when everything holds and 1 with a list of what did not.
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def check_outputs(spec) -> list[str]:
    problems = []
    for w in spec["workloads"]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            res = bench(w["name"], trace)
            where = f"{w['name']} --trace {trace}"
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(res)}")
                continue
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                problems.append(f"{where}: correct={res['correct']} failed={res['failed']}")
            expected = {m["name"]: m["unit"] for m in spec[group]}
            got = {name: m["unit"] for name, m in res["metrics"].items()}
            if got != expected:
                problems.append(f"{where}: metrics differ from BENCHMARK.json: {set(got) ^ set(expected)}")
            if not all(isinstance(m["value"], float) and math.isfinite(m["value"]) for m in res["metrics"].values()):
                problems.append(f"{where}: a metric value is not a finite number")
    return problems


def _scale_floats(text: str) -> str:
    """A wrong CLI answer: every decimal number in the output times 1.5."""
    return re.sub(r"-?\d+\.\d+(?:[eE][-+]?\d+)?", lambda m: repr(float(m.group()) * 1.5), text)


def _wrong(name: str, result):
    if name == "qubit-sweep":
        values, negativity, classification = result
        return values + 1e-6 * (values > 0), negativity, classification
    if name == "wide-orderings":
        values, negativity = result
        return values + 1e-6 * (values > 0), negativity
    if name == "coarse-grain":
        return dataclasses.replace(result, num_maximizers=result.num_maximizers + 1)
    return _scale_floats(result)


class _Fixed:
    """A workload whose one cycle is the given operations."""

    min_cycles = 1
    host_adjusted = True

    def __init__(self, ops):
        self.ops = ops

    def cycle(self, i):
        return self.ops


def check_failures_counted() -> list[str]:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import run
    from workloads import WORKLOADS, Op

    run.signal.signal(run.signal.SIGALRM, run._on_alarm)
    problems = []
    for name, cls in WORKLOADS.items():
        workload = cls(3, tiny=True)
        ops = []
        for op in workload.cycle(0):
            result = op.call()
            if op.check(result) is not None:
                problems.append(f"{name} {op.kind}: the right answer fails its check")
            wrong = _wrong(name, result)
            ops.append(Op(op.kind, lambda wrong=wrong: wrong, op.check))
        tally = run.run_loop(_Fixed(ops), _Fixed(ops).cycle, 0.0)
        if tally.failures["wrong"] != len(ops) or tally.attempted != len(ops):
            problems.append(f"{name}: {tally.failures['wrong']} of {len(ops)} wrong answers counted as failed")

    def boom():
        raise ValueError("deliberate")

    saved, run.DEADLINE_S = run.DEADLINE_S, 0.05
    try:
        ops = [Op("raises", boom, lambda r: None), Op("slow", lambda: time.sleep(0.5), lambda r: None)]
        tally = run.run_loop(_Fixed(ops), _Fixed(ops).cycle, 0.0)
    finally:
        run.DEADLINE_S = saved
    if dict(tally.failures) != {"error": 1, "deadline": 1}:
        problems.append(f"an exception and a deadline miss were counted as {dict(tally.failures)}")
    return problems


def check_in_op_sampling() -> list[str]:
    import run

    run.signal.signal(run.signal.SIGALRM, run._on_alarm)
    dt, factor, result, failure = run.timed_call(lambda: time.sleep(0.1) or 1, sample=True)
    # the sleep ends 0.1 s after it starts, samples included
    if failure or result != 1 or factor is None or not 0.05 < dt < 0.1:
        return [f"a sampled 0.1 s operation gave seconds={dt}, factor={factor}, failure={failure}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_failures_counted() + check_in_op_sampling() + check_outputs(spec)
    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
