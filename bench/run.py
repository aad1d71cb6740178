"""Benchmark for pseudoprob, run against the sources in ../src.

    python3 bench/run.py --workload qubit-sweep --seed 1 --seconds 20 --trace 0

Workloads: qubit-sweep, wide-orderings, coarse-grain, cli (see workloads.py
and BENCHMARK.json for why each exists). Every operation runs under a fixed
in-process deadline and has its answer checked; a wrong answer, an exception
or a missed deadline is a failed operation.

--trace 0 prints the end-to-end metrics. --trace 1 is a separate run: it runs
the loop untraced for half the time and traced for the other half, then the
deadline probes, and prints the per-layer metrics, including the tracing
overhead (traced minus untraced). The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics. A fuller
record with the environment goes to bench/results/.
"""

from __future__ import annotations

import sys

if "--setup-only" in sys.argv:  # sample the host's speed from the first line on
    import hostspeed

    hostspeed.start()

import os  # noqa: E402

# One process, one thread: BLAS is pinned before numpy loads, here and in
# every subprocess the benchmark starts.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import hostspeed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

DEADLINE_S = 3.0  # per operation, for every workload; also in BENCHMARK.json
SETUP_REPEATS = 7
IMPORT_REPEATS = 5
TAIL_WINDOW = 200
# Host-speed yardstick: the reference kernel is timed at least this often
# between operations and, by a timer signal, every SAMPLE_S during an
# operation; every operation's time is scaled by REFERENCE_S over the
# reference timings inside it, or around it when none fell inside.
REFERENCE_EVERY_S = 0.05
SAMPLE_S = 0.025
REFERENCE_S = 0.35e-3

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
)
PER_LAYER = (
    ("operators.hermitian_init_us", "us"),
    ("operators.hermitian_init_count", "count"),
    ("operators.eigh_us", "us"),
    ("states.build_inputs_us", "us"),
    ("states.build_inputs_self_us", "us"),
    *((f"pseudoprojection.weyl_us.{k}", "us") for k in ("N2", "N3", "N4", "N5", "N6", "d3")),
    *((f"pseudoprojection.units_us.{k}", "us") for k in ("N3", "N4", "N5")),
    ("pseudoprojection.orderings", "count"),
    ("pseudoprojection.distinct_ratio", "share"),
    ("schemes.build_self_us", "us"),
    ("schemes.verdict_us", "us"),
    ("schemes.coarse_grain_us.E8", "us"),
    ("schemes.coarse_grain_us.E16", "us"),
    ("schemes.maximizers.E8", "count"),
    ("schemes.negative_entries.E8", "count"),
    ("schemes.negative_entries.E16", "count"),
    ("schemes.deadline_misses", "count"),
    ("qubit.closed_ns", "ns"),
    ("qubit.bisection_us", "us"),
    ("entanglement.monotone_us", "us"),
    ("cli.import_ms", "ms"),
    *((f"cli.main_ms.{k}", "ms") for k in ("scheme", "scan-negativity", "classical-region", "spectrum", "entanglement")),
    ("cli.startup_share", "share"),
    ("trace.ops_per_s_delta", "1/s"),
    ("trace.op_p50_ms_delta", "ms"),
)


class DeadlineExceeded(Exception):
    pass


_REF_A = np.array([[0.6, 0.3 - 0.2j], [0.3 + 0.2j, 0.4]])


def _reference_kernel() -> float:
    m, acc = _REF_A, 0.0
    for _ in range(20):
        m = 0.5 * (m @ _REF_A + _REF_A @ m)
        m = m / np.trace(m).real
        acc += float(np.abs(m - m.conj().T).max())
    return acc


def reference_seconds() -> float:
    """Median of three timings of a fixed kernel built like the package's own
    work: small complex matmuls, traces and norms in Python loops.

    A shared host's speed can drift by 1.6x over seconds to minutes. On a
    2-vCPU Xeon VM, over two minutes, a qubit-sweep cycle's time divided by
    this kernel's, timed next to it, moved by under 2% while each alone
    moved by 60%. Scaling by it removes the host's drift and none of the
    package's own changes, since the kernel does not call pseudoprob.
    Subprocess costs do not follow it; the cli workload is not scaled."""
    times = []
    for _ in range(3):
        t0 = perf_counter()
        _reference_kernel()
        times.append(perf_counter() - t0)
    return sorted(times)[1]


_in_flight: dict = {"start": 0.0, "sample": False}  # the operation the timer signal watches


def _on_alarm(signum, frame):
    now = perf_counter()
    if now - _in_flight["start"] >= DEADLINE_S:
        raise DeadlineExceeded(f"over the {DEADLINE_S} s deadline")
    samples = hostspeed.in_flight
    if _in_flight["sample"] and (not samples or samples[-1][2] >= 0):  # not while sampling
        samples.append((now, 0.0, -1.0))
        slowness = reference_seconds() / REFERENCE_S
        samples[-1] = (now, slowness, perf_counter() - now)


def timed_call(call, sample=False):
    """Run one operation under the deadline: (seconds, factor, result,
    failure). A timer signal checks the deadline every SAMPLE_S and, with
    sample, times the reference kernel. The operation may add host-speed
    samples of its own to hostspeed.in_flight (the cli's children do).
    seconds leave the sampling out, and factor is the host adjustment
    measured inside the operation (None when no sample fell inside it)."""
    hostspeed.in_flight = []
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
    try:
        t0 = _in_flight["start"] = perf_counter()
        _in_flight["sample"] = sample
        try:
            result = call()
        finally:
            t1 = perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0)
            samples, hostspeed.in_flight = hostspeed.in_flight, None
    except DeadlineExceeded:
        return max(t1 - t0, DEADLINE_S), None, None, "deadline"
    except Exception as exc:  # the operation failed; the run goes on
        return t1 - t0, None, None, f"error: {type(exc).__name__}: {exc}"
    if t1 - t0 > DEADLINE_S:
        return t1 - t0, None, None, "deadline"
    samples = sorted(s for s in samples if 0 <= s[2] and t0 <= s[0] and s[0] + s[2] <= t1)  # whole ones inside
    if not samples:
        return t1 - t0, None, result, None
    dt = t1 - t0 - sum(took for _, _, took in samples)
    return dt, hostspeed.adjusted(t0, t1, samples) / dt, result, None


@dataclass
class Tally:
    """What a loop did, one entry per operation, plus answers checked
    outside the loop."""

    kinds: list = field(default_factory=list)
    seconds: list = field(default_factory=list)
    factors: list = field(default_factory=list)  # host adjustment measured inside each operation, or None
    ref_index: list = field(default_factory=list)  # reference timings taken before each operation
    refs: list = field(default_factory=list)  # reference kernel timings
    failed_ops: list = field(default_factory=list)
    failures: Counter = field(default_factory=Counter)  # deadline, error, wrong
    examples: list = field(default_factory=list)
    cycles: int = 0
    outside: int = 0

    def _fail(self, where, failure) -> None:
        self.failures[failure.split(":")[0]] += 1
        if len(self.examples) < 5:
            self.examples.append(f"{where}: {failure}")

    def record(self, kind, dt, factor, failure) -> None:
        self.kinds.append(kind)
        self.seconds.append(dt)
        self.factors.append(factor)
        self.ref_index.append(len(self.refs))
        self.failed_ops.append(failure is not None)
        if failure:
            self._fail(kind, failure)

    def add_checked(self, where, failure) -> None:
        self.outside += 1
        if failure:
            self._fail(where, failure)

    @property
    def scales(self) -> list:
        """Per operation, the host adjustment measured inside it or else
        REFERENCE_S over the median of the reference timings taken around
        it: the two before and the two after (1 when the loop took none)."""
        if not self.refs:
            return [f or 1.0 for f in self.factors]
        return [f or REFERENCE_S / statistics.median(self.refs[max(i - 2, 0):i + 2])
                for f, i in zip(self.factors, self.ref_index)]

    def latencies(self, adjusted=True) -> list:
        """Seconds per operation, host-adjusted unless asked otherwise; a
        failed operation counts as at least the deadline."""
        out = [dt * s for dt, s in zip(self.seconds, self.scales)] if adjusted else self.seconds
        return [max(dt, DEADLINE_S) if f else dt for dt, f in zip(out, self.failed_ops)]

    @property
    def attempted(self) -> int:
        return len(self.seconds) + self.outside

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


def attempt(op, tracer=None, sample=False) -> tuple[float, float | None, str | None]:
    """Run one operation under the deadline, then check its answer outside
    the timed call: (seconds, host factor or None, failure or None)."""
    call = op.call if tracer is None else tracer.wrap(f"op {op.kind}", op.call)
    dt, factor, result, failure = timed_call(call, sample)
    if failure is None:
        try:
            reason = op.check(result)
        except Exception as exc:  # an unreadable answer is a wrong one
            reason = f"{type(exc).__name__}: {exc}"
        if reason is not None:
            failure = f"wrong: {reason}"
    return dt, factor, failure


def run_loop(workload, cycle, seconds: float, tracer=None) -> Tally:
    """Closed loop over whole cycles until `seconds` have passed and the
    workload's minimum cycle count is reached; each answer is checked
    outside the timed call."""
    tally = Tally()
    start = perf_counter()
    last = -REFERENCE_EVERY_S
    while perf_counter() - start < seconds or tally.cycles < workload.min_cycles:
        for op in cycle(tally.cycles):
            if workload.host_adjusted and perf_counter() - last >= REFERENCE_EVERY_S:
                tally.refs.append(reference_seconds())
                last = perf_counter()
            tally.record(op.kind, *attempt(op, tracer, workload.host_adjusted))
        tally.cycles += 1
    if workload.host_adjusted:
        tally.refs.append(reference_seconds())
    return tally


def tail_latency(lat) -> float:
    """The latency with ten samples beyond it: the highest percentile that
    has at least ten (the maximum when there are fewer than eleven)."""
    s = sorted(lat)
    return s[-11] if len(s) > 10 else s[-1]


def latency_metrics(lat, ok: int) -> dict:
    """ops_per_s is operations completed over the time spent in operations.
    On a shared host, stalls from other tenants reach the far tail of a run
    of thousands of operations, so from 2 * TAIL_WINDOW operations on the
    tail is taken in each window of TAIL_WINDOW operations, where ten beyond
    is p95, and the median over the windows is reported."""
    size = TAIL_WINDOW if len(lat) >= 2 * TAIL_WINDOW else len(lat)
    windows = [lat[i:i + size] for i in range(0, len(lat) - size + 1, size)]
    return {
        "ops_per_s": ok / sum(lat),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_tail_ms": statistics.median(tail_latency(w) for w in windows) * 1e3,
    }


def end_to_end(tally: Tally) -> tuple[dict, dict]:
    """(host-adjusted metrics, notes with the raw ones)."""
    ok = len(tally.seconds) - sum(tally.failed_ops)
    lat = tally.latencies()
    per_kind: dict[str, list] = {}
    for kind, dt in zip(tally.kinds, lat):
        per_kind.setdefault(kind, []).append(dt)
    n = len(lat)
    size = TAIL_WINDOW if n >= 2 * TAIL_WINDOW else n
    notes = {
        "raw": latency_metrics(tally.latencies(adjusted=False), ok),
        "host_factor_p50": statistics.median(tally.scales),
        "samples": n,
        "tail_window": size,
        "tail_percentile": 100.0 * (size - 10) / size if size > 10 else 100.0,
        "failed_share": tally.failed / tally.attempted,
        "failures": dict(tally.failures),
        "cycles": tally.cycles,
        "kind_p50_ms": {kind: statistics.median(v) * 1e3 for kind, v in per_kind.items()},
        "kind_ops": {kind: len(v) for kind, v in per_kind.items()},
    }
    return latency_metrics(lat, ok), notes


def layer_metrics(tracer, ops: int) -> dict:
    stats = tracer.aggregate()
    counters = tracer.counters

    def calls(label):
        return stats.get(label, (0, 0.0, 0.0))[0]

    def mean_us(label, part=1):
        s = stats.get(label)
        return s[part] / s[0] * 1e6 if s else 0.0

    def per_op_us(label, part=1):
        s = stats.get(label)
        return s[part] / ops * 1e6 if s else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    out = {
        "operators.hermitian_init_us": mean_us("operators.hermitian_init"),
        "operators.hermitian_init_count": ratio(calls("operators.hermitian_init"), ops),
        "operators.eigh_us": mean_us("operators.eigh"),
        "states.build_inputs_us": per_op_us("states.build_inputs"),
        "states.build_inputs_self_us": per_op_us("states.build_inputs", part=2),
        "pseudoprojection.orderings": ratio(counters.get("orderings", 0), ops),
        "pseudoprojection.distinct_ratio": ratio(counters.get("units.distinct", 0), counters.get("units.orderings", 0)),
        "schemes.build_self_us": mean_us("schemes.build", part=2),
        "schemes.verdict_us": per_op_us("schemes.verdict"),
        "schemes.coarse_grain_us.E8": mean_us("schemes.coarse_grain.E8"),
        "schemes.maximizers.E8": ratio(counters.get("coarse.E8.maximizers", 0), calls("schemes.coarse_grain.E8")),
        "schemes.negative_entries.E8": ratio(
            counters.get("coarse.E8.negative_entries", 0), calls("schemes.coarse_grain.E8")
        ),
        "qubit.closed_ns": ratio(stats.get("qubit.closed", (0, 0.0))[1], counters.get("closed.schemes", 0)) * 1e9,
        "qubit.bisection_us": mean_us("qubit.bisection"),
        "entanglement.monotone_us": mean_us("entanglement.monotone"),
    }
    for name, _ in PER_LAYER:
        if name.startswith(("pseudoprojection.weyl_us.", "pseudoprojection.units_us.")):
            out[name] = mean_us(name.replace("_us", ""))
    return out


def measure_setup(args) -> tuple[list[float], list[float]]:
    """Seconds from starting a fresh benchmark process to it being ready to
    run its first operation: interpreter start, imports, input generation.
    (host-adjusted, raw) per process; see hostspeed.py."""
    cmd = [sys.executable, str(Path(__file__)), "--workload", args.workload, "--seed", str(args.seed), "--setup-only"]
    if args.tiny:
        cmd.append("--tiny")
    adj, raw = [], []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            t1 = perf_counter()
            proc.stdout.read()
        if not line.startswith("ready ") or proc.returncode != 0:
            raise RuntimeError("a set-up run failed")
        samples = json.loads(line[len("ready "):])
        adj.append(hostspeed.adjusted(t0, t1, samples))
        raw.append(t1 - t0 - sum(took for _, _, took in samples))
    return adj, raw


def measure_import() -> list[float]:
    """Milliseconds for a fresh interpreter to run `import pseudoprob`."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(IMPORT_REPEATS):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import pseudoprob"], cwd=ROOT, env=env, check=True)
        times.append((perf_counter() - t0) * 1e3)
    return times


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args) -> dict:
    import numpy as np

    digest = hashlib.sha256()
    for path in sorted((SRC / "pseudoprob").glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "deadline_s": DEADLINE_S,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "source_sha256": digest.hexdigest(),
    }


def run_probes(workload) -> list[dict]:
    results = []
    for op in workload.probes():
        dt, _, failure = attempt(op)
        results.append({"kind": op.kind, "seconds": dt, "missed": failure == "deadline", "failure": failure})
    return results


def after_loop(workload, tally) -> dict:
    done = workload.after_loop()
    if done is None:
        return {}
    notes, failure = done
    tally.add_checked("after the loop", failure)
    return notes


def trace_run(args, workload) -> tuple[dict, dict, list]:
    from tracing import Tracer, boundary_targets

    import_ms = measure_import()
    untraced = run_loop(workload, workload.traced_cycle, args.seconds / 2)
    u_metrics, _ = end_to_end(untraced)
    tracer = Tracer()
    tracer.install(boundary_targets())
    try:
        traced = run_loop(workload, workload.traced_cycle, args.seconds / 2, tracer)
        notes = after_loop(workload, traced)
    finally:
        tracer.uninstall()
    t_metrics, t_notes = end_to_end(traced)
    probes = run_probes(workload)
    metrics = dict.fromkeys((name for name, _ in PER_LAYER), 0.0)
    metrics.update(layer_metrics(tracer, traced.attempted))
    metrics.update(workload.layer_extras(untraced, probes, attempt))
    metrics["schemes.deadline_misses"] = float(sum(p["missed"] for p in probes))
    metrics["cli.import_ms"] = statistics.median(import_ms)
    metrics["trace.ops_per_s_delta"] = t_metrics["ops_per_s"] - u_metrics["ops_per_s"]
    metrics["trace.op_p50_ms_delta"] = t_metrics["op_p50_ms"] - u_metrics["op_p50_ms"]
    record = {
        "untraced": u_metrics,
        "traced": t_metrics,
        "traced_notes": t_notes,
        "after_loop": notes,
        "probes": probes,
        "import_ms": import_ms,
        "spans": len(tracer.spans),
    }
    RESULTS.mkdir(exist_ok=True)
    tracer.dump(RESULTS / f"{args.workload}-seed{args.seed}-spans.json")
    for p in probes:  # a probe may miss its deadline, but never answer wrongly
        traced.add_checked(p["kind"], None if p["failure"] == "deadline" else p["failure"])
    return metrics, record, [untraced, traced]


def timed_run(args, workload) -> tuple[dict, dict, list]:
    setup, setup_raw = measure_setup(args)
    tally = run_loop(workload, workload.cycle, args.seconds)
    notes = after_loop(workload, tally)
    metrics, loop_notes = end_to_end(tally)
    metrics = {"setup_s": statistics.median(setup), **metrics}
    return metrics, {"setup_runs_s": setup, "setup_raw_s": setup_raw, **loop_notes, **notes}, [tally]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("qubit-sweep", "wide-orderings", "coarse-grain", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the self-test")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "pseudoprob" / "__init__.py").is_file():
        print(f"error: no pseudoprob sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import pseudoprob

    if Path(pseudoprob.__file__).resolve().parent != SRC / "pseudoprob":
        print(f"error: imported pseudoprob from {pseudoprob.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.tiny)
    if args.tiny:
        workload.min_cycles = 1
    if args.setup_only:
        print("ready", json.dumps(hostspeed.stop()), flush=True)
        return 0

    signal.signal(signal.SIGALRM, _on_alarm)
    env = environment(args)
    if args.trace:
        metrics, record, tallies = trace_run(args, workload)
        units = dict(PER_LAYER)
    else:
        metrics, record, tallies = timed_run(args, workload)
        units = dict(END_TO_END)
    failures = sum((t.failures for t in tallies), Counter())
    result = {
        "correct": failures["wrong"] == 0 and failures["error"] == 0,
        "attempted": sum(t.attempted for t in tallies),
        "failed": sum(failures.values()),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record["failure_examples"] = [e for t in tallies for e in t.examples]
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"environment": env, "result": result, "record": record}, indent=1) + "\n")

    for key, value in env.items():
        print(f"env {key} = {value}")
    for key, value in record.items():
        if key not in ("kind_p50_ms", "kind_ops", "probes", "traced_notes"):
            print(f"note {key} = {value}")
    for kind, ms in record.get("kind_p50_ms", {}).items():
        print(f"note p50 {kind} = {ms:.4f} ms over {record['kind_ops'][kind]} ops")
    for probe in record.get("probes", []):
        state = "MISSED" if probe["missed"] else (probe["failure"] or "ok")
        print(f"probe {probe['kind']}: {probe['seconds']:.3f} s, {state}")
    for name, m in result["metrics"].items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
