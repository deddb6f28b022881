"""Seeded benchmark for tfmlab: four workloads, end-to-end metrics and a traced pass.

Run from the repository root:

    python3 bench/run.py --workload phi_sweep --seed 42 --seconds 25 --trace 0
    python3 bench/run.py --workload all

Every pass of a workload runs serially in this one process; set-up time is
measured in fresh child processes, one after another.  With ``--trace 0`` the
run reports the end-to-end metrics; with ``--trace 1`` it also runs traced
passes and reports the per-layer metrics.  Gated times are scaled to a
reference host speed measured by SpeedProbe.  The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
bench/README.md describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import importlib
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
REFERENCE_PATH = os.path.join(BENCH_DIR, "reference.json")
if BENCH_DIR not in sys.path:
    sys.path.insert(0, BENCH_DIR)

import spans  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 42
DEFAULT_SECONDS = 25
SETUP_REPEATS = 9
SETUP_PROBES = 5
HASH_PROBE_SECONDS = 0.25
REFERENCE_SAMPLE_S = 0.017  # median of SpeedProbe.sample() on a 2-vCPU Xeon VM, Python 3.11.7

END_TO_END = {"setup_s": "s", "solve_ref_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "txpool.sample_mempool.calls": "count",
    "txpool.sample_mempool.ms": "ms",
    "txpool.self_share": "fraction",
    "alloc.optimal_allocate.calls_per_run": "count",
    **{f"alloc.{fn}.ms": "ms" for fn in spans.ALLOCATORS},
    "alloc.self_share": "fraction",
    "alloc.fill_ratio": "fraction",
    "mech.run_mechanism.calls": "count",
    "mech.run_mechanism.self_ms": "ms",
    "mech.self_share": "fraction",
    "chain.nonce_trials": "count",
    "chain.hash_rate_mhs": "MH/s",
    "chain.merkle_root.ms": "ms",
    "chain.merkle_root.leaves_per_s": "1/s",
    "chain.self_share": "fraction",
    "audit.mechanism_runs": "count",
    **{f"audit.{fn}.ms": "ms" for fn in spans.AUDIT_FUNCTIONS},
    "audit.self_share": "fraction",
    "experiments.self_ms_per_run": "ms",
    "experiments.emit_csv.ms": "ms",
    "cli.self_ms": "ms",
    "trace.overhead_s": "s",
}


def load_tfmlab():
    """Import tfmlab from this checkout's sources, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "tfmlab", "__init__.py")):
        raise SystemExit(f"error: no tfmlab sources under {SRC}")
    sys.path.insert(0, SRC)
    import tfmlab

    importlib.import_module("tfmlab.cli")
    return tfmlab


def git_commit() -> str:
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError) as exc:
        return f"unknown (git did not run: {exc})"
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 \
            or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "unknown (not a git checkout)"
    return lines[1]


def hash_backend(chain) -> str:
    """Which nonce search tfmlab.chain uses, without relying on where it keeps it."""
    if hasattr(chain, "_noncesearch"):
        return "C helper" if chain._noncesearch is not None else "hashlib"
    try:
        found = importlib.util.find_spec(chain.__package__ + "._noncesearch") is not None
    except (ImportError, ValueError):
        found = False
    return "C helper (module found)" if found else "hashlib (no C helper module found)"


def probe_hash_rate(T) -> float:
    """MH/s of mine_block at target 2^240 over fixed headers, for at least HASH_PROBE_SECONDS."""
    difficulty = T.Difficulty(1 << workloads.CHAIN_TARGET_BITS, 1, 2)
    trials = 0
    i = 0
    start = time.perf_counter()
    while True:
        i += 1
        block = T.mine_block(bytes(32), T.hash_bytes(b"probe-rand%d" % i),
                             T.hash_bytes(b"probe-opt%d" % i), difficulty, seed=i, height=i)
        trials += spans.nonce_trials(i, block.header.nonce)
        elapsed = time.perf_counter() - start
        if elapsed >= HASH_PROBE_SECONDS:
            return trials / elapsed / 1e6


def environment(T, seed: int) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "tfmlab": getattr(T, "__version__", "unknown"),
        "commit": git_commit(),
        "seed": seed,
        "hash_backend": hash_backend(T.chain),
        "hash_rate_mhs": probe_hash_rate(T),
    }


class SpeedProbe:
    """Times a fixed mix of interpreter loops, SHA-256 and a NumPy sort.

    The host's speed drifts by tens of percent over seconds, and the same
    drift slows this probe; pass times are scaled by REFERENCE_SAMPLE_S over
    the probe's median around and inside each pass.
    """

    def __init__(self):
        import numpy

        self.numpy = numpy
        self.data = numpy.random.default_rng(0).random(20_000)
        self.samples = []

    def sample(self) -> float:
        start = time.perf_counter()
        acc = 0
        for i in range(40_000):
            acc += i * i % 7
        block = bytes(96)
        for i in range(15_000):
            hashlib.sha256(block + i.to_bytes(8, "big")).digest()
        self.numpy.sort(self.data)
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        return elapsed


def setup_child(workload: str, seed: int) -> None:
    """Print the seconds a fresh process takes to import tfmlab and build the inputs.

    Also prints the median of SETUP_PROBES speed samples taken right after.
    """
    start = time.perf_counter()
    T = load_tfmlab()
    os.makedirs(OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="setup-") as workdir:
        workloads.WORKLOADS[workload](T, seed, workdir)
        elapsed = time.perf_counter() - start
    probe = SpeedProbe()
    speed = statistics.median(probe.sample() for _ in range(SETUP_PROBES))
    print(repr(elapsed), repr(speed))


def setup_times(workload: str, seed: int) -> list:
    """(wall seconds, seconds at reference speed) of set-up in each fresh process."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(seed), "--setup-only"],
            capture_output=True, text=True, timeout=170, cwd=ROOT)
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up process failed:\n{proc.stderr}")
        wall, speed = (float(v) for v in proc.stdout.split()[-2:])
        times.append((wall, wall * REFERENCE_SAMPLE_S / speed))
    return times


class Tally:
    """Checks attempted and failed; a pass that raised fails every check it planned.

    `attempted` and `failed` count every check.  The gated counts leave out
    the workload's known-defect checks, which are reported on their own.
    """

    def __init__(self, workload, reference):
        self.workload = workload
        self.reference = reference
        self.first_output = None
        self.passes = 0
        self.attempted = 0
        self.failed = collections.Counter()
        self.known_defect_attempted = 0

    def gated(self) -> tuple:
        """(attempted, failed) without the known-defect checks."""
        known = self.workload.known_defect_checks
        failed = sum(n for name, n in self.failed.items() if name not in known)
        return self.attempted - self.known_defect_attempted, failed

    def add(self, output) -> None:
        planned = self.workload.planned_checks(self.passes, self.reference is not None)
        results = {}
        if output is not None:
            try:
                results = self.workload.check(output, self.first_output, self.reference)
            except Exception:  # a malformed output fails its checks; the run goes on
                traceback.print_exc(file=sys.stderr)
            if self.first_output is None:
                self.first_output = output
        for name in planned:
            if not results.get(name, False):
                self.failed[name] += 1
        self.attempted += len(planned)
        self.known_defect_attempted += sum(n in self.workload.known_defect_checks for n in planned)
        self.passes += 1


def timed_passes(tally: Tally, seconds: float, run_pass, probe: SpeedProbe, after=None):
    """Run passes until the next one would end past `seconds`; at least one.

    Returns each pass's wall time, without the pauses it made for speed
    samples, and the same time at the reference speed.  `after`, if given, is
    called with each wall time once it is measured.
    """
    walls, at_reference = [], []
    start = time.perf_counter()
    before = probe.sample()
    while not walls or time.perf_counter() - start + walls[-1] <= seconds:
        samples = [before]
        paused = 0.0

        def pause():
            nonlocal paused
            t = time.perf_counter()
            samples.append(probe.sample())
            paused += time.perf_counter() - t

        t0 = time.perf_counter()
        try:
            output = run_pass(pause)
        except Exception:  # a pass that raises is counted, and the run goes on
            traceback.print_exc(file=sys.stderr)
            output = None
        wall = time.perf_counter() - t0 - paused
        before = probe.sample()
        samples.append(before)
        walls.append(wall)
        at_reference.append(wall * REFERENCE_SAMPLE_S / statistics.median(samples))
        tally.add(output)
        if after is not None:
            after(wall)
    return walls, at_reference


def traced_passes(T, workload, tally: Tally, seconds: float, probe: SpeedProbe):
    """Per-layer metrics (median over traced passes), absent metrics, pass times, last spans.

    Only the last pass's spans are kept, so memory holds one pass of spans.
    """
    functions, missing = spans.public_functions(T)
    per_pass, absent, last = [], {}, [spans.Tracer()]

    def run_pass(pause):
        last[0] = spans.Tracer()
        with spans.traced(T, last[0]):
            return workload.run_pass(pause)

    def after(wall):
        metrics, gone = spans.layer_metrics(last[0], functions, missing, wall, workload.runs)
        per_pass.append(metrics)
        absent.update(gone)

    walls, at_reference = timed_passes(tally, seconds, run_pass, probe, after)
    merged = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    return merged, absent, at_reference, last[0]


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def load_reference(seed: int):
    with open(REFERENCE_PATH) as fh:
        recorded = json.load(fh)
    return recorded if recorded["seed"] == seed else None


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    T = load_tfmlab()
    recorded = load_reference(seed)
    os.makedirs(OUT_DIR, exist_ok=True)
    setup = None if trace else setup_times(name, seed)
    env = environment(T, seed)
    probe = SpeedProbe()
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="work-") as workdir:
        workload = workloads.WORKLOADS[name](T, seed, workdir)
        tally = Tally(workload, recorded["workloads"][name] if recorded else None)
        solve, solve_ref = timed_passes(tally, seconds, workload.run_pass, probe)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if trace:
            layer, absent, traced_ref, tracer = traced_passes(T, workload, tally, seconds, probe)
            layer["trace.overhead_s"] = statistics.median(traced_ref) - statistics.median(solve_ref)

    print(f"workload {name}  seed {seed}  trace {int(trace)}  ({workload.why})")
    print("env " + json.dumps(env))
    q1, q3 = quartiles(solve)
    failed = sum(tally.failed.values())
    error_rate = failed / tally.attempted
    result = {"workload": name, "env": env, "passes": tally.passes,
              "solve_s": statistics.median(solve), "solve_s_passes": solve,
              "solve_ref_s_passes": solve_ref, "speed_samples_s": probe.samples,
              "error_rate": error_rate, "failed_checks": dict(tally.failed)}
    if trace:
        values = {k: (v, PER_LAYER[k]) for k, v in layer.items()}
        result.update(traced_ref_s_passes=traced_ref, absent=absent)
    else:
        measured = {"setup_s": statistics.median(ref for _, ref in setup),
                    "solve_ref_s": statistics.median(solve_ref), "peak_rss_mb": peak_rss_mb}
        values = {k: (v, END_TO_END[k]) for k, v in measured.items()}
        result["setup_s_processes"] = setup  # (wall, at reference speed)
    for metric, (value, unit) in values.items():
        print(f"  {metric:40s} {value:14.6g} {unit}")
    print(f"  {'solve_s':40s} {statistics.median(solve):14.6g} s (wall, not gated)")
    if setup:
        setup_wall = statistics.median(w for w, _ in setup)
        print(f"  {'setup_s wall':40s} {setup_wall:14.6g} s (not gated)")
    print(f"  solve_s (wall) over {len(solve)} untraced passes: median "
          f"{statistics.median(solve):.6g} s, quartiles {q1:.6g} .. {q3:.6g} s")
    print(f"  speed samples: {len(probe.samples)}, median {statistics.median(probe.samples):.6g} s "
          f"(reference {REFERENCE_SAMPLE_S} s)")
    print(f"  error_rate {error_rate:.6g} ({failed} of {tally.attempted} checks failed)")
    for check, count in sorted(tally.failed.items()):
        if check not in workload.known_defect_checks:
            print(f"  failed check {check}: in {count} of {tally.passes} passes")
    for check, reason in sorted(workload.known_defect_checks.items()):
        count = tally.failed.get(check, 0)
        print(f"  known defect {check}: failed in {count} of {tally.passes} passes ({reason})")
    result["known_defect_failures"] = {c: tally.failed.get(c, 0)
                                       for c in workload.known_defect_checks}
    for metric, reason in sorted(result.get("absent", {}).items()):
        print(f"  absent {metric}: {reason}")
    if recorded and tally.first_output is not None and "csv" in recorded["workloads"][name]:
        same = tally.first_output[1] == recorded["workloads"][name]["csv"]
        result["reference_csv_bytes_identical"] = same
        print(f"  sweep CSV bytes identical to the recorded reference: {'yes' if same else 'no'}")

    stem = os.path.join(OUT_DIR, f"{name}-seed{seed}-trace{int(trace)}")
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    with open(stem + ".json", "w") as fh:
        json.dump(result, fh, indent=1)
    if trace:
        tracer.write_csv(stem + "-spans.csv")
    gated_attempted, gated_failed = tally.gated()
    print(json.dumps({"correct": gated_failed == 0, "attempted": gated_attempted,
                      "failed": gated_failed, "metrics": result["metrics"]}))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload, one after another, each in its own process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, cwd=ROOT)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"error: workload {name} exited with code {proc.returncode}")
        print("\n".join(lines[:-1]))
        last = json.loads(lines[-1])
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for metric, entry in last["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0


def record_reference() -> int:
    """Write the default seed's reference outputs from one pass of each workload."""
    T = load_tfmlab()
    os.makedirs(OUT_DIR, exist_ok=True)
    recorded = {"seed": DEFAULT_SEED, "workloads": {}}
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="record-") as workdir:
        for name, cls in workloads.WORKLOADS.items():
            workload = cls(T, DEFAULT_SEED, workdir)
            recorded["workloads"][name] = workload.reference_of(workload.run_pass(lambda: None))
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(recorded, fh, indent=1)
        fh.write("\n")
    print(f"wrote {REFERENCE_PATH}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time set-up in this process and print the seconds (used by the run)")
    parser.add_argument("--record-reference", action="store_true",
                        help=f"rewrite bench/reference.json at seed {DEFAULT_SEED}")
    args = parser.parse_args(argv)
    if args.record_reference:
        return record_reference()
    if args.setup_only:
        setup_child(args.workload, args.seed)
        return 0
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
