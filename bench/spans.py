"""Spans around tfmlab's public functions, and the per-layer metrics made from them.

The tracer wraps every public function that the layer modules define, at
every place inside the package where a caller has bound it (the module that
defines it, the modules that imported it by name, and the package itself).
Nothing in tfmlab is edited: the bindings are swapped for the traced pass and
put back afterwards.  Spans are (name, parent, start, end) and stay in memory
until the benchmark writes them out.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import random
import sys
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

LAYERS = ("txpool", "alloc", "mech", "chain", "audit", "experiments", "cli")
NONCE_SPACE = 1 << 64
AUDIT_FUNCTIONS = ("estimate_zti", "estimate_monotonicity", "check_uic",
                   "search_mic_deviation", "empirical_cof", "tune_gamma")
ALLOCATORS = ("optimal_allocate", "uniform_allocate", "stfm_allocate",
              "splitblock_allocate", "rtfm_sample")
SWEEPS = ("experiments.run_rtfm_sweep", "experiments.run_stfm_sweep")

Span = List  # [name, parent index or -1, start ns, end ns]


def trials_between(start: int, nonce: int) -> int:
    """Nonces scanned from `start` up to and including `nonce`, modulo 2**64."""
    return (nonce - start) % NONCE_SPACE + 1


def nonce_trials(seed: int, nonce: int) -> int:
    """Trials `tfmlab.chain.mine_block` spent, given its seed and the nonce it found."""
    return trials_between(random.Random(seed).getrandbits(64), nonce)


class Tracer:
    """Collects spans and the counts read at the same boundaries."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self.nonce_trials = 0
        self.merkle_leaves = 0
        self.fills: List[float] = []
        self.unreadable: Dict[str, str] = {}

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, self.clock(), 0])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][3] = self.clock()
        self._stack.pop()

    def record(self, name: str, fn, args, kwargs, result) -> None:
        """Read the counts a layer metric needs from one call's arguments and result."""
        try:
            if name == "chain.mine_block":
                seed = inspect.signature(fn).bind(*args, **kwargs).arguments["seed"]
                self.nonce_trials += nonce_trials(seed, result.header.nonce)
            elif name == "chain.merkle_root":
                leaves = inspect.signature(fn).bind(*args, **kwargs).arguments["leaves"]
                self.merkle_leaves += len(leaves)
            elif name.startswith("alloc.") and hasattr(result, "total_size") \
                    and hasattr(result, "capacity"):
                if result.capacity > 0:
                    self.fills.append(float(result.total_size) / float(result.capacity))
        except (AttributeError, KeyError, TypeError) as exc:
            self.unreadable.setdefault(name, f"cannot read counts from {name}: {exc}")

    def write_csv(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("id,parent,name,start_ns,end_ns\n")
            for idx, (name, parent, start, end) in enumerate(self.spans):
                fh.write(f"{idx},{parent},{name},{start},{end}\n")


def public_functions(package) -> Tuple[Dict[str, Callable], Dict[str, str]]:
    """Map ``layer.function`` to each public function a layer module defines.

    Also returns the layers that could not be imported, with the reason.
    """
    found: Dict[str, Callable] = {}
    missing: Dict[str, str] = {}
    for layer in LAYERS:
        try:
            module = importlib.import_module(f"{package.__name__}.{layer}")
        except ImportError as exc:
            missing[layer] = f"module {package.__name__}.{layer} cannot be imported: {exc}"
            continue
        for attr, obj in vars(module).items():
            if not attr.startswith("_") and inspect.isfunction(obj) \
                    and obj.__module__ == module.__name__:
                found[f"{layer}.{attr}"] = obj
    return found, missing


def _wrap(name: str, fn: Callable, tracer: Tracer) -> Callable:
    def wrapper(*args, **kwargs):
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        tracer.record(name, fn, args, kwargs, result)
        return result

    wrapper.__wrapped__ = fn
    wrapper.__name__ = fn.__name__
    wrapper.__doc__ = fn.__doc__
    return wrapper


@contextlib.contextmanager
def traced(package, tracer: Tracer):
    """Swap every binding of a public layer function for a traced wrapper."""
    functions, _ = public_functions(package)
    wrappers = {id(fn): (fn, _wrap(name, fn, tracer)) for name, fn in functions.items()}
    prefix = package.__name__ + "."
    patched = []
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == package.__name__ or mod_name.startswith(prefix)):
            continue
        for attr, obj in list(vars(module).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(module, attr, hit[1])
                patched.append((module, attr, obj))
    try:
        yield
    finally:
        for module, attr, obj in reversed(patched):
            setattr(module, attr, obj)


def self_times(spans: List[Span]) -> List[int]:
    """Each span's duration minus the durations of its direct children, in ns."""
    own = [end - start for _, _, start, end in spans]
    for _, parent, start, end in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _totals(spans: List[Span]) -> Tuple[Counter, Counter, Counter]:
    """Calls, inclusive ns and self ns per span name.

    Inclusive time skips a span nested inside another span of the same name,
    so recursion is not counted twice.
    """
    calls, inclusive, own = Counter(), Counter(), Counter()
    for (name, parent, start, end), self_ns in zip(spans, self_times(spans)):
        calls[name] += 1
        own[name] += self_ns
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][1]
        if p < 0:
            inclusive[name] += end - start
    return calls, inclusive, own


def _mechanism_runs_per_audit_call(spans: List[Span]) -> Optional[float]:
    """`run_mechanism` plus stand-alone `stfm_allocate` calls per outermost audit call."""
    audit_root = [-1] * len(spans)
    in_mech = [False] * len(spans)
    calls = 0
    runs = 0
    for idx, (name, parent, _, _) in enumerate(spans):
        if parent >= 0:
            audit_root[idx] = audit_root[parent]
            in_mech[idx] = in_mech[parent] or spans[parent][0] == "mech.run_mechanism"
        if audit_root[idx] < 0 and name.startswith("audit."):
            audit_root[idx] = idx
            calls += 1
        if audit_root[idx] >= 0 and not in_mech[idx] and name in (
                "mech.run_mechanism", "alloc.stfm_allocate"):
            runs += 1
    return runs / calls if calls else None


def layer_metrics(tracer: Tracer, functions: Dict[str, Callable], missing_layers: Dict[str, str],
                  wall_s: float, runs: int) -> Tuple[Dict[str, float], Dict[str, str]]:
    """Per-layer metrics of one traced pass, and the reason for each that is absent.

    `wall_s` is the traced pass's wall time and `runs` the workload's number of
    runs (sweep runs, mined blocks or audit calls).  A layer that does not run
    on the workload reads 0; a metric whose function is gone is absent.
    """
    spans = tracer.spans
    calls, inclusive, own = _totals(spans)
    metrics: Dict[str, float] = {}
    absent: Dict[str, str] = {}

    def put(metric: str, needs: Tuple[str, ...], value: Callable[[], float]) -> None:
        """Set `metric` unless a layer or function it reads is gone; `needs` names either."""
        for name in needs:
            reason = missing_layers.get(name.split(".")[0])
            if reason is None and "." in name and name not in functions:
                reason = f"tfmlab.{name} is not defined"
            reason = reason or tracer.unreadable.get(name)
            if reason:
                absent[metric] = reason
                return
        metrics[metric] = value()

    def ms(name: str) -> float:
        return inclusive[name] / 1e6

    def layer_self_ns(layer: str) -> int:
        return sum(t for name, t in own.items() if name.startswith(layer + "."))

    def share(layer: str) -> float:
        return layer_self_ns(layer) / 1e9 / wall_s if wall_s > 0 else 0.0

    put("txpool.sample_mempool.calls", ("txpool.sample_mempool",),
        lambda: calls["txpool.sample_mempool"])
    put("txpool.sample_mempool.ms", ("txpool.sample_mempool",), lambda: ms("txpool.sample_mempool"))
    put("txpool.self_share", ("txpool",), lambda: share("txpool"))

    put("alloc.optimal_allocate.calls_per_run", ("alloc.optimal_allocate",),
        lambda: calls["alloc.optimal_allocate"] / runs)
    for fn in ALLOCATORS:
        put(f"alloc.{fn}.ms", (f"alloc.{fn}",), lambda fn=fn: ms(f"alloc.{fn}"))
    put("alloc.self_share", ("alloc",), lambda: share("alloc"))
    put("alloc.fill_ratio", ("alloc",),
        lambda: sum(tracer.fills) / len(tracer.fills) if tracer.fills else 0.0)

    put("mech.run_mechanism.calls", ("mech.run_mechanism",), lambda: calls["mech.run_mechanism"])
    put("mech.run_mechanism.self_ms", ("mech.run_mechanism",),
        lambda: own["mech.run_mechanism"] / 1e6)
    put("mech.self_share", ("mech",), lambda: share("mech"))

    put("chain.nonce_trials", ("chain.mine_block",), lambda: tracer.nonce_trials)
    mine_s = inclusive["chain.mine_block"] / 1e9
    put("chain.hash_rate_mhs", ("chain.mine_block",),
        lambda: tracer.nonce_trials / mine_s / 1e6 if mine_s > 0 else 0.0)
    put("chain.merkle_root.ms", ("chain.merkle_root",), lambda: ms("chain.merkle_root"))
    merkle_s = inclusive["chain.merkle_root"] / 1e9
    put("chain.merkle_root.leaves_per_s", ("chain.merkle_root",),
        lambda: tracer.merkle_leaves / merkle_s if merkle_s > 0 else 0.0)
    put("chain.self_share", ("chain",), lambda: share("chain"))

    put("audit.mechanism_runs", ("mech.run_mechanism", "alloc.stfm_allocate"),
        lambda: _mechanism_runs_per_audit_call(spans) or 0.0)
    for fn in AUDIT_FUNCTIONS:
        put(f"audit.{fn}.ms", (f"audit.{fn}",), lambda fn=fn: ms(f"audit.{fn}"))
    put("audit.self_share", ("audit",), lambda: share("audit"))

    put("experiments.self_ms_per_run", SWEEPS,
        lambda: sum(own[name] for name in SWEEPS) / 1e6 / runs)
    put("experiments.emit_csv.ms", ("experiments.emit_csv",), lambda: ms("experiments.emit_csv"))
    put("cli.self_ms", ("cli",), lambda: layer_self_ns("cli") / 1e6)
    return metrics, absent
