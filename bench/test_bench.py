"""Tests of the benchmark's own helpers.  Run with ``python3 -m pytest bench -q``."""

import hashlib
import json
import os
import random
import sys
import time
from types import SimpleNamespace

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import tfmlab as T  # noqa: E402

with open(os.path.join(BENCH_DIR, "reference.json")) as _fh:
    REFERENCE = json.load(_fh)["workloads"]


def unit_pool(bids):
    return T.Mempool([T.Transaction(i, 1.0, float(b), float(b)) for i, b in enumerate(bids)])


# ---------------------------------------------------------------------------
# spans


def test_self_time_subtracts_only_direct_children():
    clock = iter([0, 10, 15, 25, 40, 50, 60, 100]).__next__
    tracer = spans.Tracer(clock=clock)
    root = tracer.open("cli.main")
    a = tracer.open("experiments.run_rtfm_sweep")
    g = tracer.open("txpool.sample_mempool")
    tracer.close(g)
    tracer.close(a)
    b = tracer.open("experiments.emit_csv")
    tracer.close(b)
    tracer.close(root)
    assert [s[1] for s in tracer.spans] == [-1, 0, 1, 0]
    assert spans.self_times(tracer.spans) == [60, 20, 10, 10]


def test_layer_shares_sum_self_time_of_the_layer():
    clock = iter([0, 10, 15, 25, 40, 50, 60, 100]).__next__
    tracer = spans.Tracer(clock=clock)
    for name in ("cli.main", "experiments.run_rtfm_sweep", "txpool.sample_mempool"):
        tracer.open(name)
    for idx in (2, 1):
        tracer.close(idx)
    tracer.close(tracer.open("experiments.emit_csv"))
    tracer.close(0)
    functions, missing = spans.public_functions(T)
    metrics, absent = spans.layer_metrics(tracer, functions, missing, wall_s=100e-9, runs=4)
    assert absent == {}
    assert metrics["cli.self_ms"] == pytest.approx(60e-6)
    assert metrics["txpool.self_share"] == pytest.approx(0.10)
    assert metrics["experiments.self_ms_per_run"] == pytest.approx(20e-6 / 4)
    assert metrics["experiments.emit_csv.ms"] == pytest.approx(10e-6)


def test_trials_count_across_the_64_bit_wraparound():
    top = (1 << 64) - 1
    assert spans.trials_between(top - 1, 1) == 4  # top-1, top, 0, 1
    assert spans.trials_between(7, 7) == 1
    assert spans.trials_between(0, top) == 1 << 64
    assert spans.trials_between(top, 0) == 2


def test_nonce_trials_match_a_replayed_search():
    difficulty = T.Difficulty(1 << 251, 1, 2)
    block = T.mine_block(bytes(32), T.hash_bytes(b"r"), T.hash_bytes(b"o"), difficulty, seed=5)
    nonce = random.Random(5).getrandbits(64)
    prefix = block.header.prefix_bytes()
    scanned = 1
    while hashlib.sha256(prefix + nonce.to_bytes(8, "big")).digest() >= difficulty.target.to_bytes(
            32, "big"):
        nonce = (nonce + 1) % (1 << 64)
        scanned += 1
    assert nonce == block.header.nonce
    assert spans.nonce_trials(5, block.header.nonce) == scanned


def test_tracing_wraps_callers_bindings_and_restores_them():
    original = T.mech.run_mechanism
    tracer = spans.Tracer()
    with spans.traced(T, tracer):
        assert T.mech.run_mechanism is not original
        assert T.audit.run_mechanism is not original
        report = T.audit.estimate_zti(T.MechanismSpec.uniform(), unit_pool([0, 1, 2]), 2.0,
                                      trials=10, seed=1)
    assert T.mech.run_mechanism is original and T.audit.run_mechanism is original
    assert report.verdict.value == "satisfied"
    names = [s[0] for s in tracer.spans]
    assert names[0] == "audit.estimate_zti"
    assert names.count("mech.run_mechanism") == 10
    assert tracer.fills and all(0 < f <= 1 for f in tracer.fills)
    functions, missing = spans.public_functions(T)
    metrics, _ = spans.layer_metrics(tracer, functions, missing, wall_s=1.0, runs=1)
    assert metrics["audit.mechanism_runs"] == 10
    assert metrics["mech.run_mechanism.calls"] == 10


def test_a_gone_function_is_reported_absent_with_a_reason():
    functions, missing = spans.public_functions(T)
    del functions["alloc.rtfm_sample"]
    missing = dict(missing, cli="module tfmlab.cli cannot be imported: gone")
    metrics, absent = spans.layer_metrics(spans.Tracer(), functions, missing, wall_s=1.0, runs=1)
    assert "alloc.rtfm_sample.ms" not in metrics
    assert "not defined" in absent["alloc.rtfm_sample.ms"]
    assert "gone" in absent["cli.self_ms"]
    assert metrics["alloc.optimal_allocate.ms"] == 0.0


def test_metric_names_and_units_match_benchmark_json():
    with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    functions, missing = spans.public_functions(T)
    metrics, _ = spans.layer_metrics(spans.Tracer(), functions, missing, wall_s=1.0, runs=1)
    assert set(metrics) | {"trace.overhead_s"} == set(run.PER_LAYER)


def test_pass_time_excludes_pauses_and_scales_to_reference_speed():
    class SlowProbe:
        samples = []

        def sample(self):
            time.sleep(0.3)
            self.samples.append(2 * run.REFERENCE_SAMPLE_S)
            return self.samples[-1]

    def run_pass(pause):
        time.sleep(0.05)
        pause()
        return 1

    workload = SimpleNamespace(planned_checks=lambda index, with_reference: ["ok"],
                               check=lambda output, first, reference: {"ok": output == 1},
                               known_defect_checks={})
    tally = run.Tally(workload, None)
    walls, at_reference = run.timed_passes(tally, 0.0, run_pass, SlowProbe())
    assert len(walls) == 1 and 0.05 <= walls[0] < 0.3  # the 0.3 s pause is not counted
    assert at_reference[0] == pytest.approx(walls[0] / 2)
    assert len(SlowProbe.samples) == 3  # before, inside and after the pass
    assert (tally.attempted, sum(tally.failed.values())) == (1, 0)


def test_a_pass_that_raises_fails_every_planned_check():
    def run_pass(pause):
        raise RuntimeError("boom")

    workload = SimpleNamespace(planned_checks=lambda index, with_reference: ["a", "b"],
                               check=lambda output, first, reference: {"a": True, "b": True},
                               known_defect_checks={})
    tally = run.Tally(workload, None)
    probe = SimpleNamespace(sample=lambda: run.REFERENCE_SAMPLE_S, samples=[])
    run.timed_passes(tally, 0.0, run_pass, probe)
    assert (tally.attempted, dict(tally.failed)) == (2, {"a": 1, "b": 1})


def test_a_known_defect_counts_in_error_rate_but_not_in_the_gated_tally():
    workload = SimpleNamespace(planned_checks=lambda index, with_reference: ["a", "known"],
                               check=lambda output, first, reference: {"a": True, "known": False},
                               known_defect_checks={"known": "why"})
    tally = run.Tally(workload, None)
    tally.add(1)
    tally.add(1)
    assert (tally.attempted, dict(tally.failed)) == (4, {"known": 2})
    assert tally.gated() == (2, 0)
    tally.add(None)  # a pass that raised fails the other checks too
    assert tally.gated() == (3, 1)


# ---------------------------------------------------------------------------
# checks


def _perturb(text, row, col, factor):
    lines = text.splitlines(keepends=True)
    cells = lines[row].rstrip("\n").split(",")
    cells[col] = repr(float(cells[col]) * factor)
    lines[row] = ",".join(cells) + "\n"
    return "".join(lines)


def test_sweep_checks_catch_a_perturbed_row():
    ref = REFERENCE["phi_sweep"]["csv"]
    grid = [r[0] for r in checks.csv_rows(ref)]
    assert all(checks.check_sweep(ref, grid, ref, ref).values())
    assert all(checks.check_phi_trends(ref).values())

    tiny = _perturb(ref, 4, 1, 1 + 1e-6)
    result = checks.check_sweep(tiny, grid, ref, ref)
    assert not result["rows_match_reference_rel_1e-9"]
    assert not result["csv_bytes_stable_across_passes"]
    assert result["csv_rows_on_grid"]

    off = _perturb(ref, 4, 1, 1.1)
    assert not checks.check_phi_trends(off)["revenue_within_0.03_of_1-phi"]
    falling = _perturb(ref, 6, 3, 0.5)
    assert not checks.check_phi_trends(falling)["zero_fee_fraction_nondecreasing"]
    shifted = _perturb(ref, 2, 0, 1.5)
    assert not checks.check_sweep(shifted, grid, None, None)["csv_rows_on_grid"]


def test_verdict_checks_catch_a_wrong_verdict():
    rep = T.check_uic(T.MechanismSpec.first_price(), unit_pool([2, 5]), 1.0, user=1,
                      bid_grid=[3.0, 4.0, 5.0], trials=1, seed=0)
    assert checks.verdict_matches(rep, "violated")
    assert not checks.verdict_matches(rep, "satisfied")
    fake = SimpleNamespace(verdict=T.Verdict.VIOLATED, witness={"fake_bids": [0.0, 1.0]})
    assert not checks.verdict_matches(fake, "violated", {"fake_bids": [1.0, 1.0]})
    assert checks.cof_matches(SimpleNamespace(cof=1 / 0.7), 0.3)
    assert not checks.cof_matches(SimpleNamespace(cof=1.6), 0.3)


def _small_chain(blocks=4):
    difficulty = T.Difficulty(1 << 250, 1, 2)
    parent = bytes(32)
    mined, roots, tosses = [], [], []
    for h in range(blocks):
        root_pair = (T.hash_bytes(b"rand%d" % h), T.hash_bytes(b"opt%d" % h))
        block = T.mine_block(parent, *root_pair, difficulty, seed=h, height=h)
        mined.append(block)
        roots.append(root_pair)
        tosses.append(T.coin_toss(block.block_hash, difficulty))
        parent = block.block_hash
    return T.chain_log(mined), roots, tosses, difficulty


def _tamper(log, line, col, value):
    lines = log.splitlines(keepends=True)
    cells = lines[line].rstrip("\n").split(",")
    cells[col] = value(cells[col])
    lines[line] = ",".join(cells) + "\n"
    return "".join(lines)


def test_chain_checks_catch_a_tampered_log_line():
    log, roots, tosses, d = _small_chain()

    def verify(text):
        return checks.check_chain_log(text, d.target, d.phi_num, d.phi_den, roots, tosses)

    assert all(verify(log).values())
    nonce = verify(_tamper(log, 2, 4, lambda v: str(int(v) + 1)))
    assert not nonce["headers_rehash_to_block_hash"]
    toss = verify(_tamper(log, 1, 6, lambda v: str(1 - int(v))))
    assert not toss["toss_recomputes_from_hash"] and toss["headers_rehash_to_block_hash"]
    parent = verify(_tamper(log, 3, 1, lambda v: "11" * 32))
    assert not parent["parent_links_hold"]
    root = verify(_tamper(log, 0, 2, lambda v: "22" * 32))
    assert not root["roots_match_rtfm_sample"] and not root["headers_rehash_to_block_hash"]
    height = verify(_tamper(log, 3, 0, lambda v: "7"))
    assert not height["one_line_per_height"]
    assert not checks.check_chain_log(log, d.target >> 8, d.phi_num, d.phi_den, roots,
                                      tosses)["hashes_below_target"]
