"""The four benchmark workloads.

Each workload builds its inputs from the workload seed (that is its set-up),
runs one pass over a fixed problem, and checks the pass's output.  tfmlab is
reached only through its public API and its CLI, looked up at call time so
that the tracer's wrappers are the ones called.

A pass receives `pause`, which it calls between independent steps.  The
harness stops the pass clock there and samples the machine's speed, so that a
long pass is compared with the speed the machine had while it ran.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
from typing import Callable, Dict, List, Optional, Tuple

import checks

PHI_GRID = tuple(round(0.1 * i, 1) for i in range(11))
GAMMA_GRID = (0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 25.0, 50.0)
COF_PHIS = tuple(round(0.1 * i, 1) for i in range(1, 10))

PHI_SWEEP_RUNS = 200
TEMPERATURE_SWEEP_RUNS = 50
COF_TRIALS = 1000
CHAIN_BLOCKS = 240
CHAIN_POOL = 1000
CHAIN_CAPACITY = 100.0
CHAIN_TARGET_BITS = 240
CHAIN_PAUSE_EVERY = 5  # blocks between speed samples


class Workload:
    """One seeded problem; subclasses fill in the pass and its checks."""

    name = ""
    why = ""
    check_names: Tuple[str, ...] = ()
    repeat_check_names: Tuple[str, ...] = ()  # from the second pass on
    reference_check_names: Tuple[str, ...] = ()  # only at the seed the references were recorded at
    # checks that fail because of a known defect of tfmlab: each run reports them,
    # and they count in error_rate but not in the run's pass/fail verdict
    known_defect_checks: Dict[str, str] = {}
    runs = 1  # sweep runs, mined blocks or audit calls in one pass

    def __init__(self, tfmlab, seed: int, workdir: str):
        self.T = tfmlab
        self.seed = seed
        self.workdir = workdir

    def planned_checks(self, pass_index: int, with_reference: bool) -> List[str]:
        names = list(self.check_names)
        if pass_index > 0:
            names += self.repeat_check_names
        if with_reference:
            names += self.reference_check_names
        return names

    def run_pass(self, pause: Callable[[], None]):
        raise NotImplementedError

    def check(self, output, first_output, reference: Optional[dict]) -> Dict[str, bool]:
        raise NotImplementedError

    def reference_of(self, output) -> dict:
        raise NotImplementedError


class _CliSweep(Workload):
    command = ""
    config = ""
    grid: Tuple[float, ...] = ()
    repeat_check_names = ("csv_bytes_stable_across_passes",)
    reference_check_names = ("rows_match_reference_rel_1e-9",)

    def __init__(self, tfmlab, seed, workdir):
        super().__init__(tfmlab, seed, workdir)
        self.config_path = os.path.join(workdir, self.name + ".cfg")
        self.csv_path = os.path.join(workdir, self.name + ".csv")
        with open(self.config_path, "w") as fh:
            fh.write(self.config)

    def run_pass(self, pause):
        argv = [self.command, "--config", self.config_path, "--seed", str(self.seed),
                "--out", self.csv_path]
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.T.cli.main(argv)
        with open(self.csv_path) as fh:
            return code, fh.read()

    def check(self, output, first_output, reference):
        code, text = output
        out = {"exit_code_0": code == 0}
        out.update(checks.check_sweep(
            text, self.grid, first_output[1] if first_output is not None else None,
            reference["csv"] if reference is not None else None))
        return out

    def reference_of(self, output):
        return {"csv": output[1]}


class PhiSweep(_CliSweep):
    name = "phi_sweep"
    why = ("the paper's headline bias sweep: sampling, two greedy knapsacks and a uniform walk "
           "per run at n=1000, and no chain work")
    command = "sweep-rtfm"
    grid = PHI_GRID
    runs = PHI_SWEEP_RUNS
    check_names = ("exit_code_0", "csv_rows_on_grid", "revenue_within_0.03_of_1-phi",
              "zero_fee_fraction_nondecreasing")
    config = (
        "allocation = rtfm\npayment = fpa\nn = 1000\ncapacity = 100\n"
        "bids = censored_gaussian(4,3)\nsizes = constant(1)\nsweep_param = phi\n"
        f"sweep_values = {','.join(f'{v:g}' for v in PHI_GRID)}\nruns = {PHI_SWEEP_RUNS}\n"
        "stratified_toss = true\n"
    )

    def check(self, output, first_output, reference):
        out = super().check(output, first_output, reference)
        out.update(checks.check_phi_trends(output[1]))
        return out


class TemperatureSweep(_CliSweep):
    name = "temperature_sweep"
    why = ("the only unequal-size workload: softmax sampling over large pools, where an "
           "equal-size fast path in alloc would not apply")
    command = "sweep-stfm"
    grid = GAMMA_GRID
    runs = TEMPERATURE_SWEEP_RUNS * len(GAMMA_GRID)
    check_names = ("exit_code_0", "csv_rows_on_grid")
    config = (
        "allocation = softmax\npayment = fpa\nn = 1000\nbids = uniform(0,5)\n"
        "sizes = exponential(1)\nsweep_param = gamma\n"
        f"sweep_values = {','.join(f'{v:g}' for v in GAMMA_GRID)}\nsize_ratio = 10\n"
        f"runs = {TEMPERATURE_SWEEP_RUNS}\n"
    )


class AuditSmallPools(Workload):
    name = "audit_small_pools"
    why = ("thousands of run_mechanism calls on pools of 3 to 60 transactions with miner "
           "fakes, so per-call overhead dominates")
    reference_check_names = ("tune_gamma_matches_reference_rel_1e-9",)
    known_defect_checks = {
        "uic.split_block_reproducer": "check_uic judges split block from one run, although "
                                      "the rule samples (ROADMAP item 2); expected VIOLATED",
    }

    def __init__(self, tfmlab, seed, workdir):
        super().__init__(tfmlab, seed, workdir)
        T = tfmlab

        def unit(bids):
            return T.Mempool([T.Transaction(i, 1.0, float(b), float(b))
                              for i, b in enumerate(bids)])

        S = T.MechanismSpec
        fairness_pool = unit([0, 0, 1, 2])
        cof_pool = unit([5 + (i % 7) for i in range(20)])
        # split block with a posted fee, judged from one run although it samples:
        # under-bidding to the posted fee pays in expectation, so UIC is violated
        reproducer = T.Mempool([T.Transaction(i, 1.0, 1.0, 3.0) for i in range(6)]
                               + [T.Transaction(6, 1.0, 5.0, 5.0)])
        # the pool shape of demos/tune_gamma.cfg, drawn from the workload seed
        tune_pool = T.sample_mempool(
            60, T.BidDistribution.zero_inflated(0.3, T.BidDistribution.uniform(0, 5)),
            T.BidDistribution.constant(1), seed=seed)

        verdict = checks.verdict_matches
        # (check name, audit function, positional args, keyword args, check of the result)
        calls: List[Tuple[str, str, tuple, dict, Callable]] = [
            ("mic.split_block_posted_fee", "search_mic_deviation",
             (S.split_block(0.75, delta=1.0), unit([2, 3, 4, 5, 6]), 8.0),
             dict(fake_budget=2, fake_bid_grid=[0.0, 1.0], seed=seed),
             lambda r: verdict(r, "violated", {"fake_bids": [1.0, 1.0]})),
            ("mic.first_price", "search_mic_deviation",
             (S.first_price(), unit([5, 3, 2]), 2.0, 2, [0.0, 1.0, 5.0]), dict(seed=seed),
             lambda r: verdict(r, "satisfied")),
            ("mic.rtfm", "search_mic_deviation",
             (S.rtfm(0.4), unit([5, 3, 2]), 2.0, 2, [0.0, 1.0, 5.0]), dict(seed=seed),
             lambda r: verdict(r, "satisfied")),
            ("mic.softmax_greedy_override", "search_mic_deviation",
             (S.stfm(1.0), unit([5, 5, 4, 4, 0, 0]), 2.0, 2, [0.0, 5.0]),
             dict(seed=seed, trials=2000),
             lambda r: verdict(r, "violated", {"override": "greedy_instead_of_sampling"})),
        ]
        suite = (("softmax", S.stfm(1.0), "satisfied", "satisfied"),
                 ("rtfm", S.rtfm(0.3), "satisfied", "satisfied"),
                 ("eip1559", S.eip1559(1.0), "violated", "satisfied"),
                 ("uniform", S.uniform(), "satisfied", "violated"))
        for label, spec, zti, mono in suite:
            calls.append((f"zti.{label}", "estimate_zti", (spec, fairness_pool, 2.0),
                          dict(trials=3000, seed=seed), lambda r, zti=zti: verdict(r, zti)))
            calls.append((f"monotonicity.{label}", "estimate_monotonicity",
                          (spec, fairness_pool, 3, [1.0]),
                          dict(trials=100, seed=seed, capacity=2.0),
                          lambda r, mono=mono: verdict(r, mono)))
        for phi in COF_PHIS:
            calls.append((f"cof.rtfm_phi_{phi:g}", "empirical_cof", (S.rtfm(phi), cof_pool, 8.0),
                          dict(trials=COF_TRIALS, seed=seed),
                          lambda r, phi=phi: checks.cof_matches(r, phi)))
        calls += [
            ("uic.first_price", "check_uic", (S.first_price(), unit([2, 5]), 1.0),
             dict(user=1, bid_grid=[3.0, 4.0, 5.0], trials=1, seed=seed),
             lambda r: verdict(r, "violated")),
            ("uic.eip1559", "check_uic", (S.eip1559(2.0), unit([5, 5, 5, 3]), 2.0),
             dict(user=3, bid_grid=[2.0, 3.0, 5.0], trials=1, seed=seed),
             lambda r: verdict(r, "satisfied")),
            ("uic.split_block_reproducer", "check_uic",
             (S.split_block(0.5, delta=1.0), reproducer, 4.0),
             dict(user=0, bid_grid=[1.0, 3.0], trials=500, seed=seed),
             lambda r: verdict(r, "violated")),
            ("tune_gamma_in_range", "tune_gamma", (tune_pool, 15.0),
             dict(alpha_target=0.2, phi_ratio=2.0, gamma_lo=0.1, gamma_hi=50.0, trials=400,
                  seed=seed),
             lambda g: 0.1 <= g <= 50.0),
        ]
        self.calls = calls
        self.check_names = tuple(call[0] for call in calls)
        self.runs = len(calls)

    def run_pass(self, pause):
        audit = self.T.audit
        out = {}
        for name, fn, args, kwargs, _ in self.calls:
            out[name] = getattr(audit, fn)(*args, **kwargs)
            pause()
        return out

    def check(self, output, first_output, reference):
        out = {call[0]: bool(call[4](output[call[0]])) for call in self.calls}
        if reference is not None:
            out["tune_gamma_matches_reference_rel_1e-9"] = checks.close(
                output["tune_gamma_in_range"], reference["tune_gamma"], 1e-9)
        return out

    def reference_of(self, output):
        return {"tune_gamma": output["tune_gamma_in_range"]}


class MinedChain(Workload):
    name = "mined_chain"
    why = ("the only workload that uses chain: per block a pool, both committed sets with "
           "their Merkle roots, proof-of-work at target 2^240 and the coin toss")
    runs = CHAIN_BLOCKS
    check_names = ("one_line_per_height", "headers_rehash_to_block_hash", "hashes_below_target",
                   "toss_recomputes_from_hash", "parent_links_hold", "roots_match_rtfm_sample")
    reference_check_names = ("log_sha256_matches_reference",)

    def __init__(self, tfmlab, seed, workdir):
        super().__init__(tfmlab, seed, workdir)
        T = tfmlab
        self.difficulty = T.Difficulty(1 << CHAIN_TARGET_BITS, 1, 2)
        self.bids = T.BidDistribution.censored_gaussian(4, 3)
        self.sizes = T.BidDistribution.constant(1)

    def run_pass(self, pause):
        T = self.T
        parent = bytes.fromhex(checks.GENESIS_HEX)
        blocks, roots, tosses = [], [], []
        for h in range(CHAIN_BLOCKS):
            pool = T.sample_mempool(CHAIN_POOL, self.bids, self.sizes, seed=[self.seed, h])
            sets = T.alloc.rtfm_sample(pool, CHAIN_CAPACITY, seed=[self.seed, h, 1])
            block = T.chain.mine_block(parent, sets.rand_root, sets.opt_root, self.difficulty,
                                       seed=self.seed * 1_000_000 + h, height=h)
            tosses.append(T.chain.coin_toss(block.block_hash, self.difficulty))
            roots.append((sets.rand_root, sets.opt_root))
            blocks.append(block)
            parent = block.block_hash
            if h % CHAIN_PAUSE_EVERY == CHAIN_PAUSE_EVERY - 1:
                pause()
        return T.chain.chain_log(blocks), roots, tosses

    def check(self, output, first_output, reference):
        log, roots, tosses = output
        d = self.difficulty
        out = checks.check_chain_log(log, d.target, d.phi_num, d.phi_den, roots, tosses)
        if reference is not None:
            out["log_sha256_matches_reference"] = (
                hashlib.sha256(log.encode()).hexdigest() == reference["log_sha256"])
        return out

    def reference_of(self, output):
        return {"log_sha256": hashlib.sha256(output[0].encode()).hexdigest()}


WORKLOADS: Dict[str, type] = {w.name: w for w in (PhiSweep, TemperatureSweep, AuditSmallPools,
                                                  MinedChain)}

