"""Monte-Carlo sweep experiments with deterministic CSV output.

Sweeps share the mempool stream across grid points (common random numbers),
so per-point estimates move smoothly along the grid.  Both sweeps loop over
runs first: a run draws its pool and seeds its generator once and serves
every grid value.  A run steps the rules of :mod:`._trials` as the audits
do: the two-set run reads each branch's block as a slice of one trial, and
a softmax run walks its one row of Gumbel noise at every temperature of a
capacity, as the rows of one slice.  For
the randomized two-set mechanism the branch tosses are additionally
stratified across runs by default: each grid value sees branch counts
exactly proportional to its bias, an unbiased variance-reduction that leaves
per-run mechanics untouched.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .alloc import EXHAUSTIVE_LIMIT, _optimal_rows
from .errors import ConfigError, ParameterError, _check_int
from .mech import (
    CONFIG_KEYS,
    POOL,
    SWEEP,
    AllocationKind,
    MechanismSpec,
    PaymentKind,
    _arm,
    config_value,
    parse_config_text,  # noqa: F401 (re-exported: the sweep configs' parser)
    spec_from_fields,
)
from ._streams import PERMUTATION, _draw_trial
from ._trials import _Blocks, _paying, _softmax, _zero_pay
from .txpool import BidDistribution, Mempool, resolve_rng, sample_mempool

CSV_HEADER = "sweep_value,normalized_revenue,revenue_stderr,zero_fee_fraction,zff_stderr,cof,zfi"


def _check_sweep_values(sweep_values) -> None:
    if not sweep_values:
        raise ConfigError("sweep_values must be non-empty")
    if any(not math.isfinite(v) for v in sweep_values):
        raise ConfigError("sweep_values must be finite")


@dataclass(frozen=True)
class ExperimentConfig:
    mechanism: MechanismSpec
    n: int = CONFIG_KEYS["n"].default
    capacity: float = CONFIG_KEYS["capacity"].default
    bid_dist: BidDistribution = CONFIG_KEYS["bids"].default
    size_dist: BidDistribution = CONFIG_KEYS["sizes"].default
    sweep_param: str = CONFIG_KEYS["sweep_param"].default
    sweep_values: Tuple[float, ...] = CONFIG_KEYS["sweep_values"].default
    runs: int = CONFIG_KEYS["runs"].default
    seed: int = CONFIG_KEYS["seed"].default
    output_path: str = CONFIG_KEYS["out"].default
    size_ratio: float = CONFIG_KEYS["size_ratio"].default
    stratified_toss: bool = CONFIG_KEYS["stratified_toss"].default

    def __post_init__(self) -> None:
        _check_sweep_values(self.sweep_values)
        try:
            _check_int("runs", self.runs, 1)
            _check_int("n", self.n, 1)
            _check_int("seed", self.seed)
        except ParameterError as exc:
            raise ConfigError(str(exc)) from None
        if not 0 < self.capacity < math.inf:
            raise ConfigError(f"capacity must be positive and finite, got {self.capacity}")
        if not math.isfinite(self.size_ratio):
            raise ConfigError(f"size_ratio must be finite, got {self.size_ratio}")
        if self.sweep_param not in ("phi", "gamma", "size_ratio"):
            raise ConfigError(f"unknown sweep_param {self.sweep_param!r}")
        # the grid of the sweep this config runs, checked before any run
        kind = self.mechanism.allocation
        if kind is AllocationKind.RTFM and self.sweep_param == "phi":
            for phi in self.sweep_values:
                if not 0 <= phi <= 1:
                    raise ConfigError(f"phi sweep values must lie in [0, 1], got {phi}")
        elif kind is AllocationKind.SOFTMAX and self.sweep_param != "phi":
            for value in self.sweep_values:
                gamma, ratio = self._softmax_cell(value)
                if not gamma or gamma <= 0:
                    raise ConfigError("softmax sweep needs a positive gamma")
                if ratio <= 0:
                    raise ConfigError("size ratio must be positive")

    def _softmax_cell(self, value: float) -> Tuple[float, float]:
        """The temperature and size ratio of a softmax sweep's cell at `value`."""
        gamma = value if self.sweep_param == "gamma" else self.mechanism.gamma
        ratio = value if self.sweep_param == "size_ratio" else self.size_ratio
        return gamma, ratio


@dataclass(frozen=True)
class SweepRow:
    sweep_value: float
    normalized_miner_revenue: float
    revenue_stderr: float
    zero_fee_fraction: float
    zff_stderr: float
    empirical_cof: float
    zfi: float
    zero_payment_fraction: float = 0.0


def _mean_se(values) -> Tuple[float, float]:
    values = np.asarray(values, dtype=float)
    mean = float(values.mean())
    se = float(values.std(ddof=1) / math.sqrt(len(values))) if len(values) > 1 else 0.0
    return mean, se


def _block_stats(m: Mempool, blocks: _Blocks) -> List[Tuple[float, float, float]]:
    """Of each block of a fake-free slice: zero-bid inclusions over the pool size, the
    zero-bid share of the block's size, and zero-payment inclusions over the pool size.
    A block whose toss was 0 pays nothing for any row it takes, so it is not priced."""
    c, n, stats = m.columns, len(m), []
    payments = [None] * len(blocks.rows) if blocks.toss == 0 else blocks.payment
    for rows, taken, pay, total in zip(blocks.rows, blocks.taken, payments,
                                       blocks.total.tolist()):
        rows = rows[taken]
        zero = np.sort(rows[c.bids[rows] == 0])  # pool order
        zero_size = sum(c.sizes[zero].tolist())
        free = len(rows) if pay is None else np.count_nonzero(pay[taken] == 0)
        stats.append((len(zero) / n, zero_size / total if total > 0 else 0.0, free / n))
    return stats


def _revenue(m: Mempool, rows: np.ndarray) -> float:
    """:func:`allocation_value` of a fake-free selection given as rows in ascending id."""
    c = m.columns
    return sum((c.sizes[rows] * c.bids[rows]).tolist())


def _greedy_value(m: Mempool, capacity) -> float:
    """``allocation_value(m, optimal_allocate(m, capacity, exact=False))`` of a fake-free pool."""
    return _revenue(m, _optimal_rows(m.columns, capacity, exact=False)[0])


def run_rtfm_sweep(cfg: ExperimentConfig) -> List[SweepRow]:
    """Sweep the branch bias of the randomized two-set mechanism.

    Each run draws a fresh mempool, walks the zero-pay branch on one
    permutation from the run's seed and takes the paying branch's knapsack
    block, which needs no draw, each a slice of one trial; a grid value mixes
    the per-run branch outcomes by its toss pattern.  Normalized revenue is
    miner utility over the exact optimum for that run's pool; the zero-fee
    fraction counts confirmed zero-bid transactions against the mempool size.
    """
    if cfg.mechanism.allocation is not AllocationKind.RTFM:
        raise ConfigError("run_rtfm_sweep needs a randomized two-set mechanism")
    if cfg.sweep_param != "phi":
        raise ConfigError("run_rtfm_sweep sweeps phi")

    runs = cfg.runs
    # normalized revenue, zero-fee fraction, zero-fee inclusion and zero-payment
    # fraction, by branch (0 = zero-pay uniform set, 1 = optimal set) and run
    stats = np.empty((4, 2, runs))
    for r in range(runs):
        rng = resolve_rng([cfg.seed, r])
        start = rng.bit_generator.state
        m = sample_mempool(cfg.n, cfg.bid_dist, cfg.size_dist, seed=rng)
        arm = _arm(cfg.mechanism, m, cfg.capacity)
        rng.bit_generator.state = start
        # the toss is pinned, so the run draws only the zero-pay branch's permutation
        blocks = (_zero_pay(arm, _draw_trial(rng, PERMUTATION, len(m))), _paying(arm, toss=1))
        # the paying branch's knapsack is the greedy optimum unless it is exact (a
        # small pool) or weighs bids less the posted fee
        if len(m) > EXHAUSTIVE_LIMIT and cfg.mechanism.payment is not PaymentKind.POSTED_PRICE:
            opt_value = _revenue(m, blocks[1].rows[0])
        else:
            opt_value = _greedy_value(m, cfg.capacity)
        for branch, block in enumerate(blocks):
            norm = block.miner_utility.item(0) / opt_value if opt_value > 0 else 0.0
            stats[:, branch, r] = (norm, *_block_stats(m, block)[0])

    toss_rng = np.random.default_rng([cfg.seed, 7])
    rows: List[SweepRow] = []
    for phi in cfg.sweep_values:
        if cfg.stratified_toss:
            is_rand = np.array([(r + 0.5) / runs < phi for r in range(runs)])
        else:
            is_rand = toss_rng.random(runs) < phi
        norm, zff, zfi, zpf = stats[:, np.where(is_rand, 0, 1), np.arange(runs)]
        norm_mean, norm_se = _mean_se(norm)
        zff_mean, zff_se = _mean_se(zff)
        cof = 1.0 / norm_mean if norm_mean > 0 else math.inf
        rows.append(SweepRow(phi, norm_mean, norm_se, zff_mean, zff_se, cof,
                             float(zfi.mean()), float(zpf.mean())))
    return rows


def run_stfm_sweep(cfg: ExperimentConfig) -> List[SweepRow]:
    """Sweep temperature (or pool-to-block size ratio) for the softmax rule.

    Each run draws its pool, takes its total size, solves the greedy
    comparator once per distinct size ratio, and draws its Gumbel noise once
    from its ``[seed, r, 1]`` generator, one value per candidate (none when a
    posted fee leaves no candidate).  The candidates are the same in every
    cell, since a cell varies only γ or the capacity, so once per distinct
    size ratio the softmax step walks that one row at every γ of the ratio's
    cells, as the rows of one slice; nothing is redrawn or restored between
    cells.  Capacity is total pool size over the
    ratio, and the empirical cost of fairness is the greedy revenue over the
    softmax revenue.  The zero-fee inclusion measure is the share of realized
    block size occupied by zero-bid transactions.
    """
    if cfg.mechanism.allocation is not AllocationKind.SOFTMAX:
        raise ConfigError("run_stfm_sweep needs a softmax mechanism")
    if cfg.sweep_param not in ("gamma", "size_ratio"):
        raise ConfigError("run_stfm_sweep sweeps gamma or size_ratio")

    cells: Dict[float, List[Tuple[int, float]]] = {}  # size ratio -> each cell and its gamma
    for i, (gamma, ratio) in enumerate(map(cfg._softmax_cell, cfg.sweep_values)):
        cells.setdefault(ratio, []).append((i, gamma))
    # cost of fairness, normalized revenue, zero-fee fraction, zero-fee inclusion
    # and zero-payment fraction, by cell and run
    stats = np.empty((5, len(cfg.sweep_values), cfg.runs))
    for r in range(cfg.runs):
        m = sample_mempool(cfg.n, cfg.bid_dist, cfg.size_dist, seed=[cfg.seed, r])
        pool_size = m.total_size()
        rng = resolve_rng([cfg.seed, r, 1])
        gumbel = None
        for ratio, at_ratio in cells.items():
            arm = _arm(cfg.mechanism, m, pool_size / ratio)
            indices, gammas = zip(*at_ratio)
            kind, width, step = _softmax(arm, gammas)
            if gumbel is None:  # the candidates, and so the noise, are the same at every ratio
                gumbel = _draw_trial(rng, kind, width)
            greedy_value = _greedy_value(m, arm.capacity)
            blocks = step(gumbel)
            util = blocks.miner_utility
            cof = np.divide(greedy_value, util, out=np.full(len(util), math.inf), where=util > 0)
            norm = util / greedy_value if greedy_value > 0 else np.zeros(len(util))
            stats[:, list(indices), r] = (cof, norm, *zip(*_block_stats(m, blocks)))

    rows: List[SweepRow] = []
    for i, value in enumerate(cfg.sweep_values):
        cofs, norms, zffs, zfis, zpfs = stats[:, i]
        norm_mean, norm_se = _mean_se(norms)
        zff_mean, zff_se = _mean_se(zffs)
        rows.append(SweepRow(value, norm_mean, norm_se, zff_mean, zff_se,
                             float(cofs.mean()), float(zfis.mean()), float(zpfs.mean())))
    return rows


def emit_csv(rows: Sequence[SweepRow], path: str) -> None:
    """Write the sweep table; identical config and seed give identical bytes."""
    try:
        with open(path, "w", newline="") as fh:
            fh.write(CSV_HEADER + "\n")
            for row in rows:  # every field but the zero-payment fraction
                fh.write(",".join(format(v, ".9g") for v in astuple(row)[:-1]) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write sweep CSV to {path}: {exc}") from exc


def plot_data_table(rows: Sequence[SweepRow]) -> str:
    """Gnuplot-friendly whitespace table, including the zero-payment column."""
    lines = ["# sweep_value normalized_revenue revenue_stderr zero_fee_fraction "
             "zff_stderr cof zfi zero_payment_fraction"]
    lines += [" ".join(format(v, ".9g") for v in astuple(row)) for row in rows]
    return "\n".join(lines) + "\n"


# config keys whose ExperimentConfig attribute has another name
_ATTRIBUTES = {"bids": "bid_dist", "sizes": "size_dist", "out": "output_path"}


def experiment_from_fields(fields: Dict[str, object]) -> ExperimentConfig:
    """ExperimentConfig from parsed config fields; omitted keys keep their defaults."""
    sweep_values = config_value(fields, "sweep_values")
    # the grid is checked before it seeds the mechanism, so its errors name sweep_values
    _check_sweep_values(sweep_values)
    mech_fields = dict(fields)
    # when the swept parameter defines the mechanism, seed it from the grid
    swept = {AllocationKind.RTFM: "phi", AllocationKind.SOFTMAX: "gamma"}.get(
        fields.get("allocation"))
    if swept == config_value(fields, "sweep_param"):
        mech_fields.setdefault(swept, sweep_values[0])
    settings = {_ATTRIBUTES.get(k, k): v for k, v in fields.items()
                if CONFIG_KEYS[k].section in (POOL, SWEEP)}
    return ExperimentConfig(spec_from_fields(mech_fields), **settings)
