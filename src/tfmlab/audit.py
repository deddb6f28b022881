"""Fairness and incentive auditors plus closed-form cost calculators.

Verdict policy: analytic certificates decide a property wherever the
allocation rule admits one (they can prove exact equalities that Monte Carlo
cannot); otherwise two compared arms share common random numbers and a
difference must clear two pooled standard errors, with anything inside the
margin reported as inconclusive.  Every violated verdict carries a witness
that can be replayed through :func:`tfmlab.mech.run_mechanism`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from itertools import chain, combinations_with_replacement
from operator import attrgetter
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .alloc import (
    _running,
    _softmax_rows,
    allocation_value,
    optimal_allocate,
    stfm_first_draw_distribution,
)
from .errors import DomainError, ParameterError, SolverLimitError
from .errors import _check_capacity, _check_gamma, _check_int
from .experiments import _mean_se
from .mech import AllocationKind, MechanismSpec, PaymentKind, _Arm, _arm, _prepare, run_mechanism
from ._streams import _TrialStreams
from ._trials import _softmax_trials
from .txpool import Mempool, Transaction, resolve_rng, zero_fee_subset

_TOL = 1e-9


class Verdict(Enum):
    SATISFIED = "satisfied"
    VIOLATED = "violated"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class PropertyReport:
    property_name: str
    verdict: Verdict
    witness: Optional[dict]
    trials: int
    confidence_note: str

    def to_text(self) -> str:
        lines = [
            f"property={self.property_name}",
            f"verdict={self.verdict.value}",
            f"trials={self.trials}",
            f"note={self.confidence_note}",
        ]
        if self.witness is not None:
            for key in sorted(self.witness):
                lines.append(f"witness.{key}={self.witness[key]}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class CofReport:
    """Ratio of the unconstrained-optimal miner utility to the mechanism's."""

    opt_utility: float
    mech_utility_mean: float
    cof: float
    closed_form: Optional[float] = None
    cov: Optional[float] = None


def _replay(run, streams: _TrialStreams) -> Tuple[Iterator, bool]:
    """Results of ``run(rng)`` over up to ``streams.trials`` runs, each made as it is
    read, and whether the rule drew.

    Run i gets ``streams(i)``, trial i's generator, as its only source of
    randomness.  So when run 0 leaves its generator's state unchanged, the
    rule drew nothing, every seed gives the same outcome, and the replay
    stops after that one run.
    """
    rng = streams(0)
    state = rng.bit_generator.state
    first = run(rng)
    if rng.bit_generator.state == state:
        return iter((first,)), False
    return chain((first,), (run(streams(i)) for i in range(1, streams.trials))), True


def _step_arms(arms: Iterable[_Arm], streams: _TrialStreams, read,
               read_all) -> List[list]:
    """For each arm, the values `read` takes of the block of each trial it runs, and
    whether its rule drew.

    A softmax arm with candidates steps all its trials at once
    (:func:`._trials._softmax_trials`), into an array of `read_all` of each
    slice's blocks.  The softmax arms of the call share each slice of
    ``streams.gumbel_slices`` at the widest of them: all step it before the
    next is drawn, and an arm over k candidates reads its first k columns, its
    trials' ``gumbel(size=k)`` draws, since the Gumbel-top-k key takes the
    same noise at every width.  Every other arm replays through :func:`_replay`
    as it comes, so that only the softmax arms are held.
    """
    arms_values: List[list] = []  # [values, whether the rule drew] of each arm
    batched = []  # the place, step and width of each softmax arm with candidates
    for arm in arms:
        step = _softmax_trials(arm)
        if step is None:
            one = _prepare(arm)
            runs, drew = _replay(lambda rng: read(one(rng)), streams)
            arms_values.append([list(runs), drew])
        else:
            batched.append((len(arms_values), step, len(arm.kept)))
            arms_values.append([(), True])
    if batched:
        done = 0  # trials stepped
        for gumbel in streams.gumbel_slices(max(width for _, _, width in batched)):
            for k, step, _ in batched:
                got = read_all(step(gumbel))
                if not done:  # every slice of an arm reads values of one type
                    arms_values[k][0] = np.empty(streams.trials, got.dtype)
                arms_values[k][0][done:done + len(got)] = got
            done += len(gumbel)
    return arms_values


_miner_utility = attrgetter("miner_utility")  # of one block, or of a slice's blocks


# ---------------------------------------------------------------------------
# Zero-fee inclusion


def estimate_zti(spec: MechanismSpec, m: Mempool, capacity, trials: int, seed: int) -> PropertyReport:
    """Can a zero-bid transaction ever enter the block?

    Analytic zero-probability certificates (posted-price filtering, an
    oversized transaction against the reserved section) yield Violated
    outright, and so does one run of a rule that draws nothing and leaves a
    zero bid out; a rule that draws is replayed `trials` times, and Satisfied
    requires every feasible zero-bid transaction to appear at least once.
    """
    streams = _TrialStreams(seed, trials)
    _check_capacity(capacity)
    zeros = zero_fee_subset(m)
    if not zeros:
        raise ParameterError("mempool has no zero-bid transaction to audit")

    posted_filtered = (AllocationKind.OPTIMAL, AllocationKind.UNIFORM, AllocationKind.SOFTMAX)
    if spec.payment is PaymentKind.POSTED_PRICE and spec.base_fee > 0 \
            and spec.allocation in posted_filtered:
        return PropertyReport(
            "zti", Verdict.VIOLATED,
            {"certificate": "zero bids sit below the posted base fee and are never candidates",
             "tx_ids": [tx.id for tx in zeros]},
            0, "analytic certificate",
        )
    if spec.allocation is AllocationKind.SPLIT_BLOCK:
        reserved_cap = spec.split.one_minus_alpha_capacity(capacity)
        oversized = [tx.id for tx in zeros if tx.size > reserved_cap]
        if oversized:
            return PropertyReport(
                "zti", Verdict.VIOLATED,
                {"certificate": "zero-bid transaction larger than the reserved section",
                 "tx_ids": oversized},
                0, "analytic certificate",
            )

    hits = np.zeros(len(m), dtype=np.intp)  # the runs that included each row

    def tally(rows) -> int:  # one run's block
        hits[rows] += 1
        return 1

    def tally_all(blocks) -> np.ndarray:  # a slice of runs, a 1 each
        np.add(hits, blocks.included.sum(axis=0), out=hits)
        return np.ones(len(blocks.total), int)

    if spec.allocation is AllocationKind.UNIFORM:
        # one run_mechanism a trial: bench/test_bench.py counts them and reads their fills
        tallies, drew = _replay(lambda rng: tally(m.rows_of(
            run_mechanism(spec, m, capacity, seed=rng).allocation.selected)), streams)
        tallies = list(tallies)
    else:
        (tallies, drew), = _step_arms([_arm(spec, m, capacity)], streams,
                                      lambda block: tally(block.rows), tally_all)
    runs = len(tallies)
    zero_hits = hits[m.rows_of(tx.id for tx in zeros)].tolist()
    excluded = [tx.id for tx, c in zip(zeros, zero_hits) if not c]
    if excluded and not drew:
        return PropertyReport(
            "zti", Verdict.VIOLATED,
            {"certificate": "the rule draws no randomness, so every seed leaves these zero bids "
                            "out of the block",
             "tx_ids": excluded},
            1, "certificate over one run that drew no randomness",
        )
    counts = {tx.id: c for tx, c in zip(zeros, zero_hits) if tx.size <= capacity}
    missing = [tid for tid, c in counts.items() if c == 0]
    if not missing:
        return PropertyReport(
            "zti", Verdict.SATISFIED, None, runs,
            f"every feasible zero-bid transaction appeared at least once in {runs} runs",
        )
    return PropertyReport(
        "zti", Verdict.INCONCLUSIVE,
        {"never_included": missing, "frequencies": {t: c / runs for t, c in counts.items()}},
        runs,
        "some zero-bid transactions never appeared; no analytic zero-probability certificate",
    )


# ---------------------------------------------------------------------------
# Monotonicity


_KNAPSACK_MONOTONE = (Verdict.SATISFIED, "knapsack objective weight grows with the bid, so a "
                      "higher bid only ever enters (never leaves) the revenue-maximizing set")
# each allocation rule's analytic monotonicity verdict and its certificate
_MONOTONICITY_CERTIFICATES = {
    AllocationKind.UNIFORM: (Verdict.VIOLATED, "uniform sampling gives every transaction the same "
                             "inclusion probability at any bid, so raising a bid cannot raise it"),
    AllocationKind.SOFTMAX: (Verdict.SATISFIED, "softmax weight exp(bid/gamma) strictly increases "
                             "with the bid at every sampling stage"),
    AllocationKind.RTFM: (Verdict.SATISFIED, "uniform branch is bid-independent and the optimal "
                          "branch's inclusion is non-decreasing in the bid"),
    AllocationKind.OPTIMAL: _KNAPSACK_MONOTONE,
    AllocationKind.SPLIT_BLOCK: _KNAPSACK_MONOTONE,
}


def estimate_monotonicity(
    spec: MechanismSpec,
    m: Mempool,
    target_tx: int,
    epsilons: Sequence[float],
    trials: int,
    seed: int,
    capacity,
    use_certificates: bool = True,
) -> PropertyReport:
    """Does the target's inclusion probability rise with its bid?

    With certificates disabled, inclusion is estimated at the current bid and
    at ``bid + epsilon`` for every epsilon under common random numbers; each
    comparison must clear two pooled standard errors to count as a move.
    """
    if target_tx not in m:
        raise ParameterError(f"target transaction {target_tx} not in mempool")
    streams = _TrialStreams(seed, trials)
    if not epsilons or not all(0 < e < math.inf for e in epsilons):
        raise ParameterError(f"epsilons must be non-empty, positive and finite, got {list(epsilons)}")
    _check_capacity(capacity)

    if use_certificates:
        verdict, certificate = _MONOTONICITY_CERTIFICATES[spec.allocation]
        return PropertyReport("monotonicity", verdict, {"certificate": certificate}, 0,
                              "analytic certificate")

    base_bid = m.get(target_tx).bid
    target_row = int(m.rows_of((target_tx,))[0])
    arms = [_arm(spec, m.with_bid(target_tx, bid), capacity)
            for bid in [base_bid] + [base_bid + eps for eps in epsilons]]
    rates = []  # inclusion rate, its standard error and the runs, at each bid
    for hits, _ in _step_arms(arms, streams, lambda block: target_row in block.rows.tolist(),
                              lambda blocks: blocks.included[:, target_row]):
        p = np.count_nonzero(hits) / len(hits)
        rates.append((p, math.sqrt(p * (1 - p) / len(hits)), len(hits)))

    (p0, se0, runs), *raised = rates
    increases = []
    for eps, (p1, se1, runs1) in zip(epsilons, raised):
        runs = max(runs, runs1)
        margin = 2 * math.sqrt(se0 ** 2 + se1 ** 2)
        if p1 - p0 < -margin:
            return PropertyReport(
                "monotonicity", Verdict.VIOLATED,
                {"epsilon": eps, "rate_at_bid": p0, "rate_at_bid_plus_eps": p1},
                runs, "estimated inclusion dropped by more than two pooled standard errors",
            )
        increases.append(p1 - p0 > margin)
    if all(increases):
        return PropertyReport("monotonicity", Verdict.SATISFIED, None, runs,
                              "every epsilon raised inclusion by more than two pooled standard errors")
    return PropertyReport("monotonicity", Verdict.INCONCLUSIVE, None, runs,
                          "differences inside the two-standard-error margin")


# ---------------------------------------------------------------------------
# User incentive compatibility


def check_uic(
    spec: MechanismSpec,
    m: Mempool,
    capacity,
    user: int,
    bid_grid: Sequence[float],
    trials: int,
    seed: int,
) -> PropertyReport:
    """Grid search for a profitable misreport of the user's valuation."""
    if user not in m:
        raise ParameterError(f"user transaction {user} not in mempool")
    theta = m.get(user).valuation
    if not any(b == theta for b in bid_grid):
        raise ParameterError("bid grid must contain the truthful bid (the valuation)")
    streams = _TrialStreams(seed, trials)
    row = m.rows_of((user,))[0]

    means: Dict[float, float] = {}
    ses: Dict[float, float] = {}
    n_runs = 0
    arms = [_arm(spec, m.with_bid(user, b), capacity) for b in bid_grid]
    for b, (utils, _) in zip(bid_grid, _step_arms(arms, streams,
                                                   lambda block: block.user_utilities()[user],
                                                   lambda blocks: blocks.user_utility[:, row])):
        means[b], ses[b] = _mean_se(utils)
        n_runs = max(n_runs, len(utils))

    truthful = means[theta]
    best_bid = max(bid_grid, key=lambda b: means[b])
    gain = means[best_bid] - truthful
    margin = 2 * math.sqrt(ses[best_bid] ** 2 + ses[theta] ** 2) + _TOL
    if gain > margin:
        return PropertyReport(
            "uic", Verdict.VIOLATED,
            {"deviating_bid": best_bid, "expected_gain": gain,
             "truthful_utility": truthful, "deviating_utility": means[best_bid]},
            n_runs, "a grid bid beats truthful bidding beyond the margin",
        )
    return PropertyReport(
        "uic", Verdict.SATISFIED, None, n_runs,
        "no grid bid beats truthful bidding beyond the margin (grid-relative verdict)",
    )


# ---------------------------------------------------------------------------
# Miner incentive compatibility


def _named_overrides(spec: MechanismSpec) -> List[Tuple[str, MechanismSpec]]:
    """Rule-level deviations the miner controls: a name and the spec it plays."""
    if spec.allocation is AllocationKind.SOFTMAX:
        return [("greedy_instead_of_sampling",
                 replace(spec, allocation=AllocationKind.OPTIMAL, gamma=None))]
    if spec.allocation is AllocationKind.SPLIT_BLOCK:
        return [("leave_reserved_section_empty",
                 replace(spec, split=replace(spec.split, demote=False)))]
    return []


def search_mic_deviation(
    spec: MechanismSpec,
    m: Mempool,
    capacity,
    fake_budget: int,
    fake_bid_grid: Sequence[float],
    seed: int,
    trials: int = 2000,
) -> PropertyReport:
    """Exhaustively search bounded fake-transaction and rule deviations.

    Every multiset of up to `fake_budget` unit-size fakes over the bid grid (the
    split-block posted fee is added to the grid automatically) is played
    against the honest rule, alongside the named rule-level deviations the
    mechanism exposes.  A deviation must beat the honest expected utility
    beyond the statistical margin to produce a violation; a satisfied verdict
    is only ever relative to these bounds.  The report's `trials` is the most
    runs the honest rule or any candidate took.
    """
    if _check_int("fake_budget", fake_budget) > 4 or len(fake_bid_grid) > 8:
        raise SolverLimitError("search bounded to fake_budget <= 4 and a grid of <= 8 bids")
    streams = _TrialStreams(seed, trials)
    grid = list(fake_bid_grid)
    if spec.allocation is AllocationKind.SPLIT_BLOCK and spec.split.delta not in grid:
        grid.append(spec.split.delta)

    next_id = max((tx.id for tx in m), default=-1) + 1
    fake_sets: List[Tuple[dict, Sequence[Transaction]]] = [({}, ())]
    for k in range(1, fake_budget + 1):
        for combo in combinations_with_replacement(sorted(set(grid)), k):
            fakes = tuple(
                Transaction(next_id + j, 1.0, b, b, fake=True) for j, b in enumerate(combo)
            )
            fake_sets.append(({"fake_bids": list(combo)}, fakes))
    # (witness, spec, fakes); the honest rule itself is not a deviation
    candidates = [(desc, spec, fakes) for desc, fakes in fake_sets[1:]]
    for name, run_spec in _named_overrides(spec):
        candidates += [(dict(desc, override=name), run_spec, fakes) for desc, fakes in fake_sets]

    arms = (_arm(run_spec, m, capacity, fakes)
            for _, run_spec, fakes in [({}, spec, ())] + candidates)
    # each arm's mean miner utility, its standard error and the runs made
    if spec.allocation is AllocationKind.RTFM:  # exact: the zero-pay branch earns nothing
        utilities = [((1 - spec.phi) * _prepare(arm)(streams(0), 1).miner_utility, 0.0, 1)
                     for arm in arms]
    else:
        utilities = [(*_mean_se(utils), len(utils))
                     for utils, _ in _step_arms(arms, streams, _miner_utility, _miner_utility)]
    (honest, honest_se, n_runs), *played = utilities

    best = (honest, 0.0, None)
    for (desc, _, _), (value, se, runs) in zip(candidates, played):
        n_runs = max(n_runs, runs)
        if value > best[0]:
            best = (value, se, desc)

    gain = best[0] - honest
    margin = 2 * math.sqrt(best[1] ** 2 + honest_se ** 2) + _TOL
    if gain > margin:
        witness = dict(best[2])
        witness.update({"expected_utility": best[0], "honest_utility": honest,
                        "expected_gain": gain})
        return PropertyReport("mic", Verdict.VIOLATED, witness, n_runs,
                              "a bounded deviation beats the honest rule beyond the margin")
    return PropertyReport(
        "mic", Verdict.SATISFIED, None, n_runs,
        f"no deviation within fake_budget={fake_budget} and the bid grid beats honesty "
        "(verdict relative to the search bounds)",
    )


# ---------------------------------------------------------------------------
# Cost of fairness and coefficient of variation


def empirical_cof(
    spec: MechanismSpec,
    m: Mempool,
    capacity,
    trials: int,
    seed: int,
) -> CofReport:
    """Monte-Carlo cost of fairness against the exact revenue optimum.

    For the randomized two-set rule the branch draws are stratified across
    trials (exactly proportional branch counts), which estimates the same
    mean with far less noise than independent tosses.
    """
    streams = _TrialStreams(seed, trials)
    opt = allocation_value(m, optimal_allocate(m, capacity))
    if not opt > 0:
        raise DomainError("cost of fairness undefined: the optimal revenue is zero")

    if spec.allocation is AllocationKind.RTFM:
        # the zero-pay branch earns nothing and no seed changes the paying branch
        paying = _prepare(_arm(spec, m, capacity))(streams(0), 1).miner_utility
        utils = [0.0 if (i + 0.5) / trials < spec.phi else paying for i in range(trials)]
    else:
        (utils, _), = _step_arms([_arm(spec, m, capacity)], streams, _miner_utility,
                                 _miner_utility)
    utils = np.asarray(utils, dtype=float)
    mean = float(utils.mean())
    cov = float(utils.std(ddof=1) / mean) if len(utils) > 1 and mean > 0 else None
    cof = opt / mean if mean > 0 else math.inf

    closed: Optional[float] = None
    sizes = m.sizes()
    equal_sizes = len(m) > 0 and bool(np.all(sizes == sizes[0]))
    if spec.allocation is AllocationKind.RTFM and spec.phi < 1:
        closed = 1.0 / (1.0 - spec.phi)
    elif spec.allocation is AllocationKind.SPLIT_BLOCK and spec.split.delta == 0 and equal_sizes:
        closed = 1.0 / spec.split.alpha
    elif spec.allocation is AllocationKind.SOFTMAX and equal_sizes:
        c = capacity // sizes.item(0)  # the bound holds for blocks of 1 to n rows
        if 1 <= c <= len(m):
            closed = stfm_cof_bound(len(m), int(c), float(m.bids().max()), spec.gamma)
    return CofReport(opt, mean, cof, closed, cov)


def stfm_cof_bound(n: int, c: int, b: float, gamma: float) -> float:
    """Closed-form worst-case revenue ratio for equal-size softmax blocks.

    Valid for pools of `n` equal-size transactions of which the block holds
    `c`; tends to ``n/c + 1`` as the concentrated bid `b` grows.
    """
    if c == 0:
        raise DomainError("block must hold at least one transaction")
    if _check_int("c", c, 1) > _check_int("n", n, 1):
        raise ParameterError(f"need 1 <= c <= n, got c={c}, n={n}")
    if not b >= 0:
        raise ParameterError(f"bid must be non-negative, got {b}")
    _check_gamma(gamma)
    return n / c + 1.0 - math.exp(-b / gamma)


def stfm_worstcase_instance(n: int, c: int, b: float) -> Mempool:
    """Equal-size pool with `c` transactions at bid `b` and the rest at zero."""
    if _check_int("c", c, 1) > _check_int("n", n, 1):
        raise ParameterError(f"need 1 <= c <= n, got c={c}, n={n}")
    return Mempool([Transaction(i, 1.0, b if i < c else 0.0, b if i < c else 0.0)
                    for i in range(n)])


def stfm_worstcase_draw_ratio(n: int, c: int, b: float, gamma: float, trials: int,
                              seed: int) -> CofReport:
    """Per-draw revenue ratio on the concentrated-bid instance.

    Samples `trials` independent single softmax draws from the pool built by
    :func:`stfm_worstcase_instance` and returns the optimal block revenue
    ``c * b`` over the mean fee one draw collects -- the quantity the
    closed-form bound of :func:`stfm_cof_bound` models.
    """
    _check_int("trials", trials, 1)
    m = stfm_worstcase_instance(n, c, b)
    probs = stfm_first_draw_distribution(m, gamma)
    p = np.array([probs[tx.id] for tx in m])
    bids = m.bids()
    rng = resolve_rng([seed])
    draws = rng.choice(len(p), size=trials, p=p)
    per_draw = bids[draws]
    mean_draw = float(per_draw.mean())
    opt = c * b
    cof = opt / mean_draw if mean_draw > 0 else math.inf
    return CofReport(opt, mean_draw, cof, stfm_cof_bound(n, c, b, gamma))


def rtfm_cov_closed_form(phi: float) -> float:
    """Closed-form coefficient of variation ``sqrt((1-phi)/phi)``.

    This is the CoV of a two-point revenue mixture whose paying branch
    occurs with probability `phi`; the implemented toss confirms the paying
    (optimal) set with probability ``1 - phi``, so realized utilities exhibit
    this CoV at the complementary bias: sample CoV at phi equals
    ``rtfm_cov_closed_form(1 - phi)``.
    """
    if not 0 < phi < 1:
        raise DomainError(f"phi must lie strictly inside (0, 1), got {phi}")
    return math.sqrt((1.0 - phi) / phi)


# ---------------------------------------------------------------------------
# Temperature tuning


def tune_gamma(
    m: Mempool,
    capacity,
    alpha_target: float,
    phi_ratio: float,
    gamma_lo: float,
    gamma_hi: float,
    trials: int,
    seed: int,
) -> float:
    """Smallest temperature whose optimal-set odds are acceptably low.

    Estimates, by common-random-number Monte Carlo, the probability that the
    softmax sampler reproduces the exact revenue-optimal set (pr_cof) and the
    probability that zero-bid transactions occupy at least `alpha_target` of
    the realized block (pr_zf), then bisects for the smallest gamma in
    ``[gamma_lo, gamma_hi]`` with ``pr_cof / pr_zf <= phi_ratio``, to a
    relative tolerance of 1e-3.
    """
    if not 0 <= alpha_target <= 1:
        raise ParameterError("alpha_target must lie in [0, 1]")
    if not 0 < gamma_lo < gamma_hi < math.inf:
        raise ParameterError("need 0 < gamma_lo < gamma_hi < inf")
    if math.isnan(phi_ratio):
        raise ParameterError("phi_ratio must be a number, got nan")
    streams = _TrialStreams(seed, trials)
    if math.isinf(phi_ratio):
        return gamma_lo

    c = m.columns
    opt = np.isin(np.arange(len(m)), m.rows_of(optimal_allocate(m, capacity).selected))
    zero_sizes = np.where(c.bids == 0, c.sizes, 0)  # in the size column's own number type
    # softmax sampling as stfm_allocate does it, every trial at once; the Gumbel
    # noise does not depend on gamma, so every gamma walks the same draws, which
    # the bisection keeps for its whole length
    walk_sizes = c.sizes.astype(float, copy=False)
    bids = c.bids.astype(float, copy=False)
    slices = list(streams.gumbel_slices(len(m)))

    def ratio(gamma: float) -> float:
        """pr_cof / pr_zf at `gamma`, infinite where pr_zf is 0."""
        hits_cof = hits_zf = 0
        for gumbel in slices:
            orders, kept, total = _softmax_rows(walk_sizes, bids / gamma, gumbel, capacity)
            hits_cof += np.count_nonzero((kept == opt[orders]).all(axis=1))
            # the zero-bid rows' sizes summed in block order, as a sum() over the block
            zf = _running(np.where(kept, zero_sizes[orders], 0))[:, -1]
            filled = total > 0
            hits_zf += np.count_nonzero(zf[filled] / total[filled] >= alpha_target)
            if alpha_target == 0:
                hits_zf += np.count_nonzero(~filled)
        return (int(hits_cof) / trials) / (int(hits_zf) / trials) if hits_zf else math.inf

    if ratio(gamma_lo) <= phi_ratio:
        return gamma_lo
    r_hi = ratio(gamma_hi)
    if r_hi > phi_ratio:
        if r_hi == math.inf:
            raise DomainError("zero-fee block share never reaches the target on this interval")
        raise DomainError("no gamma on the interval meets the requested ratio")
    lo, hi = gamma_lo, gamma_hi
    while hi / lo > 1 + 1e-3:
        mid = math.sqrt(lo * hi)
        if ratio(mid) <= phi_ratio:
            hi = mid
        else:
            lo = mid
    return hi
