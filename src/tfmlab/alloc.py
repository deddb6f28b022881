"""Block allocation rules.

Every rule returns an :class:`AllocationResult` that respects the feasibility
constraint ``sum(size) <= capacity``.  Randomized rules take an explicit seed
(or generator) and are pure functions of their inputs.

Sampling notes:

* ``uniform_allocate`` draws a random permutation and walks it, keeping every
  transaction that still fits.  By exchangeability this is identical in
  distribution to repeatedly picking a uniformly random transaction among the
  ones that still fit.
* ``stfm_allocate`` orders transactions by perturbed score ``bid/gamma +
  Gumbel`` and walks that order the same way.  The Gumbel-key order realizes
  sequential softmax sampling without replacement, and conditioning each pick
  on "still fits" preserves that equivalence, so the sampler matches the
  re-normalize-after-each-draw procedure while staying O(n log n).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Sequence

import numpy as np

from . import chain
from .errors import DomainError, ParameterError, SolverLimitError
from .txpool import Mempool, SeedLike, Transaction, resolve_rng

EXHAUSTIVE_LIMIT = 24

SECTION_MAIN = "main"
SECTION_ALPHA = "alpha"
SECTION_ONE_MINUS_ALPHA = "one_minus_alpha"
SECTION_RAND = "rand"
SECTION_OPT = "opt"


@dataclass(frozen=True)
class AllocationResult:
    """A feasible selection of transactions.

    `selected` preserves inclusion order for sampled rules and ascending id
    for deterministic ones.  `sections` maps each selected id to the block
    section it landed in.
    """

    selected: tuple
    total_size: float
    capacity: float
    sections: Mapping[int, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if len(set(self.selected)) != len(self.selected):
            raise ParameterError("allocation selected a transaction twice")
        if self.total_size > self.capacity:
            raise ParameterError(
                f"infeasible allocation: total size {self.total_size} > capacity {self.capacity}"
            )

    @property
    def selected_set(self) -> frozenset:
        return frozenset(self.selected)

    def section_of(self, tx_id: int) -> str:
        return self.sections.get(tx_id, SECTION_MAIN)

    def __len__(self) -> int:
        return len(self.selected)


def _weights(m: Mempool, payment, burn) -> Dict[int, object]:
    """Per-transaction objective weight: s*p for real txs, -s*q for fakes."""
    w = {}
    for tx in m:
        try:
            p = tx.bid if payment is None else payment[tx.id]
            q = 0 if burn is None else burn[tx.id]
        except KeyError as exc:
            raise ParameterError(f"payment/burn undefined for transaction {exc}") from exc
        w[tx.id] = -tx.size * q if tx.fake else tx.size * p
    return w


def _exact_knapsack(items, capacity):
    """Branch-and-bound maximizing total weight under the size budget.

    `items` are (id, size, weight) with weight > 0, pre-sorted by density
    descending then id ascending.  Among value ties the lexicographically
    smallest id set wins, so equal-value branches are explored rather than
    pruned; instances consisting entirely of ties cost O(2^n).
    """
    n = len(items)
    suffix_density = [0] * (n + 1)
    best_value = 0
    best_ids = ()

    def bound(i, room, value):
        # fractional relaxation over the remaining density-sorted suffix
        total = value
        while i < n and room > 0:
            tid, size, weight = items[i]
            if size <= room:
                total += weight
                room -= size
            else:
                total += weight * room / size
                break
            i += 1
        return total

    stack = [(0, capacity, 0, ())]
    while stack:
        i, room, value, chosen = stack.pop()
        if i == n:
            key = tuple(sorted(chosen))
            if value > best_value or (value == best_value and (not best_ids or key < best_ids)):
                best_value = value
                best_ids = key
            continue
        if bound(i, room, value) < best_value:
            continue
        tid, size, weight = items[i]
        # exclude branch pushed first so the include branch is explored first
        stack.append((i + 1, room, value, chosen))
        if size <= room:
            stack.append((i + 1, room - size, value + weight, chosen + (tid,)))
    return best_value, best_ids


def optimal_allocate(
    m: Mempool,
    capacity,
    payment_per_unit: Optional[Mapping[int, float]] = None,
    burn_per_unit: Optional[Mapping[int, float]] = None,
    exact: Optional[bool] = None,
) -> AllocationResult:
    """Revenue-maximizing feasible selection (knapsack).

    Payment defaults to each transaction's bid and burn to zero.  Exact mode
    solves the knapsack outright and is limited to ``EXHAUSTIVE_LIMIT``
    candidates; greedy mode ranks by payment per unit size.  By default the
    knapsack is exact for pools of at most ``EXHAUSTIVE_LIMIT`` transactions
    and greedy above.  Transactions with non-positive objective weight are
    never selected, and value ties resolve to the lowest-id set.
    """
    if not capacity >= 0:
        raise ParameterError(f"capacity must be non-negative, got {capacity}")
    w = _weights(m, payment_per_unit, burn_per_unit)
    candidates = [
        (tx.id, tx.size, w[tx.id])
        for tx in m
        if w[tx.id] > 0 and tx.size <= capacity
    ]
    if exact is None:
        exact = len(m) <= EXHAUSTIVE_LIMIT
    if exact and len(candidates) > EXHAUSTIVE_LIMIT:
        raise SolverLimitError(
            f"exact knapsack limited to {EXHAUSTIVE_LIMIT} candidates, got "
            f"{len(candidates)}; call with exact=False for the greedy rule"
        )
    candidates.sort(key=lambda it: (-(it[2] / it[1]), it[0]))
    if exact:
        _, chosen = _exact_knapsack(candidates, capacity)
        selected = tuple(sorted(chosen))
    else:
        total = 0
        picked = []
        for tid, size, _ in candidates:
            if total + size <= capacity:
                picked.append(tid)
                total += size
        selected = tuple(sorted(picked))
    sizes = {tx.id: tx.size for tx in m}
    total_size = sum(sizes[t] for t in selected)
    return AllocationResult(selected, total_size, capacity)


def allocation_value(m: Mempool, result: AllocationResult, payment_per_unit=None, burn_per_unit=None):
    """Objective value of a selection under the same weighting as Eq.-style revenue."""
    w = _weights(m, payment_per_unit, burn_per_unit)
    return sum(w[t] for t in result.selected)


def uniform_allocate(m: Mempool, capacity, seed: SeedLike) -> AllocationResult:
    """Uniformly sample transactions until nothing left fits."""
    if not capacity >= 0:
        raise ParameterError(f"capacity must be non-negative, got {capacity}")
    rng = resolve_rng(seed)
    txs = m.transactions
    order = rng.permutation(len(txs))
    total = 0
    picked = []
    for idx in order:
        tx = txs[idx]
        if total + tx.size <= capacity:
            picked.append(tx.id)
            total += tx.size
    return AllocationResult(tuple(picked), total, capacity)


def stfm_first_draw_distribution(m: Mempool, gamma: float) -> Dict[int, float]:
    """Exact temperature-softmax probabilities over the whole pool.

    Every probability is strictly positive as long as the bid spread over
    gamma stays inside the double-precision exponent range (about 745).
    """
    if not gamma > 0:
        raise ParameterError(f"gamma must be positive, got {gamma}")
    if len(m) == 0:
        raise DomainError("softmax distribution undefined for an empty mempool")
    bids = m.bids()
    z = bids / gamma
    z -= z.max()  # max-shift keeps exp() in range for large bid/gamma
    expz = np.exp(z)
    probs = expz / expz.sum()
    return {tx.id: float(p) for tx, p in zip(m, probs)}


def stfm_allocate(m: Mempool, capacity, gamma: float, seed: SeedLike) -> AllocationResult:
    """Sample a feasible block through softmax-with-temperature over bids.

    Draws are without replacement with the distribution re-normalized after
    each pick; only transactions that fit the remaining capacity are eligible,
    and sampling stops once nothing fits.
    """
    if not gamma > 0:
        raise ParameterError(f"gamma must be positive, got {gamma}")
    if not capacity >= 0:
        raise ParameterError(f"capacity must be non-negative, got {capacity}")
    rng = resolve_rng(seed)
    n = len(m)
    if n == 0:
        return AllocationResult((), 0, capacity)
    keys = m.bids() / gamma + rng.gumbel(size=n)
    order = np.argsort(-keys, kind="stable")
    txs = m.transactions
    sizes = m.sizes()
    # smallest size still ahead of each walk position, for early exit
    suffix_min = np.minimum.accumulate(sizes[order][::-1])[::-1]
    total = 0.0
    picked = []
    for pos, idx in enumerate(order):
        if total + suffix_min[pos] > capacity:
            break
        tx = txs[idx]
        if total + tx.size <= capacity:
            picked.append(tx.id)
            total += tx.size
    return AllocationResult(tuple(picked), total, capacity)


@dataclass(frozen=True)
class SplitBlockConfig:
    """Split-block rule parameters: paid fraction `alpha`, posted fee `delta`.

    ``delta == 0`` is the zero-fee variant where the reserved section only
    admits zero-bid transactions.
    """

    alpha: float
    delta: float = 0.0

    def __post_init__(self) -> None:
        if not 0 < self.alpha <= 1:
            raise ParameterError(f"alpha must lie in (0, 1], got {self.alpha}")
        if self.delta < 0:
            raise ParameterError(f"delta must be non-negative, got {self.delta}")

    def alpha_capacity(self, capacity):
        return self.alpha * capacity

    def one_minus_alpha_capacity(self, capacity):
        return capacity - self.alpha * capacity


def splitblock_allocate(
    m: Mempool,
    capacity,
    cfg: SplitBlockConfig,
    fake_fill: Optional[Sequence[Transaction]] = None,
    seed: SeedLike = 0,
    demote_to_posted: Optional[bool] = None,
    alpha_payment: Optional[Mapping[int, float]] = None,
) -> AllocationResult:
    """Two-section allocation: posted-fee section first, then the paid section.

    The reserved ``1 - alpha`` section is filled by uniform sampling from the
    posted-fee transactions (bid == delta); a deviating miner's `fake_fill`
    entries take those slots first.  With ``demote_to_posted`` (default for
    delta > 0) any real transaction may stand in at the posted fee when
    explicit delta bids run short, lowest bids first; the zero-fee variant
    never demotes, so an underfilled section stays underfilled.  The paid
    section is then solved as a knapsack over the remaining transactions.
    """
    if not capacity >= 0:
        raise ParameterError(f"capacity must be non-negative, got {capacity}")
    rng = resolve_rng(seed)
    if demote_to_posted is None:
        demote_to_posted = cfg.delta > 0
    cap_posted = cfg.one_minus_alpha_capacity(capacity)
    cap_paid = cfg.alpha_capacity(capacity)

    sections: Dict[int, str] = {}
    placed = set()
    total_posted = 0

    fakes = list(fake_fill or ())
    for tx in fakes:
        # a fake must offer the posted fee to pass for a reserved-section entry
        if tx.bid == cfg.delta and total_posted + tx.size <= cap_posted:
            sections[tx.id] = SECTION_ONE_MINUS_ALPHA
            placed.add(tx.id)
            total_posted += tx.size

    posted_pool = [tx for tx in m if tx.bid == cfg.delta and tx.id not in placed]
    for idx in rng.permutation(len(posted_pool)):
        tx = posted_pool[idx]
        if total_posted + tx.size <= cap_posted:
            sections[tx.id] = SECTION_ONE_MINUS_ALPHA
            placed.add(tx.id)
            total_posted += tx.size

    if demote_to_posted:
        leftovers = sorted(
            (tx for tx in m if tx.id not in placed), key=lambda tx: (tx.bid, tx.id)
        )
        for tx in leftovers:
            if total_posted + tx.size <= cap_posted:
                sections[tx.id] = SECTION_ONE_MINUS_ALPHA
                placed.add(tx.id)
                total_posted += tx.size

    paid_pool = Mempool([tx for tx in m if tx.id not in placed and tx.bid != cfg.delta])
    paid = optimal_allocate(paid_pool, cap_paid, payment_per_unit=alpha_payment)
    for tid in paid.selected:
        sections[tid] = SECTION_ALPHA

    all_txs = {tx.id: tx for tx in m}
    for tx in fakes:
        all_txs[tx.id] = tx
    selected = tuple(sorted(sections))
    total_size = sum(all_txs[t].size for t in selected)
    return AllocationResult(selected, total_size, capacity, sections)


@dataclass(frozen=True)
class RtfmSample:
    """The two committed transaction sets and their Merkle roots."""

    rand_set: AllocationResult
    opt_set: AllocationResult
    rand_root: bytes
    opt_root: bytes


def _set_root(m: Mempool, result: AllocationResult) -> bytes:
    chosen = result.selected_set
    leaves = [tx.canonical_bytes() for tx in m if tx.id in chosen]
    if not leaves:
        leaves = [b"empty"]
    return chain.merkle_root(leaves)


def rtfm_sample(m: Mempool, capacity, seed: SeedLike) -> RtfmSample:
    """Draw the zero-pay uniform set and the revenue-optimal set, with roots."""
    rng = resolve_rng(seed)
    rand_res = uniform_allocate(m, capacity, rng)
    opt_res = optimal_allocate(m, capacity)
    rand_res = AllocationResult(
        rand_res.selected, rand_res.total_size, capacity,
        {t: SECTION_RAND for t in rand_res.selected},
    )
    opt_res = AllocationResult(
        opt_res.selected, opt_res.total_size, capacity,
        {t: SECTION_OPT for t in opt_res.selected},
    )
    return RtfmSample(rand_res, opt_res, _set_root(m, rand_res), _set_root(m, opt_res))


def allocation_to_csv(m: Mempool, result: AllocationResult, path: str) -> None:
    """Write `id,section,size,bid` for every selected transaction."""
    lookup = {tx.id: tx for tx in m}
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "section", "size", "bid"])
        for tid in result.selected:
            tx = lookup[tid]
            writer.writerow([tid, result.section_of(tid), repr(float(tx.size)), repr(float(tx.bid))])
