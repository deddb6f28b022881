"""Block allocation rules.

Every rule returns an :class:`AllocationResult` that respects the feasibility
constraint ``sum(size) <= capacity``.  Randomized rules take an explicit seed
(or generator) and are pure functions of their inputs.

Sampling notes: the greedy knapsack, the uniform rule and the softmax rule
are one walk over an order of the pool's rows, keeping every row that still
fits.  Only the order differs:

* greedy: a stable sort by objective weight per unit size, highest first,
  lowest id first among ties;
* uniform: a random permutation.  By exchangeability, walking it is identical
  in distribution to repeatedly picking a uniformly random transaction among
  the ones that still fit;
* softmax: the Gumbel-top-k order of the keys ``bid/gamma + Gumbel`` (Kool,
  van Hoof & Welling, ICML 2019).  It realizes sequential softmax sampling
  without replacement, and conditioning each pick on "still fits" preserves
  that equivalence, so the sampler matches the re-normalize-after-each-draw
  procedure while staying O(n log n).

The walk is one ``total += size`` loop: a row is kept when it still fits at
the running total, so the total adds sizes in walk order.  Where the C helper
loaded, that loop runs in C for float64 sizes and a capacity and start that
are doubles exactly; every other column runs the same loop in Python, which
is also the C loop's test oracle.  ``_walk_rows`` walks many orders at once,
one a row: it cuts each row's prefix that fits from its cumulative sizes,
which add in the same order, and finishes a row with room left on the loop.

Inside the package the rules exchange rows of one pool, not ids.  Ids appear
only where an :class:`AllocationResult` is built for a caller, and
``_sections`` names their sections from split block's reserved-row mask or
the two-set rule's toss.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Sequence

import numpy as np

from . import chain
from .errors import DomainError, ParameterError, SolverLimitError, _check_capacity, _check_gamma
from .txpool import Mempool, PoolColumns, SeedLike, Transaction, resolve_rng

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

    def section_of(self, tx_id: int) -> str:
        return self.sections.get(tx_id, SECTION_MAIN)

    def __len__(self) -> int:
        return len(self.selected)


def _weights(c: PoolColumns, payment=None) -> np.ndarray:
    """Objective weight of each row: s*p for real txs, zero for fakes.

    `payment` holds one per-unit value per row, in pool order, and defaults
    to the bid.
    """
    p = c.bids if payment is None else _per_row(payment, c)
    w = c.sizes * p
    if np.count_nonzero(c.fake):
        # -size * 0 keeps the pool's number type: a Fraction zero, or the float -0.0
        w = np.where(c.fake, -c.sizes * 0, w)
    return w


def _per_row(values, c: PoolColumns) -> np.ndarray:
    values = np.asarray(values)
    if values.shape != c.ids.shape:
        raise ParameterError(f"payment needs one value per pool row ({len(c.ids)}), "
                             f"got shape {values.shape}")
    return values


# _walk's loop over float64 sizes and an intp order, from the C helper
_walk_c = getattr(chain._noncesearch, "walk", None)


def _double(value) -> bool:
    """Whether `value` is a float, or an int a double holds exactly (magnitude <= 2**53)."""
    return type(value) is float or (type(value) is int and abs(value) <= 2**53)


def _walk(sizes: np.ndarray, order: np.ndarray, capacity, total=0):
    """Walk the rows of `order`, keeping each one that still fits.

    Returns the kept rows, in walk order, and `total` plus their sizes added
    in that order; with nothing kept, `total` itself.  Float64 sizes, an
    intp order, and a capacity and `total` that are doubles exactly run the
    C helper's loop; everything else (no helper, object columns of ints or
    Fractions) runs the same loop here.
    """
    if _walk_c is not None and sizes.dtype == float and order.dtype == np.intp \
            and _double(capacity) and _double(total):
        kept = np.empty(len(order), dtype=np.intp)
        count, total = _walk_c(sizes, order, capacity, total, kept)
        return kept[:count], total
    kept = []
    for pos, size in enumerate(sizes[order].tolist()):
        if total + size <= capacity:
            kept.append(pos)
            total += size
    return order[kept], total


def _running(values: np.ndarray) -> np.ndarray:
    """Each row's running sums from a zero of its own type, as a ``+=`` loop makes them."""
    zero = np.zeros((len(values), 1), values.dtype)
    return np.concatenate((zero, values), axis=1).cumsum(axis=1)


def _walk_rows(sizes: np.ndarray, orders: np.ndarray, capacity):
    """:func:`_walk` over each row of `orders`: the kept positions of each, and its total.

    Each row's prefix that fits is cut from its cumulative sizes; a row with room
    for a later size finishes on :func:`_walk`.  With equal sizes none has."""
    s = sizes[orders]
    trials, k = s.shape
    running = _running(s)
    kept = running[:, 1:] <= capacity  # sizes are positive: a prefix of each row
    cut = np.count_nonzero(kept, axis=1)
    total = running[np.arange(trials), cut]
    # the row at `cut` did not fit; the smallest size after it
    smallest = np.where(np.arange(k) > cut[:, None], s, np.inf).min(axis=1, initial=np.inf)
    for t in np.flatnonzero((total + smallest <= capacity) & (cut < k)):
        rest, total[t] = _walk(s[t], np.arange(cut[t] + 1, k), capacity, total.item(t))
        kept[t, rest] = True
    return kept, total


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
    payment_per_unit: Optional[Sequence] = None,
    exact: Optional[bool] = None,
) -> AllocationResult:
    """Revenue-maximizing feasible selection (knapsack).

    `payment_per_unit` gives one value per pool row, in pool order, and
    defaults to each transaction's bid; a fake row weighs nothing.  Exact
    mode solves the knapsack outright and is limited to
    ``EXHAUSTIVE_LIMIT`` candidates; greedy mode ranks by payment per unit
    size and walks that order, keeping what fits.  By default the
    knapsack is exact for pools of at most ``EXHAUSTIVE_LIMIT`` transactions
    and greedy above.  Transactions with non-positive objective weight are
    never selected, and value ties resolve to the lowest-id set.
    """
    _check_capacity(capacity)
    rows, total = _optimal_rows(m.columns, capacity, payment_per_unit, exact)
    return AllocationResult(tuple(m.columns.ids[rows].tolist()), total, capacity)


def _optimal_rows(c: PoolColumns, capacity, payment_per_unit=None, exact=None):
    """:func:`optimal_allocate`'s selection as pool rows in ascending id, and their total size."""
    w = _weights(c, payment_per_unit)
    # candidates by weight per unit size, highest first, then lowest id
    order = np.lexsort((c.ids, -(w / c.sizes)))
    order = order[(w[order] > 0) & (c.sizes[order] <= capacity)]
    if exact is None:
        exact = len(c.ids) <= EXHAUSTIVE_LIMIT
    if exact and len(order) > EXHAUSTIVE_LIMIT:
        raise SolverLimitError(
            f"exact knapsack limited to {EXHAUSTIVE_LIMIT} candidates, got "
            f"{len(order)}; call with exact=False for the greedy rule"
        )
    if exact:
        ids = c.ids[order].tolist()
        _, chosen = _exact_knapsack(list(zip(ids, c.sizes[order].tolist(), w[order].tolist())),
                                    capacity)
        row_of = dict(zip(ids, order.tolist()))
        rows = np.array([row_of[t] for t in chosen], dtype=order.dtype)
    else:
        rows, _ = _walk(c.sizes, order, capacity)
        rows = rows[c.ids[rows].argsort()]
    return rows, sum(c.sizes[rows].tolist())


def allocation_value(m: Mempool, result: AllocationResult):
    """Objective value of a selection: its size-weighted bids, fakes weighing nothing."""
    w = _weights(m.columns)
    return sum(w[m.rows_of(result.selected)].tolist())


def uniform_allocate(m: Mempool, capacity, seed: SeedLike) -> AllocationResult:
    """Uniformly sample transactions until nothing left fits."""
    _check_capacity(capacity)
    rng = resolve_rng(seed)
    rows, total = _walk(m.columns.sizes, rng.permutation(len(m)), capacity)
    return AllocationResult(tuple(m.columns.ids[rows].tolist()), total, capacity)


def stfm_first_draw_distribution(m: Mempool, gamma: float) -> Dict[int, float]:
    """Exact temperature-softmax probabilities over the whole pool.

    Every probability is strictly positive as long as the bid spread over
    gamma stays inside the double-precision exponent range (about 745).
    """
    _check_gamma(gamma)
    if len(m) == 0:
        raise DomainError("softmax distribution undefined for an empty mempool")
    bids = m.bids()
    z = bids / gamma
    z -= z.max()  # max-shift keeps exp() in range for large bid/gamma
    expz = np.exp(z)
    probs = expz / expz.sum()
    return dict(zip(m.ids(), probs.tolist()))


def _softmax_walk(sizes: np.ndarray, scaled_bids: np.ndarray, gumbel: np.ndarray, capacity):
    """The rows a walk over the Gumbel-top-k order keeps, and their total.

    The keys are ``scaled_bids + gumbel`` with ``scaled_bids = bid / gamma``
    and `sizes` as floats.  The noise does not depend on gamma, so one draw
    of it serves every temperature.
    """
    keys = gumbel + scaled_bids
    order = np.negative(keys, out=keys).argsort(kind="stable")
    return _walk(sizes, order, capacity)


def _softmax_rows(sizes: np.ndarray, scaled_bids: np.ndarray, gumbel: np.ndarray, capacity):
    """:func:`_softmax_walk` over each row of `gumbel`: orders, kept positions, totals."""
    keys = gumbel + scaled_bids
    orders = np.negative(keys, out=keys).argsort(axis=1, kind="stable")
    return (orders, *_walk_rows(sizes, orders, capacity))


def stfm_allocate(m: Mempool, capacity, gamma: float, seed: SeedLike) -> AllocationResult:
    """Sample a feasible block through softmax-with-temperature over bids.

    Draws are without replacement with the distribution re-normalized after
    each pick; only transactions that fit the remaining capacity are eligible,
    and sampling stops once nothing fits.
    """
    _check_gamma(gamma)
    _check_capacity(capacity)
    rng = resolve_rng(seed)
    n = len(m)
    if n == 0:
        return AllocationResult((), 0, capacity)
    c = m.columns
    # the walk runs in floats whatever the size column holds
    rows, total = _softmax_walk(c.sizes.astype(float, copy=False),
                                c.bids.astype(float, copy=False) / gamma, rng.gumbel(size=n),
                                capacity)
    return AllocationResult(tuple(c.ids[rows].tolist()), float(total), capacity)


@dataclass(frozen=True)
class SplitBlockConfig:
    """Split-block rule parameters: paid fraction `alpha`, posted fee `delta`.

    ``delta == 0`` is the zero-fee variant where the reserved section only
    admits zero-bid transactions.  `demote` lets any transaction bidding at
    least delta stand in at the posted fee when explicit delta bids run
    short; the default None demotes exactly when ``delta > 0``.
    """

    alpha: float
    delta: float = 0.0
    demote: Optional[bool] = None

    def __post_init__(self) -> None:
        if not 0 < self.alpha <= 1:
            raise ParameterError(f"alpha must lie in (0, 1], got {self.alpha}")
        if not 0 <= self.delta < math.inf:
            raise ParameterError(f"delta must be non-negative and finite, got {self.delta}")
        if self.demote not in (None, False, True):
            raise ParameterError(f"demote must be None, False or True, got {self.demote!r}")

    def alpha_capacity(self, capacity):
        return self.alpha * capacity

    def one_minus_alpha_capacity(self, capacity):
        return capacity - self.alpha * capacity


def _prepare_splitblock(c: PoolColumns, real: np.ndarray, fakes: np.ndarray, capacity,
                        cfg: SplitBlockConfig, payment: Optional[np.ndarray] = None):
    """The split-block draw over the pool of columns `c`: its candidate `real` rows and
    the miner's `fakes` rows, each in pool order.

    The paid section's knapsack weighs `payment` (one value per row of `c`), by
    default the bids.  ``draw(rng)`` returns the block's rows of `c` in ascending
    id, their total size and a mask of the rows in the reserved section.  The
    paid section's knapsack depends only on the real rows the reserved section
    left open, so a draw solves it once per such set.
    """
    cap_posted = cfg.one_minus_alpha_capacity(capacity)
    cap_paid = cfg.alpha_capacity(capacity)

    at_fee = c.bids == cfg.delta
    # a fake must offer the posted fee to pass for a reserved-section entry
    fake_rows, fake_total = _walk(c.sizes, fakes[at_fee[fakes]], cap_posted)
    posted = real[at_fee[real]]
    demoted = posted[:0]
    if (cfg.delta > 0) if cfg.demote is None else cfg.demote:
        # then every other transaction that bids at least the posted fee, lowest bids
        # first; a posted-fee row that did not fit above cannot fit later, since the
        # total only grows
        rest = real[~at_fee[real] & (c.bids[real] >= cfg.delta)]
        demoted = rest[np.lexsort((c.ids[rest], c.bids[rest]))]
    payment = c.bids if payment is None else payment
    # the rows the paid section may take: the real rows off the posted fee, less
    # those the reserved section took
    payable = np.zeros(len(c.ids), dtype=bool)
    payable[real] = ~at_fee[real]
    paid_rows_of: Dict[bytes, np.ndarray] = {}  # the open rows' mask -> paid rows

    def draw(rng: np.random.Generator):
        order = np.concatenate((posted[rng.permutation(len(posted))], demoted))
        rows, _ = _walk(c.sizes, order, cap_posted, fake_total)
        free = payable.copy()
        free[rows] = False
        key = free.tobytes()
        if key not in paid_rows_of:
            # the paid section is the knapsack over the rest: a zero payment keeps a row out
            paid_rows_of[key], _ = _optimal_rows(c, cap_paid, np.where(free, payment, 0),
                                                 exact=np.count_nonzero(free) <= EXHAUSTIVE_LIMIT)
        chosen = np.concatenate((fake_rows, rows, paid_rows_of[key]))
        by_id = c.ids[chosen].argsort()
        chosen = chosen[by_id]
        return chosen, sum(c.sizes[chosen].tolist()), by_id < len(fake_rows) + len(rows)

    return draw


def _with_fakes(m: Mempool, fakes: Sequence[Transaction]) -> Mempool:
    """`m` with a miner's `fakes` appended; each must carry ``fake=True`` and an id not in `m`."""
    for tx in fakes:
        if not tx.fake:
            raise ParameterError(f"fake transaction {tx.id} must carry fake=True")
        if tx.id in m:
            raise ParameterError(f"fake transaction id {tx.id} collides with the mempool")
    return m.extend(fakes)


def _sections(selected: tuple, reserved: Optional[np.ndarray] = None,
              toss: Optional[int] = None) -> Dict[int, str]:
    """The section of each `selected` id: split block's by its `reserved` mask, the
    two-set rule's by its `toss`, and none for every other rule."""
    if reserved is not None:
        return dict(zip(selected, (SECTION_ONE_MINUS_ALPHA if r else SECTION_ALPHA
                                   for r in reserved.tolist())))
    if toss is None:
        return {}
    return dict.fromkeys(selected, SECTION_RAND if toss == 0 else SECTION_OPT)


def splitblock_allocate(
    m: Mempool,
    capacity,
    cfg: SplitBlockConfig,
    fake_fill: Optional[Sequence[Transaction]] = None,
    seed: SeedLike = 0,
) -> AllocationResult:
    """Two-section allocation: posted-fee section first, then the paid section.

    The reserved ``1 - alpha`` section is filled by uniform sampling from the
    posted-fee transactions (bid == delta); a deviating miner's `fake_fill`
    entries take those slots first.  With ``cfg.demote`` (by default for
    delta > 0) any real transaction bidding at least delta may stand in at
    the posted fee when explicit delta bids run short, lowest bids first, so
    no one pays more than their bid; the zero-fee variant never demotes, so
    an underfilled section stays underfilled.  The paid section is then
    solved as a knapsack over the remaining transactions.  `fake_fill` entries
    must carry ``fake=True`` and ids not in `m`, as :func:`.mech.run_mechanism`'s
    fakes must.
    """
    _check_capacity(capacity)
    c, n = _with_fakes(m, fake_fill or ()).columns, len(m)
    draw = _prepare_splitblock(c, np.arange(n), np.arange(n, len(c.ids)), capacity, cfg)
    rows, total, reserved = draw(resolve_rng(seed))
    selected = tuple(c.ids[rows].tolist())
    return AllocationResult(selected, total, capacity, _sections(selected, reserved))


@dataclass(frozen=True)
class RtfmSample:
    """The two committed transaction sets and their Merkle roots."""

    rand_set: AllocationResult
    opt_set: AllocationResult
    rand_root: bytes
    opt_root: bytes


def _committed(m: Mempool, rows: np.ndarray, total, capacity, toss: int):
    """The set of `rows` as the two-set rule's branch `toss` commits it, and its root."""
    selected = tuple(m.columns.ids[rows].tolist())
    leaves = m.canonical_bytes(np.sort(rows)) or [b"empty"]  # in pool order
    return (AllocationResult(selected, total, capacity, _sections(selected, toss=toss)),
            chain.merkle_root(leaves))


def rtfm_sample(m: Mempool, capacity, seed: SeedLike) -> RtfmSample:
    """Draw the zero-pay uniform set and the revenue-optimal set, with roots."""
    rng = resolve_rng(seed)
    _check_capacity(capacity)
    rand, rand_root = _committed(m, *_walk(m.columns.sizes, rng.permutation(len(m)), capacity),
                                 capacity, 0)
    opt, opt_root = _committed(m, *_optimal_rows(m.columns, capacity), capacity, 1)
    return RtfmSample(rand, opt, rand_root, opt_root)
