"""Block allocation rules.

Every rule returns an :class:`AllocationResult` that respects the feasibility
constraint ``sum(size) <= capacity``.  Randomized rules take an explicit seed
(or generator) and are pure functions of their inputs.

Sampling notes: the greedy knapsack, the uniform rule and the softmax rule
are one walk over an order of the pool's rows, keeping every row that still
fits.  Only the order differs:

* greedy: by objective weight per unit size, highest first, lowest id first
  among ties.  On float pools of more rows than the block can hold, a partition
  (introselect) finds the last key the walk can reach, and only the rows up to
  it are sorted; the rest are sorted and walked only if a row can still fit;
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
loaded, its row walk runs that loop for float64 sizes and a capacity and start
that are doubles exactly: ``_walk_rows`` walks many orders in one call, one a
row, and ``_walk`` one order as a row of its own.  Every other column runs the
same loop in Python, which is also the C loop's test oracle; there
``_walk_rows`` walks each order on ``_walk``.  Every softmax walk, of one
trial or many, at one temperature or many, is a call of ``_softmax_rows``: it
sorts rows of at least ``_SIMD_SORT_WIDTH`` keys with numpy's default (SIMD)
argsort and re-sorts stably only the rows that hold equal keys, so its orders
are the stable sort's.
Split block walks a slice of trials' permutations at once, one trial's as a
slice of one (``_SplitBlock.blocks``).

Inside the package the rules exchange rows of one pool, not ids.  Ids appear
only where an :class:`AllocationResult` is built for a caller, and
``_sections`` names their sections from split block's reserved-row mask or
the two-set rule's toss.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Sequence

import numpy as np

from . import chain
from .errors import DomainError, ParameterError, SolverLimitError
from .errors import _check_capacity, _check_gamma, _check_real, _finite
from .txpool import Mempool, PoolColumns, SeedLike, Transaction, resolve_rng

EXHAUSTIVE_LIMIT = 24

SECTION_MAIN = "main"
SECTION_ALPHA = "alpha"
SECTION_ONE_MINUS_ALPHA = "one_minus_alpha"
SECTION_RAND = "rand"
SECTION_OPT = "opt"


@dataclass(frozen=True, init=False)
class AllocationResult:
    """A feasible selection of transactions.

    `selected` preserves inclusion order for sampled rules and ascending id
    for deterministic ones.  `sections` maps each selected id to the block
    section it landed in, and is empty when not given.
    """

    selected: tuple
    total_size: float
    capacity: float
    sections: Mapping[int, str] = field(default_factory=dict)

    def __init__(self, selected: tuple, total_size, capacity,
                 sections: Optional[Mapping[int, str]] = None):
        # a uniform run makes one a trial: the fields go straight into __dict__, past the
        # frozen __setattr__ that the generated __init__ calls once a field
        fields = self.__dict__
        fields["selected"], fields["total_size"], fields["capacity"] = selected, total_size, capacity
        fields["sections"] = {} if sections is None else sections
        self.__post_init__()

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
    p = c.bids if payment is None else np.asarray(payment)
    if p.shape != c.ids.shape:
        raise ParameterError(f"payment needs one value per pool row ({len(c.ids)}), "
                             f"got shape {p.shape}")
    w = c.sizes * p
    if np.count_nonzero(c.fake):
        # -size * 0 keeps the pool's number type: a Fraction zero, or the float -0.0
        w = np.where(c.fake, -c.sizes * 0, w)
    return w


# the C helper's walk over rows of intp orders and float64 sizes, for _walk and _walk_rows
_walk_rows_c = getattr(chain._noncesearch, "walk_rows", None)
# the narrowest Gumbel rows _softmax_rows sorts with numpy's default (SIMD) argsort; on
# narrower rows the stable sort is faster than the default one and its check for ties
_SIMD_SORT_WIDTH = 16


def _double(value) -> bool:
    """Whether `value` is a float, or an int a double holds exactly (magnitude <= 2**53)."""
    return type(value) is float or (type(value) is int and abs(value) <= 2**53)


def _in_doubles(sizes: np.ndarray, order: np.ndarray, capacity, total) -> bool:
    """Whether a walk runs in doubles as it would in the numbers given, so on the C loop:
    float64 sizes, an intp order, a capacity that is a double exactly or a numpy float64,
    and a start total that is a double exactly.  A numpy start stays off the C loop: the
    total a walk returns keeps the start's type there, where the C loop returns a float."""
    return sizes.dtype == float and order.dtype == np.intp \
        and (_double(capacity) or type(capacity) is np.float64) and _double(total)


def _walk(sizes: np.ndarray, order: np.ndarray, capacity, total=0):
    """Walk the rows of `order`, keeping each one that still fits.

    Returns the kept rows, in walk order, and `total` plus their sizes added
    in that order; with nothing kept, `total` itself.  Float64 sizes, an
    intp order, and a capacity and `total` that are doubles exactly (the
    capacity may be a numpy float64) run the C helper's row walk on the one
    row `order`; everything else (no helper, object columns of ints or
    Fractions) runs the same loop here.
    """
    if _walk_rows_c is not None and _in_doubles(sizes, order, capacity, total):
        kept, totals = np.empty((1, len(order)), bool), np.empty(1)
        _walk_rows_c(sizes, order[None], capacity, total, kept, totals)
        rows = order[kept[0]]
        return rows, totals.item(0) if len(rows) else total
    kept, walked = [], sizes[order].tolist()
    smallest = min(walked, default=0)
    for pos, size in enumerate(walked):
        if total + size <= capacity:
            kept.append(pos)
            total += size
        elif total + smallest > capacity:
            break  # the total stays, so no later size fits
    return order[kept], total


def _running(values: np.ndarray, start=0) -> np.ndarray:
    """Each row's running sums from `start` in the row's own type, as a ``+=`` loop makes
    them."""
    first = np.full((len(values), 1), start, values.dtype)
    return np.concatenate((first, values), axis=1).cumsum(axis=1)


def _walk_rows(sizes: np.ndarray, orders: np.ndarray, capacity, total=0):
    """:func:`_walk` over each row of `orders` from `total`: the kept positions of each,
    and its total, in the sizes' type.  Where :func:`_walk` runs the C loop, the C helper
    walks every row in one call; otherwise each row walks on :func:`_walk`."""
    if _walk_rows_c is not None and _in_doubles(sizes, orders, capacity, total):
        kept, totals = np.empty(orders.shape, bool), np.empty(len(orders))
        _walk_rows_c(sizes, orders, capacity, total, kept, totals)
        return kept, totals
    kept, totals = np.zeros(orders.shape, bool), []
    positions = np.arange(orders.shape[1])
    for row, walked in zip(kept, sizes[orders]):
        rows, end = _walk(walked, positions, capacity, total)
        row[rows] = True
        totals.append(end)
    return kept, np.array(totals, sizes.dtype)


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

    `payment_per_unit` gives one real value per pool row, in pool order, that
    converts to a finite double (any other value raises ParameterError), and
    defaults to each transaction's bid; a fake row weighs nothing.  Exact mode
    solves the knapsack outright and is limited to ``EXHAUSTIVE_LIMIT`` candidates;
    greedy mode ranks by payment per unit size and walks that order, keeping
    what fits.  By default the knapsack is exact for pools of at most
    ``EXHAUSTIVE_LIMIT`` transactions and greedy above.  Transactions with
    non-positive objective weight are never selected, and value ties resolve
    to the lowest-id set.
    """
    _check_capacity(capacity)
    if payment_per_unit is not None:
        for v in np.asarray(payment_per_unit).ravel().tolist():
            if not (isinstance(v, numbers.Real) and _finite(v)):
                raise ParameterError(f"payment_per_unit must be finite numbers, got {v!r}")
    rows, total = _optimal_rows(m.columns, capacity, payment_per_unit, exact)
    return AllocationResult(tuple(m.columns.ids[rows].tolist()), total, capacity)


def _ranked(c: PoolColumns, w: np.ndarray, key: np.ndarray, capacity, among=None):
    """The candidate rows, of every row or of those the mask `among` sets: positive weight
    and a size within `capacity`, by `key` (minus weight per unit size), then lowest id."""
    if among is None:
        order = np.lexsort((c.ids, key))
    else:
        rows = np.flatnonzero(among)
        order = rows[np.lexsort((c.ids[rows], key[rows]))]
    return order[(w[order] > 0) & (c.sizes[order] <= capacity)]


def _optimal_rows(c: PoolColumns, capacity, payment_per_unit=None, exact=None):
    """:func:`optimal_allocate`'s selection as pool rows in ascending id, and their total size.

    A greedy walk over float keys, at a capacity that is a double, keeps at most
    ``most = capacity / smallest size`` rows.  Below the pool's size, it ranks first only
    the rows up to the key of rank ``int(most)``, ties included, which a partition finds;
    it ranks and walks the rest only when the smallest size still fits at the head's
    total.  Head then rest is the full order, so the walk keeps the same rows."""
    w = _weights(c, payment_per_unit)
    key = -(w / c.sizes)
    if exact is None:
        exact = len(c.ids) <= EXHAUSTIVE_LIMIT
    head = None
    if not exact and len(key) and key.dtype == float \
            and (_double(capacity) or type(capacity) is np.float64):
        smallest = c.sizes.min().item()
        most = float(capacity) / smallest  # inf at an unbounded block
        if most < len(key):
            head = key <= np.partition(key, int(most))[int(most)]
    order = _ranked(c, w, key, capacity, head)
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
        rows, total = _walk(c.sizes, order, capacity)
        # the walk's own test, on a size no larger than any left: float addition is
        # monotone, so when it fails, no row of the rest fits
        if head is not None and total + smallest <= capacity:
            rest, _ = _walk(c.sizes, _ranked(c, w, key, capacity, ~head), capacity, total)
            rows = np.concatenate((rows, rest))
        rows = rows[c.ids[rows].argsort()]
    return rows, sum(c.sizes[rows].tolist())


def allocation_value(m: Mempool, result: AllocationResult):
    """Objective value of a selection: its size-weighted bids, fakes weighing nothing."""
    w = _weights(m.columns)
    return sum(w[m.rows_of(result.selected)].tolist())


def uniform_allocate(m: Mempool, capacity, seed: SeedLike) -> AllocationResult:
    """Uniformly sample transactions until nothing left fits."""
    _check_capacity(capacity)
    c = m.columns
    rows, total = _walk(c.sizes, resolve_rng(seed).permutation(len(c.ids)), capacity)
    return AllocationResult(tuple(c.ids[rows].tolist()), total, capacity)


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


def _softmax_rows(sizes: np.ndarray, scaled_bids: np.ndarray, gumbel: np.ndarray, capacity):
    """Walk the Gumbel-top-k order of the keys ``scaled_bids + gumbel`` of each row:
    the orders, the kept positions of each and its total.

    The keys take ``scaled_bids = bid / gamma`` and `sizes` as floats; either
    array may be one row that broadcasts against the other's rows.  The noise
    does not depend on gamma, so one draw of it serves every temperature.  Rows
    at least ``_SIMD_SORT_WIDTH`` wide sort with numpy's default argsort,
    and only a row whose sorted keys do not strictly rise (two equal keys, or a
    NaN) sorts again with the stable sort; every order is the stable one."""
    keys = gumbel + scaled_bids
    np.negative(keys, out=keys)
    trials, width = keys.shape
    if width < _SIMD_SORT_WIDTH:
        orders = keys.argsort(axis=1, kind="stable")
    else:
        orders = keys.argsort(axis=1)
        ranked = keys.ravel()[orders + np.arange(0, trials * width, width)[:, None]]
        tied = ~(ranked[:, 1:] > ranked[:, :-1]).all(axis=1)
        if tied.any():
            orders[tied] = keys[tied].argsort(axis=1, kind="stable")
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
    # the walk runs in floats whatever the columns hold
    (order,), (kept,), (total,) = _softmax_rows(
        c.sizes.astype(float, copy=False), c.bids.astype(float, copy=False) / gamma,
        rng.gumbel(size=(1, n)), capacity)
    return AllocationResult(tuple(c.ids[order[kept]].tolist()), total.item(), capacity)


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
        if not 0 < _check_real("alpha", self.alpha) <= 1:
            raise ParameterError(f"alpha must lie in (0, 1], got {self.alpha}")
        if not 0 <= _check_real("delta", self.delta) < math.inf:
            raise ParameterError(f"delta must be non-negative and finite, got {self.delta}")
        if self.demote not in (None, False, True):
            raise ParameterError(f"demote must be None, False or True, got {self.demote!r}")

    def alpha_capacity(self, capacity):
        return self.alpha * capacity

    def one_minus_alpha_capacity(self, capacity):
        if capacity == math.inf:  # where capacity - alpha * capacity is inf - inf
            return math.inf if self.alpha < 1 else 0.0
        return capacity - self.alpha * capacity


class _SplitBlock:
    """The split-block rule over the pool of columns `c`: its candidate `real` rows and
    the miner's `fakes` rows, each in pool order, with the work its trials share done once.

    The reserved section takes the fakes at the posted fee, then walks a random
    order of the `posted` rows (the real rows at the fee), then the `demoted`
    ones, from the fakes' total.  The paid section is the knapsack, weighing
    `payment` (one value per row of `c`, by default the bids), over the
    `payable` rows the reserved section left open; it depends only on that set,
    so :meth:`paid` solves it once per such set.
    """

    def __init__(self, c: PoolColumns, real: np.ndarray, fakes: np.ndarray, capacity,
                 cfg: SplitBlockConfig, payment: Optional[np.ndarray] = None):
        self.c = c
        self.cap_posted = cfg.one_minus_alpha_capacity(capacity)
        self.cap_paid = cfg.alpha_capacity(capacity)
        at_fee = c.bids == cfg.delta
        # a fake must offer the posted fee to pass for a reserved-section entry
        self.fake_rows, self.fake_total = _walk(c.sizes, fakes[at_fee[fakes]], self.cap_posted)
        self.posted = real[at_fee[real]]
        self.demoted = self.posted[:0]
        if (cfg.delta > 0) if cfg.demote is None else cfg.demote:
            # then every other transaction that bids at least the posted fee, lowest bids
            # first; a posted-fee row that did not fit above cannot fit later, since the
            # total only grows
            rest = real[~at_fee[real] & (c.bids[real] >= cfg.delta)]
            self.demoted = rest[np.lexsort((c.ids[rest], c.bids[rest]))]
        self.payment = c.bids if payment is None else payment
        # the real rows off the posted fee, which the paid section may take
        self.payable = np.zeros(len(c.ids), dtype=bool)
        self.payable[real] = ~at_fee[real]
        self._paid_rows_of: Dict[bytes, np.ndarray] = {}  # the open rows' mask -> paid rows

    def paid(self, free: np.ndarray) -> np.ndarray:
        """The paid section's rows in ascending id, when the `free` rows are open."""
        key = free.tobytes()
        if key not in self._paid_rows_of:
            # the knapsack over the open rows: a zero payment keeps a row out
            self._paid_rows_of[key], _ = _optimal_rows(
                self.c, self.cap_paid, np.where(free, self.payment, 0),
                exact=np.count_nonzero(free) <= EXHAUSTIVE_LIMIT)
        return self._paid_rows_of[key]

    def blocks(self, perms: np.ndarray):
        """The blocks of a batch of trials, one a row of `perms`, permutations of the
        posted-fee rows: the rows of `c` in ascending id, and for each trial a mask of
        the rows it takes, their total size, and a mask of those in the reserved section."""
        c, trials = self.c, len(perms)
        orders = np.concatenate((self.posted[perms], np.broadcast_to(
            self.demoted, (trials, len(self.demoted)))), axis=1)
        walked, _ = _walk_rows(c.sizes, orders, self.cap_posted, self.fake_total)
        reserved = np.zeros((trials, len(c.ids)), bool)
        reserved[:, self.fake_rows] = True
        np.put_along_axis(reserved, orders, walked, axis=1)
        free = self.payable & ~reserved
        first = {}  # the open rows, as bytes -> the first trial that left them open
        same = [first.setdefault(open_rows.tobytes(), t) for t, open_rows in enumerate(free)]
        paid = np.zeros(free.shape, bool)
        for t in first.values():
            paid[t, self.paid(free[t])] = True
        by_id = np.argsort(c.ids)  # the block's order
        taken = (reserved | paid[same])[:, by_id]
        total = _running(np.where(taken, c.sizes[by_id], 0))[:, -1]
        return by_id, taken, total, reserved[:, by_id]


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
    split = _SplitBlock(c, np.arange(n), np.arange(n, len(c.ids)), capacity, cfg)
    by_id, taken, total, reserved = split.blocks(
        resolve_rng(seed).permutation(len(split.posted))[None])
    rows = by_id[taken[0]]
    selected = tuple(c.ids[rows].tolist())
    # a block of no rows totals 0, as a sum over none does
    return AllocationResult(selected, total.item(0) if len(rows) else 0, capacity,
                            _sections(selected, reserved[0][taken[0]]))


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
