"""Transactions, mempools, and seeded bid/size generators.

All randomness flows through ``numpy.random.Generator`` (PCG64) instances
created from explicit seeds, so any mempool is a pure function of
``(n, distributions, seed)``.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence, Union

import numpy as np

from . import chain
from .errors import ParameterError, _check_int

SeedLike = Union[int, Sequence[int], np.random.Generator]

# Rejection rounds before a truncated Gaussian's mean counts as too far below
# zero: 1000 draws at 3.5 sd below need about 33,000, at 8 sd about 10^15.
_TRUNCATED_GAUSSIAN_ROUNDS = 100_000
# Chance of finishing within those rounds below which sampling fails up front.
_TRUNCATED_GAUSSIAN_MIN_SUCCESS = 1e-9


def resolve_rng(seed: SeedLike) -> np.random.Generator:
    """Return a PCG64 generator; pass-through if one is given.

    An int seed, or each int of a sequence, must be a non-negative integer.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    for value in seed if isinstance(seed, (list, tuple, np.ndarray)) else (seed,):
        _check_int("seed", value)
    return np.random.default_rng(seed)


@dataclass(frozen=True)
class Transaction:
    """One bid-bearing unit of block space.

    `bid` and `valuation` are per unit of `size`; the total offered fee is
    ``size * bid``.  `fake` marks miner-created entries used to model
    deviations.  `id` is an integer below 2**63, as the pool's int64 id
    column holds it.
    """

    id: int
    size: float
    bid: float
    valuation: float
    fake: bool = False

    def __post_init__(self) -> None:
        _check_int("transaction id", self.id, 0, 2**63 - 1)
        if not 0 < self.size < math.inf:
            raise ParameterError(f"transaction size must be positive and finite, got {self.size}")
        if not 0 <= self.bid < math.inf:
            raise ParameterError(f"bid must be non-negative and finite, got {self.bid}")
        if not 0 <= self.valuation < math.inf:
            raise ParameterError(f"valuation must be non-negative and finite, got {self.valuation}")

    def canonical_bytes(self) -> bytes:
        """Broadcast encoding used as a Merkle leaf (id, size, bid only)."""
        return _leaf(self.id, self.size, self.bid)


def _leaf(tx_id, size, bid) -> bytes:
    return f"{tx_id}|{size!r}|{bid!r}".encode("ascii")


# _leaf over int64 ids and float64 sizes and bids, from the C helper
_float_leaves = getattr(chain._noncesearch, "float_leaves", None)


def _column(values: Sequence) -> np.ndarray:
    """A float64 array when every value is a Python float, else an object
    array holding the values as given (ints, Fractions), so that arithmetic
    on the column is the arithmetic of the values themselves."""
    if all(type(v) is float for v in values):
        return np.array(values, dtype=float)
    col = np.empty(len(values), dtype=object)
    col[:] = values
    return col


class PoolColumns(NamedTuple):
    """A pool's rows as aligned, read-only numpy columns, in pool order.

    `ids` is int64 and `fake` is bool; `sizes`, `bids` and `valuations` are
    float64 when every value is a Python float, and object arrays holding the
    values as given (ints, Fractions) otherwise.
    """

    ids: np.ndarray
    sizes: np.ndarray
    bids: np.ndarray
    valuations: np.ndarray
    fake: np.ndarray


def _columns(txs: Sequence[Transaction]) -> PoolColumns:
    """The columns of `txs`, in that order."""
    return PoolColumns(
        np.array([tx.id for tx in txs], dtype=np.int64),
        _column([tx.size for tx in txs]),
        _column([tx.bid for tx in txs]),
        _column([tx.valuation for tx in txs]),
        np.array([tx.fake for tx in txs], dtype=bool),
    )


class Mempool:
    """Insertion-ordered collection of transactions with unique ids.

    The pool is held as numpy columns, :class:`PoolColumns` (``ids``,
    ``sizes``, ``bids``, ``valuations`` and the ``fake`` mask, one entry per
    row), and the allocators and the mechanism read only those.  A
    :class:`Transaction` is a row view: the views are built when a caller
    iterates the pool, calls :meth:`get` or reads :attr:`transactions`, and
    are cached.  A pool constructed from transactions keeps them as its views
    and builds its columns once, on first use.
    """

    __slots__ = ("_txs", "_cols", "_rows")

    def __init__(self, transactions: Iterable[Transaction]):
        txs = tuple(transactions)
        rows = {}
        for row, tx in enumerate(txs):
            if tx.id in rows:
                raise ParameterError(f"duplicate transaction id {tx.id}")
            rows[tx.id] = row
        self._txs = txs
        self._cols = None
        self._rows = rows

    @classmethod
    def _from_columns(cls, cols: PoolColumns) -> "Mempool":
        """A pool over validated columns whose ids are unique."""
        for col in cols:
            col.flags.writeable = False
        pool = cls.__new__(cls)
        pool._txs = None
        pool._cols = cols
        pool._rows = None
        return pool

    @property
    def columns(self) -> PoolColumns:
        if self._cols is None:
            self._cols = _columns(self._txs)
            for col in self._cols:
                col.flags.writeable = False
        return self._cols

    @property
    def transactions(self) -> tuple:
        if self._txs is None:
            c = self._cols
            self._txs = tuple(map(Transaction, c.ids.tolist(), c.sizes.tolist(), c.bids.tolist(),
                                  c.valuations.tolist(), c.fake.tolist()))
        return self._txs

    def _row_of(self) -> dict:
        if self._rows is None:
            ids = self._cols.ids.tolist()
            self._rows = dict(zip(ids, range(len(ids))))
        return self._rows

    def __iter__(self) -> Iterator[Transaction]:
        return iter(self.transactions)

    def __len__(self) -> int:
        return len(self._txs) if self._txs is not None else len(self._cols.ids)

    def __contains__(self, tx_id: int) -> bool:
        return tx_id in self._row_of()

    def rows_of(self, tx_ids: Iterable[int]) -> np.ndarray:
        """Row positions of the given ids, in the order given."""
        row_of = self._row_of()
        try:
            return np.array([row_of[t] for t in tx_ids], dtype=np.intp)
        except KeyError as exc:
            raise ParameterError(f"unknown transaction id {exc.args[0]}") from None

    def get(self, tx_id: int) -> Transaction:
        return self.transactions[self.rows_of((tx_id,))[0]]

    def ids(self) -> tuple:
        return tuple(self._row_of())

    def total_size(self):
        return sum(self.columns.sizes.tolist())

    def bids(self) -> np.ndarray:
        return np.array(self.columns.bids, dtype=float)

    def sizes(self) -> np.ndarray:
        return np.array(self.columns.sizes, dtype=float)

    def canonical_bytes(self, rows) -> list:
        """Merkle leaves (:meth:`Transaction.canonical_bytes`) of `rows`, in that order."""
        c = self.columns
        ids, sizes, bids = c.ids[rows], c.sizes[rows], c.bids[rows]
        if _float_leaves is not None and sizes.dtype == float and bids.dtype == float:
            return _float_leaves(*map(np.ascontiguousarray, (ids, sizes, bids)))
        return list(map(_leaf, ids.tolist(), sizes.tolist(), bids.tolist()))

    def take(self, rows) -> "Mempool":
        """Copy of the pool keeping `rows` (positions or a boolean mask), in that order."""
        return Mempool._from_columns(PoolColumns(*(col[rows] for col in self.columns)))

    def with_bid(self, tx_id: int, bid) -> "Mempool":
        """Copy of the pool with one transaction's bid replaced."""
        replace(self.get(tx_id), bid=bid)  # raises for a bid no transaction may carry
        c = self.columns
        bids = c.bids.astype(float if c.bids.dtype == float and type(bid) is float else object)
        bids[self.rows_of((tx_id,))] = bid
        return Mempool._from_columns(c._replace(bids=bids))

    def extend(self, extra: Iterable[Transaction]) -> "Mempool":
        """Copy of the pool with extra transactions appended."""
        extra = tuple(extra)
        if not extra:
            return self
        row_of, seen = self._row_of(), set()
        for tx in extra:
            if tx.id in row_of or tx.id in seen:
                raise ParameterError(f"duplicate transaction id {tx.id}")
            seen.add(tx.id)
        return Mempool._from_columns(
            PoolColumns(*map(np.concatenate, zip(self.columns, _columns(extra)))))

    def __repr__(self) -> str:
        return f"Mempool({len(self)} txs)"


def zero_fee_subset(m: Mempool) -> list:
    """Transactions bidding exactly zero, in mempool order."""
    return [tx for tx in m if tx.bid == 0]


@dataclass(frozen=True)
class BidDistribution:
    """A non-negative sampler for per-unit bids or transaction sizes.

    Kinds:
      uniform(lo, hi)            -- U[lo, hi], lo >= 0
      truncated_gaussian(mu, sd) -- normal resampled until >= 0 (no mass at 0)
      censored_gaussian(mu, sd)  -- normal with negatives clamped to exactly 0
      exponential(rate)          -- Exp(rate), mean 1/rate
      constant(v)                -- degenerate at v
      zero_inflated(w, inner)    -- exact 0 with probability w, else inner
    """

    kind: str
    params: tuple = ()
    inner: Optional["BidDistribution"] = None

    @classmethod
    def uniform(cls, lo: float, hi: float) -> "BidDistribution":
        if not 0 <= lo <= hi < math.inf:
            raise ParameterError(f"uniform bounds need 0 <= lo <= hi < inf, got ({lo}, {hi})")
        return cls("uniform", (float(lo), float(hi)))

    @classmethod
    def truncated_gaussian(cls, mean: float, sd: float) -> "BidDistribution":
        _check_gaussian(mean, sd)
        return cls("truncated_gaussian", (float(mean), float(sd)))

    @classmethod
    def censored_gaussian(cls, mean: float, sd: float) -> "BidDistribution":
        _check_gaussian(mean, sd)
        return cls("censored_gaussian", (float(mean), float(sd)))

    @classmethod
    def exponential(cls, rate: float) -> "BidDistribution":
        if not 0 < rate < math.inf:
            raise ParameterError(f"rate must be positive and finite, got {rate}")
        return cls("exponential", (float(rate),))

    @classmethod
    def constant(cls, v: float) -> "BidDistribution":
        if not 0 <= v < math.inf:
            raise ParameterError(f"constant value must be non-negative and finite, got {v}")
        return cls("constant", (float(v),))

    @classmethod
    def zero_inflated(cls, weight: float, inner: "BidDistribution") -> "BidDistribution":
        if not 0 <= weight <= 1:
            raise ParameterError(f"zero weight must be in [0, 1], got {weight}")
        return cls("zero_inflated", (float(weight),), inner=inner)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        _check_int("n", n)
        if self.kind == "uniform":
            lo, hi = self.params
            return rng.uniform(lo, hi, n)
        if self.kind == "truncated_gaussian":
            mean, sd = self.params
            # one draw stays negative through every round with probability `stuck`;
            # fail at once where all n draws would almost surely not clear the bound
            accept = 0.5 * math.erfc(-mean / (sd * math.sqrt(2.0)))
            stuck = (1.0 - accept) ** (_TRUNCATED_GAUSSIAN_ROUNDS + 1)
            if (1.0 - stuck) ** n < _TRUNCATED_GAUSSIAN_MIN_SUCCESS:
                raise ParameterError(
                    f"truncated_gaussian({mean:g},{sd:g}): a draw is non-negative with "
                    f"probability {accept:.3g}, so {n} draws would almost surely not all be "
                    f"within {_TRUNCATED_GAUSSIAN_ROUNDS} rounds; the mean lies too far below "
                    "zero")
            out = rng.normal(mean, sd, n)
            bad = np.flatnonzero(out < 0)
            rounds = 0
            while bad.size:
                if rounds == _TRUNCATED_GAUSSIAN_ROUNDS:
                    raise ParameterError(
                        f"truncated_gaussian({mean:g},{sd:g}): {bad.size} of {n} draws still "
                        f"negative after {rounds} rounds; the mean lies too far below zero")
                redraw = rng.normal(mean, sd, bad.size)
                out[bad] = redraw
                bad = bad[redraw < 0]
                rounds += 1
            return out
        if self.kind == "censored_gaussian":
            mean, sd = self.params
            return np.maximum(rng.normal(mean, sd, n), 0.0)
        if self.kind == "exponential":
            (rate,) = self.params
            return rng.exponential(1.0 / rate, n)
        if self.kind == "constant":
            return np.full(n, self.params[0])
        if self.kind == "zero_inflated":
            (w,) = self.params
            out = self.inner.sample(rng, n)
            out[rng.random(n) < w] = 0.0
            return out
        raise ParameterError(f"unknown distribution kind {self.kind!r}")

    def zero_probability(self) -> float:
        """Exact probability mass at bid == 0."""
        if self.kind == "censored_gaussian":
            mean, sd = self.params
            return 0.5 * math.erfc(mean / (sd * math.sqrt(2.0)))
        if self.kind == "constant":
            return 1.0 if self.params[0] == 0 else 0.0
        if self.kind == "zero_inflated":
            (w,) = self.params
            return w + (1.0 - w) * self.inner.zero_probability()
        if self.kind == "uniform":
            lo, hi = self.params
            return 1.0 if lo == hi == 0 else 0.0
        return 0.0

    def spec_string(self) -> str:
        if self.kind == "zero_inflated":
            return f"zero_inflated({self.params[0]:g},{self.inner.spec_string()})"
        inside = ",".join(f"{p:g}" for p in self.params)
        return f"{self.kind}({inside})"


def _check_gaussian(mean: float, sd: float) -> None:
    if not 0 < sd < math.inf:
        raise ParameterError(f"sd must be positive and finite, got {sd}")
    if not -math.inf < mean < math.inf:
        raise ParameterError(f"mean must be finite, got {mean}")


def parse_distribution(text: str) -> BidDistribution:
    """Parse a spec string like ``censored_gaussian(4,3)`` or ``constant(1)``."""
    text = text.strip()
    open_p = text.find("(")
    if open_p < 0 or not text.endswith(")"):
        raise ParameterError(f"malformed distribution spec {text!r}")
    kind = text[:open_p].strip().lower()
    body = text[open_p + 1 : -1].strip()
    makers = {
        "uniform": BidDistribution.uniform,
        "truncated_gaussian": BidDistribution.truncated_gaussian,
        "censored_gaussian": BidDistribution.censored_gaussian,
        "exponential": BidDistribution.exponential,
        "constant": BidDistribution.constant,
    }
    if kind == "zero_inflated":
        comma = body.find(",")
        if comma < 0:
            raise ParameterError(f"malformed distribution spec {text!r}")
        return BidDistribution.zero_inflated(float(body[:comma]), parse_distribution(body[comma + 1 :]))
    if kind not in makers:
        raise ParameterError(f"unknown distribution kind {kind!r}")
    try:
        args = [float(p) for p in body.split(",")] if body else []
    except ValueError as exc:
        raise ParameterError(f"malformed distribution spec {text!r}") from exc
    try:
        return makers[kind](*args)
    except TypeError as exc:  # wrong parameter count
        raise ParameterError(f"malformed distribution spec {text!r}") from exc


def sample_mempool(
    n: int,
    bids: BidDistribution,
    sizes: BidDistribution,
    seed: SeedLike,
    valuations: Optional[BidDistribution] = None,
) -> Mempool:
    """Draw a fresh mempool of `n` transactions with ids 0..n-1.

    Valuations default to the bids (truthful pool); pass a separate
    distribution to decouple them for incentive audits.
    """
    rng = resolve_rng(seed)
    bid_draw = bids.sample(rng, n)
    size_draw = sizes.sample(rng, n)
    if n and size_draw.min() <= 0:
        raise ParameterError("size distribution produced a non-positive draw")
    if valuations is None:
        val_draw = bid_draw
    else:
        val_draw = valuations.sample(rng, n)
    valid = ((size_draw < math.inf) & (bid_draw >= 0) & (bid_draw < math.inf)
             & (val_draw >= 0) & (val_draw < math.inf))
    if not valid.all():
        row = int(np.argmin(valid))
        # the first invalid row, as a transaction, raises that row's error
        Transaction(row, float(size_draw[row]), float(bid_draw[row]), float(val_draw[row]))
    return Mempool._from_columns(PoolColumns(
        np.arange(n, dtype=np.int64), size_draw, bid_draw, val_draw, np.zeros(n, dtype=bool)))


def mempool_to_csv(m: Mempool, path: str) -> None:
    """Write `id,size,bid,valuation` rows (decimal point, round-trip floats)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "size", "bid", "valuation"])
        c = m.columns
        for row in zip(c.ids.tolist(), c.sizes.tolist(), c.bids.tolist(), c.valuations.tolist()):
            writer.writerow([row[0]] + [repr(float(v)) for v in row[1:]])

