"""Transactions, mempools, and seeded bid/size generators.

All randomness flows through ``numpy.random.Generator`` (PCG64) instances
created from explicit seeds, so any mempool is a pure function of
``(n, distributions, seed)``.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from .errors import ParameterError

SeedLike = Union[int, Sequence[int], np.random.Generator]

# Rejection rounds before a truncated Gaussian's mean counts as too far below
# zero: 1000 draws at 3.5 sd below need about 33,000, at 8 sd about 10^15.
_TRUNCATED_GAUSSIAN_ROUNDS = 100_000


def resolve_rng(seed: SeedLike) -> np.random.Generator:
    """Return a PCG64 generator; pass-through if one is given."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


@dataclass(frozen=True)
class Transaction:
    """One bid-bearing unit of block space.

    `bid` and `valuation` are per unit of `size`; the total offered fee is
    ``size * bid``.  `fake` marks miner-created entries used to model
    deviations.
    """

    id: int
    size: float
    bid: float
    valuation: float
    fake: bool = False

    def __post_init__(self) -> None:
        if self.id < 0:
            raise ParameterError(f"transaction id must be non-negative, got {self.id}")
        if not 0 < self.size < math.inf:
            raise ParameterError(f"transaction size must be positive and finite, got {self.size}")
        if not 0 <= self.bid < math.inf:
            raise ParameterError(f"bid must be non-negative and finite, got {self.bid}")
        if not 0 <= self.valuation < math.inf:
            raise ParameterError(f"valuation must be non-negative and finite, got {self.valuation}")

    @property
    def total_fee(self):
        return self.size * self.bid

    def canonical_bytes(self) -> bytes:
        """Broadcast encoding used as a Merkle leaf (id, size, bid only)."""
        return f"{self.id}|{self.size!r}|{self.bid!r}".encode("ascii")


class Mempool:
    """Insertion-ordered collection of transactions with unique ids."""

    __slots__ = ("_txs", "_by_id", "capacity_hint")

    def __init__(self, transactions: Iterable[Transaction], capacity_hint: Optional[float] = None):
        txs = tuple(transactions)
        by_id = {}
        for tx in txs:
            if tx.id in by_id:
                raise ParameterError(f"duplicate transaction id {tx.id}")
            by_id[tx.id] = tx
        if capacity_hint is not None and not capacity_hint > 0:
            raise ParameterError("capacity_hint must be positive when given")
        self._txs = txs
        self._by_id = by_id
        self.capacity_hint = capacity_hint

    def __iter__(self) -> Iterator[Transaction]:
        return iter(self._txs)

    def __len__(self) -> int:
        return len(self._txs)

    def __contains__(self, tx_id: int) -> bool:
        return tx_id in self._by_id

    @property
    def transactions(self) -> tuple:
        return self._txs

    def get(self, tx_id: int) -> Transaction:
        if tx_id not in self._by_id:
            raise ParameterError(f"unknown transaction id {tx_id}")
        return self._by_id[tx_id]

    def ids(self) -> tuple:
        return tuple(tx.id for tx in self._txs)

    def total_size(self):
        return sum(tx.size for tx in self._txs)

    def bids(self) -> np.ndarray:
        return np.array([tx.bid for tx in self._txs], dtype=float)

    def sizes(self) -> np.ndarray:
        return np.array([tx.size for tx in self._txs], dtype=float)

    def with_bid(self, tx_id: int, bid) -> "Mempool":
        """Copy of the pool with one transaction's bid replaced."""
        if tx_id not in self._by_id:
            raise ParameterError(f"unknown transaction id {tx_id}")
        out = []
        for tx in self._txs:
            if tx.id == tx_id:
                tx = Transaction(tx.id, tx.size, bid, tx.valuation, tx.fake)
            out.append(tx)
        return Mempool(out, self.capacity_hint)

    def extend(self, extra: Iterable[Transaction]) -> "Mempool":
        """Copy of the pool with extra transactions appended."""
        return Mempool(list(self._txs) + list(extra), self.capacity_hint)

    def __repr__(self) -> str:
        return f"Mempool({len(self._txs)} txs)"


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
        if n < 0:
            raise ParameterError("sample count must be non-negative")
        if self.kind == "uniform":
            lo, hi = self.params
            return rng.uniform(lo, hi, n)
        if self.kind == "truncated_gaussian":
            mean, sd = self.params
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
    if n < 0:
        raise ParameterError(f"mempool size must be non-negative, got {n}")
    rng = resolve_rng(seed)
    bid_draw = bids.sample(rng, n)
    size_draw = sizes.sample(rng, n)
    if n and size_draw.min() <= 0:
        raise ParameterError("size distribution produced a non-positive draw")
    if valuations is None:
        val_draw = bid_draw
    else:
        val_draw = valuations.sample(rng, n)
    txs = [
        Transaction(i, float(size_draw[i]), float(bid_draw[i]), float(val_draw[i]))
        for i in range(n)
    ]
    return Mempool(txs)


def mempool_to_csv(m: Mempool, path: str) -> None:
    """Write `id,size,bid,valuation` rows (decimal point, round-trip floats)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "size", "bid", "valuation"])
        for tx in m:
            writer.writerow([tx.id, repr(float(tx.size)), repr(float(tx.bid)), repr(float(tx.valuation))])


def mempool_from_csv(path: str) -> Mempool:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["id", "size", "bid", "valuation"]:
            raise ParameterError(f"unexpected mempool CSV header {header!r}")
        txs = [Transaction(int(r[0]), float(r[1]), float(r[2]), float(r[3])) for r in reader]
    return Mempool(txs)
