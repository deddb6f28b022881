"""Audit trials stepped all at once.

:func:`_batched` takes an arm of :mod:`.mech` and returns the draws its
trials read, as :meth:`._streams._TrialStreams.slices` makes them, with the
rule's step over a slice of trials' draws.  For each trial the step gives the
block, total and utilities that the rule's one-trial step gives from that
trial's stream, bit for bit, whatever number types the pool's columns and the
posted fee hold.  The steps walk a slice's orders through
``alloc._walk_rows``, in one call of the C helper's row walk where the sizes
are float64, and return the walked blocks as :class:`_Blocks`, which compute
the included mask, the prices and the utilities when an audit first reads
them; each price comes from ``mech._unit_prices`` as ``mech._Block`` takes it.

An arm whose one-trial step does not move its generator (:func:`_draws`)
gives the same block in every trial, so ``audit._step_arms`` steps it once,
on one trial's empty draws.  The knapsack's step is such a one: it returns
:func:`_paying`, the block that the two-set rule's paying branch takes.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .alloc import _running, _softmax_rows, _walk_rows
from .mech import AllocationKind, _Arm, _cached, _knapsack, _split_block, _unit_prices
from ._streams import GUMBEL, PERMUTATION, TOSS


class _Blocks:
    """The blocks of a slice of trials of a prepared arm, one row of each array a trial:
    the pool rows of `rows` where `taken`, in that order, and their `total` sizes.

    `reserved` marks split block's posted-fee section, and a two-set block whose
    toss was 0 `pays` nothing.  Every other field is computed on first read and
    cached, since each audit reads one of them.  The prices come from
    ``mech._unit_prices`` as ``mech._Block`` takes them for one block, and the
    income and the burn are each folded from 0.0 in block order, as
    ``mech._block_income`` folds them.
    """

    def __init__(self, arm: _Arm, rows: np.ndarray, taken: np.ndarray, total: np.ndarray,
                 reserved: Optional[np.ndarray] = None, pays: bool = True):
        self.arm, self.rows, self.taken, self.total = arm, rows, taken, total
        self.reserved, self.pays = reserved, pays

    @_cached
    def included(self) -> np.ndarray:
        """A column per pool row, the fakes last."""
        included = np.zeros((len(self.rows), len(self.arm.pool)), bool)
        included[np.arange(len(self.rows))[:, None], self.rows] = self.taken
        return included

    @_cached
    def _prices(self):
        """The sizes of `rows`, their payment and burn per unit, and which are real and taken."""
        c, rows, taken = self.arm.pool.columns, self.rows, self.taken
        p, q = _unit_prices(self.arm.spec, c.bids[rows], taken, self.reserved, self.pays)
        return c.sizes[rows], p, q, taken & ~c.fake[rows]

    @_cached
    def miner_utility(self) -> np.ndarray:
        size, p, q, real = self._prices
        fake = self.taken & ~real
        income = _running(np.where(real, size * p, 0.0), 0.0)[:, -1]
        burn = _running(np.where(fake, size * q, 0.0), 0.0)[:, -1]
        return income - burn

    @_cached
    def user_utility(self) -> np.ndarray:
        """A column per real pool row, 0.0 where the row is left out."""
        size, p, q, real = self._prices
        rows = self.rows
        gain = np.where(real, (self.arm.pool.columns.valuations[rows] - p - q) * size, 0.0)
        users = np.full((len(rows), len(self.arm.pool)), 0.0, gain.dtype)
        users[np.arange(len(rows))[:, None], rows] = gain
        return users[:, :len(self.arm.m)]


def _mixed(name: str) -> _cached:
    """Field `name` of :class:`_TwoSet`'s blocks, mixed on first read."""
    def mix(self: _TwoSet) -> np.ndarray:
        some, knapsack = getattr(self.walked, name), getattr(self.paying, name)
        both = np.empty((len(self.zero),) + knapsack.shape[1:], np.result_type(some, knapsack))
        both[self.zero], both[~self.zero] = some, knapsack
        return both
    return _cached(mix)


class _TwoSet:
    """The two-set rule's blocks of a slice of trials: the `walked` zero-pay blocks where
    `zero`, and the one `paying` block at every other trial.  A field is mixed from
    theirs on first read, so only the fields an audit reads are computed."""

    def __init__(self, zero: np.ndarray, walked: _Blocks, paying: _Blocks):
        self.zero, self.walked, self.paying = zero, walked, paying

    included = _mixed("included")
    total = _mixed("total")
    miner_utility = _mixed("miner_utility")
    user_utility = _mixed("user_utility")


def _paying(arm: _Arm) -> _Blocks:
    """The arm's knapsack block as a batch of one trial, priced on first read."""
    rows, total = _knapsack(arm)
    return _Blocks(arm, rows[None], np.ones((1, len(rows)), bool), np.array([total]))


def _optimal(arm: _Arm):
    """The knapsack block, the same in every trial: the step of one trial reads no draws."""
    paying = _paying(arm)
    return PERMUTATION, 0, lambda perms: paying


def _softmax(arm: _Arm):
    """Walk the Gumbel-top-k order of the keys ``bid/gamma + gumbel`` of each trial, in
    floats; an arm over k candidates reads the first k columns of the Gumbel rows."""
    kept, c = arm.kept, arm.pool.columns
    # the walk runs in floats whatever the columns hold, as the one-trial step's does
    sizes = c.sizes[kept].astype(float)
    scaled = c.bids[kept].astype(float) / arm.spec.gamma

    def step(gumbel: np.ndarray) -> _Blocks:
        orders, taken, total = _softmax_rows(sizes, scaled, gumbel[:, :len(kept)], arm.capacity)
        return _Blocks(arm, kept[orders], taken, total)
    return GUMBEL, len(kept), step


def _two_set(arm: _Arm):
    """Walk each permutation whose toss is below phi, paying nothing; every other trial
    takes the arm's knapsack block, priced at most once."""
    sizes, paying = arm.pool.columns.sizes, _paying(arm)

    def step(draws) -> _TwoSet:
        toss, perms = draws
        zero = toss < arm.spec.phi
        walked = _Blocks(arm, perms[zero], *_walk_rows(sizes, perms[zero], arm.capacity),
                         pays=False)
        return _TwoSet(zero, walked, paying)
    return TOSS, len(sizes), step


def _split_blocks(arm: _Arm):
    """Walk each permutation of the posted-fee rows, then the demoted rows, into the
    reserved section from the fakes' total; then take the paid knapsack, solved once per
    set of rows the reserved section leaves open."""
    split, c = _split_block(arm), arm.pool.columns
    by_id = np.argsort(c.ids)  # the block's order

    def step(perms: np.ndarray) -> _Blocks:
        trials = len(perms)
        orders = np.concatenate((split.posted[perms], np.broadcast_to(
            split.demoted, (trials, len(split.demoted)))), axis=1)
        walked, _ = _walk_rows(c.sizes, orders, split.cap_posted, split.fake_total)
        reserved = np.zeros((trials, len(c.ids)), bool)
        reserved[:, split.fake_rows] = True
        np.put_along_axis(reserved, orders, walked, axis=1)
        free = split.payable & ~reserved
        first = {}  # the open rows, as bytes -> the first trial that left them open
        same = [first.setdefault(open_rows.tobytes(), t) for t, open_rows in enumerate(free)]
        paid = np.zeros(free.shape, bool)
        for t in first.values():
            paid[t, split.paid(free[t])] = True
        taken = (reserved | paid[same])[:, by_id]
        total = _running(np.where(taken, c.sizes[by_id], 0))[:, -1]
        return _Blocks(arm, np.broadcast_to(by_id, taken.shape), taken, total,
                       reserved[:, by_id])
    return PERMUTATION, len(split.posted), step


def _uniform(arm: _Arm):
    """Walk each permutation of the candidates."""
    sizes = arm.pool.columns.sizes

    def step(perms: np.ndarray) -> _Blocks:
        orders = arm.kept[perms]
        return _Blocks(arm, orders, *_walk_rows(sizes, orders, arm.capacity))
    return PERMUTATION, len(arm.kept), step


_BATCHED = {
    AllocationKind.OPTIMAL: _optimal,
    AllocationKind.SOFTMAX: _softmax,
    AllocationKind.RTFM: _two_set,
    AllocationKind.SPLIT_BLOCK: _split_blocks,
    AllocationKind.UNIFORM: _uniform,
}


def _draws(kind: int, width: int) -> bool:
    """Whether a trial's one-trial step moves its generator, when it reads `width`
    values of the draw `kind`: a toss always does, a Gumbel row of any values, and a
    permutation of at least two (numpy shuffles fewer values without a draw)."""
    return kind == TOSS or width > (1 if kind == PERMUTATION else 0)


def _batched(arm: _Arm):
    """The draw kind the trials of the arm read, its width (values a trial), and the
    rule's step over a slice of trials' draws.  Where the kind and width draw nothing
    (:func:`_draws`), every trial gives the same block: the step's over one trial's
    empty draws."""
    return _BATCHED[arm.spec.allocation](arm)
