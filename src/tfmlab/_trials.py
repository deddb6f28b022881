"""The blocks of a mechanism's trials, and the one step of each allocation rule.

:func:`_batched` takes an arm of :mod:`.mech` and returns the draws its
trials read, as :meth:`._streams._TrialStreams.slices` makes them, with the
rule's step over a slice of trials' draws.  The audits step all their
trials at once, :func:`.mech.run_mechanism` one trial on the draws
:func:`._streams._draw_trial` makes, and the sweeps a run's blocks.  The
steps walk a slice's orders through ``alloc._walk_rows`` and return
:class:`_Blocks`, which compute the included mask, the prices (from
``mech._unit_prices``) and the utilities (:func:`_added`) when first read.

An arm whose trials do not move their generator (:func:`_draws`) gives the
same block in every trial, so it is stepped once, on one trial's empty draws
(:func:`_fixed`).  The knapsack's step is such a one: it returns
:func:`_paying`, the block that the two-set rule's paying branch takes.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .alloc import AllocationResult, _running, _sections, _softmax_rows, _walk_rows
from .mech import AllocationKind, _Arm, _cached, _knapsack, _split_block, _unit_prices
from ._streams import GUMBEL, PERMUTATION, TOSS

_SMALL = 64  # the most values of a slice that _added adds in a loop


def _added(size: np.ndarray, price: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Each trial's ``size * price`` over the rows it keeps, added from 0.0 in block
    order: in a loop where the slice holds at most ``_SMALL`` values, else as running
    sums, where a row left out adds 0.0, which leaves a sum from 0.0 as it is."""
    if keep.size > _SMALL:
        return _running(np.where(keep, size * price, 0.0), 0.0)[:, -1]
    sums = []
    for sizes, prices, kept in zip(size.tolist(), price.tolist(), keep.tolist()):
        total = 0.0
        for s, pay, k in zip(sizes, prices, kept):
            if k:
                total += s * pay
        sums.append(total)
    return np.array(sums)


class _Blocks:
    """The blocks of a slice of trials of an arm, one row of each array a trial: the
    pool rows of `rows` where `taken`, in that order, and their `total` sizes.

    `reserved` marks split block's posted-fee section, and `toss` is the two-set
    rule's branch: a block whose toss was 0 pays nothing.  Every other field is
    computed on first read and cached, since each caller reads what it needs.
    `empty` is the total a trial that takes no row reads as one block: 0, as a sum
    over no rows gives it, or the float walk total of the softmax rule.
    """

    def __init__(self, arm: _Arm, rows: np.ndarray, taken: np.ndarray, total: np.ndarray,
                 reserved: Optional[np.ndarray] = None, toss: Optional[int] = None, empty=0):
        self.arm, self.rows, self.taken, self.total = arm, rows, taken, total
        self.reserved, self.toss, self.empty = reserved, toss, empty

    @_cached
    def one(self) -> _Blocks:
        """The block of a slice of one trial, as a slice of the rows it takes."""
        taken = self.taken[0]
        return _Blocks(self.arm, self.rows[0][taken][None], self.taken[:, taken], self.total,
                       None if self.reserved is None else self.reserved[0][taken][None],
                       self.toss, self.empty)

    @_cached
    def included(self) -> np.ndarray:
        """A column per pool row, the fakes last."""
        included = np.zeros((len(self.rows), len(self.arm.pool)), bool)
        included[np.arange(len(self.rows))[:, None], self.rows] = self.taken
        return included

    @_cached
    def _prices(self):
        """The sizes of `rows`, their payment and burn per unit, and which are fakes (None
        where the pool holds none)."""
        arm, rows = self.arm, self.rows
        c = arm.pool.columns
        p, q = _unit_prices(arm.spec, c.bids[rows], self.taken, self.reserved, self.toss != 0)
        return c.sizes[rows], p, q, None if arm.pool is arm.m else c.fake[rows]

    payment = property(lambda self: self._prices[1])
    burn = property(lambda self: self._prices[2])

    @_cached
    def miner_utility(self) -> np.ndarray:
        """Each trial's fee income ``size * p`` over the real rows it takes, less its burn
        ``size * q`` over the fakes it takes."""
        if self.toss == 0:  # a block that pays nothing earns and burns nothing
            return np.zeros(len(self.rows))
        size, p, q, fake = self._prices
        if fake is None:
            return _added(size, p, self.taken)
        return _added(size, p, self.taken & ~fake) - _added(size, q, self.taken & fake)

    @_cached
    def user_utility(self) -> np.ndarray:
        """A column per real pool row, 0.0 where the row is left out."""
        size, p, q, fake = self._prices
        rows = self.rows
        real = self.taken if fake is None else self.taken & ~fake
        gain = np.where(real, (self.arm.pool.columns.valuations[rows] - p - q) * size, 0.0)
        users = np.full((len(rows), len(self.arm.pool)), 0.0, gain.dtype)
        users[np.arange(len(rows))[:, None], rows] = gain
        return users[:, :len(self.arm.m)]

    @_cached
    def allocation(self) -> AllocationResult:
        """The first trial's block: its ids in block order and its total size, with split
        block's sections or the two-set rule's."""
        taken = self.taken[0]
        rows = self.rows[0][taken]
        selected = tuple(self.arm.pool.columns.ids[rows].tolist())
        reserved = None if self.reserved is None else self.reserved[0][taken]
        return AllocationResult(selected, self.total.item(0) if len(rows) else self.empty,
                                self.arm.capacity, _sections(selected, reserved, self.toss))


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

    @property
    def one(self) -> _Blocks:
        """The block of a slice of one trial: the branch its toss took."""
        return (self.walked if self.zero[0] else self.paying).one

    included = _mixed("included")
    total = _mixed("total")
    miner_utility = _mixed("miner_utility")
    user_utility = _mixed("user_utility")


def _paying(arm: _Arm, toss: Optional[int] = None) -> _Blocks:
    """The arm's knapsack block as a slice of one trial, priced on first read."""
    rows, total = _knapsack(arm)
    return _Blocks(arm, rows[None], np.ones((1, len(rows)), bool), np.array([total]), toss=toss)


def _optimal(arm: _Arm):
    """The knapsack block, the same in every trial: the step of one trial reads no draws."""
    paying = _paying(arm)
    return PERMUTATION, 0, lambda perms: paying


def _softmax(arm: _Arm, gammas=None):
    """Walk the Gumbel-top-k order of the keys ``bid/gamma + gumbel``, in floats, at the
    arm's gamma for each trial's Gumbel row, or at each of `gammas` for one row; an arm
    over k candidates reads the first k columns of the Gumbel rows."""
    kept, c = arm.kept, arm.pool.columns
    # the walk runs in floats whatever the columns hold
    sizes = c.sizes[kept].astype(float)
    gammas = np.array([arm.spec.gamma] if gammas is None else gammas, dtype=float)
    scaled = c.bids[kept].astype(float) / gammas[:, None]

    def step(gumbel: np.ndarray) -> _Blocks:
        orders, taken, total = _softmax_rows(sizes, scaled, gumbel[:, :len(kept)], arm.capacity)
        return _Blocks(arm, kept[orders], taken, total, empty=0.0 if len(kept) else 0)
    return GUMBEL, len(kept), step


def _zero_pay(arm: _Arm, perms: np.ndarray) -> _Blocks:
    """The two-set rule's zero-pay blocks: each permutation of the pool walked."""
    return _Blocks(arm, perms, *_walk_rows(arm.pool.columns.sizes, perms, arm.capacity), toss=0)


def _two_set(arm: _Arm):
    """Walk each permutation whose toss is below phi, paying nothing; every other trial
    takes the arm's knapsack block, priced at most once."""
    paying = _paying(arm, toss=1)

    def step(draws) -> _TwoSet:
        toss, perms = draws
        zero = toss < arm.spec.phi
        return _TwoSet(zero, _zero_pay(arm, perms[zero]), paying)
    return TOSS, len(arm.pool), step


def _split_blocks(arm: _Arm):
    """Walk each permutation of the posted-fee rows, then the demoted rows, into the
    reserved section from the fakes' total; then take the paid knapsack, solved once per
    set of rows the reserved section leaves open."""
    split = _split_block(arm)

    def step(perms: np.ndarray) -> _Blocks:
        by_id, taken, total, reserved = split.blocks(perms)
        return _Blocks(arm, np.broadcast_to(by_id, taken.shape), taken, total, reserved)
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
    """Whether a trial's draws move its generator, when it reads `width` values of the
    draw `kind`: a toss always does, a Gumbel row of any values, and a permutation of at
    least two (numpy shuffles fewer values without a draw)."""
    return kind == TOSS or width > (1 if kind == PERMUTATION else 0)


def _batched(arm: _Arm):
    """The draw kind the trials of the arm read, its width (values a trial), and the
    rule's step over a slice of trials' draws."""
    return _BATCHED[arm.spec.allocation](arm)


def _fixed(kind: int, width: int, step):
    """The block of every trial, where the draws `kind` and `width` draw nothing
    (:func:`_draws`): the step's over one trial's empty draws.  None where they draw."""
    if _draws(kind, width):
        return None
    return step(np.zeros((1, width), float if kind == GUMBEL else np.intp))
