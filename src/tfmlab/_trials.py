"""Audit trials stepped all at once.

:func:`_softmax_trials` takes an arm of :mod:`.mech` and, where it is a
softmax arm with candidates, returns its step over a slice of trials' Gumbel
noise, which gives for each trial the block, total and utilities that the
rule's one-trial step gives from that trial's stream, bit for bit, whatever
number types the pool's columns and the posted fee hold.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .alloc import _softmax_rows
from .mech import AllocationKind, PaymentKind, _Arm


class _Blocks(NamedTuple):
    """The blocks of every trial of a prepared arm, one row of each array a trial."""

    included: np.ndarray  # a column per pool row, the fakes last
    total: np.ndarray
    miner_utility: np.ndarray
    user_utility: np.ndarray  # a column per real row, 0.0 where the row is left out


def _fold(values: np.ndarray) -> np.ndarray:
    """Each row summed in order from the float 0.0, as ``mech._block_income`` sums a block."""
    return np.concatenate((np.zeros((len(values), 1)), values), axis=1).cumsum(axis=1)[:, -1]


def _softmax_trials(arm: _Arm):
    """The softmax rule's step of many trials at once, or None where the arm is no
    softmax arm or has no candidates (the rule then draws nothing).

    Each row of ``step(gumbel)``'s noise (its first k columns for k candidates)
    gives the block ``mech._softmax_rule`` draws from that trial's stream: walked
    in floats, priced in the columns' own number types as ``mech._price_included``
    prices it, and its income and burn each folded from 0.0 in block order.
    """
    spec, kept, c, n = arm.spec, arm.kept, arm.pool.columns, len(arm.m)
    if spec.allocation is not AllocationKind.SOFTMAX or not len(kept):
        return None
    fee = spec.base_fee if spec.payment is PaymentKind.POSTED_PRICE else 0.0
    # the walk runs in floats whatever the columns hold, as the one-trial step's does
    sizes = c.sizes[kept].astype(float)
    scaled = c.bids[kept].astype(float) / spec.gamma

    def step(gumbel: np.ndarray) -> _Blocks:
        orders, taken, total = _softmax_rows(sizes, scaled, gumbel[:, :len(kept)], arm.capacity)
        rows = kept[orders]
        size, p = c.sizes[rows], c.bids[rows]
        if spec.payment is PaymentKind.SECOND_PRICE:  # the lowest included bid, fakes too
            p = np.where(taken, p, np.inf).min(axis=1, initial=np.inf, keepdims=True)
            p[p == np.inf] = 0.0
        elif spec.payment is PaymentKind.POSTED_PRICE:
            p = p - fee
        real, fake = taken & ~c.fake[rows], taken & c.fake[rows]
        income = _fold(np.where(real, size * p, 0.0))
        burn = _fold(np.where(fake, size * fee, 0.0))
        included = np.zeros((len(total), len(c.ids)), bool)
        np.put_along_axis(included, rows, taken, axis=1)
        gain = np.where(real, (c.valuations[rows] - p - fee) * size, 0.0)
        users = np.full(included.shape, 0.0, gain.dtype)
        np.put_along_axis(users, rows, gain, axis=1)
        return _Blocks(included, total, income - burn, users[:, :n])
    return step
