"""The trial streams of one audit call.

Audit trial i draws from the stream ``numpy.random.default_rng([seed, i])``
builds.  This module computes those streams' PCG64 starts for many trials at
once, reproducing numpy's SeedSequence hash and PCG64's seeding step in
vectorized integer arithmetic, so that each trial costs one state restore
instead of numpy's per-trial seeding.  numpy's own seeding is the oracle the
tests check the starts against.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from .errors import ParameterError, _check_int

_PCG64_STATE = (1 << 128) - 1
# numpy's SeedSequence hash (pool size 4) and PCG64's multiplier, by uint64 word
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT_LO, _PCG64_MULT_HI = 0x4385DF649FCCF645, 0x2360ED051FC65DA4
_MASK32 = 0xFFFFFFFF
_BATCH = 1024  # most trials one vectorized pass seeds, which bounds its arrays
_START_BYTES = 32  # a trial's little-endian ``state | inc << 128``
# where generate_state(4, uint64)'s uint32 words 0..7 go in a little-endian
# ``seed | seq << 128``: its uint64 word 0 is the seed's high half, word 2 the seq's
_STATE_WORD_PLACES = (2, 3, 0, 1, 6, 7, 4, 5)


def _hashmix(value, const: int, mult: int):
    """One SeedSequence hash of uint32 words (ints or an array), and the next constant."""
    const_next = const * mult & _MASK32
    value = (value ^ const) * const_next & _MASK32
    return value ^ value >> 16, const_next


def _mix(x, y):
    value = ((x * _MIX_MULT_L & _MASK32) - (y * _MIX_MULT_R & _MASK32)) & _MASK32
    return value ^ value >> 16


def _pcg64_set_seed(words: np.ndarray) -> None:
    """PCG64's set_seed on rows of uint64 words, in place.

    Row ``(seed low, seed high, seq low, seq high)`` becomes ``(state low,
    state high, inc low, inc high)``: inc = 2 seq + 1 and state = (seed +
    inc) * multiplier + inc, modulo 2**128.
    """
    seed_lo, seed_hi, seq_lo, seq_hi = words.T
    inc_lo = seq_lo << 1 | 1
    inc_hi = seq_hi << 1 | seq_lo >> 63
    x_lo = seed_lo + inc_lo
    x_hi = seed_hi + inc_hi + (x_lo < inc_lo)
    # the high word of x_lo times the multiplier's low word, from 32-bit halves
    a0, a1 = x_lo & _MASK32, x_lo >> 32
    b0, b1 = _PCG64_MULT_LO & _MASK32, _PCG64_MULT_LO >> 32
    a0b1, a1b0 = a0 * b1, a1 * b0
    carry = ((a0 * b0 >> 32) + (a0b1 & _MASK32) + (a1b0 & _MASK32)) >> 32
    high = a1 * b1 + (a0b1 >> 32) + (a1b0 >> 32) + carry
    high += x_lo * _PCG64_MULT_HI + x_hi * _PCG64_MULT_LO
    words[:, 0] = x_lo * _PCG64_MULT_LO + inc_lo
    words[:, 1] = high + inc_hi + (words[:, 0] < inc_lo)
    words[:, 2], words[:, 3] = inc_lo, inc_hi


def _pcg64_starts(seed_words: List[int], lo: int, hi: int) -> np.ndarray:
    """The PCG64 starts of trials lo, ..., hi - 1: a row of little-endian
    ``state | inc << 128`` per trial.

    Trial i's start is the one ``np.random.PCG64([seed, i])`` seeds: numpy's
    SeedSequence mixes the entropy words ``seed_words + [i]`` into a pool of
    four, ``generate_state(4, uint64)`` hashes the pool into a 128-bit seed
    and sequence, and PCG64's set_seed steps them into a state and an
    increment.  Each step runs once over all the trials, the uint32 hash on
    a plain int while there is one trial.
    """
    if hi > 1 << 32:
        raise ParameterError("an audit call replays at most 2**32 trials")
    index = lo if hi - lo == 1 else np.arange(lo, hi, dtype=np.uint32)
    entropy = seed_words + [index] + [0] * (_POOL_SIZE - 1 - len(seed_words))
    const = _INIT_A
    pool = []
    for word in entropy[:_POOL_SIZE]:
        word, const = _hashmix(word, const, _MULT_A)
        pool.append(word)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                word, const = _hashmix(pool[src], const, _MULT_A)
                pool[dst] = _mix(pool[dst], word)
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            hashed, const = _hashmix(word, const, _MULT_A)
            pool[dst] = _mix(pool[dst], hashed)
    rows = np.empty((hi - lo, 8), dtype="<u4")
    const = _INIT_B
    for k, place in enumerate(_STATE_WORD_PLACES):
        rows[:, place], const = _hashmix(pool[k % _POOL_SIZE], const, _MULT_B)
    _pcg64_set_seed(rows.view("<u8"))
    return rows


class _TrialStreams:
    """The trial generators of one audit call, which makes `trials` runs at most.

    Trial i's stream is the one ``np.random.default_rng([seed, i])`` builds,
    but no trial is seeded through numpy: :func:`_pcg64_starts` computes the
    trials' PCG64 starts in vectorized passes, and asking for trial i
    restores its start into one reused generator.  The starts computed are
    those of the trials asked for, ``prepare(k)`` before a loop over the
    first k or trial i alone, at most ``_BATCH`` of them a pass.  A generator
    is good until the next trial is asked for.  The trials' Gumbel noise is a
    matrix kept for the whole call (``gumbel``), which an audit asks for when
    several arms read it, or drawn a slice of trials at a time
    (``gumbel_slices``).  Every audit that replays trials checks its budget
    here, 1 to 2**32 trials, before any start is computed.
    """

    def __init__(self, seed: int, trials: int):
        self.trials = _check_int("trials", trials, 1, 1 << 32)
        seed = _check_int("seed", seed)
        self._words = [seed & _MASK32]  # the seed's uint32 words, as SeedSequence splits it
        while seed > _MASK32:
            seed >>= 32
            self._words.append(seed & _MASK32)
        self._start = bytearray()  # trial i's start at bytes 32 i to 32 i + 31
        self._rng: Optional[np.random.Generator] = None  # made with the first batch
        self._pcg = {"state": 0, "inc": 0}  # refilled at each restore
        self._state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                       "state": self._pcg}
        self._gumbel = np.empty((trials, 0))  # the widest Gumbel matrix kept so far

    def prepare(self, trials: int) -> None:
        """Compute the starts of trials 0, ..., trials - 1 not yet known."""
        if self._rng is None:
            self._rng = np.random.Generator(np.random.PCG64(0))  # its state is always restored
        for lo in range(len(self._start) // _START_BYTES, trials, _BATCH):
            self._start += _pcg64_starts(self._words, lo, min(lo + _BATCH, trials)).data

    def __call__(self, i: int) -> np.random.Generator:
        at = i * _START_BYTES
        if at >= len(self._start):
            self.prepare(i + 1)
        packed = int.from_bytes(self._start[at:at + _START_BYTES], "little")
        self._pcg["state"], self._pcg["inc"] = packed & _PCG64_STATE, packed >> 128
        self._rng.bit_generator.state = self._state
        return self._rng

    def _gumbel_rows(self, rows: np.ndarray, lo: int) -> np.ndarray:
        """`rows` filled with rows lo, lo + 1, ... of the Gumbel matrix."""
        self.prepare(lo + len(rows))
        for i, row in enumerate(rows, lo):
            row[:] = self(i).gumbel(size=len(row))
        return rows

    def gumbel(self, n: int) -> np.ndarray:
        """A trials x n matrix whose row i is ``default_rng([seed, i]).gumbel(size=n)``.

        numpy draws one value per double, in order, so its first k columns are
        ``gumbel(size=k)``: the widest matrix asked for is kept, and sliced."""
        if n > self._gumbel.shape[1]:
            self._gumbel = self._gumbel_rows(np.empty((self.trials, n)), 0)
        return self._gumbel[:, :n]

    def gumbel_slices(self, n: int):
        """The rows of ``gumbel(n)``, a slice at a time: the kept matrix, where one at
        least n wide was asked for, else slices of at most ``_BATCH`` trials drawn
        into one buffer as they are read, so that their memory does not grow with
        the trials.  A slice is good until the next one is read."""
        if n <= self._gumbel.shape[1]:
            yield self._gumbel[:, :n]
            return
        rows = np.empty((min(_BATCH, self.trials), n))
        for lo in range(0, self.trials, _BATCH):
            yield self._gumbel_rows(rows[:self.trials - lo], lo)
