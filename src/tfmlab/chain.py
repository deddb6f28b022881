"""Desk-scale chain layer: SHA-256, Merkle trees, mining, and the coin toss.

Block headers serialize canonically as

    parent_hash(32) || root_rand(32) || root_opt(32) || height(8 BE) || nonce(8 BE)

so any party can recompute the block hash and the toss outcome.  The toss
threshold ``floor(phi_num * target / phi_den)`` is computed in exact integer
arithmetic; a mined hash below it confirms the uniformly sampled set (toss 0),
anything else confirms the optimal set (toss 1).

Nonce scanning prefers the small C helper `_noncesearch.c`, which carries
its own SHA-256 compression and releases the GIL, and falls back to pure
hashlib with identical nonces and hashes.  The helper hashes a group of
consecutive nonces per call, from the rounds and schedule terms that the
header and the nonce's high word fix, and picks its kernel when it loads,
the first the CPU offers of ``avx512-x16`` (16 nonces per call),
``sha-ni-x2`` (2, through the SHA extensions), ``avx2-x8`` (8) and
``portable`` (1, plain C); its ``BACKEND`` names which.  An installed package carries the helper as
`tfmlab._noncesearch`.  Run from a source tree, the helper is compiled on
first import with the system C compiler into a per-user cache,
``$XDG_CACHE_HOME/tfmlab/`` or ``~/.cache/tfmlab/``, in a subdirectory named
by the SHA-256 of the C source, and later imports load it from there.  When
no helper can be built (no compiler or Python header, a failed compile, an
unwritable cache) one warning goes to the ``tfmlab`` logger and mining uses
hashlib, which is much slower and holds the GIL, so `mine_many` workers do
not help it.  A failed compile leaves a ``build-failed`` file with the
reason in that subdirectory; later imports repeat the warning from it
without running the compiler again, until the file is deleted.

`merkle_root` hashes the whole tree in one call to the helper's
``merkle_root`` where the CPU has the SHA extensions (the helper defines it
only there), and otherwise on hashlib (`_merkle_root_hashlib`), which stays
as the fallback and the test oracle; both give the same root.
"""

from __future__ import annotations

import hashlib
import importlib.machinery
import importlib.util
import logging
import os
import random
import shutil
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from types import ModuleType
from typing import Iterable, List, Optional

from .errors import DomainError, MiningTimeoutError, ParameterError, _check_int

_log = logging.getLogger("tfmlab")

_NONCESEARCH_SOURCE = Path(__file__).with_name("_noncesearch.c")


def _cache_dir() -> Path:
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    return Path(base) / "tfmlab"


def _load_extension(path: Path) -> ModuleType:
    spec = importlib.util.spec_from_file_location("tfmlab._noncesearch", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _missing_build_tool() -> Optional[str]:
    """Why no C helper can be compiled here at all, or None."""
    import sysconfig

    if (shutil.which("cc") or shutil.which("gcc")) is None:
        return "no C compiler (cc or gcc) on PATH"
    include = sysconfig.get_paths()["include"]
    if not os.path.isfile(os.path.join(include, "Python.h")):
        return f"Python.h not found in {include}"
    return None


def _compile_noncesearch(source: Path, dest: Path) -> Optional[str]:
    """Compile `source` into the extension module `dest`; the reason on failure.

    Needs the tools `_missing_build_tool` checks for.  The compiler writes a
    temporary file in dest's directory that is renamed over `dest`, so
    concurrent builds never expose a partial module.
    """
    import subprocess  # build-only imports, kept off the warm import path
    import sysconfig

    compiler = shutil.which("cc") or shutil.which("gcc")
    include = sysconfig.get_paths()["include"]
    try:
        dest.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix=".build-", suffix=dest.suffix, dir=dest.parent)
        os.close(fd)
    except OSError as exc:
        return f"cache directory {dest.parent} is not writable ({exc})"
    try:
        proc = subprocess.run(
            [compiler, "-shared", "-fPIC", "-O2", "-I", include, str(source), "-o", tmp],
            capture_output=True, text=True, timeout=300,
        )
        if proc.returncode != 0:
            first = next(iter(proc.stderr.strip().splitlines()), f"exit code {proc.returncode}")
            return f"compile failed: {first}"
        os.replace(tmp, dest)
        return None
    except (OSError, subprocess.SubprocessError) as exc:
        return f"compile failed: {exc}"
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _cached_noncesearch() -> Optional[ModuleType]:
    """The C nonce search from the per-user cache, built there if missing.

    Returns None, after one warning on the ``tfmlab`` logger, when it cannot
    be built or loaded.  A failed build is recorded beside the module, so
    later calls warn with the recorded reason instead of compiling again.
    """
    try:
        digest = hashlib.sha256(_NONCESEARCH_SOURCE.read_bytes()).hexdigest()
    except OSError as exc:
        reason = f"cannot read {_NONCESEARCH_SOURCE.name} ({exc})"
    else:
        suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
        built = _cache_dir() / digest / ("_noncesearch" + suffix)
        failed = built.with_name("build-failed")
        if built.is_file():
            try:
                return _load_extension(built)
            except ImportError:
                pass  # damaged or foreign file: build it again
        try:
            recorded = failed.read_text().strip()
        except OSError:
            recorded = ""  # no failed build on record
        if recorded:
            reason = f"{recorded} (recorded in {failed}; delete it to retry)"
        else:
            reason = _missing_build_tool()
            if reason is None:
                reason = _compile_noncesearch(_NONCESEARCH_SOURCE, built)
                if reason is None:
                    try:
                        return _load_extension(built)
                    except ImportError as exc:
                        reason = f"built module does not load ({exc})"
                try:
                    failed.parent.mkdir(parents=True, exist_ok=True)
                    failed.write_text(reason + "\n")
                except OSError:
                    pass  # unwritable cache: the next process tries again
    _log.warning("C nonce search unavailable: %s; mining falls back to hashlib, "
                 "which is much slower", reason)
    return None


def _load_noncesearch() -> Optional[ModuleType]:
    """The packaged C nonce search, else the cached one; None means hashlib."""
    try:
        from . import _noncesearch as packaged
    except ImportError:
        return _cached_noncesearch()
    return packaged


_noncesearch = _load_noncesearch()

HASH_BYTES = 32
DEFAULT_TARGET = 1 << 240  # about 2**16 expected trials per block
DEFAULT_MAX_TRIALS = 1 << 24


def hash_bytes(data: bytes) -> bytes:
    """SHA-256 digest."""
    return hashlib.sha256(data).digest()


# the helper's whole-tree Merkle root, present only where the CPU has SHA-NI
_merkle_root_c = getattr(_noncesearch, "merkle_root", None)


def merkle_root(leaves: Iterable[bytes]) -> bytes:
    """Root of the binary hash tree over `leaves` (in order).

    Leaf nodes are the hashes of the leaf byte strings, each parent hashes the
    concatenation of its children, and a lone node at the end of a level is
    paired with itself.
    """
    leaves = list(leaves)
    if not leaves:
        raise DomainError("merkle root of an empty leaf list is undefined")
    if _merkle_root_c is not None:
        return _merkle_root_c(leaves)
    return _merkle_root_hashlib(leaves)


def _merkle_root_hashlib(leaves: List[bytes]) -> bytes:
    """merkle_root on hashlib, for a non-empty list: the fallback and the test oracle."""
    level = [hash_bytes(leaf) for leaf in leaves]
    while len(level) > 1:
        if len(level) % 2:
            level.append(level[-1])
        level = [hash_bytes(level[i] + level[i + 1]) for i in range(0, len(level), 2)]
    return level[0]


@dataclass(frozen=True)
class Difficulty:
    """Mining target plus the toss bias as an exact rational phi_num/phi_den."""

    target: int = DEFAULT_TARGET
    phi_num: int = 1
    phi_den: int = 2

    def __post_init__(self) -> None:
        _check_int("target", self.target, 1, 1 << 256)
        if _check_int("phi_num", self.phi_num) > _check_int("phi_den", self.phi_den, 1):
            raise ParameterError(
                f"toss bias must satisfy 0 <= num <= den, got {self.phi_num}/{self.phi_den}"
            )

    @property
    def phi(self) -> float:
        return self.phi_num / self.phi_den

    @property
    def toss_threshold(self) -> int:
        return self.phi_num * self.target // self.phi_den


@dataclass(frozen=True)
class BlockHeader:
    parent_hash: bytes
    root_rand: bytes
    root_opt: bytes
    height: int
    nonce: int

    def __post_init__(self) -> None:
        for name in ("parent_hash", "root_rand", "root_opt"):
            if len(getattr(self, name)) != HASH_BYTES:
                raise ParameterError(f"{name} must be {HASH_BYTES} bytes")
        _check_int("height", self.height, 0, (1 << 64) - 1)
        _check_int("nonce", self.nonce, 0, (1 << 64) - 1)

    def prefix_bytes(self) -> bytes:
        """Serialization of everything before the nonce."""
        return (
            self.parent_hash
            + self.root_rand
            + self.root_opt
            + self.height.to_bytes(8, "big")
        )

    def serialize(self) -> bytes:
        return self.prefix_bytes() + self.nonce.to_bytes(8, "big")


@dataclass(frozen=True)
class MinedBlock:
    header: BlockHeader
    block_hash: bytes
    toss: int
    confirmed_root: bytes

    def log_line(self) -> str:
        h = self.header
        return ",".join(
            [
                str(h.height),
                h.parent_hash.hex(),
                h.root_rand.hex(),
                h.root_opt.hex(),
                str(h.nonce),
                self.block_hash.hex(),
                str(self.toss),
            ]
        )


def coin_toss(block_hash: bytes, difficulty: Difficulty) -> int:
    """Toss outcome for a mined hash: 0 below the phi threshold, else 1.

    Only hashes below the mining target are admissible; over those the hash
    value is uniform, so outcome 0 occurs with probability phi exactly.
    """
    value = int.from_bytes(block_hash, "big")
    if value >= difficulty.target:
        raise DomainError("coin toss is only defined for a mined (below-target) hash")
    return 0 if value < difficulty.toss_threshold else 1


def _search_python(prefix: bytes, start: int, max_trials: int, target32: bytes):
    midstate = hashlib.sha256(prefix)  # hashed once, copied per nonce
    nonce = start
    for _ in range(max_trials):
        h = midstate.copy()
        h.update(nonce.to_bytes(8, "big"))
        digest = h.digest()
        if digest < target32:
            return nonce, digest
        nonce = (nonce + 1) & 0xFFFFFFFFFFFFFFFF
    return None


def _search(prefix: bytes, start: int, max_trials: int, target: int):
    if target >= 1 << 256:
        # every digest clears the target; the first nonce mines
        digest = hashlib.sha256(prefix + start.to_bytes(8, "big")).digest()
        return start, digest
    target32 = target.to_bytes(32, "big")
    if _noncesearch is not None:
        return _noncesearch.search(prefix, start, max_trials, target32)
    return _search_python(prefix, start, max_trials, target32)


def mine_block(
    parent_hash: bytes,
    root_rand: bytes,
    root_opt: bytes,
    difficulty: Difficulty,
    seed: int,
    height: int = 0,
    max_trials: int = DEFAULT_MAX_TRIALS,
) -> MinedBlock:
    """Scan nonces from a seeded start until the header hash beats the target."""
    _check_int("max_trials", max_trials, 0, (1 << 64) - 1)  # the C search takes a uint64
    start = random.Random(seed).getrandbits(64)
    template = BlockHeader(parent_hash, root_rand, root_opt, height, 0)
    found = _search(template.prefix_bytes(), start, max_trials, difficulty.target)
    if found is None:
        raise MiningTimeoutError(
            f"no nonce below target within {max_trials} trials (height {height})"
        )
    nonce, digest = found
    header = BlockHeader(parent_hash, root_rand, root_opt, height, nonce)
    toss = coin_toss(digest, difficulty)
    confirmed = root_rand if toss == 0 else root_opt
    return MinedBlock(header, digest, toss, confirmed)


def mine_chain(
    k: int,
    difficulty: Difficulty,
    seed: int,
    max_trials: int = DEFAULT_MAX_TRIALS,
) -> List[MinedBlock]:
    """Mine `k` blocks in sequence, each linking to its predecessor.

    The first links to an all-zero genesis hash; each height gets distinct
    placeholder roots derived from the height.
    """
    _check_int("block count", k)
    blocks: List[MinedBlock] = []
    parent = bytes(32)
    for h in range(k):
        root_rand = hash_bytes(b"rand" + h.to_bytes(8, "big"))
        root_opt = hash_bytes(b"opt" + h.to_bytes(8, "big"))
        block = mine_block(parent, root_rand, root_opt, difficulty, seed=seed + h, height=h,
                           max_trials=max_trials)
        blocks.append(block)
        parent = block.block_hash
    return blocks


def mine_many(
    count: int,
    difficulty: Difficulty,
    seed: int,
    max_trials: int = DEFAULT_MAX_TRIALS,
    workers: int = 1,
) -> List[MinedBlock]:
    """Mine `count` independent blocks (distinct roots, the all-zero parent hash).

    Results are ordered by block index regardless of scheduling, so the output
    is deterministic for any worker count.  The C search loop releases the
    GIL, letting a thread pool use several cores.
    """
    _check_int("block count", count)
    _check_int("workers", workers, 1)

    def job(i: int) -> MinedBlock:
        root_rand = hash_bytes(b"rand" + i.to_bytes(8, "big"))
        root_opt = hash_bytes(b"opt" + i.to_bytes(8, "big"))
        return mine_block(
            bytes(32), root_rand, root_opt, difficulty,
            seed=seed + i, height=i, max_trials=max_trials,
        )

    if workers <= 1:
        return [job(i) for i in range(count)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(job, range(count)))


def chain_log(blocks: Iterable[MinedBlock]) -> str:
    """Line-delimited log: height,parent_hash,root_rand,root_opt,nonce,block_hash,toss."""
    return "".join(b.log_line() + "\n" for b in blocks)
