import functools
import hashlib
import itertools
import logging
import math
import os
import shutil
import sysconfig

import pytest

from tfmlab import (
    BlockHeader,
    Difficulty,
    DomainError,
    MiningTimeoutError,
    ParameterError,
    chain_log,
    coin_toss,
    hash_bytes,
    merkle_root,
    mine_block,
    mine_chain,
    mine_many,
)
from tfmlab import chain as chain_mod

H = hash_bytes
EASY = Difficulty(1 << 250, 1, 2)


def test_sha256_standard_vectors():
    assert H(b"").hex() == "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    assert H(b"abc").hex() == "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    assert H(b"whatever") == H(b"whatever")


def test_merkle_small_trees():
    a, b, c = b"a", b"b", b"c"
    assert merkle_root([a]) == H(a)
    assert merkle_root([a, b]) == H(H(a) + H(b))
    # odd level duplicates its last node
    assert merkle_root([a, b, c]) == H(H(H(a) + H(b)) + H(H(c) + H(c)))
    with pytest.raises(DomainError):
        merkle_root([])


def test_merkle_order_sensitivity():
    leaves = [bytes([i]) for i in range(6)]
    root = merkle_root(leaves)
    assert merkle_root(leaves) == root
    swapped = leaves[:4] + [leaves[5], leaves[4]]
    assert merkle_root(swapped) != root


def test_header_serialization_is_canonical():
    h = BlockHeader(b"\x01" * 32, b"\x02" * 32, b"\x03" * 32, height=7, nonce=99)
    raw = h.serialize()
    assert len(raw) == 112
    assert raw[:32] == b"\x01" * 32
    assert raw[96:104] == (7).to_bytes(8, "big")
    assert raw[104:112] == (99).to_bytes(8, "big")
    with pytest.raises(ParameterError):
        BlockHeader(b"\x01" * 31, b"\x02" * 32, b"\x03" * 32, 0, 0)


def test_difficulty_validation_and_threshold():
    d = Difficulty(1 << 240, 1, 4)
    assert d.toss_threshold == (1 << 240) // 4
    assert Difficulty(1 << 240, 1, 3).toss_threshold == (1 << 240) // 3
    with pytest.raises(ParameterError):
        Difficulty(0, 1, 2)
    with pytest.raises(ParameterError):
        Difficulty(1 << 240, 3, 2)


def test_coin_toss_edges():
    d = Difficulty(1 << 240, 1, 2)
    assert coin_toss(b"\x00" * 32, d) == 0
    top = ((1 << 240) - 1).to_bytes(32, "big")
    assert coin_toss(top, d) == 1
    with pytest.raises(DomainError):
        coin_toss((1 << 240).to_bytes(32, "big"), d)


def test_coin_toss_half_frequency_over_uniform_hashes():
    import numpy as np

    d = Difficulty(1 << 240, 1, 2)
    rng = np.random.default_rng(0)
    trials = 20_000
    zeros = sum(
        coin_toss(int(rng.integers(0, 1 << 60)).to_bytes(32, "big"), d) == 0
        for _ in range(trials)
    )
    # all draws sit far below the threshold, degenerate check
    assert zeros == trials
    zeros = 0
    for _ in range(trials):
        value = int(rng.integers(0, 1 << 62)) << 178  # spread across [0, target)
        zeros += coin_toss(value.to_bytes(32, "big"), d) == 0
    se = math.sqrt(0.25 / trials)
    assert abs(zeros / trials - 0.5) < 4 * se


def test_mine_block_trivial_biases():
    blk = mine_block(b"\x00" * 32, H(b"r"), H(b"o"), Difficulty(1 << 250, 0, 1), seed=4)
    assert blk.toss == 1 and blk.confirmed_root == H(b"o")
    blk = mine_block(b"\x00" * 32, H(b"r"), H(b"o"), Difficulty(1 << 250, 1, 1), seed=4)
    assert blk.toss == 0 and blk.confirmed_root == H(b"r")


def test_mine_block_deterministic_and_verifiable():
    blk = mine_block(b"\x07" * 32, H(b"x"), H(b"y"), EASY, seed=11)
    again = mine_block(b"\x07" * 32, H(b"x"), H(b"y"), EASY, seed=11)
    assert blk == again
    # any third party can recompute hash and toss from the header alone
    assert hash_bytes(blk.header.serialize()) == blk.block_hash
    assert int.from_bytes(blk.block_hash, "big") < EASY.target
    assert coin_toss(blk.block_hash, EASY) == blk.toss


def test_mine_block_timeout():
    hard = Difficulty(1 << 160, 1, 2)
    with pytest.raises(MiningTimeoutError):
        mine_block(b"\x00" * 32, H(b"r"), H(b"o"), hard, seed=0, max_trials=50)


def test_python_and_c_search_agree():
    prefix = bytes(range(104))
    target32 = (1 << 244).to_bytes(32, "big")
    py = chain_mod._search_python(prefix, 5000, 1 << 22, target32)
    assert py is not None
    # an easy target hit only after the nonce wraps past 2^64 - 1
    wrap_start = (1 << 64) - 3
    easy32 = (1 << 252).to_bytes(32, "big")
    py_wrap = chain_mod._search_python(prefix, wrap_start, 1 << 16, easy32)
    assert py_wrap is not None and py_wrap[0] < wrap_start
    if chain_mod._noncesearch is not None:
        assert chain_mod._noncesearch.search(prefix, 5000, 1 << 22, target32) == py
        assert chain_mod._noncesearch.search(prefix, wrap_start, 1 << 16, easy32) == py_wrap


needs_helper = pytest.mark.skipif(chain_mod._noncesearch is None,
                                  reason="the C nonce search is not available")
KERNELS = ["search", "_search_portable"]


def _digests(prefix, count):
    return [hash_bytes(prefix + n.to_bytes(8, "big")) for n in range(count)]


def test_helper_names_its_backend():
    if chain_mod._noncesearch is not None:
        assert chain_mod._noncesearch.BACKEND in ("avx512-x16", "sha-ni-x2", "avx2-x8",
                                                  "portable")


@needs_helper
def test_loaded_helper_is_the_build_of_the_current_source():
    # the helper has one build, in the cache directory named by its source's hash, so an
    # edited source never runs an older build
    digest = hashlib.sha256(chain_mod._NONCESEARCH_SOURCE.read_bytes()).hexdigest()
    loaded = os.path.dirname(os.path.realpath(chain_mod._noncesearch.__file__))
    assert loaded == os.path.realpath(chain_mod._cache_dir() / digest)


@pytest.mark.parametrize("path", ["helper", "hashlib"])
@pytest.mark.parametrize("length", [0, 40, 103, 105])
def test_search_refuses_a_prefix_that_is_not_the_header_on_both_paths(path, length,
                                                                       monkeypatch):
    if path == "hashlib":
        monkeypatch.setattr(chain_mod, "_noncesearch", None)
    elif chain_mod._noncesearch is None:
        pytest.skip("the C nonce search is not available")
    prefix = bytes(range(length))
    for target in (1 << 255, 1 << 256):  # a target every digest clears is checked too
        with pytest.raises(ParameterError, match=f"104-byte block header prefix, got {length}"):
            chain_mod._search(prefix, 0, 10, target)
    header = bytes(range(104))
    assert chain_mod._search(header, 0, 10, 1 << 255) == \
        chain_mod._search_python(header, 0, 10, (1 << 255).to_bytes(32, "big"))


@needs_helper
@pytest.mark.parametrize("kernel", KERNELS)
# one and two final blocks, either side of each padding edge, and either side of the header
@pytest.mark.parametrize("length", [0, 40, 47, 48, 55, 56, 60, 63, 64, 103, 105, 120])
def test_kernel_refuses_a_prefix_that_is_not_the_header(kernel, length):
    search = getattr(chain_mod._noncesearch, kernel)
    prefix = bytes((7 * i + length) % 256 for i in range(length))
    target32 = bytes([255] * 32)
    with pytest.raises(ValueError, match="104-byte block header"):
        search(prefix, 9, 1, target32)
    # the hashlib fallback still hashes any prefix
    assert chain_mod._search_python(prefix, 9, 1, target32) == \
        (9, hash_bytes(prefix + (9).to_bytes(8, "big")))


@needs_helper
@pytest.mark.parametrize("kernel", KERNELS)
def test_kernel_returns_the_first_hit_of_a_pair(kernel):
    search = getattr(chain_mod._noncesearch, kernel)
    prefix = next(p for p in (bytes([i]) * 104 for i in range(256))
                  if _digests(p, 2)[1] < _digests(p, 2)[0])
    d0, d1 = _digests(prefix, 2)
    both = (int.from_bytes(d0, "big") + 1).to_bytes(32, "big")
    assert search(prefix, 0, 2, both) == (0, d0)
    second = (int.from_bytes(d1, "big") + 1).to_bytes(32, "big")
    assert search(prefix, 0, 2, second) == (1, d1)
    assert search(prefix, 0, 1, second) is None
    assert search(prefix, 1, 1, second) == (1, d1)
    assert search(prefix, 0, 0, both) is None


@needs_helper
@pytest.mark.parametrize("kernel", KERNELS)
def test_kernel_stops_exactly_at_an_odd_budget(kernel):
    search = getattr(chain_mod._noncesearch, kernel)
    prefix = bytes(range(104))
    digests = _digests(prefix, 256)
    # nonces whose digest is below every earlier one, at odd and even offsets
    records = [n for n in range(1, 256) if digests[n] < min(digests[:n])]
    for n in (next(n for n in records if n % 2), next(n for n in records if n % 2 == 0)):
        target32 = (int.from_bytes(digests[n], "big") + 1).to_bytes(32, "big")
        assert search(prefix, 0, n, target32) is None
        assert search(prefix, 0, n + 1, target32) == (n, digests[n])


@needs_helper
@pytest.mark.parametrize("kernel", KERNELS)
def test_kernel_pairs_straddle_the_nonce_wrap(kernel):
    search = getattr(chain_mod._noncesearch, kernel)
    last = (1 << 64) - 1

    def wrap_digests(p):
        return hash_bytes(p + last.to_bytes(8, "big")), hash_bytes(p + bytes(8))

    prefix = next(p for p in (bytes([i]) * 104 for i in range(256))
                  if wrap_digests(p)[1] < wrap_digests(p)[0])
    top, zero = wrap_digests(prefix)
    both = (int.from_bytes(top, "big") + 1).to_bytes(32, "big")
    assert search(prefix, last, 2, both) == (last, top)
    after_wrap = (int.from_bytes(zero, "big") + 1).to_bytes(32, "big")
    assert search(prefix, last, 2, after_wrap) == (0, zero)
    assert search(prefix, last, 1, after_wrap) is None


# every kernel of the helper, in the order it prefers them
KERNEL_NAMES = ["avx512-x16", "sha-ni-x2", "avx2-x8", "portable"]


def _kernel_search(name):
    """The helper's search on kernel `name` alone; skips where the CPU lacks it."""
    if chain_mod._noncesearch is None:
        pytest.skip("the C nonce search is not available")
    search = getattr(chain_mod._noncesearch, "_search_" + name.replace("-", "_"), None)
    if search is None:
        pytest.skip(f"this CPU does not offer the {name} kernel")
    return search


def _first_hit(prefix, start, digests, target):
    """(nonce, digest) of the first of `digests` (nonces start, start+1, ...) below target."""
    for k, digest in enumerate(digests):
        if digest < target:
            return (start + k) % (1 << 64), digest
    return None


def _run_digests(prefix, start, count):
    return [hash_bytes(prefix + ((start + k) % (1 << 64)).to_bytes(8, "big"))
            for k in range(count)]


def _above(digest):
    return (int.from_bytes(digest, "big") + 1).to_bytes(32, "big")


@functools.lru_cache(maxsize=None)
def _record_prefix(start, k):
    """A 104-byte prefix whose digest at nonce start + k is below those of start..start+k-1."""
    for i in itertools.count():
        prefix = i.to_bytes(8, "big") * 13
        digests = _run_digests(prefix, start, k + 1)
        if k == 0 or digests[k] < min(digests[:k]):
            return prefix, digests[k]


@needs_helper
def test_backend_is_the_first_kernel_the_cpu_offers():
    offered = [name for name in KERNEL_NAMES
               if hasattr(chain_mod._noncesearch, "_search_" + name.replace("-", "_"))]
    assert offered[-1] == "portable"
    assert chain_mod._noncesearch.BACKEND == offered[0]


@pytest.mark.parametrize("name", KERNEL_NAMES)
def test_every_kernel_hashes_only_the_header_prefix_and_agrees_with_hashlib(name):
    search = _kernel_search(name)
    # the helper hashes the one header the lab mines: any other prefix is refused
    for length in (0, 40, 103, 105, 120):
        with pytest.raises(ValueError, match="104-byte block header"):
            search(bytes(length), 0, 1, bytes(32))
    for i in range(8):
        prefix = hash_bytes(bytes([i])) * 3 + hash_bytes(bytes([i, i]))[:8]
        for start in (0, (1 << 32) - 3, (1 << 64) - 5):
            for bits, trials in ((256, 1), (251, 33), (1, 17)):
                target32 = ((1 << bits) - 1).to_bytes(32, "big")
                assert search(prefix, start, trials, target32) == \
                    chain_mod._search_python(prefix, start, trials, target32), (i, start, bits)


@pytest.mark.parametrize("name", KERNEL_NAMES)
def test_every_kernel_stops_exactly_at_each_budget(name):
    search = _kernel_search(name)
    prefix = bytes(range(104))
    # from zero, and from 20 nonces below a change of the high nonce word: a carry out of
    # the low word, and the wrap past 2^64 - 1; a group of lanes then straddles the
    # change, and the groups on either side hash with the old and the new high word
    for start in (0, (1 << 32) - 20, (1 << 64) - 20):
        for budget in [*range(1, 18), 31, 32, 33]:
            digests = _run_digests(prefix, start, budget + 1)
            # a target just above each digest, the one past the budget included
            for digest in digests:
                target = _above(digest)
                assert search(prefix, start, budget, target) == \
                    _first_hit(prefix, start, digests[:budget], target), \
                    (start, budget, digest.hex())
    # each of the 33 nonces around a change is the first hit on a prefix of its own, so every
    # lane on both sides of it is screened once
    for start in ((1 << 32) - 20, (1 << 64) - 20):
        for k in range(33):
            record, digest = _record_prefix(start, k)
            assert search(record, start, k + 1, _above(digest)) == \
                ((start + k) % (1 << 64), digest), (start, k)
            assert search(record, start, k, _above(digest)) is None, (start, k)


@pytest.mark.parametrize("name", KERNEL_NAMES)
def test_every_kernel_returns_the_first_of_two_hits_in_one_group(name):
    search = _kernel_search(name)

    def two_hits(p):
        # an aligned pair i, i+1 in nonces 2..15, both below every earlier digest
        digests = _run_digests(p, 0, 16)
        for i in range(2, 16, 2):
            if digests[i] < min(digests[:i]) and digests[i + 1] < digests[i]:
                return i, digests
        return None

    prefix, (i, digests) = next((p, found) for p in (bytes([k]) * 104 for k in range(256))
                                if (found := two_hits(p)) is not None)
    assert search(prefix, 0, 16, _above(digests[i])) == (i, digests[i])
    assert search(prefix, 0, 16, _above(digests[i + 1])) == (i + 1, digests[i + 1])
    assert search(prefix, 0, i + 1, _above(digests[i + 1])) is None
    assert search(prefix, i + 1, 15 - i, _above(digests[i])) == (i + 1, digests[i + 1])


@pytest.mark.parametrize("name", KERNEL_NAMES)
@pytest.mark.parametrize("start", [(1 << 32) - 5, (1 << 64) - 5])
def test_every_kernel_carries_the_nonce_across_a_word_in_one_group(name, start):
    # the low nonce word wraps five nonces in: into the high word, or past 2^64 to zero
    search = _kernel_search(name)
    prefix = bytes(range(104))
    digests = _run_digests(prefix, start, 16)
    for digest in digests:
        target = _above(digest)
        assert search(prefix, start, 16, target) == _first_hit(prefix, start, digests, target)


needs_build_tools = pytest.mark.skipif(
    (shutil.which("cc") or shutil.which("gcc")) is None
    or not os.path.isfile(os.path.join(sysconfig.get_paths()["include"], "Python.h")),
    reason="needs a C compiler and Python.h",
)


@needs_build_tools
def test_noncesearch_builds_into_cache_then_loads_without_compiling(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    built = chain_mod._cached_noncesearch()
    assert built is not None
    files = list(tmp_path.glob("tfmlab/*/_noncesearch*"))
    assert len(files) == 1

    def no_compile(source, dest):
        raise AssertionError("a warm cache must not compile")

    monkeypatch.setattr(chain_mod, "_compile_noncesearch", no_compile)
    warm = chain_mod._cached_noncesearch()
    assert warm is not None and os.path.samefile(warm.__file__, files[0])
    prefix = bytes(range(104))
    target32 = (1 << 246).to_bytes(32, "big")
    assert warm.search(prefix, 77, 1 << 20, target32) == \
        chain_mod._search_python(prefix, 77, 1 << 20, target32)


def test_noncesearch_without_compiler_falls_back_with_warning(tmp_path, monkeypatch, caplog):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setenv("PATH", str(tmp_path / "no-bin"))
    with caplog.at_level(logging.WARNING, logger="tfmlab"):
        assert chain_mod._cached_noncesearch() is None
    assert "no C compiler" in caplog.text and "hashlib" in caplog.text
    # a missing compiler is not recorded: a later run with one builds
    assert not list(tmp_path.glob("tfmlab/*/build-failed"))


def test_failed_build_is_recorded_and_not_retried(tmp_path, monkeypatch, caplog):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(chain_mod, "_missing_build_tool", lambda: None)
    calls = []

    def failing_compile(source, dest):
        calls.append(dest)
        return "compile failed: synthetic error"

    monkeypatch.setattr(chain_mod, "_compile_noncesearch", failing_compile)
    with caplog.at_level(logging.WARNING, logger="tfmlab"):
        assert chain_mod._cached_noncesearch() is None
    assert len(calls) == 1 and "synthetic error" in caplog.text
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="tfmlab"):
        assert chain_mod._cached_noncesearch() is None
    assert len(calls) == 1
    assert caplog.text.count("C nonce search unavailable") == 1
    assert "synthetic error" in caplog.text and "build-failed" in caplog.text


@needs_build_tools
def test_noncesearch_unwritable_cache_falls_back_with_warning(tmp_path, monkeypatch, caplog):
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
    with caplog.at_level(logging.WARNING, logger="tfmlab"):
        assert chain_mod._cached_noncesearch() is None
    assert "not writable" in caplog.text and "hashlib" in caplog.text


def test_mine_many_is_order_deterministic_across_workers():
    one = mine_many(12, EASY, seed=3, workers=1)
    two = mine_many(12, EASY, seed=3, workers=2)
    assert one == two


@pytest.mark.parametrize("mine", [mine_chain, mine_many])
def test_a_negative_block_count_is_a_parameter_error(mine):
    with pytest.raises(ParameterError, match="block count"):
        mine(-3, EASY, seed=1)
    assert mine(0, EASY, seed=1) == []


@pytest.mark.parametrize("count", [2.5, 2.0, "2", None])
@pytest.mark.parametrize("mine", [mine_chain, mine_many])
def test_a_block_count_is_a_whole_number(mine, count):
    with pytest.raises(ParameterError, match="block count must be an integer"):
        mine(count, EASY, seed=1)


@pytest.mark.parametrize("workers, error", [(0, "at least 1"), (1.5, "an integer")])
def test_mine_many_workers_are_a_whole_number_of_at_least_one(workers, error):
    with pytest.raises(ParameterError, match=f"workers must be {error}"):
        mine_many(2, EASY, seed=1, workers=workers)


@pytest.mark.parametrize("max_trials", [1.5, -1, None, 1 << 64, 1 << 70])
def test_mine_block_trial_budget_is_a_uint64(max_trials):
    # the C search would wrap 2**70 to a budget of 0 and -1 to 2**64 - 1
    with pytest.raises(ParameterError, match="max_trials must be"):
        mine_block(bytes(32), H(b"r"), H(b"o"), EASY, seed=1, max_trials=max_trials)
    with pytest.raises(ParameterError, match="max_trials must be"):
        mine_chain(1, EASY, seed=1, max_trials=max_trials)


@pytest.mark.parametrize("make, error", [
    (lambda: Difficulty(1 << 250, 0.5, 1), "phi_num must be an integer"),
    (lambda: Difficulty(1 << 250, 1, 2.0), "phi_den must be an integer"),
    (lambda: Difficulty(float(1 << 250), 1, 2), "target must be an integer"),
    (lambda: Difficulty((1 << 256) + 1, 1, 2), "target must be at most"),
    (lambda: BlockHeader(bytes(32), bytes(32), bytes(32), 1.5, 0), "height must be an integer"),
    (lambda: BlockHeader(bytes(32), bytes(32), bytes(32), 0, 2.0), "nonce must be an integer"),
    (lambda: BlockHeader(bytes(32), bytes(32), bytes(32), 1 << 64, 0), "height must be at most"),
    (lambda: BlockHeader(bytes(32), bytes(32), bytes(32), 0, -1), "nonce must be at least 0"),
])
def test_chain_integers_are_whole_numbers_in_range(make, error):
    # serialize() writes height and nonce as 8-byte integers, and the toss threshold is
    # exact integer arithmetic
    with pytest.raises(ParameterError, match=error):
        make()


def test_chain_links_and_log_format():
    blocks = mine_chain(5, EASY, seed=9)
    for prev, cur in zip(blocks, blocks[1:]):
        assert cur.header.parent_hash == prev.block_hash
    log = chain_log(blocks)
    lines = log.strip().split("\n")
    assert len(lines) == 5
    first = lines[0].split(",")
    assert first[0] == "0" and len(first) == 7
    assert first[5] == blocks[0].block_hash.hex()
    assert first[6] in ("0", "1")


def test_toss_frequency_at_easy_target():
    d = Difficulty(1 << 248, 1, 4)
    blocks = mine_many(4000, d, seed=77, workers=2)
    zeros = sum(b.toss == 0 for b in blocks)
    se = math.sqrt(0.25 * 0.75 / len(blocks))
    assert abs(zeros / len(blocks) - 0.25) < 4 * se


@pytest.mark.parametrize("c_entry", [True, False], ids=["default", "hashlib"])
def test_merkle_root_takes_any_iterable_and_an_empty_one_is_a_domain_error(c_entry, monkeypatch):
    if not c_entry:
        monkeypatch.setattr(chain_mod, "_merkle_root_c", None)
    with pytest.raises(DomainError):
        merkle_root(iter([]))
    with pytest.raises(DomainError):
        merkle_root(())
    leaves = [b"a", b"b", b"c"]
    assert merkle_root(iter(leaves)) == merkle_root(tuple(leaves)) == \
        chain_mod._merkle_root_hashlib(leaves)


needs_merkle_c = pytest.mark.skipif(chain_mod._merkle_root_c is None,
                                    reason="the C Merkle root needs the helper on a SHA-NI CPU")
MERKLE_LEAF_LENGTHS = [0, 1, 55, 56, 63, 64, 119, 120, 200]  # one, two and three blocks


@needs_merkle_c
@pytest.mark.parametrize("n", range(1, 71))
def test_c_merkle_root_agrees_with_hashlib_for_every_tree_shape(n):
    leaves = [bytes((31 * i + k) % 256 for k in range(MERKLE_LEAF_LENGTHS[i % 9]))
              for i in range(n)]
    assert chain_mod._merkle_root_c(leaves) == chain_mod._merkle_root_hashlib(leaves)


@needs_merkle_c
def test_c_merkle_root_mixes_leaf_lengths_and_buffer_types():
    leaves = [bytes(range(length)) for length in MERKLE_LEAF_LENGTHS]
    for order in (leaves, leaves[::-1], leaves[1::2] + leaves[::2]):
        assert chain_mod._merkle_root_c(order) == chain_mod._merkle_root_hashlib(order)
    views = [bytearray(b"left"), memoryview(bytes(range(100)))[3:70], b"right"]
    assert chain_mod._merkle_root_c(views) == chain_mod._merkle_root_hashlib(views)
    with pytest.raises(TypeError):
        chain_mod._merkle_root_c([b"a", "b"])
    with pytest.raises(TypeError):
        chain_mod._merkle_root_hashlib([b"a", "b"])
