"""Correctness checks on workload outputs.

Each check function returns ``{check name: passed}``.  The functions read only
the output formats (sweep CSV text, chain-log text, report fields), so they
keep working when tfmlab's internals change.
"""

from __future__ import annotations

import hashlib
import math
from typing import Dict, List, Optional, Sequence, Tuple

SWEEP_HEADER = "sweep_value,normalized_revenue,revenue_stderr,zero_fee_fraction,zff_stderr,cof,zfi"
GENESIS_HEX = "00" * 32


def csv_rows(text: str) -> List[List[float]]:
    lines = text.splitlines()
    if not lines or lines[0] != SWEEP_HEADER:
        raise ValueError(f"unexpected sweep CSV header {lines[:1]!r}")
    return [[float(v) for v in line.split(",")] for line in lines[1:]]


def close(a: float, b: float, rel: float) -> bool:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return True
    return abs(a - b) <= rel * max(abs(a), abs(b))


def rows_close(rows: List[List[float]], ref: List[List[float]], rel: float) -> bool:
    return len(rows) == len(ref) and all(
        len(r) == len(q) and all(close(a, b, rel) for a, b in zip(r, q)) for r, q in zip(rows, ref))


def check_sweep(text: str, grid: Sequence[float], first_text: Optional[str],
                reference_text: Optional[str]) -> Dict[str, bool]:
    """Shape, stability across passes, and agreement with the recorded rows."""
    rows = csv_rows(text)
    out = {"csv_rows_on_grid": [r[0] for r in rows] == list(grid)}
    if first_text is not None:
        out["csv_bytes_stable_across_passes"] = text == first_text
    if reference_text is not None:
        out["rows_match_reference_rel_1e-9"] = rows_close(rows, csv_rows(reference_text), 1e-9)
    return out


def check_phi_trends(text: str) -> Dict[str, bool]:
    """Seed-free facts of the stratified two-set sweep.

    Branch-1 runs earn exactly the optimum and branch-0 runs earn nothing, so
    normalized revenue is 1 - phi up to the stratification rounding; the runs
    in branch 0 only grow with phi, so the zero-fee fraction never falls.
    """
    rows = csv_rows(text)
    zff = [r[3] for r in rows]
    return {
        "revenue_within_0.03_of_1-phi": all(abs(r[1] - (1 - r[0])) <= 0.03 for r in rows),
        "zero_fee_fraction_nondecreasing": all(b >= a - 1e-12 for a, b in zip(zff, zff[1:])),
    }


def verdict_matches(report, expected: str, witness: Optional[dict] = None) -> bool:
    """The report's verdict (by its string value) and the named witness entries."""
    if report.verdict.value != expected:
        return False
    return all((report.witness or {}).get(k) == v for k, v in (witness or {}).items())


def cof_matches(report, phi: float) -> bool:
    """Empirical cost of fairness within 5% of the closed form 1 / (1 - phi)."""
    target = 1.0 / (1.0 - phi)
    return abs(report.cof - target) / target < 0.05


def check_chain_log(log: str, target: int, phi_num: int, phi_den: int,
                    roots: Sequence[Tuple[bytes, bytes]], tosses: Sequence[int]) -> Dict[str, bool]:
    """Re-verify a chain log from its text alone.

    Each line is ``height,parent_hash,root_rand,root_opt,nonce,block_hash,toss``;
    the header serializes as parent || root_rand || root_opt || height(8 BE) ||
    nonce(8 BE).  `roots` are the Merkle roots the allocation layer returned and
    `tosses` the outcomes `coin_toss` returned, both per height.
    """
    fields = [line.split(",") for line in log.splitlines()]
    threshold = phi_num * target // phi_den
    rehash = below = toss_ok = links = roots_ok = True
    parent = GENESIS_HEX
    for h, f in enumerate(fields):
        height, parent_hex, rand_hex, opt_hex, nonce, hash_hex, toss = f
        header = (bytes.fromhex(parent_hex) + bytes.fromhex(rand_hex) + bytes.fromhex(opt_hex)
                  + int(height).to_bytes(8, "big") + int(nonce).to_bytes(8, "big"))
        value = int(hash_hex, 16)
        rehash &= hashlib.sha256(header).hexdigest() == hash_hex
        below &= value < target
        recomputed = 0 if value < threshold else 1
        toss_ok &= h < len(tosses) and int(toss) == recomputed == tosses[h]
        links &= parent_hex == parent
        roots_ok &= h < len(roots) and (rand_hex, opt_hex) == (roots[h][0].hex(), roots[h][1].hex())
        parent = hash_hex
    return {
        "one_line_per_height": [int(f[0]) for f in fields] == list(range(len(roots))),
        "headers_rehash_to_block_hash": rehash,
        "hashes_below_target": below,
        "toss_recomputes_from_hash": toss_ok,
        "parent_links_hold": links,
        "roots_match_rtfm_sample": roots_ok,
    }
