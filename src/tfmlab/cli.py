"""Command-line experiment runner.

Subcommands: ``sweep-rtfm``, ``sweep-stfm``, ``audit``, ``mine-demo``,
``tune-gamma`` and ``info``.  Exit codes: 0 on success, 1 on usage errors, 2
on runtime errors (bad config, IO failures, infeasible searches).
"""

from __future__ import annotations

import os
import platform
import sys
import time
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Optional, Sequence

from . import _streams, alloc, chain
from . import audit as audit_mod
from .errors import (
    ConfigError,
    DomainError,
    MiningTimeoutError,
    ParameterError,
    SolverLimitError,
)
from .experiments import (
    emit_csv,
    experiment_from_fields,
    plot_data_table,
    run_rtfm_sweep,
    run_stfm_sweep,
)
from .mech import (
    AllocationKind,
    config_value,
    parse_config_text,
    parse_config_value,
    spec_from_fields,
)
from .txpool import sample_mempool

_ERRORS = (ConfigError, ParameterError, DomainError, SolverLimitError, MiningTimeoutError, OSError)
_PROPERTIES = ("zti", "monotonicity", "uic", "mic", "cof")


def _config_with_overrides(args):
    with open(args.config) as fh:
        fields = parse_config_text(fh.read())
    if args.seed is not None:
        fields["seed"] = parse_config_value("seed", args.seed)
    if getattr(args, "out", None):
        fields["out"] = args.out
    return fields


def _cmd_sweep(args) -> int:
    """Run the subcommand's sweep; the CSV goes to the config's `out` (which
    --out overrides), else a table goes to standard output."""
    cfg = experiment_from_fields(_config_with_overrides(args))
    rows = args.sweep(cfg)
    if cfg.output_path:
        emit_csv(rows, cfg.output_path)
        print(f"wrote {len(rows)} sweep rows to {cfg.output_path}")
    else:
        print(plot_data_table(rows), end="")
    if args.plot_data:
        with open(args.plot_data, "w") as fh:
            fh.write(plot_data_table(rows))
    return 0


def _cmd_audit(args) -> int:
    fields = _config_with_overrides(args)
    get = partial(config_value, fields)
    prop = args.property or get("property")
    if prop not in _PROPERTIES:
        raise ConfigError(f"unknown audit property {prop!r}")
    spec = spec_from_fields(fields)  # as stated: no parameter comes from a sweep grid
    seed, capacity = get("seed"), get("capacity")
    m = sample_mempool(get("n"), get("bids"), get("sizes"), seed=seed)
    trials = get("trials")  # the schema default, 1000, is the audit's

    if prop == "zti":
        report = audit_mod.estimate_zti(spec, m, capacity, trials, seed)
    elif prop == "monotonicity":
        report = audit_mod.estimate_monotonicity(spec, m, get("target_tx"), get("epsilons"),
                                                 trials, seed, capacity=capacity)
    elif prop == "uic":
        user = get("user")
        theta = m.get(user).valuation
        grid = fields["bid_grid"] if "bid_grid" in fields else sorted(
            {theta * f for f in (0.5, 0.8, 1.0, 1.2)})
        report = audit_mod.check_uic(spec, m, capacity, user, grid, trials, seed)
    elif prop == "mic":
        report = audit_mod.search_mic_deviation(spec, m, capacity, get("fake_budget"),
                                                get("fake_bid_grid"), seed, trials=trials)
    else:
        cof = audit_mod.empirical_cof(spec, m, capacity, trials, seed)
        print(f"opt_utility={cof.opt_utility:.9g}")
        print(f"mech_utility_mean={cof.mech_utility_mean:.9g}")
        print(f"cof={cof.cof:.9g}")
        if cof.closed_form is not None:
            print(f"closed_form={cof.closed_form:.9g}")
        if cof.cov is not None:
            print(f"cov={cof.cov:.9g}")
        return 0
    print(report.to_text(), end="")
    return 0


def _parse_phi(text: str) -> Fraction:
    try:
        phi = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"--phi must be a fraction such as 1/4, got {text!r}") from None
    if not 0 <= phi <= 1:
        raise ConfigError(f"--phi must lie in [0, 1], got {text}")
    return phi


def _cmd_mine_demo(args) -> int:
    phi = _parse_phi(args.phi)
    if not 0 <= args.target_bits <= 256:
        raise ConfigError(f"--target-bits must lie in [0, 256], got {args.target_bits}")
    if args.blocks < 0:
        raise ConfigError(f"--blocks must be non-negative, got {args.blocks}")
    difficulty = chain.Difficulty(1 << args.target_bits, phi.numerator, phi.denominator)
    blocks = chain.mine_chain(args.blocks, difficulty, seed=args.seed or 0)
    log = chain.chain_log(blocks)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(log)
        print(f"wrote {args.blocks} blocks to {args.out}")
    else:
        print(log, end="")
    return 0


def _cmd_tune_gamma(args) -> int:
    fields = _config_with_overrides(args)
    get = partial(config_value, fields)
    # the tuner searches the temperature itself; any placeholder validates
    if fields.get("allocation") is AllocationKind.SOFTMAX:
        fields.setdefault("gamma", 1.0)
    spec_from_fields(fields)  # validates the mechanism as stated
    gamma = audit_mod.tune_gamma(
        sample_mempool(get("n"), get("bids"), get("sizes"), seed=get("seed")),
        get("capacity"),
        alpha_target=get("alpha_target"),
        phi_ratio=get("phi_ratio"),
        gamma_lo=get("gamma_lo"),
        gamma_hi=get("gamma_hi"),
        trials=fields.get("trials", 500),  # tune-gamma's own default, not the audit's 1000
        seed=get("seed"),
    )
    print(f"gamma_star={gamma:.6g}")
    return 0


def _cmd_info(args) -> int:
    import numpy

    from . import __version__

    helper = chain._noncesearch  # None when mining falls back to hashlib
    backend, path, trials = "hashlib", "", 1 << 16
    if helper is not None:
        path, trials = helper.__file__, 1 << 20
        where = "packaged" if Path(path).parent == Path(chain.__file__).parent else "cached"
        backend = f"{where} C ({helper.BACKEND})"
    # `trials` nonces of one header, against a target no digest meets
    prefix = chain.BlockHeader(bytes(32), bytes(32), bytes(32), 0, 0).prefix_bytes()
    start = time.perf_counter()
    chain._search(prefix, 0, trials, 1)
    rate = trials / (time.perf_counter() - start) / 1e6
    merkle = "hashlib" if chain._merkle_root_c is None else "C (sha-ni-x2)"
    walk = "python" if alloc._walk_rows_c is None else "C"
    draws = "python" if _streams._draws_c is None else "C"
    for key, value in (("version", __version__), ("hash_backend", backend),
                       ("hash_helper_path", path), ("merkle_backend", merkle),
                       ("walk_backend", walk), ("draw_backend", draws),
                       ("hash_rate_mhs", f"{rate:.3g}"),
                       ("python", platform.python_version()), ("numpy", numpy.__version__),
                       ("nproc", os.cpu_count())):
        print(f"{key}={value}")
    return 0


def build_parser():
    import argparse

    parser = argparse.ArgumentParser(
        prog="tfmlab",
        description="Transaction fee mechanism laboratory: sweeps, audits, and desk-scale mining.",
    )
    sub = parser.add_subparsers(dest="command")

    def add_common(p, writes_file=False):
        p.add_argument("--config", required=True, help="flat key=value config file")
        p.add_argument("--seed", default=None,
                       help="override the config seed (a non-negative integer)")
        if writes_file:
            p.add_argument("--out", default=None, help="output path; overrides the config's out")

    for name, sweep, about in (
            ("sweep-rtfm", run_rtfm_sweep, "bias sweep for the randomized two-set mechanism"),
            ("sweep-stfm", run_stfm_sweep,
             "temperature/size-ratio sweep for the softmax mechanism")):
        p = sub.add_parser(name, help=about)
        add_common(p, writes_file=True)
        p.add_argument("--plot-data", default=None, help="also write a gnuplot table here")
        p.set_defaults(func=_cmd_sweep, sweep=sweep)

    p = sub.add_parser("audit", help="run a property auditor against a config")
    add_common(p)
    p.add_argument("--property", choices=_PROPERTIES, default=None)
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("mine-demo", help="mine a short chain and print the toss log")
    p.add_argument("--blocks", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.add_argument("--phi", default="1/2", help="toss bias as an exact fraction, e.g. 1/4")
    p.add_argument("--target-bits", type=int, default=240,
                   help="mining target is 2**target_bits")
    p.set_defaults(func=_cmd_mine_demo)

    p = sub.add_parser("tune-gamma", help="search the smallest acceptable softmax temperature")
    add_common(p)
    p.set_defaults(func=_cmd_tune_gamma)

    p = sub.add_parser("info", help="print the version, hash backend and rate, Python, numpy, nproc")
    p.set_defaults(func=_cmd_info)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    if not argv:
        parser.print_usage(sys.stderr)
        return 1
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    if not getattr(args, "command", None):
        parser.print_usage(sys.stderr)
        return 1
    try:
        return args.func(args)
    except _ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
