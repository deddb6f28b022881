import glob
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from tfmlab import (
    BidDistribution,
    ConfigError,
    ExperimentConfig,
    MechanismSpec,
    PaymentKind,
    SweepRow,
    allocation_value,
    emit_csv,
    optimal_allocate,
    run_rtfm_sweep,
    run_stfm_sweep,
)
from tfmlab import _streams, alloc, chain, experiments, mech
from tfmlab.cli import main as cli_main
from tfmlab.experiments import (
    CSV_HEADER,
    experiment_from_fields,
    parse_config_text,
    plot_data_table,
)
from tfmlab.mech import AUDIT, CONFIG_KEYS, MECHANISM, POOL, SWEEP, AllocationKind
from tfmlab.txpool import sample_mempool

DEMOS = os.path.join(os.path.dirname(__file__), os.pardir, "demos")
SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")


def small_rtfm_cfg(**kw):
    base = dict(
        mechanism=MechanismSpec.rtfm(0.5),
        n=60,
        capacity=10.0,
        bid_dist=BidDistribution.censored_gaussian(4, 3),
        size_dist=BidDistribution.constant(1),
        sweep_param="phi",
        sweep_values=(0.0, 0.25, 0.5, 0.75, 1.0),
        runs=200,
        seed=11,
    )
    base.update(kw)
    return ExperimentConfig(**base)


def test_rtfm_sweep_endpoints_and_midpoint():
    rows = run_rtfm_sweep(small_rtfm_cfg())
    by_phi = {row.sweep_value: row for row in rows}
    assert by_phi[0.0].normalized_miner_revenue == pytest.approx(1.0)
    assert by_phi[1.0].normalized_miner_revenue == pytest.approx(0.0)
    assert by_phi[0.5].normalized_miner_revenue == pytest.approx(0.5, abs=0.03)
    zffs = [row.zero_fee_fraction for row in rows]
    assert all(b >= a - 1e-12 for a, b in zip(zffs, zffs[1:]))


def test_rtfm_sweep_rejects_wrong_mechanism():
    with pytest.raises(ConfigError):
        run_rtfm_sweep(small_rtfm_cfg(mechanism=MechanismSpec.stfm(1.0)))
    with pytest.raises(ConfigError):
        run_rtfm_sweep(small_rtfm_cfg(sweep_param="gamma", sweep_values=(1.0,)))


@pytest.mark.parametrize("field, value, message", [
    ("n", 0, "n must be at least 1"),
    ("n", -2, "n must be at least 1"),
    ("size_ratio", math.inf, "size_ratio must be finite"),
    ("size_ratio", math.nan, "size_ratio must be finite"),
    ("capacity", 0.0, "capacity must be positive and finite"),
    ("capacity", math.inf, "capacity must be positive and finite"),
    ("capacity", math.nan, "capacity must be positive and finite"),
])
def test_config_rejects_a_degenerate_pool_or_block(field, value, message):
    """Each would give a table of empty blocks, or fail only once runs start."""
    with pytest.raises(ConfigError, match=message):
        small_rtfm_cfg(**{field: value})
    with pytest.raises(ConfigError, match=message):
        small_rtfm_cfg(**{field: value}, mechanism=MechanismSpec.stfm(1.0),
                       sweep_param="gamma", sweep_values=(1.0,))


@pytest.mark.parametrize("field", ["runs", "n"])
@pytest.mark.parametrize("value", [2.5, 2.0, "2", None])
def test_config_counts_are_whole_numbers(field, value):
    # a fractional count fails when the config is built, not with a TypeError once runs start
    with pytest.raises(ConfigError, match=f"{field} must be an integer"):
        small_rtfm_cfg(**{field: value})


@pytest.mark.parametrize("seed, message", [(-1, "seed must be at least 0"),
                                           (2.5, "seed must be an integer")])
def test_config_checks_the_seed_when_built(seed, message):
    # such a seed used to build, then fail as a ParameterError from the sweep's first run
    with pytest.raises(ConfigError, match=message):
        ExperimentConfig(MechanismSpec.rtfm(0.5), n=10, capacity=2.0, runs=2, seed=seed)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("ratio", [10.0, 4.0, 1.5])
def test_stfm_greedy_comparator_is_the_public_greedy_value(seed, ratio):
    m = sample_mempool(1000, BidDistribution.uniform(0, 5), BidDistribution.exponential(1),
                       seed=[seed, 3])
    capacity = m.total_size() / ratio
    expected = allocation_value(m, optimal_allocate(m, capacity, exact=False))
    assert repr(experiments._greedy_value(m, capacity)) == repr(expected)


def test_stfm_sweep_cof_grows_with_temperature():
    cfg = ExperimentConfig(
        mechanism=MechanismSpec.stfm(1.0),
        n=120,
        bid_dist=BidDistribution.uniform(0, 5),
        size_dist=BidDistribution.exponential(1),
        sweep_param="gamma",
        sweep_values=(0.1, 5.0, 50.0),
        runs=40,
        seed=5,
        size_ratio=4.0,
    )
    rows = run_stfm_sweep(cfg)
    cofs = [row.empirical_cof for row in rows]
    assert cofs[0] < cofs[1] < cofs[2]
    assert all(row.empirical_cof >= 1.0 - 1e-9 for row in rows)


def test_stfm_sweep_cof_shrinks_as_blocks_grow():
    """A roomier block leaves less for randomization to lose."""
    cfg = ExperimentConfig(
        mechanism=MechanismSpec.stfm(5.0),
        n=400,
        bid_dist=BidDistribution.uniform(0, 5),
        size_dist=BidDistribution.exponential(1),
        sweep_param="size_ratio",
        sweep_values=(1.1, 2.0, 10.0),
        runs=40,
        seed=21,
    )
    cofs = [row.empirical_cof for row in run_stfm_sweep(cfg)]
    assert cofs[0] < cofs[1] < cofs[2]


def _counted(monkeypatch, name):
    """Calls of experiments.`name`, counted through a wrapper that returns its result."""
    calls = []
    original = getattr(experiments, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)
    monkeypatch.setattr(experiments, name, wrapper)
    return calls


@pytest.mark.parametrize("sweep_param, values, solves_per_run", [
    ("gamma", (0.1, 0.5, 2.0, 10.0, 50.0), 1),
    ("size_ratio", (2.0, 5.0, 10.0, 5.0), 3),
])
def test_stfm_sweep_draws_each_pool_once_and_solves_each_ratio_once(
        monkeypatch, sweep_param, values, solves_per_run):
    pools = _counted(monkeypatch, "sample_mempool")
    solves = _counted(monkeypatch, "_optimal_rows")
    runs = 6
    cfg = ExperimentConfig(
        mechanism=MechanismSpec.stfm(1.0), n=30,
        bid_dist=BidDistribution.uniform(0, 5), size_dist=BidDistribution.exponential(1),
        sweep_param=sweep_param, sweep_values=values, runs=runs, seed=2,
    )
    assert len(run_stfm_sweep(cfg)) == len(values)
    assert len(pools) == runs
    assert len(solves) == runs * solves_per_run


@pytest.mark.parametrize("base_fee, sweep_param, values, ratios", [
    (None, "gamma", (0.1, 0.5, 2.0, 10.0, 50.0), 1),
    (None, "size_ratio", (2.0, 5.0, 10.0, 5.0), 3),
    (6.0, "gamma", (0.1, 0.5, 2.0, 10.0, 50.0), 1),
])
def test_stfm_sweep_draws_each_runs_noise_once_for_every_cell(monkeypatch, base_fee, sweep_param,
                                                               values, ratios):
    # a posted fee above every bid leaves no candidate: the row is empty and nothing is walked
    calls, walks = [], []  # (noise, temperatures) of each blocks call; each _softmax_rows call
    blocks_of, rows_of = experiments._softmax_blocks, mech._softmax_rows

    def counted(arm):
        blocks = blocks_of(arm)
        return lambda gammas, gumbel: calls.append((gumbel, gammas)) or blocks(gammas, gumbel)
    monkeypatch.setattr(experiments, "_softmax_blocks", counted)
    monkeypatch.setattr(mech, "_softmax_rows",
                        lambda *args: walks.append(args) or rows_of(*args))
    payment = PaymentKind.FIRST_PRICE if base_fee is None else PaymentKind.POSTED_PRICE
    runs, n = 6, 30
    cfg = ExperimentConfig(
        mechanism=MechanismSpec.stfm(1.0, payment, base_fee), n=n,
        bid_dist=BidDistribution.uniform(0, 5), size_dist=BidDistribution.exponential(1),
        sweep_param=sweep_param, sweep_values=values, runs=runs, seed=2,
    )
    assert len(run_stfm_sweep(cfg)) == len(values)
    assert len(calls) == runs * ratios
    for r in range(runs):
        at_run = calls[r * ratios:(r + 1) * ratios]
        gumbel = at_run[0][0]  # the run's one row, one value per candidate
        width = 0 if base_fee else n
        assert gumbel.tobytes() == np.random.default_rng([2, r, 1]).gumbel(size=width).tobytes()
        # every cell reads that row
        assert all(noise is gumbel for noise, _ in at_run)
        assert sum(len(gammas) for _, gammas in at_run) == len(values)
    # one _softmax_rows call per run and size ratio, walking a row for each of its cells
    assert len(walks) == (0 if base_fee else runs * ratios)
    for (sizes, scaled, noise, capacity), (gumbel, gammas) in zip(walks, calls):
        assert noise.base is gumbel and scaled.shape == (len(gammas), n)


def test_stfm_zero_fee_share_rises_with_temperature_and_tracks_supply():
    """With a zero-fee atom in the pool, the block's zero-fee share grows
    with temperature and saturates near the pool's zero-fee supply share."""
    atom = 0.3
    cfg = ExperimentConfig(
        mechanism=MechanismSpec.stfm(1.0),
        n=400,
        bid_dist=BidDistribution.zero_inflated(atom, BidDistribution.uniform(0, 5)),
        size_dist=BidDistribution.exponential(1),
        sweep_param="gamma",
        sweep_values=(0.25, 1.0, 5.0, 50.0),
        runs=40,
        seed=13,
        size_ratio=4.0,
    )
    rows = run_stfm_sweep(cfg)
    zfis = [row.zfi for row in rows]
    assert all(b >= a - 1e-12 for a, b in zip(zfis, zfis[1:]))
    assert abs(zfis[-1] - atom) < 0.06


def test_emit_csv_shapes(tmp_path):
    path = tmp_path / "out.csv"
    emit_csv([], str(path))
    assert path.read_text() == CSV_HEADER + "\n"
    rows = [SweepRow(0.1, 0.9, 0.01, 0.0, 0.0, 1.11, 0.0, 0.0),
            SweepRow(0.2, 0.8, 0.01, 0.001, 0.0, 1.25, 0.002, 0.01)]
    emit_csv(rows, str(path))
    lines = path.read_text().splitlines()
    assert len(lines) == 3
    assert lines[0] == CSV_HEADER


def test_emit_csv_byte_identical_reruns(tmp_path):
    cfg = small_rtfm_cfg(runs=50)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(run_rtfm_sweep(cfg), str(a))
    emit_csv(run_rtfm_sweep(cfg), str(b))
    assert a.read_bytes() == b.read_bytes()


def test_plot_data_table_has_extended_column():
    rows = run_rtfm_sweep(small_rtfm_cfg(runs=30, sweep_values=(0.5,)))
    table = plot_data_table(rows)
    assert "zero_payment_fraction" in table.splitlines()[0]
    assert len(table.splitlines()) == 2


def test_config_parsing_and_unknown_keys():
    fields = parse_config_text(
        "allocation = rtfm\nphi = 0.5\nn = 100\ncapacity = 10\n"
        "bids = censored_gaussian(4,3)\nsizes = constant(1)\n"
        "sweep_param = phi\nsweep_values = 0,0.5,1\nruns = 20\nseed = 7\n"
    )
    cfg = experiment_from_fields(fields)
    assert cfg.n == 100 and cfg.runs == 20 and cfg.sweep_values == (0.0, 0.5, 1.0)
    with pytest.raises(ConfigError):
        parse_config_text("allocation = rtfm\nwibble = 3\n")
    with pytest.raises(ConfigError):
        parse_config_text("allocation rtfm\n")
    with pytest.raises(ConfigError):
        parse_config_text("n = 5\nn = 6\n")
    for line in ("n = 1e3", "stratified_toss = maybe", "sweep_values = 0,x", "bids = uniform(1)",
                 "bids = gamma(1,2)", "seed = "):
        with pytest.raises(ConfigError):
            parse_config_text(f"allocation = rtfm\n{line}\n")


def test_config_infers_swept_mechanism_parameter():
    cfg = experiment_from_fields(parse_config_text(
        "allocation = rtfm\nsweep_param = phi\nsweep_values = 0,1\nruns = 5\n"))
    assert cfg.mechanism.phi == 0.0
    cfg = experiment_from_fields(parse_config_text(
        "allocation = softmax\nsweep_param = gamma\nsweep_values = 0.5,5\nruns = 5\n"))
    assert cfg.mechanism.gamma == 0.5


def test_config_values_are_typed_and_defaults_come_from_the_schema():
    fields = parse_config_text("allocation = rtfm  # two-set\nphi = 0.5\n"
                               "stratified_toss = FALSE\nsweep_values = 0, 0.5,\n")
    assert fields["allocation"] is AllocationKind.RTFM
    assert fields["stratified_toss"] is False and fields["sweep_values"] == (0.0, 0.5)
    cfg = experiment_from_fields(fields)
    assert cfg.n == CONFIG_KEYS["n"].default and cfg.bid_dist == CONFIG_KEYS["bids"].default
    assert parse_config_text("stratified_toss = True\n")["stratified_toss"] is True


# the subcommand that reads each shipped config, and the sections it reads
DEMO_CONFIGS = {
    "bias_sweep.cfg": ("sweep-rtfm", {MECHANISM, POOL, SWEEP}),
    "temperature_sweep.cfg": ("sweep-stfm", {MECHANISM, POOL, SWEEP}),
    "zti_audit.cfg": ("audit", {MECHANISM, POOL, SWEEP, AUDIT}),
    "tune_gamma.cfg": ("tune-gamma", {MECHANISM, POOL, AUDIT}),
}


def test_every_demo_config_loads_through_the_schema():
    shipped = sorted(os.path.basename(p) for p in glob.glob(os.path.join(DEMOS, "*.cfg")))
    assert shipped == sorted(DEMO_CONFIGS)
    for name, (command, sections) in DEMO_CONFIGS.items():
        with open(os.path.join(DEMOS, name)) as fh:
            fields = parse_config_text(fh.read())
        assert {CONFIG_KEYS[k].section for k in fields} <= sections, name
        cfg = experiment_from_fields(fields)
        if command == "sweep-rtfm":
            assert cfg.mechanism.allocation is AllocationKind.RTFM
        if command in ("sweep-stfm", "tune-gamma"):
            assert cfg.mechanism.allocation is AllocationKind.SOFTMAX


# ---------------------------------------------------------------------------
# CLI


def write_cfg(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


RTFM_CFG = (
    "allocation = rtfm\npayment = fpa\nn = 50\ncapacity = 8\n"
    "bids = censored_gaussian(4,3)\nsizes = constant(1)\n"
    "sweep_param = phi\nsweep_values = 0,0.5,1\nruns = 40\nseed = 3\n"
)


def test_cli_no_arguments_is_usage_error(capsys):
    assert cli_main([]) == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_cli_unknown_subcommand():
    assert cli_main(["frobnicate"]) == 1


def test_cli_sweep_rtfm_happy_path(tmp_path, capsys):
    cfg = write_cfg(tmp_path, RTFM_CFG)
    out = tmp_path / "fig.csv"
    assert cli_main(["sweep-rtfm", "--config", cfg, "--seed", "42", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 4


def test_cli_sweep_rtfm_deterministic_reruns(tmp_path):
    cfg = write_cfg(tmp_path, RTFM_CFG)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli_main(["sweep-rtfm", "--config", cfg, "--seed", "42", "--out", str(a)]) == 0
    assert cli_main(["sweep-rtfm", "--config", cfg, "--seed", "42", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_sweep_stfm(tmp_path):
    cfg = write_cfg(tmp_path, (
        "allocation = softmax\nn = 60\nbids = uniform(0,5)\nsizes = exponential(1)\n"
        "sweep_param = gamma\nsweep_values = 0.5,5\nruns = 10\nseed = 2\nsize_ratio = 4\n"
    ))
    out = tmp_path / "stfm.csv"
    assert cli_main(["sweep-stfm", "--config", cfg, "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 3


STFM_CFG = "allocation = softmax\nn = 60\nbids = uniform(0,5)\nsizes = exponential(1)\nruns = 10\n"


@pytest.mark.parametrize("command, grid, message", [
    ("sweep-rtfm", RTFM_CFG.replace("sweep_values = 0,0.5,1", "sweep_values = 0,0.5,1.5"),
     "phi sweep values must lie in [0, 1], got 1.5"),
    ("sweep-stfm", STFM_CFG + "sweep_param = gamma\nsweep_values = 0.5,-1\n",
     "softmax sweep needs a positive gamma"),
    ("sweep-stfm", STFM_CFG + "gamma = 1\nsweep_param = size_ratio\nsweep_values = 4,0\n",
     "size ratio must be positive"),
    ("sweep-stfm", STFM_CFG + "sweep_param = gamma\nsweep_values = 1\nsize_ratio = inf\n",
     "size_ratio must be finite, got inf"),
    ("sweep-stfm", STFM_CFG + "sweep_param = gamma\nsweep_values = 1\nsize_ratio = nan\n",
     "size_ratio must be finite, got nan"),
    ("sweep-stfm", STFM_CFG.replace("n = 60", "n = 0") + "sweep_param = gamma\nsweep_values = 1\n",
     "n must be at least 1, got 0"),
    ("sweep-rtfm", RTFM_CFG.replace("n = 50", "n = 0"), "n must be at least 1, got 0"),
    ("sweep-rtfm", RTFM_CFG.replace("capacity = 8", "capacity = 0"),
     "capacity must be positive and finite, got 0.0"),
    ("sweep-rtfm", RTFM_CFG.replace("capacity = 8", "capacity = inf"),
     "capacity must be positive and finite, got inf"),
    # the grid seeds phi or gamma, so it is checked first and its error names sweep_values
    ("sweep-rtfm", RTFM_CFG.replace("sweep_values = 0,0.5,1", "sweep_values ="),
     "sweep_values must be non-empty"),
    ("sweep-rtfm", RTFM_CFG.replace("sweep_values = 0,0.5,1", "sweep_values = nan,0.5"),
     "sweep_values must be finite"),
    ("sweep-stfm", STFM_CFG + "sweep_param = gamma\nsweep_values =\n",
     "sweep_values must be non-empty"),
    ("sweep-stfm", STFM_CFG + "sweep_param = gamma\nsweep_values = nan,0.5\n",
     "sweep_values must be finite"),
], ids=["phi", "gamma", "size_ratio", "size_ratio_inf", "size_ratio_nan", "stfm_n_0", "rtfm_n_0",
        "capacity_0", "capacity_inf", "rtfm_empty_grid", "rtfm_nan_grid", "stfm_empty_grid",
        "stfm_nan_grid"])
def test_cli_rejects_a_bad_sweep_grid_before_any_run(tmp_path, capsys, monkeypatch, command,
                                                     grid, message):
    def no_run(*args, **kwargs):
        raise AssertionError("a sweep run started")

    monkeypatch.setattr(experiments, "sample_mempool", no_run)
    out = tmp_path / "sweep.csv"
    assert cli_main([command, "--config", write_cfg(tmp_path, grid), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_cli_sweep_writes_to_the_config_out_key_unless_out_overrides_it(tmp_path, capsys):
    from_cfg, from_flag = tmp_path / "fromcfg.csv", tmp_path / "flag.csv"
    cfg = write_cfg(tmp_path, RTFM_CFG + f"out = {from_cfg}\n")
    assert cli_main(["sweep-rtfm", "--config", cfg]) == 0
    assert from_cfg.read_text().splitlines()[0] == CSV_HEADER
    assert f"wrote 3 sweep rows to {from_cfg}" in capsys.readouterr().out
    from_cfg.unlink()
    assert cli_main(["sweep-rtfm", "--config", cfg, "--out", str(from_flag)]) == 0
    assert from_flag.exists() and not from_cfg.exists()


@pytest.mark.parametrize("command", ["audit", "tune-gamma"])
def test_cli_out_is_a_usage_error_where_nothing_is_written(tmp_path, capsys, command):
    cfg = write_cfg(tmp_path, "allocation = softmax\ngamma = 1\nn = 10\ntrials = 5\n")
    out = tmp_path / "report.txt"
    assert cli_main([command, "--config", cfg, "--out", str(out)]) == 1
    assert "unrecognized arguments: --out" in capsys.readouterr().err
    assert not out.exists()


def test_cli_audit_zti_posted_price(tmp_path, capsys):
    cfg = write_cfg(tmp_path, (
        "allocation = optimal\npayment = posted\nlambda = 1.0\nn = 40\ncapacity = 8\n"
        "bids = censored_gaussian(4,3)\nsizes = constant(1)\nseed = 5\n"
    ))
    assert cli_main(["audit", "--property", "zti", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "verdict=violated" in out


def test_cli_audit_bad_property(tmp_path):
    cfg = write_cfg(tmp_path, "allocation = optimal\nn = 10\nseed = 1\n")
    assert cli_main(["audit", "--property", "bogus", "--config", cfg]) == 1


def test_cli_audit_missing_config_file(tmp_path):
    assert cli_main(["audit", "--property", "zti", "--config", str(tmp_path / "nope.cfg")]) == 2


def test_cli_mine_demo(tmp_path, capsys):
    out = tmp_path / "chain.log"
    assert cli_main(["mine-demo", "--blocks", "4", "--seed", "1", "--phi", "1/4",
                     "--target-bits", "250", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 4
    assert all(len(line.split(",")) == 7 for line in lines)


def test_cli_mine_demo_rejects_bad_phi():
    assert cli_main(["mine-demo", "--blocks", "1", "--phi", "7/2"]) == 2


@pytest.mark.parametrize("flags", [
    ["--phi", "abc"],
    ["--phi", "1/0"],
    ["--target-bits", "-1"],
    ["--target-bits", "257"],
    ["--blocks", "-3"],
], ids=" ".join)
def test_cli_mine_demo_rejects_a_bad_flag_by_name(capsys, flags):
    assert cli_main(["mine-demo", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and flags[0] in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("line", ["lambda = nan", "lambda = inf", "delta = inf", "delta = nan"])
def test_cli_audit_rejects_a_non_finite_mechanism_parameter(tmp_path, capsys, line):
    key = line.split()[0]
    mechanism = {"lambda": "allocation = optimal\npayment = posted",
                 "delta": "allocation = splitblock\nalpha = 0.5"}[key]
    cfg = write_cfg(tmp_path, f"{mechanism}\n{line}\nn = 10\ncapacity = 4\nseed = 1\n")
    assert cli_main(["audit", "--property", "zti", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err and "Traceback" not in err


@pytest.mark.parametrize("epsilons", ["nan", "inf", "1,nan"])
def test_cli_audit_rejects_a_non_finite_epsilon(tmp_path, capsys, epsilons):
    cfg = write_cfg(tmp_path, "allocation = optimal\nn = 10\ncapacity = 4\nseed = 1\n"
                              f"epsilons = {epsilons}\n")
    assert cli_main(["audit", "--property", "monotonicity", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "epsilons" in err and "Traceback" not in err


def test_cli_monotonicity_audit_rejects_an_empty_epsilon_list(tmp_path, capsys):
    with open(os.path.join(DEMOS, "zti_audit.cfg")) as fh:
        cfg = write_cfg(tmp_path, f"{fh.read()}epsilons =\n")
    assert cli_main(["audit", "--property", "monotonicity", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "epsilons" in err and "Traceback" not in err


def test_cli_tune_gamma(tmp_path, capsys):
    cfg = write_cfg(tmp_path, (
        "allocation = softmax\ngamma = 1\nn = 20\ncapacity = 10\n"
        "bids = zero_inflated(0.5,constant(5))\nsizes = constant(1)\nseed = 3\n"
        "alpha_target = 0.2\nphi_ratio = 2\ngamma_lo = 0.1\ngamma_hi = 50\ntrials = 200\n"
    ))
    assert cli_main(["tune-gamma", "--config", cfg]) == 0
    assert "gamma_star=" in capsys.readouterr().out


@pytest.mark.parametrize("line", ["gamma_hi = inf", "phi_ratio = nan"])
def test_cli_tune_gamma_rejects_an_infinite_bound_or_a_nan_ratio(tmp_path, line):
    # run in a child with a timeout, so that a bisection that never ends fails the test
    with open(os.path.join(DEMOS, "tune_gamma.cfg")) as fh:
        text = fh.read().replace(line.split()[0] + " = ", "# was ")
    cfg = write_cfg(tmp_path, f"{text}{line}\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-m", "tfmlab.cli", "tune-gamma", "--config", cfg],
                          capture_output=True, text=True, timeout=60, env=env)
    assert done.returncode == 2
    lines = done.stderr.splitlines()
    if chain._noncesearch is None and lines and lines[0].startswith("C nonce search unavailable:"):
        lines = lines[1:]  # without the helper, the tfmlab logger warns once first
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "Traceback" not in done.stderr


def test_cli_two_set_mic_audit_rejects_zero_trials(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "allocation = rtfm\nphi = 0.4\nn = 10\ncapacity = 4\nseed = 1\n"
                              "trials = 0\n")
    assert cli_main(["audit", "--property", "mic", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "trials" in err and "Traceback" not in err


@pytest.mark.parametrize("prop", ["zti", "monotonicity"])
@pytest.mark.parametrize("capacity", ["nan", "-1"])
def test_cli_certified_audit_rejects_a_capacity_outside_the_model(tmp_path, capsys, prop,
                                                                  capacity):
    with open(os.path.join(DEMOS, "zti_audit.cfg")) as fh:
        text = fh.read().replace("capacity = ", "# was ")
    cfg = write_cfg(tmp_path, f"{text}capacity = {capacity}\n")
    assert cli_main(["audit", "--property", prop, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "capacity" in err and "Traceback" not in err


@pytest.mark.parametrize("command,line", [
    ("audit", "trials = abc"),
    ("audit", "epsilons = 1,x"),
    ("sweep-rtfm", "stratified_toss = maybe"),
    ("tune-gamma", "bids = uniform(1)"),
    ("sweep-rtfm", "bids = uniform(0,inf)"),
    ("audit", "sizes = exponential(nan)"),
])
def test_cli_malformed_value_exits_2_without_traceback(tmp_path, capsys, command, line):
    cfg = write_cfg(tmp_path, "allocation = rtfm\nphi = 0.5\nn = 10\ncapacity = 4\nruns = 2\n"
                              f"sweep_values = 0.5\n{line}\n")
    extra = ["--property", "monotonicity"] if command == "audit" else []
    assert cli_main([command, "--config", cfg] + extra) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and line.split()[0] in err and "Traceback" not in err


SEEDED_COMMANDS = {
    "sweep-rtfm": ["--config", os.path.join(DEMOS, "bias_sweep.cfg")],
    "sweep-stfm": ["--config", os.path.join(DEMOS, "temperature_sweep.cfg")],
    "audit": ["--config", os.path.join(DEMOS, "zti_audit.cfg"), "--property", "zti"],
    "tune-gamma": ["--config", os.path.join(DEMOS, "tune_gamma.cfg")],
}


@pytest.mark.parametrize("command", sorted(SEEDED_COMMANDS))
@pytest.mark.parametrize("seed", ["-1", "-2", "1.5", "x"])
def test_cli_seed_option_outside_the_model_exits_2(capsys, command, seed):
    assert cli_main([command, *SEEDED_COMMANDS[command], "--seed", seed]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "seed" in err and "Traceback" not in err


@pytest.mark.parametrize("command", sorted(SEEDED_COMMANDS))
def test_cli_config_seed_outside_the_model_exits_2(tmp_path, capsys, command):
    cfg = write_cfg(tmp_path, "allocation = rtfm\nphi = 0.5\nn = 10\ncapacity = 4\nruns = 2\n"
                              "sweep_param = phi\nseed = -1\n")
    extra = ["--property", "cof"] if command == "audit" else []
    assert cli_main([command, "--config", cfg] + extra) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "seed" in err and "Traceback" not in err


def test_cli_mine_demo_keeps_any_integer_seed(capsys):
    # a chain's nonce search seeds random.Random, which takes negative seeds
    assert cli_main(["mine-demo", "--blocks", "2", "--seed", "-5", "--target-bits", "250"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 2


@pytest.mark.parametrize("allocation,key", [("rtfm", "phi"), ("softmax", "gamma")])
def test_cli_audit_needs_the_mechanism_parameter_stated(tmp_path, capsys, allocation, key):
    """A sweep seeds phi or gamma from its grid; an audit must not audit phi = 0 silently."""
    cfg = write_cfg(tmp_path, f"allocation = {allocation}\nn = 20\ncapacity = 5\nseed = 1\n")
    assert cli_main(["audit", "--property", "cof", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err and "Traceback" not in err


def test_cli_audit_unknown_user_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "allocation = optimal\nn = 20\ncapacity = 5\nuser = 500\n")
    assert cli_main(["audit", "--property", "uic", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "500" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["sweep-rtfm", "audit", "tune-gamma"])
def test_cli_config_that_sets_burning_exits_2(tmp_path, capsys, command):
    # the burn follows the payment rule, so there is no burning key to set
    cfg = write_cfg(tmp_path, "allocation = rtfm\nphi = 0.5\npayment = posted\nlambda = 1\n"
                              "burning = none\nn = 10\ncapacity = 4\nruns = 2\n")
    extra = ["--property", "cof"] if command == "audit" else []
    assert cli_main([command, "--config", cfg] + extra) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "burning" in err and "Traceback" not in err


def test_cli_info_names_version_backend_and_machine(capsys):
    assert cli_main(["info"]) == 0
    fields = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
    assert list(fields) == ["version", "hash_backend", "hash_helper_path", "merkle_backend",
                            "walk_backend", "draw_backend", "hash_rate_mhs", "python", "numpy",
                            "nproc"]
    assert fields["merkle_backend"] in ("C (sha-ni-x2)", "hashlib")
    assert fields["walk_backend"] == ("python" if alloc._walk_rows_c is None else "C")
    assert fields["draw_backend"] == ("python" if _streams._draws_c is None else "C")
    assert fields["hash_backend"] == "hashlib" or fields["hash_backend"].endswith(")")
    assert float(fields["hash_rate_mhs"]) > 0 and int(fields["nproc"]) >= 1


def test_cli_info_names_the_python_walk_backend_without_the_row_walk(capsys, monkeypatch):
    monkeypatch.setattr(alloc, "_walk_rows_c", None)
    assert cli_main(["info"]) == 0
    assert "walk_backend=python" in capsys.readouterr().out.splitlines()


def test_cli_info_names_the_python_draw_backend_without_the_c_entry(capsys, monkeypatch):
    monkeypatch.setattr(_streams, "_draws_c", None)
    assert cli_main(["info"]) == 0
    assert "draw_backend=python" in capsys.readouterr().out.splitlines()
