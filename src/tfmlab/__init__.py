"""tfmlab: a desk-scale laboratory for blockchain transaction fee mechanisms.

The lab covers the block-building pipeline end to end: mempool generation
(`txpool`), allocation rules from exact knapsack to randomized samplers
(`alloc`), full mechanisms with payments and burning (`mech`), a verifiable
chain layer with proof-of-work and a hash-based biased coin toss (`chain`),
fairness/incentive auditors with closed-form cost calculators (`audit`), and
reproducible sweep experiments plus a CLI (`experiments`, `cli`).
"""

from .alloc import (
    AllocationResult,
    RtfmSample,
    SplitBlockConfig,
    allocation_value,
    optimal_allocate,
    rtfm_sample,
    splitblock_allocate,
    stfm_allocate,
    stfm_first_draw_distribution,
    uniform_allocate,
)
from .audit import (
    CofReport,
    PropertyReport,
    Verdict,
    check_uic,
    empirical_cof,
    estimate_monotonicity,
    estimate_zti,
    rtfm_cov_closed_form,
    search_mic_deviation,
    stfm_cof_bound,
    stfm_worstcase_draw_ratio,
    stfm_worstcase_instance,
    tune_gamma,
)
from .chain import (
    BlockHeader,
    Difficulty,
    MinedBlock,
    chain_log,
    coin_toss,
    hash_bytes,
    merkle_root,
    mine_block,
    mine_chain,
    mine_many,
)
from .errors import (
    ConfigError,
    DomainError,
    MiningTimeoutError,
    ParameterError,
    SolverLimitError,
)
from .experiments import (
    ExperimentConfig,
    SweepRow,
    emit_csv,
    run_rtfm_sweep,
    run_stfm_sweep,
)
from .mech import (
    AllocationKind,
    BaseFeeState,
    MechanismOutcome,
    MechanismSpec,
    PaymentKind,
    is_excessively_low,
    run_mechanism,
    spec_from_config,
    spec_from_fields,
    spec_to_config,
    update_base_fee,
)
from .txpool import (
    BidDistribution,
    Mempool,
    PoolColumns,
    Transaction,
    mempool_from_csv,
    mempool_to_csv,
    parse_distribution,
    sample_mempool,
    zero_fee_subset,
)

__version__ = "0.1.0"
