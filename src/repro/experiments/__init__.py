"""Experiment harnesses reproducing every table and figure in the paper.

Each module is deterministic and self-contained (it builds its own
simulated cluster) and returns a result honouring one contract,
:class:`._result.ExperimentResult`: ``ok``, named ``invariants`` (the
paper-shape or robustness checks), the rendered table, and the recorded
file and ``--metrics-out`` documents.  Every experiment is a row of one
CLI table, :data:`.__main__.EXPERIMENTS`
(``python -m repro.experiments <row|all> [--smoke|--full]``): its
config's defaults are the run recorded under ``benchmarks/results``,
``smoke()`` the CI tier, and a figure's ``full()`` paper scale.  A config
holds only what those tiers or a CLI flag vary; every other parameter is
a named constant of the experiment's module.
"""

from .ablations import (
    CachingConfig,
    CachingResult,
    ConsensusConfig,
    ConsensusResult,
    NegotiationConfig,
    NegotiationOverheadResult,
    OptimizerAblationResult,
    OptimizerConfig,
    SchedulerAblationResult,
    SchedulerConfig,
    SerializationConfig,
    SerializationResult,
    run_caching_ablation,
    run_consensus_comparison,
    run_negotiation_overhead,
    run_optimizer_ablation,
    run_scheduler_ablation,
    run_serialization_comparison,
)
from .fig3 import Fig3Config, Fig3Result, run_fig3
from .fig4 import Fig4Config, Fig4Result, run_fig4
from .fig5 import SCENARIOS, Fig5Config, Fig5Result, run_fig5, run_fig5_scenario
from .reconfig import (
    EpochOverheadConfig,
    EpochOverheadResult,
    ReconfigConfig,
    ReconfigResult,
    run_epoch_overhead,
    run_reconfig,
)

__all__ = [
    "CachingConfig",
    "CachingResult",
    "ConsensusConfig",
    "ConsensusResult",
    "EpochOverheadConfig",
    "EpochOverheadResult",
    "Fig3Config",
    "Fig3Result",
    "Fig4Config",
    "Fig4Result",
    "Fig5Config",
    "Fig5Result",
    "NegotiationConfig",
    "NegotiationOverheadResult",
    "OptimizerAblationResult",
    "OptimizerConfig",
    "ReconfigConfig",
    "ReconfigResult",
    "SCENARIOS",
    "SchedulerAblationResult",
    "SchedulerConfig",
    "SerializationConfig",
    "SerializationResult",
    "run_caching_ablation",
    "run_consensus_comparison",
    "run_epoch_overhead",
    "run_fig3",
    "run_fig4",
    "run_fig5",
    "run_fig5_scenario",
    "run_negotiation_overhead",
    "run_optimizer_ablation",
    "run_reconfig",
    "run_scheduler_ablation",
    "run_serialization_comparison",
]
