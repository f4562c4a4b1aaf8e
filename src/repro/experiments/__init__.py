"""Experiment harnesses reproducing every table and figure in the paper.

Each module is deterministic and self-contained (it builds its own
simulated cluster), returns a result object with ``rows()``/``render()``,
and is driven three ways: the pytest benchmarks in ``benchmarks/``, the
shape-check tests in ``tests/experiments/``, and the CLI
(``python -m repro.experiments
<fig3|fig4|fig5|reconfig|chaos|churn|failover|fleet|multipath|offload|ablations|all>``).

The six invariant-checked experiments (``chaos``, ``churn``,
``failover``, ``fleet``, ``multipath``, ``offload``) share one result
contract, :class:`._result.ExperimentResult` — ``ok``, the invariants
footer, and the ``BENCH_<name>.json`` / ``--metrics-out`` documents — and
one CLI table, :data:`.__main__.EXPERIMENTS`.
"""

from .ablations import (
    NegotiationOverheadResult,
    run_caching_ablation,
    run_consensus_comparison,
    OptimizerAblationResult,
    SchedulerAblationResult,
    run_negotiation_overhead,
    run_optimizer_ablation,
    run_scheduler_ablation,
    run_serialization_comparison,
)
from .fig3 import Fig3Config, Fig3Result, run_fig3
from .reconfig import (
    ReconfigConfig,
    ReconfigResult,
    run_epoch_overhead,
    run_reconfig,
)
from .fig4 import Fig4Config, Fig4Result, run_fig4
from .fig5 import SCENARIOS, Fig5Config, Fig5Result, run_fig5, run_fig5_scenario

__all__ = [
    "Fig3Config",
    "Fig3Result",
    "Fig4Config",
    "Fig4Result",
    "Fig5Config",
    "Fig5Result",
    "NegotiationOverheadResult",
    "OptimizerAblationResult",
    "ReconfigConfig",
    "ReconfigResult",
    "SCENARIOS",
    "SchedulerAblationResult",
    "run_fig3",
    "run_fig4",
    "run_fig5",
    "run_caching_ablation",
    "run_consensus_comparison",
    "run_epoch_overhead",
    "run_fig5_scenario",
    "run_reconfig",
    "run_negotiation_overhead",
    "run_optimizer_ablation",
    "run_scheduler_ablation",
    "run_serialization_comparison",
]
