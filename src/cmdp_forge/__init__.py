"""Budget-augmented reformulation of constrained MDPs.

Constrained problems (expected-cost, chance, expected-excess and worst-case
constraints) are rewritten as unconstrained problems over a state space
augmented with the running cost, with rewards penalized when the budget is
crossed.  The package solves the augmented problems exactly, trains tabular
safe learners on them, and machine-checks every promised bound against a
brute-force trajectory oracle.
"""

from .envs import ChainBranch, ChainSpec, GridConfig, PitCost, make_chain, make_gridworld
from .extended import ExtendedMdp, TabularPolicy, build_extended
from .model import Cmdp, Trajectory, validate_cmdp
from .oracle import OracleStats, enumerate_trajectories, stats
from .penalties import PenaltyScheme
from .solver import (
    BoundsReport,
    WorstCaseInfeasible,
    backward_induction,
    cost_slack,
    lambda_bounds,
    unconstrained_value,
    worst_case_value,
)

__all__ = [
    "ChainBranch",
    "ChainSpec",
    "Cmdp",
    "BoundsReport",
    "ExtendedMdp",
    "GridConfig",
    "OracleStats",
    "PenaltyScheme",
    "PitCost",
    "TabularPolicy",
    "Trajectory",
    "WorstCaseInfeasible",
    "backward_induction",
    "build_extended",
    "cost_slack",
    "enumerate_trajectories",
    "lambda_bounds",
    "make_chain",
    "make_gridworld",
    "stats",
    "unconstrained_value",
    "validate_cmdp",
    "worst_case_value",
]

__version__ = "0.1.0"
