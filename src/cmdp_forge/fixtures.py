"""Named small models used by the verification suites and the test bench.

Every fixture is enumerable by the trajectory oracle.  Which suites apply
to a fixture is measured on its model, in ``verification``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .envs import ChainBranch, ChainSpec, make_chain, make_gridworld, tiny_grid
from .model import Cmdp


@dataclass(frozen=True)
class Fixture:
    name: str
    cmdp: Cmdp
    quantum: float


def two_action_chain() -> Cmdp:
    """One safe branch (reward 1, cost 0) vs one risky (reward 2, cost 3)."""
    return make_chain(
        ChainSpec(
            branches=(
                ChainBranch("safe", 1.0, ((1.0, (0.0,)),)),
                ChainBranch("risky", 2.0, ((1.0, (3.0,)),)),
            ),
            budgets=(2.0,),
        )
    )


def three_branch_chain() -> Cmdp:
    """Adds a branch whose cost lands exactly on the budget (safe boundary)."""
    return make_chain(
        ChainSpec(
            branches=(
                ChainBranch("safe", 1.0, ((1.0, (0.0,)),)),
                ChainBranch("edge", 1.5, ((1.0, (2.0,)),)),
                ChainBranch("risky", 2.0, ((1.0, (3.0,)),)),
            ),
            budgets=(2.0,),
        )
    )


def stochastic_chain() -> Cmdp:
    """The risky branch violates only half the time; its expected cost is safe."""
    return make_chain(
        ChainSpec(
            branches=(
                ChainBranch("safe", 1.0, ((1.0, (0.0,)),)),
                ChainBranch("risky", 2.0, ((0.5, (3.0,)), (0.5, (0.0,)))),
            ),
            budgets=(2.0,),
        )
    )


def two_cost_chain() -> Cmdp:
    """Two constraints; each risky branch violates exactly one of them."""
    return make_chain(
        ChainSpec(
            branches=(
                ChainBranch("safe", 1.0, ((1.0, (0.0, 0.0)),)),
                ChainBranch("risky_a", 2.0, ((1.0, (3.0, 0.0)),)),
                ChainBranch("risky_b", 1.8, ((1.0, (0.0, 3.0)),)),
            ),
            budgets=(2.0, 2.0),
        )
    )


# Each fixture's name, model builder and quantum.
FIXTURES = {
    "two_action_chain": (two_action_chain, 1.0),
    "three_branch_chain": (three_branch_chain, 1.0),
    "stochastic_chain": (stochastic_chain, 1.0),
    "two_cost_chain": (two_cost_chain, 1.0),
    # Budget below every single pit draw: crossing the pit always
    # violates, so the safe detour is strictly worse and the gap between
    # the unconstrained and the always-safe optimum is positive.
    "grid3_det": (lambda: make_gridworld(tiny_grid(noise_p=0.0, horizon=4, c_max=0.75), "exact"), 0.25),
    "grid3_noisy": (lambda: make_gridworld(tiny_grid(noise_p=0.05, horizon=6), "exact"), 0.25),
}


def fixture(name: str) -> Fixture:
    build, quantum = FIXTURES[name]
    return Fixture(name, build(), quantum)


def fixture_pack() -> list[Fixture]:
    return [fixture(name) for name in FIXTURES]
