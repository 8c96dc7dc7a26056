"""Reward penalties charged when the running cost ledger crosses its budget.

Three interchangeable penalty shapes are supported.  Writing c for the cost
accumulated before the current state and d for the current state's cost, the
undiscounted amount subtracted at one assessment epoch of a horizon-T
trajectory is

                   safe            crossing (c <= cmax < c+d)   violated (c > cmax)
  risk-neutral     0               lam * (c + d)                lam * d
  value-at-risk    0               lam * (T + 1)                0
  cvar             0               lam * (c + d - cmax)         lam * d

Summed over the epochs of one trajectory these telescope to exactly
lam * D, lam * (T + 1) and lam * (D - cmax)^+ respectively for trajectories
whose total cost D exceeds the budget, and to zero otherwise.  The
value-at-risk total is charged whole at the crossing, so a path that ends
before the horizon (a sampled episode stopped at the goal) pays it too.  A
ledger at exactly the budget is safe (the boundary is non-strict on the
safe side).
"""

from __future__ import annotations

from enum import Enum


class PenaltyScheme(str, Enum):
    RISK_NEUTRAL = "rn"
    VALUE_AT_RISK = "var"
    CONDITIONAL_VALUE_AT_RISK = "cvar"


def penalty_amount(
    scheme: PenaltyScheme,
    lam: float,
    cost_before: float,
    step_cost: float,
    budget: float,
    horizon: int,
) -> float:
    """Undiscounted penalty for one assessment epoch (table above)."""
    if cost_before > budget:
        if scheme is PenaltyScheme.VALUE_AT_RISK:
            return 0.0
        return lam * step_cost
    if cost_before + step_cost > budget:
        if scheme is PenaltyScheme.RISK_NEUTRAL:
            return lam * (cost_before + step_cost)
        if scheme is PenaltyScheme.VALUE_AT_RISK:
            return lam * (horizon + 1)
        return lam * (cost_before + step_cost - budget)
    return 0.0
