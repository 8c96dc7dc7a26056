"""Concrete models: a stochastic GridWorld and parametric branch chains.

GridWorld: the agent moves in the four cardinal directions on a W x H grid;
with probability ``noise_p`` a uniformly random action replaces the chosen
one, and off-grid moves are no-ops.  Entering the goal pays ``goal_reward``
and absorbs (zero reward and cost afterwards); every other action step pays
``step_reward``.  Pit cells charge a random cost on every time step spent in
them.

Two realizations of the same configuration:

  * exact mode (``make_gridworld``) -> a finite Cmdp.  Random pit costs
    become a finite support folded into the kernel: each pit cell is split
    into one state per support point, and arrivals at the pit distribute over
    the copies.  A continuous uniform cost is replaced by the mean-matched
    three-point support {lo, mid, hi} with equal mass.
  * sampled mode (``GridWorldEnv``) -> a step/reset environment drawing the
    configured cost distribution at each pit arrival.  Learners train on
    this one.  Its step reads per-cell tables built from ``_moved``, the
    move rule exact mode uses too.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .model import Cmdp, inverse_cdf

GRID_ACTIONS = ("up", "right", "down", "left")
_MOVES = ((-1, 0), (0, 1), (1, 0), (0, -1))
_PLAIN, _GOAL, _PIT = "plain", "goal", "pit"  # GridWorldEnv's cell kinds


@dataclass(frozen=True)
class PitCost:
    """Cost drawn when occupying a pit cell: uniform interval or finite support."""

    kind: str  # "uniform" | "support"
    lo: float = 0.0
    hi: float = 0.0
    support: tuple[tuple[float, float], ...] = ()  # (value, weight) pairs

    @staticmethod
    def uniform(lo: float, hi: float) -> "PitCost":
        return PitCost(kind="uniform", lo=lo, hi=hi)

    @staticmethod
    def of_support(*pairs: tuple[float, float]) -> "PitCost":
        total = sum(w for _, w in pairs)
        return PitCost(
            kind="support", support=tuple((v, w / total) for v, w in pairs)
        )

    def exact_support(self) -> tuple[tuple[float, float], ...]:
        """Finite support for exact mode; uniform intervals are replaced by the
        mean-matched three-point support with equal mass."""
        if self.kind == "support":
            return self.support
        third = 1.0 / 3.0
        mid = (self.lo + self.hi) / 2.0
        return ((self.lo, third), (mid, third), (self.hi, third))

    def sample(self, rng: random.Random) -> float:
        if self.kind == "uniform":
            return rng.uniform(self.lo, self.hi)
        return inverse_cdf(self.support, rng.random())


@dataclass(frozen=True)
class GridConfig:
    """One GridWorld layout, refused (ValueError) if ``validate_grid_config`` lists a problem."""

    width: int
    height: int
    start: tuple[int, int]
    goal: tuple[int, int]
    pits: tuple[tuple[int, int], ...] = ()
    pit_cost: PitCost = PitCost.uniform(1.0, 1.5)
    noise_p: float = 0.05
    step_reward: float = -1.0
    goal_reward: float = 100.0
    horizon: int = 200
    c_max: float = 2.0

    def __post_init__(self):
        problems = validate_grid_config(self)
        if problems:
            raise ValueError("; ".join(problems))


def validate_grid_config(cfg: GridConfig) -> list[str]:
    """Every breach of the grid's invariants, each naming its config key env.<field>."""
    problems = []

    def inside(cell):
        r, c = cell
        return 0 <= r < cfg.height and 0 <= c < cfg.width

    for name in ("width", "height"):
        if getattr(cfg, name) < 1:
            problems.append(f"env.{name}: must be >= 1, got {getattr(cfg, name)}")
    if problems:
        return problems
    for name, cell in (("start", cfg.start), ("goal", cfg.goal)):
        if not inside(cell):
            problems.append(f"env.{name}: cell {cell} outside the {cfg.height}x{cfg.width} grid")
    for cell in cfg.pits:
        if not inside(cell):
            problems.append(f"env.pits: cell {cell} outside the grid")
    if cfg.start == cfg.goal:
        problems.append(f"env.goal: coincides with env.start {cfg.start}")
    if cfg.start in cfg.pits:
        problems.append(f"env.start: cell {cfg.start} is a pit")
    if cfg.goal in cfg.pits:
        problems.append(f"env.goal: cell {cfg.goal} is a pit")
    if len(set(cfg.pits)) != len(cfg.pits):
        problems.append("env.pits: duplicate cells")
    if not (0.0 <= cfg.noise_p < 1.0):
        problems.append(f"env.noise_p: must be in [0, 1), got {cfg.noise_p}")
    if cfg.horizon < 1:
        problems.append(f"env.horizon: must be >= 1, got {cfg.horizon}")
    if not 0.0 < cfg.c_max < math.inf:
        problems.append(f"env.c_max: must be finite and > 0, got {cfg.c_max}")
    for name in ("step_reward", "goal_reward"):
        if not math.isfinite(getattr(cfg, name)):
            problems.append(f"env.{name}: must be finite, got {getattr(cfg, name)}")
    if cfg.pit_cost.kind == "uniform" and not (0.0 <= cfg.pit_cost.lo <= cfg.pit_cost.hi):
        problems.append("env.pit_cost: interval must satisfy 0 <= lo <= hi")
    if cfg.pit_cost.kind == "support" and any(v < 0.0 for v, _ in cfg.pit_cost.support):
        problems.append("env.pit_cost: support values must be >= 0")
    return problems


def ascii_map(cfg: GridConfig) -> str:
    """Printable layout: S start, G goal, # pit, . free."""
    rows = []
    for r in range(cfg.height):
        row = []
        for c in range(cfg.width):
            cell = (r, c)
            if cell == cfg.start:
                row.append("S")
            elif cell == cfg.goal:
                row.append("G")
            elif cell in cfg.pits:
                row.append("#")
            else:
                row.append(".")
        rows.append("".join(row))
    return "\n".join(rows)


def _moved(cfg: GridConfig, cell, b: int):
    """The cell after move b from ``cell``; an off-grid move is a no-op."""
    dr, dc = _MOVES[b]
    r2, c2 = cell[0] + dr, cell[1] + dc
    return (r2, c2) if 0 <= r2 < cfg.height and 0 <= c2 < cfg.width else cell


def _move_distribution(cfg: GridConfig, cell, a):
    """Arrival cells and probabilities for choosing action a in ``cell``."""
    n = len(_MOVES)
    out: dict[tuple[int, int], float] = {}
    for b in range(n):
        p = (1.0 - cfg.noise_p) * (1.0 if b == a else 0.0) + cfg.noise_p / n
        if p == 0.0:
            continue
        cell2 = _moved(cfg, cell, b)
        out[cell2] = out.get(cell2, 0.0) + p
    return out


def make_gridworld(cfg: GridConfig, mode: str = "exact"):
    """The exact-mode Cmdp of the configured GridWorld; ``mode`` must be "exact"."""
    if mode != "exact":
        raise ValueError(f"unknown mode {mode!r}; want 'exact'")

    support = cfg.pit_cost.exact_support()
    pitset = set(cfg.pits)
    # One state per plain cell, one per (pit cell, support point).
    states: list[tuple[tuple[int, int], float | None]] = []
    cell_slots: dict[tuple[int, int], list[int]] = {}
    for r in range(cfg.height):
        for c in range(cfg.width):
            cell = (r, c)
            if cell in pitset:
                cell_slots[cell] = []
                for v, _w in support:
                    cell_slots[cell].append(len(states))
                    states.append((cell, v))
            else:
                cell_slots[cell] = [len(states)]
                states.append((cell, None))

    S = len(states)
    A = len(GRID_ACTIONS)
    transition = np.zeros((S, A, S))
    reward = np.zeros((S, A))
    costs = np.zeros((1, S))
    names = []
    for i, (cell, v) in enumerate(states):
        names.append(f"r{cell[0]}c{cell[1]}" + (f"@{v}" if v is not None else ""))
        if v is not None:
            costs[0, i] = v

    goal_ids = set(cell_slots[cfg.goal])
    for i, (cell, _v) in enumerate(states):
        if cell == cfg.goal:
            transition[i, :, i] = 1.0  # absorbing, zero reward and cost
            continue
        for a in range(A):
            p_goal = 0.0
            for tc, p in _move_distribution(cfg, cell, a).items():
                if tc == cfg.goal:
                    p_goal += p
                if tc in pitset:
                    for slot, (sv, sw) in zip(cell_slots[tc], support):
                        transition[i, a, slot] += p * sw
                else:
                    transition[i, a, cell_slots[tc][0]] += p
            # Goal bonus folded in expectation over the arrival event.
            reward[i, a] = cfg.step_reward + cfg.goal_reward * p_goal

    return Cmdp(
        transition=transition,
        reward=reward,
        costs=costs,
        budgets=(cfg.c_max,),
        horizon=cfg.horizon,
        s0=cell_slots[cfg.start][0],
        state_names=tuple(names),
        action_names=GRID_ACTIONS,
    )


class GridWorldEnv:
    """Sampled-mode GridWorld for learners and Monte-Carlo evaluation.

    Observations are (cell index, accumulated cost including the current
    state, current state's cost).  Episodes end on reaching the goal or at
    the horizon.  ``step`` reads two per-cell tables built once from
    ``_moved``, the move rule ``make_gridworld`` uses: ``_next[s][a]``, the
    cell index after move a from cell s, and ``_kind[s]``, one of _GOAL,
    _PIT and _PLAIN.  Each step draws, in order, the noise test, the noise
    action (when the test hits) and the pit cost (on a pit arrival).
    """

    def __init__(self, cfg: GridConfig, seed=0):
        self.cfg = cfg
        self.n_actions = len(GRID_ACTIONS)
        self.horizon = cfg.horizon
        self.budget = cfg.c_max
        self.rng = random.Random(seed)
        cells = [(r, c) for r in range(cfg.height) for c in range(cfg.width)]
        self._next = [tuple(self.state_index(_moved(cfg, cell, b)) for b in range(self.n_actions))
                      for cell in cells]
        self._kind = [_GOAL if cell == cfg.goal else _PIT if cell in cfg.pits else _PLAIN
                      for cell in cells]
        self._goal_reward = cfg.step_reward + cfg.goal_reward
        self._s = self.state_index(cfg.start)
        self._cost = 0.0
        self._t = 0

    def state_index(self, cell) -> int:
        return cell[0] * self.cfg.width + cell[1]

    def reset(self):
        self._s = self.state_index(self.cfg.start)
        self._cost = 0.0
        self._t = 0
        return (self._s, self._cost, 0.0)

    def step(self, a: int):
        cfg, rng = self.cfg, self.rng
        if rng.random() < cfg.noise_p:
            a = rng.randrange(self.n_actions)
        s = self._s = self._next[self._s][a]
        self._t += 1
        kind = self._kind[s]
        if kind == _GOAL:
            return (s, self._cost, 0.0), self._goal_reward, True
        d = 0.0
        if kind == _PIT:
            d = cfg.pit_cost.sample(rng)
            self._cost += d  # elsewhere d = 0.0, which leaves the ledger (never -0.0) as it is
        return (s, self._cost, d), cfg.step_reward, self._t >= self.horizon


class SampledKernelEnv:
    """Rollout environment drawing successors from an exact Cmdp kernel.

    Used to Monte-Carlo-evaluate policies against models whose ground truth
    the oracle can enumerate; the sampled distribution matches the kernel by
    construction.  Single-constraint models only.
    """

    def __init__(self, m: Cmdp, seed=0):
        if m.n_constraints != 1:
            raise ValueError("sampled rollouts support single-constraint models")
        self.m = m
        self.n_actions = m.n_actions
        self.horizon = m.horizon
        self.budget = m.budgets[0]
        self.rng = random.Random(seed)
        self._s = m.s0
        self._cost = 0.0
        self._t = 0

    def reset(self):
        self._s = self.m.s0
        self._t = 0
        d = float(self.m.costs[0, self._s])
        self._cost = d
        return (self._s, self._cost, d)

    def step(self, a: int):
        s2 = inverse_cdf(self.m.successors(self._s, a), self.rng.random())
        reward = float(self.m.reward[self._s, a])
        self._s = s2
        self._t += 1
        d = float(self.m.costs[0, s2])
        self._cost += d
        done = self._t >= self.horizon
        return (self._s, self._cost, d), reward, done


@dataclass(frozen=True)
class ChainBranch:
    """One start-state action: a reward and a distribution over landings."""

    name: str
    reward: float
    outcomes: tuple[tuple[float, tuple[float, ...]], ...]  # (prob, cost vector)


@dataclass(frozen=True)
class ChainSpec:
    """A chain's branches and budgets, each outcome with one cost per budget;
    the model ``make_chain`` builds checks the rest (ValueError either way)."""

    branches: tuple[ChainBranch, ...]
    budgets: tuple[float, ...]
    horizon: int = 1
    discount: float = 1.0

    def __post_init__(self):
        for b in self.branches:
            for _p, costs in b.outcomes:
                if len(costs) != len(self.budgets):
                    raise ValueError(f"branch {b.name!r}: outcome has {len(costs)} costs "
                                     f"for {len(self.budgets)} budgets")


def make_chain(spec: ChainSpec) -> Cmdp:
    """Star-shaped fixture: one decision at the start, then absorb.

    States: the start, one landing state per branch outcome, and (for
    horizons above one) a zero-cost pad the landings drain into so landing
    costs accrue exactly once.  Only action 0 is available off the start.
    """
    K = len(spec.budgets)
    names = ["start"]
    landing_cost: list[tuple[float, ...]] = [(0.0,) * K]
    landings: list[list[tuple[int, float]]] = []  # per branch: (state, prob)
    for b in spec.branches:
        slots = []
        for j, (p, costs) in enumerate(b.outcomes):
            idx = len(names)
            suffix = f"_{j}" if len(b.outcomes) > 1 else ""
            names.append(f"{b.name}{suffix}")
            landing_cost.append(tuple(costs))
            slots.append((idx, p))
        landings.append(slots)
    pad = None
    if spec.horizon > 1:
        pad = len(names)
        names.append("pad")
        landing_cost.append((0.0,) * K)

    S = len(names)
    A = max(len(spec.branches), 1)
    transition = np.zeros((S, A, S))
    reward = np.zeros((S, A))
    available = np.zeros((S, A), dtype=bool)
    for i, b in enumerate(spec.branches):
        available[0, i] = True
        reward[0, i] = b.reward
        for idx, p in landings[i]:
            transition[0, i, idx] = p
    for s in range(1, S):
        available[s, 0] = True
        sink = pad if pad is not None else s
        transition[s, 0, sink] = 1.0

    costs = np.array(landing_cost).T
    return Cmdp(
        transition=transition,
        reward=reward,
        costs=costs,
        budgets=spec.budgets,
        horizon=spec.horizon,
        discount=spec.discount,
        s0=0,
        available=available,
        state_names=tuple(names),
        action_names=tuple(b.name for b in spec.branches),
    )


# --- named configurations ---------------------------------------------------


def desk_grid() -> GridConfig:
    """5x5 layout sized so acceptance runs finish in minutes.

    The bottom-row shortcut crosses three pits; a pit at (3,2) blocks the
    row-3 shortcut, leaving a clean detour through row 2.
    """
    return GridConfig(
        width=5, height=5, start=(4, 4), goal=(4, 0),
        pits=((4, 1), (4, 2), (4, 3), (3, 2)), horizon=50,
    )


def large_grid() -> GridConfig:
    """8x8 layout with 18 pits walling off the bottom rows.

    The direct bottom-row route crosses six pits; the safe route climbs the
    right edge, crosses row 3 and descends the left edge.
    """
    pits = (
        tuple((7, c) for c in range(1, 7))
        + tuple((6, c) for c in range(1, 7))
        + tuple((5, c) for c in range(2, 6))
        + ((4, 3), (4, 4))
    )
    return GridConfig(width=8, height=8, start=(7, 7), goal=(7, 0), pits=pits)


def tiny_grid(noise_p: float = 0.05, horizon: int = 6, c_max: float = 2.0) -> GridConfig:
    """3x3 grid, one pit on the direct route, exact-mode friendly support."""
    return GridConfig(
        width=3, height=3, start=(2, 2), goal=(2, 0), pits=((2, 1),),
        pit_cost=PitCost.of_support((1.0, 1.0), (1.25, 1.0), (1.5, 1.0)),
        noise_p=noise_p, horizon=horizon, c_max=c_max,
    )
