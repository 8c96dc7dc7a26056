"""Tabular safe learners on the augmented observation (state, running cost).

Two trainers share the penalty machinery and the dynamic penalty-weight
schedule:

  * safe_q_learning: off-policy one-step Q-learning with a replay ring, a
    periodically copied target table, epsilon-greedy exploration that ignores
    feasibility, and per-sample reward penalties.  Every ``update_every``
    steps it makes a fixed TD_UPDATES = 8 sampled TD updates.
  * safe_actor_critic: softmax policy over logits with one reward critic and
    one cost critic, n-step backups, Polyak-averaged target tables,
    feasibility-constrained action selection, and a safe/unsafe actor branch.

Both learn in one table store, TableStore: a dense (rows, A) row per
observation key, with a critic and a target plane for each checkpoint
section (``q`` for the Q-learner; ``q1`` and ``qd1`` for the actor-critic,
whose subclass ActorCriticTables adds the logits and Polyak averaging as one
masked vector op).  A store also holds its checkpoint keys (``META``), its
observation key rule ``key`` and its exploration-off action ``act``.  Each
learner returns its store and its log; ``train`` writes the store's ``META``
values and ``sections()``, and ``evaluate`` loads a checkpoint back into the
store of its learner (``STORES``).

Both read their settings from the run's ExperimentConfig and take the seed
as an argument; ``lr`` is the step size of the Q table and of both critics.

Environments expose reset() -> (s, c, d) and step(a) -> ((s, c, d), r, done)
where c is the cost accumulated including the current state and d is the
current state's cost draw.  Table keys quantize c; penalty arithmetic always
uses the true float c.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field

import numpy as np

from .config import ExperimentConfig
from .extended import VIOLATED
from .model import inverse_cdf
from .penalties import PenaltyScheme, penalty_amount
from .solver import argmax_low

TD_UPDATES = 8  # replay samples per Q-learner update period
LAMBDA_DECAY = 0.95  # penalty-weight factor per safe window


def ledger_bucket(c: float, budget: float, quantum: float) -> int:
    """Table-key bucket for an accumulated cost; one bucket once over budget."""
    return VIOLATED if c > budget else round(c / quantum)


def _positive(name: str, value: float) -> float:
    """``value``, refused (ValueError naming ``name``) unless finite and > 0."""
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name}: want finite and > 0, got {value}")
    return value


def penalize_sample(
    r: float,
    c: float,
    d: float,
    lam: float,
    scheme: PenaltyScheme,
    budget: float,
    horizon: int,
    t: int,
    gamma: float = 1.0,
) -> float:
    """Per-sample penalized reward for one stored transition.

    c is the cost accumulated before the arrival being assessed, d the
    arriving state's cost, ``horizon`` the env's and t the arrival's epoch.
    The amount is ``penalty_amount`` at that horizon, so an episode that
    ends before it still pays a chance crossing in full; when gamma < 1 it
    is discounted per step as amount / gamma^t.
    """
    amount = penalty_amount(scheme, lam, c, d, budget, horizon)
    if amount == 0.0:
        return r
    if gamma == 1.0:
        return r - amount
    return r - amount / gamma**t


@dataclass
class LambdaSchedule:
    """Multiplicative decay of the penalty weight while recent episodes stay safe.

    Every ``window`` episodes: if the window's max final cost is within the
    budget and decaying would stay above the floor, multiply by LAMBDA_DECAY;
    the window is emptied either way.
    """

    value: float
    floor: float
    window: int
    costs: list[float] = field(default_factory=list)

    def record(self, final_cost: float, budget: float) -> None:
        self.costs.append(final_cost)
        if len(self.costs) < self.window:
            return
        if max(self.costs) <= budget and LAMBDA_DECAY * self.value > self.floor:
            self.value *= LAMBDA_DECAY
        self.costs.clear()


class ReplayBuffer:
    """Uniform-sampling ring of transitions."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.items: list = []
        self._next = 0

    def push(self, item) -> None:
        if len(self.items) < self.capacity:
            self.items.append(item)
        else:
            self.items[self._next] = item
        self._next = (self._next + 1) % self.capacity

    def sample(self, rng: random.Random):
        return self.items[rng.randrange(len(self.items))]


@dataclass(frozen=True)
class TrainRow:
    episode: int
    ret: float
    final_cost: float
    lam: float
    explore: float  # epsilon (Q-learner) or policy entropy (actor-critic)
    wall_ms: float


def _epsilon(cfg: ExperimentConfig, episode: int) -> float:
    half = max(1, cfg.episodes // 2)
    frac = min(1.0, episode / half)
    return cfg.epsilon_start + (cfg.epsilon_end - cfg.epsilon_start) * frac


class TableStore:
    """Dense table store of both learners, shared by training and evaluation.

    ``rows`` maps an observation key to a row of every table: ``critic``,
    one plane per checkpoint section of ``SECTIONS``, stacked as
    (planes, rows, A); ``target``, the planes' targets in the same layout;
    and the bool (rows, A) mask ``written`` (critic entry updated at least
    once).  Arrays grow by doubling along the row axis, and a row is
    allocated (all zeros) only by ``row``.  Every value read out of the
    store is a Python float.  ``budget`` and ``quantum`` (finite and > 0,
    as the ``key_quantum`` config key) set the observation ``key`` of a row.
    """

    LEARNER = "safe_q"  # the learner that trains in this store
    META: tuple[str, ...] = ("n_actions", "budget", "quantum")  # checkpoint keys, constructor arguments
    SECTIONS: tuple[str, ...] = ("q",)  # checkpoint section of each critic plane
    ROW_TABLES: tuple[str, ...] = ()  # (rows, A) arrays checkpointed at every row
    DROPPED: tuple[str, ...] = ()  # sections older versions wrote, read and ignored
    ARRAYS: tuple[str, ...] = ("critic", "target", "written")  # grown together

    def __init__(self, n_actions: int, budget: float, quantum: float):
        self.n_actions = n_actions
        self.budget = budget
        self.quantum = _positive("quantum", quantum)
        self.rows: dict = {}
        self.critic = np.zeros((len(self.SECTIONS), 64, n_actions))
        self.target = np.zeros_like(self.critic)
        self.written = np.zeros((64, n_actions), dtype=bool)

    def key(self, s: int, c: float) -> tuple[int, int]:
        """Observation key of state ``s`` at accumulated cost ``c``."""
        return (s, ledger_bucket(c, self.budget, self.quantum))

    def row(self, key) -> int:
        """Row of ``key``, allocated on first use."""
        r = self.rows.get(key)
        if r is None:
            r = self.rows[key] = len(self.rows)
            if r == len(self.written):
                for name in self.ARRAYS:
                    old = getattr(self, name)
                    axis = old.ndim - 2  # the row axis
                    setattr(self, name, np.concatenate([old, np.zeros_like(old)], axis=axis))
        return r

    def greedy(self, r: int) -> int:
        """Lowest-index argmax of row ``r`` of the first critic plane."""
        return argmax_low(self.critic[0, r].tolist())

    def act(self, r: int, c: float, d: float) -> int:
        """Exploration-off action at row ``r``: the greedy one."""
        return self.greedy(r)

    def sections(self) -> dict[str, dict]:
        """Checkpoint tables: ROW_TABLES at every row, critic planes at written entries."""
        n = len(self.rows)
        actions = range(self.n_actions)
        out: dict[str, dict] = {}
        for name in self.ROW_TABLES:
            values = getattr(self, name)[:n].tolist()
            out[name] = {(key, a): values[r][a] for key, r in self.rows.items() for a in actions}
        written = self.written[:n].tolist()
        for name, plane in zip(self.SECTIONS, self.critic[:, :n].tolist()):
            out[name] = {(key, a): plane[r][a]
                         for key, r in self.rows.items() for a in actions if written[r][a]}
        return out

    @classmethod
    def from_sections(cls, sections: dict[str, dict], *args, **kwargs):
        """Store ``cls(*args, **kwargs)`` holding a checkpoint's tables.

        Raises ValueError for a section named in none of ROW_TABLES,
        SECTIONS and DROPPED: its learner never writes one.
        """
        for name in sections:
            if name not in (*cls.ROW_TABLES, *cls.SECTIONS, *cls.DROPPED):
                raise ValueError(f"section [{name}] is not one that {cls.LEARNER} writes; "
                                 f"want {', '.join(sorted((*cls.ROW_TABLES, *cls.SECTIONS)))}")
        tables = cls(*args, **kwargs)
        for name in (*cls.ROW_TABLES, *cls.SECTIONS):
            for (key, a), value in sections.get(name, {}).items():
                r = tables.row(key)  # may grow the arrays: look them up after
                if name in cls.ROW_TABLES:
                    getattr(tables, name)[r, a] = value
                else:
                    tables.critic[cls.SECTIONS.index(name), r, a] = value
                    tables.written[r, a] = True
        return tables


def safe_q_learning(env, cfg: ExperimentConfig, seed: int):
    """Train a penalized Q table; returns (TableStore, log rows)."""
    rng = random.Random(seed)
    tables = TableStore(env.n_actions, env.budget, cfg.key_quantum)
    buffer = ReplayBuffer(cfg.buffer_capacity)
    sched = LambdaSchedule(cfg.lambda0, cfg.lambda_floor, cfg.window)
    budget = env.budget
    log: list[TrainRow] = []
    steps = 0
    for episode in range(cfg.episodes):
        started = time.perf_counter()
        s, c, _d = env.reset()
        r = tables.row(tables.key(s, c))
        eps = _epsilon(cfg, episode)
        ep_return = 0.0
        done = False
        t = 0
        while not done and t < env.horizon:
            if rng.random() < eps:
                a = rng.randrange(tables.n_actions)
            else:
                a = tables.greedy(r)
            (s2, c2, d2), rew, done = env.step(a)
            r2 = tables.row(tables.key(s2, c2))
            ep_return += rew
            buffer.push((r, a, rew, r2, done, c, d2, t + 1))
            steps += 1
            if steps % cfg.update_every == 0:
                for _ in range(TD_UPDATES):
                    br, ba, brew, br2, bdone, bc, bd, bepoch = buffer.sample(rng)
                    rt = penalize_sample(
                        brew, bc, bd, sched.value, cfg.scheme, budget,
                        env.horizon, gamma=cfg.gamma, t=bepoch,
                    )
                    boot = 0.0 if bdone else max(tables.target[0, br2].tolist())
                    q = tables.critic.item(0, br, ba)
                    tables.critic[0, br, ba] = q + cfg.lr * (rt + cfg.gamma * boot - q)
                    tables.written[br, ba] = True
            if steps % cfg.target_period == 0:
                np.copyto(tables.target, tables.critic)
            r, c = r2, c2
            t += 1
        sched.record(c, budget)
        log.append(
            TrainRow(
                episode, ep_return, c, sched.value, eps,
                (time.perf_counter() - started) * 1000.0,
            )
        )
    return tables, log


class ActorCriticTables(TableStore):
    """The actor-critic's store: critic planes q and qd, and per row ``logits``.

    Besides TableStore's arrays it keeps ``logits`` (rows, A) and the bool
    mask ``dirty`` (target still lags the critic).  The learner allocates a
    row where it reads a key's probabilities, so every row is a key whose
    policy was read.  There is a single critic per signal because tabular
    twins with equal initialisation and equal targets stay identical.
    """

    LEARNER = "safe_ac"
    META = (*TableStore.META, "alpha_ent")
    SECTIONS = ("q1", "qd1")
    ROW_TABLES = ("logits",)
    DROPPED = ("q2", "qd2")  # the twin critics, always equal to q1 and qd1
    ARRAYS = (*TableStore.ARRAYS, "logits", "dirty")

    def __init__(self, n_actions: int, budget: float, quantum: float, alpha_ent: float):
        super().__init__(n_actions, budget, quantum)
        self.alpha_ent = _positive("alpha_ent", alpha_ent)
        self.logits = np.zeros((64, n_actions))
        self.dirty = np.zeros((64, n_actions), dtype=bool)

    def probabilities(self, r: int) -> list[float]:
        """softmax of the logits row; a fresh row is uniform."""
        row = self.logits[r].tolist()
        top = max(row)
        exps = [math.exp(z - top) for z in row]
        total = sum(exps)
        return [e / total for e in exps]

    def log_probability(self, r: int, a: int, probs: list[float]) -> float:
        """log of ``probs[a]``, the softmax of row ``r``; exact where it underflows to 0.0."""
        if probs[a] > 0.0:
            return math.log(probs[a])
        row = self.logits[r].tolist()
        top = max(row)
        return (row[a] - top) - math.log(sum(math.exp(z - top) for z in row))

    def entropy(self, r: int) -> float:
        return -sum(p * math.log(p) for p in self.probabilities(r) if p > 0.0)

    def act(self, r: int, c: float, d: float) -> int:
        """Exploration-off action at row ``r``: ``constrained_action_select``."""
        return constrained_action_select(self, r, c, d, self.budget)

    def learn_critic(self, r: int, a: int, lr: float, ret_target: float, cost_target: float) -> None:
        """One TD step of both critics toward their n-step targets."""
        q, qd = self.critic[:, r, a].tolist()
        self.critic[0, r, a] = q + lr * (ret_target - q)
        self.critic[1, r, a] = qd + lr * (cost_target - qd)
        self.dirty[r, a] = self.written[r, a] = True

    def step_actor(self, r: int, a: int, step: float, probs: list[float]) -> None:
        """Policy-gradient step on one logits row: step * (onehot(a) - probs)."""
        row = self.logits[r].tolist()
        self.logits[r] = [
            z + step * ((1.0 if b == a else 0.0) - p)
            for b, (z, p) in enumerate(zip(row, probs))
        ]

    def polyak(self, rho: float) -> None:
        """target <- rho * target + (1 - rho) * critic on every dirty entry.

        An entry whose two gaps both fall below 1e-12 leaves the dirty mask
        and stops moving until the critic writes it again.
        """
        dirty = self.dirty.reshape(-1)
        idx = dirty.nonzero()[0]
        tq, tqd = target = self.target.reshape(2, -1)
        main = self.critic.reshape(2, -1).take(idx, axis=1)
        targ = rho * target.take(idx, axis=1) + (1.0 - rho) * main
        tq[idx], tqd[idx] = targ  # one 1-D scatter per plane beats a 2-D one
        gap = np.abs(targ - main)
        dirty[idx[np.maximum(gap[0], gap[1]) < 1e-12]] = False


STORES = {store.LEARNER: store for store in (TableStore, ActorCriticTables)}  # by checkpoint learner


def constrained_action_select(tables: ActorCriticTables, r: int, c: float, d: float, budget: float) -> int:
    """Soft-greedy action of store row ``r`` among those predicted to stay within budget.

    Feasibility adds the future-cost estimate to the cost incurred so far,
    minus the current state's cost (counted in both).
    An empty feasible set falls back to the minimum predicted future cost.
    Ties break to the lowest action index.
    """
    probs = tables.probabilities(r)
    q, qd = tables.critic[:, r].tolist()
    n = tables.n_actions
    feasible = [a for a in range(n) if qd[a] + c - d <= budget]
    if not feasible:
        return argmax_low([-x for x in qd])
    scores = [q[a] - tables.alpha_ent * tables.log_probability(r, a, probs) for a in feasible]
    return feasible[argmax_low(scores)]


def safe_actor_critic(env, cfg: ExperimentConfig, seed: int):
    """Train the constrained softmax actor-critic; returns (tables, log rows)."""
    rng = random.Random(seed)
    budget = env.budget
    tables = ActorCriticTables(env.n_actions, budget, cfg.key_quantum, cfg.alpha_ent)
    sched = LambdaSchedule(cfg.lambda0, cfg.lambda_floor, cfg.window)
    recent_costs: list[float] = []  # rolling window for the safety classifier
    log: list[TrainRow] = []

    for episode in range(cfg.episodes):
        started = time.perf_counter()
        s, c, d = env.reset()
        key = tables.key(s, c)
        init_key = key
        ep_return = 0.0
        done = False
        t = 0
        # Same window signal as the schedule, kept rolling across episodes.
        safe = (max(recent_costs) <= budget) if recent_costs else True
        while not done and t < env.horizon:
            seg = []
            while len(seg) < cfg.n_step and not done and t < env.horizon:
                r = tables.row(key)
                a = constrained_action_select(tables, r, c, d, budget)
                (s2, c2, d2), rew, done = env.step(a)
                key2 = tables.key(s2, c2)
                rt = penalize_sample(
                    rew, c, d2, sched.value, cfg.scheme, budget,
                    env.horizon, gamma=cfg.gamma, t=t + 1,
                )
                seg.append((r, a, rt, d))
                ep_return += rew
                key, c, d = key2, c2, d2
                t += 1
            if done:
                ret_boot = 0.0
                cost_boot = 0.0
            else:
                r = tables.row(key)
                probs = tables.probabilities(r)
                a_tilde = inverse_cdf(enumerate(probs), rng.random())
                ret_boot = (
                    tables.target.item(0, r, a_tilde)
                    - cfg.alpha_ent * tables.log_probability(r, a_tilde, probs)
                )
                a_next = constrained_action_select(tables, r, c, d, budget)
                cost_boot = tables.target.item(1, r, a_next)
            ret_target = ret_boot
            cost_target = cost_boot
            for (r_i, a_i, rt_i, d_i) in reversed(seg):
                ret_target = rt_i + cfg.gamma * ret_target
                cost_target = d_i + cfg.gamma * cost_target
                tables.learn_critic(r_i, a_i, cfg.lr, ret_target, cost_target)
                probs = tables.probabilities(r_i)
                if safe:
                    weight = cfg.safe_weight * (
                        tables.target.item(0, r_i, a_i)
                        - cfg.alpha_ent * tables.log_probability(r_i, a_i, probs)
                    )
                else:
                    weight = -cost_target
                tables.step_actor(r_i, a_i, cfg.lr_actor * weight, probs)
            tables.polyak(cfg.rho)
        sched.record(c, budget)
        recent_costs.append(c)
        if len(recent_costs) > cfg.window:
            recent_costs.pop(0)
        log.append(
            TrainRow(
                episode, ep_return, c, sched.value,
                tables.entropy(tables.row(init_key)),
                (time.perf_counter() - started) * 1000.0,
            )
        )
    return tables, log
