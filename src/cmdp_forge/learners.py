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
from collections import defaultdict
from dataclasses import dataclass, field

from .config import ExperimentConfig, validate_learner
from .extended import VIOLATED
from .penalties import PenaltyScheme, penalty_amount

TD_UPDATES = 8  # replay samples per Q-learner update period


def ledger_bucket(c: float, budget: float, quantum: float) -> int:
    """Table-key bucket for an accumulated cost; one bucket once over budget."""
    return VIOLATED if c > budget else round(c / quantum)


def obs_key(s: int, c: float, budget: float, quantum: float) -> tuple[int, int]:
    return (s, ledger_bucket(c, budget, quantum))


def penalize_sample(
    r: float,
    c: float,
    d: float,
    lam: float,
    scheme: PenaltyScheme,
    budget: float,
    t: int,
    gamma: float = 1.0,
) -> float:
    """Per-sample penalized reward for one stored transition.

    c is the cost accumulated before the arrival being assessed, d the
    arriving state's cost and t the arrival's epoch; the amount is
    ``penalty_amount``, discounted per step as amount / gamma^t when gamma < 1.
    """
    amount = penalty_amount(scheme, lam, c, d, budget, t)
    if amount == 0.0:
        return r
    if gamma == 1.0:
        return r - amount
    return r - amount / gamma**t


@dataclass
class LambdaSchedule:
    """Multiplicative decay of the penalty weight while recent episodes stay safe.

    Every ``window`` episodes: if the window's max final cost is under the
    budget and decaying would stay above the floor, multiply by ``decay``;
    the window is emptied either way.
    """

    value: float
    floor: float
    window: int
    decay: float = 0.95
    costs: list[float] = field(default_factory=list)

    def record(self, final_cost: float, budget: float) -> None:
        self.costs.append(final_cost)
        if len(self.costs) < self.window:
            return
        if max(self.costs) < budget and self.decay * self.value > self.floor:
            self.value *= self.decay
        self.costs.clear()


class ReplayBuffer:
    """Uniform-sampling ring of transitions."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.items: list = []
        self._next = 0

    def __len__(self):
        return len(self.items)

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


def _argmax_low(scores) -> int:
    best = max(scores)
    for i, v in enumerate(scores):
        if v >= best - 1e-12:
            return i
    raise AssertionError("empty score list")


def _epsilon(cfg: ExperimentConfig, episode: int) -> float:
    half = max(1, cfg.episodes // 2)
    frac = min(1.0, episode / half)
    return cfg.epsilon_start + (cfg.epsilon_end - cfg.epsilon_start) * frac


def greedy_action(q: dict, key, n_actions: int) -> int:
    return _argmax_low([q.get((key, a), 0.0) for a in range(n_actions)])


def safe_q_learning(env, cfg: ExperimentConfig, seed: int):
    """Train a penalized Q table; returns (q, log rows, schedule)."""
    validate_learner(cfg)
    rng = random.Random(seed)
    q: dict = defaultdict(float)
    target: dict = {}
    buffer = ReplayBuffer(cfg.buffer_capacity)
    sched = LambdaSchedule(cfg.lambda0, cfg.lambda_floor, cfg.window)
    budget = env.budget
    nA = env.n_actions
    log: list[TrainRow] = []
    steps = 0
    for episode in range(cfg.episodes):
        started = time.perf_counter()
        s, c, _d = env.reset()
        key = obs_key(s, c, budget, cfg.key_quantum)
        eps = _epsilon(cfg, episode)
        ep_return = 0.0
        done = False
        t = 0
        while not done and t < env.horizon:
            if rng.random() < eps:
                a = rng.randrange(nA)
            else:
                a = greedy_action(q, key, nA)
            (s2, c2, d2), r, done = env.step(a)
            key2 = obs_key(s2, c2, budget, cfg.key_quantum)
            ep_return += r
            buffer.push((key, a, r, key2, done, c, d2, t + 1))
            steps += 1
            if steps % cfg.update_every == 0:
                for _ in range(TD_UPDATES):
                    bkey, ba, br, bkey2, bdone, bc, bd, bepoch = buffer.sample(rng)
                    rt = penalize_sample(
                        br, bc, bd, sched.value, cfg.scheme, budget,
                        gamma=cfg.gamma, t=bepoch,
                    )
                    boot = 0.0
                    if not bdone:
                        boot = max(target.get((bkey2, b), 0.0) for b in range(nA))
                    y = rt + cfg.gamma * boot
                    q[(bkey, ba)] += cfg.lr * (y - q[(bkey, ba)])
            if steps % cfg.target_period == 0:
                target = dict(q)
            key, c = key2, c2
            t += 1
        sched.record(c, budget)
        log.append(
            TrainRow(
                episode, ep_return, c, sched.value, eps,
                (time.perf_counter() - started) * 1000.0,
            )
        )
    return dict(q), log, sched


class SoftmaxPolicy:
    """Action distribution softmax(logits row); rows default to uniform."""

    def __init__(self, n_actions: int, alpha_ent: float):
        self.n_actions = n_actions
        self.alpha_ent = alpha_ent
        self.logits: dict = defaultdict(float)

    def probabilities(self, key) -> list[float]:
        row = [self.logits[(key, a)] for a in range(self.n_actions)]
        top = max(row)
        exps = [math.exp(z - top) for z in row]
        total = sum(exps)
        return [e / total for e in exps]

    def sample(self, key, rng: random.Random) -> int:
        probs = self.probabilities(key)
        u = rng.random()
        acc = 0.0
        for a, p in enumerate(probs):
            acc += p
            if u <= acc:
                return a
        return self.n_actions - 1

    def entropy(self, key) -> float:
        return -sum(p * math.log(p) for p in self.probabilities(key) if p > 0.0)


def constrained_action_select(
    key,
    policy: SoftmaxPolicy,
    q: dict,
    qd: dict,
    c: float,
    d: float,
    budget: float,
) -> int:
    """Soft-greedy action among those predicted to stay within budget.

    Feasibility adds the future-cost estimate to the cost incurred so far,
    minus the current state's cost (counted in both).
    An empty feasible set falls back to the minimum predicted future cost.
    Ties break to the lowest action index.
    """
    probs = policy.probabilities(key)
    future = [qd.get((key, a), 0.0) for a in range(policy.n_actions)]
    feasible = [a for a in range(policy.n_actions) if future[a] + c - d <= budget]
    if not feasible:
        return _argmax_low([-future[a] for a in range(policy.n_actions)])
    scores = [q.get((key, a), 0.0) - policy.alpha_ent * math.log(probs[a]) for a in feasible]
    return feasible[_argmax_low(scores)]


class ActorCriticTables:
    """Policy logits plus one reward critic and one cost critic, each with a target.

    There is a single critic per signal because tabular twins with equal
    initialisation and equal targets stay identical, so a min/max over them
    is the identity.
    """

    def __init__(self, n_actions: int, alpha_ent: float):
        self.policy = SoftmaxPolicy(n_actions, alpha_ent)
        self.q: dict = defaultdict(float)
        self.qd: dict = defaultdict(float)
        self.tq: dict = defaultdict(float)
        self.tqd: dict = defaultdict(float)
        # Keys whose target entries still lag their main entries.
        self.dirty: set = set()

    def select(self, key, c: float, d: float, budget: float) -> int:
        return constrained_action_select(key, self.policy, self.q, self.qd, c, d, budget)

    def polyak(self, rho: float) -> None:
        settled = []
        for entry in self.dirty:
            gap = 0.0
            for main, targ in ((self.q, self.tq), (self.qd, self.tqd)):
                targ[entry] = rho * targ[entry] + (1.0 - rho) * main[entry]
                gap = max(gap, abs(targ[entry] - main[entry]))
            if gap < 1e-12:
                settled.append(entry)
        for entry in settled:
            self.dirty.discard(entry)


def safe_actor_critic(env, cfg: ExperimentConfig, seed: int):
    """Train the constrained softmax actor-critic; returns (tables, log, schedule)."""
    validate_learner(cfg)
    rng = random.Random(seed)
    nA = env.n_actions
    budget = env.budget
    tables = ActorCriticTables(nA, cfg.alpha_ent)
    sched = LambdaSchedule(cfg.lambda0, cfg.lambda_floor, cfg.window)
    recent_costs: list[float] = []  # rolling window for the safety classifier
    log: list[TrainRow] = []

    for episode in range(cfg.episodes):
        started = time.perf_counter()
        s, c, d = env.reset()
        key = obs_key(s, c, budget, cfg.key_quantum)
        init_key = key
        ep_return = 0.0
        done = False
        t = 0
        # Same window signal as the schedule, kept rolling across episodes.
        safe = (max(recent_costs) < budget) if recent_costs else True
        while not done and t < env.horizon:
            seg = []
            while len(seg) < cfg.n_step and not done and t < env.horizon:
                a = tables.select(key, c, d, budget)
                (s2, c2, d2), r, done = env.step(a)
                key2 = obs_key(s2, c2, budget, cfg.key_quantum)
                rt = penalize_sample(
                    r, c, d2, sched.value, cfg.scheme, budget,
                    gamma=cfg.gamma, t=t + 1,
                )
                seg.append((key, a, rt, d))
                ep_return += r
                key, c, d = key2, c2, d2
                t += 1
            if done:
                ret_boot = 0.0
                cost_boot = 0.0
            else:
                probs = tables.policy.probabilities(key)
                a_tilde = tables.policy.sample(key, rng)
                ret_boot = (
                    tables.tq.get((key, a_tilde), 0.0)
                    - cfg.alpha_ent * math.log(probs[a_tilde])
                )
                a_next = tables.select(key, c, d, budget)
                cost_boot = tables.tqd.get((key, a_next), 0.0)
            ret_target = ret_boot
            cost_target = cost_boot
            for (k_i, a_i, rt_i, d_i) in reversed(seg):
                ret_target = rt_i + cfg.gamma * ret_target
                cost_target = d_i + cfg.gamma * cost_target
                entry = (k_i, a_i)
                tables.q[entry] += cfg.lr * (ret_target - tables.q[entry])
                tables.qd[entry] += cfg.lr * (cost_target - tables.qd[entry])
                tables.dirty.add(entry)
                probs = tables.policy.probabilities(k_i)
                if safe:
                    weight = cfg.safe_weight * (
                        tables.tq.get(entry, 0.0)
                        - cfg.alpha_ent * math.log(probs[a_i])
                    )
                else:
                    weight = -cost_target
                step = cfg.lr_actor * weight
                for b in range(nA):
                    grad = (1.0 if b == a_i else 0.0) - probs[b]
                    tables.policy.logits[(k_i, b)] += step * grad
            tables.polyak(cfg.rho)
        sched.record(c, budget)
        recent_costs.append(c)
        if len(recent_costs) > cfg.window:
            recent_costs.pop(0)
        log.append(
            TrainRow(
                episode, ep_return, c, sched.value,
                tables.policy.entropy(init_key),
                (time.perf_counter() - started) * 1000.0,
            )
        )
    return tables, log, sched
