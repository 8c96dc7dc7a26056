"""Line-oriented `key = value` experiment configuration.

Dotted keys, '#' comments, no nesting.  Every key is typed and range-checked
before any run starts; unknown keys are rejected so typos fail loudly.
Environment settings live under env.*; either a named preset/fixture or a
fully spelled-out grid.  See configs/ for complete examples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .envs import GridConfig, PitCost, desk_grid, large_grid, tiny_grid, validate_grid_config
from .fixtures import fixture_pack
from .penalties import PenaltyScheme


class ConfigError(ValueError):
    pass


_SCHEMES = {s.value: s for s in PenaltyScheme}
_GRID_PRESETS = {"desk": desk_grid, "large": large_grid, "tiny": tiny_grid}


def parse_kv(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


def _typed(raw: dict[str, str], key: str, kind, default):
    if key not in raw:
        return default
    value = raw.pop(key)
    try:
        if kind is bool:
            if value not in ("true", "false"):
                raise ValueError("want true or false")
            return value == "true"
        return kind(value)
    except ValueError as exc:
        raise ConfigError(f"{key}: cannot parse {value!r} ({exc})") from None


def _float_list(value: str) -> list[float]:
    return [float(v) for v in value.replace(",", " ").split()]


def _int_list(value: str) -> list[int]:
    return [int(v) for v in value.replace(",", " ").split()]


def _cells(value: str) -> tuple[tuple[int, int], ...]:
    cells = []
    for token in value.split(";"):
        token = token.strip()
        if not token:
            continue
        r, c = token.split(",")
        cells.append((int(r), int(c)))
    return tuple(cells)


def _cell(value: str) -> tuple[int, int]:
    r, c = value.split(",")
    return (int(r), int(c))


def _pit_cost(value: str) -> PitCost:
    kind, _, rest = value.partition(":")
    if kind == "uniform":
        lo, hi = (float(v) for v in rest.split(":"))
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("uniform bounds must be finite")
        return PitCost.uniform(lo, hi)
    if kind == "support":
        pairs = []
        for token in rest.split(","):
            v, _, w = token.partition("@")
            pairs.append((float(v), float(w) if w else 1.0))
        if not all(math.isfinite(v) and 0.0 <= w < math.inf for v, w in pairs):
            raise ValueError("support values must be finite and weights finite and >= 0")
        if not 0.0 < sum(w for _, w in pairs) < math.inf:
            raise ValueError("support weights must have a finite positive sum")
        return PitCost.of_support(*pairs)
    raise ValueError(f"unknown pit cost spec {value!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    env_kind: str = "gridworld"
    grid: GridConfig | None = None
    chain_name: str = ""
    learner: str = "safe_ac"
    scheme: PenaltyScheme = PenaltyScheme.RISK_NEUTRAL
    lambda0: float = 2.0
    lambda_floor: float = 0.1
    window: int = 32  # M
    target_period: int = 100  # C
    buffer_capacity: int = 10_000  # N
    n_step: int = 5  # n
    rho: float = 0.95
    alpha_ent: float = 0.1
    safe_weight: float = 1.0  # w
    gamma: float = 1.0
    episodes: int = 4000
    seeds: tuple[int, ...] = (1, 2, 3, 4, 5)
    eval_episodes: int = 1000
    alpha: float = 0.25
    lambda_grid: tuple[float, ...] = ()
    lr: float = 0.1
    lr_actor: float = 0.01
    update_every: int = 4
    epsilon_start: float = 1.0
    epsilon_end: float = 0.05
    key_quantum: float = 0.1


def _grid_from(raw: dict[str, str]) -> GridConfig:
    preset = raw.pop("env.preset", None)
    if preset is not None:
        if preset not in _GRID_PRESETS:
            raise ConfigError(
                f"env.preset: unknown preset {preset!r}; "
                f"want one of {sorted(_GRID_PRESETS)}"
            )
        cfg = _GRID_PRESETS[preset]()
    else:
        required = ("env.width", "env.height", "env.start", "env.goal")
        missing = [k for k in required if k not in raw]
        if missing:
            raise ConfigError(
                "gridworld without env.preset needs " + ", ".join(missing)
            )
        cfg = GridConfig(
            width=1, height=1, start=(0, 0), goal=(0, 0), pits=(),
            pit_cost=PitCost.uniform(1.0, 1.5),
        )
    overrides = {}
    for key, kind, name in (
        ("env.width", int, "width"),
        ("env.height", int, "height"),
        ("env.start", _cell, "start"),
        ("env.goal", _cell, "goal"),
        ("env.pits", _cells, "pits"),
        ("env.pit_cost", _pit_cost, "pit_cost"),
        ("env.noise_p", float, "noise_p"),
        ("env.step_reward", float, "step_reward"),
        ("env.goal_reward", float, "goal_reward"),
        ("env.horizon", int, "horizon"),
        ("env.c_max", float, "c_max"),
    ):
        if key in raw:
            value = raw.pop(key)
            try:
                overrides[name] = kind(value)
            except (ValueError, IndexError) as exc:
                raise ConfigError(f"{key}: cannot parse {value!r} ({exc})") from None
    return replace(cfg, **overrides)


def load_config(text: str) -> ExperimentConfig:
    raw = parse_kv(text)
    env_kind = raw.pop("env.kind", "gridworld")
    if env_kind not in ("gridworld", "chain"):
        raise ConfigError(f"env.kind: want gridworld or chain, got {env_kind!r}")

    grid = None
    chain_name = ""
    if env_kind == "gridworld":
        grid = _grid_from(raw)
    else:
        chain_name = raw.pop("env.chain", "two_action_chain")
        names = [f.name for f in fixture_pack()]
        if chain_name not in names:
            raise ConfigError(f"env.chain: unknown fixture {chain_name!r}; want one of {names}")

    learner = _typed(raw, "learner", str, "safe_ac")
    if learner not in ("safe_q", "safe_ac"):
        raise ConfigError(f"learner: want safe_q or safe_ac, got {learner!r}")

    token = raw.pop("scheme.1", "rn")
    if token not in _SCHEMES:
        raise ConfigError(f"scheme.1: want one of {sorted(_SCHEMES)}, got {token!r}")

    cfg = ExperimentConfig(
        env_kind=env_kind,
        grid=grid,
        chain_name=chain_name,
        learner=learner,
        scheme=_SCHEMES[token],
        lambda0=_typed(raw, "lambda.1", float, 2.0),
        lambda_floor=_typed(raw, "Lambda_floor", float, 0.1),
        window=_typed(raw, "M", int, 32),
        target_period=_typed(raw, "C", int, 100),
        buffer_capacity=_typed(raw, "N", int, 10_000),
        n_step=_typed(raw, "n", int, 5),
        rho=_typed(raw, "rho", float, 0.95),
        alpha_ent=_typed(raw, "alpha_ent", float, 0.1),
        safe_weight=_typed(raw, "w", float, 1.0),
        gamma=_typed(raw, "gamma", float, 1.0),
        episodes=_typed(raw, "episodes", int, 4000),
        seeds=tuple(_typed(raw, "seeds", _int_list, [1, 2, 3, 4, 5])),
        eval_episodes=_typed(raw, "eval_episodes", int, 1000),
        alpha=_typed(raw, "alpha", float, 0.25),
        lambda_grid=tuple(_typed(raw, "lambda_grid", _float_list, [])),
        lr=_typed(raw, "lr", float, 0.1),
        lr_actor=_typed(raw, "lr_actor", float, 0.01),
        update_every=_typed(raw, "update_every", int, 4),
        epsilon_start=_typed(raw, "epsilon.start", float, 1.0),
        epsilon_end=_typed(raw, "epsilon.end", float, 0.05),
        key_quantum=_typed(raw, "key_quantum", float, 0.1),
    )
    if raw:
        raise ConfigError("unknown config keys: " + ", ".join(sorted(raw)))
    return validate_config(cfg)


def learner_problems(cfg: ExperimentConfig) -> list[str]:
    """Range problems of the values the learners read."""
    problems = []
    if not (0.0 < cfg.gamma <= 1.0):
        problems.append(f"gamma: must be in (0, 1], got {cfg.gamma}")
    if cfg.lambda_floor <= 0.0:
        problems.append(f"Lambda_floor: must be > 0, got {cfg.lambda_floor}")
    if cfg.lambda0 < 0.0:
        problems.append(f"lambda.1: must be >= 0, got {cfg.lambda0}")
    for name in ("window", "target_period", "buffer_capacity", "n_step",
                 "episodes", "update_every"):
        if getattr(cfg, name) < 1:
            problems.append(f"{name}: must be >= 1, got {getattr(cfg, name)}")
    if not (0.0 <= cfg.rho < 1.0):
        problems.append(f"rho: must be in [0, 1), got {cfg.rho}")
    if cfg.alpha_ent <= 0.0:
        problems.append(f"alpha_ent: must be > 0, got {cfg.alpha_ent}")
    for name in ("lr", "lr_actor"):
        if not (0.0 < getattr(cfg, name) <= 1.0):
            problems.append(f"{name}: must be in (0, 1], got {getattr(cfg, name)}")
    if not (0.0 <= cfg.epsilon_end <= cfg.epsilon_start <= 1.0):
        problems.append(
            f"epsilon: want 0 <= end <= start <= 1, got "
            f"{cfg.epsilon_end}, {cfg.epsilon_start}"
        )
    if cfg.key_quantum <= 0.0:
        problems.append(f"key_quantum: must be > 0, got {cfg.key_quantum}")
    return problems


def validate_learner(cfg: ExperimentConfig) -> None:
    """The learners' entry check: the learner part of ``validate_config``."""
    problems = learner_problems(cfg)
    if problems:
        raise ConfigError("; ".join(problems))


def validate_config(cfg: ExperimentConfig) -> ExperimentConfig:
    """Every check: the environment, the learner part, then the run's own keys."""
    problems = []
    if cfg.env_kind == "gridworld":
        problems += [f"env: {p}" for p in validate_grid_config(cfg.grid)]
    problems += learner_problems(cfg)
    if not (0.0 < cfg.alpha <= 1.0):
        problems.append(f"alpha: must be in (0, 1], got {cfg.alpha}")
    if any(l < 0.0 for l in cfg.lambda_grid):
        problems.append("lambda_grid: penalty weights must be >= 0")
    if cfg.eval_episodes < 1:
        problems.append(f"eval_episodes: must be >= 1, got {cfg.eval_episodes}")
    if not cfg.seeds:
        problems.append("seeds: need at least one seed")
    if problems:
        raise ConfigError("; ".join(problems))
    return cfg
