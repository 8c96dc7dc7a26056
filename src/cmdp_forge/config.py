"""Line-oriented `key = value` experiment configuration.

Dotted keys, '#' comments, no nesting.  Every key is typed and range-checked
before any run starts; unknown keys are rejected so typos fail loudly.
Environment settings live under env.*; either a named preset/fixture or a
fully spelled-out grid.  See configs/ for complete examples.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import MISSING, dataclass, fields, replace
from typing import NamedTuple

from .envs import GridConfig, PitCost, desk_grid, large_grid, tiny_grid
from .fixtures import FIXTURES, fixture
from .penalties import PenaltyScheme
from .textio import FormatError, _parse_lines


class ConfigError(ValueError):
    pass


_GRID_PRESETS = {"desk": desk_grid, "large": large_grid, "tiny": tiny_grid}


def parse_value(key: str, parse, value: str):
    """``parse(value)``, its failure reported as a ConfigError naming ``key``."""
    try:
        return parse(value)
    except (ValueError, IndexError) as exc:
        raise ConfigError(f"{key}: cannot parse {value!r} ({exc})") from None


def _float_list(value: str) -> tuple[float, ...]:
    return tuple(float(v) for v in value.replace(",", " ").split())


def _int_list(value: str) -> tuple[int, ...]:
    return tuple(int(v) for v in value.replace(",", " ").split())


def _cell(value: str) -> tuple[int, int]:
    r, c = value.split(",")
    return (int(r), int(c))


def _cells(value: str) -> tuple[tuple[int, int], ...]:
    return tuple(_cell(token) for token in value.split(";") if token.strip())


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
    """Every setting with its default; ``KEYS`` names the config key of each.

    Construction raises ConfigError listing every value outside its key's
    range, so every instance (``replace`` included) is valid; the grid
    checks itself as a GridConfig.
    """

    env_kind: str = "gridworld"
    grid: GridConfig | None = None
    chain_name: str = ""
    learner: str = "safe_ac"
    scheme: PenaltyScheme = PenaltyScheme.RISK_NEUTRAL
    lambda0: float = 2.0
    lambda_floor: float = 0.1
    window: int = 32
    target_period: int = 100
    buffer_capacity: int = 10_000
    n_step: int = 5
    rho: float = 0.95
    alpha_ent: float = 0.1
    safe_weight: float = 1.0
    gamma: float = 1.0
    episodes: int = 4000
    seeds: tuple[int, ...] = (1, 2, 3, 4, 5)
    eval_episodes: int = 1000
    lambda_grid: tuple[float, ...] = ()
    lr: float = 0.1
    lr_actor: float = 0.01
    update_every: int = 4
    epsilon_start: float = 1.0
    epsilon_end: float = 0.05
    key_quantum: float = 0.1

    def __post_init__(self):
        problems = _key_problems(self)
        if problems:
            raise ConfigError("; ".join(problems))


class Key(NamedTuple):
    """One non-env config key: its name in the file, the field it sets, its
    parser, and the range its value must satisfy (``ok``, stated as ``want``).
    Every float in a value must also be finite."""

    name: str
    field: str
    parse: Callable[[str], object]
    ok: Callable[[object], bool]
    want: str


def _one_of(name: str, field: str, options: dict) -> Key:
    def parse(value: str):
        if value not in options:
            raise ValueError(f"want one of {sorted(options)}")
        return options[value]

    return Key(name, field, parse, lambda v: v in options.values(), f"one of {sorted(options)}")


_COUNT = (int, lambda v: v >= 1, ">= 1")
_UNIT = (float, lambda v: 0.0 < v <= 1.0, "in (0, 1]")
_PROBABILITY = (float, lambda v: 0.0 <= v <= 1.0, "in [0, 1]")
_POSITIVE = (float, lambda v: v > 0.0, "finite and > 0")
_NON_NEGATIVE = (float, lambda v: v >= 0.0, "finite and >= 0")

KEYS = (
    _one_of("learner", "learner", {"safe_q": "safe_q", "safe_ac": "safe_ac"}),
    _one_of("scheme.1", "scheme", {s.value: s for s in PenaltyScheme}),
    Key("lambda.1", "lambda0", *_NON_NEGATIVE),
    Key("Lambda_floor", "lambda_floor", *_POSITIVE),
    Key("M", "window", *_COUNT),
    Key("C", "target_period", *_COUNT),
    Key("N", "buffer_capacity", *_COUNT),
    Key("n", "n_step", *_COUNT),
    Key("rho", "rho", float, lambda v: 0.0 <= v < 1.0, "in [0, 1)"),
    Key("alpha_ent", "alpha_ent", *_POSITIVE),
    Key("w", "safe_weight", *_NON_NEGATIVE),
    Key("gamma", "gamma", *_UNIT),
    Key("episodes", "episodes", *_COUNT),
    Key("seeds", "seeds", _int_list, lambda v: len(v) >= 1 and len(set(v)) == len(v),
        "at least one seed, none repeated"),
    Key("eval_episodes", "eval_episodes", *_COUNT),
    Key("lambda_grid", "lambda_grid", _float_list,
        lambda v: all(x >= 0.0 for x in v) and len(set(v)) == len(v),
        "finite weights >= 0, none repeated"),
    Key("lr", "lr", *_UNIT),
    Key("lr_actor", "lr_actor", *_UNIT),
    Key("update_every", "update_every", *_COUNT),
    Key("epsilon.start", "epsilon_start", *_PROBABILITY),
    Key("epsilon.end", "epsilon_end", *_PROBABILITY),
    Key("key_quantum", "key_quantum", *_POSITIVE),
)
# env.<name> sets the GridConfig field <name>; its range is validate_grid_config's.
_ENV_PARSERS = {
    "width": int, "height": int, "start": _cell, "goal": _cell, "pits": _cells,
    "pit_cost": _pit_cost, "noise_p": float, "step_reward": float, "goal_reward": float,
    "horizon": int, "c_max": float,
}
# A spelled-out grid names every GridConfig field that has no default.
_GRID_NEEDS = tuple(f"env.{f.name}" for f in fields(GridConfig) if f.default is MISSING)


def load_config(text: str) -> ExperimentConfig:
    """The config the text sets.  Every value is parsed and unknown keys are
    rejected before any range is checked: the grid's, then the keys'."""
    try:
        raw = {key: value for _line, _section, key, value in _parse_lines(text, sections=False)}
    except FormatError as exc:
        raise ConfigError(str(exc)) from None
    env_kind = raw.pop("env.kind", "gridworld")
    if env_kind not in ("gridworld", "chain"):
        raise ConfigError(f"env.kind: want gridworld or chain, got {env_kind!r}")

    chain_name, grid = "", None
    if env_kind == "gridworld":
        preset = raw.pop("env.preset", None)
        if preset is not None and preset not in _GRID_PRESETS:
            raise ConfigError(f"env.preset: unknown preset {preset!r}; want one of {sorted(_GRID_PRESETS)}")
        missing = [k for k in _GRID_NEEDS if preset is None and k not in raw]
        if missing:
            raise ConfigError("gridworld without env.preset needs " + ", ".join(missing))
        env = {
            name: parse_value(f"env.{name}", parse, raw.pop(f"env.{name}"))
            for name, parse in _ENV_PARSERS.items() if f"env.{name}" in raw
        }
    else:
        chain_name = raw.pop("env.chain", "two_action_chain")
        if chain_name not in FIXTURES:
            raise ConfigError(f"env.chain: unknown fixture {chain_name!r}; want one of {list(FIXTURES)}")
        if (K := fixture(chain_name).cmdp.n_constraints) != 1:
            raise ConfigError(f"env.chain: {chain_name} has {K} constraints; the chain environment takes one")

    values = {k.field: parse_value(k.name, k.parse, raw.pop(k.name)) for k in KEYS if k.name in raw}
    if raw:
        raise ConfigError("unknown config keys: " + ", ".join(sorted(raw)))
    if env_kind == "gridworld":
        try:
            grid = GridConfig(**env) if preset is None else replace(_GRID_PRESETS[preset](), **env)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    return ExperimentConfig(env_kind=env_kind, grid=grid, chain_name=chain_name, **values)


def override(cfg: ExperimentConfig, key: str, value: str) -> ExperimentConfig:
    """``cfg`` with ``key`` set from the text ``value`` as a config line would set it."""
    k = next(k for k in KEYS if k.name == key)
    return replace(cfg, **{k.field: parse_value(key, k.parse, value)})


def _key_problems(cfg: ExperimentConfig) -> list[str]:
    problems = []
    for k in KEYS:
        value = getattr(cfg, k.field)
        items = value if isinstance(value, tuple) else (value,)
        finite = all(math.isfinite(x) for x in items if isinstance(x, float))
        if not (finite and k.ok(value)):
            problems.append(f"{k.name}: want {k.want}, got {value}")
    if cfg.epsilon_end > cfg.epsilon_start:
        problems.append(
            f"epsilon.end: want <= epsilon.start, got {cfg.epsilon_end} > {cfg.epsilon_start}"
        )
    return problems
