"""Plain-text serialization: model files and learner checkpoints.

Model file grammar (decimal numbers, '#' starts a comment, blank lines
ignored; the scalar keys, these four only, budget.k once per constraint,
come before the first section header):

    s0 = 0
    horizon = 1
    discount = 1
    budget.1 = 2
    [states]
    0 = start          # one line per state, indices 0..S-1 in order
    [actions]
    0 = safe
    [transition]
    0 0 = 0 1 0        # "s a = p0 .. p_{S-1}"; listed pairs are available
    [reward]
    0 0 = 1            # omitted available pairs default to 0
    [cost.1]
    2 = 3              # omitted states default to 0

Numbers render canonically (integral values without a decimal point,
others via shortest round-trip repr), so load -> dump -> load is
value-identical and dump is idempotent for decimal inputs.  Both
directions do their per-entry work once per distinct value: the dump
formats each distinct transition probability once (0.0 and -0.0 share
an entry; both render as 0), the load parses each distinct
``[transition]`` token once with ``float`` and stores the checked rows
in one assignment.

Checkpoint files reuse the same key = value / [section] shape; table rows
are "state bucket action = value", bucket an integer >= 0 or V (over budget).
"""

from __future__ import annotations

import math
import re

import numpy as np

from .extended import VIOLATED
from .model import Cmdp


class FormatError(ValueError):
    pass


class _Memo(dict):
    """A dict that fills a missing key with ``fn(key)``; nothing is kept
    for a key whose ``fn`` raises."""

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


def format_number(x: float) -> str:
    if not math.isfinite(x):
        return str(float(x))
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(float(x))


def _parse_lines(text: str, sections: bool = True):
    """Yield (lineno, section, key, value) for every assignment line.

    A key given twice in one section is an error, whatever its spacing or
    the leading zeros of its indices; so is a ``[section]`` line when
    ``sections`` is false.
    """
    section = None
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if sections and line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            continue
        if "=" not in line:
            raise FormatError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = " ".join(str(int(token)) if token.isdecimal() else token for token in key.split())
        if (section, key) in seen:
            raise FormatError(f"line {lineno}: duplicate key {key!r}")
        seen.add((section, key))
        yield lineno, section, key, value.strip()


def dump_cmdp(m: Cmdp) -> str:
    out = []
    out.append(f"s0 = {m.s0}")
    out.append(f"horizon = {m.horizon}")
    out.append(f"discount = {format_number(m.discount)}")
    for k, b in enumerate(m.budgets, start=1):
        out.append(f"budget.{k} = {format_number(b)}")
    out.append("[states]")
    for s in range(m.n_states):
        out.append(f"{s} = {m.state_name(s)}")
    out.append("[actions]")
    for a in range(m.n_actions):
        name = m.action_names[a] if m.action_names else f"a{a}"
        out.append(f"{a} = {name}")
    out.append("[transition]")
    render = _Memo(format_number).__getitem__
    rows = m.transition.tolist()
    for s in range(m.n_states):
        for a in m.actions_at(s):
            out.append(f"{s} {a} = {' '.join(map(render, rows[s][a]))}")
    out.append("[reward]")
    for s in range(m.n_states):
        for a in m.actions_at(s):
            if m.reward[s, a] != 0.0:
                out.append(f"{s} {a} = {format_number(m.reward[s, a])}")
    for k in range(m.n_constraints):
        out.append(f"[cost.{k + 1}]")
        for s in range(m.n_states):
            if m.costs[k, s] != 0.0:
                out.append(f"{s} = {format_number(m.costs[k, s])}")
    return "\n".join(out) + "\n"


def _in_range(lineno: int, what: str, index: int, n: int) -> int:
    if not 0 <= index < n:
        raise FormatError(f"line {lineno}: {what} index {index} is not in [0, {n})")
    return index


def _scalar(scalars: dict[str, str], key: str, kind):
    try:
        return kind(scalars[key])
    except ValueError as exc:
        raise FormatError(f"{key}: {exc}") from None


def load_cmdp(text: str) -> Cmdp:
    scalars: dict[str, str] = {}
    states: list[tuple[int, str]] = []
    actions: list[tuple[int, str]] = []
    # Table rows keep their line number until S and A are known.
    transitions: list[tuple[int, int, int, list[float]]] = []
    rewards: list[tuple[int, int, int, float]] = []
    costs: dict[int, list[tuple[int, int, float]]] = {}
    number = _Memo(float).__getitem__

    for lineno, section, key, value in _parse_lines(text):
        try:
            if section is None:
                if not re.fullmatch(r"s0|horizon|discount|budget\.[1-9][0-9]*", key):
                    raise FormatError(f"line {lineno}: unknown key {key!r}")
                scalars[key] = value
            elif section == "states":
                states.append((int(key), value))
            elif section == "actions":
                actions.append((int(key), value))
            elif section == "transition":
                s, a = key.split()
                transitions.append((lineno, int(s), int(a), list(map(number, value.split()))))
            elif section == "reward":
                s, a = key.split()
                rewards.append((lineno, int(s), int(a), float(value)))
            elif section.startswith("cost."):
                k = int(section.split(".", 1)[1])
                costs.setdefault(k, []).append((lineno, int(key), float(value)))
            else:
                raise FormatError(f"line {lineno}: unknown section [{section}]")
        except (ValueError, IndexError) as exc:
            if isinstance(exc, FormatError):
                raise
            raise FormatError(f"line {lineno}: {exc}") from None

    for name in ("s0", "horizon"):
        if name not in scalars:
            raise FormatError(f"missing scalar key {name}")
    scalars.setdefault("discount", "1")
    S = len(states)
    A = len(actions)
    if sorted(i for i, _ in states) != list(range(S)):
        raise FormatError("[states] must list indices 0..S-1 exactly once")
    if sorted(i for i, _ in actions) != list(range(A)):
        raise FormatError("[actions] must list indices 0..A-1 exactly once")
    ks = sorted(costs)
    n_budget = len([k for k in scalars if k.startswith("budget.")])
    K = max(n_budget, len(ks), 1)
    if ks and ks != list(range(1, len(ks) + 1)):
        raise FormatError("[cost.k] sections must be numbered 1..K")

    transition = np.zeros((S, A, S))
    reward = np.zeros((S, A))
    available = np.zeros((S, A), dtype=bool)
    cost_arr = np.zeros((K, S))
    budgets = []
    for k in range(1, K + 1):
        key = f"budget.{k}"
        if key not in scalars:
            raise FormatError(f"missing scalar key {key}")
        budgets.append(_scalar(scalars, key, float))
    for lineno, s, a, row in transitions:
        _in_range(lineno, "state", s, S)
        _in_range(lineno, "action", a, A)
        if len(row) != S:
            raise FormatError(
                f"line {lineno}: transition row ({s},{a}) has {len(row)} entries for {S} states"
            )
    if transitions:
        _, s, a, rows = zip(*transitions)
        transition[s, a] = rows
        available[s, a] = True
    for lineno, s, a, r in rewards:
        if not available[_in_range(lineno, "state", s, S), _in_range(lineno, "action", a, A)]:
            raise FormatError(f"line {lineno}: reward listed for unavailable pair ({s},{a})")
        reward[s, a] = r
    for k, rows in costs.items():
        for lineno, s, d in rows:
            cost_arr[k - 1, _in_range(lineno, "state", s, S)] = d

    return Cmdp(
        transition=transition,
        reward=reward,
        costs=cost_arr,
        budgets=tuple(budgets),
        horizon=_scalar(scalars, "horizon", int),
        discount=_scalar(scalars, "discount", float),
        s0=_scalar(scalars, "s0", int),
        available=available,
        state_names=tuple(name for _, name in sorted(states)),
        action_names=tuple(name for _, name in sorted(actions)),
    )


# --- checkpoints -------------------------------------------------------------

_BUCKET_V = "V"


def _bucket_str(bucket: int) -> str:
    return _BUCKET_V if bucket == VIOLATED else str(bucket)


def _parse_bucket(token: str) -> int:
    if token != _BUCKET_V and not token.isdecimal():
        raise ValueError(f"bucket {token!r} is not V or an integer >= 0")
    return VIOLATED if token == _BUCKET_V else int(token)


def _dump_table(name: str, table: dict, out: list[str]) -> None:
    out.append(f"[{name}]")
    for ((s, bucket), a), value in sorted(table.items()):
        out.append(f"{s} {_bucket_str(bucket)} {a} = {repr(value)}")


def dump_checkpoint(learner: str, tables: dict[str, dict], meta: dict) -> str:
    """Serialize learner tables; ``tables`` maps section name -> table dict."""
    out = ["format = checkpoint.v1", f"learner = {learner}"]
    for key in sorted(meta):
        out.append(f"{key} = {format_number(float(meta[key]))}")
    for name in sorted(tables):
        _dump_table(name, tables[name], out)
    return "\n".join(out) + "\n"


def load_checkpoint(text: str) -> tuple[str, dict[str, dict], dict[str, float]]:
    """(learner, tables, meta) of a checkpoint.v1 text.

    Which keys and sections a learner's checkpoint holds is for its table
    store to check; this reads the format alone.
    """
    learner = fmt = None
    meta: dict[str, float] = {}
    tables: dict[str, dict] = {}
    for lineno, section, key, value in _parse_lines(text):
        try:
            if section is None:
                if key == "format":
                    fmt = value
                    if value != "checkpoint.v1":
                        raise FormatError(f"unsupported checkpoint format {value!r}")
                elif key == "learner":
                    learner = value
                else:
                    meta[key] = float(value)
                continue
            parts = key.split()
            if len(parts) != 3:
                raise FormatError(f"line {lineno}: expected 'state bucket action = value'")
            s, bucket, a = parts
            if not s.isdecimal():
                raise FormatError(f"line {lineno}: state {s!r} is not an integer >= 0")
            action = int(a)
            if "n_actions" in meta and not 0 <= action < meta["n_actions"]:
                raise FormatError(
                    f"line {lineno}: action {action} is not in [0, n_actions) "
                    f"for n_actions = {meta['n_actions']:g}"
                )
            number = float(value)
            if not math.isfinite(number):
                raise FormatError(f"line {lineno}: table value {value!r} is not finite")
            tables.setdefault(section, {})[((int(s), _parse_bucket(bucket)), action)] = number
        except ValueError as exc:
            if isinstance(exc, FormatError):
                raise
            raise FormatError(f"line {lineno}: {exc}") from None
    for key, value in (("format", fmt), ("learner", learner)):
        if value is None:
            raise FormatError(f"checkpoint missing a {key} key")
    return learner, tables, meta
