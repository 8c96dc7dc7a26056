import math
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmdp_forge.fixtures import fixture_pack, two_action_chain
from cmdp_forge.cli import _checkpoint
from cmdp_forge.learners import STORES
from cmdp_forge.model import validate_cmdp
from cmdp_forge.textio import (
    FormatError,
    dump_checkpoint,
    dump_cmdp,
    format_number,
    load_checkpoint,
    load_cmdp,
)


def test_numbers_render_canonically():
    assert format_number(2.0) == "2"
    assert format_number(0.25) == "0.25"
    assert format_number(-1.0) == "-1"
    assert format_number(1.5) == "1.5"


def models_equal(a, b):
    return (
        np.array_equal(a.transition, b.transition)
        and np.array_equal(a.reward, b.reward)
        and np.array_equal(a.costs, b.costs)
        and a.budgets == b.budgets
        and a.horizon == b.horizon
        and a.discount == b.discount
        and a.s0 == b.s0
        and a.state_names == b.state_names
    )


def test_round_trip_every_fixture():
    for f in fixture_pack():
        text = dump_cmdp(f.cmdp)
        again = load_cmdp(text)
        assert models_equal(f.cmdp, again), f.name
        assert dump_cmdp(again) == text, f.name


def test_decimal_values_survive_exactly():
    m = two_action_chain()
    again = load_cmdp(dump_cmdp(m))
    assert float(again.costs[0, 2]) == 3.0
    assert again.budgets == (2.0,)


def test_handwritten_file_parses():
    text = """
# tiny corridor
s0 = 0
horizon = 2
discount = 0.5
budget.1 = 1.25
[states]
0 = a
1 = b
[actions]
0 = go
[transition]
0 0 = 0 1
1 0 = 0 1
[reward]
0 0 = 1.5
[cost.1]
1 = 0.25
"""
    m = load_cmdp(text)
    assert m.n_states == 2 and m.n_actions == 1
    assert m.discount == 0.5
    assert float(m.costs[0, 1]) == 0.25
    assert m.budgets == (1.25,)


@pytest.mark.parametrize(
    "mutation,needle",
    [
        ("s0 = 0\n", "missing scalar key horizon"),
        ("s0 = 0\nhorizon = 1\nbudget.1 = 1\n[states]\n0 = a\n2 = b\n[actions]\n0 = x\n",
         "indices 0..S-1"),
        ("s0 = 0\nhorizon = 1\n[states]\n0 = a\n[actions]\n0 = x\n[cost.1]\n0 = 1\n",
         "missing scalar key budget.1"),
        ("s0 = 0\nhorizon = 1\nbudget.1 = 1\n[states]\n0 = a\n[actions]\n0 = x\n"
         "[transition]\n0 0 = 1\n[reward]\n0 0 broken\n", "expected 'key = value'"),
    ],
)
def test_malformed_files_are_named(mutation, needle):
    with pytest.raises(FormatError, match=needle):
        load_cmdp(mutation)


def test_checkpoint_round_trip():
    q = {((0, 0), 0): 1.5, ((0, 0), 1): -2.0, ((3, -1), 2): 0.25}
    text = dump_checkpoint("safe_q", {"q": q}, {"quantum": 0.1, "budget": 2.0, "n_actions": 4})
    learner, tables, meta = load_checkpoint(text)
    assert learner == "safe_q"
    assert tables["q"] == q
    assert meta["budget"] == 2.0
    assert dump_checkpoint(learner, tables, meta) == text


def test_checkpoint_rejects_unknown_format():
    with pytest.raises(FormatError):
        load_checkpoint("format = checkpoint.v9\nlearner = safe_q\n")


Q_HEAD = "format = checkpoint.v1\nlearner = safe_q\nbudget = 2\nn_actions = 2\nquantum = 1\n[q]\n"


def test_checkpoint_bucket_is_v_or_an_integer_at_least_zero():
    _, tables, _ = load_checkpoint(Q_HEAD + "0 V 0 = 2.0\n0 3 1 = 1.0\n")
    assert tables["q"] == {((0, -1), 0): 2.0, ((0, 3), 1): 1.0}
    # -1 would alias V's key; no learner writes a negative bucket.
    for row, token in (("0 -1 0 = 1.0\n0 V 0 = 2.0", "-1"), ("0 -7 1 = 3.0", "-7"), ("0 v 0 = 1", "v"),
                       ("0 1.5 0 = 1", "1.5")):
        with pytest.raises(FormatError, match=f"^line 7: bucket '{token}' is not V or an integer >= 0$"):
            load_checkpoint(Q_HEAD + row + "\n")


def test_model_file_rejects_an_unknown_scalar_key():
    text = dump_cmdp(two_action_chain())
    for key in ("discont", "budget.0", "budget.x", "S0"):
        with pytest.raises(FormatError, match=f"^line 3: unknown key '{key}'$"):
            load_cmdp(text.replace("discount", key))


# One line of text: no character that str.splitlines breaks on.
_LINE_TEXT = st.text(
    st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")), max_size=12
)
_TOKENS = st.sampled_from(["0", "1", "3", "-1", "V", "2.5", "1e400", "nan", "x", "#", "="])
_ROW = st.tuples(
    st.sampled_from(["0", "7", "-1"]), st.sampled_from(["0", "2", "V"]),
    st.sampled_from(["0", "1", "3", "4", "-1"]),
).map(" ".join)
_NUMBER = st.sampled_from(["0", "-1.5", "2", "1e300", "inf", "nan", "1e999"])
# Lines shaped like a table, so that most files load and reach the store...
_TABLE_LINE = st.one_of(
    st.sampled_from(["[logits]", "[q1]", "[qd1]", "[q]"]),
    st.tuples(_ROW, _NUMBER).map(" = ".join),
)
# ...and lines of any text.
_ANY_LINE = st.one_of(
    _LINE_TEXT.map(lambda name: f"[{name}]"),
    st.tuples(st.one_of(st.lists(_TOKENS, max_size=4).map(" ".join), _LINE_TEXT),
              st.one_of(_NUMBER, st.just("x"), _LINE_TEXT)).map(" = ".join),
    _LINE_TEXT,
)
# Each meta key is valid in most draws; None leaves it out.
_META = st.fixed_dictionaries({
    name: st.sampled_from(valid * 12 + invalid)
    for name, valid, invalid in (
        ("n_actions", ["2", "1", "4"], [None, "0", "-2", "2.5", "nan", "inf", "two"]),
        ("quantum", ["1", "0.25"], [None, "0", "-1", "nan", "inf"]),
        ("budget", ["2"], [None, "nan", "x"]),
        ("alpha_ent", ["0.1", None], ["0", "-1", "nan", "inf"]),
    )
})


# Each learner's checkpoint keys, the sections it writes and those older versions wrote.
_WRITES = {
    "safe_q": (("n_actions", "budget", "quantum"), ("q",), ()),
    "safe_ac": (("n_actions", "budget", "quantum", "alpha_ent"), ("logits", "q1", "qd1"), ("q2", "qd2")),
}


def _store_refusal(learner, tables, meta, env):
    """The start of the message the checkpoint's store refuses it with, or None."""
    if learner not in _WRITES:
        return "unknown learner"
    keys, names, dropped = _WRITES[learner]
    foreign_keys = [key for key in meta if key not in keys]
    if foreign_keys:
        return f"checkpoint key {foreign_keys[0]} is not one that {learner} writes"
    missing = [key for key in keys if key not in meta]
    if missing:
        return f"checkpoint missing a {missing[0]} key"
    for key in ("n_actions", "budget"):
        if meta[key] != getattr(env, key):
            return f"checkpoint {key} = "
    foreign = [name for name in tables if name not in names + dropped]
    if foreign:  # the first section its learner does not write is named
        return f"section [{foreign[0]}] is not one that {learner} writes"
    bad = [key for key in ("quantum", "alpha_ent") if key in meta and not 0.0 < meta[key] < math.inf]
    return f"{bad[0]}: want finite and > 0, got " if bad else None


@settings(max_examples=400)
@given(
    st.sampled_from(["safe_ac"] * 4 + ["safe_q"] * 4 + ["other"]),
    _META,
    st.one_of(st.lists(_TABLE_LINE, max_size=8), st.lists(_ANY_LINE, max_size=8)),
)
def test_any_checkpoint_text_loads_or_raises_a_named_error(learner, meta, lines):
    """``load_checkpoint`` reads the format; the store of the learner it names
    checks the keys, the sections and the values the store is built from."""
    if learner == "safe_q" and meta["alpha_ent"] == "0.1":
        meta = {**meta, "alpha_ent": None}  # a valid safe_q checkpoint has no alpha_ent
    head = ["format = checkpoint.v1", f"learner = {learner}"]
    head += [f"{name} = {value}" for name, value in meta.items() if value is not None]
    text = "\n".join(head + lines) + "\n"
    try:
        learner, tables, meta = load_checkpoint(text)
    except FormatError:
        return
    n = meta.get("n_actions")  # an environment that every valid count of the draw fits
    env = SimpleNamespace(n_actions=int(n) if n in (1.0, 2.0, 4.0) else 2, budget=2.0)
    refusal = _store_refusal(learner, tables, meta, env)
    if refusal is not None:
        with pytest.raises(ValueError, match=f"^{re.escape(refusal)}"):
            _checkpoint(text, env)
        return
    store = _checkpoint(text, env)
    keys, names, _dropped = _WRITES[learner]
    assert type(store) is STORES[learner]
    assert {key: getattr(store, key) for key in keys} == meta
    out = store.sections()
    for name in names:
        for entry, value in tables.get(name, {}).items():
            assert repr(out[name][entry]) == repr(value)


_INDEX = st.sampled_from(["0", "1", "2"] * 2 + ["3", "7", "-1", "x", ""])
_MODEL_NUMBER = st.sampled_from(["0", "1", "0.5"] * 3 + ["-1", "nan", "inf", "x"])


def _rows(n_keys: int, n_values) -> st.SearchStrategy:
    """Up to three table rows of ``n_keys`` indices and ``n_values`` numbers."""
    row = st.tuples(
        st.lists(_INDEX, min_size=n_keys, max_size=n_keys).map(" ".join),
        n_values.flatmap(lambda n: st.lists(_MODEL_NUMBER, min_size=n, max_size=n)).map(" ".join),
    ).map(" = ".join)
    return st.lists(row, max_size=3)


# A 3-state, 2-action model file, each part valid in most draws; None leaves a scalar out.
_MODEL_PARTS = st.tuples(
    st.fixed_dictionaries({
        name: st.sampled_from(valid * 8 + invalid)
        for name, valid, invalid in (
            ("s0", ["0"], [None, "-1", "9", "x"]),
            ("horizon", ["1", "2"], [None, "0", "1.5", "x"]),
            ("discount", ["1", None], ["0", "nan", "x"]),
            ("budget.1", ["2"], [None, "0", "nan", "x"]),
            ("budget.2", [None], ["1"]),
        )
    }),
    st.sampled_from([("0", "1", "2")] * 6 + [("0", "2"), ("0", "1", "1"), ("x",), ()]),
    st.sampled_from([("0", "1")] * 6 + [("1",), ("0", "0"), ()]),
    _rows(2, st.sampled_from([3] * 4 + [2, 4])),
    _rows(2, st.just(1)),
    st.sampled_from(["[cost.1]"] * 4 + ["[cost.2]", "[cost.0]", "[cost.x]", "[other]"]),
    _rows(1, st.just(1)),
    st.lists(_ANY_LINE, max_size=2),
)


@settings(max_examples=400)
@given(_MODEL_PARTS)
def test_any_model_text_loads_or_raises_format_error(parts):
    scalars, states, actions, transitions, rewards, cost_header, costs, extra = parts
    lines = [f"{key} = {value}" for key, value in scalars.items() if value is not None]
    lines += ["[states]", *(f"{i} = s{i}" for i in states)]
    lines += ["[actions]", *(f"{i} = a{i}" for i in actions)]
    lines += ["[transition]", "0 0 = 0 1 0", "1 0 = 0 0 1", "2 0 = 0 0 1", *transitions]
    lines += ["[reward]", "0 0 = 1", *rewards, cost_header, *costs, *extra]
    try:
        m = load_cmdp("\n".join(lines) + "\n")
    except FormatError:
        return
    except ValueError as exc:  # a parsed model that is not valid is refused, naming each problem
        assert str(exc).startswith("invalid model: ")
        return
    assert validate_cmdp(m) == []
