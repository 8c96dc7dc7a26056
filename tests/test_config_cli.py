import ast
import hashlib
import math
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cmdp_forge
from cmdp_forge import cli
from cmdp_forge.cli import main
from cmdp_forge.config import _ENV_PARSERS, KEYS, ConfigError, ExperimentConfig, load_config
from cmdp_forge.envs import GridConfig, desk_grid, large_grid, make_gridworld
from cmdp_forge.extended import build_extended
from cmdp_forge.fixtures import stochastic_chain, two_action_chain
from cmdp_forge.oracle import enumerate_trajectories, stats
from cmdp_forge.penalties import PenaltyScheme
from cmdp_forge.solver import backward_induction
from cmdp_forge.textio import dump_checkpoint, dump_cmdp, load_checkpoint

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
CHAIN_TRAIN = """
env.kind = chain
env.chain = two_action_chain
learner = safe_q
scheme.1 = rn
lambda.1 = 1.0
Lambda_floor = 1.0
episodes = 60
seeds = 7,8
eval_episodes = 50
"""


def test_config_defaults_and_types():
    cfg = load_config(CHAIN_TRAIN)
    assert cfg.learner == "safe_q"
    assert cfg.scheme == PenaltyScheme.RISK_NEUTRAL
    assert cfg.lambda0 == 1.0
    assert cfg.seeds == (7, 8)
    assert cfg.window == 32  # default M


# One non-default value for every learner and run key, by the field it sets.
EVERY_KEY = {
    "learner": ("learner", "safe_q"),
    "scheme": ("scheme.1", "cvar"),
    "lambda0": ("lambda.1", "3.5"),
    "lambda_floor": ("Lambda_floor", "0.2"),
    "window": ("M", "16"),
    "target_period": ("C", "50"),
    "buffer_capacity": ("N", "500"),
    "n_step": ("n", "3"),
    "rho": ("rho", "0.9"),
    "alpha_ent": ("alpha_ent", "0.3"),
    "safe_weight": ("w", "0.5"),
    "gamma": ("gamma", "0.99"),
    "episodes": ("episodes", "123"),
    "seeds": ("seeds", "4,9"),
    "eval_episodes": ("eval_episodes", "77"),
    "lambda_grid": ("lambda_grid", "0.5,1.5"),
    "lr": ("lr", "0.3"),
    "lr_actor": ("lr_actor", "0.02"),
    "update_every": ("update_every", "2"),
    "epsilon_start": ("epsilon.start", "0.9"),
    "epsilon_end": ("epsilon.end", "0.2"),
    "key_quantum": ("key_quantum", "0.5"),
}


def test_every_setting_is_reachable_from_a_config_file():
    env_fields = {"env_kind", "grid", "chain_name"}
    assert set(EVERY_KEY) == {f.name for f in fields(ExperimentConfig)} - env_fields
    text = "env.kind = chain\n" + "".join(f"{k} = {v}\n" for k, v in EVERY_KEY.values())
    cfg, default = load_config(text), ExperimentConfig()
    unchanged = [name for name in EVERY_KEY if getattr(cfg, name) == getattr(default, name)]
    assert unchanged == []
    shipped = sorted(CONFIGS.glob("*.cfg"))
    assert shipped
    for path in shipped:
        load_config(path.read_text())


_ENV_VALUES = {
    "env.kind": ["gridworld", "chain", "x"],
    "env.preset": ["desk", "tiny", "x"],
    "env.chain": ["two_action_chain", "x"],
    "env.width": ["3", "0", "-1", "x"],
    "env.height": ["3", "0", "x"],
    "env.start": ["0,0", "9,9", "0", "1,2,3", "x,y"],
    "env.goal": ["2,2", "0,0", ""],
    "env.pits": ["1,1", "1,1;1,1", "1", "", "a,b"],
    "env.noise_p": ["0", "0.5", "1", "nan"],
    "env.step_reward": ["-1", "nan", "inf"],
    "env.goal_reward": ["100", "inf", "x"],
    "env.horizon": ["5", "0", "1.5"],
    "env.c_max": ["2", "0", "nan", "inf"],
}
_PIT_COSTS = [
    "uniform:1:1.5", "uniform:2:1", "uniform:-1:1", "uniform:1:inf", "uniform:nan:1", "uniform:1",
    "support:1@1,2@1", "support:1", "support:1@0", "support:1@-1,2@1", "support:nan",
    "support:1@inf", "support:1@1e308,2@1e308", "support:-1@1", "support:", "point:1",
]
_CONFIG_LINE = st.one_of(
    st.sampled_from(_PIT_COSTS).map("env.pit_cost = {}".format),
    st.sampled_from(sorted(_ENV_VALUES)).flatmap(
        lambda key: st.sampled_from(_ENV_VALUES[key]).map(f"{key} = {{}}".format)),
    st.sampled_from(sorted(EVERY_KEY.values())).flatmap(
        lambda kv: st.sampled_from([kv[1], "0", "-1", "nan", "inf", "x", ""]).map(f"{kv[0]} = {{}}".format)),
    st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")), max_size=12),
)


@settings(max_examples=400)
@given(st.sampled_from(["env.preset = desk", "env.kind = chain", ""]), st.lists(_CONFIG_LINE, max_size=6))
def test_any_config_text_loads_or_raises_config_error(head, lines):
    try:
        cfg = load_config("\n".join([head, *lines]) + "\n")
    except ConfigError:
        return
    # Every float a run reads is finite, the grid's included.
    for part in (cfg, cfg.grid or cfg):
        for f in fields(part):
            value = getattr(part, f.name)
            for x in value if isinstance(value, tuple) else (value,):
                assert not isinstance(x, float) or math.isfinite(x), (f.name, value)
    if cfg.grid is not None:
        # A loaded pit cost is one the environment can draw from.
        cost = cfg.grid.pit_cost
        if cost.kind == "uniform":
            assert math.isfinite((cost.lo + cost.hi) / 2.0)
        else:
            assert math.isfinite(sum(v * w for v, w in cost.support))
        assert math.isclose(sum(w for _, w in cfg.grid.pit_cost.exact_support()), 1.0)


def test_unknown_key_is_rejected():
    with pytest.raises(ConfigError, match="unknown config keys: episods"):
        load_config(CHAIN_TRAIN + "episods = 10\n")


@pytest.mark.parametrize(
    "key", ["exact_quantum = 0.25", "oracle_cap = 10", "scheme.2 = rn", "lambda.2 = 1", "alpha = 0.25"]
)
def test_removed_keys_exit_as_unknown(tmp_path, capsys, key):
    cfg = tmp_path / "old.cfg"
    cfg.write_text(CHAIN_TRAIN + key + "\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path / "x"), "train"]) == 2
    assert "unknown config keys" in capsys.readouterr().err


def test_bad_value_is_rejected():
    with pytest.raises(ConfigError, match="gamma"):
        load_config(CHAIN_TRAIN + "gamma = 1.5\n")
    with pytest.raises(ConfigError, match="scheme"):
        load_config("env.kind = chain\nscheme.1 = nope\n")
    with pytest.raises(ConfigError, match="duplicate"):
        load_config("episodes = 1\nepisodes = 2\n")


# One value outside each key's range, by the key as written in the file.
OUT_OF_RANGE = {
    "learner": "x", "scheme.1": "x", "lambda.1": "-1", "Lambda_floor": "0", "M": "0",
    "C": "0", "N": "0", "n": "0", "rho": "1", "alpha_ent": "0", "w": "-1", "gamma": "0",
    "episodes": "0", "seeds": ",", "eval_episodes": "0", "lambda_grid": "1,-1",
    "lr": "1.5", "lr_actor": "0", "update_every": "0", "epsilon.start": "1.5",
    "epsilon.end": "-0.1", "key_quantum": "0",
}


# The same for every env.* grid key, set over the desk preset.
ENV_OUT_OF_RANGE = {
    "env.width": "0", "env.height": "0", "env.start": "9,9", "env.goal": "9,9",
    "env.pits": "9,9", "env.pit_cost": "uniform:2:1", "env.noise_p": "1",
    "env.step_reward": "x", "env.goal_reward": "x", "env.horizon": "0", "env.c_max": "0",
}
ENV_FLOAT_KEYS = ("env.noise_p", "env.step_reward", "env.goal_reward", "env.c_max")


def test_out_of_range_table_covers_every_key():
    assert list(OUT_OF_RANGE) == [k.name for k in KEYS]
    assert list(ENV_OUT_OF_RANGE) == [f"env.{f.name}" for f in fields(GridConfig)]


@pytest.mark.parametrize(
    "key, value",
    [(key, value) for key, bad in OUT_OF_RANGE.items() for value in ("nan", "inf", bad)]
    + [(key, value) for key, bad in ENV_OUT_OF_RANGE.items()
       for value in (("nan", "inf", bad) if key in ENV_FLOAT_KEYS else (bad,))]
    # A repeat would run a seed or a weight twice and count it twice in the aggregate.
    + [("seeds", "1,1"), ("lambda_grid", "1,1")],
)
def test_bad_key_value_exits_2_naming_the_key(tmp_path, capsys, key, value):
    base = DESK_TRAIN if key.startswith("env.") else CHAIN_TRAIN
    kept = [line for line in base.splitlines() if not line.startswith(f"{key} =")]
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text("\n".join([*kept, f"{key} = {value}"]) + "\n")
    assert main(["--config", str(cfg_path), "--out", str(tmp_path / "x"), "train"]) == 2
    err = capsys.readouterr().err
    assert f"{cfg_path}: {key}: " in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_empty_seed_override_exits_2(tmp_path, capsys, command):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(CHAIN_TRAIN)
    checkpoint = tmp_path / "ck.txt"
    checkpoint.write_text(Q_CHECKPOINT)
    extra = ["--checkpoint", str(checkpoint)] if command == "evaluate" else []
    args = ["--config", str(cfg_path), "--out", str(tmp_path / "x"), "--seeds", ",", command]
    assert main(args + extra) == 2
    assert "seeds: " in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_repeated_seed_override_exits_2(tmp_path, capsys, command):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(CHAIN_TRAIN)
    checkpoint = tmp_path / "ck.txt"
    checkpoint.write_text(Q_CHECKPOINT)
    extra = ["--checkpoint", str(checkpoint)] if command == "evaluate" else []
    args = ["--config", str(cfg_path), "--out", str(tmp_path / "x"), "--seeds", "1,2,1", command]
    assert main(args + extra) == 2
    assert "seeds: want at least one seed, none repeated, got (1, 2, 1)" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_grid_preset_with_overrides():
    cfg = load_config("env.kind = gridworld\nenv.preset = desk\nenv.noise_p = 0\n")
    assert cfg.grid.noise_p == 0.0
    assert cfg.grid.width == 5


def test_invalid_grid_override_fails_before_running():
    with pytest.raises(ConfigError, match="start"):
        load_config("env.kind = gridworld\nenv.preset = desk\nenv.start = 9,9\n")


def _strip_wall(text: str) -> str:
    lines = text.splitlines()
    return "\n".join(",".join(line.split(",")[:-1]) for line in lines)


def test_train_is_deterministic_and_writes_expected_files(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(CHAIN_TRAIN)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["--config", str(cfg_path), "--out", str(out1), "train"]) == 0
    assert main(["--config", str(cfg_path), "--out", str(out2), "train"]) == 0
    names = sorted(p.name for p in out1.iterdir())
    assert names == [
        "checkpoint_seed7.txt",
        "checkpoint_seed8.txt",
        "train_aggregate.csv",
        "train_seed7.csv",
        "train_seed8.csv",
    ]
    for name in names:
        a, b = (out1 / name).read_text(), (out2 / name).read_text()
        if name.startswith("train_seed"):
            assert _strip_wall(a) == _strip_wall(b)
        else:
            assert a == b


def test_lambda_grid_trains_each_pair(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(CHAIN_TRAIN + "lambda_grid = 0.5,1.0\n")
    out = tmp_path / "grid"
    assert main(["--config", str(cfg_path), "--out", str(out), "train"]) == 0
    logs = sorted(p.name for p in out.iterdir() if p.name.startswith("train_seed"))
    assert logs == [
        "train_seed7_lambda0.5.csv",
        "train_seed7_lambda1.csv",
        "train_seed8_lambda0.5.csv",
        "train_seed8_lambda1.csv",
    ]


def test_seed_override_flag(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(CHAIN_TRAIN)
    out = tmp_path / "o"
    assert main(["--config", str(cfg_path), "--out", str(out), "--seeds", "3", "train"]) == 0
    assert (out / "train_seed3.csv").exists()
    assert not (out / "train_seed7.csv").exists()


def test_aggregate_means_match_per_seed_logs(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(CHAIN_TRAIN)
    out = tmp_path / "agg"
    main(["--config", str(cfg_path), "--out", str(out), "train"])
    per_seed = []
    for seed in (7, 8):
        lines = (out / f"train_seed{seed}.csv").read_text().splitlines()[1:]
        per_seed.append([float(line.split(",")[1]) for line in lines])
    agg_lines = (out / "train_aggregate.csv").read_text().splitlines()[1:]
    for i, line in enumerate(agg_lines):
        want = (per_seed[0][i] + per_seed[1][i]) / 2.0
        assert float(line.split(",")[2]) == pytest.approx(want, abs=1e-12)


def test_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("episodes = many\n")
    assert main(["--config", str(bad), "--out", str(tmp_path / "x"), "train"]) == 2
    assert main(["--config", str(tmp_path / "missing.cfg"), "train"]) == 2


def test_unreadable_inputs_exit_2_naming_the_file(tmp_path, capsys):
    undecodable = tmp_path / "bin.cfg"
    undecodable.write_bytes(b"\xff\xfe")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CHAIN_TRAIN)
    out = ["--out", str(tmp_path / "x")]
    for path, args in (
        (undecodable, ["--config", str(undecodable), "train"]),
        (tmp_path / "none.cfg", ["--config", str(tmp_path / "none.cfg"), "train"]),
        (tmp_path / "none.cmdp", ["bounds", str(tmp_path / "none.cmdp")]),
        (tmp_path, ["--config", str(cfg), "evaluate", "--checkpoint", str(tmp_path)]),
    ):
        assert main(out + args) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"{path}: ") and "Traceback" not in err


def _exact_greedy_checkpoint(m, lam, quantum):
    """Greedy table of the exact solution, dressed as a Q checkpoint."""
    e = build_extended(m, [lam], [PenaltyScheme.RISK_NEUTRAL], quantum)
    policy = backward_induction(e).greedy_policy(m.n_actions)
    q = {}
    table = policy.table()
    for (t, s, ledger), row in table.items():
        if t != 0 and (s, ledger) in {(k[1], k[2]) for k in table if k[0] == 0}:
            continue
        bucket = ledger[0]
        q[((s, bucket), row.index(1.0))] = 1.0
    return dump_checkpoint("safe_q", {"q": q}, {"quantum": quantum, "budget": m.budgets[0], "n_actions": m.n_actions})


def test_evaluate_matches_oracle_within_three_standard_errors(tmp_path):
    m = stochastic_chain()
    lam = 0.3  # keeps the risky branch optimal
    e = build_extended(m, [lam], [PenaltyScheme.RISK_NEUTRAL], 1.0)
    policy = backward_induction(e).greedy_policy(m.n_actions)
    st = stats(enumerate_trajectories(m, policy, 1.0), m)
    checkpoint = _exact_greedy_checkpoint(m, lam, 1.0)
    ck = tmp_path / "ck.txt"
    ck.write_text(checkpoint)
    cfg = tmp_path / "eval.cfg"
    cfg.write_text(
        "env.kind = chain\nenv.chain = stochastic_chain\nlearner = safe_q\n"
        "eval_episodes = 20000\nseeds = 1\nkey_quantum = 1\n"
    )
    out = tmp_path / "ev"
    assert main(["--config", str(cfg), "--out", str(out), "evaluate", "--checkpoint", str(ck)]) == 0
    rows = (out / "eval_report.csv").read_text().splitlines()
    agg = rows[-1].split(",")
    mean_cost = float(agg[2])
    se = math.sqrt(1.5 * 1.5 / 20000) * 3  # generous bound on 3 standard errors
    assert abs(mean_cost - st.expected_cost[0]) <= se
    assert abs(float(agg[3]) - st.violation_prob[0]) <= 3 * math.sqrt(0.25 / 20000)


def test_evaluate_zero_cost_env_reports_no_violations(tmp_path):
    m = two_action_chain()
    checkpoint = _exact_greedy_checkpoint(m, 5.0, 1.0)  # safe branch forced
    ck = tmp_path / "ck.txt"
    ck.write_text(checkpoint)
    cfg = tmp_path / "eval.cfg"
    cfg.write_text(
        "env.kind = chain\nenv.chain = two_action_chain\nlearner = safe_q\n"
        "eval_episodes = 500\nseeds = 1,2\nkey_quantum = 1\n"
    )
    out = tmp_path / "ev0"
    assert main(["--config", str(cfg), "--out", str(out), "evaluate", "--checkpoint", str(ck)]) == 0
    agg = (out / "eval_report.csv").read_text().splitlines()[-1].split(",")
    assert float(agg[3]) == 0.0 and float(agg[4]) == 0.0


def test_evaluate_risky_policy_always_violates(tmp_path):
    m = two_action_chain()
    q = {((0, 0), 1): 1.0}
    ck = tmp_path / "ck.txt"
    ck.write_text(dump_checkpoint("safe_q", {"q": q}, {"quantum": 1.0, "budget": 2.0, "n_actions": 2}))
    cfg = tmp_path / "eval.cfg"
    cfg.write_text(
        "env.kind = chain\nenv.chain = two_action_chain\nlearner = safe_q\n"
        "eval_episodes = 300\nseeds = 4\nkey_quantum = 1\n"
    )
    out = tmp_path / "ev1"
    main(["--config", str(cfg), "--out", str(out), "evaluate", "--checkpoint", str(ck)])
    agg = (out / "eval_report.csv").read_text().splitlines()[-1].split(",")
    assert float(agg[3]) == 1.0


def test_missing_checkpoint_is_a_config_error(tmp_path):
    cfg = tmp_path / "eval.cfg"
    cfg.write_text("env.kind = chain\nenv.chain = two_action_chain\nseeds = 1\n")
    code = main(["--config", str(cfg), "--out", str(tmp_path / "x"),
                 "evaluate", "--checkpoint", str(tmp_path / "none.txt")])
    assert code == 2


def test_verify_command_passes_and_writes_report(tmp_path):
    out = tmp_path / "verify"
    assert main(["--out", str(out), "verify"]) == 0
    text = (out / "verify_report.csv").read_text()
    assert "zero_penalty_equivalence" in text
    assert "multi_constraint_feasibility" in text
    assert ",FAIL," not in text


def test_bounds_command_on_a_model_file(tmp_path):
    model = tmp_path / "chain.cmdp"
    model.write_text(dump_cmdp(two_action_chain()))
    out = tmp_path / "bounds"
    assert main(["--out", str(out), "bounds", str(model), "--alpha", "0.25", "--quantum", "1"]) == 0
    rows = dict(
        line.split(",") for line in (out / "bounds.csv").read_text().splitlines()[1:]
    )
    assert rows["best_return"] == "2"
    assert rows["worst_case_return"] == "1"
    assert rows["cost_slack"] == "2"
    assert rows["lambda_expected_cost"] == "0.5"
    assert rows["lambda_chance"] == "2"


def _noise_free_rows(best, worst, lambda_expected_cost, lambda_chance):
    return [("best_return", best), ("worst_case_return", worst), ("cost_slack", "0.75"),
            ("lambda_expected_cost", lambda_expected_cost), ("lambda_chance", lambda_chance),
            ("alpha", "0.25"), ("feasible_worst_case", "1")]


# bounds.csv's rows and the dead end ``bounds`` prints on each grid's model file,
# as recorded before the load parsed each token once and the walk advanced
# each (ledger, successor) once.
GRID_BOUNDS = {
    "desk": (desk_grid(), [("feasible_worst_case", "0")], "r4c3@1.0 with ledger (4,) at step 1"),
    "large": (large_grid(), [("feasible_worst_case", "0")], "r7c6@1.0 with ledger (4,) at step 1"),
    "desk noise-free": (replace(desk_grid(), noise_p=0.0),
                        _noise_free_rows("95.99999999999999", "93.99999999999999", "2.6666666666666665", "4"),
                        None),
    "large noise-free": (replace(large_grid(), noise_p=0.0),
                         _noise_free_rows("92.99999999999997", "85", "10.666666666666629", "15.999999999999943"),
                         None),
}


@pytest.mark.parametrize("name", GRID_BOUNDS)
def test_bounds_on_the_grid_model_files_is_pinned(tmp_path, capsys, name):
    cfg, rows, dead_end = GRID_BOUNDS[name]
    model = tmp_path / "grid.cmdp"
    model.write_text(dump_cmdp(make_gridworld(cfg, "exact")))
    assert main(["--out", str(tmp_path), "bounds", str(model), "--alpha", "0.25", "--quantum", "0.25"]) == 0
    assert (tmp_path / "bounds.csv").read_text() == "quantity,value\n" + "".join(f"{q},{v}\n" for q, v in rows)
    printed = "".join(f"{q} = {v}\n" for q, v in rows)
    if dead_end is not None:
        printed = ("worst case infeasible: worst-case constrained problem is infeasible: "
                   f"no feasible action at {dead_end}\n" + printed)
    assert capsys.readouterr().out == printed


CHAIN_MODEL = dump_cmdp(two_action_chain())
Q_CHECKPOINT = dump_checkpoint(
    "safe_q", {"q": {((0, 0), 1): 1.0}}, {"quantum": 1.0, "budget": 2.0, "n_actions": 2}
)
ZERO_ENTROPY_CHECKPOINT = dump_checkpoint(
    "safe_ac", {"logits": {((0, 0), 0): 0.0}},
    {"quantum": 1.0, "budget": 2.0, "n_actions": 2, "alpha_ent": 0.0},
)
FOUR_ACTION_CHECKPOINT = dump_checkpoint(
    "safe_q", {"q": {((0, 0), 3): 1.0}}, {"quantum": 1.0, "budget": 2.0, "n_actions": 4}
)
CHAIN_EVAL = "env.kind = chain\nenv.chain = two_action_chain\nseeds = 1\neval_episodes = 5\n"
DESK_EVAL = "env.kind = gridworld\nenv.preset = desk\nseeds = 1\neval_episodes = 5\n"
TWO_STATE_MODEL = (
    "s0 = 0\nhorizon = 1\nbudget.1 = 1\n[states]\n0 = a\n1 = b\n[actions]\n0 = go\n"
    "[transition]\n0 0 = 0 1\n1 0 = 0 1\n"
)
DESK_TRAIN = "env.kind = gridworld\nenv.preset = desk\nseeds = 1\nepisodes = 1\n"
# 460 states, one action, uniform transitions and costs 0..459: at quantum 1
# the reachable (state, ledger) pairs pass the 200,000-state cap by step 3.
UNIFORM_ROW = " ".join([repr(1 / 460)] * 460)
CAPPED_MODEL = (
    "s0 = 0\nhorizon = 3\nbudget.1 = 100000\n[states]\n"
    + "".join(f"{s} = s{s}\n" for s in range(460))
    + "[actions]\n0 = go\n[transition]\n"
    + "".join(f"{s} 0 = {UNIFORM_ROW}\n" for s in range(460))
    + "[cost.1]\n"
    + "".join(f"{s} = {s}\n" for s in range(460))
)


# Bad inputs by case id: (command, input text, flags, eval config, text stderr must name).
BAD_INPUTS = {
    "malformed-model":
        ("bounds", CHAIN_MODEL + "not an assignment\n", ["--quantum", "1"], None, ""),
    "bad-quantum":
        ("bounds", CHAIN_MODEL, ["--quantum", "0.3"], None, ""),
    "invalid-model":
        ("bounds", CHAIN_MODEL.replace("0 0 = 0 1 0", "0 0 = 0 0.9 0"), ["--quantum", "1"], None, ""),
    "alpha-0":
        ("bounds", CHAIN_MODEL, ["--quantum", "1", "--alpha", "0"], None, "--alpha"),
    "checkpoint-no-n_actions":
        ("evaluate", Q_CHECKPOINT.replace("n_actions = 2\n", ""), [], CHAIN_EVAL, ""),
    "malformed-checkpoint-row":
        ("evaluate", Q_CHECKPOINT + "0 0 x = 1\n", [], CHAIN_EVAL, ""),
    "checkpoint-n_actions-4-on-chain":
        ("evaluate", FOUR_ACTION_CHECKPOINT, [], CHAIN_EVAL, "n_actions"),
    "chain-checkpoint-on-desk":
        ("evaluate", Q_CHECKPOINT, [], DESK_EVAL, "n_actions"),
    "checkpoint-budget-mismatch":
        ("evaluate", Q_CHECKPOINT.replace("budget = 2\n", "budget = 3\n"), [], CHAIN_EVAL, "budget"),
    "checkpoint-alpha_ent-0":
        ("evaluate", ZERO_ENTROPY_CHECKPOINT, [], CHAIN_EVAL, "alpha_ent"),
    "checkpoint-ac-no-alpha_ent":
        ("evaluate", ZERO_ENTROPY_CHECKPOINT.replace("alpha_ent = 0\n", ""), [], CHAIN_EVAL,
         "checkpoint missing a alpha_ent key"),
    "checkpoint-action-past-n_actions":
        ("evaluate", Q_CHECKPOINT.replace("0 0 1 = 1", "0 0 2 = 1"), [], CHAIN_EVAL, "line 7"),
    "checkpoint-negative-action":
        ("evaluate", ZERO_ENTROPY_CHECKPOINT.replace("alpha_ent = 0\n", "").replace(
            "0 0 0 = 0", "0 0 -1 = 0"), [], CHAIN_EVAL, "line 7"),
    "checkpoint-n_actions-nan":
        ("evaluate", Q_CHECKPOINT.replace("n_actions = 2", "n_actions = nan"), [], CHAIN_EVAL, "n_actions"),
    "checkpoint-quantum-0":
        ("evaluate", Q_CHECKPOINT.replace("quantum = 1", "quantum = 0"), [], CHAIN_EVAL, "quantum"),
    "checkpoint-nan-value":
        ("evaluate", ZERO_ENTROPY_CHECKPOINT.replace("alpha_ent = 0\n", "").replace(
            "0 0 0 = 0.0", "0 0 0 = nan"), [], CHAIN_EVAL, "line 7"),
    "model-cost-state-past-S":
        ("bounds", TWO_STATE_MODEL + "[cost.1]\n7 = 1\n", ["--quantum", "1"], None, "line 13"),
    "model-transition-state-past-S":
        ("bounds", TWO_STATE_MODEL + "5 0 = 0 1\n", ["--quantum", "1"], None, "line 12"),
    "model-negative-state":
        ("bounds", TWO_STATE_MODEL + "-1 0 = 0 1\n", ["--quantum", "1"], None, "line 12"),
    "model-nan-reward":
        ("bounds", TWO_STATE_MODEL + "[reward]\n0 0 = nan\n", ["--quantum", "1"], None, "reward[s=0,a=0]"),
    "model-nan-probability":
        ("bounds", TWO_STATE_MODEL.replace("0 0 = 0 1", "0 0 = nan 1"), ["--quantum", "1"], None,
         "transition[s=0,a=0,s'=0]"),
    "model-infinite-cost":
        ("bounds", TWO_STATE_MODEL + "[cost.1]\n1 = inf\n", ["--quantum", "1"], None, "costs[0][s=1]"),
    "model-infinite-budget":
        ("bounds", TWO_STATE_MODEL.replace("budget.1 = 1", "budget.1 = inf"), ["--quantum", "1"], None,
         "budgets[0]"),
    "pit-cost-zero-weight":
        ("train", DESK_TRAIN + "env.pit_cost = support:1@0\n", [], None, "env.pit_cost"),
    "pit-cost-weights-sum-to-zero":
        ("train", DESK_TRAIN + "env.pit_cost = support:1@-1,2@1\n", [], None, "env.pit_cost"),
    "pit-cost-nan-value":
        ("train", DESK_TRAIN + "env.pit_cost = support:nan\n", [], None, "env.pit_cost"),
    "pit-cost-infinite-bound":
        ("train", DESK_TRAIN + "env.pit_cost = uniform:1:inf\n", [], None, "env.pit_cost"),
    "env-nan-step-reward":
        ("train", DESK_TRAIN + "env.step_reward = nan\n", [], None, "step_reward"),
    "env-infinite-goal-reward":
        ("train", DESK_TRAIN + "env.goal_reward = inf\n", [], None, "goal_reward"),
    "env-infinite-c_max":
        ("train", DESK_TRAIN + "env.c_max = inf\n", [], None, "c_max"),
    "model-duplicate-scalar":
        ("bounds", TWO_STATE_MODEL.replace("horizon = 1\n", "horizon = 1\nhorizon = 3\n"),
         ["--quantum", "1"], None, "line 3: duplicate key 'horizon'"),
    "model-duplicate-transition-row":
        ("bounds", TWO_STATE_MODEL + "0 00 = 1 0\n", ["--quantum", "1"], None,
         "line 12: duplicate key '0 0'"),
    "model-duplicate-reward-row":
        ("bounds", TWO_STATE_MODEL + "[reward]\n0 0 = 1\n0  0 = 2\n", ["--quantum", "1"], None,
         "line 14: duplicate key '0 0'"),
    "checkpoint-duplicate-row":
        ("evaluate", Q_CHECKPOINT + "0 0 1 = 2\n", [], CHAIN_EVAL, "line 8: duplicate key '0 0 1'"),
    "config-section-line":
        ("train", DESK_TRAIN + "[env]\n", [], None, "line 5"),
    "model-past-the-state-cap":
        ("bounds", CAPPED_MODEL, ["--quantum", "1"], None, "cap of 200000"),
    # The chain environment samples one constraint's cost: a chain of two exits 2.
    "chain-of-two-constraints-train":
        ("train", "env.kind = chain\nenv.chain = two_cost_chain\nseeds = 1\nepisodes = 1\n", [], None,
         "env.chain: two_cost_chain has 2 constraints"),
    "chain-of-two-constraints-evaluate":
        ("evaluate", CHAIN_EVAL.replace("two_action_chain", "two_cost_chain"), [], None,
         "env.chain: two_cost_chain has 2 constraints"),
    # A section its learner does not write, and a scalar key no model has.
    "checkpoint-foreign-section":
        ("evaluate", Q_CHECKPOINT.replace("[q]", "[qq]"), [], CHAIN_EVAL,
         "section [qq] is not one that safe_q writes"),
    "checkpoint-relabelled-learner":
        ("evaluate", Q_CHECKPOINT.replace("learner = safe_q\n", "learner = safe_ac\nalpha_ent = 0.1\n"),
         [], CHAIN_EVAL, "section [q] is not one that safe_ac writes"),
    "checkpoint-negative-bucket":
        ("evaluate", Q_CHECKPOINT + "0 -7 1 = 3.0\n", [], CHAIN_EVAL, "line 8: bucket '-7'"),
    "checkpoint-negative-state":
        ("evaluate", Q_CHECKPOINT + "-7 0 0 = 1.0\n", [], CHAIN_EVAL, "line 8: state '-7'"),
    # A checkpoint holds exactly its learner's keys, each in its config key's range.
    "checkpoint-unknown-key":
        ("evaluate", Q_CHECKPOINT.replace("quantum = 1\n", "quantum = 1\nfoo = 7\n"), [], CHAIN_EVAL,
         "checkpoint key foo is not one that safe_q writes; want n_actions, budget, quantum"),
    "checkpoint-q-with-alpha_ent":
        ("evaluate", Q_CHECKPOINT.replace("quantum = 1\n", "alpha_ent = 0.1\nquantum = 1\n"), [], CHAIN_EVAL,
         "checkpoint key alpha_ent is not one that safe_q writes"),
    "checkpoint-alpha_ent-inf":
        ("evaluate", ZERO_ENTROPY_CHECKPOINT.replace("alpha_ent = 0\n", "alpha_ent = inf\n"), [], CHAIN_EVAL,
         "alpha_ent: want finite and > 0, got inf"),
    "model-unknown-key":
        ("bounds", CHAIN_MODEL.replace("discount = 1", "discont = 0.5"), ["--quantum", "1"], None,
         "line 3: unknown key 'discont'"),
    # verify checks the fixture pack at its exact breakpoints and reads no config.
    "verify-with-config":
        ("verify", (CONFIGS / "chain_smoke.cfg").read_text(), [], None, "--config: verify reads no config"),
    **{f"quantum-{q}": ("bounds", CHAIN_MODEL, ["--quantum", q], None,
                        f"quantum: must be finite and > 0, got {float(q)}")
       for q in ("0", "-1", "inf", "nan")},
    # A quantum so small that a cost over it is not a finite number of quanta.
    "quantum-1e-320":
        ("bounds", CHAIN_MODEL, ["--quantum", "1e-320"], None,
         "costs[0][s=2] = 3.0 over the quantum 1e-320 is not finite"),
    "checkpoint-no-format":
        ("evaluate", Q_CHECKPOINT.replace("format = checkpoint.v1\n", ""), [], CHAIN_EVAL,
         "checkpoint missing a format key"),
}


def _bad_input_args(tmp_path, command, text, flags, config):
    """Write the input (and the eval config) and return its path and the CLI arguments.

    The input is the model for bounds, evaluate's checkpoint when an eval
    config is given, and otherwise the config (evaluate then reads a valid
    Q checkpoint)."""
    path = tmp_path / "input.txt"
    path.write_text(text)
    cfg = tmp_path / "eval.cfg"
    if config is not None:
        cfg.write_text(config)
    args = ["--out", str(tmp_path / "out")]
    if command == "bounds":
        args += ["bounds", str(path), *flags]
    elif config is not None:
        args += ["--config", str(cfg), "evaluate", "--checkpoint", str(path)]
    else:
        args += ["--config", str(path), command]
        if command == "evaluate":
            checkpoint = tmp_path / "checkpoint.txt"
            checkpoint.write_text(Q_CHECKPOINT)
            args += ["--checkpoint", str(checkpoint)]
    return path, args


@pytest.mark.parametrize("command, text, flags, config, named", BAD_INPUTS.values(), ids=BAD_INPUTS)
def test_bad_input_exits_2_without_a_traceback(tmp_path, capsys, command, text, flags, config, named):
    path, args = _bad_input_args(tmp_path, command, text, flags, config)
    assert main(args) == 2  # an exception escaping main fails the test
    err = capsys.readouterr().err
    # The message starts with the file at fault, or with the flag at fault.
    assert err.startswith(named if named.startswith("--") else f"{path}: ")
    assert named in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def _set_line(text: str, key: str, value: str) -> str:
    """``text`` with its ``key`` line, if any, replaced by ``key = value``."""
    kept = [line for line in text.splitlines() if not line.startswith(f"{key} =")]
    return "\n".join([*kept, f"{key} = {value}"]) + "\n"


_CHAIN = two_action_chain()
_HALF_RISKY = _CHAIN.transition.copy()
_HALF_RISKY[0, 1] *= 0.5
# (valid object, field, out-of-range value, the command and input text that set it)
REPLACED = {
    "model-horizon": (_CHAIN, "horizon", 0, "bounds", CHAIN_MODEL.replace("horizon = 1", "horizon = 0")),
    "model-risky-row": (_CHAIN, "transition", _HALF_RISKY, "bounds",
                        CHAIN_MODEL.replace("0 1 = 0 0 1", "0 1 = 0 0 0.5")),
    "model-budget": (_CHAIN, "budgets", (-1,), "bounds", CHAIN_MODEL.replace("budget.1 = 2", "budget.1 = -1")),
    **{key: (desk_grid(), key[4:], _ENV_PARSERS[key[4:]](value), "train", _set_line(DESK_TRAIN, key, value))
       for key, value in {**ENV_OUT_OF_RANGE, "env.step_reward": "nan", "env.goal_reward": "inf"}.items()},
    # learner and scheme.1 parse only to values in range.
    **{k.name: (load_config(CHAIN_TRAIN), k.field, k.parse(OUT_OF_RANGE[k.name]), "train",
                _set_line(CHAIN_TRAIN, k.name, OUT_OF_RANGE[k.name]))
       for k in KEYS if k.name not in ("learner", "scheme.1")},
}


@pytest.mark.parametrize("valid, field, value, command, text", REPLACED.values(), ids=REPLACED)
def test_replace_validates_again_with_the_message_the_cli_prints(tmp_path, capsys, valid, field, value,
                                                                 command, text):
    with pytest.raises(ValueError) as refused:
        replace(valid, **{field: value})
    path = tmp_path / "input.txt"
    path.write_text(text)
    args = ["bounds", str(path), "--quantum", "1"] if command == "bounds" else ["--config", str(path), "train"]
    assert main(["--out", str(tmp_path / "out"), *args]) == 2
    assert capsys.readouterr().err == f"{path}: {refused.value}\n"


def test_replace_refuses_a_value_outside_a_choice_key():
    cfg = load_config(CHAIN_TRAIN)
    with pytest.raises(ConfigError, match=r"^learner: want one of \['safe_ac', 'safe_q'\], got x$"):
        replace(cfg, learner="x")
    with pytest.raises(ConfigError, match=r"^scheme.1: want one of "):
        replace(cfg, scheme="x")


VALIDATORS = {"validate_cmdp": ("model.py", "Cmdp"), "validate_grid_config": ("envs.py", "GridConfig"),
              "_key_problems": ("config.py", "ExperimentConfig")}


def test_each_validator_runs_only_in_its_types_post_init():
    """A Cmdp, a GridConfig or an ExperimentConfig is valid once built: no
    module of the package checks one again."""
    def uses(node, scope):
        for child in ast.iter_child_nodes(node):
            name = child.id if isinstance(child, ast.Name) else getattr(child, "attr", None)
            if name in VALIDATORS:
                yield name, scope
            inner = isinstance(child, (ast.ClassDef, ast.FunctionDef))
            yield from uses(child, (*scope, child.name) if inner else scope)

    found = sorted(
        (name, path.name, *scope)
        for path in Path(cmdp_forge.__file__).parent.glob("*.py")
        for name, scope in uses(ast.parse(path.read_text()), ())
    )
    assert found == sorted((name, module, cls, "__post_init__") for name, (module, cls) in VALIDATORS.items())


@pytest.mark.parametrize("case", ["malformed-model", "pit-cost-zero-weight", "checkpoint-no-n_actions"])
def test_bad_input_exits_2_from_a_fresh_interpreter(tmp_path, case):
    """One case per command through ``python -m cmdp_forge.cli``: the exit
    code and stderr as the interpreter leaves them."""
    command, text, flags, config, named = BAD_INPUTS[case]
    path, args = _bad_input_args(tmp_path, command, text, flags, config)
    src = Path(cmdp_forge.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "cmdp_forge.cli", *args],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 2, proc.stderr
    assert str(path) in proc.stderr
    assert named in proc.stderr
    assert "Traceback" not in proc.stderr


# A global flag given to a command that does not read it, and --jobs below
# 1, by case id: (arguments after --out, start of the message).  Each exited
# 0 before the flags were checked against the command.
UNREAD_FLAGS = {
    "bounds-config": (["--config", "nope.cfg", "bounds", "{model}", "--quantum", "1"],
                      "--config: bounds reads no config, got nope.cfg"),
    "bounds-seeds-jobs": (["--seeds", "1,1", "--jobs", "-3", "bounds", "{model}", "--quantum", "1"],
                          "--seeds: bounds reads no seeds"),
    "verify-empty-seeds": (["--seeds", ",", "verify"], "--seeds: verify reads no seeds"),
    "verify-jobs-0": (["--jobs", "0", "verify"], "--jobs: verify reads no jobs"),
    "train-jobs-0": (["--config", "{config}", "--jobs", "0", "train"], "--jobs: must be >= 1, got 0"),
    "evaluate-jobs": (["--config", "{config}", "--jobs", "-2", "evaluate", "--checkpoint", "{checkpoint}"],
                      "--jobs: evaluate reads no jobs"),
}


@pytest.mark.parametrize("argv, named", UNREAD_FLAGS.values(), ids=UNREAD_FLAGS)
def test_a_flag_the_command_does_not_read_exits_2(tmp_path, capsys, argv, named):
    files = {"model": tmp_path / "m.cmdp", "config": tmp_path / "run.cfg", "checkpoint": tmp_path / "ck.txt"}
    for path, text in zip(files.values(), (CHAIN_MODEL, CHAIN_TRAIN, Q_CHECKPOINT)):
        path.write_text(text)
    out = tmp_path / "out"
    assert main(["--out", str(out), *(arg.format(**files) for arg in argv)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(named)
    assert "Traceback" not in err
    assert not out.exists()


# Each command with --out naming an existing file, by case id.  Each ended
# in a FileExistsError traceback, train's only after its runs.  Nothing is
# printed or run first.
OUT_IS_A_FILE = {
    "verify": ["verify"],
    "bounds": ["bounds", "{model}", "--quantum", "1"],
    "train": ["--config", "{config}", "train"],
    "evaluate": ["--config", "{config}", "evaluate", "--checkpoint", "{checkpoint}"],
}


@pytest.mark.parametrize("argv", OUT_IS_A_FILE.values(), ids=OUT_IS_A_FILE)
def test_an_out_path_that_is_a_file_exits_2_before_any_run(tmp_path, monkeypatch, capsys, argv):
    files = {"model": tmp_path / "m.cmdp", "config": tmp_path / "run.cfg", "checkpoint": tmp_path / "ck.txt"}
    for path, text in zip(files.values(), (CHAIN_MODEL, CHAIN_TRAIN, Q_CHECKPOINT)):
        path.write_text(text)
    out = tmp_path / "out"
    out.write_text("")
    runs = []
    monkeypatch.setattr(cli, "_train_one", lambda *args: runs.append(args))
    assert main(["--out", str(out), *(arg.format(**files) for arg in argv)]) == 2
    printed = capsys.readouterr()
    assert printed.err.startswith(f"--out: {out}: ")
    assert "Traceback" not in printed.err
    assert printed.out == "" and runs == [] and out.read_text() == ""


def test_checkpoint_with_an_underflowing_probability_evaluates(tmp_path):
    cfg = tmp_path / "eval.cfg"
    cfg.write_text(CHAIN_EVAL)
    checkpoint = tmp_path / "ac.txt"
    # softmax(0, 1000) gives action 0 a probability of exactly 0.0.
    checkpoint.write_text(dump_checkpoint(
        "safe_ac", {"logits": {((0, 0), 0): 0.0, ((0, 0), 1): 1000.0}},
        {"quantum": 1.0, "budget": 2.0, "n_actions": 2, "alpha_ent": 0.1},
    ))
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out"),
                 "evaluate", "--checkpoint", str(checkpoint)]) == 0


def test_actor_critic_train_then_evaluate_round_trip(tmp_path):
    cfg_path = tmp_path / "ac.cfg"
    cfg_path.write_text(
        "env.kind = chain\nenv.chain = two_action_chain\nlearner = safe_ac\n"
        "lambda.1 = 1.0\nLambda_floor = 1.0\nepisodes = 1500\nseeds = 11\n"
        "eval_episodes = 400\n"
    )
    out = tmp_path / "ac"
    assert main(["--config", str(cfg_path), "--out", str(out), "train"]) == 0
    assert main(["--config", str(cfg_path), "--out", str(out), "evaluate",
                 "--checkpoint", str(out / "checkpoint_seed11.txt")]) == 0
    agg = (out / "eval_report.csv").read_text().splitlines()[-1].split(",")
    # Feasibility-constrained selection sticks to the safe branch.
    assert float(agg[1]) == 1.0 and float(agg[3]) == 0.0


AC_CHAIN = (
    "env.kind = chain\nenv.chain = two_action_chain\nlearner = safe_ac\n"
    "lambda.1 = 1.0\nLambda_floor = 1.0\nepisodes = 200\nseeds = 11\neval_episodes = 200\n"
)


def test_actor_critic_checkpoint_has_one_critic_per_signal(tmp_path):
    cfg_path = tmp_path / "ac.cfg"
    cfg_path.write_text(AC_CHAIN)
    assert main(["--config", str(cfg_path), "--out", str(tmp_path), "train"]) == 0
    text = (tmp_path / "checkpoint_seed11.txt").read_text()
    assert [line for line in text.splitlines() if line.startswith("[")] == [
        "[logits]", "[q1]", "[qd1]",
    ]


def test_old_twin_critic_checkpoint_evaluates_the_same(tmp_path):
    cfg_path = tmp_path / "ac.cfg"
    cfg_path.write_text(AC_CHAIN)
    assert main(["--config", str(cfg_path), "--out", str(tmp_path), "train"]) == 0
    new = (tmp_path / "checkpoint_seed11.txt").read_text()
    learner, tables, meta = load_checkpoint(new)
    old = dump_checkpoint(learner, {**tables, "q2": tables["q1"], "qd2": tables["qd1"]}, meta)
    reports = []
    for name, text in (("new", new), ("old", old)):
        (tmp_path / f"{name}.txt").write_text(text)
        out = tmp_path / name
        assert main(["--config", str(cfg_path), "--out", str(out), "evaluate",
                     "--checkpoint", str(tmp_path / f"{name}.txt")]) == 0
        reports.append((out / "eval_report.csv").read_bytes())
    assert "[q2]" in old and "[qd2]" in old
    assert reports[0] == reports[1]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


CHAIN_AC_BENCH = (
    "env.kind = chain\nenv.chain = two_action_chain\nlearner = safe_ac\nscheme.1 = rn\n"
    "lambda.1 = 2.0\nLambda_floor = 1.0\nepisodes = 3000\neval_episodes = 5000\n"
    "key_quantum = 1\nseeds = 1\n"
)


def test_chain_actor_critic_outputs_are_pinned(tmp_path):
    # Digests recorded with the dict-table actor-critic; the table store must
    # reproduce its every float and its checkpoint entries byte for byte.
    cfg_path = tmp_path / "ac.cfg"
    cfg_path.write_text(CHAIN_AC_BENCH)
    assert main(["--config", str(cfg_path), "--out", str(tmp_path), "train"]) == 0
    assert _sha((tmp_path / "checkpoint_seed1.txt").read_bytes()) == (
        "ebb6455894b2bbe7724a325f97eeb7ba68d100d95bb7c95f3f58e8274dc1ea17"
    )
    log = _strip_wall((tmp_path / "train_seed1.csv").read_text())
    assert _sha(log.encode()) == "27f34052a3e124c29611a6b067a63e5ac334bae71f2d2a8fe3978b3a7a31f2af"


def test_chain_q_learner_checkpoint_is_pinned(tmp_path):
    # Digest recorded with the dict-table Q-learner, at the benchmark's chain Q settings.
    cfg_path = tmp_path / "q.cfg"
    cfg_path.write_text(
        CHAIN_AC_BENCH.replace("safe_ac", "safe_q").replace("\nepisodes = 3000", "\nepisodes = 6000")
    )
    assert main(["--config", str(cfg_path), "--out", str(tmp_path), "train"]) == 0
    assert _sha((tmp_path / "checkpoint_seed1.txt").read_bytes()) == (
        "973afcf234748a4b826f6bd7683e4319c3fd10bbe2986175879d90136b152db8"
    )


def test_desk_actor_critic_checkpoint_is_pinned(tmp_path):
    cfg_path = str(CONFIGS / "desk_gridworld.cfg")
    assert main(["--config", cfg_path, "--out", str(tmp_path), "--seeds", "1", "train"]) == 0
    assert _sha((tmp_path / "checkpoint_seed1.txt").read_bytes()) == (
        "ad6d883873b1525d4365ea323fe412575052bf41b3a2d92205f264a24c52dd08"
    )
    # Recorded before the table-driven GridWorld step.
    log = _strip_wall((tmp_path / "train_seed1.csv").read_text())
    assert _sha(log.encode()) == "cca12508b9e798a64f6f617eb5f54f0518a5680a6cd10de5dda519a13aed0882"
    # Digest recorded before the store memoised what `act` reads.
    assert main(["--config", cfg_path, "--out", str(tmp_path), "--seeds", "1", "evaluate",
                 "--checkpoint", str(tmp_path / "checkpoint_seed1.txt")]) == 0
    assert _sha((tmp_path / "eval_report.csv").read_bytes()) == (
        "447d3f091dec4b1814d73a938bc6f3b150b084ef2e6a440d9b36274c8bdef2ec"
    )


def test_train_aggregate_is_pinned(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(CHAIN_TRAIN + "lambda_grid = 0.5,1.0\n")
    assert main(["--config", str(cfg_path), "--out", str(tmp_path), "train"]) == 0
    assert _sha((tmp_path / "train_aggregate.csv").read_bytes()) == (
        "d90973ef3caeeb35d8d47f4482faaf74578e5e8032eebd9f2006deaf6e2d53b9"
    )


def test_eval_report_and_line_are_pinned(tmp_path, capsys):
    # The stochastic chain, so that every column and both spreads are nonzero.
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(
        CHAIN_TRAIN.replace("two_action_chain", "stochastic_chain").replace("1.0", "0.3")
        + "lambda_grid = 0.3,1.0\n"
    )
    assert main(["--config", str(cfg_path), "--out", str(tmp_path), "train"]) == 0
    assert _sha((tmp_path / "train_aggregate.csv").read_bytes()) == (
        "26c5c51f21b0a8bdbad632582ed153f781a8283f91476616775147888fcbe966"
    )
    capsys.readouterr()
    assert main(["--config", str(cfg_path), "--out", str(tmp_path), "evaluate",
                 "--checkpoint", str(tmp_path / "checkpoint_seed7_lambda0.3.txt")]) == 0
    assert capsys.readouterr().out == (
        "return 2.000 +- 0.000  cost 1.500 +- 0.180  P(violation) 0.5000  excess 0.5000\n"
    )
    assert _sha((tmp_path / "eval_report.csv").read_bytes()) == (
        "716669201c1cf078e76965ce970a4a3ef79c3392d335dd84b627a982521c6d44"
    )


def test_verify_report_is_pinned(tmp_path):
    # A change to any verify row must update this digest and say why in CHANGES.md.
    assert main(["--out", str(tmp_path), "verify"]) == 0
    assert _sha((tmp_path / "verify_report.csv").read_bytes()) == (
        "ad0ea734148b7d7ce7c2311a0987bdbe5e390ef5f3657fdac53f734b1bd4c8b5"
    )


def test_out_dir_defaults_to_environment_variable(tmp_path, monkeypatch):
    target = tmp_path / "from_env"
    monkeypatch.setenv("CMDP_FORGE_OUT", str(target))
    model = tmp_path / "m.cmdp"
    model.write_text(dump_cmdp(two_action_chain()))
    assert main(["bounds", str(model), "--quantum", "1"]) == 0
    assert (target / "bounds.csv").exists()


def test_named_check_dispatch():
    from cmdp_forge import verification
    from cmdp_forge.fixtures import Fixture

    f = Fixture("chain", two_action_chain(), quantum=1.0)
    suites = [getattr(verification, f"check_{kind}") for kind in verification.ALL_KINDS]
    assert len(suites) == 8
    rep = suites[0]([f])
    assert rep.kind == "zero_penalty_equivalence"
    assert rep.passed and rep.rows
    kinds = [r.kind for r in verification.run_all([f])]
    assert kinds == list(verification.ALL_KINDS)


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_a_failing_run_is_recorded_and_the_others_are_written(tmp_path, monkeypatch, capsys, jobs):
    # Worker processes fork on Linux, so the patched learner reaches them too.
    real = cli.safe_q_learning

    def learner(env, cfg, seed):
        if seed == 8 and cfg.lambda0 == 0.5:
            raise RuntimeError("diverged")
        return real(env, cfg, seed)

    monkeypatch.setattr(cli, "safe_q_learning", learner)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(CHAIN_TRAIN + "lambda_grid = 0.5,1.0\n")
    out = tmp_path / "out"
    assert main(["--config", str(cfg_path), "--out", str(out), "--jobs", jobs, "train"]) == 1
    assert (out / "failures.csv").read_text() == (
        "seed,lambda0,error\n8,0.5,RuntimeError: diverged\n"
    )
    assert "FAIL seed 8 lambda 0.5: RuntimeError: diverged" in capsys.readouterr().err
    written = sorted(p.name for p in out.iterdir())
    assert written == sorted(
        [f"{kind}_seed{seed}_lambda{lam}.{ext}" for seed, lam in ((7, "0.5"), (7, "1"), (8, "1"))
         for kind, ext in (("train", "csv"), ("checkpoint", "txt"))]
        + ["failures.csv", "train_aggregate.csv"]
    )
    # The lambda 0.5 rows average seed 7 alone; the lambda 1 rows both seeds.
    agg = [line.split(",") for line in (out / "train_aggregate.csv").read_text().splitlines()[1:]]
    log7 = [line.split(",") for line in (out / "train_seed7_lambda0.5.csv").read_text().splitlines()[1:]]
    assert [row[0] for row in agg] == ["0.5"] * 60 + ["1"] * 60
    assert [(row[2], row[3]) for row in agg[:60]] == [(row[1], "0") for row in log7]


def test_parallel_jobs_match_sequential(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(CHAIN_TRAIN)
    seq, par = tmp_path / "seq", tmp_path / "par"
    assert main(["--config", str(cfg_path), "--out", str(seq), "train"]) == 0
    assert main(["--config", str(cfg_path), "--out", str(par), "--jobs", "2", "train"]) == 0
    for name in ("train_seed7.csv", "train_seed8.csv"):
        assert _strip_wall((seq / name).read_text()) == _strip_wall((par / name).read_text())
    assert (seq / "train_aggregate.csv").read_text() == (par / "train_aggregate.csv").read_text()


def test_jobs_start_at_most_one_worker_per_run(tmp_path, monkeypatch):
    """``--jobs N`` asks for min(N, runs) workers, and one run trains in
    process.  The stand-in pool records what it is asked for and runs each
    call inline, so the test starts no process."""
    asked = []

    class InlinePool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, run):
            return SimpleNamespace(result=run)

    monkeypatch.setattr(cli, "_pool", InlinePool)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(CHAIN_TRAIN)
    assert main(["--config", str(cfg_path), "--out", str(tmp_path / "two"), "--jobs", "64", "train"]) == 0
    assert asked == [2]
    assert main(["--config", str(cfg_path), "--out", str(tmp_path / "one"), "--seeds", "7", "--jobs", "3",
                 "train"]) == 0
    assert asked == [2]
    two = (tmp_path / "two" / "checkpoint_seed7.txt").read_text()
    assert two == (tmp_path / "one" / "checkpoint_seed7.txt").read_text()


def test_importing_the_cli_leaves_the_process_pool_unloaded():
    """Only a parallel ``train`` needs the process pool, so the CLI imports it there."""
    src = Path(cmdp_forge.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, cmdp_forge.cli; print('concurrent.futures.process' in sys.modules)"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
