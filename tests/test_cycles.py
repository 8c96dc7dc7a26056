"""No package object is left in a reference cycle: what a call drops is
freed at once by reference counting, not kept until the cyclic collector
runs.  Each check runs with the collector off and ``gc.DEBUG_SAVEALL`` set,
so one collection afterwards moves every object that only a cycle kept
alive into ``gc.garbage``."""

import gc
import random
import types
import weakref

import pytest

from cmdp_forge import cli, verification
from cmdp_forge.envs import large_grid, make_gridworld, tiny_grid
from cmdp_forge.fixtures import fixture_pack
from cmdp_forge.oracle import enumerate_trajectories, random_policy, stats
from cmdp_forge.solver import lambda_bounds
from cmdp_forge.textio import dump_cmdp


def _package_name(obj) -> str | None:
    """The name of a package function, or of ``obj``'s type where the package
    defines it; None for anything else."""
    named = obj if isinstance(obj, types.FunctionType) else type(obj)
    return named.__qualname__ if (named.__module__ or "").startswith("cmdp_forge") else None


@pytest.fixture
def collector_off():
    """The collector off while the test runs; restored afterwards, debug flags included."""
    was_enabled, flags = gc.isenabled(), gc.get_debug()
    gc.collect()
    gc.disable()
    yield
    if was_enabled:
        gc.enable()
    gc.set_debug(flags)


@pytest.fixture
def cycles(collector_off):
    """Call the yielded function to get the package objects that only a
    cycle formed since the test began keeps alive."""
    gc.garbage.clear()
    gc.set_debug(gc.DEBUG_SAVEALL)

    def left():
        gc.collect()
        return sorted({_package_name(o) for o in gc.garbage} - {None})

    yield left
    gc.set_debug(0)
    gc.garbage.clear()


def test_bounds_on_the_large_grid_leaves_no_cycle(cycles, tmp_path):
    model = tmp_path / "large.txt"
    model.write_text(dump_cmdp(make_gridworld(large_grid(), "exact")))
    cli.main(["--out", str(tmp_path / "out"), "bounds", str(model)])
    assert cycles() == []


def test_verify_leaves_no_cycle(cycles):
    assert all(rep.passed for rep in verification.run_all(fixture_pack()))
    assert cycles() == []


def test_an_enumeration_with_stats_leaves_no_cycle(cycles):
    m = make_gridworld(tiny_grid(noise_p=0.05, horizon=4), "exact")
    trajs = enumerate_trajectories(m, random_policy(m, 0.25, random.Random(1)), 0.25)
    assert len(trajs) == 170_240
    stats(trajs, m)
    del m, trajs
    assert cycles() == []


def test_a_model_is_freed_once_dropped_after_lambda_bounds(collector_off):
    f = fixture_pack()[0]
    lambda_bounds(f.cmdp, 0.25, f.quantum)
    ref = weakref.ref(f.cmdp)
    del f
    assert ref() is None
