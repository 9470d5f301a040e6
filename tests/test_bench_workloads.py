"""One pass of each benchmark workload (`perfbench/workloads.py`) returns
its oracle rows: every operation of `corpus_cy`, `cuts_2_4` and
`bimodule`, and one pass of `frontier_2_5`.  A program change that would
make a benchmark run count an incorrect or failed verdict fails here
first."""

import functools
import importlib.util
import pathlib

import pytest

WORKLOADS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
SEED = 4


@functools.lru_cache(maxsize=None)
def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


@pytest.mark.parametrize("name", ["corpus_cy", "cuts_2_4", "frontier_2_5", "bimodule"])
def test_one_pass_returns_the_oracle_rows(name):
    workloads = _workloads()
    ops = workloads.make_inputs(name, SEED)
    ops = ops[:workloads.WORKLOADS[name].pass_size or len(ops)]
    assert ops
    wrong = [(op.name, got, op.expect) for op in ops if (got := op.run()) != op.expect]
    assert wrong == []
