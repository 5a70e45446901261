"""The benchmark's own tests: each workload at a small size, run twice.

Run with ``python -m pytest perfbench`` from the repository root.
"""
import io
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from saproute import cli, dominance, network, solvers  # noqa: E402
from workloads import SMALL, WORKLOADS  # noqa: E402

SPEC = json.loads(run.SPEC_FILE.read_text())


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_work_counts_and_keys_repeat_exactly(workload, tmp_path):
    first = run.measure(workload, 5, 0, True, SMALL, tmp_path)
    second = run.measure(workload, 5, 0, True, SMALL, tmp_path)
    assert first.failures == [] and second.failures == []
    assert first.counts and first.counts == second.counts
    assert first.digest == second.digest
    untraced = run.measure(workload, 5, 0, False, SMALL, tmp_path)
    assert untraced.failures == [] and untraced.digest == first.digest


def test_tracing_restores_the_program(tmp_path):
    before = (solvers.simple_cull, dominance.simple_cull, cli.solve,
              cli.run_report, vars(network.Path)["from_edges"],
              network.Network.drop_edges)
    run.measure("corridor", 1, 0, True, SMALL, tmp_path)
    assert before == (solvers.simple_cull, dominance.simple_cull, cli.solve,
                      cli.run_report, vars(network.Path)["from_edges"],
                      network.Network.drop_edges)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_named_metric_is_printed_with_its_unit(workload, trace, section,
                                                     tmp_path):
    out = io.StringIO()
    code = run.main(["--workload", workload, "--seed", "2", "--seconds", "0",
                     "--trace", str(trace)], SMALL, tmp_path, out)
    assert code == 0
    last = json.loads(out.getvalue().strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] > 0
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == want
    if trace == 0:
        assert all(v["value"] > 0 for v in last["metrics"].values())


def test_a_wrong_answer_fails_the_run(tmp_path, monkeypatch):
    real = solvers.solve_1d_sap_fc

    def off_by_one(inst, threads=1):
        sol = real(inst, threads)
        return type(sol)(**{**vars(sol), "cost": sol.cost + 1.0})

    monkeypatch.setitem(solvers._SOLVERS, ("1d-sap", "fc"), off_by_one)
    out = io.StringIO()
    code = run.main(["--workload", "corpus", "--seed", "2", "--seconds", "0"],
                    SMALL, tmp_path, out)
    last = json.loads(out.getvalue().strip().splitlines()[-1])
    assert code == 1 and not last["correct"]
    # every 1d-sap/fc solve
    assert last["failed"] == SMALL.corpus
