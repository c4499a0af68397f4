"""The benchmark's entry points that run outside its per-item guards.

perfbench/workload.py calls these parts of the package directly, with no
guard that turns an exception into a failed item: a change that breaks one
makes a benchmark pass crash (run.py then exits non-zero and keeps no
output).  Running them here makes such a change fail the tests first.
"""
import importlib.util
import json
from pathlib import Path

import pytest

from bpfloer.groups import I_STAR

WORKLOAD = Path(__file__).resolve().parent.parent / "perfbench" / "workload.py"


@pytest.fixture(scope="module")
def workload():
    spec = importlib.util.spec_from_file_location("perfbench_workload", WORKLOAD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_chain_selftest_catches_the_zeroed_label(workload):
    # builds SGraph(group, vertices, edges, labels) positionally and swaps
    # floer.build_model for the length of one chain-route item
    import bpfloer.floer as floer

    real = floer.build_model
    assert workload.selftest_chain(None, {}) == {"chain-gate-mutation": True}
    assert floer.build_model is real


def test_chain_margin(workload):
    margin = workload.chain_margin(workload.Api(), I_STAR)
    assert isinstance(margin, int) and margin >= 4


def test_one_group_catalog_pass(workload):
    inputs = {"plan": [["D*_8", [[0.1, 0.9], [0.5, 0.25]]]]}
    items, anomalies, report = workload.run_catalog(workload.Api(), inputs, None)
    json.dumps(items)
    assert anomalies == [] and report is None
    assert len(items) == 7 and all(i["ok"] for i in items), items
