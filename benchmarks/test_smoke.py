"""Smoke test of the benchmark harness on tiny configurations.

Run from the repository root with ``python3 -m pytest benchmarks/test_smoke.py``.
It checks that a run emits every metric named in ``BENCHMARK.json`` with
its unit, and that a traced run leaves every wrapped attribute as it found
it, so untraced runs stay untraced.
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402

topinf = run._import_topinf()
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())



def tiny(name: str) -> run.Workload:
    """The workload on a few elements, samples and steps."""
    w = run.WORKLOADS[name]
    base = topinf.default_config(w.problem)
    small = {"n_elements": 16, "n_train": 4, "n_test": 1, "reduced_dims": (2, 3),
             "tf": base.t0 + 12 * base.dt}
    return dataclasses.replace(w, overrides={**w.overrides, **small})


def small_run(name: str, trace: bool, tmp_path: Path) -> dict:
    return run.run(topinf, tiny(name), 3, 0.0, trace, tmp_path, setup_min=2,
                   query_min=12, spans_path=tmp_path / "spans.jsonl")


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(name, trace, tmp_path):
    result = small_run(name, trace, tmp_path)
    assert result["correct"], result["failures"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    for metric in wanted:
        assert metric["name"] in result["metrics"], metric["name"]
        assert run.unit_of(metric["name"]) == metric["unit"], metric["name"]
    assert {m["name"] for m in wanted} == set(result["metrics"])
    if trace:
        assert (tmp_path / "spans.jsonl").stat().st_size > 0


def test_traced_run_restores_every_wrapped_attribute(tmp_path):
    before = [(owner, attr, vars(owner)[attr]) for owner, attr in tracing.wrapped_attributes()]
    small_run("heat-default", True, tmp_path)
    for owner, attr, original in before:
        assert vars(owner)[attr] is original, f"{owner.__name__}.{attr} left wrapped"
