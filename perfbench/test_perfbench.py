"""Smoke tests of the benchmark itself: ``python3 -m pytest perfbench -q``.

Every workload runs at smoke size in both modes. The tests assert zero
failed operations, every metric of BENCHMARK.json present with its
unit, no trace wrapper left installed after the traced run, and exact
repeat of the traced run's counts for one seed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import WRAPPED_MARK  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [workload["name"] for workload in SPEC["workloads"]]


def _run(capsys, *args) -> tuple[dict, dict]:
    assert run.main(list(args)) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["record"]


def _leftover_wrappers() -> list[str]:
    found = []
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if getattr(value, WRAPPED_MARK, False):
                found.append(f"{name}.{attr}")
            if isinstance(value, type):
                for method, member in vars(value).items():
                    if getattr(member, WRAPPED_MARK, False):
                        found.append(f"{name}.{attr}.{method}")
    return found


def _check(result: dict, specs: list[dict]) -> None:
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    assert {
        name: metric["unit"] for name, metric in result["metrics"].items()
    } == {spec["name"]: spec["unit"] for spec in specs}


def test_workloads_match_the_spec():
    assert sorted(NAMES) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("name", NAMES)
def test_timed_run_smoke(capsys, name):
    result, record = _run(
        capsys, "--workload", name, "--seed", "3", "--seconds", "0.5", "--trace", "0"
    )
    _check(result, SPEC["end_to_end"])
    assert all(metric["value"] > 0 for metric in result["metrics"].values())
    assert record["data_digest"] and record["stream_digest"]
    assert sum(record["class_shares"].values()) == pytest.approx(1.0, abs=1e-3)


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_smoke_and_repeatable_counts(capsys, monkeypatch, name):
    monkeypatch.setattr(workloads.WORKLOADS[name], "trace_requests", 30)
    args = ("--workload", name, "--seed", "5", "--seconds", "1", "--trace", "1")
    first, first_record = _run(capsys, *args)
    _check(first, SPEC["per_layer"])
    assert _leftover_wrappers() == []
    second, second_record = _run(capsys, *args)
    assert second["failed"] == 0
    assert first_record["counts"] == second_record["counts"]
    assert first_record["counts"]["publishes"] == 30


def test_stream_depends_on_seed_only():
    a = workloads.ComposeChurn(1, 2)
    b = workloads.ComposeChurn(1, 2)
    c = workloads.ComposeChurn(2, 2)
    assert a.stream_digest() == b.stream_digest() != c.stream_digest()
    assert len(set(a.texts)) == workloads.CHURN_VARIANTS
    fleet = workloads.FleetWriteMix(1, 2)
    assert fleet.stream_digest() == workloads.FleetWriteMix(1, 2).stream_digest()
    assert fleet.stream_digest() != workloads.FleetWriteMix(2, 2).stream_digest()
