"""Golden fault schedules: query, compile and fleet draws per seed.

Both fault plans draw from one seeded scheduler core. These schedules
were recorded before the two plans shared that core; any change to
the draw (hash input, counter handling, window arithmetic) shows up
here as a changed string. Query marks: ``.`` clean, ``E`` error, ``S``
wrong-shape, lower case when a latency fault fired on the same call.
Compile marks: ``C`` injected failure. Fleet marks: ``1`` active.
"""

from __future__ import annotations

import pytest

from repro.resilience import (
    FLEET_FAULT_KINDS,
    FaultPlan,
    FaultSpec,
    FleetFaultPlan,
    FleetFaultSpec,
)

GOLDEN = {
    0: {
        "hotel": ".E......S.EES...e.S.E..s.E...E..",
        "availability": "e.........EES.EEEEEEE.....ES..s.",
        "query": "...E.E....eSE...ESs..EEE.....E..",
        "compile": "..C...CCCCCCC.......CC....CC....",
        "shard0:primary:partition": "000111111000111000000111",
        "shard0:replica-1:replica-crash": "111000111000000111000000",
        "shard0:replica-1:apply-stall": "000111000111000000000000",
        "shard0:replica-2:replica-crash": "111111000000111111000000",
        "shard0:replica-2:apply-stall": "000111111111000000111000",
        "shard1:primary:partition": "111000000000000111000000",
        "shard1:replica-1:replica-crash": "000000000111000000111000",
        "shard1:replica-1:apply-stall": "000111111111000111111000",
        "shard1:replica-2:replica-crash": "111000111111000000111000",
        "shard1:replica-2:apply-stall": "111111000111000000111000",
    },
    7: {
        "hotel": ".S.s.S...E...eSEeS...EESS.E....E",
        "availability": ".SE.S..SSe.S..S.E..eEE.e...E..SE",
        "query": "EEE.EE...ESE...SE...EEEE..eSS...",
        "compile": "C.CC.CCCCC..C.C.C.C.C..C........",
        "shard0:primary:partition": "000000000000000000000111",
        "shard0:replica-1:replica-crash": "000000111000111111000111",
        "shard0:replica-1:apply-stall": "000000000000000111111000",
        "shard0:replica-2:replica-crash": "111000000000000111000000",
        "shard0:replica-2:apply-stall": "111000111111000000000111",
        "shard1:primary:partition": "111000000000000111000111",
        "shard1:replica-1:replica-crash": "111111000000111111111000",
        "shard1:replica-1:apply-stall": "111111000000000000111000",
        "shard1:replica-2:replica-crash": "000111111000000000111111",
        "shard1:replica-2:apply-stall": "000000000000000000111000",
    },
    21: {
        "hotel": "E.....seEESSEESE...EE...EE.eEE.S",
        "availability": "E..Eee.ESS..S..S.S..EeeEEEEE.e..",
        "query": "eE...EEEEE.EeSSS.E..EE...SE.E..E",
        "compile": "C..CCCC.CC.....CC..CCCC....C.C..",
        "shard0:primary:partition": "111111000111000111000111",
        "shard0:replica-1:replica-crash": "000000000111000111111000",
        "shard0:replica-1:apply-stall": "000111000000000111111111",
        "shard0:replica-2:replica-crash": "000111111000000111111000",
        "shard0:replica-2:apply-stall": "111000000111000111111000",
        "shard1:primary:partition": "111000000000111000111111",
        "shard1:replica-1:replica-crash": "111111000111111111000000",
        "shard1:replica-1:apply-stall": "000111000000000000111111",
        "shard1:replica-2:replica-crash": "111111000000000111000000",
        "shard1:replica-2:apply-stall": "000000000111000000111000",
    },
}

_QUERY_MARKS = {None: ".", "error": "E", "wrong-shape": "S"}


def _query_schedules(seed: int) -> dict:
    plan = FaultPlan(
        FaultSpec(
            error_rate=0.3,
            latency_rate=0.2,
            latency_ms=0.0,
            wrong_shape_rate=0.25,
            compile_error_rate=0.4,
        ),
        seed=seed,
    )
    schedules = {}
    for site in ("hotel", "availability", "query"):
        marks = []
        for _ in range(32):
            before = plan.stats()["injected"]["latency"]
            mark = _QUERY_MARKS[plan.check_query(site)]
            if plan.stats()["injected"]["latency"] > before:
                mark = mark.lower()
            marks.append(mark)
        schedules[site] = "".join(marks)
    marks = []
    for _ in range(32):
        try:
            plan.check_compile("0123456789abcdef")
            marks.append(".")
        except Exception:
            marks.append("C")
    schedules["compile"] = "".join(marks)
    return schedules


def _fleet_schedules(seed: int) -> dict:
    plan = FleetFaultPlan(
        FleetFaultSpec(
            crash_rate=0.4, stall_rate=0.4, partition_rate=0.4, window=3
        ),
        seed=seed,
    )
    schedules = {}
    for shard in (0, 1):
        for member in ("primary", "replica-1", "replica-2"):
            for kind in FLEET_FAULT_KINDS:
                if (kind == "partition") != (member == "primary"):
                    continue
                schedules[f"shard{shard}:{member}:{kind}"] = "".join(
                    "1" if plan.active(kind, shard, member) else "0"
                    for _ in range(24)
                )
    return schedules


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_schedules_match_the_recorded_golden(seed):
    schedules = {**_query_schedules(seed), **_fleet_schedules(seed)}
    assert schedules == GOLDEN[seed]
