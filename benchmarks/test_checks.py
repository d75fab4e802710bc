"""Tests of the benchmark's output checks, input generation and tracer.

    python3 -m pytest benchmarks/test_checks.py
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import json  # noqa: E402

import pytest  # noqa: E402

import bench  # noqa: E402
import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from steerqkd import cli, qstate  # noqa: E402

SEED = 3


def run(call, tmp_path) -> bytes:
    record, data = bench.invoke(call, tmp_path, cli.main)
    assert record.rc == 0, record.error
    return data


def flip_digit(field: str) -> str:
    """``field`` with its first fractional digit (or its only digit) changed."""
    i = field.index(".") + 1 if "." in field else 0
    return field[:i] + str((int(field[i]) + 1) % 10) + field[i + 1:]


def corrupt_csv(data: bytes, row: int, column: str) -> bytes:
    lines = data.decode().split("\n")
    col = lines[0].split(",").index(column)
    fields = lines[row + 1].split(",")
    fields[col] = flip_digit(fields[col])
    lines[row + 1] = ",".join(fields)
    return "\n".join(lines).encode()


@pytest.mark.parametrize("index", [0, 1])  # a gamma grid, then a simplex grid
@pytest.mark.parametrize("column", ["f3_bound", "q_min", "useful"])
def test_scan_flipped_digit_fails(tmp_path, index, column):
    call = workloads.make_call("scan_grid", SEED, index)
    data = run(call, tmp_path)
    assert checks.check(call, data) is None
    assert checks.check(call, corrupt_csv(data, 7, column)) is not None


def test_scan_missing_row_fails(tmp_path):
    call = workloads.make_call("scan_grid", SEED, 1)
    data = run(call, tmp_path)
    lines = data.decode().split("\n")
    assert checks.check(call, "\n".join(lines[:3] + lines[4:]).encode()) is not None


@pytest.mark.parametrize("index", [0, 2])  # unfiltered, then filtered
def test_simulate_flipped_key_bit_fails(tmp_path, index):
    call = workloads.make_call("simulate", SEED, index)
    data = run(call, tmp_path)
    assert checks.check(call, data) is None
    report = json.loads(data)
    key = report["report"]["raw_key_alice"]
    report["report"]["raw_key_alice"] = str(1 - int(key[0])) + key[1:]
    assert checks.check(call, json.dumps(report, indent=2).encode()) is not None


def test_simulate_shifted_qber_fails(tmp_path):
    call = workloads.make_call("simulate", SEED, 0)
    report = json.loads(run(call, tmp_path))
    report["report"]["empirical_qber"] += 0.05
    assert checks.check(call, json.dumps(report).encode()) is not None


def test_onset_flipped_digit_fails(tmp_path):
    call = next(c for c in (workloads.make_call("filter_onset", SEED, i) for i in range(8))
                if len(c.spec["alphas"]) == 2)
    data = run(call, tmp_path)
    assert checks.check(call, data) is None
    assert checks.check(call, corrupt_csv(data, 1, "q_start")) is not None
    assert checks.check(call, corrupt_csv(data, 0, "steerable_at_start")) is not None


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload):
    first = [workloads.make_call(workload, SEED, i) for i in range(6)]
    again = [workloads.make_call(workload, SEED, i) for i in range(6)]
    other = [workloads.make_call(workload, SEED + 1, i) for i in range(6)]
    assert first == again
    assert all(a.argv != b.argv or a.files != b.files for a, b in zip(first, other))


def test_tracer_leaves_outputs_and_package_unchanged(tmp_path):
    # The first four calls cover 1, 2, 3 and 4 alphas.
    calls = [workloads.make_call("filter_onset", SEED, i) for i in range(4)]
    plain = [bench.invoke(call, tmp_path, cli.main)[0] for call in calls]
    tracer = tracing.Tracer()
    with tracer:
        assert hasattr(cli.bloch_decompose, "__wrapped__")
        traced = [bench.invoke(call, tmp_path, lambda a, op=op: tracer.call_main(op, a))[0]
                  for op, call in enumerate(calls)]
    assert [t.digest for t in traced] == [p.digest for p in plain]
    assert cli.bloch_decompose is qstate.bloch_decompose
    assert not hasattr(cli.bloch_decompose, "__wrapped__")
    calls_per_span, _ = tracer.layer_totals()
    assert calls_per_span["cli.main"] == 4
    # Each call makes the probe budget its inputs were drawn for.
    assert calls_per_span["filtering.modified_protocol_useful"] == 4 * workloads.ONSET_PROBES
    assert calls_per_span["onset.useful_q_start"] == 1 + 2 + 3 + 4
