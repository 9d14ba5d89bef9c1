"""Smoke tests of the benchmark: every workload, both modes, in seconds.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q

Each run goes through the real command in ``--smoke`` mode (tiny
deployments and fleets), so the output checks, the failure accounting and
the teardown assertions (no child process, thread or open port left) all
execute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
from harness import END_TO_END  # noqa: E402
from trace import ACCURACY_METRICS, PER_LAYER, Tracer, unit_of  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT, timeout: float = 170.0):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=str(cwd),
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def test_spec_matches_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == [
        (name, unit_of(name)) for name in PER_LAYER
    ]


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_smoke_run(workload, trace):
    done = _run(
        "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace, "--smoke"
    )
    assert done.returncode == 0, done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    # Every workload reports every metric of the mode, each in its unit.
    expected = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], float), name
        if trace == "0" or name in ACCURACY_METRICS:
            assert metric["value"] > 0, name
    record = json.loads(
        (ROOT / ".bench_out" / f"result-{workload}-seed3-trace{trace}.json").read_text()
    )
    assert record["provenance"]["seed"] == 3
    assert len(record["provenance"]["input_digest"]) == 64
    checks = {c["name"]: c["ok"] for c in record["checks"]}
    assert checks["no child processes left"] and checks["no threads left"]


def test_same_seed_same_inputs():
    digests = []
    for _ in range(2):
        done = _run("--workload", "fleet_refresh", "--seed", "5", "--seconds", "0.2", "--smoke")
        assert done.returncode == 0, done.stderr[-3000:]
        digests.append(json.loads(done.stdout.strip().splitlines()[-2])["provenance"]["input_digest"])
    assert digests[0] == digests[1]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("--workload", "survey", "--seed", "1", "--seconds", "1", cwd=tmp_path, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


def _processes_with(marker: str):
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit() or int(entry.name) == os.getpid():
            continue
        try:
            cmdline = (entry / "cmdline").read_bytes().replace(b"\0", b" ").decode()
        except OSError:
            continue
        if marker in cmdline:
            found.append(entry.name)
    return found


@pytest.mark.skipif(not Path("/proc").is_dir(), reason="needs /proc")
def test_a_run_past_its_deadline_is_killed_with_its_children(monkeypatch, capsys):
    marker = "918273645"
    monkeypatch.setattr(bench, "DEADLINE_S", 4.0)
    code = bench.supervise(
        ["--workload", "daemon_mixed", "--seed", marker, "--seconds", "60", "--smoke"]
    )
    assert code != 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] >= 1
    deadline = time.monotonic() + 5
    while _processes_with(marker) and time.monotonic() < deadline:
        time.sleep(0.1)
    assert _processes_with(marker) == []


def test_self_time_subtracts_child_spans():
    tracer = Tracer()

    def inner():
        time.sleep(0.02)

    inner_shim = tracer.wrap("query.match", inner)

    def outer():
        time.sleep(0.01)
        inner_shim()

    tracer.wrap("query.engine", outer)()
    totals = tracer.self_times()
    assert 0.015 <= totals["query.match"] < 0.2
    assert 0.005 <= totals["query.engine"] < totals["query.match"]
