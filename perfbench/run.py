#!/usr/bin/env python3
"""The repository benchmark: one command per workload, seed and mode.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload survey --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones (see ``perfbench/README.md``).  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

The command supervises the measuring process: it runs the workload in a
child process group, kills the whole group if the run passes its deadline,
and counts a killed run, or one that leaves a process behind, as failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"

WORKLOADS = ("survey", "fleet_refresh", "query_serve", "daemon_mixed")

DEADLINE_S = 170.0
"""Wall-clock limit of one run, set-up and teardown included."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny deployments and fleets: checks the plumbing in seconds",
    )
    parser.add_argument("--in-process", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


# --------------------------------------------------------------- supervisor
def _group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _remove_spools() -> None:
    """Daemon spools a killed run could not remove itself."""
    for spool in (ROOT / ".bench_out").glob("spool-*"):
        shutil.rmtree(spool, ignore_errors=True)


def _failed_line(reason: str) -> str:
    print(reason, file=sys.stderr)
    return json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}})


def _raise_exit(signum, frame):
    raise SystemExit(128 + signum)


def supervise(argv) -> int:
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"no program source under {SOURCE}; run from a full checkout", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SOURCE), env.get("PYTHONPATH", "")) if p
    )
    previous = signal.signal(signal.SIGTERM, _raise_exit)
    child = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), *argv, "--in-process"],
        stdout=subprocess.PIPE,
        env=env,
        cwd=str(ROOT),
        start_new_session=True,
    )
    try:
        out, _ = child.communicate(timeout=DEADLINE_S)
    except subprocess.TimeoutExpired:
        _kill_group(child.pid)
        child.communicate()
        _remove_spools()
        print(_failed_line(f"run passed its {DEADLINE_S:g}s deadline; killed"))
        return 3
    except BaseException:
        _kill_group(child.pid)
        child.communicate()
        _remove_spools()
        raise
    finally:
        signal.signal(signal.SIGTERM, previous)
    lines = out.decode("utf-8", "replace").splitlines()
    for line in lines[:-1]:
        print(line)
    leftover = _group_alive(child.pid)
    if leftover:
        _kill_group(child.pid)
    if not lines:
        print(f"the run printed no result (exit {child.returncode})", file=sys.stderr)
        return child.returncode or 1
    if leftover:
        print(_failed_line("the run left processes behind; killed them"))
        return 4
    print(lines[-1])
    return child.returncode


# ------------------------------------------------------------- measurement
def measure(args) -> int:
    sys.path.insert(0, str(SOURCE))
    import importlib

    from harness import OUT_DIR, Run, provenance, teardown_checks
    from trace import Tracer

    workload = importlib.import_module(args.workload)
    run = Run(workload=args.workload, seed=args.seed)
    tracer = Tracer() if args.trace else None
    ports = []
    try:
        workload.main(args, run, tracer, ports)
    except Exception as exc:  # noqa: BLE001 - reported as a failed run
        traceback.print_exc()
        run.failed += 1
        run.check("workload completed", False, repr(exc))
    finally:
        if tracer is not None:
            tracer.uninstall()
    teardown_checks(run, ports)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "provenance": provenance(run, args),
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in run.checks],
        "notes": run.notes,
        "result": run.result_line(),
    }
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / f"result-{tag}.json").write_text(json.dumps(record, indent=2, default=str))
    if tracer is not None:
        tracer.write(OUT_DIR / f"trace-{tag}.jsonl")
    for name, ok, detail in run.checks:
        if not ok:
            print(f"check failed: {name}: {detail}", file=sys.stderr)
    print(json.dumps({"provenance": record["provenance"]}))
    print(json.dumps(run.result_line()))
    return 0 if run.correct else 1


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = parse_args(argv)
    if args.in_process:
        return measure(args)
    return supervise(argv)


if __name__ == "__main__":
    sys.exit(main())
