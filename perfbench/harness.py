"""Shared plumbing of the benchmark: results, checks, set-up timing, teardown.

Everything here is workload-agnostic.  A workload builds its inputs through
:func:`timed_setup`, records what it attempted and what failed on a
:class:`Run`, and hands the run back to ``run.py``, which adds the teardown
checks and prints the result line.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import platform
import resource
import socket
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, NamedTuple, Tuple

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
"""The checkout the benchmark runs in (the parent of ``perfbench/``)."""

OUT_DIR = ROOT / ".bench_out"
"""Where traces, result records and daemon spools go (git-ignored)."""

SETUP_REPEATS = 3
"""Set-ups per run; ``setup_s`` is their median."""

THREAD_GRACE_S = 5.0
"""How long teardown waits for finishing threads before it counts them."""

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
)
"""The end-to-end metrics every workload reports, with their units."""


@dataclass
class Run:
    """What one benchmark run attempted, measured and checked."""

    workload: str
    seed: int
    attempted: int = 0
    failed: int = 0
    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    checks: List[Tuple[str, bool, str]] = field(default_factory=list)
    input_digest: str = ""
    notes: Dict[str, object] = field(default_factory=dict)

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.checks.append((name, bool(ok), detail))
        return bool(ok)

    @property
    def correct(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def result_line(self) -> dict:
        """The result line: exactly correct/attempted/failed/metrics."""
        return {
            "correct": self.correct,
            "attempted": max(int(self.attempted), 1),
            "failed": int(self.failed),
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in self.metrics.items()
            },
        }


def report_end_to_end(
    run: Run, setup_s: float, throughput_per_s: float, latency_p50_ms: float
) -> None:
    """Record every end-to-end metric: set-up, memory, work rate, median latency."""
    values = {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "throughput_per_s": throughput_per_s,
        "latency_p50_ms": latency_p50_ms,
    }
    for name, unit in END_TO_END:
        run.metric(name, values[name], unit)


def median_abs_error(estimates, truths) -> float:
    """Median absolute entry error over paired fingerprint matrices (dB)."""
    return float(
        np.median(np.concatenate([np.abs(e - t).ravel() for e, t in zip(estimates, truths)]))
    )


def median_distance(points, true_points) -> float:
    """Median localization error over paired point arrays (m)."""
    return float(
        np.median(
            np.concatenate([np.linalg.norm(p - t, axis=1) for p, t in zip(points, true_points)])
        )
    )


def digest_arrays(*parts) -> str:
    """SHA-256 over arrays, bytes and strings, in order (the input digest)."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            array = np.ascontiguousarray(part)
            h.update(str(array.dtype).encode())
            h.update(repr(array.shape).encode())
            h.update(array.tobytes())
        elif isinstance(part, bytes):
            h.update(part)
        else:
            h.update(repr(part).encode())
    return h.hexdigest()


# On a shared 2-vCPU virtual machine (2.1 GHz) the host's speed flips
# between two levels about 1.6x apart for stretches of 10-30 s.  A
# 10 s run can land in either, so raw timings of the same code spread by
# 20-30% between runs.  Every timing is therefore taken between short host
# probes (a fixed mix of interpreter and small-matrix work, like the
# program's) and scaled to the reference speed at which one probe takes
# PROBE_REFERENCE_S.  In 10 s windows this cut the spread of refresh round
# times from 0.84-1.37x to 0.96-1.04x of their median.  Raw values are kept
# in the result record.
PROBE_REFERENCE_S = 0.005
"""Probe time at the reference host speed (one fast-phase 2.1 GHz vCPU),
for ``probe_kernel()`` at its default scale of 5."""

_PROBE_MATRIX = np.random.default_rng(0).normal(size=(40, 40))


def probe_kernel(scale: int = 5) -> int:
    """Fixed work: ``scale`` x (10k interpreter steps + 10 small solves)."""
    total = 0
    for i in range(10000 * scale):
        total += i * i
    for _ in range(10 * scale):
        np.linalg.solve(_PROBE_MATRIX, _PROBE_MATRIX)
    return total


def host_probe() -> float:
    """Seconds the probe kernel takes now (median of three)."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        probe_kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def speed_factor(*probes: float) -> float:
    """Scale from raw seconds to seconds at the reference host speed."""
    return PROBE_REFERENCE_S / statistics.mean(probes)


def timed_setup(build: Callable[[], Iterator[None]], repeats: int = SETUP_REPEATS):
    """Build the inputs ``repeats`` times; return ``(median seconds, last)``.

    ``build`` is a generator function that yields between its costly steps
    and returns the inputs.  A host probe runs at every yield, and each step
    is normalized by the probes on either side of it, like every other
    timing.  Every build but the last is closed (``close()``, when it has
    one) before the next starts, so a set-up that owns a daemon never
    overlaps another.
    """
    durations = []
    built = None
    for attempt in range(repeats):
        close = getattr(built, "close", None)
        if close is not None:
            close()
        steps = build()
        total = 0.0
        before = host_probe()
        finished = False
        while not finished:
            start = time.perf_counter()
            try:
                next(steps)
            except StopIteration as stop:
                built = stop.value
                finished = True
            elapsed = time.perf_counter() - start
            after = host_probe()
            total += elapsed * speed_factor(before, after)
            before = after
        durations.append(total)
    return statistics.median(durations), built


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0-100) of ``values`` (linear interpolation)."""
    return float(np.percentile(np.asarray(values, dtype=float), q))


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def port_closed(host: str, port: int) -> bool:
    """Whether nothing accepts connections on ``host:port`` any more."""
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.settimeout(1.0)
        try:
            probe.connect((host, port))
        except OSError:
            return True
    return False


def teardown_checks(run: Run, ports: List[Tuple[str, int]]) -> None:
    """Assert the run left no child process, serving thread or open port."""
    children = multiprocessing.active_children()
    run.check(
        "no child processes left",
        not children,
        ", ".join(str(child.pid) for child in children),
    )
    # Handler threads of a closed HTTP server may still be finishing a reply.
    deadline = time.monotonic() + THREAD_GRACE_S
    while True:
        threads = [t for t in threading.enumerate() if t is not threading.main_thread()]
        if not threads or time.monotonic() >= deadline:
            break
        threads[0].join(timeout=0.05)
    run.check("no threads left", not threads, ", ".join(t.name for t in threads))
    for host, port in ports:
        run.check(f"port {port} closed", port_closed(host, port))


def git_sha() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def provenance(run: Run, args) -> dict:
    """Who produced a result: seed, inputs, code version and host."""
    import os

    return {
        "workload": run.workload,
        "seed": run.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "input_digest": run.input_digest,
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": sys.platform,
    }


class Deadline:
    """A measurement window of ``seconds`` starting now."""

    def __init__(self, seconds: float) -> None:
        self.start = time.perf_counter()
        self.seconds = float(seconds)

    @property
    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    @property
    def passed(self) -> bool:
        return self.elapsed >= self.seconds


class Unit(NamedTuple):
    """One unit of closed-loop work: traced or not, raw seconds, the probes."""

    traced: bool
    seconds: float
    probe_before: float
    probe_after: float

    @property
    def factor(self) -> float:
        return speed_factor(self.probe_before, self.probe_after)

    @property
    def normalized(self) -> float:
        return self.seconds * self.factor


def closed_loop(
    seconds: float,
    unit: Callable[[int], object],
    tracer=None,
    min_units: int = 1,
    after: Callable[[object], None] = None,
    granule: int = 1,
) -> List[Unit]:
    """Run ``unit(0)``, ``unit(1)``, ... back to back for ``seconds``.

    A host probe runs between units, and each unit's speed factor comes from
    the probes on either side of it.  With a tracer, units alternate
    untraced and traced (shims installed only around odd units), so one run
    yields both the per-layer spans and the tracing overhead.  ``after``
    receives each unit's return value outside the timed and traced window.  The deadline is only checked every ``granule``
    units, so a run always covers whole cycles of its inputs.
    """
    if tracer is not None:
        min_units = max(min_units, 2)
    deadline = Deadline(seconds)
    units: List[Unit] = []
    index = 0
    before = host_probe()
    while index < min_units or index % granule or not deadline.passed:
        traced = tracer is not None and index % 2 == 1
        if traced:
            tracer.install()
        start = time.perf_counter()
        try:
            value = unit(index)
        finally:
            elapsed = time.perf_counter() - start
            if traced:
                tracer.uninstall()
        probe = host_probe()
        units.append(Unit(traced, elapsed, before, probe))
        before = probe
        if after is not None:
            after(value)
        index += 1
    return units


def overhead_pct(units: List[Unit]) -> float:
    """Median traced unit time over median untraced unit time, minus 1, in %."""
    traced = [u.normalized for u in units if u.traced]
    plain = [u.normalized for u in units if not u.traced]
    if not traced or not plain:
        return 0.0
    return 100.0 * (statistics.median(traced) / statistics.median(plain) - 1.0)
