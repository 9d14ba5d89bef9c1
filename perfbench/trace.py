"""Timing shims the benchmark installs on the program's public functions.

The benchmark measures the program from outside, so a traced run wraps the
public entry points of every layer (``repro.simulation``, ``repro.core``,
``repro.service``, ``repro.io``, ``repro.query``, ``repro.daemon``) in
shims that record a span per call: name, parent span, thread, start, end.
Spans stay in memory and are written out when the run ends.  A layer's
self time is its spans' durations minus the parts their child spans cover,
so ``service.execute`` is the executor's scatter/gather work without the
solves it runs in-process, and ``daemon.http`` is the ``/api/localize``
handler without the engine call it makes.

Shims patch the attribute a caller actually looks up: a module that did
``from x import f`` is patched under its own name for ``f``.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

_MISSING = object()

SPAN_METRICS = {
    "simulation.survey": "simulation.survey_s",
    "simulation.collect": "simulation.collect_s",
    "simulation.online": "simulation.online_s",
    "core.correlation": "core.correlation_s",
    "core.solve": "core.solve_s",
    "service.update": "service.update_s",
    "service.prepare": "service.prepare_s",
    "service.plan": "service.plan_s",
    "service.execute": "service.execute_s",
    "io.decode": "io.decode_s",
    "io.encode": "io.encode_s",
    "io.journal": "io.journal_s",
    "query.publish": "query.publish_s",
    "query.engine": "query.engine_s",
    "query.match": "query.match_s",
    "daemon.http": "daemon.http_s",
}
"""Span name -> per-layer self-time metric."""

COUNT_METRICS = (
    "simulation.columns",
    "core.sweeps",
    "service.shards",
    "service.fallback_shards",
    "service.sweeps_saved",
    "io.payload_bytes",
    "io.journal_writes",
    "query.match_calls",
)
"""Per-layer counters the shims accumulate."""


class Tracer:
    """In-memory span recorder with installable shims."""

    def __init__(self) -> None:
        self.spans: List[Tuple[int, int, str, int, float, float]] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def wrap(
        self,
        name: str,
        fn: Callable,
        after: Optional[Callable] = None,
        name_for: Optional[Callable] = None,
    ) -> Callable:
        """A shim around ``fn`` recording one span per call.

        ``name_for(args)`` may pick the span name per call, or return
        ``None`` to call through untraced; ``after(tracer, args, result)``
        updates counters from a call's arguments and result.
        """
        tracer = self

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            span_name = name if name_for is None else name_for(args)
            if span_name is None:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            parent = stack[-1] if stack else 0
            span_id = next(tracer._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                with tracer._lock:
                    tracer.spans.append(
                        (span_id, parent, span_name, threading.get_ident(), start, end)
                    )
            if after is not None:
                after(tracer, args, result)
            return result

        return shim

    # --------------------------------------------------------- installation
    def install(self) -> None:
        """Patch every layer's public functions (idempotent)."""
        if self._patches:
            return
        for owner, attr, name, after, name_for in layer_shims():
            saved = vars(owner).get(attr, _MISSING)
            original = getattr(owner, attr)
            setattr(owner, attr, self.wrap(name, original, after, name_for))
            self._patches.append((owner, attr, saved))

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        while self._patches:
            owner, attr, saved = self._patches.pop()
            if saved is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, saved)

    # ------------------------------------------------------------- analysis
    def _with_self_times(self) -> List[Tuple[Tuple[int, int, str, int, float, float], float]]:
        """Every span with its self time: duration minus its children's."""
        with self._lock:
            spans = list(self.spans)
        covered: Dict[int, float] = defaultdict(float)
        for _, parent, _, _, start, end in spans:
            if parent:
                covered[parent] += end - start
        return [(span, (span[5] - span[4]) - covered[span[0]]) for span in spans]

    def self_times(self) -> Dict[str, float]:
        """Total self time per span name."""
        totals: Dict[str, float] = defaultdict(float)
        for span, own in self._with_self_times():
            totals[span[2]] += own
        return dict(totals)

    def layer_metrics(self, units: int, factor: float = 1.0) -> Dict[str, float]:
        """Per-layer self seconds and counters, per traced unit of work.

        ``factor`` scales self times to the reference host speed.
        """
        units = max(units, 1)
        totals = self.self_times()
        metrics = {
            metric: totals.get(span, 0.0) * factor / units
            for span, metric in SPAN_METRICS.items()
        }
        for name in COUNT_METRICS:
            metrics[name] = self.counts.get(name, 0.0) / units
        return metrics

    def write(self, path: Path) -> None:
        """Dump every span (with its self time) as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("id", "parent", "name", "thread", "start", "end")
        with path.open("w") as out:
            for span, own in self._with_self_times():
                out.write(json.dumps({**dict(zip(keys, span)), "self": own}) + "\n")


# ---------------------------------------------------------------- counters
def _count_columns(tracer: Tracer, args, result) -> None:
    tracer.count("simulation.columns", int(result.values.shape[1]))


def _count_reference_columns(tracer: Tracer, args, result) -> None:
    tracer.count("simulation.columns", int(result.shape[1]))


def _count_online(tracer: Tracer, args, result) -> None:
    tracer.count("simulation.columns", int(len(result)))


def _count_plan(tracer: Tracer, args, result) -> None:
    plan = result[0]
    tracer.count("service.shards", len(plan.shards))
    tracer.count("service.fallback_shards", sum(bool(s.fallback) for s in plan.shards))
    tracer.count("core.sweeps", sum(int(s.sweeps) for s in plan.shards))


def _payload_size(source) -> int:
    if isinstance(source, (bytes, bytearray, memoryview)):
        return len(source)
    getbuffer = getattr(source, "getbuffer", None)
    if getbuffer is not None:
        return getbuffer().nbytes
    return Path(source).stat().st_size


def _count_decoded(tracer: Tracer, args, result) -> None:
    tracer.count("io.payload_bytes", _payload_size(args[0]))


def _count_encoded(tracer: Tracer, args, result) -> None:
    tracer.count("io.payload_bytes", _payload_size(args[0]))
    tracer.count("service.sweeps_saved", sum(args[1].sweeps_saved.values()))


def _count_journal(tracer: Tracer, args, result) -> None:
    tracer.count("io.journal_writes")


def _count_match(tracer: Tracer, args, result) -> None:
    tracer.count("query.match_calls")


def _localize_only(args) -> Optional[str]:
    return "daemon.http" if args[0].path.startswith("/api/localize") else None


def layer_shims():
    """``(owner, attribute, span name, after, name_for)`` of every shim."""
    import repro.daemon.queue as daemon_queue
    import repro.io as rio
    import repro.service.executor as executor
    import repro.service.service as service
    from repro.core.updater import IUpdater
    from repro.daemon.http import DaemonRequestHandler
    from repro.query.engine import QueryEngine
    from repro.query.matchers import BoundMatcher
    from repro.simulation.collector import MeasurementCollector

    return [
        (MeasurementCollector, "survey_fingerprint", "simulation.survey", _count_columns, None),
        (MeasurementCollector, "collect_no_decrease", "simulation.collect", None, None),
        (MeasurementCollector, "collect_reference", "simulation.collect", _count_reference_columns, None),
        (MeasurementCollector, "online_batch", "simulation.online", _count_online, None),
        (IUpdater, "acquire_correlation", "core.correlation", None, None),
        (executor, "solve_shard", "core.solve", None, None),
        (service.UpdateService, "update_fleet", "service.update", None, None),
        (service, "prepare_request", "service.prepare", None, None),
        (service, "plan_shards", "service.plan", None, None),
        (executor.SerialExecutor, "execute", "service.execute", _count_plan, None),
        (executor.ProcessExecutor, "execute", "service.execute", _count_plan, None),
        (executor.PooledProcessExecutor, "execute", "service.execute", _count_plan, None),
        (rio, "requests_from_bytes", "io.decode", _count_decoded, None),
        (rio, "load_requests", "io.decode", _count_decoded, None),
        (rio, "save_report", "io.encode", _count_encoded, None),
        (daemon_queue, "save_journal", "io.journal", _count_journal, None),
        (QueryEngine, "publish_report", "query.publish", None, None),
        (QueryEngine, "localize_batch", "query.engine", None, None),
        (BoundMatcher, "localize", "query.match", _count_match, None),
        (DaemonRequestHandler, "do_POST", "daemon.http", None, _localize_only),
    ]


DAEMON_METRICS = (
    "daemon.queue_wait_s",
    "daemon.job_run_s",
    "daemon.job_attempts",
    "daemon.jobs_failed",
    "daemon.localize_failed",
    "daemon.generator_lateness_ms",
)
"""Per-layer daemon metrics taken from job records and the client."""

ACCURACY_METRICS = ("core.update_error_db", "query.localize_error_m")
"""What the refresh and the matcher got right: the median reconstruction
error against the day-45 ground truth and the median localization error."""

TRACE_METRICS = ("trace.overhead_pct", "trace.unit_s")
"""The traced run's own cost and the unit the per-layer values are per."""

PER_LAYER = (
    tuple(SPAN_METRICS.values())
    + COUNT_METRICS
    + DAEMON_METRICS
    + ACCURACY_METRICS
    + TRACE_METRICS
)
"""Every per-layer metric, in the order a traced run prints them."""


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith("_pct"):
        return "%"
    if metric.endswith("_bytes"):
        return "bytes"
    if metric.endswith("_db"):
        return "dB"
    if metric.endswith("_m"):
        return "m"
    return "count"


def report_layers(
    run, tracer: Tracer, units: int, factor: float, extra: Dict[str, float]
) -> None:
    """Record every per-layer metric on ``run``: spans per unit plus ``extra``.

    ``extra`` must hold the accuracy and trace metrics; a layer the workload
    does not exercise reads 0.
    """
    values = tracer.layer_metrics(units, factor)
    values.update(extra)
    for metric in PER_LAYER:
        required = metric in ACCURACY_METRICS + TRACE_METRICS
        run.metric(metric, values[metric] if required else values.get(metric, 0.0), unit_of(metric))
