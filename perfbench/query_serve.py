"""Workload ``query_serve``: the in-process read path (``query run``).

One caller answers, in a closed loop, a pre-generated seeded stream of
batches against a published refresh of the base sites, with the default
``QueryConfig`` (kNN, vectorized, no cache).  Queries are simulated online
measurements.  Batch sizes 1, 64 and 1024 are interleaved; batch 1 is the
shape ``/localize`` serves, and its median is the workload's latency.  There
are enough of them that their p99, kept in the result record, has well over
ten samples beyond it.  Without this workload the matchers would be a few
percent of any request.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from harness import (
    closed_loop,
    digest_arrays,
    median_abs_error,
    median_distance,
    overhead_pct,
    percentile,
    report_end_to_end,
    timed_setup,
)
from inputs import DAYS, online_pool, seeds, surveyed_bases
from trace import report_layers

PATTERN = (1,) * 24 + (64,) * 3 + (1024,)
"""Batch sizes of one stream cycle, shuffled per cycle."""

CYCLES = 48
"""Distinct pre-generated cycles; the stream repeats them."""

BLOCK = CYCLES
"""Cycles per timed unit (host probes run between units)."""

POOL = 128
"""Simulated online measurements per site that batches are drawn from."""

SAMPLE_EVERY = 7
"""Every 7th request's answer is checked against the per-query reference."""

MAX_SAMPLES = 400


@dataclass
class Request:
    site: str
    measurements: np.ndarray


@dataclass
class Inputs:
    report: object
    locations: Dict[str, np.ndarray]
    engine: object
    cycles: List[List[Request]]
    truths: Dict[str, np.ndarray]
    """Site -> its day-45 ground-truth fingerprint."""
    pools: Dict[str, Tuple[np.ndarray, np.ndarray]]
    """Site -> (true location indices, online measurements) of its pool."""


def build(seed: int, smoke: bool):
    """Set-up steps (a generator, see ``timed_setup``); returns the inputs."""
    from repro.query import QueryConfig, QueryEngine
    from repro.service import FleetReport, UpdateService

    bases = []
    for site in surveyed_bases(seed, smoke):
        bases.append(site)
        yield
    reports = UpdateService().update_fleet([base.request for base in bases])
    report = FleetReport(elapsed_days=DAYS, reports=tuple(reports))
    locations = {base.name: base.locations for base in bases}
    engine = QueryEngine(QueryConfig())
    engine.publish_report(report, locations=locations)

    rng = np.random.default_rng(seeds(seed, 1, stream=4)[0])
    pools = []
    for base in bases:
        pools.append(online_pool(base, POOL, rng))
        yield
    cycles = []
    for c in range(CYCLES):
        cycle = []
        seen: Dict[int, int] = {}
        for size in rng.permutation(PATTERN):
            # Sites take turns within each batch size, so every seed sends
            # each site the same share of every batch size.
            k = (seen.get(size, 0) + c) % len(bases)
            seen[size] = seen.get(size, 0) + 1
            rows = rng.integers(0, POOL, size=int(size))
            cycle.append(Request(bases[k].name, pools[k][1][rows]))
        cycles.append(cycle)
    # One cycle pays lazy initialisation before timing.
    for request in cycles[0]:
        engine.localize_batch(request.site, request.measurements)
    return Inputs(
        report=report,
        locations=locations,
        engine=engine,
        cycles=cycles,
        truths={base.name: base.truth for base in bases},
        pools={base.name: pool for base, pool in zip(bases, pools)},
    )


def main(args, run, tracer, ports) -> None:
    from repro.localization.knn import KNNConfig, KNNLocalizer

    setup_s, inputs = timed_setup(lambda: build(args.seed, args.smoke))
    run.input_digest = digest_arrays(
        *[r.measurements for cycle in inputs.cycles for r in cycle],
        *[pool for _, pool in inputs.pools.values()],
    )
    engine = inputs.engine
    samples: List[Tuple[Request, object]] = []

    def block(index: int):
        latencies = []
        queries = 0
        for c in range(BLOCK):
            for request in inputs.cycles[(index * BLOCK + c) % CYCLES]:
                run.attempted += 1
                start = time.perf_counter()
                try:
                    answer = engine.localize_batch(request.site, request.measurements)
                except Exception as exc:  # noqa: BLE001 - counted, reported below
                    run.failed += 1
                    run.notes.setdefault("first_error", repr(exc))
                    continue
                elapsed = time.perf_counter() - start
                queries += len(request.measurements)
                if len(request.measurements) == 1:
                    latencies.append(elapsed)
                if run.attempted % SAMPLE_EVERY == 0 and len(samples) < MAX_SAMPLES:
                    samples.append((request, answer))
        return latencies, queries

    outcomes = []
    units = closed_loop(args.seconds, block, tracer, after=outcomes.append)
    run.notes["unit_s"] = [u.seconds for u in units]
    run.notes["probes"] = [(u.probe_before, u.probe_after) for u in units]
    b1_us = [
        dt * u.factor * 1e6 for u, (latencies, _) in zip(units, outcomes) for dt in latencies
    ]

    references = {
        site: KNNLocalizer(
            inputs.report.report_for(site).matrix, inputs.locations[site], KNNConfig()
        )
        for site in inputs.locations
    }
    worst = 0.0
    mismatched = 0
    for request, answer in samples:
        reference = references[request.site]
        for row, index, point in zip(request.measurements, answer.indices, answer.points):
            worst = max(worst, float(np.max(np.abs(reference.localize_point(row) - point))))
            mismatched += int(reference.localize_index(row) != index)
    run.check("every request answered", run.failed == 0, str(run.notes.get("first_error", "")))
    run.check(
        "sampled answers match the per-query reference",
        bool(samples) and worst <= 1e-10 and mismatched == 0,
        f"{len(samples)} sampled requests, worst point error {worst:.3g} m, "
        f"{mismatched} index mismatches",
    )
    run.notes["b1_samples"] = len(b1_us)
    run.notes["b1_p99_us"] = percentile(b1_us, 99)
    sites = sorted(inputs.locations)
    run.notes["accuracy"] = {
        "core.update_error_db": median_abs_error(
            [inputs.report.report_for(site).estimate for site in sites],
            [inputs.truths[site] for site in sites],
        ),
        "query.localize_error_m": median_distance(
            [engine.localize_batch(site, inputs.pools[site][1]).points for site in sites],
            [inputs.locations[site][inputs.pools[site][0]] for site in sites],
        ),
    }

    if tracer is None:
        # Every block runs all CYCLES cycles once, so blocks are equal work.
        report_end_to_end(
            run,
            setup_s,
            float(np.median([q / u.normalized for u, (_, q) in zip(units, outcomes)])),
            percentile(b1_us, 50) / 1e3,
        )
    else:
        traced = [u for u in units if u.traced]
        report_layers(
            run,
            tracer,
            len(traced) * BLOCK,
            # Time-weighted, so the layers' shares of trace.unit_s stay exact.
            sum(u.normalized for u in traced) / sum(u.seconds for u in traced),
            {
                **run.notes["accuracy"],
                "trace.overhead_pct": overhead_pct(units),
                "trace.unit_s": float(np.mean([u.normalized for u in traced])) / BLOCK,
            },
        )
