"""Workload ``fleet_refresh``: the batch operator path, in cold rounds.

Each round is what ``fleet run`` does with a payload: ``requests_from_bytes``
on a pre-built payload, a serial ``update_fleet`` with the default
``ShardConfig()``, the ``FleetReport`` encoded with ``save_report``, then
``publish_report``.  The fleet is 96 sites tiled from one surveyed site per
environment; every copy gets its own per-link drift on its fresh
measurements and its own solver seed.  The simulator runs only in set-up
and the executor is serial, so the solver, service and wire layers do the
work and scatter/gather is bypassed.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from harness import (
    closed_loop,
    digest_arrays,
    median_abs_error,
    median_distance,
    overhead_pct,
    report_end_to_end,
    timed_setup,
)
from inputs import DAYS, Copy, location_tables, online_pool, seeds, surveyed_bases, tile
from trace import report_layers

COPIES = 32
"""Copies per base site: 3 bases x 32 = 96 sites."""

SMOKE_COPIES = 2

POOL = 16
"""Simulated online measurements per base site; every copy of the base is
queried with all of them, plus its drift, after the timed rounds."""


@dataclass
class Inputs:
    fleet: List[Copy]
    payload: bytes
    pools: Dict[str, Tuple[np.ndarray, np.ndarray]]
    """Base site name -> (true location indices, online measurements)."""


def build(seed: int, smoke: bool):
    """Set-up steps (a generator, see ``timed_setup``); returns the inputs."""
    import repro.io as rio
    from repro.query import QueryEngine

    bases = []
    for site in surveyed_bases(seed, smoke):
        bases.append(site)
        yield
    rng = np.random.default_rng(seeds(seed, 1, stream=6)[0])
    pools = {base.name: online_pool(base, POOL, rng) for base in bases}
    fleet = tile(bases, SMOKE_COPIES if smoke else COPIES, seed)
    payload = rio.requests_to_bytes([copy.request for copy in fleet], elapsed_days=DAYS)
    yield
    # One round over the first few sites pays lazy initialisation before timing.
    warm = fleet[:3]
    refresh_round(
        Inputs(warm, rio.requests_to_bytes([c.request for c in warm], elapsed_days=DAYS), pools),
        QueryEngine(),
        location_tables(warm),
    )
    return Inputs(fleet=fleet, payload=payload, pools=pools)


def refresh_round(inputs: Inputs, engine, locations):
    """One ``fleet run`` round; returns the report."""
    import repro.io as rio
    from repro.service import FleetReport, ShardConfig, UpdateService

    requests = rio.requests_from_bytes(inputs.payload)
    service = UpdateService()
    reports = service.update_fleet(requests, shards=ShardConfig())
    report = FleetReport(
        elapsed_days=DAYS,
        reports=tuple(reports),
        stacked_sweeps=service.last_stacked_sweeps,
        plan=service.last_plan,
        executor=service.last_executor.name,
        workers=service.last_executor.workers,
        sweeps_saved=service.last_sweeps_saved,
    )
    buffer = io.BytesIO()
    rio.save_report(buffer, report)
    engine.publish_report(report, locations=locations)
    return report


def main(args, run, tracer, ports) -> None:
    from repro.io import report_fingerprint
    from repro.query import QueryEngine

    setup_s, inputs = timed_setup(lambda: build(args.seed, args.smoke))
    run.input_digest = digest_arrays(
        inputs.payload, *[m for _, m in inputs.pools.values()]
    )
    engine = QueryEngine()
    locations = location_tables(inputs.fleet)
    fingerprints = []
    sweeps = []
    last = None

    def one_round(index: int):
        run.attempted += 1
        try:
            return refresh_round(inputs, engine, locations)
        except Exception as exc:  # noqa: BLE001 - counted, reported below
            run.failed += 1
            run.notes.setdefault("first_error", repr(exc))
            return None

    def record(report) -> None:
        nonlocal last
        if report is not None:
            # Only digests are kept, so memory does not grow with the rounds run.
            fingerprints.append(report_fingerprint(report))
            sweeps.append(sum(shard.sweeps for shard in report.plan.shards))
            last = report

    units = closed_loop(args.seconds, one_round, tracer, after=record)
    sites = len(inputs.fleet)
    run.notes["unit_s"] = [u.seconds for u in units]
    run.notes["probes"] = [(u.probe_before, u.probe_after) for u in units]

    run.check("every round ran", run.failed == 0, str(run.notes.get("first_error", "")))
    if last is not None:
        run.check(
            "every round's report is bit-identical to round 1's",
            len(set(fingerprints)) == 1,
        )
        run.check("every round ran the same sweeps", len(set(sweeps)) == 1, str(sweeps))
        refreshed = median_abs_error(
            [report.estimate for report in last.reports], [c.truth for c in inputs.fleet]
        )
        stale = median_abs_error(
            [c.request.baseline.values for c in inputs.fleet], [c.truth for c in inputs.fleet]
        )
        run.check(
            "refreshed fleet beats the stale one",
            refreshed < stale,
            f"refreshed {refreshed:.3f} dB vs stale {stale:.3f} dB",
        )
        run.check(
            "the engine serves every site",
            set(engine.sites) == {c.request.site for c in inputs.fleet},
        )
        points, true_points = [], []
        for c in inputs.fleet:
            truth, measurements = inputs.pools[c.base.name]
            points.append(engine.localize_batch(c.request.site, measurements + c.drift).points)
            true_points.append(c.base.locations[truth])
        run.notes["accuracy"] = {
            "core.update_error_db": refreshed,
            "query.localize_error_m": median_distance(points, true_points),
        }

    if tracer is None:
        round_s = float(np.median([u.normalized for u in units]))
        report_end_to_end(run, setup_s, sites / round_s, round_s * 1e3)
    else:
        traced = [u for u in units if u.traced]
        report_layers(
            run,
            tracer,
            len(traced),
            # Time-weighted, so the layers' shares of trace.unit_s stay exact.
            sum(u.normalized for u in traced) / sum(u.seconds for u in traced),
            {
                **run.notes["accuracy"],
                "trace.overhead_pct": overhead_pct(units),
                "trace.unit_s": float(np.mean([u.normalized for u in traced])),
            },
        )
