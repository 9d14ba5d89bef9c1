"""Workload ``survey``: the paper's per-site pipeline, one site after another.

Closed loop over sites cycling office / hall / library, each on its own
seeded substrate: ground-truth surveys at days 0 and 45, MIC/LRR, the cheap
day-45 re-survey, ``UpdateService.update_fleet``, ``publish_report`` with
the deployment's location table, then ``localize_batch`` on simulated
online measurements at seeded test locations.  The RF simulator does most
of the work here and nowhere else.
"""

from __future__ import annotations

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
from inputs import DAYS, ENVIRONMENTS, seeds, survey_site
from trace import report_layers

TEST_QUERIES = 48
"""Online test measurements per site."""

SCORED_SITES = 8 * len(ENVIRONMENTS)
"""The accuracy figures cover the first eight cycles, whatever the host
speed.  Per-site errors vary 0.6-4 dB with the substrate."""

MAX_SITES = 3000
"""Seeds drawn up front; far more sites than any run surveys."""


def run_site(service, engine, name: str, env: str, site_seed: int, smoke: bool):
    """Survey, refresh, publish and serve one site; return what to score."""
    from repro.service import FleetReport

    site = survey_site(name, env, site_seed, smoke)
    reports = service.update_fleet([site.request])
    engine.publish_report(
        FleetReport(elapsed_days=DAYS, reports=tuple(reports)),
        locations={name: site.locations},
    )
    truth_indices = site.campaign.sample_test_locations(TEST_QUERIES)
    measurements = site.campaign.online_measurements(truth_indices, DAYS)
    answer = engine.localize_batch(name, measurements)
    return {
        "estimate": reports[0].estimate,
        "stale": site.request.baseline.values,
        "truth": site.truth,
        "answer": answer,
        "true_points": site.locations[truth_indices],
    }


def main(args, run, tracer, ports) -> None:
    from repro.query import QueryEngine
    from repro.service import UpdateService

    site_seeds = seeds(args.seed, MAX_SITES)
    plan = [
        (f"{ENVIRONMENTS[i % len(ENVIRONMENTS)]}-{i:04d}", ENVIRONMENTS[i % len(ENVIRONMENTS)], s)
        for i, s in enumerate(site_seeds)
    ]
    run.input_digest = digest_arrays(np.asarray(site_seeds), args.smoke)

    warmup_seed = seeds(args.seed, 1, stream=3)[0]

    def warm_up():
        # Pays lazy imports and first-call costs of every layer before timing.
        run_site(UpdateService(), QueryEngine(), "warmup", "office", warmup_seed, args.smoke)
        yield

    setup_s, _ = timed_setup(warm_up)

    service = UpdateService()
    engine = QueryEngine()
    scored = []

    def one_site(index: int) -> None:
        name, env, site_seed = plan[index]
        run.attempted += 1
        try:
            outcome = run_site(service, engine, name, env, site_seed, args.smoke)
        except Exception as exc:  # noqa: BLE001 - counted, reported below
            run.failed += 1
            run.notes.setdefault("first_error", f"{name}: {exc!r}")
            return
        if len(scored) < SCORED_SITES:
            scored.append(outcome)

    units = closed_loop(
        args.seconds,
        one_site,
        tracer,
        min_units=SCORED_SITES,
        granule=len(ENVIRONMENTS),
    )
    run.notes["unit_s"] = [u.seconds for u in units]
    run.notes["probes"] = [(u.probe_before, u.probe_after) for u in units]

    refreshed = median_abs_error([o["estimate"] for o in scored], [o["truth"] for o in scored])
    stale = median_abs_error([o["stale"] for o in scored], [o["truth"] for o in scored])
    accuracy = {
        "core.update_error_db": refreshed,
        "query.localize_error_m": median_distance(
            [o["answer"].points for o in scored], [o["true_points"] for o in scored]
        ),
    }
    run.notes["accuracy"] = accuracy
    run.check("every site ran", run.failed == 0, str(run.notes.get("first_error", "")))
    run.check(
        "refreshed database beats the stale one",
        refreshed < stale,
        f"refreshed {refreshed:.3f} dB vs stale {stale:.3f} dB",
    )
    run.check(
        "every query answered",
        all(len(o["answer"].indices) == len(o["true_points"]) for o in scored),
    )

    if tracer is None:
        # Each testbed's sites at their median time; a site's latency is
        # their mean, so the mix of testbeds a run ends on does not move it.
        site_s = float(
            np.mean(
                [
                    np.median([u.normalized for u in units[k :: len(ENVIRONMENTS)]])
                    for k in range(len(ENVIRONMENTS))
                ]
            )
        )
        report_end_to_end(run, setup_s, 1.0 / site_s, site_s * 1e3)
    else:
        traced = [u for u in units if u.traced]
        report_layers(
            run,
            tracer,
            len(traced),
            # Time-weighted, so the layers' shares of trace.unit_s stay exact.
            sum(u.normalized for u in traced) / sum(u.seconds for u in traced),
            {
                **accuracy,
                "trace.overhead_pct": overhead_pct(units),
                "trace.unit_s": float(np.mean([u.normalized for u in traced])),
            },
        )
