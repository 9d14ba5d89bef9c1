"""Seeded inputs: surveyed sites, tiled fleets, drift and query pools.

Everything the program receives is generated here from the workload seed,
through the library's own simulator and public types, so the same seed
always yields the same inputs.  The default collection depths are the ones
``synthesize_fleet`` uses.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Iterator, List, Sequence

import numpy as np

from repro.environments import environment_by_name
from repro.service import UpdateRequest
from repro.simulation import CampaignConfig, CollectionConfig, SurveyCampaign

ENVIRONMENTS = ("office", "hall", "library")
"""Site types cycled by every workload: the paper's three testbeds."""

DAYS = 45.0
"""The refresh stamp: the paper's 45-day re-survey."""

COLLECTION = CollectionConfig(survey_samples=3, reference_samples=2, online_samples=1)
"""``synthesize_fleet``'s sampling depths."""

SMOKE_SHAPE = {"link_count": 4, "locations_per_link": 4}
"""Deployment size of the smoke mode (seconds instead of minutes)."""

COPY_DRIFT_DB = 1.0
"""Std of the per-link power drift that tells tiled copies of a site apart."""

JOB_DRIFT_DB = 0.3
"""Std of the extra per-link drift between successive daemon refreshes."""


def seeds(seed: int, count: int, stream: int = 0) -> List[int]:
    """``count`` independent integer seeds derived from the workload seed."""
    state = np.random.SeedSequence([seed, stream]).generate_state(count)
    return [int(s) & 0x7FFFFFFF for s in state]


@dataclass
class Site:
    """One surveyed deployment: its refresh request and its ground truth."""

    name: str
    env: str
    campaign: SurveyCampaign
    request: UpdateRequest
    truth: np.ndarray
    locations: np.ndarray


def survey_site(name: str, env: str, site_seed: int, smoke: bool = False) -> Site:
    """The paper's per-site pipeline up to the refresh request.

    Ground-truth surveys at days 0 and 45, MIC/LRR on the day-0 matrix, then
    the cheap re-survey at day 45 (no-decrease entries and MIC columns).
    """
    spec = environment_by_name(env, **(SMOKE_SHAPE if smoke else {}))
    campaign = SurveyCampaign(
        spec,
        CampaignConfig(timestamps_days=(0.0, DAYS), collection=COLLECTION, seed=site_seed),
    )
    truth = campaign.ground_truth(DAYS).values
    pipeline = campaign.make_updater()
    mic, lrr = pipeline.acquire_correlation()
    reference_indices = tuple(int(i) for i in mic.indices)
    observed, mask, reference = campaign.collect_update_inputs(DAYS, reference_indices)
    request = UpdateRequest(
        site=name,
        baseline=pipeline.baseline,
        no_decrease_matrix=observed,
        no_decrease_mask=mask,
        reference_matrix=reference,
        reference_indices=reference_indices,
        config=pipeline.config,
        rng=site_seed,
        correlation=(mic, lrr),
    )
    return Site(
        name=name,
        env=env,
        campaign=campaign,
        request=request,
        truth=truth,
        locations=campaign.deployment.location_array(),
    )


def surveyed_bases(seed: int, smoke: bool = False) -> Iterator[Site]:
    """One surveyed site per environment, each on its own seeded substrate."""
    for k, (env, site_seed) in enumerate(
        zip(ENVIRONMENTS, seeds(seed, len(ENVIRONMENTS), stream=1))
    ):
        yield survey_site(f"{env}-b{k}", env, site_seed, smoke)


@dataclass
class Copy:
    """A tiled copy of a base site with its own drift and solver seed."""

    base: Site
    request: UpdateRequest
    drift: np.ndarray

    @property
    def truth(self) -> np.ndarray:
        return self.base.truth + self.drift[:, None]


def drifted(request: UpdateRequest, drift: np.ndarray, **changes) -> UpdateRequest:
    """The request with a per-link power offset on every fresh measurement."""
    return replace(
        request,
        no_decrease_matrix=request.no_decrease_matrix
        + drift[:, None] * request.no_decrease_mask,
        reference_matrix=request.reference_matrix + drift[:, None],
        **changes,
    )


def tile(bases: Sequence[Site], copies: int, seed: int) -> List[Copy]:
    """``copies`` drifted copies of every base, interleaved by base."""
    rng = np.random.default_rng(seeds(seed, 1, stream=2)[0])
    fleet = []
    for c in range(copies):
        for base in bases:
            drift = rng.normal(0.0, COPY_DRIFT_DB, base.truth.shape[0])
            request = drifted(
                base.request,
                drift,
                site=f"{base.name}-c{c:03d}",
                rng=int(rng.integers(1, 2**31 - 1)),
            )
            fleet.append(Copy(base=base, request=request, drift=drift))
    return fleet


def online_pool(site: Site, count: int, rng: np.random.Generator):
    """``count`` simulated online measurements at random true locations."""
    truth = rng.integers(0, site.truth.shape[1], size=count)
    measurements = site.campaign.online_measurements(truth, DAYS)
    return truth, measurements


def location_tables(fleet: Sequence[Copy]) -> Dict[str, np.ndarray]:
    return {copy.request.site: copy.base.locations for copy in fleet}


def job_copies(fleet: Sequence[Copy], rng: np.random.Generator) -> List[Copy]:
    """The fleet re-surveyed once more: every copy drifts a little further."""
    copies = []
    for copy in fleet:
        drift = copy.drift + rng.normal(0.0, JOB_DRIFT_DB, copy.drift.shape)
        request = drifted(
            copy.base.request, drift, site=copy.request.site, rng=copy.request.rng
        )
        copies.append(Copy(base=copy.base, request=request, drift=drift))
    return copies
