"""The benchmark's workloads: generator shape, cache size, the number of
vcover policy seeds replayed per run, and the recorded trace fingerprints.

The trace of a workload comes from its generator seed (`default_seed` unless
the run asks for `held_out_seed`). The benchmark's `--seed` picks the
policies' own seeds instead. vcover's replay time swings several-fold from
one seed to the next on the same shape, so each run replays vcover under a
panel of policy seeds and reports medians over the panel; the trace stays
fixed so that the recorded fingerprint pins exactly what is measured.
See README.md for why each workload exists and which layers it loads.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable

from midcache.workload import GeneratorParams


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    params: Callable[[], GeneratorParams]
    cache_frac: float
    panel: int                       # vcover policy seeds per run
    others_every: int                # replay the other policies every n-th panel seed
    default_seed: int
    held_out_seed: int
    # sha256 of catalog.json + trace.jsonl as written, per generator seed
    fingerprints: dict[int, str] = field(default_factory=dict)


def _hot68() -> GeneratorParams:
    return GeneratorParams(n_queries=5_000, n_updates=5_000)


def _churn532() -> GeneratorParams:
    return dataclasses.replace(GeneratorParams.scaled_hotspots(532),
                               size_max=2_000_000_000, selectivity=0.5,
                               query_hotspot_weight=0.2,
                               n_queries=4_000, n_updates=4_000)


def _write68() -> GeneratorParams:
    base = GeneratorParams()
    return dataclasses.replace(base, update_hotspots=base.query_hotspots,
                               n_queries=2_000, n_updates=8_000)


WORKLOADS = {w.name: w for w in (
    Workload("hot68",
             "generator defaults at cache_frac 0.3: vcover time is the cover engine",
             _hot68, cache_frac=0.3, panel=96, others_every=6, default_seed=1, held_out_seed=4,
             fingerprints={
                 1: "a3139fbe7da0655eeaeb2fc61a2892720989c09e879b0f3682abc013548efe3f",
                 4: "9cbcf34ed4f50b714fb9cce7dc7a6ff1f5ec1cb57ccdef171c46198d62f29ad4"}),
    Workload("churn532",
             "532 fine objects, 5% cache: per-event audits and load churn, cover idle",
             _churn532, cache_frac=0.05, panel=2, others_every=1, default_seed=1, held_out_seed=4,
             fingerprints={
                 1: "3e6c053b72e474c38fd07fa545b9ec36c73e7e2f5e21c5e04492f829f4ed0179",
                 4: "d586b139614521ad7d448d961412f4ca9f60d8beaf19fc9035ebfefb43ed04cc"}),
    Workload("write68",
             "4:1 updates on the queried hotspots: frequent cover prunes and update shipping",
             _write68, cache_frac=0.3, panel=16, others_every=2, default_seed=1, held_out_seed=4,
             fingerprints={
                 1: "4c994c4b26de890bb43deb7ac2a89674765d8ab739e048e14dc774847e6bdf12",
                 4: "7661dc2da62d363068bd8df48eba78d113b835471c99d41e4fac67c7eca39b9a"}),
)}
