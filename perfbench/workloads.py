"""Workload grids: which (case id, M, catalog seed, q) points a run checks.

Benchmark seed s maps to catalog seeds k*s .. k*s+k-1, where k is the
workload's seeds per run, except for the (M, q) pairs listed in ``fixed``:
their points use catalog seeds 0 .. k-1 at every benchmark seed.  Seed 0 of
``catalog`` is exactly ``qhyper verify --ids all`` (225 checks).

``catalog`` fixes M = 2 and 3.  The cost of one M = 3 draw is heavy-tailed
(qal.solutions took 1.6 to 9.9 s over catalog seeds 0..29), and redrawing
all 225 points moved the grid's time, median check and 95th-percentile check
by 0.21, 0.13 and 0.28 of their medians from seed to seed (quartile distance
over ten grids), on top of the host's drift, while a bound may be at most
0.25.  With them fixed these spreads are 0.01, 0.05 and 0, and the seed still
redraws the 99 points at M = 1.  The other workloads redraw every point: they
are where failures of other draws show, such as degene.series_limit at M = 2
(catalog seeds 129, 311, 323, 335, 441 at q = 0.5) and the q = 0.7 failures.

Why these three (measured at the commit that added the benchmark):

- catalog: every case at M = 1..3, q = 0.5.  The headline user command;
  shell sums at M = 3 take about 80% of its time.
- lattice: the cases built on Jackson lattice sums and operator residuals, at
  q = 0.5 and 0.7.  Series does almost no work here; at q = 0.7 lattices and
  products are longer.
- series_small: short series at M = 1, 2 (about 29 and 190 terms on
  average), where fixed cost per call dominates.  An engine that wins on the
  deep sums of catalog but builds tables per call shows up here.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    ids: tuple  # case ids; empty means every case in the catalog
    Ms: tuple
    seeds_per_run: int
    qs: tuple
    fixed: tuple = ()  # (M, q) pairs drawn from the same catalog seeds at every seed


WORKLOADS = {
    "catalog": Workload(ids=(), Ms=(1, 2, 3), seeds_per_run=3, qs=(0.5,),
                        fixed=((2, 0.5), (3, 0.5))),
    "lattice": Workload(
        ids=("bailey.integral", "phi.cocycle", "phi.closed_form", "EM.constant",
             "EM.annihilate", "qrp.system", "qrp.independence", "degene.system",
             "degene.integral_limit", "degene.implies_qal"),
        Ms=(1, 2, 3), seeds_per_run=10, qs=(0.5, 0.7),
    ),
    "series_small": Workload(
        ids=("heine.m1", "w87.lambda", "bailey.two_4phi3", "kajihara.transform",
             "kajihara.WM3", "mp1phim.jackson", "mp1phim.euler", "qal.andrews",
             "degene.solutions", "degene.series_limit", "thm31.series", "qal.phiD"),
        Ms=(1, 2), seeds_per_run=60, qs=(0.5,),
    ),
}


def make_grid(workload, seed, cases):
    """Grid points in `qhyper verify` order (id, M, seed) within each q.

    cases maps case id to an object with an M_range (the catalog).
    """
    k = workload.seeds_per_run
    ids = sorted(workload.ids or cases)
    grid = []
    for q in workload.qs:
        for cid in ids:
            for M in workload.Ms:
                if M in cases[cid].M_range:
                    first = 0 if (M, q) in workload.fixed else k * seed
                    grid += [(cid, M, s, q) for s in range(first, first + k)]
    return grid
