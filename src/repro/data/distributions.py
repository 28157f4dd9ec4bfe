"""Spatial point distributions for the synthetic data generators.

The TIGER data is heavily skewed — most features cluster around population
centres (the paper's Figure 2 motivation: "most of the tuples are in the top
left corner").  We model that with a Gaussian-mixture-over-centres plus a
uniform background, all driven by a seeded ``numpy`` generator so datasets
are fully deterministic.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..geometry import Rect


@dataclass(frozen=True)
class Cluster:
    cx: float
    cy: float
    sigma: float
    weight: float


class ClusteredDistribution:
    """Mixture of Gaussian clusters with a uniform background component."""

    def __init__(
        self,
        universe: Rect,
        clusters: List[Cluster],
        background_weight: float = 0.1,
    ):
        if not clusters:
            raise ValueError("need at least one cluster")
        if not 0.0 <= background_weight < 1.0:
            raise ValueError("background weight must be in [0, 1)")
        self.universe = universe
        self.clusters = clusters
        self.background_weight = background_weight
        total = sum(c.weight for c in clusters)
        cdf = np.array([c.weight / total for c in clusters]).cumsum()
        self._cdf = (cdf / cdf[-1]).tolist()
        """What ``Generator.choice(p=)`` searches, ``side="right"``."""

    @staticmethod
    def synthesize(
        universe: Rect,
        num_clusters: int,
        rng: np.random.Generator,
        background_weight: float = 0.1,
    ) -> "ClusteredDistribution":
        """Random centres with Zipf-ish weights (one dominant metro area)."""
        clusters = []
        for rank in range(num_clusters):
            cx = rng.uniform(universe.xl, universe.xu)
            cy = rng.uniform(universe.yl, universe.yu)
            sigma = rng.uniform(0.02, 0.06) * min(universe.width, universe.height)
            weight = 1.0 / (rank + 1)
            clusters.append(Cluster(cx, cy, sigma, weight))
        return ClusteredDistribution(universe, clusters, background_weight)

    def sample_point(self, rng: np.random.Generator) -> Tuple[float, float]:
        """One point of the mixture.  Every draw is numpy's own formula
        for ``uniform`` / ``choice(p=)`` / ``normal`` on ``random()`` and
        ``standard_normal()`` — the same stream without the call overhead."""
        u, random = self.universe, rng.random
        if random() < self.background_weight:
            return (
                u.xl + (u.xu - u.xl) * random(),
                u.yl + (u.yu - u.yl) * random(),
            )
        c = self.clusters[bisect_right(self._cdf, random())]
        x = c.cx + c.sigma * rng.standard_normal()
        y = c.cy + c.sigma * rng.standard_normal()
        return (
            u.xl if x < u.xl else u.xu if x > u.xu else x,
            u.yl if y < u.yl else u.yu if y > u.yu else y,
        )
