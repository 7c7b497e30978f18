"""Discretized population measures and fictitious-play belief averaging.

The population state is a probability histogram over a fixed axis-aligned
rectangle in R^2.  Empirical measures are built by integer counting, so they
are exactly invariant under permutation of the agent list, and the running
fictitious-play average is an exact arithmetic mean of all measures seen so
far.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MASS_TOL = 1e-9


class GridError(ValueError):
    """Raised for malformed grids or mismatched grid shapes."""


@dataclass(frozen=True)
class GridSpec:
    """Geometry of a histogram: bounds and bins per axis."""

    x_min: float = -2.0
    x_max: float = 2.0
    y_min: float = -2.0
    y_max: float = 2.0
    resolution: int = 50

    def __post_init__(self):
        if not (self.x_max > self.x_min and self.y_max > self.y_min):
            raise GridError("invalid grid: degenerate bounds")
        if not (isinstance(self.resolution, (int, np.integer)) and self.resolution >= 1):
            raise GridError("invalid grid: resolution must be an int >= 1, got %r" % (self.resolution,))
        # an infinite bound, or a span or area past the largest float, gives
        # infinite bins, in which density_at reads 0 everywhere
        if not 0.0 < self.bin_area < math.inf:
            raise GridError("invalid grid: bin area %r is not finite and positive" % (self.bin_area,))

    @property
    def bin_width(self) -> float:
        return (self.x_max - self.x_min) / self.resolution

    @property
    def bin_height(self) -> float:
        return (self.y_max - self.y_min) / self.resolution

    @property
    def bin_area(self) -> float:
        return self.bin_width * self.bin_height

    def bin_index(self, points):
        """Map points (n, 2) to (ix, iy) bin indices.

        Out-of-bounds points are clamped to the nearest boundary bin.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        ix = np.floor((pts[:, 0] - self.x_min) / self.bin_width).astype(np.intp)
        iy = np.floor((pts[:, 1] - self.y_min) / self.bin_height).astype(np.intp)
        np.clip(ix, 0, self.resolution - 1, out=ix)
        np.clip(iy, 0, self.resolution - 1, out=iy)
        return ix, iy


@dataclass(frozen=True)
class DensityGrid:
    """Nonnegative per-bin mass summing to one, stored row-major (x slow)."""

    spec: GridSpec
    mass: np.ndarray

    def __post_init__(self):
        mass = np.array(self.mass, dtype=float)
        n = self.spec.resolution
        if mass.shape != (n, n):
            raise GridError("invalid grid: mass shape %r != (%d, %d)" % (mass.shape, n, n))
        if not np.all(np.isfinite(mass)):
            raise GridError("invalid grid: non-finite mass")
        if np.any(mass < 0.0):
            raise GridError("invalid grid: negative mass")
        total = mass.sum()
        if abs(total - 1.0) > MASS_TOL:
            raise GridError("invalid grid: total mass %r != 1" % total)
        mass.setflags(write=False)  # immutable value, safe to share across rollouts
        object.__setattr__(self, "mass", mass)

    @classmethod
    def uniform(cls, spec: GridSpec) -> "DensityGrid":
        n = spec.resolution
        return cls(spec, np.full((n, n), 1.0 / (n * n)))


@dataclass(frozen=True)
class BeliefState:
    """Running fictitious-play average of observed measures.

    ``count`` is the number of updates applied since the initial belief; the
    initial (count=0) average is a placeholder that the first update replaces
    entirely.
    """

    average: DensityGrid
    count: int = 0

    @classmethod
    def initial(cls, spec: GridSpec) -> "BeliefState":
        return cls(DensityGrid.uniform(spec), 0)


def _check_same_shape(a: DensityGrid, b: DensityGrid):
    if a.spec != b.spec:
        raise GridError("grid shape mismatch: %r vs %r" % (a.spec, b.spec))


def build_empirical_measure(positions, template: GridSpec) -> DensityGrid:
    """Bin agent positions into a normalized histogram.

    Each position contributes exactly 1/N to its containing bin; positions
    outside the bounds are clamped to the nearest boundary bin.  Counting is
    integer-exact, so the result is bit-identical under permutation of the
    position list.
    """
    pts = np.asarray(positions, dtype=float)
    if pts.size == 0:
        raise GridError("empty population")
    pts = np.atleast_2d(pts)
    n = template.resolution
    ix, iy = template.bin_index(pts)
    counts = np.bincount(ix * n + iy, minlength=n * n).reshape(n, n)
    return DensityGrid(template, counts / float(pts.shape[0]))


def density_at(grid: DensityGrid, x):
    """Density (mass per unit area) of the bin containing x.

    Accepts a single point (2,) or a batch (n, 2); points outside the bounds
    use the clamped bin.
    """
    ix, iy = grid.spec.bin_index(x)
    dens = grid.mass[ix, iy] / grid.spec.bin_area
    if np.asarray(x).ndim == 1:
        return float(dens[0])
    return dens


def belief_update(belief: BeliefState, measure: DensityGrid, step=None) -> BeliefState:
    """Fold one measure into the belief average.

    ``step=None`` keeps the exact running mean (count*avg + m)/(count+1);
    a step in (0, 1] gives the generalized stochastic-approximation form
    avg + step*(measure - avg).
    """
    _check_same_shape(belief.average, measure)
    avg = belief.average.mass
    if step is None:
        c = belief.count
        new = (c * avg + measure.mass) / (c + 1)
    elif 0.0 < step <= 1.0:
        new = avg + step * (measure.mass - avg)
    else:
        raise ValueError("belief step must be in (0, 1], got %r" % step)
    return BeliefState(DensityGrid(belief.average.spec, new), belief.count + 1)


def grid_distance(a: DensityGrid, b: DensityGrid) -> float:
    """L1 distance between two same-shape grids; ranges over [0, 2]."""
    _check_same_shape(a, b)
    return float(np.abs(a.mass - b.mass).sum())
