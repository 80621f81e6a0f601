"""Spatial primitives: locations, regions, uniform grids, and travel time.

The paper assumes workers move at constant speed in free space, so travel
time is proportional to Euclidean distance (Section II-A, Definition 5).
Distances are in meters, times in minutes throughout the library.

Every distance is ``math.hypot(dx, dy)``: :meth:`Location.distance_to` on
scalars, :func:`hypot_array` on arrays, which reproduces ``math.hypot``
bit for bit (``np.hypot`` does not: it differs by 1 ulp on ~0.6% of
inputs), so the object path and the packed kernels see the same floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["Location", "Region", "Grid", "euclidean", "travel_time",
           "hypot_array", "DEFAULT_SPEED"]

#: Worker movement speed from the paper's experimental setup (Section V-B):
#: 60 meters per minute.
DEFAULT_SPEED = 60.0

#: Veltkamp's splitting constant, ``2**27 + 1``.
_T27 = 134217729.0

#: Added to ``2 * h`` before the correction's division: exact (no change)
#: on every lane with a nonzero leg, where ``2 * h >= 1``, and it makes
#: two zero legs give ``0 / 2**-1000 == 0`` instead of ``0 / 0``.
_TINY = 2.0 ** -1000


def _add(csum, frac, x):
    """``csum += x``, its rounding error added to ``frac`` (Neumaier;
    ``|csum| >= |x|`` always holds here)."""
    total = csum + x
    return total, frac + ((csum - total) + x)


def _sub(csum, frac, x):
    """:func:`_add` of ``-x``: ``a + (-x) == a - x`` exactly."""
    total = csum - x
    return total, frac + ((csum - total) - x)


def hypot_array(dx, dy) -> np.ndarray:
    """Elementwise ``math.hypot(dx, dy)``, bitwise equal on every input.

    A numpy transcription of the two-argument case of CPython's
    ``vector_norm`` (``Modules/mathmodule.c``, as in 3.11): both
    legs are scaled by the larger leg's binary exponent (a power of two,
    so losslessly), squared exactly through a Veltkamp split into 26-bit
    halves, and summed with compensation onto 1.0; one ``sqrt`` is then
    refined by one differential correction.  Every step is a correctly
    rounded IEEE operation in the interpreter's order, so each lane yields
    exactly the interpreter's float; the only rewrites are exact ones
    (``2.0 * hi`` as ``hi + hi``, adding a negated product as a
    subtraction).  When the larger leg is below ``2**-1024`` (where the
    scale would overflow) both legs are divided by it instead, as the
    interpreter does.  An infinite leg gives ``inf`` (even beside a NaN),
    a NaN leg ``nan`` and two zero legs ``0.0``.
    ``tests/core/test_hypot.py`` holds the kernel to ``math.hypot``, so an
    interpreter whose algorithm differs fails there.

    ``dx`` and ``dy`` are float arrays of one shape.  A call costs ~60
    numpy operations whatever its size, so the kernel pays off over
    blocks of hundreds of elements; callers batch.
    """
    ax = np.abs(dx)
    ay = np.abs(dy)
    m = np.maximum(ax, ay)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        e = np.frexp(m)[1]
        scale = np.ldexp(1.0, -e)
        csum, frac = 1.0, 0.0
        for leg in (ax, ay):
            x = leg * scale
            t = x * _T27
            hi = t - (t - x)
            lo = x - hi
            csum, frac = _add(csum, frac, hi * hi)
            csum, frac = _add(csum, frac, (hi + hi) * lo)
            frac = frac + lo * lo
        h = np.sqrt(csum - 1.0 + frac)
        t = h * _T27
        hi = t - (t - h)
        lo = h - hi
        csum, frac = _sub(csum, frac, hi * hi)
        csum, frac = _sub(csum, frac, (hi + hi) * lo)
        csum, frac = _sub(csum, frac, lo * lo)
        h = (h + (csum - 1.0 + frac) / (h + h + _TINY)) / scale
        if np.isnan(h).any():
            # Subnormal-only, infinite and NaN legs (every other lane is
            # finite; a subnormal scale overflows to inf).
            tiny = e < -1023
            csum, frac = 1.0, 0.0
            for leg in (ax, ay):
                x = leg / m
                csum, frac = _add(csum, frac, x * x)
            h = np.where(tiny, m * np.sqrt(csum - 1.0 + frac), h)
            h = np.where(np.isinf(ax) | np.isinf(ay), np.inf, h)
    return h


@dataclass(frozen=True, slots=True)
class Location:
    """A point in the plane, coordinates in meters."""

    x: float
    y: float

    def distance_to(self, other: "Location") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)

    def travel_time_to(self, other: "Location", speed: float = DEFAULT_SPEED) -> float:
        """Minutes to reach ``other`` at constant ``speed`` (m/min)."""
        return self.distance_to(other) / speed

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y])


def euclidean(a: Location, b: Location) -> float:
    """Euclidean distance between two locations, in meters."""
    return a.distance_to(b)


def travel_time(a: Location, b: Location, speed: float = DEFAULT_SPEED) -> float:
    """Travel time between two locations in minutes at ``speed`` m/min."""
    return a.travel_time_to(b, speed=speed)


@dataclass(frozen=True, slots=True)
class Region:
    """An axis-aligned rectangular region of interest, origin at (0, 0)."""

    width: float
    height: float

    def contains(self, location: Location) -> bool:
        return 0.0 <= location.x <= self.width and 0.0 <= location.y <= self.height

    def clamp(self, location: Location) -> Location:
        return Location(
            min(max(location.x, 0.0), self.width),
            min(max(location.y, 0.0), self.height),
        )

    @property
    def area(self) -> float:
        return self.width * self.height


@dataclass(frozen=True, slots=True)
class Grid:
    """A uniform ``nx x ny`` partition of a :class:`Region`.

    Cell indices are ``(i, j)`` with ``i`` along x in ``[0, nx)`` and ``j``
    along y in ``[0, ny)``.  The paper partitions Delivery into 10x12 and
    Tourism/LaDe into 10x10 grids (Section V-B).
    """

    region: Region
    nx: int
    ny: int

    def __post_init__(self):
        if self.nx <= 0 or self.ny <= 0:
            raise ValueError(f"grid dimensions must be positive, got {self.nx}x{self.ny}")

    @property
    def num_cells(self) -> int:
        return self.nx * self.ny

    @property
    def cell_width(self) -> float:
        return self.region.width / self.nx

    @property
    def cell_height(self) -> float:
        return self.region.height / self.ny

    def cell_of(self, location: Location) -> tuple[int, int]:
        """Return the ``(i, j)`` cell containing ``location`` (clamped)."""
        i = min(int(location.x / self.cell_width), self.nx - 1)
        j = min(int(location.y / self.cell_height), self.ny - 1)
        return max(i, 0), max(j, 0)

    def cell_index(self, location: Location) -> int:
        """Flat row-major index of the cell containing ``location``."""
        i, j = self.cell_of(location)
        return i * self.ny + j

    def cell_center(self, i: int, j: int) -> Location:
        """Center of cell ``(i, j)``."""
        if not (0 <= i < self.nx and 0 <= j < self.ny):
            raise IndexError(f"cell ({i}, {j}) outside {self.nx}x{self.ny} grid")
        return Location((i + 0.5) * self.cell_width, (j + 0.5) * self.cell_height)

    def all_cells(self) -> list[tuple[int, int]]:
        return [(i, j) for i in range(self.nx) for j in range(self.ny)]

    def coarsen(self, factor: int = 2) -> "Grid":
        """Return a grid with both dimensions divided by ``factor`` (min 1).

        Used to build the spatial pyramid for the hierarchical entropy.
        """
        return Grid(self.region, max(1, self.nx // factor), max(1, self.ny // factor))
