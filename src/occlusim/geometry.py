"""The planar vector, the one record a run builds: the stopped
transmitter's position, in a plan view where x runs along the road in the
direction of travel and y across it. The AV and the pedestrian are plain
floats, and :mod:`occlusim.ttc` takes their relative state as floats.
``Vec2`` is not a dataclass: that import slows CLI start.
"""

from __future__ import annotations


class Vec2:
    """A 2D vector in meters."""

    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float) -> None:
        self.x = x
        self.y = y
