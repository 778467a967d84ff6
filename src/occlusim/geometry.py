"""Static records: planar vectors and actor states.

The world is a 2D plan view: x runs along the road in the direction of
travel, y runs across it. Actors are discs (position, velocity, radius).
A run builds one :class:`Vec2`, the stopped transmitter's position; the
AV and the pedestrian are plain floats, and :mod:`occlusim.ttc` takes
their relative state as floats. ``ActorState`` and ``RelativeState`` serve
only :func:`relative_state`, which the package never calls. The records
check no values: the config boundary bounds every speed, step and run
length, so none overflows. No record is a dataclass: its import slows CLI start.
"""

from __future__ import annotations

from collections import namedtuple


class Vec2:
    """A 2D vector in meters (or m/s when used as a velocity)."""

    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float) -> None:
        self.x = x
        self.y = y

    def __eq__(self, other: object) -> bool:
        return (self.x, self.y) == (other.x, other.y) if other.__class__ is Vec2 else NotImplemented

    def __sub__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x - other.x, self.y - other.y)


class ActorState:
    """Position, velocity, and bounding-disc radius of one road user."""

    __slots__ = ("pos", "vel", "radius")

    def __init__(self, pos: Vec2, vel: Vec2, radius: float) -> None:
        self.pos = pos
        self.vel = vel
        self.radius = radius

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not ActorState:
            return NotImplemented
        return all(getattr(self, key) == getattr(other, key) for key in self.__slots__)


RelativeState = namedtuple("RelativeState", "x_rel v_rel r_sum")
RelativeState.__doc__ = """One actor's position and velocity seen from another; the pair
touches exactly when x_rel has norm r_sum, the sum of the disc radii."""


def relative_state(ped: ActorState, av: ActorState) -> RelativeState:
    """Relative position/velocity of *ped* with respect to *av*.

    x_rel = ped.pos - av.pos, v_rel = ped.vel - av.vel,
    r_sum = ped.radius + av.radius.
    """
    return RelativeState(
        x_rel=ped.pos - av.pos,
        v_rel=ped.vel - av.vel,
        r_sum=ped.radius + av.radius,
    )
