"""Static records: planar vectors and actor states.

The world is a 2D plan view: x runs along the road in the direction of
travel, y runs across it. Actors are discs (position, velocity, radius).
The stopped transmitter is the one actor kept as a record, built once per
run; the moving AV and pedestrian are plain floats in the world state, and
:mod:`occlusim.ttc` takes their relative state as floats. Nothing in the
package calls :func:`relative_state` any more. The records check no
values: the config boundary bounds every speed, step and run length, so
none overflows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class Vec2:
    """A 2D vector in meters (or m/s when used as a velocity)."""

    x: float
    y: float

    def __add__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x - other.x, self.y - other.y)

    def scaled(self, k: float) -> "Vec2":
        return Vec2(self.x * k, self.y * k)

    def dot(self, other: "Vec2") -> float:
        return self.x * other.x + self.y * other.y

    def norm_sq(self) -> float:
        return self.x * self.x + self.y * self.y

    def norm(self) -> float:
        return math.hypot(self.x, self.y)


@dataclass(frozen=True, slots=True)
class ActorState:
    """Position, velocity, and bounding-disc radius of one road user."""

    pos: Vec2
    vel: Vec2
    radius: float


@dataclass(frozen=True, slots=True)
class RelativeState:
    """Pairwise state: position/velocity of one actor seen from another.

    r_sum is the sum of the two disc radii; the pair touches exactly when
    the relative position has norm r_sum.
    """

    x_rel: Vec2
    v_rel: Vec2
    r_sum: float


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
