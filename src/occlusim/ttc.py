"""Time-to-collision between two constant-velocity discs.

Two discs with relative position X, relative velocity V, and radius sum R
touch at time t when |X + V*t| = R. Expanding gives the quadratic

    (V.V) t^2 + 2 (X.V) t + (X.X - R^2) = 0

``ttc`` turns its roots into a single outcome: ``None`` when no future
contact exists, otherwise the nonnegative time of first contact. ``None``
is the only "no valid TTC" representation inside the package; the
10000-second sentinel used in serialized traces lives in the harness.
"""

from __future__ import annotations

import math

from .geometry import relative_state  # noqa: F401  perfbench/tracer.py times ttc.relative_state

# A time-to-collision is a nonnegative float, or None when the pair is not
# on a collision course.
TtcOutcome = float | None


def ttc(x: float, y: float, vx: float, vy: float, r_sum: float) -> TtcOutcome:
    """Time until two discs first touch, or None, from their relative
    state: one disc's center at X = (x, y) and velocity V = (vx, vy) as
    seen from the other, and the sum R of their radii.

    With a = V.V, b = X.V, c = X.X - R^2 (the factor 2 on the linear term
    divided out) and discriminant d = b^2 - a*c, the roots are
    (-b +- sqrt(d)) / a. Case analysis:

    - zero relative velocity (a == 0): never touches unless already
      overlapping;
    - discs already overlapping or exactly touching (c <= 0): report 0.0,
      the maximal-risk value, rather than the exit time of the ongoing
      contact;
    - d < 0: paths never come within contact range;
    - b >= 0 (separating or at closest approach) with c > 0: both roots
      are nonpositive, contact lies in the past;
    - otherwise both roots are positive and the smaller one is the first
      contact. It is computed as c / (-b + sqrt(d)), which avoids the
      cancellation the direct formula suffers when b^2 >> a*c.
    """
    a = vx * vx + vy * vy
    b = x * vx + y * vy
    c = (x * x + y * y) - r_sum * r_sum
    if a == 0.0:
        return None if c > 0.0 else 0.0
    if c <= 0.0:
        return 0.0
    d = b * b - a * c
    if d < 0.0 or b >= 0.0:
        return None
    return c / (-b + math.sqrt(d))
