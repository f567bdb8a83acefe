"""Closed-form values for friendship graphs and corona products.

Everything here is exact integer arithmetic (no floating point): the
distinguishing number of a friendship graph is the least j whose j*(j-1)/2
unordered label pairs cover all triangles, which matches the ceiling-of-
square-root form without ever taking a square root.
"""

from __future__ import annotations

from math import isqrt


class OutOfRangeError(ValueError):
    """Parameter outside the range where the closed form is defined."""


def friendship_distinguishing_number(n: int) -> int:
    """Least number of labels distinguishing the friendship graph with n triangles.

    Computed as the least j with j*(j-1)/2 >= n, entirely in integers: an
    isqrt seed plus exact adjustment, never a floating-point root.
    """
    if n < 2:
        raise OutOfRangeError(f"friendship graphs need n >= 2, got {n}")
    j = max(3, (1 + isqrt(8 * n + 1)) // 2)
    while j * (j - 1) // 2 < n:
        j += 1
    while j > 3 and (j - 1) * (j - 2) // 2 >= n:
        j -= 1
    return j


def friendship_threshold(j: int) -> int:
    """Least n whose friendship graph needs exactly j labels (j >= 3)."""
    if j < 3:
        raise OutOfRangeError(f"threshold defined for j >= 3, got {j}")
    return (j - 1) * (j - 2) // 2 + 1


def friendship_cost(n: int) -> int:
    """Minimum label-class size over optimal distinguishing labelings of the
    friendship graph with n triangles."""
    j = friendship_distinguishing_number(n)
    offset = n - friendship_threshold(j)
    if offset > j - 2:
        # cannot happen: the next threshold starts at offset j - 1
        raise OutOfRangeError(f"offset {offset} outside closed-form range for j={j}")
    return offset + 1


def friendship_determining_number(n: int) -> int:
    """Minimum determining-set size of the friendship graph with n triangles."""
    if n < 2:
        raise OutOfRangeError(f"friendship graphs need n >= 2, got {n}")
    return n


def friendship_gap(n: int) -> int:
    """|determining number - cost| for the friendship graph with n triangles."""
    return abs(friendship_determining_number(n) - friendship_cost(n))


def corona_determining_number(det_g: int, n: int, det_h: int) -> int:
    """The value ``det_g + n * det_h`` that Thm4.1 states for the determining
    number of a corona (both factors connected with order >= 2).

    It is only an upper bound: ``det(P_3 o K_2)`` is 3, not 4, and the true
    value is ``n * det_h`` whenever ``det_h >= 1``.  The ``Thm4.1`` check
    tests this stated value and reports that counterexample."""
    return det_g + n * det_h


def corona_pendant_determining_number(det_g: int) -> int:
    """Determining number of the corona with a single pendant per vertex."""
    return det_g


def corona_cost_bound(cost_g: int, n: int, cost_h: int) -> int:
    """Upper bound on the corona's cost; applies only when the corona's
    distinguishing number equals the larger of the factors'."""
    return cost_g + n * cost_h

