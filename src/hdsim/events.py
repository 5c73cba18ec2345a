"""Guard-crossing localization on a bracketing time interval.

Guards are exposed as signed margins: negative means "not triggered",
zero or positive means "triggered".  Bisection on the margin needs no
derivatives and converges unconditionally inside a sign-change bracket.
A few regula-falsi refinements afterwards land exactly on the root for
margins that are linear in time (switching schedules, ramp profiles),
which keeps lifted switched systems bit-comparable with direct
piecewise integration.
"""

from __future__ import annotations

from typing import Callable, Optional

from .errors import ArgumentError

LOCATE_TOL = 1e-9
"""Bracket width (seconds) below which a crossing counts as localized."""

_POLISH_ITERS = 8


def locate_event(
    margin: Callable,
    t_lo: float,
    t_hi: float,
    interpolant: Optional[Callable] = None,
    tol: float = LOCATE_TOL,
) -> Optional[float]:
    """Locate the first time in ``[t_lo, t_hi]`` where ``margin`` reaches zero.

    ``margin`` (and ``interpolant``) is called once per probe time, and
    each value is reused for the rest of the search, so both must be
    deterministic and free of side effects.

    Parameters
    ----------
    margin : callable
        Signed guard margin.  Called as ``margin(t)``, or as
        ``margin(interpolant(t), t)`` when ``interpolant`` is given.
    t_lo, t_hi : float
        Bracket endpoints, ``t_hi > t_lo``.
    interpolant : callable, optional
        Maps a query time to the state at that time (e.g. a partial RK4
        step from the last accepted sample).
    tol : float
        Final bracket width in seconds.

    Returns
    -------
    float or None
        The crossing time, or ``None`` when the margin does not change
        sign on the bracket.  If the margin is already non-negative at
        ``t_lo``, returns ``t_lo``.
    """
    if t_hi <= t_lo:
        raise ArgumentError(f"t_hi must exceed t_lo (got [{t_lo}, {t_hi}])")

    def m(t: float) -> float:
        if interpolant is None:
            return float(margin(t))
        return float(margin(interpolant(t), t))

    m_lo = m(t_lo)
    if m_lo >= 0.0:
        return t_lo
    m_hi = m(t_hi)
    if m_hi < 0.0:
        return None

    lo, hi = t_lo, t_hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        m_mid = m(mid)
        if m_mid >= 0.0:
            hi, m_hi = mid, m_mid
        else:
            lo, m_lo = mid, m_mid

    # Regula-falsi polish: exact for margins linear in t, and tightens
    # smooth crossings well below `tol` without leaving the bracket.
    for _ in range(_POLISH_ITERS):
        denom = m_hi - m_lo
        if denom <= 0.0:
            break
        t_star = lo - m_lo * (hi - lo) / denom
        if not lo < t_star < hi:
            break
        m_star = m(t_star)
        if m_star >= 0.0:
            if t_star == hi:
                break
            hi, m_hi = t_star, m_star
        else:
            if t_star == lo:
                break
            lo, m_lo = t_star, m_star
    return hi
