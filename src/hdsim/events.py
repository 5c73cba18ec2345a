"""Guard-crossing localization on a bracketing time interval.

Guards are exposed as signed margins: negative means "not triggered",
zero or positive means "triggered".  The crossing is located by Illinois
false position (Dowell & Jarratt, BIT 11, 1971) on the sign-change
bracket: it needs no derivatives, and on a smooth margin it converges
superlinearly where bisection halves the bracket once per probe.  Two
safeguards bound its worst case at three probes per halving.  Brent's
tolerance nudge (Algorithms for Minimization without Derivatives, 1973)
keeps every probe at least ``LOCATE_TOL/2`` inside the bracket, so an
estimate that has converged from one side closes the bracket with one
more probe.  A bisection step follows any two probes in a row that each
failed to halve the bracket.  A few regula-falsi refinements afterwards
land exactly on the root for margins that are linear in time (switching
schedules, ramp profiles), which keeps lifted switched systems
bit-comparable with direct piecewise integration.
"""

from __future__ import annotations

from typing import Callable, Optional

from .errors import ArgumentError

LOCATE_TOL = 1e-9
"""Bracket width (seconds) below which a crossing counts as localized."""

_POLISH_ITERS = 8


def locate_event(margin: Callable, t_lo: float, t_hi: float) -> Optional[float]:
    """Locate the first time in ``[t_lo, t_hi]`` where ``margin`` reaches zero.

    ``margin`` is called once per probe time, and each value is reused for
    the rest of the search, so it must be deterministic and free of side
    effects.  The search makes at most three probes per halving of the
    bracket, besides its two ends and the polish.

    Parameters
    ----------
    margin : callable
        Signed guard margin as a function of time, ``margin(t)``.  A guard
        on the state composes with an interpolant first, as
        :func:`hdsim.simulate.next_event` does.
    t_lo, t_hi : float
        Bracket endpoints, ``t_hi > t_lo``.

    Returns
    -------
    float or None
        The crossing time, within ``LOCATE_TOL``, or ``None`` when the
        margin does not change sign on the bracket.  If the margin is
        already non-negative at ``t_lo``, returns ``t_lo``.
    """
    if t_hi <= t_lo:
        raise ArgumentError(f"t_hi must exceed t_lo (got [{t_lo}, {t_hi}])")

    def m(t: float) -> float:
        return float(margin(t))

    m_lo = m(t_lo)
    if m_lo >= 0.0:
        return t_lo
    m_hi = m(t_hi)
    if m_hi < 0.0:
        return None

    lo, hi = t_lo, t_hi
    # The secant runs through the stored weights f_lo and f_hi: the margins
    # at the bracket ends, with the one at an end kept twice in a row halved
    # (the Illinois step), so that end's side cannot stall the convergence.
    f_lo, f_hi = m_lo, m_hi
    moved = 0  # +1 when the last probe moved hi, -1 when it moved lo
    slow = 0  # probes in a row that failed to halve the bracket
    while hi - lo > LOCATE_TOL:
        width = hi - lo
        denom = f_hi - f_lo
        bisect = slow >= 2 or not denom > 0.0  # NaN weights give no secant
        t = 0.5 * (lo + hi) if bisect else lo - f_lo * width / denom
        # The nudge; this order sends a NaN estimate, from an infinite
        # margin, to lo + LOCATE_TOL/2.
        t = max(lo + 0.5 * LOCATE_TOL, min(t, hi - 0.5 * LOCATE_TOL))
        if not lo < t < hi:
            break
        m_t = m(t)
        if m_t >= 0.0:
            hi, m_hi, f_hi = t, m_t, m_t
            if moved > 0:
                f_lo *= 0.5
            moved = 1
        else:
            lo, m_lo, f_lo = t, m_t, m_t
            if moved < 0:
                f_hi *= 0.5
            moved = -1
        slow = 0 if bisect or hi - lo <= 0.5 * width else slow + 1

    # Regula-falsi polish: exact for margins linear in t, and tightens
    # smooth crossings well below `LOCATE_TOL` without leaving the bracket.
    # m_hi >= 0 > m_lo (or m_lo is NaN), so the denominator is positive or
    # NaN, and a NaN t_star fails the range check.
    for _ in range(_POLISH_ITERS):
        t_star = lo - m_lo * (hi - lo) / (m_hi - m_lo)
        if not lo < t_star < hi:
            break
        m_star = m(t_star)
        if m_star >= 0.0:
            hi, m_hi = t_star, m_star
        else:
            lo, m_lo = t_star, m_star
    return hi
