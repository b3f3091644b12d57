"""Adaptive Gauss-Kronrod quadrature on the circle, batched and deterministic.

The integrands here are means of log-magnitude functions over [0, 2pi): they
are piecewise smooth, with corners where a slice root crosses the unit circle
and integrable log singularities where the polynomial vanishes on the torus.
Uniform panel refinement converges only like h^2 across such points, so the
integrator bisects panels adaptively instead. Each panel is evaluated once,
by QUADPACK's 15-point Gauss-Kronrod rule (Piessens et al., *QUADPACK*,
1983, ``qk15``): the Kronrod sum K15 is the panel's value, and its embedded
7-point Gauss sum G7, over every other node, gives the error estimate
|K15 - G7|. Every sweep bisects all panels whose estimate exceeds an
equidistributed share of the target, at 15 new nodes per half. Smooth
panels converge at the rule's full order; corner and singularity panels
shrink geometrically around the bad point.

Breakpoints: a caller that knows where the corners are passes them as
breaks=, and the 8 starting panels are split there (as QUADPACK's QAGP
does), so every corner sits on a panel edge. Between breaks the integrand is
smooth and the rule converges at its full speed; a corner inside a panel is
seen only by nodes that happen to fall near it, and a narrow feature
between two close corners can fall between all of them while both sums
agree. A break within _BREAK_GAP of an edge adds no panel.

Symmetry: a caller whose integrand is even, f(-t) = f(t), passes even=True
and only [0, pi) is swept. This is the case for the slice log-measures of a
polynomial with real coefficients: the slice at -t is the complex conjugate
of the slice at t and has the same root moduli. The half sweep starts from
the first 4 of the 8 full-circle panels, and both its error sum and its
target are half the full-circle ones, so it refines exactly the panels of
[0, pi) that the full sweep would, at half the nodes. Breaks fold into
[0, pi] by t -> 2pi - t, which is where the corners of an even integrand
at t and -t both land.

Rounding: the reported error is at least ROUNDOFF_FLOOR times
max(1, mean |f|) (see ``adaptive_circle_mean``), since smooth panels drive
the embedded estimate below the rounding of the integrand itself.

Determinism: panels stay in left-endpoint order, with each sweep's halves,
evaluated in one batch in that order, spliced in place of their parents;
so sums run in that order, and a given tolerance and budget always produce
bit-identical results.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import QuadratureBudgetError
from .twist import check_tol

# QUADPACK qk15 on [-1, 1]: the Kronrod abscissae and weights from x = 1 down
# to the centre; the 7 Gauss nodes are every other one, from the second on.
_XGK = (0.991455371120812639206854697526329,
        0.949107912342758524526189684047851,
        0.864864423359769072789712788640926,
        0.741531185599394439863864773280788,
        0.586087235467691130294144845693013,
        0.405845151377397166906606412076961,
        0.207784955007898467600689403773245,
        0.0)
_WGK = (0.022935322010529224963732008058970,
        0.063092092629978553290700663189204,
        0.104790010322250183839876322541518,
        0.140653259715525918745189590510238,
        0.169004726639267902826583426598550,
        0.190350578064785409913256402421014,
        0.204432940075298892414161999234649,
        0.209482141084727828012999174891714)
_WG = (0.129484966168869693270611432679082,
       0.279705391489276667901467771423780,
       0.381830050505118944950369775488975,
       0.417959183673469387755102040816327)

PANEL_NODES = 2 * len(_XGK) - 1
# nodes in ascending order; columns: Kronrod weights, Gauss weights
_NODES = np.array([-x for x in _XGK[:-1]] + list(_XGK[::-1]))
_WEIGHTS = np.zeros((PANEL_NODES, 2))
_WEIGHTS[:, 0] = _WGK[:-1] + _WGK[::-1]
_WEIGHTS[1::2, 1] = _WG[:-1] + _WG[::-1]
TWO_PI = 2.0 * np.pi

DEFAULT_NODE_BUDGET = 2_000_000
ROUNDOFF_FLOOR = 2.0 ** -40
_INITIAL_PANELS = 8
_MIN_WIDTH = TWO_PI * 2.0 ** -52
_BREAK_GAP = 1e-9


class NodeBudget:
    """Mutable evaluation budget shared across nested integrals;
    ValueError unless max_evals is an integer >= 1."""

    def __init__(self, max_evals: int = DEFAULT_NODE_BUDGET):
        if not (isinstance(max_evals, numbers.Integral) and max_evals >= 1):
            raise ValueError(f"max_evals must be an integer >= 1, "
                             f"got {max_evals!r}")
        self.limit = max_evals
        self.used = 0

    def charge(self, n: int) -> None:
        """Count n more evaluations, or raise QuadratureBudgetError past the
        limit, with a nan estimate that the charging integral replaces."""
        if self.used + n > self.limit:
            raise QuadratureBudgetError(
                f"quadrature node budget exhausted ({self.limit} evaluations)",
                math.nan, math.inf)
        self.used += n


def _gk_batch(f, lefts, widths):
    """(K15, |K15 - G7|) of f over each panel [left, left+width).

    One batched call to f evaluates all panels' nodes at once, the
    PANEL_NODES nodes of panel i in ascending order at rows PANEL_NODES*i
    onwards; per-panel sums run in node order. The slice kernel starts
    every row of such a group from the roots of the group's middle row, so
    the same nodes batched in other groups agree to the kernel's rounding,
    not bitwise. A given batch always gives bit-identical results.
    """
    half = 0.5 * widths
    nodes = lefts[:, None] + half[:, None] * (_NODES[None, :] + 1.0)
    sums = f(nodes.reshape(-1)).reshape(nodes.shape) @ _WEIGHTS
    return half * sums[:, 0], np.abs(half * (sums[:, 0] - sums[:, 1]))


def _initial_panels(span, n_init, breaks, even):
    """(lefts, widths) of the n_init equal panels of [0, span), split at
    the breaks (angles mod 2pi, folded into [0, pi] when even). A break
    within _BREAK_GAP of an edge already kept adds no panel."""
    lefts = span * np.arange(n_init) / n_init
    if len(breaks) == 0:
        return lefts, np.full(n_init, span / n_init)
    folded = np.mod(np.asarray(breaks, dtype=np.float64), TWO_PI)
    if even:
        folded = np.where(folded > np.pi, TWO_PI - folded, folded)
    edges = [0.0]
    for x in np.sort(np.concatenate([lefts[1:], folded])):
        if x - edges[-1] > _BREAK_GAP and span - x > _BREAK_GAP:
            edges.append(float(x))
    edges.append(span)
    edges = np.array(edges)
    return edges[:-1], np.diff(edges)


def adaptive_circle_mean(f, tol, budget: NodeBudget | None = None,
                         even: bool = False, breaks=()):
    """Mean of f over [0, 2pi) to absolute tolerance ~tol.

    f maps a 1-D array of angles to a 1-D array of values and may be called
    with large batches. With even=True, f must satisfy f(-t) = f(t), and only
    [0, pi) is integrated. breaks are angles (any real, read mod 2pi) at
    which the starting panels are split. Returns (mean, achieved_tol,
    n_evals). Raises ValueError unless tol is positive and finite
    (``check_tol``), and QuadratureBudgetError if the node budget runs out
    first, also when it runs out inside f (a nested integral), or if the
    panels left to split are at the minimum width; the error carries this
    level's mean and achieved error from its last completed sweep, or nan
    and inf before the first sweep completes.

    achieved_tol is at least ROUNDOFF_FLOOR * max(1, mean |f|), with
    ROUNDOFF_FLOOR = 2^-40 (9.1e-13). The embedded estimate compares
    quadratures of the same computed values, so it cannot see their
    rounding. The slice kernel's log-measures (Aberth roots of
    coefficients scaled to at most 1) were off by at most 4.6e-15 absolute
    against 30-digit slice roots (mpmath) at 1332 nodes: 16 random nodes
    and nodes 1e-7 either side of each crossing, for the twelve l2bench
    curves2v determinants of seed 1 (slice degrees 4-11) twisted at
    t = 0.25, 0.5, 1, 2 and 4, both in one batch (warm starts) and one node
    per call; companion eigenvalues were off by up to 1.2e-13 at the same
    nodes. The ordered sum over a few hundred panels adds under 1e-13
    relative. The floor is 9 times the worse of the two, and scales with
    the integrand where its magnitude exceeds 1.
    """
    check_tol(tol)
    if budget is None:
        budget = NodeBudget()
    span = np.pi if even else TWO_PI
    tol_total = max(tol, 1e-15) * span
    value, err_sum = math.nan, math.inf    # until the first sweep completes

    def gk_batch(lefts, widths):
        try:
            budget.charge(len(lefts) * PANEL_NODES)
            return _gk_batch(f, lefts, widths)
        except QuadratureBudgetError as exc:   # here or in a nested integral
            exc.best_estimate, exc.achieved_tol = value / span, err_sum / span
            raise

    lefts, widths = _initial_panels(
        span, _INITIAL_PANELS // 2 if even else _INITIAL_PANELS, breaks, even)
    start_used = budget.used
    # panel records (left, width, K15, |K15 - G7|), kept in left order
    panels = list(zip(lefts, widths, *gk_batch(lefts, widths)))

    while True:
        value = err_sum = mag = 0.0
        for rec in panels:
            value += rec[2]
            err_sum += rec[3]
            mag += abs(rec[2])
        if err_sum <= tol_total:
            floor = ROUNDOFF_FLOOR * max(1.0, mag / span)
            return (value / span, max(err_sum / span, floor),
                    budget.used - start_used)

        threshold = tol_total / len(panels)
        split = [rec[3] > threshold and rec[1] > _MIN_WIDTH for rec in panels]
        if not any(split):
            # the error sum exceeds tol_total, so some panel exceeds its
            # share, and each one that does is at the minimum width
            raise QuadratureBudgetError(
                "panels at minimum width before reaching tolerance",
                value / span, err_sum / span)
        cut = [rec for rec, s in zip(panels, split) if s]

        h_widths = np.repeat([rec[1] / 2 for rec in cut], 2)
        h_lefts = np.repeat([rec[0] for rec in cut], 2)
        h_lefts[1::2] += h_widths[1::2]
        halves = iter(zip(h_lefts, h_widths, *gk_batch(h_lefts, h_widths)))
        pairs = zip(halves, halves)    # (left half, right half) per panel
        panels = [half for rec, s in zip(panels, split)
                  for half in (next(pairs) if s else (rec,))]


def geometric_grid(lo: float, hi: float, n: int) -> list[float]:
    """n points lo * (hi/lo)^(k/(n-1)), k = 0..n-1, all finite."""
    if n < 1 or lo <= 0 or hi <= 0 or (n > 1 and hi <= lo):
        raise ValueError("need 0 < lo < hi and n >= 1")
    if n == 1:
        if not math.isfinite(lo):
            raise ValueError(f"lo = {lo} is not a finite float")
        return [float(lo)]
    ratio = hi / lo
    if not math.isfinite(ratio):
        raise ValueError(f"hi/lo = {ratio} is not a finite float")
    return [lo * ratio ** (k / (n - 1)) for k in range(n)]
