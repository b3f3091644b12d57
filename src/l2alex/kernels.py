"""The slice kernel: batched log-Mahler measures of one-variable slices.

Given a polynomial sum_t coefs[t] * z^{inner[t]} * (outer phase factor), each
quadrature node i fixes the outer phases and leaves a one-variable polynomial
whose log Mahler measure is log|lead| + sum log(max(1, |root|)) by Jensen's
formula. Degrees 0 and 1 are handled in closed form. Every higher degree
gets its roots from a lockstep Aberth-Ehrlich iteration in numpy (Aberth,
"Iteration methods for finding all zeros of a polynomial simultaneously",
1973), which advances every row of a degree block at once and stops each
root by the rule of Bini's MPSolve ("Numerical computation of polynomial
zeros by means of Aberth's method", 1996); rows still running at the
iteration cap fall back to companion-matrix eigenvalues.
``KERNEL_BACKEND`` names the kernel.

Warm starts: the rows of a batch come in groups of PANEL_NODES (15)
consecutive nodes, one group per Gauss-Kronrod panel of the quadrature, in
ascending order. One batched ``companion_roots`` call gives the roots of
each group's middle row in a degree block, and every row of the block
starts from its group's, in a single lockstep pass: the nodes of a panel
are neighbours, and no root crosses |z| = 1 inside a panel that lies
between toric points. A row's roots therefore depend on its group, and
agree with those of the row alone to the iteration's accuracy rather than
bitwise; a given batch always gives bit-identical results.

Vanished slices: callers scale the coefficients to at most 1, and slice
coefficients of magnitude at most _STRIP_TOL (1e-13) are stripped from
both ends as zeros; a slice left with none raises DegenerateSliceError.

The slice construction, the grouping by degree and the companion roots are
shared with ``mahler``'s root finding and breakpoint search: a single
polynomial takes ``companion_roots``, a batch of slices this iteration.
"""

import numpy as np

from .errors import DegenerateSliceError
from .quadrature import PANEL_NODES

KERNEL_BACKEND = "python"
_STRIP_TOL = 1e-13        # a slice coefficient this small counts as zero
_ABERTH_CAP = 60          # iterations before a row falls back to eigenvalues
_ABERTH_RTOL = 1e-14      # a root stops once its correction is this relative
_UNIT_ROUNDOFF = 2.0 ** -53   # of float64


def batch_log_mahler(coefs, inner, phases):
    """Log Mahler measures of slice polynomials at a batch of nodes.

    Parameters
    ----------
    coefs : complex128[T]
        Term coefficients (outer scale already folded in; max magnitude ~1).
    inner : int64[T]
        Inner-variable exponent of each term, shifted to 0..D.
    phases : float64[m, T]
        Outer phase <theta_i, v_outer> per node and term.

    Returns
    -------
    logm : float64[m]

    Raises DegenerateSliceError if some slice vanishes: every one of its
    coefficients is at most _STRIP_TOL in magnitude.
    """
    coefs = np.ascontiguousarray(coefs, dtype=np.complex128)
    inner = np.ascontiguousarray(inner, dtype=np.int64)
    phases = np.ascontiguousarray(phases, dtype=np.float64)
    logm = np.empty(phases.shape[0], dtype=np.float64)
    filled = 0
    for sel, block, d in degree_blocks(
            slice_coefficients(coefs, inner, phases)):
        logm[sel] = _block_log_mahler(block, d, sel)
        filled += sel.size
    if filled < logm.size:
        raise DegenerateSliceError(
            "a one-variable slice of a nonzero polynomial vanished at a "
            "quadrature node")
    return logm


def degree_blocks(slices):
    """Group the rows of slices (ascending coefficients) by degree, once
    the coefficients of magnitude at most _STRIP_TOL are stripped from both
    ends. Rows with no larger coefficient are left out. Yields (rows,
    block, d), with block the (len(rows), d+1) stripped coefficients."""
    alive = np.abs(slices) > _STRIP_TOL
    depth = slices.shape[1]
    live_rows = np.nonzero(alive.any(axis=1))[0]
    lo = np.argmax(alive[live_rows], axis=1)
    hi = depth - 1 - np.argmax(alive[live_rows][:, ::-1], axis=1)
    deg = hi - lo
    for d in np.unique(deg):
        sel = live_rows[deg == d]
        base = lo[deg == d]
        cols = base[:, None] + np.arange(d + 1)[None, :]
        yield sel, slices[sel[:, None], cols], int(d)


def companion_roots(block):
    """(k, d) roots of k degree-d polynomials (rows of ascending
    coefficients, d >= 1, nonzero leading ones) from companion-matrix
    eigenvalues."""
    k, d = block.shape[0], block.shape[1] - 1
    monic = block / block[:, -1][:, None]
    comp = np.zeros((k, d, d), dtype=np.complex128)
    comp[:, np.arange(1, d), np.arange(d - 1)] = 1.0
    comp[:, :, -1] = -monic[:, :-1]
    return np.linalg.eigvals(comp)


def slice_coefficients(coefs, inner, phases):
    """(m, D+1) coefficients, ascending in the inner variable, of the slice
    polynomials sum_t coefs[t] e^{i phases[i, t]} z^{inner[t]}."""
    depth = int(inner.max()) + 1 if inner.size else 1
    terms = np.exp(1j * phases) * coefs[None, :]
    incidence = np.zeros((inner.shape[0], depth), dtype=np.complex128)
    incidence[np.arange(inner.shape[0]), inner] = 1.0
    return terms @ incidence


def _block_log_mahler(block, d, rows):
    """Jensen log-measure for a block of degree-d polynomials (ascending),
    the slices at batch rows ``rows``."""
    if d == 0:
        return np.log(np.abs(block[:, 0]))
    if d == 1:
        return np.log(np.maximum(np.abs(block[:, 1]), np.abs(block[:, 0])))
    # every row of a group of PANEL_NODES batch rows starts from the
    # eigenvalues of the group's middle row
    group = rows // PANEL_NODES
    starts = np.flatnonzero(np.diff(group, prepend=-1))
    counts = np.diff(starts, append=len(rows))
    seeds = companion_roots(block[starts + counts // 2])
    rts = _aberth_roots(block, np.repeat(seeds, counts, axis=0))
    out = np.log(np.abs(block[:, -1]))
    out += np.sum(np.maximum(0.0, np.log(np.abs(rts))), axis=1)
    return out


def _aberth_roots(block, start):
    """(k, d) roots of k degree-d polynomials (rows of ascending
    coefficients, d >= 1, nonzero first and last ones) by a lockstep
    Aberth-Ehrlich iteration from the (k, d) starting points ``start``.

    Each step evaluates p and p' at every root of every running row in one
    batched product of the powers z^0..z^d with the coefficients, and moves
    z by p / (p' - p S), S the sum of 1/(z - z_j) over the row's other
    roots. A root stops after a step whose correction is at most
    _ABERTH_RTOL (1 + |z|), or which started from |p(z)| <= (4d+1) u p~(|z|),
    p~ being the polynomial of |coefficients| and u the unit roundoff: p(z)
    is then at the level of its own rounding, where a root cluster stops at
    its attainable accuracy. A row leaves the iteration once all its roots
    stopped; rows still running after _ABERTH_CAP steps get
    ``companion_roots``. Non-finite steps (coincident points, p' = p S)
    never stop a root, so such rows reach the cap.
    """
    k, d = block.shape[0], block.shape[1] - 1
    # coefficients of p and p' against z^0..z^d, and the MPSolve bound on
    # the rounding of p, all indexed by power first
    coef = np.zeros((2, d + 1, k, 1), dtype=np.complex128)
    coef[0, :, :, 0] = block.T
    coef[1, :-1, :, 0] = (block[:, 1:] * np.arange(1, d + 1)).T
    mag = np.abs(block)
    z = np.array(start, dtype=np.complex128)
    bound = ((4 * d + 1) * _UNIT_ROUNDOFF * mag.T)[:, :, None]
    powers = np.empty((d + 1, k, d), dtype=np.complex128)
    powers[0] = 1.0
    # z_i - z_j off the diagonal; the diagonal stays inf, so 1/diff is 0
    diff = np.full((k, d, d), np.inf, dtype=np.complex128)
    recip = np.empty((k, d, d), dtype=np.complex128)
    off = ~np.eye(d, dtype=bool)
    stopped = np.zeros((k, d), dtype=bool)
    rows = np.arange(k)
    roots = np.empty((k, d), dtype=np.complex128)
    with np.errstate(all="ignore"):
        for _ in range(_ABERTH_CAP):
            n = rows.size
            pw = powers[:, :n]
            pw[1] = z
            for j in range(2, d + 1):
                np.multiply(pw[j - 1], z, out=pw[j])
            p, dp = (coef * pw).sum(axis=1)
            settled = np.abs(p) <= (bound * np.abs(pw)).sum(axis=0)
            np.subtract(z[:, :, None], z[:, None, :], out=diff[:n], where=off)
            s = np.divide(1.0, diff[:n], out=recip[:n]).sum(axis=2)
            corr = p / (dp - p * s)
            np.subtract(z, corr, out=z, where=~stopped)
            small = np.abs(corr) <= _ABERTH_RTOL * (1.0 + np.abs(z))
            stopped |= settled | small
            done = stopped.all(axis=1)
            if done.any():
                roots[rows[done]] = z[done]
                keep = ~done
                rows, z, stopped = rows[keep], z[keep], stopped[keep]
                coef, bound = coef[:, :, keep], bound[:, keep]
                if not rows.size:
                    return roots
    roots[rows] = companion_roots(block[rows])
    return roots
