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

Warm starts: the rows of a batch come in groups of GL_ORDER consecutive
nodes, one group per quadrature panel. The first row of each group in a
degree block starts from points on a circle; the others start from its
roots, which lie close to theirs, since the nodes are neighbours and no
root crosses |z| = 1 inside a panel that lies between toric points. A row's
roots therefore depend on its group, and agree with those of the row alone
to the iteration's accuracy rather than bitwise; a given batch always gives
bit-identical results.

The slice construction, the grouping by degree and the companion roots are
shared with ``mahler``'s root finding and breakpoint search: a single
polynomial takes ``companion_roots``, a batch of slices this iteration.
"""

import numpy as np

from .quadrature import GL_ORDER

KERNEL_BACKEND = "python"

_ABERTH_CAP = 60          # iterations before a row falls back to eigenvalues
_ABERTH_RTOL = 1e-14      # a root stops once its correction is this relative
_START_ANGLE = 0.4        # turns the cold starts off conjugate symmetry
_UNIT_ROUNDOFF = 2.0 ** -53   # of float64


def batch_log_mahler(coefs, inner, phases, strip_tol):
    """Log Mahler measures of slice polynomials at a batch of nodes.

    Parameters
    ----------
    coefs : complex128[T]
        Term coefficients (outer scale already folded in; max magnitude ~1).
    inner : int64[T]
        Inner-variable exponent of each term, shifted to 0..D.
    phases : float64[m, T]
        Outer phase <theta_i, v_outer> per node and term.
    strip_tol : float
        Absolute threshold below which a slice coefficient counts as zero.

    Returns
    -------
    logm : float64[m]  (entries for all-zero slices are 0 and flagged)
    zero_mask : bool[m]
    """
    coefs = np.ascontiguousarray(coefs, dtype=np.complex128)
    inner = np.ascontiguousarray(inner, dtype=np.int64)
    phases = np.ascontiguousarray(phases, dtype=np.float64)
    m = phases.shape[0]
    slices = slice_coefficients(coefs, inner, phases)

    alive = np.abs(slices) > strip_tol
    zero_mask = ~alive.any(axis=1)
    logm = np.zeros(m, dtype=np.float64)
    for sel, block, d in degree_blocks(slices, alive):
        logm[sel] = _block_log_mahler(block, d, sel)
    return logm, zero_mask


def degree_blocks(slices, alive):
    """Group the rows of slices (ascending coefficients) by degree, once
    the coefficients that are not ``alive`` are stripped from both ends.
    Rows with no live coefficient are left out. Yields (rows, block, d),
    with block the (len(rows), d+1) stripped coefficients."""
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
    # the first row of each group of GL_ORDER batch rows starts cold, the
    # others from its roots
    group = rows // GL_ORDER
    first = np.ones(len(rows), dtype=bool)
    first[1:] = group[1:] != group[:-1]
    leader = np.flatnonzero(first)[np.cumsum(first) - 1]
    rts = np.empty((block.shape[0], d), dtype=np.complex128)
    rts[first] = _aberth_roots(block[first])
    if not first.all():
        rts[~first] = _aberth_roots(block[~first], rts[leader[~first]])
    out = np.log(np.abs(block[:, -1]))
    out += np.sum(np.maximum(0.0, np.log(np.abs(rts))), axis=1)
    return out


def _aberth_roots(block, start=None):
    """(k, d) roots of k degree-d polynomials (rows of ascending
    coefficients, d >= 1, nonzero first and last ones) by a lockstep
    Aberth-Ehrlich iteration.

    start holds (k, d) distinct starting points; by default they lie on the
    circle of radius |c_0/c_d|^(1/d), the geometric mean of the root moduli.
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
    if start is None:
        radius = (mag[:, 0] / mag[:, -1]) ** (1.0 / d)
        angles = 2.0 * np.pi * np.arange(d) / d + _START_ANGLE
        z = radius[:, None] * np.exp(1j * angles)[None, :]
    else:
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
