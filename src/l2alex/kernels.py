"""The slice kernel: batched log-Mahler measures of one-variable slices.

Given a polynomial sum_t coefs[t] * z^{inner[t]} * (outer phase factor), each
quadrature node i fixes the outer phases and leaves a one-variable polynomial
whose log Mahler measure is log|lead| + sum log(max(1, |root|)) by Jensen's
formula. Degrees 0-2 are handled in closed form; higher degrees go through
batched companion-matrix eigenvalues in numpy. ``KERNEL_BACKEND`` names it.
The slice construction, the grouping by degree and the companion roots are
shared with ``mahler``'s root finding and breakpoint search.
"""

import numpy as np

KERNEL_BACKEND = "python"


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
        logm[sel] = _block_log_mahler(block, d)
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


def _block_log_mahler(block, d):
    """Jensen log-measure for a block of degree-d polynomials (ascending)."""
    if d == 0:
        return np.log(np.abs(block[:, 0]))
    if d == 1:
        return np.log(np.maximum(np.abs(block[:, 1]), np.abs(block[:, 0])))
    if d == 2:
        c0, c1, c2 = block[:, 0], block[:, 1], block[:, 2]
        disc = np.sqrt(c1 * c1 - 4.0 * c2 * c0)
        r1 = (-c1 + disc) / (2.0 * c2)
        r2 = (-c1 - disc) / (2.0 * c2)
        out = np.log(np.abs(c2))
        out += np.maximum(0.0, np.log(np.abs(r1)))
        out += np.maximum(0.0, np.log(np.abs(r2)))
        return out
    eig = companion_roots(block)
    out = np.log(np.abs(block[:, -1]))
    out += np.sum(np.maximum(0.0, np.log(np.abs(eig))), axis=1)
    return out
