"""The slice kernel: batched log-Mahler measures of one-variable slices.

Given a polynomial sum_t coefs[t] * z^{inner[t]} * (outer phase factor), each
quadrature node i fixes the outer phases and leaves a one-variable polynomial
whose log Mahler measure is log|lead| + sum log(max(1, |root|)) by Jensen's
formula. Degrees 0-2 are handled in closed form; higher degrees go through
batched companion-matrix eigenvalues in numpy. ``KERNEL_BACKEND`` names it.
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
    depth = int(inner.max()) + 1 if inner.size else 1

    terms = np.exp(1j * phases) * coefs[None, :]
    incidence = np.zeros((inner.shape[0], depth), dtype=np.complex128)
    incidence[np.arange(inner.shape[0]), inner] = 1.0
    slices = terms @ incidence                       # (m, depth)

    mags = np.abs(slices)
    alive = mags > strip_tol
    zero_mask = ~alive.any(axis=1)
    logm = np.zeros(m, dtype=np.float64)
    live_rows = np.nonzero(~zero_mask)[0]
    if live_rows.size == 0:
        return logm, zero_mask

    lo = np.argmax(alive[live_rows], axis=1)
    hi = depth - 1 - np.argmax(alive[live_rows][:, ::-1], axis=1)
    deg = hi - lo

    for d in np.unique(deg):
        sel = live_rows[deg == d]
        base = lo[deg == d]
        cols = base[:, None] + np.arange(d + 1)[None, :]
        block = slices[sel[:, None], cols]          # (k, d+1), ascending powers
        logm[sel] = _block_log_mahler(block, int(d))
    return logm, zero_mask


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
    monic = block / block[:, -1][:, None]
    k = block.shape[0]
    comp = np.zeros((k, d, d), dtype=np.complex128)
    comp[:, np.arange(1, d), np.arange(d - 1)] = 1.0
    comp[:, :, -1] = -monic[:, :-1]
    eig = np.linalg.eigvals(comp)
    out = np.log(np.abs(block[:, -1]))
    out += np.sum(np.maximum(0.0, np.log(np.abs(eig))), axis=1)
    return out
