"""Exact integer Laurent polynomials as plain dicts, independent of l2alex.

A polynomial is ``{exponent tuple: nonzero int}``; a matrix is a list of rows
of such dicts. The benchmark generates its inputs in this form, converts them
to program objects only when it times them, and checks program outputs
against values computed from this form.
"""


def add(a, b, sign=1):
    out = dict(a)
    for e, c in b.items():
        v = out.get(e, 0) + sign * c
        if v:
            out[e] = v
        else:
            out.pop(e, None)
    return out


def mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def power(a, k, nvars):
    out = {(0,) * nvars: 1}
    for _ in range(k):
        out = mul(out, a)
    return out


def det(matrix, nvars):
    """Exact determinant by Laplace expansion along rows, memoising minors
    by their remaining columns (2^n minors, fine up to 6x6)."""
    n = len(matrix)
    memo = {(): {(0,) * nvars: 1}}

    def minor(cols):
        if cols in memo:
            return memo[cols]
        row = n - len(cols)
        total = {}
        for k, j in enumerate(cols):
            entry = matrix[row][j]
            if not entry:
                continue
            sub = minor(cols[:k] + cols[k + 1:])
            if sub:
                total = add(total, mul(entry, sub), -1 if k % 2 else 1)
        memo[cols] = total
        return total

    return minor(tuple(range(n)))


def spread(p, j):
    es = [e[j] for e in p]
    return max(es) - min(es) if es else 0


def support_union(matrix):
    return {e for row in matrix for entry in row for e in entry}


def to_doc(matrix, nvars, sigma, pairs=()):
    """The CLI's JSON input document for a matrix and a class."""
    doc = {
        "variables": [f"z{j + 1}" for j in range(nvars)],
        "matrix": [[[{"exp": list(e), "re": c, "im": 0}
                     for e, c in sorted(entry.items())]
                    for entry in row] for row in matrix],
        "class": {"sigma": [float(s) for s in sigma]},
    }
    if pairs:
        doc["pairs"] = [[float(a), float(b)] for a, b in pairs]
    return doc
