"""Seeded inputs for the workloads, as plain data (stdlib only).

Each workload's round is a fixed base set, drawn once from
``random.Random(f"{workload}:base")``, which the run's ``--seed`` disguises
by symmetries that change the inputs but not the work:

  * every variable x_j -> +-x_j^(+-1), with sigma_j negated alongside an
    inversion so that V(t) is unchanged;
  * every matrix row multiplied by a monomial, which multiplies the
    determinant by a monomial.

Mahler measures are invariant under these maps, and the work is too: the
adaptive quadrature starts from 16 equal panels beginning at angle 0, a
partition that x -> -x (a shift by pi) and x -> 1/x (a reflection) map to
itself, and Laurent arithmetic sees the same term counts. So seeds vary the
inputs, and what the checks compare, without varying the cost, and the
spread between runs measures the machine rather than the draw. The same
seed gives the same inputs on every machine. The fixed repeated-factor
presentations are not disguised. The inputs carry no l2alex objects:
``workloads.py`` builds those.
"""

import random
from fractions import Fraction

from polys import det, power, spread, to_doc

CURVE_GRID = (0.25, 4.0, 8)
PRESENTATION_GRID = (0.25, 4.0, 17)

_COEFFS = (-3, -2, -1, 1, 2, 3)


def geometric(spec):
    """The CLI's lo:hi:n grid, lo * (hi/lo)^(k/(n-1))."""
    lo, hi, n = spec
    return [lo * (hi / lo) ** (k / (n - 1)) for k in range(n)]


def rng_for(workload, seed):
    return random.Random(f"{workload}:{seed}")


def _poly(rng, nvars, box, nterms, must=()):
    p = {}
    for e in must:
        p[e] = rng.choice(_COEFFS)
    while len(p) < nterms:
        e = tuple(rng.randint(0, b) for b in box)
        p.setdefault(e, rng.choice(_COEFFS))
    return p


def _fraction(rng, nums, dens=(1, 2, 3)):
    return Fraction(rng.choice(nums), rng.choice(dens))


def _variable_map(rng, nvars):
    """(sign, exponent) per variable: x_j -> sign * x_j^exponent."""
    return tuple((rng.choice((1, -1)), rng.choice((1, -1)))
                 for _ in range(nvars))


def _map_poly(p, vmap, shift):
    out = {}
    for exp, c in p.items():
        for x, (sign, _) in zip(exp, vmap):
            if sign < 0 and x % 2:
                c = -c
        out[tuple(inv * x + d for x, (_, inv), d in zip(exp, vmap, shift))] = c
    return out


def _shift(rng, nvars):
    return tuple(rng.randint(-1, 1) for _ in range(nvars))


def disguise(p, rng):
    """A presentation under a seeded symmetry (see the module docstring)."""
    nvars = p["nvars"]
    vmap = _variable_map(rng, nvars)
    matrix = []
    for row in p["matrix"]:
        shift = _shift(rng, nvars)
        matrix.append([_map_poly(e, vmap, shift) if e else {} for e in row])
    sigma = tuple(s * inv for s, (_, inv) in zip(p["sigma"], vmap))
    return dict(p, matrix=matrix, sigma=sigma)


def _pairs(rng, k):
    return tuple((rng.randint(-1, 2), rng.randint(-1, 2)) for _ in range(k))


def presentation(matrix, nvars, sigma, pairs, label, known_fault=None):
    return {"matrix": matrix, "nvars": nvars, "sigma": tuple(sigma),
            "pairs": tuple(pairs), "label": label, "known_fault": known_fault}


# -- curves2v ---------------------------------------------------------------

def _curve_presentation(rng, n, label):
    """2-variable n x n presentation whose determinant has y-spread 4..12.

    y is the variable of largest spread, so it is the Jensen (slice)
    variable and slices have degree 4..12.
    """
    dy_range = {1: (4, 12), 2: (2, 6), 3: (2, 3)}[n]
    while True:
        dy = rng.randint(*dy_range)
        matrix = []
        for i in range(n):
            row = []
            for j in range(n):
                if i == j:
                    entry = _poly(rng, 2, (1, dy), rng.randint(3, 5),
                                  must=((0, 0), (rng.randint(0, 1), dy)))
                elif rng.random() < 0.6:
                    entry = _poly(rng, 2, (1, dy), rng.randint(1, 3))
                else:
                    entry = {}
                row.append(entry)
            matrix.append(row)
        d = det(matrix, 2)
        if d and 4 <= spread(d, 1) <= 12 and spread(d, 0) < spread(d, 1):
            break
    sigma = (_fraction(rng, (1, 2, 3)), _fraction(rng, (-2, -1, 1, 2)))
    return presentation(matrix, 2, sigma, _pairs(rng, rng.randint(1, 2)), label)


def curves2v(seed):
    base, rng = rng_for("curves2v", "base"), rng_for("curves2v", seed)
    return [disguise(_curve_presentation(base, n, f"curve{k}-{n}x{n}"), rng)
            for k, n in enumerate((1, 2, 3) * 4)]


# -- presentations ----------------------------------------------------------

def _sparse_matrix(rng, n, nvars, box, density, nterms):
    while True:
        matrix = []
        for i in range(n):
            row = []
            for j in range(n):
                if i == j or rng.random() < density:
                    row.append(_poly(rng, nvars, box, rng.randint(*nterms)))
                else:
                    row.append({})
            matrix.append(row)
        d = det(matrix, nvars)
        if d and max(spread(d, j) for j in range(nvars)) >= 4:
            return matrix


def repeated_factor_presentations():
    """Fixed 1-variable presentations whose determinants have repeated
    cyclotomic factors; their measures are exactly 1 (Kronecker)."""
    zm1 = {(1,): 1, (0,): -1}
    phi3 = {(0,): 1, (1,): 1, (2,): 1}
    zero = {}
    return [
        presentation([[power(zm1, 6, 1)]], 1, (1,), (), "(z-1)^6",
                     known_fault="repeated-factor"),
        presentation([[power(phi3, 3, 1)]], 1, (1,), (), "(1+z+z^2)^3",
                     known_fault="repeated-factor"),
        presentation([[power(zm1, 3, 1), zero], [zero, power(zm1, 3, 1)]],
                     1, (1,), (), "diag((z-1)^3,(z-1)^3)",
                     known_fault="repeated-factor"),
    ]


def presentations(seed):
    base, rng = rng_for("presentations", "base"), rng_for("presentations", seed)
    out = []
    for k in range(4):
        for n in (5, 6):
            m = _sparse_matrix(base, n, 1, (4,), 0.8, (3, 5))
            sigma = (_fraction(base, (-2, -1, 1, 2, 3)),)
            out.append(presentation(m, 1, sigma, _pairs(base, 2),
                                    f"pres1v{k}-{n}x{n}"))
        for n, box, density, nterms in ((4, (2, 3), 0.9, (3, 6)),
                                        (5, (2, 2), 0.8, (3, 5))):
            m = _sparse_matrix(base, n, 2, box, density, nterms)
            sigma = (_fraction(base, (1, 2, 3)),
                     _fraction(base, (-2, -1, 1, 2)))
            out.append(presentation(m, 2, sigma, _pairs(base, 2),
                                    f"pres2v{k}-{n}x{n}"))
    return [disguise(p, rng) for p in out] + repeated_factor_presentations()


# -- cli ----------------------------------------------------------------------

def _phi(rng):
    """A class in the plane phi_0 + phi_1 + phi_2 = 0, sometimes with a zero."""
    a = rng.choice((-3, -2, -1, 1, 2, 3)) / rng.choice((1, 2, 4))
    b = rng.choice((0.0, -a, rng.choice((-2, -1, 1, 2)) / rng.choice((1, 2))))
    return (a, b, -a - b)


def cli(seed):
    """Documents and argument lists, one fresh CLI process per op."""
    base, rng = rng_for("cli", "base"), rng_for("cli", seed)
    one = presentation(_sparse_matrix(base, 3, 1, (2,), 0.5, (1, 3)), 1,
                       (_fraction(base, (1, 2, 3)),), _pairs(base, 1), "doc1v")
    while True:
        two = _curve_presentation(base, 2, "doc2v")
        if spread(det(two["matrix"], 2), 1) <= 6:
            break
    docs = {"doc1v.json": disguise(one, rng), "doc2v.json": disguise(two, rng)}
    ops = []
    for name, grid in (("doc1v.json", "0.25:4:9"), ("doc2v.json", "0.5:2:5")):
        ops += [["eval", "--input", name, "--t-grid", grid],
                ["torsion", "--input", name, "--t-grid", grid],
                ["degree", "--input", name],
                ["convexity", "--input", name, "--grid", grid],
                ["mahler", "--input", name]]
    phi = _phi(rng)
    # "--phi=" form: a leading negative coordinate would read as an option
    ops.append(["scenario", "section9",
                "--phi=" + ",".join(f"{x:g}" for x in phi)])
    ops.append(["scenario", "section9", "--sweep", "12"])
    return docs, ops


def document(p):
    return to_doc(p["matrix"], p["nvars"], p["sigma"], p["pairs"])
