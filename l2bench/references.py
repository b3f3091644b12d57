#!/usr/bin/env python3
"""Recompute the benchmark's fixed reference values without l2alex.

    python3 l2bench/references.py           # rewrite references.json
    python3 l2bench/references.py --check   # exit 1 if the file differs

Values:
  * v3 = Cl_2(pi/3), the volume of the regular ideal tetrahedron
  * for each fixed repeated-factor presentation: sympy factors its exact
    determinant and confirms every factor is z or cyclotomic, so every
    root lies on the unit circle and log V(t) = log|D| + n log c
    + deg * max(0, log c) with c = t^sigma (Kronecker, Jensen).
Seed-dependent inputs are checked at run time instead (see checks.py).
"""

import json
import os
import sys

import mpmath
import sympy

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from checks import REFERENCES  # noqa: E402
from inputs import repeated_factor_presentations  # noqa: E402
from polys import det  # noqa: E402


def compute():
    mpmath.mp.dps = 30
    out = {
        "v3": float(mpmath.clsin(2, mpmath.pi / 3)),
        "repeated_factor": {},
    }
    z = sympy.Symbol("z")
    for p in repeated_factor_presentations():
        d = {e[0]: c for e, c in det(p["matrix"], 1).items()}
        lo, hi = min(d), max(d)
        poly = sympy.Poly(sum(c * z ** (k - lo) for k, c in d.items()), z)
        lead, factors = poly.factor_list()
        for f, _ in factors:
            if not (f.is_cyclotomic or f == sympy.Poly(z, z)):
                raise ValueError(f"{p['label']}: factor {f} is not cyclotomic")
        out["repeated_factor"][p["label"]] = {
            "lead": abs(int(d[hi])), "low": lo, "degree": hi - lo,
            "factors": [[str(f.as_expr()), m] for f, m in factors]}
    return out


def main(argv):
    data = compute()
    text = json.dumps(data, indent=1, sort_keys=True) + "\n"
    if "--check" in argv:
        with open(REFERENCES, encoding="utf-8") as fh:
            if fh.read() != text:
                print("references.json differs from a fresh computation")
                return 1
        print("references.json matches")
        return 0
    with open(REFERENCES, "w", encoding="utf-8") as fh:
        fh.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
