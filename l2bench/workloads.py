"""The workloads: building program objects and running one op.

Each workload is a ``Workload`` with
  * ``inputs(seed)``: the round of plain-data items (see ``inputs.py``);
  * ``build(items, run_dir)``: program objects for the round (this is the
    work ``setup_s`` times, after the import of l2alex);
  * ``op(prepared)``: one timed operation, returning plain data, which
    ``checks.check`` judges.

Ops build fresh program objects (``DetFunction``, ``PresentationTorsion``)
from the prepared matrices and classes, so no cache inside l2alex carries
over from one op, or one round, to the next.
"""

import contextlib
import io
import json
import os
import resource
import subprocess
import sys

import inputs


class Workload:
    name = ""
    # Seconds one round takes on a 2-vCPU VM in its slower phases; only sets
    # how many rounds a run's --seconds buys, so it stays fixed once chosen.
    round_seconds = 1.0

    def inputs(self, seed):
        raise NotImplementedError

    def build(self, items, run_dir):
        raise NotImplementedError

    def op(self, prepared):
        raise NotImplementedError

    def peak_rss_kb(self):
        """Peak RSS of the process that ran the ops."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _matrix(l2, p):
    rows = [[l2.LaurentPoly(p["nvars"], entry) for entry in row]
            for row in p["matrix"]]
    return l2.LaurentMatrix(rows, nvars=p["nvars"])


def _cohom(l2, sigma):
    return l2.CohomClass([float(s) for s in sigma])


def _presentations(items):
    import l2alex as l2
    return [(l2, l2.TorsionSpec(_matrix(l2, p), _cohom(l2, p["sigma"]),
                                p["pairs"]), p)
            for p in items]


def _terms(poly):
    return {e: c.real for e, c in poly.terms.items()}


class Presentations(Workload):
    name = "presentations"
    round_seconds = 0.65
    grid = inputs.geometric(inputs.PRESENTATION_GRID)

    def inputs(self, seed):
        return inputs.presentations(seed)

    def build(self, items, run_dir):
        return _presentations(items)

    def op(self, prepared):
        l2, spec, p = prepared
        tau = l2.torsion_from_presentation(spec)
        report = l2.torsion_degree(tau).to_obj()
        out = {"det": _terms(tau.numerator.det_poly), "degree": report}
        if p["nvars"] == 1:
            out["values"] = [tau.value(t) for t in self.grid]
        return out


class Curves2v(Workload):
    """Torsion curves of 2-variable presentations.

    An op evaluates tau(t) on the grid, the degree report and
    ``mahler_mv_report`` of the determinant (V(1)). Slices have degree
    4-12, so the kernel's companion eigenvalues take most of the op.
    """

    name = "curves2v"
    round_seconds = 6.0
    grid = inputs.geometric(inputs.CURVE_GRID)

    def inputs(self, seed):
        return inputs.curves2v(seed)

    def build(self, items, run_dir):
        return _presentations(items)

    def op(self, prepared):
        l2, spec, _ = prepared
        tau = l2.torsion_from_presentation(spec)
        values = [tau.value(t) for t in self.grid]
        report = l2.torsion_degree(tau).to_obj()
        v1 = l2.mahler_mv_report(tau.numerator.det_poly)
        return {"det": _terms(tau.numerator.det_poly), "values": values,
                "degree": report, "v1": (v1.log_measure, v1.achieved_tol)}


class Cli(Workload):
    """Fresh ``python -m l2alex.cli`` processes, one per op."""

    name = "cli"
    round_seconds = 4.0

    def __init__(self):
        self.child_rss_kb = 0
        self.env = None

    def inputs(self, seed):
        docs, ops = inputs.cli(seed)
        return [{"docs": docs, "argv": argv} for argv in ops]

    def build(self, items, run_dir):
        import l2alex.cli as cli
        os.makedirs(run_dir, exist_ok=True)
        docs = items[0]["docs"]
        for name, p in docs.items():
            text = json.dumps(inputs.document(p))
            cli.parse_input(text)   # the program's share of this set-up
            with open(os.path.join(run_dir, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        self.env = cli_env()
        return [[os.path.join(run_dir, a) if a in docs else a
                 for a in item["argv"]] for item in items]

    def op(self, argv):
        code, stdout, rss_kb = run_cli(argv, self.env)
        self.child_rss_kb = max(self.child_rss_kb, rss_kb)
        return {"code": code, "stdout": stdout}

    def op_in_process(self, argv):
        """The same command through ``cli.main`` (the traced run)."""
        import l2alex.cli as cli
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return {"code": code, "stdout": buf.getvalue().encode()}

    def peak_rss_kb(self):
        return self.child_rss_kb


def cli_env():
    """The environment of a CLI user: l2alex from src/, no L2ALEX_THREADS."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env.pop("L2ALEX_THREADS", None)
    return env


def run_cli(argv, env):
    """Run one CLI command in a fresh interpreter.

    Returns (exit code, stdout bytes, peak RSS of the child in KB). The
    child is reaped with ``os.wait4`` so its own peak RSS is known.
    """
    proc = subprocess.Popen([sys.executable, "-m", "l2alex.cli"] + argv,
                            stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, env=env)
    try:
        stdout = proc.stdout.read()
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, stdout, usage.ru_maxrss


WORKLOADS = {w.name: w for w in (Curves2v(), Presentations(), Cli())}
