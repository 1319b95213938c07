"""The operations of each workload, built from generated plain data.

``build(workload, items)`` turns input items into ``Op`` records.  An
op's ``run`` is exactly the timed work and returns ``(verdict, output)``:
the verdict is the operation's own correctness check (a [Q,R] verdict,
a route agreement, a certificate verdict, a golden-output match), and
``canon(output)`` is the JSON-able form hashed into the output digest.
``expect`` is the verdict the run requires; every generated item expects
true.  ``block`` is the item's block number (see gen.py).
"""

import math
import os
import subprocess
import sys
from collections import namedtuple

import kquant as kq

from gen import QR_WINDOW

Op = namedtuple("Op", "kind block run canon expect")

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
GOLDEN = os.path.join(BENCH, "golden")


def _qr_mixed(item):
    m = kq.LinearModel.from_dict(item["model"])

    def run():
        report = kq.verify_qr(m, QR_WINDOW)
        return report.verdict, report

    return run, lambda report: report.to_dict()


def _vanishing_sets(item):
    m = kq.LinearModel.from_dict(item["model"])

    def run():
        comps = kq.vanishing_decomposition(m)
        shape_ok = all(c.compact and c.mu_diameter == 0 for c in comps)
        # Cauchy-Schwarz: |<mu, xi>| <= |mu| |xi| <= bound |xi|, so each
        # component's own mu value must pass at this bound.
        top = max((sum(x * x for x in c.mu_value) for c in comps), default=0)
        bound = math.isqrt(math.ceil(top)) + 1
        offsets = {c.support: c.mu_value for c in comps}
        return shape_ok and kq.check_compatibility(m, offsets, bound), (comps, bound)

    return run, lambda out: {"components": [c.to_dict() for c in out[0]],
                             "bound": out[1]}


def _routes(k, xis, window, extra=None):
    exact = kq.FormalCharacter.from_weight_polynomial(k.datum, kq.closed_sum(k), window)
    pols = [kq.polarized_index(k, xi, window) for xi in xis]
    ok = all(p.agrees_with(exact) for p in pols)
    if extra is not None:
        ok = ok and exact.agrees_with(extra)
    return ok, [exact] + pols


def _cycles(item):
    kind = item["kind"]
    window = item.get("window")
    if kind in ("routes_T1", "routes_T2"):
        k = kq.DiscreteKCycle.from_dict(item["cycle"])

        def run():
            return _routes(k, item["xis"], window)
    elif kind in ("routes_A1", "routes_A2"):
        ch = item["character"]
        fc = kq.FormalCharacter.from_dict(kq.RootDatum.from_dict(ch["datum"]), ch)

        def run():
            return _routes(kq.p_map(fc), item["xis"], window, extra=fc)
    elif kind.startswith("borel_weil_"):
        datum = kq.build_root_datum(*item["group"])
        gamma = tuple(item["gamma"])

        def run():
            oc = kq.orbit_cycle(datum, gamma)
            closed = kq.closed_index(oc.component, datum)
            return closed == kq.weyl_character(datum, gamma), [closed]
    elif kind.startswith("p_map_"):
        ch = item["character"]
        fc = kq.FormalCharacter.from_dict(kq.RootDatum.from_dict(ch["datum"]), ch)

        def run():
            got = kq.polarized_index(kq.p_map(fc), None, fc.window)
            return got.agrees_with(fc), [got]
    elif kind == "disjoint_union":
        a = kq.DiscreteKCycle.from_dict(item["a"])
        b = kq.DiscreteKCycle.from_dict(item["b"])

        def run():
            _, cert = kq.certify_disjoint_union(a, b, window)
            return cert.verdict, [cert]
    elif kind == "glue_split":
        k = kq.DiscreteKCycle.from_dict(item["cycle"])

        def run():
            _, cert = kq.certify_glue_split(k.components[0][1], [[0], [1]],
                                            k.datum, window)
            return cert.verdict, [cert]
    elif kind == "product":
        shift = item["disk_shift"]
        disk = kq.DiscreteKCycle(kq.build_root_datum("torus", 1), (),
                                 lambda i: (1, kq.f_sphere(i + shift)),
                                 enumeration_bound=item["disk_bound"])
        b = kq.DiscreteKCycle.from_dict(item["b"])

        def run():
            _, cert = kq.certify_product(disk, b, window)
            return cert.verdict, [cert]
    elif kind == "bundle_modification":
        k = kq.DiscreteKCycle.from_dict(item["cycle"])
        fiber = kq.o_sphere(0)

        def run():
            _, cert = kq.bundle_modification(k, fiber, window=window)
            return cert.verdict, [cert]
    else:
        raise ValueError(f"unknown cycles operation {kind!r}")

    def canon(out):
        return [x.to_dict() if hasattr(x, "to_dict") else x.to_list() for x in out]

    return run, canon


def cli_env():
    """Child environment in which ``python -m kquant.cli`` finds this checkout."""
    src = os.path.join(ROOT, "src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


def _cli_demo(item, golden, prefix):
    argv = prefix + item["argv"]
    want = golden[item["kind"]]
    env = cli_env()

    def run():
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True,
                              timeout=60)
        return proc.returncode == 0 and proc.stdout == want, proc.stdout

    return run, lambda out: out.decode("utf-8")


def load_golden():
    out = {}
    for name in os.listdir(GOLDEN):
        with open(os.path.join(GOLDEN, name), "rb") as fh:
            out[name[:-len(".out")]] = fh.read()
    return out


def build(workload, items, cli_prefix=None):
    """Ops for a workload; cli_prefix replaces ``python -m kquant.cli``."""
    if workload == "cli_demo":
        golden = load_golden()
        prefix = cli_prefix or [sys.executable, "-m", "kquant.cli"]
        makers = [_cli_demo(item, golden, prefix) for item in items]
    else:
        maker = {"qr_mixed": _qr_mixed, "cycles": _cycles,
                 "vanishing_sets": _vanishing_sets}[workload]
        makers = [maker(item) for item in items]
    return [Op(item["kind"], item["block"], run, canon, item.get("expect", True))
            for item, (run, canon) in zip(items, makers)]
