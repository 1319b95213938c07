"""Batch command line front end.

Verbs: index, quantize, reduce, verify-qr, orbit, moves, vanishing.
Input is a UTF-8 JSON file per verb schema; output goes to stdout and
is byte-stable for fixed inputs.  Exit status 0 on success, 2 on a
verification failure (a false certificate verdict or a [Q,R] mismatch),
1 on malformed input or any engine error, which is reported as a
machine-readable {"error": ..., "detail": ...} object.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .characters import decompose
from .errors import EngineError
from .linear_models import (LinearModel, farkas_vector, model_cycle,
                            reduction_multiplicity, vanishing_decomposition,
                            verify_qr)
from .localization import (ClosedComponent, DiscreteKCycle, closed_index,
                           closed_sum, polarized_index)
from .moves import (bundle_modification, certify_disjoint_union,
                    certify_disk_decomposition, certify_glue_split,
                    certify_product, compare_cycles)
from .orbits import orbit_cycle
from .root_data import as_int, build_root_datum


class CLIError(Exception):
    """Bad flags or malformed input; mapped to exit status 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CLIError(message)


def _parse_vector(text):
    try:
        return tuple(Fraction(part) for part in text.split(","))
    except (ValueError, ZeroDivisionError) as exc:
        raise CLIError(f"bad vector {text!r}: {exc}")


def _parse_int_vector(text):
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise CLIError(f"bad integer vector {text!r}: {exc}")


def _load(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _dump(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def _terms_table(rows, head=()):
    lines = ["\t".join(str(x) for x in h) for h in head]
    lines += [f"{row['weight']}\t{row['mult']}" for row in rows]
    return "\n".join(lines) if lines else "(zero)"


# ----------------------------------------------------------------- verbs
# each returns (status, json_view, table_view); main builds only the view
# it prints

def _window_views(fc):
    """The JSON and table views of a window-truncated character."""
    def table():
        d = fc.to_dict()
        return _terms_table(d["terms"], head=[("window", d["window"])])
    return fc.to_dict, table


def _run_index(args):
    k = DiscreteKCycle.from_dict(_load(args.input))
    if args.window is None:
        if args.polarization is not None:
            raise CLIError("index takes --polarization only with --window")
        terms = closed_sum(k).to_list()
        return 0, lambda: {"terms": terms}, lambda: _terms_table(terms)
    return (0, *_window_views(polarized_index(k, args.polarization, args.window)))


def _run_quantize(args):
    m = LinearModel.from_dict(_load(args.input))
    window = 10 if args.window is None else args.window
    farkas = farkas_vector(m)  # NotProper whatever the polarization
    xi = farkas if args.polarization is None else args.polarization
    return (0, *_window_views(polarized_index(model_cycle(m), xi, window)))


def _run_reduce(args):
    m = LinearModel.from_dict(_load(args.input))
    if args.gamma is None:
        raise CLIError("reduce requires --gamma")
    count, regular = reduction_multiplicity(m, args.gamma)
    return (0, lambda: {"gamma": list(args.gamma), "count": count, "regular": regular},
            lambda: (f"gamma\t{list(args.gamma)}\ncount\t{count}"
                     f"\nregular\t{str(regular).lower()}"))


def _run_verify_qr(args):
    m = LinearModel.from_dict(_load(args.input))
    window = 6 if args.window is None else args.window
    report = verify_qr(m, window)
    return (0 if report.verdict else 2), report.to_dict, report.table


def _parse_group(text):
    text = text.strip()
    if len(text) < 2:
        raise CLIError(f"bad group {text!r}; expected e.g. A1 or T2")
    kind = {"a": "A", "t": "torus"}.get(text[0].lower())
    if kind is None or not text[1:].isdigit():
        raise CLIError(f"bad group {text!r}; expected e.g. A1 or T2")
    return build_root_datum(kind, int(text[1:]))


def _run_orbit(args):
    if args.group is None or args.gamma is None:
        raise CLIError("orbit requires --group and --gamma")
    datum = _parse_group(args.group)
    oc = orbit_cycle(datum, args.gamma)
    poly = closed_index(oc.component, datum)
    dec = decompose(datum, poly)
    return (0, lambda: {"cycle": oc.cycle().to_dict(), "closed_character": poly.to_list(),
                        "decomposition": dec.to_list()},
            lambda: "\n".join(["closed character", _terms_table(poly.to_list()),
                               "decomposition", _terms_table(dec.to_list())]))


def _require(req: dict, *keys):
    for key in keys:
        if key not in req:
            raise CLIError(f"move file is missing {key!r}")


def _run_moves(args):
    req = _load(args.input)
    if not isinstance(req, dict) or "move" not in req:
        raise CLIError('move file must be an object with a "move" field')
    name = req["move"]
    window = args.window if args.window is not None else as_int(req.get("window", 10))
    xi = args.polarization
    result = None
    if name == "disjoint_union":
        _require(req, "a", "b")
        a = DiscreteKCycle.from_dict(req["a"])
        b = DiscreteKCycle.from_dict(req["b"])
        out, cert = certify_disjoint_union(a, b, window, xi)
        result = out.to_dict
    elif name == "disk_decomposition":
        _require(req, "sign", "truncation")
        out, cert = certify_disk_decomposition(
            as_int(req["sign"]), as_int(req["truncation"]), window, xi)
        result = out.to_dict
    elif name == "glue_split":
        _require(req, "cycle", "blocks")
        k = DiscreteKCycle.from_dict(req["cycle"])
        index = as_int(req.get("component", 0))
        if not 0 <= index < len(k.components):
            raise CLIError(f"component {index} is out of range for "
                           f"{len(k.components)} components")
        _, comp = k.components[index]
        blocks = [list(map(as_int, b)) for b in req["blocks"]]
        pieces, cert = certify_glue_split(comp, blocks, k.datum, window, xi)
        result = lambda: [p.to_dict() for p in pieces]
    elif name == "bundle_modification":
        _require(req, "cycle", "fiber")
        k = DiscreteKCycle.from_dict(req["cycle"])
        _, fiber = ClosedComponent.from_dict(req["fiber"])
        out, cert = bundle_modification(k, fiber, window, xi)
        result = out.to_dict
    elif name == "product":
        _require(req, "a", "b")
        a = DiscreteKCycle.from_dict(req["a"])
        b = DiscreteKCycle.from_dict(req["b"])
        out, cert = certify_product(a, b, window, xi)
        result = out.to_dict
    elif name == "compare":
        _require(req, "a", "b")
        a = DiscreteKCycle.from_dict(req["a"])
        b = DiscreteKCycle.from_dict(req["b"])
        cert = compare_cycles(a, b, window, xi)
    else:
        raise CLIError(f"unknown move {name!r}")

    def obj():
        out = {"move": name, "certificate": cert.to_dict()}
        if result is not None:
            out["result"] = result()
        return out
    return (0 if cert.verdict else 2), obj, lambda: (
        f"move\t{name}\nwindow\t{cert.window}\nverdict\t{str(cert.verdict).lower()}")


def _run_vanishing(args):
    m = LinearModel.from_dict(_load(args.input))
    comps = vanishing_decomposition(m)
    return 0, lambda: {"components": [c.to_dict() for c in comps]}, lambda: "\n".join(
        ["support\tmu_value\tcompact\tmu_diameter"]
        + [f"{list(c.support)}\t{[str(x) for x in c.mu_value]}"
           f"\t{str(c.compact).lower()}\t{c.mu_diameter}" for c in comps])


_HANDLERS = {
    "index": _run_index,
    "quantize": _run_quantize,
    "reduce": _run_reduce,
    "verify-qr": _run_verify_qr,
    "orbit": _run_orbit,
    "moves": _run_moves,
    "vanishing": _run_vanishing,
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="kquant",
                     description="Equivariant index engine for discrete "
                                 "K-cycles and linear torus models")
    sub = parser.add_subparsers(dest="verb", metavar="verb")
    verb_help = {
        "index": "polarized or closed index of a K-cycle file",
        "quantize": "formal quantization of a linear model",
        "reduce": "lattice-count reduction multiplicity at --gamma",
        "verify-qr": "two-route [Q,R]=0 comparison on a window",
        "orbit": "coadjoint orbit cycle and its characters",
        "moves": "apply a rewrite file and print its certificate",
        "vanishing": "vanishing-set component table of a linear model",
    }
    for verb, help_text in verb_help.items():
        p = sub.add_parser(verb, help=help_text)
        if verb == "orbit":
            p.add_argument("--group", help="group label, e.g. A1 or T2")
            p.add_argument("--gamma", help="weight, e.g. 2 or 1,0")
        else:
            p.add_argument("input", help="input JSON file")
            if verb == "reduce":
                p.add_argument("--gamma", help="weight, e.g. 3 or 2,5")
        p.add_argument("--window", type=int, default=None,
                       help="window bound (sup-norm) for series output")
        if verb in ("index", "quantize", "moves"):
            p.add_argument("--polarization", default=None,
                           help="rational vector x/y,... overriding the default")
        p.add_argument("--format", choices=("json", "table"), default="json",
                       dest="output_format")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.verb is None:
            raise CLIError("a verb is required; see --help")
        if args.window is not None and args.window < 0:
            raise CLIError("--window must be >= 0")
        if getattr(args, "polarization", None) is not None:
            args.polarization = _parse_vector(args.polarization)
        if getattr(args, "gamma", None) is not None:
            args.gamma = _parse_int_vector(args.gamma)
        status, obj, table = _HANDLERS[args.verb](args)
        text = table() if args.output_format == "table" else _dump(obj())
    except CLIError as exc:
        print(_dump({"error": "ParseError", "detail": str(exc)}))
        return 1
    except (EngineError, ArithmeticError, AssertionError, RecursionError) as exc:
        # engine errors and internal arithmetic, certificate or depth
        # failures are reported by their class name, never as tracebacks
        print(_dump({"error": type(exc).__name__, "detail": str(exc)}))
        return 1
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        print(_dump({"error": "ParseError", "detail": str(exc)}))
        return 1
    print(text)
    return status


if __name__ == "__main__":
    sys.exit(main())
