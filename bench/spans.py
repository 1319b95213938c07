"""Spans around the public functions of the kquant modules.

The tracer rebinds each traced name in every kquant module that holds
it (``kquant.linear_models.polarized_index``, ``kquant.moves.closed_index``
and so on), plus the two ``FormalCharacter`` methods, so calls across a
module boundary and calls inside a module are both recorded.  Private
helpers get no spans.  Each call records name, start, end, parent span,
operation id and whether it raised an ``EngineError``; spans stay in
memory and are written out once, at the end.  ``uninstall`` puts every
original object back.
"""

import functools
import gzip
import importlib
import json
import sys
import time
from array import array

import gen

# module -> traced public names; "Class.method" names a method
TRACED = {
    "root_data": ["signed_orbit_with_images"],
    "characters": ["exact_divide", "decompose", "weyl_character",
                   "formal_multiply", "FormalCharacter.agrees_with",
                   "FormalCharacter.__add__"],
    "localization": ["polarized_index", "closed_index", "closed_sum"],
    "moves": ["certify", "certify_disjoint_union", "certify_glue_split",
              "certify_product", "bundle_modification"],
    "orbits": ["orbit_cycle", "p_map"],
    "linear_models": ["verify_qr", "formal_quantization",
                      "reduction_multiplicity", "farkas_vector",
                      "vanishing_decomposition", "check_compatibility"],
}
LAYERS = list(TRACED) + ["cli"]
CLI_VERBS = list(dict.fromkeys(argv[0] for _, argv in gen.CLI_COMMANDS))


def span_name(module, name):
    return f"{module}.{name.replace('.__add__', '.add')}"


# Work counted from a traced call's return value: span name -> function
# returning {counter suffix: increment}.
WORK = {
    "linear_models.reduction_multiplicity": lambda r: {
        "lattice_points": r.count, "nonzero": int(r.count > 0),
        "regular": int(bool(r.regular))},
    "linear_models.vanishing_decomposition": lambda r: {"components": len(r)},
    "localization.polarized_index": lambda r: {"terms_out": len(r.coeffs)},
    "characters.exact_divide": lambda r: {"quotient_terms": len(r.terms)},
    "characters.decompose": lambda r: {"constituents": len(r.mults)},
    "moves.certify": lambda r: {"verdicts": int(bool(r.verdict))},
}


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.names = []
        self.ids = {}
        self.name = array("H")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.failed = array("b")
        self.work = {}
        self.stack = []
        self.current_op = -1
        self._patched = []

    def name_id(self, name):
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
        return self.ids[name]

    def open(self, nid):
        """Start a span; returns its index."""
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.current_op)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.failed.append(0)
        self.stack.append(idx)
        return idx

    def close(self, idx, failed=False):
        self.end[idx] = time.perf_counter()
        self.stack.pop()
        if failed:
            self.failed[idx] = 1

    def count(self, name, key, value):
        """Add to a work counter, reported as ``<name>.<key>``."""
        slot = self.work.setdefault(name, {})
        slot[key] = slot.get(key, 0) + value

    def wrap(self, name, fn, engine_error):
        nid = self.name_id(name)
        work = WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(nid)
            try:
                out = fn(*args, **kwargs)
            except engine_error:
                self.close(idx, failed=True)
                raise
            except BaseException:
                self.close(idx)
                raise
            self.close(idx)
            if work is not None:
                for key, value in work(out).items():
                    self.count(name, key, value)
            return out

        return traced

    # ---------------------------------------------------------- patching

    def install(self):
        """Rebind every traced name wherever kquant holds it."""
        errors = importlib.import_module("kquant.errors")
        kq_modules = [m for key, m in sorted(sys.modules.items())
                      if m is not None and (key == "kquant" or key.startswith("kquant."))]
        for module, names in TRACED.items():
            mod = importlib.import_module(f"kquant.{module}")
            for name in names:
                if "." in name:
                    cls_name, attr = name.split(".")
                    cls = getattr(mod, cls_name)
                    orig = cls.__dict__[attr]
                    self._patch(cls, attr, orig, self.wrap(
                        span_name(module, name), orig, errors.EngineError))
                    continue
                orig = getattr(mod, name)
                wrapper = self.wrap(span_name(module, name), orig, errors.EngineError)
                for holder in kq_modules:
                    if holder.__dict__.get(name) is orig:
                        self._patch(holder, name, orig, wrapper)

    def _patch(self, holder, attr, orig, wrapper):
        setattr(holder, attr, wrapper)
        self._patched.append((holder, attr, orig))

    def uninstall(self):
        """Restore the originals; True when every name is the original again."""
        for holder, attr, orig in reversed(self._patched):
            setattr(holder, attr, orig)
        ok = all(holder.__dict__[attr] is orig for holder, attr, orig in self._patched)
        self._patched = []
        return ok

    # -------------------------------------------------------- reporting

    def self_times(self):
        """Per span: duration minus the durations of its direct children."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        own = list(dur)
        for idx, par in enumerate(self.parent):
            if par >= 0:
                own[par] -= dur[idx]
        return dur, own

    def summary(self):
        """name -> {calls, busy_s, self_s, errors} over all spans."""
        dur, own = self.self_times()
        out = {}
        for idx, nid in enumerate(self.name):
            row = out.setdefault(self.names[nid], {"calls": 0, "busy_s": 0.0,
                                                   "self_s": 0.0, "errors": 0})
            row["calls"] += 1
            row["busy_s"] += dur[idx]
            row["self_s"] += own[idx]
            row["errors"] += self.failed[idx]
        return out

    def write(self, path):
        """All spans as gzip'd tab-separated rows, then the work counters."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("span\tname\tparent\top\tstart\tend\tfailed\n")
            for idx in range(len(self.start)):
                fh.write(f"{idx}\t{self.names[self.name[idx]]}\t{self.parent[idx]}"
                         f"\t{self.op[idx]}\t{self.start[idx]!r}\t{self.end[idx]!r}"
                         f"\t{self.failed[idx]}\n")
            fh.write("#work\t" + json.dumps(self.work, sort_keys=True) + "\n")

    def read_into(self, path, op):
        """Append what ``write`` wrote (in another process) under operation op."""
        base = len(self.start)
        with gzip.open(path, "rt", encoding="utf-8") as fh:
            next(fh)
            for line in fh:
                fields = line.rstrip("\n").split("\t")
                if fields[0] == "#work":
                    for name, counters in json.loads(fields[1]).items():
                        for key, value in counters.items():
                            self.count(name, key, value)
                    continue
                _, name, par, _, start, end, failed = fields
                par = int(par)
                self.name.append(self.name_id(name))
                self.parent.append(base + par if par >= 0 else -1)
                self.op.append(op)
                self.start.append(float(start))
                self.end.append(float(end))
                self.failed.append(int(failed))


def layer_metrics(tracer, cli_wall_s=0.0, cli_stdout_bytes=0):
    """The per-layer metrics of BENCHMARK.json from a finished trace."""
    rows = tracer.summary()
    empty = {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "errors": 0}

    def row(name):
        return rows.get(name, empty)

    def work(name, key):
        return tracer.work.get(name, {}).get(key, 0)

    m = {}
    for layer in LAYERS:
        m[f"{layer}.errors"] = sum(r["errors"] for n, r in rows.items()
                                   if n.startswith(layer + "."))
    lm, loc, ch = "linear_models", "localization", "characters"
    m[f"{lm}.verify_qr.self_s"] = row(f"{lm}.verify_qr")["self_s"]
    m[f"{lm}.formal_quantization.busy_s"] = row(f"{lm}.formal_quantization")["busy_s"]
    red = f"{lm}.reduction_multiplicity"
    m.update({f"{red}.calls": row(red)["calls"], f"{red}.busy_s": row(red)["busy_s"],
              f"{red}.self_s": row(red)["self_s"],
              f"{red}.lattice_points": work(red, "lattice_points"),
              f"{red}.nonzero_frac": work(red, "nonzero") / max(row(red)["calls"], 1),
              f"{red}.regular_frac": work(red, "regular") / max(row(red)["calls"], 1)})
    for name, keys in [
            (f"{lm}.farkas_vector", ("calls", "busy_s")),
            (f"{lm}.vanishing_decomposition", ("calls", "busy_s")),
            (f"{lm}.check_compatibility", ("self_s",)),
            (f"{loc}.polarized_index", ("calls", "busy_s", "self_s")),
            (f"{loc}.closed_index", ("calls", "busy_s", "self_s")),
            (f"{loc}.closed_sum", ("busy_s",)),
            (f"{ch}.exact_divide", ("calls", "busy_s")),
            (f"{ch}.decompose", ("calls", "busy_s")),
            (f"{ch}.weyl_character", ("calls", "busy_s")),
            (f"{ch}.formal_multiply", ("busy_s",)),
            (f"{ch}.FormalCharacter.agrees_with", ("calls", "busy_s")),
            (f"{ch}.FormalCharacter.add", ("calls", "busy_s")),
            ("orbits.orbit_cycle", ("calls", "busy_s")),
            ("orbits.p_map", ("busy_s",)),
            ("moves.certify", ("calls",)),
            ("moves.certify_disjoint_union", ("busy_s", "self_s")),
            ("moves.certify_glue_split", ("busy_s", "self_s")),
            ("moves.certify_product", ("busy_s", "self_s")),
            ("moves.bundle_modification", ("busy_s", "self_s")),
            ("root_data.signed_orbit_with_images", ("calls", "busy_s"))]:
        for key in keys:
            m[f"{name}.{key}"] = row(name)[key]
    m[f"{lm}.vanishing_decomposition.components"] = work(
        f"{lm}.vanishing_decomposition", "components")
    m[f"{loc}.polarized_index.terms_out"] = work(f"{loc}.polarized_index", "terms_out")
    m[f"{ch}.exact_divide.quotient_terms"] = work(f"{ch}.exact_divide", "quotient_terms")
    m[f"{ch}.decompose.constituents"] = work(f"{ch}.decompose", "constituents")
    m["moves.certify.verdict_frac"] = (work("moves.certify", "verdicts")
                                       / max(row("moves.certify")["calls"], 1))
    verb_s = 0.0
    for verb in CLI_VERBS:
        busy = row(f"cli.{verb}")["busy_s"]
        m[f"cli.{verb}.busy_s"] = busy
        verb_s += busy
    m["cli.startup_s"] = max(cli_wall_s - verb_s, 0.0) if cli_wall_s else 0.0
    m["cli.stdout_bytes"] = cli_stdout_bytes
    return m
