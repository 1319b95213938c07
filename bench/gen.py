"""Seeded input generators for the benchmark workloads.

Nothing here imports kquant: inputs are plain JSON-able data, built in
the orchestrating process before any worker starts, so the engine's
caches (for example the properness cache behind ``check_proper``) are
cold when timing begins.  Properness is decided by an independent exact
test (origin outside the convex hull of the weights).

Every pool is built in shuffled blocks that contain each stratum (rank
and weight count, or operation kind) exactly once.  The marginal
distribution is the uniform one of the acceptance corpora, but every run
sees the same mix, so the spread between seeds measures the engine and
not the luck of the draw.  Each item carries its block number, and a
timed run ends only at a block boundary, so every run holds each stratum
equally often.  qr_mixed also replaces the heaviest tail of
rank-3 models by one fixed heavy model (see HEAVY_C5_MODEL).

Pools hold at least one and a half times the operations a 60-second run
completes on the reference machine (qr_mixed about three times), so a
run never wraps around to inputs it has already seen: a repeat would hit
the engine's caches, and how many repeats a run made would then depend
on how fast the machine was.
"""

import itertools
import math
import random
from collections import Counter
from fractions import Fraction

ENTRY = 3  # weight and shift entries lie in [-ENTRY, ENTRY]


# ------------------------------------------------------------ linear models

def _det(mat):
    """Integer determinant by cofactor expansion (matrices here are <= 4x4)."""
    if len(mat) == 1:
        return mat[0][0]
    return sum((-1) ** j * mat[0][j] * _det([row[:j] + row[j + 1:] for row in mat[1:]])
               for j in range(len(mat)) if mat[0][j])


def _has_nonnegative_solution(cols, rhs):
    """Whether sum_i x_i cols[i] = rhs has a unique solution with x >= 0.

    Integer-only: pick k rows with a nonzero minor, solve them by
    Cramer's rule, then check the remaining rows.  False when the
    columns are dependent, the system is inconsistent, or some x_i < 0.
    """
    k, n = len(cols), len(rhs)
    for rows in itertools.combinations(range(n), k):
        mat = [[cols[i][t] for i in range(k)] for t in rows]
        den = _det(mat)
        if den:
            break
    else:
        return False
    nums = []
    for i in range(k):
        m2 = [row[:i] + [rhs[t]] + row[i + 1:] for row, t in zip(mat, rows)]
        nums.append(_det(m2))
    if any(x * den < 0 for x in nums):
        return False
    return all(sum(nums[i] * cols[i][t] for i in range(k)) == rhs[t] * den
               for t in range(n))


def is_proper(weights):
    """True iff the origin lies outside the convex hull of the weights.

    By Caratheodory the origin is in the hull iff it is a convex
    combination of an affinely independent subset of at most rank+1
    weights, and for such a subset the combination is unique.
    """
    rank = len(weights[0])
    # Fast accept: a small integer vector pairing positively with all.
    for xi in itertools.product(range(-2, 3), repeat=rank):
        if all(sum(a * b for a, b in zip(w, xi)) > 0 for w in weights):
            return True
    pts = sorted(set(weights))
    for size in range(1, min(len(pts), rank + 1) + 1):
        for subset in itertools.combinations(pts, size):
            cols = [p + (1,) for p in subset]
            if _has_nonnegative_solution(cols, (0,) * rank + (1,)):
                return False
    return True


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def min_norm_point(points):
    """Exact minimum-norm point of the convex hull of points.

    Projects the origin onto the affine hull of every affinely
    independent subset of at most rank+1 points; the shortest
    projection that lies inside its subset's hull is the answer.
    """
    rank = len(points[0])
    pts = sorted(set(tuple(Fraction(x) for x in p) for p in points))
    best = None
    for size in range(1, min(len(pts), rank + 1) + 1):
        for subset in itertools.combinations(pts, size):
            p0 = subset[0]
            vs = [tuple(a - b for a, b in zip(p, p0)) for p in subset[1:]]
            y = _solve([[_dot(u, v) for v in vs] for u in vs], [-_dot(p0, v) for v in vs])
            if y is None or sum(y) > 1 or any(c < 0 for c in y):
                continue
            x = tuple(c0 + sum(c * v[t] for c, v in zip(y, vs)) for t, c0 in enumerate(p0))
            if best is None or _dot(x, x) < _dot(best, best):
                best = x
    return best


def _solve(mat, rhs):
    """Unique solution of a square Fraction system, or None if singular."""
    n = len(mat)
    rows = [list(row) + [rhs[i]] for i, row in enumerate(mat)]
    for c in range(n):
        piv = next((i for i in range(c, n) if rows[i][c]), None)
        if piv is None:
            return None
        rows[c], rows[piv] = rows[piv], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for i in range(n):
            if i != c and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    return [rows[i][n] for i in range(n)]


def series_size(model, window):
    """log of the simplex volume bounding the polarized series of a model.

    With xi along the minimum-norm point, every weight pairs positively;
    the series terms t^(shift + sum k_j w_j) with pairing up to the
    window's largest, B = window * |xi|_1 - <shift, xi>, number about
    B^d / (d! prod <w_j, xi>).  It sets the work and memory of
    both [Q,R] routes.
    """
    x = min_norm_point(model["weights"])
    lcm = math.lcm(*(c.denominator for c in x))
    xi = [int(c * lcm) for c in x]
    g = math.gcd(*xi)
    xi = [c // g for c in xi]
    budget = window * sum(abs(c) for c in xi) - _dot(model["shift"], xi)
    d = len(model["weights"])
    if budget <= 0:
        return 0.0
    return (d * math.log(budget) - math.lgamma(d + 1)
            - sum(math.log(_dot(w, xi)) for w in model["weights"]))


def _random_model(rng, rank, d):
    """Rejection sampling exactly as the acceptance corpus C5 does it."""
    while True:
        ws = []
        while len(ws) < d:
            w = tuple(rng.randint(-ENTRY, ENTRY) for _ in range(rank))
            if any(w):
                ws.append(w)
        shift = tuple(rng.randint(-ENTRY, ENTRY) for _ in range(rank))
        if is_proper(ws):
            return {"rank": rank, "weights": [list(w) for w in ws],
                    "shift": list(shift)}


def _blocks(rng, strata, nblocks):
    """(block number, stratum) pairs; blocks are numbered from 1."""
    for b in range(1, nblocks + 1):
        block = list(strata)
        rng.shuffle(block)
        for stratum in block:
            yield b, stratum


def _model_properties(models, window):
    keys = [repr(m) for m in models]
    return {"rank_hist": dict(sorted(Counter(m["rank"] for m in models).items())),
            "weights_hist": dict(sorted(Counter(len(m["weights"]) for m in models).items())),
            "window": window,
            "repeated_frac": 1 - len(set(keys)) / len(keys),
            "more_weights_than_rank_frac":
                sum(len(m["weights"]) > m["rank"] for m in models) / len(models)}


QR_WINDOW = 6
# The slowest model of the acceptance corpus C5; every qr_mixed run starts
# with it.  Random rank-3 draws whose series size (see series_size) exceeds
# SERIES_CAP, about the heaviest 2.5% of them, are drawn again: one such
# model costs up to several seconds and tens of MB, so whether a seed
# happened to draw one would decide a whole run.  The fixed
# heavy model (series size 16.1) stands in for that tail in every run,
# and sets the peak memory.
HEAVY_C5_MODEL = {"rank": 3, "weights": [[-3, 2, -3], [3, -3, 2], [-2, 3, 0],
                                         [-1, -3, 0], [-1, 3, 3]],
                  "shift": [-2, 2, 0]}
SERIES_CAP = 12.0


def gen_qr_mixed(rng, nblocks=180):
    """verify_qr inputs: rank 1-3, 1-5 weights, entries in [-3, 3]."""
    strata = [(r, d) for r in (1, 2, 3) for d in range(1, 6)]
    items = [{"kind": "rank3", "block": 0, "model": HEAVY_C5_MODEL}]  # a block of its own
    redrawn = 0
    for b, (r, d) in _blocks(rng, strata, nblocks):
        m = _random_model(rng, r, d)
        while r == 3 and series_size(m, QR_WINDOW) > SERIES_CAP:
            redrawn += 1
            m = _random_model(rng, r, d)
        items.append({"kind": f"rank{r}", "block": b, "model": m})
    props = _model_properties([i["model"] for i in items], QR_WINDOW)
    props["rank3_redrawn_frac"] = redrawn / (redrawn + nblocks * 5)
    return items, props


def gen_vanishing_sets(rng, nblocks=80):
    """vanishing_decomposition inputs: rank 2-3, 5-7 weights.

    Rank 2 with 6 weights appears twice per block.  With six strata the
    median operation would fall between the (2, 6) and (3, 6) strata,
    whose times barely overlap, so latency_p50_s would jump with the
    last few draws; with seven it falls inside the (2, 6) stratum.
    """
    strata = [(r, d) for r in (2, 3) for d in (5, 6, 7)] + [(2, 6)]
    items = [{"kind": f"d{d}", "block": b, "model": _random_model(rng, r, d)}
             for b, (r, d) in _blocks(rng, strata, nblocks)]
    return items, _model_properties([i["model"] for i in items], None)


# ------------------------------------------------------------------ cycles

def _mono(w, mult=1):
    return [{"weight": list(w), "mult": mult}]


def _pt(fiber, *tangent):
    return {"tangent": [list(t) for t in tangent], "fiber": _mono(fiber),
            "order": 1}


def _sphere(rng):
    """An f-sphere (index t^n) or an O(k) sphere (index 1 + ... + t^k)."""
    if rng.random() < 0.5:
        n = rng.randint(-4, 4)
        return {"label": f"f{n}", "fixed_points": [_pt((n,), (1,)), _pt((n,), (-1,))]}
    k = rng.randint(0, 4)
    return {"label": f"o{k}", "fixed_points": [_pt((0,), (-1,)), _pt((k,), (1,))]}


def _cycle(rank, comps):
    return {"datum": {"kind": "torus", "rank": rank},
            "components": [dict(c, sign=s) for s, c in comps]}


def _cycle_t1(rng, ncomp=(1, 3)):
    return _cycle(1, [(rng.choice((1, 1, -1)), _sphere(rng))
                      for _ in range(rng.randint(*ncomp))])


def _cycle_t2(rng):
    """Products of an x-axis and a y-axis sphere; closed by construction."""
    comps = []
    for _ in range(rng.randint(1, 2)):
        parts = []
        for axis in (0, 1):
            e = (1, 0) if axis == 0 else (0, 1)
            ne = tuple(-x for x in e)
            n = rng.randint(-3, 3)
            emb = tuple(n * x for x in e)
            if rng.random() < 0.5:
                parts.append([(emb, e), (emb, ne)])
            else:
                parts.append([((0, 0), ne), (emb, e)])
        pts = [_pt((f1[0] + f2[0], f1[1] + f2[1]), t1, t2)
               for f1, t1 in parts[0] for f2, t2 in parts[1]]
        comps.append((rng.choice((1, -1)), {"label": "prod", "fixed_points": pts}))
    return _cycle(2, comps)


def _formal_character(rng, kind, rank, window, nterms=(1, 3)):
    """Regular dominant keys (type A) or any keys (torus) in the window."""
    lo = -window if kind == "torus" else 1
    coeffs = {}
    n = rng.randint(*nterms)
    while len(coeffs) < n:
        w = tuple(rng.randint(lo, window) for _ in range(rank))
        coeffs[w] = rng.choice((-1, 1, 2))
    return {"datum": {"kind": kind, "rank": rank}, "window": window,
            "terms": [{"weight": list(w), "mult": m} for w, m in sorted(coeffs.items())]}


GROUPS = {"T1": ("torus", 1), "T2": ("torus", 2), "A1": ("A", 1), "A2": ("A", 2)}
ROUTE_XIS = {"T1": [[1], [-1], [3]], "T2": [[1, 5], [-2, 7], [3, -1]],
             "A1": [[1], [3]], "A2": [[1, 3], [5, 2]]}
CYCLE_WINDOW = 8
ROUTE_WINDOW_A = 6


def _cycle_op(rng, kind, group):
    """One cycles-workload input; the engine calls are chosen by kind."""
    if kind == "routes_T1":
        return {"cycle": _cycle_t1(rng), "xis": ROUTE_XIS["T1"], "window": CYCLE_WINDOW}
    if kind == "routes_T2":
        return {"cycle": _cycle_t2(rng), "xis": ROUTE_XIS["T2"], "window": CYCLE_WINDOW}
    if kind in ("routes_A1", "routes_A2"):
        # The cycle is the orbit realization of a small character, built
        # in the operation by p_map; both routes then run on its points.
        k, r = GROUPS[group]
        return {"character": _formal_character(rng, k, r, 3, (2, 2)),
                "xis": ROUTE_XIS[group], "window": ROUTE_WINDOW_A}
    if kind == "borel_weil_A1":
        return {"group": ["A", 1], "gamma": [rng.randint(1, 8)]}
    if kind == "borel_weil_A2":
        return {"group": ["A", 2], "gamma": [rng.randint(1, 6), rng.randint(1, 6)]}
    if kind.startswith("p_map_"):
        k, r = GROUPS[group]
        window = rng.randint(6, 8)
        nterms = (2, 2) if group == "A2" else (1, 4)
        return {"character": _formal_character(rng, k, r, window, nterms)}
    if kind == "disjoint_union":
        return {"a": _cycle_t1(rng), "b": _cycle_t1(rng), "window": 10}
    if kind == "glue_split":
        comp = {"label": "s", "fixed_points": [_pt((rng.randint(-3, 3),), (1,)),
                                               _pt((rng.randint(-3, 3),), (-1,))]}
        return {"cycle": _cycle(1, [(1, comp)]), "window": 10}
    if kind == "product":
        b = _cycle(1, [(rng.choice((1, 1, -1)),
                        {"label": "f", "fixed_points": [
                            _pt((n,), (1,)), _pt((n,), (-1,))]})
                       for n in [rng.randint(-3, 3) for _ in range(rng.randint(1, 2))]])
        return {"disk_shift": rng.randint(-2, 2), "disk_bound": 200, "b": b,
                "window": CYCLE_WINDOW}
    if kind == "bundle_modification":
        return {"cycle": _cycle_t1(rng), "window": 10}
    raise ValueError(kind)


# kind -> group of its cycles; the moves all act on T1 cycles
CYCLE_KINDS = {"routes_T1": "T1", "routes_T2": "T2", "routes_A1": "A1",
               "routes_A2": "A2", "borel_weil_A1": "A1", "borel_weil_A2": "A2",
               "p_map_T1": "T1", "p_map_T2": "T2", "p_map_A1": "A1",
               "p_map_A2": "A2", "disjoint_union": "T1", "glue_split": "T1",
               "product": "T1", "bundle_modification": "T1"}


def gen_cycles(rng, nblocks=260):
    """Index and rewrite operations on T1, T2, A1 and A2 cycles."""
    items = [dict(_cycle_op(rng, kind, CYCLE_KINDS[kind]), kind=kind, block=b)
             for b, kind in _blocks(rng, CYCLE_KINDS, nblocks)]
    keys = [repr(sorted((k, v) for k, v in i.items() if k != "block")) for i in items]
    groups = Counter(CYCLE_KINDS[i["kind"]] for i in items)
    return items, {"kind_hist": dict(sorted(Counter(i["kind"] for i in items).items())),
                   "group_hist": dict(sorted(groups.items())),
                   "window": f"{ROUTE_WINDOW_A}-10",
                   "repeated_frac": 1 - len(set(keys)) / len(keys)}


# -------------------------------------------------------------- cli_demo

# Every invocation of the README's command-line section, on demos/data.
CLI_COMMANDS = [
    ("index", ["index", "demos/data/o2_sphere.json"]),
    ("index_window", ["index", "demos/data/o2_sphere.json", "--window", "8"]),
    ("quantize", ["quantize", "demos/data/model_pair.json", "--window", "6"]),
    ("reduce", ["reduce", "demos/data/model_pair.json", "--gamma", "3"]),
    ("verify-qr", ["verify-qr", "demos/data/model_pair.json", "--window", "6",
                   "--format", "table"]),
    ("orbit", ["orbit", "--group", "A2", "--gamma", "1,1"]),
    ("moves", ["moves", "demos/data/glue_o2.json"]),
    ("vanishing", ["vanishing", "demos/data/model_plane.json"]),
]


def gen_cli_demo(rng, nblocks=100):
    """The fixed verb cycle, rotated to a seeded starting point."""
    start = rng.randrange(len(CLI_COMMANDS))
    order = CLI_COMMANDS[start:] + CLI_COMMANDS[:start]
    items = [{"kind": name, "block": b, "argv": argv} for b in range(1, nblocks + 1)
             for name, argv in order]
    return items, {"verbs": [name for name, _ in order],
                   "repeated_frac": 1 - len(CLI_COMMANDS) / len(items)}


GENERATORS = {"qr_mixed": gen_qr_mixed, "cycles": gen_cycles,
              "vanishing_sets": gen_vanishing_sets, "cli_demo": gen_cli_demo}


def generate(workload, seed):
    """(items, properties) for a workload; equal seeds give equal inputs."""
    rng = random.Random(f"{workload}:{seed}")
    return GENERATORS[workload](rng)
