"""Mutation check: every deliberately broken engine must fail its tests.

From the repository root, run it under each interpreter mode to be checked:

    python tests/mutants.py
    python -O tests/mutants.py       # the engine's asserts stripped

Each entry of MUTANTS is (name, file, old text, new text, tests).  The old
text must occur exactly once in the file, so a refactor that moves or
rewrites the mutated code stops the script with an error instead of
letting the mutant test nothing.  First the union of the test subsets
runs on an unchanged copy of the tree, which must pass.  Then each mutant
is applied to a fresh temporary copy of src/ and tests/, and its subset
runs with `pytest -x` under this interpreter's -O level.  A mutant whose
subset passes survives; the script lists the survivors and exits 1.
pytest does not collect this file (its name does not start with test_).
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LM, LOC = "src/kquant/linear_models.py", "src/kquant/localization.py"
MOVES, CHARS = "src/kquant/moves.py", "src/kquant/characters.py"
ROOT_DATA = "src/kquant/root_data.py"
T_LM, T_LOC = "tests/test_linear_models.py::", "tests/test_localization.py::"
T_CHARS = "tests/test_characters.py::"

MUTANTS = [
    # the counter's walk plan
    ("plan: coordinates no level moves are not checked", LM,
     "        if any(not los[q] <= c0[q] <= his[q] for q in self.fixed):\n",
     "        if False:\n",
     [T_LM + "test_target_enumeration_matches_the_box_pass"]),
    ("plan: the cone rows never bound a level", LM,
     "        for q in (*range(r), *cone):\n",
     "        for q in range(r):\n",
     [T_LM + "test_window_counts_match_the_recursive_search"]),
    ("plan: the last level's final rows emptied", LM,
     "        self.finals = tuple(x for qs in finals for x in (len(qs), *qs))\n",
     "        self.finals = tuple(x for qs in finals[:-1] + [[]] for x in (len(qs), *qs))\n",
     [T_LM + "test_window_counts_match_the_recursive_search"]),
    # the count's last level
    ("last level: signs emptied", LM,
     "            self.signs = tuple(i for i, s in enumerate(ts[-1]) if not s)\n",
     "            self.signs = ()\n",
     [T_LM + "test_last_level_matches_brute_force_in_every_case"]),
    ("last level: divides emptied", LM,
     "                self.divides = tuple(i for i, s in enumerate(ts[-1]) if s)\n",
     "                self.divides = ()\n",
     [T_LM + "test_last_level_matches_brute_force_in_every_case"]),
    ("last level: one class member too many", LM,
     "        ns = [n if (n := (h - a) // period + 1) > 0 else 0 for h, a in zip(his, firsts)]\n",
     "        ns = [n if (n := (h - a) // period + 2) > 0 else 0 for h, a in zip(his, firsts)]\n",
     [T_LM + "test_each_route_satisfies_the_deletion_recurrence"]),
    # regular flags
    ("regular: walls emptied", LM,
     "        self.walls = tuple((*n, dot(n, c0)) for n in normals)\n",
     "        self.walls = ()\n",
     [T_LM + "test_regular_columns_match_every_maximal_wall"]),
    ("regular: span emptied", LM,
     "        self.span = () if self.walls else tuple((*n, dot(n, c0)) for n in nullspace(m.weights, r))\n",
     "        self.span = ()\n",
     [T_LM + "test_regular_columns_match_every_maximal_wall"]),
    ("regular: the one-point flag fixed to true", LM,
     "                              self.regular([(g,) for g in gamma])[0])\n",
     "                              True)\n",
     [T_LM + "test_target_enumeration_matches_the_box_pass"]),
    ("regular: the packed wall test fixed to true", LM,
     "            return [not ((e := d ^ half) - ones) & ~e & half for d in sums]\n",
     "            return [True for d in sums]\n",
     [T_LM + "test_regular_columns_match_every_maximal_wall"]),
    # certificate verdicts
    ("certify: verdict forced true", MOVES,
     "    return RewriteCertificate(before, after, window, before.agrees_with(after))\n",
     "    return RewriteCertificate(before, after, window, True)\n",
     ["tests/test_moves.py::test_compare_cycles_certificate"]),
    ("verify_qr: verdict forced true", LM,
     "    return QRReport(m, window, series, counts, series == counts)\n",
     "    return QRReport(m, window, series, counts, True)\n",
     [T_LM + "test_report_mismatch_names_the_faulty_row"]),
    ("check_compatibility: verdict forced true", LM,
     "            if dot(v, xi) ** 2 > bound ** 2 * dot(xi, xi):\n",
     "            if False:\n",
     [T_LM + "test_compatibility_cauchy_schwarz_threshold"]),
    ("separation: the Farkas vector is not checked", LM,
     "        if not all(dot(w, xi) > 0 for w in self.weights):\n",
     "        if False:\n",
     [T_LM + "test_separation_certificate_is_a_typed_error"]),
    ("exact_divide: the remainder test removed", CHARS,
     "        if any(x < a or x > b for x, a, b in zip(mw, lo, hi)) or lc % lead_c:\n",
     "        if any(x < a or x > b for x, a, b in zip(mw, lo, hi)):\n",
     [T_CHARS + "test_exact_divide_basic"]),
    # the series and the moves
    ("series: a guard bound one too small", LOC,
     "        f, b = len(keys), box * sum(map(abs, key))\n",
     "        f, b = len(keys), box * sum(map(abs, key)) - 1\n",
     [T_LM + "test_each_route_satisfies_the_deletion_recurrence"]),
    ("disjoint_union: drops a component", MOVES,
     "    return DiscreteKCycle._of(datum, a.components + b.components, fam, bound)\n",
     "    return DiscreteKCycle._of(datum, a.components + b.components[:-1], fam, bound)\n",
     ["tests/test_moves.py::test_disjoint_union_concatenates_and_certifies"]),
    # the checks where outside data enters
    ("bundle_modification: the fiber is not checked", MOVES,
     "    fib = DiscreteKCycle(k.datum, ((1, fiber),))\n",
     "    fib = DiscreteKCycle._of(k.datum, ((1, fiber),), None, None)\n",
     ["tests/test_moves.py::test_bundle_modification_checks_the_fiber_against_the_datum"]),
    ("_members: family members are not checked", LOC,
     "            yield self._checked(*self.family(i))\n",
     "            yield self.family(i)\n",
     [T_LOC + "test_family_members_of_the_wrong_rank_are_refused_where_read"]),
    ("_checked: orbifold orders are not checked where components enter", LOC,
     "        _check_orders(self.datum, comp)\n",
     "",
     [T_LOC + "test_orbifold_points_over_type_a_are_refused_where_they_enter"]),
    ("OrbitCycle: the given component is not checked", "src/kquant/orbits.py",
     "        DiscreteKCycle(datum, ((1, component),))\n",
     "",
     ["tests/test_orbits.py::test_orbit_cycle_checks_its_component_where_it_is_given"]),
    ("decompose: the weights' length is not checked", CHARS,
     "        datum.check_weight(nu)\n",
     "        pass\n",
     [T_CHARS + "test_decompose_rejects_weights_of_another_rank"]),
    # the one checker of each input rule
    ("_window: a negative window is accepted", CHARS,
     "    if window < 0:\n        raise WindowExhausted(f\"window {window} is empty\")\n",
     "    if False:\n        raise WindowExhausted(f\"window {window} is empty\")\n",
     [T_CHARS + "test_every_window_a_formal_character_is_given_is_checked_alike",
      T_LOC + "test_polarized_index_checks_its_window_and_polarization"]),
    ("check_dominant: dominance is not checked", ROOT_DATA,
     "        if min(w[:len(self.simple_roots)], default=0) < 0:\n",
     "        if False:\n",
     ["tests/test_root_data.py::test_every_dominance_check_is_the_datum_s_one_checker"]),
    ("same_datum: two data are accepted", ROOT_DATA,
     "    if a != b:\n",
     "    if False:\n",
     [T_CHARS + "test_every_character_operation_refuses_two_data",
      "tests/test_moves.py::test_two_data_are_refused_by_every_move_that_combines_cycles"]),
    ("_check_orders: orbifold orders over type A are accepted", LOC,
     "    if not datum.is_torus and any(p.orbifold_order > 1 for p in comp.fixed_points):\n",
     "    if False:\n",
     [T_LOC + "test_orbifold_outside_torus_rejected"]),
]


def copy_tree(dest):
    """src/, tests/ and pyproject.toml (the pytest settings) under dest."""
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=skip)
    shutil.copy2(ROOT / "pyproject.toml", dest)


def run_tests(tree, tests):
    """pytest's exit code on tests in tree, at this interpreter's -O level."""
    flags = ["-" + "O" * sys.flags.optimize] if sys.flags.optimize else []
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, *flags, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def main():
    for name, path, old, _, _ in MUTANTS:
        if (found := (ROOT / path).read_text(encoding="utf-8").count(old)) != 1:
            sys.exit(f"{name}: the old text occurs {found} times in {path}, not once")
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        copy_tree(tree)
        subsets = sorted({t for m in MUTANTS for t in m[4]})
        if run_tests(tree, subsets):
            sys.exit("the test subsets fail on the unchanged tree")
    survivors = []
    for name, path, old, new, tests in MUTANTS:
        start = time.perf_counter()
        with tempfile.TemporaryDirectory() as tmp:
            tree = Path(tmp) / "tree"
            copy_tree(tree)
            target = tree / path
            target.write_text(target.read_text(encoding="utf-8").replace(old, new),
                              encoding="utf-8")
            code = run_tests(tree, tests)
        verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"pytest exit code {code}")
        print(f"{verdict:>10}  {time.perf_counter() - start:5.1f} s  {name}", flush=True)
        if code != 1:
            survivors.append(name)
    if survivors:
        sys.exit(f"{len(survivors)} of {len(MUTANTS)} mutants not killed: {survivors}")
    print(f"all {len(MUTANTS)} mutants killed")


if __name__ == "__main__":
    main()
