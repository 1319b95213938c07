"""The README's quick start runs and shows the values its comments state."""

import ast
import pathlib
import re

import kquant as kq

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _quick_start():
    """The python block under the "Quick start" heading."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_quick_start_runs_and_states_its_values():
    namespace = {}
    values = {}
    # each bare expression's value is kept under its source text
    for node in ast.parse(_quick_start()).body:
        if isinstance(node, ast.Expr):
            code = compile(ast.Expression(node.value), str(README), "eval")
            values[ast.unparse(node.value)] = eval(code, namespace)
        else:
            exec(compile(ast.Module([node], []), str(README), "exec"), namespace)
    WP = kq.WeightPolynomial
    assert values["kq.closed_sum(sphere)"] == WP({(0,): 1, (1,): 1, (2,): 1})
    assert values["kq.polarized_index(sphere, (1,), 8)"].coeffs == {(0,): 1, (1,): 1, (2,): 1}
    assert values["kq.reduction_multiplicity(m, (3,))"] == (4, True)
    assert values["kq.verify_qr(m, 6).verdict"] is True
