import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kquant as kq
import kquant.cli
from kquant.cli import main
from helpers import T1


@pytest.fixture()
def files(tmp_path):
    def write(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj), encoding="utf-8")
        return str(path)
    return write


def fn_cycle_dict(n):
    comp = kq.ClosedComponent(
        "tw", (kq.point((n,), (1,)), kq.point((n + 1,), (-1,))))
    return kq.DiscreteKCycle(T1, ((1, comp),)).to_dict()


def run(capsys, *argv):
    status = main(list(argv))
    return status, capsys.readouterr().out


def test_index_closed_zero(files, capsys):
    path = files("c.json", fn_cycle_dict(1))
    status, out = run(capsys, "index", path)
    assert status == 0
    assert json.loads(out) == {"terms": []}


def test_index_windowed(files, capsys):
    k = kq.DiscreteKCycle(T1, ((1, kq.o_sphere(2)),))
    path = files("c.json", k.to_dict())
    status, out = run(capsys, "index", path, "--window", "4")
    assert status == 0
    doc = json.loads(out)
    assert doc["window"] == 4
    assert doc["terms"] == [{"weight": [0], "mult": 1},
                            {"weight": [1], "mult": 1},
                            {"weight": [2], "mult": 1}]


def test_index_polarization_override(files, capsys):
    k = kq.DiscreteKCycle(T1, ((1, kq.f_sphere(2)),))
    path = files("c.json", k.to_dict())
    s1, out1 = run(capsys, "index", path, "--window", "3", "--polarization", "1")
    s2, out2 = run(capsys, "index", path, "--window", "3", "--polarization", "-2")
    assert s1 == s2 == 0
    assert json.loads(out1)["terms"] == json.loads(out2)["terms"]


def test_quantize_and_verify(files, capsys):
    path = files("m.json", {"rank": 1, "weights": [[1], [1]], "shift": [0]})
    status, out = run(capsys, "quantize", path, "--window", "4")
    assert status == 0
    assert json.loads(out)["terms"][-1] == {"weight": [4], "mult": 5}
    status, out = run(capsys, "verify-qr", path, "--window", "6")
    assert status == 0
    doc = json.loads(out)
    assert doc["verdict"] is True
    assert len(doc["rows"]) == 13
    assert sum(r["q_top"] for r in doc["rows"]) == 28


def test_quantize_improper_is_input_error(files, capsys):
    path = files("m.json", {"rank": 1, "weights": [[1], [-1]], "shift": [0]})
    status, out = run(capsys, "quantize", path)
    assert status == 1
    assert json.loads(out)["error"] == "NotProper"


def test_reduce(files, capsys):
    path = files("m.json", {"rank": 1, "weights": [[1], [1]], "shift": [0]})
    status, out = run(capsys, "reduce", path, "--gamma", "3")
    assert status == 0
    assert json.loads(out) == {"gamma": [3], "count": 4, "regular": True}
    status, out = run(capsys, "reduce", path)
    assert status == 1


def test_orbit(capsys):
    status, out = run(capsys, "orbit", "--group", "A1", "--gamma", "2")
    assert status == 0
    doc = json.loads(out)
    assert doc["decomposition"] == [{"weight": [2], "mult": 1}]
    assert doc["closed_character"] == [{"weight": [-2], "mult": 1},
                                       {"weight": [0], "mult": 1},
                                       {"weight": [2], "mult": 1}]
    assert len(doc["cycle"]["components"][0]["fixed_points"]) == 2


def test_orbit_bad_group(capsys):
    status, out = run(capsys, "orbit", "--group", "E8", "--gamma", "1")
    assert status == 1
    assert json.loads(out)["error"] == "ParseError"


def test_moves_certificate_and_failure(files, capsys):
    path = files("mv.json", {"move": "disk_decomposition",
                             "sign": 1, "truncation": 6})
    status, out = run(capsys, "moves", path)
    assert status == 0
    doc = json.loads(out)
    assert doc["certificate"]["verdict"] is True
    assert doc["result"]["components"]

    a = kq.DiscreteKCycle(T1, ((1, kq.f_sphere(2)),)).to_dict()
    b = kq.DiscreteKCycle(T1, ((1, kq.f_sphere(3)),)).to_dict()
    bad = files("bad.json", {"move": "compare", "a": a, "b": b})
    status, out = run(capsys, "moves", bad)
    assert status == 2
    assert json.loads(out)["certificate"]["verdict"] is False


def test_moves_glue_split(files, capsys):
    k = kq.DiscreteKCycle(T1, ((1, kq.o_sphere(2)),))
    path = files("mv.json", {"move": "glue_split", "cycle": k.to_dict(),
                             "blocks": [[0], [1]]})
    status, out = run(capsys, "moves", path)
    assert status == 0
    doc = json.loads(out)
    assert doc["certificate"]["verdict"] is True
    assert len(doc["result"]) == 2


@pytest.mark.parametrize("fields", [
    {"move": "disk_decomposition", "sign": 1.7, "truncation": 3.9, "window": 4.5},
    {"move": "disk_decomposition", "sign": True, "truncation": 3, "window": 4},
    {"move": "glue_split", "blocks": [[0], [1.0]]},
    {"move": "glue_split", "blocks": [[0], [1]], "component": 0.0},
])
def test_moves_non_integer_fields_are_input_errors(files, capsys, fields):
    # int() would truncate each to a valid move (sign 1, truncation 3,
    # window 4, block [1], component 0) with a true verdict
    k = kq.DiscreteKCycle(T1, ((1, kq.o_sphere(2)),))
    req = {"cycle": k.to_dict(), **fields} if fields["move"] == "glue_split" else fields
    status, out = run(capsys, "moves", files("mv.json", req))
    assert status == 1
    assert set(json.loads(out)) == {"error", "detail"}


@pytest.mark.parametrize("component", [7, -1])
def test_moves_component_out_of_range_is_input_error(files, capsys, component):
    # the cycle has one component; a negative index must not pick the last one
    k = kq.DiscreteKCycle(T1, ((1, kq.o_sphere(2)),))
    path = files("mv.json", {"move": "glue_split", "cycle": k.to_dict(),
                             "blocks": [[0], [1]], "component": component})
    status, out = run(capsys, "moves", path)
    assert status == 1
    assert json.loads(out)["error"] == "ParseError"


@pytest.mark.parametrize("bound", [2.5, -1, True])
def test_moves_bad_enumeration_bound_is_input_error(files, capsys, bound):
    a = kq.DiscreteKCycle(T1, ((1, kq.f_sphere(2)),)).to_dict()
    path = files("mv.json", {"move": "disjoint_union", "a": a,
                             "b": {**a, "enumeration_bound": bound}})
    status, out = run(capsys, "moves", path)
    assert status == 1
    assert json.loads(out)["error"] == "ParseError"


def test_moves_unknown_move(files, capsys):
    path = files("mv.json", {"move": "teleport"})
    status, out = run(capsys, "moves", path)
    assert status == 1


@pytest.mark.parametrize("verb", ["verify-qr", "reduce", "vanishing", "orbit", "index"])
def test_unused_polarization_is_input_error(files, capsys, verb):
    model = files("m.json", {"rank": 1, "weights": [[1], [1]], "shift": [0]})
    argv = {"verify-qr": [model], "reduce": [model, "--gamma", "3"],
            "vanishing": [model], "orbit": ["--group", "A1", "--gamma", "2"],
            "index": [files("c.json", fn_cycle_dict(1))]}[verb]
    assert run(capsys, verb, *argv)[0] == 0
    status, out = run(capsys, verb, *argv, "--polarization", "0")
    assert status == 1
    assert json.loads(out)["error"] == "ParseError"


def test_vanishing(files, capsys):
    path = files("m.json", {"rank": 2, "weights": [[1, 0], [0, 1]],
                            "shift": [-1, -1]})
    status, out = run(capsys, "vanishing", path)
    assert status == 0
    doc = json.loads(out)
    assert [c["support"] for c in doc["components"]] == [[], [0], [1], [0, 1]]
    status, table = run(capsys, "vanishing", path, "--format", "table")
    assert status == 0
    assert table.splitlines()[0] == "support\tmu_value\tcompact\tmu_diameter"


@pytest.mark.parametrize("point, tangent, fiber", [(1, -1.5, 2.9), (0, True, True)])
def test_non_integer_weights_are_input_errors(files, capsys, point, tangent, fiber):
    # int() would truncate each to the closed cycle fn_cycle_dict(1), as
    # True would read as 1
    doc = fn_cycle_dict(1)
    pt = doc["components"][0]["fixed_points"][point]
    pt["tangent"] = [[tangent]]
    pt["fiber"][0]["weight"] = [fiber]
    status, out = run(capsys, "index", files("c.json", doc))
    assert status == 1
    assert set(json.loads(out)) == {"error", "detail"}


DEMO_DATA = Path(__file__).resolve().parents[1] / "demos" / "data"
# the verbs each demo input feeds; every model verb runs on both models
DEMO_VERBS = {
    "o2_sphere.json": [["index"], ["index", "--window", "8"]],
    "glue_o2.json": [["moves"]],
    "model_pair.json": [["quantize"], ["reduce", "--gamma", "3"], ["verify-qr"], ["vanishing"]],
    "model_plane.json": [["quantize"], ["reduce", "--gamma", "1,2"], ["verify-qr"],
                         ["vanishing"]],
}


def int_leaf_paths(doc, path=()):
    """The key paths of every integer leaf of a JSON document (bools are not ints)."""
    if isinstance(doc, (dict, list)):
        for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
            yield from int_leaf_paths(value, path + (key,))
    elif type(doc) is int:
        yield path


@pytest.mark.parametrize("bad", [True, False, 2.5, 1.0])
@pytest.mark.parametrize("name", sorted(DEMO_VERBS))
def test_every_integer_leaf_of_the_demo_inputs_rejects_non_integers(tmp_path, capsys, name, bad):
    doc = json.loads((DEMO_DATA / name).read_text(encoding="utf-8"))
    for verb, *flags in DEMO_VERBS[name]:
        assert run(capsys, verb, str(DEMO_DATA / name), *flags)[0] == 0
    paths = list(int_leaf_paths(doc))
    assert paths
    for path in paths:
        broken = json.loads(json.dumps(doc))
        *parents, last = path
        node = broken
        for key in parents:
            node = node[key]
        node[last] = bad
        target = tmp_path / name
        target.write_text(json.dumps(broken), encoding="utf-8")
        for verb, *flags in DEMO_VERBS[name]:
            status, out = run(capsys, verb, str(target), *flags)
            assert status == 1, (path, verb, out)
            assert set(json.loads(out)) == {"error", "detail"}, (path, verb, out)


_DELETED = object()
# what replaces one node of a demo input: the node deleted, or a value of
# the wrong shape (null, a string, empty containers, a nested list) or an
# integer out of its range
_MALFORMED = [_DELETED, None, "x", [], {}, [[1]], -1, 0]


def node_paths(doc, path=()):
    """The key paths of every node of a JSON document below the root."""
    if isinstance(doc, (dict, list)):
        for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
            yield path + (key,)
            yield from node_paths(value, path + (key,))


def test_malformed_shapes_of_the_demo_inputs_exit_cleanly(tmp_path, capsys):
    docs = {name: json.loads((DEMO_DATA / name).read_text(encoding="utf-8"))
            for name in sorted(DEMO_VERBS)}
    cases = [(name, path, bad) for name, doc in docs.items()
             for path in node_paths(doc) for bad in _MALFORMED]
    exits = set()
    for name, path, bad in cases:
        broken = json.loads(json.dumps(docs[name]))
        *parents, last = path
        node = broken
        for key in parents:
            node = node[key]
        if bad is _DELETED:
            del node[last]
        else:
            node[last] = bad
        target = tmp_path / name
        target.write_text(json.dumps(broken), encoding="utf-8")
        for verb, *flags in DEMO_VERBS[name]:
            status, out = run(capsys, verb, str(target), *flags)
            exits.add(status)
            # exit 0 with a result, or exit 1 with exactly the error object
            assert status in (0, 1), (name, path, bad, verb, out)
            if status == 1:
                assert set(json.loads(out)) == {"error", "detail"}, (name, path, bad, verb, out)
    assert exits == {0, 1}


def test_malformed_json_is_input_error(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("{not json", encoding="utf-8")
    status, out = run(capsys, "index", str(path))
    assert status == 1
    assert json.loads(out)["error"] == "ParseError"


@pytest.mark.parametrize("exc", [ZeroDivisionError("division by zero"),
                                 AssertionError("internal check"),
                                 RecursionError("too deep")])
def test_internal_failures_are_error_objects(files, capsys, monkeypatch, exc):
    def boom(args):
        raise exc
    monkeypatch.setitem(kquant.cli._HANDLERS, "reduce", boom)
    path = files("m.json", {"rank": 1, "weights": [[1]], "shift": [0]})
    status, out = run(capsys, "reduce", path, "--gamma", "1")
    assert status == 1
    assert json.loads(out) == {"error": type(exc).__name__, "detail": str(exc)}


def test_missing_file_is_input_error(capsys):
    status, out = run(capsys, "index", "no_such_file.json")
    assert status == 1


def test_byte_stable_output(files, capsys):
    path = files("m.json", {"rank": 2, "weights": [[1, 0], [0, 1], [1, 1]],
                            "shift": [-1, 0]})
    outs = set()
    for _ in range(3):
        status, out = run(capsys, "verify-qr", path, "--window", "3")
        assert status == 0
        outs.add(out)
    assert len(outs) == 1


def test_results_reparse_under_schemas(files, capsys):
    k = kq.DiscreteKCycle(T1, ((1, kq.o_sphere(1)),))
    path = files("c.json", k.to_dict())
    _, out = run(capsys, "index", path, "--window", "5")
    kq.FormalCharacter.from_dict(T1, json.loads(out))
    mpath = files("m.json", {"rank": 1, "weights": [[2]], "shift": [1]})
    _, out = run(capsys, "quantize", mpath, "--window", "5")
    kq.FormalCharacter.from_dict(T1, json.loads(out))


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "kquant.cli", "orbit", "--group", "T1",
         "--gamma", "4"], capture_output=True, text=True)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["closed_character"] == [{"weight": [4], "mult": 1}]


def test_window_zero_on_every_route(capsys):
    # the polarized route answers window 0, as the series route of quantize does
    pair, sphere = str(DEMO_DATA / "model_pair.json"), str(DEMO_DATA / "o2_sphere.json")
    docs = []
    for argv in (["quantize", pair, "--window", "0"],
                 ["quantize", pair, "--window", "0", "--polarization", "1"],
                 ["index", sphere, "--window", "0"]):
        status, out = run(capsys, *argv)
        assert status == 0, out
        docs.append(json.loads(out))
    zero = {"window": 0, "terms": [{"weight": [0], "mult": 1}]}
    assert docs == [zero, zero, zero]
    status, out = run(capsys, "index", sphere, "--window", "-1")
    assert status == 1 and json.loads(out)["error"] == "ParseError"


# (argv, --format, owner and name of the view that format must not build)
UNPRINTED_VIEWS = [
    (["verify-qr", "model_pair.json"], "json", kq.QRReport, "table"),
    (["verify-qr", "model_pair.json"], "table", kq.QRReport, "to_dict"),
    (["index", "o2_sphere.json", "--window", "3"], "json", kquant.cli, "_terms_table"),
    (["index", "o2_sphere.json", "--window", "3"], "table", kquant.cli, "_dump"),
    (["quantize", "model_plane.json"], "json", kquant.cli, "_terms_table"),
    (["moves", "glue_o2.json"], "table", kq.RewriteCertificate, "to_dict"),
    (["vanishing", "model_plane.json"], "table", kq.VanishingComponent, "to_dict"),
]


@pytest.mark.parametrize("argv, fmt, owner, name", UNPRINTED_VIEWS)
def test_only_the_printed_view_is_built(capsys, monkeypatch, argv, fmt, owner, name):
    verb, path, *flags = argv
    argv = [verb, str(DEMO_DATA / path), *flags, "--format", fmt]
    expected = run(capsys, *argv)

    def unbuilt(*args):
        raise RuntimeError(f"{verb} --format {fmt} built {name}")
    monkeypatch.setattr(owner, name, unbuilt)
    assert run(capsys, *argv) == expected
    assert expected[0] == 0


def test_startup_imports_neither_dataclasses_nor_inspect():
    # the records are plain classes: dataclasses would import inspect (with
    # ast, dis and tokenize) on every launch.  pytest imports both modules
    # itself, so a fresh interpreter runs the import and the verbs
    argvs = [["index", str(DEMO_DATA / "o2_sphere.json"), "--window", "8"],
             ["reduce", str(DEMO_DATA / "model_pair.json"), "--gamma", "3"],
             ["verify-qr", str(DEMO_DATA / "model_pair.json"), "--window", "6"],
             ["orbit", "--group", "A2", "--gamma", "1,1"],
             ["moves", str(DEMO_DATA / "glue_o2.json")],
             ["vanishing", str(DEMO_DATA / "model_plane.json")]]
    code = ("import sys\n"
            "import kquant.cli\n"
            f"statuses = [kquant.cli.main(argv) for argv in {argvs!r}]\n"
            "print(statuses, sorted({'dataclasses', 'inspect'} & set(sys.modules)), file=sys.stderr)\n")
    src = str(Path(kq.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.strip() == f"{[0] * len(argvs)} []"
