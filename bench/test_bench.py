"""Self-test of the benchmark:  python3 -m pytest -q bench/test_bench.py

Tiny runs of every workload print every metric of BENCHMARK.json with
its unit, the tracer leaves no kquant name wrapped, a wrong expected
result is counted as a failure, and the benchmark refuses to run without
the kquant sources.
"""

import importlib
import json
import os
import shutil
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402  (puts the kquant sources on sys.path)
import ops  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def last_json(text):
    return json.loads(text.strip().splitlines()[-1])


def test_spec_matches_the_runner():
    assert SPEC["command"] == ["python3", "bench/run.py"]
    assert [w["name"] for w in SPEC["workloads"]] == run.WORKLOADS
    assert "setup_s" in {m["name"] for m in SPEC["end_to_end"]}


def test_tiny_runs_print_every_metric_with_its_unit(capsys):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        for workload in run.WORKLOADS + run.EXTRA_WORKLOADS:
            code = run.main(["--workload", workload, "--seed", "7", "--seconds", "0.1",
                             "--trace", str(trace)], min_ops=3, trace_ops=2)
            out = capsys.readouterr().out
            assert code == 0
            result = last_json(out)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0
            assert result["attempted"] >= 2
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want, workload
            if not trace:
                assert "failed_frac" in out and "output_digest" in out


def originals():
    """(holder, attribute) -> object for every traced name kquant binds."""
    importlib.import_module("kquant.cli")
    seen = {}
    for key, mod in list(sys.modules.items()):
        if key == "kquant" or key.startswith("kquant."):
            for attr, obj in vars(mod).items():
                if callable(obj):
                    seen[(key, attr)] = obj
    fc = sys.modules["kquant.characters"].FormalCharacter
    for attr in ("agrees_with", "__add__"):
        seen[("FormalCharacter", attr)] = fc.__dict__[attr]
    return seen


def test_tracer_restores_every_wrapped_name():
    import kquant as kq
    before = originals()
    tracer = spans.Tracer()
    tracer.install()
    try:
        changed = [key for key, obj in originals().items() if before[key] is not obj]
        assert ("kquant.localization", "exact_divide") in changed
        assert ("kquant.moves", "closed_index") in changed
        assert ("kquant.linear_models", "polarized_index") in changed
        assert ("FormalCharacter", "__add__") in changed
        m = kq.linear_model([(1, 0), (0, 1)], (0, 0))
        assert kq.verify_qr(m, 2).verdict
    finally:
        assert tracer.uninstall()
    after = originals()
    assert all(after[key] is obj for key, obj in before.items())
    summary = tracer.summary()
    assert summary["linear_models.verify_qr"]["calls"] == 1
    assert summary["linear_models.reduction_multiplicity"]["calls"] == 25
    assert summary["linear_models.farkas_vector"]["calls"] == 26


def test_wrong_expected_result_is_counted(monkeypatch):
    items, _ = gen.generate("qr_mixed", 3)
    items = [dict(item) for item in items[:3]]
    items[1]["expect"] = False
    rec = worker.run_ops(ops.build("qr_mixed", items), count=3)
    assert (rec["attempted"], rec["failed"]) == (3, 1)
    assert rec["failures"][0]["op"] == 1

    golden = ops.load_golden()
    golden["reduce"] = golden["reduce"].replace(b"4", b"5")
    monkeypatch.setattr(ops, "load_golden", lambda: golden)
    items = [{"kind": name, "block": 1, "argv": argv} for name, argv in gen.CLI_COMMANDS
             if name in ("reduce", "orbit")]
    rec = worker.run_ops(ops.build("cli_demo", items), count=2)
    assert (rec["attempted"], rec["failed"]) == (2, 1)
    assert rec["failures"][0]["kind"] == "reduce"


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "qr_mixed",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
