"""Tests of the benchmark itself: `python3 -m pytest perfbench` from the root."""
from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import sill  # noqa: E402
import sill.cli  # noqa: E402

import calibrate  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from worker import run_op  # noqa: E402

SMALL = workloads.Sizes(chains=(1, 2, 3), derivations=(1, 2, 3), mixes=(1, 2, 3), graphs=(1, 2, 3))
SMALLEST_SWEPT = workloads.Sizes(chains=(25,), derivations=(25,), mixes=(16,), graphs=(4,))


def _sweep(tmp_path: Path, seed: int, sizes: workloads.Sizes) -> list[workloads.Op]:
    workloads.write_inputs(tmp_path, seed, sizes)
    return workloads.cli_sweep(tmp_path, seed, sizes)


@pytest.mark.parametrize("sizes", [SMALL, SMALLEST_SWEPT], ids=["tiny", "smallest-swept"])
@pytest.mark.parametrize("seed", [0, 7])
def test_expected_answers_agree_with_the_program(tmp_path, seed, sizes):
    for op in _sweep(tmp_path, seed, sizes):
        outcome, detail, *_ = run_op(op)
        assert outcome == "ok", f"{op.label}: {detail}"


def test_expected_answers_reject_wrong_output(tmp_path):
    ops = {op.label: op for op in _sweep(tmp_path, 3, SMALL)}
    for label, op in ops.items():
        rc, out = _run(op)
        assert op.check(rc, out) is None
        assert op.check(1, out) is not None, label
        assert op.check(rc, out + "stray line\n") is not None, label
        # an answer for another size is wrong too, except where it does not
        # depend on the size (a chain's environment)
        other = label.replace("=2", "=3") if "=2" in label else label.replace("=1", "=2")
        if other != label and not label.startswith(("check cp chain", "check hcp chain")):
            assert op.check(*_run(ops[other])) is not None, f"{label} accepts {other}"


def _run(op: workloads.Op) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = sill.cli.main(list(op.argv))
    return rc, buf.getvalue()


def test_hcp_chain_200_raises_and_counts_as_failed(tmp_path):
    sizes = workloads.Sizes(chains=(200,), derivations=(), mixes=(), graphs=())
    outcomes = {op.label: run_op(op)[:2] for op in _sweep(tmp_path, 1, sizes)}
    assert outcomes["check cp chain n=200"] == ("ok", None)
    # ROADMAP item 4: the parser recurses once per nesting level
    assert outcomes["check hcp chain n=200"][0] == "raised"
    assert outcomes["check hcp chain n=200"][1].startswith("RecursionError")


def test_seed_changes_spelling_and_order_not_shapes():
    a, b = workloads.inputs(1), workloads.inputs(2)
    assert [f.name for f in a] == [f.name for f in b]
    assert [f.text for f in a] != [f.text for f in b]
    assert [len(f.text.split("new ")) for f in a] == [len(f.text.split("new ")) for f in b]
    assert workloads.inputs(1) == a
    assert sorted(workloads.spelling(5).order[64]) == list(range(1, 65))


def _spec(**kw) -> dict:
    return {"workload": "fuzz-meta", "seed": 11, "workdir": str(HERE), "src": str(run.SRC),
            "trace": False, "seconds": 0, "min_units": 1, "rss_units": 1, "max_ops": 4, **kw}


def test_fresh_interpreters_give_the_same_fuzz_digest():
    first = run.launch(_spec())[1]
    again = run.launch(_spec())[1]
    other = run.launch(_spec(seed=12))[1]
    assert first["ops"] == again["ops"] == 4 and not first["wrong"] and not first["raised"]
    assert first["digest"] == again["digest"]
    assert first["digest"] != other["digest"]


def test_traced_replay_is_byte_identical():
    plain = run.launch(_spec(workload="fuzz-bridge", max_ops=6))[1]
    spanned = run.launch(_spec(workload="fuzz-bridge", max_ops=6, trace=True))[1]
    assert plain["digest"] == spanned["digest"]
    trace = spanned["trace"]
    assert set(trace) == set(tracer.metric_names())
    assert trace["cli.main.calls"] == 6
    assert trace["typecheck.check_cp.calls"] > 0 and trace["congruence.equiv.calls"] > 0
    assert trace["congruence.equiv.true_frac"] > 0.9  # mostly scrambled pairs, which are congruent
    assert trace["harness.provable.misses"] > 0 and trace["names.fresh.calls"] > 0


def _sill_functions() -> dict:
    return {(name, attr): value for name, mod in sys.modules.items()
            if name == "sill" or name.startswith("sill.") for attr, value in vars(mod).items() if callable(value)}


def test_tracer_restores_every_attribute_and_accounts_self_time(tmp_path):
    ops = _sweep(tmp_path, 4, SMALL)
    before = _sill_functions()
    plain = [_run(op) for op in ops]
    t = tracer.Tracer()
    t.install()
    try:
        assert sill.cli.main is not before[("sill.cli", "main")]
        assert sill.cli.check_cp is sill.typecheck.check_cp is sill.harness.check_cp
        spanned = [_run(op) for op in ops]
    finally:
        t.restore()
    after = _sill_functions()
    assert all(after[k] is v for k, v in before.items())
    assert plain == spanned
    m = t.metrics()
    assert m["cli.main.calls"] == len(ops)
    assert m["reduction.reduction_graph.calls"] == 3
    assert m["reduction.reduction_graph.nodes"] == 2 + 4 + 8
    # self times partition the outermost spans' wall time
    total = sum(t.end[i] - t.start[i] for i in range(len(t.start)) if t.parent[i] < 0)
    assert sum(v for k, v in m.items() if k.endswith(".self_s")) == pytest.approx(total)
    assert all(m[k] >= 0 for k in m if k.endswith(".self_s"))


def test_recursive_calls_record_one_span(tmp_path, monkeypatch):
    (op,) = [op for op in _sweep(tmp_path, 4, SMALL) if op.label == "check cp chain n=3"]
    every_call = 0
    original = sill.cp.free_names

    def counting(t):
        nonlocal every_call
        every_call += 1
        return original(t)

    monkeypatch.setattr(sill.cp, "free_names", counting)
    t = tracer.Tracer()
    t.install()
    try:
        _run(op)
    finally:
        t.restore()
    assert sill.cp.free_names is counting
    spans = t.metrics()["cp.free_names.calls"]
    assert 0 < spans < every_call  # the recursive calls ran, but only outermost ones made spans


def test_nominal_time_scales_by_the_reference_around_each_op():
    n = calibrate.NOMINAL_S
    assert calibrate.nominal([1.0, 3.0], [n, n, 3 * n]) == pytest.approx([1.0, 1.5])
    assert calibrate.reference() > 0


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS


def test_exits_without_a_result_when_the_sources_are_missing(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", ".work-*"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "fuzz-meta", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
