import json
import os
import pathlib
import subprocess
import sys

import pytest

from conftest import fixture_path

from sill import cli
from sill.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_check_unit_cut(capsys):
    code, out = run(capsys, "check", fixture_path("unit_cut.sill"))
    assert code == 0
    assert out == "⊢ Main : w:1\n"


def test_main_builds_its_parser_once(capsys, monkeypatch):
    run(capsys, "check", fixture_path("unit_cut.sill"))
    built = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    assert run(capsys, "check", fixture_path("unit_cut.sill")) == (0, "⊢ Main : w:1\n")
    assert built == []


def test_check_corpus_all_pass(capsys):
    code, out = run(capsys, "check", fixture_path("corpus.sill"))
    assert code == 0
    assert out.count("⊢") == len(out.splitlines())


def test_check_hproc_prints_partition(capsys):
    code, out = run(capsys, "check", fixture_path("corpus.sill"), "--proc", "Pair")
    assert code == 0
    assert out == "⊢ Pair : x:1 | w:1\n"


def test_check_selflock_fails_with_selflock(capsys):
    code, out = run(capsys, "check", fixture_path("selflock.sill"))
    assert code == 1
    assert "SelfLock" in out and "x" in out


def test_check_counterexample_fails_with_hyper(capsys):
    code, out = run(capsys, "check", fixture_path("with_counterexample.sill"))
    assert code == 1
    assert "HyperContextForbidden" in out


def test_check_json_error_records(capsys):
    code, out = run(capsys, "check", fixture_path("selflock.sill"), "--json")
    assert code == 1
    rec = json.loads(out.splitlines()[0])
    assert rec["kind"] == "SelfLock" and rec["name"] == "x"
    assert set(rec) >= {"kind", "name", "loc", "expected", "actual"}


def test_check_show_derivation(capsys):
    code, out = run(capsys, "check", fixture_path("unit_cut.sill"), "--show-derivation")
    assert code == 0
    assert "Cut: ⊢" in out


def test_reduce_trace(capsys):
    code, out = run(capsys, "reduce", fixture_path("tensor_unit.sill"), "--proc", "Main", "--trace")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("step 1: β⊗⅋ on x ⇒ ")
    assert lines[3].startswith("canonical after 3 steps: w[].0")


def test_reduce_json(capsys):
    code, out = run(capsys, "reduce", fixture_path("tensor_unit.sill"), "--proc", "Main", "--json")
    assert code == 0
    recs = [json.loads(line) for line in out.splitlines()]
    assert [r["rule"] for r in recs[:-1]] == ["β⊗⅋", "β1⊥", "β1⊥"]
    assert recs[-1]["status"] == "canonical"


def test_reduce_is_byte_stable(capsys):
    _, a = run(capsys, "reduce", fixture_path("tensor_unit.sill"), "--proc", "Main", "--trace")
    _, b = run(capsys, "reduce", fixture_path("tensor_unit.sill"), "--proc", "Main", "--trace")
    assert a == b


def test_reduce_fuel_exhaustion_exit_code(capsys):
    code, out = run(capsys, "reduce", fixture_path("tensor_unit.sill"), "--proc", "Main", "--fuel", "1")
    assert code == 1
    assert "fuel-exhausted" in out


def test_graph_text_and_dot(capsys):
    code, out = run(capsys, "graph", fixture_path("tensor_unit.sill"), "--proc", "Main")
    assert code == 0
    assert "4 nodes, 3 edges, 1 terminal" in out
    code, dot = run(capsys, "graph", fixture_path("tensor_unit.sill"), "--proc", "Main", "--dot")
    assert code == 0
    assert dot.startswith("digraph reduction {") and "doublecircle" in dot


def test_reduce_hproc(capsys):
    code, out = run(capsys, "reduce", fixture_path("corpus.sill"), "--proc", "HUnitCut", "--trace")
    assert code == 0
    assert "β1⊥ on x" in out and "canonical after 1 steps" in out


def test_graph_json(capsys):
    code, out = run(capsys, "graph", fixture_path("unit_cut.sill"), "--proc", "Main", "--json")
    assert code == 0
    recs = [json.loads(line) for line in out.splitlines()]
    nodes = [r for r in recs if "node" in r]
    edges = [r for r in recs if "edge" in r]
    assert len(nodes) == 2 and len(edges) == 1
    assert edges[0]["rule"] == "β1⊥"


def test_translate(capsys):
    code, out = run(capsys, "translate", fixture_path("unit_cut.sill"), "--proc", "Main")
    assert code == 0
    assert out == "new x:1. (x[].0 | x().w[].0)\n"


def test_translate_rejects_hproc(capsys):
    code, out = run(capsys, "translate", fixture_path("selflock.sill"), "--proc", "Bad")
    assert code == 2


def test_disentangle(capsys):
    code, out = run(capsys, "disentangle", fixture_path("corpus.sill"), "--proc", "Pair")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "⊢ x[].0 : x:1"
    assert lines[1] == "⊢ w[].0 : w:1"
    assert lines[2] == "recombined: (x[].0 | w[].0)"


def test_internalize(capsys):
    code, out = run(capsys, "internalize", fixture_path("corpus.sill"), "--proc", "Pair")
    assert code == 0
    assert out.startswith("⊢ ") and ": z:1 * 1" in out


def test_internalize_inert(capsys):
    code, out = run(capsys, "internalize", fixture_path("corpus.sill"), "--proc", "Inertial")
    assert code == 0
    assert ": z:1" in out and "[].0" in out


def test_fuzz_single_suite(capsys):
    code, out = run(capsys, "fuzz", "--suite", "progress", "--seed", "42", "--count", "10")
    assert code == 0
    assert "suite progress: 10/10 passed" in out


def test_fuzz_json(capsys):
    code, out = run(capsys, "fuzz", "--suite", "termination", "--seed", "42", "--count", "5", "--json")
    assert code == 0
    recs = [json.loads(line) for line in out.splitlines()]
    assert recs[-1]["passed"] == 5


def test_fuzz_reports_byte_identical(capsys):
    _, a = run(capsys, "fuzz", "--suite", "translate-typing", "--seed", "9", "--count", "8")
    _, b = run(capsys, "fuzz", "--suite", "translate-typing", "--seed", "9", "--count", "8")
    assert a == b


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.sill"
    bad.write_text("proc Broken : w:1 = new x:1 (x[].0 | )\n")
    code, out = run(capsys, "check", str(bad))
    assert code == 2
    assert "syntax error" in out


def test_a_leading_byte_order_mark_is_dropped(tmp_path, capsys):
    src = pathlib.Path(fixture_path("unit_cut.sill")).read_text(encoding="utf-8")
    marked = tmp_path / "bom.sill"
    marked.write_text("\ufeff" + src.replace("\n", "\r\n"), encoding="utf-8")
    assert run(capsys, "check", str(marked)) == (0, "⊢ Main : w:1\n")
    inside = tmp_path / "inside.sill"  # only a leading one: elsewhere it is still an unexpected character
    inside.write_text(src + "\ufeff", encoding="utf-8")
    code, out = run(capsys, "check", str(inside))
    assert code == 2 and "syntax error: unexpected character '\\ufeff'" in out


def test_missing_proc_exit_code(capsys):
    code, out = run(capsys, "check", fixture_path("unit_cut.sill"), "--proc", "Nope")
    assert code == 2


@pytest.mark.parametrize("command", ["check", "reduce", "translate"])
def test_unknown_proc_is_named_as_such(capsys, command):
    path = fixture_path("unit_cut.sill")
    code, out = run(capsys, command, path, "--proc", "Nope")
    assert code == 2
    assert out == f"{path}: no declaration named 'Nope'\n"


def test_a_key_error_in_a_command_is_not_a_usage_error(monkeypatch):
    from sill import reduction

    monkeypatch.setattr(reduction, "reduce", _raise(KeyError("a bug")))
    with pytest.raises(KeyError):
        main(["reduce", fixture_path("unit_cut.sill"), "--proc", "Main"])


def test_missing_file_exit_code(capsys):
    code, out = run(capsys, "check", "no_such_file.sill")
    assert code == 2


def test_unreadable_file_exit_code(tmp_path, capsys):
    binary = tmp_path / "binary.sill"
    binary.write_bytes(b"proc A : w:1 = w[].0\xff\n")
    for path in (tmp_path, binary):
        code, out = run(capsys, "check", str(path))
        assert code == 2
        assert out.startswith("error: ") and out.count("\n") == 1


def _raise(exc):
    def fn(*args, **kwargs):
        raise exc
    return fn


def test_budget_exhaustion_exit_code(capsys):
    code, out = run(capsys, "graph", fixture_path("tensor_unit.sill"), "--proc", "Main", "--cap", "1")
    assert code == 3
    assert out == "BudgetExceeded: reduction graph exceeded 1 nodes\n"


def test_closure_budget_exhaustion_exit_code(capsys, monkeypatch):
    from sill import congruence, reduction

    monkeypatch.setattr(reduction, "reduction_graph", _raise(congruence.ClosureBudgetExceeded("over budget")))
    code, out = run(capsys, "graph", fixture_path("unit_cut.sill"), "--proc", "Main")
    assert code == 3
    assert out == "ClosureBudgetExceeded: over budget\n"


@pytest.mark.parametrize("exc", ["BridgeError", "SimulationError", "StaleRedexError", "CongruenceError"])
def test_library_failure_exit_code(capsys, monkeypatch, exc):
    from sill import bridge, congruence, reduction

    cls = next(getattr(m, exc) for m in (bridge, congruence, reduction) if hasattr(m, exc))
    monkeypatch.setattr(bridge, "disentangle", _raise(cls("no components")))
    code, out = run(capsys, "disentangle", fixture_path("corpus.sill"), "--proc", "Pair")
    assert code == 1
    assert out == f"{exc}: no components\n"


def test_fuel_below_one_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as e:
        main(["reduce", fixture_path("tensor_unit.sill"), "--proc", "Main", "--fuel", "0"])
    assert e.value.code == 2
    assert "fuel must be at least 1" in capsys.readouterr().err


def test_negative_fuzz_count_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as e:
        main(["fuzz", "--suite", "progress", "--count", "-1"])
    assert e.value.code == 2
    assert "count must be at least 0, not -1" in capsys.readouterr().err
    code, out = run(capsys, "fuzz", "--suite", "progress", "--count", "0")
    assert code == 0 and "suite progress: 0/0 passed" in out


@pytest.mark.parametrize("argv,line", [
    (["fuzz", "--count", "-1"], "sill fuzz: error: argument --count: count must be at least 0, not -1"),
    (["reduce", fixture_path("tensor_unit.sill"), "--proc", "Main", "--fuel", "0"],
     "sill reduce: error: argument --fuel: fuel must be at least 1, not 0"),
    (["frobnicate"], "sill: error: argument command: invalid choice: 'frobnicate'"),
    (["graph", fixture_path("corpus.sill"), "--proc", "Pair", "--cap", "0"],
     "sill graph: error: argument --cap: cap must be at least 1, not 0"),
    (["graph", fixture_path("unit_cut.sill"), "--proc", "Main", "--cap", "-3"],
     "sill graph: error: argument --cap: cap must be at least 1, not -3"),
])
def test_usage_error_is_one_line(capsys, argv, line):
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith(line)


@pytest.mark.parametrize("script", ["run_suites.py", "walk_reductions.py"])
def test_scripts_reject_a_negative_count(script):
    root = pathlib.Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run([sys.executable, str(root / "scripts" / script), "--count", "-1"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "count must be at least 0, not -1" in proc.stderr


@pytest.mark.parametrize("command", ["check", "reduce"])
def test_too_deep_input_exits_in_one_line(tmp_path, capsys, command):
    body = "w[].0"
    for i in range(2000, 0, -1):
        body = f"x{i}().{body}"
    env = ", ".join(f"x{i}:bot" for i in range(1, 2001))
    path = tmp_path / "deep.sill"
    path.write_text(f"hproc Main : w:1, {env} = {body}\n", encoding="utf-8")
    cli._load(str(path))  # the parser reads any depth: the checker and free names are what recurse
    argv = [command, str(path)] + (["--proc", "Main"] if command == "reduce" else [])
    code = cli.run(argv)
    out = capsys.readouterr().out
    assert code == 3
    assert out == "RecursionError: input nests too deeply\n"


def test_fuzz_output_does_not_depend_on_the_hash_seed():
    # string hashes vary with the seed and type hashes with object addresses;
    # neither may reach the reports
    root = pathlib.Path(__file__).resolve().parent.parent
    outs = []
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONHASHSEED": seed}
        proc = subprocess.run([sys.executable, "-m", "sill.cli", "fuzz", "--suite", "all", "--seed", "42",
                               "--count", "10", "--json"], capture_output=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
