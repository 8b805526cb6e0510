"""Golden CLI output of every fixture, byte for byte.

Each fixture's text transcript runs `check --show-derivation`, then for every
declaration `reduce --trace` and `graph`, and `translate` (CP) or
`disentangle` and `internalize` (HCP) with `--show-derivation`; it lives in
tests/golden/.  Its machine transcript runs `check --show-derivation --json`,
then for every declaration `reduce --trace --json`, `graph --dot`, and
`translate` (CP) or `disentangle` and `internalize` (HCP) with `--json`; it
lives in tests/golden/json_dot/.  Its derivation transcript runs `translate` (CP)
or `disentangle` and `internalize` (HCP) with `--json --show-derivation` per
declaration; it lives in tests/golden/json_derivation/.  The help transcript,
tests/golden/help/sill.txt, holds `sill -h` and each `sill <command> -h` at
80 columns.  After a deliberate change to CLI output, rewrite them all with
`PYTHONPATH=src python tests/test_golden_cli.py`.
"""
import contextlib
import io
import os
import pathlib
import sys
from unittest import mock

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
GOLDEN_JSON_DOT = GOLDEN / "json_dot"
GOLDEN_JSON_DERIVATION = GOLDEN / "json_derivation"
GOLDEN_HELP = GOLDEN / "help" / "sill.txt"
COMMANDS = ["check", "reduce", "graph", "translate", "disentangle", "internalize", "fuzz"]
FIXTURES = sorted(p.name for p in (ROOT / "fixtures").glob("*.sill"))


def _bridge_commands(dialect: str) -> list[str]:
    return ["translate"] if dialect == "cp" else ["disentangle", "internalize"]


def _commands(fixture: str, mode: str = "text") -> list[list[str]]:
    from sill import surface

    path = f"fixtures/{fixture}"
    decls = surface.parse_file((ROOT / path).read_text(), filename=path).decls
    if mode == "derivation":
        return [[cmd, path, "--proc", d.name, "--json", "--show-derivation"]
                for d in decls for cmd in _bridge_commands(d.dialect)]
    if mode == "machine":
        out = [["check", path, "--show-derivation", "--json"]]
        for d in decls:
            out.append(["reduce", path, "--proc", d.name, "--trace", "--json"])
            out.append(["graph", path, "--proc", d.name, "--dot"])
            for cmd in _bridge_commands(d.dialect):
                out.append([cmd, path, "--proc", d.name, "--json"])
        return out
    out = [["check", path, "--show-derivation"]]
    for d in decls:
        out.append(["reduce", path, "--proc", d.name, "--trace"])
        out.append(["graph", path, "--proc", d.name])
        for cmd in _bridge_commands(d.dialect):
            out.append([cmd, path, "--proc", d.name, "--show-derivation"])
    return out


def transcript(fixture: str, mode: str = "text") -> str:
    """Run the fixture's text commands (or, with mode "machine", its JSON and
    dot commands; with "derivation", its `--json --show-derivation` bridge
    commands) from the repository root, as `$ sill ...` lines each followed
    by the command's output and exit code."""
    from sill.cli import main

    parts = []
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        for argv in _commands(fixture, mode):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = main(argv)
            parts.append(f"$ sill {' '.join(argv)}\n{buf.getvalue()}exit={code}\n")
    finally:
        os.chdir(cwd)
    return "".join(parts)


def help_transcript() -> str:
    """`sill -h`, then `sill <command> -h` for every command, on an 80-column
    terminal, as `$ sill ...` lines each followed by the help and exit code."""
    from sill.cli import main

    parts = []
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        for argv in [["-h"]] + [[command, "-h"] for command in COMMANDS]:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                try:
                    main(argv)
                except SystemExit as e:
                    code = e.code
            parts.append(f"$ sill {' '.join(argv)}\n{buf.getvalue()}exit={code}\n")
    return "".join(parts)


@pytest.mark.parametrize("fixture", FIXTURES)
def test_cli_text_matches_golden(fixture):
    expected = (GOLDEN / fixture.replace(".sill", ".txt")).read_text(encoding="utf-8")
    assert transcript(fixture) == expected


@pytest.mark.parametrize("fixture", FIXTURES)
def test_cli_json_and_dot_match_golden(fixture):
    expected = (GOLDEN_JSON_DOT / fixture.replace(".sill", ".txt")).read_text(encoding="utf-8")
    assert transcript(fixture, "machine") == expected


@pytest.mark.parametrize("fixture", FIXTURES)
def test_cli_json_derivations_match_golden(fixture):
    expected = (GOLDEN_JSON_DERIVATION / fixture.replace(".sill", ".txt")).read_text(encoding="utf-8")
    assert transcript(fixture, "derivation") == expected


def test_cli_help_matches_golden():
    assert help_transcript() == GOLDEN_HELP.read_text(encoding="utf-8")


def test_every_fixture_has_a_golden():
    assert len(FIXTURES) == 6
    # scramble.txt is test_congruence's golden, not a CLI transcript
    cli_goldens = sorted(p.name for p in GOLDEN.glob("*.txt") if p.name != "scramble.txt")
    assert cli_goldens == [f.replace(".sill", ".txt") for f in FIXTURES]
    assert sorted(p.name for p in GOLDEN_JSON_DOT.glob("*.txt")) == cli_goldens
    assert sorted(p.name for p in GOLDEN_JSON_DERIVATION.glob("*.txt")) == cli_goldens


if __name__ == "__main__":
    for folder in (GOLDEN_JSON_DOT, GOLDEN_JSON_DERIVATION, GOLDEN_HELP.parent):
        folder.mkdir(parents=True, exist_ok=True)
    for fixture in FIXTURES:
        name = fixture.replace(".sill", ".txt")
        (GOLDEN / name).write_text(transcript(fixture), encoding="utf-8")
        (GOLDEN_JSON_DOT / name).write_text(transcript(fixture, "machine"), encoding="utf-8")
        (GOLDEN_JSON_DERIVATION / name).write_text(transcript(fixture, "derivation"), encoding="utf-8")
        print(f"wrote tests/golden/{name}, json_dot/{name} and json_derivation/{name}", file=sys.stderr)
    GOLDEN_HELP.write_text(help_transcript(), encoding="utf-8")
    print("wrote tests/golden/help/sill.txt", file=sys.stderr)
