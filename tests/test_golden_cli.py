"""Golden CLI text: the human-readable output of every fixture, byte for byte.

Each fixture's transcript runs `check --show-derivation`, then for every
declaration `reduce --trace` and `graph`, and `translate` (CP) or
`disentangle` and `internalize` (HCP) with `--show-derivation`.  The expected
transcripts live in tests/golden/; after a deliberate change to CLI text,
rewrite them with `PYTHONPATH=src python tests/test_golden_cli.py`.
"""
import contextlib
import io
import os
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
FIXTURES = sorted(p.name for p in (ROOT / "fixtures").glob("*.sill"))


def _commands(fixture: str) -> list[list[str]]:
    from sill import surface

    path = f"fixtures/{fixture}"
    decls = surface.parse_file((ROOT / path).read_text(), filename=path).decls
    out = [["check", path, "--show-derivation"]]
    for d in decls:
        out.append(["reduce", path, "--proc", d.name, "--trace"])
        out.append(["graph", path, "--proc", d.name])
        for cmd in (["translate"] if d.dialect == "cp" else ["disentangle", "internalize"]):
            out.append([cmd, path, "--proc", d.name, "--show-derivation"])
    return out


def transcript(fixture: str) -> str:
    """Run the fixture's commands from the repository root, as `$ sill ...`
    lines each followed by the command's output and exit code."""
    from sill.cli import main

    parts = []
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        for argv in _commands(fixture):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = main(argv)
            parts.append(f"$ sill {' '.join(argv)}\n{buf.getvalue()}exit={code}\n")
    finally:
        os.chdir(cwd)
    return "".join(parts)


@pytest.mark.parametrize("fixture", FIXTURES)
def test_cli_text_matches_golden(fixture):
    expected = (GOLDEN / fixture.replace(".sill", ".txt")).read_text(encoding="utf-8")
    assert transcript(fixture) == expected


def test_every_fixture_has_a_golden():
    assert len(FIXTURES) == 5
    # scramble.txt is test_congruence's golden, not a CLI transcript
    cli_goldens = sorted(p.name for p in GOLDEN.glob("*.txt") if p.name != "scramble.txt")
    assert cli_goldens == [f.replace(".sill", ".txt") for f in FIXTURES]


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for fixture in FIXTURES:
        (GOLDEN / fixture.replace(".sill", ".txt")).write_text(transcript(fixture), encoding="utf-8")
        print(f"wrote tests/golden/{fixture.replace('.sill', '.txt')}", file=sys.stderr)
