"""Every CLI command's output pinned byte for byte, with its exit code.

Each case runs ``lieharm`` in-process from ``tests/data/cli/docs`` and is
compared with ``tests/data/cli/golden/<case>.txt``, which holds the command
line, the exit code, stdout and stderr.  ``lieharm cone`` keeps only its
name, dimension and predicted-dimension lines: the basis is an orthonormal
basis of the cone's span, which LAPACK may choose differently.

After an intended output change, rewrite the goldens with
``PYTHONPATH=src python tests/test_cli_goldens.py`` and review the diff.
"""
import os
import re
from pathlib import Path

import pytest

from lieharm.cli import main

CLI = Path(__file__).parent / "data" / "cli"
DOCS = CLI / "docs"
GOLDEN = CLI / "golden"

ALGEBRAS = ("heis", "e1", "exact", "floaty", "nonpd", "heis_int", "e1_int")
MAPS = ("char", "bad", "near", "char_int", "near_int", "id_int")
SEMIDIRECT = ("tangent", "tangent_int", "tangent_heis_int")
CATALOG = ("e1", "heis3", "sl2", "so3", "nilp5", "abelian", "e2flat", "aff2solv", "tangent")

#: (command, argument) pairs; each runs in text and json, float and exact
COMMANDS = ([("check", f"{a}.json") for a in ALGEBRAS]
            + [("cone", f"{a}.json") for a in ALGEBRAS]
            + [("analyze", f"{m}.json") for m in MAPS]
            + [("semidirect", f"{s}.json") for s in SEMIDIRECT]
            + [("catalog", name) for name in CATALOG])

#: the lines of ``lieharm cone`` that are pinned, in either format
_CONE_LINE = re.compile(r'^(algebra:|dimension:|predicted|  "(name|dimension|predicted_dimension)":)')


def _cases():
    for command, arg in COMMANDS:
        for fmt in ("text", "json"):
            for exact in (False, True):
                argv = (["--exact"] if exact else []) + ["--format", fmt, command, arg]
                name = f"{command}_{Path(arg).stem}_{fmt}" + ("_exact" if exact else "")
                yield name, argv


CASES = dict(_cases())


def _transcript(argv, capsys) -> str:
    rc = main(argv)
    out, err = capsys.readouterr()
    if argv[-2] == "cone":
        out = "".join(line for line in out.splitlines(keepends=True) if _CONE_LINE.match(line))
    return f"$ lieharm {' '.join(argv)}\nexit: {rc}\n--- stdout\n{out}--- stderr\n{err}"


def test_every_golden_file_belongs_to_a_case():
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_the_golden_bytes(name, capsys, monkeypatch):
    monkeypatch.chdir(DOCS)
    got = _transcript(CASES[name], capsys)
    assert got.encode() == (GOLDEN / f"{name}.txt").read_bytes()


if __name__ == "__main__":
    import contextlib
    import io

    class _Capture:
        """The ``readouterr`` of pytest's ``capsys``, over two buffers."""

        def __init__(self):
            self.out, self.err = io.StringIO(), io.StringIO()

        def readouterr(self):
            return self.out.getvalue(), self.err.getvalue()

    GOLDEN.mkdir(exist_ok=True)
    os.chdir(DOCS)
    for name, argv in CASES.items():
        cap = _Capture()
        with contextlib.redirect_stdout(cap.out), contextlib.redirect_stderr(cap.err):
            text = _transcript(argv, cap)
        (GOLDEN / f"{name}.txt").write_bytes(text.encode())
    print(f"wrote {len(CASES)} goldens to {GOLDEN}")
