"""Run the golden population in-process and print one SHA-256 per call.

    PYTHONPATH=src python tests/golden/regen.py [--out FILE]

The calls of ``population.py`` run in order, through ``gaussbench.cli.main``
(the console script's entry point), in a fresh temporary working directory.
Each call gets one line, ``<sha256> <exit> <argv>``: the digest covers its
exit code, stdout, stderr and the file it writes (``--out``, or that it
wrote none).  A call that raises is recorded as ``raised`` with the
exception's type and message in the digest, and the run goes on.

Two runs of the same tree on one machine must print the same lines: the
tier-1 test ``test_golden.py`` compares two interpreters with different hash
seeds, and compares their ``<exit> <argv>`` with the committed ``exits.txt``
on any machine, bar an exit written ``*`` there (a verdict within rounding).
To check that a change moves no output byte, run this script with the parent
commit's ``src`` and with the change's on one machine and diff
the two files.  Digests are not comparable across machines: the BLAS
kernels that numpy picks for the CPU move the last bits of generated states,
invariants and the symplectic spectrum, and numpy's SIMD dispatch picks
elementwise loops such as ``exp``, ``log``, ``sin`` and ``cos`` by the CPU's
instruction set, whose results may differ in the last bit.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

from population import Prepare, steps  # the script's directory is on sys.path

HERE = Path(__file__).resolve().parent


def _digest(code, out: str, err: str, written: bytes | None) -> str:
    h = hashlib.sha256()
    parts = (str(code).encode(), out.encode(), err.encode(), b"none" if written is None else b"file")
    for part in (*parts, written or b""):
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


def _call(main, argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:  # argparse's usage errors
        code = exc.code
    except Exception as exc:  # the program's own defect: record it and go on
        code = "raised"
        err.write(f"{type(exc).__name__}: {exc}")
    path = argv[argv.index("--out") + 1] if "--out" in argv else None
    written = Path(path).read_bytes() if path is not None and os.path.isfile(path) else None
    return f"{_digest(code, out.getvalue(), err.getvalue(), written)} {code} {' '.join(argv)}"


def run() -> list[str]:
    """The population's lines, run in a temporary working directory."""
    from gaussbench.cli import main

    population = steps(HERE.parent / "reports")
    lines = []
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="gaussbench-golden-") as workdir:
        os.chdir(workdir)
        try:
            for step in population:
                if isinstance(step, Prepare):
                    step.write()
                else:
                    lines.append(_call(main, step))
        finally:
            os.chdir(cwd)
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", metavar="FILE", help="write the lines here instead of stdout")
    args = parser.parse_args(argv)
    text = "".join(line + "\n" for line in run())
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
