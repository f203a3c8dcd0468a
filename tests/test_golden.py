"""Determinism across processes: the golden population under two hash seeds.

``tests/golden/regen.py`` runs every call of the golden population (see
``tests/golden/population.py``) and prints one digest of each call's exit
code, stdout, stderr and written file.  Two interpreters whose string hashes
differ must print the same lines.  The digests are compared between the two
processes only, never against committed values: numpy's BLAS kernels and its
SIMD-dispatched elementwise loops differ between CPUs, and they move the last
bits of generated states, invariants and the symplectic spectrum.

Exit codes do not depend on the CPU: the first process's ``<exit> <argv>``
lines must equal the committed ``tests/golden/exits.txt``, so a verdict that
flips in both interpreters alike still fails.  The one exception is a call
whose verdict lies within the rounding that numpy's SIMD dispatch moves:
its exit is written ``*`` and not compared, and ``population.py`` gives the
reason beside the call.  To record a deliberate change of verdict, write
the file again from ``regen.py``'s lines without their digests.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_the_golden_population_prints_the_same_digests_under_two_hash_seeds():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    procs = [
        subprocess.Popen(
            [sys.executable, str(ROOT / "tests" / "golden" / "regen.py")],
            env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": hash_seed},
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for hash_seed in ("1", "2")
    ]
    runs = [proc.communicate(timeout=300) for proc in procs]
    for proc, (_, err) in zip(procs, runs):
        assert proc.returncode == 0, err
    first, second = (out.splitlines() for out, _ in runs)
    assert len(first) >= 700
    assert not [line for line in first if line.split()[1] == "raised"]
    assert first == second
    exits = (ROOT / "tests" / "golden" / "exits.txt").read_text(encoding="utf-8").splitlines()
    got = [line.split(" ", 1)[1].rstrip() for line in first]
    unpinned = {i for i, line in enumerate(exits) if line.startswith("* ")}
    got = ["* " + line.split(" ", 1)[1] if i in unpinned else line for i, line in enumerate(got)]
    assert got == exits
