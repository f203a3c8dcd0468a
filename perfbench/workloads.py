"""The three benchmark workloads: their inputs, their ops and the output checks.

The timed workloads are chosen so that no op fails at the commit that
defined them; a failing op makes a run incorrect.  The configs that do fail
there (known defects) are kept in ``DEFECT_CONFIGS`` and counted by
``census.py``, outside the timed runs.

Every op is one or more in-process calls of ``gaussbench.cli.main``, the
same entry point the ``gaussbench`` console script runs.  The op sequence
and every input file are derived from the workload seed alone, so one seed
always gives the same ops.

An op fails when a call raises, exits non-zero, or its output fails a
check.  The reason class is a short string: the subcommand with the
exception type or the exit code and the program's error message (numbers
replaced by ``#``), or the name of the failed output check.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

#: Relative tolerance of the oracle check on exact-moment ops.  The absolute
#: floor only matters for invariants that are zero up to round-off.
ORACLE_REL_TOL = 1e-9
ORACLE_ABS_TOL = 1e-12

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


@dataclass
class Op:
    """One closed-loop operation: CLI calls run in order, then a check."""

    config: str
    points: int
    argvs: list[list[str]]
    outputs: list[Path]
    check: Callable[[], str | None]


def _error_class(code, stderr: str) -> str:
    lines = [ln for ln in stderr.strip().splitlines() if ln.strip()]
    message = lines[-1] if lines else ""
    for prefix in ("gaussbench: config error: ", "gaussbench: error: "):
        if message.startswith(prefix):
            message = message[len(prefix):]
    return f"exit {code}: {_NUMBER.sub('#', message)[:100]}"


def call_cli(main, argv: list[str]) -> str | None:
    """Run ``main(argv)`` with its streams captured; the failure reason or None."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # the op boundary: record the type, keep going
        return f"raised {type(exc).__name__}"
    return None if code == 0 else _error_class(code, err.getvalue())


def run_op(main, op: Op) -> str | None:
    """The timed part of an op: its CLI calls, stopping at the first failure."""
    for argv in op.argvs:
        reason = call_cli(main, argv)
        if reason is not None:
            return f"{argv[0]} {reason}"
    return None


def _finite_number(cell: str) -> bool:
    try:
        return math.isfinite(float(cell))
    except ValueError:
        return False


def _matches_oracle(got: float, want: float | None) -> bool:
    if want is None:
        return False
    return math.isclose(got, want, rel_tol=ORACLE_REL_TOL, abs_tol=ORACLE_ABS_TOL)


def check_sweep_csv(path: Path, steps: int, exact: bool) -> str | None:
    """Row count, finite cells (empty cells are nulls) and, if exact, the oracle."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
    except OSError:
        return "no_output"
    if len(rows) != steps:
        return "row_count"
    for row in rows:
        if not all(_finite_number(c) for c in row.values() if c != ""):
            return "nonfinite"
        if exact:
            for k in range(1, 5):
                got, want = row.get(f"J{k}_scheme", ""), row.get(f"J{k}_oracle", "")
                if got != "" and not _matches_oracle(float(got), float(want) if want else None):
                    return "oracle_mismatch"
    return None


def _all_finite(node) -> bool:
    if isinstance(node, dict):
        return all(_all_finite(v) for v in node.values())
    if isinstance(node, list):
        return all(_all_finite(v) for v in node)
    if isinstance(node, float):
        return math.isfinite(node)
    return True


def check_report_json(path: Path, exact: bool) -> str | None:
    """Finite numbers (nulls allowed) and, if exact, every scheme invariant vs the oracle."""
    try:
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
    except (OSError, json.JSONDecodeError):
        return "no_output"
    if not _all_finite(report):
        return "nonfinite"
    if exact:
        oracle = report["oracle"]["invariants"]
        for name in ("scheme1", "scheme2"):
            section = report.get(name)
            if section is None:
                continue
            for key in ("j1", "j2", "j3", "j4"):
                got = section["invariants"].get(key)
                if got is not None and not _matches_oracle(got, oracle.get(key)):
                    return "oracle_mismatch"
    return None


class SweepR:
    """``sweep --param r`` on TMSV with the ideal detector, both schemes."""

    name = "sweep_r"

    def __init__(self, seed: int, workdir: Path, steps: int = 180):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.out = workdir / "sweep_r.csv"
        self.steps = steps

    def ops(self) -> Iterator[Op]:
        while True:
            start = 0.05 + self.rng.uniform(0.0, 0.1)
            argv = [
                "sweep", "--param", "r", "--generator", "tmsv", "--scheme", "both",
                "--start", repr(start), "--stop", repr(start + 1.85),
                "--steps", str(self.steps), "--out", str(self.out),
            ]
            yield Op(
                config="ideal",
                points=self.steps,
                argvs=[argv],
                outputs=[self.out],
                check=lambda: check_sweep_csv(self.out, self.steps, exact=True),
            )


class SweepEtaShots:
    """``sweep --param eta``, lossy homodyne at 1e5 shots.

    The timed workload draws a two-mode squeezed thermal state per op with
    r in [0.1, 0.5] and nu1, nu2 in [1, 2.5].  With that squeezing every
    measured principal variance stays at least 15 shot-noise standard
    deviations above the vacuum floor of ``invert_loss_homodyne``, so no op
    fails.  ``generator="random"`` (``random_state``'s defaults) is the
    census variant: it hits that floor on about one op in a hundred.
    """

    name = "sweep_eta_shots"

    def __init__(self, seed: int, workdir: Path, steps: int = 3, shots: int = 100_000,
                 generator: str = "tmst"):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.out = workdir / "sweep_eta.csv"
        self.steps = steps
        self.shots = shots
        self.generator = generator

    def _state_flags(self) -> list[str]:
        if self.generator == "random":
            return ["--generator", "random"]
        r, nu1, nu2 = self.rng.uniform(0.1, 0.5), self.rng.uniform(1.0, 2.5), self.rng.uniform(1.0, 2.5)
        return ["--generator", "tmst", "--r", repr(r), "--nu1", repr(nu1), "--nu2", repr(nu2)]

    def ops(self) -> Iterator[Op]:
        while True:
            argv = [
                "sweep", "--param", "eta", "--start", "0.5", "--stop", "1.0",
                "--steps", str(self.steps), "--detector", "lossy-homodyne",
                "--shots", str(self.shots), "--scheme", "both", *self._state_flags(),
                "--seed", str(self.rng.randrange(2**32)), "--out", str(self.out),
            ]
            yield Op(
                config=f"homodyne-{self.shots}-{self.generator}",
                points=self.steps,
                argvs=[argv],
                outputs=[self.out],
                check=lambda: check_sweep_csv(self.out, self.steps, exact=False),
            )


#: (label, extra CLI flags, exact moments?) for the reports_mixed cycle.
#: No op of these fails at the commit that defined the benchmark.
DETECTOR_CONFIGS = (
    ("ideal", [], True),
    ("homodyne-exact-0.8", ["--detector", "lossy-homodyne", "--eta", "0.8"], True),
    ("homodyne-exact-0.5", ["--detector", "lossy-homodyne", "--eta", "0.5"], True),
    ("photocount-exact-1.0", ["--detector", "lossy-photocount", "--eta", "1.0"], True),
)

#: Configs that fail at that commit, for ``census.py``; the reason in brackets.
DEFECT_CONFIGS = (
    # Every op misses the oracle [oracle_mismatch]: no loss inversion for
    # photon counting, lossy moments feed the reconstruction directly.
    ("photocount-exact-0.8", ["--detector", "lossy-photocount", "--eta", "0.8"], True),
    # Some ops exit 2 on the vacuum floor in invert_loss_homodyne, whose
    # 1e-12 slack ignores shot noise.
    ("homodyne-1000-0.8", ["--detector", "lossy-homodyne", "--eta", "0.8", "--shots", "1000"], False),
    # Some ops exit 2 on the absolute MC2_CLAMP_FAIL = 1e-6 rejection of a
    # negative |m~c|^2, which also ignores shot noise.
    ("photocount-1000-0.8", ["--detector", "lossy-photocount", "--eta", "0.8", "--shots", "1000"], False),
)

#: 65 files: six state classes, eleven of each but the last (ten).  65 is
#: coprime to the four detector configs and to the three defect configs, so
#: every file meets every config as the ops cycle.
POPULATION = 65


def _make_state(index: int, seed: int):
    from gaussbench.generators import random_state, special_form_state

    kind = index % 6
    if kind < 4:
        purity = ("pure", "mixed")[kind // 2]
        symmetry = ("symmetric", "general")[kind % 2]
        return random_state(seed, purity, symmetry)
    return special_form_state(seed, ("antidiagonal", "diagonal")[kind - 4])


class ReportsMixed:
    """``run --state F --out R`` then ``replay --report R`` over a state population."""

    name = "reports_mixed"

    def __init__(self, seed: int, workdir: Path, population: int = POPULATION,
                 configs=DETECTOR_CONFIGS):
        from gaussbench.states import quad_to_mode
        from gaussbench.stateio import save_state

        self.configs = configs
        self.rng = random.Random(f"{self.name}:{seed}")
        self.report = workdir / "report.json"
        self.states = []
        for i in range(population):
            state = _make_state(i, self.rng.randrange(2**32))
            # About half of each class goes through the mode-picture file format.
            if (i // 6) % 2:
                state = quad_to_mode(state)
            path = workdir / f"state{i:03d}.json"
            save_state(state, path)
            self.states.append(path)

    def ops(self) -> Iterator[Op]:
        i = 0
        while True:
            label, flags, exact = self.configs[i % len(self.configs)]
            run = [
                "run", "--state", str(self.states[i % len(self.states)]),
                "--scheme", "both", "--seed", str(self.rng.randrange(2**32)),
                "--out", str(self.report), *flags,
            ]
            replay = ["replay", "--report", str(self.report)]
            yield Op(
                config=label,
                points=1,
                argvs=[run, replay],
                outputs=[self.report],
                check=lambda exact=exact: check_report_json(self.report, exact),
            )
            i += 1


WORKLOADS = {w.name: w for w in (SweepR, SweepEtaShots, ReportsMixed)}
