"""The golden population: the command lines whose outputs ``regen.py`` digests.

``steps(reports)`` lists them in run order.  A step is either an argument
list for ``gaussbench.cli.main`` or a ``Prepare`` that writes input files
into the working directory (state files from seeds, copies of the committed
older reports, spoiled copies of reports that earlier steps wrote); a
preparation has no digest.  Every path is relative to the working directory,
so the bytes a call writes do not depend on where it runs, and every JSON
report a run writes is replayed by the next step.

The population covers:

* ``run``, ``oracle``, ``scheme1`` and ``scheme2`` on random states of seeds
  0-5, with four detectors and both formats;
* ``run`` with the four parameterised generators, three detectors and both
  formats;
* ``run`` on 24 state files of the six state classes of the benchmark's
  ``reports_mixed`` workload (half in the mode convention), five detectors,
  both formats;
* both sweep axes with each ``--scheme``, in both formats, and the
  benchmark's finite-shot eta sweep shape;
* finite-shot sweeps along both grid axes, a noisy report with a negative
  J1, an exact r sweep from 0 and ``validate`` payloads;
* reports, tables and payloads written to stdout;
* ``--config`` files, valid and not, and malformed state files;
* ``validate``, configuration and usage errors, ``sweep``'s among them;
* replays of every report written, of the committed older reports, and of
  copies spoiled in ways that replay must reject, transcripts and section
  keys that no run writes among them, and of a shuffled transcript, which
  replay takes;
* states already in standard form at one mode or both and a symmetric
  TMST, a mode file whose quadrature form overflows, a physical state whose
  det V overflows, and an r sweep with one point that fails on any CPU.
"""

from __future__ import annotations

import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

#: Detector flags of the random-state and state-file runs.
DETECTORS = (
    (),
    ("--detector", "lossy-homodyne", "--eta", "0.8"),
    ("--detector", "lossy-photocount", "--eta", "0.9"),
    ("--detector", "lossy-homodyne", "--eta", "0.8", "--shots", "5000"),
)
STATE_FILE_DETECTORS = DETECTORS + (
    ("--detector", "lossy-photocount", "--eta", "0.8", "--shots", "20000"),
)
GENERATOR_DETECTORS = (
    (),
    ("--detector", "lossy-homodyne", "--eta", "0.7", "--shots", "2000"),
    ("--detector", "lossy-photocount", "--eta", "0.5"),
)
GENERATORS = (
    ("--generator", "vacuum"),
    ("--generator", "tmsv", "--r", "0.7"),
    ("--generator", "thermal", "--nu1", "1.5", "--nu2", "1.2"),
    ("--generator", "tmst", "--r", "0.4", "--nu1", "1.3", "--nu2", "1.1"),
)
#: The six state classes of the benchmark's reports_mixed population.
STATE_CLASSES = (
    ("random", "pure", "symmetric"),
    ("random", "pure", "general"),
    ("random", "mixed", "symmetric"),
    ("random", "mixed", "general"),
    ("special", "antidiagonal"),
    ("special", "diagonal"),
)
STATE_FILES = 24

#: The finite-shot run whose report the negated-stderr copies spoil.
FINITE_SHOT_RUN = (
    "run", "--generator", "random", "--seed", "7",
    "--detector", "lossy-homodyne", "--eta", "0.8", "--shots", "5000",
)

_QUAD_VACUUM = [1 if i % 5 == 0 else 0 for i in range(16)]

#: Input files by name, written as given: config files, then state files
#: that ``run`` and ``validate`` must reject (exit 1) or find unphysical (exit 2).
INPUT_FILES = {
    "config-run.json": {"generator": "tmst", "r": 0.4, "nu1": 1.3, "nu2": 1.1,
                        "detector": "lossy-photocount", "eta": 0.9, "scheme": "scheme2"},
    "config-sweep.json": {"param": "r", "start": 0, "stop": 1, "steps": 5, "format": "json"},
    "config-null.json": {"generator": "tmsv", "r": None},
    "config-bool-steps.json": {"steps": True},
    "config-string-r.json": {"r": "half"},
    "config-bad-choice.json": {"format": "xml"},
    "config-unknown-key.json": {"bogus": 1},
    "config-command-key.json": {"command": "sweep"},
    "config-list.json": [],
    "state-bool-entry.json": {"format": "quad", "entries": [True] + _QUAD_VACUUM[1:]},
    "state-string-entry.json": {"format": "quad", "entries": ["1"] + _QUAD_VACUUM[1:]},
    "state-wrong-shape.json": {"format": "quad", "entries": [1, 0, 0]},
    "state-nested.json": {
        "format": "quad", "entries": [_QUAD_VACUUM[i:i + 4] for i in (0, 4, 8, 12)]
    },
    "state-ragged.json": {"format": "quad", "entries": [[1, 0], [1]]},
    "state-mode-missing-keys.json": {"format": "mode", "entries": {"n1": 0.5}},
    "state-mode-not-an-object.json": {"format": "mode", "entries": [0.5, 0.5]},
    "state-mode-bool-n1.json": {"format": "mode", "entries": {"n1": True, "n2": 0.5}},
    "state-mode-bad-pair.json": {
        "format": "mode", "entries": {"n1": 0.5, "n2": 0.5, "m1": [1, 2, 3]}
    },
    "state-mode-real-pair.json": {"format": "mode", "entries": {"n1": 1.0, "n2": 1.0, "mc": 0.5}},
    "state-huge-integer.json": {"format": "quad", "entries": [10**400] + _QUAD_VACUUM[1:]},
    "state-mode-huge-integer.json": {"format": "mode", "entries": {"n1": 10**400, "n2": 0.5}},
    "state-unknown-format.json": {"format": "wigner", "entries": []},
    "state-no-entries.json": {"format": "quad"},
    "state-list.json": _QUAD_VACUUM,
    "state-asymmetric.json": {"format": "quad", "entries": [1, 0.1] + _QUAD_VACUUM[2:]},
    "state-not-positive-definite.json": {
        "format": "quad", "entries": [-1 if i == 15 else x for i, x in enumerate(_QUAD_VACUUM)]
    },
}


#: State files written after the rest, so the calls before them keep their
#: paths: two mode files already in standard form at one mode or both (a
#: -0.0 cross entry in one), a mode file whose quadrature form overflows and
#: a quadrature file whose det V overflows, though it is physical.
LATE_STATE_FILES = {
    "state-mode-standard-form.json": {
        "format": "mode", "entries": {"n1": 1.2, "n2": 0.9, "ms": [-0.0, 0.1], "mc": [0.3, -0.0]}
    },
    "state-mode-m1-zero.json": {
        "format": "mode", "entries": {"n1": 1.0, "n2": 1.1, "m2": [0.3, 0.2], "mc": [0.4, 0.0]}
    },
    "state-mode-quad-overflow.json": {"format": "mode", "entries": {"n1": 1e308, "n2": 0.5}},
    "state-det-v-overflow.json": {
        "format": "quad", "entries": [1e200, 0, 0, 0, 0, 2e200, 0, 0, 0, 0, 1e200, 0, 0, 0, 0, 2e200]
    },
}


@dataclass(frozen=True)
class Prepare:
    """Write input files into the working directory; ``label`` names the step."""

    label: str
    write: Callable[[], None]


def _write_state_files() -> None:
    from gaussbench import quad_to_mode, random_state, save_state, special_form_state

    for i in range(STATE_FILES):
        kind, *params = STATE_CLASSES[i % len(STATE_CLASSES)]
        seed = 1000 + i
        state = random_state(seed, *params) if kind == "random" else special_form_state(seed, *params)
        if (i // len(STATE_CLASSES)) % 2:
            state = quad_to_mode(state)
        save_state(state, f"state{i:02d}.json")


def _spoil(source: str, target: str, edit) -> Prepare:
    """A copy of the report ``source`` with ``edit`` applied, as ``target``."""

    def write() -> None:
        report = json.loads(Path(source).read_text(encoding="utf-8"))
        edit(report)
        Path(target).write_text(json.dumps(report), encoding="utf-8")

    return Prepare(f"spoil {source} as {target}", write)


def _scale(*path_and_factor):
    *path, key, factor = path_and_factor

    def edit(report):
        node = report
        for part in path:
            node = node[part]
        node[key] *= factor

    return edit


def _put(*path_and_value):
    *path, key, value = path_and_value

    def edit(report):
        node = report
        for part in path:
            node = node[part]
        node[key] = value

    return edit


def _set_log_negativity(report):
    report["scheme2"]["entanglement"]["log_negativity"] = 42


def _write_files(files: dict) -> Callable[[], None]:
    def write() -> None:
        for name, payload in files.items():
            Path(name).write_text(json.dumps(payload), encoding="utf-8")

    return write


def _observe_scheme1_off_plan(report):
    """Append an observation at theta = 0.3, a setting no plan has."""
    observations = report["scheme1"]["observations"]
    observations.append({**observations[0], "theta": 0.3})


def _drop_scheme1_last_observation(report):
    report["scheme1"]["observations"].pop()


def _shuffle_observations(report):
    for name in ("scheme1", "scheme2"):
        report[name]["observations"].reverse()


def _observe_scheme1_theta0_twice(report):
    """Append a second observation at (0, 0), its J x1.5 and purity derived again."""
    observations = report["scheme1"]["observations"]
    twin = {**observations[0], "j_prime": 1.5 * observations[0]["j_prime"]}
    twin["purity"] = 1.0 / (2.0 * math.sqrt(twin["j_prime"]))
    observations.append(twin)


class _Steps:
    def __init__(self):
        self.steps: list = []

    def call(self, *argv: str) -> None:
        self.steps.append(list(argv))

    def written(self, *argv: str, suffix: str) -> str:
        """Call ``argv`` with a fresh ``--out`` path, and return the path."""
        out = f"out{len(self.steps):04d}.{suffix}"
        self.call(*argv, "--out", out)
        return out

    def report(self, *argv: str, fmt: str = "json") -> str:
        """Call ``argv`` in format ``fmt``; a JSON report is replayed next."""
        out = self.written(*argv, "--format", fmt, suffix=fmt)
        if fmt == "json":
            self.call("replay", "--report", out)
        return out


def steps(reports: Path) -> list:
    """The population, in run order; ``reports`` holds the committed older reports."""
    s = _Steps()
    s.steps.append(Prepare("state files", _write_state_files))
    s.steps.append(Prepare("input files", _write_files(INPUT_FILES)))

    for seed in range(6):
        for command in ("run", "oracle", "scheme1", "scheme2"):
            for det in DETECTORS:
                for fmt in ("json", "csv"):
                    s.report(command, "--generator", "random", "--seed", str(seed), *det, fmt=fmt)

    for generator in GENERATORS:
        for det in GENERATOR_DETECTORS:
            for fmt in ("json", "csv"):
                s.report("run", *generator, "--seed", "5", *det, fmt=fmt)

    for i in range(STATE_FILES):
        for det in STATE_FILE_DETECTORS:
            for fmt in ("json", "csv"):
                s.report("run", "--state", f"state{i:02d}.json", "--seed", str(i), *det, fmt=fmt)

    for scheme in ("oracle", "scheme1", "scheme2", "both"):
        for fmt in ("csv", "json"):
            s.written(
                "sweep", "--param", "r", "--start", "0", "--stop", "2", "--steps", "11",
                "--generator", "tmst", "--nu1", "1.3", "--nu2", "1.1",
                "--scheme", scheme, "--format", fmt, suffix=fmt,
            )
            s.written(
                "sweep", "--param", "eta", "--start", "0.6", "--stop", "1", "--steps", "5",
                "--generator", "random", "--seed", "7", "--detector", "lossy-homodyne",
                "--shots", "5000", "--scheme", scheme, "--format", fmt, suffix=fmt,
            )
    # The benchmark's sweep_eta_shots op.
    for r, nu1, nu2, seed in (("0.3", "1.4", "1.9", "11"), ("0.1", "2.5", "1.0", "4294967295"),
                              ("0.5", "1.0", "1.0", "0"), ("0.25", "1.7", "2.2", "18446744073709551621")):
        s.written(
            "sweep", "--param", "eta", "--start", "0.5", "--stop", "1.0", "--steps", "3",
            "--detector", "lossy-homodyne", "--shots", "100000", "--scheme", "both",
            "--generator", "tmst", "--r", r, "--nu1", nu1, "--nu2", nu2, "--seed", seed,
            suffix="csv",
        )

    # Finite-shot sweeps along both grid axes that a plan's settings broadcast
    # against, a noisy report with a negative J1, an exact r sweep from 0 with
    # cells repeated across columns, and validate payloads from LAPACK.
    finite = s.report(*FINITE_SHOT_RUN)
    s.written(
        "sweep", "--param", "eta", "--start", "0.6", "--stop", "1", "--steps", "5",
        "--scheme", "scheme1", "--generator", "random", "--seed", "7",
        "--detector", "lossy-homodyne", "--shots", "5000", suffix="csv",
    )
    s.written(
        "sweep", "--param", "r", "--start", "0", "--stop", "2", "--steps", "21", "--generator",
        "tmst", "--nu1", "1.3", "--nu2", "1.1", "--scheme", "both", "--format", "json",
        suffix="json",
    )
    s.report(
        "run", "--generator", "random", "--seed", "7", "--detector", "lossy-photocount",
        "--eta", "0.9", "--shots", "20000", fmt="csv",
    )
    s.written(
        "sweep", "--param", "eta", "--start", "0.6", "--stop", "1", "--steps", "5",
        "--scheme", "both", "--generator", "random", "--seed", "7",
        "--detector", "lossy-photocount", "--shots", "20000", suffix="csv",
    )
    s.written(
        "sweep", "--param", "r", "--start", "0", "--stop", "1", "--steps", "11",
        "--scheme", "scheme2", "--generator", "tmsv", "--seed", "7",
        "--detector", "lossy-homodyne", "--eta", "0.8", "--shots", "5000", suffix="csv",
    )
    s.report(
        "run", "--generator", "random", "--seed", "286", "--detector", "lossy-homodyne",
        "--eta", "0.8", "--shots", "1000",
    )
    s.written("sweep", "--param", "r", "--start", "0", "--stop", "4", "--steps", "9",
              "--scheme", "both", suffix="csv")
    s.written(
        "sweep", "--param", "r", "--start", "0", "--stop", "2", "--steps", "21", "--generator",
        "tmst", "--nu1", "1.3", "--nu2", "1.1", "--scheme", "oracle", suffix="csv",
    )
    s.written("validate", "--generator", "random", "--seed", "7", suffix="json")
    s.written("validate", "--generator", "tmsv", "--r", "4.4", suffix="json")

    for name in ("log-negativity-42", "purity-x1.001"):
        edit = _set_log_negativity if name == "log-negativity-42" else _scale(
            "scheme1", "observations", 0, "purity", 1.001)
        s.steps.append(_spoil(finite, f"{name}.json", edit))
        s.call("replay", "--report", f"{name}.json")

    # Replay rejects a negative standard error and a plan setting observed twice.
    for section, index, key in (("scheme1", 0, "n_stderr"), ("scheme2", 2, "j_stderr")):
        target = f"negative-{section}-{key}.json"
        s.steps.append(_spoil(finite, target, _scale(section, "observations", index, key, -1.0)))
        s.call("replay", "--report", target)
    exact = s.report("run", "--generator", "random", "--seed", "3")
    s.steps.append(_spoil(exact, "observed-twice.json", _observe_scheme1_theta0_twice))
    s.call("replay", "--report", "observed-twice.json")
    # Replay rejects an observation off the plan and a missing one, and takes
    # a shuffled transcript.
    tmsv = s.report("run", "--generator", "tmsv", "--r", "0.5")
    for target, edit in (("off-plan.json", _observe_scheme1_off_plan),
                         ("missing-observation.json", _drop_scheme1_last_observation),
                         ("shuffled.json", _shuffle_observations)):
        s.steps.append(_spoil(tmsv, target, edit))
        s.call("replay", "--report", target)

    # Replay rejects numbers that are not JSON numbers or not finite (written
    # as the standard library's NaN token), a malformed oracle and a special
    # form on scheme 2.
    for target, edit in (
        ("string-theta.json", _put("scheme1", "observations", 0, "theta", "0")),
        ("nan-n-prime.json", _put("scheme1", "observations", 0, "n_prime", math.nan)),
        ("string-oracle-j1.json", _put("oracle", "invariants", "j1", "1")),
        ("scheme2-special-form.json", _put("scheme2", "special_form", "diagonal")),
    ):
        s.steps.append(_spoil(tmsv, target, edit))
        s.call("replay", "--report", target)
    s.steps.append(Prepare("a report that is not JSON",
                           lambda: Path("not-json.json").write_text("{", encoding="utf-8")))
    s.call("replay", "--report", "not-json.json")

    # Reports written by older versions still replay, and their copies are checked.
    old = sorted(p.name for p in reports.glob("*.json"))
    s.steps.append(Prepare("older reports", lambda: [shutil.copy(reports / n, n) for n in old]))
    for name in old:
        s.call("replay", "--report", name)
    s.steps.append(_spoil("exact.json", "old-i1-x1.001.json", _scale("scheme2", "invariants", "i1", 1.001)))
    s.call("replay", "--report", "old-i1-x1.001.json")

    # Written to stdout.
    s.call("run", "--generator", "tmsv", "--r", "0.5")
    s.call("run", "--generator", "random", "--seed", "2", "--format", "csv")
    s.call("sweep", "--param", "r", "--start", "0", "--stop", "1", "--steps", "3")
    s.call("validate", "--generator", "tmsv")

    # Config files: explicit flags win, and a file value passes its flag's checks.
    s.report("run", "--config", "config-run.json")
    s.report("run", "--config", "config-run.json", "--r", "0.6", "--scheme", "both")
    s.report("scheme1", "--config", "config-null.json")
    s.written("sweep", "--config", "config-sweep.json", suffix="json")
    s.written("sweep", "--config", "config-sweep.json", "--format", "csv", suffix="csv")
    s.written("validate", "--config", "config-null.json", suffix="json")
    for argv in (
        ("sweep", "--param", "r", "--start", "0", "--stop", "1",
         "--config", "config-bool-steps.json"),
        ("run", "--generator", "tmsv", "--config", "config-string-r.json"),
        ("run", "--generator", "tmsv", "--config", "config-bad-choice.json"),
        ("run", "--generator", "tmsv", "--config", "config-unknown-key.json"),
        ("run", "--generator", "tmsv", "--config", "config-command-key.json"),
        ("replay", "--config", "config-unknown-key.json"),
        ("run", "--generator", "tmsv", "--config", "config-list.json"),
        ("run", "--generator", "tmsv", "--config", "missing.json"),
    ):
        s.call(*argv)

    # State files that no state comes from, and two that are not physical.
    for name in INPUT_FILES:
        if name.startswith("state-"):
            s.report("run", "--state", name)
            s.written("validate", "--state", name, suffix="json")

    for i in range(6):
        s.written("validate", "--state", f"state{i:02d}.json", suffix="json")
    for argv in (
        ("validate", "--generator", "vacuum"),
        ("validate", "--generator", "thermal", "--nu1", "0.5", "--nu2", "1.0"),
        ("run", "--generator", "thermal", "--nu1", "1e308", "--nu2", "1.0"),
        ("run", "--generator", "tmsv", "--r", "1000"),
        # Exit not pinned ("*" in exits.txt): nu_minus - 1 at r = 5, 5.5 and 6
        # lies within the rounding of cosh and sinh, whose last bits differ
        # between numpy's SIMD dispatches, so the verdict does too.  Its
        # digest still compares two hash seeds.
        ("sweep", "--param", "r", "--start", "4", "--stop", "6", "--steps", "5"),
    ):
        s.written(*argv, suffix="txt")
    for argv in (
        (),
        ("bogus",),
        ("run",),
        ("run", "--generator", "tmsv", "--bogus"),
        ("run", "--generator", "tmsv", "--seed", "-1"),
        ("run", "--generator", "tmsv", "--state", "state00.json"),
        ("run", "--generator", "random", "--r", "0.5"),
        ("run", "--generator", "tmsv", "--detector", "lossy-homodyne", "--shots", "1"),
        ("run", "--generator", "tmsv", "--eta", "0.5"),
        ("run", "--generator", "tmsv", "--detector", "lossy-photocount", "--eta", "1e-164"),
        ("run", "--generator", "tmsv", "--detector", "lossy-homodyne", "--eta", "1e-168"),
        ("run", "--generator", "tmsv", "--format", "xml"),
        ("sweep", "--param", "r", "--start", "0", "--stop", "1", "--steps", "0"),
        ("sweep", "--param", "eta", "--start", "0.5", "--stop", "1", "--steps", "3", "--eta", "0.5",
         "--generator", "tmsv"),
        ("sweep", "--start", "0", "--stop", "1", "--steps", "3"),
        ("sweep", "--param", "r", "--stop", "1", "--steps", "3"),
        ("sweep", "--param", "r", "--start", "0", "--stop", "1", "--steps", "10001"),
        ("sweep", "--param", "r", "--start=-1e308", "--stop", "1e308", "--steps", "3"),
        ("sweep", "--param", "r", "--start", "0", "--stop", "inf", "--steps", "3"),
        ("sweep", "--param", "r", "--start", "0", "--stop", "1", "--steps", "3", "--r", "0.5"),
        ("sweep", "--param", "r", "--start", "0", "--stop", "1", "--steps", "3",
         "--state", "state00.json"),
        ("sweep", "--param", "r", "--start", "0", "--stop", "1", "--steps", "3",
         "--generator", "thermal"),
        ("sweep", "--param", "eta", "--start", "0.5", "--stop", "1", "--steps", "3",
         "--generator", "tmsv"),
        ("sweep", "--param", "theta", "--start", "0", "--stop", "1", "--steps", "3"),
        ("sweep", "--param", "r", "--start", "0", "--stop", "1", "--steps", "x"),
        ("validate", "--generator", "tmsv", "--seed", "3"),
        ("replay",),
        ("replay", "--report", "missing.json"),
        ("replay", "--report", "state00.json"),
    ):
        s.call(*argv)

    # Both sides of scheme 2's return for a state already in standard form,
    # and of the EoF's for a call with no symmetric point: two mode files in
    # standard form at both modes or at mode 1 only, and a symmetric TMST.
    s.steps.append(Prepare("late state files", _write_files(LATE_STATE_FILES)))
    for det in DETECTORS:
        for name in ("state-mode-standard-form.json", "state-mode-m1-zero.json"):
            s.report("run", "--state", name, "--seed", "3", *det)
        s.report("run", "--generator", "tmst", "--r", "0.4", "--nu1", "1.2", "--nu2", "1.2",
                 "--seed", "3", *det)
    # A mode file whose quadrature form overflows (exit 1), a physical state
    # whose det V overflows (exit 2), and an r sweep whose last point is
    # unphysical on any CPU: at r = 180 cosh 2r and sinh 2r round alike
    # (singular gamma) or, if they did not, J1 would overflow (exit 2).
    for argv in (
        ("run", "--state", "state-mode-quad-overflow.json"),
        ("run", "--state", "state-det-v-overflow.json"),
        ("sweep", "--param", "r", "--start", "0.5", "--stop", "180", "--steps", "2"),
    ):
        s.written(*argv, suffix="txt")
    # Replay rejects a scheme-section key that no run writes, beside the
    # older keys it takes unchecked.
    s.steps.append(_spoil("exact.json", "old-unknown-key.json", _put("scheme1", "bogus", 1)))
    s.call("replay", "--report", "old-unknown-key.json")
    return s.steps
