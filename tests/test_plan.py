"""One bench call per measurement plan, against the per-entry loop it replaced.

``scheme1`` and ``scheme2`` read a whole plan with one ``observe_mode1``
call over a leading settings axis; ``plan_oracle`` keeps the loop that read
one setting per call, each entry on its slice of the plan's one draw.  Every
field of every observation, the transcript that reconstruction reads, must
agree exactly, for one state, a batch of states and an eta grid, and a
finite-shot plan builds one generator for all its entries.
"""

import numpy as np
import pytest

import gaussbench as gb
from gaussbench.bench import BenchSetting
from gaussbench.schemes import SCHEME1_PLAN, SCHEME2_PLAN, PlanEntry
from plan_oracle import run_plan_by_entry


def random_plan(seed, count=7):
    """Settings off the plans' grid, where rounding in the closed forms shows."""
    rng = np.random.default_rng(seed)
    return tuple(
        PlanEntry(BenchSetting(rng.uniform(0.0, np.pi / 2), rng.uniform(-np.pi, np.pi)), ("N", "J"))
        for _ in range(count)
    )


PLANS = {"scheme1": SCHEME1_PLAN, "scheme2": SCHEME2_PLAN, "random": random_plan(31)}

#: (input, plan) pairs.  Off the plans' grid only a batch is compared: for
#: one state the per-entry route multiplies Python complex numbers, which
#: round differently from numpy's complex arrays in the last bit.  On the
#: plans' grid every phase factor and its square has parts 0, +-1 or below
#: 3e-16 in size, and the two products agree there.
CASES = [(where, plan) for where in ("one", "batch", "eta") for plan in ("scheme1", "scheme2")]
CASES.append(("batch", "random"))

DETECTORS = {
    "ideal": {},
    "homodyne-exact": {"kind": "lossy-homodyne", "eta": 0.7},
    "photocount-exact": {"kind": "lossy-photocount", "eta": 0.8},
    "homodyne-shots": {"kind": "lossy-homodyne", "eta": 0.8, "shots": 3000},
    "photocount-shots": {"kind": "lossy-photocount", "eta": 0.9, "shots": 3000},
    # Few shots, so that some noisy j' fall non-positive and leave NaN purities.
    "homodyne-few-shots": {"kind": "lossy-homodyne", "eta": 0.5, "shots": 3},
    "photocount-few-shots": {"kind": "lossy-photocount", "eta": 0.5, "shots": 20},
}

COMBOS = (("pure", "symmetric"), ("pure", "general"), ("mixed", "symmetric"), ("mixed", "general"))
MODE_FIELDS = ("n1", "n2", "m1", "m2", "ms", "mc")


def modes(count, seed_offset):
    return [
        gb.quad_to_mode(gb.random_state(seed_offset + i, *COMBOS[i % 4])) for i in range(count)
    ]


def source(name, detector):
    """The input and the detector: one state, a 12-point batch, or one state over an eta grid."""
    if name == "one":
        return modes(1, 71000)[0], gb.DetectorModel(**detector)
    if name == "batch":
        batch = modes(12, 72000)
        stacked = {f: np.array([getattr(v, f) for v in batch]) for f in MODE_FIELDS}
        return gb.ModeCovariance(**stacked), gb.DetectorModel(**detector)
    grid = np.ones(5) if "eta" not in detector else np.linspace(0.55, 1.0, 5)
    return modes(1, 73000)[0], gb.DetectorModel(**{**detector, "eta": grid})


def run_plan(v, plan, det, seed):
    """The observations of ``plan``, as a scheme reads them: one bench call."""
    return gb.observe_mode1(v, [entry.setting for entry in plan], det, seed)


def assert_same(got, want):
    """Exactly equal, NaN matching NaN; a plain number for one state, an array for a batch."""
    if want is None:
        assert got is None
        return
    assert isinstance(got, np.ndarray) == isinstance(want, np.ndarray)
    assert np.shape(got) == np.shape(want)
    assert np.array_equal(got, want, equal_nan=True)


@pytest.mark.parametrize("where, plan", CASES, ids=["-".join(case) for case in CASES])
@pytest.mark.parametrize("detector", DETECTORS)
def test_plan_call_equals_the_per_entry_loop(detector, where, plan):
    v, det = source(where, DETECTORS[detector])
    got_obs = run_plan(v, PLANS[plan], det, np.random.SeedSequence(8128))
    want_obs = run_plan_by_entry(v, PLANS[plan], det, np.random.SeedSequence(8128))
    assert len(got_obs) == len(want_obs) == len(PLANS[plan])
    for got, want in zip(got_obs, want_obs):
        assert got.setting == want.setting
        for field in ("n_prime", "j_prime", "purity", "n_stderr", "j_stderr"):
            assert_same(getattr(got, field), getattr(want, field))


def test_few_shots_reach_nan_purities():
    # The few-shot configs above do cover the NaN branch of the purity.
    v, det = source("batch", DETECTORS["photocount-few-shots"])
    observations = run_plan(v, SCHEME1_PLAN, det, np.random.SeedSequence(8128))
    assert any(np.isnan(obs.purity).any() for obs in observations)


@pytest.mark.parametrize(
    "det",
    [gb.DetectorModel(), gb.DetectorModel(kind="lossy-homodyne", eta=0.4)],
    ids=["ideal", "homodyne-exact"],
)
@pytest.mark.parametrize("batch", [False, True], ids=["one", "batch"])
def test_below_floor_reading_raises_the_same_error(det, batch):
    # At theta = pi/4, n' = 1/2 - Re(ms e^{-i phi}) for n1 = n2 = 1/2: ms =
    # 0.5625 falls below the floor at phi = 0 (entry 2), ms = 0.6i only at
    # phi = pi/2 (entry 3).  Point 1 comes first in the batch, entry 2 first
    # in the plan, and the plan order names the reading.
    ms = np.zeros(8, dtype=complex)
    ms[1], ms[5] = 0.6j, 0.5625
    v = gb.ModeCovariance(0.5, 0.5, ms=ms if batch else 0.5625)
    with pytest.raises(gb.UnphysicalMeasurementError) as want:
        run_plan_by_entry(v, SCHEME1_PLAN, det, 5)
    with pytest.raises(gb.UnphysicalMeasurementError) as got:
        run_plan(v, SCHEME1_PLAN, det, 5)
    assert str(got.value) == str(want.value)
    assert "n' = -0.0625" in str(got.value)


@pytest.mark.parametrize("plan", PLANS)
@pytest.mark.parametrize("where", ["one", "batch", "eta"])
@pytest.mark.parametrize("kind", ["lossy-homodyne", "lossy-photocount"])
def test_finite_shot_plan_builds_one_generator_per_entry(kind, where, plan, monkeypatch):
    # The name is older than the layout: every entry now draws from one
    # generator, built from the call's seed itself, which spawns no child.
    v, det = source(where, {"kind": kind, "eta": 0.8, "shots": 3000})
    settings = [entry.setting for entry in PLANS[plan]]
    built = []
    default_rng = np.random.default_rng

    def counting_rng(seed):
        built.append(seed)
        return default_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", counting_rng)
    seq = np.random.SeedSequence(99)
    gb.observe_mode1(v, settings, det, seed=seq)
    assert len(built) == 1 and built[0] is seq
    assert seq.n_children_spawned == 0


@pytest.mark.parametrize("plan", PLANS)
@pytest.mark.parametrize("where", ["one", "batch", "eta"])
@pytest.mark.parametrize("detector", ["ideal", "homodyne-exact", "photocount-exact"])
def test_exact_plan_spawns_no_seed_children(detector, where, plan):
    # Exact readings draw nothing, so a caller's SeedSequence is left as it was.
    v, det = source(where, DETECTORS[detector])
    seq = np.random.SeedSequence(99)
    gb.observe_mode1(v, [entry.setting for entry in PLANS[plan]], det, seed=seq)
    assert seq.n_children_spawned == 0
