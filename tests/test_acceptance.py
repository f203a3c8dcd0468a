"""Acceptance suite: one test per shipping criterion, one printed line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
PASS/FAIL lines; each test also fails loudly under plain pytest.
"""

import json
import math
import time

import numpy as np
import pytest

import gaussbench as gb
from gaussbench.cli import _observations
from gaussbench.cli import main as cli_main
from gaussbench.states import OMEGA
from matrix_oracle import invariants_mode

ATOL = 1e-12  # absolute guard so relative checks survive tiny invariants


def _report(number, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] criterion {number:2d}: {label}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _rel(got, want, guard=ATOL):
    return abs(got - want) / (abs(want) + guard)


def mixed_population(count, seed_offset=0):
    """Deterministic mix of pure/mixed and symmetric/general states."""
    combos = [
        ("pure", "symmetric"),
        ("pure", "general"),
        ("mixed", "symmetric"),
        ("mixed", "general"),
    ]
    for i in range(count):
        purity, symmetry = combos[i % 4]
        yield gb.random_state(seed_offset + i, purity=purity, symmetry=symmetry)


def test_criterion_01_scheme1_oracle_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    for g in mixed_population(500):
        v = gb.quad_to_mode(g)
        want = invariants_mode(v)
        got = gb.scheme1(v).invariants
        worst = max(
            worst,
            _rel(got.j1, want.j1),
            _rel(got.j2, want.j2),
            _rel(got.j3, want.j3),
        )
    elapsed = time.perf_counter() - t0
    _report(
        1,
        "protocol-1 (J1,J2,J3) matches the matrix oracle on 500 random states",
        worst <= 1e-9 and elapsed <= 10.0,
        f"max rel err {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_scheme2_oracle_equivalence():
    worst = 0.0
    worst_residual = 0.0
    for g in mixed_population(500):
        v = gb.quad_to_mode(g)
        want = invariants_mode(v)
        result = gb.scheme2(v)
        got = result.invariants
        worst = max(
            worst,
            _rel(got.j1, want.j1),
            _rel(got.j2, want.j2),
            _rel(got.j3, want.j3),
            _rel(got.j4, want.j4),
        )
        vt = gb.standard_form_prep(v).vt
        worst_residual = max(worst_residual, abs(vt.m1), abs(vt.m2))
    _report(
        2,
        "protocol-2 (J1..J4) matches the oracle and zeroes the local moments",
        worst <= 1e-9 and worst_residual < 1e-10,
        f"max rel err {worst:.2e}, max residual {worst_residual:.2e}",
    )


def test_criterion_03_tmsv_closed_forms():
    worst_ef = worst_en = 0.0
    for k in range(1, 21):
        r = k / 10.0
        result = gb.scheme2(gb.quad_to_mode(gb.tmsv_state(r)))
        ch2, sh2 = math.cosh(r) ** 2, math.sinh(r) ** 2
        ef_want = ch2 * math.log2(ch2) - sh2 * math.log2(sh2)
        en_want = 2.0 * r * math.log2(math.e)
        worst_ef = max(worst_ef, abs(result.entanglement.eof - ef_want))
        worst_en = max(worst_en, abs(result.entanglement.log_negativity - en_want))
    _report(
        3,
        "two-mode squeezed vacuum reproduces both closed-form measures",
        worst_ef <= 1e-9 and worst_en <= 1e-9,
        f"max |dE_f| {worst_ef:.2e}, max |dE_N| {worst_en:.2e}",
    )


def test_criterion_04_quadrature_mode_bridge():
    # I-values recomputed here from the 4x4 blocks with plain numpy, so the
    # 4x / 16x bridge to the mode-operator J-values is checked independently.
    j2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
    worst = 0.0
    for g in mixed_population(500, seed_offset=40000):
        m = g.entries
        a, b, c = m[:2, :2], m[2:, 2:], m[:2, 2:]
        i_direct = (
            float(np.linalg.det(a)),
            float(np.linalg.det(b)),
            float(np.linalg.det(c)),
            float(np.trace(a @ j2 @ c @ j2 @ b @ j2 @ c.T @ j2)),
        )
        jv = invariants_mode(gb.quad_to_mode(g))
        for want, got, scale in zip(i_direct, (jv.j1, jv.j2, jv.j3, jv.j4), (4, 4, 4, 16)):
            worst = max(worst, _rel(scale * got, want, guard=1e-13))
    _report(
        4,
        "quadrature and mode-operator invariants differ by exactly 4x/16x",
        worst <= 1e-10,
        f"max rel err {worst:.2e}",
    )


def test_criterion_05_special_form_identity():
    worst_special = 0.0
    for i in range(200):
        form = "diagonal" if i % 2 else "antidiagonal"
        inv = gb.invariants_quad(gb.special_form_state(i, form=form))
        worst_special = max(
            worst_special,
            abs(inv.j4 - 2.0 * abs(inv.j3) * math.sqrt(inv.j1 * inv.j2)) / inv.j4,
        )
    violated = 0
    for i in range(200):
        inv = gb.invariants_quad(
            gb.random_state(10000 + i, purity="mixed", symmetry="general")
        )
        dev = abs(inv.j4 - 2.0 * abs(inv.j3) * math.sqrt(inv.j1 * inv.j2)) / abs(inv.j4)
        if dev > 1e-9:
            violated += 1
    _report(
        5,
        "J4 closed form holds for special cross blocks and fails generically",
        worst_special <= 1e-9 and violated >= 190,
        f"special max dev {worst_special:.2e}, {violated}/200 generic violations",
    )


def test_criterion_06_simon_vs_ppt():
    flip = np.diag([1.0, 1.0, 1.0, -1.0])
    band = 1e-7
    in_band = disagreements = 0
    for g in mixed_population(1000, seed_offset=20000):
        moduli = np.sort(np.abs(np.linalg.eigvals(1j * OMEGA @ (flip @ g.entries @ flip))))
        nu = float((moduli[0] + moduli[1]) / 2.0)
        if abs(nu - 1.0) <= band:
            in_band += 1
            continue
        separable, _ = gb.simon_separable(gb.invariants_quad(g))
        if separable != (nu >= 1.0):
            disagreements += 1
    _report(
        6,
        "separability verdict agrees with brute-force PPT on 1000 states",
        disagreements == 0,
        f"{disagreements} disagreements, {in_band} states inside the boundary band",
    )


def test_criterion_07_bound_ordering():
    # The strictness clause can only bite on entangled states (both sides
    # are zero for separable ones), so the population filters for EoF > 0.
    accepted = 0
    seed = 0
    ordering_ok = True
    strict_ok = True
    while accepted < 500:
        assert seed < 5000, "population filter failed to find enough states"
        g = gb.random_state(
            30000 + seed,
            purity="mixed" if seed % 2 else "pure",
            symmetry="symmetric",
        )
        seed += 1
        inv = gb.invariants_quad(g)
        rep = gb.entanglement_report(inv)
        assert not math.isnan(rep.eof) and not math.isnan(rep.eof_lower_bound)
        eof = rep.eof
        if eof <= 1e-9:
            continue
        accepted += 1
        bound = rep.eof_lower_bound
        if bound > eof + 1e-12:
            ordering_ok = False
        if 16 * inv.j4 > 1e-6 and not bound < eof:
            strict_ok = False
    _report(
        7,
        "zeroed-I4 bound never exceeds the symmetric EoF and is strict",
        ordering_ok and strict_ok,
        f"500 entangled symmetric states from {seed} draws",
    )


def test_criterion_08_loss_correction():
    worst = 0.0
    states = [gb.quad_to_mode(g) for g in mixed_population(10, seed_offset=5000)]
    states.append(gb.quad_to_mode(gb.tmsv_state(0.5)))
    for eta in (0.5, 0.7, 0.9):
        det = gb.DetectorModel(kind="lossy-homodyne", eta=eta)
        for v in states:
            ideal = gb.scheme2(v).invariants
            lossy = gb.scheme2(v, det).invariants
            worst = max(
                worst,
                _rel(lossy.j1, ideal.j1),
                _rel(lossy.j2, ideal.j2),
                _rel(lossy.j3, ideal.j3),
                _rel(lossy.j4, ideal.j4),
            )
    _report(
        8,
        "loss-corrected homodyne runs match the ideal run at eta 0.5/0.7/0.9",
        worst <= 1e-9,
        f"max rel err {worst:.2e}",
    )


def test_criterion_09_finite_statistics():
    t0 = time.perf_counter()
    v = gb.quad_to_mode(gb.tmsv_state(0.5))
    ideal = invariants_mode(v)
    keys = ("j1", "j2", "j3", "j4")

    # empirical mean at 1e5 shots over 100 seeded repetitions
    det = gb.DetectorModel(kind="lossy-homodyne", eta=1.0, shots=100000)
    values = {k: [] for k in keys}
    for rep in range(100):
        result = gb.scheme2(v, det, seed=1000 + rep)
        for k in keys:
            values[k].append(getattr(result.invariants, k))
    mean_ok = True
    pulls = {}
    for k in keys:
        arr = np.asarray(values[k])
        se = arr.std(ddof=1) / math.sqrt(len(arr))
        pulls[k] = abs(arr.mean() - getattr(ideal, k)) / se
        if pulls[k] > 3.0:
            mean_ok = False

    # shot-noise scaling of the spread across four decades
    levels = (1000, 10000, 100000, 1000000)
    nreps = {1000: 80, 10000: 80, 100000: 60, 1000000: 24}
    sds = {k: [] for k in keys}
    for shots in levels:
        det = gb.DetectorModel(kind="lossy-homodyne", eta=1.0, shots=shots)
        samples = {k: [] for k in keys}
        for rep in range(nreps[shots]):
            result = gb.scheme2(v, det, seed=shots * 31 + rep)
            for k in keys:
                samples[k].append(getattr(result.invariants, k))
        for k in keys:
            sds[k].append(np.std(samples[k], ddof=1))
    slope_ok = True
    slopes = {}
    log_shots = np.log10(levels)
    for k in keys:
        slopes[k] = float(np.polyfit(log_shots, np.log10(sds[k]), 1)[0])
        if not -0.6 <= slopes[k] <= -0.4:
            slope_ok = False

    elapsed = time.perf_counter() - t0
    worst_pull = max(pulls.values())
    slope_span = f"[{min(slopes.values()):+.2f}, {max(slopes.values()):+.2f}]"
    _report(
        9,
        "finite-shot means are unbiased and spreads scale like shots^-1/2",
        mean_ok and slope_ok and elapsed <= 60.0,
        f"worst pull {worst_pull:.2f} sigma, slopes {slope_span}, {elapsed:.1f}s",
    )


def test_criterion_10_determinism_and_replay(tmp_path):
    # identical seeds through the CLI must give byte-identical reports
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        code = cli_main(
            ["run", "--generator", "random", "--seed", "42", "--out", str(path)]
        )
        assert code == 0
    identical = paths[0].read_bytes() == paths[1].read_bytes()

    # and each report's embedded transcripts, its observations, must replay
    # to the same values
    replay_exit = cli_main(["replay", "--report", str(paths[0])])
    report = json.loads(paths[0].read_text())
    exact = True
    for name in ("scheme1", "scheme2"):
        section = report[name]
        records = _observations(section["observations"])
        inv = gb.reconstruct_from_transcript(records, name, section.get("special_form")).invariants
        for key in ("j1", "j2", "j3", "j4"):
            want = section["invariants"][key]
            got = getattr(inv, key)
            if (want is None) != math.isnan(got) or (want is not None and got != want):
                exact = False
    _report(
        10,
        "seeded reports are byte-identical and transcripts replay exactly",
        identical and replay_exit == 0 and exact,
        "2 reports compared, 2 transcripts replayed",
    )
