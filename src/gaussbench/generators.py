"""Seeded constructors for two-mode Gaussian covariance matrices.

Random states are built Williamson-style, gamma = S diag(nu1, nu1, nu2, nu2)
S^T with nu_i >= 1 and S a composition of local rotations, local squeezers
and beam-splitter symplectics.  This guarantees physicality by construction
and makes the symplectic spectrum (nu1, nu2) available as a free oracle.
"""

from __future__ import annotations

import math

import numpy as np

from .states import QuadCovariance

__all__ = [
    "vacuum_state",
    "tmsv_state",
    "thermal_state",
    "two_mode_squeezed_thermal",
    "rotation_symplectic",
    "squeeze_symplectic",
    "beam_splitter_symplectic",
    "random_local_symplectic",
    "conjugate_local",
    "random_state",
    "special_form_state",
]

#: Bounds of the random draws: symplectic eigenvalue of a mixed state, squeeze magnitude.
MAX_THERMAL, MAX_SQUEEZE = 2.5, 0.8


def vacuum_state() -> QuadCovariance:
    """Two-mode vacuum: the identity covariance matrix."""
    return QuadCovariance(np.eye(4))


def _standard_form_entries(a, b, c) -> np.ndarray:
    """gamma with A = a I, B = b I and cross block diag(c, -c), elementwise in a, b, c."""
    g = np.zeros(np.broadcast(a, b, c).shape + (4, 4))
    g[..., 0, 0] = g[..., 1, 1] = a
    g[..., 2, 2] = g[..., 3, 3] = b
    g[..., 0, 2] = g[..., 2, 0] = c
    g[..., 1, 3] = g[..., 3, 1] = -c
    return g


def _tmsv_entries(r) -> np.ndarray:
    two_r = 2 * np.asarray(r, dtype=float)
    c = np.cosh(two_r)
    return _standard_form_entries(c, c, np.sinh(two_r))


def tmsv_state(r) -> QuadCovariance:
    """Two-mode squeezed vacuum with squeezing parameter ``r``.

    Standard form with A = B = cosh(2r) I and cross block
    diag(sinh 2r, -sinh 2r); pure (det gamma = 1) for every ``r``.  An
    array of ``r`` gives a stack of states.
    """
    if not np.all(np.isfinite(r)):
        raise ValueError("squeezing parameter must be finite")
    return QuadCovariance(_tmsv_entries(r))


def thermal_state(nu1: float, nu2: float) -> QuadCovariance:
    """Product of two thermal modes with symplectic eigenvalues nu1, nu2 >= 1."""
    return QuadCovariance(np.diag([nu1, nu1, nu2, nu2]).astype(float))


def two_mode_squeezed_thermal(r, nu1, nu2) -> QuadCovariance:
    """Two-mode squeezing applied to a thermal product state.

    gamma = S_tm(r) diag(nu1, nu1, nu2, nu2) S_tm(r)^T where S_tm mixes the
    modes with cosh r / sinh r weights; the cross block stays antidiagonal
    in the mode picture (pure mc-type correlations): A = (ch^2 nu1 + sh^2 nu2) I,
    B = (sh^2 nu1 + ch^2 nu2) I, C = ch sh (nu1 + nu2) diag(1, -1).  Arrays
    give a stack of states.
    """
    r = np.asarray(r, dtype=float)
    ch, sh = np.cosh(r), np.sinh(r)
    a, b = ch * ch * nu1 + sh * sh * nu2, sh * sh * nu1 + ch * ch * nu2
    return QuadCovariance(_standard_form_entries(a, b, ch * sh * (nu1 + nu2)))


def rotation_symplectic(angle: float) -> np.ndarray:
    """Single-mode phase rotation in the (x, p) plane."""
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, s], [-s, c]])


def squeeze_symplectic(s: float) -> np.ndarray:
    """Single-mode squeezer diag(e^s, e^-s)."""
    return np.diag([math.exp(s), math.exp(-s)])


def beam_splitter_symplectic(theta: float) -> np.ndarray:
    """Two-mode beam splitter with transmittance cos(theta)."""
    c, s = math.cos(theta), math.sin(theta)
    eye = np.eye(2)
    return np.block([[c * eye, s * eye], [-s * eye, c * eye]])


def random_local_symplectic(rng: np.random.Generator) -> np.ndarray:
    """Random element of Sp(2, R) as rotation * squeezer * rotation."""
    a, b = rng.uniform(-math.pi, math.pi, size=2)
    s = rng.uniform(-MAX_SQUEEZE, MAX_SQUEEZE)
    return rotation_symplectic(a) @ squeeze_symplectic(s) @ rotation_symplectic(b)


def conjugate_local(
    g: QuadCovariance, s1: np.ndarray, s2: np.ndarray
) -> QuadCovariance:
    """Apply per-mode symplectics: gamma -> (S1 (+) S2) gamma (S1 (+) S2)^T."""
    s = np.block([[s1, np.zeros((2, 2))], [np.zeros((2, 2)), s2]])
    return QuadCovariance(s @ g.entries @ s.T)


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def random_state(
    seed,
    purity: str = "mixed",
    symmetry: str = "general",
    *,
    nu: tuple[float, float] | None = None,
) -> QuadCovariance:
    """Deterministic random physical state for a given seed.

    Parameters
    ----------
    seed : int | numpy.random.Generator
        Entropy source; identical seeds give identical matrices.
    purity : "pure" | "mixed"
        Pure states use nu1 = nu2 = 1.
    symmetry : "symmetric" | "general"
        The symmetric class scales a two-mode squeezed vacuum by a common
        thermal factor and dresses it with local symplectics, which keeps
        I1 = I2 exactly; the general class conjugates a thermal diagonal by
        layered local/beam-splitter symplectics.
    nu : optional pair overriding the drawn symplectic eigenvalues
        (ignored for pure states; the symmetric class uses only nu[0]).
    """
    if purity not in ("pure", "mixed"):
        raise ValueError(f"unknown purity class {purity!r}")
    if symmetry not in ("symmetric", "general"):
        raise ValueError(f"unknown symmetry class {symmetry!r}")
    rng = _as_rng(seed)

    if symmetry == "symmetric":
        if purity == "pure":
            scale = 1.0
        elif nu is not None:
            scale = float(nu[0])
        else:
            scale = float(rng.uniform(1.0, MAX_THERMAL))
        r = float(rng.uniform(0.0, MAX_SQUEEZE))
        base = QuadCovariance(scale * _tmsv_entries(r))
        s1 = random_local_symplectic(rng)
        s2 = random_local_symplectic(rng)
        return conjugate_local(base, s1, s2)

    if purity == "pure":
        nu1 = nu2 = 1.0
    elif nu is not None:
        nu1, nu2 = float(nu[0]), float(nu[1])
    else:
        nu1 = float(rng.uniform(1.0, MAX_THERMAL))
        nu2 = float(rng.uniform(1.0, MAX_THERMAL))
    d = np.diag([nu1, nu1, nu2, nu2])
    l1 = random_local_symplectic(rng)
    l2 = random_local_symplectic(rng)
    b1 = beam_splitter_symplectic(rng.uniform(0.0, math.pi / 2))
    m1 = random_local_symplectic(rng)
    m2 = random_local_symplectic(rng)
    b2 = beam_splitter_symplectic(rng.uniform(0.0, math.pi / 2))
    locals_a = np.block([[l1, np.zeros((2, 2))], [np.zeros((2, 2)), l2]])
    locals_b = np.block([[m1, np.zeros((2, 2))], [np.zeros((2, 2)), m2]])
    s = locals_a @ b1 @ locals_b @ b2
    return QuadCovariance(s @ d @ s.T)


def special_form_state(seed, form: str = "antidiagonal") -> QuadCovariance:
    """Random state whose standard-form cross block is diagonal or antidiagonal.

    ``"antidiagonal"`` draws a two-mode squeezed thermal state (pure mc-type
    correlations); ``"diagonal"`` beam-splits a two-mode thermal product
    (pure ms-type correlations).  Both are then dressed with random local
    phase rotations, which preserve the pattern while making the surviving
    cross entry complex.
    """
    rng = _as_rng(seed)
    if form == "antidiagonal":
        r = float(rng.uniform(0.15, 0.9))
        nu1 = float(rng.uniform(1.0, 2.2))
        nu2 = float(rng.uniform(1.0, 2.2))
        g = two_mode_squeezed_thermal(r, nu1, nu2)
    elif form == "diagonal":
        theta = float(rng.uniform(0.2, 1.3))
        nu1 = float(rng.uniform(1.0, 1.8))
        nu2 = nu1 + float(rng.uniform(0.4, 1.2))
        b = beam_splitter_symplectic(theta)
        g = QuadCovariance(b @ np.diag([nu1, nu1, nu2, nu2]) @ b.T)
    else:
        raise ValueError(f"unknown special form {form!r}")
    ph1, ph2 = rng.uniform(-math.pi, math.pi, size=2)
    return conjugate_local(g, rotation_symplectic(ph1), rotation_symplectic(ph2))
