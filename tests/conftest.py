import numpy as np
import pytest
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from qdiscord import QubitEnsemble


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    q = rng.normal(size=4)
    return Rotation.from_quat(q / np.linalg.norm(q)).as_matrix()


def rotate_ensemble(ens: QubitEnsemble, rot: np.ndarray) -> QubitEnsemble:
    return QubitEnsemble(ens.lambda0, ens.lambda1, rot @ ens.a, rot @ ens.b)


def rotate_about(axis: np.ndarray, angle: float) -> np.ndarray:
    """Rotation matrix for the given axis and angle (Rodrigues)."""
    axis = np.asarray(axis, float)
    axis = axis / np.linalg.norm(axis)
    k = np.array(
        [[0.0, -axis[2], axis[1]], [axis[2], 0.0, -axis[0]], [-axis[1], axis[0], 0.0]]
    )
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


def random_planes(rng, count):
    """Orthonormal bases of random planes; every fourth plane is normal to x."""
    for k in range(count):
        rot = random_rotation(rng)
        u, w = rot[:, 0], rot[:, 1]
        if k % 4 == 0:
            phi = rng.uniform(0.0, 2.0 * np.pi)
            u = np.array([0.0, np.cos(phi), np.sin(phi)])
            w = np.array([0.0, -np.sin(phi), np.cos(phi)])
        yield u, w


def planes_tilted_about_y(rng, count):
    """Steep planes whose z = 0 line lies within 1e-12 of the y axis, on the -x side.

    The axis that maximizes x points below z = 0 in each, so the tie-break
    axis is the z = 0 line, whose x is -1e-16 to -3e-13: inside the sign
    tolerance, so its sign is decided by y.
    """
    for _ in range(count):
        u = np.array([-(10.0 ** rng.uniform(-16.0, -12.5)), 1.0, 0.0])
        u /= np.linalg.norm(u)
        w = np.array([10.0 ** rng.uniform(-6.0, np.log10(0.2)), 0.0, -1.0])
        w -= (w @ u) * u
        yield u, w / np.linalg.norm(w)


def nondegenerate(ens: QubitEnsemble) -> bool:
    """Ensembles with a well-defined, non-flat optimum.

    Excludes near-equal weights products, near-identical states and
    near-collinear Bloch vectors, where the optimal axis is ill-conditioned.
    """
    return (
        ens.lambda0 * ens.lambda1 >= 1e-2
        and np.linalg.norm(ens.a - ens.b) >= 0.1
        and np.linalg.norm(np.cross(ens.a, ens.b)) >= 1e-2
    )


def near_degenerate_ensemble(
    rng, kind: str, eps: float, l0: float, norm: float, scale: float
) -> QubitEnsemble:
    """A near-collinear or near-identical pair: the inputs nondegenerate drops.

    a has the given norm along a random direction u.  b is scale * a
    ("near_collinear") or a itself ("near_identical"), moved off it by eps
    along a random direction, which for the collinear kind is perpendicular
    to u.
    """
    u = rng.normal(size=3)
    u /= np.linalg.norm(u)
    a = u * norm
    d = rng.normal(size=3)
    if kind == "near_collinear":
        d -= (d @ u) * u
        b = scale * a
    else:
        b = a.copy()
    b = b + eps * d / np.linalg.norm(d)
    b /= max(1.0, float(np.linalg.norm(b)))
    return QubitEnsemble(l0, 1.0 - l0, a, b)


@st.composite
def near_degenerate_ensembles(draw) -> QubitEnsemble:
    """near_degenerate_ensemble with eps in [1e-12, 1e-6], norm in [1e-3, 1], scale in [-1, 1]."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["near_collinear", "near_identical"]))
    eps = 10.0 ** draw(st.floats(-12.0, -6.0))
    l0 = draw(st.floats(0.0, 1.0))
    norm, scale = draw(st.floats(1e-3, 1.0)), draw(st.floats(-1.0, 1.0))
    return near_degenerate_ensemble(rng, kind, eps, l0, norm, scale)


def hard_region_ensemble(rng, kind: str, eps: float, l0: float) -> QubitEnsemble:
    """Extreme weights, pure states and tiny norms: the rest of what nondegenerate drops.

    For "extreme_weight" (l0 is eps or 1 - eps) each state is pure or of
    uniform norm; "pure" makes both states pure; "tiny_norm" gives a the norm eps
    and b a log-uniform norm in [1e-12, 1].  Directions are uniform on the
    sphere.
    """
    if kind == "extreme_weight":
        norms = np.where(rng.uniform(size=2) < 0.5, 1.0, rng.uniform(size=2))
    else:
        norms = np.ones(2) if kind == "pure" else np.array([eps, 10.0 ** rng.uniform(-12.0, 0.0)])
    d = rng.normal(size=(2, 3))
    a, b = d / np.linalg.norm(d, axis=1, keepdims=True) * norms[:, None]
    return QubitEnsemble(l0, 1.0 - l0, a, b)


@st.composite
def hard_region_ensembles(draw) -> QubitEnsemble:
    """hard_region_ensemble with eps in [1e-12, 1e-2]; l0 in [0, 1] but for extreme weights."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["extreme_weight", "pure", "tiny_norm"]))
    eps = 10.0 ** draw(st.floats(-12.0, -2.0))
    if kind == "extreme_weight":
        l0 = draw(st.sampled_from([eps, 1.0 - eps]))
    else:
        l0 = draw(st.floats(0.0, 1.0))
    return hard_region_ensemble(rng, kind, eps, l0)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
