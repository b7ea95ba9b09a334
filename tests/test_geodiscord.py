import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdiscord import (
    NonStationaryAxisError,
    QubitEnsemble,
    ensemble_purity,
    example_geo_closed_form,
    geo_choice_classifier,
    geo_stationarity_residual,
    geometric_discord,
    post_measurement_purity,
    quadratic_form,
    quantum_discord,
    random_ensemble,
    random_pure_pair,
)
import qdiscord.geodiscord as geodiscord
from qdiscord.ensemble import _EnsembleArrays
from conftest import (
    hard_region_ensembles,
    near_degenerate_ensembles,
    planes_tilted_about_y,
    random_planes,
    random_rotation,
    rotate_ensemble,
)

X = np.array([1.0, 0.0, 0.0])
Y = np.array([0.0, 1.0, 0.0])
Z = np.array([0.0, 0.0, 1.0])


def _eigen_residual(form) -> float:
    v = form.top_eigenvector
    return float(np.linalg.norm(form.m @ v - form.top_eigenvalue * v))


def _lex_max_axis_in_span(u, w, samples=200_001, tol=1e-12):
    """Brute-force tie-break: the largest (x, y, z) canonical axis in span{u, w}.

    Canonical means the sign is fixed by z > 0, then x > 0, then y > 0.
    """
    phis = np.linspace(0.0, 2.0 * np.pi, samples)
    axes = np.cos(phis)[:, None] * u + np.sin(phis)[:, None] * w
    sign = np.ones(samples)
    decided = np.zeros(samples, dtype=bool)
    for k in (2, 0, 1):
        sign[~decided & (axes[:, k] < -tol)] = -1.0
        decided |= np.abs(axes[:, k]) > tol
    axes *= sign[:, None]
    return axes[np.lexsort((axes[:, 2], axes[:, 1], axes[:, 0]))[-1]]


# ---------------------------------------------------------------------------
# the rank-2 eigenpair, through quadratic_form and geometric_discord
# ---------------------------------------------------------------------------

def test_quadratic_form_matches_numpy_spectrum(rng):
    for _ in range(300):
        ens = random_ensemble(rng)
        form = quadratic_form(ens)
        ref = np.linalg.eigvalsh(form.m)
        assert form.top_eigenvalue == pytest.approx(ref[2], abs=1e-14)
        assert np.linalg.norm(form.top_eigenvector) == pytest.approx(1.0, abs=1e-14)
        assert _eigen_residual(form) <= 1e-14
        # the discord is half the second eigenvalue of M
        assert geometric_discord(ens).value == pytest.approx(0.5 * ref[1], abs=1e-14)


def test_axis_aligned_pair_is_exact():
    # dyadic inputs: M is diagonal and every step of the closed form is exact
    ens = QubitEnsemble(0.25, 0.75, [0.5, 0, 0], [0, 0, 0.75])
    form = quadratic_form(ens)
    assert form.top_eigenvalue == 0.5625**2
    np.testing.assert_array_equal(form.top_eigenvector, Z)
    assert geometric_discord(ens).value == 0.125**2 / 2.0


def test_quadratic_form_near_degenerate_plane(rng):
    # lambda0 a and lambda1 b orthogonal with squared norms 0.09 + gap and 0.09
    for gap in (1e-8, 1e-11, 1e-13, 0.0):
        rot = random_rotation(rng)
        a = rot @ np.array([2.0 * np.sqrt(0.09 + gap), 0.0, 0.0])
        b = rot @ np.array([0.0, 0.6, 0.0])
        ens = QubitEnsemble(0.5, 0.5, a, b)
        form = quadratic_form(ens)
        assert _eigen_residual(form) <= 1e-10
        assert form.top_eigenvalue == pytest.approx(0.09 + gap, abs=1e-15)
        assert geometric_discord(ens).value == pytest.approx(0.045, abs=1e-15)


def test_equal_norm_perpendicular_pair_takes_the_lexicographic_tie_break(rng):
    # lambda0 |a| = lambda1 |b| = 0.225 with a perpendicular to b: the whole
    # plane ties, and the axis is the lexicographically largest canonical one
    for _ in range(5):
        rot = random_rotation(rng)
        u, w = rot[:, 0], rot[:, 1]
        ens = QubitEnsemble(0.25, 0.75, 0.9 * u, 0.3 * w)
        res = geometric_discord(ens)
        np.testing.assert_allclose(res.n_opt, _lex_max_axis_in_span(u, w), atol=1e-4)
        assert _eigen_residual(quadratic_form(ens)) <= 1e-15
        assert res.value == pytest.approx(0.225**2 / 2.0, abs=1e-15)


def test_lex_max_rep_matches_a_dense_sample_of_the_plane(rng):
    """The tie-break axis of a plane, against a dense sample, to the sample spacing.

    The planes normal to x have all x coordinates 0, and the planes tilted
    about y have x coordinates within the sign tolerance on their z = 0
    line; in both the tie-break is decided by y.
    """
    samples = 4001
    spacing = 2.0 * np.pi / (samples - 1)
    planes = [*random_planes(rng, 400), *planes_tilted_about_y(rng, 1500)]
    rows = _EnsembleArrays.of([QubitEnsemble(0.5, 0.5, u, w) for u, w in planes])
    for (u, w), got in zip(planes, geodiscord._tie_axes(rows.a, rows.b, np.ones(len(planes)))):
        assert np.linalg.norm(got) == pytest.approx(1.0, abs=1e-15)
        np.testing.assert_allclose(got, _lex_max_axis_in_span(u, w, samples), rtol=0, atol=spacing)


def test_vanishing_form_gives_x():
    for ens in (
        QubitEnsemble(0.5, 0.5, [0, 0, 0], [0, 0, 0]),
        QubitEnsemble(1.0, 0.0, [0, 0, 0], [0.3, 0.4, 0.5]),
    ):
        res = geometric_discord(ens)
        np.testing.assert_array_equal(res.n_opt, X)
        assert res.value == 0.0
        assert quadratic_form(ens).top_eigenvalue == 0.0


@pytest.mark.parametrize(
    "bloch, axis, tie",
    [
        # Top eigenvalue 2.5e-13 with a gap of 1.9e-13: z, not a tie.
        ([[0, 0, 1e-6], [5e-7, 0, 0]], Z, False),
        ([[0, 0, 1e-7], [5e-8, 0, 0]], Z, False),
        # A genuine tie in the yz-plane, whose largest canonical axis is y.
        ([[0, 1e-13, 0], [0, 0, 1e-13]], Y, True),
        # Where top^1.5, the scale of the unnormalized axis, would underflow.
        ([[0, 0, 2e-150], [1e-150, 0, 0]], Z, False),
        ([[0, 1e-150, 0], [0, 0, 1e-150]], Y, True),
    ],
)
def test_small_bloch_norms_keep_the_axis_of_their_form(bloch, axis, tie):
    """The tie test is relative to the top eigenvalue, so the axis does not depend on the scale of M."""
    ens = QubitEnsemble(0.5, 0.5, *bloch)
    block = geometric_discord(_EnsembleArrays.of([ens]))
    for res in (geometric_discord(ens), block):
        np.testing.assert_array_equal(np.reshape(res.n_opt, 3), axis)
        assert np.reshape(res.degenerate, ()) == tie
    np.testing.assert_array_equal(quadratic_form(ens).top_eigenvector, axis)


@pytest.mark.parametrize("scale", [1e-160, 1e-170, 1e-200, 1e-300])
def test_a_tiny_pair_keeps_the_axis_it_has_at_normal_scale(scale):
    """Where the Gram entries of G would underflow, G is taken to the scale of 1 first.

    Without that, the pair reads the vanishing form's x from 1e-170 on.
    """
    a, b = np.array([0.3, -0.2, 0.5]), np.array([0.1, 0.4, -0.2])
    want = geometric_discord(QubitEnsemble(0.3, 0.7, 1e-6 * a, 1e-6 * b)).n_opt
    ens = QubitEnsemble(0.3, 0.7, scale * a, scale * b)
    block = geometric_discord(_EnsembleArrays.of([ens, ens]))
    lone = geometric_discord(ens)
    for axis in (lone.n_opt, block.n_opt[0], block.n_opt[1], quadratic_form(ens).top_eigenvector):
        np.testing.assert_allclose(axis, want, rtol=0, atol=1e-15)
    assert lone.n_opt.tobytes() == block.n_opt[0].tobytes()
    assert not lone.degenerate and not block.degenerate.any()


TINY_A, TINY_B = np.array([0.3, -0.2, 0.5]), np.array([0.1, 0.4, -0.2])


def _lone_and_block(ens):
    """(value, top eigenvalue, axis) of ens, from the lone form and from a two-row block."""
    rows = _EnsembleArrays.of([ens, ens])
    block, top = geometric_discord(rows), geodiscord._top_eigenpair_rows(rows)[0]
    lone = geometric_discord(ens)
    return [
        (lone.value, quadratic_form(ens).top_eigenvalue, lone.n_opt),
        (block.value[0], top[0], block.n_opt[0]),
        (block.value[1], top[1], block.n_opt[1]),
    ]


@pytest.mark.parametrize("scale", [1e-80, 1e-100, 1e-130, 1e-150])
def test_a_tiny_pair_keeps_its_eigenvalues_where_they_are_normal(scale):
    """The eigenvalues come from G at unit scale, scaled back: s^2 times those at s = 1.

    The squared cross product of G underflows from about s = 1e-80 on,
    while the top eigenvalue is far from underflow.
    """
    unit = QubitEnsemble(0.3, 0.7, TINY_A, TINY_B)
    want_value, want_top = geometric_discord(unit).value, quadratic_form(unit).top_eigenvalue
    for value, top, _ in _lone_and_block(QubitEnsemble(0.3, 0.7, scale * TINY_A, scale * TINY_B)):
        assert top == pytest.approx(scale**2 * want_top, rel=1e-12, abs=0)
        assert value == pytest.approx(scale**2 * want_value, rel=1e-12, abs=0)


@pytest.mark.host_bits
@pytest.mark.parametrize("k", [100, 300, 400, 450])
def test_a_pair_scaled_by_a_power_of_two_scales_its_eigenvalues_to_the_bit(k):
    """At 2^-k times the Bloch vectors, value and top are 2^-2k times theirs, the axis the same.

    A power of two moves no bit of G, whose unit scale is then the same.
    """
    rng = np.random.default_rng(k)
    pairs = [(0.3, TINY_A, TINY_B)] + [(e.lambda0, e.a, e.b) for e in (random_ensemble(rng) for _ in range(4))]
    for l0, a, b in pairs:
        want = _lone_and_block(QubitEnsemble(l0, 1.0 - l0, a, b))
        got = _lone_and_block(QubitEnsemble(l0, 1.0 - l0, np.ldexp(a, -k), np.ldexp(b, -k)))
        for (value, top, axis), (value0, top0, axis0) in zip(got, want):
            assert float(value).hex() == np.ldexp(value0, -2 * k).hex()
            assert float(top).hex() == np.ldexp(top0, -2 * k).hex()
            assert axis.tobytes() == axis0.tobytes()


@pytest.mark.host_bits
@pytest.mark.parametrize("scale", [1e-310, 1e-318])
def test_subnormal_bloch_components_give_the_lone_and_block_forms_one_result(scale):
    """Both forms take G to unit scale by the one rule: 2^shift times each weight, then a and b."""
    (lone_value, lone_top, lone_axis), *rows = _lone_and_block(QubitEnsemble(0.3, 0.7, scale * TINY_A, scale * TINY_B))
    for value, top, axis in rows:
        assert (float(value).hex(), float(top).hex()) == (lone_value.hex(), lone_top.hex())
        assert axis.tobytes() == lone_axis.tobytes()
    assert np.isfinite(lone_value)
    assert np.linalg.norm(lone_axis) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.host_bits
def test_a_tied_pair_keeps_its_axis_down_to_the_smallest_subnormals():
    """Tied pairs scaled by 2^-k, k up to 1072, keep the tie axis of k = 0 in both forms, to the bit.

    Equal weights, a normal to b and |a| = |b|, with components in {0, +-0.5}
    (one sign of each vector).  The tie step scales a and b by its own power
    of two, without the weights and without the cap of _unit_scale: at the
    capped scale of G the plane basis of a pair from k = 1061 on takes its
    vanishing branch, and a tie in the yz-plane gets x instead of y.
    """
    halves = [np.array(v) for v in itertools.product((0.0, 0.5, -0.5), repeat=3) if any(v)]
    vectors = [v for v in halves if v[np.flatnonzero(v)[0]] > 0.0]
    pairs = [(a, b) for a in vectors for b in vectors if a @ b == 0.0 and a @ a == b @ b]
    ensembles = [QubitEnsemble(0.5, 0.5, np.ldexp(a, -k), np.ldexp(b, -k)) for k in range(1073) for a, b in pairs]
    block = geometric_discord(_EnsembleArrays.of(ensembles)).n_opt.reshape(1073, len(pairs), 3)
    lone = np.array([geometric_discord(ens).n_opt for ens in ensembles]).reshape(block.shape)
    # Some of the ties take y, not only the x of a vanishing basis.
    assert {int(np.argmax(axis)) for axis in lone[0]} == {0, 1}
    for k in range(1073):
        assert block[k].tobytes() == lone[k].tobytes() == lone[0].tobytes(), k


def test_tied_optima_are_flagged_degenerate(rng):
    """The mirror pair at pi/4 ties over its plane, M = 0 over the sphere; a random draw does not tie."""
    for ens in (
        QubitEnsemble.pure_pair(np.pi / 4),
        QubitEnsemble(0.5, 0.5, [0, 0, 0], [0, 0, 0]),
        QubitEnsemble(1.0, 0.0, [0, 0, 0], [0.3, 0.4, 0.5]),
    ):
        assert geometric_discord(ens).degenerate is True
    ensembles = [random_ensemble(rng) for _ in range(50)]
    assert geometric_discord(ensembles[0]).degenerate is False
    assert not geometric_discord(_EnsembleArrays.of(ensembles)).degenerate.any()


def test_collinear_pair_gives_the_common_axis(rng):
    for _ in range(20):
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        ens = QubitEnsemble(0.3, 0.7, 0.8 * u, -0.4 * u)
        res = geometric_discord(ens)
        assert abs(res.n_opt @ u) == pytest.approx(1.0, abs=1e-15)
        assert res.n_opt[2] > 0.0 or (res.n_opt[2] == 0.0 and res.n_opt[0] >= 0.0)
        assert res.value <= 1e-17
        assert _eigen_residual(quadratic_form(ens)) <= 1e-15


def test_near_collinear_relative_accuracy_against_mpmath(rng):
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    eps = 2.0**-53
    for cross in 10.0 ** -np.arange(2, 16):
        for _ in range(5):
            u, w = random_rotation(rng)[:, :2].T
            ra, rb = rng.uniform(0.2, 1.0, size=2)
            s = cross / (ra * rb)
            a = ra * u
            b = rb * (rng.choice([-1.0, 1.0]) * np.sqrt(1.0 - s * s) * u + s * w)
            l0 = float(rng.uniform(0.05, 0.95))
            ens = QubitEnsemble(l0, 1.0 - l0, a, b)

            ma = [mpmath.mpf(float(x)) for x in ens.a]
            mb = [mpmath.mpf(float(x)) for x in ens.b]
            l0m, l1m = mpmath.mpf(ens.lambda0), mpmath.mpf(ens.lambda1)
            abx = [ma[1] * mb[2] - ma[2] * mb[1], ma[2] * mb[0] - ma[0] * mb[2],
                   ma[0] * mb[1] - ma[1] * mb[0]]
            p = l0m**2 * sum(x * x for x in ma)
            q = l1m**2 * sum(x * x for x in mb)
            r = l0m * l1m * sum(x * y for x, y in zip(ma, mb))
            det = (l0m * l1m) ** 2 * sum(x * x for x in abx)
            top = (p + q + mpmath.sqrt((p - q) ** 2 + 4 * r * r)) / 2
            ref = det / top / 2

            cond = mpmath.sqrt(sum(x * x for x in ma) * sum(x * x for x in mb)) / mpmath.sqrt(
                sum(x * x for x in abx)
            )
            rel = abs(mpmath.mpf(geometric_discord(ens).value) - ref) / ref
            assert rel <= 8 * eps * cond, (cross, float(rel), float(cond))


# ---------------------------------------------------------------------------
# purity and geometric discord
# ---------------------------------------------------------------------------

def test_ensemble_purity_values():
    assert ensemble_purity(QubitEnsemble.pure_pair(0.9)) == pytest.approx(0.5, abs=1e-15)
    assert ensemble_purity(QubitEnsemble(1.0, 0.0, [0, 0, 1], [0, 0, 0])) == pytest.approx(1.0, abs=1e-15)
    ens = QubitEnsemble(0.5, 0.5, [0.5, 0, 0], [0, 0, 0])
    assert ensemble_purity(ens) == pytest.approx(0.28125, abs=1e-15)


def test_geometric_discord_collinear_is_zero():
    ens = QubitEnsemble(0.3, 0.7, [0, 0, 0.8], [0, 0, -0.4])
    res = geometric_discord(ens)
    assert res.value == pytest.approx(0.0, abs=1e-15)
    assert abs(res.n_opt @ Z) == pytest.approx(1.0, abs=1e-12)


def test_geometric_discord_mirror_family_values():
    res = geometric_discord(QubitEnsemble.pure_pair(np.pi / 4))
    assert res.value == pytest.approx(0.125, abs=1e-12)
    assert abs(res.n_opt @ X) == pytest.approx(1.0, abs=1e-12)  # tie-break winner
    res = geometric_discord(QubitEnsemble.pure_pair(np.pi / 6))
    assert res.value == pytest.approx(0.0625, abs=1e-12)
    assert abs(res.n_opt @ Z) == pytest.approx(1.0, abs=1e-12)


def test_example_geo_closed_form():
    assert example_geo_closed_form(0.0) == 0.0
    assert example_geo_closed_form(np.pi / 4) == pytest.approx(0.125, abs=1e-15)
    assert example_geo_closed_form(np.pi / 2) == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(ValueError):
        example_geo_closed_form(-0.2)


def test_geo_matches_closed_form_on_grid():
    for theta in np.linspace(0.0, np.pi, 101):
        ens = QubitEnsemble.pure_pair(theta)
        assert geometric_discord(ens).value == pytest.approx(
            example_geo_closed_form(theta), abs=1e-10
        )


def test_geo_axis_transition_at_pi4():
    for theta in np.linspace(0.01, np.pi / 4 - 1e-3, 25):
        assert abs(geometric_discord(QubitEnsemble.pure_pair(theta)).n_opt @ Z) >= 1.0 - 1e-12
    for theta in np.linspace(np.pi / 4 + 1e-3, np.pi / 2 - 0.01, 25):
        assert abs(geometric_discord(QubitEnsemble.pure_pair(theta)).n_opt @ X) >= 1.0 - 1e-12


def test_geo_quadratic_form_invariants(rng):
    for _ in range(100):
        ens = random_ensemble(rng)
        form = quadratic_form(ens)
        np.testing.assert_allclose(form.m, form.m.T, atol=1e-16)
        assert form.top_eigenvalue >= -1e-15
        assert form.top_eigenvalue <= ens.lambda0**2 + ens.lambda1**2 + 1e-15
        assert (
            np.linalg.norm(form.m @ form.top_eigenvector - form.top_eigenvalue * form.top_eigenvector)
            <= 1e-10
        )


def test_geo_stationarity_residual_values():
    ens = QubitEnsemble.pure_pair(np.pi / 6)
    assert geo_stationarity_residual(ens, Z) <= 1e-15
    tilted = np.array([0.5, 0.0, np.sqrt(3.0) / 2.0])
    assert geo_stationarity_residual(ens, tilted) == pytest.approx(
        np.sqrt(3.0) / 16.0, abs=1e-15
    )
    res = geometric_discord(ens)
    assert geo_stationarity_residual(ens, res.n_opt) <= 1e-8


def test_geo_choice_classifier_branches():
    report = geo_choice_classifier(QubitEnsemble.pure_pair(np.pi / 6), Z)
    assert report.branch == "+"
    report = geo_choice_classifier(QubitEnsemble.pure_pair(np.pi / 3), X)
    assert report.branch == "-"
    ens = QubitEnsemble(0.5, 0.5, [0, 0, 0.7], [0, 0, 0.7])
    assert geo_choice_classifier(ens, Z).branch == "+"


def test_geo_choice_classifier_rejects_non_stationary():
    ens = QubitEnsemble.pure_pair(np.pi / 6)
    tilted = np.array([0.5, 0.0, np.sqrt(3.0) / 2.0])
    with pytest.raises(NonStationaryAxisError) as err:
        geo_choice_classifier(ens, tilted)
    assert err.value.residual == pytest.approx(np.sqrt(3.0) / 16.0, abs=1e-12)


def test_geo_zero_iff_collinear(rng):
    for _ in range(100):
        ens = random_ensemble(rng)
        value = geometric_discord(ens).value
        collinear = np.linalg.norm(np.cross(ens.a, ens.b)) <= 1e-12
        weightless = min(ens.lambda0, ens.lambda1) <= 1e-12
        if collinear or weightless:
            assert value <= 1e-10
        elif np.linalg.norm(np.cross(ens.a, ens.b)) >= 0.05 and ens.lambda0 * ens.lambda1 >= 0.05:
            # D_G = (lambda0 lambda1 |a x b|)^2 / (2 w_top), clearly positive here
            assert value > 1e-10


def test_geo_is_minimum_purity_deficit(rng):
    for _ in range(50):
        ens = random_ensemble(rng)
        dg = geometric_discord(ens).value
        axes = rng.normal(size=(50, 3))
        axes /= np.linalg.norm(axes, axis=1, keepdims=True)
        deficits = ensemble_purity(ens) - post_measurement_purity(ens, axes)
        assert np.all(deficits >= dg * (1.0 - 1e-10) - 1e-15)


def test_geo_monotone_with_discord_on_mirror_family():
    thetas = np.linspace(0.0, np.pi / 4, 100)
    discords = [quantum_discord(QubitEnsemble.pure_pair(t)).value for t in thetas]
    geos = [geometric_discord(QubitEnsemble.pure_pair(t)).value for t in thetas]
    for i in range(99):
        assert (discords[i + 1] > discords[i]) == (geos[i + 1] > geos[i])


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_geo_rotation_covariance(seed):
    rng = np.random.default_rng(seed)
    ens = random_ensemble(rng)
    rot = random_rotation(rng)
    res = geometric_discord(ens)
    res_rot = geometric_discord(rotate_ensemble(ens, rot))
    assert res_rot.value == pytest.approx(res.value, abs=1e-12)
    if np.linalg.norm(np.cross(ens.a, ens.b)) > 1e-3 and ens.lambda0 * ens.lambda1 > 1e-3:
        assert abs((rot @ res.n_opt) @ res_rot.n_opt) == pytest.approx(1.0, abs=1e-6)



@pytest.mark.host_bits
@given(
    seed=st.integers(0, 2**32 - 1),
    hard=st.lists(st.one_of(near_degenerate_ensembles(), hard_region_ensembles()), max_size=4),
)
@settings(max_examples=20, deadline=None)
def test_geometric_discord_residual_has_the_bits_of_the_public_residual(seed, hard):
    """geometric_discord skips the checks of the public residual, not its squash."""
    rng = np.random.default_rng(seed)
    for ens in [random_ensemble(rng), random_pure_pair(rng)] + hard:
        geo = geometric_discord(ens)
        want = geo_stationarity_residual(ens, geo.n_opt)
        assert geo.stationarity_residual.hex() == want.hex()
