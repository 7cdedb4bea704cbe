"""SU(2)/SU(3) numerics: Maurer-Cartan form, calibrated 3-form H, alcove
projection, conjugacy- and biconjugacy-class 2-forms, and WZW amplitudes."""

import cmath
import os
import random
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import gerbecalc.lienum
from gerbecalc.lienum import (
    MAX_QUAD_POINTS,
    AlgebraVector,
    BallQuadrature,
    BiconjugacyChart,
    ConjugacyChart,
    ExpChart,
    GroupPoint,
    LieNumError,
    alcove_barycentric,
    alcove_projection,
    amplitude_ratio,
    bracket,
    calibrate_H,
    constant_map,
    equatorial_boundary,
    eval_H,
    exp_alcove,
    fd_exterior_derivative,
    inner,
    integrate_H_SU2,
    matrix_to_quat,
    maurer_cartan,
    maurer_cartan_exact,
    northern_extension,
    omega_lambda,
    pullback_H_integral,
    quat_conj,
    quat_mul,
    quat_to_matrix,
    random_algebra,
    random_group,
    southern_extension,
    su_basis,
    theta_su2,
    theta_volume,
    term_amplitude,
    varpi,
    wzw_amplitude,
)
from gerbecalc.lienum.core import expm_su
from gerbecalc.nerve import icosahedron, subdivide_sphere

KAPPA = calibrate_H()


# -- core types and the quaternion dictionary -------------------------------


def test_type_invariants_enforced():
    with pytest.raises(LieNumError):
        AlgebraVector(np.array([[1j, 0], [0, 1j]]))  # not traceless
    with pytest.raises(LieNumError):
        AlgebraVector(np.array([[1.0, 0], [0, -1.0]]))  # not anti-hermitian
    with pytest.raises(LieNumError):
        GroupPoint(np.diag([2.0, 0.5]).astype(complex))  # not unitary
    GroupPoint(np.eye(3, dtype=complex))
    AlgebraVector(np.diag([1j, -1j]))


def test_quaternion_dictionary():
    rng = random.Random(0)
    for _ in range(50):
        p = np.array([rng.gauss(0, 1) for _ in range(4)])
        q = np.array([rng.gauss(0, 1) for _ in range(4)])
        p /= np.linalg.norm(p)
        q /= np.linalg.norm(q)
        assert np.allclose(
            quat_to_matrix(quat_mul(p, q)), quat_to_matrix(p) @ quat_to_matrix(q)
        )
        assert np.allclose(matrix_to_quat(quat_to_matrix(p)), p)
    # pure quaternions: inner product and bracket
    u = np.array([0, 1.0, 0, 0])
    v = np.array([0, 0, 1.0, 0])
    w = np.array([0, 0, 0, 1.0])
    mu, mv, mw = (quat_to_matrix(x) for x in (u, v, w))
    assert abs(inner(mu, mu) - 2.0) < 1e-12
    assert abs(inner(mu, mv)) < 1e-12
    assert np.allclose(bracket(mu, mv), 2 * mw)  # [i, j] = 2k


# -- the exponential and its Frechet derivative ------------------------------


def kernel_cases():
    """Random su(2)/su(3) pairs (X, E) at scales 0.1 to 3, then X = 0 and
    the repeated spectrum diag(i, i, -2i)."""
    rng = random.Random(9)
    for n in (2, 3):
        for scale in (0.1, 0.3, 1.0, 3.0):
            for _ in range(25):
                yield random_algebra(n, rng, scale), random_algebra(n, rng)
    yield np.zeros((3, 3), dtype=complex), random_algebra(3, rng)
    yield np.diag([1j, 1j, -2j]), random_algebra(3, rng)


def test_expm_su_matches_scipy():
    from scipy.linalg import expm, expm_frechet

    for x, e in kernel_cases():
        g, dg = expm_su(x, e)
        assert np.array_equal(expm_su(x), g)
        assert np.max(np.abs(g - expm(x))) < 1e-13
        assert np.max(np.abs(dg - expm_frechet(x, e, compute_expm=False))) < 1e-13


def test_expm_su_identities():
    step = 1e-5
    for x, e in kernel_cases():
        g, dg = expm_su(x, e)
        n = len(g)
        assert np.max(np.abs(g @ expm_su(-x) - np.eye(n))) < 1e-13
        assert abs(np.linalg.det(g) - 1) < 1e-13
        central = (expm_su(x + step * e) - expm_su(x - step * e)) / (2 * step)
        assert np.max(np.abs(dg - central)) < 1e-8
    zero = np.zeros((3, 3), dtype=complex)
    e = random_algebra(3, random.Random(10))
    g, dg = expm_su(zero, e)
    assert np.array_equal(g, np.eye(3)) and np.array_equal(dg, e)


def run_python(code):
    src = Path(gerbecalc.lienum.__file__).resolve().parents[2]
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True,
    ).stdout.strip()


def test_lienum_imports_no_scipy():
    assert run_python(
        "import sys, gerbecalc.cli, gerbecalc.lienum; print('scipy' in sys.modules)"
    ) == "False"


def test_lienum_commands_run_without_scipy():
    # with scipy unimportable, each command that takes an exponential
    # still exits 0
    assert run_python(
        "import sys; sys.modules['scipy'] = None\n"
        "from gerbecalc.cli import main\n"
        "print([main(['--json', 'lienum', *argv]) for argv in ("
        "['verify-omega', '--samples', '2'], ['verify-varpi', '--samples', '2'],"
        " ['project', '--group', 'su3'])])"
    ).splitlines()[-1] == "[0, 0, 0]"


# -- Maurer-Cartan form -----------------------------------------------------


def test_maurer_cartan_identity_chart():
    for n in (2, 3):
        chart = ExpChart(n)
        dim = len(su_basis(n))
        rng = random.Random(1)
        d = [rng.gauss(0, 1) for _ in range(dim)]
        x = chart.algebra(d)
        th = maurer_cartan(chart, [0.0] * dim, d)
        assert np.linalg.norm(th - x) < 1e-8


@pytest.mark.parametrize("n", [2, 3])
def test_maurer_cartan_fd_matches_exact(n):
    rng = random.Random(2)
    chart = ExpChart(n)
    dim = len(su_basis(n))
    for _ in range(200 if n == 2 else 50):
        p = np.array([rng.gauss(0, 0.3) for _ in range(dim)])
        d = np.array([rng.gauss(0, 1) for _ in range(dim)])
        fd = maurer_cartan(chart, p, d)
        exact = maurer_cartan_exact(chart, p, d)
        assert np.linalg.norm(fd - exact) < 1e-8


def test_maurer_cartan_su2_quaternion_oracle():
    # theta on SU(2) equals conj(q) * (tangent quaternion)
    rng = random.Random(3)
    chart = ExpChart(2)
    for _ in range(100):
        p = np.array([rng.gauss(0, 0.3) for _ in range(3)])
        d = np.array([rng.gauss(0, 1) for _ in range(3)])
        g = chart.point(p)
        step = 1e-6
        dq = (
            matrix_to_quat(chart.point(p + step * d))
            - matrix_to_quat(chart.point(p - step * d))
        ) / (2 * step)
        u = theta_su2(matrix_to_quat(g), dq)
        mat = quat_to_matrix(np.concatenate([[0.0], u]))
        assert np.linalg.norm(mat - maurer_cartan_exact(chart, p, d)) < 1e-7


def test_maurer_cartan_linearity_and_bounds():
    chart = ExpChart(2)
    p = np.array([0.1, -0.2, 0.3])
    d1 = np.array([1.0, 0.5, -0.25])
    d2 = np.array([-0.5, 1.0, 2.0])
    lin = maurer_cartan(chart, p, d1 + 2 * d2)
    parts = maurer_cartan(chart, p, d1) + 2 * maurer_cartan(chart, p, d2)
    assert np.linalg.norm(lin - parts) < 1e-8
    with pytest.raises(LieNumError):
        maurer_cartan(chart, [3.0, 1.0, 1.0], d1)  # outside injectivity bound


# -- the 3-form H and its calibration ---------------------------------------


def test_eval_H_antisymmetry():
    rng = random.Random(4)
    g = random_group(3, rng, 0.5)
    vs = [random_algebra(3, rng) @ g for _ in range(3)]
    assert abs(eval_H(g, vs[0], vs[1], vs[1], kappa=KAPPA)) < 1e-10
    base = eval_H(g, vs[0], vs[1], vs[2], kappa=KAPPA)
    assert abs(eval_H(g, vs[1], vs[0], vs[2], kappa=KAPPA) + base) < 1e-10
    assert abs(eval_H(g, vs[2], vs[0], vs[1], kappa=KAPPA) - base) < 1e-10


def test_eval_H_bi_invariance():
    rng = random.Random(5)
    for n in (2, 3):
        xs = [random_algebra(n, rng) for _ in range(3)]
        at_e = eval_H(np.eye(n, dtype=complex), *xs, kappa=KAPPA)
        for _ in range(5):
            g = random_group(n, rng)
            translated = eval_H(g, *(g @ x for x in xs), kappa=KAPPA)
            assert abs(translated - at_e) < 1e-8


def test_calibration_constant():
    assert KAPPA > 0
    assert abs(KAPPA - 1.0 / (8 * np.pi**2)) < 1e-12


def test_integrate_H_SU2_converges_to_one():
    v32 = integrate_H_SU2(32)
    v64 = integrate_H_SU2(64)
    assert abs(v32 - 1.0) < 1e-2
    assert abs(v64 - 1.0) < abs(v32 - 1.0)
    # observed convergence order >= 2
    assert abs(v64 - 1.0) < abs(v32 - 1.0) / 3.5
    with pytest.raises(LieNumError):
        integrate_H_SU2(4)
    with pytest.raises(LieNumError, match="integer"):
        integrate_H_SU2(8.5)  # would size the grid as 9 angles of width pi/8.5


def test_integrand_left_invariance():
    rng = random.Random(6)
    e = np.array([1.0, 0, 0, 0])
    frame = [np.eye(4)[a] for a in (1, 2, 3)]
    base = np.linalg.det(np.stack([theta_su2(e, v) for v in frame]))
    for _ in range(20):
        q = np.array([rng.gauss(0, 1) for _ in range(4)])
        q /= np.linalg.norm(q)
        moved = np.linalg.det(
            np.stack([theta_su2(q, quat_mul(q, v)) for v in frame])
        )
        assert abs(moved - base) < 1e-8


def test_theta_volume_matches_the_lapack_determinant():
    rng = np.random.default_rng(9)
    for _ in range(200):
        q = rng.standard_normal(4)
        q /= np.linalg.norm(q)
        frame = rng.standard_normal((3, 4))
        det = np.linalg.det(np.stack([theta_su2(q, v) for v in frame]))
        assert abs(theta_volume(q, *frame) - det) <= 1e-13 * abs(det)
    # component tuples of arrays broadcast against scalar components
    qs = rng.standard_normal((4, 50))
    qs /= np.linalg.norm(qs, axis=0)
    frames = rng.standard_normal((3, 4, 50))
    frames[1, 0] = 0.0
    vol = theta_volume(tuple(qs), *frames[:1], (0.0, *frames[1, 1:]), frames[2])
    for m in range(50):
        assert vol[m] == theta_volume(qs[:, m], *frames[:, :, m])
    e, i, j, k = np.eye(4)
    assert theta_volume(e, i, j, k) == 1.0
    assert theta_volume(qs[:, 0], *frames[:2, :, 0], frames[1, :, 0]) == 0.0


# -- alcove projection ------------------------------------------------------


def test_alcove_identity_and_su2_midpoint():
    assert np.allclose(alcove_projection(np.eye(2, dtype=complex)), 0.0)
    xi = alcove_projection(np.diag([1j, -1j]))
    assert np.allclose(xi, [0.25, -0.25])
    assert abs((xi[0] - xi[1]) - 0.5) < 1e-12  # alcove parameter 1/2


def test_alcove_conjugation_invariance():
    rng = random.Random(7)
    for n in (2, 3):
        for _ in range(500 if n == 2 else 500):
            g = random_group(n, rng)
            h = random_group(n, rng)
            xi = alcove_projection(g)
            xi2 = alcove_projection(h @ g @ h.conj().T)
            assert np.max(np.abs(xi - xi2)) < 1e-9


def test_alcove_exp_round_trip_and_barycentrics():
    rng = random.Random(8)
    for _ in range(200):
        # random interior alcove point for SU(3)
        b = np.array([rng.random() for _ in range(3)])
        b /= b.sum()
        # vertices of the alcove in xi-coordinates: 0, w1, w2 (A2 coweights)
        w1 = np.array([2.0, -1.0, -1.0]) / 3.0
        w2 = np.array([1.0, 1.0, -2.0]) / 3.0
        xi = b[1] * w1 + b[2] * w2
        back = alcove_projection(exp_alcove(xi))
        assert np.max(np.abs(back - xi)) < 1e-9
        bc = alcove_barycentric(xi)
        assert abs(bc.sum() - 1.0) < 1e-12
        assert np.all(bc > -1e-12)
        assert np.max(np.abs(bc - b)) < 1e-9
    with pytest.raises(LieNumError):
        alcove_projection(np.diag([2.0, 0.5]).astype(complex))


# -- conjugacy-class 2-form -------------------------------------------------


REGULAR_SU3 = exp_alcove([0.31, 0.05, -0.36])


def test_omega_antisymmetry_and_invariance():
    rng = random.Random(9)
    x1 = random_algebra(3, rng)
    x2 = random_algebra(3, rng)
    assert omega_lambda(REGULAR_SU3, x1, x1, kappa=KAPPA) == 0.0
    v = omega_lambda(REGULAR_SU3, x1, x2, kappa=KAPPA)
    assert abs(omega_lambda(REGULAR_SU3, x2, x1, kappa=KAPPA) + v) < 1e-12
    for _ in range(10):
        k = random_group(3, rng)
        moved = omega_lambda(
            k @ REGULAR_SU3 @ k.conj().T,
            k @ x1 @ k.conj().T,
            k @ x2 @ k.conj().T,
            kappa=KAPPA,
        )
        assert abs(moved - v) < 1e-8


def test_omega_degenerate_point_rejected():
    with pytest.raises(LieNumError, match="eigenvalue gap"):
        omega_lambda(np.eye(3, dtype=complex), np.diag([1j, -1j, 0]),
                     np.diag([1j, 0, -1j]), kappa=KAPPA)


def test_omega_representative_independence():
    # shifting X by a centralizer element leaves the value unchanged
    rng = random.Random(10)
    x1 = random_algebra(3, rng)
    x2 = random_algebra(3, rng)
    z = np.diag([1j, 1j, -2j])  # commutes with the diagonal class point
    v = omega_lambda(REGULAR_SU3, x1, x2, kappa=KAPPA)
    assert abs(omega_lambda(REGULAR_SU3, x1 + z, x2, kappa=KAPPA) - v) < 1e-10
    assert abs(omega_lambda(REGULAR_SU3, x1, x2 + 0.5 * z, kappa=KAPPA) - v) < 1e-10


def test_class_restriction_of_H_is_d_omega():
    chart = ConjugacyChart(REGULAR_SU3)
    nprng = np.random.default_rng(11)
    omega_s = chart.omega_sampler(KAPPA)
    h_s = chart.h_sampler(KAPPA)
    for _ in range(20):
        p = 0.2 * nprng.standard_normal(8)
        ws = [nprng.standard_normal(8) for _ in range(3)]
        lhs = fd_exterior_derivative(omega_s, p, ws, step=1e-3)
        rhs = h_s(p, *ws)
        assert abs(lhs - rhs) < 1e-4 * max(1.0, abs(rhs))


# -- biconjugacy 2-form -----------------------------------------------------


@pytest.fixture(scope="module")
def bichart():
    h1 = exp_alcove([0.23, -0.23])
    h2 = exp_alcove([0.11, -0.11]) @ random_group(2, random.Random(12), 0.4)
    return BiconjugacyChart(h1, h2)


def test_varpi_antisymmetry_and_level(bichart):
    nprng = np.random.default_rng(13)
    p = 0.2 * nprng.standard_normal(bichart.dim)
    g1, g2 = bichart.point(p)
    ta = bichart.tangent(p, nprng.standard_normal(bichart.dim))
    tb = bichart.tangent(p, nprng.standard_normal(bichart.dim))
    assert varpi(g1, g2, ta, ta, level=2, kappa=KAPPA) == 0.0
    v1 = varpi(g1, g2, ta, tb, level=1, kappa=KAPPA)
    v3 = varpi(g1, g2, ta, tb, level=3, kappa=KAPPA)
    assert abs(v3 - 3 * v1) < 1e-12
    assert abs(varpi(g1, g2, tb, ta, level=1, kappa=KAPPA) + v1) < 1e-10


def test_varpi_membership_enforced(bichart):
    nprng = np.random.default_rng(14)
    p = 0.1 * nprng.standard_normal(bichart.dim)
    g1, g2 = bichart.point(p)
    ta = bichart.tangent(p, nprng.standard_normal(bichart.dim))
    tb = bichart.tangent(p, nprng.standard_normal(bichart.dim))
    varpi(g1, g2, ta, tb, level=1, kappa=KAPPA,
          membership_ref=(bichart.h1, bichart.h2))
    off = exp_alcove([0.4, -0.4])
    with pytest.raises(LieNumError, match="biconjugacy"):
        varpi(g1 @ off, g2, ta, tb, level=1, kappa=KAPPA,
              membership_ref=(bichart.h1, bichart.h2))


def test_varpi_bi_invariance(bichart):
    nprng = np.random.default_rng(15)
    rng = random.Random(15)
    p = 0.2 * nprng.standard_normal(bichart.dim)
    g1, g2 = bichart.point(p)
    ta = bichart.tangent(p, nprng.standard_normal(bichart.dim))
    tb = bichart.tangent(p, nprng.standard_normal(bichart.dim))
    base = varpi(g1, g2, ta, tb, level=1, kappa=KAPPA)
    for _ in range(5):
        x = random_group(2, rng)
        y = random_group(2, rng)
        move = lambda v: (x @ v[0] @ y.conj().T, x @ v[1] @ y.conj().T)
        shifted = varpi(x @ g1 @ y.conj().T, x @ g2 @ y.conj().T,
                        move(ta), move(tb), level=1, kappa=KAPPA)
        assert abs(shifted - base) < 1e-8


def reference_h_difference(bichart, q, w1, w2, w3):
    """p1^*H - p2^*H written out, the oracle for the chart's sampler."""
    from gerbecalc.lienum.forms import eval_H as H

    g1, g2 = bichart.point(q)
    ts = [bichart.tangent(q, w) for w in (w1, w2, w3)]
    return H(g1, *(t[0] for t in ts), kappa=KAPPA) - H(
        g2, *(t[1] for t in ts), kappa=KAPPA
    )


def reference_varpi(bichart, level, q, w1, w2):
    """varpi on chart directions written out, the oracle for the chart's sampler."""
    g1, g2 = bichart.point(q)
    return varpi(g1, g2, bichart.tangent(q, w1), bichart.tangent(q, w2),
                 level=level, kappa=KAPPA)


def test_H_difference_is_d_varpi(bichart):
    nprng = np.random.default_rng(16)

    def varpi_sampler(q, w1, w2):
        return reference_varpi(bichart, 1, q, w1, w2)

    for _ in range(20):
        p = 0.2 * nprng.standard_normal(bichart.dim)
        ws = [nprng.standard_normal(bichart.dim) for _ in range(3)]
        lhs = reference_h_difference(bichart, p, *ws)
        rhs = fd_exterior_derivative(varpi_sampler, p, ws, step=1e-3)
        assert abs(lhs - rhs) < 1e-4 * max(1.0, abs(lhs))


@pytest.mark.parametrize("level", [1, 3])
def test_biconjugacy_samplers_match_the_written_out_forms(bichart, level):
    nprng = np.random.default_rng(17)
    h_s = bichart.h_difference_sampler(KAPPA)
    varpi_s = bichart.varpi_sampler(level, KAPPA)
    for _ in range(10):
        p = 0.3 * nprng.standard_normal(bichart.dim)
        ws = [nprng.standard_normal(bichart.dim) for _ in range(3)]
        assert h_s(p, *ws) == reference_h_difference(bichart, p, *ws)
        assert varpi_s(p, *ws[:2]) == reference_varpi(bichart, level, p, *ws[:2])
    with pytest.raises(LieNumError, match="level must be a positive integer"):
        bichart.varpi_sampler(0, KAPPA)(p, *ws[:2])


# -- finite-difference exterior derivative ----------------------------------


def test_fd_d_textbook_cases():
    const = lambda p, w: 1.7
    assert abs(fd_exterior_derivative(const, [0.0, 0.0], [[1, 0], [0, 1]])) < 1e-10
    x_dy = lambda p, w: p[0] * w[1]
    val = fd_exterior_derivative(x_dy, [0.3, 0.7], [[1, 0], [0, 1]], step=1e-4)
    assert abs(val - 1.0) < 1e-6


def test_fd_d_squared_vanishes():
    nprng = np.random.default_rng(17)
    coeffs = nprng.standard_normal((3, 3))

    def one_form(p, w):
        # smooth nonlinear 1-form on R^3
        return float(np.sin(coeffs @ p) @ (coeffs @ w) + (p @ p) * (coeffs[0] @ w))

    def two_form(p, w1, w2):
        return fd_exterior_derivative(one_form, p, [w1, w2], step=1e-3)

    p = np.array([0.2, -0.4, 0.3])
    ws = [nprng.standard_normal(3) for _ in range(3)]
    dd = fd_exterior_derivative(two_form, p, ws, step=1e-3)
    assert abs(dd) < 1e-2  # step^2-scaled bound for nested differencing
    with pytest.raises(LieNumError):
        fd_exterior_derivative(one_form, p, [ws[0], ws[1]], step=1.0)


# -- WZW amplitudes ---------------------------------------------------------


@pytest.fixture(scope="module")
def coarse_quad():
    return BallQuadrature(subdivisions=3, layers=16)


def test_wzw_constant_map_is_one(coarse_quad):
    amp = wzw_amplitude(constant_map, 3, coarse_quad)
    assert abs(amp - 1.0) < 1e-9


def test_wzw_level_dependence(coarse_quad):
    a1 = wzw_amplitude(northern_extension, 1, coarse_quad)
    a2 = wzw_amplitude(northern_extension, 2, coarse_quad)
    assert abs(a2 - a1**2) < 1e-9
    with pytest.raises(LieNumError):
        wzw_amplitude(northern_extension, 0, coarse_quad)


def test_wzw_cap_extensions_differ_by_degree(coarse_quad):
    qN = pullback_H_integral(northern_extension, coarse_quad)
    qS = pullback_H_integral(southern_extension, coarse_quad)
    assert abs((qN - qS) - 1.0) < 1e-2  # glued map has degree 1
    assert abs(qN - 0.5) < 1e-2  # northern half of the group, positively
    ratio = amplitude_ratio(northern_extension, southern_extension, 1, coarse_quad)
    assert abs(ratio - cmath.exp(2j * cmath.pi * 1.0)) < 0.1


def test_wzw_boundary_mismatch_rejected(coarse_quad):
    rot = lambda x: northern_extension(np.asarray(x)[..., [1, 0, 2]] * [1, -1, 1])
    with pytest.raises(LieNumError, match="boundary"):
        amplitude_ratio(northern_extension, rot, 1, coarse_quad)


def test_ball_map_checked_on_every_layer(coarse_quad):
    def off_sphere_in_outer_layer(x):
        q = northern_extension(x)
        return np.where(np.linalg.norm(x, axis=-1, keepdims=True) > 0.95, 1.01 * q, q)

    with pytest.raises(LieNumError, match="does not land on unit quaternions"):
        pullback_H_integral(off_sphere_in_outer_layer, coarse_quad)
    with pytest.raises(LieNumError, match=r"must return an \(N, 4\) quaternion array"):
        pullback_H_integral(lambda x: northern_extension(x)[:, 1:], coarse_quad)


def test_boundary_map_is_shared(coarse_quad):
    pts = coarse_quad.boundary_points
    bn = northern_extension(pts)
    bs = southern_extension(pts)
    be = equatorial_boundary(pts)
    assert np.max(np.abs(bn - be)) < 1e-12
    assert np.max(np.abs(bs - be)) < 1e-12


# -- whole-array quadratures, kept as oracles for the sliced ones -----------
# These evaluate every grid point and ball cell at once.  The LAPACK-det
# versions are the independent oracles: the library takes the determinant
# as one triple product (theta_volume), which rounds differently, so they
# agree to a relative 1e-14.  The theta_volume versions do the library's
# float operations on the whole array, so slicing must not change a bit.


def whole_array_integrate_H_SU2(res):
    chi = (np.arange(res) + 0.5) * np.pi / res
    th = (np.arange(res) + 0.5) * np.pi / res
    ph = (np.arange(res) + 0.5) * 2 * np.pi / res
    C, T, P = np.meshgrid(chi, th, ph, indexing="ij")
    c, t, p = C.ravel(), T.ravel(), P.ravel()
    sc, cc, st, ct, sp, cp = np.sin(c), np.cos(c), np.sin(t), np.cos(t), np.sin(p), np.cos(p)
    z = np.zeros_like(c)
    q = np.stack([cc, sc * ct, sc * st * cp, sc * st * sp], axis=-1)
    t_chi = np.stack([-sc, cc * ct, cc * st * cp, cc * st * sp], axis=-1)
    t_th = np.stack([z, -sc * st, sc * ct * cp, sc * ct * sp], axis=-1)
    t_ph = np.stack([z, z, -sc * st * sp, sc * st * cp], axis=-1)
    cell = (np.pi / res) * (np.pi / res) * (2 * np.pi / res)
    us = [theta_su2(q, v) for v in (t_chi, t_th, t_ph)]
    dens = 4.0 * np.linalg.det(np.stack(us, axis=-2))
    return float(KAPPA * np.sum(dens) * cell)


def whole_array_theta_volume_integrate_H_SU2(res):
    chi = (np.arange(res) + 0.5) * np.pi / res
    th = (np.arange(res) + 0.5) * np.pi / res
    ph = (np.arange(res) + 0.5) * 2 * np.pi / res
    C, T, P = np.meshgrid(chi, th, ph, indexing="ij")
    c, t, p = C.ravel(), T.ravel(), P.ravel()
    sc, cc, st, ct, sp, cp = np.sin(c), np.cos(c), np.sin(t), np.cos(t), np.sin(p), np.cos(p)
    z = np.zeros_like(c)
    q = (cc, sc * ct, sc * st * cp, sc * st * sp)
    t_chi = (-sc, cc * ct, cc * st * cp, cc * st * sp)
    t_th = (z, -sc * st, sc * ct * cp, sc * ct * sp)
    t_ph = (z, z, -sc * st * sp, sc * st * cp)
    cell = (np.pi / res) * (np.pi / res) * (2 * np.pi / res)
    dens = 4.0 * theta_volume(q, t_chi, t_th, t_ph)
    return float(KAPPA * np.sum(dens) * cell)


def whole_array_ball(subdivisions, layers):
    """(centers, frame, weight, boundary points, (centroids, b - a, c - a))
    from the chart-covered mesh."""
    cc = icosahedron()
    for _ in range(subdivisions):
        cc = subdivide_sphere(cc)
    tris = np.array([[cc.coords[v] for v in tri] for tri in cc.triangles])
    a, b, c = tris[:, 0], tris[:, 1], tris[:, 2]
    centroid = (a + b + c) / 3.0
    r_mid = (np.arange(layers) + 0.5) / layers
    centers = (r_mid[:, None, None] * centroid[None, :, :]).reshape(-1, 3)
    t_r = np.broadcast_to(centroid[None], (layers,) + centroid.shape)
    t_s = r_mid[:, None, None] * (b - a)[None]
    t_t = r_mid[:, None, None] * (c - a)[None]
    frame = tuple(t.reshape(-1, 3) for t in (t_r, t_s, t_t))
    boundary = np.array([cc.coords[v] for v in sorted(cc.coords)])
    return centers, frame, 0.5 / layers, boundary, (centroid, b - a, c - a)


def whole_array_pullback(phi, ball, step=1e-5):
    x, frame, weight, *_ = ball
    q = np.asarray(phi(x), dtype=float)
    qbar = quat_conj(q)
    us = []
    for w in frame:
        dq = (np.asarray(phi(x + step * w)) - np.asarray(phi(x - step * w))) / (2 * step)
        us.append(quat_mul(qbar, dq)[:, 1:])
    dens = 4.0 * np.linalg.det(np.stack(us, axis=-2))
    return float(KAPPA * np.sum(dens) * weight)


def whole_array_theta_volume_pullback(phi, ball, step=1e-5):
    x, frame, weight, *_ = ball
    q = np.asarray(phi(x), dtype=float)
    dqs = [((np.asarray(phi(x + step * w)) - np.asarray(phi(x - step * w))) / (2 * step)).T
           for w in frame]
    dens = 4.0 * theta_volume(q.T, *dqs)
    return float(KAPPA * np.sum(dens) * weight)


def assert_close_to_oracle(value, oracle):
    assert abs(value - oracle) <= 1e-14 * abs(oracle)


@pytest.mark.parametrize("res", [8, 17, 32])
def test_sliced_su2_integral_matches_whole_array(res):
    value = integrate_H_SU2(res)
    assert value == whole_array_theta_volume_integrate_H_SU2(res)
    assert_close_to_oracle(value, whole_array_integrate_H_SU2(res))


@pytest.mark.parametrize("subdivisions", [0, 1, 2, 3, 4, 5])
def test_sliced_pullback_matches_whole_array(subdivisions, monkeypatch):
    # subdivision 5 has 20,480 triangles, so with two CPUs it takes the
    # split path; the array-refined mesh must equal the nerve's dict mesh
    on_cpus(monkeypatch, 2)
    for layers in (1, 2) if subdivisions == 5 else (1, 7, 16):
        quad = BallQuadrature(subdivisions=subdivisions, layers=layers)
        ball = whole_array_ball(subdivisions, layers)
        assert np.array_equal(quad.centers, ball[0])
        assert np.array_equal(quad.boundary_points, ball[3])
        assert quad.weight == ball[2]
        for got, want in zip((quad.centroids, *quad.edges), ball[4]):
            assert got.flags.f_contiguous and not got.flags.c_contiguous
            assert np.array_equal(got, want)
        for phi in (northern_extension, southern_extension, constant_map):
            value = pullback_H_integral(phi, quad)
            assert value == whole_array_theta_volume_pullback(phi, ball)
            assert_close_to_oracle(value, whole_array_pullback(phi, ball))


def test_ball_quadrature_holds_no_cell_array():
    # the stored centres of the default ball took 15.7 MB, and building
    # its mesh with the nerve's dicts peaked at 6.8 MB
    tracemalloc.start()
    try:
        quad = BallQuadrature(5, 32)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 4e6
    assert peak < 5e6
    assert quad.centers.shape == (655_360, 3)


def rotated_cap(x):
    """The northern cap after turning each sphere |x| = r about the z axis
    by 0.7 r^2; it reads its input one column at a time."""
    turn = 0.7 * (x[:, 0] ** 2 + x[:, 1] ** 2 + x[:, 2] ** 2)
    c, s = np.cos(turn), np.sin(turn)
    return northern_extension(
        np.stack([c * x[:, 0] - s * x[:, 1], s * x[:, 0] + c * x[:, 1], x[:, 2]], axis=1)
    )


def test_ball_maps_receive_component_major_points(coarse_quad, split_ball, monkeypatch):
    on_cpus(monkeypatch, 2)
    for quad, blocks in ((coarse_quad, 1), (split_ball, 2)):
        seen = []

        def spy(x):
            seen.append(x)
            return northern_extension(x)

        pullback_H_integral(spy, quad)
        assert len(seen) == 7 * blocks * len(quad.radii)
        rows = {}
        for x in seen:
            assert x.dtype == np.float64 and x.shape == (len(quad.centroids) // blocks, 3)
            assert x.flags.f_contiguous
            # every point lies near the sphere of its layer's mid-radius
            layer = int(np.argmin(np.abs(quad.radii - np.median(np.linalg.norm(x, axis=1)))))
            rows[layer] = rows.get(layer, 0) + len(x)
        # each layer's blocks cover its triangles once per stencil point
        assert rows == {layer: 7 * len(quad.centroids) for layer in range(len(quad.radii))}
    centers = coarse_quad.centers
    assert centers.flags.c_contiguous
    radii, centroids = coarse_quad.radii, coarse_quad.centroids
    assert np.array_equal(
        centers, (radii[:, None, None] * centroids[None, :, :]).reshape(-1, 3)
    )


def test_one_centers_access_builds_one_array():
    # 655,360 x 3 floats are 15.7 MB; a reshape that copies holds two
    quad = BallQuadrature(5, 32)
    tracemalloc.start()
    try:
        centers = quad.centers
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert centers.nbytes <= peak < 1.25 * centers.nbytes


@pytest.mark.parametrize("phi", [northern_extension, rotated_cap])
def test_pullback_does_not_depend_on_memory_order(coarse_quad, phi):
    value = pullback_H_integral(phi, coarse_quad)
    assert value == pullback_H_integral(lambda x: phi(np.ascontiguousarray(x)), coarse_quad)
    assert abs(value - 0.5) < 1e-2  # each sphere still covers the northern half


def test_level_must_be_a_positive_integer(bichart):
    g1, g2 = bichart.point(np.zeros(bichart.dim))
    ta = bichart.tangent(np.zeros(bichart.dim), np.eye(bichart.dim)[0])
    for level in (0, -2, 2.5, float("inf"), float("-inf"), float("nan"), "3", True, None):
        with pytest.raises(LieNumError, match="level must be a positive integer"):
            term_amplitude(0.25, level)
        with pytest.raises(LieNumError, match="level must be a positive integer"):
            varpi(g1, g2, ta, ta, level=level, kappa=KAPPA)
    # an integer past the float range would overflow in k * q
    with pytest.raises(LieNumError, match="level is too large to convert to a float"):
        term_amplitude(0.25, 10**400)
    with pytest.raises(LieNumError, match="level is too large to convert to a float"):
        varpi(g1, g2, ta, ta, level=10**400, kappa=KAPPA)
    for level in (2, 2.0, np.int64(2), np.float64(2.0)):
        assert abs(term_amplitude(0.25, level) + 1) < 1e-15


@pytest.fixture(scope="module")
def split_ball():
    """A ball whose 20,480 triangles split into two blocks on two CPUs."""
    quad = BallQuadrature(subdivisions=5, layers=2)
    assert len(quad.centroids) == 2 * gerbecalc.lienum.wzw.MIN_BLOCK_TRIANGLES
    return quad


def on_cpus(monkeypatch, count):
    monkeypatch.setattr(gerbecalc.lienum.wzw, "_usable_cpus", lambda: count)


def near_triangle(quad, t):
    """A mask of the rows of x that lie on triangle t's ray: every stencil
    point of its cells and of no other triangle's."""
    c = quad.centroids[t] / np.linalg.norm(quad.centroids[t])

    def mask(x):
        return x @ c > (1 - 1e-6) * np.linalg.norm(x, axis=1)

    assert np.flatnonzero(mask(quad.centroids)).tolist() == [t]
    return mask


@pytest.mark.parametrize("phi", [northern_extension, southern_extension,
                                 constant_map, rotated_cap])
def test_split_pullback_equals_serial_pullback(split_ball, monkeypatch, phi):
    threads = []

    def watched(x):
        threads.append(threading.get_ident())
        return phi(x)

    values = []
    for cpus, used in ((1, 1), (2, 2)):
        on_cpus(monkeypatch, cpus)
        threads.clear()
        values.append(pullback_H_integral(watched, split_ball))
        assert len(set(threads)) == used
    assert values[0] == values[1]


def test_split_pullback_survives_fast_thread_switching(split_ball, monkeypatch):
    # more blocks than this machine's CPUs, switching threads as often as
    # the interpreter allows: a lost or misplaced density would show
    serial = pullback_H_integral(rotated_cap, split_ball)
    on_cpus(monkeypatch, 5)
    monkeypatch.setattr(gerbecalc.lienum.wzw, "MIN_BLOCK_TRIANGLES", 1)
    before, interval = threading.active_count(), sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert pullback_H_integral(rotated_cap, split_ball) == serial
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == before


def test_split_pullback_raises_like_the_serial_loop(split_ball, monkeypatch):
    before = threading.active_count()
    in_block_1 = near_triangle(split_ball, len(split_ball.centroids) - 1)

    def off_the_group(x):
        q = northern_extension(x)
        q[in_block_1(x)] *= 2.0
        return q

    messages = []
    for cpus in (1, 2):
        on_cpus(monkeypatch, cpus)
        with pytest.raises(LieNumError, match="does not land on unit quaternions") as info:
            pullback_H_integral(off_the_group, split_ball)
        messages.append(str(info.value))
        assert threading.active_count() == before
    assert messages[0] == messages[1]

    def dividing(x):
        q = northern_extension(x)
        q[:, 0] /= np.where(in_block_1(x), 0.0, 1.0)
        return q

    # on two CPUs, the caller's numpy error state holds in block 1 too
    with np.errstate(divide="raise"), pytest.raises(FloatingPointError):
        pullback_H_integral(dividing, split_ball)
    assert threading.active_count() == before
    pullback_H_integral(northern_extension, split_ball)
    assert threading.active_count() == before


@pytest.mark.parametrize("blocks, failing", [(2, {0, 1}), (3, {1, 2})])
def test_split_pullback_raises_the_first_failed_blocks_error(split_ball, monkeypatch,
                                                             blocks, failing):
    n = len(split_ball.centroids)
    on_cpus(monkeypatch, blocks)
    monkeypatch.setattr(gerbecalc.lienum.wzw, "MIN_BLOCK_TRIANGLES", n // blocks)
    before = threading.active_count()
    # block b starts at triangle n * b // blocks, and only its points lie there
    starts = [near_triangle(split_ball, n * b // blocks) for b in range(blocks)]
    raised = []

    class BlockFailure(Exception):
        pass

    def failing_map(x):
        (block,) = [b for b, start in enumerate(starts) if start(x).any()]
        if block not in failing:
            return northern_extension(x)
        raised.append(block)
        raise BlockFailure(block)

    with pytest.raises(BlockFailure) as info:
        pullback_H_integral(failing_map, split_ball)
    assert sorted(raised) == sorted(failing)
    assert info.value.args == (min(failing),)
    assert threading.active_count() == before


def test_su2_integral_memory_is_constant_in_slices():
    # the whole grid at resolution 64 took 76 MB; the densities are 2 MB
    tracemalloc.start()
    try:
        integrate_H_SU2(64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def test_work_bound_refuses_before_allocating():
    assert 96**3 <= MAX_QUAD_POINTS and 20 * 4**5 * 32 <= MAX_QUAD_POINTS
    oversized = [
        (lambda: integrate_H_SU2(10**5), "1,000,000,000,000,000 grid points"),
        (lambda: BallQuadrature(subdivisions=12, layers=1), "335,544,320 cells"),
        (lambda: BallQuadrature(subdivisions=10**9), "inf cells"),
        (lambda: BallQuadrature(subdivisions=6), "2,621,440 cells"),
        (lambda: BallQuadrature(layers=10**6), "20,480,000,000 cells"),
    ]
    tracemalloc.start()
    try:
        for build, needs in oversized:
            with pytest.raises(LieNumError, match=f"needs {needs}, above the work bound"):
                build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6
    for subdivisions, layers in ((0, 0), (0, -3), (-1, 4), (2.5, 4), (2, 4.0),
                                 (True, 2), (2, True)):
        with pytest.raises(LieNumError, match="integer subdivisions >= 0 and layers >= 1"):
            BallQuadrature(subdivisions=subdivisions, layers=layers)
