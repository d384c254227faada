"""Birkhoff orthogonality: membership, cones, perpendicular points."""

import math

import numpy as np
import pytest

from normplane.errors import PreconditionError
from normplane.norms import Hexagonal, PNorm, Pushforward
from normplane.birkhoff import birkhoff_margin, is_birkhoff_orth, orth_cone, perp_point
from normplane.diffdetect import nd_oracle


def _brute_margin(norm, x, y):
    lams = np.linspace(-3.0, 3.0, 20_001)
    vals = norm.value(np.asarray(x)[None, :] + lams[:, None] * np.asarray(y)[None, :])
    return float(np.min(vals)) - float(norm.value(x))


@pytest.mark.parametrize(
    "norm, x, y, want",
    [
        (PNorm(2), (1, 0), (0, 1), True),
        (PNorm(2), (1, 0), (1, 1), False),
        (PNorm(1), (1, 0), (1, 1), True),
        (Hexagonal(), (1, 0.5), (1, 1), False),
    ],
)
def test_is_birkhoff_orth(norm, x, y, want):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    assert is_birkhoff_orth(norm, x, y, tol=1e-6) is want
    # the dense line scan agrees on which side of zero the margin falls
    brute = _brute_margin(norm, x, y)
    assert (brute >= -1e-7) is want


def test_margin_value_round_diagonal():
    got = birkhoff_margin(PNorm(2), np.array([1.0, 0.0]), np.array([1.0, 1.0]))
    assert got == pytest.approx(math.sqrt(2.0) / 2.0 - 1.0, abs=1e-12)


def test_margin_nonpositive():
    rng = np.random.default_rng(41)
    for norm in (PNorm(2), PNorm(1), Hexagonal()):
        for _ in range(20):
            x = rng.uniform(-1.0, 1.0, 2)
            y = rng.uniform(-1.0, 1.0, 2)
            if min(abs(x).max(), abs(y).max()) < 1e-3:
                continue
            assert birkhoff_margin(norm, x, y) <= 1e-12


def test_orth_cone_round_circle_degenerate():
    cone = orth_cone(PNorm(2), np.array([1.0, 0.0]))
    assert cone.is_single_pair()
    assert cone.directions[0][0] == pytest.approx(math.pi / 2.0, abs=1e-4)
    assert cone.directions[1][0] == pytest.approx(3.0 * math.pi / 2.0, abs=1e-4)


def test_orth_cone_diamond_interval():
    cone = orth_cone(PNorm(1), np.array([1.0, 0.0]))
    assert not cone.is_single_pair()
    (lo1, hi1), (lo2, hi2) = cone.directions
    assert lo1 == pytest.approx(math.pi / 4.0, abs=1e-8)
    assert hi1 == pytest.approx(3.0 * math.pi / 4.0, abs=1e-8)
    assert lo2 == pytest.approx(5.0 * math.pi / 4.0, abs=1e-8)
    assert hi2 == pytest.approx(7.0 * math.pi / 4.0, abs=1e-8)
    assert cone.total_width() == pytest.approx(math.pi, abs=1e-7)


def test_orth_cone_hexagon_corner(params):
    p = params["hexagonal"]
    x = np.array([0.0, 1.0])
    cone = orth_cone(Hexagonal(), x)
    assert not cone.is_single_pair()
    info = p.side_derivative_info(p.locate(x))
    for d in (info.left, info.right):
        assert cone.contains(math.atan2(d[1], d[0]), slack=1e-6)


def test_orth_cone_antipodal_pairing():
    for norm, x in [(PNorm(1), (1.0, 0.0)), (Hexagonal(), (0.0, 1.0)), (PNorm(2), (0.6, 0.8))]:
        cone = orth_cone(norm, np.asarray(x))
        assert len(cone.directions) % 2 == 0
        half = len(cone.directions) // 2
        for k in range(half):
            lo1, hi1 = cone.directions[k]
            lo2, hi2 = cone.directions[k + half]
            assert (lo2 - lo1) % (2.0 * math.pi) == pytest.approx(math.pi, abs=1e-7)
            assert hi1 - lo1 == pytest.approx(hi2 - lo2, abs=1e-7)


def test_orth_cone_homogeneity_of_membership():
    norm = Hexagonal()
    x = np.array([0.0, 1.0])
    y = np.array([-1.0, -0.4])
    base = is_birkhoff_orth(norm, x, y, tol=1e-6)
    for alpha in (-2.0, 0.5):
        for beta in (-1.5, 3.0):
            assert is_birkhoff_orth(norm, alpha * x, beta * y, tol=1e-6) is base


def test_orth_cone_exists_everywhere(params):
    rng = np.random.default_rng(43)
    for name in ("l1", "l2", "lens", "hexagonal_push"):
        p = params[name]
        for t in rng.uniform(0.0, p.period, 5):
            cone = orth_cone(p.ambient, p.point_at(float(t)))
            assert len(cone.directions) >= 2, name


def test_james_cone_degeneracy_matches_smoothness(params):
    for name in ("hexagonal", "l2", "lens"):
        p = params[name]
        ts = np.linspace(0.0, p.period, 24, endpoint=False) + 0.013
        ts = np.concatenate([ts, p.corner_params()])
        for t in ts:
            x = p.point_at(float(t))
            verdict = nd_oracle(p, float(t))
            if verdict == "unreliable":
                continue
            degenerate = orth_cone(p.ambient, x).is_single_pair()
            assert degenerate is (verdict == "smooth"), (name, float(t))


def test_alonso_side_derivatives_orthogonal(params):
    rng = np.random.default_rng(47)
    for name in ("hexagonal", "l2", "lens", "twelvegon_push"):
        p = params[name]
        for t in rng.uniform(0.0, p.period, 20):
            x = p.point_at(float(t))
            info = p.side_derivative_info(float(t))
            for d in (info.left, info.right):
                assert birkhoff_margin(p.ambient, x, d) >= -1e-6, name


def test_perp_point_round_circle():
    assert np.allclose(perp_point(PNorm(2), np.array([1.0, 0.0])), [0.0, -1.0], atol=1e-9)
    # horizontal tie resolves to negative first coordinate
    assert np.allclose(perp_point(PNorm(2), np.array([0.0, 1.0])), [-1.0, 0.0], atol=1e-9)


def test_perp_point_quartic_ball():
    z = perp_point(PNorm(4), np.array([1.0, 0.0]))
    assert np.allclose(z, [0.0, -1.0], atol=1e-8)
    assert float(PNorm(4).value(z)) == pytest.approx(1.0, abs=1e-12)


def test_perp_point_transported_by_pushforward():
    T = np.array([[2.0, 1.0], [0.0, 1.0]])
    push = Pushforward(PNorm(2), T)
    tx = T @ np.array([1.0, 0.0])
    tx = tx / float(push.value(tx))
    z = perp_point(push, tx)
    assert is_birkhoff_orth(push, tx, z, tol=1e-6)
    w = T @ np.array([0.0, 1.0])
    w = w / float(push.value(w))
    assert abs(float(z[0] * w[1] - z[1] * w[0])) <= 1e-6  # unit multiple of +-T(0,1)
    assert z[1] < 0.0


def test_perp_point_preconditions():
    with pytest.raises(PreconditionError):
        perp_point(PNorm(1), np.array([1.0, 0.0]))
    with pytest.raises(PreconditionError):
        perp_point(PNorm(2), np.array([2.0, 0.0]))


def test_zero_vector_rejected():
    with pytest.raises(PreconditionError):
        is_birkhoff_orth(PNorm(2), np.zeros(2), np.array([1.0, 0.0]))
    for x, y in ((np.zeros(2), np.array([1.0, 0.0])), (np.array([1.0, 0.0]), np.zeros(2))):
        with pytest.raises(PreconditionError):
            birkhoff_margin(PNorm(2), x, y)
    with pytest.raises(PreconditionError):
        orth_cone(PNorm(2), np.zeros(2))
