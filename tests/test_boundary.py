import math

import numpy as np
import pytest

from bergman.boundary import (ApproachPath, BoundaryError, Stratum,
                              default_path, expected_weight,
                              levi_min_eigenvalue, make_weight,
                              predicted_limit, stratify_point, weighted_limit)
from bergman.catalog import (ball_spec, disk_spec, ball_disk_lift_spec,
                             ball_exp_lift_spec)
from bergman.domains import contains, sample_interior
from bergman.kernels import kernel_ball, kernel_ball_disk_lift, kernel_ball_exp_lift

PI = math.pi
SPEC = ball_disk_lift_spec(1, 1)
VSPEC = ball_exp_lift_spec(1, 1, (1.0,))


def test_stratify_examples():
    assert stratify_point(SPEC, (0, 1.0, 0.5)) is Stratum.S2
    assert stratify_point(SPEC, (0, 0.5, 1.0)) is Stratum.S3
    assert stratify_point(SPEC, (0, 1.0, 1.0)) is Stratum.S4
    z = math.sqrt((1 - 0.09) * (1 - 0.25))
    assert stratify_point(SPEC, (z, 0.5, 0.3)) is Stratum.S1


def test_stratify_rejects_off_boundary():
    with pytest.raises(BoundaryError):
        stratify_point(SPEC, (0.1, 0.1, 0.1))
    with pytest.raises(BoundaryError):
        stratify_point(SPEC, (0.5, 0.5, 1.0))   # z != 0 at |w| = 1
    with pytest.raises(BoundaryError):
        stratify_point(SPEC, (0, 1.5, 1.0))     # outside the closure


def test_stratification_partitions_boundary():
    # radial projection of interior points onto the boundary plus the
    # |w| = 1 faces: exactly one label, S3/S4 iff (z = 0 and |w| = 1)
    rng = np.random.default_rng(31)
    pts = sample_interior(SPEC, 300, seed=8).points
    labels = []
    for row in pts:
        p = np.array(row)
        lo, hi = 1.0, 4.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if contains(SPEC, tuple(mid * p)):
                lo = mid
            else:
                hi = mid
        b = tuple(lo * p)
        s = stratify_point(SPEC, b, boundary_tol=1e-6)
        labels.append(s)
        assert s in (Stratum.S1, Stratum.S2)
    # z = 0 slices
    for _ in range(100):
        zp = rng.uniform(0.1, 0.99) * np.exp(1j * rng.uniform(0, 2 * PI))
        w = rng.uniform(0.1, 0.99) * np.exp(1j * rng.uniform(0, 2 * PI))
        s = stratify_point(SPEC, (0, zp / abs(zp), w))   # |z'| = 1, |w| < 1
        assert s is Stratum.S2
        s = stratify_point(SPEC, (0, zp, w / abs(w)))    # |z'| < 1, |w| = 1
        assert s is Stratum.S3
        s = stratify_point(SPEC, (0, zp / abs(zp), w / abs(w)))
        assert s is Stratum.S4
    assert Stratum.S1 in labels


def test_default_path_stays_inside():
    for stratum, target in ((Stratum.S2, (0, 1.0, 0.0)),
                            (Stratum.S3, (0, 0.5, 1.0)),
                            (Stratum.S4, (0, 1.0, 1.0))):
        path = default_path(SPEC, target, stratum)
        for t in path.grid():
            p = path.point(t)
            assert contains(SPEC, p)


def test_default_path_rejects_bad_region_exponents():
    with pytest.raises(BoundaryError):
        default_path(SPEC, (0, 0.5, 1.0), Stratum.S3, params={"p": (0.5,)})


def test_s2_probe_limit():
    path = default_path(SPEC, (0, 1.0, 0.0), Stratum.S2)
    rep = weighted_limit(kernel_ball_disk_lift(1, 1), path, "r")
    want = 4 / PI ** 3
    assert rep.converged
    assert abs(rep.limit - want) / want < 0.01
    assert predicted_limit(SPEC, (0, 1.0, 0.0), Stratum.S2) == pytest.approx(want)


def test_s2_probe_nonzero_w0():
    target = (0, 1.0, 0.5)
    path = default_path(SPEC, target, Stratum.S2)
    rep = weighted_limit(kernel_ball_disk_lift(1, 1), path, "r")
    want = predicted_limit(SPEC, target, Stratum.S2)
    assert want == pytest.approx(2 * 2 / (PI ** 3 * 0.75 ** 3))
    assert abs(rep.limit - want) / want < 0.01


def test_s3_probe_limit():
    target = (0, 0.5, 1.0)
    path = default_path(SPEC, target, Stratum.S3)
    rep = weighted_limit(kernel_ball_disk_lift(1, 1), path, "w")
    want = predicted_limit(SPEC, target, Stratum.S3)
    assert want == pytest.approx(4 / (PI ** 3 * 0.75 ** 3))
    assert abs(rep.limit - want) / want < 0.01


def test_s4_probe_limit():
    path = default_path(SPEC, (0, 1.0, 1.0), Stratum.S4)
    rep = weighted_limit(kernel_ball_disk_lift(1, 1), path, "product")
    want = 4 / PI ** 3
    assert abs(rep.limit - want) / want < 0.01


def test_v_probe_limit():
    path = default_path(VSPEC, (0, 1.0, 0.0), Stratum.S2)
    rep = weighted_limit(kernel_ball_exp_lift(1, 1, (1.0,)), path, "rho")
    want = 2 / PI ** 3
    assert abs(rep.limit - want) / want < 0.01
    assert predicted_limit(VSPEC, (0, 1.0, 0.0), Stratum.S2) == pytest.approx(want)


@pytest.mark.parametrize("m", [1, 2])
def test_v_probe_strong_weight_near_unit_w(m):
    # gamma = 2 at |w0| = 0.99: a fixed z scale of 0.25 left the approach
    # region at the first level; the default now shrinks with e^{-gamma |w0|^2}
    spec = ball_exp_lift_spec(1, m, (2.0,))
    target = (0, 1.0) + (0,) * (m - 1) + (0.99,)
    path = default_path(spec, target, Stratum.S2)
    assert path.params["z_scale"] == pytest.approx(0.25 * math.exp(-2.0 * 0.99 ** 2))
    rep = weighted_limit(kernel_ball_exp_lift(1, m, (2.0,)), path, "rho")
    want = predicted_limit(spec, target, Stratum.S2)
    assert rep.converged
    assert abs(rep.limit - want) / want < 0.01


def test_wrong_weight_fails_to_converge():
    # S2 fixture probed with the S3 weight: the weighted values blow up
    path = default_path(SPEC, (0, 1.0, 0.0), Stratum.S2)
    rep = weighted_limit(kernel_ball_disk_lift(1, 1), path, "w")
    assert rep.diverged
    assert not rep.converged


def test_overdamped_weight_tends_to_zero():
    # an extra vanishing factor drives the report to zero
    path = default_path(SPEC, (0, 1.0, 0.0), Stratum.S2)
    base_w = make_weight(SPEC, "r")
    from bergman.domains import defining_function as dfn
    rep = weighted_limit(kernel_ball_disk_lift(1, 1), path,
                         lambda p: base_w(p) * (-dfn(SPEC, p)))
    assert abs(rep.limit) < 1e-3


def test_expected_weight_pairing():
    assert expected_weight(SPEC, Stratum.S2) == "r"
    assert expected_weight(SPEC, Stratum.S3) == "w"
    assert expected_weight(SPEC, Stratum.S4) == "product"
    assert expected_weight(VSPEC, Stratum.S2) == "rho"


def test_polydisk_corner_weighted_limits():
    # product kernel on the bidisk: the weighted diagonal limit at a
    # boundary point depends on which factors reach modulus one
    from bergman.kernels import kernel_polydisk
    from bergman.catalog import polydisk_spec
    K = kernel_polydisk(2)
    spec = polydisk_spec(2)
    w2 = 0.3

    def probe(point_fn, weight, want):
        path = ApproachPath(spec, point_fn(0.0), Stratum.S1, point_fn,
                            lambda p: True)
        rep = weighted_limit(K, path, weight)
        assert abs(rep.limit - want) / want < 1e-3

    # |z1| -> 1, |z2| fixed: weight (1-|z1|^2)^2
    probe(lambda t: (1.0 - t, w2),
          lambda p: (1 - abs(p[0]) ** 2) ** 2,
          1.0 / (PI ** 2 * (1 - w2 ** 2) ** 2))
    # |z2| -> 1, |z1| fixed
    probe(lambda t: (w2, 1.0 - t),
          lambda p: (1 - abs(p[1]) ** 2) ** 2,
          1.0 / (PI ** 2 * (1 - w2 ** 2) ** 2))
    # both factors reach the circle: product weight, limit 1/pi^2
    probe(lambda t: (1.0 - t, 1.0 - 2 * t / 3),
          lambda p: (1 - abs(p[0]) ** 2) ** 2 * (1 - abs(p[1]) ** 2) ** 2,
          1.0 / PI ** 2)


def test_disk_radial_probe():
    dsp = disk_spec()
    path = ApproachPath(dsp, (1.0,), Stratum.S1, lambda t: (1.0 - t,),
                        lambda p: True)
    rep = weighted_limit(kernel_ball(1), path,
                         lambda p: (1 - abs(p[0]) ** 2) ** 2)
    assert abs(rep.limit - 1 / PI) * PI < 1e-3


def test_probe_report_csv(tmp_path):
    path = default_path(SPEC, (0, 1.0, 0.0), Stratum.S2)
    rep = weighted_limit(kernel_ball_disk_lift(1, 1), path, "r")
    out = tmp_path / "probe.csv"
    rep.to_csv(out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "k,t,kernel,weighted,extrapolated"
    assert len(lines) == len(rep.ts) + 1


def test_levi_ball():
    v = levi_min_eigenvalue(ball_spec(2), (1.0, 0.0))
    assert abs(v - 1.0) < 1e-4


def test_levi_strongly_pseudoconvex_point():
    z = math.sqrt((1 - 0.09) * (1 - 0.25))
    assert levi_min_eigenvalue(SPEC, (z, 0.5, 0.3)) > 0.0


def test_levi_weakly_pseudoconvex_point():
    assert abs(levi_min_eigenvalue(VSPEC, (0.0, 1.0, 0.4))) < 1e-6


def test_levi_rejects_degenerate_gradient():
    with pytest.raises(BoundaryError):
        levi_min_eigenvalue(VSPEC, (0.0, 0.0, 0.2))
