import hashlib
import json
import math
import re

import numpy as np
import pytest

import bergman.boundary as boundary
from bergman.boundary import (ApproachPath, BoundaryError, Stratum, _stencil,
                              default_path, expected_weight,
                              levi_min_eigenvalue, make_weight,
                              predicted_limit, stratify_point, weighted_limit)
from bergman.catalog import (ball_spec, disk_spec, ball_disk_lift_spec,
                             ball_exp_lift_spec)
from bergman.cli import _fmt, main
from bergman.domains import (BaseDomain, DomainSpec, LiftStep, SpecError,
                             contains, defining_function, sample_interior,
                             spec_to_dict)
from bergman.kernels import (Kernel, kernel_ball, kernel_ball_disk_lift,
                             kernel_ball_exp_lift)
from bergman.lifting import compose_pipeline

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
        lo, hi = 1.0, 2.0
        while contains(SPEC, tuple(hi * p)):    # bracket the boundary crossing
            lo, hi = hi, 2.0 * hi
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if contains(SPEC, tuple(mid * p)):
                lo = mid
            else:
                hi = mid
        b = tuple(lo * p)
        s = stratify_point(SPEC, b)
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
        assert path.ts == [2.0 ** -k for k in range(1, 13)]
        assert path.panel.shape == (len(path.ts), SPEC.dim)
        for t, p in zip(path.ts, path.panel.tolist()):
            assert tuple(p) == tuple(complex(c) for c in path.point_fn(t))
            assert contains(SPEC, tuple(p))


def test_default_path_rejects_bad_region_exponents():
    # the S3 region exponent 2 alpha_j exceeds alpha_j only for alpha_j > 0
    spec = DomainSpec(BaseDomain("GeneralizedComplexEllipsoid", 2, 0, (1.0, 1.0)),
                      (LiftStep("U", (1.0, 0.0), 1),))
    with pytest.raises(BoundaryError, match="lift weight positive"):
        default_path(spec, (0, 0, 1.0), Stratum.S3)


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
    assert predicted_limit(SPEC, (0, 1.0, 1.0), Stratum.S4) == pytest.approx(want)


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
    # first level t = 1/2: z = scale * t^(1/s) with s = 1/2
    assert path.panel[0, 0] == pytest.approx(0.25 * math.exp(-2.0 * 0.99 ** 2) * 0.25)
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


def test_probe_report_csv(tmp_path, capsys):
    # the probe CSV is written by `boundary --out`; it holds one row per level
    # of the report that weighted_limit returns for the same kernel and target
    path = default_path(SPEC, (0, 1.0, 0.0), Stratum.S2)
    rep = weighted_limit(compose_pipeline(SPEC), path, "r")
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(spec_to_dict(SPEC)))
    out = tmp_path / "probe.csv"
    assert main(["boundary", "--spec", str(spec), "--target", "[[0,0],[1,0],[0,0]]",
                 "--stratum", "S2", "--weight", "r", "--out", str(out)]) == 0
    capsys.readouterr()
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "k,t,kernel,weighted,extrapolated"
    assert len(lines) == len(rep.ts) + 1
    assert lines[1:] == [",".join([str(k), *map(_fmt, row)]) for k, row in enumerate(
        zip(rep.ts, rep.kernel_values, rep.weighted, rep.extrapolated), start=1)]


PROBE_FAMILIES = {"ball_disk_lift_11": ball_disk_lift_spec(1, 1),
                  "ball_disk_lift_12": ball_disk_lift_spec(1, 2)}
PROBE_FAMILIES.update({f"ball_exp_lift_1{m}_g{g}": ball_exp_lift_spec(1, m, (g,))
                       for m in (1, 2) for g in (0.5, 1.0, 2.0)})


def _seeded_targets(spec, seed, per_stratum=3):
    """(stratum, target) on every stratum the geometry benchmark probes, S2,
    S3 and S4 on a U-step lift and S2 on a V-step, drawn as it draws them:
    |z'| = 1 off S3, |z'| <= 0.7 on S3, |w| = 1 on S3 and S4, and on S2 w
    uniform in the disk of radius 0.7 (U) or 1 (V)."""
    u = spec.lifts[0].kind == "U"
    m = spec.base.m_passive
    rng = np.random.default_rng(seed)
    for stratum in ("S2", "S3", "S4") if u else ("S2",):
        for _ in range(per_stratum):
            zp = rng.normal(size=m) + 1j * rng.normal(size=m)
            zp /= np.linalg.norm(zp)
            if stratum == "S3":
                zp *= 0.7 * math.sqrt(rng.random())
            phase = np.exp(2j * PI * rng.random())
            w = (0.7 if u else 1.0) * math.sqrt(rng.random()) * phase if stratum == "S2" else phase
            yield stratum, (0j, *zp, w)


def _boundary_bytes(tmp_path, capsys, fam):
    """Exit code, stdout, stderr and --out CSV of `boundary` at three seeded
    targets per stratum: S2, S3 and S4 on a U-step lift, S2 on a V-step."""
    spec = PROBE_FAMILIES[fam]
    specf, out = tmp_path / "spec.json", tmp_path / "probe.csv"
    specf.write_text(json.dumps(spec_to_dict(spec)))
    blob = []
    for stratum, target in _seeded_targets(spec, 35):
        out.unlink(missing_ok=True)
        rc = main(["boundary", "--spec", str(specf),
                   "--target", json.dumps([[c.real, c.imag] for c in target]),
                   "--stratum", stratum, "--weight", expected_weight(spec, Stratum[stratum]),
                   "--out", str(out)])
        got = capsys.readouterr()
        csv = out.read_bytes() if out.exists() else b""
        blob.append(f"{stratum} {rc}\n{got.out}{got.err}".encode() + csv)
    return b"".join(blob)


@pytest.mark.parametrize("fam, digest", [
    ("ball_disk_lift_11", "89913d2878dffc3e"), ("ball_disk_lift_12", "72d73fb810c692a1"),
    ("ball_exp_lift_11_g0.5", "19e3aa3219aa76f7"), ("ball_exp_lift_11_g1.0", "2b78f6b0a4397059"),
    ("ball_exp_lift_11_g2.0", "9dfa96302f14ccf8"), ("ball_exp_lift_12_g0.5", "81fc67604fbc6c9b"),
    ("ball_exp_lift_12_g1.0", "82653c6423abd209"), ("ball_exp_lift_12_g2.0", "b11a7c91076d0cbf")])
def test_boundary_output_pinned(tmp_path, capsys, fam, digest):
    # `boundary` stdout and --out CSV stay byte-identical for fixed targets,
    # on every family and stratum the geometry benchmark probes
    got = _boundary_bytes(tmp_path, capsys, fam)
    assert hashlib.sha256(got).hexdigest()[:16] == digest


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


# ---------------------------------------------------------------------------
# the panel probe against the one-point loop it replaced


def _one_point_weight(spec, name):
    """The named weight of one point, as the one-point loop computed it."""
    e_r = spec.base.n_star + spec.base.m_passive + 1
    wr = lambda p: (-defining_function(spec, p)) ** e_r
    if name in ("r", "rho"):
        return wr
    e_w = 2.0 + sum(spec.lifts[0].weights)
    ww = lambda p: (1.0 - abs(p[-1]) ** 2) ** e_w
    return ww if name == "w" else (lambda p: wr(p) * ww(p))


class _Given:
    """Stand-in kernel whose diagonal returns the values it was given."""

    def __init__(self, values):
        self.values = values

    def diagonal(self, cols):
        return self.values


def _one_point_probe(K, path, name):
    """K.diagonal and the weight of one level at a time; weighted_limit's
    statistics then run on the values collected."""
    weight = _one_point_weight(path.spec, name)
    pts = [tuple(complex(c) for c in path.point_fn(t)) for t in path.ts]
    kv = np.array([K.diagonal(p) for p in pts])
    return weighted_limit(_Given(kv), path, lambda cols: np.array([weight(p) for p in pts]))


def _probe_cases():
    rng = np.random.default_rng(9)
    phase = lambda: np.exp(2j * PI * rng.random())
    cases = []
    for _ in range(12):
        cases += [(SPEC, (0, phase(), 0.7 * math.sqrt(rng.random()) * phase()), Stratum.S2),
                  (SPEC, (0, 0.7 * math.sqrt(rng.random()) * phase(), phase()), Stratum.S3),
                  (SPEC, (0, phase(), phase()), Stratum.S4),
                  (VSPEC, (0, phase(), math.sqrt(rng.random()) * phase()), Stratum.S2)]
    return cases


def test_panel_probe_matches_one_point_loop():
    # the kernel is ill-conditioned near the boundary, so the panel's
    # round-off grows along the path: worst measured 3.6e-12 on the kernel
    # values and 1.5e-11 on the limits
    kernels = {SPEC: compose_pipeline(SPEC), VSPEC: compose_pipeline(VSPEC)}
    for spec, target, stratum in _probe_cases():
        name = expected_weight(spec, stratum)
        path = default_path(spec, target, stratum)
        rep = weighted_limit(kernels[spec], path, name)
        ref = _one_point_probe(kernels[spec], path, name)
        assert rep.ts == ref.ts == path.ts
        assert (rep.converged, rep.diverged) == (ref.converged, ref.diverged)
        np.testing.assert_allclose(rep.kernel_values, ref.kernel_values, rtol=1e-11, atol=0)
        assert abs(rep.limit - ref.limit) <= 1e-10 * abs(ref.limit), (target, stratum)


@pytest.mark.parametrize("k", [2, 7, 12])
def test_path_failure_names_the_first_failing_level(k):
    # a path that leaves the domain, its region or its approach at level k
    # raises when it is made, with the message and t of the one-point loop;
    # the first path also moves away at level k, and the domain check comes
    # first; a region that is singular outside the domain only sees the rows
    # inside.  point_fn takes the array of levels, so each path switches at
    # level k with np.where
    tk = 2.0 ** -k
    inside = lambda t: (0.0, 1.0 - t, 0.0)
    cases = [(lambda t: (0.0, np.where(t > tk, 1.0 - t, 1.0 + 3.0 * t), 0.0), lambda p: True,
              f"path left the domain at t = {tk}"),
             (lambda t: (0.0, np.where(t > tk, 1.0 - t, 0.5), np.where(t > tk, 0.0, 1.0 + t)),
              lambda p: defining_function(SPEC, p) < 0,
              f"path left the domain at t = {tk}"),
             (inside, lambda p: abs(p[1]) < 1.0 - tk,
              f"path left the approach region at t = {tk}"),
             (lambda t: inside(np.where(t > tk, t, 3.0 * t)), lambda p: True,
              "path does not approach the target")]
    for point_fn, region_fn, message in cases:
        with pytest.raises(BoundaryError, match=f"^{re.escape(message)}$"):
            ApproachPath(SPEC, (0, 1.0, 0.0), Stratum.S2, point_fn, region_fn)
    # a path with the wrong number of coordinates: the SpecError of
    # contains, for the whole path at once
    with pytest.raises(SpecError, match="^point has 2 coordinates, spec has 3$"):
        ApproachPath(SPEC, (0, 1.0, 0.0), Stratum.S2, lambda t: (0.0, 1.0 - t), lambda p: True)


def test_validated_paths_compare_without_their_panels():
    a = default_path(SPEC, (0, 1.0, 0.5), Stratum.S2)
    b = default_path(SPEC, (0, 0.5, 1.0), Stratum.S3)
    assert a.panel is not None and b.panel is not None
    assert a != b and a == a
    with pytest.raises(TypeError):
        ApproachPath(SPEC, (0, 1.0, 0.0), Stratum.S2, a.point_fn, a.region_fn, panel=a.panel)


def test_nonfinite_levels_end_the_probe():
    # a kernel that is inf from the 9th level on: the probe keeps levels
    # 1-8, where the one-point loop stopped, and is marked diverged
    base = kernel_ball_disk_lift(1, 1)
    K = Kernel(lambda u: np.where(np.arange(len(u[0])) < 8, base.fn(u), np.inf),
               base.domain)
    path = default_path(SPEC, (0, 1.0, 0.0), Stratum.S2)
    rep = weighted_limit(K, path, "r")
    assert rep.ts == path.ts[:8]
    assert rep.diverged and not rep.converged
    assert rep.kernel_values == weighted_limit(base, path, "r").kernel_values[:8]


def test_nonfinite_levels_cost_no_second_call():
    # the probe keeps the finite levels of its one diagonal call
    class Counted(Kernel):
        diagonals = 0

        def diagonal(self, p):
            Counted.diagonals += 1
            return super().diagonal(p)

    base = kernel_ball_disk_lift(1, 1)
    K = Counted(lambda u: np.where(np.arange(len(u[0])) < 8, base.fn(u), np.nan),
                base.domain)
    rep = weighted_limit(K, default_path(SPEC, (0, 1.0, 0.0), Stratum.S2), "r")
    assert rep.diverged and len(rep.ts) == 8
    assert Counted.diagonals == 1


@pytest.mark.parametrize("spec,target,stratum", [
    (SPEC, (0, 1.0, 0.5), Stratum.S2), (SPEC, (0, 0.5, 1.0), Stratum.S3),
    (SPEC, (0, 1.0, 1j), Stratum.S4), (VSPEC, (0, 1.0, 0.4), Stratum.S2)])
def test_probe_makes_one_kernel_call(spec, target, stratum):
    base = compose_pipeline(spec)
    calls = []

    def fn(u):
        calls.append(len(u[0]))
        return base.fn(u)

    K = Kernel(fn, base.domain)
    weighted_limit(K, default_path(spec, target, stratum), expected_weight(spec, stratum))
    assert calls == [12]


@pytest.mark.parametrize("fam", sorted(PROBE_FAMILIES))
def test_default_path_panel_equals_point_fn_per_level(fam):
    # point_fn made the whole panel in one call on the array of levels;
    # called with one t at a time it gives each row bitwise
    spec = PROBE_FAMILIES[fam]
    made = 0
    for seed in (35, 36, 37):
        for stratum, target in _seeded_targets(spec, seed, per_stratum=8):
            try:
                path = default_path(spec, target, Stratum[stratum])
            except BoundaryError as e:   # the V-step limitation near |w| = 1
                assert "path left the approach region" in str(e)
                continue
            rows = np.array([[complex(c) for c in path.point_fn(t)] for t in path.ts])
            assert path.panel.shape == rows.shape
            assert path.panel.tobytes() == rows.tobytes(), (stratum, target)
            made += 1
    assert made >= 20


def _lstsq_r_squared(rep):
    """r^2 of the order check as np.linalg.lstsq gives it, from the report."""
    f = np.array(rep.weighted)
    diffs = np.abs(np.diff(f))
    mask = diffs > 1e-15 * np.max(np.abs(f))
    if mask.sum() < 3:
        return 1.0
    x, y = np.log(np.array(rep.ts[:-1])[mask]), np.log(diffs[mask])
    _, res, _, _ = np.linalg.lstsq(np.vstack([x, np.ones_like(x)]).T, y, rcond=None)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    return 1.0 - float(res[0]) / ss_tot if len(res) and ss_tot > 0 else 1.0


def test_closed_form_order_check_matches_least_squares():
    # r^2 = S_xy^2 / (S_xx S_yy) against the least-squares residual, on
    # seeded probes of every family with their own weight and with r, and
    # on seeded random values, whose fits are poor
    reports = []
    for fam, spec in sorted(PROBE_FAMILIES.items()):
        K = compose_pipeline(spec)
        for stratum, target in _seeded_targets(spec, 36):
            try:
                path = default_path(spec, target, Stratum[stratum])
            except BoundaryError:
                continue
            for name in {expected_weight(spec, Stratum[stratum]), "r"}:
                reports.append(weighted_limit(K, path, name))
    path = default_path(SPEC, (0, 1.0, 0.0), Stratum.S2)
    rng = np.random.default_rng(37)
    for _ in range(40):
        reports.append(weighted_limit(_Given(rng.uniform(1.0, 2.0, 12)), path, lambda p: 1.0))
    # constant differences: S_yy = 0, r^2 = 1
    flat = weighted_limit(_Given(np.arange(1.0, 13.0)), path, lambda p: 1.0)
    assert flat.r_squared == _lstsq_r_squared(flat) == 1.0 and flat.used_richardson
    assert {rep.used_richardson for rep in reports} == {True, False}
    for rep in reports:
        want = _lstsq_r_squared(rep)
        assert abs(rep.r_squared - want) <= 1e-12
        assert rep.used_richardson == (want >= 0.9)


def test_stratify_point_evaluates_only_the_gradient_rows(monkeypatch):
    # the classification panel holds the 4n gradient rows of the n stars,
    # not the full stencil, and the gradient is the full stencil's bitwise
    rows, real = [], boundary.defining_function
    monkeypatch.setattr(boundary, "defining_function",
                        lambda spec, p: rows.append(np.size(p[0])) or real(spec, p))
    z = math.sqrt((1 - 0.09) * (1 - 0.25))
    for p, want in (((0, 1.0, 0.5), Stratum.S2), ((0, 0.5, 1.0), Stratum.S3),
                    ((0, 1.0, 1.0), Stratum.S4), ((z, 0.5, 0.3), Stratum.S1)):
        rows.clear()
        assert stratify_point(SPEC, p) is want
        stars = SPEC.star_indices()
        if want in (Stratum.S1, Stratum.S2):
            assert rows == [1, 4 * len(stars)]
            assert np.array_equal(_stencil(SPEC, p, stars, 1e-6, hessian=False)[0],
                                  _stencil(SPEC, p, stars, 1e-6)[0])


def _one_point_gradient(spec, p, indices, step):
    grad = []
    for j in indices:
        vals = []
        for dz in (step, -step, 1j * step, -1j * step):
            q = [complex(c) for c in p]
            q[j] = q[j] + dz
            vals.append(defining_function(spec, q))
        dx = (vals[0] - vals[1]) / (2 * step)
        dy = (vals[2] - vals[3]) / (2 * step)
        grad.append(0.5 * (dx - 1j * dy))
    return np.array(grad)


def _one_point_levi(spec, p, step=1e-4):
    """levi_min_eigenvalue with its stencils evaluated one point at a time."""
    d = spec.dim
    r_at = lambda x: defining_function(spec, [complex(x[2 * j], x[2 * j + 1]) for j in range(d)])
    x0 = np.array([v for c in p for v in (complex(c).real, complex(c).imag)])
    grad = _one_point_gradient(spec, p, range(d), step)
    f0 = r_at(x0)
    hr = np.empty((2 * d, 2 * d))
    for a in range(2 * d):
        ea = np.zeros(2 * d); ea[a] = step
        hr[a, a] = (r_at(x0 + ea) - 2 * f0 + r_at(x0 - ea)) / step ** 2
        for b in range(a):
            eb = np.zeros(2 * d); eb[b] = step
            hr[a, b] = hr[b, a] = (
                r_at(x0 + ea + eb) - r_at(x0 + ea - eb)
                - r_at(x0 - ea + eb) + r_at(x0 - ea - eb)) / (4 * step ** 2)
    H = np.empty((d, d), dtype=complex)
    for j in range(d):
        for k in range(d):
            H[j, k] = 0.25 * ((hr[2 * j, 2 * k] + hr[2 * j + 1, 2 * k + 1])
                              + 1j * (hr[2 * j, 2 * k + 1] - hr[2 * j + 1, 2 * k]))
    H = 0.5 * (H + H.conj().T)
    g = grad.conj().reshape(-1, 1)
    qmat, _ = np.linalg.qr(np.concatenate([g, np.eye(d, dtype=complex)], axis=1))
    basis = qmat[:, 1:d]
    return float(np.min(np.linalg.eigvalsh(basis.conj().T @ H @ basis)))


def test_stencil_panels_equal_one_point_stencils():
    # same arithmetic on the same squared moduli: bitwise equal
    z = math.sqrt((1 - 0.09) * (1 - 0.25))
    cases = [(ball_spec(2), (1.0, 0.0)), (SPEC, (z, 0.5, 0.3)), (VSPEC, (0.0, 1.0, 0.4))]
    for spec in (SPEC, VSPEC, ball_disk_lift_spec(1, 2)):
        cases += [(spec, tuple(p)) for p in sample_interior(spec, 5, seed=3).points]
    for spec, p in cases:
        assert levi_min_eigenvalue(spec, p) == _one_point_levi(spec, p)
        want = _one_point_gradient(spec, p, spec.star_indices(), 1e-6)
        # the gradient stratify_point classifies with, alone or with the Hessian
        for hessian in (False, True):
            assert np.array_equal(
                _stencil(spec, p, spec.star_indices(), 1e-6, hessian)[0], want)
