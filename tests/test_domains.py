import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bergman.domains import (MAX_DIM, SAMPLE_CHUNK, BaseDomain, DomainSpec, LiftStep, SamplingError,
                             SingularEvaluationError, SpecError, chain_volume, contains,
                             defining_function, sample_interior, shadow_contains, slice_map,
                             spec_from_dict, spec_to_dict, star_shape_check)
from bergman.catalog import (ball_spec, egg_spec, disk_spec, ball_disk_lift_spec,
                             ball_exp_lift_spec, chain_stage_spec, polydisk_spec)
from bergman.oracle import monomial_norm_full

FIXTURE_SPECS = {
    "disk": disk_spec(),
    "ball2": ball_spec(2),
    "polydisk2": polydisk_spec(2),
    "egg": egg_spec(1, 2.0),
    "ball_disk_lift": ball_disk_lift_spec(1, 1),
    "ball_exp_lift": ball_exp_lift_spec(1, 1, (1.0,)),
    "stage3": chain_stage_spec(3, 2.0),
    "stage4": chain_stage_spec(4, 2.0, 1.5),
}


def test_contains_quartic_fiber():
    spec = egg_spec(1, 2.0)      # |z|^4 + |w|^2 < 1
    assert contains(spec, (0.5, 0.5))
    assert not contains(spec, (1.0, 0.1))


def test_contains_exponential_fiber():
    spec = ball_exp_lift_spec(1, 1, (1.0,))
    # e^1 * 0.25 + 0.25 = 0.9296 < 1
    assert contains(spec, (0.5, 0.5, 1.0))
    assert not contains(spec, (0.6, 0.5, 1.0))


def test_contains_dimension_mismatch():
    with pytest.raises(SpecError):
        contains(disk_spec(), (0.1, 0.2))


def test_defining_function_values():
    assert defining_function(ball_disk_lift_spec(1, 1), (0, 0, 0)) == pytest.approx(-1.0)
    # quartic fiber, base exponent 2 with lift weight 1/2:
    # r = |z|^4/(1-|w|^2) - 1 at (0.5, 0.6)
    spec = egg_spec(1, 2.0)
    r = defining_function(spec, (0.5, 0.6))
    assert r == pytest.approx(0.0625 / 0.64 - 1.0, abs=1e-12)
    assert r == pytest.approx(-0.90234375)
    # boundary point of the disk-fibered ball lift
    assert defining_function(ball_disk_lift_spec(1, 1), (0, 1.0, 0.5)) == pytest.approx(0.0, abs=1e-14)


def test_defining_function_singular_at_unit_w():
    with pytest.raises(SingularEvaluationError):
        defining_function(egg_spec(1, 2.0), (0.0, 1.0))


def test_slice_map_values():
    u_id = DomainSpec(BaseDomain("GeneralizedComplexEllipsoid", 1, 0, (1.0,)),
                      (LiftStep("U", (1.0,), 1),))
    assert slice_map(u_id, 0, (0.4, 0.0))[0] == pytest.approx(0.4)
    v = ball_exp_lift_spec(1, 0, (1.0,))
    w = math.sqrt(math.log(4.0))
    out = slice_map(v, 0, (0.4, w))
    assert out[0] == pytest.approx(0.8)
    u = DomainSpec(BaseDomain("GeneralizedComplexEllipsoid", 1, 0, (1.0,)),
                   (LiftStep("U", (0.5,), 1),))
    out = slice_map(u, 0, (0.5, math.sqrt(0.75)))
    assert out[0] == pytest.approx(0.5 / 0.25 ** 0.25)
    assert out[0] == pytest.approx(0.7071067811865476)


def test_slice_map_rejects_unit_w():
    spec = DomainSpec(BaseDomain("GeneralizedComplexEllipsoid", 1, 0, (1.0,)),
                      (LiftStep("U", (1.0,), 1),))
    with pytest.raises(SingularEvaluationError):
        slice_map(spec, 0, (0.1, 1.0))
    with pytest.raises(SpecError):
        slice_map(spec, 1, (0.1, 0.5))


def test_slice_map_unwinds_membership():
    spec = ball_disk_lift_spec(1, 1)
    rng = np.random.default_rng(3)
    for _ in range(200):
        p = tuple(complex(a, b) for a, b in rng.uniform(-0.9, 0.9, size=(3, 2)))
        if abs(p[2]) >= 1.0:
            continue
        inner = slice_map(spec, 0, p)
        outer_in = contains(spec, p)
        inner_in = contains(DomainSpec(spec.base), inner)
        assert outer_in == (inner_in and abs(p[2]) < 1.0)


def test_sample_disk_acceptance_ratio():
    # box radius 1 draws the unit polydisk: the disk is its own bounding
    # polydisk, and the ball takes half of D^2
    assert sample_interior(disk_spec(), 10 ** 5, seed=3,
                           box_radius=1.0).acceptance_ratio == 1.0
    res = sample_interior(ball_spec(2), 10 ** 5, seed=3, box_radius=1.0)
    assert res.acceptance_ratio == pytest.approx(0.5, abs=0.01)
    # the exact draw keeps nearly every row it draws
    for spec in (disk_spec(), ball_spec(2), chain_stage_spec(6), egg_spec(2, 1.5, 3)):
        assert sample_interior(spec, 10 ** 4, seed=3).acceptance_ratio >= 0.999


def test_sample_ball2_volume():
    res = sample_interior(ball_spec(2), 10 ** 5, seed=3)
    want = math.pi ** 2 / 2
    assert res.volume_estimate == pytest.approx(want, rel=0.02)


def test_sample_count_zero_rejected():
    with pytest.raises(SpecError):
        sample_interior(disk_spec(), 0)


@pytest.mark.parametrize("radius", ["box_radius"])
@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf, 1e300])
def test_sample_rejects_bad_radius(radius, value):
    # -1 mirrored the box, nan or inf made SAMPLE_MAX_DRAWS draws before
    # failing, and 1e300 squared the V-step w's disk to inf
    with pytest.raises(ValueError, match="finite and positive"):
        sample_interior(ball_exp_lift_spec(1, 1, (1.0,)), 10, seed=1, **{radius: value})


@pytest.mark.parametrize("seed", [-1, 1 << 64, -(1 << 70)])
def test_sample_rejects_seed_out_of_range(seed):
    # Philox takes a 64-bit key: these seeds raised OverflowError
    with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\*\*64\)"):
        sample_interior(disk_spec(), 10, seed=seed)


def _reference_box_sample(spec, count, seed, box_radius):
    """The box path's polar draw loop, written out: per chunk, squared
    moduli from rng.uniform(0, R^2) with R = min(1, b sqrt 2) (b sqrt 2 for
    a V-step w), the shadow test, then rng.uniform(0, 1) angles for the
    accepted rows only and the one-point-route re-check, which also asks
    for |Re c|, |Im c| <= b."""
    cap = box_radius * math.sqrt(2.0)
    rad2 = np.array([cap if j in spec.v_w_indices() else 1.0 for j in range(spec.dim)]) ** 2
    rad2 = np.minimum(rad2, cap ** 2)

    def keep(p):
        return contains(spec, tuple(p)) and all(
            max(abs(c.real), abs(c.imag)) <= box_radius for c in p)

    rng = np.random.Generator(np.random.Philox(key=seed))
    accepted, chunks = [], 0
    while sum(map(len, accepted)) < count:
        chunks += 1
        x = rng.uniform(0.0, rad2, (SAMPLE_CHUNK, spec.dim))
        x = x[shadow_contains(spec, x)]
        theta = rng.uniform(0.0, 1.0, x.shape)
        pts = np.sqrt(x) * np.exp(2j * np.pi * theta)
        accepted.append(pts[[keep(p) for p in pts]])
    pts = np.concatenate(accepted)
    draws = chunks * SAMPLE_CHUNK
    return pts[:count], draws, len(pts) / draws


def _reference_chain_sample(spec, count, seed):
    """The exact draw, written out from its law: per chunk of at most
    SAMPLE_CHUNK rows and at most the missing count, the ellipsoid base's
    y ~ Dirichlet(1/p_1, ..., 1/p_n, 1) with x_j = y_j^(1/p_j) (a polydisk's
    x uniform), then per lift t = ||w||^2 from Beta(k, A+1) (U) or
    Gamma(k, 1/A) (V), each acted x_j times (1-t)^a_j or e^(-a_j t), the
    w-block t times Dirichlet(1, ..., 1) when k > 1; then uniform angles
    and the one-point-route re-check."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    base, stars = spec.base, list(range(spec.base.n_star))
    accepted, draws = [], 0
    while sum(map(len, accepted)) < count:
        n = min(SAMPLE_CHUNK, count - sum(map(len, accepted)))
        draws += n
        if base.kind == "Polydisk":
            cols = list(rng.uniform(0.0, 1.0, (n, base.dim)).T)
        else:
            inv_p = 1.0 / np.array(base.exponents)
            y = rng.dirichlet(list(inv_p) + [1.0], n)
            cols = list(np.power(y[:, :base.dim], inv_p).T)
        for step in spec.lifts:
            A = sum(step.weights)
            if step.kind == "U":
                t = rng.beta(step.w_dim, A + 1.0, n)
            else:
                t = rng.gamma(step.w_dim, 1.0 / A, n)
            for j, a in zip(stars, step.weights):
                if a != 0.0:
                    cols[j] = cols[j] * ((1.0 - t) ** a if step.kind == "U"
                                         else np.exp(-a * t))
            split = (rng.dirichlet([1.0] * step.w_dim, n) if step.w_dim > 1
                     else np.ones((n, 1)))
            stars += range(len(cols), len(cols) + step.w_dim)
            cols += list((t[:, None] * split).T)
        x = np.column_stack(cols)
        theta = rng.uniform(0.0, 1.0, x.shape)
        pts = np.sqrt(x) * np.exp(2j * np.pi * theta)
        accepted.append(pts[[contains(spec, tuple(p)) for p in pts]])
    pts = np.concatenate(accepted)
    return pts[:count], draws, len(pts) / draws


@pytest.mark.parametrize("spec, count, seed, box_radius", [
    (chain_stage_spec(2), 3000, (1 << 64) - 1, None),
    (chain_stage_spec(3), 3000, 6, None),
    (chain_stage_spec(4), 1000, 7, None),
    (chain_stage_spec(5), 300, 8, None),
    (ball_exp_lift_spec(1, 2, (2.0,)), 3000, 9, None),
    (chain_stage_spec(3), 3000, 10, 0.6),
    (chain_stage_spec(6), 100, 6, None),
    (chain_stage_spec(5), 500, 5, 0.5),
    (egg_spec(2, 1.5, 3), 5000, 4, None),
    (polydisk_spec(2), 100, 3, None),
], ids=["stage2", "stage3", "stage4", "stage5", "exp_lift_12_g2", "stage3-box",
        "stage6", "stage5-box", "egg_w3", "polydisk2"])
def test_sample_draw_stream_matches_reference(spec, count, seed, box_radius):
    res = sample_interior(spec, count, seed=seed, box_radius=box_radius)
    if box_radius is None:
        pts, draws, ratio = _reference_chain_sample(spec, count, seed)
    else:
        pts, draws, ratio = _reference_box_sample(spec, count, seed, box_radius)
    assert np.array_equal(res.points, pts)
    assert res.draws == draws
    assert res.acceptance_ratio == ratio


def test_sample_box_radius_is_a_square():
    # box_radius b gives points uniform on the domain cut to [-b, b]^2 per
    # coordinate: on the disk at b = 0.6 the cut is the whole square, of
    # area 1.44 and mean |z|^2 = 2 b^2 / 3 (a disk of radius b gives b^2 / 2)
    res = sample_interior(disk_spec(), 2 * 10 ** 4, seed=3, box_radius=0.6)
    assert res.volume_estimate == pytest.approx(1.44, rel=0.02)
    assert np.mean(np.abs(res.points) ** 2) == pytest.approx(0.24, rel=0.03)
    # in the square's corners |z_j|^2 reaches 0.72, so the 2-ball's boundary
    # |z|^2 = 1 is within reach (a disk of radius b stops at 0.72)
    pts = sample_interior(ball_spec(2), 2000, seed=3, box_radius=0.6).points
    assert np.max(np.sum(np.abs(pts) ** 2, axis=1)) > 0.95


@pytest.mark.parametrize("stage, digest", [
    (2, "67bf758958fb9a52"), (3, "783339b36563a777"), (4, "ba2fa4813e9e7064"),
    (5, "6c6a5fda747b9692"), (6, "c1eefca5dec3d5bc")])
def test_chain_sample_digest_pinned(stage, digest):
    # the sampler forms the squared moduli from its chain draws in _chain_shadow;
    # `sample` output must keep these bytes
    pts = sample_interior(chain_stage_spec(stage), 2000, seed=11).points
    assert hashlib.sha256(pts.tobytes()).hexdigest()[:16] == digest


def test_sample_deterministic_for_seed():
    a = sample_interior(ball_disk_lift_spec(1, 1), 500, seed=9).points
    b = sample_interior(ball_disk_lift_spec(1, 1), 500, seed=9).points
    assert np.array_equal(a, b)


def test_sample_v_step_w_is_not_truncated():
    # a V-step w ranges over all of C: with weight 1/4, t = |w|^2 has mean
    # 4 and passes the old truncation at |w| = 3 in 10% of the rows, and
    # its sample mean meets the oracle's ||w||^2 / ||1||^2
    spec = ball_exp_lift_spec(1, 1, (0.25,))
    res = sample_interior(spec, 2 * 10 ** 4, seed=5)
    w2 = np.abs(res.points[:, 2]) ** 2
    assert np.mean(w2 > 9.0) == pytest.approx(math.exp(-9.0 / 4.0), rel=0.1)
    volume = monomial_norm_full(spec, (0, 0, 0))[0]
    assert np.mean(w2) == pytest.approx(monomial_norm_full(spec, (0, 0, 1))[0] / volume,
                                        rel=0.03)


def test_sample_box_path_caps_v_step_w_at_the_square():
    # the box path caps a V-step w at b sqrt 2, the disk around the square
    # [-b, b]^2, so at b = 3 the square's corners beyond |w| = 3 are reached
    spec = ball_exp_lift_spec(1, 1, (0.1,))
    w = sample_interior(spec, 4000, seed=2, box_radius=3.0).points[:, 2]
    assert np.all(np.maximum(abs(w.real), abs(w.imag)) <= 3.0)
    assert np.any(abs(w) > 3.0)
    assert np.all(abs(w) <= 3.0 * math.sqrt(2.0))


@pytest.mark.parametrize("spec", [chain_stage_spec(s) for s in range(2, 7)] + [
    polydisk_spec(2), ball_exp_lift_spec(1, 2, (2.0,)), egg_spec(2, 1.5, 3)],
    ids=[f"stage{s}" for s in range(2, 7)] + ["polydisk2", "exp_lift_12_g2", "egg_w3"])
def test_chain_volume_matches_oracle(spec):
    # the closed-form volume against the oracle's quadrature ||1||^2, and
    # the exact draw reports it
    volume = monomial_norm_full(spec, (0,) * spec.dim)[0]
    assert chain_volume(spec) == pytest.approx(volume, rel=1e-12)
    assert sample_interior(spec, 10, seed=1).volume_estimate == chain_volume(spec)


def test_sample_fails_when_the_draw_overflows():
    # weight 1e-310: the scale 1/A of the V-step's Gamma law overflows, so
    # every w is infinite; the sampler stops after the chunks that could
    # hold SAMPLE_MAX_DRAWS rows instead of looping
    with pytest.raises(SamplingError, match="only 0/10"):
        sample_interior(ball_exp_lift_spec(1, 1, (1e-310,)), 10, seed=1)


@pytest.mark.parametrize("spec", [chain_stage_spec(3), chain_stage_spec(5), chain_stage_spec(6),
                                  ball_exp_lift_spec(1, 2, (2.0,)), egg_spec(2, 1.5, 3)],
                         ids=["stage3", "stage5", "stage6", "exp_lift_12_g2", "egg_w3"])
def test_sample_distribution_matches_oracle(spec):
    # the volume and the mean |z_j|^2 of the sample against the monomial
    # norms: ||1||^2 and ||z_j||^2 / ||1||^2.  A uniform radius in place of
    # a uniform squared modulus fails it.
    res = sample_interior(spec, 2 * 10 ** 4, seed=5)
    volume = monomial_norm_full(spec, (0,) * spec.dim)[0]
    assert res.volume_estimate == pytest.approx(volume, rel=0.02)
    means = np.mean(np.abs(res.points) ** 2, axis=0)
    want = [monomial_norm_full(spec, e)[0] / volume
            for e in np.eye(spec.dim, dtype=int)]
    assert means == pytest.approx(want, rel=0.03)


class _Annulus:
    """0.5 < |z| < 1: not star-shaped (test fixture)."""

    dim = 1

    def star_indices(self):
        return [0]

    def contains(self, p):
        return (0.5 < np.abs(p[0])) & (np.abs(p[0]) < 1.0)

    def sample(self, count, seed):
        rng = np.random.default_rng(seed)
        r = rng.uniform(0.55, 0.95, size=count)
        th = rng.uniform(0, 2 * math.pi, size=count)
        return (r * np.exp(1j * th)).reshape(-1, 1)


def test_star_shape_check():
    assert star_shape_check(ball_disk_lift_spec(1, 1), trials=128, seed=7)
    assert star_shape_check(polydisk_spec(2), trials=128, seed=7)
    assert not star_shape_check(_Annulus(), trials=128, seed=7)
    assert star_shape_check(disk_spec(), seed=2 ** 64 - 1)    # the largest seed


def test_star_shape_all_fixture_specs():
    for name, spec in FIXTURE_SPECS.items():
        assert star_shape_check(spec, trials=64, seed=11), name


def test_contains_iff_defining_negative():
    # membership agrees with (defining function < 0 and every inner
    # ||w|| < 1 constraint) on 1e4 probe points per fixture, and the
    # one-point routines agree with the panel ones on every row
    from bergman.domains import shadow_contains, unwound_point
    rng = np.random.default_rng(17)
    specs = dict(FIXTURE_SPECS, stage6=chain_stage_spec(6, 2.0, 1.5, 2.5),
                 ball_exp_lift_12_g2=ball_exp_lift_spec(1, 2, (2.0,)))
    for name, spec in specs.items():
        pts = rng.uniform(-1.1, 1.1, size=(10 ** 4, spec.dim, 2))
        pts = pts[..., 0] + 1j * pts[..., 1]
        # V-step rows with |w| ~ 30, where e^{gamma |w|^2} overflows; the box
        # itself gives U-step rows with ||w|| >= 1
        pts[:500, spec.v_w_indices()] *= 30.0
        X = np.array([[abs(c) * abs(c) for c in row] for row in pts])
        member = shadow_contains(spec, X)
        assert np.array_equal(contains(spec, tuple(pts.T)), member), name
        _, r, valid = unwound_point(spec, tuple(pts.T))
        valid = np.broadcast_to(valid, r.shape)
        with np.errstate(invalid="ignore"):
            expect = valid & (r < 0.0)
        assert np.array_equal(member, expect), name
        if any(s.kind == "U" for s in spec.lifts):
            assert not valid.all(), name
        for row, m, rr, ok in zip(pts, member, r, valid):
            p = tuple(row)
            if not ok:
                with pytest.raises(SingularEvaluationError):
                    defining_function(spec, p)
                assert not contains(spec, p), (name, p)
                continue
            rv = defining_function(spec, p)
            ulps = 4 * np.spacing(abs(rr))
            assert rv == rr or abs(rv - rr) <= ulps, (name, p, rv, rr)
            if not abs(rr) <= ulps:
                assert contains(spec, p) == m, (name, p)


def test_json_round_trip_and_strictness():
    for spec in FIXTURE_SPECS.values():
        again = spec_from_dict(spec_to_dict(spec))
        assert again == spec
    with pytest.raises(SpecError):
        spec_from_dict({"base": {"kind": "Polydisk", "n_star": 1, "m_passive": 0},
                        "lifts": [], "extra": 1})
    with pytest.raises(SpecError):
        spec_from_dict({"base": {"kind": "Polydisk", "n_star": 1, "m_passive": 0,
                                 "exponents": [2.0]}})
    with pytest.raises(SpecError):
        spec_from_dict({"base": {"kind": "GeneralizedComplexEllipsoid",
                                 "n_star": 1, "m_passive": 0,
                                 "exponents": [1.0], "color": "blue"}})



def test_spec_dimension_cap():
    # a huge size is refused before the layout lists its coordinates
    polydisk = {"kind": "Polydisk", "n_star": 1, "m_passive": 0}
    for data in ({"base": dict(polydisk, n_star=1_087_976_111)},
                 {"base": dict(polydisk, m_passive=10 ** 12)},
                 {"base": polydisk,
                  "lifts": [{"kind": "U", "weights": [1.0], "w_dim": 10 ** 12}]}):
        with pytest.raises(SpecError):
            spec_from_dict(data)
    assert spec_from_dict({"base": dict(polydisk, n_star=MAX_DIM)}).dim == MAX_DIM
    spec = spec_from_dict({"base": polydisk, "lifts": [
        {"kind": "V", "weights": [1.0], "w_dim": MAX_DIM - 1}]})
    assert spec.dim == MAX_DIM
    with pytest.raises(SpecError):
        DomainSpec(spec.base, spec.lifts + (LiftStep("U", (1.0,) * MAX_DIM, 1),))
def test_lift_step_weight_validation():
    with pytest.raises(SpecError):
        LiftStep("U", (0.0,), 1)          # all-zero weights degenerate
    for bad in (-1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(SpecError):
            LiftStep("U", (bad,), 1)
        with pytest.raises(SpecError):
            LiftStep("V", (1.0, bad), 1)
    with pytest.raises(SpecError):
        DomainSpec(BaseDomain("Polydisk", 1, 0),
                   (LiftStep("U", (1.0, 1.0), 1),))   # wrong weight count


def test_passive_exponent_must_be_one():
    with pytest.raises(SpecError):
        BaseDomain("GeneralizedComplexEllipsoid", 1, 1, (1.0, 2.0))
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(SpecError):
            BaseDomain("GeneralizedComplexEllipsoid", 1, 1, (bad, 1.0))
        with pytest.raises(SpecError):
            BaseDomain("GeneralizedComplexEllipsoid", 1, 1, (2.0, bad))


def test_stage5_stage6_membership_formulas():
    p1, p2, p3 = 2.0, 1.5, 2.5
    spec5 = chain_stage_spec(5, p1, p2, p3)
    spec6 = chain_stage_spec(6, p1, p2, p3)

    def in5(z):
        z1, z2, z3, z4, z5 = z
        if abs(z4) >= 1 or abs(z5) >= 1:
            return False
        e = abs(z3) ** 2 / (1 - abs(z4) ** 2) ** p2
        if e > 700:           # exp overflows; any nonzero z2 is outside
            return abs(z2) == 0.0 and abs(z1) ** (2 * p1) < (1 - abs(z5) ** 2) ** p3
        return (abs(z1) ** (2 * p1) / (1 - abs(z5) ** 2) ** p3
                + math.exp(e) * abs(z2) ** 2 < 1)

    def in6(z):
        z1, z2, z3, z4, z5, z6 = z
        e6 = math.exp(abs(z6) ** 2) * abs(z5) ** 2
        if abs(z4) >= 1 or e6 >= 1:
            return False
        e = abs(z3) ** 2 / (1 - abs(z4) ** 2) ** p2
        if e > 700:
            return abs(z2) == 0.0 and abs(z1) ** (2 * p1) < (1 - e6) ** p3
        return (abs(z1) ** (2 * p1) / (1 - e6) ** p3
                + math.exp(e) * abs(z2) ** 2 < 1)

    rng = np.random.default_rng(23)
    for spec, hand in ((spec5, in5), (spec6, in6)):
        pts = rng.uniform(-1.0, 1.0, size=(3000, spec.dim, 2))
        pts = pts[..., 0] + 1j * pts[..., 1]
        agree = sum(contains(spec, tuple(r)) == hand(tuple(r)) for r in pts)
        assert agree == len(pts)


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=8)
    | st.sampled_from(["Polydisk", "GeneralizedComplexEllipsoid", "U", "V"]),
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.sampled_from(["base", "lifts", "kind", "exponents",
                                       "n_star", "m_passive", "weights",
                                       "w_dim", "other"]), kids, max_size=5),
    max_leaves=20)


_numbers = st.integers() | st.floats()
_spec_shaped = st.fixed_dictionaries(
    {"base": st.fixed_dictionaries(
        {"kind": st.sampled_from(["Polydisk", "GeneralizedComplexEllipsoid"]) | _json_values,
         "n_star": st.integers(-1, 3) | _json_values,
         "m_passive": st.integers(-1, 2) | _json_values},
        optional={"exponents": st.lists(_numbers, max_size=4) | _json_values})},
    optional={"lifts": st.lists(st.fixed_dictionaries(
        {"kind": st.sampled_from(["U", "V"]) | _json_values,
         "weights": st.lists(_numbers, max_size=4) | _json_values,
         "w_dim": st.integers(-1, 3) | _json_values}), max_size=3) | _json_values})


@settings(max_examples=200, deadline=None)
@given(_json_values | _spec_shaped)
def test_spec_from_dict_fuzz_gives_spec_or_spec_error(data):
    try:
        spec = spec_from_dict(data)
    except SpecError:
        return
    assert isinstance(spec, DomainSpec)
