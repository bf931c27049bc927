import cmath
import hashlib
import math
import re
import tracemalloc
import warnings
from itertools import product

import numpy as np
import pytest

from bergman import oracle
from bergman.catalog import (ball_spec, chain_stage_spec, closed_form_families, egg_spec,
                             disk_spec, ball_disk_lift_spec, ball_exp_lift_spec, interior_pairs,
                             interior_points, polydisk_spec)
from bergman.domains import BaseDomain, DomainSpec, LiftStep, SpecError, spec_from_dict
from bergman.kernels import (Kernel, closed_form_for, kernel_ball, kernel_ball_disk_lift,
                             kernel_ball_exp_lift, kernel_chain_stage3, kernel_egg,
                             kernel_egg_inflated)
from bergman.jets import NonFiniteError, pochhammer
from bergman.lifting import compose_pipeline, lift_U
from bergman.oracle import (ConvergenceError, IntegrationError, NormTable,
                            _de_integrate, dirichlet_identity_check,
                            get_norm_table, monomial_norm_full, reproducing_check,
                            reproducing_integral, series_kernel,
                            simplex_weighted_integral)

PI = math.pi


def test_disk_norms():
    assert monomial_norm_full(disk_spec(), (1,))[0] == pytest.approx(PI / 2, rel=1e-10)
    assert monomial_norm_full(disk_spec(), (0,))[0] == pytest.approx(PI, rel=1e-12)


def test_quartic_fiber_norm():
    # |z|^4 + |w|^2 < 1, monomial z w
    val = monomial_norm_full(egg_spec(1, 2.0), (1, 1))[0]
    assert val == pytest.approx(PI ** 2 / 12, rel=1e-9)
    assert val == pytest.approx(0.82247, abs=1e-5)


def test_ball_norm_against_factorial_oracle():
    # ||z^a||^2 on the unit ball B^d = pi^d a! / (d + |a|)!
    for d, a in ((2, (1, 2)), (3, (0, 1, 1))):
        want = PI ** d
        for aj in a:
            want *= math.factorial(aj)
        want /= math.factorial(d + sum(a))
        assert monomial_norm_full(ball_spec(d), a)[0] == pytest.approx(want, rel=1e-9)


def test_v_lift_norm_against_gamma_oracle():
    # sum e^{|w|^2}|z|^2 + |z'|^2 < 1: peel the w factor exactly
    spec = ball_exp_lift_spec(1, 1, (1.0,))
    a, b, c = 1, 2, 3
    lam = float(a + 1)
    w_factor = math.factorial(c) / lam ** (c + 1)
    base = PI ** 2 * math.factorial(a) * math.factorial(b) / math.factorial(2 + a + b)
    want = PI * w_factor * base
    assert monomial_norm_full(spec, (a, b, c))[0] == pytest.approx(want, rel=1e-9)


def test_norm_symmetry_under_coordinate_swap():
    for spec in (ball_spec(2), polydisk_spec(2)):
        x = monomial_norm_full(spec, (2, 1))[0]
        y = monomial_norm_full(spec, (1, 2))[0]
        assert x == pytest.approx(y, rel=1e-10)


def test_norm_positive_and_errors_reported():
    value, error = monomial_norm_full(ball_disk_lift_spec(1, 1), (2, 1, 3))
    assert value > 0
    assert error >= 0


def test_mc_norm_for_high_dimension():
    # ball in C^4: the separable rule covers any base dimension, checked
    # against the factorial oracle
    spec = ball_spec(4)
    idx = (1, 0, 2, 0)
    value, _ = monomial_norm_full(spec, idx)
    want = PI ** 4 * 1 * 2 / math.factorial(4 + 3)
    assert value == pytest.approx(want, rel=1e-9)


def test_simplex_integral_high_dimension_against_factorial_oracle():
    # int_{B^k_+} (1 - sum r)^s r^c dV = prod c_j! / (1+s)_{sum c + k}
    for k in range(5, 9):
        for s in (0.0, 1.5, 3.0):
            c = tuple((3 * j) % 5 for j in range(k))
            want = math.prod(math.factorial(cj) for cj in c) / pochhammer(1.0 + s, sum(c) + k)
            got, err = simplex_weighted_integral(s, c)
            assert got == pytest.approx(want, rel=1e-12)
            assert err <= 1e-9 * got


def test_simplex_integral_rejects_bad_exponents():
    with pytest.raises(IntegrationError, match="^non-integrable radial exponent$"):
        simplex_weighted_integral(1.0, (2.0, -1.0))
    with pytest.raises(IntegrationError, match="^negative simplex weight exponent$"):
        simplex_weighted_integral(-0.5, (1.0,))


# a V-step with three w coordinates and a non-integer moment base s
V_WDIM3 = spec_from_dict({"base": {"kind": "GeneralizedComplexEllipsoid", "exponents": [1.0, 2.0],
                                   "n_star": 2, "m_passive": 0},
                          "lifts": [{"kind": "V", "weights": [0.7, 1.3], "w_dim": 3}]})

# (spec, index, norm, error): the digits of the scalar per-index loop the
# array routine replaced, which it must reproduce bit for bit
PINNED_NORMS = {
    "disk": (disk_spec(), (3,), 0.78539816339744828, 1.7439342490043159e-16),
    "polydisk3": (polydisk_spec(3), (1, 2, 3), 1.2919281950124926, 2.8686568565305771e-16),
    "egg_inflated_p2": (closed_form_families()["egg_inflated_p2"][0], (2, 1, 3),
                        0.0058738349281509256, 2.0490406118075548e-18),
    "ball_disk_lift_11": (ball_disk_lift_spec(1, 1), (2, 1, 3),
                          0.0036912234143214079, 9.6048778678479165e-19),
    "ball_exp_lift_11": (ball_exp_lift_spec(1, 1, (1.0,)), (2, 1, 3),
                         0.038279353926296077, 5.3123275120936617e-18),
    "stage6": (chain_stage_spec(6), (2, 1, 1, 0, 1, 2),
               0.020952145441327327, 2.3261554284256614e-18),
    "v_wdim3": (V_WDIM3, (2, 1, 3, 2, 4), 3.1605037814863416e-05, 3.5088640676210118e-21),
}


def _full_table(spec, cap):
    """(exponents, norms, errors) over every full-dimension monomial of
    degree <= cap, whatever the spec's series variables."""
    exponents = oracle.exponent_matrix(spec.dim, cap)
    return (exponents, *oracle._monomial_norms(spec, exponents))


def _pinned_rows(spec, cap):
    """NormTable.build's rows, or the full-dimension rows when a w block is
    one series variable and the table has no row per full index."""
    if len(oracle.series_variables(spec)) < spec.dim:
        return _full_table(spec, cap)
    table = NormTable.build(spec, cap)
    return table.columns.T, table.norms, table.errors


@pytest.mark.parametrize("name", PINNED_NORMS)
def test_norm_and_error_pinned_bitwise(name):
    spec, idx, value, error = PINNED_NORMS[name]
    assert monomial_norm_full(spec, idx) == (value, error)
    exponents, norms, errors = _pinned_rows(spec, sum(idx))
    row = exponents.tolist().index(list(idx))
    assert (norms[row], errors[row]) == (value, error)


@pytest.mark.parametrize("spec, cap, digest", [
    (V_WDIM3, 10, "35b520ffb5f92068"),
    (chain_stage_spec(6), 8, "9d76f359c69c5031"),
    (closed_form_families()["egg_inflated_p2"][0], 20, "731510a426588a73"),
    (egg_spec(2, 1.5, 3), 10, "5197252dae5e89dc"),
], ids=["v_wdim3", "stage6", "egg_inflated_p2", "u_wdim3"])
def test_norm_table_digest_pinned(spec, cap, digest):
    # every norm and error of the table; v_wdim3, stage6 and egg_inflated_p2
    # have base exponents above 1, whose factors u^c with c < 0 go into v = u^(c+1)
    _, norms, errors = _pinned_rows(spec, cap)
    got = hashlib.sha256(norms.tobytes() + errors.tobytes()).hexdigest()
    assert got[:16] == digest


@pytest.mark.parametrize("p", [1.5, 2.0, 2.5, 3.0, 3.2, 4.0, 8.0, 20.0, 50.0])
def test_norm_table_of_the_p1_ellipsoid_matches_gamma_closed_form(p):
    # on {|z_1|^(2p) + |z_2|^2 < 1}, ||z_1^a z_2^b||^2 = pi^2/p G(q) G(b+1) / G(q+b+2),
    # q = (a+1)/p; the base factor u^(q-1) is singular at u = 0 for a + 1 < p
    spec = DomainSpec(BaseDomain("GeneralizedComplexEllipsoid", 2, 0, (p, 1.0)))
    table = NormTable.build(spec, 12)
    for (a, b), norm in zip(table.columns.T.tolist(), table.norms):
        q = (a + 1) / p
        want = PI ** 2 / p * math.exp(math.lgamma(q) + math.lgamma(b + 1) - math.lgamma(q + b + 2))
        assert abs(norm - want) <= 1e-12 * want, (a, b)


@pytest.mark.parametrize("spec", [polydisk_spec(2), closed_form_families()["egg_inflated_p2"][0],
                                  ball_exp_lift_spec(1, 1, (1.0,)), chain_stage_spec(4)],
                         ids=["polydisk2", "egg_inflated_p2", "ball_exp_lift_11", "stage4"])
def test_norm_table_rows_equal_one_row_norms(spec):
    table = NormTable.build(spec, 12)
    full = oracle._representative_rows(spec, table.columns.T).tolist()
    for idx, rep, value, error in zip(table.columns.T.tolist(), full, table.norms, table.errors):
        e = monomial_norm_full(spec, rep)
        assert e == (value, error), idx
        assert table.entries[tuple(idx)] == e
    assert len(table.entries) == len(table.norms)
    # the cap-12 rows are the first rows of the cap-20 table, bit for bit
    big = NormTable.build(spec, 20)
    n = len(table.norms)
    assert big.offsets[:14] == table.offsets
    assert big.columns.T[:n].tobytes() == table.columns.T.tobytes()
    assert big.norms[:n].tobytes() == table.norms.tobytes()
    assert big.errors[:n].tobytes() == table.errors.tobytes()


@pytest.mark.parametrize("weight", [1e-300, 1e200])
def test_unrepresentable_gaussian_moment_raises_integration_error(weight):
    # c!/s^(c+1) at c = 1: s^2 underflows to 0 (1e-300) or overflows (1e200)
    spec = spec_from_dict({"base": {"kind": "GeneralizedComplexEllipsoid", "exponents": [1.0],
                                    "n_star": 1, "m_passive": 0},
                           "lifts": [{"kind": "V", "weights": [weight], "w_dim": 1}]})
    msg = re.escape("norm integral collapsed for index (0, 1)")
    with pytest.raises(IntegrationError, match=msg):
        NormTable.build(spec, 4)
    with pytest.raises(IntegrationError, match=msg):
        monomial_norm_full(spec, (0, 1))
    assert monomial_norm_full(spec, (1, 0))[0] > 0


def test_de_integrate_raises_when_not_converged():
    with pytest.raises(IntegrationError):
        _de_integrate(lambda u, um1: np.cos(1e4 * u))


def test_series_disk_value():
    sv = series_kernel(disk_spec(), (0.5,), (0.5,), 40)
    assert abs(sv.value - 1 / (PI * 0.75 ** 2)) < 1e-6
    assert sv.tail_bound < 1e-4


def test_series_constant_term_only():
    sv = series_kernel(ball_spec(2), (0, 0), (0, 0), 0)
    assert sv.value == pytest.approx(2 / PI ** 2)
    assert sv.cap_used == 0


def test_series_matches_exp_lift_closed_form():
    spec = ball_exp_lift_spec(1, 1, (1.0,))
    K = kernel_ball_exp_lift(1, 1, (1.0,))
    p = (0.3, 0.4, 0.5)
    sv = series_kernel(spec, p, p, 50)
    v = K.diagonal(p)
    assert abs(complex(sv.value) - v) / v < 1e-3


def test_series_diagonal_real_positive_monotone(monkeypatch):
    monkeypatch.setattr(oracle, "SHELL_TOL", 0.0)
    spec = ball_disk_lift_spec(1, 1)
    table = get_norm_table(spec, 24)
    p = (0.2, 0.3, 0.4)
    prev = 0.0
    for cap in range(0, 24, 4):
        sv = series_kernel(spec, p, p, cap, table=table)
        assert abs(complex(sv.value).imag) < 1e-15
        assert complex(sv.value).real >= prev - 1e-15
        prev = complex(sv.value).real
    assert prev > 0


def test_series_detects_nonconvergence_near_boundary():
    with pytest.raises(ConvergenceError):
        series_kernel(disk_spec(), (0.995,), (0.995,), 30)


def test_series_rejects_bad_arity():
    with pytest.raises(SpecError):
        series_kernel(disk_spec(), (0.1, 0.2), (0.1, 0.2), 5)


def test_reproducing_disk_mean_value():
    r = reproducing_check(kernel_ball(1), disk_spec(), [(0,)], (0.0,))
    assert r[(0,)] < 1e-6


def test_reproducing_disk_lift_monomial():
    r = reproducing_check(kernel_ball_disk_lift(1, 1), ball_disk_lift_spec(1, 1), [(1, 0, 1)],
                          (0.2, 0.1, 0.3))
    assert r[(1, 0, 1)] < 1e-3


def test_reproducing_flags_perturbed_kernel():
    K = kernel_ball_disk_lift(1, 1).scaled(1.01)
    r = reproducing_check(K, ball_disk_lift_spec(1, 1), [(1, 0, 1)], (0.2, 0.1, 0.3))
    assert r[(1, 0, 1)] == pytest.approx(0.01, rel=0.05)


def test_reproducing_requires_interior_point():
    with pytest.raises(SpecError):
        reproducing_check(kernel_ball(1), disk_spec(), [(0,)], (1.5,))


def _counted(K, log, record=lambda u: 1):
    """K as a Kernel whose fn appends record(u) to log, then calls K.fn."""
    def fn(u):
        log.append(record(u))
        return K.fn(u)
    return Kernel(fn, domain=K.domain)


def test_reproducing_integral_evaluates_every_torus_through_the_call():
    # Kernel.__call__ forms and judges every kernel value: a subclass
    # counting its calls sees each torus the pass evaluates
    class Counted(Kernel):
        calls = 0

        def __call__(self, p, q, q_conjugated=False):
            Counted.calls += 1
            return super().__call__(p, q, q_conjugated)

    tori = []
    K = _counted(kernel_ball_disk_lift(1, 1), tori)
    reproducing_integral(Counted(K.fn, K.domain), K.domain,
                         oracle.exponent_matrix(3, 2).tolist(), (0.2, 0.1, 0.3))
    assert tori and Counted.calls == len(tori)


def test_reproducing_check_above_four_coordinates_raises_at_once():
    # a 5-coordinate spec is beyond the Cauchy lattices: the check raises
    # before any kernel value is computed
    calls = []
    spec = chain_stage_spec(5)
    counted = _counted(compose_pipeline(spec), calls)
    with pytest.raises(IntegrationError, match="up to 4 coordinates"):
        reproducing_check(counted, spec, [(1, 0, 0, 0, 1)], (0.2, 0.1, 0.1, 0.1, 0.3))
    assert not calls


def _cauchy_sum(K, spec, idx, r):
    """Brute-force Cauchy mean of K.fn(u) e^(-i idx.theta) / r^|idx| on the
    lattice points of the torus |u_j| = r, one point at a time: angles from
    Python integers, phases from cmath, sums by math.fsum."""
    n = oracle.N_ANG
    z = [zc % n for zc in oracle.LATTICE_GENERATORS[spec.dim]]
    terms = []
    for i in range(n):
        theta = [2 * PI * ((i * zc) % n) / n for zc in z]
        kv = complex(K(tuple(r * cmath.exp(1j * t) for t in theta), (1.0,) * spec.dim))
        terms.append(kv * cmath.exp(-1j * sum(e * t for e, t in zip(idx, theta))))
    total = complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))
    return total / n / r ** sum(idx)


def _grid(monkeypatch, n_ang):
    """Set a smaller Cauchy lattice; monkeypatch undoes it."""
    monkeypatch.setattr(oracle, "N_ANG", n_ang)


def test_reproducing_integral_matches_brute_force_lattice_sum():
    # value c(r) ||z^idx||^2 p^idx on the torus r = (b/2)^2, whose estimate
    # |c(r) - c(r/2)| ||z^idx||^2 passes here, the norm from the norm route
    spec = ball_disk_lift_spec(1, 1)
    K = kernel_ball_disk_lift(1, 1)
    p = (0.2 + 0.1j, 0.1, 0.3 - 0.2j)
    idxs = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1), (1, 1, 1)]
    vals, errs = reproducing_integral(K, spec, idxs, p)
    b2 = oracle._diagonal_crossing(spec)
    for idx in idxs:
        norm = monomial_norm_full(spec, idx)[0]
        c, c_half = _cauchy_sum(K, spec, idx, b2 / 4), _cauchy_sum(K, spec, idx, b2 / 8)
        assert abs(c - c_half) * norm <= oracle.TORUS_TOL, idx
        want = c * norm * math.prod(pj ** e for pj, e in zip(p, idx))
        assert abs(vals[idx] - want) <= 1e-13, idx
        assert errs[idx] >= abs(c - c_half) * norm * abs(want / c), idx


def test_cauchy_coefficients_of_the_disk_kernel():
    # K = 1 / (pi (1 - u)^2) = sum (k + 1) u^k / pi, and ||z^k||^2 = pi / (k + 1);
    # on the torus r = 1/4 round-off grows as 4^k, and the estimate with it,
    # so from k = 16 on a smaller torus would only be worse: r = 1/4 stays
    spec = disk_spec()
    norms = {(k,): PI / (k + 1) for k in range(24)}
    for (k,), (c, angular, floor) in oracle._cauchy_coefficients(kernel_ball(1), spec,
                                                                  norms).items():
        err = abs(c - (k + 1) / PI)
        assert err <= angular + floor, k
        assert err <= (1e-13 if k <= 5 else 1e-3) * (k + 1) / PI, k
        assert (angular * norms[(k,)] <= oracle.TORUS_TOL) == (k < 16), k
    # on the disk the diagonal ray leaves at |z|^2 = 1
    assert 1.0 - 2.0 ** -32 <= oracle._diagonal_crossing(spec) < 1.0


def test_reproducing_at_a_point_with_a_tiny_coordinate():
    # the torus comes from the spec, not from the point: a tiny |p_j| costs nothing
    for K in (kernel_ball_disk_lift(1, 1), kernel_chain_stage3(2.0)):
        idxs = [tuple(i) for i in oracle.exponent_matrix(3, 2).tolist()]
        p = (0.3, 1e-4, 0.2)
        vals, errs = reproducing_integral(K, K.domain, idxs, p)
        for idx, res in reproducing_check(K, K.domain, idxs, p).items():
            assert res < 1e-9, (K.name, idx)
            target = math.prod(pj ** e for pj, e in zip(p, idx))
            assert errs[idx] >= abs(vals[idx] - target), (K.name, idx)


def _one_sided_alias_degree(z, n, max_degree, bound=400):
    """Smallest total degree of a mode a >= 0 with a.z = alpha.z (mod n) and
    a != alpha, over the bins alpha of degree <= max_degree.  With z_1 = 1,
    each tail (a_2, ..., a_d) fixes the least a_1; every tail of degree up
    to bound is scanned, so a result <= bound is exact."""
    d = len(z)
    z = np.array(z) % n
    tails = [t for t in product(range(bound + 1), repeat=d - 1) if sum(t) <= bound]
    tails = np.array(tails, dtype=np.int64).reshape(len(tails), d - 1)
    best = None
    for alpha in product(range(max_degree + 1), repeat=d):
        if sum(alpha) > max_degree:
            continue
        a1 = (int(np.dot(alpha, z)) - tails @ z[1:]) % n
        a1[(a1 == alpha[0]) & np.all(tails == alpha[1:], axis=1)] += n
        deg = int((a1 + tails.sum(axis=1)).min())
        best = deg if best is None else min(best, deg)
    return best


def test_lattice_generators_alias_degrees():
    gens = oracle.LATTICE_GENERATORS
    assert all(z[0] == 1 for z in gens.values())
    want = {1: (2, {2048: 2048, 512: 512, 256: 256}),
            2: (4, {2048: 293, 512: 74, 256: 37}),
            3: (2, {2048: 128, 512: 32, 256: 16}),
            4: (2, {2048: 21, 512: 6, 256: 5})}
    assert oracle.N_ANG in want[4][1]
    assert gens[4] == tuple(1111 ** j % 2048 for j in range(4))
    for d, (max_degree, degrees) in want.items():
        # a scan bound at least each degree found, so that every result is exact
        bound = 400 if d < 4 else 24
        for n, deg in degrees.items():
            assert _one_sided_alias_degree(gens[d], n, max_degree, bound) == deg, (d, n)


def test_reproducing_integral_repeated_index_counts_once(monkeypatch):
    spec = ball_disk_lift_spec(1, 1)
    K = kernel_ball_disk_lift(1, 1)
    p = (0.2, 0.1, 0.3)
    _grid(monkeypatch, 8)
    once = reproducing_integral(K, spec, [(1, 0, 0)], p)
    twice = reproducing_integral(K, spec, [(1, 0, 0), (0, 0, 1), (1, 0, 0)], p)
    assert twice[0][(1, 0, 0)] == once[0][(1, 0, 0)]
    assert twice[1][(1, 0, 0)] == once[1][(1, 0, 0)]
    assert list(twice[0]) == [(1, 0, 0), (0, 0, 1)]


# the index set in blocks of one and of three (the last one partial) gives
# every value and estimate of the whole set in one call: the torus is chosen
# per index, never on the requested set
@pytest.mark.parametrize("K", [kernel_ball_disk_lift(1, 1), kernel_ball_exp_lift(1, 1, (1.0,)),
                               kernel_chain_stage3(2.0)], ids=["disk", "exp", "chain3"])
def test_reproducing_blocks_match_default_pass(K):
    idxs = [tuple(i) for i in oracle.exponent_matrix(3, 2).tolist()]
    p = (0.2 + 0.1j, 0.1, 0.3 - 0.2j)
    vals, errs = reproducing_integral(K, K.domain, idxs, p)
    shapes = []
    counted = _counted(K, shapes, lambda u: np.broadcast_shapes(*(x.shape for x in u)))
    for size in (1, 3):
        shapes.clear()
        got, got_errs = {}, {}
        for start in range(0, len(idxs), size):
            block = reproducing_integral(counted, K.domain, idxs[start:start + size], p)
            got.update(block[0])
            got_errs.update(block[1])
        assert list(got) == idxs
        # one (2, N_ANG) torus pair per fn call, at most TORUS_LEVELS per block
        assert set(shapes) == {(2, oracle.N_ANG)}
        assert len(shapes) <= -(-len(idxs) // size) * oracle.TORUS_LEVELS
        for idx in idxs:
            assert got[idx] == vals[idx], (size, idx)
            assert got_errs[idx] == errs[idx], (size, idx)


def test_reproducing_fallback_on_an_irrational_weight():
    # an irrational U-step weight: the tanh-sinh factors (1-u)^e of the
    # norms take irrational exponents e
    K = lift_U(kernel_ball(2, n_star=1), (math.sqrt(0.5),), 1)
    p = (0.3, 0.2 + 0.1j, 0.25)
    idxs = [tuple(i) for i in oracle.exponent_matrix(3, 2).tolist()]
    vals, errs = reproducing_integral(K, K.domain, idxs, p)
    for idx in idxs:
        target = math.prod(complex(c) ** e for c, e in zip(p, idx))
        res = abs(vals[idx] - target)
        assert res / max(abs(target), 1e-6) < 1e-3, idx
        assert errs[idx] >= res, idx


@pytest.mark.parametrize("K, p, tol", [
    (kernel_egg(1, 4.0), (0.3, 0.2 - 0.1j), 1e-10),
    (closed_form_for(DomainSpec(BaseDomain("GeneralizedComplexEllipsoid", 2, 0, (4.0, 1.0)))),
     (0.3, 0.2 - 0.1j), 1e-8)], ids=["egg_p4", "ellipsoid41"])
def test_reproducing_on_bases_of_large_exponent(K, p, tol):
    # the ellipsoid base factors u^c (1-u)^e have -1 < c < 0 for small
    # exponents at p = 4; the norm route integrates them in v = u^(c+1)
    idxs = [(a, c) for a in range(3) for c in range(3)]
    for idx, res in reproducing_check(K, K.domain, idxs, p).items():
        assert res < tol, idx


def test_reproducing_on_a_w_block_of_two():
    # the egg's w block is one series variable, but the check reads the
    # norms of full indices such as (0, 1, 1)
    spec, K = closed_form_families()["egg_inflated_p2"]
    idxs = [tuple(i) for i in oracle.exponent_matrix(3, 2).tolist()]
    for p in interior_points(spec, 3, seed=303, box_radius=0.4):
        for idx, res in reproducing_check(K, spec, idxs, p).items():
            assert res < 1e-3, idx


def test_reproducing_integral_builds_no_norm_table():
    # one degree-20 index needs one norm, not the 10,626 of a degree-20 table
    spec = chain_stage_spec(4)
    p = interior_points(spec, 1, seed=5, box_radius=0.4)[0]
    before = get_norm_table.cache_info()
    vals, _ = reproducing_integral(compose_pipeline(spec), spec, [(20, 0, 0, 0)], p)
    assert get_norm_table.cache_info() == before
    assert cmath.isfinite(vals[(20, 0, 0, 0)])


@pytest.mark.parametrize("K", [kernel_ball_disk_lift(1, 1), kernel_ball_exp_lift(1, 1, (1.0,)),
                               kernel_chain_stage3(2.0)], ids=["disk", "exp", "chain3"])
def test_lift_pipeline_through_the_pass_matches_closed_form(K):
    # the pipeline's jets take the torus arrays
    idxs = [tuple(i) for i in oracle.exponent_matrix(3, 2).tolist()]
    for p in interior_points(K.domain, 3, seed=303, box_radius=0.4):
        want, want_errs = reproducing_integral(K, K.domain, idxs, p)
        got, got_errs = reproducing_integral(compose_pipeline(K.domain), K.domain, idxs, p)
        for idx in idxs:
            assert abs(got[idx] - want[idx]) <= 1e-12 * abs(want[idx]), idx
            assert abs(got_errs[idx] - want_errs[idx]) <= 1e-12 * abs(want[idx]), idx


def test_cached_rules_are_read_only():
    # every later call shares a cached rule: a write raises
    for a in oracle._de_rule(2):
        with pytest.raises(ValueError):
            a[0] = 0.5


def test_reproducing_pass_memory_is_bounded():
    # each fn call takes one (2, N_ANG) torus, and the norm table stops at
    # the largest requested degree: the peak stays small
    for K in (kernel_ball_disk_lift(1, 1), kernel_chain_stage3(2.0),
              lift_U(kernel_ball(2, n_star=1), (math.sqrt(0.5),), 1)):
        tracemalloc.start()
        try:
            reproducing_integral(K, K.domain, [(0, 0, 0), (1, 0, 1)], (0.2, 0.1, 0.3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6, K.name


def test_reproducing_integral_rejects_bad_arguments():
    spec = ball_disk_lift_spec(1, 1)
    K = kernel_ball_disk_lift(1, 1)
    p = (0.2, 0.1, 0.3)
    with pytest.raises(SpecError):
        reproducing_integral(K, spec, [(-1, 0, 0)], p)
    with pytest.raises(SpecError):
        reproducing_integral(K, spec, [(0, 0, 0), (0, -2, 1)], p)
    # the pass checks both arities itself, so a point or kernel of another
    # arity is refused before any kernel value is computed
    with pytest.raises(SpecError):
        reproducing_integral(K, spec, [(0, 0, 0)], p[:2])
    with pytest.raises(SpecError):
        reproducing_integral(kernel_ball(2), spec, [(0, 0, 0)], p)


def test_reproducing_integral_rejects_aliased_indices(monkeypatch):
    K = kernel_ball_disk_lift(1, 1)
    calls = []
    counted = _counted(K, calls)
    # on 16 points the 3-d generator is (1, 12, 0): bin (0, 0, 1) lands on (0, 0, 0)
    _grid(monkeypatch, 16)
    with pytest.raises(IntegrationError):
        reproducing_integral(counted, K.domain, [(0, 0, 0), (0, 0, 1)], (0.2, 0.1, 0.3))
    assert not calls
    _grid(monkeypatch, 32)
    reproducing_integral(counted, K.domain, [(0, 0, 0), (0, 0, 1)], (0.2, 0.1, 0.3))
    assert calls


def test_reproducing_integral_empty_indices_skip_the_kernel(monkeypatch):
    calls = []
    counted = _counted(kernel_ball_disk_lift(1, 1), calls)
    assert reproducing_integral(counted, ball_disk_lift_spec(1, 1), [], (0.2, 0.1, 0.3)) == ({}, {})
    assert not calls
    _grid(monkeypatch, 4)
    reproducing_integral(counted, ball_disk_lift_spec(1, 1), [(0, 0, 0)], (0.2, 0.1, 0.3))
    assert calls


@pytest.mark.parametrize("bad", [complex(math.inf, 0.0), complex(math.nan, 0.0)],
                         ids=["inf", "nan"])
def test_reproducing_integral_raises_on_non_finite_kernel_values(bad, monkeypatch):
    # the kernel is finite everywhere but on three points of its first
    # torus: the check raises there, before a second torus
    K = kernel_ball_disk_lift(1, 1)
    calls = []

    def fn(u):
        v = np.array(np.broadcast_to(K.fn(u), np.broadcast_shapes(*(x.shape for x in u))))
        if not calls:
            v.reshape(-1)[[1, 5, 9]] = bad
        calls.append(1)
        return v

    _grid(monkeypatch, 32)
    with pytest.raises(NonFiniteError):
        reproducing_integral(Kernel(fn, domain=K.domain), K.domain,
                             [(0, 0, 0), (1, 0, 1)], (0.2, 0.1, 0.3))
    assert len(calls) == 1


def test_dirichlet_trivial_cases():
    q, c = dirichlet_identity_check(1.0, (0,))
    assert q == pytest.approx(PI / 2, rel=1e-12)
    assert c == pytest.approx(PI / 2, rel=1e-15)
    q, c = dirichlet_identity_check(1.0, (0, 0))
    assert q == pytest.approx(PI ** 2 / 6, rel=1e-12)
    assert c == pytest.approx(PI ** 2 / 6, rel=1e-15)


def test_dirichlet_fractional_weight():
    q, c = dirichlet_identity_check(1.5, (1, 0))
    assert abs(q - c) / c < 1e-8


def test_dirichlet_k4_supported():
    q, c = dirichlet_identity_check(2.2, (1, 0, 2, 1))
    assert abs(q - c) / c < 1e-8
    for k in range(5, 9):
        q, c = dirichlet_identity_check(1.3, tuple(j % 3 for j in range(k)))
        assert abs(q - c) / c < 1e-8, k
    with pytest.raises(ValueError):
        dirichlet_identity_check(1.0, ())


def test_norm_table_lexicographic_and_positive():
    table = NormTable.build(polydisk_spec(2), 4)
    assert all(value > 0 for value, _ in table.entries.values())
    assert table.degree_cap() == 4


def test_series_agreement_panel_all_families():
    # every hand-coded closed form vs the series oracle at a seeded panel
    for name, (spec, K) in closed_form_families().items():
        table = get_norm_table(spec, 30)
        for p, q in interior_pairs(spec, 5, seed=2024):
            sv = series_kernel(spec, p, q, 30, table=table)
            v = complex(K(p, q))
            assert abs(v - sv.value) / abs(v) < 1e-3, name
            assert sv.tail_bound < 1e-4, name


def test_series_matches_closed_form_to_round_off_near_origin(monkeypatch):
    # the 1e-3 gate would miss a slipped exponent column or shell offset
    # (the egg and the lift are not symmetric in their coordinates, so a
    # permuted column shows there); SHELL_TOL 0 sums every shell to the cap
    monkeypatch.setattr(oracle, "SHELL_TOL", 0.0)
    for name in ("disk", "disk_x_disk", "ball2", "egg_p2", "ball_disk_lift_11"):
        spec, K = closed_form_families()[name]
        table = get_norm_table(spec, 30)
        for p, q in interior_pairs(spec, 5, seed=7, box_radius=0.25):
            sv = series_kernel(spec, p, q, 30, table=table)
            assert sv.cap_used == 30, name
            v = complex(K(p, q))
            assert sv.tail_bound < 1e-14, name
            assert abs(sv.value - v) / abs(v) < 1e-12, name


def test_series_shell_overflow_is_non_finite():
    # two degree-1 terms of 1e308 each: the shell sum overflows
    table = NormTable(polydisk_spec(2), [(0, 0), (1, 0), (0, 1)],
                      [1.0, 0.25e-308, 0.25e-308], [0.0] * 3)
    with pytest.raises(NonFiniteError):
        series_kernel(polydisk_spec(2), (0.5, 0.5), (0.5, 0.5), 1, table=table)
    # one term that is already infinite
    table = NormTable(disk_spec(), [(0,), (1,)], [1.0, 1e-320], [0.0, 0.0])
    with pytest.raises(NonFiniteError):
        series_kernel(disk_spec(), (0.5,), (0.5,), 1, table=table)
    # two infinite degree-1 terms of opposite signs: the shell is inf - inf = NaN
    table = NormTable(polydisk_spec(2), [(0, 0), (1, 0), (0, 1)], [1.0, 1e-320, 1e-320], [0.0] * 3)
    with pytest.raises(NonFiniteError):
        series_kernel(polydisk_spec(2), (0.5, -0.5), (0.5, 0.5), 1, table=table)


def _one_pass_terms(spec, p, q, degree_cap, table):
    """Real and imaginary parts of every series term up to the cap, built as
    series_kernel builds them: products of contiguous column gathers by
    np.multiply, whose bits differ from a 2-D gather's row products."""
    p = tuple(complex(c) for c in p)
    q = tuple(complex(c) for c in q)
    n = table.offsets[degree_cap + 1]
    groups = oracle.series_variables(spec)
    u = [pj * qj.conjugate() for pj, qj in zip(p, q)]
    pows = np.ones((len(groups), degree_cap + 1), dtype=complex)
    pows[:, 1:] = np.array([sum((u[j] for j in g[1:]), u[g[0]]) for g in groups])[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        pows = np.cumprod(pows, axis=1)
        terms = pows[0, table.columns.T[:n, 0]]
        for i in range(1, len(groups)):
            terms = np.multiply(terms, pows[i, table.columns.T[:n, i]])
        return terms.real / table.norms[:n], terms.imag / table.norms[:n]


def _series_one_pass(spec, p, q, degree_cap, table, shell_tol=1e-9, exact=False):
    """series_kernel as one numpy pass over every term up to the cap, its
    shells summed by one reduceat as series_kernel sums them (np.add.reduce
    rounds differently), or with exact=True each by math.fsum."""
    re, im = _one_pass_terms(spec, p, q, degree_cap, table)
    cuts = table.offsets[:degree_cap + 2]
    if exact:
        re, im = memoryview(re), memoryview(im)   # fsum reads Python floats from these
        all_shells = [oracle._fsum(re[a:b], im[a:b]) for a, b in zip(cuts, cuts[1:])]
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            all_shells = [complex(r, i) for r, i in zip(np.add.reduceat(re, cuts[:-1]).tolist(),
                                                        np.add.reduceat(im, cuts[:-1]).tolist())]
    shells = []
    running = 0j
    cap_used, converged = degree_cap, False
    for deg in range(degree_cap + 1):
        shell = all_shells[deg]
        if not cmath.isfinite(shell):
            raise NonFiniteError("series sum overflowed")
        shells.append(shell)
        running += shell
        if deg >= 2 and abs(shells[-1]) < shell_tol * abs(running) \
                and abs(shells[-2]) < shell_tol * abs(running):
            cap_used, converged = deg, True
            break
    mags = [abs(s) for s in shells]
    tail = 0.0
    if len(mags) >= 2 and mags[-1] > 0.0:
        ratio = mags[-1] / mags[-2] if mags[-2] > 0.0 else math.inf
        if ratio < 1.0:
            tail = mags[-1] * ratio / (1.0 - ratio)
        elif mags[-1] > shell_tol * max(abs(running), 1e-300):
            raise ConvergenceError(
                "series shells are not decaying; point too close to the boundary")
        else:
            tail = mags[-1]
    value = oracle._fsum([s.real for s in shells], [s.imag for s in shells])
    return oracle.SeriesValue(value=value, tail_bound=tail, cap_used=cap_used,
                              shells=shells, converged=converged)


def _outcome(fn, *args, **kw):
    # repr of a float round-trips and tells -0.0 from 0.0: equal reprs are bitwise equal
    try:
        sv = fn(*args, **kw)
    except (ConvergenceError, NonFiniteError) as e:
        return repr((type(e), str(e)))
    return repr((sv.value, sv.tail_bound, sv.cap_used, sv.shells, sv.converged))


def test_series_blocks_bitwise_equal_one_pass(monkeypatch):
    specs = dict(closed_form_families())
    specs.update({f"stage{k}": (chain_stage_spec(k), None) for k in (2, 3, 4)})
    for name, (spec, _) in specs.items():
        table = get_norm_table(spec, 30)
        pairs = (interior_pairs(spec, 8, seed=31)
                 + interior_pairs(spec, 8, seed=32, box_radius=None))
        for (p, q), tol in product(pairs, (1e-9, 0.0)):
            want = _outcome(_series_one_pass, spec, p, q, 30, table, shell_tol=tol)
            with monkeypatch.context() as m:
                m.setattr(oracle, "SHELL_TOL", tol)
                got = _outcome(series_kernel, spec, p, q, 30, table=table)
            assert got == want, name
        # a cap-30 table read at lower caps
        for (p, q), cap in product(pairs, (13, 17)):
            want = _outcome(_series_one_pass, spec, p, q, cap, table)
            got = _outcome(series_kernel, spec, p, q, cap, table=table)
            assert got == want, (name, cap)
    # stages 5 and 6 at their largest caps, where a block spans the most shells
    for k, cap in ((5, 24), (6, 18)):
        spec = chain_stage_spec(k)
        table = get_norm_table(spec, cap)
        for (p, q), tol in product(interior_pairs(spec, 4, seed=31), (1e-9, 0.0)):
            want = _outcome(_series_one_pass, spec, p, q, cap, table, shell_tol=tol)
            with monkeypatch.context() as m:
                m.setattr(oracle, "SHELL_TOL", tol)
                got = _outcome(series_kernel, spec, p, q, cap, table=table)
            assert got == want, (k, cap)
    # early exits on both sides of the first two block edges, with blocks
    # shrunk so that those edges fall among the degrees the exits reach
    for spec, base, block in ((disk_spec(), (1,), 8), (specs["stage3"][0], (1, 0.5j, -0.3), 56)):
        monkeypatch.setattr(oracle, "BLOCK_TERMS", block)
        table = NormTable.build(spec, 30)
        first = table.blocks[0][0]
        second = table.blocks[first][0]
        caps = set()
        for t in np.linspace(0.01, 0.5, 50):
            p = tuple(t * b for b in base)
            got = _outcome(series_kernel, spec, p, p, 30, table=table)
            assert got == _outcome(_series_one_pass, spec, p, p, 30, table)
            caps.add(series_kernel(spec, p, p, 30, table=table).cap_used)
        assert {first - 1, first, second - 1, second} <= caps, spec
    # a huge degree-0 term makes the sum exit at degree 2; the terms of
    # degrees 7 (same block as the exit) and 20 (a later block) overflow to inf
    monkeypatch.setattr(oracle, "BLOCK_TERMS", 8)
    norms = {0: 1e-12, 7: 5e-324, 20: 5e-324}
    table = NormTable(disk_spec(), [(d,) for d in range(31)],
                      [norms.get(d, 1.0) for d in range(31)], [0.0] * 31)
    assert _block_plan(table, 30) == [0, 8, 16, 31]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sv = series_kernel(disk_spec(), (0.5,), (0.5,), 30, table=table)
    assert sv.cap_used == 2
    assert _outcome(series_kernel, disk_spec(), (0.5,), (0.5,), 30, table=table) == \
        _outcome(_series_one_pass, disk_spec(), (0.5,), (0.5,), 30, table)


def _block_plan(table, degree_cap):
    """The block ends series_kernel reads at this cap: the table's plan, its
    last block cut at degree_cap + 1."""
    ends = [0]
    while ends[-1] <= degree_cap:
        ends.append(min(table.blocks[ends[-1]][0], degree_cap + 1))
    return ends


def test_series_block_plan():
    # whole shells partition [0, cap]; a block holds BLOCK_TERMS terms and at
    # least the terms before it, one shell fewer would not, or it ends at the cap
    specs = {name: spec for name, (spec, _) in closed_form_families().items()}
    specs.update({f"stage{k}": chain_stage_spec(k) for k in range(2, 7)})
    for name, spec in specs.items():
        top = {"stage5": 24, "stage6": 18}.get(name, 30)
        table = get_norm_table(spec, top)
        offsets = table.offsets
        for cap in sorted({0, 1, 5, 13, 17, top}):
            ends = _block_plan(table, cap)
            assert ends[-1] == cap + 1 and all(a < b for a, b in zip(ends, ends[1:])), name
            for a, b in zip(ends, ends[1:]):
                need = offsets[a] + max(oracle.BLOCK_TERMS, offsets[a])
                assert offsets[b] >= need or b == cap + 1, (name, cap, a)
                assert offsets[b - 1] < need, (name, cap, a)
    # chain stage 3 has 1,140 terms up to degree 17: one pass reaches it,
    # and a value takes the passes of the plan up to its last shell
    spec = chain_stage_spec(3)
    table = NormTable.build(spec, 30)
    ends = _block_plan(table, 30)
    assert ends[:3] == [0, 18, 23]
    passes, caps = [], []

    class Counted(dict):
        def __getitem__(self, deg):
            passes.append(deg)
            return dict.__getitem__(self, deg)

    table.blocks = Counted(table.blocks)
    for box in (0.2, 0.45):
        for p, q in interior_pairs(spec, 8, seed=31, box_radius=box):
            passes.clear()
            cap_used = series_kernel(spec, p, q, 30, table=table).cap_used
            assert passes == [e for e in ends[:-1] if e <= cap_used], cap_used
            caps.append(cap_used)
    assert min(caps) <= 16 and max(caps) >= 18


def test_series_memory_is_bounded():
    # the last block can hold as many terms as all blocks before it: stage 6
    # run to cap 18 stays within a bounded peak
    spec = chain_stage_spec(6)
    table = get_norm_table(spec, 18)
    p, q = interior_pairs(spec, 1, seed=31)[0]
    tracemalloc.start()
    try:
        sv = series_kernel(spec, p, q, 18, table=table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not sv.converged and sv.cap_used == 18
    assert peak <= 4.5e6


def test_series_within_the_summation_bound_of_exact_shells():
    # Against shells summed exactly (math.fsum, correctly rounded) from the
    # same terms t.  Summed in any order, n floats are off by at most
    # gamma_{n-1} times the sum of their moduli (Higham 2002, ch. 4), with
    # gamma_n = n u / (1 - n u), u = 2^-53; summing the real and imaginary
    # parts so, a shell is off by at most gamma_{n-1} A, A = sum |t|
    # (Minkowski), and the fsum shell by u A, so the two differ by at most
    # (gamma_{n-1} + u) A <= gamma_n A.  Each value is the correctly rounded
    # fsum of its own shells: that adds u / (1 - u) |value| per side.
    u = 2.0 ** -53
    specs = {name: spec for name, (spec, _) in closed_form_families().items()}
    specs.update({f"stage{k}": chain_stage_spec(k) for k in range(2, 7)})
    for name, spec in specs.items():
        cap = {"stage5": 20, "stage6": 16}.get(name, 30)     # tables of 53,130 and 74,613
        table = get_norm_table(spec, cap)
        for p, q in (interior_pairs(spec, 8, seed=31)
                     + interior_pairs(spec, 8, seed=32, box_radius=None)):
            try:
                ref = _series_one_pass(spec, p, q, cap, table, exact=True)
            except ConvergenceError:
                with pytest.raises(ConvergenceError):
                    series_kernel(spec, p, q, cap, table=table)
                continue
            sv = series_kernel(spec, p, q, cap, table=table)
            assert sv.cap_used == ref.cap_used, name
            re, im = _one_pass_terms(spec, p, q, sv.cap_used, table)
            moduli, cuts = memoryview(np.hypot(re, im)), table.offsets[:sv.cap_used + 2]
            bound = sum((b - a) * u / (1 - (b - a) * u) * math.fsum(moduli[a:b])
                        for a, b in zip(cuts, cuts[1:]))
            bound += u / (1 - u) * (abs(sv.value) + abs(ref.value))
            assert abs(sv.value - ref.value) <= bound, name


def test_series_reports_whether_it_converged():
    # near the origin two shells fall below SHELL_TOL long before the cap
    sv = series_kernel(disk_spec(), (0.1,), (0.1,), 40)
    assert sv.converged and sv.cap_used < 40
    # at relative distance 0.03 from the boundary the shells still decay,
    # by 0.97^2 per degree, but not below SHELL_TOL by degree 40
    sv = series_kernel(disk_spec(), (0.97,), (0.97,), 40)
    assert not sv.converged and sv.cap_used == 40
    assert 0.0 < sv.tail_bound < math.inf
    assert not series_kernel(ball_spec(2), (0, 0), (0, 0), 0).converged


def test_series_tail_bound_of_a_single_shell():
    # at cap 0 one shell bounds nothing: the egg's degree-0 value is 0.021 off
    spec, K = closed_form_families()["egg_p2"]
    p = (0.1, 0.2)
    sv = series_kernel(spec, p, p, 0)
    assert not sv.converged and sv.cap_used == 0
    assert abs(sv.value - complex(K(p, p))) > 0.02
    assert sv.tail_bound == math.inf
    # unless every series variable is 0, when every later shell is 0 too
    p, q = (0.0, 0.2), (0.1, 0.0)
    sv = series_kernel(spec, p, q, 0)
    assert sv.tail_bound == 0.0 and abs(sv.value - complex(K(p, q))) <= 1e-15 * abs(sv.value)


@pytest.mark.parametrize("name, cap, digest", [
    ("egg_inflated_p2", 30, "15a954656c8a9e8a"),
    ("ball_disk_lift_11", 30, "8d66d675417f92fd"),
    ("ball_exp_lift_11", 30, "dcf517e074017f30"),
    ("stage3", 30, "a4f1cc3c4a72883c"),
    ("ball2", 30, "669674db970adf30"),
    ("stage5", 24, "ac0b85bd7ba638bc"),
    ("stage6", 18, "ba7fe1342773b60f"),
])
def test_series_values_pinned(name, cap, digest):
    # every SeriesValue field, bit for bit, on the benchmark's five series
    # families and the deepest chain stages at their largest caps
    fams = closed_form_families()
    spec = fams[name][0] if name in fams else chain_stage_spec(int(name[5:]))
    table = get_norm_table(spec, cap)
    got = "".join(_outcome(series_kernel, spec, p, q, cap, table=table)
                  for p, q in interior_pairs(spec, 20, seed=41))
    assert hashlib.sha256(got.encode()).hexdigest()[:16] == digest


def test_series_reads_its_variables_and_blocks_from_the_table(monkeypatch):
    # with a table in hand no call asks series_variables, and each block
    # plan is made once, when the table is built, whatever the number of
    # calls and caps; a lower cap reads the same plan, cut at the cap
    spec = chain_stage_spec(3)
    asked, plans = [], []
    variables, block_end = oracle.series_variables, oracle._block_end

    def counted(offsets, deg):
        plans.append(deg)
        return block_end(offsets, deg)

    monkeypatch.setattr(oracle, "_block_end", counted)
    table = NormTable.build(spec, 30)
    built = list(plans)
    assert built == sorted(set(built)) == sorted(table.blocks) and built[:2] == [0, 18]
    monkeypatch.setattr(oracle, "series_variables", lambda s: asked.append(s) or variables(s))
    for (p, q), cap in product(interior_pairs(spec, 50, seed=31), (30, 17)):
        series_kernel(spec, p, q, cap, table=table)
    assert asked == []
    assert plans == built
    assert _block_plan(table, 17) == [0, 18] and _block_plan(table, 30)[:2] == [0, 18]


# a 2-ball whose U-step block of two is weighted (0.7, 1.1) by the next
# V-step: no longer unitarily invariant, so it must stay two series variables
UNEQUAL_LATER_WEIGHTS = DomainSpec(BaseDomain("GeneralizedComplexEllipsoid", 2, 0, (1.0, 1.0)),
                                   (LiftStep("U", (0.5, 0.5), 2),
                                    LiftStep("V", (0.3, 0.3, 0.7, 1.1), 1)))


def _full_series(spec, p, q, cap, monkeypatch):
    """series_kernel with one series variable per coordinate, on a full
    table from _monomial_norms."""
    with monkeypatch.context() as m:
        m.setattr(oracle, "series_variables", lambda s: tuple((j,) for j in range(s.dim)))
        return series_kernel(spec, p, q, cap, table=NormTable(spec, *_full_table(spec, cap)))


@pytest.mark.parametrize("spec, cap, n_vars", [
    (closed_form_families()["egg_inflated_p2"][0], 30, 2),
    (V_WDIM3, 18, 3),
    (DomainSpec(BaseDomain("GeneralizedComplexEllipsoid", 2, 0, (1.0, 1.0)),
                (LiftStep("V", (0.5, 1.2), 2),)), 22, 3),
    (DomainSpec(BaseDomain("GeneralizedComplexEllipsoid", 2, 0, (1.0, 1.0)),
                (LiftStep("U", (0.7, 0.4), 3),)), 18, 3),
    (ball_spec(2), 30, 1),
    (ball_disk_lift_spec(1, 2), 24, 3),
    (egg_spec(2, 2.0, 1), 30, 2),
], ids=["egg_inflated_p2", "v_wdim3", "V-w2", "U-w3", "ball2", "ball_disk_lift_12", "egg_2_p2"])
def test_block_series_matches_the_full_series(spec, cap, n_vars, monkeypatch):
    # one variable <w, eta-bar> per w block, and one <z, zeta-bar> per group
    # of base ball coordinates: the degree-j shell is the full series'
    # degree-j shell, so only round-off and the stopping shell differ
    groups = oracle.series_variables(spec)
    assert len(groups) == n_vars < spec.dim
    table = get_norm_table(spec, cap)
    assert len(table.norms) == math.comb(cap + len(groups), len(groups))
    for p, q in interior_pairs(spec, 5, seed=67, box_radius=0.35):
        got = series_kernel(spec, p, q, cap, table=table)
        full = _full_series(spec, p, q, cap, monkeypatch)
        assert abs(got.value - full.value) <= full.tail_bound


def test_block_series_table_sizes():
    assert len(get_norm_table(egg_spec(1, 2.0, 4), 22).norms) <= 300
    assert len(get_norm_table(closed_form_families()["egg_inflated_p2"][0], 30).norms) == 496
    assert len(get_norm_table(ball_spec(2), 30).norms) == 31
    assert len(get_norm_table(ball_disk_lift_spec(1, 2), 30).norms) == 5_456
    assert oracle.series_variables(egg_spec(2, 2.0, 3)) == ((0, 1), (2, 3, 4))
    # a polydisk, an ellipsoid exponent other than 1 and unequal weights keep their coordinates
    for spec in (polydisk_spec(2), V_WDIM3, ball_exp_lift_spec(2, 0, (1.0, 2.0))):
        assert oracle.series_variables(spec)[:spec.base.dim] == ((0,), (1,)), spec
    # chain stages have blocks of one: the table is the full-dimension table
    for k in (2, 4, 6):
        spec = chain_stage_spec(k)
        table = NormTable.build(spec, 8)
        exponents, norms, errors = _full_table(spec, 8)
        assert table.columns.T.tobytes() == exponents.tobytes()
        assert table.norms.tobytes() + table.errors.tobytes() == norms.tobytes() + errors.tobytes()


def test_block_series_on_a_w_block_of_six():
    # 7 coordinates: 10,295,472 full-dimension norms at cap 30, 496 in two variables
    spec, K = egg_spec(1, 2.0, 6), kernel_egg_inflated(1, 6, 2.0)
    table = get_norm_table(spec, 30)
    assert len(table.norms) == 496
    for p, q in interior_pairs(spec, 5, seed=61, box_radius=0.3):
        sv = series_kernel(spec, p, q, 30, table=table)
        v = complex(K(p, q))
        assert abs(sv.value - v) <= 1e-3 * abs(v)
        assert sv.tail_bound < 1e-4


def test_block_with_unequal_later_weights_keeps_one_variable_per_coordinate(monkeypatch):
    # the base ball's coordinates, weighted alike by both lifts, stay one variable
    spec, cap = UNEQUAL_LATER_WEIGHTS, 14
    assert oracle.series_variables(spec) == ((0, 1), (2,), (3,), (4,))
    K = compose_pipeline(spec)
    pairs = interior_pairs(spec, 5, seed=71, box_radius=0.35)
    table = get_norm_table(spec, cap)
    for p, q in pairs:
        v = complex(K(p, q))
        assert abs(series_kernel(spec, p, q, cap, table=table).value - v) <= 1e-3 * abs(v)
    # the same block reduced anyway misses the gate
    monkeypatch.setattr(oracle, "series_variables", lambda s: ((0, 1), (2, 3), (4,)))
    table = NormTable.build(spec, cap)
    worst = max(abs(series_kernel(spec, p, q, cap, table=table).value - complex(K(p, q)))
                / abs(complex(K(p, q))) for p, q in pairs)
    assert worst > 1e-3


def test_series_rejects_short_or_incomplete_table():
    table = get_norm_table(disk_spec(), 6)
    with pytest.raises(SpecError):
        series_kernel(disk_spec(), (0.1,), (0.1,), 7, table=table)
    with pytest.raises(SpecError):
        series_kernel(polydisk_spec(2), (0.1, 0.0), (0.1, 0.0), 6, table=table)
    # ball_spec(2) has one series variable, as the disk, but not the disk's norms
    with pytest.raises(SpecError):
        series_kernel(ball_spec(2), (0.1, 0.0), (0.1, 0.0), 6, table=table)
    full = get_norm_table(polydisk_spec(2), 3)
    keep = [i for i, a in enumerate(full.columns.T.tolist()) if a != [1, 1]]
    with pytest.raises(SpecError):
        NormTable(polydisk_spec(2), full.columns.T[keep], full.norms[keep], full.errors[keep])
