"""Independent ground truth for kernel evaluators.

Monomials form a complete orthogonal system on every constructible domain
(they are all complete Reinhardt), so the kernel is the monomial series
with squared-norm denominators.  Norms are computed by polar reduction to
the shadow (each coordinate contributes pi and a radial factor) and honest
quadrature of the reduced integrals.  Every reduced integral (the weighted
simplex blocks of disk-fibered lift steps, the ellipsoid base, each
polydisk factor) separates into one-dimensional Beta-type integrals
int_0^1 u^c (1-u)^e du, each done by the same cached tanh-sinh rule and
never through the rising-factorial identity those lifts are proved with.
(Weighted phi systems for non-Reinhardt bases are not needed here and are
not modelled.)

The reproducing-property integral is done in polar form as well, up to 3
coordinates: a rank-1 lattice angular rule, exact for every bin that no
mode of the kernel's one-sided angular spectrum aliases onto, times a
product Gauss rule in the lift-chain variables (``_radial_nodes``).  A pass
evaluates the ``Kernel``'s ``fn`` on the coordinate products, blocks of at
most POLAR_ROWS = 8,192 rows, sums each index's weighted blocks into one
lattice vector and applies the phases once.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

# shadow_contains stays an oracle name: perfbench/tracing.py counts its rows here
from .domains import (KIND_POLYDISK, BaseDomain, DomainSpec, SpecError, chain_moduli,
                      chain_volume, contains, shadow_contains)
from .jets import NonFiniteError, pochhammer

# largest norm table built; chain stage 4 at cap 24 needs 20,475 norms
MAX_TABLE_ENTRIES = 200_000
SHELL_BLOCK = 8          # degree shells per numpy pass of series_kernel
SHELL_TOL = 1e-9         # series_kernel stops after two shells below this share of the sum
N_RAD, N_RAD_CHECK = 10, 8    # Gauss nodes per chain factor (Laguerre: 2 more): value, check
DE_LEVEL, DE_LEVEL_CHECK = 2, 1   # tanh-sinh levels of a factor with no Gauss rule
MAX_LIFT_POWER = 64      # largest L of the U-step substitution 1 - t = s^L
N_ANG = 512              # reproducing lattice points, a power of 2 up to 2048
POLAR_ROWS = 8192        # kernel rows (radial nodes x lattice points) per call


class IntegrationError(RuntimeError):
    """Quadrature failed to reach a usable estimate."""


class ConvergenceError(RuntimeError):
    """Series shells stopped decaying (point too close to the boundary)."""


# ---------------------------------------------------------------------------
# 1-d building blocks


@lru_cache(maxsize=16)
def _de_rule(level: int):
    """tanh-sinh nodes/weights on (0, 1); returns (u, 1-u, w).

    The 1-u column is computed stably so endpoint-weighted integrands
    (1-u)^s u^c lose no precision.
    """
    h = 0.5 ** level
    tmax = 3.8
    t = np.arange(-tmax, tmax + h / 2, h)
    x = 0.5 * math.pi * np.sinh(t)
    u = 1.0 / (1.0 + np.exp(-2.0 * x))
    um1 = 1.0 / (1.0 + np.exp(2.0 * x))
    w = h * math.pi * np.cosh(t) * u * um1
    keep = (u > 0.0) & (um1 > 0.0) & (w > 1e-300)
    return u[keep], um1[keep], w[keep]


def _de_integrate(f):
    """Adaptive tanh-sinh integral of f over (0,1); f(u, 1-u) vectorised.

    Raises IntegrationError when two successive levels still disagree by
    more than 1e-11 relative at level 8.
    """
    prev = None
    for level in range(3, 9):
        u, um1, w = _de_rule(level)
        val = float(np.sum(w * f(u, um1)))
        if prev is not None:
            err = abs(val - prev)
            if err <= 1e-11 * max(abs(val), 1e-300):
                return val, err
        prev = val
    raise IntegrationError(
        "tanh-sinh rule did not converge by level 8 "
        f"(last two levels differ by {err:.2e})")


@lru_cache(maxsize=64)
def _gauss_rule(n: int, a: float, b: float | None = None):
    """n-node Gauss rule (nodes, weights summing to 1) by Golub-Welsch from
    the three-term recurrence: Gauss-Jacobi for u^a (1-u)^b on (0, 1), or
    with b None generalized Gauss-Laguerre for t^a e^-t on (0, inf)."""
    k = np.arange(n, dtype=float)
    if b is None:
        diag, off = 2.0 * k + a + 1.0, np.sqrt(k[1:] * (k[1:] + a))
    else:   # Jacobi on (-1, 1), weight (1-x)^b (1+x)^a, mapped by u = (1+x)/2
        s, m = 2.0 * k + a + b, k[1:]
        with np.errstate(divide="ignore", invalid="ignore"):
            diag = 0.5 + 0.5 * np.where(k > 0, (a * a - b * b) / (s * s + 2.0 * s),
                                        (a - b) / (a + b + 2.0))
        off = np.sqrt(m * (m + a) * (m + b) * (m + a + b) / (s[1:] ** 2 * (s[1:] ** 2 - 1.0)))
    x, v = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    return x, v[0] ** 2


# ---------------------------------------------------------------------------
# weighted simplex blocks


@lru_cache(maxsize=65536)
def _beta_factor(c: float, e: float):
    """int_0^1 u^c (1-u)^e du by the tanh-sinh rule, with its error."""
    return _de_integrate(lambda u, um1: u ** c * um1 ** e)


def _gaussian_moment(c: float, s: float) -> float:
    """int_0^inf e^{-s r} r^c dr = c!/s^{c+1}; NaN where no float holds it."""
    try:
        return math.factorial(int(c)) / s ** (int(c) + 1)
    except (OverflowError, ZeroDivisionError):
        return math.nan


def _per_key(fn, c, e):
    """fn(c_i, e_i) over equal-shape arrays c and e, called once per distinct
    pair with Python floats; stacks the outputs of fn along axis 0."""
    pairs = np.stack([np.ravel(c), np.ravel(e)], axis=1).astype(float)
    keys, inverse = np.unique(pairs.view(complex).ravel(), return_inverse=True)
    out = np.array([fn(k.real, k.imag) for k in keys.tolist()]).reshape(len(keys), -1)
    return out[inverse.ravel()].T.reshape(-1, *np.shape(c))


def _simplex_columns(s, C):
    """Quadrature values of int_{B^k_+} (1-sum r)^s r^c dV with error
    estimates, one per row of the column s and the (n, k) matrix C.  The
    substitution r_j -> (1-r_k) t_j, applied recursively, separates each into
    factors int_0^1 u^{c_j} (1-u)^{e_j} du, e_1 = s, e_{j+1} = e_j + c_j + 1:
    cached tanh-sinh integrals, one per distinct (c_j, e_j), whose relative
    errors add (cumsum and cumprod run left to right, as a scalar loop)."""
    if np.any(C <= -1.0):
        raise IntegrationError("non-integrable radial exponent")
    if np.any(s < 0):
        raise IntegrationError("negative simplex weight exponent")
    if not C.size:
        return np.ones(len(s)), np.zeros(len(s))
    v, err = _per_key(_beta_factor, C, np.column_stack([s, C[:, :-1] + 1.0]).cumsum(axis=1))
    val = v.cumprod(axis=1)[:, -1]
    return val, np.abs(val) * (err / np.maximum(np.abs(v), 1e-300)).cumsum(axis=1)[:, -1]


def simplex_weighted_integral(s: float, c):
    """The one-row case of ``_simplex_columns``, for any k."""
    val, err = _simplex_columns(np.array([float(s)]), np.array([c], dtype=float))
    return float(val[0]), float(err[0])


def dirichlet_identity_check(s: float, c):
    """Both sides of the weighted-simplex moment identity: the quadrature
    value and the closed form pi^k * prod c_j! / (1+s)_{(sum c)+k}, with
    k = len(c) coordinates."""
    c = tuple(int(x) for x in c)
    k = len(c)
    if k < 1:
        raise ValueError("need at least one exponent")
    quad, _ = simplex_weighted_integral(float(s), c)
    quad *= math.pi ** k
    closed = math.prod([math.pi ** k] + [math.factorial(cj) for cj in c])
    closed /= pochhammer(1.0 + s, sum(c) + k)
    return quad, closed


# ---------------------------------------------------------------------------
# monomial norms


def _base_shadow_integral(spec: DomainSpec, A):
    """int over the base shadow of prod x^{a_j} dx (no pi factors), with its
    error, for every row a of the exponent matrix A."""
    base = spec.base
    zero = np.zeros(len(A))
    if base.kind == "Polydisk":
        val, err = np.ones(len(A)), np.zeros(len(A))
        for j in range(A.shape[1]):
            v, e = _simplex_columns(zero, A[:, j:j + 1])
            err = np.abs(val * v) * (err / np.maximum(np.abs(val), 1e-300)
                                     + e / np.maximum(np.abs(v), 1e-300))
            val = val * v
        return val, err
    # x_j = r_j^{1/p_j} maps the ellipsoid shadow onto the unit simplex
    val, err = _simplex_columns(zero, (A + 1.0) / np.array(base.exponents) - 1.0)
    scale = 1.0
    for pj in base.exponents:
        scale /= pj
    return scale * val, scale * err


def _monomial_norms(spec: DomainSpec, E):
    """Squared L2 norms of the monomials z^a for every row a of the (n, dim)
    exponent matrix E, with error estimates: polar reduction to the shadow,
    one array pass per lift step (outermost first) and one for the base.
    IntegrationError names the first row whose norm is no positive float."""
    value, rel_err = np.full(len(E), math.pi ** spec.dim), 0.0
    with np.errstate(all="ignore"):
        for i in range(len(spec.lifts) - 1, -1, -1):
            step = spec.lifts[i]
            C = E[:, spec.w_slice(i)].astype(float)
            s = sum(wt * (E[:, j] + 1.0) for j, wt in zip(spec.star_indices(i), step.weights))
            if step.kind == "U":
                f, fe = _simplex_columns(s, C)
                value = value * f
                rel_err = rel_err + fe / np.maximum(np.abs(f), 1e-300)
            elif np.any(s <= 0.0):
                raise IntegrationError("plane-fibered block is not integrable")
            else:   # Gaussian radial moments c!/s^{c+1}, once per distinct (c, s)
                m = _per_key(_gaussian_moment, C, np.repeat(s[:, None], C.shape[1], 1))
                value = np.column_stack([value, m[0]]).cumprod(axis=1)[:, -1]
        f, fe = _base_shadow_integral(spec, E[:, :spec.base.dim])
        value = value * f
        rel_err = rel_err + fe / np.maximum(np.abs(f), 1e-300)
        bad = np.flatnonzero((value <= 0.0) | ~np.isfinite(value))
    if len(bad):
        raise IntegrationError(f"norm integral collapsed for index {tuple(E[bad[0]].tolist())}")
    return value, np.abs(value) * rel_err


def monomial_norm_full(spec: DomainSpec, idx) -> tuple:
    """(value, error) of the squared L2 norm of the monomial with exponent
    vector idx: the one-row case of _monomial_norms."""
    idx = tuple(int(i) for i in idx)
    if len(idx) != spec.dim:
        raise SpecError("monomial index arity mismatch")
    if any(i < 0 for i in idx):
        raise SpecError("monomial exponents must be nonnegative")
    value, error = _monomial_norms(spec, np.array([idx], dtype=np.intp))
    return float(value[0]), float(error[0])


def exponent_matrix(dim: int, degree_cap: int) -> np.ndarray:
    """Every exponent vector of ``dim`` entries and degree <= degree_cap,
    sorted by degree and lexicographically within a degree."""
    E = np.zeros((1, 0), dtype=np.intp)
    for _ in range(dim):
        # append a last entry 0..(cap - degree) to every row, in order
        counts = degree_cap + 1 - E.sum(axis=1)
        last = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
        E = np.column_stack([np.repeat(E, counts, axis=0), last])
    return E[np.argsort(E.sum(axis=1), kind="stable")]


class NormTable:
    """Monomial squared norms for one spec: the degree-sorted (n, dim)
    ``exponents`` matrix with its ``norms`` and ``errors`` vectors, the first
    row ``offsets[d]`` of each degree shell d, and ``gather``, each exponent's
    flat index into a (dim, cap + 1) array of powers.  ``entries``, the same
    table as a dict of (value, error) pairs, is built only when read."""

    def __init__(self, spec: DomainSpec | None, exponents, norms, errors):
        self.spec = spec
        exps = np.array(exponents, dtype=np.intp, ndmin=2)
        if exps.size == 0 or exps.min() < 0:
            raise SpecError("norm table needs nonnegative monomial indices")
        degrees = exps.sum(axis=1)
        order = np.argsort(degrees, kind="stable")
        self.exponents, degrees = exps[order], degrees[order]
        self.norms = np.asarray(norms, dtype=float)[order]
        self.errors = np.asarray(errors, dtype=float)[order]
        self.offsets = np.searchsorted(degrees, np.arange(degrees[-1] + 2)).tolist()
        dim = exps.shape[1]
        if any(b - a != math.comb(d + dim - 1, dim - 1)
               for d, (a, b) in enumerate(zip(self.offsets, self.offsets[1:]))):
            raise SpecError("norm table misses monomials below its largest degree")
        self.gather = self.exponents + np.arange(dim) * (self.degree_cap() + 1)

    @classmethod
    def build(cls, spec: DomainSpec, degree_cap: int) -> "NormTable":
        if degree_cap < 0:
            raise SpecError("series degree cap must be nonnegative")
        size = math.comb(degree_cap + spec.dim, spec.dim)
        if size > MAX_TABLE_ENTRIES:
            raise SpecError(f"degree cap {degree_cap} needs {size} norms in "
                            f"{spec.dim} dimensions (at most {MAX_TABLE_ENTRIES})")
        exps = exponent_matrix(spec.dim, degree_cap)
        return cls(spec, exps, *_monomial_norms(spec, exps))

    @cached_property
    def entries(self) -> dict:
        return dict(zip(map(tuple, self.exponents.tolist()),
                        zip(self.norms.tolist(), self.errors.tolist())))

    def degree_cap(self) -> int:
        return len(self.offsets) - 2


@lru_cache(maxsize=64)
def get_norm_table(spec: DomainSpec, degree_cap: int) -> NormTable:
    return NormTable.build(spec, degree_cap)


# ---------------------------------------------------------------------------
# monomial series evaluation


@dataclass
class SeriesValue:
    value: complex
    tail_bound: float
    cap_used: int
    shells: list


def _fsum(re, im) -> complex:
    """math.fsum of the real and imaginary parts; NonFiniteError on overflow."""
    try:
        total = complex(math.fsum(re), math.fsum(im))
    except (OverflowError, ValueError):     # overflowed partial sum, inf - inf
        total = complex(math.inf)
    if not cmath.isfinite(total):
        raise NonFiniteError("series sum overflowed")
    return total


def series_kernel(spec: DomainSpec, p, q, degree_cap: int,
                  table: NormTable | None = None) -> SeriesValue:
    """Kernel value as the monomial series sum (p q-bar)^a / ||z^a||^2.

    Terms are computed SHELL_BLOCK degree shells at a time, each block one
    numpy gather of the table's cumulative powers; each degree shell is
    summed with math.fsum, up to two shells in a row below SHELL_TOL of the
    running sum, and later blocks are never computed.  The tail bound
    extrapolates the last two shells geometrically.  Shells that stop
    decaying raise ConvergenceError, an overflowing sum NonFiniteError.
    """
    p = tuple(complex(c) for c in p)
    q = tuple(complex(c) for c in q)
    if len(p) != spec.dim or len(q) != spec.dim:
        raise SpecError("point arity mismatch")
    if degree_cap < 0:
        raise SpecError("degree cap must be nonnegative")
    if table is None:
        table = get_norm_table(spec, degree_cap)
    if table.exponents.shape[1] != spec.dim or table.degree_cap() < degree_cap:
        raise SpecError(f"norm table (dimension {table.exponents.shape[1]}, degree "
                        f"cap {table.degree_cap()}) does not cover this series")
    pows = np.ones((spec.dim, table.degree_cap() + 1), dtype=complex)
    pows[:, 1:] = np.array([pj * qj.conjugate() for pj, qj in zip(p, q)])[:, None]
    shells = []
    running = 0j
    cap_used = degree_cap
    with np.errstate(over="ignore", invalid="ignore"):
        pows = np.cumprod(pows, axis=1).ravel()
        for deg in range(degree_cap + 1):
            if deg % SHELL_BLOCK == 0:
                a = table.offsets[deg]
                b = table.offsets[min(deg + SHELL_BLOCK, degree_cap + 1)]
                terms = np.take(pows, table.gather[a:b]).prod(axis=1)
                # memoryview slices give fsum Python floats without a list copy
                re = memoryview(terms.real / table.norms[a:b])
                im = memoryview(terms.imag / table.norms[a:b])
            lo, hi = table.offsets[deg] - a, table.offsets[deg + 1] - a
            shell = _fsum(re[lo:hi], im[lo:hi])
            shells.append(shell)
            running += shell
            if deg >= 2 and abs(shells[-1]) < SHELL_TOL * abs(running) \
                    and abs(shells[-2]) < SHELL_TOL * abs(running):
                cap_used = deg
                break
    mags = [abs(s) for s in shells]
    tail = 0.0
    if len(mags) >= 2 and mags[-1] > 0.0:
        ratio = mags[-1] / mags[-2] if mags[-2] > 0.0 else math.inf
        if ratio < 1.0:
            tail = mags[-1] * ratio / (1.0 - ratio)
        elif mags[-1] > SHELL_TOL * max(abs(running), 1e-300):
            raise ConvergenceError(
                "series shells are not decaying; point too close to the boundary")
        else:
            tail = mags[-1]
    value = _fsum([s.real for s in shells], [s.imag for s in shells])
    return SeriesValue(value=value, tail_bound=tail, cap_used=cap_used,
                       shells=shells)


# ---------------------------------------------------------------------------
# reproducing-property integral


# Korobov generators z (z_1 = 1) of the 2048-point rank-1 lattice per
# dimension; a smaller power-of-2 N_ANG uses z mod N_ANG, the embedded
# lattice.  From an exact search, the smallest degree of a mode a >= 0 that
# aliases onto a bin of degree <= 2 (<= 4 for d = 2) is, at N = 2048/512/256,
# 293/74/37 for d = 2 and 128/32/16 for d = 3.
LATTICE_GENERATORS = {1: (1,), 2: (1, 586), 3: (1, 684, 912)}


def reproducing_integral(K, spec: DomainSpec, indices, p):
    """Deterministic polar-quadrature values of int K(p; q-bar) q^idx dV(q)
    for every index in ``indices``, K a ``Kernel`` whose ``fn`` takes the
    products u_j = p_j q-bar_j; returns ({idx: value}, {idx: err}).

    Radial: the product rule of ``_radial_nodes`` over the chain factors,
    N_RAD Gauss nodes per factor (N_RAD + 2 for a V-step's Laguerre rule,
    tanh-sinh level DE_LEVEL where no Gauss rule fits).
    Angular: the rank-1 lattice of N_ANG points
    theta_i = 2 pi ((i z) mod N_ANG) / N_ANG, z from LATTICE_GENERATORS,
    with residues in integer arithmetic.  Bin idx is the lattice mean of
    K e^(i idx.theta), exact unless a mode of the kernel's one-sided
    angular spectrum aliases onto it.  The error estimate combines a radial
    pass coarser in every factor (N_RAD_CHECK nodes, level DE_LEVEL_CHECK)
    with the embedded N_ANG/2 lattice (its even points).  Supported up to
    3 coordinates.  Repeated indices count once; negative ones raise
    ``SpecError``, two that share a lattice residue raise
    ``IntegrationError``; no indices return ({}, {}) without calling K.
    """
    d = spec.dim
    if d > 3:
        raise IntegrationError("polar quadrature supported up to 3 coordinates")
    if len(p) != d or K.dim != d:
        raise SpecError("point or kernel arity mismatch")
    indices = list(dict.fromkeys(tuple(int(i) for i in idx) for idx in indices))
    if any(len(idx) != d for idx in indices):
        raise SpecError("index arity mismatch")
    if any(e < 0 for idx in indices for e in idx):
        raise SpecError("reproducing indices must be non-negative")
    if not indices:
        return {}, {}
    z = [zc % N_ANG for zc in LATTICE_GENERATORS[d]]
    residues = {sum(e * zc for e, zc in zip(idx, z)) % N_ANG for idx in indices}
    if len(residues) < len(indices):
        raise IntegrationError("two requested indices alias on the angular "
                               "lattice; raise N_ANG")
    full, full_half = _polar_pass(K, spec, indices, p, N_RAD, DE_LEVEL, N_ANG)
    check, _ = _polar_pass(K, spec, indices, p, N_RAD_CHECK, DE_LEVEL_CHECK, N_ANG)
    errs = {idx: abs(full[idx] - check[idx]) + abs(full[idx] - full_half[idx])
            for idx in indices}
    return full, errs


def _lift_power(weights):
    """Least L with every L a_j an integer, from the weights' exact binary
    fractions (never a nearby fraction); None above MAX_LIFT_POWER."""
    L = math.lcm(*(a.as_integer_ratio()[1] for a in weights))
    return L if L <= MAX_LIFT_POWER else None


def _de_factor(level: int, a: float, b: float):
    """tanh-sinh nodes u < 1 (u = 1 would put a U-step's ||w||^2 on the
    boundary), 1 - u and weights summing to 1 for u^a (1-u)^b on (0, 1)."""
    keep = _de_rule(level)[0] < 1.0
    u, um1, w = (v[keep] for v in _de_rule(level))
    w = w * u ** a * um1 ** b
    return u, um1, w / w.sum()


def _sticks(v):
    """Dirichlet shares from stick fractions: v_i times what is left, then the rest."""
    parts, rest = [], 1.0
    for vi in v:
        parts.append(rest * vi)
        rest = rest * (1.0 - vi)
    return parts + [rest]


def _radial_nodes(spec: DomainSpec, n_rad: int, de_level: int):
    """Polar radii (nodes, dim) in coordinate order and their weights: a
    product rule over the variables ``domains._chain_shadow`` draws, where
    the shadow is a product of intervals, placed by ``chain_moduli``.
    Gauss-Legendre on a uniform base coordinate; Gauss-Jacobi on Dirichlet
    sticks (a ball base, a w block) and, per U-step, in s = (1-t)^(1/L), L
    the least integer with every L a_j an integer, so that t = ||w||^2 and
    each acted squared modulus are polynomials in s; generalized
    Gauss-Laguerre in a V-step's t.  Where none fits (no L up to
    MAX_LIFT_POWER, an ellipsoid base of several coordinates not all of
    exponent 1), tanh-sinh at ``de_level``.  Each factor's weights sum to
    1; their product is scaled by the volume ||1||^2."""
    base, q = spec.base, [1.0 / pj for pj in spec.base.exponents]
    sticks = base.kind != KIND_POLYDISK and base.dim > 1
    rules = []          # per chain variable: its columns, then its weights
    for j in range(base.dim):       # x_j uniform, or the sticks of Dirichlet(q, 1)
        a, b = (q[j] - 1.0, sum(q[j + 1:])) if sticks else (0.0, 0.0)
        if sticks and set(q) != {1.0}:
            u, _, w = _de_factor(de_level, a, b)
            rules.append((u, w))
        else:
            rules.append(_gauss_rule(n_rad, a, b))
    for step in spec.lifts:
        A, k, L = sum(step.weights), step.w_dim, _lift_power(step.weights)
        if step.kind == "V":
            t, w = _gauss_rule(n_rad + 2, k - 1.0)
            rules.append((t / A, w))
        elif L is None:     # t and c = 1 - t
            rules.append(_de_factor(de_level, k - 1.0, A))
        else:               # s = c^(1/L) has density s^(L(A+1)-1) (1 - s^L)^(k-1)
            s, w = _gauss_rule(n_rad, L * (A + 1.0) - 1.0, k - 1.0)
            w = w * ((1.0 - s ** L) / (1.0 - s)) ** (k - 1)
            rules.append((1.0 - s ** L, s ** L, w / w.sum()))
        rules += [_gauss_rule(n_rad, 0.0, k - 2.0 - i) for i in range(k - 1)]
    cols, weights = [], np.ones(1)      # tensor product, first variable slowest
    for *new, w in rules:
        cols = [np.repeat(c, len(w)) for c in cols] + [np.tile(c, len(weights)) for c in new]
        weights = np.outer(weights, w).ravel()
    cols = iter(cols)
    x = [next(cols) for _ in range(base.dim)]
    lifts = []
    for step in spec.lifts:
        t = next(cols)
        c = next(cols) if step.kind == "U" else None
        split = _sticks([next(cols) for _ in range(step.w_dim - 1)])
        lifts.append((t, c, np.column_stack(split)))
    if sticks:
        x = [y ** qj for y, qj in zip(_sticks(x), q)]
    x = chain_moduli(spec, np.column_stack(x), lifts)
    # ||1||^2: the lifts' masses from the norm route over the unit cube (a
    # polydisk base), times the base shadow's volume in closed form (the norm
    # route's ellipsoid factor fails for large exponents)
    unit = DomainSpec(BaseDomain(KIND_POLYDISK, base.n_star, base.m_passive), spec.lifts)
    volume = _monomial_norms(unit, np.zeros((1, spec.dim), dtype=np.intp))[0][0]
    return np.sqrt(x), weights * volume * chain_volume(DomainSpec(base)) / math.pi ** base.dim


def _polar_pass(K, spec, indices, p, n_rad, de_level, n_ang):
    radii, weights = _radial_nodes(spec, n_rad, de_level)
    d = spec.dim
    # lattice residues (i z) mod n_ang and (i idx.z) mod n_ang index one
    # table of roots of unity, so every phase is exact up to that table
    lattice = np.outer(np.arange(n_ang), np.array(LATTICE_GENERATORS[d]) % n_ang) % n_ang
    roots = np.exp((2j * math.pi / n_ang) * np.arange(n_ang))
    # K depends on q only through u_j = p_j q-bar_j = r_j (p_j e^(-i theta_j))
    c = np.array([complex(x) for x in p])[:, None] * np.conj(roots[lattice.T])
    # per index, arrays of its own: weight x monomial and its lattice vector
    wm = [weights * math.prod(radii[:, j] ** e for j, e in enumerate(idx) if e)
          for idx in indices]
    acc = [np.zeros(n_ang, dtype=complex) for _ in indices]
    # whole radial nodes per kernel call, at most POLAR_ROWS rows: each block
    # array stays in cache and below numpy's temporary-elision size
    step = max(1, POLAR_ROWS // n_ang)
    with np.errstate(all="ignore"):     # a non-finite value raises below
        for start in range(0, len(radii), step):
            rr = radii[start:start + step]
            kv = np.broadcast_to(K.fn(tuple(rr[:, j, None] * c[j] for j in range(d))),
                                 (len(rr), n_ang))
            # one vector product per index, so a value's rounding does not
            # depend on which other indices are requested
            for a, w in zip(acc, wm):
                a += w[start:start + step] @ kv
    if not np.isfinite(acc).all():
        raise NonFiniteError(f"{K.name} overflowed (value not finite)")
    # the phases and the embedded half lattice (even points), once per pass
    totals, halves = {}, {}
    for idx, a in zip(indices, acc):
        ph = roots[lattice @ np.array(idx) % n_ang]
        totals[idx] = complex(a @ ph) / n_ang
        halves[idx] = complex(a[::2] @ ph[::2]) / (n_ang // 2)
    return totals, halves


def reproducing_check(K, spec: DomainSpec, indices, p) -> dict:
    """{idx: relative residual |int K(p; q-bar) q^idx dV - p^idx| /
    max(|p^idx|, 1e-6)} for every index in ``indices``, the integrals from
    one ``reproducing_integral`` call at its defaults (so up to 3
    coordinates)."""
    p = tuple(complex(c) for c in p)
    if not contains(spec, p):
        raise SpecError("reproducing check needs an interior point")
    out = {}
    for idx, integral in reproducing_integral(K, spec, indices, p)[0].items():
        target = math.prod(pj ** e for pj, e in zip(p, idx))
        out[idx] = abs(integral - target) / max(abs(target), 1e-6)
    return out
