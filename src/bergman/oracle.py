"""Independent ground truth for kernel evaluators.

Monomials form a complete orthogonal system on every constructible domain
(they are all complete Reinhardt), so the kernel is the monomial series
with squared-norm denominators.  A w block that every later lift weights
equally enters the domain only through its squared norm, so the domain is
unitarily invariant in it and the block's degree-j terms sum to
<w, eta-bar>^j / ||z^a w_1^j||^2, and so do base ellipsoid coordinates of
exponent 1 that every lift weights alike: the series runs over one variable
per such group and per other coordinate (``series_variables``), with no
lift identity involved.  Norms are computed by polar reduction to
the shadow (each coordinate contributes pi and a radial factor) and honest
quadrature of the reduced integrals.  Every reduced integral (the weighted
simplex blocks of disk-fibered lift steps, the ellipsoid base, each
polydisk factor) separates into one-dimensional Beta-type integrals
int_0^1 u^c (1-u)^e du, each done by the same cached tanh-sinh rule (in
v = u^(c+1) where -1 < c < 0, as for an ellipsoid base exponent above 1)
and never through the rising-factorial identity those lifts are proved
with; a plane-fibered block's radial moments are the factorials c!/s^(c+1).
(Weighted phi systems for non-Reinhardt bases are not needed here and are
not modelled.)

By orthogonality, int K(p, q) q^a dV(q) = c_a ||z^a||^2 p^a, c_a the Taylor
coefficient of the kernel at u^a: up to 4 coordinates, a Cauchy
integral by a rank-1 lattice rule on one torus taken from the spec, times
the norms of the requested indices alone.
"""

from __future__ import annotations

import bisect
import cmath
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .domains import KIND_POLYDISK, DomainSpec, SpecError, contains, shadow_contains
from .jets import NonFiniteError, pochhammer

# largest norm table built, in series variables; chain stage 4 at cap 24 needs 20,475 norms
MAX_TABLE_ENTRIES = 200_000
BLOCK_TERMS = 1024       # least terms per numpy pass of series_kernel, short of the cap
SHELL_TOL = 1e-9         # series_kernel stops after two shells below this share of the sum
N_ANG = 2048             # Cauchy lattice points, a power of 2 up to 2048
TORUS_TOL = 1e-4         # the torus shrinks while its estimate exceeds a tenth of the 1e-3 gate
TORUS_LEVELS = 6         # tori at most: s = 1/2, 1/4, ..., 1/64
ROUND_OFF = 2.0 ** -46   # round-off floor of a coefficient, relative to the lattice mean of |K|


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
    rule = u[keep], um1[keep], w[keep]
    for a in rule:      # the cached rule is shared by every later call
        a.setflags(write=False)
    return rule


def _de_integrate(f):
    """Adaptive tanh-sinh integral of f over (0,1); f(u, 1-u) vectorised.

    Raises IntegrationError when two successive levels still disagree by
    more than 1e-11 relative at level 8.
    """
    prev = None
    for level in range(3, 9):
        u, um1, w = _de_rule(level)
        val = float(np.add.reduce(w * f(u, um1)))
        if prev is not None:
            err = abs(val - prev)
            if err <= 1e-11 * max(abs(val), 1e-300):
                return val, err
        prev = val
    raise IntegrationError(
        "tanh-sinh rule did not converge by level 8 "
        f"(last two levels differ by {err:.2e})")


# ---------------------------------------------------------------------------
# weighted simplex blocks


@lru_cache(maxsize=65536)
def _beta_factor(c: float, e: float):
    """int_0^1 u^c (1-u)^e du by the tanh-sinh rule, with its error.  For
    -1 < c < 0 the singular u^c goes into v = u^(c+1): the integral becomes
    int_0^1 (1 - v^k)^e dv / (c+1), k = 1/(c+1), with 1 - v^k formed from
    the 1-v column (a node whose 1-v rounds to 1 gives v^k = 0)."""
    if c >= 0.0:
        return _de_integrate(lambda u, um1: u ** c * um1 ** e)
    k = 1.0 / (c + 1.0)
    with np.errstate(divide="ignore"):
        val, err = _de_integrate(lambda v, vm1: (-np.expm1(k * np.log1p(-vm1))) ** e)
    return val * k, err * k


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
    if base.kind == KIND_POLYDISK:
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


@lru_cache(maxsize=64)
def series_variables(spec: DomainSpec) -> tuple:
    """The coordinates each series variable sums p_l q-bar_l over, in
    coordinate order: one per group of base ellipsoid coordinates of exponent
    1 that every lift weights alike (a passive coordinate weighs 0), one per
    other base coordinate, one per lift's w block whose coordinates every
    later lift weights equally, and one per coordinate of any other block.
    With no group of two or more coordinates the variables are the
    coordinate products themselves."""
    base, keys = spec.base, {}
    for j in range(base.dim):
        ball = base.kind != KIND_POLYDISK and base.exponents[j] == 1.0
        keys.setdefault(tuple(s.weights[j] if j < base.n_star else 0.0 for s in spec.lifts)
                        if ball else j, []).append(j)
    groups = sorted(tuple(g) for g in keys.values())
    for i in range(len(spec.lifts)):
        block = range(spec.dim)[spec.w_slice(i)]
        if all(len({wt for j, wt in zip(spec.star_indices(k), spec.lifts[k].weights)
                    if j in block}) == 1 for k in range(i + 1, len(spec.lifts))):
            groups.append(tuple(block))
        else:
            groups.extend((j,) for j in block)
    return tuple(groups)


def _representative_rows(spec: DomainSpec, R) -> np.ndarray:
    """Full exponent rows for the rows of R over ``series_variables``: each
    variable's degree on its first coordinate, whose monomial norm is the
    one its series term divides by."""
    E = np.zeros((len(R), spec.dim), dtype=np.intp)
    E[:, [g[0] for g in series_variables(spec)]] = R
    return E


class NormTable:
    """Monomial squared norms for one spec over its series variables: the
    degree-sorted exponents as the (n_vars, n) matrix ``columns``, each
    variable's exponents contiguous, with the ``norms`` and ``errors`` vectors
    (an exponent's norm is that of its ``_representative_rows`` monomial) and
    the first exponent ``offsets[d]`` of each degree shell d, the spec's
    ``groups`` (``series_variables``) and the series_kernel block plan up to
    the table's cap: ``blocks[d]`` is (end shell, first term, end term,
    read-only shell starts) of the block from shell d (``_block_end``).
    ``entries``, the same table as a dict of (value, error) pairs, is built
    only when read."""

    def __init__(self, spec: DomainSpec, exponents, norms, errors):
        self.spec = spec
        exps = np.array(exponents, dtype=np.intp, ndmin=2)
        if exps.size == 0 or exps.min() < 0:
            raise SpecError("norm table needs nonnegative monomial indices")
        degrees = exps.sum(axis=1)
        order = np.argsort(degrees, kind="stable")
        exps, degrees = exps[order], degrees[order]
        self.norms = np.asarray(norms, dtype=float)[order]
        self.errors = np.asarray(errors, dtype=float)[order]
        self.offsets = np.searchsorted(degrees, np.arange(degrees[-1] + 2)).tolist()
        dim = exps.shape[1]
        if any(b - a != math.comb(d + dim - 1, dim - 1)
               for d, (a, b) in enumerate(zip(self.offsets, self.offsets[1:]))):
            raise SpecError("norm table misses monomials below its largest degree")
        self.columns = np.ascontiguousarray(exps.T)
        self.groups = series_variables(spec)
        self.blocks, deg = {}, 0
        while deg < len(self.offsets) - 1:
            end = _block_end(self.offsets, deg)
            starts = np.subtract(self.offsets[deg:end], self.offsets[deg])
            starts.setflags(write=False)
            self.blocks[deg] = (end, self.offsets[deg], self.offsets[end], starts)
            deg = end

    @classmethod
    def build(cls, spec: DomainSpec, degree_cap: int) -> "NormTable":
        if degree_cap < 0:
            raise SpecError("series degree cap must be nonnegative")
        n_vars = len(series_variables(spec))
        size = math.comb(degree_cap + n_vars, n_vars)
        if size > MAX_TABLE_ENTRIES:
            raise SpecError(f"degree cap {degree_cap} needs {size} norms in "
                            f"{n_vars} series variables (at most {MAX_TABLE_ENTRIES})")
        exps = exponent_matrix(n_vars, degree_cap)
        return cls(spec, exps, *_monomial_norms(spec, _representative_rows(spec, exps)))

    @cached_property
    def entries(self) -> dict:
        return dict(zip(map(tuple, self.columns.T.tolist()),
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
    converged: bool     # False: the cap came before two shells below SHELL_TOL


def _fsum(re, im) -> complex:
    """math.fsum of the real and imaginary parts; NonFiniteError on overflow."""
    try:
        total = complex(math.fsum(re), math.fsum(im))
    except (OverflowError, ValueError):     # overflowed partial sum, inf - inf
        total = complex(math.inf)
    if not cmath.isfinite(total):
        raise NonFiniteError("series sum overflowed")
    return total


def _block_end(offsets, deg: int) -> int:
    """One past the last shell of the series_kernel block from shell deg."""
    need = offsets[deg] + max(BLOCK_TERMS, offsets[deg])
    return min(bisect.bisect_left(offsets, need, deg + 1), len(offsets) - 1)


def series_kernel(spec: DomainSpec, p, q, degree_cap: int,
                  table: NormTable | None = None) -> SeriesValue:
    """Kernel value as the monomial series sum v^a / ||z^a||^2 over the
    table's ``groups`` v (the spec's ``series_variables``), each the sum of
    p_l q-bar_l over its coordinates, and the table's representative norms.

    Terms are computed a block at a time (``NormTable.blocks``, the last one
    cut at the cap): the fewest whole degree shells holding max(BLOCK_TERMS,
    the terms before them) terms, or up to the cap.  A block is a product of
    contiguous ``take`` gathers of cumulative powers, one per variable, whose
    shells one np.add.reduceat per real and imaginary part sums (off by at
    most gamma_n times a shell's absolute sum, Higham 2002, ch. 4), up to two
    shells in a row below SHELL_TOL of the running sum; later blocks are
    never computed, and math.fsum sums the shells.  The tail bound extrapolates the last two
    shells geometrically; one shell gives inf, or 0 where every v is 0.
    Shells that stop decaying raise ConvergenceError, a non-finite shell or
    sum NonFiniteError.
    """
    p = tuple(complex(c) for c in p)
    q = tuple(complex(c) for c in q)
    if len(p) != spec.dim or len(q) != spec.dim:
        raise SpecError("point arity mismatch")
    if degree_cap < 0:
        raise SpecError("degree cap must be nonnegative")
    if table is None:
        table = get_norm_table(spec, degree_cap)
    groups, cols = table.groups, table.columns
    if (table.spec is not spec and table.spec != spec) or len(cols) != len(groups) \
            or table.degree_cap() < degree_cap:
        raise SpecError(f"norm table ({len(cols)} series variables, degree "
                        f"cap {table.degree_cap()}) does not cover this series")
    u = [pj * qj.conjugate() for pj, qj in zip(p, q)]
    v = [sum((u[j] for j in g[1:]), u[g[0]]) for g in groups]
    pows = np.ones((len(groups), degree_cap + 1), dtype=complex)
    pows[:, 1:] = np.array(v)[:, None]
    shells, shells_re, shells_im = [], [], []
    running = 0j
    cap_used, converged = degree_cap, False
    end = 0
    with np.errstate(over="ignore", invalid="ignore"):
        pows = np.cumprod(pows, axis=1)
        for deg in range(degree_cap + 1):
            if deg == end:
                end, a, b, starts = table.blocks[deg]
                if end > degree_cap + 1:
                    end = degree_cap + 1
                    b, starts = table.offsets[end], starts[:end - deg]
                terms = pows[0].take(cols[0, a:b])
                # not `*`, which reuses a large temporary in place and rounds differently
                for i in range(1, len(groups)):
                    terms = np.multiply(terms, pows[i].take(cols[i, a:b]))
                for x, out in ((terms.real, shells_re), (terms.imag, shells_im)):
                    out.extend(np.add.reduceat(x / table.norms[a:b], starts).tolist())
            shell = complex(shells_re[deg], shells_im[deg])
            if not cmath.isfinite(shell):
                raise NonFiniteError("series sum overflowed")
            shells.append(shell)
            running += shell
            if deg >= 2 and abs(shells[-1]) < SHELL_TOL * abs(running) \
                    and abs(shells[-2]) < SHELL_TOL * abs(running):
                cap_used, converged = deg, True
                break
    tail = 0.0
    if len(shells) < 2:     # one shell bounds nothing, unless every later shell is 0
        tail = math.inf if any(v) else 0.0
    elif abs(shells[-1]) > 0.0:
        prev, last = abs(shells[-2]), abs(shells[-1])
        ratio = last / prev if prev > 0.0 else math.inf
        if ratio < 1.0:
            tail = last * ratio / (1.0 - ratio)
        elif last > SHELL_TOL * max(abs(running), 1e-300):
            raise ConvergenceError(
                "series shells are not decaying; point too close to the boundary")
        else:
            tail = last
    value = _fsum(shells_re[:len(shells)], shells_im[:len(shells)])
    return SeriesValue(value=value, tail_bound=tail, cap_used=cap_used,
                       shells=shells, converged=converged)


# ---------------------------------------------------------------------------
# reproducing-property integral


# Korobov generators z (z_1 = 1) of the 2048-point rank-1 lattice per
# dimension; a smaller power-of-2 N_ANG uses z mod N_ANG, the embedded
# lattice.  From an exact search, the smallest degree of a mode a >= 0 that
# aliases onto a bin of degree <= 2 (<= 4 for d = 2) is, at N = 2048/512/256,
# 293/74/37 for d = 2, 128/32/16 for d = 3 and 21/6/5 for d = 4 (g = 1111).
LATTICE_GENERATORS = {1: (1,), 2: (1, 586), 3: (1, 684, 912), 4: (1, 1111, 1425, 71)}


def reproducing_integral(K, spec: DomainSpec, indices, p):
    """({idx: value}, {idx: err}) of int K(p; q-bar) q^idx dV(q), K a ``Kernel``
    (a function of u_j = p_j q-bar_j): c ||z^idx||^2 p^idx, c from
    ``_cauchy_coefficients``, the norm and its error from ``_monomial_norms``
    on the requested indices alone.  err: c's torus estimate and floor times
    the norm, plus |c| times the norm's error, times |p^idx|.  Up to 4
    coordinates.
    Repeated indices count once; negative ones raise ``SpecError``; no
    indices return ({}, {}) without calling K."""
    d = spec.dim
    if d > 4:
        raise IntegrationError("Cauchy lattice supported up to 4 coordinates")
    if len(p) != d or K.dim != d:
        raise SpecError("point or kernel arity mismatch")
    indices = list(dict.fromkeys(tuple(int(i) for i in idx) for idx in indices))
    if any(len(idx) != d or min(idx) < 0 for idx in indices):
        raise SpecError(f"reproducing indices need {d} non-negative exponents")
    if not indices:
        return {}, {}
    norms, norm_errs = (a.tolist() for a in _monomial_norms(spec, np.array(indices)))
    coeffs = _cauchy_coefficients(K, spec, dict(zip(indices, norms)))
    vals, errs = {}, {}
    for idx, norm, norm_err in zip(indices, norms, norm_errs):
        c, angular, floor = coeffs[idx]
        target = math.prod(complex(pj) ** e for pj, e in zip(p, idx))
        vals[idx] = c * norm * target
        errs[idx] = ((angular + floor) * norm + abs(c) * norm_err) * abs(target)
    return vals, errs


@lru_cache(maxsize=64)
def _diagonal_crossing(spec: DomainSpec) -> float:
    """Largest v found inside on the diagonal shadow v (1, ..., 1), to 2^-32:
    the base confines v to (0, 1) and lifts only shrink it, and membership
    is monotone, so each ``shadow_contains`` panel narrows it to one cell."""
    lo, hi = 0.0, 1.0
    for _ in range(4):
        v = np.linspace(lo, hi, 257)
        k = int(np.argmin(shadow_contains(spec, np.repeat(v[:, None], spec.dim, axis=1))))
        lo, hi = v[k - 1], v[k]
    return float(lo)


def _cauchy_coefficients(K, spec: DomainSpec, norms: dict) -> dict:
    """{idx: (c, |c(r) - c(r/2)|, floor)} for every idx of ``norms`` (idx ->
    ||z^idx||^2): c(r), K's Taylor coefficient at u^idx, is the mean of
    K(e^(i theta), r) e^(-i idx.theta) / r^|idx|, on the torus |u_j| = r, over
    theta_i = 2 pi ((i z) mod N_ANG) / N_ANG, exact but for modes of the alias
    degree or more.  r = (s b)^2, b where the diagonal ray leaves the domain;
    s = 1/2 halves, per index, while |c(r) - c(r/2)| ||z^idx||^2 > TORUS_TOL
    and that estimate falls, at most TORUS_LEVELS tori of one K call each;
    floor = ROUND_OFF mean|K| / r^|idx|.  Two indices of one lattice residue
    raise IntegrationError before any call; a non-finite torus NonFiniteError."""
    z, i = np.array(LATTICE_GENERATORS[spec.dim]) % N_ANG, np.arange(N_ANG)
    residues = {idx: sum(e * zc for e, zc in zip(idx, z.tolist())) % N_ANG for idx in norms}
    if len(set(residues.values())) < len(residues):
        raise IntegrationError("two requested indices alias on the angular lattice; raise N_ANG")
    # residues index one table of roots of unity: each phase is exact up to it
    roots = np.exp((2j * math.pi / N_ANG) * i)
    lattice = roots[np.outer(z, i) % N_ANG]
    tori, out = [], {}
    for idx, norm in norms.items():
        phases = np.conj(roots[i * residues[idx] % N_ANG])
        for level in range(TORUS_LEVELS):
            if level == len(tori):
                radii = _diagonal_crossing(spec) * 0.25 ** (level + 1) * np.array([1.0, 0.5])
                with np.errstate(all="ignore"):     # K raises on a non-finite value
                    kv = np.broadcast_to(K(tuple(lattice), (radii[:, None],) * spec.dim),
                                         (2, N_ANG))
                tori.append((radii, kv, float(np.abs(kv[0]).mean())))
            radii, kv, size = tori[level]
            c, c_half = (kv @ phases) / N_ANG / radii ** sum(idx)
            # round-off grows as r^-|idx|: once the estimate grows, the last torus stays
            if idx in out and abs(c - c_half) >= out[idx][1]:
                break
            out[idx] = (complex(c), abs(c - c_half), ROUND_OFF * size / radii[0] ** sum(idx))
            if abs(c - c_half) * norm <= TORUS_TOL:
                break
    return out


def reproducing_check(K, spec: DomainSpec, indices, p) -> dict:
    """{idx: relative residual |int K(p; q-bar) q^idx dV - p^idx| /
    max(|p^idx|, 1e-6)} for every index in ``indices``, the integrals from
    one ``reproducing_integral`` call (so up to 4 coordinates)."""
    p = tuple(complex(c) for c in p)
    if not contains(spec, p):
        raise SpecError("reproducing check needs an interior point")
    vals = reproducing_integral(K, spec, indices, p)[0]
    targets = {idx: math.prod(pj ** e for pj, e in zip(p, idx)) for idx in vals}
    return {idx: abs(vals[idx] - t) / max(abs(t), 1e-6) for idx, t in targets.items()}
