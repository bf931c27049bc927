"""Base domains and their disk/plane-fibered lifts.

A :class:`DomainSpec` is a base domain (generalized complex ellipsoid or
polydisk) plus an ordered stack of lift steps.  A U-step adjoins a block of
w coordinates with the designated "star" coordinates rescaled by
(1-||w||^2)^{weight/2} and the constraint ||w|| < 1; a V-step rescales them
by exp(weight*||w||^2/2) with w ranging over all of C^k.  After each step
the new w coordinates join the star set, so later steps may weight them.

All constructible domains are complete Reinhardt: membership depends only
on the vector of squared moduli (the "shadow"), and every coordinate may be
shrunk independently without leaving the domain.

One rule, ``lift_factor``, writes the lift substitution: membership, the
defining function, the slice maps, the exact sampler and the slice
kernels' scales use it, for one point and for a panel alike.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np

KIND_ELLIPSOID = "GeneralizedComplexEllipsoid"
KIND_POLYDISK = "Polydisk"

MAX_DIM = 1024              # coordinates of one domain, all lifts applied
SAMPLE_CHUNK = 1 << 12      # rows drawn and tested at a time
SAMPLE_MAX_DRAWS = 10 ** 7


class SpecError(ValueError):
    """Malformed domain description or mismatched point."""


class SingularEvaluationError(ArithmeticError):
    """Defining function evaluated where a U-step denominator vanishes."""


class SamplingError(RuntimeError):
    """Sampling cannot give the requested interior points."""


@dataclass(frozen=True)
class BaseDomain:
    kind: str
    n_star: int
    m_passive: int
    exponents: tuple = ()

    def __post_init__(self):
        if self.kind not in (KIND_ELLIPSOID, KIND_POLYDISK):
            raise SpecError(f"unknown base kind {self.kind!r}")
        if self.n_star < 0 or self.m_passive < 0 or self.dim < 1:
            raise SpecError("base domain needs at least one coordinate")
        object.__setattr__(self, "exponents", tuple(float(p) for p in self.exponents))
        if self.kind == KIND_ELLIPSOID:
            if len(self.exponents) != self.dim:
                raise SpecError("ellipsoid needs one exponent per coordinate")
            if not all(math.isfinite(p) and p > 0 for p in self.exponents):
                raise SpecError("ellipsoid exponents must be positive and finite")
            for j in range(self.n_star, self.dim):
                if self.exponents[j] != 1.0:
                    raise SpecError("passive coordinates must carry exponent 1")
        elif self.exponents:
            raise SpecError("polydisk takes no exponents")

    @property
    def dim(self) -> int:
        return self.n_star + self.m_passive


@dataclass(frozen=True)
class LiftStep:
    kind: str
    weights: tuple
    w_dim: int = 1

    def __post_init__(self):
        if self.kind not in ("U", "V"):
            raise SpecError(f"lift kind must be 'U' or 'V', got {self.kind!r}")
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        if not all(math.isfinite(w) and w >= 0 for w in self.weights):
            raise SpecError("lift weights must be nonnegative and finite")
        if not any(w > 0 for w in self.weights):
            raise SpecError("a lift needs at least one positive weight")
        if self.w_dim < 1:
            raise SpecError("lift w-block needs at least one coordinate")


@dataclass(frozen=True)
class DomainSpec:
    base: BaseDomain
    lifts: tuple = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "lifts", tuple(self.lifts))
        if not all(isinstance(step, LiftStep) for step in self.lifts):
            raise SpecError("lifts must be LiftStep instances")
        # checked before the layout lists the coordinates one by one
        dim = self.base.dim + sum(step.w_dim for step in self.lifts)
        if dim > MAX_DIM:
            raise SpecError(f"domain has {dim} coordinates (at most {MAX_DIM})")
        # the layout, once; plain attributes, so ==, hash and JSON see only
        # the fields
        stars, start = tuple(range(self.base.n_star)), self.base.dim
        star_sets, w_slices, v_w = [stars], [], []
        for i, step in enumerate(self.lifts):
            if len(step.weights) != len(stars):
                raise SpecError(
                    f"lift {i} carries {len(step.weights)} weights but the "
                    f"star set has {len(stars)} coordinates at that stage")
            block = tuple(range(start, start + step.w_dim))
            w_slices.append(slice(start, start + step.w_dim))
            if step.kind == "V":
                v_w.extend(block)
            stars += block
            star_sets.append(stars)
            start += step.w_dim
        object.__setattr__(self, "_star_sets", tuple(star_sets))
        object.__setattr__(self, "_w_slices", tuple(w_slices))
        object.__setattr__(self, "_v_w", tuple(v_w))
        object.__setattr__(self, "_dim", start)

    @property
    def dim(self) -> int:
        return self._dim

    def w_slice(self, i: int) -> slice:
        """Column range of lift i's w block in the global layout."""
        return self._w_slices[i]

    def star_indices(self, upto: int | None = None) -> list:
        """Global indices of the star coordinates before lift ``upto``
        (all lifts applied when omitted)."""
        return list(self._star_sets[len(self.lifts) if upto is None else upto])

    def split(self, p):
        """Partition a point into (z, z', w-blocks)."""
        p = tuple(p)
        if len(p) != self.dim:
            raise SpecError(f"point has {len(p)} coordinates, spec has {self.dim}")
        z = p[: self.base.n_star]
        zp = p[self.base.n_star: self.base.dim]
        return z, zp, [p[sl] for sl in self._w_slices]

    def v_w_indices(self) -> list:
        """Global indices of w coordinates introduced by V-steps (unbounded)."""
        return list(self._v_w)


# ---------------------------------------------------------------------------
# the lift substitution, in generic arithmetic: a squared modulus is a number
# (one point; np.float64, so overflow gives inf as on arrays) or an array (a
# panel, one entry per row), and one code path serves both


def lift_factor(kind: str, a: float, t, x=None):
    """Factor of the lift substitution with weight a at squared w-norm t:
    (1-t)^(-a) under a U-step, e^(a t) under a V-step; a squared modulus
    takes it at its weight, a coordinate at half its weight.  Alone it
    rounds as the lifted kernels always have; with x it is x times the
    factor, under a U-step x / (1-t)^a by numpy's power, which rounds a
    number as it rounds an array entry."""
    if kind == "U":
        return (1.0 - t) ** -a if x is None else x / np.power(1.0 - t, a)
    f = np.exp(a * t)
    return f if x is None else x * f


def slice_scales(step: LiftStep, t):
    """Coordinate scales of the slice map of ``step`` at squared w-norm t,
    one per star coordinate (None for weight 0), and the squared Jacobian
    kernel factor, the lift factor at the weight sum."""
    if step.kind == "U" and np.any(np.asarray(t) >= 1.0):
        raise SingularEvaluationError("slice needs ||w||^2 < 1 under a U-step")
    scales = [lift_factor(step.kind, a / 2.0, t) if a else None
              for a in step.weights]
    return scales, lift_factor(step.kind, sum(step.weights), t)


def _unwind(spec: DomainSpec, x):
    """Undo the lift substitutions on the squared moduli x, outermost lift
    first.  Returns (x, r, valid): the unwound squared moduli, the base
    defining function on them, and False where a U-step has ||w||^2 >= 1
    (x and r are then meaningless)."""
    x = list(x)
    valid = np.True_
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(len(spec.lifts) - 1, -1, -1):
            step = spec.lifts[i]
            t = sum(x[spec._w_slices[i]])
            if step.kind == "U":
                valid = valid & (t < 1.0)
                t = np.where(valid, t, 0.0)
            for j, a in zip(spec._star_sets[i], step.weights):
                if a:
                    x[j] = lift_factor(step.kind, a, t, x[j])
        base = spec.base
        if base.kind == KIND_ELLIPSOID:
            r = sum(np.power(xj, pj) for xj, pj in zip(x, base.exponents))
        else:
            r = functools.reduce(np.maximum, x[: base.dim])
        return x, r - 1.0, valid


def _inside(spec: DomainSpec, x):
    """Membership of the squared moduli x: each finite and >= 0, every
    U-step ||w|| < 1 and r < 0."""
    _, r, valid = _unwind(spec, x)
    inside = valid & (r < 0.0)
    for c in x:
        inside = inside & (c >= 0.0) & (c < np.inf)
    return inside


def _columns(spec: DomainSpec, X):
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != spec.dim:
        raise SpecError("shadow dimension mismatch")
    return list(X.T)


def _squared_moduli(spec: DomainSpec, p) -> list:
    """Squared moduli of a point's coordinates, or of coordinate columns:
    Python's abs of a complex is libm's hypot, squared by one product."""
    p = tuple(p)
    if len(p) != spec.dim:
        raise SpecError(f"point has {len(p)} coordinates, spec has {spec.dim}")
    return [a * a for a in (np.hypot(np.real(c), np.imag(c)) for c in p)]


def shadow_contains(spec: DomainSpec, X: np.ndarray) -> np.ndarray:
    """Vectorised membership of shadow points X (shape (N, dim), entries
    |coord|^2 >= 0)."""
    return _inside(spec, _columns(spec, X))


def contains(spec: DomainSpec, p):
    """Strict membership in the open domain.  A point gives a bool,
    coordinate columns a boolean array with one entry per row."""
    inside = _inside(spec, _squared_moduli(spec, p))
    return bool(inside) if np.ndim(inside) == 0 else inside


def unwound_point(spec: DomainSpec, p):
    """One point's squared moduli with the lift substitutions undone, its
    defining function and whether every U-step has ||w|| < 1: (x, r, valid).
    Coordinate columns give one entry per row."""
    return _unwind(spec, _squared_moduli(spec, p))


def defining_function(spec: DomainSpec, p):
    """Defining function r(p) with r < 0 inside; the composition of the
    base defining function with the lift substitutions.  A point gives a
    float, coordinate columns an array with one value per row."""
    _, r, valid = unwound_point(spec, p)
    if not np.all(valid):
        raise SingularEvaluationError("defining function singular: ||w|| >= 1 under a U-step")
    return float(r) if np.ndim(r) == 0 else r


def slice_map(spec: DomainSpec, lift_index: int, p):
    """Biholomorphism from the slice of lift ``lift_index`` (its w fixed)
    onto the domain one lift down: applies f_alpha / g_gamma and drops the
    w block."""
    if not 0 <= lift_index < len(spec.lifts):
        raise SpecError("lift index out of range")
    p = tuple(complex(c) for c in p)
    sl = spec.w_slice(lift_index)
    if len(p) != sl.stop:
        raise SpecError(f"point has {len(p)} coordinates, slice expects {sl.stop}")
    scales, _ = slice_scales(spec.lifts[lift_index],
                             sum(abs(c) ** 2 for c in p[sl]))
    out = list(p[: sl.start])
    for j, s in zip(spec._star_sets[lift_index], scales):
        if s is not None:
            out[j] = out[j] * s
    return tuple(out)


# ---------------------------------------------------------------------------
# sampling


@dataclass
class SampleResult:
    points: np.ndarray          # (count, dim) complex
    acceptance_ratio: float     # points kept / rows drawn
    volume_estimate: float
    draws: int


def _philox(seed: int) -> np.random.Generator:
    # counter-based, keyed by the seed: one fixed stream per seed
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


def chain_volume(spec: DomainSpec) -> float:
    """Volume of the domain in closed form: the base's
    pi^n prod Gamma(1+1/p_j) / Gamma(1+sum 1/p_j) (pi^n for a polydisk),
    times per lift with weight sum A and w-block size k
    pi^k Gamma(A+1) / Gamma(A+k+1) under a U-step, pi^k / A^k under a V-step."""
    q = [1.0 / p for p in spec.base.exponents]
    log_v = (spec.dim * math.log(math.pi) + sum(math.lgamma(1.0 + a) for a in q)
             - math.lgamma(1.0 + sum(q)))
    for step in spec.lifts:
        A, k = sum(step.weights), step.w_dim
        log_v += (math.lgamma(A + 1.0) - math.lgamma(A + k + 1.0) if step.kind == "U"
                  else -k * math.log(A))
    return math.exp(log_v)


def _chain_shadow(spec: DomainSpec, rng: np.random.Generator, n: int) -> np.ndarray:
    """n rows of squared moduli, uniform on the domain's shadow: the base,
    then per lift, innermost first, t = ||w||^2 from Beta(k, A+1) (U) or
    Gamma(k, scale 1/A) (V) split by Dirichlet(1, ..., 1).  At fixed w a
    lift's slice is the domain one lift down scaled by the lift factor at
    -a, so each acted squared modulus is multiplied by (1-t)^a (U) or
    e^(-a t) (V)."""
    base, x = spec.base, np.empty((n, spec.dim))
    if base.kind == KIND_ELLIPSOID:
        # y ~ Dirichlet(1/p_1, ..., 1/p_n, 1) and x_j = y_j^(1/p_j)
        q = 1.0 / np.array(base.exponents)
        x[:, :base.dim] = rng.dirichlet(np.append(q, 1.0), n)[:, :-1] ** q
    else:
        x[:, :base.dim] = rng.random((n, base.dim))
    for i, step in enumerate(spec.lifts):
        A, k = sum(step.weights), step.w_dim
        t = rng.beta(k, A + 1.0, n) if step.kind == "U" else rng.gamma(k, 1.0 / A, n)
        split = rng.dirichlet(np.ones(k), n) if k > 1 else 1.0
        for j, a in zip(spec._star_sets[i], step.weights):
            if a:
                x[:, j] *= lift_factor(step.kind, -a, t)
        x[:, spec._w_slices[i]] = t[:, None] * split
    return x


def sample_interior(spec: DomainSpec, count: int, seed: int = 0,
                    box_radius: float | None = None) -> SampleResult:
    """Seed-deterministic uniform interior points.

    Points uniform on a complete Reinhardt domain are c = sqrt(x) e^{2 pi i
    theta} with squared moduli x uniform on its shadow and one uniform
    angle per coordinate.  Each chunk draws x, then the angles, from one
    Philox stream per seed and keeps the rows ``contains`` accepts.  By
    default x comes from ``_chain_shadow``, at most SAMPLE_CHUNK rows and
    at most the missing count per chunk; nearly every row is kept, and
    ``volume_estimate`` is ``chain_volume``.  ``box_radius`` b cuts the
    sample to the square [-b, b]^2 per coordinate (probe panels well
    inside the domain): chunks of SAMPLE_CHUNK rows draw x uniform on
    [0, R_j^2), R_j = min(1, b sqrt 2) (b sqrt 2 for a V-step w), only rows
    ``shadow_contains`` accepts get angles, the re-check drops rows outside
    the square, and the acceptance ratio times prod(pi R_j^2) estimates
    the cut volume.  ``draws`` counts the rows drawn.  SamplingError for a
    count above SAMPLE_MAX_DRAWS, before any draw, or when the chunks that
    could hold SAMPLE_MAX_DRAWS rows fall short (a V-step whose t
    overflows); ValueError for a seed outside [0, 2**64), or a box_radius
    whose squared proposal radius overflows.
    """
    if count < 1:
        raise SpecError("sample count must be at least 1")
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    if box_radius is not None and not (math.isfinite(box_radius) and box_radius > 0):
        raise ValueError("box_radius must be finite and positive")
    if count > SAMPLE_MAX_DRAWS:
        raise SamplingError(f"count {count} exceeds the {SAMPLE_MAX_DRAWS} draws "
                            "a sample may take")
    rng = _philox(seed)
    accepted, n_total, draws, chunks = [], 0, 0, 0
    if box_radius is None:
        def propose():
            n = min(count - n_total, SAMPLE_CHUNK)
            return _chain_shadow(spec, rng, n), n
    else:
        # the disk around the square [-b, b]^2, whose corners reach b sqrt 2
        cap = float(box_radius) * math.sqrt(2.0)
        with np.errstate(over="ignore"):
            rad2 = np.square([cap if j in spec.v_w_indices() else min(1.0, cap)
                              for j in range(spec.dim)])
        if not np.isfinite(rad2).all():
            raise ValueError(f"box_radius must be finite and positive, and {box_radius!r} "
                             "makes the proposal disk's squared radius overflow")
        # one reused chunk buffer, so peak memory does not follow the heap layout
        buf = np.empty((SAMPLE_CHUNK, spec.dim))

        def propose():
            np.multiply(rng.random(out=buf), rad2, out=buf)
            return buf[shadow_contains(spec, buf)], SAMPLE_CHUNK
    while n_total < count:
        if chunks * SAMPLE_CHUNK >= SAMPLE_MAX_DRAWS:
            raise SamplingError(
                f"only {n_total}/{count} interior points after {draws} draws")
        x, n = propose()
        c = np.sqrt(x) * np.exp(2j * np.pi * rng.random(x.shape))
        keep = contains(spec, tuple(c.T))
        if box_radius is not None:
            keep &= (np.maximum(abs(c.real), abs(c.imag)) <= box_radius).all(axis=1)
        accepted.append(c[keep])
        n_total += len(accepted[-1])
        draws, chunks = draws + n, chunks + 1
    ratio = n_total / draws
    volume = chain_volume(spec) if box_radius is None else ratio * float(np.prod(np.pi * rad2))
    return SampleResult(np.concatenate(accepted)[:count], ratio, volume, draws)


def star_shape_check(spec, trials: int = 128, seed: int = 7) -> bool:
    """Sample interior points and random scalings |lambda_j| <= 1 of the
    star coordinates; True iff every scaled point stays inside.

    Accepts any object exposing ``dim``, ``star_indices()``, ``contains``
    and ``sample(count, seed)`` in place of a DomainSpec (test fixtures);
    its ``contains`` receives the coordinate columns of all scaled points
    and returns one entry per row.
    """
    if trials < 1:
        raise SpecError("star_shape_check needs at least one trial")
    if isinstance(spec, DomainSpec):
        pts = sample_interior(spec, trials, seed).points
        member = functools.partial(contains, spec)
    else:
        pts = np.asarray(spec.sample(trials, seed))
        member = spec.contains
    stars = spec.star_indices()
    rng = _philox((seed + 1) % (1 << 64))   # a Philox key for every seed
    u = rng.uniform(0.0, 1.0, size=(len(pts), len(stars)))
    th = rng.uniform(0.0, 2.0 * math.pi, size=(len(pts), len(stars)))
    Q = np.array(pts, dtype=complex)
    Q[:, stars] *= np.sqrt(u) * np.exp(1j * th)
    return bool(np.all(member(tuple(Q.T))))


# ---------------------------------------------------------------------------
# JSON wire format


def spec_to_dict(spec: DomainSpec) -> dict:
    base = {"kind": spec.base.kind, "n_star": spec.base.n_star,
            "m_passive": spec.base.m_passive}
    if spec.base.kind == KIND_ELLIPSOID:
        base["exponents"] = list(spec.base.exponents)
    return {"base": base,
            "lifts": [{"kind": s.kind, "weights": list(s.weights), "w_dim": s.w_dim}
                      for s in spec.lifts]}


def _reject_unknown(d, allowed: set, where: str):
    if not isinstance(d, dict):
        raise SpecError(f"{where} must be a JSON object")
    extra = set(d) - allowed
    if extra:
        raise SpecError(f"unknown field(s) {sorted(extra)} in {where}")


_REQUIRED = object()


def _field(d: dict, key: str, where: str, default=_REQUIRED):
    if key in d:
        return d[key]
    if default is _REQUIRED:
        raise SpecError(f"{where} is missing field '{key}'")
    return default


def _int_field(d: dict, key: str, where: str) -> int:
    v = _field(d, key, where)
    if isinstance(v, bool) or not isinstance(v, int):
        raise SpecError(f"{where} field '{key}' must be an integer")
    return v


def _numbers_field(d: dict, key: str, where: str, default=_REQUIRED) -> tuple:
    v = _field(d, key, where, default)
    if not isinstance(v, list) or any(
            isinstance(x, bool) or not isinstance(x, (int, float)) for x in v):
        raise SpecError(f"{where} field '{key}' must be a list of numbers")
    try:
        return tuple(float(x) for x in v)
    except OverflowError:
        raise SpecError(f"{where} field '{key}' is out of range") from None


def spec_from_dict(data: dict) -> DomainSpec:
    """DomainSpec from its JSON form; SpecError for any malformed input."""
    _reject_unknown(data, {"base", "lifts"}, "domain spec")
    b = _field(data, "base", "domain spec")
    _reject_unknown(b, {"kind", "exponents", "n_star", "m_passive"}, "base")
    base = BaseDomain(kind=_field(b, "kind", "base"),
                      n_star=_int_field(b, "n_star", "base"),
                      m_passive=_int_field(b, "m_passive", "base"),
                      exponents=_numbers_field(b, "exponents", "base", []))
    items = _field(data, "lifts", "domain spec", default=[])
    if not isinstance(items, list):
        raise SpecError("domain spec field 'lifts' must be a list")
    lifts = []
    for i, item in enumerate(items):
        where = f"lift {i}"
        _reject_unknown(item, {"kind", "weights", "w_dim"}, where)
        lifts.append(LiftStep(kind=_field(item, "kind", where),
                              weights=_numbers_field(item, "weights", where),
                              w_dim=_int_field(item, "w_dim", where)))
    return DomainSpec(base, tuple(lifts))


def load_spec(path) -> DomainSpec:
    """The spec in a JSON file, read on every call and parsed once per text
    (a rewritten file gives its new spec); invalid JSON raises SpecError
    naming the path."""
    with open(path, "r", encoding="utf-8") as f:
        text = f.read()
    try:
        return _parse_spec(text)
    except json.JSONDecodeError as e:
        raise SpecError(f"invalid JSON in {path}: {e}") from None


@functools.lru_cache(maxsize=64)
def _parse_spec(text: str) -> DomainSpec:
    return spec_from_dict(json.loads(text))
