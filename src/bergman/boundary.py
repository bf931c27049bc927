"""Boundary stratification, admissible approach paths and weighted limits.

The boundary of a single U-step domain splits into four parts: smooth
strongly pseudoconvex points (S1), smooth points with degenerate star
gradient (S2), and the two ||w|| = 1 faces, off (S3) or on (S4) the base
boundary.  Weighted diagonal kernel values converge along admissible paths
with the stratum's weight:

  S2: (-r)^(n+m+1)      S3: (1-|w|^2)^(2+sum(alpha))      S4: their product

and for a single V-step domain at a degenerate-gradient point the weight is
(-rho)^(n+m+1) with rho the composed defining function.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .domains import (KIND_ELLIPSOID, DomainSpec, SpecError, contains,
                      defining_function, unwound_point)
from .jets import NonFiniteError

PROBE_LEVELS = 12       # path levels t = 2^-1 ... 2^-PROBE_LEVELS


class BoundaryError(ValueError):
    """Point/stratum/weight combination the probes cannot honor."""


class Stratum(enum.Enum):
    S1 = "S1"
    S2 = "S2"
    S3 = "S3"
    S4 = "S4"


def _single_lift(spec: DomainSpec, kinds=("U",)):
    if len(spec.lifts) != 1 or spec.lifts[0].kind not in kinds or spec.lifts[0].w_dim != 1:
        raise BoundaryError("boundary probes need a single scalar-w lift")
    return spec.lifts[0]


def stratify_point(spec: DomainSpec, p) -> Stratum:
    """Classify a boundary point of a single U-step domain: on the boundary
    means |r| <= 1e-10, a degenerate star gradient has norm below 1e-8."""
    _single_lift(spec)
    p = tuple(complex(c) for c in p)
    z, zp, (w,) = spec.split(p)
    aw = abs(w[0])
    if abs(aw - 1.0) <= 1e-8:
        if any(abs(c) > 1e-8 for c in z):
            raise BoundaryError("|w| = 1 boundary points require z = 0")
        r0 = defining_function(spec, (0.0,) * len(z) + zp + (0.0,))
        if r0 < -1e-10:
            return Stratum.S3
        if r0 <= 1e-10:
            return Stratum.S4
        raise BoundaryError("point lies outside the domain closure")
    if aw > 1.0:
        raise BoundaryError("point lies outside the domain closure")
    r = defining_function(spec, p)
    if abs(r) > 1e-10:
        raise BoundaryError(f"point is not on the boundary (r = {r:.3e})")
    g, _ = _stencil(spec, p, spec.star_indices(), 1e-6)
    return Stratum.S2 if float(np.linalg.norm(g)) < 1e-8 else Stratum.S1


# ---------------------------------------------------------------------------
# approach regions and default paths


def _region_w2(spec: DomainSpec):
    if spec.base.kind != KIND_ELLIPSOID:
        raise BoundaryError("boundary probes need an ellipsoid base")
    n = spec.base.n_star

    def ok(p):
        x, r, valid = unwound_point(spec, p)
        lhs = 0.0
        for c, xj, pj in zip(p[:n], x, spec.base.exponents):
            rj = np.where(xj > 0, pj * xj ** (pj - 1.0), pj if pj == 1.0 else 0.0)
            lhs += (abs(c) ** 2 * rj) ** 0.5
        return valid & (lhs < -r)

    return ok


def _region_w3(spec: DomainSpec, p_exps):
    def ok(p):
        z, _, (w,) = spec.split(p)
        dw = 1.0 - abs(w[0]) ** 2
        return (dw > 0.0) & np.all([abs(c) ** 2 / dw ** pj < 1.0
                                    for c, pj in zip(z, p_exps)], axis=0)

    return ok


def _region_ws_v(spec: DomainSpec, s_exps):
    step = spec.lifts[0]

    def ok(p):
        z, zp, (w,) = spec.split(p)
        t = abs(w[0]) ** 2
        lhs = sum(np.exp(g * t) * abs(c) ** (2.0 * s)
                  for c, g, s in zip(z, step.weights, s_exps))
        lhs += sum(abs(c) ** 2 for c in zp)
        return lhs < 1.0

    return ok


@dataclass
class ApproachPath:
    """One-parameter family t -> point approaching a boundary target inside
    a declared admissible region, made at the levels ``ts`` = 2^-1 ...
    2^-PROBE_LEVELS and kept as ``panel``, one (dim,) complex row per level.
    ``point_fn`` takes one t, ``region_fn`` the coordinate columns of a
    panel of points.  Making a path checks its levels: one membership pass,
    one region call on the rows inside, one pass that each row nears the
    target; the first failing row raises, naming its t."""

    spec: DomainSpec
    target: tuple
    stratum: Stratum
    point_fn: object
    region_fn: object

    def __post_init__(self):
        self.ts = ts = [2.0 ** (-k) for k in range(1, PROBE_LEVELS + 1)]
        dim = self.spec.dim
        pts = [tuple(complex(c) for c in self.point_fn(t)) for t in ts]
        n = next((k for k, p in enumerate(pts) if len(p) != dim), len(pts))
        P = np.array(pts[:n], dtype=complex).reshape(n, dim)
        inside = contains(self.spec, P.T)
        n_in = n if inside.all() else int(np.argmin(inside))
        with np.errstate(all="ignore"):
            region = np.broadcast_to(self.region_fn(tuple(P[:n_in].T)), (n_in,))
        d = np.linalg.norm(P[:n_in] - np.array(self.target, dtype=complex), axis=1)
        away = np.r_[False, d[1:] > d[:-1] + 1e-12][:n_in]
        fail = np.select([~region, away], ["path left the approach region at t = {t}",
                                           "path does not approach the target"], "")
        for k in np.flatnonzero(fail != "")[:1]:
            raise BoundaryError(fail[k].format(t=ts[k]))
        if n_in < n:
            raise BoundaryError(f"path left the domain at t = {ts[n_in]}")
        if n < len(pts):
            raise SpecError(f"point has {len(pts[n])} coordinates, spec has {dim}")
        self.panel = P


def default_path(spec: DomainSpec, target, stratum: Stratum) -> ApproachPath:
    """Documented default approach path for the given stratum, along the
    direction (1, ..., 1)/sqrt(n) of the star block, checked at its
    PROBE_LEVELS levels: z_j = c_j t t^(e_j), z' scaled by 1 - t/2 except
    on S3, w fixed at w0 on S2 and sqrt(1-t) w0/|w0| on S3 and S4.

    U-step domains: S2 shrinks the star block like t^2 at fixed w, S3 sends
    |w|^2 to 1 like 1-t with |z_j| = 0.5 t^(1+p_j/2), p_j = 2 alpha_j, S4
    combines both; the S2 region takes exponent q = 1/2.  For a V-step
    domain pass S2: the path approaches the degenerate-gradient point
    (0, z0', w0) inside the exhaustion region with exponents s_j = 1/2,
    from a z scale 0.25 exp(-max_j gamma_j |w0|^2) that keeps the first
    level inside that region.  An S2 target lies on the boundary:
    |r| <= 1e-10, the tolerance of ``stratify_point``.
    """
    target = tuple(complex(c) for c in target)
    step = _single_lift(spec, kinds=("U", "V"))
    z0, zp0, (w0,) = spec.split(target)
    n = len(z0)
    d = 1.0 / math.sqrt(n)
    if stratum == Stratum.S2:
        _, r, valid = unwound_point(spec, target)
        if not (valid and abs(r) <= 1e-10):
            raise BoundaryError("S2 targets lie on the boundary (|r| <= 1e-10)")
    if step.kind == "V":
        if stratum != Stratum.S2:
            raise BoundaryError("V-step probes classify their targets as S2 "
                                "(degenerate star gradient)")
        scale = 0.25 * math.exp(-max(step.weights) * abs(w0[0]) ** 2)
        coef, exps = [scale * d] * n, [1.0] * n     # t^(1/s_j), s_j = 1/2
        region = _region_ws_v(spec, (0.5,) * n)
    elif stratum == Stratum.S2:
        aw2 = abs(w0[0]) ** 2
        coef = [d * (1.0 - aw2) ** (a / 2.0) for a in step.weights]
        exps = [1.0] * n
        region = _region_w2(spec)
    elif stratum in (Stratum.S3, Stratum.S4):
        if abs(abs(w0[0]) - 1.0) > 1e-8:
            raise BoundaryError("S3 and S4 targets lie on the |w| = 1 face")
        p_exps = tuple(2.0 * a for a in step.weights)
        if any(pj <= a for pj, a in zip(p_exps, step.weights)):
            raise BoundaryError("S3 and S4 probes need every lift weight positive "
                                "(region exponent 2 alpha_j > alpha_j)")
        coef, exps = [0.5 * d] * n, [pj / 2.0 for pj in p_exps]
        region = w3 = _region_w3(spec, p_exps)
        if stratum == Stratum.S4:
            w2 = _region_w2(spec)
            region = lambda p: w2(p) & w3(p)
    else:
        raise BoundaryError("S1 points are smooth strongly pseudoconvex; no "
                            "weighted probe is defined there")

    def point_fn(t):
        shrink = 1.0 if stratum == Stratum.S3 else 1.0 - t / 2.0
        w = w0[0] if stratum == Stratum.S2 else math.sqrt(1.0 - t) * (w0[0] / abs(w0[0]))
        return (tuple(c * t * t ** e for c, e in zip(coef, exps))
                + tuple(shrink * c for c in zp0) + (w,))

    return ApproachPath(spec, target, stratum, point_fn, region)


# ---------------------------------------------------------------------------
# weighted limits


WEIGHT_NAMES = ("r", "w", "product", "rho")

STRATUM_WEIGHT = {Stratum.S2: "r", Stratum.S3: "w", Stratum.S4: "product"}


def make_weight(spec: DomainSpec, name: str):
    """Named weight factory on coordinate columns, one value per row;
    exponents derive from the spec layout."""
    n = spec.base.n_star
    m = spec.base.m_passive
    if name in ("r", "rho"):
        e = n + m + 1

        def weight(p):
            return (-defining_function(spec, p)) ** e

        return weight
    if name == "w":
        step = _single_lift(spec)
        e = 2.0 + sum(step.weights)

        def weight(p):
            _, _, (w,) = spec.split(p)
            return (1.0 - abs(w[0]) ** 2) ** e

        return weight
    if name == "product":
        wr = make_weight(spec, "r")
        ww = make_weight(spec, "w")
        return lambda p: wr(p) * ww(p)
    raise BoundaryError(f"unknown weight {name!r} (choose from {WEIGHT_NAMES})")


def expected_weight(spec: DomainSpec, stratum: Stratum) -> str:
    if spec.lifts and spec.lifts[0].kind == "V":
        return "rho"
    return STRATUM_WEIGHT.get(stratum, "r")


@dataclass
class ProbeReport:
    ts: list
    kernel_values: list
    weighted: list
    extrapolated: list
    limit: float
    spread: float
    r_squared: float
    used_richardson: bool
    diverged: bool
    converged: bool
    predicted: float | None = None


def weighted_limit(K, path: ApproachPath, weight) -> ProbeReport:
    """Diagonal kernel values times the weight at the path's levels, with a
    Richardson-extrapolated limit (first-order model, least-squares order
    check; falls back to the last value when the order fit is poor),
    converged when the last three values spread by at most 2%.

    The levels are the path's ``panel``: one kernel call and one weight call
    on its coordinate columns.  The levels from the first non-finite kernel
    value on are dropped, and the probe is marked diverged."""
    if isinstance(weight, str):
        weight = make_weight(path.spec, weight)
    P = path.panel
    diverged = False
    with np.errstate(all="ignore"):
        try:
            raw = K.diagonal(tuple(P.T))
        except NonFiniteError as e:
            v = np.broadcast_to(np.nan if e.values is None else e.values, len(P))
            P = P[:int(np.argmin(np.isfinite(v)))]
            raw, diverged = np.real(v[:len(P)]), True
        if len(P) < 3:
            raise BoundaryError("probe needs at least three usable levels")
        f = raw * weight(tuple(P.T))
    ts = path.ts[:len(P)]
    half = len(f) // 2
    if (abs(f[-1]) > 10.0 * max(abs(f[half]), 1e-300)
            and abs(f[-1]) > abs(f[-2]) > abs(f[-3])):
        diverged = True
    diffs = np.abs(np.diff(f))
    tarr = np.array(ts[:-1])
    mask = diffs > 1e-15 * np.max(np.abs(f))
    r2 = 1.0
    if mask.sum() >= 3:
        x = np.log(tarr[mask])
        y = np.log(diffs[mask])
        A = np.vstack([x, np.ones_like(x)]).T
        coef, res, _, _ = np.linalg.lstsq(A, y, rcond=None)
        ss_tot = float(np.sum((y - y.mean()) ** 2))
        r2 = 1.0 - float(res[0]) / ss_tot if len(res) and ss_tot > 0 else 1.0
    used_rich = r2 >= 0.9
    extr = [f[0]] + list(2.0 * f[1:] - f[:-1])
    series = extr if used_rich else list(f)
    limit = float(series[-1])
    last = np.array(series[-3:], dtype=float)
    spread = float(np.max(np.abs(last - limit))) / max(abs(limit), 1e-300)
    return ProbeReport(ts=ts, kernel_values=raw.tolist(), weighted=f.tolist(),
                       extrapolated=[float(e) for e in extr], limit=limit,
                       spread=spread, r_squared=float(r2),
                       used_richardson=used_rich, diverged=diverged,
                       converged=(not diverged) and spread <= 0.02)


def predicted_limit(spec: DomainSpec, target, stratum: Stratum) -> float | None:
    """Closed-form limit constants for the unit-weight ball-base families."""
    if len(spec.lifts) != 1 or spec.base.kind != KIND_ELLIPSOID:
        return None
    if any(p != 1.0 for p in spec.base.exponents):
        return None
    step = spec.lifts[0]
    n, m = spec.base.n_star, spec.base.m_passive
    z0, zp0, (w0,) = spec.split(tuple(complex(c) for c in target))
    aw2 = abs(w0[0]) ** 2
    if step.kind == "V":
        return (math.factorial(m + n) * math.exp(sum(step.weights) * aw2)
                * sum(step.weights) / math.pi ** (m + n + 1))
    if any(w != 1.0 for w in step.weights):
        return None
    c = math.factorial(m + n) * (n + 1) / math.pi ** (m + n + 1)
    if stratum == Stratum.S2:
        return c / (1.0 - aw2) ** (n + 2)
    if stratum == Stratum.S3:
        neg_r = 1.0 - sum(abs(x) ** 2 for x in zp0)
        return c / neg_r ** (n + m + 1)
    if stratum == Stratum.S4:
        return c
    return None


# ---------------------------------------------------------------------------
# Levi form probe


def _stencil(spec: DomainSpec, p, coords, step: float):
    """Wirtinger gradient d r / d z_j and complex Hessian d^2 r / dz_j dz-bar_k
    of the defining function at p over the coordinates ``coords``, by
    central differences with the given step on their real and imaginary
    parts.  The stencil points are one panel: p, p +- e_a and p +- e_a +- e_b
    for b < a, over the real directions a, b of ``coords``."""
    x0 = np.array([complex(c) for c in p]).view(float)
    real = (2 * np.asarray(coords)[:, None] + (0, 1)).ravel()
    n = len(real)
    E = np.zeros((n, len(x0)))
    E[np.arange(n), real] = step
    a, b = np.tril_indices(n, -1)
    X = np.vstack([x0, x0 + E, x0 - E, x0 + E[a] + E[b], x0 + E[a] - E[b],
                   x0 - E[a] + E[b], x0 - E[a] - E[b]])
    f = defining_function(spec, X.view(complex).T)
    f0, fp, fm, pp, pm, mp, mm = np.split(f, np.cumsum([1, n, n] + [len(a)] * 3))
    dr = (fp - fm) / (2 * step)
    hr = np.diag((fp - 2 * f0 + fm) / step ** 2)
    hr[a, b] = hr[b, a] = (pp - pm - mp + mm) / (4 * step ** 2)
    H = 0.25 * ((hr[0::2, 0::2] + hr[1::2, 1::2])
                + 1j * (hr[0::2, 1::2] - hr[1::2, 0::2]))
    return 0.5 * (dr[0::2] - 1j * dr[1::2]), 0.5 * (H + H.conj().T)


def levi_min_eigenvalue(spec: DomainSpec, p) -> float:
    """Smallest eigenvalue of the complex Hessian of the defining function
    restricted to the complex tangent space at a smooth boundary point.

    Gradient and Hessian from ``_stencil`` over every coordinate with step
    1e-4; the tangent-space restriction uses an orthonormal complement of
    the Wirtinger gradient.
    """
    d = spec.dim
    grad, H = _stencil(spec, p, range(d), 1e-4)
    if np.linalg.norm(grad) < 1e-8:
        raise BoundaryError("gradient vanishes; the tangent space is undefined")
    g = grad.conj().reshape(-1, 1)
    qmat, _ = np.linalg.qr(np.concatenate([g, np.eye(d, dtype=complex)], axis=1))
    basis = qmat[:, 1:d]
    L = basis.conj().T @ H @ basis
    return float(np.min(np.linalg.eigvalsh(L)))
