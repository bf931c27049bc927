"""Hand-coded closed-form Bergman kernel evaluators.

``K(p, q)`` computes K(p; q-bar): holomorphic in p, anti-holomorphic in q.
Every domain here is complete Reinhardt, so a kernel depends on the two
points only through the coordinate products u_j = p_j q-bar_j, which the
call forms once; each formula is written on u.  Formulas use the generic
scalar helpers, so the same code path evaluates plain complex numbers,
numpy arrays (vectorised panels) and jets (derivative extraction).
A kernel's coordinate layout is that of its ``domain``, the DomainSpec
it reproduces on; no kernel keeps a copy of it.
"""

from __future__ import annotations

import cmath
from math import factorial, pi

import numpy as np

from .domains import (KIND_ELLIPSOID, KIND_POLYDISK, BaseDomain, DomainSpec,
                      LiftStep)
from .jets import Jet, NonFiniteError, aconj, aexp, ainv, apow, fresh_tag


def _all_finite(v) -> bool:
    if isinstance(v, Jet):
        return all(_all_finite(c) for c in v.coeffs)
    if isinstance(v, np.ndarray):
        return bool(np.all(np.isfinite(v)))
    return cmath.isfinite(complex(v))


class Kernel:
    """Kernel evaluator contract.

    The domain is complete Reinhardt, so K(p; q-bar) is a function of the
    coordinate products alone: ``fn(u)`` takes the tuple u_j = p_j q-bar_j,
    which the call forms.  ``domain`` is the DomainSpec the evaluator
    reproduces on and the only record of its coordinate layout; ``dim`` is
    read from it.  Only a kernel no spec describes passes ``dim`` instead.
    """

    def __init__(self, fn, domain: DomainSpec | None = None, name: str = "kernel",
                 dim: int | None = None):
        if (domain is None) == (dim is None):
            raise ValueError("give a kernel its domain, or its dim when no spec describes it")
        self.fn = fn
        self.domain = domain
        self.name = name
        self.dim = domain.dim if domain is not None else int(dim)

    def __call__(self, p, q, q_conjugated: bool = False):
        p = tuple(p)
        q = tuple(q)
        if len(p) != self.dim or len(q) != self.dim:
            raise ValueError(f"{self.name}: expected {self.dim} coordinates")
        cq = q if q_conjugated else tuple(aconj(c) for c in q)
        try:
            val = self.fn(tuple(a * b for a, b in zip(p, cq)))
        except (ZeroDivisionError, OverflowError) as e:
            raise NonFiniteError(f"{self.name} overflowed: {e}") from None
        if not _all_finite(val):
            err = NonFiniteError(f"{self.name} overflowed (value not finite)")
            err.values = val
            raise err
        return val

    def diagonal(self, p):
        """K(p; p-bar), real and positive on the interior; an array on panels."""
        v = self(p, p)
        return np.real(v) if isinstance(v, np.ndarray) and v.ndim else complex(v).real

    def scaled(self, factor: float) -> "Kernel":
        """Pointwise multiple (test probe for reproducing-property drift)."""
        return Kernel(lambda u: factor * self.fn(u), self.domain, f"{factor}*{self.name}",
                      self.dim if self.domain is None else None)

    def __repr__(self):  # pragma: no cover
        return f"Kernel({self.name}, dim={self.dim}, domain={self.domain})"


# ---------------------------------------------------------------------------
# closed forms


def ball_spec(dim: int, n_star: int | None = None) -> DomainSpec:
    n = dim if n_star is None else n_star
    return DomainSpec(BaseDomain(KIND_ELLIPSOID, n, dim - n, (1.0,) * dim))


def kernel_ball(dim: int, n_star: int | None = None) -> Kernel:
    """Unit-ball kernel dim!/pi^dim * (1 - <z,zeta>)^-(dim+1)."""
    if dim < 1:
        raise ValueError("ball dimension must be at least 1")
    c = factorial(dim) / pi ** dim
    e = -(dim + 1)

    def fn(u):
        return c * apow(1.0 - sum(u), e)

    return Kernel(fn, ball_spec(dim, n_star), f"ball{dim}")


def egg_spec(n: int, p: float, m: int = 1) -> DomainSpec:
    """Domain ||z||^{2p} + ||w||^2 < 1 with z in C^n, w in C^m.

    For n = 1 the base carries the exponent p itself (so the defining
    function is |z|^{2p}/(1-||w||^2) - 1); for n > 1 the base is the unit
    ball and the lift weights are 1/p.
    """
    if n == 1:
        base = BaseDomain(KIND_ELLIPSOID, 1, 0, (float(p),))
    else:
        base = BaseDomain(KIND_ELLIPSOID, n, 0, (1.0,) * n)
    return DomainSpec(base, (LiftStep("U", (1.0 / p,) * n, m),))


def kernel_egg_inflated(n: int, m: int, p: float) -> Kernel:
    """Kernel on ||z||^{2p} + ||w||^2 < 1: the scalar-w formula with the
    (m-1)-fold derivative in t = <w,eta> taken by a jet in t."""
    if n < 1 or m < 1 or p <= 0:
        raise ValueError("need n >= 1, m >= 1, p > 0")
    pref = factorial(n) / (pi ** (m + n) * p)
    ip = 1.0 / p

    def core(t, s):
        u = apow(1.0 - t, ip)
        num = (n + p) * u + (1.0 - p) * s
        return num * apow(1.0 - t, -(2.0 - ip)) * apow(u - s, -(n + 2))

    def fn(u):
        s = sum(u[:n])
        t = sum(u[n:])
        if m == 1:
            return pref * core(t, s)
        tj = Jet.variable(t, order=m - 1, tag=fresh_tag())
        jet = core(tj, s)
        if not isinstance(jet, Jet) or jet.tag != tj.tag:
            raise NonFiniteError("inflation jet collapsed unexpectedly")
        return pref * jet.derivative(m - 1)

    return Kernel(fn, egg_spec(n, p, m), f"egg(n={n},m={m},p={p})")


def kernel_egg(n: int, p: float) -> Kernel:
    """Kernel on ||z||^{2p} + |w|^2 < 1 (scalar w)."""
    return kernel_egg_inflated(n, 1, p)


def ball_disk_lift_spec(n: int, m: int) -> DomainSpec:
    return DomainSpec(BaseDomain(KIND_ELLIPSOID, n, m, (1.0,) * (n + m)),
                      (LiftStep("U", (1.0,) * n, 1),))


def kernel_ball_disk_lift(n: int, m: int) -> Kernel:
    """Kernel on the unit-weight disk-fibered lift of the ball B^{n+m}:
    {|w| < 1, ||z||^2 + ||z'||^2 + |w|^2 < 1 + |w|^2 ||z'||^2}."""
    if n < 1 or m < 0:
        raise ValueError("need n >= 1, m >= 0")
    c = factorial(m + n) / pi ** (m + n + 1)
    e = -(m + n + 2)

    def fn(u):
        sz = sum(u[:n])
        sp = sum(u[n:n + m])
        t = u[-1]
        den = 1.0 - t - sz - sp + t * sp
        num = apow(1.0 - t, m) * ((n + 1) - (n + 1) * sp + m * sz * apow(1.0 - t, -1))
        return c * num * apow(den, e)

    return Kernel(fn, ball_disk_lift_spec(n, m), f"ball_disk_lift(n={n},m={m})")


def ball_exp_lift_spec(n: int, m: int, gamma) -> DomainSpec:
    return DomainSpec(BaseDomain(KIND_ELLIPSOID, n, m, (1.0,) * (n + m)),
                      (LiftStep("V", tuple(gamma), 1),))


def kernel_ball_exp_lift(n: int, m: int, gamma) -> Kernel:
    """Kernel on sum_j e^{gamma_j |w|^2} |z_j|^2 + ||z'||^2 < 1."""
    gamma = tuple(float(g) for g in gamma)
    if len(gamma) != n:
        raise ValueError("need one weight per star coordinate")
    c = factorial(m + n) / pi ** (m + n + 1)
    G = sum(gamma)

    def fn(u):
        t = u[-1]
        rho = 1.0 - sum(u[n:n + m])
        cross = 0.0
        egs = [aexp(g * t) for g in gamma]
        for zz, g, eg in zip(u, gamma, egs):
            rho = rho - eg * zz
            cross = cross + g * eg * zz
        # G is a weight in every n = 1 family: reuse that weight's exponential
        eG = egs[gamma.index(G)] if G in gamma else aexp(G * t)
        inv = ainv(rho)
        r1 = apow(inv, m + n + 1)       # rho^-(m+n+1); times inv, rho^-(m+n+2)
        return c * eG * (G * r1 + (m + n + 1) * cross * (r1 * inv))

    return Kernel(fn, ball_exp_lift_spec(n, m, gamma),
                  f"ball_exp_lift(n={n},m={m},gamma={gamma})")


def chain_stage_spec(stage: int, p: float = 2.0, p2: float = 1.5, p3: float = 2.5) -> DomainSpec:
    """The iterated-lift chain of domains starting from the unit disk.

    stage 1: |z1|^2 < 1
    stage 2: |z1|^{2p} + |z2|^2 < 1
    stage 3: |z1|^{2p} + e^{|z3|^2} |z2|^2 < 1
    stage 4: |z1|^{2p} + exp(|z3|^2/(1-|z4|^2)^{p2}) |z2|^2 < 1, |z4| < 1
    stage 5: stage 4 with |z1|^{2p}/(1-|z5|^2)^{p3}, |z5| < 1
    stage 6: stage 5 with |z5|^2 replaced by e^{|z6|^2} |z5|^2
    """
    base = BaseDomain(KIND_ELLIPSOID, 1, 0, (float(p),))
    steps = [
        LiftStep("U", (1.0 / p,), 1),
        LiftStep("V", (0.0, 1.0), 1),
        LiftStep("U", (0.0, 0.0, p2), 1),
        LiftStep("U", (p3 / p, 0.0, 0.0, 0.0), 1),
        LiftStep("V", (0.0, 0.0, 0.0, 0.0, 1.0), 1),
    ]
    if not 1 <= stage <= 6:
        raise ValueError("stage must be 1..6")
    return DomainSpec(base, tuple(steps[: stage - 1]))


def kernel_chain_stage3(p: float = 2.0) -> Kernel:
    """Three-term kernel on |z1|^{2p} + e^{|z3|^2} |z2|^2 < 1."""
    if p <= 0:
        raise ValueError("p must be positive")
    ip = 1.0 / p

    def fn(u):
        s = u[0]                        # z1 zeta1-bar
        ew = aexp(u[2])                 # e^{z3 zeta3-bar}
        x = ew * u[1]                   # e^{...} z2 zeta2-bar
        v = apow(1.0 - x, ip)
        inv = ainv(v - s)
        d3 = apow(inv, 3)
        t1 = ((1.0 + p) * v + (1.0 - p) * s) * apow(1.0 - x, -(2.0 - ip)) * d3
        t2 = ((p - 1.0) * x * ((2.0 + 2.0 * ip) * v - (2.0 - ip) * s)
              * apow(1.0 - x, -(3.0 - ip)) * d3)
        t3 = (3.0 * ip * x * ((1.0 + p) * v + (1.0 - p) * s)
              * apow(1.0 - x, -(3.0 - 2.0 * ip)) * (d3 * inv))
        return ew / (pi ** 3 * p) * (t1 + t2 + t3)

    return Kernel(fn, chain_stage_spec(3, p), f"chain_stage3(p={p})")


def polydisk_spec(dim: int) -> DomainSpec:
    return DomainSpec(BaseDomain(KIND_POLYDISK, dim, 0))


def kernel_polydisk(dim: int) -> Kernel:
    c = 1.0 / pi ** dim

    def fn(u):
        out = c
        for uj in u:
            out = out * apow(1.0 - uj, -2)
        return out

    return Kernel(fn, polydisk_spec(dim), f"polydisk{dim}")


def kernel_product(a: Kernel, b: Kernel) -> Kernel:
    """Kernel on the Cartesian product domain: the pointwise product."""
    da = a.dim

    def fn(u):
        return a.fn(u[:da]) * b.fn(u[da:])

    # a product of polydisks and disks is a polydisk; other products have no spec
    doms = (a.domain, b.domain)
    flat = all(k is not None and not k.lifts and (k.base.kind == KIND_POLYDISK or k.base.dim == 1)
               for k in doms)
    domain = polydisk_spec(a.dim + b.dim) if flat else None
    return Kernel(fn, domain, f"({a.name})x({b.name})", None if flat else a.dim + b.dim)


# ---------------------------------------------------------------------------
# recognition: DomainSpec -> hand-coded closed form, when one exists


def closed_form_for(spec: DomainSpec) -> Kernel | None:
    """Return the hand-coded kernel for specs whose kernel has a hand-coded
    closed form, labelled with ``spec``: the family's own spec may write the
    same set another way (a disk exponent, or a weight rebuilt as 1/(1/w))."""
    k = _family_kernel(spec)
    return None if k is None else Kernel(k.fn, spec, k.name)


def _family_kernel(spec: DomainSpec) -> Kernel | None:
    b = spec.base
    if not spec.lifts:
        if b.kind == KIND_POLYDISK:
            return kernel_polydisk(b.dim)
        non_unit = [(j, p) for j, p in enumerate(b.exponents) if p != 1.0]
        if not non_unit:
            return kernel_ball(b.dim, b.n_star)
        if b.dim == 1:
            # any exponent describes the same set, the unit disk
            return kernel_ball(1)
        if len(non_unit) == 1 and non_unit[0][0] == 0:
            return kernel_egg_inflated(1, b.dim - 1, non_unit[0][1])
        return None
    if len(spec.lifts) == 1 and b.kind == KIND_ELLIPSOID:
        step = spec.lifts[0]
        ball_base = all(p == 1.0 for p in b.exponents)
        if step.kind == "V" and step.w_dim == 1 and ball_base:
            return kernel_ball_exp_lift(b.n_star, b.m_passive, step.weights)
        if step.kind == "U":
            if ball_base and all(w == 1.0 for w in step.weights) and step.w_dim == 1:
                return kernel_ball_disk_lift(b.n_star, b.m_passive)
            uniform = len(set(step.weights)) == 1 and step.weights[0] > 0
            if ball_base and b.m_passive == 0 and uniform:
                return kernel_egg_inflated(b.n_star, step.w_dim,
                                               1.0 / step.weights[0])
            if (b.dim == 1 and uniform and b.exponents[0] == 1.0 / step.weights[0]):
                return kernel_egg_inflated(1, step.w_dim, b.exponents[0])
    if len(spec.lifts) == 2 and b.kind == KIND_ELLIPSOID and b.dim == 1:
        s1, s2 = spec.lifts
        if (s1.kind == "U" and s1.w_dim == 1 and s2.kind == "V" and s2.w_dim == 1
                and s2.weights == (0.0, 1.0) and s1.weights[0] > 0
                and b.exponents[0] == 1.0 / s1.weights[0]):
            return kernel_chain_stage3(b.exponents[0])
    return None
