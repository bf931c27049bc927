"""Generic kernel lifts across disk- and plane-fibered extensions.

Given a kernel evaluator on a star-shaped Hartogs base, these transforms
produce the kernel evaluator one lift up: the slice kernel (the base kernel
moved to a fixed-w cross-section by the biholomorphic transformation rule)
is evaluated at a twisted argument, and a polynomial in the Euler operator
E = sum_l a_l u_l d/du_l is applied to it.  Kernels take the products
u_l = p_l q-bar_l, on which the slice scales and the twist cancel: with t
the sum of the w block's products, the base sees u_l (1-t)^(-a_l) under a
U-step and u_l e^(a_l t) under a V-step, and the value carries
(1-t)^(-(k+1+|a|)) or e^(|a| t), over pi^k.  No ||eta||^2 enters, so past
||eta|| = 1 a U-step lift continues as the closed forms do.

E is d/ds of g(s) = G(u_l e^{a_l s}) at s = 0, so one jet variable s serves
every acted coordinate: for a w block of dimension k the operator
prod_i (c_i + E) applied to G is sum_j sigma_{k-j}(c) j! g_j, with sigma the
elementary symmetric functions of the k constants c_i and g_j the Taylor
coefficients of g.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial, pi

from .domains import DomainSpec, LiftStep, SpecError, slice_scales
from .jets import Jet, aexp, apow, fresh_tag
from .kernels import Kernel, closed_form_for


class LiftError(ValueError):
    """Lift request the machinery cannot honor."""


def slice_kernel(base: Kernel, step: LiftStep, w) -> Kernel:
    """Kernel of the fixed-w cross-section of the lifted domain.

    The cross-section is biholomorphic to the base via the coordinate
    scaling f_alpha(., w) / g_gamma(., w); the kernel picks up the squared
    Jacobian of that scaling, and each acted product u_j the square of its
    coordinate scale.
    """
    _lifted_domain(base, step)
    stars = base.domain.star_indices()
    if len(w) != step.w_dim:
        raise LiftError(f"w has {len(w)} coordinates, the step's block has {step.w_dim}")
    scales, factor = slice_scales(step, sum(abs(c) ** 2 for c in w))

    def fn(u):
        u = list(u)
        for j, s in zip(stars, scales):
            if s is not None:
                u[j] = u[j] * (s * s)
        return factor * base.fn(tuple(u))

    return Kernel(fn, name=f"slice[{base.name}]", dim=base.dim)


def _operator_weights(consts):
    """Weights j! sigma_{k-j}(consts), j = 0..k, that turn the s-Taylor
    coefficients g_j into prod_i (c_i + d/ds) g at s = 0."""
    poly = [1.0]  # ascending coefficients of prod_i (c_i + x)
    for c in consts:
        poly = [c * a + b for a, b in zip(poly + [0.0], [0.0] + poly)]
    return [factorial(j) * v for j, v in enumerate(poly)]


def _lifted_domain(base: Kernel, step: LiftStep) -> DomainSpec:
    """The spec one lift up, whose check is the only weight-count check."""
    if base.domain is None:
        raise LiftError(f"{base.name} has no DomainSpec to lift")
    try:
        return DomainSpec(base.domain.base, base.domain.lifts + (step,))
    except SpecError as e:
        raise LiftError(str(e)) from None


def _make_lift(base: Kernel, step: LiftStep) -> Kernel:
    k = step.w_dim
    domain = _lifted_domain(base, step)
    stars = base.domain.star_indices()
    acted = [(j, a) for j, a in zip(stars, step.weights) if a > 0.0]
    wsum = sum(step.weights)
    d_in = base.dim
    is_u = step.kind == "U"
    op = _operator_weights([(j + wsum) if is_u else wsum for j in range(1, k + 1)])
    flow = [[a ** i / factorial(i) for i in range(1, k + 1)] for _, a in acted]

    def fn(u):
        t = sum(u[d_in:])
        tag = fresh_tag()
        uu = list(u[:d_in])
        for (j, a), f in zip(acted, flow):
            # the twisted slice product, seeded along the Euler flow x e^{a s}
            x = uu[j] * (apow(1.0 - t, -a) if is_u else aexp(a * t))
            uu[j] = Jet([x] + [x * fi for fi in f], tag)
        G = base.fn(tuple(uu))
        g = G.coeffs if isinstance(G, Jet) and G.tag == tag else [G]
        acc = op[0] * g[0]
        for c, gj in zip(op[1:], g[1:]):
            acc = acc + c * gj
        pref = apow(1.0 - t, -(k + 1 + wsum)) if is_u else aexp(wsum * t)
        return pref / pi ** k * acc

    return Kernel(fn, domain, f"lift{step.kind}[{base.name}]")


def lift_U(base: Kernel, alpha, k: int = 1) -> Kernel:
    """Kernel evaluator on the disk-fibered lift with weights alpha and a
    w block of dimension k: prod_{i=1..k} (i + |alpha| + E) applied to the
    twisted slice kernel, with E = d/ds along u_l e^{alpha_l s}.

    A zero entry leaves the matching star coordinate untouched (passive for
    this lift); at least one entry must be positive.
    """
    return _make_lift(base, LiftStep("U", tuple(alpha), k))


def lift_V(base: Kernel, gamma, k: int = 1) -> Kernel:
    """Kernel evaluator on the plane-fibered lift with weights gamma and a
    w block of dimension k: (|gamma| + E)^k applied to the twisted slice
    kernel, with E = d/ds along u_l e^{gamma_l s}."""
    return _make_lift(base, LiftStep("V", tuple(gamma), k))


def base_kernel(base_domain) -> Kernel:
    """Closed-form kernel of a base domain, seeding pipeline composition.

    Supported: polydisks (product of disks), balls (all exponents 1), any
    one-dimensional ellipsoid (the set is the unit disk), and ellipsoids
    whose single non-unit exponent sits in the leading coordinate.
    """
    k = closed_form_for(DomainSpec(base_domain, ()))
    if k is None:
        raise LiftError(
            f"no closed-form kernel for base {base_domain}; only balls, "
            "polydisks and single-exponent ellipsoids seed a pipeline")
    return k


@lru_cache(maxsize=64)
def compose_pipeline(spec: DomainSpec) -> Kernel:
    """Fold the lift transforms over a domain spec, starting from the base
    closed form.  An empty lift stack returns the base evaluator itself.
    Built once per spec and process: equal specs share one kernel, which
    nothing mutates (``Kernel.scaled`` returns a new one)."""
    K = base_kernel(spec.base)
    for step in spec.lifts:
        K = _make_lift(K, step)
    return K
