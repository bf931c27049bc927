"""Generic kernel lifts across disk- and plane-fibered extensions.

Given a kernel evaluator on a star-shaped Hartogs base, these transforms
produce the kernel evaluator one lift up: the slice kernel (the base kernel
moved to a fixed-w cross-section by the biholomorphic transformation rule)
is evaluated on jet-valued star coordinates at a twisted argument, and a
polynomial in the Euler operators z_j d/dz_j is applied to the jet.

For a w block of dimension k the operator is a product of k factors; the
factors are polynomials in the same Euler operators, hence commute, so the
application order is immaterial (regression-tested).
"""

from __future__ import annotations

from math import pi

from .domains import DomainSpec, LiftStep, slice_scales
from .jets import (MAX_JET_ORDER, Jet, JetOrderError, abs2, aexp, apow,
                   fresh_tag)
from .kernels import Kernel, closed_form_for


class LiftError(ValueError):
    """Lift request the machinery cannot honor."""


def _sqnorm(w):
    t = 0.0
    for c in w:
        t = t + abs2(c)
    return t


def slice_kernel(base: Kernel, step: LiftStep, w) -> Kernel:
    """Kernel of the fixed-w cross-section of the lifted domain.

    The cross-section is biholomorphic to the base via the coordinate
    scaling f_alpha(., w) / g_gamma(., w); the kernel picks up the squared
    Jacobian of that scaling.
    """
    stars = base.star_indices()
    if len(step.weights) != len(stars):
        raise LiftError(f"{len(step.weights)} weights for {len(stars)} star coordinates")
    fn = _slice_fn(base, step, stars, _sqnorm(w))
    return Kernel(fn, base.n, base.m, base.w_dims, domain=None,
                  name=f"slice[{base.name}]")


def _slice_fn(base: Kernel, step: LiftStep, stars, t):
    scales, factor = slice_scales(step, t)

    def fn(p, cq):
        pp = list(p)
        qq = list(cq)
        for j, s in zip(stars, scales):
            if s is not None:
                pp[j] = pp[j] * s
                qq[j] = qq[j] * s
        return factor * base.fn(tuple(pp), tuple(qq))

    return fn


def _apply_factors(G: Jet, u_jets, weights, consts):
    """Apply the product over ``consts`` of (c*I + sum_l w_l u_l d/du_l) to
    the jet G; each factor consumes one jet order."""
    cur = G
    for c in consts:
        nxt = c * cur.truncate(cur.order - 1)
        for l, wl in enumerate(weights):
            nxt = nxt + wl * u_jets[l].truncate(cur.order - 1) * cur.partial(l)
        cur = nxt
    return cur.value()


def _lifted_domain(base: Kernel, step: LiftStep) -> DomainSpec | None:
    if base.domain is None:
        return None
    return DomainSpec(base.domain.base, base.domain.lifts + (step,))


def _make_lift(base: Kernel, step: LiftStep, factor_order) -> Kernel:
    k = step.w_dim
    stars = base.star_indices()
    if len(step.weights) != len(stars):
        raise LiftError(
            f"lift carries {len(step.weights)} weights but the evaluator has "
            f"{len(stars)} star coordinates")
    if not 1 <= k <= MAX_JET_ORDER:
        raise JetOrderError(f"w block of dimension {k} needs unsupported jet order")
    acted = [(j, a) for j, a in zip(stars, step.weights) if a > 0.0]
    wsum = sum(step.weights)
    d_in = base.dim
    is_u = step.kind == "U"
    if factor_order is None:
        factor_order = tuple(range(1, k + 1))
    elif sorted(factor_order) != list(range(1, k + 1)):
        raise LiftError("factor order must be a permutation of 1..k")
    consts = tuple((j + wsum) if is_u else wsum for j in factor_order)
    act_w = tuple(a for _, a in acted)

    def fn(p, cq):
        w = p[d_in:]
        ebar = cq[d_in:]
        eta2 = _sqnorm(ebar)
        # raises SingularEvaluationError at ||eta|| >= 1, before any power
        sfn = _slice_fn(base, step, stars, eta2)
        t = 0.0
        for wj, ej in zip(w, ebar):
            t = t + wj * ej
        if is_u:
            inv = apow(1.0 - t, -1)
            arg_scale = [apow((1.0 - eta2) * inv, a) for a in act_w]
            pref = apow(1.0 - eta2, wsum) * apow(1.0 - t, -(k + 1 + wsum)) / pi ** k
        else:
            shift = t - eta2
            arg_scale = [aexp(a * shift) for a in act_w]
            pref = aexp(wsum * shift) / pi ** k
        tag = fresh_tag()
        pp = list(p[:d_in])
        u_jets = []
        for l, (j, _) in enumerate(acted):
            u = pp[j] * arg_scale[l]
            jet = Jet.variable(u, l, order=k, nvars=len(acted), tag=tag)
            u_jets.append(jet)
            pp[j] = jet
        G = sfn(tuple(pp), tuple(cq[:d_in]))
        if not (isinstance(G, Jet) and G.tag == tag):
            G = Jet.constant(G, k, len(acted), tag=tag)
        return pref * _apply_factors(G, u_jets, act_w, consts)

    return Kernel(fn, base.n, base.m, base.w_dims + (k,),
                  domain=_lifted_domain(base, step),
                  name=f"lift{step.kind}[{base.name}]")


def lift_U(base: Kernel, alpha, k: int = 1, factor_order=None) -> Kernel:
    """Kernel evaluator on the disk-fibered lift with weights alpha and a
    w block of dimension k.

    A zero entry leaves the matching star coordinate untouched (passive for
    this lift); at least one entry must be positive.
    """
    return _make_lift(base, LiftStep("U", tuple(alpha), k), factor_order)


def lift_V(base: Kernel, gamma, k: int = 1, factor_order=None) -> Kernel:
    """Kernel evaluator on the plane-fibered lift with weights gamma and a
    w block of dimension k."""
    return _make_lift(base, LiftStep("V", tuple(gamma), k), factor_order)


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


def compose_pipeline(spec: DomainSpec) -> Kernel:
    """Fold the lift transforms over a domain spec, starting from the base
    closed form.  An empty lift stack returns the base evaluator itself."""
    K = base_kernel(spec.base)
    for step in spec.lifts:
        K = _make_lift(K, step, None)
    return K
