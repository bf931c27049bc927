"""Each route's reach toward the boundary, on rays through the origin.

K(p, p) grows like delta^-(N+1) at relative distance delta from the
boundary along a ray, so rounding p alone moves it by about
(N+1) eps / delta: closed forms and lifts may disagree that much and no
more.  The series route's tail bound must cover its true error there.
"""

import numpy as np
import pytest

from bergman.catalog import closed_form_families
from bergman.domains import contains
from bergman.lifting import compose_pipeline
from bergman.oracle import get_norm_table, series_kernel

EPS = np.finfo(float).eps
FAMILIES = closed_form_families()


def _boundary_rays(spec, count=20, seed=0):
    """count seeded unit complex directions (rows) and the boundary crossing
    b along each, by bisection on ``contains``: b is the last scale found
    inside, with the next float above it outside."""
    rng = np.random.default_rng(seed)
    D = rng.normal(size=(count, spec.dim)) + 1j * rng.normal(size=(count, spec.dim))
    D /= np.linalg.norm(D, axis=1)[:, None]

    def inside(t):
        return contains(spec, tuple((t[:, None] * D).T))

    lo, hi = np.zeros(count), np.ones(count)
    while (ins := inside(hi)).any():
        hi = np.where(ins, 2.0 * hi, hi)
    while True:
        mid = 0.5 * (lo + hi)
        if not ((lo < mid) & (mid < hi)).any():
            return D, lo
        ins = inside(mid)
        lo, hi = np.where(ins, mid, lo), np.where(ins, hi, mid)


def _ray_points(D, b, delta):
    """The points (1 - delta) b along each ray, as coordinate columns."""
    return tuple(((1.0 - delta) * b[:, None] * D).T)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_closed_and_lifted_agree_within_the_conditioning_envelope(name):
    spec, closed = FAMILIES[name]
    lifted = compose_pipeline(spec)
    D, b = _boundary_rays(spec)
    for delta in (1e-1, 1e-3, 1e-5, 1e-8):
        P = _ray_points(D, b, delta)
        want = closed(P, P)
        rel = np.abs(lifted(P, P) - want) / np.abs(want)
        assert rel.max() <= (spec.dim + 1) * EPS / delta, (delta, rel.max())


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_series_tail_bound_covers_the_diagonal_error(name):
    # on the diagonal every term is positive and the shell ratios fall, so
    # the geometric extrapolation of the last two shells bounds the tail
    spec, closed = FAMILIES[name]
    table = get_norm_table(spec, 80)
    D, b = _boundary_rays(spec)
    for delta in (0.3, 0.1, 0.03):
        for p in zip(*_ray_points(D, b, delta)):
            sv = series_kernel(spec, p, p, 80, table=table)
            err = abs(complex(closed(p, p)) - sv.value)
            if err > 1e-13 * abs(sv.value):
                assert sv.tail_bound >= err, (delta, p, sv.tail_bound, err)
