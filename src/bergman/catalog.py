"""Named domain/kernel families used by the verification suites.

Each entry pairs a DomainSpec with its hand-coded closed-form kernel, so
the CLI suites and the tests draw from one place.  Panels of seeded
interior point pairs come from the sampler's polydisk proposal cut to a
smaller box (scaling any interior point toward the origin stays
inside: the domains are complete Reinhardt).
"""

from __future__ import annotations

from .domains import DomainSpec, sample_interior
from .kernels import (ball_spec, egg_spec, ball_disk_lift_spec, ball_exp_lift_spec,
                      chain_stage_spec, kernel_ball, kernel_egg,
                      kernel_egg_inflated, kernel_ball_disk_lift, kernel_ball_exp_lift,
                      kernel_chain_stage3, kernel_product, polydisk_spec)

__all__ = [
    "closed_form_families", "interior_points", "interior_pairs",
    "ball_spec", "egg_spec", "ball_disk_lift_spec", "ball_exp_lift_spec", "chain_stage_spec",
    "polydisk_spec", "disk_spec",
]


def disk_spec() -> DomainSpec:
    return ball_spec(1)


def closed_form_families() -> dict:
    """name -> (spec, closed-form kernel) for every hand-coded closed form."""
    disk = kernel_ball(1)
    fams = {
        "disk": disk,
        "ball2": kernel_ball(2),
        "egg_p2": kernel_egg(1, 2.0),
        "egg_inflated_p2": kernel_egg_inflated(1, 2, 2.0),
        "ball_disk_lift_11": kernel_ball_disk_lift(1, 1),
        "ball_exp_lift_11": kernel_ball_exp_lift(1, 1, (1.0,)),
        "chain_stage3_p2": kernel_chain_stage3(2.0),
        "disk_x_disk": kernel_product(disk, disk),
    }
    return {name: (k.domain, k) for name, k in fams.items()}


def interior_points(spec: DomainSpec, count: int, seed: int,
                    box_radius: float | None = 0.45) -> list:
    pts = sample_interior(spec, count, seed=seed, box_radius=box_radius).points
    return [tuple(row) for row in pts]


def interior_pairs(spec: DomainSpec, count: int, seed: int,
                   box_radius: float | None = 0.45) -> list:
    pts = interior_points(spec, 2 * count, seed, box_radius)
    return list(zip(pts[:count], pts[count:]))
