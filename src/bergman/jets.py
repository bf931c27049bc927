"""Truncated holomorphic Taylor jets and shared scalar utilities.

A :class:`Jet` carries the value of a holomorphic expression together with
its Taylor coefficients in one variable s, as many as it was seeded with:
no order is capped.  Feeding jets through a kernel evaluator is how every
differential operator in this package is applied: a lift seeds its
coordinates along the Euler flow u_l e^{a_l s}, so the Euler operator
becomes d/ds, and no formula is ever differentiated by hand.

Jet coefficients may themselves be jets (nested lifts) or numpy arrays
(vectorised evaluation); the arithmetic only assumes ring operations.
"""

from __future__ import annotations

import cmath
import itertools
from math import factorial

import numpy as np

_TAG_COUNTER = itertools.count(1)


def fresh_tag() -> int:
    """Allocate a jet tag.  Jets with distinct tags model independent
    perturbation directions (nested lifts); arithmetic nests the lower tag
    inside the higher one instead of convolving them."""
    return next(_TAG_COUNTER)


class BranchCutError(ValueError):
    """Principal power requested on the closed negative real axis."""


class NonFiniteError(ArithmeticError):
    """A numeric operation produced NaN or an infinity.  ``values`` holds the
    value a kernel call judged not finite, None when its arithmetic raised."""
    values = None


class JetOrderError(ValueError):
    """Coefficient index outside a jet's coefficient list."""


class GammaPoleError(ValueError):
    """Rising factorial anchored at a non-positive integer (gamma pole)."""


def pochhammer(a: float, b: int) -> float:
    """Rising factorial (a)_b = a(a+1)...(a+b-1), exact product form.

    Equals gamma(a+b)/gamma(a).  Anchors at non-positive integers are
    rejected rather than resolved by limits.
    """
    if b < 0 or int(b) != b:
        raise ValueError(f"pochhammer order must be a natural number, got {b}")
    a = float(a)
    if a <= 0.0 and a == int(a):
        raise GammaPoleError(f"pochhammer anchor {a} sits on a gamma pole")
    out = 1.0
    for i in range(int(b)):
        out *= a + i
    return out


# ---------------------------------------------------------------------------
# generic scalar helpers: dispatch between complex, numpy arrays and jets


def principal_power(base, exponent: float):
    """base**exponent on the principal branch, exp(exponent*Log(base)).

    Rejects bases on the closed negative real axis (including 0), where the
    principal logarithm has its cut.  Jet- and array-valued bases are
    supported; call sites in this package keep Re(base) > 0.
    """
    if isinstance(base, Jet):
        return base.__pow__(float(exponent))
    if isinstance(base, np.ndarray):
        z = np.asarray(base, dtype=complex)
        if np.any((z.imag == 0.0) & (z.real <= 0.0)):
            raise BranchCutError("principal power hit the branch cut (array input)")
        return np.exp(exponent * np.log(z))
    z = complex(base)
    if z.imag == 0.0 and z.real <= 0.0:
        raise BranchCutError(f"principal power hit the branch cut at base {z}")
    return cmath.exp(exponent * cmath.log(z))


def apow(x, exponent):
    """Power helper: exact repeated multiplication for integer exponents,
    principal branch otherwise."""
    e = float(exponent)
    if e.is_integer():
        n = int(e)
        if n == 0:
            return 1.0
        if n < 0:
            return _int_pow(ainv(x), -n)
        return _int_pow(x, n)
    return principal_power(x, e)


def _int_pow(x, n: int):
    out = x
    for _ in range(n - 1):
        out = out * x
    return out


def aexp(x):
    """exp() across complex scalars, arrays and jets."""
    if isinstance(x, Jet):
        return x.exp()
    if isinstance(x, np.ndarray):
        return np.exp(x)
    return cmath.exp(complex(x))


def ainv(x):
    """Multiplicative inverse across complex scalars, arrays and jets."""
    if isinstance(x, Jet):
        return x.reciprocal()
    return 1.0 / x


def aconj(x):
    """Conjugate of a numeric value.  Jets are rejected: the conjugated
    side of a kernel is never jet-valued."""
    if isinstance(x, Jet):
        raise TypeError("cannot conjugate a jet; pass pre-conjugated data instead")
    if isinstance(x, np.ndarray):
        return np.conj(x)
    return complex(x).conjugate()


# ---------------------------------------------------------------------------
# jets


class Jet:
    """Truncated Taylor series in one variable s.

    ``coeffs[i]`` is the Taylor coefficient of s**i, so the i-th derivative
    in s is i! times it; the order is ``len(coeffs) - 1``, and peers of
    different lengths combine to the shorter one.

    ``tag`` identifies the seeding batch.  Jets of equal tag share the
    variable and convolve; a jet of lower tag entering an operation is
    treated as a scalar coefficient (independent directions nest, with the
    higher tag outermost).
    """

    __slots__ = ("coeffs", "tag")

    def __init__(self, coeffs: list, tag: int = 0):
        self.coeffs = coeffs
        self.tag = tag

    # -- constructors -------------------------------------------------

    @classmethod
    def variable(cls, value, order: int, tag: int = 0) -> "Jet":
        """Seed jet ``value + ds`` with ``order + 1`` coefficients."""
        return cls(([value, 1.0] + [0.0] * order)[:order + 1], tag)

    # -- accessors ----------------------------------------------------

    def value(self):
        return self.coeffs[0]

    def coefficient(self, i: int):
        if not 0 <= i < len(self.coeffs):
            raise JetOrderError(f"coefficient {i} outside 0..{len(self.coeffs) - 1}")
        return self.coeffs[i]

    def derivative(self, i: int):
        """i-th derivative in s."""
        return self.coefficient(i) * factorial(i)

    # -- ring operations ----------------------------------------------

    __array_ufunc__ = None  # keep numpy from elementwise-broadcasting over jets

    def _is_peer(self, other) -> bool:
        return isinstance(other, Jet) and other.tag == self.tag

    def __add__(self, other):
        if isinstance(other, Jet) and other.tag > self.tag:
            return other.__add__(self)
        if self._is_peer(other):
            return Jet([a + b for a, b in zip(self.coeffs, other.coeffs)], self.tag)
        return Jet([self.coeffs[0] + other] + self.coeffs[1:], self.tag)

    __radd__ = __add__

    def __neg__(self):
        return Jet([-v for v in self.coeffs], self.tag)

    def __sub__(self, other):
        if isinstance(other, Jet):
            return self + other.__neg__()
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Jet) and other.tag > self.tag:
            return other.__mul__(self)
        if self._is_peer(other):
            a, b = self.coeffs, other.coeffs
            out = []
            for n in range(min(len(a), len(b))):
                acc = a[0] * b[n]
                for i in range(1, n + 1):
                    acc = acc + a[i] * b[n - i]
                out.append(acc)
            return Jet(out, self.tag)
        return Jet([v * other for v in self.coeffs], self.tag)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other.reciprocal()
        return self * (1.0 / other)

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    # Taylor-mode recurrences: each output coefficient n comes from the
    # input coefficients 1..n and the output coefficients below n.

    def reciprocal(self) -> "Jet":
        a = self.coeffs
        out = [ainv(a[0])]
        for n in range(1, len(a)):
            acc = a[1] * out[n - 1]
            for k in range(2, n + 1):
                acc = acc + a[k] * out[n - k]
            out.append(-out[0] * acc)
        return Jet(out, self.tag)

    def exp(self) -> "Jet":
        a = self.coeffs
        out = [aexp(a[0])]
        for n in range(1, len(a)):
            acc = a[1] * out[n - 1]
            for k in range(2, n + 1):
                acc = acc + (k * a[k]) * out[n - k]
            out.append(acc * (1.0 / n))
        return Jet(out, self.tag)

    def __pow__(self, exponent):
        e = float(exponent)
        if e.is_integer():
            return apow(self, e)
        # a (a^e)' = e a' a^e, on the principal branch of the constant term
        a = self.coeffs
        out = [apow(a[0], e)]
        inv = ainv(a[0])
        for n in range(1, len(a)):
            acc = ((e + 1.0) - n) * a[1] * out[n - 1]
            for k in range(2, n + 1):
                acc = acc + (((e + 1.0) * k - n) * a[k]) * out[n - k]
            out.append(acc * (inv * (1.0 / n)))
        return Jet(out, self.tag)

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"Jet(coeffs={self.coeffs}, tag={self.tag})"

