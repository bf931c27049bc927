"""Truncated holomorphic Taylor jets and shared scalar utilities.

A :class:`Jet` carries the value of a holomorphic expression together with
its mixed partial derivatives (as Taylor coefficients) up to a fixed total
degree in a set of designated coordinates.  Feeding jets through a kernel
evaluator is how every differential operator in this package is applied:
no formula is ever differentiated by hand.

Jet coefficients may themselves be jets (nested lifts) or numpy arrays
(vectorised evaluation); the arithmetic only assumes ring operations.
"""

from __future__ import annotations

import cmath
import itertools
import math
from math import factorial

import numpy as np

MAX_JET_ORDER = 3

_TAG_COUNTER = itertools.count(1)


def fresh_tag() -> int:
    """Allocate a jet tag.  Jets with distinct tags model independent
    perturbation directions (nested lifts); arithmetic nests the lower tag
    inside the higher one instead of convolving them."""
    return next(_TAG_COUNTER)


class BranchCutError(ValueError):
    """Principal power requested on the closed negative real axis."""


class NonFiniteError(ArithmeticError):
    """A numeric operation produced NaN or an infinity.  ``rows`` holds the
    indices of the non-finite rows of a panel, None when not known."""
    rows = None


class JetOrderError(ValueError):
    """Jet order outside the supported range 0..MAX_JET_ORDER."""


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


def abs2(x):
    """|x|^2 for scalars or arrays (works via .real/.imag)."""
    return x.real * x.real + x.imag * x.imag


def _binom_real(e: float, i: int) -> float:
    out = 1.0
    for j in range(i):
        out *= (e - j) / (j + 1)
    return out


# ---------------------------------------------------------------------------
# jets


def _zero_index(nvars: int) -> tuple:
    return (0,) * nvars


class Jet:
    """Truncated Taylor expansion of a holomorphic quantity.

    ``coeffs`` maps a multi-index ``(k_1, ..., k_nvars)`` with total degree
    at most ``order`` to the Taylor coefficient of ``prod_j (dz_j)^{k_j}``.
    The mixed partial derivative of the underlying function is the
    coefficient times the product of factorials of the index.

    ``tag`` identifies the seeding batch.  Jets of equal tag share a
    variable set and convolve; a jet of lower tag entering an operation is
    treated as a scalar coefficient (independent directions nest, with the
    higher tag outermost).
    """

    __slots__ = ("order", "nvars", "coeffs", "tag")

    def __init__(self, order: int, nvars: int, coeffs: dict, tag: int = 0):
        if order < 0 or order > MAX_JET_ORDER:
            raise JetOrderError(f"jet order {order} outside 0..{MAX_JET_ORDER}")
        if nvars < 1:
            raise ValueError("jet needs at least one variable")
        self.order = order
        self.nvars = nvars
        self.coeffs = coeffs
        self.tag = tag

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, value, order: int, nvars: int, tag: int = 0) -> "Jet":
        return cls(order, nvars, {_zero_index(nvars): value}, tag)

    @classmethod
    def variable(cls, value, var: int, order: int, nvars: int, tag: int = 0) -> "Jet":
        """Seed jet ``value + dz_var``."""
        if not 0 <= var < nvars:
            raise ValueError("variable index out of range")
        coeffs = {_zero_index(nvars): value}
        if order >= 1:
            unit = tuple(1 if j == var else 0 for j in range(nvars))
            coeffs[unit] = 1.0
        return cls(order, nvars, coeffs, tag)

    # -- accessors ----------------------------------------------------

    def value(self):
        return self.coeffs.get(_zero_index(self.nvars), 0.0)

    def coefficient(self, index: tuple):
        if len(index) != self.nvars:
            raise ValueError("index arity mismatch")
        if sum(index) > self.order:
            raise JetOrderError("coefficient beyond the truncation order")
        return self.coeffs.get(tuple(index), 0.0)

    def derivative(self, index: tuple):
        """Mixed partial derivative for the given multi-index."""
        scale = 1
        for k in index:
            scale *= factorial(k)
        return self.coefficient(index) * scale

    def truncate(self, order: int) -> "Jet":
        if order >= self.order:
            return self
        kept = {k: v for k, v in self.coeffs.items() if sum(k) <= order}
        return Jet(order, self.nvars, kept, self.tag)

    def partial(self, var: int) -> "Jet":
        """d/dz_var, one order lower."""
        if self.order == 0:
            raise JetOrderError("cannot differentiate an order-0 jet")
        out: dict = {}
        for k, v in self.coeffs.items():
            if k[var] == 0:
                continue
            kk = list(k)
            kk[var] -= 1
            out[tuple(kk)] = v * k[var]
        return Jet(self.order - 1, self.nvars, out, self.tag)

    # -- ring operations ----------------------------------------------

    __array_ufunc__ = None  # keep numpy from elementwise-broadcasting over jets

    def _is_peer(self, other) -> bool:
        if not isinstance(other, Jet) or other.tag != self.tag:
            return False
        if other.nvars != self.nvars:
            raise ValueError("jets of equal tag must share a variable set")
        return True

    def __add__(self, other):
        if isinstance(other, Jet) and other.tag > self.tag:
            return other.__add__(self)
        if self._is_peer(other):
            o = min(self.order, other.order)
            a, b = self.truncate(o), other.truncate(o)
            out = dict(a.coeffs)
            for k, v in b.coeffs.items():
                out[k] = out[k] + v if k in out else v
            return Jet(o, self.nvars, out, self.tag)
        z = _zero_index(self.nvars)
        out = dict(self.coeffs)
        out[z] = out[z] + other if z in out else other
        return Jet(self.order, self.nvars, out, self.tag)

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.order, self.nvars,
                   {k: -v for k, v in self.coeffs.items()}, self.tag)

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
            o = min(self.order, other.order)
            a, b = self.truncate(o), other.truncate(o)
            out: dict = {}
            for k1, v1 in a.coeffs.items():
                d1 = sum(k1)
                for k2, v2 in b.coeffs.items():
                    if d1 + sum(k2) > o:
                        continue
                    key = tuple(i + j for i, j in zip(k1, k2))
                    term = v1 * v2
                    out[key] = out[key] + term if key in out else term
            return Jet(o, self.nvars, out, self.tag)
        return Jet(self.order, self.nvars,
                   {k: v * other for k, v in self.coeffs.items()}, self.tag)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other.reciprocal()
        return self * (1.0 / other)

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def _nilpotent(self):
        rest = {k: v for k, v in self.coeffs.items() if sum(k) > 0}
        return Jet(self.order, self.nvars, rest, self.tag)

    def _one(self):
        return Jet.constant(1.0, self.order, self.nvars, self.tag)

    def reciprocal(self) -> "Jet":
        c = self.value()
        ic = ainv(c)
        n = self._nilpotent()
        # 1/(c+n) = (1/c) * sum_i (-n/c)^i
        term = self._one()
        acc = self._one()
        step = n * (-1.0) * ic
        for _ in range(self.order):
            term = term * step
            acc = acc + term
        return acc * ic

    def exp(self) -> "Jet":
        c = self.value()
        n = self._nilpotent()
        acc = self._one()
        term = self._one()
        for i in range(1, self.order + 1):
            term = term * n * (1.0 / i)
            acc = acc + term
        return acc * aexp(c)

    def __pow__(self, exponent):
        e = float(exponent)
        if e.is_integer():
            n = int(e)
            if n == 0:
                return self._one()
            if n < 0:
                return self.reciprocal().__pow__(-n)
            return _int_pow(self, n)
        # generalized binomial series around the (invertible) constant term
        c = self.value()
        head = apow(c, e)
        ratio = self._nilpotent() * ainv(c)
        acc = self._one()
        term = self._one()
        for i in range(1, self.order + 1):
            term = term * ratio
            acc = acc + term * _binom_real(e, i)
        return acc * head

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"Jet(order={self.order}, nvars={self.nvars}, coeffs={self.coeffs})"

