"""Finite-difference reference derivatives for the jet tests."""


def holomorphic_derivative_fd(f, z0: complex, step: float = 1e-5):
    """Central finite-difference derivative of a holomorphic function.

    Differentiates along the real and the imaginary axis separately and
    averages; the mismatch of the two stencils is returned as a
    Cauchy-Riemann residual.
    """
    dre = (f(z0 + step) - f(z0 - step)) / (2.0 * step)
    dim = (f(z0 + 1j * step) - f(z0 - 1j * step)) / (2j * step)
    return (dre + dim) / 2.0, abs(dre - dim)
