"""Complex scalars that stay linear in the two pair-scattering amplitudes."""

from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass

__all__ = [
    "AmplitudeForm",
    "approx_eq",
    "ensure_finite",
    "format_complex",
    "format_form",
    "parse_complex",
]


def ensure_finite(value: complex, what: str = "value") -> complex:
    z = complex(value)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"{what} must be finite, got {z!r}")
    return z


@dataclass(frozen=True, slots=True)
class AmplitudeForm:
    """Scalar of the shape ``c0 + ca*sa + cb*sb``.

    ``sa`` is the amplitude of the pair process sending phi->v, psi->u and
    ``sb`` the amplitude of the exchanged process phi->u, psi->v.  Only one
    scattering event is ever applied, so no products of the two amplitudes
    arise and the form is closed under addition and scalar multiplication.
    """

    c0: complex = 0j
    ca: complex = 0j
    cb: complex = 0j

    def __post_init__(self) -> None:
        c0, ca, cb = complex(self.c0), complex(self.ca), complex(self.cb)
        if not (cmath.isfinite(c0) and cmath.isfinite(ca) and cmath.isfinite(cb)):
            # Raise the message of the first field that is not finite.
            ensure_finite(c0, "c0")
            ensure_finite(ca, "ca")
            ensure_finite(cb, "cb")
        object.__setattr__(self, "c0", c0)
        object.__setattr__(self, "ca", ca)
        object.__setattr__(self, "cb", cb)

    @classmethod
    def constant(cls, value: complex) -> "AmplitudeForm":
        return cls(c0=complex(value))

    @classmethod
    def process_a(cls, value: complex) -> "AmplitudeForm":
        return cls(ca=complex(value))

    @classmethod
    def process_b(cls, value: complex) -> "AmplitudeForm":
        return cls(cb=complex(value))

    def __add__(self, other: "AmplitudeForm") -> "AmplitudeForm":
        if not isinstance(other, AmplitudeForm):
            return NotImplemented
        return AmplitudeForm(self.c0 + other.c0, self.ca + other.ca, self.cb + other.cb)

    def __sub__(self, other: "AmplitudeForm") -> "AmplitudeForm":
        if not isinstance(other, AmplitudeForm):
            return NotImplemented
        return AmplitudeForm(self.c0 - other.c0, self.ca - other.ca, self.cb - other.cb)

    def scaled(self, factor: complex) -> "AmplitudeForm":
        f = complex(factor)
        return AmplitudeForm(self.c0 * f, self.ca * f, self.cb * f)

    def evaluate(self, sa: complex, sb: complex) -> complex:
        return self.c0 + self.ca * complex(sa) + self.cb * complex(sb)

    def is_zero(self) -> bool:
        # Exact comparison on purpose: pruning must never hide a small but
        # genuine interference residue.
        return self.c0 == 0 and self.ca == 0 and self.cb == 0

    def constant_value(self) -> complex:
        if self.ca != 0 or self.cb != 0:
            raise ValueError("form still depends on the scattering amplitudes")
        return self.c0


def approx_eq(a: complex, b: complex, tol: float) -> bool:
    """Mixed absolute/relative comparison: |a-b| <= tol*max(1, |a|, |b|)."""
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    a = complex(a)
    b = complex(b)
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def _format_real(x: float) -> str:
    if x == int(x) and abs(x) < 1e16:
        return str(int(x))
    return repr(x)


def format_complex(z: complex) -> str:
    """Render a complex number in ``a+bi`` text form, e.g. ``0.3+0.1i``."""
    z = complex(z)
    re_part, im_part = z.real, z.imag
    if im_part == 0:
        return _format_real(re_part)
    sign = "-" if im_part < 0 else "+"
    mag = abs(im_part)
    imag = "i" if mag == 1 else _format_real(mag) + "i"
    if re_part == 0:
        return imag if sign == "+" else "-" + imag
    return _format_real(re_part) + sign + imag


_NUMBER = r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_BOTH_RE = re.compile(rf"^(?P<re>[+-]?{_NUMBER})(?P<im>[+-](?:{_NUMBER})?)$")


def parse_complex(text: str) -> complex:
    """Parse ``a+bi`` text such as ``1``, ``-2i`` or ``0.3+0.1i``."""
    s = text.strip().replace(" ", "")
    if not s:
        raise ValueError("empty complex literal")
    if not s.endswith("i"):
        try:
            return ensure_finite(complex(float(s), 0.0), text)
        except ValueError:
            raise ValueError(f"invalid complex literal: {text!r}") from None
    body = s[:-1]
    if body in ("", "+"):
        return 1j
    if body == "-":
        return -1j
    match = _BOTH_RE.match(body)
    if match is not None:
        im_text = match.group("im")
        if im_text in ("+", "-"):
            im_text += "1"
        return ensure_finite(complex(float(match.group("re")), float(im_text)), text)
    try:
        return ensure_finite(complex(0.0, float(body)), text)
    except ValueError:
        raise ValueError(f"invalid complex literal: {text!r}") from None


def format_form(form: AmplitudeForm) -> str:
    """Render a form as e.g. ``0.5*sa + 0.5*sb`` for tables and reports."""
    parts = []
    if form.c0 != 0:
        parts.append(_wrap(format_complex(form.c0)))
    if form.ca != 0:
        parts.append(f"{_wrap(format_complex(form.ca))}*sa")
    if form.cb != 0:
        parts.append(f"{_wrap(format_complex(form.cb))}*sb")
    if not parts:
        return "0"
    return " + ".join(parts)


def _wrap(text: str) -> str:
    # Parenthesize when the rendering contains an interior sign.
    if any(ch in text[1:] for ch in "+-"):
        return f"({text})"
    return text
