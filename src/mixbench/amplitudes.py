"""The scattered coefficient ``ca*sa + cb*sb`` as a form and as text, and ``a+bi`` complex text."""

from __future__ import annotations

import cmath
import math
import re

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


class AmplitudeForm:
    """A scattered coefficient of the shape ``ca*sa + cb*sb``.

    ``sa`` is the amplitude of the pair process sending phi->v, psi->u and
    ``sb`` the amplitude of the exchanged process phi->u, psi->v.  Only one
    scattering event is ever applied, so a scattered coefficient is linear
    in the two amplitudes and has no constant part; an unscattered state
    holds plain complex numbers instead.

    A form is an immutable value: both parts are finite complex numbers,
    assigning or deleting either raises ``AttributeError``, and two forms
    are equal, and hash alike, when both parts are.  It is not a tuple, so
    ``1 * form`` raises ``TypeError`` instead of repeating it.
    """

    __slots__ = ("ca", "cb")

    def __init__(self, ca: complex = 0j, cb: complex = 0j) -> None:
        ca, cb = complex(ca), complex(cb)
        if not (cmath.isfinite(ca) and cmath.isfinite(cb)):
            # Raise the message of the first field that is not finite.
            ensure_finite(ca, "ca")
            ensure_finite(cb, "cb")
        object.__setattr__(self, "ca", ca)
        object.__setattr__(self, "cb", cb)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.ca, self.cb) == (other.ca, other.cb)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.ca, self.cb))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(ca={self.ca!r}, cb={self.cb!r})"

    def __reduce__(self) -> tuple:
        return type(self), (self.ca, self.cb)

    def evaluate(self, sa: complex, sb: complex) -> complex:
        return self.ca * complex(sa) + self.cb * complex(sb)


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


def format_form(ca: complex, cb: complex) -> str:
    """Render ``ca*sa + cb*sb`` as e.g. ``0.5*sa + 0.5*sb`` for tables and reports."""
    parts = []
    if ca != 0:
        parts.append(f"{_wrap(format_complex(ca))}*sa")
    if cb != 0:
        parts.append(f"{_wrap(format_complex(cb))}*sb")
    if not parts:
        return "0"
    return " + ".join(parts)


def _wrap(text: str) -> str:
    # Parenthesize when the rendering contains an interior sign.
    if any(ch in text[1:] for ch in "+-"):
        return f"({text})"
    return text
