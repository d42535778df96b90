import pytest
from hypothesis import given
from hypothesis import strategies as st

from mixbench.amplitudes import (
    AmplitudeForm,
    approx_eq,
    ensure_finite,
    format_complex,
    format_form,
    parse_complex,
)

finite_floats = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e6, max_value=1e6
)
finite_complex = st.builds(complex, finite_floats, finite_floats)


def test_form_evaluate_is_linear_in_coefficients():
    f = AmplitudeForm(1 + 1j, -2)
    sa, sb = 0.3 + 0.1j, 0.2 + 0j
    assert f.evaluate(sa, sb) == (1 + 1j) * sa + (-2) * sb


def test_non_finite_coefficients_rejected():
    with pytest.raises(ValueError, match="ca must be finite, got"):
        AmplitudeForm(ca=float("nan"))
    with pytest.raises(ValueError, match="cb must be finite, got"):
        AmplitudeForm(ca=1, cb=complex(0, float("inf")))
    with pytest.raises(ValueError):
        ensure_finite(complex(0, float("inf")))


def test_approx_eq_mixed_scale():
    assert approx_eq(1.0, 1.0 + 5e-11, 1e-10)
    assert not approx_eq(1.0, 1.0 + 5e-10, 1e-10)
    # relative at large magnitude
    assert approx_eq(1e6, 1e6 + 5e-5, 1e-10)
    with pytest.raises(ValueError):
        approx_eq(1.0, 1.0, 0.0)


@pytest.mark.parametrize(
    "text,value",
    [
        ("1", 1 + 0j),
        ("-2", -2 + 0j),
        ("0.3+0.1i", 0.3 + 0.1j),
        ("1-2i", 1 - 2j),
        ("i", 1j),
        ("-i", -1j),
        ("3+i", 3 + 1j),
        ("2.5i", 2.5j),
        ("1e-3", 1e-3 + 0j),
        ("1e+5+2i", 1e5 + 2j),
    ],
)
def test_parse_complex(text, value):
    assert parse_complex(text) == value


@pytest.mark.parametrize("text", ["", "abc", "i2", "1++2i", "nan", "infi", "1+2"])
def test_parse_complex_rejects(text):
    with pytest.raises(ValueError):
        parse_complex(text)


@given(finite_complex)
def test_format_parse_round_trip(z):
    assert parse_complex(format_complex(z)) == z


def test_format_complex_compact_forms():
    assert format_complex(1 + 0j) == "1"
    assert format_complex(1j) == "i"
    assert format_complex(-1j) == "-i"
    assert format_complex(0j) == "0"
    assert format_complex(0.3 + 0.1j) == "0.3+0.1i"


def test_format_form():
    assert format_form(AmplitudeForm()) == "0"
    assert format_form(AmplitudeForm(ca=0.5, cb=0.5)) == "0.5*sa + 0.5*sb"
    # interior signs get parenthesized so the rendering re-parses unambiguously
    assert format_form(AmplitudeForm(ca=1 + 1j)) == "(1+i)*sa"
    assert format_form(AmplitudeForm(ca=-2, cb=1)) == "-2*sa + 1*sb"
