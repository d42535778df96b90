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


def test_form_addition_and_scaling():
    f = AmplitudeForm(1, 2, 3) + AmplitudeForm(0.5, -2, 1j)
    assert f == AmplitudeForm(1.5, 0, 3 + 1j)
    assert f.scaled(2) == AmplitudeForm(3, 0, 6 + 2j)
    assert (f - f) == AmplitudeForm()


def test_form_evaluate_is_linear_in_coefficients():
    f = AmplitudeForm(0.5, 1 + 1j, -2)
    sa, sb = 0.3 + 0.1j, 0.2 + 0j
    assert f.evaluate(sa, sb) == 0.5 + (1 + 1j) * sa + (-2) * sb


def test_process_constructors():
    assert AmplitudeForm.constant(2j) == AmplitudeForm(c0=2j)
    assert AmplitudeForm.process_a(3) == AmplitudeForm(ca=3)
    assert AmplitudeForm.process_b(-1) == AmplitudeForm(cb=-1)


def test_is_zero_is_exact():
    assert AmplitudeForm().is_zero()
    assert not AmplitudeForm(ca=1e-300).is_zero()


def test_constant_value_rejects_open_forms():
    assert AmplitudeForm.constant(5).constant_value() == 5
    with pytest.raises(ValueError):
        AmplitudeForm.process_a(1).constant_value()


def test_non_finite_coefficients_rejected():
    with pytest.raises(ValueError):
        AmplitudeForm(c0=float("nan"))
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
    assert format_form(AmplitudeForm(c0=-2, cb=1)) == "-2 + 1*sb"


@given(finite_complex, finite_complex, finite_complex, finite_complex, finite_complex)
def test_form_algebra_matches_direct_evaluation(a, b, c, sa, sb):
    f = AmplitudeForm(a, b, c)
    g = AmplitudeForm(c, a, b)
    lhs = (f + g.scaled(2)).evaluate(sa, sb)
    rhs = f.evaluate(sa, sb) + 2 * g.evaluate(sa, sb)
    assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs), abs(rhs))
