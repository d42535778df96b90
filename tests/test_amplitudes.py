import copy
import pickle

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
    # The message names the first part that is not finite, with its value.
    with pytest.raises(ValueError) as info:
        AmplitudeForm(ca=float("nan"), cb=float("inf"))
    assert str(info.value) == "ca must be finite, got (nan+0j)"
    with pytest.raises(ValueError) as info:
        AmplitudeForm(1, complex(0, float("-inf")))
    assert str(info.value) == "cb must be finite, got -infj"


def test_form_defaults_and_construction():
    zero = AmplitudeForm()
    assert (zero.ca, zero.cb) == (0j, 0j)
    assert type(zero.ca) is complex and type(zero.cb) is complex
    form = AmplitudeForm(1, 2.5)
    assert (form.ca, form.cb) == (1 + 0j, 2.5 + 0j)
    assert type(form.ca) is complex and type(form.cb) is complex
    assert form == AmplitudeForm(ca=1, cb=2.5) == AmplitudeForm(1, cb=2.5)
    assert AmplitudeForm(cb=1j) == AmplitudeForm(0, 1j)


def test_form_repr_is_its_keyword_constructor():
    assert repr(AmplitudeForm()) == "AmplitudeForm(ca=0j, cb=0j)"
    assert repr(AmplitudeForm(0.5, -1 + 2j)) == "AmplitudeForm(ca=(0.5+0j), cb=(-1+2j))"
    assert repr(AmplitudeForm(cb=-0.0)) == "AmplitudeForm(ca=0j, cb=(-0+0j))"


def test_form_equality_and_hash_follow_both_parts():
    a, b = AmplitudeForm(1, 2j), AmplitudeForm(1 + 0j, 2j)
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != AmplitudeForm(1, 3j)
    assert a != AmplitudeForm(2, 2j)
    # Only forms compare equal to forms.
    assert a != (1 + 0j, 2j)
    assert a != 1 + 0j


def test_form_is_immutable():
    form = AmplitudeForm(1, 2)
    for name in ("ca", "cb"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(form, name, 0)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(form, name)
    assert form == AmplitudeForm(1, 2)
    assert not hasattr(form, "__dict__")


def test_form_takes_no_new_attribute():
    form = AmplitudeForm(1, 2)
    with pytest.raises(AttributeError):
        form.other = 0
    with pytest.raises(AttributeError):
        del form.other


def test_form_is_not_a_tuple():
    assert not isinstance(AmplitudeForm(1, 2), tuple)
    with pytest.raises(TypeError):
        1 * AmplitudeForm()


def test_form_survives_copy_and_pickle():
    form = AmplitudeForm(0.3 + 0.1j, -2)
    assert copy.copy(form) == form
    assert copy.deepcopy(form) == form
    assert pickle.loads(pickle.dumps(form)) == form


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


@pytest.mark.parametrize(
    "z,twin",
    [
        (0j, 0j),
        (-0j, 0j),
        (complex(-0.0, 0.0), 0j),
        (complex(0.0, -0.0), 0j),
        (complex(-0.0, 0.5), complex(0.0, 0.5)),
        (complex(0.5, -0.0), complex(0.5, 0.0)),
    ],
)
def test_format_complex_prints_a_negative_zero_part_as_zero(z, twin):
    # Writers that share one text among amounts equal under == rely on this.
    assert z == twin
    assert format_complex(z) == format_complex(twin)


def test_format_form():
    assert format_form(0j, 0j) == "0"
    assert format_form(complex(-0.0, 0.0), -0j) == "0"
    assert format_form(0.5, 0.5) == "0.5*sa + 0.5*sb"
    # interior signs get parenthesized so the rendering re-parses unambiguously
    assert format_form(1 + 1j, 0j) == "(1+i)*sa"
    assert format_form(0j, -1j) == "-i*sb"
    assert format_form(-2, 1) == "-2*sa + 1*sb"
