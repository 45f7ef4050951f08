import pytest

from hasseorder import algebra
from hasseorder import localring as lr
from hasseorder.errors import ParseError
from hasseorder.parser import evaluate


def make(mode=lr.MIXED, N=8):
    S = lr.base_ring(3, 1, N, mode)
    T = lr.unramified(S, 2)
    return T, algebra.make(T, 1)


def test_integers_and_arithmetic():
    T, A = make()
    assert evaluate(A, "1") == A.one
    assert evaluate(A, "2 + 3") == A.from_int(5)
    assert evaluate(A, "2 * 3 + 1") == A.from_int(7)
    assert evaluate(A, "2 + 3 * 2") == A.from_int(8)  # precedence
    assert evaluate(A, "(2 + 3) * 2") == A.from_int(10)
    assert evaluate(A, "-4") == A.from_int(-4)
    assert evaluate(A, "--4") == A.from_int(4)
    assert evaluate(A, "2^5") == A.from_int(32)


def test_symbols():
    T, A = make()
    assert evaluate(A, "x") == A.pi_D
    assert evaluate(A, "th") == A.from_T(T.gen)
    assert evaluate(A, "pK") == A.from_T(T.uniformizer)
    assert evaluate(A, "x^2") == A.from_T(T.uniformizer)
    assert evaluate(A, "2 + 3*th^2") == A.from_int(2) + \
        A.from_T(T.gen * T.gen) * A.from_int(3)


def test_spec_product():
    T, A = make()
    assert evaluate(A, "(3+x)*(3-x)") == A.from_int(6)


def test_t_only_in_equal_characteristic():
    T, A = make()
    with pytest.raises(ParseError):
        evaluate(A, "t")
    Te, Ae = make(mode=lr.EQUAL)
    assert evaluate(Ae, "t") == Ae.from_T(Te.uniformizer)
    # 'th' must win over 't' followed by garbage
    assert evaluate(Ae, "th") == Ae.from_T(Te.gen)


# (input, message, position) of each parse error, in mixed characteristic
PARSE_ERRORS = [
    ("3 + $", "unexpected character '$'", 4),
    ("1 +", "unexpected token 'eof'", 3),
    ("3 +", "unexpected token 'eof'", 3),
    ("(1 + x", "expected ')'", 6),
    ("(3 + 2", "expected ')'", 6),
    ("x^", "exponent must be a non-negative integer", 2),
    ("x^ ", "exponent must be a non-negative integer", 2),
    ("x^th", "exponent must be a non-negative integer", 2),
    ("x^x", "exponent must be a non-negative integer", 2),
    ("1 2", "unexpected token 'int'", 2),
    ("3 3", "unexpected token 'int'", 2),
    ("", "unexpected token 'eof'", 0),
    ("1/x", "unexpected character '/'", 1),
    ("t", "symbol 't' is only defined in equal characteristic", 0),
    ("(1))", "unexpected token ')'", 3),
    ("1 + * 2", "unexpected token '*'", 4),
]


def test_parse_errors_carry_position():
    T, A = make()
    for text, message, pos in PARSE_ERRORS:
        with pytest.raises(ParseError) as exc:
            evaluate(A, text)
        assert (str(exc.value), exc.value.pos) == (f"{message} (at position {pos})", pos)


def test_negative_exponent_rejected():
    T, A = make()
    # '^-2' is a parse error: exponents are non-negative integers
    with pytest.raises(ParseError):
        evaluate(A, "x^-2")


def test_digits_that_are_not_decimal_and_over_long_literals():
    """A superscript digit is not an INT, and a literal past Python's limit
    on int digits is a parse error at its position."""
    T, A = make()
    with pytest.raises(ParseError) as exc:
        evaluate(A, "x^²")
    assert exc.value.pos == 2
    with pytest.raises(ParseError) as exc:
        evaluate(A, "x + " + "1" * 5000)
    assert exc.value.pos == 4
    # any Unicode decimal digit is one
    assert evaluate(A, "٣ + x") == evaluate(A, "3 + x")
