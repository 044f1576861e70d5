"""Parser, evaluator, and symbolic-derivative checks for the expression language."""

import math

import numpy as np
import pytest

from tubeflux.expr import (
    MAX_DEPTH,
    Const,
    EvalDomainError,
    ExprError,
    ExprSyntaxError,
    Mul,
    Opaque,
    Pow,
    Var,
    differentiate,
    evaluate,
    parse,
    to_string,
)


def ev(text, z):
    return evaluate(parse(text), z)


class TestParseAndEvaluate:
    def test_polynomial_with_imaginary_unit(self):
        assert ev("z^2 + i", 2.0) == 4.0 + 1.0j

    def test_division_binds_before_multiplication_is_left_to_right(self):
        # 1/2*z parses as (1/2)*z, not 1/(2*z)
        assert ev("1/2*z", 4.0) == 2.0

    def test_exp_log_round_trip(self):
        z = 1.0 + 1.0j
        assert abs(ev("exp(log(z))", z) - z) < 1e-15

    def test_unary_minus_and_powers(self):
        assert ev("-z^2", 3.0) == -9.0
        assert ev("(-z)^2", 3.0) == 9.0
        assert ev("z^-2", 2.0) == 0.25

    def test_scalar_returns_python_complex(self):
        out = ev("z + 1", 0.5)
        assert isinstance(out, complex)

    def test_array_evaluation_matches_scalar(self):
        rng = np.random.default_rng(7)
        pts = rng.normal(size=8) + 1j * rng.normal(size=8)
        node = parse("exp(z)*z^3 - i/z")
        batch = evaluate(node, pts)
        singles = np.array([evaluate(node, p) for p in pts])
        assert np.allclose(batch, singles, rtol=0, atol=1e-14)

    def test_whitespace_and_nesting(self):
        assert ev(" ( z + 1 ) * ( z - 1 ) ", 3.0) == 8.0


class TestSyntaxErrors:
    def test_unexpected_character_reports_position(self):
        with pytest.raises(ExprSyntaxError, match="position"):
            parse("z + $")
        try:
            parse("z + $")
        except ExprSyntaxError as exc:
            assert exc.pos == 4

    def test_unknown_name(self):
        with pytest.raises(ExprSyntaxError, match="unknown name"):
            parse("sin(z)")

    def test_trailing_input(self):
        with pytest.raises(ExprSyntaxError, match="trailing input"):
            parse("z + 1 )")

    def test_fractional_exponent_rejected(self):
        with pytest.raises(ExprSyntaxError, match="integer"):
            parse("z^0.5")

    def test_parenthesised_non_integer_exponent_rejected(self):
        with pytest.raises(ExprSyntaxError, match="integer"):
            parse("z^(1.5)")

    def test_empty_input(self):
        with pytest.raises(ExprSyntaxError):
            parse("")

    @pytest.mark.parametrize("text, message, pos", [
        ("exp z", "expected '(' after exp", 4),
        ("exp(z", "expected ')'", 5),
        ("(z", "expected ')'", 2),
    ])
    def test_missing_parenthesis_reports_position(self, text, message, pos):
        with pytest.raises(ExprSyntaxError) as info:
            parse(text)
        assert str(info.value) == f"{message} (position {pos})"
        assert info.value.pos == pos


class TestDepth:
    """parse refuses a tree, or a nest of brackets, deeper than MAX_DEPTH."""

    @pytest.mark.parametrize("text, pos", [
        ("(" * 300 + "z" + ")" * 300, 100),  # a one-node tree in 300 brackets
        ("z" + "+0*z" * 1500, 393),  # a flat text whose sum nests to the left
        ("z" + "+z" * 100, 199),
        ("-" * 101 + "z", 100),
        ("exp(" * 101 + "z" + ")" * 101, 400),
    ], ids=["brackets", "sum of products", "sum", "signs", "calls"])
    def test_refused_at_its_position(self, text, pos):
        with pytest.raises(ExprSyntaxError) as info:
            parse(text)
        assert str(info.value) == \
            f"expression nested deeper than {MAX_DEPTH} levels (position {pos})"
        assert info.value.pos == pos

    @pytest.mark.parametrize("text", [
        "z" + "+z" * 99,
        "1/(" * 99 + "z" + ")" * 99,
        "(" * 98 + "z" + "*z)" * 98,
        "log(" * 49 + "z + 9" + ") + 9" * 49,
        "-" * 99 + "z",
    ], ids=["sum", "quotients", "products", "logs", "signs"])
    def test_deepest_trees_differentiate_evaluate_and_print(self, text):
        node = parse(text)
        d = differentiate(node)
        z, h = 1.5 + 0.1j, 1e-6
        value, slope = evaluate([node, d], z)
        central = (evaluate(node, z + h) - evaluate(node, z - h)) / (2 * h)
        assert abs(slope - central) <= 1e-6 * (1 + abs(slope))
        assert parse(to_string(node)) == node
        assert to_string(d)


class TestDomainErrors:
    def test_division_by_zero_names_the_point(self):
        with pytest.raises(EvalDomainError, match="z="):
            ev("1/z", 0.0)

    def test_log_of_zero(self):
        with pytest.raises(EvalDomainError):
            ev("log(z)", 0.0)

    def test_log_on_the_cut(self):
        # points on the negative real axis are rejected, not silently branched
        with pytest.raises(EvalDomainError):
            ev("log(z)", -1.0)

    def test_log_just_off_the_cut_is_fine(self):
        out = ev("log(z)", -1.0 + 1e-6j)
        assert abs(out.imag - math.pi) < 1e-5

    def test_zero_base_negative_power(self):
        with pytest.raises(EvalDomainError):
            ev("z^-1", 0.0)

    def test_array_error_reports_first_bad_point(self):
        node = parse("1/z")
        with pytest.raises(EvalDomainError):
            evaluate(node, np.array([1.0, 0.0, 2.0]))


class TestDifferentiate:
    def test_monomial(self):
        d = differentiate(parse("z^3"))
        assert abs(evaluate(d, 2.0) - 12.0) < 1e-15

    def test_product_and_quotient(self):
        rng = np.random.default_rng(11)
        pts = rng.normal(size=6) + 1j * rng.normal(size=6)
        pts = pts[np.abs(pts) > 0.3]
        for text, dtext in [
            ("z*exp(z)", "exp(z)*(1 + z)"),
            ("1/z", "-1/z^2"),
            ("log(z)*z", "log(z) + 1"),
        ]:
            d = differentiate(parse(text))
            ref = parse(dtext)
            for p in pts:
                if p.real < 0 and abs(p.imag) < 1e-12:
                    continue
                assert abs(evaluate(d, p) - evaluate(ref, p)) < 1e-12

    def test_negative_power_rule(self):
        d = differentiate(parse("z^-2"))
        assert abs(evaluate(d, 2.0) - (-2.0 / 2.0**3)) < 1e-15

    def test_chain_rule_through_exp(self):
        d = differentiate(parse("exp(z^2)"))
        z = 0.7 + 0.2j
        assert abs(evaluate(d, z) - 2 * z * np.exp(z * z)) < 1e-13

    def test_constant_derivative_folds_to_zero(self):
        for text in ("3 + i", "z^0"):
            d = differentiate(parse(text))
            assert isinstance(d, Const) and d.value == 0, text

    def test_opaque_without_derivative_raises(self):
        node = Opaque("blob", lambda z: z, None)
        with pytest.raises(ExprError, match="blob"):
            differentiate(node)


class TestRoundTrip:
    EXPRESSIONS = [
        "z^2 + i",
        "1/2*z",
        "exp(log(z))",
        "-(z + 1)^3/(z - 2*i)",
        "exp(z)*z^-2 + 0.5",
        "i*z - (1 + i)/(z^2 + 4)",
    ]

    def test_print_then_reparse_evaluates_identically(self):
        rng = np.random.default_rng(42)
        pts = 0.5 + rng.random(100) * 2.0 + 1j * (rng.random(100) - 0.5)
        for text in self.EXPRESSIONS:
            node = parse(text)
            again = parse(to_string(node))
            a = evaluate(node, pts)
            b = evaluate(again, pts)
            assert np.array_equal(a, b), text

    def test_derivative_of_reparsed_matches(self):
        node = parse("z^3 - 2*z")
        d1 = differentiate(node)
        d2 = differentiate(parse(to_string(node)))
        pts = np.linspace(0.5, 2.0, 9) + 0.3j
        assert np.allclose(evaluate(d1, pts), evaluate(d2, pts), rtol=0, atol=0)

    def test_var_and_const_render(self):
        assert to_string(Var()) == "z"
        assert parse(to_string(Const(1.5 + 2j))) is not None

    # the printer's -i and k*i forms, and a constant base under a power
    CONSTANT_FORMS = {
        "-i*z": Mul(Const(-1j), Var()),
        "2.5*i*z": Mul(Const(2.5j), Var()),
        "-2.5*i*z": Mul(Const(-2.5j), Var()),
        "2.0^3": Pow(Const(2), 3),
        "(-2.0)^3": Pow(Const(-2), 3),
        "(2.0*i)^2": Pow(Const(2j), 2),
    }

    @pytest.mark.parametrize("text", list(CONSTANT_FORMS))
    def test_imaginary_and_power_constants_reparse(self, text):
        node = self.CONSTANT_FORMS[text]
        assert to_string(node) == text
        pts = np.array([0.7 + 0.3j, -1.2 + 0.5j, 2.0 - 1.0j])
        assert np.array_equal(evaluate(parse(text), pts), evaluate(node, pts))


class TestSeveralRoots:
    def test_roots_come_back_in_order(self):
        g = parse("exp(z)*z")
        dg = differentiate(g)
        assert evaluate([g, dg], 0.0) == [0.0, 1.0]
        out = evaluate((dg, g), np.array([0.0, 1.0]))
        assert isinstance(out, list) and len(out) == 2
        assert np.array_equal(out[1], [0.0, math.e])

    def test_composed_leaf_takes_its_arg_once_per_pass(self):
        calls = []

        def square(z):
            calls.append(len(z))
            return z * z

        u = Opaque("sq", square, Mul(Const(2.0), Var()))
        g = Mul(Opaque("exp", np.exp, Opaque("exp'", np.exp, arg=u), u), Const(3.0))
        dg = differentiate(g)
        z = np.array([0.5, 1.0j])
        value, deriv = evaluate([g, dg], z)
        assert calls == [2]  # g and g' both hold u, through exp and exp'
        assert np.array_equal(value, np.exp(z * z) * 3.0)
        assert np.array_equal(deriv, np.exp(z * z) * (2.0 * z) * 3.0)  # chain rule
        assert to_string(g) == "exp(sq(z))*3.0"
        assert to_string(dg) == "exp'(sq(z))*2.0*z*3.0"
