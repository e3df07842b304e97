import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warpgeo import expr as E
from warpgeo import jet as J
from warpgeo.errors import EvalDomainError, ExprSyntaxError, UsageError


SPAN = (0, 0)  # AST equality ignores spans
ASTS = st.recursive(
    st.one_of(
        st.builds(E.Num, st.floats(min_value=0.0, allow_infinity=False), st.just(SPAN)),
        st.builds(E.Name, st.from_regex(r"[A-Za-z][A-Za-z0-9]*", fullmatch=True), st.just(SPAN)),
    ),
    lambda sub: st.one_of(
        st.builds(E.Neg, sub, st.just(SPAN)),
        st.builds(E.BinOp, st.sampled_from("+-*/^"), sub, sub, st.just(SPAN)),
        st.builds(E.Call, st.sampled_from(E.FUNCTIONS), sub, st.just(SPAN)),
    ),
    max_leaves=12,
)


class TestParse:
    def test_product_chain(self):
        ast = E.parse("r*u*cos(v)")
        assert isinstance(ast, E.BinOp) and ast.op == "*"
        assert isinstance(ast.left, E.BinOp) and ast.left.op == "*"
        assert ast.left.left.ident == "r"
        assert ast.left.right.ident == "u"
        assert isinstance(ast.right, E.Call) and ast.right.fn == "cos"
        assert ast.right.arg.ident == "v"

    def test_power_form(self):
        ast = E.parse("(a*t+b)^(1/m)")
        assert isinstance(ast, E.BinOp) and ast.op == "^"
        assert isinstance(ast.left, E.BinOp) and ast.left.op == "+"
        assert isinstance(ast.right, E.BinOp) and ast.right.op == "/"

    def test_truncated_input(self):
        with pytest.raises(ExprSyntaxError) as exc:
            E.parse("1+")
        assert exc.value.offset == 2

    def test_unbalanced_paren(self):
        with pytest.raises(ExprSyntaxError):
            E.parse("sin(u")

    def test_unknown_function(self):
        with pytest.raises(ExprSyntaxError):
            E.parse("tan(u)")

    def test_bad_character(self):
        with pytest.raises(ExprSyntaxError):
            E.parse("u @ v")

    def test_power_right_associative(self):
        assert E.eval_value(E.parse("2^3^2"), {}) == 512.0

    def test_power_binds_tighter_than_unary_minus(self):
        assert E.eval_value(E.parse("-2^2"), {}) == -4.0

    def test_mul_binds_looser_than_power(self):
        assert E.eval_value(E.parse("2*3^2"), {}) == 18.0

    def test_spans_cover_source(self):
        src = "r*u*cos(v)"
        ast = E.parse(src)
        assert ast.span == (0, len(src))
        assert ast.right.span == (4, 10)

    @pytest.mark.parametrize(
        "src",
        [
            "r*u*cos(v)",
            "(a*t+b)^(1/m)",
            "-u^2 + sqrt(v)/3",
            "exp(-t)*sin(u - v)",
            "1/(1+u^2+v^2)",
        ],
    )
    def test_pretty_roundtrip(self, src):
        ast = E.parse(src)
        assert E.parse(E.pretty(ast)) == ast

    @settings(max_examples=200, deadline=None)
    @given(ASTS)
    def test_pretty_roundtrip_drawn(self, ast):
        assert E.parse(E.pretty(ast)) == ast


DEPTH = E.MAX_DEPTH


@pytest.mark.parametrize(
    "nest, offset",
    [
        (lambda n: "+".join(["t"] * n), 2 * DEPTH - 1),  # n terms: a tree n levels high
        # n - 1 brackets, minus signs or exponents: the last t nests n deep
        (lambda n: "(" * (n - 1) + "t" + ")" * (n - 1), DEPTH),
        (lambda n: "-" * (n - 1) + "t", DEPTH),
        (lambda n: "^".join(["t"] * n), 2 * DEPTH),
    ],
    ids=["chain", "brackets", "minus signs", "exponents"],
)
def test_parse_refuses_nesting_past_max_depth_where_it_is_crossed(nest, offset):
    # at the limit every walk of the tree runs
    ast = E.parse(nest(DEPTH))
    assert E.free_symbols(ast) == {"t"}
    E.eval_jet(E.fold_constants(ast, {}), {"t": J.jet_variable(0, 0.5, 1, 2)})
    with pytest.raises(ExprSyntaxError) as exc:
        E.parse(nest(DEPTH + 1))
    assert str(exc.value) == f"expression nested more than {DEPTH} levels deep at offset {offset}"
    assert exc.value.offset == offset


class TestFreeSymbols:
    def test_literal(self):
        assert E.free_symbols(E.parse("3.5")) == frozenset()

    def test_power_form(self):
        assert E.free_symbols(E.parse("(a*t+b)^(1/m)")) == {"a", "b", "t", "m"}

    def test_call_argument(self):
        assert E.free_symbols(E.parse("cos(v)+r")) == {"v", "r"}


class TestEvalJet:
    def test_polynomial(self):
        u = J.jet_variable(0, 1.0, 2, 2)
        v = J.jet_variable(1, 2.0, 2, 2)
        j = E.eval_jet(E.parse("u^2+v^2"), {"u": u, "v": v})
        assert j.value == pytest.approx(5.0)
        assert j.partial((1, 0)) == pytest.approx(2.0)
        assert j.partial((0, 1)) == pytest.approx(4.0)

    def test_warp_jet(self):
        t = J.jet_variable(0, 2.0, 1, 2)
        j = E.eval_jet(E.parse("(a*t+b)^(1/m)"), {"t": t}, {"a": 1, "b": 2, "m": 2})
        assert j.value == pytest.approx(2.0)
        assert j.partial((1,)) == pytest.approx(0.25)
        assert j.partial((2,)) == pytest.approx(-1 / 32)

    def test_params_enter_as_constants(self):
        u = J.jet_variable(0, 1.0, 1, 2)
        j = E.eval_jet(E.parse("r*u"), {"u": u}, {"r": 3.0})
        assert j.partial((1,)) == pytest.approx(3.0)

    def test_unbound_identifier(self):
        u = J.jet_variable(0, 1.0, 1, 2)
        with pytest.raises(UsageError):
            E.eval_jet(E.parse("u+q"), {"u": u})

    def test_domain_error_carries_span(self):
        src = "1 + log(u)"
        u = J.jet_variable(0, 0.0, 1, 2)
        with pytest.raises(EvalDomainError) as exc:
            E.eval_jet(E.parse(src), {"u": u})
        lo, hi = exc.value.span
        assert src[lo:hi] == "log(u)"

    def test_variable_exponent(self):
        u = J.jet_variable(0, 2.0, 2, 2)
        v = J.jet_variable(1, 3.0, 2, 2)
        j = E.eval_jet(E.parse("u^v"), {"u": u, "v": v})
        assert j.value == pytest.approx(8.0)
        # d/du u^v = v u^(v-1)
        assert j.partial((1, 0)) == pytest.approx(12.0)
        # d/dv u^v = u^v log u
        assert j.partial((0, 1)) == pytest.approx(8.0 * math.log(2.0))

    @pytest.mark.parametrize("order", [0, 2])
    def test_constant_exponent_takes_jpow(self, monkeypatch, order):
        # an exponent without a variable keeps jpow's rule, which takes an
        # integer power of a negative base
        calls = []
        jpow = J.jpow
        monkeypatch.setattr(J, "jpow", lambda a, p: calls.append(p) or jpow(a, p))
        u = J.jet_variable(0, 0.5, 1, order)
        assert E.eval_jet(E.parse("u+(-2)^2"), {"u": u}).value == 4.5
        assert calls == [2.0]

    @pytest.mark.parametrize("order", [0, 2])
    def test_exponent_holding_a_variable_takes_the_log_rule(self, order):
        # 0*t is 0 in value, but it holds t: the base must be positive
        t = J.jet_variable(0, 1.0, 1, order)
        with pytest.raises(EvalDomainError, match="log of non-positive value"):
            E.eval_jet(E.parse("(t-2)^(0*t)+1"), {"t": t})

    @pytest.mark.parametrize(
        "src,env",
        [
            ("r*u*cos(v)", {"r": 1.5, "u": 0.7, "v": 2.2}),
            ("exp(-u)*sqrt(v)+u/v", {"u": 0.3, "v": 1.8}),
            ("(u+2)^(1/2) - log(v)", {"u": 0.5, "v": 3.0}),
            ("u^0*v", {"u": -0.5, "v": 3.0}),
        ],
    )
    def test_order_zero_matches_plain_eval(self, src, env):
        ast = E.parse(src)
        jets = {k: J.jet_constant(x, 1, 0) for k, x in env.items()}
        assert E.eval_jet(ast, jets).value == pytest.approx(
            E.eval_value(ast, env), abs=1e-13
        )


class TestEvalJetConstants:
    """Numbers and params stay constants; a product or quotient with one is
    a scale with the bits of the product with its constant jet."""

    @pytest.mark.parametrize(
        "src, want",
        [
            ("u*r", lambda u, r: u * r), ("r*u", lambda u, r: r * u),
            ("u/r", lambda u, r: u / r), ("r/u", lambda u, r: r / u),
            ("u*(r*2)", lambda u, r: u * (r * J.jet_constant(2.0, 2, 3))),
            ("u/-r", lambda u, r: u / -r),
        ],
    )
    @pytest.mark.parametrize("r", [3.0, -0.25, np.array([0.5, -2.0, 3.0])])
    def test_scale_equals_the_product_with_a_constant_jet(self, src, want, r):
        u = J.jet_variable(0, 1.5, 2, 3)
        u.coeffs[4] = -0.0  # a signed zero the product turns into +0.0
        got = E.eval_jet(E.parse(src), {"u": u}, {"r": r}).coeffs
        want = want(u, J.jet_constant(r, 2, 3)).coeffs
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))

    def test_constant_result_is_a_jet(self):
        u = J.jet_variable(0, 0.5, 1, 2)
        got = E.eval_jet(E.parse("2*r+exp(0)"), {"u": u}, {"r": np.array([1.0, 2.0])})
        assert np.array_equal(got.coeffs, J.jet_constant(np.array([3.0, 5.0]), 1, 2).coeffs)

    @pytest.mark.parametrize(
        "src, bad", [("u+log(0-1)", "log(0-1)"), ("u*sqrt(-r)", "sqrt(-r)"),
                     ("u/z", "u/z"), ("u+1/z", "1/z"), ("u*z^-1", "z^-1")],
    )
    def test_constant_domain_error_keeps_its_span(self, src, bad):
        u = J.jet_variable(0, 0.5, 1, 2)
        with pytest.raises(EvalDomainError) as exc:
            E.eval_jet(E.parse(src), {"u": u}, {"r": 2.0, "z": 0.0})
        lo, hi = exc.value.span
        assert src[lo:hi] == bad

    def test_batched_param_out_of_range_is_refused(self):
        u = J.jet_variable(0, 0.5, 1, 2)
        with pytest.raises(EvalDomainError) as exc:
            E.eval_jet(E.parse("u*r"), {"u": u}, {"r": np.array([1.0, math.inf, math.nan])})
        assert str(exc.value) == "constant r leaves the float range (inf)"
        assert (exc.value.value, exc.value.span) == (math.inf, (2, 3))


class TestFoldConstants:
    def test_each_largest_constant_subtree_is_one_evaluation(self, monkeypatch):
        calls, eval_jet = [], E.eval_jet

        def counted(ast, variables, params=None):
            calls.append(E.pretty(ast))
            return eval_jet(ast, variables, params)

        monkeypatch.setattr(E, "eval_jet", counted)
        folded = E.fold_constants(E.parse("(a*t+b)^(1/m)"), {"a": 3.0, "b": 1.0, "m": 2})
        assert calls == ["a", "b", "(1.0/m)"]
        assert folded == E.parse("(3*t+1)^0.5")


class TestEvalValue:
    @pytest.mark.parametrize("src", ["2+cos(1e308*1e308)", "sin(u*0-1e308*1e308)", "cos(u)"])
    def test_non_finite_sine_argument_is_a_domain_error(self, src):
        with pytest.raises(EvalDomainError, match="non-finite") as exc:
            E.eval_value(E.parse(src), {"u": math.nan})
        lo, hi = exc.value.span
        assert src[lo:hi].startswith(("sin(", "cos("))

    def test_math_value_error_is_a_domain_error(self, monkeypatch):
        monkeypatch.setitem(E._VAL_FN, "exp", math.acos)
        with pytest.raises(EvalDomainError, match="domain") as exc:
            E.eval_value(E.parse("1+exp(2)"), {})
        assert exc.value.span == (2, 8)

    def test_division_by_zero(self):
        with pytest.raises(EvalDomainError):
            E.eval_value(E.parse("1/u"), {"u": 0.0})

    def test_negative_fractional_power(self):
        with pytest.raises(EvalDomainError):
            E.eval_value(E.parse("u^0.5"), {"u": -1.0})

    def test_integer_power_of_negative(self):
        assert E.eval_value(E.parse("u^3"), {"u": -2.0}) == -8.0

    def test_unbound(self):
        with pytest.raises(UsageError):
            E.eval_value(E.parse("q"), {})
