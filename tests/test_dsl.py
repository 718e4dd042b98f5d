"""Expression language: grammar, evaluation, formatting, robustness."""

import math
import random
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetlag import dsl, scalars
from jetlag.calculus import lift_d1, lift_taylor, v_coord, x_coord
from jetlag.errors import DslError, DslSemanticError, DslSyntaxError, EvalDomainError
from jetlag.fields import ExpressionField
from jetlag.jet_core import Dims, JetPoint


D21 = Dims(2, 1)
D12 = Dims(1, 2)


def pt(dims, t=None, x=None, v=None):
    t = t or (0.0,) * dims.p
    x = x or (0.0,) * dims.n
    v = v or tuple((0.0,) * dims.p for _ in range(dims.n))
    return JetPoint(t, x, v)


def evaluate(source, dims, point):
    return ExpressionField(source, dims)(point)


_KERNELS = {name: getattr(scalars, f"g_{name}") for name in dsl.FUNCTIONS}


def tree_eval(ast, point):
    """Oracle for the compiled evaluator: a direct walk of the AST over the
    ``scalars`` kernels that raises EvalDomainError at the failing node."""
    cls = ast.__class__
    if cls is dsl.Const:
        return ast.value
    if cls is dsl.VarT:
        return point.t[ast.alpha]
    if cls is dsl.VarX:
        return point.x[ast.i]
    if cls is dsl.VarV:
        return point.v[ast.i][ast.alpha]
    if cls is dsl.Neg:
        return -tree_eval(ast.child, point)
    if cls is dsl.Func:
        kernel, args = _KERNELS[ast.name], (tree_eval(ast.arg, point),)
    else:
        args = (tree_eval(ast.left, point), tree_eval(ast.right, point))
        if cls is dsl.Add:
            return args[0] + args[1]
        if cls is dsl.Sub:
            return args[0] - args[1]
        if cls is dsl.Mul:
            return args[0] * args[1]
        kernel = scalars.g_div if cls is dsl.Div else scalars.g_pow
    try:
        return kernel(*args)
    except (EvalDomainError, ZeroDivisionError, ValueError, OverflowError) as exc:
        raise EvalDomainError(str(exc), offset=ast.offset)


class TestParse:
    def test_flat_kinetic(self):
        value = evaluate("v1_1*v1_1 + v2_1*v2_1", D12, pt(D12, v=((3.0,), (4.0,))))
        assert value == 25.0

    def test_h_is_not_a_function(self):
        with pytest.raises(DslError):
            dsl.parse("h(1,1)", D21)

    def test_sin_power_velocity(self):
        value = evaluate("sin(t1)^2 * v1_2", D21, pt(D21, t=(math.pi / 2, 0.0), v=((0.0, 3.0),)))
        assert value == pytest.approx(3.0)

    def test_index_out_of_range(self):
        with pytest.raises(DslSemanticError):
            dsl.parse("x3", Dims(1, 2))
        with pytest.raises(DslSemanticError):
            dsl.parse("t2", Dims(1, 2))
        with pytest.raises(DslSemanticError):
            dsl.parse("v1_2", Dims(1, 2))

    def test_unknown_identifier(self):
        with pytest.raises(DslSemanticError):
            dsl.parse("foo + 1", D21)

    def test_trailing_input(self):
        with pytest.raises(DslSyntaxError):
            dsl.parse("1 + 2 )", D21)

    def test_empty(self):
        with pytest.raises(DslSyntaxError):
            dsl.parse("   ", D21)

    def test_diagnostic_offsets(self):
        try:
            dsl.parse("1 + @", D21)
        except DslSyntaxError as exc:
            assert exc.diagnostic.offset == 4
        else:
            pytest.fail("expected a syntax error")

    def test_diagnostic_render_line_col(self):
        try:
            dsl.parse("1 + @", D21)
        except DslSyntaxError as exc:
            assert exc.diagnostic.render("1 + @").startswith("1:5:")

    def test_power_right_associative(self):
        assert evaluate("2^3^2", D21, pt(D21)) == 512.0

    def test_unary_minus_binds_power(self):
        assert evaluate("-2^2", D21, pt(D21)) == -4.0

    def test_number_forms(self):
        for text, value in (("1.5", 1.5), ("0.5", 0.5), (".5", 0.5),
                            ("2e3", 2000.0), ("1.5e-2", 0.015)):
            assert evaluate(text, D21, pt(D21)) == value


class TestEval:
    def test_constant(self):
        assert evaluate(dsl.Const(7.0, offset=0), D21, pt(D21)) == 7.0

    def test_square_of_negative(self):
        assert evaluate("v1_1^2", D12, pt(D12, v=((-2.0,), (0.0,)))) == 4.0

    def test_exp_zero(self):
        assert evaluate("exp(t1)*x1", Dims(1, 1), JetPoint((0.0,), (5.0,), ((0.0,),))) == 5.0

    # Evaluated on a point lifted in x1, as derivatives evaluate L: sqrt at
    # zero is only an error when differentiated.
    @pytest.mark.parametrize("source, x1, offset, position", [
        ("1 / x1", 0.0, 2, "1:3"),
        ("log(x1)", 0.0, 0, "1:1"),
        ("sqrt(x1)", 0.0, 0, "1:1"),
        ("x1^(-1)", 0.0, 2, "1:3"),
        ("exp(x1^3)", 10.0, 0, "1:1"),
        ("1 +\n  log(x1)", 0.0, 6, "2:3"),
    ], ids=["div", "log", "sqrt", "negative_power", "exp_overflow", "second_line"])
    def test_division_by_zero_offset(self, source, x1, offset, position):
        field = ExpressionField(source, Dims(1, 1))
        point = lift_d1(JetPoint((0.0,), (x1,), ((0.0,),)), (x_coord(0),))
        with pytest.raises(EvalDomainError) as err:
            field(point)
        assert err.value.offset == offset
        assert str(err.value).startswith(f"{position}: ")
        assert str(err.value).endswith(f" in {source!r}")

    def test_log_domain(self):
        with pytest.raises(EvalDomainError):
            evaluate("log(x1)", Dims(1, 1), JetPoint((0.0,), (-1.0,), ((0.0,),)))

    # The reason names the value, whichever coordinates are seeded: a
    # derivative evaluation that also seeds x must not report the error of
    # a velocity-only one differently.
    @pytest.mark.parametrize("x1, reason", [(-0.5, "sqrt of a negative value"),
                                            (0.0, "sqrt differentiated at zero")])
    def test_sqrt_reason_depends_on_the_value(self, x1, reason):
        field = ExpressionField("sqrt(x1)", Dims(1, 1))
        point = JetPoint((0.0,), (x1,), ((0.0,),))
        probes = [lift_d1(point, (x_coord(0),)), lift_taylor(point, (x_coord(0),)),
                  lift_taylor(point, (v_coord(0, 0),))]
        for q in probes:
            if x1 == 0.0 and q is probes[-1]:
                assert field(q) == 0.0  # x1 is not seeded: sqrt is not differentiated
                continue
            with pytest.raises(EvalDomainError, match=f"1:1: {reason} in "):
                field(q)

    def test_deterministic(self):
        field = ExpressionField("sin(t1) * x1 + t1 / (1 + x1^2)", Dims(1, 1))
        point = JetPoint((0.7,), (0.3,), ((0.0,),))
        values = {field(point) for _ in range(5)}
        assert len(values) == 1

    def test_compiled_matches_tree(self):
        rng = random.Random(21)
        dims = Dims(2, 2)
        failures = 0
        for _ in range(200):
            # parsed text, so that every node carries its own offset
            text = dsl.format_ast(random_ast(rng, dims, depth=4))
            ast = dsl.parse(text, dims)
            field = ExpressionField(text, dims)
            point = pt(dims,
                       t=tuple(rng.uniform(0.1, 2) for _ in range(2)),
                       x=tuple(rng.uniform(0.1, 2) for _ in range(2)),
                       v=tuple(tuple(rng.uniform(0.1, 2) for _ in range(2)) for _ in range(2)))
            for probe in (point, lift_taylor(point, (x_coord(0), v_coord(1, 1)))):
                try:
                    expected = tree_eval(ast, probe)
                except EvalDomainError as exc:
                    failures += 1
                    with pytest.raises(EvalDomainError) as err:
                        field(probe)
                    assert err.value.offset == exc.offset, text
                    continue
                # repr tells -0.0 from 0.0 and matches nan, so this is bitwise
                assert repr(field(probe)) == repr(expected), text
        assert failures >= 10


class TestFormat:
    def test_no_extra_parens(self):
        assert dsl.format_ast(dsl.parse("1+2*3", D21)) == "1 + 2 * 3"

    def test_needed_parens(self):
        assert dsl.format_ast(dsl.parse("(1+2)*3", D21)) == "(1 + 2) * 3"

    def test_subtraction_grouping(self):
        src = "1 - (2 - 3)"
        ast = dsl.parse(src, D21)
        assert dsl.parse(dsl.format_ast(ast), D21) == ast

    def test_variables(self):
        assert dsl.format_ast(dsl.parse("v2_1 * x1 - t2", Dims(2, 2))) == "v2_1 * x1 - t2"


def _nested(shape, depth):
    """Source of ``shape`` exactly ``depth`` levels deep, counting each
    operator, function call and pair of parentheses as a level."""
    half, odd = divmod(depth - 1, 2)  # the two-level shapes: an odd one in parentheses
    return {
        "sum": "v1_1" + "+x1" * (depth - 1),
        "product": "v1_1" + "*x1" * (depth - 1),
        "parens": "(" * (depth - 1) + "v1_1" + ")" * (depth - 1),
        "power": "^".join(["v1_1"] * depth),
        "right_sub": "(" * odd + "x1-(" * half + "v1_1" + ")" * (half + odd),
        "neg": "(" * odd + "-(" * half + "v1_1" + ")" * (half + odd),
        "neg_leaf": "(" * (depth - 2) + "-v1_1" + ")" * (depth - 2),
        "function": "sin(" * (depth - 1) + "v1_1" + ")" * (depth - 1),
    }[shape]


_SHAPES = ("sum", "product", "parens", "power", "right_sub", "neg", "neg_leaf", "function")


class TestDepthBound:
    """An expression nests at most MAX_DEPTH levels; within it every
    recursive walk of the tree stays under Python's limits, and past it the
    parser refuses the expression where the bound is crossed."""

    @pytest.mark.parametrize("shape", _SHAPES)
    def test_deepest_accepted_expression_works_everywhere(self, shape):
        source = _nested(shape, dsl.MAX_DEPTH)
        ast = dsl.parse(source, D12)
        again = dsl.parse(source, D12)
        assert ast == again and hash(ast) == hash(again)
        assert dsl.parse(dsl.format_ast(ast), D12) == ast
        assert ("v", 0, 0) in dsl.used_variables(ast)
        dsl.compile_ast(ast)
        value = ExpressionField(source, D12)(pt(D12, x=(0.5, 0.0), v=((0.25,), (0.0,))))
        assert math.isfinite(value)

    @pytest.mark.parametrize("shape", _SHAPES)
    def test_one_level_more_is_a_syntax_error(self, shape):
        source = _nested(shape, dsl.MAX_DEPTH + 1)
        with pytest.raises(DslSyntaxError, match="nested more than 100 levels deep"):
            dsl.parse(source, D12)

    def test_a_sum_of_200_terms_is_refused_at_the_crossing_operator(self):
        # compiled, each sum was a pair of parentheses: CPython's tokenizer
        # stops at 200 nested pairs
        source = "v1_1^2" + "+x1" * 199
        with pytest.raises(DslSyntaxError) as info:
            dsl.parse(source, D12)
        # v1_1^2 is 2 levels, and the k-th '+' (at offset 3 + 3k) makes 2 + k
        offset = info.value.diagnostic.offset
        assert source[offset] == "+" and offset == 3 + 3 * (dsl.MAX_DEPTH - 1)

    def test_199_nested_parentheses_are_refused_before_the_recursion_runs_out(self):
        source = "(" * 199 + "v1_1^2" + ")" * 199
        with pytest.raises(DslSyntaxError) as info:
            dsl.parse(source, D12)
        # the 100th level holds the 100th '(', the level past it its operand
        assert info.value.diagnostic.offset == dsl.MAX_DEPTH


def random_ast(rng: random.Random, dims: Dims, depth: int):
    """Random parse-image AST (non-negative constants only)."""
    if depth <= 0:
        choice = rng.randrange(4)
        if choice == 0:
            return dsl.Const(round(rng.uniform(0, 9), 3), offset=0)
        if choice == 1:
            return dsl.VarT(rng.randrange(dims.p), offset=0)
        if choice == 2:
            return dsl.VarX(rng.randrange(dims.n), offset=0)
        return dsl.VarV(rng.randrange(dims.n), rng.randrange(dims.p), offset=0)
    kind = rng.randrange(8)
    if kind < 4:
        cls = (dsl.Add, dsl.Sub, dsl.Mul, dsl.Div)[kind]
        return cls(random_ast(rng, dims, depth - 1), random_ast(rng, dims, depth - 1), offset=0)
    if kind == 4:
        return dsl.Neg(random_ast(rng, dims, depth - 1), offset=0)
    if kind == 5:
        return dsl.Pow(random_ast(rng, dims, depth - 1),
                       dsl.Const(float(rng.randrange(0, 4)), offset=0), offset=0)
    name = rng.choice(dsl.FUNCTIONS)
    return dsl.Func(name, random_ast(rng, dims, depth - 1), offset=0)


class TestRoundTrip:
    def test_thousand_random_asts(self):
        rng = random.Random(1234)
        dims = Dims(3, 3)
        for _ in range(1000):
            ast = random_ast(rng, dims, depth=rng.randrange(1, 5))
            text = dsl.format_ast(ast)
            parsed = dsl.parse(text, dims)
            assert parsed == ast and hash(parsed) == hash(ast), text

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_hypothesis_roundtrip(self, data):
        seed = data.draw(st.integers(0, 2**31))
        rng = random.Random(seed)
        dims = Dims(2, 2)
        ast = random_ast(rng, dims, depth=rng.randrange(1, 5))
        assert dsl.parse(dsl.format_ast(ast), dims) == ast


class TestFuzz:
    def test_ten_thousand_random_strings(self):
        rng = random.Random(99)
        alphabet = string.printable + "αβγ∂"
        dims = Dims(2, 2)
        parsed = 0
        for _ in range(10_000):
            length = rng.randrange(1, 40)
            source = "".join(rng.choice(alphabet) for _ in range(length))
            try:
                dsl.parse(source, dims)
                parsed += 1
            except DslError:
                pass
        # sanity: the fuzzer should occasionally produce valid input
        assert parsed >= 1

    def test_grammar_totality_on_near_valid(self):
        rng = random.Random(5)
        tokens = ["t1", "x1", "v1_1", "+", "-", "*", "/", "^", "(", ")", "sin", "1.5", "2"]
        dims = Dims(1, 1)
        for _ in range(2000):
            source = " ".join(rng.choice(tokens) for _ in range(rng.randrange(1, 12)))
            try:
                dsl.parse(source, dims)
            except DslError:
                pass
