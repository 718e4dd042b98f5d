"""Scalar expression language on jet coordinates.

Grammar (one token of lookahead, ^ right-associative):

    expr  := term {("+"|"-") term}
    term  := unary {("*"|"/") unary}
    unary := ["-"] power
    power := atom ["^" unary]
    atom  := NUMBER | IDENT | IDENT "(" expr ")" | "(" expr ")"

Variables are t1..t9, x1..x9 and v{i}_{a} (e.g. v2_1); functions are
sin, cos, tan, exp, log, sqrt, sinh, cosh, abs.  No implicit
multiplication, no user-defined functions.
"""

from __future__ import annotations

from .errors import DslSemanticError, DslSyntaxError
from .jet_core import Dims
from . import scalars

FUNCTIONS = ("sin", "cos", "tan", "exp", "log", "sqrt", "sinh", "cosh", "abs")

_FUNC_IMPL = {
    "sin": scalars.g_sin,
    "cos": scalars.g_cos,
    "tan": scalars.g_tan,
    "exp": scalars.g_exp,
    "log": scalars.g_log,
    "sqrt": scalars.g_sqrt,
    "sinh": scalars.g_sinh,
    "cosh": scalars.g_cosh,
    "abs": scalars.g_abs,
}


class _Located:
    """Base of the AST nodes and ParseDiagnostic: a slotted record of the
    fields ``_fields``, given positionally, plus the source ``offset``, by
    keyword (0 for a node built outside the parser).  The fields compare in
    order and equal records hash equal; the offset is kept for diagnostics
    but left out of both, so an AST compares structurally.  Records are
    immutable by convention.  Plain classes rather than dataclasses, so
    that importing the language compiles no generated source."""

    __slots__ = ("offset",)
    _fields = ()

    def __init__(self, *values, offset: int):
        if len(values) != len(self._fields):
            raise TypeError(f"{type(self).__name__} takes fields {self._fields}")
        for name, value in zip(self._fields, values):
            setattr(self, name, value)
        self.offset = offset

    def _key(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash((self.__class__, self._key()))


class ParseDiagnostic(_Located):
    """Where parsing failed, what went wrong, and which tokens would fit."""

    __slots__ = _fields = ("message", "expected")

    def __init__(self, offset: int, message: str, expected: frozenset = frozenset()):
        super().__init__(message, expected, offset=offset)

    def __str__(self):
        if self.expected:
            alts = ", ".join(sorted(self.expected))
            return f"offset {self.offset}: {self.message} (expected {alts})"
        return f"offset {self.offset}: {self.message}"

    def render(self, source: str) -> str:
        """Render as line:col: message for terminal output."""
        line = source.count("\n", 0, self.offset) + 1
        col = self.offset - (source.rfind("\n", 0, self.offset) + 1) + 1
        return f"{line}:{col}: {self.message}"


# --- AST ------------------------------------------------------------------


class Const(_Located):
    __slots__ = _fields = ("value",)


class VarT(_Located):
    __slots__ = _fields = ("alpha",)  # 0-based


class VarX(_Located):
    __slots__ = _fields = ("i",)


class VarV(_Located):
    __slots__ = _fields = ("i", "alpha")


class Add(_Located):
    __slots__ = _fields = ("left", "right")


class Sub(_Located):
    __slots__ = _fields = ("left", "right")


class Mul(_Located):
    __slots__ = _fields = ("left", "right")


class Div(_Located):
    __slots__ = _fields = ("left", "right")


class Pow(_Located):
    __slots__ = _fields = ("left", "right")


class Neg(_Located):
    __slots__ = _fields = ("child",)


class Func(_Located):
    __slots__ = _fields = ("name", "arg")


ExprAst = object  # any of the node classes above


# --- Tokenizer ------------------------------------------------------------

_OPS = "+-*/^()"


class _Token:
    __slots__ = ("kind", "text", "offset")

    def __init__(self, kind, text, offset):
        self.kind = kind
        self.text = text
        self.offset = offset


def _tokenize(source: str):
    tokens = []
    i, nch = 0, len(source)
    while i < nch:
        ch = source[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if ch in _OPS:
            tokens.append(_Token(ch, ch, i))
            i += 1
            continue
        if ch.isdigit() or ch == ".":
            j = i
            while j < nch and source[j].isdigit():
                j += 1
            if j < nch and source[j] == ".":
                j += 1
                while j < nch and source[j].isdigit():
                    j += 1
            if j < nch and source[j] in "eE":
                k = j + 1
                if k < nch and source[k] in "+-":
                    k += 1
                if k < nch and source[k].isdigit():
                    j = k
                    while j < nch and source[j].isdigit():
                        j += 1
            text = source[i:j]
            try:
                value = float(text)
            except ValueError:
                raise DslSyntaxError(ParseDiagnostic(i, f"malformed number {text!r}"))
            tokens.append(_Token("number", value, i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < nch and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(_Token("ident", source[i:j], i))
            i = j
            continue
        raise DslSyntaxError(
            ParseDiagnostic(i, f"unexpected character {ch!r}")
        )
    tokens.append(_Token("eof", "", nch))
    return tokens


# --- Parser ---------------------------------------------------------------


class _Parser:
    def __init__(self, tokens, dims: Dims):
        self.tokens = tokens
        self.pos = 0
        self.dims = dims

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message, expected=()):
        tok = self.peek()
        raise DslSyntaxError(ParseDiagnostic(tok.offset, message, frozenset(expected)))

    def expect(self, kind):
        tok = self.peek()
        if tok.kind != kind:
            self.fail(f"unexpected {self._describe(tok)}", expected={f"'{kind}'"})
        return self.advance()

    @staticmethod
    def _describe(tok):
        if tok.kind == "eof":
            return "end of input"
        if tok.kind == "number":
            return f"number {tok.text!r}"
        if tok.kind == "ident":
            return f"identifier {tok.text!r}"
        return f"token {tok.kind!r}"

    def parse_expr(self):
        node = self.parse_term()
        while self.peek().kind in "+-":
            op = self.advance()
            rhs = self.parse_term()
            cls = Add if op.kind == "+" else Sub
            node = cls(node, rhs, offset=op.offset)
        return node

    def parse_term(self):
        node = self.parse_unary()
        while self.peek().kind in "*/":
            op = self.advance()
            rhs = self.parse_unary()
            cls = Mul if op.kind == "*" else Div
            node = cls(node, rhs, offset=op.offset)
        return node

    def parse_unary(self):
        if self.peek().kind == "-":
            op = self.advance()
            return Neg(self.parse_power(), offset=op.offset)
        return self.parse_power()

    def parse_power(self):
        base = self.parse_atom()
        if self.peek().kind == "^":
            op = self.advance()
            expo = self.parse_unary()
            return Pow(base, expo, offset=op.offset)
        return base

    def parse_atom(self):
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            return Const(float(tok.text), offset=tok.offset)
        if tok.kind == "(":
            self.advance()
            node = self.parse_expr()
            self.expect(")")
            return node
        if tok.kind == "ident":
            self.advance()
            name = tok.text
            if self.peek().kind == "(":
                if name not in FUNCTIONS:
                    raise DslSemanticError(
                        ParseDiagnostic(
                            tok.offset,
                            f"{name!r} is not a function",
                            frozenset(FUNCTIONS),
                        )
                    )
                self.advance()
                arg = self.parse_expr()
                self.expect(")")
                return Func(name, arg, offset=tok.offset)
            return self._variable(name, tok.offset)
        self.fail(
            f"unexpected {self._describe(tok)}",
            expected={"number", "identifier", "'('", "'-'"},
        )

    def _variable(self, name, offset):
        if name in FUNCTIONS:
            raise DslSyntaxError(
                ParseDiagnostic(offset, f"function {name!r} needs an argument", frozenset({"'('"}))
            )
        kind = name[0]
        rest = name[1:]
        if kind == "t" and rest.isdigit() and len(rest) == 1 and rest != "0":
            alpha = int(rest)
            if alpha > self.dims.p:
                raise DslSemanticError(
                    ParseDiagnostic(offset, f"t{alpha} out of range for p={self.dims.p}")
                )
            return VarT(alpha - 1, offset=offset)
        if kind == "x" and rest.isdigit() and len(rest) == 1 and rest != "0":
            i = int(rest)
            if i > self.dims.n:
                raise DslSemanticError(
                    ParseDiagnostic(offset, f"x{i} out of range for n={self.dims.n}")
                )
            return VarX(i - 1, offset=offset)
        if kind == "v" and len(rest) == 3 and rest[1] == "_":
            si, sa = rest[0], rest[2]
            if si.isdigit() and sa.isdigit() and si != "0" and sa != "0":
                i, alpha = int(si), int(sa)
                if i > self.dims.n or alpha > self.dims.p:
                    raise DslSemanticError(
                        ParseDiagnostic(
                            offset,
                            f"v{i}_{alpha} out of range for n={self.dims.n}, p={self.dims.p}",
                        )
                    )
                return VarV(i - 1, alpha - 1, offset=offset)
        raise DslSemanticError(
            ParseDiagnostic(offset, f"unknown identifier {name!r}")
        )


def parse(source: str, dims: Dims) -> ExprAst:
    """Parse source text into an AST, validating variable ranges."""
    if not source or not source.strip():
        raise DslSyntaxError(ParseDiagnostic(0, "empty expression"))
    parser = _Parser(_tokenize(source), dims)
    node = parser.parse_expr()
    tok = parser.peek()
    if tok.kind != "eof":
        parser.fail(f"trailing input: {parser._describe(tok)}", expected={"end of input"})
    return node


# --- Formatting -----------------------------------------------------------

_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5

_BIN_PREC = {Add: _PREC_ADD, Sub: _PREC_ADD, Mul: _PREC_MUL, Div: _PREC_MUL}
_BIN_SYM = {Add: "+", Sub: "-", Mul: "*", Div: "/"}


def _prec(ast) -> int:
    cls = ast.__class__
    if cls in _BIN_PREC:
        return _BIN_PREC[cls]
    if cls is Neg:
        return _PREC_NEG
    if cls is Pow:
        return _PREC_POW
    return _PREC_ATOM


def _fmt_number(value: float) -> str:
    if value == int(value) and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


def format_ast(ast) -> str:
    """Render an AST back to source; parse(format_ast(a)) == a structurally."""
    cls = ast.__class__
    if cls is Const:
        return _fmt_number(ast.value)
    if cls is VarT:
        return f"t{ast.alpha + 1}"
    if cls is VarX:
        return f"x{ast.i + 1}"
    if cls is VarV:
        return f"v{ast.i + 1}_{ast.alpha + 1}"
    if cls in _BIN_PREC:
        prec = _BIN_PREC[cls]
        left = format_ast(ast.left)
        right = format_ast(ast.right)
        if _prec(ast.left) < prec:
            left = f"({left})"
        if _prec(ast.right) <= prec:
            right = f"({right})"
        return f"{left} {_BIN_SYM[cls]} {right}"
    if cls is Pow:
        left = format_ast(ast.left)
        right = format_ast(ast.right)
        if _prec(ast.left) < _PREC_ATOM:
            left = f"({left})"
        if _prec(ast.right) < _PREC_NEG:
            right = f"({right})"
        return f"{left}^{right}"
    if cls is Neg:
        inner = format_ast(ast.child)
        if _prec(ast.child) < _PREC_POW:
            inner = f"({inner})"
        return f"-{inner}"
    if cls is Func:
        return f"{ast.name}({format_ast(ast.arg)})"
    raise TypeError(f"not an AST node: {ast!r}")


def used_variables(ast) -> set:
    """Coordinate kinds referenced by the AST, as ('t'|'x'|'v', i, a) triples."""
    out = set()

    def walk(node):
        cls = node.__class__
        if cls is VarT:
            out.add(("t", 0, node.alpha))
        elif cls is VarX:
            out.add(("x", node.i, 0))
        elif cls is VarV:
            out.add(("v", node.i, node.alpha))
        elif cls in (Add, Sub, Mul, Div, Pow):
            walk(node.left)
            walk(node.right)
        elif cls is Neg:
            walk(node.child)
        elif cls is Func:
            walk(node.arg)

    walk(ast)
    return out


# --- Compilation ----------------------------------------------------------


def compile_ast(ast):
    """Compile an AST to a closure f(t, x, v) and its line table.

    The closure is the one evaluator of the expression language: left to
    right, on plain floats and on every derivative scalar in ``scalars``.
    Each node that can raise (division, power, function) starts its own line
    of the generated source, and the table maps that line to the node's
    source offset, so a failure is located from the traceback's line number
    without evaluating again.
    """
    lines = {}

    def own_line(node):
        # lines 1 and 2 of the generated source are "def" and "return ("
        lines[len(lines) + 3] = node.offset
        return "\n"

    def emit(node):
        cls = node.__class__
        if cls is Const:
            return repr(node.value)
        if cls is VarT:
            return f"T[{node.alpha}]"
        if cls is VarX:
            return f"X[{node.i}]"
        if cls is VarV:
            return f"V[{node.i}][{node.alpha}]"
        if cls is Add:
            return f"({emit(node.left)} + {emit(node.right)})"
        if cls is Sub:
            return f"({emit(node.left)} - {emit(node.right)})"
        if cls is Mul:
            return f"({emit(node.left)} * {emit(node.right)})"
        if cls is Div:
            return f"{own_line(node)}_div({emit(node.left)}, {emit(node.right)})"
        if cls is Pow:
            start = own_line(node)
            if node.right.__class__ is Const and float(node.right.value).is_integer():
                return f"{start}_ipow({emit(node.left)}, {int(node.right.value)})"
            return f"{start}_pow({emit(node.left)}, {emit(node.right)})"
        if cls is Neg:
            return f"(-{emit(node.child)})"
        if cls is Func:
            return f"{own_line(node)}_{node.name}({emit(node.arg)})"
        raise TypeError(f"not an AST node: {node!r}")

    body = emit(ast)
    env = {
        "_div": scalars.g_div,
        "_pow": scalars.g_pow,
        "_ipow": scalars.g_ipow,
    }
    for name, fn in _FUNC_IMPL.items():
        env[f"_{name}"] = fn
    code = f"def _compiled(T, X, V):\n    return ({body})\n"
    exec(code, env)  # noqa: S102 - source is generated from our own AST
    return env["_compiled"], lines
