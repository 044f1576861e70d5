"""Expression trees for functions of one complex variable.

Grammar (whitespace insignificant)::

    expr   := term (('+'|'-') term)*
    term   := unary (('*'|'/') unary)*
    unary  := '-' unary | factor
    factor := base ('^' int)?
    base   := number | 'i' | 'z' | '(' expr ')' | ('exp'|'log') '(' expr ')'

Powers take integer exponents only and ``log`` is the principal branch.
``parse`` refuses a tree deeper than MAX_DEPTH levels, and a text that nests
brackets, calls and signs deeper than that.
Trees are immutable, and only the parser recurses: one iterative post-order
of the nodes under a list of roots (each node once, by identity) serves
evaluation, ``differentiate`` and ``to_string``, so a tree built by
arithmetic may be of any depth.  Evaluation is vectorised over numpy arrays
and deterministic; it fails loudly (carrying the offending point) instead of
silently picking a branch or dividing by zero.  One pass may serve several
roots (a map and its derivative); roots evaluated many times are compiled
once into a plan.
"""

from __future__ import annotations

import operator
import re
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ExprError", "ExprSyntaxError", "EvalDomainError",
    "Const", "Var", "Add", "Sub", "Mul", "Div", "Neg", "Pow", "Exp", "Log",
    "Opaque", "parse", "evaluate", "differentiate", "to_string",
]

# evaluation refuses points closer than this to the log cut
LOG_CUT_TOL = 1e-13
# parse refuses a deeper tree or nest: it alone recurses, once a level, and
# the bound checks text from outside
MAX_DEPTH = 100


class ExprError(ValueError):
    pass


class ExprSyntaxError(ExprError):
    def __init__(self, message, pos):
        super().__init__(f"{message} (position {pos})")
        self.pos = pos


class EvalDomainError(ExprError):
    """Evaluation hit a point where the expression is undefined."""

    def __init__(self, message, z=None):
        if z is not None:
            message = f"{message} at z={z}"
        super().__init__(message)
        self.z = z


# --- nodes -----------------------------------------------------------------

@dataclass(frozen=True)
class Const:
    value: complex


@dataclass(frozen=True)
class Var:
    pass


@dataclass(frozen=True)
class Add:
    left: object
    right: object


@dataclass(frozen=True)
class Sub:
    left: object
    right: object


@dataclass(frozen=True)
class Mul:
    left: object
    right: object


@dataclass(frozen=True)
class Div:
    left: object
    right: object


@dataclass(frozen=True)
class Neg:
    arg: object


@dataclass(frozen=True)
class Pow:
    base: object
    exponent: int


@dataclass(frozen=True)
class Exp:
    arg: object


@dataclass(frozen=True)
class Log:
    arg: object


@dataclass(frozen=True)
class Opaque:
    """Numeric leaf: a named callable composed with a node.

    ``fn`` maps a complex ndarray to a complex ndarray, the value of ``arg``
    at the points z, so the leaf is fn(arg(z)); ``arg`` defaults to Var(),
    which makes it fn(z).  ``deriv`` is either None (differentiation raises)
    or the node of fn's derivative, which the chain rule multiplies by arg's.
    A pass evaluates each node once, so leaves on one ``arg`` node share its
    value.  ``shared``, if given, is a pair (walk_out, row) that names a
    walk-out the leaf shares: walk_out(x, jet) returns a tuple of arrays
    shaped as x, its value rows and then, with the jet, its derivative
    rows, and fn(x) is its row ``row``.  Leaves that name one walk-out on
    one ``arg`` node read their rows from one call a pass, which takes the
    jet if and only if the pass's plan holds one of its derivative rows: a
    leaf that shares it with no ``deriv``.  Lets series-backed functions
    live in parsed expressions' trees.
    """
    name: str
    fn: object
    deriv: object = None
    arg: object = Var()
    shared: object = None


# the grammar's binary operators, all left-associative, which parser, printer
# and evaluator read from here: token, printed form, precedence (see _render),
# whether an equal-precedence right operand needs parentheses, and the operation
_BinOp = namedtuple("_BinOp", "token text prec strict_right apply")
_BINARY = {
    Add: _BinOp("+", " + ", 1, False, operator.add),
    Sub: _BinOp("-", " - ", 1, True, operator.sub),
    Mul: _BinOp("*", "*", 2, False, operator.mul),
    Div: _BinOp("/", "/", 2, True, operator.truediv),
}


# --- the plan --------------------------------------------------------------

# the fields that hold each node type's operands, left to right
_OPERANDS = {**dict.fromkeys(_BINARY, ("left", "right")), Const: (), Var: (),
             Neg: ("arg",), Pow: ("base",), Exp: ("arg",), Log: ("arg",), Opaque: ("arg",)}


def _operands(node):
    if type(node) not in _OPERANDS:
        raise ExprError(f"unknown node {node!r}")
    return [getattr(node, f) for f in _OPERANDS[type(node)]]


def _post_order(roots, operands=_operands):
    """The nodes under ``roots``, each once (by identity), each after its
    operands, left to right: the order in which a recursive walk with a memo
    finishes them.  ``operands(node)`` lists the operands to visit; it is
    called once a node, in the order such a walk enters them."""
    order, seen, todo = [], set(), [(root, False) for root in reversed(roots)]
    while todo:
        node, entered = todo.pop()
        if entered:
            order.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            todo.append((node, True))
            todo.extend((kid, False) for kid in reversed(operands(node)))
    return order


# --- evaluation ------------------------------------------------------------

def _refuse(mask, z, message):
    """Raise EvalDomainError at the first point of z where mask holds."""
    if mask.any():
        raise EvalDomainError(message, complex(z[tuple(np.argwhere(mask)[0])]))


def _step(node, ins):
    """node's step in a plan: a function of the values so far and z (a
    complex ndarray, whose shape every value has) that reads the values at
    the slots ``ins``, its operands' (a shared leaf's: its walk-out's)."""
    kind, (a, b) = type(node), (*ins, None, None)[:2]  # the operands' slots
    if kind is Const:
        value = np.asarray(node.value, dtype=complex)
        return lambda vals, z: np.broadcast_to(value, z.shape)
    if kind is Var:
        return lambda vals, z: z
    if kind is Div:
        def divide(vals, z):
            _refuse(vals[b] == 0, z, "division by zero")
            return vals[a] / vals[b]
        return divide
    if kind in _BINARY:
        apply = _BINARY[kind].apply
        return lambda vals, z: apply(vals[a], vals[b])
    if kind is Neg:
        return lambda vals, z: -vals[a]
    if kind is Exp:
        return lambda vals, z: np.exp(vals[a])
    if kind is Pow:
        def power(vals, z, k=node.exponent):
            if k < 0:
                _refuse(vals[a] == 0, z, f"zero base raised to power {k}")
            return vals[a] ** k
        return power
    if kind is Log:
        def principal_log(vals, z):
            w = vals[a]
            _refuse(w == 0, z, "log of zero")  # then points within LOG_CUT_TOL of the cut
            _refuse((w.real < 0) & (np.abs(w.imag) < LOG_CUT_TOL), z,
                    "log evaluated too close to its branch cut")
            return np.log(w)
        return principal_log
    if node.shared is not None:
        return lambda vals, z, row=node.shared[1]: vals[a][row]

    def leaf(vals, z, fn=node.fn):
        value = np.asarray(fn(vals[a]))  # shaped as z, a view where it differs
        return value if value.shape == z.shape else np.broadcast_to(value, z.shape)
    return leaf


class _Plan:
    """A root set compiled for evaluate: a step a node in post-order (and a
    shared walk-out's before its first leaf), the slots each step reads
    last, and each root's slot."""

    __slots__ = ("steps", "spent", "roots", "many")

    def __init__(self, node):
        self.many = isinstance(node, (list, tuple))
        roots = list(node) if self.many else [node]
        order = _post_order(roots)
        jets = {(id(n.arg), n.shared[0]) for n in order  # the jet rule (see evaluate)
                if type(n) is Opaque and n.shared is not None and n.deriv is None}
        steps, ins, slot, walks = [], [], {}, {}
        for n in order:
            reads = [slot[id(k)] for k in _operands(n)]
            if type(n) is Opaque and n.shared is not None:
                key = (id(n.arg), n.shared[0])
                if key not in walks:
                    walks[key] = len(steps)
                    steps.append(lambda vals, z, out=n.shared[0], a=reads[0], jet=key in jets:
                                 out(vals[a], jet))
                    ins.append(reads)
                reads = [walks[key]]
            slot[id(n)] = len(steps)
            steps.append(_step(n, reads))
            ins.append(reads)
        self.steps, self.roots = steps, [slot[id(r)] for r in roots]
        self.spent = [[] for _ in steps]
        for j, i in {j: i for i, reads in enumerate(ins) for j in reads}.items():
            if j not in self.roots:
                self.spent[i].append(j)


def evaluate(node, z):
    """Evaluate ``node`` at ``z`` (complex scalar or ndarray).

    ``node`` may also be a list or tuple of roots, whose values come as a
    list, or a ``_Plan`` of either, compiled once for roots evaluated many
    times.  A pass evaluates each node once, however many roots or parents
    share it, and drops each value after its last use.  Opaque leaves that
    share a walk-out on one arg node read their rows from one call, which
    takes the jet if and only if the plan holds one of its derivative rows
    (a sharing leaf with no deriv).  Every value equals, bit for bit, that
    of a separate call, and an EvalDomainError names the point a separate
    call on each root would.
    """
    plan = node if isinstance(node, _Plan) else _Plan(node)
    arr = np.asarray(z, dtype=complex)
    scalar = arr.ndim == 0
    if scalar:
        arr = arr.reshape(1)
    vals = []
    with np.errstate(all="ignore"):
        for step, spent in zip(plan.steps, plan.spent):
            vals.append(step(vals, arr))
            for j in spent:
                vals[j] = None
    outs = [complex(vals[s][0]) if scalar else vals[s].copy() for s in plan.roots]
    return outs if plan.many else outs[0]


# --- differentiation -------------------------------------------------------

def _is_zero(node):
    return isinstance(node, Const) and node.value == 0


def _is_one(node):
    return isinstance(node, Const) and node.value == 1


def _add(a, b):
    if _is_zero(a):
        return b
    if _is_zero(b):
        return a
    return Add(a, b)


def _sub(a, b):
    if _is_zero(b):
        return a
    if _is_zero(a):
        return Neg(b)
    return Sub(a, b)


def _mul(a, b):
    if _is_zero(a) or _is_zero(b):
        return Const(0)
    if _is_one(a):
        return b
    if _is_one(b):
        return a
    return Mul(a, b)


def _div(a, b):
    if _is_zero(a):
        return Const(0)
    return Div(a, b)


def _derivative_operands(node):
    """The operands whose derivatives node's needs, none under a zero power;
    an Opaque leaf with no deriv is refused as the walk enters it."""
    if type(node) is Pow and node.exponent == 0:
        return []
    if type(node) is Opaque and node.deriv is None:
        raise ExprError(f"no derivative available for {node.name}")
    return _operands(node)


def _derivative(node, d):
    """node's derivative, given d(operand), each operand's derivative."""
    kind = type(node)
    if kind is Const:
        return Const(0)
    if kind is Var:
        return Const(1)
    if kind is Add:
        return _add(d(node.left), d(node.right))
    if kind is Sub:
        return _sub(d(node.left), d(node.right))
    if kind is Neg:
        da = d(node.arg)
        return Const(0) if _is_zero(da) else Neg(da)
    if kind is Mul:
        a, b = node.left, node.right
        return _add(_mul(d(a), b), _mul(a, d(b)))
    if kind is Div:
        a, b = node.left, node.right
        return _div(_sub(_mul(d(a), b), _mul(a, d(b))), Pow(b, 2))
    if kind is Pow:
        k = node.exponent
        if k == 0:
            return Const(0)
        step = _mul(Const(k), Pow(node.base, k - 1)) if k != 1 else Const(k)
        return _mul(step, d(node.base))
    if kind is Exp:
        return _mul(node, d(node.arg))
    if kind is Log:
        return _div(d(node.arg), node.arg)
    return _mul(node.deriv, d(node.arg))  # an Opaque leaf with a deriv


def differentiate(node):
    """Symbolic derivative with respect to z (of a shared node, once)."""
    ds = {}  # each node's derivative, by identity
    for n in _post_order([node], _derivative_operands):
        ds[id(n)] = _derivative(n, lambda k: ds[id(k)])
    return ds[id(node)]


# --- printing --------------------------------------------------------------

# precedence: additive 1, multiplicative 2, unary minus 3, power 4, atoms 5

def _const_str(value):
    v = complex(value)
    if v.imag == 0:
        return repr(v.real), (3 if v.real < 0 else 5)
    if v.real == 0:
        if v.imag == 1:
            return "i", 5
        if v.imag == -1:
            return "-i", 3
        return f"{v.imag!r}*i", 2
    sign = "+" if v.imag >= 0 else "-"
    return f"({v.real!r}{sign}{abs(v.imag)!r}*i)", 5


def _render(node, kids):
    """node's text and its outermost operator's precedence, from its operands'
    pairs ``kids``; a text is a string or a tuple of texts, read by _flatten."""
    kind = type(node)
    if kind is Const:
        return _const_str(node.value)
    if kind is Var:
        return "z", 5
    op = _BINARY.get(kind)
    if op is not None:
        (lt, lp), (rt, rp) = kids
        lt = ("(", lt, ")") if lp < op.prec else lt
        rt = ("(", rt, ")") if rp < op.prec or (op.strict_right and rp == op.prec) else rt
        return (lt, op.text, rt), op.prec
    (t, p), = kids
    if kind is Neg:
        return ("-", ("(", t, ")") if p < 3 else t), 3
    if kind is Pow:
        safe = isinstance(node.base, (Var, Exp, Log)) or (
            isinstance(node.base, Const)
            and node.base.value.imag == 0 and node.base.value.real >= 0)
        return (t if safe else ("(", t, ")"), f"^{node.exponent}"), 4
    name = {Exp: "exp", Log: "log"}.get(kind) or node.name
    return (name, "(", t, ")"), 5


def _flatten(text):
    """The string of a text that _render nests in tuples."""
    pieces, todo = [], [text]
    while todo:
        piece = todo.pop()
        if isinstance(piece, str):
            pieces.append(piece)
        else:
            todo.extend(reversed(piece))
    return "".join(pieces)


def to_string(node):
    """Render a tree back to grammar text (Opaque leaves print as name(arg))."""
    texts = {}  # each node's (text, precedence), by identity
    for n in _post_order([node]):
        texts[id(n)] = _render(n, [texts[id(k)] for k in _operands(n)])
    return _flatten(texts[id(node)][0])


# --- parsing ---------------------------------------------------------------

_NUMBER = re.compile(r"\d+(?:\.\d*)?(?:[eE][+-]?\d+)?")
_IDENT = re.compile(r"[A-Za-z_]+")
_OP_CHARS = "".join(op.token for op in _BINARY.values()) + "^()"
# the binary operators' node types by token, one map per precedence level
_LEVELS = [{op.token: kind for kind, op in _BINARY.items() if op.prec == prec}
           for prec in sorted({op.prec for op in _BINARY.values()})]


class _Tokens:
    def __init__(self, text):
        self.text = text
        self.pos = 0
        self.nest = 0  # the brackets, calls and signs open at the current token

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self._skip_ws()
        if self.pos >= len(self.text):
            return ("end", "", self.pos)
        ch = self.text[self.pos]
        if ch in _OP_CHARS:
            return ("op", ch, self.pos)
        m = _NUMBER.match(self.text, self.pos)
        if m:
            return ("number", m.group(), self.pos)
        m = _IDENT.match(self.text, self.pos)
        if m:
            return ("ident", m.group(), self.pos)
        raise ExprSyntaxError(f"unexpected character {ch!r}", self.pos)

    def take(self):
        kind, text, pos = self.peek()
        self.pos = pos + len(text)
        return kind, text, pos


def _deeper(depth, pos):
    """depth + 1, refused at pos past MAX_DEPTH."""
    if depth >= MAX_DEPTH:
        raise ExprSyntaxError(f"expression nested deeper than {MAX_DEPTH} levels", pos)
    return depth + 1


def _parse_expr(tok, level=0):
    """The operands of _LEVELS[level]'s operators, folded to the left, and
    the depth of their tree (as every parse step returns its node's)."""
    if level == len(_LEVELS):
        return _parse_unary(tok)
    ops = _LEVELS[level]
    node, depth = _parse_expr(tok, level + 1)
    while True:
        kind, text, pos = tok.peek()
        if kind != "op" or text not in ops:
            return node, depth
        tok.take()
        right, right_depth = _parse_expr(tok, level + 1)
        node, depth = ops[text](node, right), _deeper(max(depth, right_depth), pos)


def _parse_unary(tok):
    # one call of this function is open per bracket, call and sign around pos
    kind, text, pos = tok.peek()
    tok.nest = _deeper(tok.nest, pos)
    if kind == "op" and text == "-":
        tok.take()
        node, depth = _parse_unary(tok)
        node, depth = Neg(node), _deeper(depth, pos)
    else:
        node, depth = _parse_factor(tok)
    tok.nest -= 1
    return node, depth


def _parse_factor(tok):
    node, depth = _parse_base(tok)
    kind, text, pos = tok.peek()
    if kind == "op" and text == "^":
        tok.take()
        node, depth = Pow(node, _parse_int_exponent(tok)), _deeper(depth, pos)
    return node, depth


def _parse_int_exponent(tok):
    sign = 1
    kind, text, pos = tok.peek()
    if kind == "op" and text == "-":
        tok.take()
        sign = -1
        kind, text, pos = tok.peek()
    if kind != "number":
        raise ExprSyntaxError("expected an integer exponent", pos)
    if "." in text or "e" in text or "E" in text:
        raise ExprSyntaxError(f"exponent must be an integer, got {text!r}", pos)
    tok.take()
    return sign * int(text)


def _expect(tok, ch, message):
    kind, text, pos = tok.take()
    if not (kind == "op" and text == ch):
        raise ExprSyntaxError(message, pos)


def _parse_base(tok):
    kind, text, pos = tok.take()
    if kind == "number":
        return Const(complex(float(text))), 1
    if kind == "ident":
        if text == "z":
            return Var(), 1
        if text == "i":
            return Const(1j), 1
        if text in ("exp", "log"):
            _expect(tok, "(", f"expected '(' after {text}")
            arg, depth = _parse_expr(tok)
            _expect(tok, ")", "expected ')'")
            return (Exp if text == "exp" else Log)(arg), _deeper(depth, pos)
        raise ExprSyntaxError(f"unknown name {text!r}", pos)
    if kind == "op" and text == "(":
        node = _parse_expr(tok)
        _expect(tok, ")", "expected ')'")
        return node
    raise ExprSyntaxError(f"unexpected token {text!r}", pos)


def parse(text):
    """Parse grammar text into a tree.  Raises ExprSyntaxError with position."""
    tok = _Tokens(text)
    node, _ = _parse_expr(tok)
    kind, t, pos = tok.peek()
    if kind != "end":
        raise ExprSyntaxError(f"trailing input {t!r}", pos)
    return node
