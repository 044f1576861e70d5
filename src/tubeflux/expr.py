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
Trees are immutable.  Evaluation is vectorised over numpy arrays and
deterministic; it fails loudly (carrying the offending point) instead of
silently picking a branch or dividing by zero.  One evaluation pass may
serve several roots (a map and its derivative); it evaluates each node once
and holds every value until the pass returns.
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
# parse refuses a deeper tree or nest: parser, derivative, evaluator and
# printer recurse once a level, and a derivative is up to twice as deep
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
    In one evaluation pass every node is evaluated once and its value held
    until the pass returns, so leaves composed with one ``arg`` node share
    its value.  ``shared``, if given, is a pair (walk_out, row) that names a
    walk-out the leaf shares: walk_out(x, jet) returns a tuple of arrays
    shaped as x, its value rows and then, with the jet, its derivative rows,
    and fn(x) is its row ``row``.  Leaves that name one walk-out on one
    ``arg`` node read their rows from one call a pass (see _Walk); a leaf
    with no ``deriv`` is taken for a derivative row.  Lets series-backed
    functions live in parsed expressions' trees.
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


# --- evaluation ------------------------------------------------------------

# the fields that hold a node's operands
_OPERANDS = ("left", "right", "base", "arg")


def _depth(node):
    """Levels of the tree under node, a leaf counting one, found without
    recursion (each shared node once)."""
    levels, todo = {}, [node]
    while todo:
        n = todo[-1]
        kids = [v for f, v in vars(n).items() if f in _OPERANDS]
        new = [k for k in kids if id(k) not in levels]
        if new:
            todo.extend(new)
        else:
            levels[id(todo.pop())] = 1 + max((levels[id(k)] for k in kids), default=0)
    return levels[id(node)]


def _first_bad(mask, z):
    idx = np.argwhere(mask)
    if idx.size == 0:
        return None
    return complex(z[tuple(idx[0])])


class _Walk:
    """One evaluation pass of ``roots`` at z: each node (by identity) is
    evaluated at its first use and held until the pass returns.

    The one sharing rule: leaves that name a walk-out in ``shared`` read
    their rows from one call of it on their ``arg`` node's value, held in
    the memo under (arg, walk-out) until the pass returns.  That call takes
    the jet when several roots reach the first such leaf's deriv (listed at
    need), or when that leaf has no deriv; a derivative row past the rows
    held calls it again with the jet, once."""

    def __init__(self, z, roots=()):
        self.z, self.roots, self.memo, self.reached = z, roots, {}, None

    def _reaches(self, node):
        if self.reached is None:  # one root takes no jet: its pass lists nothing
            self.reached, new = set(), {id(r): r for r in self.roots} if len(self.roots) > 1 else {}
            while new:  # the operands one step further, by id, each node once
                self.reached.update(new)
                new = {id(v): v for n in new.values() for f, v in vars(n).items()
                       if f in _OPERANDS and id(v) not in self.reached}
        return id(node) in self.reached

    def __call__(self, node):
        value = self.memo.get(id(node))
        if value is None:  # values are arrays, never None
            value = self.memo[id(node)] = self._op(node)
        return value

    def _op(self, node):
        # z is always a complex ndarray, and every node's value has its shape
        z = self.z
        op = _BINARY.get(type(node))
        if op is not None:
            left, right = self(node.left), self(node.right)
            if type(node) is Div:
                bad = _first_bad(right == 0, z)
                if bad is not None:
                    raise EvalDomainError("division by zero", bad)
            return op.apply(left, right)
        if isinstance(node, Const):
            return np.broadcast_to(np.asarray(node.value, dtype=complex), z.shape)
        if isinstance(node, Var):
            return z
        if isinstance(node, Neg):
            return -self(node.arg)
        if isinstance(node, Pow):
            base = self(node.base)
            k = node.exponent
            if k < 0:
                bad = _first_bad(base == 0, z)
                if bad is not None:
                    raise EvalDomainError(f"zero base raised to power {k}", bad)
            return base ** k
        if isinstance(node, Exp):
            return np.exp(self(node.arg))
        if isinstance(node, Log):
            w = self(node.arg)
            bad = _first_bad(w == 0, z)
            if bad is not None:
                raise EvalDomainError("log of zero", bad)
            # principal branch; refuse points within LOG_CUT_TOL of the cut
            near_cut = (w.real < 0) & (np.abs(w.imag) < LOG_CUT_TOL)
            bad = _first_bad(near_cut, z)
            if bad is not None:
                raise EvalDomainError("log evaluated too close to its branch cut", bad)
            return np.log(w)
        if isinstance(node, Opaque):
            if node.shared is not None:
                walk_out, row = node.shared
                key = (id(node.arg), walk_out)
                rows = self.memo.get(key, ())
                if row >= len(rows):
                    jet = node.deriv is None or self._reaches(node.deriv)
                    rows = self.memo[key] = walk_out(self(node.arg), jet)
                return rows[row]
            value = np.asarray(node.fn(self(node.arg)))  # shaped as z, a view where it differs
            return value if value.shape == z.shape else np.broadcast_to(value, z.shape)
        raise ExprError(f"unknown node {node!r}")


def evaluate(node, z):
    """Evaluate ``node`` at ``z`` (complex scalar or ndarray).

    ``node`` may also be a list or tuple of roots: they are evaluated in order
    in one pass, and the list of their values is returned.  A node that
    several roots (or several parents) share is evaluated once, and Opaque
    leaves that share a walk-out take their rows from one call of it (see
    _Walk).  Every value equals, bit for bit, that of a separate call, and
    an EvalDomainError names the point a separate call on each root would.
    """
    roots = list(node) if isinstance(node, (list, tuple)) else [node]
    arr = np.asarray(z, dtype=complex)
    scalar = arr.ndim == 0
    if scalar:
        arr = arr.reshape(1)
    walk = _Walk(arr, roots)
    outs = []
    with np.errstate(all="ignore"):
        for root in roots:
            out = walk(root)
            outs.append(complex(out[0]) if scalar else out.copy())
    return outs if isinstance(node, (list, tuple)) else outs[0]


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


def differentiate(node):
    """Symbolic derivative with respect to z."""
    if isinstance(node, Const):
        return Const(0)
    if isinstance(node, Var):
        return Const(1)
    if isinstance(node, Add):
        return _add(differentiate(node.left), differentiate(node.right))
    if isinstance(node, Sub):
        return _sub(differentiate(node.left), differentiate(node.right))
    if isinstance(node, Neg):
        d = differentiate(node.arg)
        return Const(0) if _is_zero(d) else Neg(d)
    if isinstance(node, Mul):
        a, b = node.left, node.right
        return _add(_mul(differentiate(a), b), _mul(a, differentiate(b)))
    if isinstance(node, Div):
        a, b = node.left, node.right
        num = _sub(_mul(differentiate(a), b), _mul(a, differentiate(b)))
        return _div(num, Pow(b, 2))
    if isinstance(node, Pow):
        k = node.exponent
        if k == 0:
            return Const(0)
        inner = differentiate(node.base)
        step = _mul(Const(k), Pow(node.base, k - 1)) if k != 1 else Const(k)
        return _mul(step, inner)
    if isinstance(node, Exp):
        return _mul(node, differentiate(node.arg))
    if isinstance(node, Log):
        return _div(differentiate(node.arg), node.arg)
    if isinstance(node, Opaque):
        if node.deriv is None:
            raise ExprError(f"no derivative available for {node.name}")
        return _mul(node.deriv, differentiate(node.arg))
    raise ExprError(f"unknown node {node!r}")


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


def _render(node):
    # returns (text, precedence of outermost operator)
    if isinstance(node, Const):
        return _const_str(node.value)
    if isinstance(node, Var):
        return "z", 5
    op = _BINARY.get(type(node))
    if op is not None:
        lt, lp = _render(node.left)
        rt, rp = _render(node.right)
        lt = f"({lt})" if lp < op.prec else lt
        rt = f"({rt})" if rp < op.prec or (op.strict_right and rp == op.prec) else rt
        return f"{lt}{op.text}{rt}", op.prec
    if isinstance(node, Neg):
        t, p = _render(node.arg)
        t = f"({t})" if p < 3 else t
        return f"-{t}", 3
    if isinstance(node, Pow):
        t, p = _render(node.base)
        safe = isinstance(node.base, (Var, Exp, Log)) or (
            isinstance(node.base, Const)
            and node.base.value.imag == 0 and node.base.value.real >= 0)
        if not safe:
            t = f"({t})"
        return f"{t}^{node.exponent}", 4
    if isinstance(node, Exp):
        return f"exp({_render(node.arg)[0]})", 5
    if isinstance(node, Log):
        return f"log({_render(node.arg)[0]})", 5
    if isinstance(node, Opaque):
        return f"{node.name}({_render(node.arg)[0]})", 5
    raise ExprError(f"unknown node {node!r}")


def to_string(node):
    """Render a tree back to grammar text (Opaque leaves print as name(arg))."""
    return _render(node)[0]


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
