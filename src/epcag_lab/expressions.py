"""Tiny arithmetic expression language for config-defined systems.

Grammar (ASCII, case-sensitive identifiers):

    expr   := term (("+" | "-") term)*
    term   := factor (("*" | "/") factor)*
    factor := "-" factor | power
    power  := atom ("^" factor)?          # right associative
    atom   := NUMBER | NAME | FUNC "(" expr ")" | "(" expr ")"

FUNC is one of sin, cos, exp, log, abs; ``pi`` is the only built-in
constant.  Variable NAMEs are restricted to the declared set (typically
t, y1..yn, w1..wn).  There are no conditionals or loops, so evaluation
is pure and finite differences are well defined.

A domain error (division by zero, log of a non-positive value, an invalid
power) raises ``EvaluationError`` when the operation's result is a
scalar.  When it is an array, each bad element becomes NaN instead, so
one bad row of a batch does not end the evaluation of the others.  Where
the rows of an array are the times of one function rather than separate
states, ``raise_at_first_nonfinite`` restores the error.

``ExpressionTree.partial`` evaluates ahead of time every subtree that reads
only some of the variables (such as a frozen argument held fixed while the
others vary), keeping the bits and the domain errors of a full evaluation.
"""

import re

import numpy as np

from .errors import EvaluationError, ExpressionError

__all__ = ["ExpressionTree", "parse_expression", "FUNCTIONS", "raise_at_first_nonfinite"]

FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "abs": np.abs,
    # log is wrapped at eval time for a domain check
    "log": None,
}

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(text, line0=1, col0=1):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            # skip over whitespace-only tail
            if text[pos:].strip() == "":
                break
            col = col0 + pos + len(text[pos:]) - len(text[pos:].lstrip())
            raise ExpressionError(
                f"unexpected character {text[pos:].lstrip()[0]!r}", line0, col
            )
        kind = m.lastgroup
        tok_start = m.end() - len(m.group(kind))
        tokens.append((kind, m.group(kind), line0, col0 + tok_start))
        pos = m.end()
    tokens.append(("end", "", line0, col0 + len(text)))
    return tokens


# Nodes are tuples whose last item is the frozenset of the variable names
# the subtree reads, computed once as the tree is built:
#   ("num", value, names)                ("var", name, names)
#   ("neg", pos, arg, names)             ("call", func, pos, arg, names)
#   ("bin", op, pos, left, right, names)
# A num's value is a float, or after ``ExpressionTree.partial`` any value
# an evaluation can produce (a numpy scalar or array).
_NO_NAMES = frozenset()


def _binary(op, pos, left, right):
    return ("bin", op, pos, left, right, left[-1] | right[-1])


class _Parser:
    def __init__(self, tokens, variables):
        self.tokens = tokens
        self.i = 0
        self.variables = set(variables)

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def fail(self, msg, tok):
        raise ExpressionError(msg, tok[2], tok[3])

    def expect_op(self, op):
        tok = self.advance()
        if tok[0] != "op" or tok[1] != op:
            self.fail(f"expected {op!r}, found {tok[1] or 'end of input'!r}", tok)

    def expr(self):
        node = self.term()
        while self.peek()[0] == "op" and self.peek()[1] in "+-":
            op = self.advance()
            node = _binary(op[1], op[2:], node, self.term())
        return node

    def term(self):
        node = self.factor()
        while self.peek()[0] == "op" and self.peek()[1] in "*/":
            op = self.advance()
            node = _binary(op[1], op[2:], node, self.factor())
        return node

    def factor(self):
        tok = self.peek()
        if tok[0] == "op" and tok[1] == "-":
            self.advance()
            arg = self.factor()
            return ("neg", tok[2:], arg, arg[-1])
        return self.power()

    def power(self):
        base = self.atom()
        tok = self.peek()
        if tok[0] == "op" and tok[1] == "^":
            self.advance()
            return _binary("^", tok[2:], base, self.factor())
        return base

    def atom(self):
        tok = self.advance()
        if tok[0] == "num":
            return ("num", float(tok[1]), _NO_NAMES)
        if tok[0] == "name":
            name = tok[1]
            nxt = self.peek()
            if nxt[0] == "op" and nxt[1] == "(":
                if name not in FUNCTIONS:
                    self.fail(f"unknown function {name!r}", tok)
                self.advance()
                arg = self.expr()
                self.expect_op(")")
                return ("call", name, tok[2:], arg, arg[-1])
            if name == "pi":
                return ("num", float(np.pi), _NO_NAMES)
            if name not in self.variables:
                self.fail(f"unknown identifier {name!r}", tok)
            return ("var", name, frozenset([name]))
        if tok[0] == "op" and tok[1] == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        self.fail(f"unexpected {tok[1] or 'end of input'!r}", tok)


def _checked(value, bad, what, pos):
    """``value`` with NaN where ``bad``; raises for a scalar result."""
    if not np.any(bad):
        return value
    if np.ndim(value) == 0:
        raise EvaluationError(f"{what} at line {pos[0]}, column {pos[1]}")
    return np.where(bad, np.nan, value)


def _eval(node, env):
    kind = node[0]
    if kind == "num":
        return node[1]
    if kind == "var":
        return env[node[1]]
    if kind == "neg":
        return -_eval(node[2], env)
    if kind == "call":
        name, pos, arg = node[1], node[2], node[3]
        val = _eval(arg, env)
        if name == "log":
            bad = np.asarray(val) <= 0
            with np.errstate(divide="ignore", invalid="ignore"):
                return _checked(np.log(val), bad, "log of non-positive value", pos)
        return FUNCTIONS[name](val)
    # binary
    op, pos, a, b = node[1], node[2], node[3], node[4]
    x, y = _eval(a, env), _eval(b, env)
    if op == "+":
        return x + y
    if op == "-":
        return x - y
    if op == "*":
        return x * y
    if op == "/":
        with np.errstate(divide="ignore", invalid="ignore"):
            return _checked(np.true_divide(x, y), np.asarray(y) == 0, "division by zero", pos)
    if op == "^":
        with np.errstate(invalid="ignore"):
            value = np.power(x, y)
        # NaN from operands that are not NaN is an invalid power (a
        # negative base with a fractional exponent)
        bad = np.isnan(value) & ~np.isnan(x) & ~np.isnan(y)
        return _checked(value, bad, "invalid power", pos)
    raise AssertionError(op)


def raise_at_first_nonfinite(evaluate, values, *points):
    """Return ``values``, the results of ``evaluate(*points)`` stacked along
    axis 0, after evaluating again, alone, the first row that is not finite.

    The row alone gives scalar operations, so a domain error that made the
    row NaN raises its ``EvaluationError`` with its position.  A row that
    is not finite for another reason (an overflow) evaluates without error
    and ``values`` is returned as it is.
    """
    if not np.isfinite(values).all():
        finite = np.isfinite(values).reshape(len(values), -1).all(axis=1)
        i = int(np.argmin(finite))
        evaluate(*(p[i] for p in points))
    return values


def _fold(node, env):
    """``node`` with every subtree over the names of ``env`` alone replaced
    by a num node holding its value.

    Children are folded first, so each operation runs once.  An operation
    that raises (a domain error of a scalar, or a floating-point error
    under ``np.errstate(...="raise")``) is left in the tree over its folded
    operands, so evaluating the tree raises it in its turn, after the
    operations to its left, with its own position.
    """
    kind = node[0]
    if kind == "num":
        return node
    if kind == "var":
        return ("num", env[node[1]], _NO_NAMES) if node[1] in env else node
    if kind == "neg":
        arg = _fold(node[2], env)
        node, args = ("neg", node[1], arg, arg[-1]), (arg,)
    elif kind == "call":
        arg = _fold(node[3], env)
        node, args = ("call", node[1], node[2], arg, arg[-1]), (arg,)
    else:
        args = (_fold(node[3], env), _fold(node[4], env))
        node = _binary(node[1], node[2], *args)
    if all(a[0] == "num" for a in args):
        try:
            return ("num", _eval(node, env), _NO_NAMES)
        except (EvaluationError, FloatingPointError):
            pass
    return node


class ExpressionTree:
    """Parsed expression; evaluate with a mapping of variable values.

    Values may be scalars or numpy arrays; evaluation broadcasts.
    """

    def __init__(self, source, root):
        self.source = source
        self.root = root
        self.variables = root[-1]

    def eval(self, env):
        missing = self.variables - env.keys()
        if missing:
            raise EvaluationError(f"missing variable values: {sorted(missing)}")
        return _eval(self.root, env)

    def partial(self, env):
        """The tree with every subtree that reads only names of ``env`` (or
        no name) replaced by its value.

        Evaluating the result with the remaining variables runs the same
        operations on the same operands as ``eval`` with all of them, so
        it gives the same bits, and a domain error raises with the same
        message and position, in the same order.  The fold itself raises
        nothing: an operation that would raise stays in the tree.
        """
        return ExpressionTree(self.source, _fold(self.root, env))

    def __repr__(self):
        return f"ExpressionTree({self.source!r})"


def parse_expression(text, variables, line=1, column=1):
    """Parse ``text`` over the declared variable set.

    ``line``/``column`` locate the expression inside its config file so
    errors point at the real source position.
    """
    tokens = _tokenize(text, line, column)
    parser = _Parser(tokens, variables)
    root = parser.expr()
    tail = parser.peek()
    if tail[0] != "end":
        parser.fail(f"unexpected {tail[1]!r} after expression", tail)
    return ExpressionTree(text, root)
