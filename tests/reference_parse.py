"""The recursive-descent parser that `ufgsim.expr` had before its binary
operators went into one precedence-climbing loop and its numbers and names
into regexes, kept as the tests' reference for `parse_expression`.

One rule per grammar level: `expr` ("+", "-"), `term` ("*", "/"), `factor`
(unary "-"), `power` ("^") and `atom`.  A number runs over `str.isdigit`
characters, so a non-ASCII digit after one reaches `float`.
"""

import math

from ufgsim.expr import FUNCTIONS, Binary, Const, ParseError, Unary, Var, pow_expr

_NUMBER_START = set("0123456789")
_IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_BODY = _IDENT_START | _NUMBER_START


class _Scanner:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch):
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def expect(self, ch, expected):
        if not self.take(ch):
            raise ParseError("unexpected input", self.pos, expected)

    def number(self):
        start = self.pos
        t = self.text
        n = len(t)
        while self.pos < n and t[self.pos].isdigit():
            self.pos += 1
        if self.pos < n and t[self.pos] == ".":
            self.pos += 1
            while self.pos < n and t[self.pos].isdigit():
                self.pos += 1
        if self.pos < n and t[self.pos] in "eE":
            mark = self.pos
            self.pos += 1
            if self.pos < n and t[self.pos] in "+-":
                self.pos += 1
            if self.pos < n and t[self.pos].isdigit():
                while self.pos < n and t[self.pos].isdigit():
                    self.pos += 1
            else:
                self.pos = mark
        value = float(t[start:self.pos])
        if math.isinf(value):
            raise ParseError(f"number {t[start:self.pos]} overflows a double", start)
        return value

    def ident(self):
        start = self.pos
        t = self.text
        while self.pos < len(t) and t[self.pos] in _IDENT_BODY:
            self.pos += 1
        return t[start:self.pos]


class _Parser:
    def __init__(self, text, variable_names):
        self.sc = _Scanner(text)
        self.vars = {name: i for i, name in enumerate(variable_names)}

    def parse(self):
        e = self.expr()
        self.sc.skip_ws()
        if self.sc.pos != len(self.sc.text):
            raise ParseError("trailing input", self.sc.pos, ["end of input", "operator"])
        return e

    def expr(self):
        e = self.term()
        while True:
            if self.sc.take("+"):
                e = Binary("add", e, self.term())
            elif self.sc.take("-"):
                e = Binary("sub", e, self.term())
            else:
                return e

    def term(self):
        e = self.factor()
        while True:
            if self.sc.take("*"):
                e = Binary("mul", e, self.factor())
            elif self.sc.take("/"):
                e = Binary("div", e, self.factor())
            else:
                return e

    def factor(self):
        if self.sc.take("-"):
            inner = self.power()
            if isinstance(inner, Const):
                return Const(-inner.value)
            return Unary("neg", inner)
        return self.power()

    def power(self):
        base = self.atom()
        if self.sc.take("^"):
            pos = self.sc.pos
            exponent = self.atom()
            if not isinstance(exponent, Const):
                raise ParseError("exponent must be a numeric constant", pos, ["NUMBER"])
            try:
                return pow_expr(base, exponent)
            except ValueError as err:
                raise ParseError(str(err), pos) from None
        return base

    def atom(self):
        ch = self.sc.peek()
        pos = self.sc.pos
        if ch == "(":
            self.sc.take("(")
            e = self.expr()
            self.sc.expect(")", [")"])
            return e
        if ch in _NUMBER_START:
            return Const(self.sc.number())
        if ch in _IDENT_START:
            name = self.sc.ident()
            if self.sc.take("("):
                if name not in FUNCTIONS:
                    raise ParseError(f"unknown function '{name}'", pos, FUNCTIONS)
                arg = self.expr()
                self.sc.expect(")", [")"])
                return Unary(name, arg)
            if name in self.vars:
                return Var(self.vars[name])
            raise ParseError(f"unknown identifier '{name}'", pos, sorted(self.vars))
        raise ParseError("unexpected input", pos, ["NUMBER", "IDENT", "("])


def parse_expression(text, variable_names):
    if not text or not text.strip():
        raise ParseError("empty expression", 0, ["NUMBER", "IDENT", "("])
    names = list(variable_names)
    if len(set(names)) != len(names):
        raise ValueError("variable names must be distinct")
    return _Parser(text, names).parse()
