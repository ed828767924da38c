"""Textual mini-language for xi-set expressions.

Grammar (left-associative, single precedence level, parentheses to group):

    input   :=  'chain' setlit setlit LENGTH ('aligned' | 'shifted')
             |  expr
    expr    :=  term (('&' | '|' | '\\') term)*
    term    :=  xilit  |  '(' expr ')'
    xilit   :=  setlit ('||' setlit)*
    setlit  :=  '{' [atom (',' atom)*] '}'  |  '0'
    atom    :=  INTEGER | IDENTIFIER

The grammar is ASCII: INTEGER is ``[0-9]+``, IDENTIFIER is
``[A-Za-z_][A-Za-z_0-9]*``, and only ASCII whitespace (space, tab, newline,
CR, FF, VT) separates tokens; any other character, a non-ASCII digit or
space included, is a parse error.  ``0`` denotes the empty set, ``||``
separates the components of a xi-set literal, and ``&`` ``|`` ``\\`` are
intersection, union and difference.
Parse errors carry the character position that caused them.
"""

from __future__ import annotations

import re
from typing import Union

from .xisets import (
    ChainResult,
    ChainStrategy,
    SetExprChain,
    XiSet,
    eval_chain,
    xi_difference,
    xi_intersection,
    xi_union,
)

__all__ = ["SetExprError", "evaluate"]

MAX_DEPTH = 100  # parenthesis nesting; the parser recurses once per level


class SetExprError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.message = message
        self.position = position


_TOKEN = re.compile(
    r"""(?P<ws>\s+)
      | (?P<dpipe>\|\|)
      | (?P<op>[&|\\])
      | (?P<lbrace>\{) | (?P<rbrace>\})
      | (?P<lparen>\() | (?P<rparen>\))
      | (?P<comma>,)
      | (?P<int>\d+)
      | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
    """,
    re.VERBOSE | re.ASCII,
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise SetExprError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        if kind != "ws":
            tokens.append((kind, m.group(), pos))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


def _int(text: str, pos: int) -> int:
    try:
        return int(text)
    except ValueError:  # more digits than int() converts, a limit set per interpreter
        raise SetExprError(f"integer of {len(text)} digits is too long", pos) from None


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, what: str):
        tok = self.next()
        if tok[0] != kind:
            raise SetExprError(f"expected {what}", tok[2])
        return tok

    # -- grammar -------------------------------------------------------------

    def parse_input(self) -> Union[XiSet, ChainResult]:
        kind, value, _ = self.peek()
        if kind == "name" and value == "chain":
            return self.parse_chain()
        result = self.parse_expr()
        self.expect("eof", "end of expression")
        return result

    def parse_chain(self) -> ChainResult:
        self.next()  # 'chain'
        base = self.parse_setlit()
        partner = self.parse_setlit()
        tok = self.expect("int", "a chain length")
        length = _int(tok[1], tok[2])
        if length < 1:
            raise SetExprError("chain length must be >= 1", tok[2])
        tok = self.next()
        strategies = {s.value: s for s in ChainStrategy}
        if tok[0] != "name" or tok[1] not in strategies:
            raise SetExprError("expected 'aligned' or 'shifted'", tok[2])
        self.expect("eof", "end of expression")
        return eval_chain(SetExprChain(base, partner, length, strategies[tok[1]]))

    def parse_expr(self) -> XiSet:
        ops = {"&": xi_intersection, "|": xi_union, "\\": xi_difference}
        node = self.parse_term()
        while self.peek()[0] == "op":
            _, op, _ = self.next()
            node = ops[op](node, self.parse_term())
        return node

    def parse_term(self) -> XiSet:
        kind, _, pos = self.peek()
        if kind == "lparen":
            if self.depth == MAX_DEPTH:
                raise SetExprError(f"parentheses nested deeper than {MAX_DEPTH}", pos)
            self.next()
            self.depth += 1
            node = self.parse_expr()
            self.depth -= 1
            self.expect("rparen", "')'")
            return node
        components = [self.parse_setlit()]
        while self.peek()[0] == "dpipe":
            self.next()
            components.append(self.parse_setlit())
        return XiSet.of(*components)

    def parse_setlit(self) -> frozenset:
        kind, value, pos = self.next()
        if kind == "int" and value == "0":
            return frozenset()
        if kind != "lbrace":
            raise SetExprError("expected a set literal ('{...}' or '0')", pos)
        atoms = []
        if self.peek()[0] == "rbrace":
            self.next()
            return frozenset()
        while True:
            atoms.append(self.parse_atom())
            kind, _, pos = self.next()
            if kind == "rbrace":
                return frozenset(atoms)
            if kind != "comma":
                raise SetExprError("expected ',' or '}' in set literal", pos)

    def parse_atom(self):
        kind, value, pos = self.next()
        if kind == "int":
            return _int(value, pos)
        if kind == "name":
            return value
        raise SetExprError("expected an atom (integer or name)", pos)


def evaluate(text: str) -> Union[XiSet, ChainResult]:
    """Parse and evaluate an expression; raises :class:`SetExprError` with
    the offending position on malformed input."""
    return _Parser(text).parse_input()
