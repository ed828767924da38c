"""Finite multi-valued sets.

A :class:`XiSet` is a value that equals several ordinary finite sets at
once; its components are kept deduplicated in first-appearance order, and
its class is the number of distinct components.  An ordinary set embeds as
the class-1 case.  Equality between xi-sets ignores component order.

The two forming functions come from evaluating an infinite alternating
intersection/union chain under its two natural bracketings:

    cap_xi(A, B) -> A || (A cap B)        cup_xi(A, B) -> (A cup B) || A

:func:`eval_chain` evaluates that chain at finite length: the Aligned
bracketing consumes the tokens as (G cap P) groups, the Shifted bracketing
regroups them as G cap (P cup G) cap ... and leaves a final partner operand
dangling -- the same move that reassigns Grandi's series a different sum.
Since (G cap P) cup (G cap P) = G cap P (idempotence) and G cap (P cup G) = G
(absorption), each bracketing's first group is its value at every length.
The divergence between the two is demonstrated, never asserted as an
equality of sets: an empty partner yields theta one way and G the other.

Operations on xi-sets act pairwise over the Cartesian product of components,
so the class of a result is at most the product of the operand classes.
Infinite classes have no finite data model and are out of scope.

All values are immutable; everything here is pure.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Hashable, Iterable

from .cutoffs import _Record

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "EMPTY_SET",
    "XiSet",
    "xi_cap",
    "xi_cup",
    "xi_union",
    "xi_intersection",
    "xi_difference",
    "MembershipMode",
    "MembershipReport",
    "membership",
    "membership_index",
    "ChainStrategy",
    "SetExprChain",
    "ChainResult",
    "eval_chain",
    "grandi_demo",
    "format_finite_set",
    "atom_key",
]

EMPTY_SET: frozenset = frozenset()
MAX_PAIRS = 100_000  # component pairs one xi-set operation may build
MAX_GRANDI_TERMS = 1_000_000


def atom_key(atom):
    """Sort key for atoms: integers in numeric order, then the rest by text."""
    if isinstance(atom, int):
        return (0, atom, "")
    return (1, 0, str(atom))


def _set_text(texts: list[str]) -> str:
    """One finite set in the expression-language syntax, from its atoms'
    texts in order; theta is ``0``."""
    return "{" + ",".join(texts) + "}" if texts else "0"


def format_finite_set(s: Iterable[Hashable]) -> str:
    """Render a finite set in the expression-language syntax; theta is ``0``."""
    return _set_text([str(a) for a in sorted(s, key=atom_key)])


class XiSet(_Record):
    """An ordered, deduplicated tuple of component sets."""

    def __init__(self, components: Iterable[Iterable[Hashable]]):
        normalized = tuple(dict.fromkeys(frozenset(c) for c in components))
        if not normalized:
            raise ValueError("a xi-set needs at least one component")
        object.__setattr__(self, "components", normalized)

    @classmethod
    def of(cls, *components: Iterable[Hashable]) -> "XiSet":
        return cls(tuple(components))

    @property
    def xi_class(self) -> int:
        return len(self.components)

    # equality is extensional and order-insensitive (components are already
    # deduplicated, so comparing them as sets loses nothing)
    def __eq__(self, other):
        if not isinstance(other, XiSet):
            return NotImplemented
        return frozenset(self.components) == frozenset(other.components)

    def __hash__(self):
        return hash(frozenset(self.components))

    def __or__(self, other: "XiSet") -> "XiSet":
        return xi_union(self, other)

    def __and__(self, other: "XiSet") -> "XiSet":
        return xi_intersection(self, other)

    def __sub__(self, other: "XiSet") -> "XiSet":
        return xi_difference(self, other)

    def __str__(self):
        return _components_text(self, membership_index(self))

    def __repr__(self):
        return f"XiSet[{self}]"


def xi_cap(a: Iterable[Hashable], b: Iterable[Hashable]) -> XiSet:
    """Forming function: the chain A cap B cup A cap B cup ... evaluates to
    A under one bracketing and to A cap B under the other, so its value is
    the xi-set A || (A cap B).  Class 1 exactly when A is a subset of B."""
    a, b = frozenset(a), frozenset(b)
    return XiSet.of(a, a & b)


def xi_cup(a: Iterable[Hashable], b: Iterable[Hashable]) -> XiSet:
    """Forming function: (A cup B) || A, by the dual bracketing argument."""
    a, b = frozenset(a), frozenset(b)
    return XiSet.of(a | b, a)


def _pairwise(x: XiSet, y: XiSet, op) -> XiSet:
    pairs = x.xi_class * y.xi_class
    if pairs > MAX_PAIRS:
        raise ValueError(f"xi-set operation over {pairs} component pairs exceeds the cap of {MAX_PAIRS}")
    return XiSet(tuple(op(cx, cy) for cx in x.components for cy in y.components))


def xi_union(x: XiSet, y: XiSet) -> XiSet:
    """Pairwise union over the component product (class at most m * n)."""
    return _pairwise(x, y, frozenset.__or__)


def xi_intersection(x: XiSet, y: XiSet) -> XiSet:
    return _pairwise(x, y, frozenset.__and__)


def xi_difference(x: XiSet, y: XiSet) -> XiSet:
    return _pairwise(x, y, frozenset.__sub__)


class MembershipMode(enum.Enum):
    ALL = "all"
    SOME = "some"
    NONE = "none"


class MembershipReport(_Record):
    """Which components (1-based indices) contain the atom."""

    _compare = _repr = ("atom", "index_set", "mode")

    def __init__(self, atom: Hashable, index_set: frozenset, mode: MembershipMode):
        object.__setattr__(self, "atom", atom)
        object.__setattr__(self, "index_set", index_set)
        object.__setattr__(self, "mode", mode)


def _mode(count: int, xi_class: int) -> MembershipMode:
    """ALL for an atom in every component, NONE in none, SOME otherwise."""
    if not count:
        return MembershipMode.NONE
    if count == xi_class:
        return MembershipMode.ALL
    return MembershipMode.SOME


def membership(atom: Hashable, x: XiSet) -> MembershipReport:
    """Indexed membership: T = { i : atom in component i }.

    mode is ALL when T covers every component, NONE when T is empty (the
    traditional "not a member"), SOME otherwise.
    """
    indices = frozenset(i for i, c in enumerate(x.components, start=1) if atom in c)
    return MembershipReport(atom=atom, index_set=indices, mode=_mode(len(indices), x.xi_class))


def membership_index(x: XiSet) -> list[tuple[Hashable, list[int], MembershipMode]]:
    """Indexed membership of every atom of the union, in one pass.

    Returns ``(atom, T, mode)`` per atom in ``atom_key`` order, with T the
    ascending 1-based indices of the components that hold the atom: the
    index set and mode that :func:`membership` gives atom by atom, built by
    one pass over the components instead of one scan per atom.  An atom
    outside the union is absent; its mode is NONE.
    """
    hits = {atom: [] for atom in sorted(frozenset().union(*x.components), key=atom_key)}
    for i, c in enumerate(x.components, start=1):
        for atom in c:
            hits[atom].append(i)
    return [(atom, t, _mode(len(t), x.xi_class)) for atom, t in hits.items()]


def _components_text(x: XiSet, index: list[tuple[Hashable, list[int], MembershipMode]]) -> str:
    """``str(x)`` from ``index``, its :func:`membership_index`: each atom's
    text joins the part of every component in its T, so each part is in
    ``atom_key`` order.  Atoms that compare equal (1, 1.0, True) are one atom
    of the union and print as the text of the first one seen."""
    parts = [[] for _ in range(x.xi_class + 1)]
    for atom, t, _ in index:
        text = str(atom)
        for i in t:
            parts[i].append(text)
    return " || ".join(map(_set_text, parts[1:]))


class ChainStrategy(enum.Enum):
    ALIGNED = "aligned"
    SHIFTED = "shifted"


class SetExprChain(_Record):
    """A finite alternating chain  G cap P cup G cap P cup ... cap P.

    ``length`` counts the (G cap P) operand pairs, i.e. the number of cap
    tokens; unions alternate between them.
    """

    _compare = _repr = ("base", "partner", "length", "strategy")

    def __init__(self, base: Iterable[Hashable], partner: Iterable[Hashable], length: int, strategy: ChainStrategy):
        object.__setattr__(self, "base", frozenset(base))
        object.__setattr__(self, "partner", frozenset(partner))
        if length < 1:
            raise ValueError(f"chain length must be >= 1, got {length!r}")
        object.__setattr__(self, "length", length)
        object.__setattr__(self, "strategy", strategy)


class ChainResult(_Record):
    """Chain value plus the bookkeeping that makes the regrouping auditable.

    ``dangling`` is the trailing partner operand the Shifted bracketing
    leaves unconsumed (None for Aligned, which consumes every token).
    """

    _compare = _repr = ("value", "strategy", "groups", "dangling")

    def __init__(self, value: frozenset, strategy: ChainStrategy, groups: int, dangling: frozenset | None):
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "strategy", strategy)
        object.__setattr__(self, "groups", groups)
        object.__setattr__(self, "dangling", dangling)


def eval_chain(chain: SetExprChain) -> ChainResult:
    """Evaluate the chain under its bracketing strategy.

    Aligned groups as (G cap P) cup (G cap P) cup ... and Shifted regroups as
    G cap (P cup G) cap (P cup G) ... with the final P left dangling.  Since
    (G cap P) cup (G cap P) = G cap P (idempotence) and G cap (P cup G) = G
    (absorption), each bracketing's first group is its value at every length:
    Aligned returns G cap P and Shifted returns G -- in particular G itself
    for an empty partner, where Aligned returns theta.
    """
    g, p = chain.base, chain.partner
    if chain.strategy is ChainStrategy.ALIGNED:
        return ChainResult(g & p, chain.strategy, chain.length, None)
    return ChainResult(g, chain.strategy, chain.length - 1, p)


def grandi_demo(k: int) -> tuple[list[int], Fraction]:
    """Partial sums of 1 - 1 + 1 - 1 + ... and their exact Cesaro mean.

    The sums alternate 1, 0, 1, 0, ...; the mean of the first k of them is
    ceil(k/2) / k, which tends to 1/2 -- the summation value the alternating
    chain analogy is built on.
    """
    if not 1 <= k <= MAX_GRANDI_TERMS:
        raise ValueError(f"k must lie in [1, {MAX_GRANDI_TERMS}], got {k!r}")
    sums: list[int] = []
    acc = 0
    for n in range(k):
        acc += 1 if n % 2 == 0 else -1
        sums.append(acc)
    from fractions import Fraction  # with decimal, only grandi needs it

    return sums, Fraction(sum(sums), k)
