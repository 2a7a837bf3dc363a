"""The result records that the engine and the closed forms share.

`core_semigroup`, `consecutive_triple`, `arithmetic_sequence` and
`oracle` all return these, and `core_semigroup` re-exports them, so each
is one class object however it is reached.  They live apart from the
engine so that a closed form can return them without loading it.
"""

from collections import namedtuple


class NotMemberError(ValueError):
    """An operation was asked about an integer outside the semigroup."""


def not_member(r, gens):
    """The NotMemberError for r outside <gens> that every answerer raises."""
    return NotMemberError("%d is not in Semigroup(%s)"
                          % (r, ", ".join(map(str, gens))))


class Factorization(tuple):
    """Exponent vector over the minimal generators of a semigroup.

    It keeps tuple's repr, and its coordinates are ints: the CLI writes
    a list of them from one str, as `cli._vectors` says.
    """

    __slots__ = ()

    @property
    def length(self) -> int:
        return sum(self)

    def value(self, gens) -> int:
        return sum(c * g for c, g in zip(self, gens))


class BettiClassification(namedtuple("BettiClassification",
                                      "betti balanced unbalanced")):
    """Betti elements split by whether their length set is a singleton."""

    __slots__ = ()


class Presentation(namedtuple("Presentation", "relations")):
    """Pairs of distinct factorizations of equal value."""

    __slots__ = ()
