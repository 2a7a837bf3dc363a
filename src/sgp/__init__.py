"""Exact factorization analytics for numerical semigroups.

Two layers.  `core_semigroup` is a generic engine with no closed forms,
built on the Apery set of the smallest generator, that works on any
generating set: membership, factorizations, Apery sets, Betti elements
and the set of members with a single factorization length.  On top of it
sit closed forms for the consecutive triple <a, a+1, a+2>
(`consecutive_triple`, `render`) and for generalized arithmetic
sequences (`arithmetic_sequence`); every closed form is testable against
the engine, and `sgp verify` runs that comparison from the shell.  The
engine in turn is tested against `oracle`, the literal definitions of
the invariants computed by listing factorizations, slow but obvious.

All arithmetic is exact; there are no floats anywhere in the package.
"""

from .arithmetic_sequence import (
    ArithSemigroup,
    betti_arith,
    presentation_arith,
    ubetti_arith,
)
from .consecutive_triple import (
    SeedDescriptor,
    TripleDecomposition,
    TripleSemigroup,
    UlfElement,
    decompose_triple,
    denumerant_triple,
    factorizations_triple,
    gamma,
    length_triple,
    member_triple,
    monomial_basis,
    presentation_triple,
    s_d_i,
    s_d_ulf,
    s_ell,
    seed,
    ubetti_triple,
    ulf_membership_triple,
    ulf_triple,
)
from .core_semigroup import (
    BettiClassification,
    Factorization,
    NotMemberError,
    Presentation,
    Semigroup,
    apery,
    apery_multi,
    betti_elements,
    factorizations,
    length_sets_up_to,
    min_ulf_breaker,
    minimal_generators,
    ulf,
)
from .oracle import FactorizationGraph, denumerant, length_set, nabla_graph
from .render import (
    MonomialTable,
    PartitionTable,
    cell_class,
    monomial_table,
    monomial_table_to_text,
    partition_table,
    table_from_csv,
    table_to_csv,
    table_to_json,
    table_to_text,
    ulf_by_denumerant_report,
    ulf_by_length_report,
)

__version__ = "0.1.0"
