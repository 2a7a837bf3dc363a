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

The package loads its modules on first use: `import sgp` imports none of
them, and `sgp.betti_elements` or `sgp.render` imports the one module it
needs (PEP 562).  The result records that the engine and the closed
forms share (`BettiClassification`, `Factorization`, `Presentation`,
`NotMemberError`) live in the small `records` module, so a closed form
returns them without loading the engine.  The `sgp` command reaches
each module of a request as an attribute of this package, loaded on
first use: `consecutive_triple` only for a consecutive triple or `sgp
verify`, `arithmetic_sequence` for an arithmetic sequence, the engine on
its engine paths and `render` for `table`.  It imports `verify` only for
`sgp verify`, and `grammar`, the general reading of a command line by
argparse, only for an argv that the one-pass reading in `cli` declines.
Result records such as `BettiClassification` are immutable named tuples,
with `_replace` and `_asdict`.

All arithmetic is exact; there are no floats anywhere in the package.
"""

from importlib import import_module

# each module and the names the package exports from it
_EXPORTS = {
    "arithmetic_sequence": """ArithSemigroup PairSemigroup betti_arith
        classify_arith presentation_arith ubetti_arith""",
    "consecutive_triple": """SeedDescriptor TripleDecomposition
        TripleSemigroup UlfElement decompose_triple denumerant_triple
        factorizations_triple gamma length_triple member_triple
        monomial_basis presentation_triple s_d_i s_d_ulf s_ell seed
        ubetti_triple ulf_membership_triple ulf_triple""",
    "core_semigroup": """Semigroup apery_multi betti_elements
        factorizations length_sets_up_to ulf""",
    "oracle": "FactorizationGraph denumerant length_set nabla_graph",
    "render": """MonomialTable PartitionTable cell_class monomial_table
        monomial_table_to_text partition_table table_to_csv table_to_json
        table_to_text ulf_by_denumerant_report
        ulf_by_length_report""",
    "records": "BettiClassification Factorization NotMemberError Presentation",
}
_MODULES = (*_EXPORTS, "cli", "grammar", "verify")
_ORIGIN = {name: module for module, names in _EXPORTS.items()
           for name in names.split()}
__all__ = list(_ORIGIN)
__version__ = "0.1.0"


def __getattr__(name):
    # called only for a name not yet in globals(): import its module, and
    # cache an exported name so the next lookup is a plain global
    if name in _MODULES:
        return import_module("." + name, __name__)
    if name not in _ORIGIN:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name))
    value = globals()[name] = getattr(
        import_module("." + _ORIGIN[name], __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *_MODULES, *__all__})
