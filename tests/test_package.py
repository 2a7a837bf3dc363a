"""The lazily loaded `sgp` namespace and the immutable result records."""

import importlib
import sys

import pytest

import sgp
from sgp import consecutive_triple as ct
from sgp import core_semigroup as core
from sgp import oracle, render

MODULES = ("arithmetic_sequence", "cli", "consecutive_triple",
           "core_semigroup", "grammar", "oracle", "records", "render",
           "verify")


def test_exported_names_are_their_modules_objects():
    for name in sgp.__all__:
        obj = getattr(sgp, name)
        assert obj.__module__.startswith("sgp."), name
        assert getattr(sys.modules[obj.__module__], name) is obj, name


def test_star_import_and_dir_list_every_name():
    namespace = {}
    exec("from sgp import *", namespace)
    for name in sgp.__all__:
        assert namespace[name] is getattr(sgp, name), name
    assert set(sgp.__all__) | set(MODULES) <= set(dir(sgp))


def test_submodules_resolve_as_attributes():
    for name in MODULES:
        assert getattr(sgp, name) is importlib.import_module("sgp." + name)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="nope"):
        sgp.nope
    assert not hasattr(sgp, "nope")


def test_shared_records_are_one_class_each():
    from sgp import arithmetic_sequence, records

    for name in ("Factorization", "BettiClassification", "Presentation",
                 "NotMemberError"):
        cls = getattr(records, name)
        assert cls.__module__ == "sgp.records"
        for module in (core, ct, sgp):
            assert getattr(module, name) is cls, (module, name)
        # the modules that import only some of them
        for module in (arithmetic_sequence, oracle):
            assert getattr(module, name, cls) is cls, (module, name)


def test_records_pickle_and_catch_as_before():
    import pickle

    cls = ct.ubetti_triple(10)
    copy = pickle.loads(pickle.dumps(cls))
    assert copy == cls and type(copy) is core.BettiClassification
    with pytest.raises(core.NotMemberError):
        ct.factorizations_triple(10, 1)


def records():
    S = core.Semigroup((10, 11, 12))
    return [core.betti_elements(S), ct.presentation_triple(10),
            ct.seed(10, 43), ct.decompose_triple(10, 43),
            ct.ulf_triple(10)[5], render.partition_table(10),
            render.monomial_table(10, 3, 2), oracle.nabla_graph(S, 60)]


def test_records_are_immutable_values():
    kinds = set()
    for rec in records():
        kind = type(rec)
        kinds.add(kind.__name__)
        copy = kind(**rec._asdict())
        assert copy == rec and copy is not rec
        assert repr(copy) == repr(rec)
        assert repr(rec).startswith("%s(%s=" % (kind.__name__,
                                                kind._fields[0]))
        if not any(isinstance(v, dict) for v in rec):  # cells are dicts
            assert hash(copy) == hash(rec)
        assert rec._replace(**{kind._fields[0]: None}) != rec
        with pytest.raises(AttributeError):
            setattr(rec, kind._fields[0], None)
        with pytest.raises(AttributeError):
            rec.extra = 1
    assert kinds == {"BettiClassification", "Presentation", "SeedDescriptor",
                     "TripleDecomposition", "UlfElement", "PartitionTable",
                     "MonomialTable", "FactorizationGraph"}
