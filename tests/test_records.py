"""The record classes compare, print and hash as dataclasses would.

Each record compares field by field, only with its own class, and prints
as ``Name(field=value, ...)``.  ``Variable`` is immutable and hashable;
every other record is unhashable.  Memos and indexes built from the
fields stay out of equality and ``repr``.
"""

import math

import pytest

from cgcuts.bk import BkParams, BkResult, WeightedSubgraph
from cgcuts.cgraph import CliqueStore, ConflictGraph, RowCliques
from cgcuts.model import FractionalPoint, KnapsackRow, MilpInstance, Row, Variable
from cgcuts.oracle import ProbeResult
from cgcuts.presolve import StrengthenReport
from cgcuts.sep_clique import CliqueCut, FractionalSubgraph
from cgcuts.sep_oddcycle import AuxiliaryGraph, OddCycleCut


def _instance(name=""):
    return MilpInstance([Variable("x", 0.0, 1.0, True)], [Row("r", [(0, 1.0)], "<=", 1.0)],
                        name=name)


def _graph(n_vars=1):
    return ConflictGraph(n_vars, CliqueStore(blocks=[[] for _ in range(2 * n_vars)]),
                         [((v + n_vars) % (2 * n_vars),) for v in range(2 * n_vars)])


# (class, keyword arguments, another value for each field, expected repr)
RECORDS = [
    (Variable,
     dict(name="y", lower=0.0, upper=math.inf, is_integer=False, objective_coeff=3.0),
     dict(name="z", lower=-1.0, upper=1.0, is_integer=True, objective_coeff=0.0),
     "Variable(name='y', lower=0.0, upper=inf, is_integer=False, objective_coeff=3.0)"),
    (Row,
     dict(name="r", coeffs=[(0, 1.0)], sense="<=", rhs=1.0),
     dict(name="s", coeffs=[(0, 2.0)], sense=">=", rhs=2.0),
     "Row(name='r', coeffs=[(0, 1.0)], sense='<=', rhs=1.0)"),
    (MilpInstance,
     dict(variables=[Variable("x")], rows=[], name="M", objective_name="OBJ"),
     dict(variables=[Variable("y")], rows=[Row("r", [(0, 1.0)], "<=", 1.0)], name="N",
          objective_name="COST"),
     "MilpInstance(variables=[Variable(name='x', lower=0.0, upper=inf, is_integer=False, "
     "objective_coeff=0.0)], rows=[], name='M', objective_name='OBJ')"),
    (KnapsackRow,
     dict(literals=[(0, 1.0)], rhs=1.0),
     dict(literals=[(1, 1.0)], rhs=2.0),
     "KnapsackRow(literals=[(0, 1.0)], rhs=1.0)"),
    (FractionalPoint,
     dict(values={0: 0.5}, reduced_costs={0: -1.0}),
     dict(values={0: 0.25}, reduced_costs=None),
     "FractionalPoint(values={0: 0.5}, reduced_costs={0: -1.0})"),
    (RowCliques,
     dict(initial=[0, 1, 2], addtl=[(3, 2)]),
     dict(initial=[0, 1], addtl=[]),
     "RowCliques(initial=[0, 1, 2], addtl=[(3, 2)])"),
    (CliqueStore,
     dict(first=[[0, 1]], addtl=[(2, 0, 2)], first_stored=[True], blocks=[[(0, 0)]]),
     dict(first=[], addtl=[], first_stored=[], blocks=[]),
     "CliqueStore(first=[[0, 1]], addtl=[(2, 0, 2)], first_stored=[True], "
     "blocks=[[(0, 0)]])"),
    (ConflictGraph,
     dict(n_vars=1, store=CliqueStore(blocks=[[], []]), adjlist=[(1,), (0,)],
          cliques_detected=0),
     dict(n_vars=2, store=CliqueStore(), adjlist=[(1,), ()], cliques_detected=1),
     "ConflictGraph(n_vars=1, store=CliqueStore(first=[], addtl=[], first_stored=[], "
     "blocks=[[], []]), adjlist=[(1,), (0,)], cliques_detected=0)"),
    (StrengthenReport,
     dict(extended=[(0, 1)], removed_rows=[1], instance=_instance()),
     dict(extended=[], removed_rows=[], instance=_instance("other")),
     "StrengthenReport(extended=[(0, 1)], removed_rows=[1], instance=MilpInstance("
     "variables=[Variable(name='x', lower=0.0, upper=1.0, is_integer=True, "
     "objective_coeff=0.0)], rows=[Row(name='r', coeffs=[(0, 1.0)], sense='<=', "
     "rhs=1.0)], name='', objective_name='OBJ'))"),
    (CliqueCut,
     dict(members=frozenset({0, 1, 2}), violation=0.5, lifted_members=frozenset()),
     dict(members=frozenset({0, 1}), violation=0.25, lifted_members=frozenset({1})),
     "CliqueCut(members=frozenset({0, 1, 2}), violation=0.5, lifted_members=frozenset())"),
    (WeightedSubgraph,
     dict(nodes=[3, 1], weights=[0.5, 0.25], adj=[2, 1]),
     dict(nodes=[1, 3], weights=[0.5, 0.5], adj=[0, 0]),
     "WeightedSubgraph(nodes=[3, 1], weights=[0.5, 0.25], adj=[2, 1])"),
    (BkParams,
     dict(min_weight=1.0, max_calls=10),
     dict(min_weight=1.5, max_calls=5),
     "BkParams(min_weight=1.0, max_calls=10)"),
    (BkResult,
     dict(cliques=[frozenset({0, 1})], exact=True, calls=3),
     dict(cliques=[], exact=False, calls=4),
     "BkResult(cliques=[frozenset({0, 1})], exact=True, calls=3)"),
    (FractionalSubgraph,
     dict(nodes=[3, 1], weights=[0.5, 0.25], adj=[2, 1], lift={3: frozenset({2}), 1: frozenset()}),
     dict(nodes=[1, 3], weights=[0.5, 0.5], adj=[0, 0], lift={}),
     "FractionalSubgraph(nodes=[3, 1], weights=[0.5, 0.25], adj=[2, 1], "
     "lift={3: frozenset({2}), 1: frozenset()})"),
    (OddCycleCut,
     dict(cycle=(0, 1, 2, 3, 4), center=frozenset(), violation=0.5),
     dict(cycle=(0, 1, 2, 3, 4, 5, 6), center=frozenset({7}), violation=0.25),
     "OddCycleCut(cycle=(0, 1, 2, 3, 4), center=frozenset(), violation=0.5)"),
    (AuxiliaryGraph,
     dict(nodes=[0, 1], adj=[[(3, 0.0)], [(2, 0.0)], [], []], dead=[False, True],
          clamped_edges=1),
     dict(nodes=[0, 2], adj=[[], [], [], []], dead=[False, False], clamped_edges=0),
     "AuxiliaryGraph(nodes=[0, 1], adj=[[(3, 0.0)], [(2, 0.0)], [], []], dead=[False, True], "
     "clamped_edges=1)"),
    (ProbeResult,
     dict(edges={frozenset({0, 1})}),
     dict(edges=set()),
     "ProbeResult(edges={frozenset({0, 1})})"),
]


@pytest.mark.parametrize("cls, kwargs, others, text", RECORDS,
                         ids=[r[0].__name__ for r in RECORDS])
def test_records_compare_field_by_field_and_print_their_fields(cls, kwargs, others, text):
    a, b = cls(**kwargs), cls(**kwargs)
    assert a == b and not a != b
    assert repr(a) == text
    assert a != tuple(kwargs.values()) and a != object()
    for field, value in others.items():
        c = cls(**dict(kwargs, **{field: value}))
        assert c != a and not c == a, field
    if cls is Variable:
        assert hash(a) == hash(b)
        for field, value in others.items():
            with pytest.raises(AttributeError):
                setattr(a, field, value)
        assert a == b
    else:
        with pytest.raises(TypeError):
            hash(a)


def test_row_has_slots_and_no_instance_dict():
    row = Row("r", [(0, 1.0)], "<=", 1.0)
    assert not hasattr(row, "__dict__")
    with pytest.raises(AttributeError):
        row.extra = 1


def test_clique_cut_has_slots_and_no_instance_dict():
    cut = CliqueCut(frozenset({0, 1}), 0.5, frozenset())
    assert not hasattr(cut, "__dict__")
    with pytest.raises(AttributeError):
        cut.extra = 1


def test_instance_equality_leaves_out_its_indexes():
    a, b = _instance(), _instance()
    b._index, b._binary = {"other": 0}, [False]
    assert a == b and repr(a) == repr(b)
    assert "_index" not in repr(a) and "_binary" not in repr(a)


def test_graph_equality_leaves_out_its_memos():
    a, b = _graph(2), _graph(2)
    for g in (a, b):
        g.store.first.append([0, 1])
        g.store.first_stored.append(True)
        g.store.blocks[0].append((0, 0))
        g.store.blocks[1].append((0, 0))
    assert a._members(0, 0) == frozenset({0, 1}) and a.degree(0) == 2
    assert a._sets and not b._sets
    assert a == b and repr(a) == repr(b)
    b.neighbors = lambda v: ()  # an instance attribute, as gen.count_neighbors_calls sets
    assert b.neighbors(0) == ()


def test_records_take_keywords_and_defaults_as_callers_pass_them():
    assert Variable("y", objective_coeff=3.0) == Variable("y", 0.0, math.inf, False, 3.0)
    assert not Variable("y").is_binary and Variable("b", 0.0, 1.0, True).is_binary
    store = CliqueStore(blocks=[[], []])
    assert (store.first, store.addtl, store.first_stored) == ([], [], [])
    other = CliqueStore()
    other.first.append([0])
    assert CliqueStore().first == [] and store.first == []  # no list is shared
    point = FractionalPoint({0: 1.0 + 1e-9, 1: -1e-9}, reduced_costs={0: 2.0})
    assert point.values == {0: 1.0, 1: 0.0} and point.reduced_costs == {0: 2.0}
    assert FractionalPoint({0: 0.5}).reduced_costs is None
    assert MilpInstance([], []).objective_name == "OBJ"
    assert ConflictGraph(0, CliqueStore(), []).cliques_detected == 0
