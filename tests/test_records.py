"""The package's records: hand-written slotted classes and ``NamedTuple``s.

Each record below keeps what it promised as a dataclass.  A frozen one
refuses every assignment and deletion with :class:`AttributeError`; each
checks what it checked when built; and ``==``, ``hash`` and ``repr`` give
what a dataclass of the same fields gives, one built here with
``dataclasses.make_dataclass`` as the oracle.  Records that could change
stay unhashable.
"""
import dataclasses
import math
import operator

import pytest

from gpislands.evolution import (
    EvalStats,
    EvolutionStrategy,
    Operator,
    Population,
    SelectorBinding,
    StrategyStep,
)
from gpislands.feed import Feed, FeedCatalog, FeedReport, UserModel
from gpislands.harness import ExperimentConfig, ExperimentResult, SummaryRow
from gpislands.islands import (
    AdmissionReport,
    GenerationStats,
    IslandSpec,
    MigrantEnvelope,
    MigrationMode,
    MigrationPolicy,
)
from gpislands.localisation import Provider, Segment, WorldConfig, _Layout, _Tick
from gpislands.trees import (
    Category,
    ConfigurationError,
    Individual,
    NodeKind,
    Origin,
    PrimitiveSet,
    ProgramTree,
    Sort,
    terminal,
)

LAT = terminal("lat", Sort.NUMBER)
TREE = ProgramTree(LAT)
FEEDS = (Feed("a", "tech", 3), Feed("b", "other", 1))
STRATEGY = EvolutionStrategy({"L": SelectorBinding(1)}, [StrategyStep(Operator.COPY, 1, "L")])
SOURCE = ((0.0, 0.0), 5.0, 0)


def fitness(member):
    return 0.5


def numbers(member):
    return 0.25


#: Each record: whether it was a frozen dataclass, two builders of records
#: that differ in one field, and the constructions it rejects, each with a
#: piece of the message.
RECORDS = {
    # trees
    NodeKind: (True, lambda: NodeKind("add", (Sort.NUMBER,) * 2, Sort.NUMBER,
                                      Category.FUNCTION, operator.add),
               lambda: NodeKind("sub", (Sort.NUMBER,) * 2, Sort.NUMBER,
                                Category.FUNCTION, operator.sub),
               [(lambda: NodeKind("f", (), Sort.NUMBER, Category.FUNCTION, operator.add),
                 "needs arguments"),
                (lambda: NodeKind("f", (Sort.NUMBER,), Sort.NUMBER, Category.FUNCTION),
                 "needs an implementation"),
                (lambda: NodeKind("x", (Sort.NUMBER,), Sort.NUMBER, Category.TERMINAL),
                 "must have arity 0")]),
    PrimitiveSet: (False, lambda: PrimitiveSet([LAT], Sort.NUMBER),
                   lambda: PrimitiveSet([LAT], Sort.NUMBER, function_bias=0.75),
                   [(lambda: PrimitiveSet([LAT, LAT], Sort.NUMBER), "duplicate kind name")]),
    Individual: (False, lambda: Individual(TREE, Origin.LOCAL, 0.5),
                 lambda: Individual(TREE, Origin.LOCAL, 0.25), []),
    # evolution
    Population: (False, lambda: Population([], helper_rejections=1),
                 lambda: Population([], helper_rejections=1, guard_fallbacks=1), []),
    SelectorBinding: (True, lambda: SelectorBinding(3), lambda: SelectorBinding(None),
                      [(lambda: SelectorBinding(0), "pool_best"),
                       (lambda: SelectorBinding(True), "pool_best"),
                       (lambda: SelectorBinding(1.0), "pool_best")]),
    StrategyStep: (True, lambda: StrategyStep(Operator.COPY, 1, "L"),
                   lambda: StrategyStep(Operator.COPY, 2, "L"),
                   [(lambda: StrategyStep(Operator.COPY, -1, "L"), "step count"),
                    (lambda: StrategyStep(Operator.COPY, True, "L"), "step count")]),
    EvolutionStrategy: (False, lambda: EvolutionStrategy(STRATEGY.selectors, STRATEGY.steps),
                        lambda: EvolutionStrategy({}, [StrategyStep(Operator.RANDOM, 1)]),
                        [(lambda: EvolutionStrategy({}, [StrategyStep(Operator.COPY, 1, "L")]),
                          "unknown selector"),
                         (lambda: EvolutionStrategy({}, [StrategyStep(Operator.COPY, 1)]),
                          "needs a selector"),
                         (lambda: EvolutionStrategy({}, []), "at least 1 member")]),
    EvalStats: (True, lambda: EvalStats(1.0, 0.5, 3.0, 2.0),
                lambda: EvalStats(1.0, 0.5, 3.0, 2.5), []),
    # islands
    MigrationPolicy: (True, lambda: MigrationPolicy(5, 0.1, MigrationMode.MIGRATE),
                      lambda: MigrationPolicy(5, 0.1, MigrationMode.NONE),
                      [(lambda: MigrationPolicy(interval=0), "interval"),
                       (lambda: MigrationPolicy(rate=1.5), "rate"),
                       (lambda: MigrationPolicy(rate=math.nan), "rate")]),
    MigrantEnvelope: (True, lambda: MigrantEnvelope("(lat)"),
                      lambda: MigrantEnvelope(TREE), []),
    AdmissionReport: (True, lambda: AdmissionReport(1, 0), lambda: AdmissionReport(0, 1), []),
    GenerationStats: (True, lambda: GenerationStats(0, 1, 0, 0.5, 0.25, 3.0, 2.0, 0, 0, 0),
                      lambda: GenerationStats(0, 1, 1, 0.5, 0.25, 3.0, 2.0, 0, 0, 0), []),
    IslandSpec: (False, lambda: IslandSpec(STRATEGY, fitness, "s"),
                 lambda: IslandSpec(STRATEGY, numbers, "s"), []),
    # harness
    ExperimentConfig: (False, lambda: ExperimentConfig("feed"),
                       lambda: ExperimentConfig("feed", seed="0"), []),
    SummaryRow: (True, lambda: SummaryRow(0, 1, 0.5, 0.1, 0.05, 0.25, 0.1, 0.05),
                 lambda: SummaryRow(1, 1, 0.5, 0.1, 0.05, 0.25, 0.1, 0.05), []),
    ExperimentResult: (False, lambda: ExperimentResult(ExperimentConfig("feed"), [], []),
                       lambda: ExperimentResult(ExperimentConfig("localisation"), [], []), []),
    # feed
    Feed: (True, lambda: Feed("a", "tech", 3), lambda: Feed("a", "tech", 4),
           [(lambda: Feed("", "tech", 1), "id must be a non-empty string"),
            (lambda: Feed("a", None, 1), "group must be a non-empty string"),
            (lambda: Feed("a b", "tech", 1), "whitespace or parentheses"),
            (lambda: Feed("a", "tech", -1), "unread must be a whole number"),
            (lambda: Feed("a", "tech", True), "unread must be a whole number"),
            (lambda: Feed("a", "tech", 10 ** 400), "too large for a float")]),
    FeedCatalog: (True, lambda: FeedCatalog(FEEDS), lambda: FeedCatalog(FEEDS[:1]),
                  [(lambda: FeedCatalog(()), "at least one feed"),
                   (lambda: FeedCatalog(FEEDS[:1] * 2), "unique")]),
    UserModel: (True, lambda: UserModel({"a": 0.9}), lambda: UserModel({"a": 0.1}), []),
    FeedReport: (False, lambda: FeedReport(), lambda: FeedReport(displayed=[("a", 0)]), []),
    # localisation
    Provider: (True, lambda: Provider("gps", 5.0, 140.0, 10.0),
               lambda: Provider("gps", 5.0, 140.0, 9.0),
               [(lambda: Provider("gps", math.nan, 140.0, 10.0), "radius_m"),
                (lambda: Provider("gps", 5.0, -1.0, 10.0), "draw_ma"),
                (lambda: Provider("gps", 5.0, 140.0, math.inf), "first_fix_s")]),
    Segment: (True, lambda: Segment(0.0, 10.0, True, False),
              lambda: Segment(0.0, 10.0, True, True),
              [(lambda: Segment(10.0, 0.0, True, False), "must not end before"),
               (lambda: Segment(0.0, math.nan, True, False), "must not end before"),
               (lambda: Segment(0.0, 10.0, 1, False), "true or false")]),
    WorldConfig: (True, lambda: WorldConfig(), lambda: WorldConfig(ticks=30),
                  [(lambda: WorldConfig(providers=()), "at least one provider"),
                   (lambda: WorldConfig(segments=()), "at least one segment"),
                   (lambda: WorldConfig(waypoints=()), "at least one waypoint"),
                   (lambda: WorldConfig(ticks=0), "ticks must be a whole number"),
                   (lambda: WorldConfig(waypoints=((1.0, 0.0, 0.0), (0.0, 0.0, 0.0))),
                    "must not decrease")]),
    _Tick: (True, lambda: _Tick((), SOURCE), lambda: _Tick((), None), []),
    _Layout: (True, lambda: _Layout({0.0: _Tick((), None)}, (1.0,)),
              lambda: _Layout({0.0: _Tick((), None)}, (0.5,)), []),
}

CLASSES = list(RECORDS)
FROZEN = [cls for cls in CLASSES if RECORDS[cls][0]]


def test_every_former_dataclass_is_listed():
    assert len(RECORDS) == 25


def twins_of(records):
    """The dataclass the records' class used to be, one for them all, and
    each record as an instance of it."""
    cls = type(records[0])
    twin = dataclasses.make_dataclass(cls.__name__, cls._fields, frozen=RECORDS[cls][0])
    return [twin(*[getattr(record, name) for name in cls._fields]) for record in records]


@pytest.mark.parametrize("cls", FROZEN, ids=lambda cls: cls.__name__)
def test_a_frozen_record_refuses_every_change(cls):
    record = RECORDS[cls][1]()
    values = [getattr(record, name) for name in cls._fields]
    for name in (*cls._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert [getattr(record, name) for name in cls._fields] == values


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_a_record_checks_what_it_checked_when_built(cls):
    _, make, other, rejected = RECORDS[cls]
    make(), other()
    for build, message in rejected:
        with pytest.raises(ConfigurationError, match=message):
            build()


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_a_record_compares_and_hashes_as_its_dataclass(cls):
    _, make, other, _ = RECORDS[cls]
    records = [make(), make(), other()]
    twins = twins_of(records)
    for i, j in [(0, 1), (1, 0), (0, 2), (2, 0), (0, 0)]:
        assert ((records[i] == records[j], records[i] != records[j])
                == (twins[i] == twins[j], twins[i] != twins[j]))
    assert records[0] != object() and not records[0] == object()
    try:
        want = [hash(twin) for twin in twins]
    except TypeError:
        for record in records:
            with pytest.raises(TypeError):
                hash(record)
    else:
        assert [hash(record) for record in records] == want
    if cls is not NodeKind:  # a kind's repr is its own
        assert [repr(record) for record in records] == [repr(twin) for twin in twins]


def test_records_of_two_classes_are_never_equal():
    """As with dataclasses, equal fields make no two records of different
    classes equal."""
    assert SelectorBinding(3) != UserModel(3)
    assert not Individual(TREE) == PrimitiveSet([LAT], Sort.NUMBER)


def test_records_that_could_change_still_can():
    member = Individual(TREE)
    member.fitness = 0.5
    assert member == Individual(TREE, Origin.LOCAL, 0.5)
    prims = PrimitiveSet([LAT], Sort.NUMBER)
    assert prims.constant_sources == {} and prims.helper is None
    report = FeedReport()
    assert (report.scores, report.displayed, report.clicked) == ({}, [], [])
    assert FeedReport().displayed is not report.displayed  # a fresh list each
    pop = Population([member])
    pop.helper_rejections += 1
    assert pop == Population([member], helper_rejections=1)
    pop.members.append(Individual(TREE, Origin.IMMIGRANT))
    assert len(pop.members) == 2
