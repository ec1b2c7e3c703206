"""Migration policy, wire format, transports and the lock-step island loop."""
import dataclasses
import logging
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import at_bias

from gpislands import islands as islands_module
from gpislands import udp as udp_module
from gpislands.evolution import Population, island_strategy
from gpislands.feed import FeedEvaluator, default_catalog, landscape_user
from gpislands.islands import (
    AdmissionReport,
    GenerationStats,
    IslandSpec,
    MigrantEnvelope,
    MigrationMode,
    MigrationPolicy,
    SimulatedBroadcastBus,
    Transport,
    WIRE_VERSION,
    admit_immigrants,
    inject_random,
    is_migration_generation,
    run_islands,
    select_emigrants,
)
from gpislands.trees import (
    ConfigurationError,
    Individual,
    Origin,
    ProgramTree,
    Sort,
    build_random_tree,
    deserialize,
    serialize,
    terminal,
)
from gpislands.udp import UdpBroadcastTransport


def sized_fitness(member):
    """Deterministic evaluator: rewards bigger trees, capped at 1."""
    return min(1.0, member.size / 7.0)


def by_island(rows):
    """The rows of each island, in island order; ``run_islands`` makes them
    generation by generation, island by island."""
    islands = {}
    for row in rows:
        islands.setdefault(row.island, []).append(row)
    return [islands[k] for k in sorted(islands)]


def bus_endpoints(count, loss=0.0, seed=0):
    """One endpoint per island of a fresh simulated bus, in island order."""
    bus = SimulatedBroadcastBus(loss=loss, seed=seed)
    return [bus.register() for _ in range(count)]


def scored_population(prims, capacity, seed=0):
    """``capacity`` trees grown over ``prims`` at bias 0.5, each scored."""
    rng = random.Random(seed)
    prims = at_bias(prims, 0.5)
    members = [Individual.from_tree(build_random_tree(prims, 3, rng))
               for _ in range(capacity)]
    for m in members:
        m.fitness = sized_fitness(m)
    return Population(members)


# ---------------------------------------------------------------------------
# policy arithmetic

@pytest.mark.parametrize("rate,expected", [(0.1, 1), (0.2, 2), (0.3, 3),
                                           (0.25, 3), (0.04, 0), (0.15, 2)])
def test_batch_size_rounds_half_up(rate, expected):
    assert MigrationPolicy(rate=rate).batch_size(10) == expected


def test_policy_validation():
    with pytest.raises(ConfigurationError):
        MigrationPolicy(interval=0)
    with pytest.raises(ConfigurationError):
        MigrationPolicy(rate=1.5)


@pytest.mark.parametrize("rate,batch", [(0.0, 0), (0, 0), (1.0, 10), (1, 10)])
def test_a_rate_at_either_end_of_its_range_is_accepted(rate, batch):
    assert MigrationPolicy(rate=rate).batch_size(10) == batch


@pytest.mark.parametrize("rate", [-1e-12, 1.0 + 1e-12, float("nan")])
def test_a_rate_just_past_its_range_is_rejected(rate):
    with pytest.raises(ConfigurationError, match="rate"):
        MigrationPolicy(rate=rate)


def test_migration_generations():
    policy = MigrationPolicy(interval=5)
    assert [g for g in range(21) if is_migration_generation(g, policy)] == [5, 10, 15, 20]
    silent = MigrationPolicy(interval=5, mode=MigrationMode.NONE)
    assert not any(is_migration_generation(g, silent) for g in range(21))


# ---------------------------------------------------------------------------
# the wire format

def test_envelope_round_trip():
    env = MigrantEnvelope("(add (lat) (const:Number 2.5))")
    again = MigrantEnvelope.decode(env.encode())
    assert again == env
    assert env.encode().startswith(f"{WIRE_VERSION}\n".encode())


@pytest.mark.parametrize("data", [
    b"AGPX0\n(lat)\n",          # unknown version
    b"nonsense",                 # no version line
    b"\xff\xfe\x00",             # not utf-8
    b"",
])
def test_unrecognized_wire_bytes_are_dropped(data):
    assert MigrantEnvelope.decode(data) is None


def test_envelopes_are_anonymous(geo_prims):
    """The bytes are a function of the tree alone: no sender identity."""
    assert {f.name for f in dataclasses.fields(MigrantEnvelope)} == {"payload"}
    tree = build_random_tree(geo_prims, 3, random.Random(12))
    assert MigrantEnvelope(tree).encode() == MigrantEnvelope(serialize(tree)).encode()


# ---------------------------------------------------------------------------
# emigration / admission / injection

def test_select_emigrants_copies_distinct_members(geo_prims):
    pop = scored_population(geo_prims, 10)
    policy = MigrationPolicy(rate=0.3)
    envelopes = select_emigrants(pop, policy, random.Random(3))
    assert len(envelopes) == 3
    assert len(pop.members) == 10  # emigrants are copies, not removals
    assert all(any(e.payload is m.tree for m in pop.members) for e in envelopes)
    assert len({id(e.payload) for e in envelopes}) == 3


def test_admit_immigrants_appends_and_counts_drops(geo_prims):
    pop = scored_population(geo_prims, 5)
    good = MigrantEnvelope("(add (lat) (lon))")
    bad = [MigrantEnvelope("(bogus)"),
           MigrantEnvelope("(add (lat)"),
           MigrantEnvelope("(add (add (add (lat) (lon)) (lon)) (lat))")]  # too deep
    report = admit_immigrants(pop, [good] + bad, geo_prims, max_depth=3)
    assert report.admitted == 1
    assert report.dropped == 3
    assert len(pop.members) == 6
    newcomer = pop.members[-1]
    assert newcomer.origin is Origin.IMMIGRANT
    assert newcomer.fitness is None


def test_a_dropped_migrant_leaves_a_debug_record(geo_prims, caplog):
    caplog.set_level(logging.DEBUG, logger="gpislands")
    pop = scored_population(geo_prims, 5)
    report = admit_immigrants(pop, [MigrantEnvelope("(bogus)")], geo_prims, max_depth=3)
    assert report == AdmissionReport(admitted=0, dropped=1)
    assert [(r.name, r.levelno) for r in caplog.records] == \
        [("gpislands.islands", logging.DEBUG)]
    assert "dropping malformed migrant" in caplog.records[0].getMessage()


def test_admit_immigrants_drops_a_deeply_nested_migrant(feed_prims):
    pop = scored_population(feed_prims, 5)
    before = list(pop.members)
    nested = "(add " * 5000 + "(unread_count)" + " (unread_count))" * 5000
    report = admit_immigrants(pop, [MigrantEnvelope(nested)], feed_prims, max_depth=9)
    assert report == AdmissionReport(admitted=0, dropped=1)
    assert pop.members == before


def mutated(data, edits):
    """``data`` after each edit in turn: ``("flip", i, b)`` xors byte ``i``
    with ``b``, ``("insert", i, b)`` puts ``b`` before byte ``i`` and
    ``("delete", i, _)`` drops byte ``i``, every ``i`` taken modulo the
    length."""
    data = bytearray(data)
    for op, at, byte in edits:
        if op == "insert":
            data.insert(at % (len(data) + 1), byte)
        elif data:
            at %= len(data)
            if op == "flip":
                data[at] ^= byte
            else:
                del data[at]
    return bytes(data)


def test_byte_mutated_migrants_are_admitted_or_dropped(feed_prims):
    """Byte-mutated wire bytes of feed trees never make decoding or
    admission raise: every envelope that decodes is admitted or dropped, and
    every one admitted is a tree of the root sort within the depth bound."""
    edit = st.tuples(st.sampled_from(["flip", "insert", "delete"]),
                     st.integers(0, 2**16), st.integers(1, 255))
    migrant = st.tuples(st.integers(0, 2**32 - 1), st.integers(1, 6),
                        st.lists(edit, max_size=3))

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(migrants=st.lists(migrant, min_size=1, max_size=4), max_depth=st.integers(1, 6))
    def fuzz(migrants, max_depth):
        wire = [mutated(MigrantEnvelope(build_random_tree(
                    feed_prims, depth, random.Random(seed))).encode(), edits)
                for seed, depth, edits in migrants]
        decoded = [envelope for envelope in map(MigrantEnvelope.decode, wire)
                   if envelope is not None]
        pop = Population([])
        report = admit_immigrants(pop, decoded, feed_prims, max_depth)
        assert report.admitted + report.dropped == len(decoded)
        assert len(pop.members) == report.admitted
        for member in pop.members:
            assert member.tree.depth <= max_depth
            assert member.tree.sort is feed_prims.root_sort

    fuzz()


@pytest.fixture
def parses(monkeypatch):
    """Every text ``admit_immigrants`` hands to the parser."""
    texts = []
    real = islands_module.deserialize

    def counted(text, *args, **kwargs):
        texts.append(text)
        return real(text, *args, **kwargs)

    monkeypatch.setattr(islands_module, "deserialize", counted)
    return texts


def test_emigrants_resolve_to_the_senders_trees(feed_prims, parses):
    bus = SimulatedBroadcastBus()
    ends = [bus.register(), bus.register()]
    pops = [scored_population(feed_prims, 10, seed) for seed in (1, 2)]
    policy = MigrationPolicy(rate=0.5)
    sent = [select_emigrants(pop, policy, random.Random(k))
            for k, pop in enumerate(pops)]
    for end, envelopes in zip(ends, sent):
        for envelope in envelopes:
            end.send(envelope)
    senders = [[m.tree for m in pop.members] for pop in pops]
    for k in (0, 1):
        report = admit_immigrants(pops[k], ends[k].drain(), feed_prims, 3)
        assert report == AdmissionReport(admitted=5, dropped=0)
        for newcomer in pops[k].members[10:]:
            assert any(newcomer.tree is tree for tree in senders[1 - k])
            assert newcomer.origin is Origin.IMMIGRANT and newcomer.fitness is None
    assert parses == []


def test_text_payloads_are_parsed_and_unfit_trees_are_dropped(geo_prims, parses):
    deep = "(add (add (add (lat) (lon)) (lon)) (lat))"
    texts = ["(add (lat) (lon))", "(add (lat)", deep, "(flag)"]
    trees = [deserialize(deep, geo_prims),  # deeper than the bound
             ProgramTree(terminal("flag", Sort.BOOLEAN))]  # wrong sort
    pop = scored_population(geo_prims, 5)
    report = admit_immigrants(pop, [MigrantEnvelope(p) for p in texts + trees],
                              geo_prims, max_depth=3)
    assert report == AdmissionReport(admitted=1, dropped=5)
    assert parses == texts
    assert serialize(pop.members[-1].tree) == texts[0]


class ThroughTheCodec(Transport):
    """A bus endpoint whose envelopes cross the wire format on every send."""

    def __init__(self, endpoint):
        self._endpoint = endpoint

    def send(self, envelope):
        self._endpoint.send(MigrantEnvelope.decode(envelope.encode()))

    def drain(self):
        return self._endpoint.drain()


def test_run_is_the_same_whether_migrants_resolve_or_are_parsed(feed_prims, parses):
    def run(transports):
        catalog = default_catalog()
        specs = [IslandSpec(island_strategy(8),
                            FeedEvaluator(catalog, landscape_user(catalog, "hetero", k),
                                          random.Random(f"e{k}")),
                            f"s{k}")
                 for k in range(3)]
        return run_islands(specs, feed_prims, 7, MigrationPolicy(interval=1, rate=0.5), 8,
                           transports, iteration=0)

    resolved = run(bus_endpoints(3, loss=0.5, seed="t"))
    assert parses == []
    assert sum(r.immigrants_admitted for r in resolved) > 0
    parsed = run([ThroughTheCodec(e) for e in bus_endpoints(3, loss=0.5, seed="t")])
    assert len(parses) == sum(r.immigrants_admitted for r in parsed)
    assert parsed == resolved


def test_inject_random_appends_a_batch_of_random_members(geo_prims):
    policy = MigrationPolicy(interval=5, rate=0.3, mode=MigrationMode.RANDOM_INJECT)
    pop = scored_population(geo_prims, 10)
    assert inject_random(pop, policy, geo_prims, 3, random.Random(1)) == 3
    assert len(pop.members) == 13
    assert all(m.origin is Origin.RANDOM_INJECTED for m in pop.members[10:])


def test_migration_reads_no_fitness(geo_prims):
    """Emigrant choice and injection pick the same trees, and leave the rng
    where they leave it, whether or not the members are scored: so a
    generation may migrate before it scores."""
    scored = scored_population(geo_prims, 10)
    policy = MigrationPolicy(rate=0.3)

    def migrate(pop):
        rng = random.Random(3)
        emigrants = [e.payload for e in select_emigrants(pop, policy, rng)]
        inject_random(pop, policy, geo_prims, 3, rng)
        return emigrants, [serialize(m.tree) for m in pop.members[10:]], rng.getstate()

    unscored = Population([dataclasses.replace(m, fitness=None) for m in scored.members])
    assert all(m.fitness is not None for m in scored.members)
    picked = migrate(scored)
    assert len(picked[0]) == len(picked[1]) == 3
    assert migrate(unscored) == picked


# ---------------------------------------------------------------------------
# simulated transport

def test_bus_delivers_to_every_other_endpoint(geo_prims):
    bus = SimulatedBroadcastBus(loss=0.0, seed=1)
    a, b, c = (bus.register() for _ in range(3))
    envelope = MigrantEnvelope(build_random_tree(geo_prims, 3, random.Random(4)))
    a.send(envelope)
    assert b.drain()[0] is envelope  # delivered as sent, never encoded
    assert c.drain() == [envelope]
    assert b.drain() == []
    assert a.drain() == []  # no self-delivery


def test_bus_total_loss_drops_everything():
    bus = SimulatedBroadcastBus(loss=1.0, seed=1)
    a, b = bus.register(), bus.register()
    for _ in range(20):
        a.send(MigrantEnvelope("(lat)"))
    assert b.drain() == []
    assert bus.dropped == 20


def test_bus_partial_loss_is_seeded():
    def deliveries(seed):
        bus = SimulatedBroadcastBus(loss=0.5, seed=seed)
        a, b = bus.register(), bus.register()
        for _ in range(200):
            a.send(MigrantEnvelope("(lat)"))
        return len(b.drain())

    first, second = deliveries("s"), deliveries("s")
    assert first == second  # same seed, same losses
    assert 60 < first < 140


# ---------------------------------------------------------------------------
# the lock-step loop

def run_one(prims, seed, generations=8, policy=None, capacity=6):
    spec = IslandSpec(island_strategy(capacity), sized_fitness, seed)
    return run_islands([spec], prims, 3,
                       policy or MigrationPolicy(mode=MigrationMode.NONE),
                       generations, bus_endpoints(1), iteration=0)


@pytest.mark.parametrize("mode", list(MigrationMode))
def test_each_member_is_scored_once_per_generation(geo_prims, monkeypatch, mode):
    """Each generation, an island's evaluator is called once per member of
    its pool, in list order with the arrivals last: its strategy's total
    plus the row's arrivals, and nothing else."""
    pools = []  # every generation's population, island by island
    for name in ("initial_population", "breed_next_generation"):
        real = getattr(islands_module, name)

        def kept(*args, real=real, **kwargs):
            pop = real(*args, **kwargs)
            pools.append(pop)
            return pop

        monkeypatch.setattr(islands_module, name, kept)
    calls = [[], []]

    def counting(k):
        return lambda member: calls[k].append(member) or sized_fitness(member)

    sizes = (6, 9)
    specs = [IslandSpec(island_strategy(size), counting(k), f"c{k}")
             for k, size in enumerate(sizes)]
    policy = MigrationPolicy(interval=2, rate=0.5, mode=mode)
    rows = run_islands(specs, geo_prims, 3, policy, 6, bus_endpoints(2), iteration=0)
    for k, size in enumerate(sizes):
        generations = pools[k::2]
        assert [len(pop.members) for pop in generations] == \
            [size + r.immigrants_admitted for r in by_island(rows)[k]]
        scored = [m for pop in generations for m in pop.members]
        assert len(calls[k]) == len(scored)
        assert all(call is member for call, member in zip(calls[k], scored))
        assert all(m.origin is not Origin.LOCAL
                   for pop in generations for m in pop.members[size:])
    assert any(r.immigrants_admitted for r in rows) is (mode is not MigrationMode.NONE)


def test_rows_come_generation_by_generation_island_by_island(geo_prims):
    specs = [IslandSpec(island_strategy(6), sized_fitness, s) for s in ("a", "b", "c")]
    rows = run_islands(specs, geo_prims, 3, MigrationPolicy(interval=2, rate=0.5), 5,
                       bus_endpoints(3), iteration=0)
    assert [(r.generation, r.island) for r in rows] == \
        [(generation, island) for generation in range(5) for island in range(3)]


def test_isolated_islands_match_standalone_runs(geo_prims):
    """With migration off, a 2-island run is two independent runs."""
    specs = [IslandSpec(island_strategy(6), sized_fitness, "lhs"),
             IslandSpec(island_strategy(6), sized_fitness, "rhs")]
    paired = by_island(run_islands(specs, geo_prims, 3,
                                   MigrationPolicy(mode=MigrationMode.NONE), 8,
                                   bus_endpoints(2), iteration=0))
    solo_lhs = run_one(geo_prims, "lhs")
    solo_rhs = run_one(geo_prims, "rhs")
    assert [dataclasses.replace(r, island=0) for r in paired[1]] == solo_rhs
    assert paired[0] == solo_lhs


def test_migration_bookkeeping_at_event_generations(geo_prims):
    specs = [IslandSpec(island_strategy(6), sized_fitness, s) for s in ("a", "b")]
    policy = MigrationPolicy(interval=2, rate=0.5, mode=MigrationMode.MIGRATE)
    rows = run_islands(specs, geo_prims, 3, policy, 7, bus_endpoints(2), iteration=0)
    for row in rows:
        if row.generation in (2, 4, 6):
            assert row.emigrants_sent == 3
            assert row.immigrants_admitted == 3  # everything the peer sent
        else:
            assert row.emigrants_sent == 0
            assert row.immigrants_admitted == 0


def test_each_island_is_as_large_as_its_strategy(geo_prims):
    specs = [IslandSpec(island_strategy(6), sized_fitness, "six"),
             IslandSpec(island_strategy(8), sized_fitness, "eight")]
    policy = MigrationPolicy(interval=2, rate=0.5, mode=MigrationMode.MIGRATE)
    six, eight = by_island(run_islands(specs, geo_prims, 3, policy, 5, bus_endpoints(2),
                                       iteration=0))
    assert [r.emigrants_sent for r in six] == [0, 0, 3, 0, 3]
    assert [r.emigrants_sent for r in eight] == [0, 0, 4, 0, 4]
    assert [r.immigrants_admitted for r in six] == [0, 0, 4, 0, 4]
    assert [r.immigrants_admitted for r in eight] == [0, 0, 3, 0, 3]


def test_random_injection_mode_needs_no_transport(geo_prims):
    spec = IslandSpec(island_strategy(6), sized_fitness, "solo")
    policy = MigrationPolicy(interval=3, rate=0.5, mode=MigrationMode.RANDOM_INJECT)
    rows = run_one(geo_prims, "solo", generations=7, policy=policy)
    injected = {r.generation: r.immigrants_admitted for r in rows}
    assert injected == {0: 0, 1: 0, 2: 0, 3: 3, 4: 0, 5: 0, 6: 3}


def test_total_loss_leaves_trajectory_untouched(geo_prims):
    """Migration with every datagram lost must equal migration disabled,
    apart from the emigrants-sent accounting."""
    specs = lambda: [IslandSpec(island_strategy(6), sized_fitness, s)
                     for s in ("p", "q")]
    lossy = run_islands(specs(), geo_prims, 3,
                        MigrationPolicy(interval=2, mode=MigrationMode.MIGRATE),
                        8, bus_endpoints(2, loss=1.0), iteration=0)
    quiet = run_islands(specs(), geo_prims, 3,
                        MigrationPolicy(interval=2, mode=MigrationMode.NONE), 8,
                        bus_endpoints(2), iteration=0)
    strip = lambda rows: [dataclasses.replace(r, emigrants_sent=0) for r in rows]
    assert strip(lossy) == strip(quiet)
    assert any(r.emigrants_sent for r in lossy)


def test_stats_rows_cover_every_generation(geo_prims):
    rows = run_one(geo_prims, "cover", generations=5)
    assert [r.generation for r in rows] == [0, 1, 2, 3, 4]
    assert all(isinstance(r, GenerationStats) for r in rows)


@pytest.mark.parametrize("mode", list(MigrationMode))
def test_every_row_carries_the_iteration_it_is_given(geo_prims, mode):
    """A row is complete when it is made: the iteration, like every other
    field, is the run's own, and nothing else about the run depends on it."""
    def run(iteration):
        specs = [IslandSpec(island_strategy(6), sized_fitness, s) for s in ("x", "y")]
        return run_islands(specs, geo_prims, 3, MigrationPolicy(interval=2, rate=0.5,
                                                                mode=mode),
                           5, bus_endpoints(2), iteration=iteration)

    zero, seven = run(0), run(7)
    assert {r.iteration for r in zero} == {0}
    assert {r.iteration for r in seven} == {7}
    assert [dataclasses.replace(r, iteration=0) for r in seven] == zero


def test_a_run_needs_its_iteration(geo_prims):
    spec = IslandSpec(island_strategy(6), sized_fitness, "x")
    with pytest.raises(TypeError, match="iteration"):
        run_islands([spec], geo_prims, 3, MigrationPolicy(), 2, bus_endpoints(1))


# ---------------------------------------------------------------------------
# real datagrams

def test_udp_loopback_exchange(geo_prims):
    tree = build_random_tree(geo_prims, 3, random.Random(7))
    lhs = UdpBroadcastTransport(48731, peers=[("127.0.0.1", 48732)])
    rhs = UdpBroadcastTransport(48732, peers=[("127.0.0.1", 48731)])
    try:
        lhs.send(MigrantEnvelope(tree))
        rhs.send(MigrantEnvelope("(lon)"))
        assert [e.payload for e in rhs.drain()] == [serialize(tree)]
        assert [e.payload for e in lhs.drain()] == ["(lon)"]
    finally:
        lhs.close()
        rhs.close()


class RecordingSocket:
    """A socket that binds nothing and records every datagram sent."""

    def __init__(self, *args):
        self.sent = []

    def setsockopt(self, *args):
        pass

    def bind(self, address):
        pass

    def setblocking(self, flag):
        pass

    def sendto(self, data, target):
        self.sent.append(target)

    def close(self):
        pass


@pytest.mark.parametrize("peers,targets", [
    (None, [("255.255.255.255", 48733)]),
    ([("127.0.0.1", 48734)], [("127.0.0.1", 48734)]),
    ([], []),  # a lone island has no one to send to
])
def test_udp_sends_to_its_peers_or_else_broadcasts(geo_prims, monkeypatch, peers, targets):
    monkeypatch.setattr(udp_module.socket, "socket", RecordingSocket)
    transport = UdpBroadcastTransport(48733, peers=peers)
    transport.send(MigrantEnvelope(build_random_tree(geo_prims, 3, random.Random(7))))
    assert transport._targets == targets
    assert transport._sock.sent == targets


class RefusingSocket(RecordingSocket):
    """A socket whose every send fails, as one to an unreachable peer may."""

    def sendto(self, data, target):
        raise OSError("network is unreachable")


def test_a_failed_udp_send_leaves_a_debug_record(geo_prims, monkeypatch, caplog):
    caplog.set_level(logging.DEBUG, logger="gpislands")
    monkeypatch.setattr(udp_module.socket, "socket", RefusingSocket)
    transport = UdpBroadcastTransport(48733, peers=[("127.0.0.1", 48734)])
    transport.send(MigrantEnvelope(build_random_tree(geo_prims, 3, random.Random(7))))
    assert [(r.name, r.levelno) for r in caplog.records] == \
        [("gpislands.udp", logging.DEBUG)]
    assert "unreachable" in caplog.records[0].getMessage()
