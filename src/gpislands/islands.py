"""Island-model runtime: parallel populations exchanging anonymous migrants.

Each island evolves its own population in lock step with the others.  At
every migration generation (positive multiples of the policy interval) an
island broadcasts copies of randomly chosen members -- emigrants are not
removed -- and appends whatever arrives as immigrants.  The appended
members are scored with the current generation and take part in the next
breed, which restores the population to its strategy's total.

The wire format is deliberately thin: a version tag line followed by the
canonical tree text.  Envelopes carry no sender identity, so any island can
adopt any migrant, and transports are best effort -- lost datagrams are
simply never seen.  The in-process broadcast bus simulates that with a
per-delivery loss probability; the UDP transport sends real datagrams.

In process a migrant travels as its tree (trees are immutable, so islands
may share one).  Text that came off a wire is parsed and validated by
``deserialize``, and dropped if it fails.
"""

from __future__ import annotations

import enum
import logging
import math
import random
import select
import socket
from dataclasses import dataclass
from typing import Optional, Sequence

from .evolution import (
    EvolutionStrategy,
    FitnessFn,
    Population,
    breed_next_generation,
    evaluate_new_members,
    evaluate_population,
    initial_population,
    population_stats,
)
from .trees import (
    ConfigurationError,
    Individual,
    Origin,
    PrimitiveSet,
    ProgramTree,
    TreeError,
    build_random_tree,
    deserialize,
    serialize,
)

log = logging.getLogger(__name__)

WIRE_VERSION = "AGPX1"
#: Seconds a UDP drain waits for each further datagram before it returns.
UDP_DRAIN_WAIT = 0.05


class MigrationMode(enum.Enum):
    MIGRATE = "migrate"
    RANDOM_INJECT = "random"
    NONE = "none"


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


@dataclass(frozen=True)
class MigrationPolicy:
    """Exchange schedule: every ``interval`` generations, ``rate`` x the
    island's size in members (rounded half up) leave as copies or arrive as
    random injections."""

    interval: int = 5
    rate: float = 0.1
    mode: MigrationMode = MigrationMode.MIGRATE

    def __post_init__(self) -> None:
        if self.interval < 1:
            raise ConfigurationError("migration interval must be at least 1")
        if not 0.0 <= self.rate <= 1.0:
            raise ConfigurationError("migration rate must lie in [0, 1]")

    def batch_size(self, size: int) -> int:
        return _round_half_up(self.rate * size)


def is_migration_generation(generation: int, policy: MigrationPolicy) -> bool:
    """Positive multiples of the interval; generation 0 never migrates."""
    if policy.mode is MigrationMode.NONE:
        return False
    return generation > 0 and generation % policy.interval == 0


@dataclass(frozen=True)
class MigrantEnvelope:
    """A migrating program: the member's tree in process, or its canonical
    text once it has come off a wire.

    Anonymous by construction -- the envelope holds the program and nothing
    else, and its bytes (the ``WIRE_VERSION`` tag line, then the tree text)
    are a function of the program alone, so receivers cannot tell (and never
    learn) who sent it.
    """

    payload: ProgramTree | str

    def encode(self) -> bytes:
        """Wire bytes; a tree payload is serialized only here."""
        text = self.payload if isinstance(self.payload, str) else serialize(self.payload)
        return f"{WIRE_VERSION}\n{text}\n".encode("utf-8")

    @classmethod
    def decode(cls, data: bytes) -> Optional["MigrantEnvelope"]:
        """Parse wire bytes; unknown version tags yield ``None`` (dropped)."""
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError:
            return None
        head, sep, rest = text.partition("\n")
        if not sep or head != WIRE_VERSION:
            return None
        return cls(rest.rstrip("\n"))


class Transport:
    """Best-effort broadcast endpoint: ``send`` never fails for lost peers."""

    def send(self, envelope: MigrantEnvelope) -> None:
        raise NotImplementedError

    def drain(self) -> list[MigrantEnvelope]:
        raise NotImplementedError

    def close(self) -> None:
        """Release what the endpoint holds; an in-process one holds nothing."""


class SimulatedBroadcastBus:
    """In-process broadcast fabric with seeded, per-delivery loss.

    Every endpoint's send is offered to every *other* endpoint; each delivery
    independently survives with probability ``1 - loss``.  Loss draws come
    from the bus's own rng, so varying the loss rate never perturbs island
    random streams.
    """

    def __init__(self, loss: float = 0.0, seed: int | str = 0) -> None:
        if not 0.0 <= loss <= 1.0:
            raise ConfigurationError("loss probability must lie in [0, 1]")
        self.loss = loss
        self._rng = random.Random(f"bus:{seed}")
        self._endpoints: list[_BusEndpoint] = []
        self.sent = 0
        self.dropped = 0

    def register(self) -> "_BusEndpoint":
        endpoint = _BusEndpoint(self)
        self._endpoints.append(endpoint)
        return endpoint

    def _broadcast(self, sender: "_BusEndpoint", envelope: MigrantEnvelope) -> None:
        self.sent += 1
        for endpoint in self._endpoints:
            if endpoint is sender:
                continue
            if self._rng.random() < self.loss:
                self.dropped += 1
                continue
            endpoint._mailbox.append(envelope)


class _BusEndpoint(Transport):
    def __init__(self, bus: SimulatedBroadcastBus) -> None:
        self._bus = bus
        self._mailbox: list[MigrantEnvelope] = []

    def send(self, envelope: MigrantEnvelope) -> None:
        self._bus._broadcast(self, envelope)

    def drain(self) -> list[MigrantEnvelope]:
        received, self._mailbox = self._mailbox, []
        return received


class UdpBroadcastTransport(Transport):
    """Real datagrams over UDP, one socket per island.

    With ``peers`` left ``None``, sends to the limited broadcast address on
    ``port``; for single-host runs pass explicit ``peers`` so islands bound
    to distinct ports can fan out to each other.  An empty ``peers`` (a
    lone island's) sends nothing.  Reception is whatever has arrived by
    drain time -- late datagrams are picked up at the next migration
    generation, and on a shared broadcast segment an island may hear its own
    anonymous migrants back, which is harmless.
    """

    def __init__(self, bind_port: int,
                 peers: Optional[Sequence[tuple[str, int]]] = None,
                 broadcast_address: str = "255.255.255.255") -> None:
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_BROADCAST, 1)
            self._sock.bind(("", bind_port))
        except (OSError, OverflowError):  # OverflowError: a port outside 0..65535
            self._sock.close()
            raise
        self._sock.setblocking(False)
        self._targets = [(broadcast_address, bind_port)] if peers is None else list(peers)

    def send(self, envelope: MigrantEnvelope) -> None:
        data = envelope.encode()
        for target in self._targets:
            try:
                self._sock.sendto(data, target)
            except OSError as exc:  # best effort: unreachable peers are lost migrants
                log.debug("udp send to %s failed: %s", target, exc)

    def drain(self) -> list[MigrantEnvelope]:
        received = []
        while True:
            ready, _, _ = select.select([self._sock], [], [], UDP_DRAIN_WAIT)
            if not ready:
                break
            try:
                data, _ = self._sock.recvfrom(65536)
            except OSError:
                break
            envelope = MigrantEnvelope.decode(data)
            if envelope is not None:
                received.append(envelope)
        return received

    def close(self) -> None:
        self._sock.close()


# ---------------------------------------------------------------------------
# migration primitives

def select_emigrants(pop: Population, policy: MigrationPolicy,
                     rng: random.Random) -> list[MigrantEnvelope]:
    """Envelopes carrying the trees of ``policy.batch_size`` of the members,
    distinct and chosen uniformly at random.

    Emigration never removes members; the caller is responsible for invoking
    this only at migration generations, before any island admits arrivals.
    Nothing is serialized here: a transport that needs bytes calls
    :meth:`MigrantEnvelope.encode`.
    """
    count = policy.batch_size(len(pop.members))
    chosen = rng.sample(range(len(pop.members)), count)
    return [MigrantEnvelope(pop.members[i].tree) for i in chosen]


@dataclass(frozen=True)
class AdmissionReport:
    admitted: int
    dropped: int


def admit_immigrants(pop: Population, envelopes: Sequence[MigrantEnvelope],
                     prims: PrimitiveSet, max_depth: int) -> AdmissionReport:
    """Append every well-formed arriving program; count malformed ones.

    The population may grow past its strategy's total; the next breed
    restores it.  Admitted members have no fitness yet.

    A text payload -- the only kind that comes off a wire -- is parsed and
    validated against ``prims`` and ``max_depth``.  A tree payload comes
    from an island of this process and is trusted to have been built over
    ``prims``: it is admitted as that very tree, without a parse, if it is
    within ``max_depth`` and has the root sort, and dropped otherwise.
    """
    admitted = dropped = 0
    for envelope in envelopes:
        tree = envelope.payload
        try:
            if isinstance(tree, str):
                tree = deserialize(tree, prims, max_depth)
            elif tree.depth > max_depth or tree.sort is not prims.root_sort:
                raise TreeError(f"tree of depth {tree.depth} and sort {tree.sort.value}")
        except TreeError as exc:
            log.debug("dropping malformed migrant: %s", exc)
            dropped += 1
            continue
        pop.members.append(Individual.from_tree(tree, Origin.IMMIGRANT))
        admitted += 1
    return AdmissionReport(admitted, dropped)


def inject_random(pop: Population, policy: MigrationPolicy, prims: PrimitiveSet,
                  max_depth: int, rng: random.Random) -> int:
    """Append ``policy.batch_size`` freshly grown random members; the caller
    invokes this only at migration generations.

    The injected trees follow the same lifecycle as immigrants (scored with
    the current generation, absorbed at the next breed).  They are not
    screened by the vocabulary's helper, unlike every tree evolution grows
    or breeds.
    """
    count = policy.batch_size(len(pop.members))
    for _ in range(count):
        tree = build_random_tree(prims, max_depth, rng)
        pop.members.append(Individual.from_tree(tree, Origin.RANDOM_INJECTED))
    return count


# ---------------------------------------------------------------------------
# the lock-step multi-island loop

@dataclass(frozen=True)
class GenerationStats:
    """One per-island, per-generation record (also the CSV row shape)."""

    iteration: int
    generation: int
    island: int
    max_fitness: float
    mean_fitness: float
    mean_size: float
    mean_depth: float
    immigrants_admitted: int
    emigrants_sent: int
    helper_rejections: int


@dataclass
class IslandSpec:
    """What sets one island apart: how it breeds, how it scores, and a seed;
    its size is its strategy's total.

    The seed feeds two independent streams -- one for evolution (initial
    build plus breeding) and one for migration choices -- so that disabling
    migration or losing every datagram leaves the evolutionary trajectory
    untouched.
    """

    strategy: EvolutionStrategy
    evaluator: FitnessFn
    seed: int | str


def run_islands(specs: Sequence[IslandSpec], prims: PrimitiveSet, max_depth: int,
                policy: MigrationPolicy, generations: int,
                transports: Sequence[Transport], *,
                iteration: int) -> list[list[GenerationStats]]:
    """Evolve all islands for ``generations`` lock-step generations, island
    ``k`` exchanging migrants through ``transports[k]``; every row records
    ``iteration``, the repetition of the experiment this run is.

    Per generation and island: evaluate every member; at migration
    generations emit emigrants, deliver, admit and score arrivals (or inject
    random members); record stats over the full pool (computed once, after
    the arrivals if there were any); breed.  Returns one stats list per
    island.  Over a simulated bus the whole run is a pure function of the
    island seeds and the bus's seed.
    """
    if generations < 1:
        raise ConfigurationError("need at least one generation")
    if len(transports) != len(specs):
        raise ConfigurationError("need one transport per island")

    evo_rngs = [random.Random(f"{spec.seed}:evo") for spec in specs]
    mig_rngs = [random.Random(f"{spec.seed}:mig") for spec in specs]
    pops = [
        initial_population(prims, spec.strategy.total(), max_depth, evo_rngs[k])
        for k, spec in enumerate(specs)
    ]
    history: list[list[GenerationStats]] = [[] for _ in specs]

    for generation in range(generations):
        stats = [evaluate_population(pops[k], spec.evaluator)
                 for k, spec in enumerate(specs)]

        arrived = [0] * len(specs)
        sent = [0] * len(specs)
        if is_migration_generation(generation, policy):
            if policy.mode is MigrationMode.MIGRATE:
                for k in range(len(specs)):
                    envelopes = select_emigrants(pops[k], policy, mig_rngs[k])
                    for envelope in envelopes:
                        transports[k].send(envelope)
                    sent[k] = len(envelopes)
                for k, spec in enumerate(specs):
                    report = admit_immigrants(pops[k], transports[k].drain(),
                                              prims, max_depth)
                    arrived[k] = report.admitted
                    evaluate_new_members(pops[k], spec.evaluator)
            elif policy.mode is MigrationMode.RANDOM_INJECT:
                for k, spec in enumerate(specs):
                    arrived[k] = inject_random(pops[k], policy, prims, max_depth,
                                               mig_rngs[k])
                    evaluate_new_members(pops[k], spec.evaluator)

        for k in range(len(specs)):
            # arrivals joined the pool after it was summarized
            pool = population_stats(pops[k]) if arrived[k] else stats[k]
            history[k].append(GenerationStats(
                iteration=iteration, generation=generation, island=k,
                max_fitness=pool.max_fitness, mean_fitness=pool.mean_fitness,
                mean_size=pool.mean_size, mean_depth=pool.mean_depth,
                immigrants_admitted=arrived[k], emigrants_sent=sent[k],
                helper_rejections=pops[k].helper_rejections))

        if generation < generations - 1:
            for k, spec in enumerate(specs):
                pops[k] = breed_next_generation(pops[k], spec.strategy, prims,
                                                max_depth, evo_rngs[k])
    return history
