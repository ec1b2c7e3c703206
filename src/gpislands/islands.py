"""Island-model runtime: parallel populations exchanging anonymous migrants.

Each island evolves its own population in lock step with the others.  At
every migration generation (positive multiples of the policy interval) an
island broadcasts copies of randomly chosen members -- emigrants are not
removed -- and appends whatever arrives as immigrants, before any member
is scored.  The appended members are scored with the rest of the
generation and take part in the next breed, which restores the population
to its strategy's total.

The wire format is deliberately thin: a version tag line followed by the
canonical tree text.  Envelopes carry no sender identity, so any island can
adopt any migrant, and transports are best effort -- lost datagrams are
simply never seen.  The in-process broadcast bus simulates that with a
per-delivery loss probability.  The UDP transport, which sends real
datagrams, lives in :mod:`gpislands.udp`, so a simulated run loads no
sockets.

In process a migrant travels as its tree (trees are immutable, so islands
may share one).  Text that came off a wire is parsed and validated by
``deserialize``, and dropped if it fails; only then is ``logging`` loaded,
to record the drop on the ``gpislands.islands`` logger.
"""

from __future__ import annotations

import enum
import math
import random
from dataclasses import dataclass
from typing import Optional, Sequence

from .evolution import (
    EvolutionStrategy,
    FitnessFn,
    Population,
    breed_next_generation,
    evaluate_population,
    initial_population,
)
from .evolution import evaluate_new_members  # noqa: F401  unused: the traced benchmark wraps this name
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

WIRE_VERSION = "AGPX1"


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
            import logging  # loaded only when a run drops a migrant
            logging.getLogger(__name__).debug("dropping malformed migrant: %s", exc)
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
    the rest of the generation, absorbed at the next breed).  They are not
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
                iteration: int) -> list[GenerationStats]:
    """Evolve all islands for ``generations`` lock-step generations, island
    ``k`` exchanging migrants through ``transports[k]``; every row records
    ``iteration``, the repetition of the experiment this run is.

    Each generation runs in four steps.  Migrate: at migration generations
    every island emits emigrants, then every island admits its arrivals (or
    each injects random members).  Score: each island evaluates its whole
    pool once, its members first and its arrivals last.  Record: that
    island's row holds the stats of the pool.  Breed.  Migration reads no
    fitness, so it may come first.  Returns the rows in the order they are
    made: generation by generation, island by island.  Over a simulated bus
    the whole run is a pure function of the island seeds and the bus's seed.
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
    rows: list[GenerationStats] = []

    for generation in range(generations):
        arrived = [0] * len(specs)
        sent = [0] * len(specs)
        if is_migration_generation(generation, policy):
            if policy.mode is MigrationMode.MIGRATE:
                for k in range(len(specs)):
                    envelopes = select_emigrants(pops[k], policy, mig_rngs[k])
                    for envelope in envelopes:
                        transports[k].send(envelope)
                    sent[k] = len(envelopes)
                for k in range(len(specs)):
                    arrived[k] = admit_immigrants(pops[k], transports[k].drain(),
                                                  prims, max_depth).admitted
            elif policy.mode is MigrationMode.RANDOM_INJECT:
                for k in range(len(specs)):
                    arrived[k] = inject_random(pops[k], policy, prims, max_depth,
                                               mig_rngs[k])

        for k, spec in enumerate(specs):
            pool = evaluate_population(pops[k], spec.evaluator)
            rows.append(GenerationStats(
                iteration=iteration, generation=generation, island=k,
                max_fitness=pool.max_fitness, mean_fitness=pool.mean_fitness,
                mean_size=pool.mean_size, mean_depth=pool.mean_depth,
                immigrants_admitted=arrived[k], emigrants_sent=sent[k],
                helper_rejections=pops[k].helper_rejections))

        if generation < generations - 1:
            for k, spec in enumerate(specs):
                pops[k] = breed_next_generation(pops[k], spec.strategy, prims,
                                                max_depth, evo_rngs[k])
    return rows
