"""Seeded inputs of the three workloads.

Everything the benchmark sends to the program is derived here from the
``--seed`` argument: instance contents, query choices, probability
assignments and the order of operations.  The program receives only the
generated inputs, never the seed.  Each generator takes its own
``random.Random`` lane (:func:`lane`), so adding draws to one generator
never shifts another's inputs.

Shapes are fixed per workload and only their details are random (which
facts, which probabilities, which Boolean function of a class): the
cost of a run then depends on the seed through many small draws, not on
one lucky or unlucky big one.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass
from functools import cache
from fractions import Fraction

from repro import BooleanFunction, HQuery, q9
from repro.db.relation import Instance, TupleId
from repro.db.tid import TupleIndependentDatabase
from repro.enumeration.monotone import monotone_tables
from repro.pqe import AccuracyBudget, classify_query
from repro.pqe.dichotomy import Region
from repro.queries.cq import Atom, ConjunctiveQuery
from repro.queries.ucq import UnionOfCQs

K = 3  #: the h-schema width every h-instance and h-query uses
H_RELATIONS = (("R", 1),) + tuple((f"S{i}", 2) for i in range(1, K + 1)) + (
    ("T", 1),
)
FLAT_RELATIONS = (("R", 1), ("S", 2), ("T", 1))
PROB_DENOMINATOR = 16

#: Sampled answers are checked against their Wilson interval at this miss
#: probability, so a miss means a defect, not bad luck.
SAMPLING_DELTA = 1e-6
SAMPLING_EPSILON = 0.05


def lane(seed: int, name: str) -> random.Random:
    """An independent, reproducible random stream for one generator."""
    digest = hashlib.blake2b(
        f"{seed}:{name}".encode(), digest_size=8
    ).digest()
    return random.Random(int.from_bytes(digest, "big"))


# ----------------------------------------------------------------------
# Instance contents
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Content:
    """One instance's content: declared relations, facts in insertion
    order and one exact probability per fact."""

    relations: tuple
    facts: tuple  #: ((relation, values), ...)
    probs: tuple  #: (Fraction, ...), aligned with ``facts``

    def __len__(self) -> int:
        return len(self.facts)

    @property
    def h_schema(self) -> bool:
        return self.relations == H_RELATIONS

    def with_probs(self, probs) -> "Content":
        return Content(self.relations, self.facts, tuple(probs))

    def key(self) -> tuple:
        """A hashable identity of the probabilistic content."""
        return (self.facts, self.probs)


def build_tid(content: Content) -> TupleIndependentDatabase:
    """The program's TID for a content (what a register builds)."""
    instance = Instance()
    for name, arity in content.relations:
        instance.declare(name, arity)
    tid = TupleIndependentDatabase(instance)
    for (relation, values), prob in zip(content.facts, content.probs):
        tid.add(relation, values, prob)
    return tid


def assign(tid: TupleIndependentDatabase, content: Content) -> None:
    """Install ``content``'s probabilities on a TID with the same facts."""
    for (relation, values), prob in zip(content.facts, content.probs):
        tid.set_probability(TupleId(relation, values), prob)


def _wire_fact(relation, values, prob) -> list:
    return [relation, list(values), [prob.numerator, prob.denominator]]


def journal_record(name: str, content: Content) -> dict:
    """The record a journaling gateway appends for a register."""
    return {
        "instance": name,
        "relations": [list(pair) for pair in content.relations],
        "facts": [
            _wire_fact(relation, values, prob)
            for (relation, values), prob in zip(content.facts, content.probs)
        ],
        "replicas": 1,
    }


def register_line(name: str, content: Content, message_id: int) -> bytes:
    """The wire ``register`` request for ``content`` under ``name``."""
    record = journal_record(name, content)
    message = {
        "op": "register",
        "id": message_id,
        "instance": name,
        "relations": record["relations"],
        "facts": record["facts"],
    }
    return json.dumps(message, separators=(",", ":")).encode() + b"\n"


def _prob(rng: random.Random) -> Fraction:
    return Fraction(rng.randrange(1, PROB_DENOMINATOR), PROB_DENOMINATOR)


def _subset(rng: random.Random, candidates: list, size: int) -> tuple:
    """Exactly ``size`` of the candidates, in candidate order."""
    if size >= len(candidates):
        return tuple(candidates)
    keep = set(rng.sample(range(len(candidates)), size))
    return tuple(c for i, c in enumerate(candidates) if i in keep)


def h_content(rng: random.Random, n_left: int, n_right: int,
              size: int) -> Content:
    """``size`` facts of the complete h-schema instance on
    ``a1..a_nleft`` x ``b1..b_nright`` (all of them when ``size`` reaches
    its ``n_left + n_right + K * n_left * n_right`` facts)."""
    left = [f"a{i}" for i in range(1, n_left + 1)]
    right = [f"b{j}" for j in range(1, n_right + 1)]
    candidates = [("R", (a,)) for a in left] + [("T", (b,)) for b in right]
    candidates += [
        (f"S{i}", (a, b))
        for i in range(1, K + 1)
        for a in left
        for b in right
    ]
    facts = _subset(rng, candidates, size)
    return Content(H_RELATIONS, facts, tuple(_prob(rng) for _ in facts))


def flat_content(rng: random.Random, domain: int, size: int) -> Content:
    """An instance of ``R(x), S(x,y), T(x)`` over ``0..domain-1`` with
    ``size`` facts: every unary fact, the rest drawn from ``S``."""
    values = range(domain)
    unary = [("R", (x,)) for x in values] + [("T", (x,)) for x in values]
    binary = [("S", (x, y)) for x in values for y in values]
    facts = tuple(unary) + _subset(rng, binary, size - len(unary))
    return Content(FLAT_RELATIONS, facts, tuple(_prob(rng) for _ in facts))


def content_of_shape(rng: random.Random, shape: tuple) -> Content:
    """``shape`` is ``("h", n_left, n_right, size)`` or
    ``("flat", domain, size)``."""
    if shape[0] == "h":
        return h_content(rng, *shape[1:])
    return flat_content(rng, *shape[1:])


def refresh_probs(rng: random.Random, content: Content) -> Content:
    """The same facts under a fresh probability assignment."""
    return content.with_probs(_prob(rng) for _ in content.facts)


def change_facts(rng: random.Random, content: Content,
                 shape: tuple) -> Content:
    """Another fact set of the shape's size (one fact fewer for a
    complete shape, which has no other), so the fingerprint changes."""
    if shape[0] == "h":
        _, n_left, n_right, size = shape
        capacity = n_left + n_right + K * n_left * n_right
    else:
        _, domain, size = shape
        capacity = 2 * domain + domain * domain
    size = min(size, capacity - 1)
    while True:
        fresh = content_of_shape(rng, shape[:-1] + (size,))
        if fresh.facts != content.facts:
            return fresh


def cycled(rng: random.Random, items):
    """Endless draws from ``items``: shuffled rounds in which every item
    comes up once, so shares stay exact over any few rounds."""
    items = list(items)
    while True:
        rng.shuffle(items)
        yield from items


# ----------------------------------------------------------------------
# Queries
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class QuerySpec:
    """A query with the route the service is expected to take for it.

    ``table`` is the truth table of an h-query's ``phi`` over ``K + 1``
    variables; lifted queries are named (``"cq"`` or ``"ucq"``)."""

    label: str
    route: str  #: extensional | intensional | lifted | sampling
    table: int | None = None

    def query(self):
        if self.table is not None:
            return HQuery(K, BooleanFunction(K + 1, self.table))
        return LIFTED_QUERIES[self.label]

    def wire(self) -> dict:
        if self.table is not None:
            return {"k": K, "nvars": K + 1, "table": self.table}
        return {"ucq": LIFTED_WIRE[self.label]}


_SAFE_CQ = ConjunctiveQuery((Atom("R", ("x",)), Atom("S", ("x", "y"))))
LIFTED_QUERIES = {
    "cq": _SAFE_CQ,
    "ucq": UnionOfCQs((_SAFE_CQ, ConjunctiveQuery((Atom("T", ("z",)),)))),
}
LIFTED_WIRE = {
    "cq": [[["R", ["x"]], ["S", ["x", "y"]]]],
    "ucq": [[["R", ["x"]], ["S", ["x", "y"]]], [["T", ["z"]]]],
}
CQ = QuerySpec("cq", "lifted")
UCQ = QuerySpec("ucq", "lifted")
Q9 = QuerySpec("q9", "extensional", q9().phi.table)


def _region(table: int):
    phi = BooleanFunction(K + 1, table)
    return classify_query(HQuery(K, phi)).region, phi.is_monotone()


#: How many functions the zero-Euler and the hard class draw from.
CLASS_FUNCTIONS = 24


def _drawn_tables(region: Region, count: int) -> tuple[int, ...]:
    """``count`` non-monotone functions of ``region``, drawn once from a
    stream that does not depend on the seed."""
    rng = lane(0, f"functions:{region.name}")
    tables = []
    while len(tables) < count:
        table = rng.randrange(1, (1 << (1 << (K + 1))) - 1)
        if table not in tables and _region(table) == (region, False):
            tables.append(table)
    return tuple(tables)


@cache
def class_tables(route: str) -> tuple[int, ...]:
    """The functions of one h-query class:

    - ``intensional``: non-monotone zero-Euler h-queries, the paper's
      class, served only by the intensional route (Theorem 5.2);
    - ``extensional``: every monotone, non-degenerate, safe h-query (a
      UCQ with an extensional plan, like ``q9``);
    - ``sampling``: non-monotone #P-hard h-queries, answered by the
      sampler under an :class:`AccuracyBudget`.

    The sets are fixed, so every seed asks the same mix of functions and
    a run's work does not hinge on which functions a seed happens to
    draw; the seed picks the facts, the probabilities and the order of
    operations.
    """
    if route == "extensional":
        return tuple(
            table
            for table in monotone_tables(K + 1)
            if _region(table) == (Region.ZERO_EULER, True)
        )
    region = Region.ZERO_EULER if route == "intensional" else Region.HARD
    return _drawn_tables(region, CLASS_FUNCTIONS)


def class_queries(route: str):
    """Endless queries of one class, cycling through its functions (see
    :func:`class_tables`) in a fixed order, so that each function meets
    the same instance shapes under every seed.  ``lifted`` alternates the
    safe CQ and UCQ."""
    if route == "lifted":
        yield from itertools.cycle((CQ, UCQ))
    prefix = {"intensional": "ze", "extensional": "ms", "sampling": "hard"}
    for table in itertools.cycle(class_tables(route)):
        yield QuerySpec(f"{prefix[route]}{table}", route, table)


def sampling_budget(seed: int) -> AccuracyBudget:
    return AccuracyBudget(
        epsilon=SAMPLING_EPSILON,
        seed=seed,
        delta=SAMPLING_DELTA,
        interval="wilson",
    )


# ----------------------------------------------------------------------
# The wire catalog (wire_read, wire_update)
# ----------------------------------------------------------------------

#: Instance shapes of the wire catalog, with exact sizes; the last of
#: each schema is the small tier, checked against world enumeration.
WIRE_H_SHAPES = (
    ("h", 3, 3, 33),
    ("h", 4, 4, 56),
    ("h", 4, 4, 40),
    ("h", 5, 5, 60),
    ("h", 6, 6, 84),
    ("h", 6, 5, 80),
    ("h", 2, 2, 9),
)
WIRE_FLAT_SHAPES = (
    ("flat", 3, 15),
    ("flat", 4, 20),
    ("flat", 5, 30),
    ("flat", 6, 36),
    ("flat", 2, 8),
)
#: Small-tier instances stay within world enumeration's reach.
SMALL_TIER_LIMIT = 10
#: Zero-Euler queries per h-instance: 7 x 3 compiled lineages, well
#: inside the 64-entry per-shard compilation cache.
ZERO_EULER_PER_INSTANCE = 3


@dataclass(frozen=True)
class Catalog:
    """Named instances with their shapes and the queries asked of each."""

    names: tuple
    shapes: dict
    contents: dict
    queries: dict  #: name -> (QuerySpec, ...)

    def pairs(self) -> list[tuple[str, QuerySpec]]:
        return [(name, spec) for name in self.names
                for spec in self.queries[name]]


def wire_catalog(seed: int) -> Catalog:
    """A dozen small instances.  Each h-instance is asked ``q9``, a
    monotone safe query and three zero-Euler queries of its own; each
    flat instance the lifted CQ and UCQ."""
    rng = lane(seed, "catalog")
    safe = class_queries("extensional")
    zero_euler = class_queries("intensional")
    names, shapes, contents, queries = [], {}, {}, {}
    for index, shape in enumerate(WIRE_H_SHAPES + WIRE_FLAT_SHAPES):
        name = f"{shape[0]}{index}"
        names.append(name)
        shapes[name] = shape
        contents[name] = content_of_shape(rng, shape)
        if shape[0] == "h":
            specs = [Q9, next(safe)]
            while len(specs) < 2 + ZERO_EULER_PER_INSTANCE:
                spec = next(zero_euler)
                if spec not in specs:
                    specs.append(spec)
            queries[name] = tuple(specs)
        else:
            queries[name] = (CQ, UCQ)
    return Catalog(tuple(names), shapes, contents, queries)


@dataclass(frozen=True)
class WireOp:
    """One closed-loop operation: a query of ``spec`` on ``name``, or
    (``spec is None``) a register installing ``content`` under it."""

    name: str
    spec: QuerySpec | None = None
    content: Content | None = None


#: wire_read: every this many operations, one refreshes probabilities.
REFRESH_EVERY = 16
#: wire_update: queries after each register, on the registered instance.
QUERIES_PER_WRITE = 3
#: wire_update: every this many registers, one draws new facts.
FACTS_CHANGE_EVERY = 8


def wire_read_ops(seed: int, catalog: Catalog):
    """Endless warm reads over the catalog's (instance, query) pairs, in
    shuffled rounds; every :data:`REFRESH_EVERY`-th operation instead
    refreshes one instance's probabilities.  Refreshes keep the facts,
    so compiled state stays warm."""
    rng = lane(seed, "wire_read")
    pairs = cycled(rng, catalog.pairs())
    refreshed = cycled(rng, catalog.names)
    current = dict(catalog.contents)
    for index in itertools.count(1):
        if index % REFRESH_EVERY == 0:
            name = next(refreshed)
            current[name] = refresh_probs(rng, current[name])
            yield WireOp(name, content=current[name])
        else:
            name, spec = next(pairs)
            yield WireOp(name, spec)


def wire_update_ops(seed: int, catalog: Catalog):
    """Endless write groups: a register of one instance (in shuffled
    rounds over the catalog), then :data:`QUERIES_PER_WRITE` queries on
    it, in shuffled rounds over its queries.  Every
    :data:`FACTS_CHANGE_EVERY`-th register draws new facts (a new
    fingerprint, so cold compiles and cache evictions); the others
    replace probabilities."""
    rng = lane(seed, "wire_update")
    names = cycled(rng, catalog.names)
    asked = {name: cycled(rng, catalog.queries[name])
             for name in catalog.names}
    current = dict(catalog.contents)
    for index in itertools.count(1):
        name = next(names)
        if index % FACTS_CHANGE_EVERY == 0:
            current[name] = change_facts(rng, current[name],
                                         catalog.shapes[name])
        else:
            current[name] = refresh_probs(rng, current[name])
        yield WireOp(name, content=current[name])
        for _ in range(QUERIES_PER_WRITE):
            yield WireOp(name, next(asked[name]))


# ----------------------------------------------------------------------
# The engine stream (engine_mix)
# ----------------------------------------------------------------------

ASSIGNMENTS_PER_UNIT = 8  #: one cold evaluation, then 7 warm ones
#: One block of units: (query class, instance shape).  The paper's
#: zero-Euler class is 60 % of the queries, so the median query falls
#: inside its latency mode rather than on the edge between modes, where
#: it would jump with the mix; the sampled hard query is a minority.
#: h-instances and flat instances have 100-170 facts, the hard query's
#: instance stays small enough for world enumeration.  The seed shuffles
#: the order within each block.
UNIT_BLOCK = (
    ("intensional", ("h", 7, 8, 100)),
    ("intensional", ("h", 7, 8, 115)),
    ("intensional", ("h", 7, 8, 130)),
    ("intensional", ("h", 7, 8, 145)),
    ("intensional", ("h", 7, 8, 160)),
    ("intensional", ("h", 7, 8, 170)),
    ("extensional", ("h", 7, 8, 110)),
    ("extensional", ("h", 7, 8, 160)),
    ("lifted", ("flat", 12, 130)),
    ("sampling", ("h", 2, 2, 6)),
)
#: Units in the engine_mix pool: about as many as a run gets through, so
#: the slowest queries of a run come from many different fact sets.
ENGINE_UNITS = 400


@dataclass(frozen=True)
class Unit:
    """One engine_mix unit: a query over fresh facts and the sequence of
    probability assignments it is evaluated under."""

    index: int
    spec: QuerySpec
    assignments: tuple  #: (Content, ...) sharing one fact set
    budget_seed: int = 0


def engine_units(seed: int, count: int = ENGINE_UNITS) -> list[Unit]:
    """``count`` units, in shuffled blocks of :data:`UNIT_BLOCK`."""
    rng = lane(seed, "engine_mix")
    draw = {route: class_queries(route) for route in
            ("intensional", "extensional", "lifted", "sampling")}
    units = []
    while len(units) < count:
        # Queries are drawn in block order, so each function meets the
        # same shape under every seed; the seed then shuffles the order.
        block = [(next(draw[route]), shape) for route, shape in UNIT_BLOCK]
        rng.shuffle(block)
        for spec, shape in block[: count - len(units)]:
            base = content_of_shape(rng, shape)
            assignments = [base] + [
                refresh_probs(rng, base)
                for _ in range(ASSIGNMENTS_PER_UNIT - 1)
            ]
            units.append(
                Unit(len(units), spec, tuple(assignments),
                     rng.randrange(1 << 30))
            )
    return units
