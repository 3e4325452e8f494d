"""Reference answers from routes independent of the one that served,
and the check of served answers against them.

Every served answer is checked against an exact ``Fraction`` computed
outside the timed window by a different route:

- small-tier instances (at most :data:`inputs.SMALL_TIER_LIMIT` facts):
  world enumeration, written here from the queries' definitions rather
  than taken from the program;
- monotone safe h-queries, served extensionally: the intensional
  compiler;
- non-monotone zero-Euler h-queries, served intensionally: the linear
  expansion of ``phi`` over conjunctions of the ``h_{k,i}`` (its Möbius
  transform), each conjunction evaluated extensionally.  The coefficient
  of the full, #P-hard conjunction is ``±e(phi) = 0``, so every term that
  remains is safe;
- the lifted CQ and UCQ: their closed-form product formulas.
"""

from __future__ import annotations

import math
from fractions import Fraction

from repro import BooleanFunction, HQuery
from repro.pqe import (
    CompilationCache,
    Estimate,
    evaluate,
    extensional_probability,
)

from inputs import K, SMALL_TIER_LIMIT, Content, QuerySpec, build_tid

#: Served floats must equal the exact reference up to float rounding.
FLOAT_TOLERANCE = 1e-12


class Oracle:
    """Memoized references per (content, query)."""

    def __init__(self):
        self._answers: dict = {}
        self._patterns: dict = {}
        self._compiled = CompilationCache(limit=4096)

    def reference(self, spec: QuerySpec, content: Content) -> Fraction:
        key = (spec.label, content.key())
        answer = self._answers.get(key)
        if answer is None:
            answer = self._compute(spec, content)
            self._answers[key] = answer
        return answer

    def _compute(self, spec: QuerySpec, content: Content) -> Fraction:
        if len(content) <= SMALL_TIER_LIMIT:
            return self._enumerated(spec, content)
        if spec.route == "sampling":
            raise ValueError(
                f"no exact reference for {spec.label} on "
                f"{len(content)} facts"
            )
        if spec.route == "lifted":
            return lifted_closed_form(spec.label, content)
        tid = build_tid(content)
        if spec.route == "extensional":
            return evaluate(
                spec.query(), tid, method="intensional", cache=self._compiled
            ).probability
        return mobius_expansion(spec.table, tid)

    def _enumerated(self, spec: QuerySpec, content: Content) -> Fraction:
        key = (content.key(), spec.table is None and spec.label)
        distribution = self._patterns.get(key)
        if distribution is None:
            witnesses = (
                h_witnesses(content) if spec.table is not None
                else [lifted_witnesses(spec.label, content)]
            )
            distribution = pattern_distribution(content, witnesses)
            self._patterns[key] = distribution
        # A lifted query's pattern is one bit: accept pattern 1 only.
        table = spec.table if spec.table is not None else 0b10
        return sum(
            (p for pattern, p in distribution.items()
             if table >> pattern & 1),
            Fraction(0),
        )


def _masks(content: Content) -> dict:
    return {fact: 1 << i for i, fact in enumerate(content.facts)}


def h_witnesses(content: Content) -> list[list[int]]:
    """For each ``h_{K,i}``, the fact sets (as bit masks) that minimally
    satisfy it: ``R(x) S1(x,y)``, ``Si(x,y) Si+1(x,y)``, ``SK(x,y) T(y)``."""
    bits = _masks(content)
    witnesses = [[] for _ in range(K + 1)]
    for relation, values in content.facts:
        if not relation.startswith("S"):
            continue
        i, (x, y) = int(relation[1:]), values
        own = bits[(relation, values)]
        if i == 1 and ("R", (x,)) in bits:
            witnesses[0].append(own | bits[("R", (x,))])
        if i < K and (f"S{i + 1}", values) in bits:
            witnesses[i].append(own | bits[(f"S{i + 1}", values)])
        if i == K and ("T", (y,)) in bits:
            witnesses[K].append(own | bits[("T", (y,))])
    return witnesses


def lifted_witnesses(label: str, content: Content) -> list[int]:
    """Minimal fact sets satisfying the lifted CQ ``R(x) S(x,y)``, or the
    UCQ that adds ``T(z)``."""
    bits = _masks(content)
    witnesses = [
        bits[fact] | bits[("R", fact[1][:1])]
        for fact in content.facts
        if fact[0] == "S" and ("R", fact[1][:1]) in bits
    ]
    if label == "ucq":
        witnesses += [bits[fact] for fact in content.facts
                      if fact[0] == "T"]
    return witnesses


def pattern_distribution(content: Content, witnesses) -> dict:
    """``{pattern: probability}`` over all worlds, where bit ``i`` of a
    world's pattern says that one of ``witnesses[i]`` lies inside it."""
    denominator = 1
    for prob in content.probs:
        denominator = math.lcm(denominator, prob.denominator)
    present = [p.numerator * (denominator // p.denominator)
               for p in content.probs]
    absent = [denominator - weight for weight in present]
    counts: dict = {}
    for world in range(1 << len(content)):
        weight = 1
        for i in range(len(content)):
            weight *= present[i] if world >> i & 1 else absent[i]
        pattern = 0
        for index, masks in enumerate(witnesses):
            if any(world & mask == mask for mask in masks):
                pattern |= 1 << index
        counts[pattern] = counts.get(pattern, 0) + weight
    scale = denominator ** len(content)
    return {pattern: Fraction(count, scale)
            for pattern, count in counts.items()}


def conjunction_coefficients(table: int, nvars: int = K + 1) -> dict:
    """``c_T`` with ``[phi] = sum_T c_T [AND_{i in T} x_i]`` (the Möbius
    transform of ``phi`` over the subset lattice); zero terms dropped."""
    coefficients = {}
    for subset in range(1 << nvars):
        total = 0
        for pattern in range(1 << nvars):
            if pattern & ~subset == 0 and table >> pattern & 1:
                parity = bin(subset).count("1") - bin(pattern).count("1")
                total += -1 if parity % 2 else 1
        if total:
            coefficients[subset] = total
    return coefficients


def mobius_expansion(table: int, tid) -> Fraction:
    """``Pr(Q_phi)`` as a signed sum of extensional probabilities of
    conjunctions of proper subsets of the ``h_{k,i}``."""
    nvars = K + 1
    full = (1 << nvars) - 1
    total = Fraction(0)
    for subset, coefficient in conjunction_coefficients(table).items():
        if subset == full:
            raise ValueError(
                "phi has non-zero Euler characteristic; the full "
                "conjunction has no extensional plan"
            )
        if subset == 0:
            total += coefficient
            continue
        conjunction = 0
        for pattern in range(1 << nvars):
            if pattern & subset == subset:
                conjunction |= 1 << pattern
        query = HQuery(K, BooleanFunction(nvars, conjunction))
        total += coefficient * extensional_probability(query, tid)
    return total


def lifted_closed_form(label: str, content: Content) -> Fraction:
    """``Pr(exists x,y. R(x), S(x,y))`` and, for the UCQ, its union with
    ``exists z. T(z)``, by the independent-project product formulas."""
    prob = {fact: p for fact, p in zip(content.facts, content.probs)}
    domain = sorted(
        {values[0] for (relation, values) in content.facts}
    )
    none = Fraction(1)
    for x in domain:
        p_r = prob.get(("R", (x,)), Fraction(0))
        no_edge = Fraction(1)
        for (relation, values), p in prob.items():
            if relation == "S" and values[0] == x:
                no_edge *= 1 - p
        none *= 1 - p_r * (1 - no_edge)
    if label == "ucq":
        for (relation, _), p in prob.items():
            if relation == "T":
                none *= 1 - p
    return 1 - none


def check_float(served: float, reference: Fraction) -> bool:
    return isinstance(served, float) and math.isfinite(served) and abs(
        served - float(reference)
    ) <= FLOAT_TOLERANCE


def check_sampled(value: float, half_width: float,
                  reference: Fraction) -> bool:
    """A sampled answer must carry a non-degenerate interval that covers
    the exact value."""
    return half_width > 0 and abs(value - float(reference)) <= (
        half_width + FLOAT_TOLERANCE
    )


def answer_ok(record, reference: Fraction) -> bool:
    """Whether one answered query matches its exact reference: served
    floats within rounding, exact answers equal, sampled answers inside
    their interval."""
    answer = record.answer
    if isinstance(answer, Estimate):
        return check_sampled(answer.value, answer.half_width, reference)
    if isinstance(answer, Fraction):
        return answer == reference
    return check_float(answer, reference)


def check_records(records, oracle: Oracle | None = None) -> list:
    """The records that failed: not answered, or answered wrongly."""
    oracle = oracle or Oracle()
    failed = []
    for record in records:
        if record.error is not None:
            failed.append(record)
        elif record.kind == "query" and not answer_ok(
            record, oracle.reference(record.spec, record.content)
        ):
            failed.append(record)
    return failed
