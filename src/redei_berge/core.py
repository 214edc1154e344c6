"""The Redei--Berge symmetric function of a digraph, by independent routes.

Routes implemented here:

- ``redei_berge_by_definition``: the defining sum of fundamental
  quasisymmetric functions over all n! vertex listings, kept in the
  fundamental basis.
- ``redei_berge_powersum``: the signed power-sum formula, summing
  (-1)^phi(sigma) * p_{type sigma} over the permutations whose every cycle
  lies in the digraph or in its complement.
- ``redei_berge_tournament``: the tournament form, 2^(number of nontrivial
  cycles) * p_{type sigma} over odd-cycle-type permutations whose
  nontrivial cycles all lie in the digraph.
- ``redei_berge_two_cycle_free``: the subtraction-free form for digraphs
  without 2-cycles, dropping permutations with a risky cycle.
- ``deformed_powersum`` / ``deformed_by_definition``: the multiparameter
  deformation driven by a rational weight per ordered vertex pair.

The definition routes enumerate all n! listings and stay in the
fundamental basis; a power-sum result meets them after
:meth:`PowerSumPolynomial.to_fundamental`.  Each power-sum route sums a
product of per-cycle weights over the permutations, which by the
exponential formula is a sum over set partitions of the product of block
weights W(B) (the cycle weights summed over the cyclic orderings of B)
times p_{block sizes}.  A route only builds its W from the cycle-sum table
of :mod:`hamilton` and hands it to the shared set-partition sum.
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction
from typing import Sequence

from .digraph import Digraph
from .hamilton import _cycle_sums, _indicator, _partition_sum
from .kernel import DescentSet
from .limits import FACTORIAL_CAP, CapExceededError
from .polynomials import (
    FundamentalQSym,
    PowerSumPolynomial,
    Rational,
    _coeff,
    _parse_rational,
)


def _check_listing(d: Digraph, listing: Sequence[int]) -> tuple[int, ...]:
    listing = tuple(listing)
    if sorted(listing) != list(range(d.n)):
        raise ValueError(f"not a listing of 0..{d.n - 1}: {listing!r}")
    return listing


def _check_cap(n: int, route: str) -> None:
    if n > FACTORIAL_CAP:
        raise CapExceededError(
            f"{n} vertices exceeds the {route} cap of {FACTORIAL_CAP}"
        )


def descent_set(d: Digraph, listing: Sequence[int]) -> DescentSet:
    """Positions i (1-based) where (listing[i-1], listing[i]) is an arc.

    >>> d = Digraph(3, [(0, 1), (1, 1), (2, 2)])
    >>> sorted(descent_set(d, (2, 0, 1)))
    [2]
    """
    listing = _check_listing(d, listing)
    return DescentSet(
        d.n,
        frozenset(
            i for i in range(1, d.n) if d.has_arc(listing[i - 1], listing[i])
        ),
    )


def major_index(d: Digraph, listing: Sequence[int]) -> int:
    """Sum of the descent positions of the listing."""
    return sum(descent_set(d, listing).members)


def redei_berge_by_definition(d: Digraph) -> FundamentalQSym:
    """The defining sum, over all n! listings, of the fundamental
    quasisymmetric function indexed by the listing's descent set.

    This is the Redei--Berge function written in the fundamental basis; the
    coefficient of a descent set counts the listings attaining it.
    """
    _check_cap(d.n, "listing-sum")
    counts: dict[DescentSet, int] = {}
    for listing in itertools.permutations(range(d.n)):
        key = descent_set(d, listing)
        counts[key] = counts.get(key, 0) + 1
    return FundamentalQSym(d.n, counts)


def redei_berge_powersum(d: Digraph) -> PowerSumPolynomial:
    """The Redei--Berge function in the power-sum basis, via the signed
    formula over permutations whose cycles split between ``d`` and its
    complement: a cycle of length k in ``d`` weighs (-1)^(k-1), one in the
    complement weighs 1.

    >>> redei_berge_powersum(Digraph(3, [(0, 1), (1, 1), (2, 2)])).to_text()
    'p[3] + 2*p[2,1] + p[1,1,1]'
    """
    _check_cap(d.n, "power-sum")
    here = _cycle_sums(d.n, _indicator(d))
    there = _cycle_sums(d.n, _indicator(d.complement()))
    block_weight = [
        there[S] + here[S] if S.bit_count() % 2 else there[S] - here[S]
        for S in range(1 << d.n)
    ]
    return PowerSumPolynomial(_partition_sum(d.n, block_weight))


def redei_berge_tournament(d: Digraph) -> PowerSumPolynomial:
    """Tournament form: 2^(number of nontrivial cycles) * p_{type sigma}
    over permutations of all-odd cycle type whose nontrivial cycles all lie
    in the tournament."""
    if not d.is_tournament():
        raise ValueError("input digraph is not a tournament")
    _check_cap(d.n, "power-sum")
    here = _cycle_sums(d.n, _indicator(d))
    block_weight = [
        1 if S.bit_count() == 1 else 2 * here[S] if S.bit_count() % 2 else 0
        for S in range(1 << d.n)
    ]
    return PowerSumPolynomial(_partition_sum(d.n, block_weight))


def redei_berge_two_cycle_free(d: Digraph) -> PowerSumPolynomial:
    """Subtraction-free form for digraphs without 2-cycles: p_{type sigma}
    over permutations whose cycles split between ``d`` and its complement
    and none of which is risky (of even length, with the cycle or its
    reversal in ``d``).

    Reversal maps the even cycles of ``d`` onto the risky cycles of the
    complement, so a vertex set of size k admits hc_Dc + hc_D cycles for
    odd k and hc_Dc - hc_D for even k: exactly the block weights of the
    signed formula, whose partition sum this returns."""
    if not d.is_two_cycle_free():
        raise ValueError("input digraph has a 2-cycle")
    return redei_berge_powersum(d)


def in_doubled_odd_cone(f: PowerSumPolynomial) -> bool:
    """Membership in the set of nonnegative-integer polynomials in
    p_1, 2*p_3, 2*p_5, 2*p_7, ...

    Since the power sums are algebraically independent, this holds iff
    every partition carrying a nonzero coefficient has all parts odd, and
    the coefficient is a nonnegative integer divisible by 2^(number of
    parts exceeding 1)."""
    for parts, coeff in f.terms.items():
        if any(p % 2 == 0 for p in parts):
            return False
        if coeff.denominator != 1 or coeff < 0:
            return False
        doubled = sum(1 for p in parts if p > 1)
        if coeff.numerator % (1 << doubled):
            return False
    return True


def _unique_keys(items: list[tuple[str, object]]) -> dict:
    data: dict = {}
    for key, value in items:
        if key in data:
            raise ValueError(f"key {key!r} appears twice")
        data[key] = value
    return data


class ArcWeights:
    """A rational weight t(u, v) for every ordered vertex pair; the shifted
    weight is s(u, v) = t(u, v) + 1.  Drives the deformed Redei--Berge
    function.  Unstated pairs weigh 0."""

    __slots__ = ("n", "_t")

    def __init__(self, n: int, weights: dict[tuple[int, int], Rational] | None = None):
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        table: dict[tuple[int, int], Fraction] = {}
        for (u, v), value in (weights or {}).items():
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"pair ({u}, {v}) outside 0..{n - 1}")
            coeff = _coeff(value)
            if coeff:
                table[(u, v)] = coeff
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_t", table)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("ArcWeights is immutable")

    def t(self, u: int, v: int) -> Fraction:
        return self._t.get((u, v), Fraction(0))

    def s(self, u: int, v: int) -> Fraction:
        return self.t(u, v) + 1

    def updated(self, u: int, v: int, value: Rational) -> "ArcWeights":
        """Copy with one weight replaced."""
        table = dict(self._t)
        table[(u, v)] = _coeff(value)
        return ArcWeights(self.n, table)

    @classmethod
    def from_digraph(cls, d: Digraph) -> "ArcWeights":
        """The specialization t = -1 on arcs and 0 on non-arcs, under which
        the deformed function becomes the Redei--Berge function of ``d``."""
        return cls(d.n, {arc: -1 for arc in d.arcs()})

    @classmethod
    def random(cls, n: int, seed: int | None = None) -> "ArcWeights":
        """Small random rationals for every pair; deterministic per seed."""
        rng = random.Random(seed)
        return cls(
            n,
            {
                (u, v): Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                for u in range(n)
                for v in range(n)
            },
        )

    @classmethod
    def from_json(cls, text: str) -> "ArcWeights":
        """Parse ``{"n": 2, "t": {"0,1": "-1", "1,0": "1/2"}}``; omitted
        pairs default to 0.  Weights are JSON integers or strings of the form
        ``[+-]digits`` or ``[+-]digits/digits``; anything else is refused,
        and so is a pair named by two keys (such as "0,1" and "0,01")."""
        data = json.loads(text, object_pairs_hook=_unique_keys)
        if not isinstance(data, dict) or "n" not in data:
            raise ValueError("expected a JSON object with an 'n' field")
        n = data["n"]
        if isinstance(n, bool) or not isinstance(n, int):
            raise ValueError(f"'n' must be an integer, got {json.dumps(n)}")
        pairs = data.get("t", {})
        if not isinstance(pairs, dict):
            raise ValueError("'t' must be a JSON object mapping 'u,v' to weights")
        table: dict[tuple[int, int], Fraction] = {}
        named: dict[tuple[int, int], str] = {}
        for key, value in pairs.items():
            parts = key.split(",")
            if len(parts) != 2:
                raise ValueError(f"bad pair key {key!r}, expected 'u,v'")
            pair = (int(parts[0]), int(parts[1]))
            if pair in named:
                raise ValueError(
                    f"pair keys {named[pair]!r} and {key!r} both name {pair}"
                )
            named[pair] = key
            table[pair] = _parse_rational(value, f"weight of {key!r}")
        return cls(n, table)

    def to_json(self) -> str:
        entries = {
            f"{u},{v}": str(coeff)
            for (u, v), coeff in sorted(self._t.items())
        }
        return json.dumps({"n": self.n, "t": entries})

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ArcWeights)
            and self.n == other.n
            and self._t == other._t
        )

    def __repr__(self) -> str:
        return f"ArcWeights({self.n}, {dict(sorted(self._t.items()))!r})"


def deformed_by_definition(weights: ArcWeights) -> FundamentalQSym:
    """Defining sum of the deformation, in the fundamental basis.

    The definition sums, over every listing w and every weakly increasing
    index sequence, the monomial weighted by the product of s(w_k, w_{k+1})
    over the positions k where the sequence stalls.  Since 1 = s - t, the
    listing w gives L_S the weight prod_{k in S} (-t(w_k, w_{k+1})) times
    prod_{k not in S} s(w_k, w_{k+1}): summed over the S inside the strict
    rises of a sequence, these weights leave the product of s over its
    stalls."""
    n = weights.n
    _check_cap(n, "listing-sum")
    totals: dict[frozenset[int], Fraction] = {}
    for w in itertools.permutations(range(n)):
        terms = [(frozenset(), Fraction(1))]  # (descent set, weight)
        for k in range(1, n):
            stall, rise = weights.s(w[k - 1], w[k]), -weights.t(w[k - 1], w[k])
            terms = [(S, c * stall) for S, c in terms if stall] + [
                (S | {k}, c * rise) for S, c in terms if rise
            ]
        for S, c in terms:
            totals[S] = totals.get(S, 0) + c
    return FundamentalQSym(n, {DescentSet(n, S): c for S, c in totals.items()})


def deformed_powersum(weights: ArcWeights) -> PowerSumPolynomial:
    """Closed form of the deformation: over all permutations, the product
    over cycles of (product of s over the cyclic arcs minus product of t),
    attached to p_{type sigma}.

    >>> w = ArcWeights.from_digraph(Digraph(3, [(0, 1), (1, 1), (2, 2)]))
    >>> deformed_powersum(w) == redei_berge_powersum(Digraph(3, [(0, 1), (1, 1), (2, 2)]))
    True
    """
    n = weights.n
    _check_cap(n, "power-sum")
    t = [[weights.t(u, v) for v in range(n)] for u in range(n)]
    s = [[value + 1 for value in row] for row in t]
    s_sums, t_sums = _cycle_sums(n, s), _cycle_sums(n, t)
    return PowerSumPolynomial(
        _partition_sum(n, [a - b for a, b in zip(s_sums, t_sums)])
    )
