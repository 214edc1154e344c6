"""The Redei--Berge symmetric function of a digraph, by independent routes.

Routes implemented here:

- ``redei_berge_by_definition``: the value of the defining sum of
  fundamental quasisymmetric functions over all n! vertex listings, kept
  in the fundamental basis and obtained from path counts.
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

Every route sums over set partitions on the cycle-sum table of
:mod:`hamilton`; the literal n! sums are the oracles in :mod:`oracles`.  A
power-sum route weighs a block B by its cycle weights summed over the
cyclic orderings of B and attaches p_{block sizes} (the exponential
formula).  A definition route weighs B by its path weights summed over the
orderings of B, for the monomial coefficients of the listing sum, and
returns it in the fundamental basis; a check of a power-sum result
against it (:func:`_matches_definition`) compares the two routes' monomial
coefficients instead.

The engine runs on ``int``s.  The deformed routes scale row u of their
rational weights by the lcm L_u of that row's denominators.  A block B
uses one out-arc of each of its vertices, so its weight carries the
product of L_u over B, every set partition carries the product P of all
the L_u, and each output coefficient is divided by P once.  One common
lcm for all rows would make the integers carry its n-th power instead.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .digraph import Digraph
from .hamilton import _cycle_sums, _indicator, _partition_sum
from .limits import CYCLE_SUM_CAP, _check_cap, _require_int
from .polynomials import (
    DescentSet,
    FundamentalQSym,
    PowerSumPolynomial,
    Rational,
    _cleared,
    _coeff,
    _monomial_to_fundamental,
)


def _check_listing(d: Digraph, listing: Sequence[int]) -> tuple[int, ...]:
    listing = tuple(listing)
    for v in listing:
        _require_int(v, "listing entry")
    if sorted(listing) != list(range(d.n)):
        raise ValueError(f"not a listing of 0..{d.n - 1}: {listing!r}")
    return listing


def descent_set(d: Digraph, listing: Sequence[int]) -> DescentSet:
    """Positions i (1-based) where (listing[i-1], listing[i]) is an arc.

    >>> d = Digraph(3, [(0, 1), (1, 1), (2, 2)])
    >>> sorted(descent_set(d, (2, 0, 1)))
    [2]
    """
    return DescentSet(d.n, _descents(d, _check_listing(d, listing)))


def _descents(d: Digraph, listing: Sequence[int]) -> frozenset[int]:
    return frozenset(
        i for i in range(1, d.n) if d.has_arc(listing[i - 1], listing[i])
    )


def redei_berge_by_definition(d: Digraph) -> FundamentalQSym:
    """The value of the defining sum, over all n! listings, of the
    fundamental quasisymmetric function indexed by the listing's descent
    set, obtained from path counts without listing anything.

    This is the Redei--Berge function written in the fundamental basis; the
    coefficient of a descent set counts the listings attaining it.  A
    listing has no descent inside the blocks of alpha iff each block lists a
    Hamiltonian path of the complement, which gives the M_alpha coefficient.
    """
    _check_cap(d.n, "vertices", CYCLE_SUM_CAP, "cycle-sum")
    m = _listing_monomials(d.n, _indicator(d.complement()), [1] * d.n)
    return _monomial_to_fundamental(d.n, *m)


def _listing_monomials(
    n: int, w: list[list[int]], scales: list[int]
) -> tuple[dict[tuple[int, ...], int], int]:
    """The ``int`` coefficients m[lambda] and the one scale with which the
    function whose M_alpha coefficient sums, over the listings, the product
    of ``w[u][v] / scales[u]`` over the consecutive pairs inside the blocks
    of alpha is the sum of m[lambda] / scale * m_lambda: m[lambda] is the
    set-partition sum of path weights at lambda, times the prod_k m_k!
    orders of equal blocks.  An apex (vertex 0) with out-arcs of weight 1,
    and an arc of weight ``scales[u]`` from each u back to it, closes a path
    through S into the cycle at 2S + 1 of the cycle-sum table, which reads
    no diagonal entry of ``w``; only the pass rooted at the apex fills those
    entries, so only it runs.  Each vertex of S leaves by one arc of its own
    row, so every set partition carries the product of all the scales."""
    apex = [[1] * (n + 1)] + [[scale, *row] for scale, row in zip(scales, w)]
    paths = _partition_sum(n, _cycle_sums(n + 1, apex, roots=1)[1::2])
    return {
        shape: c * math.prod(math.factorial(shape.count(k)) for k in set(shape))
        for shape, c in paths.items()
    }, math.prod(scales)


def _matches_definition(d: Digraph, f: PowerSumPolynomial) -> bool:
    """Whether ``f`` equals the definition route's value on ``d``, decided
    on the two routes' monomial coefficients, each over its own scale, by
    cross-multiplying in ``int``s.  The step from m to the fundamental basis
    is linear and injective on the symmetric functions of one degree, so
    this decides the same equality as ``f.to_fundamental() ==
    redei_berge_by_definition(d)`` without building either side."""
    _check_cap(d.n, "vertices", CYCLE_SUM_CAP, "cycle-sum")
    m_f, scale_f = f._monomial_coefficients()
    m_def, scale_def = _listing_monomials(d.n, _indicator(d.complement()), [1] * d.n)
    return all(
        m_def.get(shape, 0) * scale_f == m_f.get(shape, 0) * scale_def
        for shape in m_def.keys() | m_f.keys()
    )


def redei_berge_powersum(d: Digraph) -> PowerSumPolynomial:
    """The Redei--Berge function in the power-sum basis, via the signed
    formula over permutations whose cycles split between ``d`` and its
    complement: a cycle of length k in ``d`` weighs (-1)^(k-1), one in the
    complement weighs 1.  This is the deformation at t = -1 on the arcs.

    >>> redei_berge_powersum(Digraph(3, [(0, 1), (1, 1), (2, 2)])).to_text()
    'p[3] + 2*p[2,1] + p[1,1,1]'
    """
    _check_cap(d.n, "vertices", CYCLE_SUM_CAP, "cycle-sum")
    return _powersum(d.n, [[-arc for arc in row] for row in _indicator(d)], [1] * d.n)


def redei_berge_tournament(d: Digraph) -> PowerSumPolynomial:
    """Tournament form: 2^(number of nontrivial cycles) * p_{type sigma}
    over permutations of all-odd cycle type whose nontrivial cycles all lie
    in the tournament."""
    if not d.is_tournament():
        raise ValueError("input digraph is not a tournament")
    _check_cap(d.n, "vertices", CYCLE_SUM_CAP, "cycle-sum")
    here = _cycle_sums(d.n, _indicator(d))
    block_weight = [
        1 if S.bit_count() == 1 else 2 * here[S] if S.bit_count() % 2 else 0
        for S in range(1 << d.n)
    ]
    return PowerSumPolynomial._trusted(
        {parts: Fraction(c) for parts, c in _partition_sum(d.n, block_weight).items()}
    )


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


_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def _parse_rational(value: object, what: str) -> Fraction:
    """An exact rational from a JSON value: an integer, or a string of the
    form ``[+-]digits`` or ``[+-]digits/digits``.  Floats, booleans,
    decimal points and exponents are refused: they are inexact, or (like
    "1e1000000000") ask for an integer far longer than their text."""
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if not isinstance(value, str) or not _RATIONAL.fullmatch(value):
        raise ValueError(
            f"{what} must be an integer or a rational string such as "
            f"\"-1/2\", got {json.dumps(value)}"
        )
    numerator, _, denominator = value.partition("/")
    if denominator and not int(denominator):
        raise ValueError(f"{what} has a zero denominator")
    return Fraction(int(numerator), int(denominator or 1))


# ASCII digits only: int() would also take spaces, signs, "_" and other digits
_PAIR_KEY = re.compile(r"([0-9]+),([0-9]+)")


def _unique_keys(items: list[tuple[str, object]]) -> dict:
    """A ``json.loads`` object hook that refuses a repeated key."""
    data: dict = {}
    for key, value in items:
        if key in data:
            raise ValueError(f"key {key!r} appears twice")
        data[key] = value
    return data


@dataclass(frozen=True, slots=True)
class ArcWeights:
    """A rational weight t(u, v) for every ordered vertex pair; the shifted
    weight is s(u, v) = t(u, v) + 1.  Drives the deformed Redei--Berge
    function.  Unstated pairs weigh 0."""

    n: int
    _t: dict[tuple[int, int], Fraction]

    def __init__(self, n: int, weights: dict[tuple[int, int], Rational] | None = None):
        _require_int(n, "vertex count")
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        table: dict[tuple[int, int], Fraction] = {}
        for (u, v), value in (weights or {}).items():
            if type(u) is not int or type(v) is not int:
                bad = v if type(u) is int else u
                raise ValueError(f"pair ({u!r}, {v!r}) has a non-integer entry {bad!r}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"pair ({u}, {v}) outside 0..{n - 1}")
            coeff = _coeff(value)
            if coeff:
                table[(u, v)] = coeff
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_t", table)

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
        ``[+-]digits`` or ``[+-]digits/digits``, and a key is two ASCII-digit
        fields ``u,v``; anything else is refused, and so is a repeated key
        or a pair named by two keys (such as "0,1" and "0,01"), a top-level
        key other than "n" and "t", and input nested too deeply to parse."""
        try:
            data = json.loads(text, object_pairs_hook=_unique_keys)
        except RecursionError:
            raise ValueError("weight JSON is nested too deeply") from None
        if not isinstance(data, dict) or "n" not in data:
            raise ValueError("expected a JSON object with an 'n' field")
        for key in data:
            if key not in ("n", "t"):
                raise ValueError(f"unknown key {key!r}: expected only 'n' and 't'")
        n = data["n"]
        if isinstance(n, bool) or not isinstance(n, int):
            raise ValueError(f"'n' must be an integer, got {json.dumps(n)}")
        pairs = data.get("t", {})
        if not isinstance(pairs, dict):
            raise ValueError("'t' must be a JSON object mapping 'u,v' to weights")
        table: dict[tuple[int, int], Fraction] = {}
        named: dict[tuple[int, int], str] = {}
        for key, value in pairs.items():
            match = _PAIR_KEY.fullmatch(key)
            if match is None:
                raise ValueError(f"bad pair key {key!r}, expected 'u,v'")
            pair = (int(match[1]), int(match[2]))
            if pair in named:
                raise ValueError(
                    f"pair keys {named[pair]!r} and {key!r} both name {pair}"
                )
            named[pair] = key
            table[pair] = _parse_rational(value, f"weight of {key!r}")
        return cls(n, table)

    def __repr__(self) -> str:
        return f"ArcWeights({self.n}, {dict(sorted(self._t.items()))!r})"


def deformed_by_definition(weights: ArcWeights) -> FundamentalQSym:
    """Defining sum of the deformation, in the fundamental basis.

    The definition sums, over every listing w and every weakly increasing
    index sequence, the monomial weighted by the product of s(w_k, w_{k+1})
    over the positions k where the sequence stalls, which are inside the
    blocks of its M_alpha: so paths are weighted by s."""
    n = weights.n
    _check_cap(n, "vertices", CYCLE_SUM_CAP, "cycle-sum")
    s, scales = _cleared([[weights.s(u, v) for v in range(n)] for u in range(n)])
    return _monomial_to_fundamental(n, *_listing_monomials(n, s, scales))


def deformed_powersum(weights: ArcWeights) -> PowerSumPolynomial:
    """Closed form of the deformation: over all permutations, the product
    over cycles of (product of s over the cyclic arcs minus product of t),
    attached to p_{type sigma}.

    >>> w = ArcWeights.from_digraph(Digraph(3, [(0, 1), (1, 1), (2, 2)]))
    >>> deformed_powersum(w) == redei_berge_powersum(Digraph(3, [(0, 1), (1, 1), (2, 2)]))
    True
    """
    n = weights.n
    _check_cap(n, "vertices", CYCLE_SUM_CAP, "cycle-sum")
    t, scales = _cleared([[weights.t(u, v) for v in range(n)] for u in range(n)])
    return _powersum(n, t, scales)


def _powersum(n: int, t: list[list[int]], scales: list[int]) -> PowerSumPolynomial:
    """The closed form of the deformation for the weights ``t[u][v] /
    scales[u]``: a block weighs its s-cycles minus its t-cycles, with
    s = t + 1, and the product of all the scales is divided out once."""
    s = [[value + scale for value in row] for row, scale in zip(t, scales)]
    s_sums, t_sums = _cycle_sums(n, s), _cycle_sums(n, t)
    sums = _partition_sum(n, [a - b for a, b in zip(s_sums, t_sums)])
    scale = math.prod(scales)
    return PowerSumPolynomial._trusted(
        {parts: Fraction(c, scale) for parts, c in sums.items()}
    )
