"""Exact sparse functions in two canonical bases: power sums for the
symmetric functions, Gessel's fundamental basis for the quasisymmetric ones.

All coefficients are arbitrary-precision rationals (``fractions.Fraction``);
no floating point appears anywhere.  Zero coefficients are never stored, so
equality in either basis is plain dictionary equality on canonical keys.  A
power-sum result reaches the fundamental basis by the single bridge
:meth:`PowerSumPolynomial.to_fundamental` (see Gessel, "Multipartite
P-partitions and inner products of skew Schur functions", 1984), which
shares its last step, monomial to fundamental, with the definition routes.
That step runs on ``int``s: its caller clears the denominators into one
scale (the power sums by the lcm of theirs), the Moebius pass runs on the
integer monomial coefficients over a table of cut sets built once per
degree, and each fundamental coefficient is divided by the scale once.
A check against a definition route stops before that step and compares
monomial coefficients (:meth:`PowerSumPolynomial._monomial_coefficients`).
The ``_trusted`` constructors wrap the engine's own results without the
validation the public constructors apply.

Each basis keeps only what the routes, checks and CLI use: power sums add,
subtract, scale, apply omega, antipode, zeta and the bridge, and print as
text or JSON; fundamentals compare and give coefficients and zeta.  Their
index sets, partitions and descent sets, are defined here too.

Conventions used throughout the package:

- Vertices are the integers 0..n-1.
- Positions inside a listing are 1-based: a descent set of a length-n
  listing is a subset of {1, ..., n-1}.
- A composition is a tuple of positive integers; a partition is a weakly
  decreasing composition (the empty tuple is the partition of 0).
- An integer that a value here is built from (a degree, length, member or
  part) must be a plain ``int``: a bool is refused, and so is a float,
  which would compare, hash and sort as the integer it equals.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Iterable, Iterator, Mapping, Sequence

from .limits import CYCLE_SUM_CAP, _check_cap, _require_int

Rational = Fraction | int


def is_partition(parts: Sequence[int]) -> bool:
    """True if every part is a positive integer (bools excluded) and the
    parts weakly decrease."""
    if not all(type(p) is int and p >= 1 for p in parts):
        return False
    return all(parts[i] >= parts[i + 1] for i in range(len(parts) - 1))


def partition_of(lengths: Iterable[int]) -> tuple[int, ...]:
    """Sort a multiset of positive integers into a canonical partition.

    >>> partition_of([1, 3, 2, 2])
    (3, 2, 2, 1)
    """
    parts = tuple(sorted(lengths, reverse=True))
    if not is_partition(parts):
        raise ValueError(f"not positive integers: {parts!r}")
    return parts


@dataclass(frozen=True, slots=True)
class DescentSet:
    """A subset of {1, ..., n-1}, with the ambient n kept explicit.

    These sets index the fundamental quasisymmetric functions and are what
    the digraph descent statistic returns.  They are in bijection with the
    compositions of n: the members are the partial sums of consecutive
    parts.

    >>> DescentSet(6, frozenset({2, 3, 5})).composition()
    (2, 1, 2, 1)
    """

    n: int
    members: frozenset[int]

    def __post_init__(self) -> None:
        _require_int(self.n, "length")
        if self.n < 0:
            raise ValueError(f"n must be nonnegative, got {self.n}")
        object.__setattr__(self, "members", frozenset(self.members))
        for m in self.members:
            _require_int(m, "member")
            if not 1 <= m <= self.n - 1:
                raise ValueError(f"member {m} outside 1..{self.n - 1}")

    def composition(self) -> tuple[int, ...]:
        """Consecutive differences of {0} | members | {n}, a composition of n."""
        if self.n == 0:
            return ()
        cuts = [0, *sorted(self.members), self.n]
        return tuple(cuts[i + 1] - cuts[i] for i in range(len(cuts) - 1))

    def __contains__(self, position: int) -> bool:
        return position in self.members

    def __iter__(self) -> Iterator[int]:
        return iter(sorted(self.members))


def _coeff(value: Rational) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise TypeError(f"coefficient must be exact (int or Fraction), got {type(value)}")


def _partition_key(parts: Iterable[int]) -> tuple[int, ...]:
    parts = tuple(parts)
    if not is_partition(parts):
        raise ValueError(f"not a canonical partition: {parts!r}")
    return parts


def _partition_sort_key(parts: tuple[int, ...]) -> tuple:
    # canonical term order: descending by size, then reverse-lexicographic
    return (-sum(parts), tuple(-p for p in parts))


@dataclass(frozen=True, slots=True)
class PowerSumPolynomial:
    """Element of the symmetric-function ring written in the power-sum basis.

    Terms map canonical partitions (weakly decreasing tuples of positive
    integers) to nonzero rational coefficients; the empty partition is the
    constant term.

    >>> f = PowerSumPolynomial({(1, 1, 1): 1, (2, 1): 2, (3,): 1})
    >>> f.to_text()
    'p[3] + 2*p[2,1] + p[1,1,1]'
    >>> f.zeta()
    Fraction(4, 1)
    """

    terms: dict[tuple[int, ...], Fraction]

    def __init__(self, terms: Mapping[tuple[int, ...], Rational] = ()):
        clean: dict[tuple[int, ...], Fraction] = {}
        for parts, value in dict(terms).items():
            parts = _partition_key(parts)
            coeff = _coeff(value)
            if coeff:
                clean[parts] = coeff
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _trusted(cls, terms: dict[tuple[int, ...], Fraction]) -> "PowerSumPolynomial":
        """Wraps engine output as it is: ``terms`` must already map
        canonical partitions to nonzero ``Fraction``s."""
        f = object.__new__(cls)
        object.__setattr__(f, "terms", terms)
        return f

    def __add__(self, other: "PowerSumPolynomial") -> "PowerSumPolynomial":
        terms = dict(self.terms)
        for parts, coeff in other.terms.items():
            terms[parts] = terms.get(parts, Fraction(0)) + coeff
        return PowerSumPolynomial(terms)

    def __neg__(self) -> "PowerSumPolynomial":
        return self.scale(-1)

    def __sub__(self, other: "PowerSumPolynomial") -> "PowerSumPolynomial":
        return self + (-other)

    def scale(self, value: Rational) -> "PowerSumPolynomial":
        c = _coeff(value)
        return PowerSumPolynomial({p: c * v for p, v in self.terms.items()})

    def coefficient(self, parts: Iterable[int]) -> Fraction:
        return self.terms.get(_partition_key(parts), Fraction(0))

    @property
    def degree(self) -> int:
        """Common size of the partitions; 0 for the zero polynomial."""
        sizes = {sum(p) for p in self.terms}
        if len(sizes) > 1:
            raise ValueError("not homogeneous")
        return sizes.pop() if sizes else 0

    def omega(self) -> "PowerSumPolynomial":
        """The involution acting by (-1)^(k-1) on each power sum p_k."""
        return PowerSumPolynomial(
            {
                parts: coeff * (-1) ** (sum(parts) - len(parts))
                for parts, coeff in self.terms.items()
            }
        )

    def antipode(self) -> "PowerSumPolynomial":
        """The antipode, acting by -1 on each power sum p_k."""
        return PowerSumPolynomial(
            {
                parts: coeff * (-1) ** len(parts)
                for parts, coeff in self.terms.items()
            }
        )

    def zeta(self) -> Fraction:
        """Evaluation at x_1 = 1 and all other variables 0.

        Every p_k evaluates to 1 there, so this is the plain coefficient sum.
        """
        return sum(self.terms.values(), Fraction(0))

    def to_fundamental(self) -> "FundamentalQSym":
        """The same homogeneous function in the fundamental basis.

        The monomial coefficients (:meth:`_monomial_coefficients`) give
        M_alpha the m coefficient at sort(alpha).  Degrees above the
        cycle-sum cap are refused before any table is built.

        >>> f = PowerSumPolynomial({(2,): 1}).to_fundamental()
        >>> sorted((sorted(s), int(c)) for s, c in f.terms.items())
        [([], 1), ([1], -1)]
        """
        return _monomial_to_fundamental(self.degree, *self._monomial_coefficients())

    def _monomial_coefficients(self) -> tuple[dict[tuple[int, ...], int], int]:
        """The ``int`` coefficients m[lambda] and the one scale with which
        this function is the sum of m[lambda] / scale * m_lambda (0 where
        absent), read from one cached expansion per partition
        (:func:`_monomials`).  Degrees above the cycle-sum cap are refused
        before any table is built."""
        _check_cap(self.degree, "(degree)", CYCLE_SUM_CAP, "cycle-sum")
        [coeffs], [scale] = _cleared([list(self.terms.values())])
        m: dict[tuple[int, ...], int] = {}
        for parts, c in zip(self.terms, coeffs):
            for shape, count in _monomials(parts):
                m[shape] = m.get(shape, 0) + c * count
        return m, scale

    def to_text(self) -> str:
        """Canonical rendering, e.g. ``p[3] + 2*p[2,1] + p[1,1,1]``."""
        if not self.terms:
            return "0"
        pieces: list[str] = []
        for parts in sorted(self.terms, key=_partition_sort_key):
            coeff = self.terms[parts]
            sign = "-" if coeff < 0 else "+"
            mag = abs(coeff)
            base = f"p[{','.join(str(p) for p in parts)}]" if parts else ""
            if not base:
                body = str(mag)
            elif mag == 1:
                body = base
            else:
                body = f"{mag}*{base}"
            pieces.append((sign, body))
        first_sign, first_body = pieces[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in pieces[1:]:
            text += f" {sign} {body}"
        return text

    def to_json(self) -> str:
        """JSON object mapping comma-joined parts to coefficient strings."""
        ordered = {
            ",".join(str(p) for p in parts): str(self.terms[parts])
            for parts in sorted(self.terms, key=_partition_sort_key)
        }
        return json.dumps(ordered)

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __repr__(self) -> str:
        return f"PowerSumPolynomial({self.terms!r})"


def _cleared(rows: list[list[Fraction]]) -> tuple[list[list[int]], list[int]]:
    """Each row times the lcm of its own denominators, and those lcms."""
    scales = [math.lcm(*(x.denominator for x in row)) for row in rows]
    return [
        [x.numerator * (scale // x.denominator) for x in row]
        for row, scale in zip(rows, scales)
    ], scales


def _monomial_to_fundamental(
    n: int, m: Mapping[tuple[int, ...], int], scale: int
) -> "FundamentalQSym":
    """The degree-n symmetric function with coefficient m[lambda] / scale on
    m_lambda (0 where absent), in the fundamental basis: M_alpha takes the
    value at sort(alpha), and since L_S is the sum of M_T over the cut sets
    T containing S, L_S takes the signed sum of the M_T over the T inside S.
    The pass runs on the ``int`` values of ``m``; each L_S is divided by
    ``scale`` once at the end."""
    keys, shapes = _cut_shapes(n)
    coeffs = [m.get(shape, 0) for shape in shapes]  # M, then L
    for k in range(n - 1):  # Moebius pass, one cut position at a time
        bit = 1 << k
        for cuts in range(len(coeffs)):
            if cuts & bit:
                coeffs[cuts] -= coeffs[cuts ^ bit]
    return FundamentalQSym._trusted(
        n, {key: Fraction(c, scale) for key, c in zip(keys, coeffs) if c}
    )


@cache
def _cut_shapes(n: int) -> tuple[tuple[DescentSet, ...], tuple[tuple[int, ...], ...]]:
    """The 2^(n-1) descent sets of degree n, indexed by the bitmask whose
    bit k - 1 marks cut position k, and the partition each one sorts to."""
    cuts = range(1 << max(n - 1, 0))
    keys = tuple(DescentSet(n, {k + 1 for k in range(n) if c >> k & 1}) for c in cuts)
    return keys, tuple(partition_of(key.composition()) for key in keys)


@cache
def _monomials(parts: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], int], ...]:
    """p_parts in the monomial basis, as (partition, coefficient) pairs.

    It is p_k times the expansion of the tail, k the first part: p_k m_nu
    is the sum of m_mu over the mu made by adding k to one part of nu or
    appending k as a new part, each counted once per part of mu equal to
    the grown part (Macdonald, ch. I, section 6).  So p_2 p_1 = m_3 + m_21:

    >>> _monomials((2, 1))
    (((3,), 1), ((2, 1), 1))
    """
    if not parts:
        return (((), 1),)
    k, expansion = parts[0], {}
    for nu, c in _monomials(parts[1:]):
        for part in (*dict.fromkeys(nu), 0):  # each distinct part, then a new one
            rest = list(nu)
            if part:
                rest.remove(part)
            mu = partition_of((*rest, part + k))
            expansion[mu] = expansion.get(mu, 0) + c * mu.count(part + k)
    return tuple(expansion.items())


def _descent_key(n: int, key: DescentSet) -> DescentSet:
    if not isinstance(key, DescentSet) or key.n != n:
        raise ValueError(f"key {key!r} does not index degree {n}")
    return key


@dataclass(frozen=True, slots=True)
class FundamentalQSym:
    """Homogeneous degree-n quasisymmetric function written in the
    fundamental basis: a map from descent sets (all sharing the same n)
    to rational coefficients."""

    n: int
    terms: dict[DescentSet, Fraction]

    def __init__(self, n: int, terms: Mapping[DescentSet, Rational] = ()):
        _require_int(n, "degree")
        if n < 0:
            raise ValueError(f"degree must be nonnegative, got {n}")
        clean: dict[DescentSet, Fraction] = {}
        for key, value in dict(terms).items():
            key = _descent_key(n, key)
            coeff = _coeff(value)
            if coeff:
                clean[key] = coeff
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _trusted(cls, n: int, terms: dict[DescentSet, Fraction]) -> "FundamentalQSym":
        """Wraps engine output as it is: ``terms`` must already map descent
        sets of degree n to nonzero ``Fraction``s."""
        f = object.__new__(cls)
        object.__setattr__(f, "n", n)
        object.__setattr__(f, "terms", terms)
        return f

    def coefficient(self, key: DescentSet) -> Fraction:
        return self.terms.get(_descent_key(self.n, key), Fraction(0))

    def zeta(self) -> Fraction:
        """Evaluation at x_1 = 1, rest 0: the coefficient of the empty
        descent set (every other fundamental vanishes there)."""
        return self.terms.get(DescentSet(self.n, ()), Fraction(0))

    def __hash__(self) -> int:
        return hash((self.n, frozenset(self.terms.items())))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __repr__(self) -> str:
        return f"FundamentalQSym({self.n}, {self.terms!r})"
