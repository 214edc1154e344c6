"""Exact sparse functions in two canonical bases: power sums for the
symmetric functions, Gessel's fundamental basis for the quasisymmetric ones.

All coefficients are arbitrary-precision rationals (``fractions.Fraction``);
no floating point appears anywhere.  Zero coefficients are never stored, so
equality in either basis is plain dictionary equality on canonical keys.  A
power-sum result is compared with a fundamental one after the single bridge
:meth:`PowerSumPolynomial.to_fundamental` (see Gessel, "Multipartite
P-partitions and inner products of skew Schur functions", 1984).
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping

from .kernel import DescentSet, all_descent_sets, is_partition

Rational = Fraction | int


def _coeff(value: Rational) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"coefficient must be exact (int or Fraction), got {type(value)}")


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


def _partition_sort_key(parts: tuple[int, ...]) -> tuple:
    # canonical term order: descending by size, then reverse-lexicographic
    return (-sum(parts), tuple(-p for p in parts))


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

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple[int, ...], Rational] = ()):
        clean: dict[tuple[int, ...], Fraction] = {}
        for parts, value in dict(terms).items():
            parts = tuple(parts)
            if not is_partition(parts):
                raise ValueError(f"not a canonical partition: {parts!r}")
            coeff = _coeff(value)
            if coeff:
                clean[parts] = coeff
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("PowerSumPolynomial is immutable")

    @classmethod
    def zero(cls) -> "PowerSumPolynomial":
        return cls({})

    @classmethod
    def one(cls) -> "PowerSumPolynomial":
        return cls({(): 1})

    @classmethod
    def p(cls, k: int) -> "PowerSumPolynomial":
        """The power sum x_1^k + x_2^k + ... as a basis element."""
        return cls({(k,): 1})

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

    def __mul__(self, other: "PowerSumPolynomial") -> "PowerSumPolynomial":
        terms: dict[tuple[int, ...], Fraction] = {}
        for p1, c1 in self.terms.items():
            for p2, c2 in other.terms.items():
                key = tuple(sorted(p1 + p2, reverse=True))
                terms[key] = terms.get(key, Fraction(0)) + c1 * c2
        return PowerSumPolynomial(terms)

    def coefficient(self, parts: Iterable[int]) -> Fraction:
        return self.terms.get(tuple(parts), Fraction(0))

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

        The coefficient of M_alpha in p_lambda counts the ways to send the
        parts of lambda into the blocks of alpha so that every block is
        filled exactly; since L_S is the sum of M_T over the cut sets T
        containing S, the fundamental coefficient of S is the signed sum
        of the M_T coefficients over the T inside S.

        >>> f = PowerSumPolynomial({(2,): 1}).to_fundamental()
        >>> sorted((sorted(s), int(c)) for s, c in f.terms.items())
        [([], 1), ([1], -1)]
        """
        n = self.degree
        coeffs = {}  # M coefficients by cut set, then L coefficients
        for key in all_descent_sets(n):
            blocks = key.composition()
            coeffs[key.members] = sum(
                c * _fillings(parts, blocks) for parts, c in self.terms.items()
            )
        for k in range(1, n):  # Moebius pass, one cut position at a time
            for cuts in coeffs:
                if k in cuts:
                    coeffs[cuts] -= coeffs[cuts - {k}]
        return FundamentalQSym(n, {DescentSet(n, S): c for S, c in coeffs.items()})

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

    @classmethod
    def from_json(cls, text: str) -> "PowerSumPolynomial":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("expected a JSON object")
        terms: dict[tuple[int, ...], Fraction] = {}
        for key, value in data.items():
            parts = tuple(int(p) for p in key.split(",")) if key else ()
            terms[parts] = _parse_rational(value, f"coefficient of {key!r}")
        return cls(terms)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PowerSumPolynomial) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __repr__(self) -> str:
        return f"PowerSumPolynomial({self.terms!r})"


@lru_cache(maxsize=1 << 16)  # degree 9 needs about 18,000 entries
def _fillings(parts: tuple[int, ...], blocks: tuple[int, ...]) -> int:
    """Ways to send the parts (told apart by position) into the blocks so
    that every block is filled exactly: the M_blocks coefficient of
    p_parts."""
    if not parts:
        return int(not any(blocks))
    first, rest = parts[0], parts[1:]
    return sum(
        _fillings(rest, (*blocks[:j], room - first, *blocks[j + 1 :]))
        for j, room in enumerate(blocks)
        if room >= first
    )


class FundamentalQSym:
    """Homogeneous degree-n quasisymmetric function written in the
    fundamental basis: a map from descent sets (all sharing the same n)
    to rational coefficients."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Mapping[DescentSet, Rational] = ()):
        if n < 0:
            raise ValueError(f"degree must be nonnegative, got {n}")
        clean: dict[DescentSet, Fraction] = {}
        for key, value in dict(terms).items():
            if not isinstance(key, DescentSet) or key.n != n:
                raise ValueError(f"key {key!r} does not index degree {n}")
            coeff = _coeff(value)
            if coeff:
                clean[key] = coeff
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("FundamentalQSym is immutable")

    @classmethod
    def zero(cls, n: int) -> "FundamentalQSym":
        return cls(n, {})

    def __add__(self, other: "FundamentalQSym") -> "FundamentalQSym":
        if self.n != other.n:
            raise ValueError(f"degrees differ: {self.n} vs {other.n}")
        terms = dict(self.terms)
        for key, coeff in other.terms.items():
            terms[key] = terms.get(key, Fraction(0)) + coeff
        return FundamentalQSym(self.n, terms)

    def __neg__(self) -> "FundamentalQSym":
        return self.scale(-1)

    def __sub__(self, other: "FundamentalQSym") -> "FundamentalQSym":
        return self + (-other)

    def scale(self, value: Rational) -> "FundamentalQSym":
        c = _coeff(value)
        return FundamentalQSym(self.n, {k: c * v for k, v in self.terms.items()})

    def coefficient(self, key: DescentSet) -> Fraction:
        return self.terms.get(key, Fraction(0))

    def zeta(self) -> Fraction:
        """Evaluation at x_1 = 1, rest 0: the coefficient of the empty
        descent set (every other fundamental vanishes there)."""
        return self.terms.get(DescentSet.of(self.n), Fraction(0))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FundamentalQSym)
            and self.n == other.n
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.n, frozenset(self.terms.items())))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __repr__(self) -> str:
        return f"FundamentalQSym({self.n}, {self.terms!r})"
