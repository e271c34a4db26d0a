"""The catalog of exactly known packing angles and its consistency checks."""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import VerificationError
from .frameio import welch_bound


GRASSMANNIAN_ALPHA = "grassmannian_alpha"
ONE_GRASSMANNIAN_MU = "one_grassmannian_mu"


class _AngleCatalogFields(NamedTuple):
    m: int
    n: int
    kind: str
    value: float
    rule: str


class AngleCatalogEntry(_AngleCatalogFields):
    """An exactly known optimal packing angle for (m, n).

    Construction and ``_replace`` raise VerificationError for a value
    outside (0, 1) or, when m > n, below the Welch bound.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        return cls._make(_AngleCatalogFields(*args, **kwargs))

    @classmethod
    def _make(cls, iterable):
        entry = super()._make(iterable)
        if not 0.0 < entry.value < 1.0:
            raise VerificationError(f"catalog value {entry.value!r} outside (0, 1)")
        if entry.m > entry.n and entry.value < welch_bound(entry.m, entry.n) - 1e-12:
            raise VerificationError(
                f"catalog value {entry.value!r} below the Welch bound for ({entry.m}, {entry.n})"
            )
        return entry


_R5 = math.sqrt(5.0)
# (q, r, d, a, b, c, rule): for n = r (mod q), that is n = -d (mod q), and
# m = n + d the optimal angle is alpha = a / (b n + c).
_CONGRUENCE_RULES = (
    (3, 1, 2, 3.0, 2.0, 1.0, "n+2_mod3"),
    (6, 3, 3, 6.0, _R5 + 1.0, 3.0 * (_R5 - 1.0), "n+3_mod6"),
    (28, 21, 7, 14.0, 5.0, 21.0, "n+7_mod28"),
    (276, 253, 23, 69.0, 14.0, 253.0, "n+23_mod276"),
)


def angle_catalog(m: int, n: int) -> tuple[AngleCatalogEntry, ...]:
    """Exactly known packing angles for (m, n); empty when no rule applies.

    Four congruence rules give the optimal angle alpha for small offsets
    m - n, and for m = n + 2 the optimal angle over tight frames is
    (2/n) cos(pi/(n+2)).  Both kinds are returned when both apply.
    """
    if n < 2 or m <= n:
        return ()
    entries = [AngleCatalogEntry(m, n, GRASSMANNIAN_ALPHA, a / (b * n + c), rule)
               for q, r, d, a, b, c, rule in _CONGRUENCE_RULES if n % q == r and m == n + d]
    if m == n + 2:
        value = (2.0 / n) * math.cos(math.pi / (n + 2.0))
        entries.append(AngleCatalogEntry(m, n, ONE_GRASSMANNIAN_MU, value, "tight_n+2"))
    return tuple(entries)


class CatalogComparison(NamedTuple):
    description: str
    lhs: float
    rhs: float
    ok: bool


class CatalogReport(NamedTuple):
    comparisons: tuple[CatalogComparison, ...]

    @property
    def violations(self) -> tuple[CatalogComparison, ...]:
        return tuple(c for c in self.comparisons if not c.ok)


def catalog_consistency(max_m: int, max_n: int) -> CatalogReport:
    """Cross-check all catalog entries with m <= max_m, n <= max_n.

    Asserted relations between known optimal angles: alpha is nondecreasing
    in m, strictly decreasing along the diagonal (m+1, n+1), and strictly
    decreasing in n; whenever n' > n and m' - m <= n' - n the primed angle
    is strictly smaller (chained applications).  Additionally mu >= alpha
    for the same pair and every value is at least the Welch bound.
    """
    alphas: dict[tuple[int, int], float] = {}
    mus: dict[tuple[int, int], float] = {}
    for n in range(2, max_n + 1):
        for m in range(n + 1, max_m + 1):
            for entry in angle_catalog(m, n):
                if entry.kind == GRASSMANNIAN_ALPHA:
                    alphas[(m, n)] = entry.value
                else:
                    mus[(m, n)] = entry.value

    slack = 1e-12
    comparisons = []

    def record(description: str, lhs: float, rhs: float, ok: bool) -> None:
        comparisons.append(CatalogComparison(description, lhs, rhs, ok))

    keys = sorted(alphas)
    for (m1, n1) in keys:
        for (m2, n2) in keys:
            if (m1, n1) == (m2, n2):
                continue
            a1, a2 = alphas[(m1, n1)], alphas[(m2, n2)]
            if n1 == n2 and m1 < m2:
                record(
                    f"alpha({m1},{n1}) <= alpha({m2},{n2})", a1, a2, a1 <= a2 + slack
                )
            elif n2 > n1 and (m2 - m1) <= (n2 - n1):
                record(
                    f"alpha({m2},{n2}) < alpha({m1},{n1})", a2, a1, a2 < a1 + slack
                )
    for (m, n), mu in sorted(mus.items()):
        if (m, n) in alphas:
            record(f"mu({m},{n}) >= alpha({m},{n})", mu, alphas[(m, n)], mu >= alphas[(m, n)] - slack)
        w = welch_bound(m, n)
        record(f"mu({m},{n}) >= welch({m},{n})", mu, w, mu >= w - slack)
    for (m, n), a in sorted(alphas.items()):
        w = welch_bound(m, n)
        record(f"alpha({m},{n}) >= welch({m},{n})", a, w, a >= w - slack)
    return CatalogReport(tuple(comparisons))
