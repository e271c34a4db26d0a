"""The catalog of exactly known packing angles and its consistency checks."""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import VerificationError
from .frames import welch_bound


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


def angle_catalog(m: int, n: int) -> tuple[AngleCatalogEntry, ...]:
    """Exactly known packing angles for (m, n); empty when no rule applies.

    Four congruence rules give the optimal angle alpha for small offsets
    m - n, and for m = n + 2 the optimal angle over tight frames is
    (2/n) cos(pi/(n+2)).  Both kinds are returned when both apply.
    """
    if n < 2 or m <= n:
        return ()
    entries = []
    if n % 3 == 1 and m == n + 2:  # n = -2 (mod 3)
        entries.append(
            AngleCatalogEntry(m, n, GRASSMANNIAN_ALPHA, 3.0 / (2.0 * n + 1.0), "n+2_mod3")
        )
    if n % 6 == 3 and m == n + 3:  # n = -3 (mod 6)
        r5 = math.sqrt(5.0)
        value = 6.0 / ((r5 + 1.0) * n + 3.0 * (r5 - 1.0))
        entries.append(AngleCatalogEntry(m, n, GRASSMANNIAN_ALPHA, value, "n+3_mod6"))
    if n % 28 == 21 and m == n + 7:  # n = -7 (mod 28)
        entries.append(
            AngleCatalogEntry(m, n, GRASSMANNIAN_ALPHA, 14.0 / (5.0 * n + 21.0), "n+7_mod28")
        )
    if n % 276 == 253 and m == n + 23:  # n = -23 (mod 276)
        entries.append(
            AngleCatalogEntry(m, n, GRASSMANNIAN_ALPHA, 69.0 / (14.0 * n + 253.0), "n+23_mod276")
        )
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
