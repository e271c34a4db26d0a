"""The record types: immutable NamedTuples with a pinned field order, the
validation of the two that check their values, ``CoreLevel``'s equality by
identity fields, and ``UnitVectorSystem``'s frozen attributes and cached
derived data."""

import functools

import pytest

import framecore as fc
from framecore.coreanalysis import CoreLevel
from framecore.errors import VerificationError
from framecore.numerics import Tolerances
from framecore.report import analysis

FIELDS = {
    "Tolerances": ("eq_abs", "neighbor_abs", "hull_abs", "rank_rel"),
    "SpectralData": ("eigenvalues", "eigenvectors"),
    "ConeResult": ("feasible", "weights", "certificate", "residual_norm"),
    "GramMatrix": ("entries", "coherence"),
    "NeighborSet": ("owner", "level", "indices", "signs", "near_ties", "below_band"),
    "TightnessVerdict": ("tight", "parseval", "bound", "deviation"),
    "BoundsCard": (
        "m", "n", "coherence", "welch", "orthoplex", "gerzon_max_m", "meets_welch",
        "exceeds_gerzon",
    ),
    "VectorVerdict": (
        "index", "status", "witness", "certificate", "neighbors", "signs", "neighbor_rank",
        "warnings",
    ),
    "CoreLevel": ("members", "removed", "coherence", "verdicts"),
    "CoreTrace": ("levels", "core", "warnings"),
    "DichotomyVerdict": ("kind", "indices", "warnings"),
    "EigenSpanReport": ("status", "multiplicity", "distances", "detail"),
    "Analysis": (
        "tightness", "equiangular", "bounds", "etf", "etf_disagreement", "trace",
        "neighbor_counts", "eigen_span", "tight_n_plus_2", "core_validation",
    ),
    "AngleCatalogEntry": ("m", "n", "kind", "value", "rule"),
    "CatalogComparison": ("description", "lhs", "rhs", "ok"),
    "CatalogReport": ("comparisons",),
}


@functools.cache
def records() -> dict:
    """One instance of every record type, each from a real computation."""
    X = fc.six_in_r4()
    trace = fc.core(X)
    facts = analysis(X)
    built = [
        Tolerances(),
        fc.spectral_data(X),
        fc.nnls_cone_feasible([[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0]),
        fc.gram(X),
        fc.neighbors(X, 0, fc.gram(X).coherence),
        fc.tightness(X),
        fc.bounds_card(X),
        fc.classify_vector(X, 0),
        fc.isolable_set(X),
        trace,
        fc.classify_n_plus_2(X, trace=trace),
        fc.eigen_span_diagnostic(X, trace),
        facts,
        fc.angle_catalog(6, 4)[0],
        fc.catalog_consistency(12, 8).comparisons[0],
        fc.catalog_consistency(12, 8),
    ]
    return {type(r).__name__: r for r in built}


def test_every_record_type_is_covered():
    assert sorted(records()) == sorted(FIELDS)


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_field_order_is_pinned(name):
    record = records()[name]
    assert type(record)._fields == FIELDS[name]
    assert tuple(record._asdict()) == FIELDS[name]
    assert record._replace() == record


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_fields_cannot_be_assigned_or_added(name):
    record = records()[name]
    for field in FIELDS[name]:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = None


def test_unit_vector_system_attributes_cannot_be_rebound():
    X = fc.six_in_r4()
    spec = fc.spectral_data(X)
    for name in ("vectors", "labels", "warnings", "extra"):
        with pytest.raises(AttributeError):
            setattr(X, name, None)
    for name in ("vectors", "labels", "warnings"):
        with pytest.raises(AttributeError):
            delattr(X, name)
    assert fc.spectral_data(X) is spec
    same = fc.UnitVectorSystem(X.vectors, X.labels, X.warnings)
    assert (same.vectors, same.labels, same.warnings) == (X.vectors, X.labels, X.warnings)


class TestValidatedRecords:
    @pytest.mark.parametrize("field", FIELDS["Tolerances"])
    @pytest.mark.parametrize("value", [0.0, -1e-9, 1e-2, 1.0])
    def test_tolerances_reject_out_of_range_values(self, field, value):
        with pytest.raises(ValueError, match=field):
            Tolerances(**{field: value})
        with pytest.raises(ValueError, match=field):
            Tolerances()._replace(**{field: value})

    def test_tolerances_keep_their_defaults_and_overrides(self):
        assert Tolerances() == (1e-9, 1e-8, 1e-9, 1e-10)
        tol = Tolerances(1e-6, rank_rel=1e-12)
        assert type(tol) is Tolerances and tol._replace(hull_abs=1e-7).hull_abs == 1e-7
        assert tol == (1e-6, 1e-8, 1e-9, 1e-12)
        assert repr(tol) == (
            "Tolerances(eq_abs=1e-06, neighbor_abs=1e-08, hull_abs=1e-09, rank_rel=1e-12)"
        )

    @pytest.mark.parametrize("value", [0.0, 1.0, -0.2, 0.3])  # welch(6, 4) = 0.316...
    def test_catalog_entry_rejects_values_outside_the_known_range(self, value):
        with pytest.raises(VerificationError):
            fc.AngleCatalogEntry(6, 4, "grassmannian_alpha", value, "rule")
        entry = fc.angle_catalog(6, 4)[0]
        with pytest.raises(VerificationError):
            entry._replace(value=value)

    def test_catalog_entry_keeps_a_valid_value(self):
        entry = fc.AngleCatalogEntry(6, 4, "grassmannian_alpha", 1 / 3, "n+2_mod3")
        assert entry == fc.angle_catalog(6, 4)[0]
        assert type(entry._replace(rule="other")) is fc.AngleCatalogEntry


class TestCoreLevelIdentity:
    def test_levels_that_differ_only_in_verdicts_are_equal(self):
        level = fc.isolable_set(fc.six_in_r4())
        other = level._replace(verdicts=())
        assert level == other and other == level
        assert not (level != other) and not (other != level)
        assert hash(level) == hash(other)
        assert len({level, other}) == 1

    @pytest.mark.parametrize(
        "change", [{"members": (0,)}, {"removed": (0,)}, {"coherence": 0.5}]
    )
    def test_levels_that_differ_in_an_identity_field_are_not_equal(self, change):
        level = fc.isolable_set(fc.six_in_r4())
        other = level._replace(**change)
        assert level != other and not (level == other)

    def test_a_level_equals_only_a_level(self):
        level = fc.isolable_set(fc.six_in_r4())
        assert level != tuple(level) and level[:3] != level
        assert level == CoreLevel(*level)
