"""Tests for the country registry and name standardization."""

import pytest
from hypothesis import given, strategies as st

from repro.countries.data import COUNTRY_ROWS
from repro.countries.names import normalize_name
from repro.countries.registry import Archetype, CountryRegistry, \
    default_registry
from repro.errors import CountryLookupError
from repro.timeutils.calendars import Weekday


class TestNormalizeName:
    @pytest.mark.parametrize("a, b", [
        ("Côte d'Ivoire", "Cote d'Ivoire"),
        ("Timor-Leste", "Timor Leste"),
        ("Guinea-Bissau", "Guinea Bissau"),
        ("TOGO", "togo"),
        ("Bosnia & Herzegovina", "Bosnia and Herzegovina"),
    ])
    def test_variants_agree(self, a, b):
        assert normalize_name(a) == normalize_name(b)

    @pytest.mark.parametrize("a, b", [
        ("North Korea", "South Korea"),
        ("Congo", "DR Congo"),
        ("Niger", "Nigeria"),
        ("Guinea", "Guinea-Bissau"),
    ])
    def test_distinct_countries_stay_distinct(self, a, b):
        assert normalize_name(a) != normalize_name(b)

    def test_idempotent(self):
        once = normalize_name("Venezuela, Bolivarian Republic of")
        assert normalize_name(once) == once

    @given(st.text(min_size=1, max_size=80))
    def test_never_crashes_and_is_idempotent(self, text):
        key = normalize_name(text)
        assert normalize_name(key) == key


class TestRegistry:
    def test_size_covers_paper_scale(self, registry):
        # The paper's dataset spans 155 countries; ours must cover that.
        assert len(registry) >= 155

    def test_lookup_by_iso(self, registry):
        assert registry.get("sy").name == "Syria"

    def test_lookup_by_name(self, registry):
        assert registry.by_name("Syrian Arab Republic").iso2 == "SY"

    def test_lookup_by_alias_rename(self, registry):
        assert registry.by_name("Swaziland").iso2 == "SZ"
        assert registry.by_name("Burma").iso2 == "MM"

    def test_lookup_dispatches_iso_or_name(self, registry):
        assert registry.lookup("IQ").iso2 == "IQ"
        assert registry.lookup("Ivory Coast").iso2 == "CI"

    def test_unknown_name_raises(self, registry):
        with pytest.raises(CountryLookupError):
            registry.by_name("Atlantis")

    def test_unknown_iso_raises(self, registry):
        with pytest.raises(CountryLookupError):
            registry.get("XX")

    def test_contains(self, registry):
        assert "SY" in registry
        assert "Atlantis" not in registry

    def test_every_alias_resolves_to_its_country(self, registry):
        for country in registry:
            for name in country.all_names():
                assert registry.by_name(name) is country

    def test_no_alias_collisions_in_table(self):
        # Registry construction raises on collisions; building succeeds.
        assert CountryRegistry.from_rows(COUNTRY_ROWS)

    def test_half_hour_offsets_present(self, registry):
        assert registry.get("MM").utc_offset.minutes == 390
        assert registry.get("IR").utc_offset.minutes == 210
        assert registry.get("NP").utc_offset.minutes == 345

    def test_friday_weekend_countries(self, registry):
        for iso2 in ("SY", "IQ", "IR", "SD", "DZ"):
            assert Weekday.FRIDAY in registry.get(iso2).workweek.weekend, iso2
        assert Weekday.FRIDAY not in registry.get("US").workweek.weekend

    def test_paper_top_countries_have_matching_archetypes(self, registry):
        assert registry.get("SY").archetype is Archetype.EXAM
        assert registry.get("IQ").archetype is Archetype.EXAM
        assert registry.get("MM").archetype is Archetype.COUP
        assert registry.get("TG").archetype is Archetype.FRAGILE
        assert registry.get("IN").archetype is Archetype.SUBNATIONAL

    def test_hints_in_unit_range(self, registry):
        for country in registry:
            for hint in (country.autocracy_hint, country.income_hint,
                         country.state_isp_hint, country.fragility_hint):
                assert 0.0 <= hint <= 1.0

    def test_default_registry_cached(self):
        assert default_registry() is default_registry()

    def test_iso3_roundtrip(self, registry):
        for country in registry:
            assert len(country.iso3) == 3
            assert registry.by_iso3(country.iso3) is country

    def test_iso3_codes_unique(self, registry):
        codes = [c.iso3 for c in registry]
        assert len(codes) == len(set(codes))

    def test_lookup_accepts_iso3(self, registry):
        assert registry.lookup("SYR").iso2 == "SY"
        assert registry.lookup("mmr").iso2 == "MM"

    def test_known_iso3_values(self, registry):
        assert registry.get("CD").iso3 == "COD"
        assert registry.get("DE").iso3 == "DEU"
        assert registry.get("KP").iso3 == "PRK"
