"""Shared fixtures.

The full pipeline (world → observation → curation → merge) is expensive,
so it runs once per session and caches its curated records under
``.cache/`` in the repository root; subsequent test runs load the cache
and finish in seconds.
"""

from __future__ import annotations

from pathlib import Path

import pytest

import repro.api as api
from repro.core.pipeline import PipelineResult
from repro.countries.registry import CountryRegistry, default_registry
from repro.ioda.platform import IODAPlatform
from repro.world.scenario import (
    STUDY_PERIOD,
    ScenarioConfig,
    ScenarioGenerator,
    WorldScenario,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
CACHE_DIR = REPO_ROOT / ".cache"

#: The canonical seed used by tests, benches, and EXPERIMENTS.md.
CANONICAL_SEED = 2023


@pytest.fixture(scope="session")
def registry() -> CountryRegistry:
    return default_registry()


@pytest.fixture(scope="session")
def scenario() -> WorldScenario:
    """The canonical synthetic world (fast to generate, ~0.5 s)."""
    return ScenarioGenerator(ScenarioConfig(seed=CANONICAL_SEED)).generate()


@pytest.fixture(scope="session")
def platform(scenario: WorldScenario) -> IODAPlatform:
    return IODAPlatform(scenario)


@pytest.fixture(scope="session")
def pipeline_result() -> PipelineResult:
    """The full pipeline output (curation stage disk-cached)."""
    return api.run(scenario_config=ScenarioConfig(seed=CANONICAL_SEED),
                   cache_dir=CACHE_DIR).events


@pytest.fixture(scope="session")
def study_period():
    return STUDY_PERIOD
