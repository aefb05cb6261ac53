"""Benchmark fixtures.

The benchmark harness reproduces every table and figure of the paper.
Each bench times the *analysis computation* (the pipeline's expensive
observation stage is shared and disk-cached) and prints the reproduced
rows next to the paper's reported values, so ``pytest benchmarks/
--benchmark-only -s`` regenerates the full results table.
"""

from __future__ import annotations

from pathlib import Path

import pytest

import repro.api as api
from repro.core.pipeline import PipelineResult
from repro.ioda.platform import IODAPlatform
from repro.world.scenario import ScenarioConfig

REPO_ROOT = Path(__file__).resolve().parent.parent
CACHE_DIR = REPO_ROOT / ".cache"
CANONICAL_SEED = 2023


def pytest_collection_modifyitems(items) -> None:
    """Every benchmark is slow; mark them so ``-m 'not slow'`` skips all."""
    for item in items:
        item.add_marker(pytest.mark.slow)


@pytest.fixture(scope="session")
def pipeline_result() -> PipelineResult:
    return api.run(scenario_config=ScenarioConfig(seed=CANONICAL_SEED),
                   cache_dir=CACHE_DIR).events


@pytest.fixture(scope="session")
def platform(pipeline_result) -> IODAPlatform:
    return IODAPlatform(pipeline_result.scenario)


def print_banner(title: str, paper: str, rows) -> None:
    """Uniform result presentation for every bench."""
    print()
    print("=" * 72)
    print(f"REPRODUCTION | {title}")
    print(f"PAPER        | {paper}")
    print("-" * 72)
    for row in rows:
        print(row)
    print("=" * 72)
