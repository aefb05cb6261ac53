"""Analysis layer: every table and figure of the paper's §5 (plus §3's
summary figures).

Each module computes one family of results from the merged dataset and
auxiliary datasets, returning plain result objects with ``rows()`` /
``points()`` accessors that the benchmark harness prints in the paper's
format:

- :mod:`repro.analysis.summary` — Table 2.
- :mod:`repro.analysis.country_year` — Table 3 and the country-year
  grouping used throughout §5.1.
- :mod:`repro.analysis.institutions` — Figures 4-9.
- :mod:`repro.analysis.mobilization` — Table 4.
- :mod:`repro.analysis.temporal` — Figures 10-15.
- :mod:`repro.analysis.observability` — Figure 16.
- :mod:`repro.analysis.kio_trends` — Figure 2.
- :mod:`repro.analysis.match_timelines` — Figure 3.
"""

from repro.analysis.summary import Table2, summarize_merged
from repro.analysis.country_year import (
    CountryYearGroup,
    CountryYearTable,
    group_country_years,
)
from repro.analysis.institutions import (
    GroupDistributions,
    institution_distributions,
    state_control_split,
    state_share_distributions,
)
from repro.analysis.mobilization import MobilizationTable, mobilization_table
from repro.analysis.temporal import TemporalAnalysis, analyze_temporal
from repro.analysis.observability import (
    ExecStats,
    HealthReport,
    ObservabilityTable,
    observability_table,
)
from repro.analysis.kio_trends import KIOTrends, kio_trends
from repro.analysis.match_timelines import MatchTimeline, match_timeline
from repro.analysis.robustness import (
    weekly_mobilization_table,
    within_country_rates,
)
from repro.analysis.subnational import SubnationalStats, subnational_stats
from repro.analysis.trends import YearlyTrends, yearly_trends
from repro.analysis.case_study import CaseStudy, build_case_study
from repro.analysis.significance import GroupComparison, compare_groups
from repro.analysis.impact import UserImpact, user_impact

__all__ = [
    "Table2", "summarize_merged",
    "CountryYearGroup", "CountryYearTable", "group_country_years",
    "GroupDistributions", "institution_distributions",
    "state_control_split", "state_share_distributions",
    "MobilizationTable", "mobilization_table",
    "TemporalAnalysis", "analyze_temporal",
    "ExecStats", "HealthReport",
    "ObservabilityTable", "observability_table",
    "KIOTrends", "kio_trends",
    "MatchTimeline", "match_timeline",
    "weekly_mobilization_table", "within_country_rates",
    "SubnationalStats", "subnational_stats",
    "YearlyTrends", "yearly_trends",
    "CaseStudy", "build_case_study",
    "GroupComparison", "compare_groups",
    "UserImpact", "user_impact",
]
