"""Indexing, statistics and reporting (paper Section IV-D).

"The dataset is indexed based on the annotations (semantic
classifications).  This allows quick reporting to be done on datasets
containing even millions of documents."

* :class:`ConceptIndex` — inverted index over concept keys, mixing
  unstructured concepts and structured fields.
* :mod:`algebra` — the partial/finalize aggregate form every analytic
  below runs through.
* :mod:`relfreq` — relevancy analysis with relative frequency.
* :mod:`assoc2d` — two-dimensional association analysis with the
  interval-estimated lift of Eqn 4, plus drill-down (Fig 4).
* :mod:`trends` — concept occurrence over time.
* :mod:`reports` — text renderings of the analysis tables.
"""

from repro.mining.index import ConceptIndex, concept_key, field_key
from repro.mining.algebra import PartialAggregate, compute
from repro.mining.relfreq import (
    RelativeFrequencyAggregate,
    RelevancyResult,
    relative_frequency,
)
from repro.mining.assoc2d import (
    AssociationAggregate,
    AssociationCell,
    AssociationTable,
    associate,
)
from repro.mining.trends import (
    EmergingConceptsAggregate,
    TrendSeriesAggregate,
    emerging_concepts,
    observed_bucket_range,
    trend_series,
    trend_slope,
)
from repro.mining.olap import (
    ConceptCube,
    ConceptCubeAggregate,
    CubeCell,
    concept_cube,
)
from repro.mining.kpi import (
    AgentKpi,
    agent_kpis,
    daily_booking_series,
    leaderboard,
    render_kpi_report,
)
from repro.mining.reports import (
    outcome_percentage_table,
    render_association,
    render_relevancy,
)

__all__ = [
    "ConceptIndex",
    "PartialAggregate",
    "compute",
    "concept_key",
    "field_key",
    "relative_frequency",
    "RelativeFrequencyAggregate",
    "RelevancyResult",
    "AssociationTable",
    "AssociationCell",
    "AssociationAggregate",
    "associate",
    "trend_series",
    "trend_slope",
    "TrendSeriesAggregate",
    "observed_bucket_range",
    "emerging_concepts",
    "EmergingConceptsAggregate",
    "ConceptCube",
    "ConceptCubeAggregate",
    "concept_cube",
    "CubeCell",
    "AgentKpi",
    "agent_kpis",
    "daily_booking_series",
    "leaderboard",
    "render_kpi_report",
    "outcome_percentage_table",
    "render_association",
    "render_relevancy",
]
