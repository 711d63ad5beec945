"""Indexing, statistics and reporting (paper Section IV-D).

"The dataset is indexed based on the annotations (semantic
classifications).  This allows quick reporting to be done on datasets
containing even millions of documents."

* :class:`ConceptIndex` — inverted index over concept keys, mixing
  unstructured concepts and structured fields.
* :mod:`analytic` — how every analytic below runs: one counting
  function, then one result constructor.
* :mod:`relfreq` — relevancy analysis with relative frequency.
* :mod:`assoc2d` — two-dimensional association analysis with the
  interval-estimated lift of Eqn 4, plus drill-down (Fig 4).
* :mod:`trends` — concept occurrence over time.
* :mod:`olap` — an n-dimensional concept cube with slice, dice and
  roll-up.
* :mod:`reports` — text renderings of the analysis tables.
"""

from repro.mining.index import ConceptIndex, concept_key, field_key
from repro.mining.analytic import Analytic, compute
from repro.mining.relfreq import (
    RelevancyResult,
    relative_frequency,
)
from repro.mining.assoc2d import (
    AssociationCell,
    AssociationTable,
    associate,
)
from repro.mining.trends import (
    emerging_concepts,
    observed_bucket_range,
    trend_series,
    trend_slope,
)
from repro.mining.olap import (
    ConceptCube,
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
    "Analytic",
    "compute",
    "concept_key",
    "field_key",
    "relative_frequency",
    "RelevancyResult",
    "AssociationTable",
    "AssociationCell",
    "associate",
    "trend_series",
    "trend_slope",
    "observed_bucket_range",
    "emerging_concepts",
    "ConceptCube",
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
