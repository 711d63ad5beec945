"""The association finalize against the per-cell reference, and its work.

The oracle: :func:`associate` returns an :class:`AssociationTable`
``==`` the per-cell, unmemoised scorer of :mod:`tests.mining.reference`
on the tables the real engines produce.  Those are the four tables of
the car-rental insight study and the churn-driver x channel table of
the telecom stream graph, seeds 1-3, under both interval methods, at
confidences 0.8, 0.9, 0.95 and 0.99.  The cases include zero-count
cells, a full-count cell (count == document total) and an empty
marginal, and the test checks that they occur.

The work gate: one :func:`associate` asks scipy for the normal
quantile at most once per distinct confidence, and evaluates exactly
``cells + rows + cols`` proportion intervals, which the in-program
counter ``mining.associate.intervals`` records.  On the seed-1
call-center study that is 114 intervals, where the reference
evaluates 252.
"""

import pytest
from scipy import stats

from repro.cleaning.stage import CleaningStage
from repro.core import BIVoCConfig, run_insight_analysis
from repro.core.usecases.churn import StreamAnnotateStage, churn_driver_engine
from repro.engine import Document, PipelineRunner
from repro.mining import assoc2d
from repro.mining.assoc2d import association_table, associate
from repro.mining.stage import ConceptIndexStage
from repro.obs import MetricsRegistry, Tracer, activated
from repro.synth.carrental import CarRentalConfig, generate_car_rental
from repro.synth.telecom import TelecomConfig, generate_telecom
from repro.util import intervals
from tests.mining.reference import reference_associate

SEEDS = (1, 2, 3)
METHODS = ("wilson", "normal")
CONFIDENCES = (0.8, 0.9, 0.95, 0.99)

#: Interval evaluations of one seed-1 call-center study: 84 cells,
#: 18 rows and 12 columns over its four tables.
SEED1_CALLCENTER_INTERVALS = 114

#: The same study under the reference: three intervals per cell.
SEED1_REFERENCE_INTERVALS = 252

CALLCENTER_CONFIG = BIVoCConfig(use_asr=False, link_mode="content")
OUTCOMES = ("reservation", "unbooked")
PLACE = ("concept", "place")
DRIVERS = ("concept", "churn driver")
CHANNEL = ("field", "channel")


def callcenter_study(seed):
    """The callcenter benchmark's study: 96 calls, 160 customers."""
    corpus = generate_car_rental(CarRentalConfig(
        n_agents=12, n_days=2, calls_per_agent_per_day=4,
        n_customers=160, seed=seed,
    ))
    return run_insight_analysis(corpus, CALLCENTER_CONFIG)


def telecom_index(messages):
    """The telecom stream graph's index, built in one batch run."""
    documents = [
        Document(
            doc_id=message.message_id,
            channel=message.channel,
            text=message.raw_text,
            artifacts={"index_fields": {"channel": message.channel}},
        )
        for message in messages
    ]
    stages = [
        CleaningStage(),
        StreamAnnotateStage(churn_driver_engine()),
        ConceptIndexStage(),
    ]
    with PipelineRunner(stages) as runner:
        runner.run(documents)
    return stages[-1].index


def callcenter_cases(seed):
    """``(index, associate kwargs)`` of the study's tables, and one more.

    The extra case adds a place no call mentions: an empty marginal.
    """
    index = callcenter_study(seed).analysis.index
    places = sorted(index.values_of_dimension(PLACE))
    return [
        (index, {"row_dimension": ("field", "detected_intent"),
                 "col_dimension": ("field", "call_type"),
                 "col_values": OUTCOMES}),
        (index, {"row_dimension": ("field", "agent_value_selling"),
                 "col_dimension": ("field", "call_type"),
                 "col_values": OUTCOMES}),
        (index, {"row_dimension": ("field", "agent_discount"),
                 "col_dimension": ("field", "call_type"),
                 "col_values": OUTCOMES}),
        (index, {"row_dimension": PLACE,
                 "col_dimension": ("concept", "vehicle type")}),
        (index, {"row_dimension": PLACE,
                 "col_dimension": ("concept", "vehicle type"),
                 "row_values": places + ["nowhere"]}),
    ]


def telecom_cases(seed):
    """The stream's churn-driver x channel table, and the email channel.

    Over the emails alone, channel x channel has a full-count cell and
    the ``sms`` column is an empty marginal.
    """
    corpus = generate_telecom(TelecomConfig(
        scale=0.002, n_customers=300, seed=seed,
    ))
    everything = telecom_index(corpus.messages)
    emails = telecom_index(corpus.emails)
    return [
        (everything, {"row_dimension": DRIVERS, "col_dimension": CHANNEL}),
        (emails, {"row_dimension": DRIVERS, "col_dimension": CHANNEL,
                  "col_values": ("email", "sms")}),
        (emails, {"row_dimension": CHANNEL, "col_dimension": CHANNEL}),
    ]


@pytest.fixture(scope="module", params=SEEDS, ids=lambda s: f"seed{s}")
def cases(request):
    """Every oracle case of one seed."""
    return callcenter_cases(request.param) + telecom_cases(request.param)


class Counting:
    """Wrap a callable and count its calls."""

    def __init__(self, wrapped):
        self.wrapped = wrapped
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.wrapped(*args, **kwargs)


@pytest.fixture
def work(monkeypatch):
    """Counts scipy quantile calls and finalize's interval evaluations.

    Starts from a cold quantile cache so every confidence misses once.
    """
    intervals._z.cache_clear()
    ppf = Counting(stats.norm.ppf)
    interval = Counting(assoc2d.proportion_interval)
    monkeypatch.setattr(stats.norm, "ppf", ppf)
    monkeypatch.setattr(assoc2d, "proportion_interval", interval)
    yield ppf, interval
    intervals._z.cache_clear()


def table_size(table):
    """``cells + rows + cols``: the intervals a finalize must evaluate."""
    rows, cols = len(table.row_values), len(table.col_values)
    return rows * cols + rows + cols


class TestOracle:
    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("confidence", CONFIDENCES)
    def test_table_equals_per_cell_reference(
        self, cases, confidence, method
    ):
        for index, kwargs in cases:
            expected = reference_associate(
                index, confidence=confidence, interval_method=method,
                **kwargs,
            )
            assert associate(
                index, confidence=confidence, interval_method=method,
                **kwargs,
            ) == expected

    def test_cases_reach_the_edges(self, cases):
        """Zero-count and full-count cells and an empty marginal occur."""
        cells = [
            cell
            for index, kwargs in cases
            for cell in associate(index, **kwargs).cells()
        ]
        assert any(cell.count == 0 for cell in cells)
        assert any(cell.count == cell.grand_total for cell in cells)
        assert any(cell.row_total == 0 for cell in cells)
        assert any(cell.col_total == 0 for cell in cells)

    def test_study_tables_equal_reference(self):
        study = callcenter_study(1)
        index = study.analysis.index
        tables = [
            (study.intent_table, ("field", "detected_intent")),
            (study.utterance_tables["value_selling"],
             ("field", "agent_value_selling")),
            (study.utterance_tables["discount"],
             ("field", "agent_discount")),
        ]
        for table, rows in tables:
            assert table == reference_associate(
                index, rows, ("field", "call_type"), col_values=OUTCOMES
            )
        assert study.location_vehicle_table == reference_associate(
            index, PLACE, ("concept", "vehicle type")
        )


class TestOptions:
    """Bad options and counts raise before anything is counted.

    ``index=None`` stands in for the index: an option check that ran
    after counting would fail on it with ``AttributeError`` instead.
    """

    @pytest.mark.parametrize("confidence", [0, 0.0, 1, 1.0, 1.5, -0.1])
    def test_confidence_outside_unit_interval_rejected(self, confidence):
        with pytest.raises(ValueError, match="confidence"):
            associate(None, PLACE, CHANNEL, confidence=confidence)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="bayes"):
            associate(None, PLACE, CHANNEL, interval_method="bayes")

    def test_repeated_value_rejected(self):
        with pytest.raises(ValueError, match="twice"):
            associate(None, PLACE, CHANNEL, col_values=["sms", "sms"])

    def test_cell_above_its_marginal_rejected(self):
        counts = (10, {"boston": 2}, {"email": 5}, {("boston", "email"): 3})
        with pytest.raises(ValueError, match="cannot exceed"):
            association_table(
                counts, None, PLACE, CHANNEL, 0.95, "wilson"
            )


class TestWorkGate:
    def test_one_quantile_per_confidence_per_associate(self, cases, work):
        ppf, interval = work
        index, kwargs = cases[3]  # place x vehicle type
        for confidence in CONFIDENCES:
            for method in METHODS:
                intervals._z.cache_clear()
                before_ppf, before = ppf.calls, interval.calls
                table = associate(
                    index, confidence=confidence, interval_method=method,
                    **kwargs,
                )
                assert ppf.calls - before_ppf <= 1
                assert interval.calls - before == table_size(table)

    def test_seed1_callcenter_study(self, work):
        ppf, interval = work
        metrics = MetricsRegistry()
        with activated(Tracer(), metrics):
            study = callcenter_study(1)
        tables = [
            study.intent_table,
            study.location_vehicle_table,
            *study.utterance_tables.values(),
        ]
        assert sum(map(table_size, tables)) == SEED1_CALLCENTER_INTERVALS
        assert interval.calls == SEED1_CALLCENTER_INTERVALS
        counters = metrics.snapshot()["counters"]
        assert (
            counters["mining.associate.intervals"]
            == SEED1_CALLCENTER_INTERVALS
        )
        assert ppf.calls == 1  # every table is scored at 0.95
        cells = sum(len(table.cells()) for table in tables)
        assert 3 * cells == SEED1_REFERENCE_INTERVALS
