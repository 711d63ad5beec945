"""Use case 1: agent productivity improvement (paper Section V).

Two drivers:

* :func:`run_insight_analysis` — the analysis half: push a corpus
  through the BIVoC pipeline and compute the association tables of the
  paper (Table III: customer intention x outcome; Table IV: agent
  utterance x outcome; Table II: location x vehicle type).
* :func:`run_training_experiment` — the intervention half (Section
  V-C): train 20 of 90 agents on the extracted insights (modelled as a
  calibrated shift of their utterance behaviour), run two months of
  calls, and t-test the booking ratios of the trained group against the
  control group.
"""

from dataclasses import dataclass, replace

from repro.core.config import BIVoCConfig
from repro.core.pipeline import BIVoCSystem
from repro.mining.assoc2d import associate
from repro.synth.carrental import (
    CarRentalConfig,
    generate_car_rental,
    solve_training_scale,
)
from repro.util.stats import ttest_independent


@dataclass
class AgentProductivityStudy:
    """Association tables extracted by the pipeline."""

    analysis: object  # CallCenterAnalysis
    intent_table: object  # Table III
    utterance_tables: dict  # Table IV rows: category -> AssociationTable
    location_vehicle_table: object  # Table II

    def intent_shares(self):
        """{intent: {outcome: share}} — Table III's percentages."""
        return self.intent_table.row_share_matrix()

    def utterance_shares(self):
        """{utterance_flag_value: ...} per agent-utterance dimension."""
        return {
            name: table.row_share_matrix()
            for name, table in self.utterance_tables.items()
        }


_OUTCOMES = ["reservation", "unbooked"]


def run_insight_analysis(corpus, config=None):
    """Run the BIVoC pipeline and build the paper's tables.

    The engine runs every call inline: the one costly stage, ASR, is
    impure and never fans out, and a process pool costs more than the
    rest of the graph saves.
    """
    config = config or BIVoCConfig()
    analysis = BIVoCSystem(config=config).process_call_center(corpus)
    index = analysis.index
    intent_table = associate(
        index,
        ("field", "detected_intent"),
        ("field", "call_type"),
        col_values=_OUTCOMES,
    )
    utterance_tables = {
        "value_selling": associate(
            index,
            ("field", "agent_value_selling"),
            ("field", "call_type"),
            col_values=_OUTCOMES,
        ),
        "discount": associate(
            index,
            ("field", "agent_discount"),
            ("field", "call_type"),
            col_values=_OUTCOMES,
        ),
    }
    location_vehicle_table = associate(
        index, ("concept", "place"), ("concept", "vehicle type"),
    )
    return AgentProductivityStudy(
        analysis=analysis,
        intent_table=intent_table,
        utterance_tables=utterance_tables,
        location_vehicle_table=location_vehicle_table,
    )


@dataclass
class TrainingOutcome:
    """Result of the Section V-C controlled training experiment."""

    trained_ratios: list  # per trained-agent booking ratios (post period)
    control_ratios: list
    pre_trained_ratios: list  # same groups before training
    pre_control_ratios: list
    ttest: object  # TTestResult on post-period per-agent ratios
    pre_ttest: object

    @property
    def improvement(self):
        """Mean trained - mean control booking ratio (post period)."""
        return self.ttest.mean_difference

    @property
    def pre_gap(self):
        """Group gap before training (should be ~0: groups comparable)."""
        return self.pre_ttest.mean_difference


@dataclass(frozen=True)
class AgentConduct:
    """Per-agent utterance behaviour mined from VoC, next to outcomes.

    The commercial tools of paper §II monitor agents from audio
    ("measuring and monitoring agent performance"); BIVoC's version
    joins the mined conduct with the warehouse outcome, which is what
    turns monitoring into the §V insight ("good agents in general used
    value selling phrases more often").
    """

    agent_name: str
    calls: int
    value_selling_rate: float
    discount_rate: float
    booking_ratio: float


def mine_agent_conduct(analysis, database):
    """Per-agent conduct report from a pipeline analysis.

    Uses the *mined* utterance flags (annotation over transcripts), not
    generator truth, and the warehouse booking ratio.
    """
    from collections import defaultdict

    per_agent = defaultdict(lambda: {"calls": 0, "vs": 0, "disc": 0})
    for call in analysis.calls:
        record = call.linked_record
        if record is None:
            continue
        bucket = per_agent[record["agent_name"]]
        bucket["calls"] += 1
        bucket["vs"] += call.value_selling
        bucket["disc"] += call.discount
    conduct = []
    for agent_name in sorted(per_agent):
        bucket = per_agent[agent_name]
        conduct.append(
            AgentConduct(
                agent_name=agent_name,
                calls=bucket["calls"],
                value_selling_rate=bucket["vs"] / bucket["calls"],
                discount_rate=bucket["disc"] / bucket["calls"],
                booking_ratio=BIVoCSystem.booking_ratio(
                    database, agent_name=agent_name
                ),
            )
        )
    return conduct


def conduct_outcome_correlation(conduct):
    """Pearson correlation of value-selling rate with booking ratio.

    The §V-B finding ("good agents ... used value selling phrases more
    often resulting in more bookings") as a number.
    """
    import math

    xs = [c.value_selling_rate for c in conduct]
    ys = [c.booking_ratio for c in conduct]
    n = len(xs)
    if n < 3:
        raise ValueError("need at least three agents")
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    cov = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    var_x = sum((x - mean_x) ** 2 for x in xs)
    var_y = sum((y - mean_y) ** 2 for y in ys)
    if var_x == 0 or var_y == 0:
        return 0.0
    return cov / math.sqrt(var_x * var_y)


def _agent_ratios(database, agent_names):
    return [
        BIVoCSystem.booking_ratio(database, agent_name=name)
        for name in agent_names
    ]


def run_training_experiment(base_config=None, n_trained=20,
                            target_delta=0.03, seed_post_offset=100):
    """Run the pre/post controlled experiment of Section V-C.

    The training effect's magnitude is solved from the calibrated
    outcome model so that the *expected* booking-rate lift is
    ``target_delta`` (the paper's 3%); the experiment then measures the
    realised lift and its t-test over per-agent booking ratios.
    """
    base_config = base_config or CarRentalConfig()
    trained_ids = frozenset(range(n_trained))

    # Pre period: nobody trained.
    pre_corpus = generate_car_rental(base_config)
    model = pre_corpus.outcome_model
    scale = solve_training_scale(
        model, base_config.behaviour, base_config.training,
        target_delta=target_delta,
    )
    post_config = replace(
        base_config,
        seed=base_config.seed + seed_post_offset,
        trained_agent_ids=trained_ids,
        training=base_config.training.scaled(scale),
    )
    post_corpus = generate_car_rental(
        post_config, outcome_model=model, agents=pre_corpus.agents
    )

    trained_names = [
        agent.name
        for agent in post_corpus.agents
        if agent.agent_id in trained_ids
    ]
    control_names = [
        agent.name
        for agent in post_corpus.agents
        if agent.agent_id not in trained_ids
    ]
    trained_post = _agent_ratios(post_corpus.database, trained_names)
    control_post = _agent_ratios(post_corpus.database, control_names)
    trained_pre = _agent_ratios(pre_corpus.database, trained_names)
    control_pre = _agent_ratios(pre_corpus.database, control_names)
    return TrainingOutcome(
        trained_ratios=trained_post,
        control_ratios=control_post,
        pre_trained_ratios=trained_pre,
        pre_control_ratios=control_pre,
        ttest=ttest_independent(trained_post, control_post),
        pre_ttest=ttest_independent(trained_pre, control_pre),
    ), post_corpus
