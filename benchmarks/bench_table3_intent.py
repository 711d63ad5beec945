"""E4 — Paper Table III: customer intention vs pick-up result.

    Strong start:  63% reservation / 37% unbooked
    Weak start:    32% reservation / 68% unbooked

The bench runs the BIVoC pipeline on the shared corpus (reference
transcripts — the calibrated headline path) and prints the measured
shares; the ASR-noise sensitivity lives in bench_ablation_asr_noise.
Its payload also carries the pipeline's document funnel
(``pipeline.total_in`` / ``total_out``), gated at tolerance 0.
"""

import pytest

from repro.mining.reports import outcome_percentage_table

PAPER = {"strong": 0.63, "weak": 0.32}


def test_table3_intent_vs_outcome(benchmark, car_corpus, smoke):
    from benchjson import emit

    from repro.core import BIVoCConfig, run_insight_analysis

    study = benchmark.pedantic(
        lambda: run_insight_analysis(
            car_corpus, BIVoCConfig(use_asr=False, link_mode="content")
        ),
        rounds=1,
        iterations=1,
    )

    print()
    print(
        outcome_percentage_table(
            study.intent_table,
            title="Table III — customer intentions vs pick-up results",
            col_order=["reservation", "unbooked"],
        )
    )
    shares = study.intent_shares()
    strong = shares["strong"]["reservation"]
    weak = shares["weak"]["reservation"]
    print(
        f"\npaper: strong 63%/37%, weak 32%/68%; "
        f"measured: strong {strong:.1%}, weak {weak:.1%}"
    )

    emit(
        "intent",
        {
            "bench": "intent",
            "smoke": smoke,
            "strong_reservation": strong,
            "weak_reservation": weak,
            "gap": strong - weak,
            "intent_detected": study.analysis.stats["intent_detected"],
            "total": study.analysis.stats["total"],
            "pipeline": {
                "total_in": study.analysis.stage_report.total_in,
                "total_out": study.analysis.stage_report.total_out,
            },
        },
    )

    tolerance = 0.12 if smoke else 0.06  # smaller corpus, wider draw
    assert strong == pytest.approx(PAPER["strong"], abs=tolerance)
    assert weak == pytest.approx(PAPER["weak"], abs=tolerance)
    assert strong > weak + (0.12 if smoke else 0.2)  # the headline gap
