"""Candidate ranking does not depend on the interpreter's hash salt.

Each run below is a fresh interpreter under ``PYTHONHASHSEED`` 0, 1 or
2.  It links the cleaned churn emails of seeds 1-3 through the churn
study's :class:`EntityLinker` with ``k=5``, takes the two-pass ASR
identities (:meth:`EntityLinker.top_identities`) of every noised
car-rental customer turn, links every clean and noised turn to its call
record through :class:`CallRecordLinker`, and counts the linking work:
similarity evaluations, candidates returned, and call-record links
certified and candidates scored.  All three runs must print the same
thing.  Candidate indexes used to iterate ``set``s of string
grams, so count ties in ``Counter.most_common`` fell in salt order and
entities dropped in and out of capped candidate lists.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
HASH_SEEDS = ("0", "1", "2")
SEEDS = (1, 2, 3)


def probe():
    """Everything the salt could move, as one JSON-ready dict."""
    from repro.cleaning import CleaningPipeline
    from repro.core.pipeline import CallRecordLinker
    from repro.core.usecases.churn import (
        build_churn_stages,
        link_evidence_text,
    )
    from repro.linking.similarity import SimilarityRegistry
    from repro.linking.single import EntityLinker
    from repro.obs import MetricsRegistry, Tracer, activated
    from repro.store.database import Database
    from repro.synth.carrental import CarRentalConfig, generate_car_rental
    from repro.synth.noise import NoiseConfig, TextNoiser
    from repro.synth.telecom import TelecomConfig, generate_telecom

    work = {"similarity": 0, "candidates": 0}
    similarity = SimilarityRegistry.similarity
    candidates = Database.candidates

    def counting_similarity(self, *args):
        work["similarity"] += 1
        return similarity(self, *args)

    def counting_candidates(self, *args, **kwargs):
        found = candidates(self, *args, **kwargs)
        work["candidates"] += len(found)
        return found

    SimilarityRegistry.similarity = counting_similarity
    Database.candidates = counting_candidates

    ranked = []
    identities = []
    call_records = []
    call_record_metrics = MetricsRegistry()
    for seed in SEEDS:
        telecom = generate_telecom(TelecomConfig(
            scale=0.004, n_customers=400, email_churner_fraction=0.2,
            seed=seed,
        ))
        linker = build_churn_stages(telecom)[1].linker
        pipeline = CleaningPipeline(spell_correct=False)
        for message in telecom.emails:
            cleaned = pipeline.clean(message.raw_text, channel="email")
            if cleaned.discarded:
                continue
            evidence = link_evidence_text(
                "email", cleaned.text, message.raw_text
            )
            ranked.append(linker.link(evidence, k=5).ranked)

        car_rental = generate_car_rental(CarRentalConfig(
            n_agents=12, n_days=2, calls_per_agent_per_day=4,
            n_customers=160, seed=seed,
        ))
        identity_linker = EntityLinker(car_rental.database, "customers")
        record_linker = CallRecordLinker(car_rental.database)
        noiser = TextNoiser(NoiseConfig.for_sms(), seed=seed)
        for transcript in car_rental.transcripts:
            customer_text = " ".join(
                text for speaker, text in transcript.turns
                if speaker == "customer"
            )
            first_pass = noiser.apply(customer_text)
            identities.append([
                entity.entity_id
                for entity in identity_linker.top_identities(first_pass, n=5)
            ])
            with activated(Tracer(), call_record_metrics):
                for text in (customer_text, first_pass):
                    record = record_linker.link(
                        text, transcript.agent_name, transcript.day
                    )
                    call_records.append(
                        None if record is None else record.entity_id
                    )
    counters = call_record_metrics.snapshot()["counters"]
    work["call_record"] = {
        name: counters.get(f"linking.call_record.{name}", 0)
        for name in ("certified", "scored")
    }
    return {
        "ranked": ranked, "identities": identities,
        "call_records": call_records, "work": work,
    }


def probe_under(hash_seed):
    """:func:`probe` run in a fresh interpreter under ``hash_seed``."""
    env = {
        **os.environ,
        "PYTHONHASHSEED": hash_seed,
        "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT)]),
    }
    code = (
        "import json; from tests.linking.test_hashseed_determinism "
        "import probe; print(json.dumps(probe()))"
    )
    return subprocess.Popen(
        [sys.executable, "-c", code], cwd=ROOT, env=env,
        stdout=subprocess.PIPE, text=True,
    )


@pytest.fixture(scope="module")
def probes():
    runs = {seed: probe_under(seed) for seed in HASH_SEEDS}
    results = {}
    for seed, run in runs.items():
        output, _ = run.communicate(timeout=600)
        assert run.returncode == 0
        results[seed] = json.loads(output)
    return results


def test_probe_covers_the_linkers(probes):
    result = probes["0"]
    assert len(result["ranked"]) > 500
    assert sum(len(ranked) == 5 for ranked in result["ranked"]) > 100
    assert len(result["identities"]) == 3 * 96
    assert sum(len(ids) == 5 for ids in result["identities"]) > 200
    assert result["work"]["similarity"] > 0
    assert result["work"]["candidates"] > 0
    assert len(result["call_records"]) == 2 * 3 * 96
    assert result["work"]["call_record"]["certified"] > 0
    assert result["work"]["call_record"]["scored"] > 0


@pytest.mark.parametrize("hash_seed", HASH_SEEDS[1:])
def test_top5_lists_equal_across_hash_seeds(probes, hash_seed):
    assert probes[hash_seed]["ranked"] == probes["0"]["ranked"]


@pytest.mark.parametrize("hash_seed", HASH_SEEDS[1:])
def test_two_pass_identities_equal_across_hash_seeds(probes, hash_seed):
    assert probes[hash_seed]["identities"] == probes["0"]["identities"]


@pytest.mark.parametrize("hash_seed", HASH_SEEDS[1:])
def test_call_records_equal_across_hash_seeds(probes, hash_seed):
    assert probes[hash_seed]["call_records"] == probes["0"]["call_records"]


@pytest.mark.parametrize("hash_seed", HASH_SEEDS[1:])
def test_linking_work_equal_across_hash_seeds(probes, hash_seed):
    assert probes[hash_seed]["work"] == probes["0"]["work"]
