"""The linker's lazy ranked lists and Jaro kernel against the eager reference.

The oracle: an :class:`EntityLinker` (one lazily scored ranked list per
distinct ``(attribute name, token value)``, the ``str.find`` Jaro)
returns ``LinkResult``s at ``k`` 1 and 5, ranked lists and top-5
``top_identities`` ``==`` those of
:class:`~tests.linking.reference.EagerEntityLinker` over the reference
registry, which scores every list in full and afresh with the
cell-by-cell Jaro and merges the materialised lists.  The texts are
raw and cleaned telecom email and SMS (seeds 1-3), noised car-rental
customer turns, and a hand-made table with two phone attributes and
equal-score runs.

Staleness: a linker used across an ``insert`` or a ``build_indexes``
links as a fresh one does.

The work gate: the seed-1 churn-email study at tolerance 0, read both
from patched kernels and from the in-program ``linking.lists.*`` and
``linking.fagin.ta.*`` counters.
"""

import gc
import pickle
import random
import sys
import threading
from dataclasses import asdict

import pytest

from repro.core.usecases import churn
from repro.core.usecases.churn import run_churn_study
from repro.linking import similarity, single
from repro.linking.similarity import SimilarityRegistry
from repro.linking.single import EntityLinker
from repro.obs import MetricsRegistry, Tracer, activated
from repro.store.database import Database
from repro.store.schema import AttributeType, Schema
from repro.synth.noise import NoiseConfig, TextNoiser
from repro.util.textdist import jaro, jaro_winkler
from tests.linking import reference
from tests.linking.reference import EagerEntityLinker, reference_registry
from tests.linking.test_similarity_kernels import (
    RememberingOracle,
    callcenter_corpus,
    churn_corpus,
    customer_calls,
    message_texts,
)

SEEDS = (1, 2, 3)

#: The seed-1 churn-email study's linking work, pinned exactly.  The
#: eager reference makes 20,697 similarity evaluations and 11,278
#: Jaro-Winkler calls; TA reads the same 2,962 entries in order and
#: 8,182 by key.
SEED1_SIMILARITY_EVALUATIONS = 6_113
SEED1_CANDIDATE_QUERIES = 398
SEED1_CANDIDATE_IDS = 19_896
SEED1_JARO_WINKLER_CALLS = 4_280
SEED1_LISTS_SCORED = 400
SEED1_LISTS_REUSED = 210
SEED1_LIST_ENTRIES = 20_696
SEED1_LIST_CERTIFIED = 833
SEED1_TA_MERGES = 181
SEED1_TA_SEQUENTIAL = 2_962
SEED1_TA_RANDOM = 8_182


def churn_settings():
    """The churn study's linker settings (``build_churn_stages``)."""
    return dict(
        min_score=0.8, weights={"phone": 4.0}, candidate_limit=50,
        confirm={"phone": 0.85},
    )


def assert_links_like_reference(linker, eager, texts, k=5):
    """Every read of ``linker`` ``==`` the eager reference's, per text.

    Each text is read four ways, so the later reads come from the
    memo the first one filled.
    """
    for text in texts:
        assert linker.link(text, k=1) == eager.link(text, k=1), text
        assert linker.link(text, k=k) == eager.link(text, k=k), text
        assert linker.ranked_lists(text) == eager.ranked_lists(text), text
        assert linker.top_identities(text, n=5) == eager.top_identities(
            text, n=5
        ), text


def hand_made_database():
    """Four customers: twin names, phones shared across two attributes.

    A phone of one customer's home line is another's mobile, so a memo
    keyed without the attribute name hands one attribute's list to the
    other.  The twins tie on every name list.
    """
    database = Database()
    customers = database.create_table(
        "customers",
        Schema.build(
            ("name", AttributeType.NAME, True),
            ("home_phone", AttributeType.PHONE, True),
            ("mobile_phone", AttributeType.PHONE, True),
            ("balance", AttributeType.MONEY),
        ),
    )
    customers.insert_many([
        {"name": "john smith", "home_phone": "5558675309",
         "mobile_phone": "4441239999", "balance": 275},
        {"name": "john smith", "home_phone": "4441239999",
         "mobile_phone": "5558675309", "balance": 275},
        {"name": "mary walker", "home_phone": "5551112222",
         "mobile_phone": "5558675309", "balance": 42},
        {"name": "jon smyth", "home_phone": "7770001111",
         "mobile_phone": "5551112222", "balance": 300},
    ])
    database.build_indexes()
    return database


HAND_MADE_TEXTS = [
    "my name is john smith call me on 5558675309",
    "john smith here about 275 dollars",
    "john smith here about 275 dollars",
    "mary walker 5551112222 owes 42 dollars",
    "this is jon smyth on 7770001111",
    "call 4441239999 or 5558675309",
    "smith john",
    "nothing to link here",
    "mary mary walker 5558675301",
]


@pytest.fixture(scope="module")
def telecom():
    return {seed: churn_corpus(seed) for seed in SEEDS}


@pytest.fixture(scope="module")
def oracle():
    """The reference registry, scoring each distinct triple once."""
    return RememberingOracle()


class TestEqualsEagerReference:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_telecom_messages(self, telecom, oracle, seed):
        corpus = telecom[seed]
        texts = message_texts(corpus)
        linker = churn.build_churn_stages(corpus)[1].linker
        eager = EagerEntityLinker(
            corpus.database, "customers", registry=oracle,
            **churn_settings(),
        )
        assert_links_like_reference(linker, eager, texts)
        assert sum(linker.link(text).linked for text in texts) > 0

    @pytest.mark.parametrize("seed", SEEDS)
    def test_noised_car_rental_turns(self, oracle, seed):
        database = callcenter_corpus(seed).database
        turns = [
            text
            for config in (NoiseConfig.for_sms(), NoiseConfig.for_email())
            for text, _, _ in customer_calls(
                callcenter_corpus(seed), TextNoiser(config, seed=seed)
            )
        ]
        linker = EntityLinker(database, "customers")
        eager = EagerEntityLinker(database, "customers", registry=oracle)
        assert_links_like_reference(linker, eager, turns)

    def test_hand_made_table_with_equal_scores(self):
        database = hand_made_database()
        linker = EntityLinker(database, "customers")
        eager = EagerEntityLinker(
            database, "customers", registry=reference_registry()
        )
        assert_links_like_reference(linker, eager, HAND_MADE_TEXTS)
        twins = linker.link("smith john", k=5).ranked
        assert twins[0][1] == twins[1][1]
        assert [entity_id for entity_id, _ in twins[:2]] == [0, 1]


#: A row matching "jon smyth on 7770001112" better than customer 3 does.
BETTER_MATCH = {
    "name": "jon smyth", "home_phone": "7770001112",
    "mobile_phone": "5551112222",
}


class TestStaleness:
    """A linker used across table or index changes links as a fresh one."""

    def test_insert_then_rebuild(self):
        database = hand_made_database()
        linker = EntityLinker(database, "customers")
        text = "this is jon smyth on 7770001112"
        assert linker.link(text).entity.entity_id == 3
        database.table("customers").insert(BETTER_MATCH)
        database.build_indexes()
        result = linker.link(text, k=5)
        assert result == EntityLinker(database, "customers").link(text, k=5)
        assert result.entity.entity_id == 4

    def test_link_between_insert_and_rebuild(self):
        # The table length stands still across the rebuild, so only the
        # index generation tells the memo that its lists went stale.
        database = hand_made_database()
        linker = EntityLinker(database, "customers")
        text = "this is jon smyth on 7770001112"
        database.table("customers").insert(BETTER_MATCH)
        assert linker.link(text).entity.entity_id == 3
        database.build_indexes()
        result = linker.link(text, k=5)
        assert result == EntityLinker(database, "customers").link(text, k=5)
        assert result.entity.entity_id == 4

    def test_unindexed_money_scan_sees_new_rows(self):
        database = hand_made_database()
        linker = EntityLinker(database, "customers")
        text = "i was charged 999 dollars"
        assert linker.link(text).entity.entity_id == 3
        database.table("customers").insert({"balance": 999})
        result = linker.link(text, k=5)
        assert result == EntityLinker(database, "customers").link(text, k=5)
        assert (result.entity.entity_id, result.score) == (4, 1.0)


def lists_counters(run):
    """The ``linking.lists.*`` counters ``run()`` adds."""
    metrics = MetricsRegistry()
    with activated(Tracer(), metrics):
        run()
    counters = metrics.snapshot()["counters"]
    return {
        name: counters.get(f"linking.lists.{name}", 0)
        for name in ("scored", "reused", "entries", "certified")
    }


class TestMemoScope:
    def test_one_memo_of_lazy_lists_without_a_cycle(self):
        # A list pointing back at its linker would keep every linker
        # and its memo alive until the cycle collector runs.
        linker = EntityLinker(hand_made_database(), "customers")
        for text in HAND_MADE_TEXTS:
            linker.link(text, k=5)
        memo = linker._ranked[1]
        assert memo
        for ranked in memo.values():
            assert isinstance(ranked, single.LazyRankedList)
            assert not any(
                isinstance(referent, EntityLinker)
                for referent in gc.get_referents(ranked)
            )

    def test_pickled_linker_carries_no_memo(self):
        linker = EntityLinker(hand_made_database(), "customers")
        before = pickle.dumps(linker)
        results = [linker.link(text, k=5) for text in HAND_MADE_TEXTS]
        assert pickle.dumps(linker) == before
        copy = pickle.loads(before)
        counters = lists_counters(
            lambda: [copy.link(text, k=5) for text in HAND_MADE_TEXTS]
        )
        assert counters["scored"] > 0
        assert [copy.link(text, k=5) for text in HAND_MADE_TEXTS] == results

    def test_linkers_do_not_share_a_memo(self):
        database = hand_made_database()
        text = HAND_MADE_TEXTS[0]
        first = lists_counters(
            lambda: EntityLinker(database, "customers").link(text)
        )
        second = lists_counters(
            lambda: EntityLinker(database, "customers").link(text)
        )
        assert first == second
        assert first["reused"] == 0 < first["scored"]

    def test_memo_starts_over_past_its_limit(self):
        linker = EntityLinker(hand_made_database(), "customers")
        text = HAND_MADE_TEXTS[0]  # a name and two phone lists
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(single, "RANKED_LIST_MEMO_LIMIT", 2)
            first = lists_counters(lambda: linker.link(text))
            again = lists_counters(lambda: linker.link(text))
        assert first["scored"] == again["scored"] == 3
        assert first["reused"] == again["reused"] == 0
        assert lists_counters(lambda: linker.link(text))["reused"] == 3


class TestSharedAcrossThreads:
    def test_threads_sharing_a_linker_link_like_the_reference(
        self, telecom, oracle
    ):
        # The lists fill in scores and sort their tails as they are
        # read, so threads race each other on the same lists.
        corpus = telecom[1]
        texts = message_texts(corpus)[:60]
        eager = EagerEntityLinker(
            corpus.database, "customers", registry=oracle,
            **churn_settings(),
        )
        expected = [eager.link(text, k=5) for text in texts]
        linker = churn.build_churn_stages(corpus)[1].linker
        failures = []

        def link(offset):
            for step in range(len(texts)):
                index = (offset + step) % len(texts)
                if linker.link(texts[index], k=5) != expected[index]:
                    failures.append(index)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=link, args=(7 * n,))
                for n in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(switch)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []


class TestJaro:
    def test_random_pairs_equal_the_window_scan(self):
        rng = random.Random(28)
        for _ in range(40_000):
            alphabet = rng.choice(["ab", "abc", "abcdef", "aeinrst"])
            a = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 14)))
            b = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 14)))
            assert jaro(a, b) == reference.jaro(a, b), (a, b)
            assert jaro_winkler(a, b) == reference.jaro_winkler(a, b), (a, b)

    def test_name_pairs_equal_the_window_scan(self, telecom):
        names = sorted({
            word
            for entity in telecom[1].database.table("customers")
            for word in entity["name"].split()
        })
        for a in names:
            for b in names[:40]:
                assert jaro(a, b) == reference.jaro(a, b), (a, b)


def counting(patch, owner, name, tally, size=False):
    """Count calls of ``owner.name`` (or the items they return)."""
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        result = original(*args, **kwargs)
        tally.append(len(result) if size else 1)
        return result

    patch.setattr(owner, name, counted)


class TestWorkGate:
    def test_seed1_churn_email_study(self, telecom):
        corpus = telecom[1]
        with pytest.MonkeyPatch.context() as patch:
            requested = []
            counting(patch, EntityLinker, "_candidates_for", requested)
            patch.setattr(churn, "EntityLinker", EagerEntityLinker)
            expected = run_churn_study(corpus, channel="email")

        with pytest.MonkeyPatch.context() as patch:
            evaluations, queries, ids, lists, entries, words = (
                [], [], [], [], [], []
            )
            counting(patch, SimilarityRegistry, "similarity", evaluations)
            counting(patch, Database, "candidates", queries)
            counting(patch, Database, "candidates", ids, size=True)
            counting(patch, EntityLinker, "_candidates_for", lists)
            counting(patch, EntityLinker, "_candidates_for", entries,
                     size=True)
            counting(patch, similarity, "jaro_winkler", words)
            metrics = MetricsRegistry()
            with activated(Tracer(), metrics):
                result = run_churn_study(corpus, channel="email")

        assert len(evaluations) == SEED1_SIMILARITY_EVALUATIONS
        assert len(queries) == SEED1_CANDIDATE_QUERIES
        assert sum(ids) == SEED1_CANDIDATE_IDS
        assert len(words) == SEED1_JARO_WINKLER_CALLS
        assert len(lists) == SEED1_LISTS_SCORED
        assert sum(entries) == SEED1_LIST_ENTRIES
        assert len(requested) == SEED1_LISTS_SCORED + SEED1_LISTS_REUSED
        counters = metrics.snapshot()["counters"]
        assert counters["linking.lists.scored"] == len(lists)
        assert counters["linking.lists.reused"] == len(requested) - len(lists)
        assert counters["linking.lists.entries"] == sum(entries)
        assert counters["linking.lists.certified"] == SEED1_LIST_CERTIFIED
        assert (
            counters["linking.fagin.ta.merges"],
            counters["linking.fagin.ta.sequential_accesses"],
            counters["linking.fagin.ta.random_accesses"],
        ) == (SEED1_TA_MERGES, SEED1_TA_SEQUENTIAL, SEED1_TA_RANDOM)
        assert asdict(result.message_report) == asdict(
            expected.message_report
        )
        assert result.flagged_customers == expected.flagged_customers
        assert result.linked_messages == expected.linked_messages
