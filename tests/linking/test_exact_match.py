"""The registry's exact-match tests against the measures they certify.

The oracle: for the name and digit measures, ``exact_test(type,
token)(value)`` is true exactly when ``similarity(type, token, value)
== 1.0``, and exactly when the reference measure of
:mod:`tests.linking.reference` scores 1.0.  The pairs are every
``(token, candidate value)`` the churn linker's lists hold over raw and
cleaned telecom email and SMS, seeds 1-3, plus random names and digit
strings and hand-picked edge cases.  The date test is true exactly
when ``date_similarity`` scores 1.0, over ISO, non-ISO and malformed
strings, non-string values, ``None`` and every ``(token, value)`` the
car-rental linker's date lists hold.  Every other measure, and every
measure plugged in with ``register``, has no test.

Dates move no churn-email work: the telecom schema has no DATE
attribute, so the gates pinned in ``test_ranked_list_memo.py`` and
``test_similarity_kernels.py`` (6,113 evaluations, 4,280 Jaro-Winkler
calls) hold as they were.  Car-rental two-pass identities are ``==``
the eager reference's although date lists now have an exact head.
"""

import datetime
import random

import pytest

from repro.linking.similarity import (
    date_similarity,
    default_registry,
    digits_similarity,
    name_similarity,
    numeric_similarity,
)
from repro.linking.single import EntityLinker
from repro.obs import MetricsRegistry, Tracer, activated
from repro.store.schema import AttributeType
from repro.synth.noise import NoiseConfig, TextNoiser
from tests.linking import reference
from tests.linking.reference import EagerEntityLinker, reference_registry
from tests.linking.test_similarity_kernels import (
    RememberingOracle,
    callcenter_corpus,
    churn_corpus,
    churn_linker,
    customer_calls,
    message_texts,
)

SEEDS = (1, 2, 3)

#: The measure and reference measure each exact-match test certifies.
CERTIFIED = {
    AttributeType.NAME: (name_similarity, reference.name_similarity),
    AttributeType.PHONE: (digits_similarity, reference.digits_similarity),
    AttributeType.CARD: (digits_similarity, reference.digits_similarity),
}


def assert_certifies(registry, attr_type, token, value):
    """The test, the registry and the reference agree on 1.0."""
    exact = registry.similarity(attr_type, token, value) == 1.0
    assert registry.exact_test(attr_type, token)(value) is exact, (
        attr_type, token, value,
    )
    if value is not None:
        measure, reference_measure = CERTIFIED[attr_type]
        assert (measure(token, value) == 1.0) is exact
        assert (reference_measure(token, value) == 1.0) is exact


def linker_pairs(seed):
    """Every ``(type, token, value)`` a churn linker's lists hold."""
    corpus = churn_corpus(seed)
    linker = churn_linker(corpus)
    pairs = set()
    for text in message_texts(corpus):
        for token in linker.annotators.annotate(text):
            if token.attr_type not in CERTIFIED:
                continue
            for attribute in linker.table.schema.attributes_of_type(
                token.attr_type
            ):
                for entity in linker._candidates_for(attribute, token):
                    pairs.add((
                        attribute.type, token.value,
                        entity.values.get(attribute.name),
                    ))
    return pairs


class TestCorpusPairs:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_every_list_entry(self, seed):
        registry = default_registry()
        pairs = linker_pairs(seed)
        types = {attr_type for attr_type, _, _ in pairs}
        assert {AttributeType.NAME, AttributeType.PHONE} <= types
        exact = 0
        for attr_type, token, value in pairs:
            assert_certifies(registry, attr_type, token, value)
            exact += registry.similarity(attr_type, token, value) == 1.0
        assert 0 < exact < len(pairs)


class TestRandomPairs:
    def test_names(self):
        rng = random.Random(31)
        words = ["jo", "john", "jon", "smith", "smyth", "Mary", "MARY", "a"]
        registry = default_registry()
        for _ in range(5_000):
            token, value = (
                " ".join(rng.choice(words) for _ in range(rng.randint(0, 3)))
                for _ in range(2)
            )
            assert_certifies(registry, AttributeType.NAME, token, value)

    def test_digit_strings(self):
        rng = random.Random(32)
        registry = default_registry()
        for _ in range(5_000):
            token = "".join(
                rng.choice("0123-") for _ in range(rng.randint(0, 6))
            )
            value = "".join(
                rng.choice("0123 -") for _ in range(rng.randint(0, 10))
            )
            assert_certifies(registry, AttributeType.PHONE, token, value)


class TestEdgeCases:
    @pytest.mark.parametrize("token, value", [
        ("John JOHN", "john smith"),
        ("mary mary", "Mary Walker"),
        ("smith john", "john  smith"),
        ("john smith", "john"),
        ("john", "johnny smith"),
        ("none", None),
        ("john", None),
        ("john", ""),
        ("", "john"),
        ("   ", "john"),
    ])
    def test_names(self, token, value):
        assert_certifies(default_registry(), AttributeType.NAME, token, value)

    @pytest.mark.parametrize("token, value", [
        ("4111111111111111", "5500000000000004 4111-1111-1111-1111"),
        ("41111111", "4111 1111"),
        ("555-867-5309", "5558675309"),
        ("5558675309", "555 867 5309"),
        ("5558675309", None),
        ("5558675309", ""),
        ("abc", "abc"),
        ("", ""),
        ("5", "0150317041405"),
    ])
    @pytest.mark.parametrize(
        "attr_type", [AttributeType.PHONE, AttributeType.CARD]
    )
    def test_digits(self, attr_type, token, value):
        assert_certifies(default_registry(), attr_type, token, value)

    def test_the_ulp_case_is_below_one(self):
        assert digits_similarity("5", "0150317041405") == 1 / 13
        test = default_registry().exact_test(AttributeType.PHONE, "5")
        assert not test("0150317041405")


def assert_certifies_date(registry, token, value):
    """The date test and ``date_similarity`` agree on 1.0."""
    exact = registry.similarity(AttributeType.DATE, token, value) == 1.0
    assert registry.exact_test(AttributeType.DATE, token)(value) is exact, (
        token, value,
    )
    if value is not None:
        assert (date_similarity(token, value) == 1.0) is exact


def noised_turns(corpus, seed):
    """SMS- and email-noised customer turns of a car-rental corpus."""
    return [
        text
        for config in (NoiseConfig.for_sms(), NoiseConfig.for_email())
        for text, _, _ in customer_calls(corpus, TextNoiser(config, seed=seed))
    ]


class TestDateTest:
    @pytest.mark.parametrize("token, value", [
        ("1945-03-06", "1945-03-06"),
        ("1945-03-06", "1945-03-07"),
        ("1945-03-06", "1946-03-06"),
        ("1945-03-06", "1945-3-6"),
        ("1945-03-06", "1945-03-06 "),
        ("1945-03-06", "march 6 1945"),
        ("march 6 1945", "march 6 1945"),
        ("1945/03/06", "1945/03/06"),
        ("1945/03/06", "1945-03-06"),
        ("1945-03", "1945-03"),
        ("1945-03", "1945-03-06"),
        ("1945-03-06-01", "1945-03-06-01"),
        ("--", "--"),
        ("--", "---"),
        ("", ""),
        ("1945-03-06", ""),
        ("1945-03-06", None),
        ("None", None),
        ("1945-03-06", datetime.date(1945, 3, 6)),
        ("1945-03-06", datetime.date(1945, 3, 7)),
        ("19450306", 19450306),
        ("1945", 1945),
        ("1945.0", 1945.0),
    ])
    def test_edge_cases(self, token, value):
        assert_certifies_date(default_registry(), token, value)

    @pytest.mark.parametrize("token, value", [
        (19450306, 19450306),
        (1945, 1945.0),
        (datetime.date(1945, 3, 6), "1945-03-06"),
        (None, None),
        (None, "None"),
    ])
    def test_non_string_tokens(self, token, value):
        assert_certifies_date(default_registry(), token, value)

    def test_random_strings(self):
        rng = random.Random(33)
        registry = default_registry()
        for _ in range(5_000):
            token, value = (
                "".join(rng.choice("19-0") for _ in range(rng.randint(0, 6)))
                for _ in range(2)
            )
            assert_certifies_date(registry, token, value)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_car_rental_dates(self, seed):
        # Every date token of the noised turns against every customer's
        # date of birth: the date lists' entries (the date index returns
        # exact matches only) and every call-record block's pairs.
        corpus = callcenter_corpus(seed)
        linker = EntityLinker(corpus.database, "customers")
        values = [entity.values.get("dob") for entity in linker.table]
        registry = default_registry()
        exact = pairs = 0
        for text in noised_turns(corpus, seed):
            for token in linker.annotators.annotate(text):
                if token.attr_type is not AttributeType.DATE:
                    continue
                for value in values:
                    assert_certifies_date(registry, token.value, value)
                    exact += registry.similarity(
                        AttributeType.DATE, token.value, value
                    ) == 1.0
                    pairs += 1
        assert 0 < exact < pairs

    @pytest.mark.parametrize("seed", SEEDS)
    def test_two_pass_identities_with_date_heads(self, seed):
        corpus = callcenter_corpus(seed)
        linker = EntityLinker(corpus.database, "customers")
        eager = EagerEntityLinker(
            corpus.database, "customers", registry=RememberingOracle()
        )
        metrics = MetricsRegistry()
        with activated(Tracer(), metrics):
            for text in noised_turns(corpus, seed):
                assert linker.top_identities(text, n=5) == (
                    eager.top_identities(text, n=5)
                ), text
        _, lists = linker._ranked
        date_heads = [
            ranked.certified
            for (attribute_name, _), ranked in lists.items()
            if attribute_name == "dob"
        ]
        assert sum(date_heads) > 0
        assert metrics.snapshot()["counters"]["linking.lists.certified"] > 0

    def test_telecom_schema_has_no_date(self):
        # So the churn-email work gates cannot move with the date test.
        linker = churn_linker(churn_corpus(1))
        assert linker.table.schema.attributes_of_type(AttributeType.DATE) == []


class TestMeasuresWithoutATest:
    @pytest.mark.parametrize("attr_type", [
        AttributeType.NUMBER, AttributeType.MONEY,
        AttributeType.PLACE, AttributeType.STRING, AttributeType.ID,
        AttributeType.CATEGORY,
    ])
    def test_other_default_measures(self, attr_type):
        assert default_registry().exact_test(attr_type, "42") is None

    def test_numeric_rounds_to_one_for_unequal_values(self):
        # Why MONEY and NUMBER have no test: 1.0 is not proof of equality.
        assert numeric_similarity("1e17", "100000000000000001") == 1.0

    @pytest.mark.parametrize("attr_type", list(CERTIFIED))
    def test_registered_measures(self, attr_type):
        assert reference_registry().exact_test(attr_type, "john") is None
        registry = default_registry().register(
            attr_type, lambda token, value: 1.0
        )
        assert registry.exact_test(attr_type, "john") is None
