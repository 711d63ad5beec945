"""Tests for single-type and multi-type entity linking and EM weights."""

import pytest

from repro.linking.em import learn_weights_em
from repro.linking.evaluation import LinkingReport, evaluate_linker
from repro.linking.multi import MultiTypeLinker
from repro.linking.single import EntityLinker
from repro.store.database import Database
from repro.store.schema import AttributeType, Schema


@pytest.fixture
def db():
    """Customers + transactions + cards, as in the paper's examples."""
    database = Database()
    customers = database.create_table(
        "customers",
        Schema.build(
            ("name", AttributeType.NAME, True),
            ("phone", AttributeType.PHONE, True),
            ("address", AttributeType.STRING, True),
            ("card_numbers", AttributeType.CARD, True),
        ),
    )
    transactions = database.create_table(
        "transactions",
        Schema.build(
            ("customer_name", AttributeType.NAME, True),
            ("shop_name", AttributeType.STRING, True),
            ("amount", AttributeType.MONEY),
            ("address", AttributeType.STRING, True),
        ),
    )
    cards = database.create_table(
        "cards",
        Schema.build(
            ("number", AttributeType.CARD, True),
            ("holder_name", AttributeType.NAME, True),
        ),
    )
    customers.insert_many(
        [
            {
                "name": "john smith",
                "phone": "5558675309",
                "address": "12 elm street boston",
                "card_numbers": "4111111111111111 4222222222222222",
            },
            {
                "name": "mary walker",
                "phone": "4441239999",
                "address": "9 oak avenue seattle",
                "card_numbers": "4333333333333333",
            },
        ]
    )
    transactions.insert_many(
        [
            {
                "customer_name": "john smith",
                "shop_name": "quick mart",
                "amount": 275,
                "address": "12 elm street boston",
            },
            {
                "customer_name": "mary walker",
                "shop_name": "garden store",
                "amount": 42,
                "address": "9 oak avenue seattle",
            },
        ]
    )
    cards.insert_many(
        [
            {"number": "4111111111111111", "holder_name": "john smith"},
            {"number": "4222222222222222", "holder_name": "john smith"},
            {"number": "4333333333333333", "holder_name": "mary walker"},
        ]
    )
    database.build_indexes()
    return database


class TestEntityLinker:
    def test_links_clean_document(self, db):
        linker = EntityLinker(db, "customers")
        result = linker.link("hello my name is john smith")
        assert result.linked
        assert result.entity["name"] == "john smith"

    def test_links_noisy_name_with_phone(self, db):
        linker = EntityLinker(db, "customers")
        result = linker.link("this is jon smyth my number is 5558675301")
        assert result.entity["name"] == "john smith"

    def test_partial_phone_only(self, db):
        linker = EntityLinker(db, "customers")
        result = linker.link("please call back on 8675309")
        assert result.entity["name"] == "john smith"

    def test_no_tokens_no_link(self, db):
        linker = EntityLinker(db, "customers")
        result = linker.link("the weather is nice today")
        assert not result.linked
        assert result.ranked == []

    def test_min_score_gate(self, db):
        linker = EntityLinker(db, "customers", min_score=5.0)
        result = linker.link("my name is john smith")
        assert not result.linked

    def test_top_identities(self, db):
        linker = EntityLinker(db, "customers")
        top = linker.top_identities("smith or walker maybe", n=2)
        names = {e["name"] for e in top}
        assert names == {"john smith", "mary walker"}

    def test_weights_change_ranking(self, db):
        # Make a doc ambiguous between name evidence for mary and phone
        # evidence for john, then tilt with weights.
        doc = "mary walker here my number is 5558675309"
        name_heavy = EntityLinker(
            db, "customers", weights={"name": 5.0, "phone": 0.1}
        ).link(doc)
        phone_heavy = EntityLinker(
            db, "customers", weights={"name": 0.1, "phone": 5.0}
        ).link(doc)
        assert name_heavy.entity["name"] == "mary walker"
        assert phone_heavy.entity["name"] == "john smith"


class TestMultiTypeLinker:
    def test_customer_document_resolves_to_customer(self, db):
        linker = MultiTypeLinker(
            db, ["customers", "transactions", "cards"]
        )
        result = linker.link(
            "my name is john smith my phone is 5558675309"
        )
        assert result.table_name == "customers"

    def test_transaction_document_resolves_to_transaction(self, db):
        linker = MultiTypeLinker(db, ["customers", "transactions"])
        result = linker.link(
            "the purchase at quick mart for 275 dollars by john smith"
        )
        assert result.table_name == "transactions"

    def test_multi_card_document_aggregates_to_customer(self, db):
        """The paper's key example: a document listing several credit
        cards looks like a card document, but each card points to a
        different card entity while all point to the same customer —
        the aggregate favours the customer."""
        linker = MultiTypeLinker(db, ["customers", "cards"])
        result = linker.link(
            "my cards are 4111111111111111 and 4222222222222222"
        )
        assert result.table_name == "customers"
        assert result.entity["name"] == "john smith"
        # Each card list individually still ranked a card entity.
        assert result.per_table["cards"].linked

    def test_weights_respected(self, db):
        linker = MultiTypeLinker(
            db,
            ["customers", "transactions"],
            weights={
                ("name", "customers"): 0.01,
                ("customer_name", "transactions"): 5.0,
            },
        )
        result = linker.link("john smith")
        assert result.table_name == "transactions"

    def test_no_tables_rejected(self, db):
        with pytest.raises(ValueError):
            MultiTypeLinker(db, [])

    def test_unlinked_document(self, db):
        linker = MultiTypeLinker(db, ["customers"])
        result = linker.link("nothing to see here")
        assert not result.linked


class TestEMWeights:
    def make_corpus(self):
        return [
            "my name is john smith phone 5558675309",
            "mary walker here my number is 4441239999",
            "transaction at quick mart for 275 dollars",
            "purchase at garden store for 42 dollars",
            "my name is john smith",
            "mary walker address 9 oak avenue seattle",
        ]

    def test_em_produces_bounded_positive_weights(self, db):
        linker = MultiTypeLinker(db, ["customers", "transactions"])
        weights = learn_weights_em(linker, self.make_corpus(), iterations=3)
        # Weights stay positive and bounded by the schema width; the
        # evidence-bearing attributes sit near 1 on average.
        for (attribute, table), weight in weights.items():
            schema_width = len(linker.linker_for(table).table.schema)
            assert 0.0 < weight <= schema_width

    def test_em_weights_cover_every_pair(self, db):
        linker = MultiTypeLinker(db, ["customers", "transactions"])
        weights = learn_weights_em(linker, self.make_corpus(), iterations=2)
        for table in ("customers", "transactions"):
            schema = linker.linker_for(table).table.schema
            for attr in schema:
                assert (attr.name, table) in weights

    def test_em_emphasises_discriminative_attributes(self, db):
        linker = MultiTypeLinker(db, ["customers", "transactions"])
        weights = learn_weights_em(linker, self.make_corpus(), iterations=4)
        # Names and phones drive customer documents; shop/amount drive
        # transaction documents.
        assert weights[("name", "customers")] > weights[
            ("card_numbers", "customers")
        ]

    def test_em_empty_corpus_rejected(self, db):
        linker = MultiTypeLinker(db, ["customers"])
        with pytest.raises(ValueError):
            learn_weights_em(linker, [])


class TestEvaluation:
    def test_evaluate_with_list_truth(self, db):
        linker = EntityLinker(db, "customers")
        docs = ["john smith", "mary walker", "no identity at all"]
        report = evaluate_linker(linker, docs, [0, 1, None])
        assert report.correct == 2
        assert report.attempted == 2
        assert report.recall == pytest.approx(2 / 3)
        assert report.precision == 1.0

    def test_evaluate_with_callable_truth(self, db):
        linker = EntityLinker(db, "customers")
        report = evaluate_linker(
            linker, ["john smith"], lambda i, d: 0
        )
        assert report.correct == 1

    def test_truth_alignment_checked(self, db):
        linker = EntityLinker(db, "customers")
        with pytest.raises(ValueError):
            evaluate_linker(linker, ["a", "b"], [0])

    def test_empty_report_properties(self):
        report = LinkingReport(0, 0, 0)
        assert report.precision == 0.0
        assert report.recall == 0.0
        assert report.f1 == 0.0
        assert report.linked_fraction == 0.0
