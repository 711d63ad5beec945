"""Each call tokenized once, and its typed tokens found in one pass.

The compose stage builds a call's lowered tokens once, from its speaker
parts, with the cut points ``c`` (customer tokens) and ``m`` (the
opening's).  The call-record linker's annotators read ``tokens[:c]``,
the annotation engine reads the whole list and the derive stage reads
the cuts, so nothing tokenizes a call's text again.

The oracle: the tokens and cuts ``==`` tokenizing the full, customer
and opening texts, and the typed tokens the linker gets inside a
seed-1 study ``==`` the reference suite's on the customer text.  A
region annotated on its own, where a dictionary concept straddles a
cut, reads its slice of the list instead of tokenizing its text.

The work gates, at tolerance 0 where they count:

- A seed-1 callcenter study tokenizes 9,794 tokens, the tokens of its
  96 full texts, against 19,226 before the list was shared (the
  customer text's 4,716 twice more).  Counted by patching ``tokenize``
  in every module that imports it.
- The typed-token pass runs about one traced Python line per token
  that is no trigger word, and at most 8 per customer token on the
  seed-1 customer texts; the reference's four scans run 13.9.  A
  fall-back to one scan per annotator fails both bounds by name.
"""

import sys

import pytest

from repro.annotation import build_car_rental_engine
from repro.core import BIVoCConfig, run_insight_analysis
from repro.core.pipeline import BIVoCSystem
from repro.linking.annotators import AnnotatorSuite, build_default_annotators
from repro.util.tokenize import tokenize
from tests.annotation.test_compiled_patterns import callcenter_corpus
from tests.core.test_annotate_once import (
    call,
    graph_documents,
    noised,
    run_region_graph,
)
from tests.linking.reference import reference_annotators
from tests.linking.test_similarity_kernels import customer_calls
from tests.util.test_osa_kernel import traced_lines

CONTENT = BIVoCConfig(use_asr=False, link_mode="content")

#: Tokens a seed-1 study tokenizes, now and with three tokenizations.
SEED1_TOKENS = 9_794
SEED1_UNSHARED_TOKENS = 19_226
SEED1_CUSTOMER_TOKENS = 4_716

#: Traced lines of the typed-token pass per seed-1 customer token.
LINES_PER_CUSTOMER_TOKEN = 8


@pytest.fixture(scope="module")
def corpus():
    return callcenter_corpus(1)


def tokenized(run):
    """Tokens every ``tokenize`` produces during ``run()``, per module."""
    original = sys.modules["repro.util.tokenize"].tokenize
    counts = {}

    def counting_in(name):
        def counting(*args, **kwargs):
            tokens = original(*args, **kwargs)
            counts[name] = counts.get(name, 0) + len(tokens)
            return tokens

        return counting

    with pytest.MonkeyPatch.context() as patch:
        for name, module in list(sys.modules.items()):
            if (
                name.startswith("repro.")
                and name != "repro.util.tokenize"
                and vars(module).get("tokenize") is original
            ):
                patch.setattr(module, "tokenize", counting_in(name))
        run()
    return counts


class TestOracle:
    @pytest.mark.parametrize("channel", [None, "sms", "email"])
    def test_tokens_and_cuts(self, corpus, channel):
        if channel is not None:
            corpus = noised(corpus, channel, 1)
        documents, _ = graph_documents(BIVoCSystem(CONTENT), corpus)
        for document in documents:
            tokens = document.require("tokens")
            c = document.require("customer_end")
            m = document.require("opening_end")
            assert tokens == tokenize(document.get("full_text"), lower=True)
            assert tokens[:c] == tokenize(
                document.get("customer_text"), lower=True
            )
            assert tokens[c:] == tokenize(
                document.get("agent_text"), lower=True
            )
            assert tokens[:m] == tokenize(document.get("opening"), lower=True)
            assert document.require("annotated").tokens == tokens

    def test_linker_typed_tokens(self, corpus):
        """The linker's suite reads ``tokens[:c]`` and finds what the
        reference suite finds on the customer text."""
        seen = []
        original = AnnotatorSuite.annotate

        def recording(self, text, tokens=None):
            typed = original(self, text, tokens)
            seen.append((text, tokens, typed))
            return typed

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(AnnotatorSuite, "annotate", recording)
            run_insight_analysis(corpus, CONTENT)
        assert len(seen) == len(corpus.transcripts)
        reference = reference_annotators()
        texts = {text for text, _, _ in customer_calls(corpus)}
        for text, tokens, typed in seen:
            assert text in texts
            assert tokens == tokenize(text, lower=True)
            assert typed == reference.annotate(text), text
        assert any(typed for _, _, typed in seen)


#: Hand-built calls whose dictionary concept straddles ``c`` or ``m``:
#: the straddle cases of ``tests/core/test_annotate_once.py``, whose
#: outputs are checked ``==`` the reference there.
STRADDLING = [
    (["hi there", "i want to book a car", "in new"],
     ["york city has a wonderful rate", "thanks"]),
    (["i would like to make a booking", "for tomorrow",
      "through my corporate"], ["program is not valid here"]),
    (["hello", "my name is pat", "do you honour a corporate"],
     ["discount is applied to every booking"]),
    (["i want to book a car", "and pay with my master",
      "card if that is fine"], ["sure"]),
]


class TestStraddleFallback:
    @pytest.mark.parametrize("parts", STRADDLING,
                             ids=["place", "program", "discount", "card"])
    def test_fallback_reads_a_slice(self, parts):
        """The region annotated on its own is not tokenized again."""
        engine = build_car_rental_engine()
        runs = []
        counts = tokenized(
            lambda: runs.append(run_region_graph(engine, call(*parts)))
        )
        (document,), _, annotated = runs[0]
        assert annotated == 2
        assert counts == {
            "repro.annotation.matcher": len(document.require("tokens"))
        }


class TestWorkGate:
    def test_seed1_study_tokenizes_each_call_once(self, corpus):
        counts = tokenized(lambda: run_insight_analysis(corpus, CONTENT))
        assert sum(counts.values()) == SEED1_TOKENS
        assert SEED1_TOKENS + 2 * SEED1_CUSTOMER_TOKENS == (
            SEED1_UNSHARED_TOKENS
        )

    def test_filler_tokens_cost_a_line_each(self):
        """No trigger word, no digit: the pass is one comprehension."""
        text = " ".join(["the", "car", "rate", "is", "good", "please"] * 300)
        tokens = tokenize(text, lower=True)
        suite = build_default_annotators()
        assert traced_lines(suite.annotate, text, tokens) <= (
            2 * len(tokens) + 100
        )
        assert traced_lines(reference_annotators().annotate, text) > (
            4 * len(tokens)
        )

    def test_seed1_customer_texts(self, corpus):
        suite = build_default_annotators()
        reference = reference_annotators()
        tokens = lines = reference_lines = 0
        for text, _, _ in customer_calls(corpus):
            shared = tokenize(text, lower=True)
            tokens += len(shared)
            lines += traced_lines(suite.annotate, text, shared)
            reference_lines += traced_lines(reference.annotate, text)
        assert tokens == SEED1_CUSTOMER_TOKENS
        assert lines <= LINES_PER_CUSTOMER_TOKEN * tokens
        assert reference_lines > LINES_PER_CUSTOMER_TOKEN * tokens
