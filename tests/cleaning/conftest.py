"""Corpora and the linear-scan reference, shared by the cleaning tests.

The reference corrector memoises by word, so one instance for the
session keeps its scans from being repeated module by module.
"""

import pytest

from tests.cleaning.corpus import SEEDS, telecom_corpus
from tests.cleaning.reference import ReferenceSpellCorrector


@pytest.fixture(scope="session")
def telecom():
    """The telecom-stream corpus of each seed."""
    return {seed: telecom_corpus(seed) for seed in SEEDS}


@pytest.fixture(scope="session")
def reference():
    """One default reference; its memo is shared by every test."""
    return ReferenceSpellCorrector()
