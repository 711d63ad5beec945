"""Configuration for the assembled BIVoC system."""

from dataclasses import dataclass


@dataclass(frozen=True)
class BIVoCConfig:
    """Knobs of the end-to-end pipeline.

    ``use_asr`` routes call audio (reference transcripts) through the
    simulated recogniser; with it off the pipeline consumes reference
    text directly (the upper bound the ablation benches compare
    against).

    ``link_mode`` selects how transcripts are joined to warehouse
    records: ``"content"`` runs the entity-linking engine over the
    identity mentions, restricted to the calls of the known agent/day
    (the recording system always knows which agent took the call and
    when); ``"metadata"`` uses the oracle call id, modelling a site
    where CTI metadata survives.
    """

    use_asr: bool = True
    link_mode: str = "content"
    asr_seed: int = 1001
    lm_sample_size: int = 30
    min_link_score: float = 0.3
    # Second-pass entity-constrained re-decoding (paper SecIV-A): name
    # slots are restricted to the top-N warehouse identities retrieved
    # with the first pass, plus the agent roster.
    two_pass: bool = False
    two_pass_top_n: int = 5

    def __post_init__(self):
        if self.link_mode not in ("content", "metadata"):
            raise ValueError(
                f"link_mode must be 'content' or 'metadata', "
                f"got {self.link_mode!r}"
            )
