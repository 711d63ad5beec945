"""Synthetic telecom email/SMS corpus for the churn use case (paper §VI).

The paper's client is "one of the biggest telecom service providers in
wireless telephony"; the corpus characteristics it reports are:

* 47,460 emails, of which 3% came from churners,
* 289,314 SMS, of which 7.6% came from churners,
* ~18% of emails not linkable (mostly from non-customers),
* 78% of the base is prepaid (the analysed segment),
* churn drivers: competitor tariff, problem resolution, service issues,
  billing issues, low awareness.

The generator reproduces those proportions at a configurable scale and
plants churn-driver language in churner messages (with realistic
overlap: non-churners also complain, just less and with less
churn-intent language), then pushes everything through the channel
noise models of :mod:`repro.synth.noise`.
"""

from dataclasses import dataclass

from repro.store.database import Database
from repro.store.schema import AttributeType, Schema
from repro.synth.lexicon import (
    CHURN_DRIVERS,
    CHURN_INTENT_PHRASES,
    EMAIL_DISCLAIMERS,
    MULTILINGUAL_FRAGMENTS,
    NEUTRAL_TELECOM_PHRASES,
    PROMO_FOOTERS,
    SATISFIED_PHRASES,
    SPAM_TEMPLATES,
)
from repro.synth.noise import NoiseConfig, TextNoiser
from repro.synth.people import PersonGenerator
from repro.util.rng import derive_rng

REGIONS = ["north", "south", "east", "west", "central"]

_DRIVER_KEYS = sorted(CHURN_DRIVERS)


@dataclass(frozen=True)
class TelecomConfig:
    """Scalable knobs for the telecom corpus.

    ``scale=1.0`` reproduces the paper's message volumes (47,460 emails
    and 289,314 SMS); tests run at much smaller scales.
    """

    scale: float = 0.02
    n_customers: int = 2000
    n_months: int = 6
    prepaid_fraction: float = 0.78
    churner_fraction: float = 0.08  # fraction of customers who churn
    email_churner_fraction: float = 0.03  # of customer emails
    sms_churner_fraction: float = 0.076  # of customer SMS
    non_customer_email_fraction: float = 0.18  # of all emails
    spam_fraction: float = 0.06  # of all emails, on top of the above
    non_english_sms_fraction: float = 0.04
    seed: int = 11
    # Signal strength: expected number of churn-driver phrases per
    # churner message vs per non-churner message.  Tuned so that the
    # classifier detection rate lands near the paper's 53.6%.
    churner_driver_rate: float = 1.35
    non_churner_driver_rate: float = 0.37
    churn_intent_probability: float = 0.28

    @property
    def n_emails(self):
        """Email volume at this scale (paper: 47,460 at 1.0)."""
        return max(20, int(round(47460 * self.scale)))

    @property
    def n_sms(self):
        """SMS volume at this scale (paper: 289,314 at 1.0)."""
        return max(40, int(round(289314 * self.scale)))


@dataclass(frozen=True)
class Message:
    """One VoC message with generation ground truth attached."""

    message_id: int
    channel: str  # "email" | "sms"
    month: int
    raw_text: str
    clean_text: str
    sender_entity_id: object  # customer entity id, or None
    from_churner: bool
    is_spam: bool = False
    is_non_english: bool = False
    driver_keys: tuple = ()


@dataclass
class TelecomCorpus:
    """Generated telecom corpus: warehouse + messages + truth."""

    config: TelecomConfig
    database: Database
    emails: list
    sms: list
    customers: list  # entity list, index == entity_id

    @property
    def messages(self):
        """Emails and SMS concatenated."""
        return self.emails + self.sms


def build_telecom_customer_schema():
    """Schema of the telecom customers table (fuzzy-indexed)."""
    return Schema.build(
        ("name", AttributeType.NAME, True),
        ("phone", AttributeType.PHONE, True),
        ("email_address", AttributeType.STRING, True),
        ("region", AttributeType.CATEGORY),
        ("plan_type", AttributeType.CATEGORY),
        ("avg_bill", AttributeType.MONEY),
        ("tenure_months", AttributeType.NUMBER),
        ("churned", AttributeType.CATEGORY),
        ("churn_month", AttributeType.NUMBER),
    )


def _pick(rng, options):
    return options[int(rng.integers(0, len(options)))]


def _email_address(person, rng):
    sep = _pick(rng, [".", "_", ""])
    suffix = int(rng.integers(1, 999))
    return f"{person.first_name}{sep}{person.last_name}{suffix}@example.com"


class _MessageComposer:
    """Builds clean message bodies before channel noise."""

    def __init__(self, config, rng):
        self._config = config
        self._rng = rng

    def _driver_phrases(self, from_churner):
        rng = self._rng
        rate = (
            self._config.churner_driver_rate
            if from_churner
            else self._config.non_churner_driver_rate
        )
        count = int(rng.poisson(rate))
        phrases = []
        keys = []
        for _ in range(count):
            key = _pick(rng, _DRIVER_KEYS)
            keys.append(key)
            phrases.append(_pick(rng, CHURN_DRIVERS[key]))
        return phrases, tuple(keys)

    def body(self, from_churner):
        """Compose a clean body; returns ``(text, driver_keys)``."""
        rng = self._rng
        sentences = []
        driver_phrases, keys = self._driver_phrases(from_churner)
        sentences.extend(driver_phrases)
        n_neutral = int(rng.integers(1, 3))
        for _ in range(n_neutral):
            sentences.append(_pick(rng, NEUTRAL_TELECOM_PHRASES))
        if from_churner and rng.random() < (
            self._config.churn_intent_probability
        ):
            sentences.append(_pick(rng, CHURN_INTENT_PHRASES))
        if not from_churner and not driver_phrases and rng.random() < 0.3:
            sentences.append(_pick(rng, SATISFIED_PHRASES))
        rng.shuffle(sentences)
        return ". ".join(sentences), keys


def _render_email(person, body, month, rng):
    """Wrap a (already noised) body in realistic email furniture —
    headers, quoted agent reply, disclaimer — that the cleaning engine
    must strip.  The furniture itself is machine-generated and stays
    clean; only the customer-typed body carries channel noise."""
    subject_words = body.split()[:4]
    lines = [
        f"from: {person.name} <{_email_address(person, rng)}>",
        "to: care@telco.example",
        f"subject: {' '.join(subject_words)}",
        "",
        "dear customer care",
        body,
        f"my registered number is {person.phone}",
        "regards",
        person.name,
        "",
    ]
    if rng.random() < 0.5:
        lines.extend(
            [
                f"> on month {month} customer care wrote:",
                f"> dear {person.name} thank you for contacting us",
                "> we will look into your issue at the earliest",
                "",
            ]
        )
    lines.append(_pick(rng, EMAIL_DISCLAIMERS))
    if rng.random() < 0.3:
        lines.append(_pick(rng, PROMO_FOOTERS))
    return "\n".join(lines)


def _render_sms(person, body, rng):
    """SMS bodies sometimes carry the sender's number for linking."""
    if rng.random() < 0.6:
        return f"{body}. my no is {person.phone}"
    return f"{body}. {person.name}"


def _spam_email(rng):
    template = _pick(rng, SPAM_TEMPLATES)
    return template.format(
        amount=int(rng.integers(500, 90000)),
        word=_pick(rng, ["acme", "zenith", "apex", "orion"]),
    )


def _non_english_sms(rng):
    count = int(rng.integers(3, 7))
    return " ".join(
        _pick(rng, MULTILINGUAL_FRAGMENTS) for _ in range(count)
    )


def generate_telecom(config=None):
    """Generate the full telecom corpus per ``config``."""
    config = config or TelecomConfig()
    rng = derive_rng(config.seed, "telecom")

    database = Database("telecom")
    customers_table = database.create_table(
        "customers", build_telecom_customer_schema()
    )
    person_gen = PersonGenerator(seed=derive_rng(config.seed, "tel-people"))
    people = person_gen.generate_many(config.n_customers)
    entities = []
    for person in people:
        churned = rng.random() < config.churner_fraction
        churn_month = (
            int(rng.integers(config.n_months // 2, config.n_months))
            if churned
            else None
        )
        entities.append(
            customers_table.insert(
                {
                    "name": person.name,
                    "phone": person.phone,
                    "email_address": _email_address(person, rng),
                    "region": _pick(rng, REGIONS),
                    "plan_type": (
                        "prepaid"
                        if rng.random() < config.prepaid_fraction
                        else "postpaid"
                    ),
                    "avg_bill": int(rng.integers(100, 2500)),
                    "tenure_months": int(rng.integers(1, 72)),
                    "churned": churned,
                    "churn_month": churn_month,
                }
            )
        )
    database.build_indexes()

    churner_ids = [
        entity.entity_id
        for entity in entities
        if entity["churned"]
    ]
    non_churner_ids = [
        entity.entity_id
        for entity in entities
        if not entity["churned"]
    ]
    if not churner_ids or not non_churner_ids:
        raise RuntimeError(
            "telecom corpus needs both churners and non-churners; "
            "increase n_customers or churner_fraction"
        )

    composer = _MessageComposer(config, derive_rng(config.seed, "composer"))
    email_noiser = TextNoiser(
        NoiseConfig.for_email(), seed=derive_rng(config.seed, "email-noise")
    )
    sms_noiser = TextNoiser(
        NoiseConfig.for_sms(), seed=derive_rng(config.seed, "sms-noise")
    )
    stranger_gen = PersonGenerator(
        seed=derive_rng(config.seed, "strangers")
    )

    def sender_for(channel, message_roll):
        """Pick sender and labels for one customer message."""
        churner_share = (
            config.email_churner_fraction
            if channel == "email"
            else config.sms_churner_fraction
        )
        from_churner = message_roll < churner_share
        pool = churner_ids if from_churner else non_churner_ids
        entity_id = pool[int(rng.integers(0, len(pool)))]
        return entity_id, from_churner

    emails = []
    message_id = 0
    for _ in range(config.n_emails):
        month = int(rng.integers(0, config.n_months))
        roll = rng.random()
        if roll < config.spam_fraction:
            body = _spam_email(rng)
            emails.append(
                Message(
                    message_id=message_id,
                    channel="email",
                    month=month,
                    raw_text=body,
                    clean_text=body,
                    sender_entity_id=None,
                    from_churner=False,
                    is_spam=True,
                )
            )
        elif roll < config.spam_fraction + config.non_customer_email_fraction:
            stranger = stranger_gen.generate()
            body, keys = composer.body(from_churner=False)
            raw = _render_email(
                stranger, email_noiser.apply(body), month, rng
            )
            emails.append(
                Message(
                    message_id=message_id,
                    channel="email",
                    month=month,
                    raw_text=raw,
                    clean_text=body,
                    sender_entity_id=None,
                    from_churner=False,
                    driver_keys=keys,
                )
            )
        else:
            entity_id, from_churner = sender_for("email", rng.random())
            person = people[entity_id]
            body, keys = composer.body(from_churner)
            raw = _render_email(
                person, email_noiser.apply(body), month, rng
            )
            emails.append(
                Message(
                    message_id=message_id,
                    channel="email",
                    month=month,
                    raw_text=raw,
                    clean_text=body,
                    sender_entity_id=entity_id,
                    from_churner=from_churner,
                    driver_keys=keys,
                )
            )
        message_id += 1

    sms_messages = []
    for _ in range(config.n_sms):
        month = int(rng.integers(0, config.n_months))
        if rng.random() < config.non_english_sms_fraction:
            body = _non_english_sms(rng)
            sms_messages.append(
                Message(
                    message_id=message_id,
                    channel="sms",
                    month=month,
                    raw_text=body,
                    clean_text=body,
                    sender_entity_id=None,
                    from_churner=False,
                    is_non_english=True,
                )
            )
        else:
            entity_id, from_churner = sender_for("sms", rng.random())
            person = people[entity_id]
            body, keys = composer.body(from_churner)
            raw = sms_noiser.apply(_render_sms(person, body, rng))
            sms_messages.append(
                Message(
                    message_id=message_id,
                    channel="sms",
                    month=month,
                    raw_text=raw,
                    clean_text=body,
                    sender_entity_id=entity_id,
                    from_churner=from_churner,
                    driver_keys=keys,
                )
            )
        message_id += 1

    return TelecomCorpus(
        config=config,
        database=database,
        emails=emails,
        sms=sms_messages,
        customers=entities,
    )
