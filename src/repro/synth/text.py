"""Template-based tweet text generation.

Renders tweets that carry the Context × Subject vocabulary the collection
filter tracks (Fig. 1), plus off-topic tweets that must be rejected.  Organ
surface forms rotate through the alias table (plural, adjective, glued
hashtags) so the NLP matcher is exercised on realistic variety.
"""

from __future__ import annotations

import numpy as np

from repro.organs import Organ
from repro.synth.draws import choice_cdf, draw

#: Surface forms per organ: (form, weight).  All forms resolve back to the
#: organ through :data:`repro.organs.ALIASES` or hashtag substring rules.
_SURFACE_FORMS: dict[Organ, tuple[tuple[str, float], ...]] = {
    Organ.HEART: (("heart", 0.7), ("hearts", 0.15), ("cardiac", 0.15)),
    Organ.KIDNEY: (("kidney", 0.7), ("kidneys", 0.2), ("renal", 0.1)),
    Organ.LIVER: (("liver", 0.85), ("livers", 0.1), ("hepatic", 0.05)),
    Organ.LUNG: (("lung", 0.6), ("lungs", 0.3), ("pulmonary", 0.1)),
    Organ.PANCREAS: (("pancreas", 0.85), ("pancreatic", 0.15)),
    Organ.INTESTINE: (("intestine", 0.6), ("intestinal", 0.2), ("bowel", 0.2)),
}

#: On-topic templates with one organ slot.  Every template contains at
#: least one Context term (donor/donate/donation/transplant/.../organ).
_SINGLE_TEMPLATES: tuple[str, ...] = (
    "Be a {o1} donor, save a life #DonateLife",
    "My mom just got her {o1} transplant, so grateful 🙏",
    "Signed up as an organ donor today, thinking about {o1} patients",
    "Month 14 on the {o1} transplant waitlist. Staying hopeful.",
    "Please share: a local kid needs a {o1} transplant",
    "Proud {o1} donation advocate — register today!",
    "Learned so much at the {o1} transplant support group tonight",
    "One organ donor can save 8 lives. {o1} recipients need you",
    "Honoring my brother, a {o1} donor who saved three lives",
    "RT if you support {o1} donation awareness #OrganDonation",
    "Team walk for {o1} transplant recipients this weekend! Donate!",
    "The {o1} waitlist keeps growing. Become a donor.",
    "Celebrating 5 years since my {o1} transplant 🎉 thank my donor",
    "New post: what every {o1} donation recipient wishes you knew",
    "Our hospital performed its 100th {o1} transplant — donor heroes",
    "#{g1}transplant awareness week — talk to your family about donation",
    "Did you know a single {o1} donation can change a family forever?",
    "Fundraiser for {o1} transplant costs — every donation helps",
)

#: On-topic templates with two organ slots.
_DUAL_TEMPLATES: tuple[str, ...] = (
    "Rare double transplant: {o1} and {o2} from one donor 🙌",
    "Dad needs a combined {o1}-{o2} transplant. Please be a donor.",
    "Amazing story of a {o1} and {o2} recipient meeting her donor family",
    "Donor awareness day: {o1} and {o2} waitlists are the longest here",
    "She donated a {o1} and, years later, needed a {o2} transplant herself",
)

#: On-topic templates with three organ slots.
_TRIPLE_TEMPLATES: tuple[str, ...] = (
    "One donor, three lives: {o1}, {o2}, and {o3} transplants in one night",
    "Waitlist update: {o1}, {o2}, {o3} — all need donors in our region",
)

#: Off-topic templates: context-without-subject, subject-without-context,
#: or neither.  The stream filter must drop every one of these.
OFF_TOPIC_TEMPLATES: tuple[str, ...] = (
    "Please donate to the food bank this weekend",
    "Blood donor drive at the campus center tomorrow",
    "Made a small donation to the animal shelter 🐕",
    "My heart is so full right now, best day ever",
    "Ate way too much, my liver hates me",
    "Screaming my lungs out at the concert tonight",
    "This playlist goes straight to the heart",
    "Beautiful sunset tonight, no filter",
    "Coffee is the only thing keeping me alive today",
    "Charity donation receipts are so confusing",
    "New gym program is brutal on the legs",
    "Thrift store donation pile keeps growing",
)


class TweetTextGenerator:
    """Renders tweet text for a chosen multiset of organs.

    Args:
        rng: generator for template/surface-form choices.
        alias_rate: probability an organ is rendered as a non-canonical
            surface form rather than its plain name.
        retweet_rate: probability an on-topic tweet is wrapped as a
            retweet ("RT @handle: …").
        handles: handle pool for retweet attribution; a generic pool is
            used when empty.
    """

    _FALLBACK_HANDLES = ("donatelife", "unos_news", "organdonor_gov")

    def __init__(
        self,
        rng: np.random.Generator,
        alias_rate: float = 0.25,
        retweet_rate: float = 0.0,
        handles: tuple[str, ...] = (),
    ):
        self._rng = rng
        self._alias_rate = alias_rate
        self._retweet_rate = retweet_rate
        self._handles = handles or self._FALLBACK_HANDLES
        self._forms: dict[Organ, tuple[tuple[str, ...], list[float]]] = {}
        for organ, forms in _SURFACE_FORMS.items():
            weights = np.array([weight for __, weight in forms])
            self._forms[organ] = (
                tuple(form for form, __ in forms),
                choice_cdf(weights / weights.sum()),
            )

    def on_topic(self, organs: tuple[Organ, ...]) -> str:
        """Render an on-topic tweet mentioning exactly these organs."""
        body = self._body(organs)
        if self._retweet_rate and self._rng.random() < self._retweet_rate:
            handle = self._handles[int(self._rng.integers(len(self._handles)))]
            return f"RT @{handle}: {body}"
        return body

    def _body(self, organs: tuple[Organ, ...]) -> str:
        if len(organs) == 1:
            template = _SINGLE_TEMPLATES[
                int(self._rng.integers(len(_SINGLE_TEMPLATES)))
            ]
            return template.format(
                o1=self._surface(organs[0]), g1=organs[0].value
            )
        if len(organs) == 2:
            template = _DUAL_TEMPLATES[int(self._rng.integers(len(_DUAL_TEMPLATES)))]
            return template.format(
                o1=self._surface(organs[0]), o2=self._surface(organs[1])
            )
        template = _TRIPLE_TEMPLATES[int(self._rng.integers(len(_TRIPLE_TEMPLATES)))]
        return template.format(
            o1=self._surface(organs[0]),
            o2=self._surface(organs[1]),
            o3=self._surface(organs[2]),
        )

    def off_topic(self) -> str:
        """Render a tweet that must fail the Context × Subject filter."""
        return OFF_TOPIC_TEMPLATES[int(self._rng.integers(len(OFF_TOPIC_TEMPLATES)))]

    def _surface(self, organ: Organ) -> str:
        if self._rng.random() >= self._alias_rate:
            return organ.value
        forms, cdf = self._forms[organ]
        return forms[draw(cdf, self._rng)]
