"""The unit record of the analysis dataset.

A :class:`CollectedTweet` is a tweet that survived the full pipeline:
keyword-matched, located to a US state, with its organ mentions already
extracted.  Mentions are stored on the record because every analysis in
§III–IV consumes mention counts, never raw text again.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any

from repro.errors import SerializationError
from repro.geo.geocoder import GeoMatch
from repro.organs import Organ
from repro.twitter.models import Tweet


@dataclass(frozen=True, slots=True)
class CollectedTweet:
    """A pipeline-surviving tweet with resolved location and mentions.

    Attributes:
        tweet: the original tweet record.
        location: resolved location (always a US state post-filter).
        mentions: organ → mention count within this tweet's text.
    """

    tweet: Tweet
    location: GeoMatch
    mentions: dict[Organ, int]

    @property
    def user_id(self) -> int:
        return self.tweet.user.user_id

    @property
    def state(self) -> str | None:
        return self.location.state

    @property
    def distinct_organs(self) -> frozenset[Organ]:
        return frozenset(
            organ for organ, count in self.mentions.items() if count > 0
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "tweet": self.tweet.to_dict(),
            "location": {
                "country": self.location.country,
                "state": self.location.state,
                "confidence": self.location.confidence,
                "source": self.location.source,
            },
            # Sorted so serialization is byte-stable across processes
            # (mention dicts are built from frozensets, whose iteration
            # order follows per-process enum hashes).
            "mentions": {
                organ.value: count
                for organ, count in sorted(
                    self.mentions.items(), key=lambda item: item[0].value
                )
            },
        }

    def to_json(self) -> str:
        """This record as one corpus line (no trailing newline)."""
        return json.dumps(self.to_dict(), ensure_ascii=False)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "CollectedTweet":
        try:
            location = data["location"]
            return cls(
                tweet=Tweet.from_dict(data["tweet"]),
                location=GeoMatch(
                    country=location["country"],
                    state=location["state"],
                    confidence=float(location["confidence"]),
                    source=location["source"],
                ),
                mentions={
                    Organ.from_name(name): int(count)
                    for name, count in data["mentions"].items()
                },
            )
        except SerializationError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise SerializationError(f"malformed collected record: {exc}") from exc
