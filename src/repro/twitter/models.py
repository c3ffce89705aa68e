"""Tweet, user-profile, and place records.

These mirror the subset of the Twitter API v1.1 object model the paper's
pipeline reads: tweet text and timestamp, the author's self-reported
profile location, and the optional geo-tag ``place`` attached to ~1.4% of
tweets.  Records are immutable and JSON-serializable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime, timezone
from json.encoder import encode_basestring
from typing import Any

from repro.errors import SerializationError


@dataclass(frozen=True, slots=True)
class Place:
    """A Twitter geo-tag place (attached to a minority of tweets).

    Attributes:
        full_name: Human-readable place name, e.g. ``"Wichita, KS"``.
        country_code: ISO country code, e.g. ``"US"``.
    """

    full_name: str
    country_code: str

    def to_dict(self) -> dict[str, Any]:
        return {"full_name": self.full_name, "country_code": self.country_code}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Place":
        try:
            return cls(full_name=data["full_name"], country_code=data["country_code"])
        except KeyError as exc:
            raise SerializationError(f"place record missing field: {exc}") from exc


@dataclass(frozen=True, slots=True)
class UserProfile:
    """A Twitter user profile.

    Attributes:
        user_id: Numeric user identifier (stable across tweets).
        screen_name: Handle without the ``@``.
        location: Self-reported free-text location field; may be empty.
    """

    user_id: int
    screen_name: str
    location: str = ""

    def to_dict(self) -> dict[str, Any]:
        return {
            "user_id": self.user_id,
            "screen_name": self.screen_name,
            "location": self.location,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "UserProfile":
        try:
            return cls(
                user_id=int(data["user_id"]),
                screen_name=data["screen_name"],
                location=data.get("location", ""),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SerializationError(f"malformed user record: {exc}") from exc


@dataclass(frozen=True, slots=True)
class Tweet:
    """One tweet as delivered by the (simulated) Streaming API.

    Attributes:
        tweet_id: Numeric tweet identifier.
        user: Author profile snapshot at delivery time.
        text: Tweet text (≤ 140 characters in the paper's era).
        created_at: UTC timestamp.
        place: Geo-tag place, present on ~1.4% of tweets.
        in_reply_to: tweet id this tweet replies to, or ``None`` —
            reply chains are the conversation structure of the paper's
            refs [13]/[22].
    """

    tweet_id: int
    user: UserProfile
    text: str
    created_at: datetime = field(
        default_factory=lambda: datetime(2015, 4, 22, tzinfo=timezone.utc)
    )
    place: Place | None = None
    in_reply_to: int | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "tweet_id": self.tweet_id,
            "user": self.user.to_dict(),
            "text": self.text,
            "created_at": self.created_at.isoformat(),
            "place": self.place.to_dict() if self.place is not None else None,
            "in_reply_to": self.in_reply_to,
        }

    def to_json(self) -> str:
        """This tweet as one firehose line (no trailing newline).

        The same bytes as ``json.dumps(self.to_dict(), ensure_ascii=False)``
        (keys, order, separators, escaping), written field by field
        without building the dict: strings go through
        ``encode_basestring``, the string encoder ``json.dumps`` uses
        when ``ensure_ascii`` is false.
        """
        user = self.user
        place = self.place
        place_json = (
            "null"
            if place is None
            else f'{{"full_name": {encode_basestring(place.full_name)}, '
            f'"country_code": {encode_basestring(place.country_code)}}}'
        )
        reply = "null" if self.in_reply_to is None else self.in_reply_to
        return (
            f'{{"tweet_id": {self.tweet_id}, "user": {{"user_id": {user.user_id}, '
            f'"screen_name": {encode_basestring(user.screen_name)}, '
            f'"location": {encode_basestring(user.location)}}}, '
            f'"text": {encode_basestring(self.text)}, '
            f'"created_at": {encode_basestring(self.created_at.isoformat())}, '
            f'"place": {place_json}, "in_reply_to": {reply}}}'
        )

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Tweet":
        try:
            place_data = data.get("place")
            reply = data.get("in_reply_to")
            return cls(
                tweet_id=int(data["tweet_id"]),
                user=UserProfile.from_dict(data["user"]),
                text=data["text"],
                created_at=datetime.fromisoformat(data["created_at"]),
                place=Place.from_dict(place_data) if place_data else None,
                in_reply_to=int(reply) if reply is not None else None,
            )
        except SerializationError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise SerializationError(f"malformed tweet record: {exc}") from exc
