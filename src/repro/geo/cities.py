"""Major US cities and their states.

Profile locations frequently name a city without a state ("Wichita",
"Brooklyn, NY", "NOLA").  This table lets the geocoder resolve bare city
names the way OpenStreetMap would.  City names that exist in several states
are resolved to the most populous bearer, mirroring Nominatim's
importance-ranked first result.
"""

from __future__ import annotations

# fmt: off
#: city (lowercase) -> USPS state code.  Includes at least one major city per
#: state so the synthetic location generator can emit city-style locations
#: everywhere, plus common informal names.
CITY_TO_STATE: dict[str, str] = {
    # Northeast
    "new york": "NY", "new york city": "NY", "nyc": "NY", "brooklyn": "NY",
    "manhattan": "NY", "queens": "NY", "the bronx": "NY", "buffalo": "NY",
    "rochester": "NY", "albany": "NY",
    "boston": "MA", "worcester": "MA", "springfield": "MA", "cambridge": "MA",
    "philadelphia": "PA", "philly": "PA", "pittsburgh": "PA", "allentown": "PA",
    "newark": "NJ", "jersey city": "NJ", "trenton": "NJ",
    "providence": "RI", "warwick": "RI",
    "hartford": "CT", "new haven": "CT", "bridgeport": "CT",
    "portland me": "ME", "augusta me": "ME", "bangor": "ME",
    "manchester": "NH", "concord nh": "NH", "nashua": "NH",
    "burlington": "VT", "montpelier": "VT",
    # South
    "houston": "TX", "dallas": "TX", "san antonio": "TX", "austin": "TX",
    "fort worth": "TX", "el paso": "TX", "atx": "TX",
    "miami": "FL", "orlando": "FL", "tampa": "FL", "jacksonville": "FL",
    "tallahassee": "FL", "st petersburg": "FL",
    "atlanta": "GA", "atl": "GA", "savannah": "GA", "athens ga": "GA",
    "charlotte": "NC", "raleigh": "NC", "durham": "NC", "greensboro": "NC",
    "nashville": "TN", "memphis": "TN", "knoxville": "TN", "chattanooga": "TN",
    "new orleans": "LA", "nola": "LA", "baton rouge": "LA", "shreveport": "LA",
    "louisville": "KY", "lexington": "KY", "frankfort": "KY",
    "birmingham": "AL", "montgomery": "AL", "huntsville": "AL", "mobile": "AL",
    "jackson ms": "MS", "gulfport": "MS", "biloxi": "MS",
    "little rock": "AR", "fayetteville ar": "AR", "fort smith": "AR",
    "oklahoma city": "OK", "okc": "OK", "tulsa": "OK", "norman": "OK",
    "richmond": "VA", "virginia beach": "VA", "norfolk": "VA", "arlington va": "VA",
    "charleston sc": "SC", "columbia sc": "SC", "greenville sc": "SC",
    "charleston wv": "WV", "huntington wv": "WV", "morgantown": "WV",
    "baltimore": "MD", "annapolis": "MD", "bethesda": "MD",
    "wilmington de": "DE", "dover de": "DE",
    "washington": "DC", "georgetown dc": "DC",
    "san juan": "PR", "ponce": "PR", "bayamon": "PR",
    # Midwest
    "chicago": "IL", "chi-town": "IL", "aurora il": "IL", "naperville": "IL",
    "detroit": "MI", "grand rapids": "MI", "ann arbor": "MI", "lansing": "MI",
    "columbus": "OH", "cleveland": "OH", "cincinnati": "OH", "toledo": "OH",
    "indianapolis": "IN", "indy": "IN", "fort wayne": "IN", "bloomington in": "IN",
    "milwaukee": "WI", "madison": "WI", "green bay": "WI",
    "minneapolis": "MN", "st paul": "MN", "saint paul": "MN", "duluth": "MN",
    "st louis": "MO", "saint louis": "MO", "kansas city mo": "MO", "springfield mo": "MO",
    "kansas city": "MO",
    "wichita": "KS", "topeka": "KS", "overland park": "KS", "lawrence ks": "KS",
    "omaha": "NE", "lincoln ne": "NE", "grand island": "NE",
    "des moines": "IA", "cedar rapids": "IA", "davenport": "IA",
    "fargo": "ND", "bismarck": "ND", "grand forks": "ND",
    "sioux falls": "SD", "rapid city": "SD", "pierre": "SD",
    # West
    "los angeles": "CA", "la": "CA", "l.a.": "CA", "san francisco": "CA",
    "sf": "CA", "san diego": "CA", "sacramento": "CA", "san jose": "CA",
    "oakland": "CA", "fresno": "CA", "long beach": "CA",
    "seattle": "WA", "spokane": "WA", "tacoma": "WA", "olympia": "WA",
    "portland": "OR", "eugene": "OR", "salem or": "OR", "bend": "OR",
    "denver": "CO", "boulder": "CO", "colorado springs": "CO", "fort collins": "CO",
    "phoenix": "AZ", "tucson": "AZ", "mesa": "AZ", "scottsdale": "AZ",
    "las vegas": "NV", "vegas": "NV", "reno": "NV", "henderson": "NV",
    "salt lake city": "UT", "slc": "UT", "provo": "UT", "ogden": "UT",
    "albuquerque": "NM", "santa fe": "NM", "las cruces": "NM",
    "boise": "ID", "idaho falls": "ID", "pocatello": "ID",
    "billings": "MT", "missoula": "MT", "bozeman": "MT", "helena": "MT",
    "cheyenne": "WY", "casper": "WY", "laramie": "WY",
    "anchorage": "AK", "fairbanks": "AK", "juneau": "AK",
    "honolulu": "HI", "hilo": "HI", "kailua": "HI",
}
# fmt: on


def city_state(city: str) -> str | None:
    """State code for a known city name (case-insensitive), else ``None``."""
    return CITY_TO_STATE.get(city.strip().lower())


def _cities_by_state() -> dict[str, tuple[str, ...]]:
    by_state: dict[str, list[str]] = {}
    for city, state in CITY_TO_STATE.items():
        by_state.setdefault(state, []).append(city)
    return {state: tuple(cities) for state, cities in by_state.items()}


#: USPS state code -> its cities in table order, indexed once at import.
_CITIES_BY_STATE = _cities_by_state()


def cities_in_state(abbrev: str) -> tuple[str, ...]:
    """Known city names located in the given state, in table order."""
    return _CITIES_BY_STATE.get(abbrev.strip().upper(), ())
