"""Ground truth for every walk the benchmark runs.

Each oracle is computed from the generated inputs (the football dataset,
the SUPERSEDE-style records), never from MDM output, and returns
``(columns, rows)``: the column names the walk projects and the set of
distinct rows it must return.  Values are compared as strings, so a
float decoded from CSV or JSON matches the value it was generated from.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Set, Tuple

from repro.scenarios.supersede import _PRODUCTS
from repro.sources.datagen import FootballDataset

__all__ = [
    "ANCHOR_LEAGUE_NATIONALITY",
    "Answer",
    "feedback_by_product",
    "league_nationality",
    "matches",
    "metrics_by_product",
    "player_team_names",
    "reviews",
    "single_concept",
]

Answer = Tuple[Tuple[str, ...], Set[Tuple[str, ...]]]


def _answer(columns: Sequence[str], rows: Iterable[Sequence[object]]) -> Answer:
    return tuple(columns), {tuple(str(v) for v in row) for row in rows}


def matches(expected: Answer, columns: Sequence[str], rows: Sequence[Sequence[object]]) -> bool:
    """True when a result has the expected columns and exactly its rows."""
    want_columns, want_rows = expected
    got = _answer(columns, rows)
    return got[0] == want_columns and len(rows) == len(want_rows) and got[1] == want_rows


#: The paper's intro query over the anchors: the three players whose
#: nationality is their league's country.
ANCHOR_LEAGUE_NATIONALITY: Answer = _answer(
    ["playerName"], [["Sergio Ramos"], ["Thomas Muller"], ["Marcus Rashford"]]
)


def league_nationality(data: FootballDataset) -> Answer:
    """"Players that play in a league of their nationality" (paper §1)."""
    return _answer(["playerName"], [[p.name] for p in data.players_in_national_league()])


def player_team_names(data: FootballDataset) -> Answer:
    """The Figure 8 walk: each player's name with their team's name."""
    return _answer(
        ["playerName", "teamName"],
        [[p.name, data.team_by_id(p.team_id).name] for p in data.players],
    )


def single_concept(data: FootballDataset) -> Answer:
    """Every Player feature (a one-concept walk)."""
    return _answer(
        ["height", "playerName", "preferredFoot", "rating", "weight"],
        [[p.height, p.name, p.preferred_foot, p.rating, p.weight] for p in data.players],
    )


_PRODUCT_BY_ID = {pid: (name, category) for pid, name, category in _PRODUCTS}


def feedback_by_product(records) -> Answer:
    """Feedback sentiment and text joined with the product name."""
    return _answer(
        ["productName", "sentiment", "text"],
        [
            [_PRODUCT_BY_ID[f["product_id"]][0], f["sentiment"], f["text"]]
            for f in records["feedback"]
        ],
    )


def metrics_by_product(records) -> Answer:
    """QoS metric kind and value joined with the product name."""
    return _answer(
        ["metricKind", "metricValue", "productName"],
        [
            [m["kind"], m["value"], _PRODUCT_BY_ID[m["product_id"]][0]]
            for m in records["metrics"]
        ],
    )


def reviews(records) -> Answer:
    """Review stars joined with the product category."""
    return _answer(
        ["category", "stars"],
        [[_PRODUCT_BY_ID[r["product_id"]][1], r["stars"]] for r in records["reviews"]],
    )
