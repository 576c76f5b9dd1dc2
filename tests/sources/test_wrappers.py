"""Unit tests for the wrapper framework."""

import pytest

from repro.relational.algebra import Scan
from repro.sources.evolution import EndpointVersion, NestFields, RenameField, release_version
from repro.sources.restapi import Endpoint, MockRestServer
from repro.sources.wrappers import RestWrapper, StaticWrapper, Wrapper, WrapperSchemaError


RECORDS = [
    {"id": 1, "name": "Messi", "rating": 94, "team": {"id": 25}},
    {"id": 2, "name": "Lewa", "rating": 92, "team": {"id": 26}},
]


@pytest.fixture
def server():
    s = MockRestServer()
    s.register(Endpoint("players", 1, "json", lambda: [dict(r) for r in RECORDS]))
    return s


class TestSignature:
    def test_signature_rendering(self):
        w = StaticWrapper("w1", ["id", "pName"], [])
        assert w.signature == "w1(id, pName)"

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            StaticWrapper("", ["a"], [])

    def test_empty_attributes_rejected(self):
        with pytest.raises(ValueError):
            StaticWrapper("w", [], [])

    def test_duplicate_attributes_rejected(self):
        with pytest.raises(ValueError):
            StaticWrapper("w", ["a", "a"], [])

    def test_base_fetch_not_implemented(self):
        with pytest.raises(NotImplementedError):
            Wrapper("w", ["a"]).fetch()


class TestStaticWrapper:
    def test_rows_projected_to_signature(self):
        w = StaticWrapper("w", ["id"], [{"id": 1, "extra": True}])
        assert w.fetch() == [{"id": 1}]

    def test_missing_keys_null(self):
        w = StaticWrapper("w", ["id", "x"], [{"id": 1}])
        assert w.fetch() == [{"id": 1, "x": None}]

    def test_fetch_returns_copies(self):
        w = StaticWrapper("w", ["id"], [{"id": 1}])
        w.fetch()[0]["id"] = 99
        assert w.fetch() == [{"id": 1}]

    def test_fetch_relation(self):
        w = StaticWrapper("w", ["id", "name"], [{"id": 1, "name": "A"}])
        rel = w.fetch_relation()
        assert rel.name == "w"
        assert rel.schema.names == ("id", "name")


class TestRestWrapper:
    def test_identity_mapping(self, server):
        w = RestWrapper("w", ["id", "name"], server, "/v1/players")
        assert w.fetch() == [
            {"id": 1, "name": "Messi"},
            {"id": 2, "name": "Lewa"},
        ]

    def test_rename_mapping(self, server):
        w = RestWrapper(
            "w", ["id", "pName"], server, "/v1/players",
            attribute_map={"pName": "name"},
        )
        assert w.fetch()[0]["pName"] == "Messi"

    def test_flattened_nested_path(self, server):
        w = RestWrapper(
            "w", ["id", "teamId"], server, "/v1/players",
            attribute_map={"teamId": "team_id"},
        )
        assert w.fetch()[0]["teamId"] == 25

    def test_computed_attribute(self, server):
        w = RestWrapper(
            "w", ["id", "label"], server, "/v1/players",
            attribute_map={"label": lambda r: f"{r['name']}#{r['id']}"},
        )
        assert w.fetch()[0]["label"] == "Messi#1"

    def test_missing_key_strict_raises(self, server):
        w = RestWrapper("w", ["id", "nope"], server, "/v1/players")
        with pytest.raises(WrapperSchemaError) as exc:
            w.fetch()
        assert exc.value.attribute == "nope"

    def test_missing_key_lenient_nulls(self, server):
        w = RestWrapper("w", ["id", "nope"], server, "/v1/players", strict=False)
        assert w.fetch()[0]["nope"] is None

    def test_computed_failure_strict(self, server):
        w = RestWrapper(
            "w", ["id", "x"], server, "/v1/players",
            attribute_map={"x": lambda r: r["ghost"]},
        )
        with pytest.raises(WrapperSchemaError):
            w.fetch()

    def test_http_error_wrapped(self, server):
        w = RestWrapper("w", ["id"], server, "/v9/players")
        with pytest.raises(WrapperSchemaError):
            w.fetch()

    def test_retired_endpoint_raises(self, server):
        w = RestWrapper("w", ["id"], server, "/v1/players")
        server.retire("players", 1)
        with pytest.raises(WrapperSchemaError):
            w.fetch()

    def test_params_forwarded(self, server):
        w = RestWrapper("w", ["id"], server, "/v1/players", params={"rating": "94"})
        assert w.fetch() == [{"id": 1}]

    def test_xml_payload(self):
        s = MockRestServer()
        s.register(
            Endpoint(
                "teams", 1, "xml",
                lambda: [{"id": 25, "name": "FCB"}],
                item_tag="team", root_tag="teams",
            )
        )
        w = RestWrapper("w2", ["id", "name"], s, "/v1/teams")
        assert w.fetch() == [{"id": "25", "name": "FCB"}]

    def test_csv_payload(self):
        s = MockRestServer()
        s.register(Endpoint("c", 1, "csv", lambda: [{"id": 1, "code": "ES"}]))
        w = RestWrapper("w", ["id", "code"], s, "/v1/c")
        assert w.fetch() == [{"id": "1", "code": "ES"}]

    def test_breaking_change_breaks_old_wrapper(self, server):
        old = RestWrapper(
            "w", ["id", "pName"], server, "/v1/players",
            attribute_map={"pName": "name"},
        )
        assert old.fetch()  # works on v1
        v1 = EndpointVersion("players", 1, "json", lambda: [dict(r) for r in RECORDS])
        v2 = v1.successor([RenameField("name", "fullName")])
        release_version(server, v2, retire_previous=True)
        with pytest.raises(WrapperSchemaError):
            old.fetch()
        fixed = RestWrapper(
            "w2", ["id", "pName"], server, "/v2/players",
            attribute_map={"pName": "fullName"},
        )
        assert fixed.fetch()[0]["pName"] == "Messi"

    def test_pagination_fetches_all_pages(self):
        s = MockRestServer()
        records = [{"id": i, "v": f"x{i}"} for i in range(25)]
        s.register(Endpoint("items", 1, "json", lambda: records, page_size=10))
        w = RestWrapper("wp", ["id", "v"], s, "/v1/items", paginate=True)
        assert len(w.fetch()) == 25

    def test_without_pagination_only_first_page(self):
        s = MockRestServer()
        records = [{"id": i} for i in range(25)]
        s.register(Endpoint("items", 1, "json", lambda: records, page_size=10))
        w = RestWrapper("wp", ["id"], s, "/v1/items")
        assert len(w.fetch()) == 10

    def test_pagination_exact_page_boundary(self):
        s = MockRestServer()
        records = [{"id": i} for i in range(20)]
        s.register(Endpoint("items", 1, "json", lambda: records, page_size=10))
        w = RestWrapper("wp", ["id"], s, "/v1/items", paginate=True)
        assert len(w.fetch()) == 20

    def test_pagination_on_unpaginated_endpoint(self, server):
        w = RestWrapper("wp", ["id"], server, "/v1/players", paginate=True)
        assert len(w.fetch()) == 2
        assert len(server.request_log) == 1

    @pytest.mark.parametrize("page_size", [10, None])
    def test_pagination_pages_by_the_per_page_sent(self, page_size):
        s = MockRestServer()
        records = [{"id": i} for i in range(12)]
        s.register(Endpoint("things", 1, "json", lambda: records, page_size=page_size))
        w = RestWrapper(
            "w", ["id"], s, "/v1/things", paginate=True, params={"per_page": "5"}
        )
        assert w.fetch() == records
        assert [r.params["page"] for r in s.request_log] == ["1", "2", "3"]

    def test_pagination_full_last_page_ends_on_the_empty_page(self):
        s = MockRestServer()
        records = [{"id": i} for i in range(10)]
        s.register(Endpoint("things", 1, "json", lambda: records))
        w = RestWrapper(
            "w", ["id"], s, "/v1/things", paginate=True, params={"per_page": "5"}
        )
        assert w.fetch() == records
        assert [r.params["page"] for r in s.request_log] == ["1", "2", "3"]

    def test_nesting_change_breaks_old_wrapper(self, server):
        v1 = EndpointVersion("players", 1, "json", lambda: [dict(r) for r in RECORDS])
        v2 = v1.successor([NestFields(["rating"], "stats")])
        release_version(server, v2, retire_previous=True)
        old = RestWrapper("w", ["id", "rating"], server, "/v2/players")
        with pytest.raises(WrapperSchemaError):
            old.fetch()
        fixed = RestWrapper(
            "w2", ["id", "rating"], server, "/v2/players",
            attribute_map={"rating": "stats_rating"},
        )
        assert fixed.fetch()[0]["rating"] == 94


class TestRestPrefilter:
    """``supports_filters=True``: which pushed conjuncts ride to the
    endpoint as query parameters, and when the full payload is refetched."""

    @staticmethod
    def wrapper(server, **kwargs):
        return RestWrapper(
            "w", ["id", "pName", "rating", "teamId", "label"], server, "/v1/players",
            attribute_map={
                "pName": "name",
                "teamId": "team.id",
                "label": lambda r: f"{r['name']}#{r['id']}",
            },
            supports_filters=True,
            **kwargs,
        )

    @pytest.mark.parametrize(
        "conjunct",
        [
            ("rating", "=", 94),  # not a string value
            ("pName", "!=", "Lewa"),  # not an equality
            ("pName", ">=", "Lewa"),
            ("teamId", "=", "25"),  # dotted payload key
            ("label", "=", "Messi#1"),  # computed attribute
        ],
    )
    def test_conjuncts_that_stay_mediator_side(self, server, conjunct):
        assert self.wrapper(server)._prefilter_params(Scan("w", (conjunct,))) is None

    def test_string_equality_on_a_mapped_plain_key_rides(self, server):
        scan = Scan("w", (("pName", "=", "Messi"), ("rating", "=", 94)))
        assert self.wrapper(server)._prefilter_params(scan) == {"name": "Messi"}

    def test_standing_parameters_are_kept_and_never_overridden(self, server):
        w = self.wrapper(server, params={"name": "Lewa", "per_page": "5"})
        scan = Scan("w", (("pName", "=", "Messi"), ("rating", "=", "94")))
        assert w._prefilter_params(scan) == {
            "name": "Lewa",
            "per_page": "5",
            "rating": "94",
        }
        assert w._prefilter_params(Scan("w", (("pName", "=", "Messi"),))) is None

    def test_pagination_parameters_never_ride(self, server):
        w = RestWrapper(
            "w", ["id", "page", "per_page"], server, "/v1/players",
            strict=False, supports_filters=True,
        )
        scan = Scan("w", (("page", "=", "2"), ("per_page", "=", "1")))
        assert w._prefilter_params(scan) is None

    def test_no_prefilter_without_the_opt_in_or_without_filters(self, server):
        plain = RestWrapper("w", ["id", "name"], server, "/v1/players")
        assert plain.capabilities() == frozenset({"projection"})
        assert plain._prefilter_params(Scan("w", (("name", "=", "Messi"),))) is None
        w = self.wrapper(server)
        assert w.capabilities() == frozenset({"filters", "projection"})
        assert w._prefilter_params(Scan("w", columns=("id",))) is None

    def test_prefiltered_fetch_transfers_only_matching_rows(self, server):
        w = RestWrapper("w", ["id", "name"], server, "/v1/players", supports_filters=True)
        scan = Scan("w", (("name", "=", "Messi"),), ("id",))
        result, attempts = w.fetch_request(scan)
        assert attempts == 1
        assert result.relation.schema.names == ("id",)
        assert result.relation.rows == ((1,),)
        assert result.rows_transferred == 1
        assert result.rows_source is None  # the full payload never crossed
        assert [r.params for r in server.request_log] == [{"name": "Messi"}]

    def test_empty_prefiltered_answer_refetches_in_full(self, server):
        w = RestWrapper("w", ["id", "name"], server, "/v1/players", supports_filters=True)
        result, _ = w.fetch_request(Scan("w", (("name", "=", "Nobody"),)))
        assert len(result.relation) == 0
        assert result.relation.schema == w.fetch_relation().schema
        assert result.rows_transferred == 2
        assert result.rows_source == 2
        assert [r.params for r in server.request_log][:2] == [{"name": "Nobody"}, {}]

    def test_all_null_prefiltered_column_refetches_in_full(self):
        s = MockRestServer()
        records = [{"id": 1, "name": "A", "nick": None}, {"id": 2, "name": "B", "nick": "b"}]
        s.register(Endpoint("p", 1, "json", lambda: [dict(r) for r in records]))
        w = RestWrapper("w", ["id", "name", "nick"], s, "/v1/p", supports_filters=True)
        result, _ = w.fetch_request(Scan("w", (("name", "=", "A"),)))
        assert result.relation.rows == ((1, "A", None),)
        assert result.relation.schema == w.fetch_relation().schema
        assert result.rows_transferred == 2 and result.rows_source == 2
