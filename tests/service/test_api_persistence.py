"""Unit tests for the MDM REST service and persistence layer."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.rdf.namespaces import EX
from repro.scenarios.football import FootballScenario
from repro.service.api import MdmService
from repro.service.persistence import (
    DATASET_FILE,
    METADATA_FILE,
    attach_wrappers,
    load_mdm,
    save_mdm,
)


@pytest.fixture
def service():
    svc = MdmService()
    svc.request("POST", "/globalGraph/concepts", {"iri": EX.Thing.value})
    svc.request(
        "POST",
        "/globalGraph/features",
        {"iri": EX.thingId.value, "concept": EX.Thing.value, "identifier": True},
    )
    svc.request(
        "POST",
        "/globalGraph/features",
        {"iri": EX.thingName.value, "concept": EX.Thing.value},
    )
    svc.request("POST", "/sources", {"name": "things"})
    svc.request(
        "POST",
        "/sources/things/wrappers",
        {
            "name": "wt",
            "attributes": ["id", "name"],
            "rows": [{"id": 1, "name": "A"}, {"id": 2, "name": "B"}],
        },
    )
    svc.request(
        "POST",
        "/wrappers/wt/mapping",
        {"features": {"id": EX.thingId.value, "name": EX.thingName.value}},
    )
    return svc


class TestServiceHappyPath:
    def test_global_graph_listing(self, service):
        response = service.request("GET", "/globalGraph")
        assert response.ok
        assert EX.Thing.value in response.body["concepts"]
        identifiers = [
            f for f in response.body["features"] if f["identifier"]
        ]
        assert len(identifiers) == 1

    def test_sources_listing(self, service):
        response = service.request("GET", "/sources")
        assert response.body[0]["wrappers"][0]["name"] == "wt"

    def test_releases_listing(self, service):
        response = service.request("GET", "/releases")
        assert response.body[0]["wrapper"] == "wt"
        assert response.body[0]["kind"] == "new-source"

    def test_query_executes(self, service):
        response = service.request(
            "POST", "/query", {"nodes": [EX.Thing.value, EX.thingName.value]}
        )
        assert response.ok
        assert response.body["rows"] == [["A"], ["B"]]
        assert "SELECT" in response.body["sparql"]
        assert "π" in response.body["algebra"]

    def test_query_rewrite_only(self, service):
        response = service.request(
            "POST",
            "/query",
            {"nodes": [EX.Thing.value, EX.thingName.value], "execute": False},
        )
        assert response.ok
        assert "rows" not in response.body

    def test_trig_snapshot(self, service):
        response = service.request("GET", "/metadata/trig")
        assert "wrapper/wt" in response.body["trig"]

    def test_summary(self, service):
        response = service.request("GET", "/summary")
        assert response.body["concepts"] == 1
        assert response.body["mappings"] == 1

    def test_suggestion_endpoint(self, service):
        service.request(
            "POST",
            "/sources/things/wrappers",
            {"name": "wt2", "attributes": ["id", "name", "extra"]},
        )
        response = service.request("GET", "/wrappers/wt2/suggestion")
        assert response.ok
        assert response.body["unmapped_attributes"] == ["extra"]
        assert not response.body["complete"]


class TestSparqlAndImpactEndpoints:
    def test_sparql_query_endpoint(self, service):
        response = service.request(
            "POST",
            "/query/sparql",
            {
                "sparql": (
                    "PREFIX e: <http://www.essi.upc.edu/example/> "
                    "SELECT ?thingName WHERE { ?t rdf:type "
                    "<http://www.essi.upc.edu/example/Thing> . "
                    "?t <http://www.essi.upc.edu/example/thingName> ?thingName }"
                )
            },
        )
        assert response.ok, response.body
        assert response.body["rows"] == [["A"], ["B"]]

    def test_sparql_query_rewrite_only(self, service):
        response = service.request(
            "POST",
            "/query/sparql",
            {
                "sparql": (
                    "SELECT ?thingName WHERE { ?t rdf:type "
                    "<http://www.essi.upc.edu/example/Thing> . "
                    "?t <http://www.essi.upc.edu/example/thingName> ?thingName }"
                ),
                "execute": False,
            },
        )
        assert response.ok
        assert "rows" not in response.body
        assert response.body["ucq_size"] == 1

    def test_sparql_query_bad_fragment_422(self, service):
        response = service.request(
            "POST",
            "/query/sparql",
            {"sparql": "SELECT ?x WHERE { ?x ?p ?y OPTIONAL { ?x ?q ?z } }"},
        )
        assert response.status == 422

    def test_impact_endpoint(self, service):
        service.request(
            "POST",
            "/query",
            {
                "nodes": [
                    "http://www.essi.upc.edu/example/Thing",
                    "http://www.essi.upc.edu/example/thingName",
                ]
            },
        )
        response = service.request("GET", "/impact/things")
        assert response.ok
        assert response.body["wrappers"] == ["wt"]
        assert response.body["affected_queries"] >= 1

    def test_impact_unknown_source_404(self, service):
        assert service.request("GET", "/impact/ghost").status == 404


class TestSavedQueryEndpoints:
    def _save(self, service):
        return service.request(
            "POST",
            "/queries/saved",
            {
                "name": "things-by-name",
                "nodes": [EX.Thing.value, EX.thingName.value],
                "description": "all thing names",
            },
        )

    def test_save_and_list(self, service):
        assert self._save(service).ok
        listing = service.request("GET", "/queries/saved")
        assert listing.body[0]["name"] == "things-by-name"
        assert listing.body[0]["description"] == "all thing names"

    def test_list_is_one_read_when_a_delete_lands_mid_listing(
        self, service, monkeypatch
    ):
        from repro.docstore.store import Collection

        for name in ("a", "b"):
            body = {"name": name, "nodes": [EX.Thing.value, EX.thingName.value]}
            assert service.request("POST", "/queries/saved", body).ok
        find = Collection.find
        reads = []

        def find_then_delete_b(self, *args, **kwargs):
            found = find(self, *args, **kwargs)
            if self.name == "saved_queries" and not reads:
                reads.append(found)
                self.delete_one({"name": "b"})
            return found

        monkeypatch.setattr(Collection, "find", find_then_delete_b)
        listing = service.request("GET", "/queries/saved")
        assert listing.status == 200
        assert [q["name"] for q in listing.body] == ["a", "b"]
        assert listing.body[0] == {
            "name": "a",
            "description": "",
            "walk": reads[0][0]["walk"],
        }
        assert [q["name"] for q in service.request("GET", "/queries/saved").body] == ["a"]

    def test_run_saved(self, service):
        self._save(service)
        response = service.request("POST", "/queries/saved/things-by-name/run")
        assert response.ok
        assert response.body["rows"] == [["A"], ["B"]]

    def test_run_missing_404(self, service):
        assert service.request("POST", "/queries/saved/nope/run").status == 404

    def test_delete_saved(self, service):
        self._save(service)
        assert service.request("DELETE", "/queries/saved/things-by-name").ok
        assert (
            service.request("DELETE", "/queries/saved/things-by-name").status
            == 404
        )

    def test_revalidate_endpoint(self, service):
        self._save(service)
        response = service.request("GET", "/queries/revalidate")
        assert response.ok
        assert response.body[0]["ok"] is True
        executed = service.request(
            "GET", "/queries/revalidate", query={"execute": "true"}
        )
        assert executed.body[0]["rows"] == 2

    def test_save_invalid_nodes_422(self, service):
        response = service.request(
            "POST",
            "/queries/saved",
            {"name": "bad", "nodes": ["http://nope/x"]},
        )
        assert response.status in (422, 500)


class TestServiceErrors:
    def test_missing_body_field_400(self, service):
        response = service.request("POST", "/globalGraph/concepts", {})
        assert response.status == 400

    def test_invalid_iri_400(self, service):
        response = service.request(
            "POST", "/globalGraph/concepts", {"iri": "has spaces"}
        )
        assert response.status == 400

    def test_unreloadable_iri_400(self, service):
        # "{" is outside the IRIREF production: a snapshot holding it
        # could be saved but never loaded.
        response = service.request(
            "POST", "/globalGraph/concepts", {"iri": "http://example.org/Team{v2}"}
        )
        assert response.status == 400
        assert "http://example.org/Team" not in service.mdm.to_trig()

    def test_duplicate_wrapper_409(self, service):
        response = service.request(
            "POST",
            "/sources/things/wrappers",
            {"name": "wt", "attributes": ["id"]},
        )
        assert response.status == 409

    def test_bad_mapping_422(self, service):
        response = service.request(
            "POST",
            "/wrappers/wt/mapping",
            {"features": {"ghost": EX.thingId.value}},
        )
        assert response.status == 422

    def test_query_unknown_node_500_family(self, service):
        response = service.request(
            "POST", "/query", {"nodes": ["http://nope/x"]}
        )
        assert not response.ok

    def test_query_empty_nodes_400(self, service):
        response = service.request("POST", "/query", {"nodes": []})
        assert response.status == 400

    def test_bad_attributes_type_400(self, service):
        response = service.request(
            "POST",
            "/sources/things/wrappers",
            {"name": "w9", "attributes": "id"},
        )
        assert response.status == 400

    def test_bad_edge_shape_400(self, service):
        response = service.request(
            "POST",
            "/wrappers/wt/mapping",
            {"features": {}, "edges": [["only-two", "parts"]]},
        )
        assert response.status == 400


class TestPersistence:
    def test_roundtrip_preserves_answers(self, tmp_path):
        scenario = FootballScenario.build(anchors_only=True)
        walk = scenario.walk_player_team_names()
        expected = set(scenario.mdm.execute(walk).relation.rows)
        save_mdm(scenario.mdm, tmp_path)
        restored = load_mdm(tmp_path)
        attach_wrappers(restored, scenario.mdm.wrappers.values())
        walk2 = restored.walk_from_nodes(
            list(walk.concepts | walk.features)
        )
        assert set(restored.execute(walk2).relation.rows) == expected

    def test_snapshot_with_sources_documents_loads_and_resaves(self, tmp_path):
        """Older snapshots also hold one ``sources`` document per source;
        they load, and a re-save writes those documents back unchanged."""
        scenario = FootballScenario.build(anchors_only=True)
        walk = scenario.walk_player_team_names()
        scenario.mdm.saved_queries.save("rosters", walk, "desc")
        save_mdm(scenario.mdm, tmp_path)
        metadata = tmp_path / METADATA_FILE
        sources = [
            json.dumps(
                {
                    "collection": "sources",
                    "document": {
                        "_id": f"sources-{n:06d}",
                        "iri": iri.value,
                        "label": name,
                        "name": name,
                    },
                },
                sort_keys=True,
            )
            for n, (name, iri) in enumerate(sorted(scenario.mdm.sources().items()), 1)
        ]
        lines = metadata.read_text().splitlines() + sources
        assert any('"_id": "saved_queries-000001"' in line for line in lines)
        metadata.write_text("\n".join(lines) + "\n")
        old_text = metadata.read_text()

        loaded = load_mdm(tmp_path)
        assert loaded.governance.history() == scenario.mdm.governance.history()
        assert loaded.saved_queries.get("rosters").description == "desc"
        loaded.saved_queries.save("rosters", loaded.saved_queries.get("rosters").walk, "desc")
        assert len(loaded.saved_queries) == 1
        save_mdm(loaded, tmp_path)
        assert metadata.read_text() == old_text

    def test_roundtrip_preserves_releases(self, tmp_path):
        scenario = FootballScenario.build(anchors_only=True)
        save_mdm(scenario.mdm, tmp_path)
        restored = load_mdm(tmp_path)
        assert len(restored.governance.history()) == 6

    def test_source_names_survive_roundtrip(self, tmp_path):
        """A name outside [A-Za-z0-9_] is minted sanitized; the loaded
        MDM must still resolve it by the name it was registered under."""
        from repro.core.mdm import MDM
        from repro.sources.wrappers import StaticWrapper

        live = MDM()
        iri = live.register_source("my-source", "My Source")
        save_mdm(live, tmp_path)
        restored = load_mdm(tmp_path)
        assert restored.source_iri("my-source") == iri
        registration = restored.register_wrapper(
            "my-source", StaticWrapper("wMine", ["id"], [])
        )
        assert registration.source == iri
        assert restored.source_name_of(iri) == live.source_name_of(iri)
        assert restored.sources() == live.sources() == {"my_source": iri}

    def test_unreloadable_iri_never_reaches_a_snapshot(self, tmp_path):
        # Before IRI() refused it, this concept saved fine and load_mdm
        # failed with "unexpected character '<'".
        from repro.core.mdm import MDM
        from repro.rdf.terms import IRI

        live = MDM()
        with pytest.raises(ValueError):
            live.add_concept(IRI("http://example.org/Team{v2}"))
        save_mdm(live, tmp_path)
        assert load_mdm(tmp_path).to_trig() == live.to_trig()

    def test_iri_ending_in_a_dot_survives_roundtrip(self, tmp_path):
        # "sc:SportsTeam." would read back as sc:SportsTeam plus a
        # statement terminator, so the snapshot spells the IRI out.
        from repro.core.mdm import MDM
        from repro.rdf.namespaces import SC

        live = MDM()
        concept = live.add_concept(SC["SportsTeam."])
        save_mdm(live, tmp_path)
        restored = load_mdm(tmp_path)
        assert restored.global_graph.concepts() == [concept]
        assert restored.to_trig() == live.to_trig()

    def test_snapshot_is_utf8_whatever_the_locale(self, tmp_path):
        """A process whose locale encoding is ASCII saves and reloads a
        non-ASCII label, loads a snapshot a UTF-8 process wrote, and
        writes the same bytes that process did."""
        from repro.core.mdm import MDM

        label = "Thomas M\u00fcller \u65e5\u672c"
        live = MDM()
        live.add_concept(EX.Player, label)
        save_mdm(live, tmp_path / "utf8")
        # The script stays ASCII: under the C locale argv is decoded as
        # ASCII too.
        code = (
            "import codecs, locale, sys\n"
            "from repro.core.mdm import MDM\n"
            "from repro.rdf.namespaces import EX\n"
            "from repro.service.persistence import load_mdm, save_mdm\n"
            "utf8_dir, c_dir = sys.argv[1:]\n"
            "print(codecs.lookup(locale.getpreferredencoding(False)).name)\n"
            "live = MDM()\n"
            f"live.add_concept(EX.Player, {label!a})\n"
            "save_mdm(live, c_dir)\n"
            "assert load_mdm(c_dir).to_trig() == live.to_trig()\n"
            "assert load_mdm(utf8_dir).to_trig() == live.to_trig()\n"
        )
        env = dict(
            os.environ,
            LC_ALL="C",
            PYTHONUTF8="0",
            PYTHONCOERCECLOCALE="0",
            PYTHONPATH=str(Path(repro.__file__).resolve().parent.parent),
        )
        proc = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path / "utf8"), str(tmp_path / "c")],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["ascii"]
        written = (tmp_path / "c" / DATASET_FILE).read_bytes()
        assert written == (tmp_path / "utf8" / DATASET_FILE).read_bytes()
        assert label.encode("utf-8") in written

    def test_load_missing_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_mdm(tmp_path / "nowhere")

    def test_attach_unknown_wrapper_raises(self, tmp_path):
        scenario = FootballScenario.build(anchors_only=True)
        save_mdm(scenario.mdm, tmp_path)
        restored = load_mdm(tmp_path)
        from repro.sources.wrappers import StaticWrapper

        with pytest.raises(KeyError):
            attach_wrappers(restored, [StaticWrapper("ghost", ["a"], [])])

    def test_summary_preserved(self, tmp_path):
        scenario = FootballScenario.build(anchors_only=True)
        before = scenario.mdm.summary()
        save_mdm(scenario.mdm, tmp_path)
        restored = load_mdm(tmp_path)
        after = restored.summary()
        assert after["concepts"] == before["concepts"]
        assert after["wrappers"] == before["wrappers"]
        assert after["mappings"] == before["mappings"]
        assert after["releases"] == before["releases"]


class TestReportEndpoint:
    def test_report(self, service):
        response = service.request("GET", "/report")
        assert response.ok
        assert response.body["summary"]["concepts"] == 1
        assert response.body["issues"] == []

    def test_report_with_execution(self, service):
        service.request(
            "POST",
            "/queries/saved",
            {"name": "q", "nodes": [EX.Thing.value, EX.thingName.value]},
        )
        response = service.request(
            "GET", "/report", query={"execute": "true"}
        )
        assert response.body["saved_queries"]["ok"] == 1
