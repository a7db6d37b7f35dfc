"""Tests for the canonical JSON schema and well-known documents."""

import json

import pytest

from repro.rws import (
    RelatedWebsiteSet,
    RwsList,
    SchemaError,
    member_well_known_document,
    parse_rws_json,
    parse_well_known,
    primary_well_known_document,
    serialize_rws_json,
)
from repro.rws.schema import domain_to_origin, origin_to_domain
from repro.rws.wellknown import well_known_matches

CANONICAL = """
{
  "sets": [
    {
      "contact": "owner@example.com",
      "primary": "https://example.com",
      "associatedSites": ["https://example-news.com"],
      "serviceSites": ["https://example-cdn.net"],
      "rationaleBySite": {
        "https://example-news.com": "Shared branding",
        "https://example-cdn.net": "Asset host"
      },
      "ccTLDs": {
        "https://example.com": ["https://example.de"]
      }
    }
  ]
}
"""


class TestOriginConversion:
    def test_round_trip(self):
        assert origin_to_domain("https://example.com") == "example.com"
        assert domain_to_origin("example.com") == "https://example.com"

    def test_bare_domain_accepted(self):
        assert origin_to_domain("Example.COM") == "example.com"

    def test_trailing_slash_stripped(self):
        assert origin_to_domain("https://example.com/") == "example.com"

    @pytest.mark.parametrize("bad", [
        "http://example.com", "", "https://example.com/path", "not a domain",
        123,
    ])
    def test_rejects(self, bad):
        with pytest.raises(SchemaError):
            origin_to_domain(bad)

    def test_rejects_site_that_is_not_utf8(self):
        # A lone surrogate survives JSON decoding but cannot be
        # UTF-8-encoded, so the membership hash could never digest it.
        with pytest.raises(SchemaError, match="UTF-8"):
            origin_to_domain("https://a\ud800.com")


class TestParse:
    def test_canonical_document(self):
        rws_list = parse_rws_json(CANONICAL, as_of="2024-03-26")
        assert len(rws_list) == 1
        rws_set = rws_list.sets[0]
        assert rws_set.primary == "example.com"
        assert rws_set.associated == ["example-news.com"]
        assert rws_set.service == ["example-cdn.net"]
        assert rws_set.cctlds == {"example.com": ["example.de"]}
        assert rws_set.rationales["example-news.com"] == "Shared branding"
        assert rws_set.contact == "owner@example.com"
        assert rws_list.as_of == "2024-03-26"

    @pytest.mark.parametrize("bad", [
        "not json",
        "[]",
        '{"sets": {}}',
        '{"sets": [{"associatedSites": []}]}',          # No primary.
        '{"sets": [{"primary": "https://a.com", "associatedSites": {}}]}',
        '{"sets": [{"primary": "https://a.com", "ccTLDs": []}]}',
        '{"sets": [{"primary": "https://a.com", "contact": 7}]}',
        '{"sets": [{"primary": "http://a.com"}]}',      # HTTP origin.
    ])
    def test_rejects_malformed(self, bad):
        with pytest.raises(SchemaError):
            parse_rws_json(bad)

    def test_rejects_lone_surrogate_site(self):
        text = json.dumps({"sets": [{"primary": "https://a.com",
                                     "associatedSites":
                                         ["https://a\ud800.com"]}]})
        assert "\\ud800" in text  # the escape, as a wire peer sends it
        with pytest.raises(SchemaError, match="UTF-8"):
            parse_rws_json(text)


class TestSerialize:
    def test_round_trip(self):
        original = parse_rws_json(CANONICAL)
        text = serialize_rws_json(original)
        parsed = parse_rws_json(text)
        assert parsed.sets[0] == original.sets[0]

    def test_empty_subsets_omitted(self):
        rws_set = RelatedWebsiteSet(primary="solo.com",
                                    associated=["friend.com"])
        document = json.loads(serialize_rws_json(RwsList(sets=[rws_set])))
        entry = document["sets"][0]
        assert "serviceSites" not in entry
        assert "ccTLDs" not in entry

    def test_origins_are_https(self):
        rws_list = parse_rws_json(CANONICAL)
        document = json.loads(serialize_rws_json(rws_list))
        assert document["sets"][0]["primary"] == "https://example.com"


class TestWellKnown:
    SET = RelatedWebsiteSet(
        primary="example.com",
        associated=["example-news.com"],
        rationales={"example-news.com": "branding"},
    )

    def test_primary_document_round_trips(self):
        document = primary_well_known_document(self.SET)
        primary, served = parse_well_known(document)
        assert primary == "example.com"
        assert served is not None
        assert served.associated == ["example-news.com"]

    def test_member_document(self):
        document = member_well_known_document("example.com")
        primary, served = parse_well_known(document)
        assert primary == "example.com"
        assert served is None

    def test_matches_ignores_order_and_rationales(self):
        served = RelatedWebsiteSet(
            primary="example.com",
            associated=["example-news.com"],
            rationales={},  # Rationales differ: still a match.
        )
        assert well_known_matches(self.SET, served)

    def test_mismatch_on_membership(self):
        served = RelatedWebsiteSet(primary="example.com",
                                   associated=["other.com"])
        assert not well_known_matches(self.SET, served)

    def test_mismatch_on_primary(self):
        served = RelatedWebsiteSet(primary="other.com",
                                   associated=["example-news.com"])
        assert not well_known_matches(self.SET, served)

    @pytest.mark.parametrize("bad", ["", "{}", "[1,2]", '{"foo": 1}'])
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(SchemaError):
            parse_well_known(bad)
