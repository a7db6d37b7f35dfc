"""Canonical RWS JSON schema (parse and serialize).

The published list (``related_website_sets.JSON`` in the
GoogleChrome/related-website-sets repository) looks like::

    {
      "sets": [
        {
          "contact": "owner@example.com",
          "primary": "https://example.com",
          "associatedSites": ["https://example-assoc.com"],
          "serviceSites": ["https://example-cdn.com"],
          "rationaleBySite": {
            "https://example-assoc.com": "Shared branding ...",
            "https://example-cdn.com": "Asset host for example.com"
          },
          "ccTLDs": {
            "https://example.com": ["https://example.in"]
          }
        }
      ]
    }

Sites are spelled as ``https://`` origins; the model layer works with
bare registrable domains, so this module converts in both directions.
"""

from __future__ import annotations

import json
from typing import Any

from repro.rws.model import RelatedWebsiteSet, RwsList


class SchemaError(ValueError):
    """Raised when RWS JSON is structurally invalid."""


def origin_to_domain(origin: str) -> str:
    """``https://example.com`` -> ``example.com``.

    Accepts bare domains too (normalising case), so hand-written inputs
    parse; rejects non-HTTPS origins because the RWS format requires
    HTTPS.

    Raises:
        SchemaError: For http:// origins or malformed values, including
            a site that cannot be UTF-8-encoded (a lone surrogate).
    """
    if not isinstance(origin, str) or not origin.strip():
        raise SchemaError(f"site entry must be a non-empty string: {origin!r}")
    try:
        origin.encode("utf-8")
    except UnicodeEncodeError:
        raise SchemaError(f"site is not valid UTF-8: {origin!r}") from None
    text = origin.strip().lower()
    if text.startswith("http://"):
        raise SchemaError(f"RWS sites must be HTTPS origins: {origin!r}")
    if text.startswith("https://"):
        text = text[len("https://"):]
    text = text.rstrip("/")
    if not text or "/" in text or " " in text:
        raise SchemaError(f"malformed site origin: {origin!r}")
    return text


def domain_to_origin(domain: str) -> str:
    """``example.com`` -> ``https://example.com``."""
    return f"https://{domain.lower()}"


def parse_set_object(obj: dict[str, Any]) -> RelatedWebsiteSet:
    """Parse one set object from canonical JSON.

    Raises:
        SchemaError: On missing primary, wrong field types, or malformed
            origins.
    """
    if not isinstance(obj, dict):
        raise SchemaError(f"set entry must be an object, got {type(obj).__name__}")
    if "primary" not in obj:
        raise SchemaError("set object lacks required field 'primary'")
    primary = origin_to_domain(obj["primary"])

    def site_list(key: str) -> list[str]:
        raw = obj.get(key, [])
        if not isinstance(raw, list):
            raise SchemaError(f"field {key!r} must be a list")
        return [origin_to_domain(entry) for entry in raw]

    associated = site_list("associatedSites")
    service = site_list("serviceSites")

    raw_cctlds = obj.get("ccTLDs", {})
    if not isinstance(raw_cctlds, dict):
        raise SchemaError("field 'ccTLDs' must be an object")
    cctlds = {
        origin_to_domain(member): [origin_to_domain(v) for v in variants]
        for member, variants in raw_cctlds.items()
    }

    raw_rationales = obj.get("rationaleBySite", {})
    if not isinstance(raw_rationales, dict):
        raise SchemaError("field 'rationaleBySite' must be an object")
    rationales = {
        origin_to_domain(site): str(text)
        for site, text in raw_rationales.items()
    }

    contact = obj.get("contact")
    if contact is not None and not isinstance(contact, str):
        raise SchemaError("field 'contact' must be a string")

    return RelatedWebsiteSet(
        primary=primary,
        associated=associated,
        service=service,
        cctlds=cctlds,
        rationales=rationales,
        contact=contact,
    )


def parse_rws_json(text: str, *, as_of: str | None = None) -> RwsList:
    """Parse a full canonical RWS list document.

    Args:
        text: JSON text.
        as_of: Optional snapshot date to attach.

    Raises:
        SchemaError: On JSON syntax errors or structural violations.
    """
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}") from None
    if not isinstance(document, dict):
        raise SchemaError("top level of RWS JSON must be an object")
    raw_sets = document.get("sets")
    if not isinstance(raw_sets, list):
        raise SchemaError("top-level 'sets' field must be a list")
    sets = [parse_set_object(entry) for entry in raw_sets]
    return RwsList(sets=sets, as_of=as_of)


def serialize_set_object(rws_set: RelatedWebsiteSet) -> dict[str, Any]:
    """Render one set back to its canonical JSON object form."""
    obj: dict[str, Any] = {"primary": domain_to_origin(rws_set.primary)}
    if rws_set.contact:
        obj["contact"] = rws_set.contact
    if rws_set.associated:
        obj["associatedSites"] = [domain_to_origin(s) for s in rws_set.associated]
    if rws_set.service:
        obj["serviceSites"] = [domain_to_origin(s) for s in rws_set.service]
    if rws_set.rationales:
        obj["rationaleBySite"] = {
            domain_to_origin(site): text
            for site, text in sorted(rws_set.rationales.items())
        }
    if rws_set.cctlds:
        obj["ccTLDs"] = {
            domain_to_origin(member): [domain_to_origin(v) for v in variants]
            for member, variants in sorted(rws_set.cctlds.items())
        }
    return obj


def serialize_rws_json(rws_list: RwsList, *, indent: int = 2) -> str:
    """Render a full list to canonical JSON text."""
    document = {"sets": [serialize_set_object(s) for s in rws_list.sets]}
    return json.dumps(document, indent=indent, sort_keys=False)
