"""XML citation rendering."""

from __future__ import annotations

from typing import TYPE_CHECKING
from xml.sax.saxutils import escape

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.citation import Citation
    from repro.core.record import CitationRecord

#: Characters an attribute value cannot hold as is: the delimiting quote, and
#: whitespace a parser would normalise to a space.
_ATTRIBUTE_ENTITIES = {'"': "&quot;", "\n": "&#10;", "\r": "&#13;", "\t": "&#9;"}


def _attribute(name: str, value: object) -> str:
    """``name="value"``, escaped so a parser reads back exactly *value*."""
    return f'{name}="{escape(str(value), _ATTRIBUTE_ENTITIES)}"'


def _render_value(name: str, value: object, indent: str) -> list[str]:
    if isinstance(value, tuple) and name == "parameters":
        lines = [f"{indent}<parameters>"]
        for key, parameter_value in value:
            lines.append(
                f"{indent}  <parameter {_attribute('name', key)}>"
                f"{escape(str(parameter_value))}</parameter>"
            )
        lines.append(f"{indent}</parameters>")
        return lines
    if isinstance(value, tuple):
        lines = [f"{indent}<{name}>"]
        for item in value:
            lines.append(f"{indent}  <item>{escape(str(item))}</item>")
        lines.append(f"{indent}</{name}>")
        return lines
    return [f"{indent}<{name}>{escape(str(value))}</{name}>"]


def format_record(record: "CitationRecord", indent: str = "  ") -> str:
    """Render one record as a ``<record>`` element."""
    lines = [f"{indent}<record>"]
    for name, value in sorted(record.as_dict().items()):
        lines.extend(_render_value(name, value, indent + "  "))
    lines.append(f"{indent}</record>")
    return "\n".join(lines)


def format_citation(citation: "Citation") -> str:
    """Render a full citation as a ``<citation>`` document."""
    attributes = []
    if citation.version:
        attributes.append(_attribute("version", citation.version))
    if citation.timestamp:
        attributes.append(_attribute("timestamp", citation.timestamp))
    opening = "<citation" + ("".join(" " + a for a in attributes)) + ">"
    lines = ['<?xml version="1.0" encoding="UTF-8"?>', opening]
    if citation.query_text:
        lines.append(f"  <query>{escape(citation.query_text)}</query>")
    if citation.expression is not None:
        lines.append(f"  <expression>{escape(citation.symbolic())}</expression>")
    for record in citation.sorted_records():
        lines.append(format_record(record))
    lines.append("</citation>")
    return "\n".join(lines)
