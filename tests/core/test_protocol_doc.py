"""The committed PROTOCOL.md appendix and connection-state table must match
the code they are generated from.

Appendix A is rendered by :func:`protocol_appendix` from the
``repro.core.messages`` docstrings and the ``repro.core.wire`` codec table,
§5.4's table by :func:`lifecycle_table` from
:data:`repro.core.connection.LIFECYCLE`; editing the schema or the
lifecycle without regenerating the document (or vice versa) fails here.
Regenerate with::

    PYTHONPATH=src python -m tests.core.test_protocol_doc             # Appendix A
    PYTHONPATH=src python -m tests.core.test_protocol_doc lifecycle   # §5.4 table
"""

import inspect
import sys
from pathlib import Path

from repro.core import messages as msgs
from repro.core import wire
from repro.core.chunnel import ChunnelSpec, ImplMeta, Offer
from repro.core.connection import LIFECYCLE
from repro.core.dag import ChunnelDag
from repro.core.resources import ResourceVector
from repro.sim import Address

PROTOCOL_MD = Path(__file__).resolve().parents[2] / "PROTOCOL.md"


def _docstring_parts(cls) -> tuple[str, str, str]:
    """(summary paragraph, direction, retransmit) from the docstring."""
    doc = inspect.cleandoc(cls.__doc__ or "")
    summary = []
    direction = retransmit = "—"
    collecting = "summary"
    for line in doc.splitlines():
        stripped = line.strip()
        if stripped.startswith("Direction:"):
            collecting = "direction"
            direction = stripped[len("Direction:"):].strip()
        elif stripped.startswith("Retransmit:"):
            collecting = "retransmit"
            retransmit = stripped[len("Retransmit:"):].strip()
        elif not stripped:
            if collecting == "summary" and summary:
                collecting = "done"
        elif collecting == "summary":
            summary.append(stripped)
        elif collecting == "direction":
            direction += " " + stripped
        elif collecting == "retransmit":
            retransmit += " " + stripped
    return " ".join(summary), direction, retransmit


def _field_list(codec) -> str:
    return ", ".join(f"`{name}`: {tp}" for name, tp in zip(codec.names, codec.types))


def protocol_appendix() -> str:
    """The PROTOCOL.md control-message catalogue."""
    lines = [
        "## Appendix A — control-message catalogue",
        "",
        "Generated from the `repro.core.messages` schema and the "
        "`repro.core.wire` codec table "
        "(`PYTHONPATH=src python -m tests.core.test_protocol_doc`). Every "
        "message is a frozen "
        "dataclass sent as a frame: the magic bytes `be a7`, the kind id, "
        "the version, then its fields in the order listed, as one compact "
        "JSON array. Receivers reject versions newer than they speak. Do "
        "not edit this appendix by hand.",
        "",
        "Nested values travel as arrays of their fields in this order:",
        "",
    ]
    for cls in (Address, ResourceVector, ImplMeta, Offer, ChunnelSpec, ChunnelDag):
        codec = wire._codecs[cls]
        lines.append(f"- `{codec.tag}`: {_field_list(codec)}")
    lines += [
        "",
        "`dict[int, X]` travels as a list of `[key, value]` pairs. A "
        "`digest` is 16 bytes as a string of 32 lowercase hex digits. A "
        "`union` holds one of its alternatives untagged — a string, an "
        "integer or an array — and the value's JSON type says which; any "
        "other JSON type is rejected. An `any` "
        "field holds JSON scalars, lists and string-keyed objects as "
        "themselves, and `bytes` or any other wire type as "
        '`{"@": [tag, *fields]}`.',
        "",
    ]
    for kind in sorted(msgs.BY_KIND):
        cls = msgs.BY_KIND[kind]
        codec = wire._codecs[cls]
        summary, direction, retransmit = _docstring_parts(cls)
        lines += [
            f"### `{kind}` (id {codec.kind_id}, v{cls.VERSION}) — {cls.__name__}",
            "",
            summary,
            "",
            f"- **Fields:** {_field_list(codec)}",
            f"- **Direction:** {direction}",
            f"- **Retransmit:** {retransmit}",
            "",
        ]
    return "\n".join(lines)


def lifecycle_table() -> str:
    """PROTOCOL.md's connection-state table, rendered from ``LIFECYCLE``."""
    head = "State | Application send | Inbound data | In-band control | Released by"
    rows = [f"`{state}` | " + " | ".join(row) for state, row in LIFECYCLE.items()]
    return "".join(f"| {line} |\n" for line in [head, "---|---|---|---|---", *rows])


class TestProtocolAppendix:
    def test_committed_appendix_matches_generated(self):
        doc = PROTOCOL_MD.read_text()
        appendix = protocol_appendix().rstrip()
        assert appendix in doc, (
            "PROTOCOL.md Appendix A is out of date — regenerate it with "
            "python -m tests.core.test_protocol_doc"
        )

    def test_appendix_covers_every_kind(self):
        appendix = protocol_appendix()
        for kind in msgs.BY_KIND:
            assert f"### `{kind}`" in appendix


class TestConnectionStateTable:
    def test_committed_table_matches_generated(self):
        doc = PROTOCOL_MD.read_text()
        section = doc[doc.index("### 5.4 Connection state") :]
        assert lifecycle_table() in section, (
            "PROTOCOL.md §5.4's connection-state table is out of date — "
            "regenerate it with python -m tests.core.test_protocol_doc lifecycle"
        )


if __name__ == "__main__":
    print(lifecycle_table() if sys.argv[1:] == ["lifecycle"] else protocol_appendix())
