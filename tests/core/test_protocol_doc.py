"""The committed PROTOCOL.md appendix and connection-state table must match
the code they are generated from.

Appendix A is produced by :func:`repro.core.messages.protocol_appendix`,
§5.4's table by :func:`repro.core.connection.lifecycle_table`; editing the
schema or the lifecycle without regenerating the document (or vice versa)
fails here.  Regenerate with::

    python -c 'from repro.core import messages; print(messages.protocol_appendix())'
    python -c 'from repro.core import connection; print(connection.lifecycle_table())'
"""

from pathlib import Path

from repro.core import messages as msgs
from repro.core.connection import lifecycle_table

PROTOCOL_MD = Path(__file__).resolve().parents[2] / "PROTOCOL.md"


class TestProtocolAppendix:
    def test_committed_appendix_matches_generated(self):
        doc = PROTOCOL_MD.read_text()
        appendix = msgs.protocol_appendix().rstrip()
        assert appendix in doc, (
            "PROTOCOL.md Appendix A is out of date — regenerate it from "
            "repro.core.messages.protocol_appendix()"
        )

    def test_appendix_covers_every_kind(self):
        appendix = msgs.protocol_appendix()
        for kind in msgs.BY_KIND:
            assert f"### `{kind}`" in appendix


class TestConnectionStateTable:
    def test_committed_table_matches_generated(self):
        doc = PROTOCOL_MD.read_text()
        section = doc[doc.index("### 5.4 Connection state") :]
        assert lifecycle_table() in section, (
            "PROTOCOL.md §5.4's connection-state table is out of date — "
            "regenerate it from repro.core.connection.lifecycle_table()"
        )
