"""Central registry of every ``repro-*/N`` artifact-schema identifier.

Each machine-readable artifact the repo emits — bench results, latency
profiles, lint reports, run ledgers — carries a ``"schema"`` field whose
value names its layout and version.  :data:`SCHEMAS` is the single
defining site: emitters and parsers re-export their constant from here
(``BENCH_SCHEMA = SCHEMAS["bench"]``).  Each artifact's tests pin the
emitted id, and the ledger and profile readers reject a foreign one.

Versioning: bumping an artifact's layout means advancing its id here
(``repro-lint/1`` -> ``repro-lint/2``).
"""

from __future__ import annotations

from typing import Dict

#: family name -> the current schema id emitted for that artifact.
SCHEMAS: Dict[str, str] = {
    "bench": "repro-bench/4",
    "ledger": "repro-ledger/1",
    "lint": "repro-lint/2",
    "profile": "repro-profile/1",
}
