"""Central registry of every ``repro-*/N`` artifact-schema identifier.

Each machine-readable artifact the repo emits — bench results, latency
profiles, lint reports, run ledgers, metric samples — carries a
``"schema"`` field whose value names its layout and version.  Before this module those identifiers were string literals
scattered across the emitting modules, so nothing stopped an emit site
and its parse site from silently drifting apart, and nothing enumerated
the vocabulary for consumers.

:data:`SCHEMAS` is now the single defining site.  Emitters and parsers
re-export their constant from here (``BENCH_SCHEMA = SCHEMAS["bench"]``)
and the whole-program lint rule ``schema-id-registry``
(:mod:`repro.analysis.program`) flags any emit/parse site whose id does
not resolve to this registry — the same closed-vocabulary discipline as
``TRACE_CATEGORIES`` and ``LEDGER_EVENTS``.

Versioning: bumping an artifact's layout means adding/advancing the id
here (``repro-lint/1`` -> ``repro-lint/2``) and moving the superseded id
into :data:`LEGACY_SCHEMA_IDS` so parse sites that still *accept* the
old layout stay lint-clean while emit sites cannot regress to it.
"""

from __future__ import annotations

from typing import Dict, FrozenSet

#: family name -> the current schema id emitted for that artifact.
SCHEMAS: Dict[str, str] = {
    "bench": "repro-bench/4",
    "ledger": "repro-ledger/1",
    "lint": "repro-lint/2",
    "metrics-samples": "repro-metrics-samples/1",
    "profile": "repro-profile/1",
}

#: Superseded ids that parsers may still accept but emitters must not use.
LEGACY_SCHEMA_IDS: FrozenSet[str] = frozenset({
    "repro-bench/3",
    "repro-lint/1",
})

#: Every id the lint rule ``schema-id-registry`` accepts at a schema site.
REGISTERED_SCHEMA_IDS: FrozenSet[str] = (
    frozenset(SCHEMAS.values()) | LEGACY_SCHEMA_IDS
)


def schema_id(family: str) -> str:
    """The current schema id for ``family``; raises on unknown families."""
    try:
        return SCHEMAS[family]
    except KeyError:
        raise KeyError(
            f"unknown schema family {family!r}; known: {sorted(SCHEMAS)}"
        ) from None
