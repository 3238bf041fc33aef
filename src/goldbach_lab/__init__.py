"""Goldbach decomposition verifier and row-relation audit toolkit.

Public names load on first use (PEP 562): ``import goldbach_lab`` runs no
submodule, and the first access of a name imports the module that defines it
and caches the name here.  ``verify_block`` and ``dc_min`` thus load the sieve,
the sweep and the dc search only, not the auditor, the census or ``json``.
"""

from importlib import import_module

__version__ = "0.1.0"  # the one version literal; packaging and JSON output read it

_EXPORTS = {  # defining module -> its public names
    "audit": (
        "ALL_RELATIONS", "AuditReport", "EvenAudit", "RangeAudit", "RelationCheck",
        "audit_range", "audit_row", "implication_eval",
    ),
    "census": ("RowCensus", "census_range", "census_row"),
    "dc": (
        "DcResult", "dc_min", "dc_oracle", "dc_oracle_table", "decompositions", "goldbach_pairs",
    ),
    "errors": (
        "AboveEnumerationCap", "AboveOracleCap", "CheckpointMismatch", "EmptyCandidate",
        "GoldbachCounterexample", "GoldbachLabError", "InvalidInterval", "NonDivisibleWidth",
        "NotEven", "OutOfBounds", "OverlappingRows", "SegmentTooLarge", "TargetTooSmall",
        "WidthExceedsRange",
    ),
    "primes": (
        "PrimeSegment", "is_prime", "iter_primes", "nth_prime", "prime_count", "sieve_segment",
    ),
    "rowrange": (
        "Range", "Row", "ValidationVerdict", "partition_rows", "successor_offset",
        "validate_range", "validate_row",
    ),
    "sweep": ("SweepCheckpoint", "SweepSummary", "run_verify", "verify_block"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "cli", "serialize")

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str) -> object:
    if name in _MODULE_OF:
        value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later reads, and rebinding by a tracer, skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
