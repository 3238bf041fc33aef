"""Pinned sha256 digests of every subcommand's output in every format.

Refactors must keep the CLI bytes identical; any change to these digests is
a change of the output contract.  The wall-time clause of ``verify`` text
output is the only nondeterministic part and is stripped before hashing.
The public surface is pinned too: every ``--help`` text at 80 columns,
the package's ``__all__`` and the signature of each public callable.
"""

import hashlib
import inspect
import re

import pytest

import goldbach_lab
from goldbach_lab import serialize
from goldbach_lab.cli import main

_WALL_TIME = re.compile(rb" in \d+\.\d\d s")

COMMANDS = {
    "verify-w1": ["verify", "--from", "4", "--to", "300000", "--workers", "1"],
    "verify-w2": ["verify", "--from", "4", "--to", "300000", "--workers", "2"],
    # two sweep blocks at 10^12, where a block holds 2^20 evens
    "verify-high": ["verify", "--from", str(10**12),
                    "--to", str(10**12 + 2 * ((1 << 20) + (1 << 10))), "--workers", "1"],
    "audit-w1": ["audit", "--from", "1", "--to", "600", "--row-width", "20",
                 "--workers", "1"],
    "audit-w2": ["audit", "--from", "1", "--to", "600", "--row-width", "20",
                 "--workers", "2"],
    "audit-high": ["audit", "--from", str(10**12 + 1), "--to", str(10**12 + 600),
                   "--row-width", "20"],
    # [1,2] has no even A > 2 but the census of [5,6], which has one
    "audit-no-evens": ["audit", "--from", "1", "--to", "6", "--row-width", "2"],
    "audit-one-even": ["audit", "--from", "3", "--to", "4", "--row-width", "2"],
    "audit-two": ["audit", "--from", "2", "--to", "2", "--row-width", "1"],
    "audit-odd-width": ["audit", "--from", "1", "--to", "994", "--row-width", "7"],
    # rows of 1249 and 1250 evens, more than one rendered chunk each
    "audit-wide": ["audit", "--from", "1", "--to", "5000", "--row-width", "2500"],
    "census-low": ["census", "--from", "1", "--to", "1000", "--row-width", "100"],
    "census-high": ["census", "--from", str(10**12 + 1), "--to", str(10**12 + 600),
                    "--row-width", "50"],
    "dc-record": ["dc", "3325581707333960528"],
    "dc-pairs": ["dc", "100", "--pairs"],
    "dc-odd": ["dc", "27"],
    "sieve": ["sieve", "--from", "1", "--to", "1000", "--list"],
    "sieve-count": ["sieve", "--from", "999000", "--to", "1000000"],
    "partition": ["partition", "--from", "1", "--to", "100", "--row-width", "10"],
}
FORMATS = {
    "verify": ("json", "text"),
    "audit": ("json", "csv", "text"),
    "census": ("json", "csv", "text"),
    "dc": ("json", "text"),
    "sieve": ("json", "text"),
    "partition": ("json", "text"),
}
CASES = [
    (f"{name}-{fmt}", argv + ["--format", fmt])
    for name, argv in COMMANDS.items()
    for fmt in FORMATS[argv[0]]
]

DIGESTS = {
    "verify-w1-json": "e451126c2b9db865157625f54cf38745618ab25eaedae08c687263cca160af93",
    "verify-w1-text": "a1a4a3a3fe7cf5bc2127bc2d47c9535ed730df1d8b308977381ca04a4fa17035",
    "verify-w2-json": "e451126c2b9db865157625f54cf38745618ab25eaedae08c687263cca160af93",
    "verify-w2-text": "a1a4a3a3fe7cf5bc2127bc2d47c9535ed730df1d8b308977381ca04a4fa17035",
    "verify-high-json": "c038960cd187d432ed6bce7e65537deb724380c2ea2988f2d9b052f3e24942dc",
    "verify-high-text": "1a75a86da17b7f8be0f3be12c1a3a5c0fac531f9e348f564bb9560f42951129b",
    "audit-w1-json": "0516711203306335e63d75b15019eecbd6fc82633e6a1f969b5a126051a271dc",
    "audit-w1-csv": "d5e6838ca2a7b7ace614ab617b431be12e0a3667d7aed15732bcb7ecd78d330b",
    "audit-w1-text": "7ce7afccd48e5ea9dc3fc9744e4ccc604e358ab6c67cb90e2cc1dc3bd1506154",
    "audit-w2-json": "0516711203306335e63d75b15019eecbd6fc82633e6a1f969b5a126051a271dc",
    "audit-w2-csv": "d5e6838ca2a7b7ace614ab617b431be12e0a3667d7aed15732bcb7ecd78d330b",
    "audit-w2-text": "7ce7afccd48e5ea9dc3fc9744e4ccc604e358ab6c67cb90e2cc1dc3bd1506154",
    "audit-high-json": "1b0331369c076f267d0b350340ccc1b256ababa0eff309781bfcabb4590d5ca7",
    "audit-high-csv": "ac6f10287ffd7ac289d7f253d2a92c6b79ba18d72c25d56dbef9b7bd8d50d4d8",
    "audit-high-text": "fbdc29b67749d1d2810a0d9f83b557bf3952abbee43e1d1d2b11d4341011158a",
    "audit-no-evens-json": "4ed5c6e5bf33bb8061c8f857ac39d9cb8410d7abba6f6c484bd3db59297bb56f",
    "audit-no-evens-csv": "fab1ff4ab9d712167dee04fb5beef3ab87c99df41c5966ea3b7b248d0096ac12",
    "audit-no-evens-text": "ffef48209a77db108accca6189fe594c66a292c33422ce22dec59fd8caf84301",
    "audit-one-even-json": "d760873ac9737f7660f6cfa1d7937f445a0190e126250701e832eb23fe8fc9c0",
    "audit-one-even-csv": "2de1d0f8cbdb404f60a86b9eccedeeafaef280b24bb4c89b93b67bbebeb9ac9b",
    "audit-one-even-text": "e4b2d98d137b1c53450df75c736f8de844bbf1e3873f5a036d9d05143c5e5171",
    "audit-two-json": "19197b8c110997f7a8ab39ec60f97ad481ded262bafd461ead2645fb67c39eb3",
    "audit-two-csv": "94d85d85ffbacfd8006cfe57252ddd37beb1f90795e4bb9629b7d4d73c319f30",
    "audit-two-text": "a771fa04906b5a4837675f49f34cf676f294603913e29abacae4c61319d769c1",
    "audit-odd-width-json": "7e5c2dff5227f35f951603f7363e6e0c0caccc09634c849347240d65231c28cf",
    "audit-odd-width-csv": "59e18a7fa703a368f0bf9c9087a2c82a48a0a5ae3fed12bc1649e8ef4f93c749",
    "audit-odd-width-text": "3533b5689e02b3cddb6beef57b36ee7f38df7406d38db1fec4619ca00a497823",
    "audit-wide-json": "66a63a071ebe813163d65299f83faaedd963560f80fa440435d49a5187921f92",
    "audit-wide-csv": "3afcead67336c4a4acd14e74eeb57a7e546d07cae1eebc992be156145d3fbbf7",
    "audit-wide-text": "50731b69a6a3521fa611817b3eb5360437cc243c57a49a694099172b17d56073",
    "census-low-json": "0f3421f02b445c101b01bc64c1e9f72b4149cacafb01844c510f75444737cbe1",
    "census-low-csv": "e9ebbc96dff56495bf92f37794be0ad396cee299428d0ccb1dbf85271ea2b096",
    "census-low-text": "d16c9ac93d6f86aff4ae8f4a447fecd88bb3fd1b2e3cf8e9e2fa60de4e72f8cc",
    "census-high-json": "ecbba26f0783a34d474c62766c59368d974f49a61eb160508dc3fa312f8a82d7",
    "census-high-csv": "973bbf715d4db234c99b25561b158732de8256824d273c8c1115a127c22bcc24",
    "census-high-text": "46961e7fd6649e9ae57456dc2d2e4e958b15ebf9d03910a540e05b8dde85a11b",
    "dc-record-json": "b38e906edf8b772e9543d9fd02e1bf527edcf89d06b9babcc53161b7b926aa86",
    "dc-record-text": "c22dbd41b2d268dc2384db70b868e058921467fa99802bbb84f6553cb075ebab",
    "dc-pairs-json": "5f6c825b0029b0cea8951b7c68cfe8e9bf98058fd8a4319e942e103e6e9a3022",
    "dc-pairs-text": "c70fa4f4f426beba0176fb0e3c8dabbb6136c86d70760a7bacc2b2774a2dec5a",
    "dc-odd-json": "e42de104563a7451dfeb6ae46d646d0569ac41ab76fadbd12d3e1e46b9b336f7",
    "dc-odd-text": "b25cd58383b01ecc4a540b9056606480c982a404c330a9670c5dbeafa7ab1f14",
    "sieve-json": "239ed1f2e65f4a6ec3df09aa3abf7ee2d70011cd376d5a58e260cd1408f83ba9",
    "sieve-text": "12153d6e93c33a5dd1f645aba2fa54a9ec67076da9980ef60c80e3780ac24b4c",
    "sieve-count-json": "6e32535caf1867a5ff2c678bb5dac15f29b322ab1ee68eb8ce020947c1c676e3",
    "sieve-count-text": "1d1fd3c5e6023535048ccbb1506386c7c5198ae48ddfa8d5cfb275ae5b538f21",
    "partition-json": "0297498c60f16c696f5eabc36169e3a744a262c18afc3438d244c677ba01b4e8",
    "partition-text": "d361a8fe4ec9da2c02e39ee341b66770d6dd36f36a60e029cc332cc2ae71afe4",
}


def output_digest(argv, tmp_path):
    path = tmp_path / "out"
    assert main(argv + ["--output", str(path)]) == 0
    return hashlib.sha256(_WALL_TIME.sub(b"", path.read_bytes())).hexdigest()


@pytest.mark.parametrize("case, argv", CASES, ids=[c for c, _ in CASES])
def test_output_bytes_are_pinned(case, argv, tmp_path):
    assert output_digest(argv, tmp_path) == DIGESTS[case]


# The audit renderers' chunks, joined, at library level: a relation subset
# with no even checks, one with no row checks, and one with both.
# Digests of (json, csv, text) for the audit of Range(1, 5000) in rows of 100.
LIBRARY_AUDIT_DIGESTS = {
    ("A1",): (
        "68e532f179c0e69ad0cc269dbaa389a6d4e842f82ff45917aa21b427e8461fe6",
        "c0932d419815375c36c3b2d4a90a5600a997473a58c4721a4b97daf33c2e8cbd",
        "aae2563178c037ddb3b6d129e550ceeafb01e40d1ab5592c12129d140810c72f",
    ),
    ("(4)",): (
        "40aa23a25559bb057ad23e8ca4f03e70962b79426e8c101bd61fc29cebbf0a6c",
        "2d2dcf654ead8c6a15cd8098f82bdba5b16d0312899e0e203604ebc886b39ec9",
        "434cf42481158679589ae9e435ece5edd619c253b75132be07115e3add73c1eb",
    ),
    ("(4)", "A1"): (
        "0bf8b244b49b989fb502850ed334bffe4358b20986d6a6777a4f2a0debc52d04",
        "a5fe60e5c64e45a4d8ce4ce4ff486086a10f137c39893c4773cfe9b906da356d",
        "626a21c4c601b321ea82110b4100b972cb2a8839ec4bd76cb7cddad9e71037b7",
    ),
}


@pytest.mark.parametrize("entry_chars", [30, 3000, 40_000])
def test_entry_chunks_are_sized_in_characters(entry_chars):
    pieces = ["<", "x" * entry_chars, ">"]
    evens = range(4, 5004, 2)
    chunks = list(serialize._entries(evens, pieces, ","))
    assert "".join(chunks) == ",".join(str(a).join(pieces) for a in evens)
    longest = max(map(len, chunks))
    assert len(chunks) > 1 and longest <= max(serialize._CHUNK_CHARS, entry_chars + 11)
    assert list(serialize._entries(range(4, 4, 2), pieces, ",")) == []


@pytest.mark.parametrize("relations", list(LIBRARY_AUDIT_DIGESTS), ids=" ".join)
def test_audit_renderer_chunks_are_pinned(relations):
    result = goldbach_lab.audit._audit_groups(goldbach_lab.Range(1, 5000), 100, list(relations))
    renders = (
        serialize.audit_json(result, {"from": 1, "to": 5000, "width": 100}),
        serialize.audit_csv(result, range(1, 5001, 100)),
        serialize.audit_text(result),
    )
    digests = tuple(hashlib.sha256("".join(r).encode()).hexdigest() for r in renders)
    assert digests == LIBRARY_AUDIT_DIGESTS[relations]


HELP_DIGESTS = {
    "": "1876f26a2bde4f21a8e2ed47f201b2cc123e0f366a4949766a190afcf8a219fd",
    "verify": "ace077f0d304971ad9e8a180d8ac3de8c887e1964ddb9d350bfad59140b4cbc5",
    "audit": "1c02a43ceff614fa13d0b5dc575628140ffb59ebfdce90eb34c2bd3ccf6a7015",
    "census": "5a8d2b2f4aae0264887aa7a30c3332ae1fe16ab998bd546f899be29cd6ebfd5b",
    "dc": "92c02ba424f2166d15971cde434e1e54c4483b52587fcc71699b80381af4800e",
    "sieve": "5ca056589a3682dea9c3c87df397bd12a1b8054c135811a32c9cf863c3db3676",
    "partition": "e2947fedf4ba9a0788859f94246a89a141f12e6be4a254a8fb1611914317e633",
}


@pytest.mark.parametrize("command", list(HELP_DIGESTS), ids=lambda c: c or "top")
def test_help_bytes_are_pinned(command, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    with pytest.raises(SystemExit) as exit_info:
        main(([command] if command else []) + ["--help"])
    assert exit_info.value.code == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == HELP_DIGESTS[command]


def test_public_names_are_pinned():
    assert goldbach_lab.__all__ == [
        "ALL_RELATIONS", "AboveEnumerationCap", "AboveOracleCap", "AuditReport",
        "CheckpointMismatch", "DcResult", "EmptyCandidate", "EvenAudit",
        "GoldbachCounterexample", "GoldbachLabError", "InvalidInterval",
        "NonDivisibleWidth", "NotEven", "OutOfBounds", "OverlappingRows",
        "PrimeSegment", "Range", "RangeAudit", "RelationCheck", "Row", "RowCensus",
        "SegmentTooLarge", "SweepCheckpoint", "SweepSummary", "TargetTooSmall",
        "ValidationVerdict", "WidthExceedsRange", "audit_range", "audit_row",
        "census_range", "census_row", "dc_min", "dc_oracle", "dc_oracle_table",
        "decompositions", "goldbach_pairs", "implication_eval", "is_prime",
        "iter_primes", "nth_prime", "partition_rows", "prime_count", "run_verify",
        "sieve_segment", "successor_offset", "validate_range", "validate_row",
        "verify_block",
    ]


# str(inspect.signature(...)) of every public callable that has one, and of
# every public PrimeSegment method: a new keyword shows up here.  Exceptions
# that keep the built-in constructor have none.
SIGNATURES = {
    "AuditReport": (
        "(row: 'Row', census: 'RowCensus', row_checks: 'tuple[RelationCheck, ...]', "
        "even_checks: 'tuple[RelationCheck, ...]') -> 'None'"
    ),
    "DcResult": "(target: 'int', value: 'int', witness: 'tuple[int, ...]') -> 'None'",
    "EvenAudit": "(target: 'int', dc_value: 'int', checks: 'tuple[RelationCheck, ...]') -> 'None'",
    "GoldbachCounterexample": '(target: int)',
    "PrimeSegment": "(lo: 'int', hi: 'int', digits: 'bytes') -> 'None'",
    "PrimeSegment.count": "(self, a: 'int | None' = None, b: 'int | None' = None) -> 'int'",
    "PrimeSegment.is_prime_at": "(self, n: 'int') -> 'bool'",
    "PrimeSegment.primes": "(self) -> 'list[int]'",
    "PrimeSegment.restrict": "(self, lo: 'int', hi: 'int') -> 'PrimeSegment'",
    "Range": "(start: 'int', end: 'int') -> 'None'",
    "RangeAudit": (
        "(reports: 'tuple[AuditReport, ...]', summary: 'dict[str, dict[str, int]]') -> 'None'"
    ),
    "RelationCheck": (
        "(relation_id: 'str', lhs_value: 'Number', rhs_value: 'Union[Number, tuple[int, int]]', "
        "holds: 'bool', detail: 'str' = '') -> 'None'"
    ),
    "Row": "(start: 'int', end: 'int') -> 'None'",
    "RowCensus": "(gamma_even: 'int', gamma_odd: 'int', gamma_prime: 'int', m: 'int') -> 'None'",
    "SweepCheckpoint": (
        "(version: 'int', from_even: 'int', to_even: 'int', last_verified: 'int', "
        "failures: 'tuple[int, ...]', started_at: 'str', updated_at: 'str') -> 'None'"
    ),
    "SweepSummary": (
        "(from_even: 'int', to_even: 'int', verified: 'int', failures: 'tuple[int, ...]', "
        "elapsed_seconds: 'float', resumed_from: 'Optional[int]' = None) -> 'None'"
    ),
    "ValidationVerdict": (
        "(accepted: 'bool', violations: 'tuple[tuple[str, str], ...]', "
        "subject: 'Union[Row, Range, None]' = None) -> 'None'"
    ),
    "audit_range": (
        "(rng: 'Range', width: 'int', relations: 'Optional[Sequence[str]]' = None, *, "
        "workers: 'int' = 1) -> 'RangeAudit'"
    ),
    "audit_row": "(row: 'Row', relations: 'Optional[Sequence[str]]' = None) -> 'AuditReport'",
    "census_range": "(rng: 'Range', width: 'int') -> 'list[tuple[Row, RowCensus]]'",
    "census_row": "(row: 'Row') -> 'RowCensus'",
    "dc_min": "(target: 'int') -> 'DcResult'",
    "dc_oracle": "(target: 'int') -> 'int'",
    "dc_oracle_table": "(limit: 'int') -> 'tuple[int, ...]'",
    "decompositions": "(target: 'int', k: 'int') -> 'list[tuple[int, ...]]'",
    "goldbach_pairs": "(target: 'int') -> 'list[tuple[int, int]]'",
    "implication_eval": "(p: 'bool', q: 'bool', r: 'bool') -> 'tuple[bool, bool]'",
    "is_prime": "(n: 'int') -> 'bool'",
    "iter_primes": "(start: 'int' = 2) -> 'Iterator[int]'",
    "nth_prime": "(x: 'int') -> 'int'",
    "partition_rows": "(rng: 'Range', width: 'int') -> 'list[Row]'",
    "prime_count": "(lo: 'int', hi: 'int') -> 'int'",
    "run_verify": (
        "(from_even: 'int', to_even: 'int', *, workers: 'int' = 1, "
        "checkpoint_path: 'Optional[str]' = None, "
        "checkpoint_stride: 'int' = 67108864) -> 'SweepSummary'"
    ),
    "sieve_segment": "(lo: 'int', hi: 'int') -> 'PrimeSegment'",
    "successor_offset": "(a: 'Row', b: 'Row') -> 'int'",
    "validate_range": "(candidate: 'Sequence[int]') -> 'ValidationVerdict'",
    "validate_row": "(candidate: 'Sequence[int]') -> 'ValidationVerdict'",
    "verify_block": "(lo: 'int', hi: 'int') -> 'list[int]'",
}


def test_public_signatures_are_pinned():
    found = {}
    for name in goldbach_lab.__all__:
        try:
            found[name] = str(inspect.signature(getattr(goldbach_lab, name)))
        except (TypeError, ValueError):  # a constant, or a built-in exception constructor
            pass
    for name, method in vars(goldbach_lab.PrimeSegment).items():
        if inspect.isfunction(method) and not name.startswith("_"):
            found[f"PrimeSegment.{name}"] = str(inspect.signature(method))
    assert found == SIGNATURES
