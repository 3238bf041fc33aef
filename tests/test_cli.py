import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import goldbach_lab
from goldbach_lab import cli, serialize, sweep
from goldbach_lab.audit import AuditReport
from goldbach_lab.census import RowCensus, census_range
from goldbach_lab.cli import main
from goldbach_lab.primes import is_prime, sieve_segment
from goldbach_lab.rowrange import Range, Row
from goldbach_lab.sweep import CHECKPOINT_VERSION, SweepCheckpoint, write_checkpoint


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_success_is_zero(self, capsys):
        code, out, _ = run_cli(capsys, "dc", "8")
        assert code == 0
        assert "dc(8) = 2" in out

    def test_domain_error_is_two(self, capsys):
        code, _, err = run_cli(
            capsys, "audit", "--from", "1", "--to", "100", "--row-width", "7"
        )
        assert code == 2
        assert "does not divide" in err

    def test_failing_relations_still_exit_zero(self, capsys):
        code, out, _ = run_cli(
            capsys, "audit", "--from", "1", "--to", "10", "--row-width", "10"
        )
        assert code == 0
        assert "holds=false" in out

    def test_argparse_errors_exit_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["audit", "--from", "1"])
        assert exc.value.code == 2

    def test_odd_verify_bounds_exit_two(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--from", "5", "--to", "100")
        assert code == 2
        assert "even" in err

    @pytest.mark.parametrize("argv, message", [
        (["sieve", "--from", "1", "--to", "100", "--output", "missing/x"], "No such file"),
        (["verify", "--from", "4", "--to", "100", "--checkpoint", "missing/cp.json"],
         "No such file"),
        (["verify", "--from", "4", "--to", "100", "--checkpoint", "."], "Is a directory"),
    ], ids=["sieve-output-missing-dir", "checkpoint-missing-dir", "checkpoint-is-dir"])
    def test_unusable_path_exits_two(self, capsys, tmp_path, monkeypatch, argv, message):
        monkeypatch.chdir(tmp_path)
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize("argv, path, message", [
        (["audit", "--from", "1", "--to", "100", "--row-width", "10", "--output", "missing/x"],
         "missing/x", "No such file"),
        (["audit", "--from", "1", "--to", "100", "--row-width", "10", "--output", "."],
         ".", "Is a directory"),
        (["verify", "--from", "4", "--to", "100", "--checkpoint", "missing/cp.json"],
         "missing/cp.json", "No such file"),
        (["verify", "--from", "4", "--to", "100", "--output", "missing/v.json"],
         "missing/v.json", "No such file"),
    ], ids=["audit-output-missing-dir", "audit-output-is-dir", "checkpoint-missing-dir",
            "verify-output-missing-dir"])
    def test_unusable_path_refused_before_the_work(
        self, capsys, tmp_path, monkeypatch, argv, path, message
    ):
        def no_work(*args, **kwargs):
            raise AssertionError("the command ran before its path was checked")

        monkeypatch.setattr("goldbach_lab.cli._audit_groups", no_work)
        monkeypatch.setattr("goldbach_lab.cli.run_verify", no_work)
        monkeypatch.chdir(tmp_path)
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert err.startswith("error: ") and message in err
        assert f"'{path}'" in err and ".tmp" not in err
        assert list(tmp_path.iterdir()) == []  # nothing created or truncated


    @pytest.mark.parametrize("error, message", [
        (MemoryError(), "internal error: MemoryError\n"),
        (RuntimeError("no luck"), "internal error: RuntimeError: no luck\n"),
    ], ids=["no-message", "message"])
    def test_internal_error_names_its_type(self, capsys, monkeypatch, error, message):
        def failing_dc_min(target):
            raise error

        monkeypatch.setattr(cli, "dc_min", failing_dc_min)
        assert run_cli(capsys, "dc", "8") == (1, "", message)

    @pytest.mark.parametrize("flag", ["--workers", "--checkpoint-stride"])
    def test_zero_verify_knob_refused_before_the_work(
        self, capsys, tmp_path, monkeypatch, flag
    ):
        def no_work(lo, hi):
            raise AssertionError("a block was verified before the refusal")

        monkeypatch.setattr("goldbach_lab.sweep.verify_block", no_work)
        code, out, err = run_cli(
            capsys, "verify", "--from", "4", "--to", "1000", flag, "0",
            "--checkpoint", str(tmp_path / "cp.json"),
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and ">= 1" in err
        assert list(tmp_path.iterdir()) == []  # no checkpoint written


class TestNumberParsing:
    def test_underscore_separators(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--from", "4", "--to", "10_000", "--format", "text"
        )
        assert code == 0
        assert "4999 evens verified" in out

    def test_negative_rejected(self):
        with pytest.raises(SystemExit):
            main(["dc", "--", "-5"])

    def test_non_integer_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["dc", "abc"])
        assert exc.value.code == 2
        assert "not an integer: 'abc'" in capsys.readouterr().err


class TestVerifyCommand:
    def test_single_even(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--from", "4", "--to", "4")
        assert code == 0
        assert "1 evens verified, 0 failures" in out

    def test_json_payload_has_no_timing(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "--from", "4", "--to", "1000", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["payload"] == {
            "failures": [],
            "from": 4,
            "to": 1000,
            "verified": 499,
        }
        assert "elapsed" not in out
        assert "s" in err  # timing goes to stderr

    def test_json_is_byte_identical_at_any_worker_count_and_after_a_resume(
        self, capsys, tmp_path
    ):
        # five blocks, so two and eight workers both fork
        to = 2 * (4 * sweep.BLOCK_EVENS + sweep.BLOCK_EVENS // 2)
        argv = ["verify", "--from", "4", "--to", str(to), "--format", "json"]
        outputs = [run_cli(capsys, *argv, "--workers", w)[1] for w in ("1", "2", "8")]
        path = str(tmp_path / "cp.json")
        after_two_blocks = sweep._blocks(4, to)[2] - 2
        t0 = "2024-01-01T00:00:00Z"
        write_checkpoint(
            path, SweepCheckpoint(CHECKPOINT_VERSION, 4, to, after_two_blocks, (), t0, t0)
        )
        outputs.append(run_cli(capsys, *argv, "--workers", "2", "--checkpoint", path)[1])
        assert json.loads(outputs[0])["payload"]["verified"] == to // 2 - 1
        assert outputs[1:] == outputs[:1] * 3

    def test_checkpoint_mismatch_exit_two(self, capsys, tmp_path):
        path = str(tmp_path / "cp.json")
        assert run_cli(capsys, "verify", "--from", "4", "--to", "1000",
                       "--checkpoint", path)[0] == 0
        code, _, err = run_cli(
            capsys, "verify", "--from", "4", "--to", "2000", "--checkpoint", path
        )
        assert code == 2
        assert "checkpoint" in err

    @pytest.mark.parametrize("content", [
        b"[" * 200_000 + b"]" * 200_000, b'{"version": 1, "started_at": "\xff"}',
    ], ids=["nested-too-deep", "invalid-utf8"])
    def test_damaged_checkpoint_exit_two(self, capsys, tmp_path, content):
        path = tmp_path / "cp.json"
        path.write_bytes(content)
        code, _, err = run_cli(
            capsys, "verify", "--from", "4", "--to", "1000", "--checkpoint", str(path)
        )
        assert code == 2
        assert err.startswith("error: checkpoint is not ")


class TestAuditCommand:
    def test_json_deterministic_across_runs_and_workers(self, capsys):
        outputs = []
        for workers in ("1", "2", "1"):
            code, out, _ = run_cli(
                capsys,
                "audit", "--from", "1", "--to", "100", "--row-width", "10",
                "--format", "json", "--workers", workers,
            )
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1] == outputs[2]
        doc = json.loads(outputs[0])
        assert doc["parameters"] == {"from": 1, "to": 100, "width": 10}
        assert "workers" not in json.dumps(doc)

    @pytest.mark.parametrize("bounds", [("1", "100", "10"), ("2", "3", "2")])
    def test_zero_workers_exit_two(self, capsys, bounds):
        lo, hi, width = bounds
        code, out, err = run_cli(
            capsys,
            "audit", "--from", lo, "--to", hi, "--row-width", width, "--workers", "0",
        )
        assert (code, out) == (2, "")
        assert "workers >= 1" in err

    def test_csv_has_header_only_per_even_section(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "audit", "--from", "2", "--to", "3", "--row-width", "2",
            "--format", "csv",
        )
        assert code == 0
        per_row, per_even = out.split("\n\n")
        assert per_row.startswith(
            "row_start,row_end,gamma_even,gamma_odd,gamma_prime,m,relation_id,lhs,rhs,holds"
        )
        assert per_even == "row_start,A,dc_value,relation_id,lhs,rhs,holds\n"

    def test_csv_per_even_rows(self, capsys):
        _, out, _ = run_cli(
            capsys,
            "audit", "--from", "1", "--to", "10", "--row-width", "10",
            "--format", "csv",
        )
        per_even = out.split("\n\n")[1].splitlines()
        assert "1,8,2,(11-3),2,2,true" in per_even

    def test_aggregate_in_json(self, capsys):
        _, out, _ = run_cli(
            capsys,
            "audit", "--from", "1", "--to", "100", "--row-width", "10",
            "--format", "json",
        )
        doc = json.loads(out)
        assert doc["payload"]["verdict_summary"]["(27)"] == {"failed": 10, "held": 0}
        assert len(doc["payload"]["rows"]) == 10


class TestCensusCommand:
    def test_csv(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "census", "--from", "1", "--to", "100", "--row-width", "10",
            "--format", "csv",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "row_start,row_end,gamma_even,gamma_odd,gamma_prime,m"
        assert lines[1] == "1,10,5,5,4,10"
        assert lines[10] == "91,100,5,5,1,10"

    def test_json(self, capsys):
        _, out, _ = run_cli(
            capsys,
            "census", "--from", "2", "--to", "3", "--row-width", "2",
            "--format", "json",
        )
        doc = json.loads(out)
        assert doc["payload"] == [
            {
                "census": {"gamma_even": 1, "gamma_odd": 1, "gamma_prime": 2, "m": 2},
                "row": {"end": 3, "start": 2},
            }
        ]


def count_constructions(monkeypatch, *classes):
    """Patch each class's __init__ to count the instances of that exact class."""
    counts = dict.fromkeys((cls.__name__ for cls in classes), 0)
    for cls in classes:
        def init(self, *args, cls=cls, real=cls.__init__):
            counts[cls.__name__] += type(self) is cls
            real(self, *args)

        monkeypatch.setattr(cls, "__init__", init)
    return counts


def peak_kib_of_cli(*argv):
    """VmHWM, in KiB, of a fresh process that runs the CLI on argv."""
    code = (
        "import sys\n"
        "from goldbach_lab.cli import main\n"
        "assert main(sys.argv[1:]) == 0\n"
        "with open('/proc/self/status') as fh:\n"
        "    print(next(l for l in fh if l.startswith('VmHWM:')).split()[1])\n"
    )
    src = str(Path(goldbach_lab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          env=env, timeout=300, check=True)
    return int(proc.stdout.split()[-1])


# every format of each command that prints a row list
ROW_LISTS = [(command, fmt) for command in ("audit", "census") for fmt in serialize.FORMATS]
ROW_LISTS += [("partition", "json"), ("partition", "text")]


class TestRowsByCensusGroup:
    """audit and census render each row as their walk hands it over, with one
    census per group; the CSV audit alone keeps something per row, its 4-byte
    group id for the even table.  partition renders from row arithmetic, not
    from records."""

    @pytest.mark.parametrize("command, fmt", ROW_LISTS, ids=["-".join(c) for c in ROW_LISTS])
    def test_no_record_per_row(self, command, fmt, monkeypatch, tmp_path):
        rng, width = Range(1, 10**4), 10  # 1000 rows
        distinct = len({c for _, c in census_range(rng, width)})
        counts = count_constructions(monkeypatch, Row, RowCensus, AuditReport)
        argv = [command, "--from", "1", "--to", str(rng.end), "--row-width", str(width),
                "--format", fmt, "--output", str(tmp_path / "out")]
        assert main(argv) == 0
        assert counts["Row"] == counts["AuditReport"] == 0
        if command == "partition":
            assert counts["RowCensus"] == 0
        else:
            assert 0 < counts["RowCensus"] <= distinct < 1000

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs VmHWM from procfs")
    def test_many_row_audit_peak_is_bounded(self):
        # 5 * 10^5 rows and a 378 MB table; a Row, RowCensus and AuditReport
        # per row, and their renderers' memos, peaked at 172 MiB
        argv = ["audit", "--from", "1", "--to", str(10**6), "--row-width", "2",
                "--format", "csv", "--output", os.devnull]
        peak_kib = peak_kib_of_cli(*argv)
        assert peak_kib < 40 * 1024, f"peak RSS {peak_kib} KiB"

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs VmHWM from procfs")
    def test_many_row_census_peak_is_bounded(self, tmp_path):
        # 2.5 * 10^6 rows; a Row and a RowCensus per row, and the CSV built as
        # one string, peaked at 378 MiB for 10^6 rows, and a 4-byte group index
        # per row at 26 MiB for these; streamed, they peak near 17 MiB
        rows = 2_500_000
        out = tmp_path / "census.csv"
        argv = ["census", "--from", "1", "--to", str(rows), "--row-width", "1",
                "--format", "csv", "--output", str(out)]
        peak_kib = peak_kib_of_cli(*argv)
        assert peak_kib < 22 * 1024, f"peak RSS {peak_kib} KiB"
        with open(out) as fh:
            assert sum(1 for _ in fh) == 1 + rows
        with open(out, "rb") as fh:
            fh.seek(-100, os.SEEK_END)
            assert fh.read().endswith(b"\n2499999,2499999,0,1,0,1\n2500000,2500000,1,0,0,1\n")

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs VmHWM from procfs")
    @pytest.mark.parametrize("command, fmt, tail", [
        ("census", "json", '"gamma_prime": 0,\n        "m": 1\n      },\n      "row": {\n'
                           '        "end": 1000000,\n        "start": 1000000\n      }\n    }\n  ],'),
        ("partition", "json", '"end": 1000000,\n        "start": 1000000\n      }\n    ],\n'
                              '    "to": 1000000,\n    "width": 1\n  },'),
        ("partition", "text", "\nrow 999999..999999\nrow 1000000..1000000\n"),
    ], ids=["census-json", "partition-json", "partition-text"])
    def test_many_row_list_peak_is_bounded(self, command, fmt, tail, tmp_path):
        # 10^6 rows; a dict per row through the indenting encoder peaked at
        # 2338 MiB for census JSON, and a Row per row at 895 MiB for partition
        # JSON and 232 MiB for its text
        out = tmp_path / "out"
        argv = [command, "--from", "1", "--to", str(10**6), "--row-width", "1",
                "--format", fmt, "--output", str(out)]
        peak_kib = peak_kib_of_cli(*argv)
        assert peak_kib < 40 * 1024, f"peak RSS {peak_kib} KiB"
        with open(out, "rb") as fh:
            fh.seek(-200, os.SEEK_END)
            text = fh.read().decode()
        if fmt == "json":
            tail += f'\n  "tool_version": "{goldbach_lab.__version__}"\n}}\n'
        assert text.endswith(tail)


def census_doc(start, end):
    """A census list entry of row [start, end], counted without the census walk."""
    evens = end // 2 - (start - 1) // 2
    census = {"gamma_even": evens, "gamma_odd": end - start + 1 - evens,
              "gamma_prime": sum(map(is_prime, range(start, end + 1))), "m": end - start + 1}
    return {"census": census, "row": {"end": end, "start": start}}


# (from, width, rows): one row, the rows that hold 1 and 2, rows near 10^12,
# and seeded lists below 10^6 and near 10^12
_SEEDED = random.Random(29)
REFERENCE_LISTS = [(7, 5, 1), (10**12, 1, 1), (1, 1, 4), (1, 2, 3), (2, 1, 3), (1, 3, 2),
                   (10**12 - 11, 12, 5)]
REFERENCE_LISTS += [
    (_SEEDED.randrange(base, base + 10**6), _SEEDED.randint(1, 60), _SEEDED.randint(1, 30))
    for base in (1, 1, 10**12 - 10**6, 10**12)
]


class TestStreamedListsEqualToJson:
    """census and partition JSON stream their rows, with the bytes to_json writes."""

    @pytest.mark.parametrize("start, width, count", REFERENCE_LISTS)
    def test_census_and_partition(self, start, width, count, capsys):
        end = start + width * count - 1
        starts = range(start, end + 1, width)
        params = {"from": start, "to": end, "width": width}
        payloads = {
            "census": [census_doc(s, s + width - 1) for s in starts],
            "partition": {"from": start, "rows": [{"end": s + width - 1, "start": s}
                                                  for s in starts], "to": end, "width": width},
        }
        for command, payload in payloads.items():
            code, out, err = run_cli(capsys, command, "--from", str(start), "--to", str(end),
                                     "--row-width", str(width), "--format", "json")
            assert (code, err) == (0, "")
            assert out == serialize.to_json(command, params, payload)


class TestDcCommand:
    def test_prime_target(self, capsys):
        code, out, _ = run_cli(capsys, "dc", "3")
        assert code == 0
        assert "dc(3) = 1" in out

    def test_pairs_listing(self, capsys):
        _, out, _ = run_cli(capsys, "dc", "100", "--pairs")
        assert "6 prime pairs" in out

    def test_json(self, capsys):
        _, out, _ = run_cli(capsys, "dc", "8", "--format", "json")
        doc = json.loads(out)
        assert doc["payload"] == {"target": 8, "value": 2, "witness": [3, 5]}


class TestSieveAndPartition:
    def test_sieve_summary(self, capsys):
        _, out, _ = run_cli(
            capsys, "sieve", "--from", "1", "--to", "10", "--format", "json"
        )
        doc = json.loads(out)
        assert doc["payload"] == {"count": 4, "from": 1, "to": 10}

    def test_sieve_list(self, capsys):
        _, out, _ = run_cli(
            capsys, "sieve", "--from", "1", "--to", "10", "--list", "--format", "json"
        )
        assert json.loads(out)["payload"]["primes"] == [2, 3, 5, 7]

    # a span with no primes, the span of the golden digests, and spans of
    # several 2^16-integer parts, one with no primes in some of its parts
    @pytest.mark.parametrize("lo, hi", [(24, 28), (1, 1000), (1, 5 * 2**16 + 7),
                                        (10**12, 10**12 + 3 * 2**16)])
    def test_sieve_list_streams_the_bytes_of_one_encoding(self, lo, hi, capsys):
        # the list renders one part of the segment at a time, in the bytes of
        # encoding the whole list at once: "primes": [] and an empty listing
        # line for a span with no primes
        primes = sieve_segment(lo, hi).primes()
        argv = ["sieve", "--from", str(lo), "--to", str(hi), "--list", "--format"]
        doc = {"count": len(primes), "from": lo, "primes": primes, "to": hi}
        _, out, _ = run_cli(capsys, *argv, "json")
        assert out == serialize.to_json("sieve", {"from": lo, "to": hi}, doc)
        _, out, _ = run_cli(capsys, *argv, "text")
        assert out == f"primes in [{lo}, {hi}]: {len(primes)}\n" + " ".join(map(str, primes)) + "\n"

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs VmHWM from procfs")
    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_sieve_list_peak_is_bounded(self, fmt):
        # 2^24 integers, 1077871 primes: the list built whole, and its whole
        # text, peaked at 159 MiB for JSON and 146 MiB for text
        argv = ["sieve", "--from", "1", "--to", str(1 << 24), "--list", "--format", fmt,
                "--output", os.devnull]
        peak_kib = peak_kib_of_cli(*argv)
        assert peak_kib < 48 * 1024, f"peak RSS {peak_kib} KiB"

    def test_partition(self, capsys):
        _, out, _ = run_cli(
            capsys,
            "partition", "--from", "1", "--to", "20", "--row-width", "10",
            "--format", "json",
        )
        doc = json.loads(out)
        assert doc["payload"]["rows"] == [
            {"end": 10, "start": 1},
            {"end": 20, "start": 11},
        ]


class TestOutputFile:
    def test_output_flag_writes_file(self, capsys, tmp_path):
        path = tmp_path / "out.json"
        code, out, _ = run_cli(
            capsys, "dc", "8", "--format", "json", "--output", str(path)
        )
        assert code == 0
        assert out == ""
        assert json.loads(path.read_text())["payload"]["value"] == 2

    def test_failed_audit_creates_no_output_file(self, capsys, tmp_path):
        path = tmp_path / "out"
        code, _, err = run_cli(
            capsys, "audit", "--from", "1", "--to", "7", "--row-width", "3",
            "--output", str(path),
        )
        assert code == 2 and "error: " in err
        assert list(tmp_path.iterdir()) == []


class CountingFile:
    """A file-like object that counts write calls; writelines writes item by item."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)

    def writelines(self, lines):
        for line in lines:
            self.write(line)


class TestEmit:
    def test_a_string_is_one_write(self, monkeypatch):
        out = CountingFile()
        monkeypatch.setattr(cli.sys, "stdout", out)
        cli._emit("one string\n" * 1000, None)
        assert out.writes == ["one string\n" * 1000]


# One small request per subcommand; each must write its output exactly once.
EVERY_COMMAND = [
    ["verify", "--from", "4", "--to", "100", "--format", "json"],
    ["audit", "--from", "1", "--to", "20", "--row-width", "10", "--format", "json"],
    ["census", "--from", "1", "--to", "20", "--row-width", "10", "--format", "csv"],
    ["dc", "8", "--pairs"],
    ["sieve", "--from", "1", "--to", "10", "--list"],
    ["partition", "--from", "1", "--to", "20", "--row-width", "10"],
]
# the engine each of those calls, a global of goldbach_lab.cli
ENGINES = [
    "run_verify", "_audit_groups", "_census_groups", "dc_min", "sieve_segment", "_check_width"
]


def joined(output):
    """A handler's output as one string: it is a str or an iterable of chunks."""
    return output if isinstance(output, str) else "".join(output)


def record_emits(monkeypatch):
    """Replace cli._emit; the returned list gets the text of each call."""
    calls = []
    monkeypatch.setattr(cli, "_emit", lambda chunks, path: calls.append(joined(chunks)))
    return calls


class TestOneWrite:
    @pytest.mark.parametrize("argv", EVERY_COMMAND, ids=lambda argv: argv[0])
    def test_main_writes_once_what_the_handler_returns(self, argv, monkeypatch, capsys):
        args = cli.build_parser(argv[0]).parse_args(argv)
        returned = joined(args.func(args))
        emitted = record_emits(monkeypatch)
        assert main(argv) == 0
        assert emitted == [returned] and returned
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("argv", [
        ["census", "--from", "1", "--to", "100", "--row-width", "7"],
        ["audit", "--from", "1", "--to", "100", "--row-width", "7"],
        ["verify", "--from", "5", "--to", "100"],
        ["sieve", "--from", "10", "--to", "1"],
    ], ids=["census-width", "audit-width", "verify-odd", "sieve-reversed"])
    def test_a_refused_request_writes_nothing(self, argv, monkeypatch, capsys):
        emitted = record_emits(monkeypatch)
        assert main(argv) == 2
        assert emitted == []
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("name, argv", list(zip(ENGINES, EVERY_COMMAND)), ids=ENGINES)
    def test_handlers_call_the_engines_through_the_module_globals(
        self, name, argv, monkeypatch, capsys
    ):
        # a tracer rebinds these names in goldbach_lab.cli; the handlers must see it
        calls = []
        real = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *a, **kw: calls.append(a) or real(*a, **kw))
        assert main(argv) == 0
        assert len(calls) == 1


class TestParser:
    @pytest.mark.parametrize(
        "argv",
        [["dc", "8"], ["audit", "--from", "1", "--to", "10", "--row-width", "5"],
         ["partition", "--from", "1", "--to", "10", "--row-width", "5"]],
        ids=lambda argv: argv[0],
    )
    def test_only_the_invoked_subcommand_gets_arguments(self, argv, monkeypatch, capsys):
        built = []  # every subcommand adds --format and --output through _add_common
        real = cli._add_common
        monkeypatch.setattr(
            cli, "_add_common", lambda p, **kw: built.append(p.prog) or real(p, **kw)
        )
        assert main(argv) == 0
        assert built == [f"goldbach-lab {argv[0]}"]


class TestInstalledEntryPoint:
    def test_console_script_end_to_end(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "goldbach_lab.cli", "dc", "8", "--format", "json"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["payload"]["witness"] == [3, 5]


@pytest.fixture
def cap_address_space():
    """A child's preexec_fn: under 1 GiB, a regression fails fast instead of allocating."""
    resource = pytest.importorskip("resource")
    return lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


class TestSieveDomain:
    """From 2**64 up the base-prime table alone would need 4 GiB: refuse, exit 2."""

    @pytest.mark.parametrize(
        "command, extra",
        [("sieve", []), ("verify", []), ("census", ["--row-width", "11"]),
         ("audit", ["--row-width", "11"])],
        ids=["sieve", "verify", "census", "audit"],
    )
    def test_refused_at_two_to_the_64(self, command, extra, cap_address_space):
        n = 1 << 64
        proc = subprocess.run(
            [sys.executable, "-m", "goldbach_lab.cli", command,
             "--from", str(n), "--to", str(n + 10), *extra],
            capture_output=True,
            text=True,
            preexec_fn=cap_address_space,
            timeout=60,
        )
        assert proc.returncode == 2, proc.stderr
        assert "2**64" in proc.stderr

    @pytest.mark.parametrize("argv", [
        ["verify", "--from", str(1 << 62), "--to", str((1 << 62) + 2000)],
        ["census", "--from", str(1 << 62), "--to", str((1 << 62) + 999), "--row-width", "10"],
        ["audit", "--from", str(1 << 62), "--to", str((1 << 62) + 999), "--row-width", "10"],
        ["sieve", "--from", str((1 << 64) - 1000), "--to", str((1 << 64) - 1)],
    ], ids=["verify", "census", "audit", "sieve"])
    def test_refused_past_the_base_prime_table_cap(self, argv, tmp_path, cap_address_space):
        # their base-prime tables, to 2^31 and 2^32, would take gigabytes to build;
        # census and audit walk their rows only as the output is written, so
        # the cap is checked at the call, before main opens --output
        out = tmp_path / "out"
        extra = ["--output", str(out)] if argv[0] in ("census", "audit") else []
        started = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "goldbach_lab.cli", *argv, *extra],
            capture_output=True,
            text=True,
            preexec_fn=cap_address_space,
            timeout=60,
        )
        assert proc.returncode == 2, proc.stderr
        assert time.perf_counter() - started < 1
        assert proc.stderr.startswith("error: ") and "table cap 2**27" in proc.stderr
        assert not out.exists()

    def test_a_sweep_across_the_table_cap_is_refused_at_the_call(
        self, tmp_path, cap_address_space
    ):
        # its first block lies below (2^27 + 1)^2 and its second crosses it:
        # refused before the 2^27 table is built, a worker forked or a block
        # checkpointed
        square = ((1 << 27) + 1) ** 2
        checkpoint = tmp_path / "cp.json"
        code = (
            "import os, sys\n"
            "from goldbach_lab.cli import main\n"
            "forks, real_fork = [], os.fork\n"
            "os.fork = lambda: forks.append(1) or real_fork()\n"
            "code = main(sys.argv[1:])\n"
            "print(len(forks))\n"
            "sys.exit(code)\n"
        )
        argv = ["verify", "--from", str(square - 1 - 2 * sweep._MAX_BLOCK_EVENS),
                "--to", str(square + 1), "--workers", "2",
                "--checkpoint", str(checkpoint), "--checkpoint-stride", "2"]
        started = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                              text=True, preexec_fn=cap_address_space, timeout=60)
        assert (proc.returncode, proc.stdout) == (2, "0\n"), proc.stderr
        assert time.perf_counter() - started < 1
        assert proc.stderr.startswith("error: ") and "table cap 2**27" in proc.stderr
        assert not checkpoint.exists()

    def test_dc_still_answers_next_to_two_to_the_64(self, cap_address_space):
        target = (1 << 64) - 2  # dc_min tests its summands by Miller-Rabin, not the sieve
        proc = subprocess.run(
            [sys.executable, "-m", "goldbach_lab.cli", "dc", str(target)],
            capture_output=True,
            text=True,
            preexec_fn=cap_address_space,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith(f"dc({target}) = 2 ")

    # 12 divides 2**64 + 8, so at width 12 the span has ~1.5e18 rows to list
    @pytest.mark.parametrize(
        "argv",
        [["census", "--from", "1", "--row-width", str((1 << 64) + 8)],
         ["audit", "--from", "1", "--row-width", str((1 << 64) + 8)],
         ["census", "--from", "1", "--row-width", "12"],
         ["audit", "--from", "1", "--row-width", "12"],
         ["verify", "--from", "4", "--workers", "2"]],
        ids=["census", "audit", "census-rows", "audit-rows", "verify"],
    )
    def test_a_span_ending_past_two_to_the_64_is_refused_before_any_work(
        self, argv, tmp_path, cap_address_space
    ):
        checkpoint = tmp_path / "cp.json"
        extra = ["--checkpoint", str(checkpoint)] if argv[0] == "verify" else []
        proc = subprocess.run(
            [sys.executable, "-m", "goldbach_lab.cli", *argv, "--to", str((1 << 64) + 8), *extra],
            capture_output=True,
            text=True,
            preexec_fn=cap_address_space,
            timeout=5,
        )
        assert proc.returncode == 2, proc.stderr
        assert "2**64" in proc.stderr
        assert not checkpoint.exists()


README = Path(__file__).resolve().parent.parent / "README.md"
# Each domain limit, and the README's words for it, with {} where it states the value
DOMAIN_LIMITS = [
    ("primes", "SEGMENT_CAP", "A `sieve` interval wider than {} exits `2`"),
    ("primes", "_BASE_TABLE_CAP", "base-prime table is capped at the primes up to {}"),
    ("primes", "_WORD_LIMIT", "`sieve`, `verify`, `census` and `audit` sieve below {} only"),
    ("primes", "NTH_PRIME_LIMIT", "`nth_prime` sieves up to {}"),
    ("dc", "PAIR_CAP", "`dc --pairs` lists the pairs of targets up to {} only"),
    ("dc", "ORACLE_CAP", "`dc_oracle` and `dc_oracle_table` answer up to {}"),
    ("dc", "ENUMERATION_CAP", "`decompositions` up to {}"),
]


def readme_power(value):
    """A limit as the README writes it: 2^k or 10^k."""
    k = value.bit_length() - 1
    if value == 1 << k:
        return f"2^{k}"
    k = len(str(value)) - 1
    assert value == 10**k, value
    return f"10^{k}"


@pytest.mark.parametrize("module, name, words", DOMAIN_LIMITS, ids=[n for _, n, _ in DOMAIN_LIMITS])
def test_the_readme_states_each_domain_limit(module, name, words):
    value = getattr(getattr(goldbach_lab, module), name)
    assert words.format(readme_power(value)) in " ".join(README.read_text().split())
