"""Self-test of the benchmark at tiny sizes, in about half a minute.

    python3 bench/selftest.py

For every workload, traced and untraced, it checks that the run completes
with every output correct, that the report prints every per-op metric with
its unit and ends in the one-line result object, and that a deliberately
corrupted output of each op kind is counted as a failed op in error_rate.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import run

NAMED = {
    "sweep": {
        "verify_evens_per_s": "evens/s",
        "verify_w2_evens_per_s": "evens/s",
        "verify_high_evens_per_s": "evens/s",
        "census_ints_per_s": "ints/s",
    },
    "audit-dc": {
        "audit_evens_per_s": "evens/s",
        "audit_json_evens_per_s": "evens/s",
        "dc_even_queries_per_s": "queries/s",
        "dc_odd_queries_per_s": "queries/s",
        "dc_queries_per_s": "queries/s",
        "dc_p50_ms": "ms",
        "dc_p99_ms": "ms",
    },
}
COMMON = {"setup_s": "s", "peak_rss_mib": "MiB", "error_rate": "ratio"}


def corrupt_first_ops(real_run_worker):
    """A run_worker that damages what the first op of each kind produced."""
    seen = set()

    def damaged(spec, tmp, timeout):
        res = real_run_worker(spec, tmp, timeout)
        if res is None or spec["kind"] == "setup" or spec["label"] in seen:
            return res
        seen.add(spec["label"])
        if spec["kind"] == "cli":
            out = Path(spec["argv"][spec["argv"].index("--output") + 1])
            out.write_bytes(out.read_bytes()[: out.stat().st_size // 2])
        else:
            res["results"][0][-1] += 2  # the witness no longer sums to the target
        return res

    return damaged


def check_report(record: dict, config: dict) -> None:
    text = run.report(record)
    *lines, last = text.splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
    wanted = config["per_layer"] if record["trace"] else config["end_to_end"]
    assert [m["name"] for m in wanted] == list(result["metrics"]), result["metrics"]
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    named = {**NAMED[record["workload"]], **COMMON}
    for name, unit in named.items():
        assert any(line.split()[:1] == [name] and f" {unit} " in line for line in lines), (name, text)
    assert record["named"]["error_rate"]["value"] == 0


def main() -> int:
    config = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for workload in run.WORKLOADS:
        for trace in (False, True):
            record = run.measure(workload, 7, 0.5, trace, size="tiny")
            check_report(record, config)
            print(f"ok   {workload} trace={int(trace)}: {record['result']['attempted']} ops checked")
        real = run.run_worker
        run.run_worker = corrupt_first_ops(real)
        try:
            record = run.measure(workload, 7, 0.5, False, size="tiny")
        finally:
            run.run_worker = real
        result = record["result"]
        assert not result["correct"] and result["failed"] == 4, result  # one per op kind
        assert record["named"]["error_rate"]["value"] > 0
        print(f"ok   {workload} corrupted output counted: {result['failed']} of {result['attempted']} failed")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
