"""goldbach-lab benchmark: end-to-end metrics per workload, per-layer on request.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: the package is imported from
./src, nothing is installed or built.  Two workloads, four ops each; op k
feeds the end-to-end metric opk_items_per_s.  Inputs derive from --seed
only; the program receives just the generated inputs.

  sweep     op1  verify 4..10^7 at 1 worker
            op2  the same at 2 workers
            op3  verify 2^20 evens from a seeded start near 10^12
            op4  census of 10^7 integers from there at width 10^4
  audit-dc  op1  audit 1..10^5 --row-width 100 --format csv
            op2  audit 1..5000 --row-width 100 --format json
            op3  dc_min on seeded even targets in [10^17, 10^18) plus the
                 record target 3325581707333960528, one call per query
            op4  dc_min on seeded odd targets there

Each workload interleaves its ops in rounds, so every metric samples the
whole run: on a shared host whose speed swings for seconds at a time, one
long run per workload is steadier than several short ones.

Load is one closed-loop client: ops run one after another, each in a fresh
interpreter (worker.py), so lazily filled prime tables never carry over.
Rounds of the workload's ops repeat until --seconds would be exceeded.
Every output is checked after its op, outside the timed region; an op that
raises, exits non-zero or fails its check counts as failed.

--trace 0 prints the end-to-end metrics of BENCHMARK.json; --trace 1 runs
each op once traced (spans.py, one worker) and once untraced, and prints
the per-layer metrics.  The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

# Minimal Goldbach partition record: p(3325581707333960528) = 9781
# (Oliveira e Silva, Herzog & Pardi, Math. Comp. 83 (2014) 2033-2060).
RECORD_TARGET = 3325581707333960528
RECORD_P = 9781

MIN_SETUP_SAMPLES = 9
DEADLINE_S = 170  # a run must end within 180 s, whatever an op does

SIZES = {
    "full": {
        "small_to": 10_000_000,
        "high_base": 10**12,
        "high_evens": 1 << 20,
        "census_ints": 10_000_000,
        "census_width": 10_000,
        "audit_to": 100_000,
        "audit_json_to": 5_000,
        "audit_width": 100,
        "dc_batch": 5_000,
    },
    # Seconds-long sizes for bench/selftest.py.
    "tiny": {
        "small_to": 40_000,
        "high_base": 10**12,
        "high_evens": 1 << 10,
        "census_ints": 10_000,
        "census_width": 100,
        "audit_to": 1_000,
        "audit_json_to": 200,
        "audit_width": 100,
        "dc_batch": 1_000,
    },
}


def _gl():
    """The package under test, imported from ./src for output checks."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import goldbach_lab

    return goldbach_lab


def run_worker(spec: dict, tmp: Path, timeout: float) -> Optional[dict]:
    """Run one op in a fresh interpreter; None when the process fails."""
    env = dict(os.environ, TMPDIR=str(tmp))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "worker.py")],
            input=json.dumps(spec),
            capture_output=True,
            text=True,
            env=env,
            cwd=ROOT,
            timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired:
        print(f"op {spec.get('label')} timed out", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"op {spec.get('label')} exited {proc.returncode}:\n{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def dc_witness_ok(target: int, value: int, witness: list[int]) -> bool:
    """Ascending primes summing to target, as many as value, and value minimal."""
    is_prime = _gl().is_prime
    w = list(witness)
    if len(w) != value or w != sorted(w) or sum(w) != target:
        return False
    if not all(is_prime(p) for p in w):
        return False
    if value == 1:
        return True
    if is_prime(target):
        return False
    if value == 2:
        return True
    # three primes are minimal only for an odd target whose 2 + (t-2) fails
    return value == 3 and target % 2 == 1 and not is_prime(target - 2)


@dataclass
class Op:
    """One measured operation and how to check what it produced."""

    label: str
    role: str  # "op1".."op4": which end-to-end rate it feeds
    spec: dict
    items: int  # work units (evens, integers, queries) for the rate
    check: Callable[["Op", dict], int]  # returns the number of failed items
    attempted: int = 1
    traceable: bool = True
    out_bytes: int = 0


class Run:
    """State of one benchmark run: scratch paths, digests, lazy oracles."""

    def __init__(self, tmp: Path, size: dict, rng: random.Random) -> None:
        self.tmp = tmp
        self.size = size
        self.rng = rng
        self.serial = 0
        self.digests: dict[str, str] = {}
        self.cache: dict[str, object] = {}

    def path(self, stem: str) -> Path:
        self.serial += 1
        return self.tmp / f"{self.serial:04d}-{stem}"

    def once(self, key: str, compute: Callable[[], object]):
        if key not in self.cache:
            self.cache[key] = compute()
        return self.cache[key]

    def oracle(self) -> tuple[int, ...]:
        top = max(self.size["audit_to"], self.size["audit_json_to"])
        return self.once("oracle", lambda: _gl().dc_oracle_table(top))

    def output_ok(self, key: str, op: Op, path: Path, full_check: Callable[[bytes], bool]) -> bool:
        """Full check on the first good output of a key, digest identity after."""
        data = path.read_bytes()
        op.out_bytes += len(data)
        path.unlink()
        digest = hashlib.sha256(data).hexdigest()
        if key in self.digests:
            return digest == self.digests[key]
        if not full_check(data):
            return False
        self.digests[key] = digest
        return True

    # -- CLI ops ------------------------------------------------------------

    def cli_op(self, label, role, argv, items, key, full_check, traceable=True) -> Op:
        out = self.path(label + ".out")
        spec = {"kind": "cli", "label": label, "argv": argv + ["--output", str(out)]}

        def check(op: Op, res: dict) -> int:
            if res.get("rc") != 0 or not out.exists():
                return 1
            return 0 if self.output_ok(key, op, out, full_check) else 1

        return Op(label, role, spec, items, check, traceable=traceable)

    def verify_op(self, label, role, lo, hi, workers, traceable=True) -> Op:
        evens = (hi - lo) // 2 + 1
        argv = [
            "verify", "--from", str(lo), "--to", str(hi), "--workers", str(workers),
            "--format", "json", "--checkpoint", str(self.path(label + ".ckpt")),
        ]
        sample = self.once(f"sample {lo}", lambda: sorted(self.rng.sample(range(lo, hi + 1, 2), 32)))

        def full_check(data: bytes) -> bool:
            doc = json.loads(data)
            payload = {"from": lo, "to": hi, "verified": evens, "failures": []}
            return doc["command"] == "verify" and doc["payload"] == payload and self.once(
                f"witnesses {lo}", lambda: all(self._pair_ok(n) for n in sample)
            )

        # one key for every worker count: the JSON must be byte-identical
        return self.cli_op(label, role, argv, evens, f"verify {lo} {hi}", full_check, traceable)

    def _pair_ok(self, n: int) -> bool:
        r = _gl().dc_min(n)
        return r.value == 2 and dc_witness_ok(n, r.value, list(r.witness))

    def census_op(self, label, role, lo, hi, width) -> Op:
        argv = ["census", "--from", str(lo), "--to", str(hi), "--row-width", str(width), "--format", "csv"]
        probe = lo + width * self.rng.randrange((hi - lo + 1) // width)

        def full_check(data: bytes) -> bool:
            rows = list(csv.reader(io.StringIO(data.decode())))
            if rows[0] != ["row_start", "row_end", "gamma_even", "gamma_odd", "gamma_prime", "m"]:
                return False
            body = [list(map(int, r)) for r in rows[1:]]
            if len(body) != (hi - lo + 1) // width:
                return False
            for k, (start, end, ge, go, gp, m) in enumerate(body):
                if start != lo + k * width or end != start + width - 1:
                    return False
                if ge + go != m or m != width or ge != end // 2 - (start - 1) // 2:
                    return False
            is_prime = _gl().is_prime
            primes = sum(1 for n in range(probe, probe + width) if is_prime(n))
            return body[(probe - lo) // width][4] == primes

        return self.cli_op(label, role, argv, hi - lo + 1, f"census {lo} {hi}", full_check)

    def audit_op(self, label, role, hi, width, fmt) -> Op:
        argv = ["audit", "--from", "1", "--to", str(hi), "--row-width", str(width), "--format", fmt]
        evens = hi // 2 - 1  # evens A > 2 in [1, hi]
        starts = list(range(1, hi + 1, width))
        sample = set(self.rng.sample(starts, min(20, len(starts))))

        def expected_evens(start: int) -> list[int]:
            return list(range(max(4, start + start % 2), start + width, 2))

        def csv_check(data: bytes) -> bool:
            catalog = _gl().audit
            oracle = self.oracle()
            row_part, even_part = data.decode().split("\n\n", 1)
            row_lines = csv.reader(io.StringIO(row_part))
            next(row_lines)
            n_row_checks = 0
            for line in row_lines:
                n_row_checks += 1
                if int(line[2]) + int(line[3]) != int(line[5]):
                    return False
            if n_row_checks != len(starts) * len(catalog.ROW_RELATIONS):
                return False
            even_lines = csv.reader(io.StringIO(even_part))
            next(even_lines)
            n_even_checks = 0
            seen: dict[int, dict[int, list[str]]] = {s: {} for s in sample}
            for row_start, a, dc_value, relation_id, *_ in even_lines:
                n_even_checks += 1
                row = seen.get(int(row_start))
                if row is not None:
                    a = int(a)
                    if int(dc_value) != oracle[a]:
                        return False
                    row.setdefault(a, []).append(relation_id)
            return n_even_checks == evens * len(catalog.EVEN_RELATIONS) and all(
                sorted(seen[s]) == expected_evens(s)
                and all(ids == list(catalog.EVEN_RELATIONS) for ids in seen[s].values())
                for s in sample
            )

        def json_check(data: bytes) -> bool:
            even_ids = list(_gl().audit.EVEN_RELATIONS)
            oracle = self.oracle()
            doc = json.loads(data)
            rows = doc["payload"]["rows"]
            if [r["row"]["start"] for r in rows] != starts:
                return False
            for r in rows:
                c = r["census"]
                if c["gamma_even"] + c["gamma_odd"] != c["m"]:
                    return False
                if [e["A"] for e in r["per_even"]] != expected_evens(r["row"]["start"]):
                    return False
                for e in r["per_even"]:
                    if e["dc_value"] != oracle[e["A"]]:
                        return False
                    if [ch["relation_id"] for ch in e["checks"]] != even_ids:
                        return False
            summary = doc["payload"]["verdict_summary"]
            return all(sum(summary[rid].values()) == evens for rid in even_ids)

        check = csv_check if fmt == "csv" else json_check
        return self.cli_op(label, role, argv, evens, f"audit {hi} {fmt}", check)

    # -- dc ops -------------------------------------------------------------

    def dc_op(self, label, role, n, parity) -> Op:
        """dc_min on n seeded targets of one parity in [10^17, 10^18)."""
        targets = [2 * self.rng.randrange(5 * 10**16, 5 * 10**17) + parity for _ in range(n)]
        if parity == RECORD_TARGET % 2:
            targets.insert(self.rng.randrange(n + 1), RECORD_TARGET)
        spec = {"kind": "dc", "label": label, "targets": targets}

        def check(op: Op, res: dict) -> int:
            failed = 0
            for target, r in zip(targets, res["results"]):
                ok = isinstance(r, list) and dc_witness_ok(target, r[0], r[1:])
                if ok and target == RECORD_TARGET:
                    ok = r[1] == RECORD_P
                failed += not ok
            return failed + len(targets) - len(res["results"])

        return Op(label, role, spec, len(targets), check, attempted=len(targets))


# -- workloads ---------------------------------------------------------------
# Each returns a function building one round's fresh ops (new checkpoint and
# output paths every time), and the name and unit each op's rate is printed
# under.


def sweep(run: Run):
    s = run.size
    lo = s["high_base"] + 2 * run.rng.randrange(10**8)
    hi = lo + 2 * (s["high_evens"] - 1)

    def ops():
        return [
            run.verify_op("verify-w1", "op1", 4, s["small_to"], 1),
            # forked pool workers would lose their spans: never traced
            run.verify_op("verify-w2", "op2", 4, s["small_to"], 2, traceable=False),
            run.verify_op("verify-high", "op3", lo, hi, 1),
            run.census_op("census-high", "op4", lo + 1, lo + s["census_ints"], s["census_width"]),
        ]

    return ops, {
        "op1": ("verify_evens_per_s", "evens/s"),
        "op2": ("verify_w2_evens_per_s", "evens/s"),
        "op3": ("verify_high_evens_per_s", "evens/s"),
        "op4": ("census_ints_per_s", "ints/s"),
    }


def audit_dc(run: Run):
    s = run.size

    def ops():
        return [
            run.audit_op("audit-csv", "op1", s["audit_to"], s["audit_width"], "csv"),
            run.audit_op("audit-json", "op2", s["audit_json_to"], s["audit_width"], "json"),
            run.dc_op("dc-even", "op3", s["dc_batch"], 0),
            run.dc_op("dc-odd", "op4", s["dc_batch"], 1),
        ]

    return ops, {
        "op1": ("audit_evens_per_s", "evens/s"),
        "op2": ("audit_json_evens_per_s", "evens/s"),
        "op3": ("dc_even_queries_per_s", "queries/s"),
        "op4": ("dc_odd_queries_per_s", "queries/s"),
    }


WORKLOADS = {"sweep": sweep, "audit-dc": audit_dc}


# -- measurement ---------------------------------------------------------------


@dataclass
class Done:
    """An op after it ran: the worker's result (None if it died) and failures."""

    op: Op
    result: Optional[dict]
    failed: int


class Measurement:
    """The ops of one run, in order and grouped by round."""

    def __init__(self, run: Run, trace: bool) -> None:
        self.run = run
        self.trace = trace
        self.done: list[Done] = []
        self.rounds: list[dict[str, list[Done]]] = []
        self.deadline = time.perf_counter() + DEADLINE_S

    def execute(self, op: Op, traced: bool) -> Done:
        spec = dict(op.spec)
        if traced:
            OUT_DIR.mkdir(exist_ok=True)
            spec.update(trace=True, spans_path=str(OUT_DIR / f"spans-{op.label}.tsv"))
        res = run_worker(spec, self.run.tmp, self.deadline - time.perf_counter())
        if res is None:
            failed = op.attempted
        else:
            try:
                failed = op.check(op, res)
            except Exception as exc:  # malformed output is a failed check
                print(f"op {op.label}: check raised {exc!r}", file=sys.stderr)
                failed = op.attempted
        done = Done(op, res, failed)
        self.done.append(done)
        return done

    def round(self, build: Callable[[], list[Op]]) -> None:
        entry: dict[str, list[Done]] = {"traced": [], "plain": []}
        if self.trace:
            entry["traced"] = [self.execute(op, True) for op in build() if op.traceable]
        entry["plain"] = [self.execute(op, False) for op in build()]
        self.rounds.append(entry)

    def setup_samples(self) -> list[float]:
        return [d.result["setup_s"] for d in self.done if d.result]

    def counts(self) -> tuple[int, int]:
        """(attempted, failed) over every op run, traced or not."""
        return sum(d.op.attempted for d in self.done), sum(d.failed for d in self.done)


def rate(d: Done) -> Optional[float]:
    if d.result is None or d.failed:
        return None
    return d.op.items / d.result["wall_s"]


def throughput(m: Measurement, role: str) -> tuple[float, int]:
    """Work completed per second over the run's good untraced ops of a role."""
    good = [d for r in m.rounds for d in r["plain"] if d.op.role == role and rate(d)]
    wall = sum(d.result["wall_s"] for d in good)
    return (sum(d.op.items for d in good) / wall if wall else 0.0), len(good)


def median_of(values) -> float:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0


def end_to_end(m: Measurement, names: dict) -> tuple[dict, dict]:
    """The BENCHMARK.json metrics plus the per-op figures behind them."""
    slots, named = {}, {}
    for role, (name, unit) in names.items():
        value, n = throughput(m, role)
        slots[f"{role}_items_per_s"] = value
        named[name] = (value, unit, f"{n} ops")
    setups = m.setup_samples()
    rss = [d.result["peak_rss_mib"] for r in m.rounds for d in r["plain"] if d.result]
    attempted, failed = m.counts()
    slots["setup_s"] = median_of(setups)
    slots["peak_rss_mib"] = max(rss, default=0.0)
    named.update(
        setup_s=(slots["setup_s"], "s", f"median of {len(setups)} fresh processes"),
        peak_rss_mib=(slots["peak_rss_mib"], "MiB", f"max over {len(rss)} ops"),
        error_rate=(failed / attempted if attempted else 0.0, "ratio", f"{failed} of {attempted} ops failed"),
    )
    queried = [d for r in m.rounds for d in r["plain"] if rate(d) and "latencies_s" in d.result]
    latencies = [x for d in queried for x in d.result["latencies_s"]]
    if len(latencies) >= 1000:  # p99 needs at least ten samples beyond it
        wall = sum(d.result["wall_s"] for d in queried)
        q = statistics.quantiles(latencies, n=100)
        named["dc_queries_per_s"] = (len(latencies) / wall, "queries/s", "both parities")
        named["dc_p50_ms"] = (q[49] * 1e3, "ms", f"{len(latencies)} queries")
        named["dc_p99_ms"] = (q[98] * 1e3, "ms", f"{len(latencies)} queries")
    return slots, named


def per_layer(m: Measurement) -> dict:
    """Per-layer figures of each traced round; the run reports their medians."""
    per_round = [layer_round(r) for r in m.rounds]
    keys = set().union(*per_round) if per_round else set()
    return {k: median_of(r.get(k, 0.0) for r in per_round) for k in keys}


def self_time_by_op(m: Measurement) -> dict[str, dict[str, float]]:
    """Median self seconds of each layer, per traced op kind."""
    seen: dict[str, dict[str, list[float]]] = {}
    for r in m.rounds:
        for d in r["traced"]:
            if d.result and "trace" in d.result:
                for name, v in d.result["trace"]["layers"].items():
                    seen.setdefault(d.op.label, {}).setdefault(name, []).append(v["self_s"])
    return {label: {k: median_of(v) for k, v in layers.items()} for label, layers in seen.items()}


def layer_round(entry: dict[str, list[Done]]) -> dict:
    traced = [d for d in entry["traced"] if d.result and "trace" in d.result]
    plain = {d.op.label: d for d in entry["plain"]}
    out: dict[str, float] = {}
    layers: dict[str, dict] = {}
    sieved = sieved_in_verify = evens_verified = 0
    keys: set[tuple] = set()
    cli_overhead = 0.0
    for d in traced:
        tr = d.result["trace"]
        for name, v in tr["layers"].items():
            acc = layers.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            for k in acc:
                acc[k] += v[k]
        if d.op.spec.get("argv", [""])[0] == "verify":
            sieved_in_verify += tr["sieved_ints"]
            evens_verified += d.op.items
        keys.update(map(tuple, tr["even_keys"]))
        if d.op.spec["kind"] != "dc":
            cli_overhead += d.result["wall_s"] - tr["top_level_s"]
        sieved += tr["sieved_ints"]
    for name, v in layers.items():
        for k, value in v.items():
            out[f"{name}.{k}"] = value

    def calls(name: str) -> int:
        return layers.get(name, {}).get("calls", 0)

    fallback = calls("sweep.fallback")
    out["primes.sieve_segment.ints"] = sieved
    out["sweep.sieved_per_even"] = sieved_in_verify / evens_verified if evens_verified else 0.0
    out["sweep.mask_resolved_ratio"] = 1 - fallback / evens_verified if evens_verified else 0.0
    out["dc.candidates_per_target"] = (
        calls("primes.is_prime") / calls("dc.dc_min") if calls("dc.dc_min") else 0.0
    )
    out["audit.distinct_even_keys"] = len(keys)
    out["audit.even_key_reuse"] = calls("audit.evaluate_even_relations") / len(keys) if keys else 0.0
    out["serialize.output_bytes"] = sum(d.op.out_bytes for d in traced)
    out["cli.overhead_s"] = cli_overhead
    out["trace.overhead_s"] = sum(
        d.result["wall_s"] - plain[d.op.label].result["wall_s"]
        for d in traced
        if plain.get(d.op.label) and plain[d.op.label].result
    )
    w1, w2 = plain.get("verify-w1"), plain.get("verify-w2")
    if w1 and w2 and w1.result and w2.result:
        out["sweep.w2_efficiency"] = w1.result["wall_s"] / (2 * w2.result["wall_s"])
    return out


def machine() -> dict:
    src_loc = sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))
    return {
        "cpus_affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "src_loc": src_loc,
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    """Run one workload and return its record (metrics, counts, machine)."""
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    tmp = Path(tempfile.mkdtemp(prefix=".bench-tmp-", dir=ROOT))
    try:
        run = Run(tmp, SIZES[size], random.Random(f"{workload}/{seed}"))
        build, names = WORKLOADS[workload](run)
        m = Measurement(run, trace)
        # compiles bytecode and warms the file cache; never measured
        if run_worker({"kind": "setup", "label": "warm-up"}, tmp, DEADLINE_S) is None:
            raise SystemExit("error: goldbach_lab does not import")
        started = time.perf_counter()
        while True:
            t = time.perf_counter()
            m.round(build)
            # stop when another round like the last would overrun
            if 2 * time.perf_counter() - t - started > seconds:
                break
        for _ in range(MIN_SETUP_SAMPLES - len(m.setup_samples())):
            m.execute(Op("setup", "setup", {"kind": "setup"}, 0, lambda op, res: 0), False)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    slots, named = end_to_end(m, names)
    wanted = config["per_layer"] if trace else config["end_to_end"]
    values = per_layer(m) if trace else slots
    metrics = {e["name"]: {"value": float(values.get(e["name"], 0.0)), "unit": e["unit"]} for e in wanted}
    attempted, failed = m.counts()
    why = next(w["why"] for w in config["workloads"] if w["name"] == workload)
    return {
        "workload": workload,
        "why": why,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "rounds": len(m.rounds),
        "machine": machine(),
        "samples": {
            role: [rate(d) for r in m.rounds for d in r["plain"] if d.op.role == role]
            for role in names
        },
        "setup_samples": m.setup_samples(),
        "named": {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in named.items()},
        "self_s_by_op": self_time_by_op(m),
        "result": {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics},
    }


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "goldbach_lab" / "__init__.py").is_file():
        print(f"error: no goldbach_lab package under {SRC}", file=sys.stderr)
        return 2

    record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / stem).write_text(json.dumps(record, indent=2) + "\n")
    print(report(record))
    return 0


def report(record: dict) -> str:
    """Human-readable lines, then the result object as the last line."""
    mc = record["machine"]
    lines = [
        f"workload={record['workload']} seed={record['seed']} trace={record['trace']} "
        f"rounds={record['rounds']} cpus={mc['cpus_affinity']} python={mc['python']} "
        f"src_loc={mc['src_loc']}",
        f"why: {record['why']}",
    ]
    for name, v in record["named"].items():
        lines.append(f"  {name:<24} {v['value']:>14.6g} {v['unit']:<10} ({v['n']})")
    if record["trace"]:
        for name, v in record["result"]["metrics"].items():
            lines.append(f"  {name:<40} {v['value']:>14.6g} {v['unit']}")
        for label, layers in record["self_s_by_op"].items():
            total = sum(layers.values()) or 1.0
            top = sorted(layers.items(), key=lambda kv: -kv[1])[:3]
            lines.append(f"  {label} self time: " + ", ".join(f"{k} {v / total:.0%}" for k, v in top))
    lines.append(json.dumps(record["result"]))
    return "\n".join(lines)


if __name__ == "__main__":
    sys.exit(main())
