"""One measured goldbach-lab process: set up as a user would, run one op, report.

Reads a JSON op spec on stdin and prints one JSON result line on stdout.
run.py starts a fresh interpreter per op, so the package's lazily filled
prime tables start empty, exactly as they do for a CLI user.

Op kinds:
  setup   only the set-up below
  cli     goldbach_lab.cli.main(argv), timed as one call
  dc      goldbach_lab.dc_min(t) for each target, each call timed
"""

import sys
import time


def main() -> int:
    spec_text = sys.stdin.read()
    t0 = time.perf_counter()
    import goldbach_lab

    # A first tiny public call fills the lazy small-prime tables.
    goldbach_lab.verify_block(4, 4)
    goldbach_lab.dc_min(4)
    setup_s = time.perf_counter() - t0

    import json
    import resource

    from goldbach_lab import cli

    spec = json.loads(spec_text)
    tracer = None
    if spec.get("trace"):
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    out = {"setup_s": setup_s}
    kind = spec["kind"]
    clock = time.perf_counter
    if kind == "cli":
        t = clock()
        out["rc"] = cli.main(spec["argv"])
        out["wall_s"] = clock() - t
    elif kind == "dc":
        dc_min = goldbach_lab.dc_min  # looked up after the tracer rebinds it
        latencies, results = [], []
        t = clock()
        for target in spec["targets"]:
            s = clock()
            try:
                r = dc_min(target)
            except Exception as exc:  # a failed query is data for error_rate
                latencies.append(clock() - s)
                results.append(repr(exc))
                continue
            latencies.append(clock() - s)
            results.append([r.value, *r.witness])
        out["wall_s"] = clock() - t
        out["latencies_s"] = latencies
        out["results"] = results
    elif kind != "setup":
        raise ValueError(f"unknown op kind {kind!r}")

    # VmHWM, unlike ru_maxrss, does not inherit the spawning parent's peak
    # across exec.  Pool workers forked from here report through RUSAGE_CHILDREN.
    with open("/proc/self/status", encoding="ascii") as fh:
        own = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    pool = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    out["peak_rss_mib"] = (own + pool) / 1024  # both in KiB
    if tracer is not None:
        out["trace"] = tracer.summary()
        if spec.get("spans_path"):
            tracer.write(spec["spans_path"], spec.get("label", kind))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
