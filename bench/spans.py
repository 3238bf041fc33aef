"""In-memory span tracer for goldbach-lab, installed from outside the package.

``install()`` rebinds the module-boundary functions listed in ``HOOKS`` to
wrappers that record one span per call: name, parent span, start and end.
Callers inside the package resolve these names through their own module's
globals at call time, so rebinding the attribute in every module that
imports a function captures every call without editing the package.

Spans stay in memory; ``summary()`` turns them into per-layer calls, total
and self time (a span's duration minus the time its child spans cover),
and ``write()`` dumps them as TSV once the measured work is over.
"""

from __future__ import annotations

import importlib
import time

_RENDERERS = (
    "envelope",
    "to_json",
    "sweep_payload",
    "sweep_text",
    "audit_payload",
    "audit_csv",
    "audit_text",
    "census_payload",
    "census_csv",
    "census_text",
    "dc_payload",
    "dc_text",
)
# (module, attribute, span name). One span name may be bound in several
# modules, because each importer holds its own reference to the function.
HOOKS = (
    ("goldbach_lab.primes", "sieve_segment", "primes.sieve_segment"),
    ("goldbach_lab.sweep", "sieve_segment", "primes.sieve_segment"),
    ("goldbach_lab.census", "sieve_segment", "primes.sieve_segment"),
    ("goldbach_lab.audit", "sieve_segment", "primes.sieve_segment"),
    ("goldbach_lab.dc", "sieve_segment", "primes.sieve_segment"),
    ("goldbach_lab.dc", "is_prime", "primes.is_prime"),
    ("goldbach_lab.cli", "run_verify", "sweep.run_verify"),
    ("goldbach_lab.sweep", "verify_block", "sweep.verify_block"),
    ("goldbach_lab.sweep", "dc_min", "sweep.fallback"),
    ("goldbach_lab.sweep", "write_checkpoint", "sweep.write_checkpoint"),
    ("goldbach_lab", "dc_min", "dc.dc_min"),
    ("goldbach_lab.cli", "dc_min", "dc.dc_min"),
    ("goldbach_lab.audit", "dc_min", "dc.dc_min"),
    ("goldbach_lab.cli", "census_range", "census.census_range"),
    ("goldbach_lab.census", "census_row", "census.census_row"),
    ("goldbach_lab.audit", "census_row", "census.census_row"),
    ("goldbach_lab.cli", "audit_range", "audit.audit_range"),
    ("goldbach_lab.audit", "evaluate_row_relations", "audit.evaluate_row_relations"),
    ("goldbach_lab.audit", "evaluate_even_relations", "audit.evaluate_even_relations"),
    ("goldbach_lab.census", "partition_rows", "rowrange.partition_rows"),
    ("goldbach_lab.audit", "partition_rows", "rowrange.partition_rows"),
) + tuple(("goldbach_lab.serialize", fn, "serialize.render") for fn in _RENDERERS)


class Tracer:
    """Spans as parallel lists; index -1 is the implicit root."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_of: list[int] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.stack = [-1]
        self.sieved_ints = 0
        self.even_keys: set[tuple[int, ...]] = set()

    def _wrap(self, fn, name: str):
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        name_of, parent, start, end, stack = self.name_of, self.parent, self.start, self.end, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(start)
            name_of.append(name_id)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        for module_name, attr, name in HOOKS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:  # the layer moved: it reports zero until the hook follows
                continue
            if name == "primes.sieve_segment":
                fn = self._count_sieved(fn)
            elif name == "audit.evaluate_even_relations":
                fn = self._count_keys(fn)
            setattr(module, attr, self._wrap(fn, name))

    def _count_sieved(self, fn):
        def counted(lo, hi, *args, **kwargs):
            self.sieved_ints += hi - lo + 1
            return fn(lo, hi, *args, **kwargs)

        return counted

    def _count_keys(self, fn):
        def counted(target, dc_value, census):
            c = census
            self.even_keys.add((dc_value, c.gamma_even, c.gamma_odd, c.gamma_prime, c.m))
            return fn(target, dc_value, census)

        return counted

    def summary(self) -> dict:
        """Per-layer calls, total and self seconds; plus top-level span time."""
        n = len(self.start)
        covered = [0.0] * n
        top_level = 0.0
        for i in range(n):
            duration = self.end[i] - self.start[i]
            p = self.parent[i]
            if p < 0:
                top_level += duration
            else:
                covered[p] += duration
        layers = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            layer = layers[self.names[self.name_of[i]]]
            duration = self.end[i] - self.start[i]
            layer["calls"] += 1
            layer["total_s"] += duration
            layer["self_s"] += duration - covered[i]
        return {
            "layers": layers,
            "top_level_s": top_level,
            "sieved_ints": self.sieved_ints,
            "even_keys": sorted(self.even_keys),
        }

    def write(self, path: str, request: str) -> None:
        """One line per span: request id, span id, parent id, name, start, end (ns)."""
        t0 = self.start[0] if self.start else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("request\tspan\tparent\tname\tstart_ns\tend_ns\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{request}\t{i}\t{self.parent[i]}\t{self.names[self.name_of[i]]}\t"
                    f"{round((self.start[i] - t0) * 1e9)}\t{round((self.end[i] - t0) * 1e9)}\n"
                )
