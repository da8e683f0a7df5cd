"""Run one `eitlsm` CLI command in this process with spans around the layer functions.

Usage: python3 benchmarks/traced.py [--memory] SPANS_JSON <cli arguments...>

Every public layer function the CLI path reaches is replaced, in each
`eitlsm` module that holds a reference to it, by a wrapper that records a
span (name, start, end, parent span) and values such as sizes at the call
boundary. With `--memory`, tracemalloc also follows allocations (numpy's
included) around `trace_batch` and around the rest of `indicator_map`; it
slows every allocation, the sweep's about threefold, so the timed spans
come from runs without it. The spans stay in memory and are written once to
SPANS_JSON when the command returns; the process exits with the command's
exit code. Times are CLOCK_MONOTONIC seconds, so the parent can place them
against the moment it started this process.

The sweep's worker threads run only code below `indicator_map` that is not
wrapped; a wrapped function called off the main thread runs untraced.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
import tracemalloc

# (module, attribute, span name)
LAYER_FUNCTIONS = [
    ("eitlsm.geometry", "build_disk_mesh", "geometry.mesh"),
    ("eitlsm.geometry", "trace_to_fourier", "geometry.fourier"),
    ("eitlsm.media", "parse_scenario", "media.parse"),
    ("eitlsm.media", "check_coercivity", "media.coercivity"),
    ("eitlsm.forward", "assemble_system", "forward.assemble"),
    ("eitlsm.forward", "FemSystem.__init__", "forward.factorize"),
    ("eitlsm.forward", "nd_map_from_system", "forward.nd_columns"),
    ("eitlsm.forward", "save_nd_map", "forward.nd_io"),
    ("eitlsm.forward", "load_nd_map", "forward.nd_io"),
    ("eitlsm.dipole", "SingularTraceComputer.trace_batch", "dipole.traces"),
    ("eitlsm.sampling", "make_relative_data", "sampling.svd"),
    ("eitlsm.sampling", "indicator_map", "sampling.sweep"),
    ("eitlsm.sampling", "estimate_support", "sampling.support"),
    ("eitlsm.sampling", "write_indicator_csv", "sampling.write"),
    ("eitlsm.sampling", "write_mask_csv", "sampling.write"),
    ("eitlsm.sampling", "write_indicator_pgm", "sampling.write"),
]

MEMORY_SPANS = ("dipole.traces", "sampling.sweep")


class Tracer:
    """Spans and per-call values recorded at the layer boundaries."""

    def __init__(self, memory: bool):
        self.memory_spans = MEMORY_SPANS if memory else ()
        self.spans = []  # [name, start, end, parent index or None]
        self.values = {}  # name -> list of numbers, reduced by the parent
        self._stack = []
        self._main = threading.get_ident()

    def note(self, name: str, value: float) -> None:
        self.values.setdefault(name, []).append(value)

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if threading.get_ident() != self._main:
                return fn(*args, **kwargs)
            index = len(self.spans)
            self.spans.append([name, time.monotonic(), None, self._stack[-1] if self._stack else None])
            self._stack.append(index)
            memory = name in self.memory_spans
            if memory:
                started = not tracemalloc.is_tracing()
                if started:
                    tracemalloc.start()
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            try:
                result = fn(*args, **kwargs)
            finally:
                if memory:
                    self.note(name + "_peak_bytes", tracemalloc.get_traced_memory()[1] - base)
                    if started:
                        tracemalloc.stop()
                    else:
                        # the enclosing span's peak counts only what follows
                        tracemalloc.reset_peak()
                self._stack.pop()
                self.spans[index][2] = time.monotonic()
            self._after(name, args, result)
            return result

        return traced

    def _after(self, name: str, args, result) -> None:
        if name == "geometry.mesh":
            self.note("geometry.vertices", result.n_vertices)
        elif name == "forward.factorize":
            factors = [v for v in vars(args[0]).values() if hasattr(v, "L") and hasattr(v, "U")]
            self.note("forward.lu_fill_nnz", sum(f.L.nnz + f.U.nnz for f in factors))
        elif name == "dipole.traces":
            self.note("dipole.rhs", len(result))
        elif name == "sampling.sweep":
            self.note("sampling.points", len(result))
        elif name == "sampling.write":
            self.note("sampling.output_bytes", os.path.getsize(args[-1]))

    def install(self) -> None:
        """Replace each layer function wherever an `eitlsm` module refers to it."""
        for module_name, attr, name in LAYER_FUNCTIONS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, method, self.wrap(getattr(cls, method), name))
                continue
            original = getattr(owner, attr)
            wrapped = self.wrap(original, name)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] == "eitlsm" and getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapped)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "values": self.values}, fh)


def main() -> int:
    memory = sys.argv[1] == "--memory"
    spans_path, argv = sys.argv[1 + memory], sys.argv[2 + memory:]
    import eitlsm.cli

    tracer = Tracer(memory)
    tracer.install()
    code = eitlsm.cli.main(argv)
    tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
