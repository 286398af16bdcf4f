"""Run the hasimoto-lab CLI with spans recorded around each layer's public functions.

Usage: python3 trace_cli.py SPANS_JSON <hasimoto-lab arguments ...>

Every function in TRACED is wrapped, and every module attribute of the
package that holds it is rebound to the wrapper, because the modules import
each other's functions by name. A span is (name, start, end, parent span,
size), where size is the element count of the first argument when it is an
array. Spans are kept in memory and written to SPANS_JSON when the run
ends. A traced name the package no longer defines is listed as absent.
"""

import functools
import json
import sys
import time

TRACED = {
    "cli": ("main", "write_csv"),
    "validation": ("weak_residual", "covariance_check", "crosscheck_deterministic"),
    "stochastic": ("run_sllg", "stochastic_heat_step", "internal_coeffs",
                   "frame_time_step"),
    "noise": ("make_noise_model", "sample_increments", "noise_fields"),
    "hashimoto": ("reconstruct_frame", "transform"),
    "rotations": ("rotation_exp",),
    "llg": ("llg_rhs", "rk4_step"),
    "heat": ("heat_rhs",),
    "fields": ("cross", "cumint", "diff1", "diff2"),
}

PACKAGE = "hasimoto_lab"


class Tracer:
    def __init__(self):
        self.names = []
        self.spans = []      # [name index, start, end, parent index or -1, size]
        self.stack = []
        self.absent = []

    def wrap(self, name, fn):
        idx = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [idx, 0.0, 0.0, stack[-1] if stack else -1,
                    getattr(args[0], "size", 0) if args else 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
        return traced

    def install(self):
        """Wrap every traced function and rebind every package attribute holding it."""
        modules = [m for key, m in sys.modules.items()
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for mod_name, funcs in TRACED.items():
            mod = sys.modules.get(f"{PACKAGE}.{mod_name}")
            for fname in funcs:
                name = f"{mod_name}.{fname}"
                orig = getattr(mod, fname, None)
                if orig is None:
                    self.absent.append(name)
                    continue
                wrapper = self.wrap(name, orig)
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, attr, wrapper)

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"names": self.names, "absent": self.absent,
                       "spans": self.spans}, fh)


def main(argv):
    spans_path, cli_args = argv[0], argv[1:]
    import hasimoto_lab.cli as cli   # imports every module of the package
    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(cli_args)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
