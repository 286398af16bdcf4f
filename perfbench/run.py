"""hasimoto-lab benchmark: CLI workloads, end-to-end metrics, a traced per-layer run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ensemble --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --smoke
    python3 perfbench/run.py --compare A.json B.json
    python3 perfbench/run.py --record-reference

Every CLI call runs `python -m hasimoto_lab.cli` with PYTHONPATH=src in a
fresh interpreter, one at a time. A run measures set-up (fresh imports of
hasimoto_lab.cli), then repeats samples of the workload until --seconds is
spent. With --trace 0 it reports the end-to-end metrics of BENCHMARK.json,
from untraced calls; with --trace 1 it alternates untraced and traced calls
of the same inputs and reports the per-layer metrics, taken from spans that
trace_cli.py records around each module's public functions.

Each sample's outputs are checked (workloads.py); sample 0 uses fixed
reference inputs whose report.json must match reference.json to within
REL_TOL * |value| + ABS_TOL. The last line of standard output is one JSON
object {correct, attempted, failed, metrics}; the full result, with machine
facts, goes to perfbench/out/results-*.json, which --compare reads.
"""

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

from trace_cli import TRACED
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
CONTRACT = os.path.join(ROOT, "BENCHMARK.json")
REFERENCE = os.path.join(HERE, "reference.json")
TRACE_CLI = os.path.join(HERE, "trace_cli.py")

SETUP_AT_START = 4         # fresh imports before the first sample; one more
                           # precedes every sample, and setup_s is their median
RUN_DEADLINE_S = 170.0     # a single-workload run kills its children after this
REL_TOL = 1e-9             # reference match: |x - ref| <= REL_TOL |ref| + ABS_TOL
ABS_TOL = 1e-12


class Checks:
    """Counts attempted checks and keeps the failed ones."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def __call__(self, name, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}")
        return ok


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_child(cmd, log_path, deadline):
    """Run cmd to completion: (exit code, wall seconds, peak RSS in MB).

    The child is killed if it is still running at the perf_counter time deadline.
    """
    timeout = max(1.0, deadline - time.perf_counter())
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=log,
                                env=child_env(), cwd=ROOT)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def time_import(workdir, deadline):
    """Wall time of a fresh interpreter that imports hasimoto_lab.cli."""
    log = os.path.join(workdir, "setup.log")
    rc, wall, _ = run_child([sys.executable, "-c", "import hasimoto_lab.cli"],
                            log, deadline)
    if rc != 0:
        with open(log) as fh:
            raise SystemExit(f"importing hasimoto_lab.cli failed:\n{fh.read()}")
    return wall


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def flatten(obj, prefix=""):
    """Leaves of nested dicts and lists, keyed by dotted path."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return {prefix[:-1]: obj}
    out = {}
    for key, val in items:
        out.update(flatten(val, f"{prefix}{key}."))
    return out


def reference_mismatches(report, ref):
    """Keys of ref whose value report lacks or misses by more than the bound."""
    flat = flatten(report)
    bad = []
    for key, want in ref.items():
        got = flat.get(key)
        if isinstance(want, bool) or not isinstance(want, (int, float)):
            ok = got == want
        else:
            ok = (isinstance(got, (int, float)) and not isinstance(got, bool)
                  and abs(got - want) <= REL_TOL * abs(want) + ABS_TOL)
        if not ok:
            bad.append(f"{key}={got!r} (reference {want!r})")
    return bad


def run_sample(wl, size, params, workdir, tag, traced, reference, check, deadline):
    """One pass of the workload's CLI calls: timings, reports and span totals."""
    legs = {}
    sample = {"wall": 0.0, "rss": 0.0, "legs": legs, "ok": True,
              "totals": {}, "absent": set()}
    for leg, args in wl.calls(size, params):
        out = os.path.join(workdir, f"{tag}-{leg}")
        os.makedirs(out)
        spans = os.path.join(out, "spans.json")
        prefix = ([sys.executable, TRACE_CLI, spans] if traced
                  else [sys.executable, "-m", "hasimoto_lab.cli"])
        rc, wall, rss = run_child(prefix + args + ["--out", out],
                                  os.path.join(out, "stderr.log"), deadline)
        sample["wall"] += wall
        sample["rss"] = max(sample["rss"], rss)
        if not check(f"{leg}.exit", rc == 0, f"exit code {rc}: {last_line(out)}"):
            sample["ok"] = False
            continue
        try:
            status = read_json(os.path.join(out, "manifest.json")).get("status")
            report = read_json(os.path.join(out, "report.json"))
        except (OSError, ValueError) as exc:
            status = repr(exc)
        if not check(f"{leg}.manifest", status == "complete", status):
            sample["ok"] = False
            continue
        legs[leg] = {"report": report, "out": out}
        if traced:
            add_span_totals(read_json(spans), sample)
    if sample["ok"]:
        try:
            sample["node_steps"], sample["paths"] = wl.verify(
                size, legs, check, reference)
        except (KeyError, IndexError, TypeError, ValueError, OSError) as exc:
            # a report whose layout changed fails the check, not the run
            sample["ok"] = check("verify", False, repr(exc))
        sample["csv_bytes"] = sum(
            os.path.getsize(os.path.join(leg["out"], f))
            for leg in legs.values() for f in os.listdir(leg["out"])
            if f.startswith("series_") and f.endswith(".csv"))
    for leg in legs.values():
        shutil.rmtree(leg["out"])
    return sample


def last_line(out):
    with open(os.path.join(out, "stderr.log"), errors="replace") as fh:
        lines = fh.read().strip().splitlines()
    return lines[-1] if lines else ""


def add_span_totals(data, sample):
    """Add one call's spans to the sample's [calls, inclusive s, self s, size] per name."""
    names, spans = data["names"], data["spans"]
    sample["absent"].update(data["absent"])
    child = [0.0] * len(spans)
    for _, t0, t1, parent, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    for i, (name_idx, t0, t1, _, size) in enumerate(spans):
        acc = sample["totals"].setdefault(names[name_idx], [0, 0.0, 0.0, 0])
        acc[0] += 1
        acc[1] += t1 - t0
        acc[2] += t1 - t0 - child[i]
        acc[3] += size


def layer_metrics(plain, traced):
    """Per-layer metrics of one (untraced, traced) pair of samples with the same inputs."""
    totals = traced["totals"]
    m = {}
    for mod, funcs in TRACED.items():
        mod_self = 0.0
        for fn in funcs:
            calls, incl, self_s, _ = totals.get(f"{mod}.{fn}", (0, 0.0, 0.0, 0))
            m[f"{mod}.{fn}.calls"] = calls
            m[f"{mod}.{fn}.self_s"] = self_s
            m[f"{mod}.{fn}.us_per_call"] = 1e6 * incl / calls if calls else 0.0
            mod_self += self_s
        m[f"{mod}.self_s"] = mod_self
    _, incl, _, nodes = totals.get("hashimoto.reconstruct_frame", (0, 0.0, 0.0, 0))
    m["hashimoto.reconstruct_frame.us_per_node"] = 1e6 * incl / nodes if nodes else 0.0
    m["cli.write_csv.bytes"] = traced["csv_bytes"]
    m["trace.overhead_s"] = traced["wall"] - plain["wall"]
    m["counters.node_steps"] = traced["node_steps"]
    m["counters.paths"] = traced["paths"]
    m["counters.rhs_evals"] = m["heat.heat_rhs.calls"] + m["llg.llg_rhs.calls"]
    m["counters.frame_reconstructions"] = m["hashimoto.reconstruct_frame.calls"]
    return m


def run_workload(wl, size, seed, seconds, trace, min_samples, deadline):
    """Measure one workload; returns the result dict written to the results file."""
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=OUT)
    check = Checks()
    try:
        wl.prepare(workdir, size)
        setup = [time_import(workdir, deadline) for _ in range(SETUP_AT_START)]
        references = read_json(REFERENCE)[size][wl.name]
        rng = random.Random(seed)
        samples, layers, absent = [], [], set()
        t_start = time.perf_counter()
        while True:
            i = len(samples)
            setup.append(time_import(workdir, deadline))
            params = wl.params(rng, reference=(i == 0))
            plain = run_sample(wl, size, params, workdir, f"s{i}-plain", False,
                               i == 0, check, deadline)
            samples.append(plain)
            if i == 0 and plain["ok"]:
                for leg, data in plain["legs"].items():
                    bad = reference_mismatches(data["report"], references[leg])
                    check(f"{leg}.reference", not bad, "; ".join(bad[:3]))
            if trace:
                traced = run_sample(wl, size, params, workdir, f"s{i}-traced",
                                    True, i == 0, check, deadline)
                if plain["ok"] and traced["ok"]:
                    for leg, data in plain["legs"].items():
                        check(f"{leg}.traced_report_equal",
                              data["report"] == traced["legs"][leg]["report"],
                              "tracing changed report.json")
                    layers.append(layer_metrics(plain, traced))
                    absent = traced["absent"]
            elapsed = time.perf_counter() - t_start
            if len(samples) >= min_samples and elapsed * (i + 2) / (i + 1) > seconds:
                break
        good = [s for s in samples if s["ok"]]
        check("samples", bool(good) and (bool(layers) or not trace),
              "no sample completed")
        for key in ("node_steps", "paths"):
            values = sorted({s[key] for s in good})
            check(f"counters.{key}.repeat", len(values) <= 1, values)
        for key in ("rhs_evals", "frame_reconstructions"):
            values = sorted({m[f"counters.{key}"] for m in layers})
            check(f"counters.{key}.repeat", len(values) <= 1, values)
        result = {"workload": wl.name, "size": size, "seed": seed,
                  "samples": len(samples)}
        if good:
            walls = [s["wall"] for s in good]
            result["wall_s_samples"] = walls
            result["e2e"] = {
                "setup_s": statistics.median(setup),
                "wall_s": statistics.median(walls),
                "node_steps_per_s": statistics.median(
                    s["node_steps"] / s["wall"] for s in good),
                "peak_rss_mb": statistics.median(s["rss"] for s in good),
            }
        if layers:
            result["per_layer"] = {k: statistics.median_low(m[k] for m in layers)
                                   for k in layers[0]}
            result["absent"] = sorted(absent)
        result.update(attempted=check.attempted, failed=len(check.failures),
                      failures=check.failures, correct=not check.failures)
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def machine_facts(loadavg):
    import numpy
    facts = {"nproc": os.cpu_count(),
             "cpus_usable": len(os.sched_getaffinity(0)),
             "python": platform.python_version(), "numpy": numpy.__version__,
             "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
             "loadavg_at_start": list(loadavg)}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        facts["blas"] = "unknown"
    return facts


def contract():
    return read_json(CONTRACT)


def percentile_line(walls):
    """The highest percentile that has at least ten samples above it, if above the median."""
    n = len(walls)
    k = n - 11                       # index of the value with ten samples above it
    if k <= n // 2:
        return f"n={n} samples (a tail percentile above the median needs 23)"
    return f"n={n} samples, p{100 * (k + 1) // n}={sorted(walls)[k]:.4f} s"


def print_result(result, spec, trace):
    name = result["workload"]
    print(f"[{name}] samples={result['samples']} "
          f"checks={result['attempted']} failed={result['failed']} "
          f"fail_rate={result['failed'] / max(1, result['attempted']):.4f}")
    for msg in result["failures"]:
        print(f"[{name}] FAILED {msg}")
    if "e2e" in result:
        for m in spec["end_to_end"]:
            print(f"[{name}] {m['name']:<18} {result['e2e'][m['name']]:.6g} {m['unit']}")
        print(f"[{name}] wall_s {percentile_line(result['wall_s_samples'])}")
    if trace and "per_layer" in result:
        for m in spec["per_layer"]:
            print(f"[{name}] {m['name']:<52} {result['per_layer'][m['name']]:.6g} {m['unit']}")
        if result["absent"]:
            print(f"[{name}] absent traced names: {', '.join(result['absent'])}")


def metrics_json(result, spec, trace):
    key, source = ("per_layer", "per_layer") if trace else ("end_to_end", "e2e")
    values = result.get(source, {})
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec[key] if m["name"] in values}


def write_results(label, results, loadavg):
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"results-{label}.json")
    with open(path, "w") as fh:
        json.dump({"machine": machine_facts(loadavg),
                   "workloads": {r["workload"]: r for r in results}}, fh, indent=1)
    print(f"results written to {os.path.relpath(path, ROOT)}")


def compare(path_a, path_b):
    spec = contract()
    a, b = read_json(path_a), read_json(path_b)
    print(f"A = {path_a}: {a['machine']}")
    print(f"B = {path_b}: {b['machine']}")
    for name in sorted(set(a["workloads"]) & set(b["workloads"])):
        ea = a["workloads"][name].get("e2e", {})
        eb = b["workloads"][name].get("e2e", {})
        for m in spec["end_to_end"]:
            if m["name"] not in ea or m["name"] not in eb:
                continue
            ratio = eb[m["name"]] / ea[m["name"]]
            worse = ratio - 1 if m["better"] == "lower" else 1 - ratio
            verdict = ("worse" if worse > m["bound"] else
                       "better" if -worse > m["bound"] else "within bound")
            print(f"{name:<14} {m['name']:<18} A={ea[m['name']]:.6g} "
                  f"B={eb[m['name']]:.6g} {m['unit']:<6} B/A={ratio:.4f} "
                  f"bound={m['bound']} {verdict}")


def record_reference():
    """Write reference.json from sample 0 of every workload at both sizes."""
    ref = {}
    for size in ("full", "smoke"):
        ref[size] = {}
        for wl in WORKLOADS.values():
            os.makedirs(OUT, exist_ok=True)
            workdir = tempfile.mkdtemp(prefix="ref-", dir=OUT)
            try:
                wl.prepare(workdir, size)
                check = Checks()
                sample = run_sample(wl, size, wl.params(None, reference=True),
                                    workdir, "s0-ref", False, True, check,
                                    time.perf_counter() + RUN_DEADLINE_S)
                if check.failures:
                    raise SystemExit(f"{wl.name}/{size}: {check.failures}")
                ref[size][wl.name] = {leg: flatten(d["report"])
                                      for leg, d in sample["legs"].items()}
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
    with open(REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {os.path.relpath(REFERENCE, ROOT)}")


def smoke(loadavg):
    """Tiny sizes, traced and untraced, every check; metric names match the contract."""
    spec = contract()
    ok = True
    results = []
    for wl in WORKLOADS.values():
        result = run_workload(wl, "smoke", 1, 0, True, 2,
                              time.perf_counter() + RUN_DEADLINE_S)
        results.append(result)
        print_result(result, spec, trace=False)
        for key, source in (("end_to_end", "e2e"), ("per_layer", "per_layer")):
            want = [m["name"] for m in spec[key]]
            got = list(result.get(source, {}))
            if sorted(want) != sorted(got):
                print(f"[{wl.name}] {key} names differ from BENCHMARK.json: "
                      f"missing {sorted(set(want) - set(got))}, "
                      f"extra {sorted(set(got) - set(want))}")
                ok = False
        ok = ok and result["correct"]
    write_results("smoke", results, loadavg)
    print("smoke: ok" if ok else "smoke: FAILED")
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="measuring time per workload (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    loadavg = os.getloadavg()

    if args.compare:
        compare(*args.compare)
        return 0
    if not os.path.isfile(os.path.join(SRC, "hasimoto_lab", "cli.py")):
        print(f"no hasimoto_lab sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    if args.record_reference:
        record_reference()
        return 0
    if args.smoke:
        return smoke(loadavg)
    if not args.workload:
        parser.error("--workload is required")

    spec = contract()
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        deadline = time.perf_counter() + RUN_DEADLINE_S
        result = run_workload(WORKLOADS[name], "full", args.seed, seconds,
                              bool(args.trace), 2 if args.trace else 3, deadline)
        results.append(result)
        print_result(result, spec, bool(args.trace))
    write_results(f"{args.workload}-seed{args.seed}-trace{args.trace}",
                  results, loadavg)
    if len(results) == 1:
        metrics = metrics_json(results[0], spec, bool(args.trace))
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results
                   for k, v in metrics_json(r, spec, bool(args.trace)).items()}
    correct = all(r["correct"] for r in results)
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
