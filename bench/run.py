"""Benchmark of lampe, end to end and layer by layer.

    python3 bench/run.py --workload rewrite --seed 1 --seconds 15 --trace 0

Workloads: rewrite, oracle, kernel, termination (see workloads.py).  One
process, one thread, one client in a closed loop: the next item starts when
the previous one has finished.  The run times a fixed number of rounds of
items, as many as took `--seconds` reference seconds when the benchmark was
written, then checks every output against its reference, outside the timed
window.

With `--trace 0` the last line of stdout is a JSON object with the
end-to-end metrics; with `--trace 1` the run first repeats itself untraced in
a child process (for the tracing overhead), then runs traced and reports the
per-layer metrics, and writes its spans to bench/out/.  The lines before the
JSON repeat every metric with its unit for a human reader.
"""

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import resource
import shlex
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

IMPORT_PROBES = 15
PARSE_REPEATS = 7
ITEM_BUDGET_S = 30.0
CALIBRATION_WINDOW = 9
REFERENCE_CALIBRATION_S = 0.001

# (layer, function) pairs traced at their cross-module bindings
LAYERS = {
    "terms": ("substitute", "alpha_eq", "free_names", "parse_term"),
    "rewrite": ("pnf", "first_step", "iter_steps", "step", "head_step",
                "reduce_term", "apply_rule_at", "contains_cbv"),
    "formulas": ("measure", "entails", "equivalent", "satisfiable"),
    "distribution": ("distribution", "hnv_lower_bound", "nf_mass", "estimate_hnv"),
    "typesys": ("check_derivation", "apply_mu_star"),
    "transport": ("transport_subject_reduction",),
    "proofs": ("check_proof", "normalize_proof", "translate", "verify_simulation"),
    "cli": ("run",),
}
ATOM_BUCKETS = (2, 4, 6, 8, 10, 12, 14, 16, 24)

_clock = time.perf_counter

IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "start = time.perf_counter()\n"
    "import lampe\n"
    "print(time.perf_counter() - start)\n"
)


class Calibration:
    """Machine speed, measured as the time of a fixed pure-Python loop.

    The machine this runs on changes speed by tens of percent over seconds
    (other tenants, frequency scaling), which swamps the differences the
    benchmark must resolve.  Every time metric is therefore reported in
    reference seconds: wall seconds times REFERENCE_CALIBRATION_S over the
    median of the last CALIBRATION_WINDOW loop times.  The loop allocates
    no container, so garbage collection never runs inside it."""

    ITERATIONS = 4000

    def __init__(self):
        self.table = {i: i for i in range(256)}
        self.recent = []

    def sample(self):
        table = self.table
        start = _clock()
        acc = 0
        for i in range(self.ITERATIONS):
            k = i & 255
            acc = (acc + table[k] * i) % 1000003
            table[k] = acc
        self.recent.append(_clock() - start)
        del self.recent[:-CALIBRATION_WINDOW]

    def factor(self):
        """Reference seconds per wall second."""
        return REFERENCE_CALIBRATION_S / statistics.median(self.recent)

    def around(self, fn):
        """fn(), then the reference seconds per wall second over a window of
        samples taken right before and right after it.  For set-up steps,
        which are long and few, so that the factor is local to each."""
        for _ in range(CALIBRATION_WINDOW // 2):
            self.sample()
        result = fn()
        for _ in range(CALIBRATION_WINDOW - CALIBRATION_WINDOW // 2):
            self.sample()
        return result, self.factor()


def end_to_end_units():
    return {
        "setup_s": "s",
        "items_per_s": "1/s",
        "latency_p50_ms": "ms",
        "latency_tail_ms": "ms",
        "peak_rss_mb": "MB",
    }


def per_layer_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for layer, fnames in LAYERS.items():
        for fname in fnames:
            if (layer, fname) == ("terms", "parse_term"):
                continue
            if (layer, fname) not in (("typesys", "apply_mu_star"), ("cli", "run")):
                units[f"{layer}.{fname}.calls"] = "count"
            units[f"{layer}.{fname}.self_s"] = "s"
    units["terms.cache_entries"] = "count"
    units["terms.parse_term.nodes_per_s"] = "1/s"
    units["rewrite.pnf.steps"] = "count"
    units["rewrite.pnf.steps_per_s"] = "1/s"
    for fname in LAYERS["formulas"]:
        for k in ATOM_BUCKETS:
            units[f"formulas.{fname}.ms_at_atoms_{k}"] = "ms"
    for fname in ("hnv_lower_bound", "nf_mass"):
        units[f"distribution.{fname}.fuel_used"] = "count"
        units[f"distribution.{fname}.s_per_fuel"] = "s"
    units["typesys.check_derivation.nodes"] = "count"
    units["typesys.check_derivation.nodes_per_s"] = "1/s"
    units["proofs.normalize_proof.steps"] = "count"
    units["proofs.verify_simulation.entries"] = "count"
    units["trace.items_per_s_untraced"] = "1/s"
    units["trace.items_per_s_traced"] = "1/s"
    units["trace.overhead"] = "share"
    units["trace.spans"] = "count"
    return units


def import_seconds(calibration):
    """Times of `import lampe` in fresh interpreters: (reference seconds,
    wall seconds) per probe, each scaled by this process's calibration
    around it."""
    times = []
    for _ in range(IMPORT_PROBES):
        done, factor = calibration.around(lambda: subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
            capture_output=True, text=True, check=True, timeout=60,
        ))
        wall = float(done.stdout.split()[-1])
        times.append((wall * factor, wall))
    return times


def make_api():
    """The library functions the workloads call.  The tracer swaps these
    bindings along with the library's own cross-module ones."""
    # `lampe.distribution` names the function, so import modules by path
    cli, distribution, errors, formulas, proofs, rewrite, terms, transport, typesys = (
        importlib.import_module(f"lampe.{name}") for name in (
            "cli", "distribution", "errors", "formulas", "proofs", "rewrite",
            "terms", "transport", "typesys",
        )
    )
    return SimpleNamespace(
        PE=rewrite.PE, PE_BRACES=rewrite.PE_BRACES, CBV=typesys.CBV,
        LampeError=errors.LampeError,
        parse_term=terms.parse_term, print_term=terms.print_term,
        replace_at=terms.replace_at,
        parse_formula=formulas.parse_formula, measure=formulas.measure,
        entails=formulas.entails, equivalent=formulas.equivalent,
        pnf=rewrite.pnf, first_step=rewrite.first_step,
        iter_steps=rewrite.iter_steps, step=rewrite.step,
        reduce_term=rewrite.reduce_term,
        distribution=distribution.distribution,
        hnv_lower_bound=distribution.hnv_lower_bound,
        nf_mass=distribution.nf_mass, estimate_hnv=distribution.estimate_hnv,
        check_derivation=typesys.check_derivation,
        apply_mu_star=typesys.apply_mu_star,
        derivation_from_json=typesys.derivation_from_json,
        transport_subject_reduction=transport.transport_subject_reduction,
        check_proof=proofs.check_proof, normalize_proof=proofs.normalize_proof,
        translate=proofs.translate, verify_simulation=proofs.verify_simulation,
        proof_from_json=proofs.proof_from_json,
        run=cli.run,
    )


# ---------------------------------------------------------------------------
# Tracing hooks: work counts recorded next to the spans


def _observers(ref):
    from lampe.formulas import atoms

    def pnf_steps(tr, args, kwargs, result, seconds):
        tr.counts["rewrite.pnf.steps"] += len(result[1])

    def parse_nodes(tr, args, kwargs, result, seconds):
        tr.counts["terms.parse_term.nodes"] += ref.term_nodes(result)

    def fuel(label):
        def observe(tr, args, kwargs, result, seconds):
            tr.counts[f"{label}.fuel_used"] += result.fuel_used
        return observe

    def derivation_nodes(tr, args, kwargs, result, seconds):
        stack, count = [args[0]], 0
        while stack:
            d = stack.pop()
            count += 1
            stack.extend(d.premises)
        tr.counts["typesys.check_derivation.nodes"] += count

    def normalize_steps(tr, args, kwargs, result, seconds):
        tr.counts["proofs.normalize_proof.steps"] += result[1]

    def simulation_entries(tr, args, kwargs, result, seconds):
        tr.counts["proofs.verify_simulation.entries"] += len(result.entries)

    def atom_bucket(label):
        def observe(tr, args, kwargs, result, seconds):
            n = len(set().union(*(atoms(b) for b in args)))
            k = next((k for k in ATOM_BUCKETS if n <= k), None)
            if k is not None:
                bucket = tr.buckets[f"{label}.ms_at_atoms_{k}"]
                bucket[0] += 1
                bucket[1] += seconds
        return observe

    observers = {
        "rewrite.pnf": pnf_steps,
        "terms.parse_term": parse_nodes,
        "distribution.hnv_lower_bound": fuel("distribution.hnv_lower_bound"),
        "distribution.nf_mass": fuel("distribution.nf_mass"),
        "typesys.check_derivation": derivation_nodes,
        "proofs.normalize_proof": normalize_steps,
        "proofs.verify_simulation": simulation_entries,
    }
    for fname in LAYERS["formulas"]:
        observers[f"formulas.{fname}"] = atom_bucket(f"formulas.{fname}")
    return observers


def install_tracer(api):
    import lampe
    import ref
    from tracer import Tracer

    tracer = Tracer()
    modules = [lampe] + [importlib.import_module(f"lampe.{m}") for m in LAYERS]
    observers = _observers(ref)
    for layer, fnames in LAYERS.items():
        defining = importlib.import_module(f"lampe.{layer}")
        for fname in fnames:
            label = f"{layer}.{fname}"
            tracer.patch(
                modules, defining, fname, label, api,
                observe=observers.get(label),
                outermost=(label == "rewrite.contains_cbv"),
            )
    return tracer


# ---------------------------------------------------------------------------
# The measured run


def run_items(workload, api, items, tracer, calibration):
    """Closed loop over every round once.  Returns (latencies in reference
    seconds, wall latencies, digests by item, failures by item, reference
    seconds of each round)."""
    latencies, walls, digests, failures, rounds = [], [], {}, {}, []
    for indices in workload.rounds:
        round_start = len(latencies)
        for index in indices:
            if tracer:
                tracer.enabled = True
            start = _clock()
            try:
                out, error = workload.run(api, items[index]), None
            except Exception as exc:  # an item failure, recorded and counted
                out, error = None, "".join(traceback.format_exception_only(exc)).strip()
            elapsed = _clock() - start
            if tracer:
                tracer.enabled = False
            calibration.sample()
            latencies.append(elapsed * calibration.factor())
            walls.append(elapsed)
            if error is None and elapsed > ITEM_BUDGET_S:
                error = f"took {elapsed:.1f} s, over the {ITEM_BUDGET_S} s budget"
            if error is not None:
                failures[index] = error
            else:
                digests[index] = workload.digest(api, out)
        rounds.append(sum(latencies[round_start:]))
    return latencies, walls, digests, failures, rounds


def check_digests(workload, api, digests, failures):
    for index, digest in digests.items():
        try:
            message = workload.check(api, index, digest)
        except Exception as exc:  # a check that raises is a failed item
            message = "".join(traceback.format_exception_only(exc)).strip()
        if message is not None:
            failures[index] = message
    return failures


def latency_tail(latencies, percentile):
    """(nearest-rank percentile value, samples beyond it)."""
    ordered = sorted(latencies)
    rank = max(math.ceil(percentile / 100.0 * len(ordered)), 1)
    return ordered[rank - 1], len(ordered) - rank


def readme_examples():
    """(argv, expected stdout) for each `$ lampe ...` example in README.md."""
    examples, current, in_sh = [], None, False
    for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            if current:
                examples.append(current)
            current, in_sh = None, line.strip() == "```sh"
        elif in_sh and line.startswith("$ lampe "):
            if current:
                examples.append(current)
            current = (shlex.split(line[2:])[1:], [])
        elif current is not None:
            if line:
                current[1].append(line)
            else:
                examples.append(current)
                current = None
    return [(argv, "".join(out + "\n" for out in lines)) for argv, lines in examples]


def run_readme(api, tracer):
    """Run the README CLI examples in process; returns mismatch messages."""
    problems = []
    for argv, expected in readme_examples():
        buffer = io.StringIO()
        tracer.enabled = True
        with contextlib.redirect_stdout(buffer):
            code = api.run(argv)
        tracer.enabled = False
        if code != 0 or buffer.getvalue() != expected:
            problems.append(f"lampe {shlex.join(argv)}: exit {code}, {buffer.getvalue()!r}")
    return problems


def untraced_items_per_s(args):
    """items_per_s of the same run untraced, from a child process.  The
    child's run takes about 2x `--seconds` of wall time on the machine the
    benchmark was written on; the timeout leaves room for a slower one."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=60 + 8 * args.seconds,
    )
    if done.returncode != 0:
        raise RuntimeError(f"untraced run failed: {done.stderr.strip()}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return result["metrics"]["items_per_s"]["value"], result["correct"]


def cache_entries():
    """Entries of the global term caches, 0 once they are gone."""
    import lampe.terms

    return sum(
        len(getattr(lampe.terms, cache, ()))
        for cache in ("_FN_CACHE", "_SHAPE_CACHE", "_CANON_CACHE")
    )


def layer_metrics(tracer, untraced, traced, caches):
    summary = tracer.summary()
    units = per_layer_units()
    values = {}
    for name in units:
        parts = name.rsplit(".", 1)
        if parts[0] in summary and parts[1] in ("calls", "self_s"):
            calls, _, own = summary[parts[0]]
            values[name] = calls if parts[1] == "calls" else own
    for name, (calls, seconds) in tracer.buckets.items():
        values[name] = 1000.0 * seconds / calls
    counts = tracer.counts

    def per_second(count, label):
        seconds = summary.get(label, (0, 0.0, 0.0))[1]
        return count / seconds if seconds else 0.0

    values["terms.cache_entries"] = caches
    values["terms.parse_term.nodes_per_s"] = per_second(
        counts["terms.parse_term.nodes"], "terms.parse_term")
    values["rewrite.pnf.steps"] = counts["rewrite.pnf.steps"]
    values["rewrite.pnf.steps_per_s"] = per_second(counts["rewrite.pnf.steps"], "rewrite.pnf")
    for label in ("distribution.hnv_lower_bound", "distribution.nf_mass"):
        used = counts[f"{label}.fuel_used"]
        values[f"{label}.fuel_used"] = used
        seconds = summary.get(label, (0, 0.0, 0.0))[1]
        values[f"{label}.s_per_fuel"] = seconds / used if used else 0.0
    nodes = counts["typesys.check_derivation.nodes"]
    values["typesys.check_derivation.nodes"] = nodes
    values["typesys.check_derivation.nodes_per_s"] = per_second(nodes, "typesys.check_derivation")
    values["proofs.normalize_proof.steps"] = counts["proofs.normalize_proof.steps"]
    values["proofs.verify_simulation.entries"] = counts["proofs.verify_simulation.entries"]
    values["trace.items_per_s_untraced"] = untraced
    values["trace.items_per_s_traced"] = traced
    values["trace.overhead"] = 1.0 - traced / untraced
    values["trace.spans"] = len(tracer.name)
    return {name: {"value": values.get(name, 0), "unit": unit} for name, unit in units.items()}


def main(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "lampe" / "__init__.py").is_file():
        print(f"error: no lampe sources under {SRC}", file=sys.stderr)
        return 2

    untraced = None
    if args.trace:
        untraced, child_correct = untraced_items_per_s(args)

    kind = WORKLOADS[args.workload]
    workload = kind(args.seed, kind.rounds_for(args.seconds))
    # the generated inputs live for the whole run: keep collections from
    # rescanning them, in the parses and in the timed loop
    gc.collect()
    gc.freeze()
    calibration = Calibration()
    probes = import_seconds(calibration)
    import_s = statistics.median(ref for ref, _ in probes)
    import_wall = statistics.median(wall for _, wall in probes)
    sys.path.insert(0, str(SRC))
    api = make_api()
    tracer = install_tracer(api) if args.trace else None

    def parse():
        if tracer:
            tracer.enabled = True
        start = _clock()
        items = workload.parse(api)
        elapsed = _clock() - start
        if tracer:
            tracer.enabled = False
        return items, elapsed

    parse_times = []
    for _ in range(PARSE_REPEATS):
        items = None
        gc.collect()
        (items, elapsed), factor = calibration.around(parse)
        parse_times.append(elapsed * factor)
    setup_s = import_s + statistics.median(parse_times)
    # the parsed inputs too: full collections in the loop then scan only
    # what the items allocate
    gc.collect()
    gc.freeze()

    latencies, walls, digests, failures, rounds = run_items(
        workload, api, items, tracer, calibration)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    caches = cache_entries()
    # every round is the workload's full input mix; the median round resists
    # the odd slow item, which latency_tail_ms reports instead
    per_round = len(workload.rounds[0])
    items_per_s = statistics.median(per_round / r for r in rounds)
    busy = sum(rounds)
    failures = check_digests(workload, api, digests, failures)
    attempted, failed = len(latencies), len(failures)
    tail, beyond = latency_tail(latencies, workload.TAIL_PERCENTILE)
    problems = [f"item {index}: {msg}" for index, msg in sorted(failures.items())]

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  {len(rounds)} rounds of {per_round} items")
    if tracer:
        problems += run_readme(api, tracer)
        if not child_correct:
            problems.append("the untraced run reported incorrect outputs")
        metrics = layer_metrics(tracer, untraced, items_per_s, caches)
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"spans-{args.workload}-{args.seed}.bin"
        tracer.write(spans)
        tracer.unpatch()
        for name, metric in metrics.items():
            print(f"  {name:<44} {metric['value']:>14.6g} {metric['unit']}")
        print(f"  spans written to {spans.relative_to(ROOT)}")
    else:
        metrics = {
            "setup_s": setup_s,
            "items_per_s": items_per_s,
            "latency_p50_ms": 1000.0 * statistics.median(latencies),
            "latency_tail_ms": 1000.0 * tail,
            "peak_rss_mb": peak_rss_mb,
        }
        notes = {
            "setup_s": f"import {import_s:.4f} s (median of {IMPORT_PROBES}; "
                       f"wall {import_wall:.4f}) + parse "
                       f"{statistics.median(parse_times):.4f} s (median of {PARSE_REPEATS})",
            "items_per_s": f"median of {len(rounds)} rounds; {attempted / busy:.4f} "
                           f"over all {attempted} items; wall {attempted / sum(walls):.4f}",
            "latency_p50_ms": f"median of {attempted} items; wall "
                              f"{1000.0 * statistics.median(walls):.4f}",
            "latency_tail_ms": f"p{workload.TAIL_PERCENTILE}, {beyond} of {attempted} "
                               f"samples beyond; wall "
                               f"{1000.0 * latency_tail(walls, workload.TAIL_PERCENTILE)[0]:.4f}",
            "peak_rss_mb": "ru_maxrss after the timed loop",
        }
        units = end_to_end_units()
        print(f"  times in reference seconds: wall seconds x {calibration.factor():.4f} "
              f"at the end of the run (see Calibration)")
        for name, value in metrics.items():
            print(f"  {name:<16} {value:>12.4f} {units[name]:<4} ({notes[name]})")
        print(f"  {'error_rate':<16} {failed / attempted:>12.4f} {'':<4} "
              f"({failed} of {attempted} items failed)")
        metrics = {name: {"value": v, "unit": units[name]} for name, v in metrics.items()}
    for problem in problems[:20]:
        print(f"FAIL {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
