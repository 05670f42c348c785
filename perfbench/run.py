"""Closed-loop benchmark of the ixcap package, run from the repository root:

    python3 perfbench/run.py --workload bracket --seed 1 --seconds 24 --trace 0

One client sends one job at a time to the public ixcap functions, in this
process and thread, and sends the next only when the previous one returned.
A run makes whole passes over the workload's seeded inputs, as many as fill
``--seconds`` at the pass's nominal duration on the reference machine (a
2-vCPU x86 VM), so every run of a workload measures the same jobs whatever
the speed of the program or the machine.  Each
distinct input's result is checked independently of the code under test on
the first pass, and later passes must reproduce it exactly.

Between two jobs the client collects garbage and times a fixed reference
kernel of its own (see pace.py), both outside the timed job.  Every job and
set-up time is reported rescaled to the reference machine's pace, so a
shared host's drift in speed does not read as a change of the program; the
raw wall-clock figures are printed in the report as well.

With ``--trace 0`` the end-to-end metrics listed in BENCHMARK.json are
measured; with ``--trace 1`` the layer boundaries are wrapped (see spans.py),
the traced passes are followed by the same number of untraced ones to
measure the tracing overhead, and the per-layer metrics are reported.  The
last line of standard output is one JSON object; the lines before it are a
readable report.  The exit code is 1 when any check fails, 2 on bad usage or
when the ixcap sources are missing.
"""

import os
import time

#: set-up time counts from here, before any other import
STARTED = time.perf_counter()

# pin BLAS and OpenMP pools before numpy is imported anywhere
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: set-ups measured, each in a fresh interpreter run one after another
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60
#: a tail percentile needs at least this many jobs beyond it
TAIL_BEYOND = 10
#: passes stop early past this many seconds, to end well within 180 s
MEASURE_LIMIT_S = 140
EXPECTED_DIGESTS = HERE / "expected_digests.json"
SPANS_DIR = Path(".perfbench_out")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-digests", action="store_true",
                   help="store this seed's input and result digests as the reference")
    p.add_argument("--setup-only", action="store_true",
                   help="set up once, print its time and pace as JSON and exit")
    return p.parse_args(argv)


def run_passes(workload, jobs, passes, tracer=None):
    """`passes` whole passes over jobs, fewer past MEASURE_LIMIT_S.

    Returns (records, pass wall times in ns, pace factors); a record is
    (job index, duration ns, status, result or exception), and its pace
    factor rescales its duration to the reference machine (pace.py)."""
    import pace
    from workloads import EXPECTED_FAILURES

    clock = time.perf_counter_ns
    records = []
    walls = []
    samples = []
    deadline = clock() + MEASURE_LIMIT_S * 10**9
    while len(walls) < passes and clock() < deadline:
        pass_start = clock()
        for i, job in enumerate(jobs):
            gc.collect()
            samples.append(pace.sample())
            if tracer is not None:
                tracer.begin_job(len(records), keep_spans=not walls)
            t = clock()
            try:
                result = workload.call(job)
                status = "ok"
            except EXPECTED_FAILURES as exc:
                result, status = exc, "failed"
            except Exception as exc:  # noqa: BLE001 - reported as a failed check
                result, status = exc, "error"
            records.append((i, clock() - t, status, result))
        walls.append(clock() - pass_start)
    samples.append(pace.sample())
    return records, walls, pace.factors(samples, len(records))


def measure_setups(args):
    """SETUP_REPEATS set-ups, each in a fresh interpreter: (raw s, rescaled s,
    input digests).  Raises RuntimeError when one fails."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--setup-only"]
    raw, scaled, digests = [], [], set()
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        if done.returncode != 0:
            raise RuntimeError(f"set-up failed: {done.stderr.strip()[-500:]}")
        probe = json.loads(done.stdout.strip().splitlines()[-1])
        raw.append(probe["setup_s"])
        scaled.append(probe["setup_s"] * probe["pace"])
        digests.add(probe["inputs_digest"])
    return statistics.median(raw), statistics.median(scaled), digests


def check_records(workload, jobs, records):
    """Independent checks on first results; later passes must repeat them.

    Returns (errors, first-pass keys, first-pass results, failed count)."""
    errors = []
    keys = {}
    firsts = {}
    failed = 0
    for i, _, status, result in records:
        job = jobs[i]
        raised = isinstance(result, Exception)
        if status == "error":
            errors.append(f"{job.label}: {type(result).__name__}: {result}")
        if raised or getattr(result, "warnings", ()):
            failed += 1
        key = type(result).__name__ if raised else workload.key(job, result)
        if i not in keys:
            keys[i] = key
            firsts[i] = result
            if not raised:
                errors.extend(f"{job.label}: {e}" for e in workload.check(job, result))
        elif key != keys[i]:
            errors.append(f"{job.label}: result differs between passes")
    return errors, [keys[i] for i in range(len(jobs))], firsts, failed


def quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta(p(n+1), (1-p)(n+1))
    weighted mean of the order statistics.  A single order statistic jumps
    between the discrete job costs of the input set; this average over the
    neighbouring ranks does not."""
    import numpy as np

    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    grid = np.linspace(0.0, 1.0, 20001)
    inner = grid[1:-1]
    logpdf = (a - 1) * np.log(inner) + (b - 1) * np.log1p(-inner)
    pdf = np.concatenate(([0.0], np.exp(logpdf - logpdf.max()), [0.0]))
    cdf = np.concatenate(([0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2)))
    weights = np.diff(np.interp(np.arange(n + 1) / n, grid, cdf / cdf[-1]))
    return float(weights @ x)


def pass_rate(durations_ms, per_pass: int) -> float:
    """Median over whole passes of jobs per second of job time."""
    return statistics.median(
        per_pass / (sum(durations_ms[k:k + per_pass]) / 1e3)
        for k in range(0, len(durations_ms), per_pass))


def tail_rank(n: int) -> float:
    """The highest percentile, as a fraction, with TAIL_BEYOND jobs beyond it."""
    return max(n - TAIL_BEYOND, 1) / n


def quality(firsts):
    """(mean upper/lower, mean upper - lower, exact share) over distinct inputs;
    an exact count is a closed bracket."""
    ratios, gaps, exact = [], [], 0
    for result in firsts.values():
        if isinstance(result, Exception):
            continue
        if hasattr(result, "exact"):
            ratios.append(result.upper / result.lower)
            gaps.append(result.upper - result.lower)
            exact += result.exact is not None
        else:
            ratios.append(1.0)
            gaps.append(0.0)
            exact += 1
    n = max(len(firsts), 1)
    return (statistics.fmean(ratios) if ratios else float("nan"),
            statistics.fmean(gaps) if gaps else float("nan"), exact / n)


def layer_metrics(tracer, passes, job_wall_ns, overhead):
    from spans import LAYERS

    out = {}
    for name, st in tracer.stats.items():
        out[f"{name}.calls"] = (st.calls / passes, "count")
        out[f"{name}.busy_s"] = (st.busy_ns / 1e9 / passes, "s")
        out[f"{name}.self_s"] = (st.self_ns / 1e9 / passes, "s")
        out[f"{name}.failed"] = (st.failed / passes, "count")
    for name in ("graphs.sender_graph", "graphs.independence_number"):
        st = tracer.stats[name]
        out[f"{name}.vertices"] = (st.vertices / passes, "count")
        out[f"{name}.repeat_share"] = (st.repeats / st.calls if st.calls else 0.0, "share")
    st = tracer.stats["utility.block_utility_rows"]
    out["utility.block_utility_rows.cells"] = (st.cells / passes, "count")
    st = tracer.stats["lower_bounds.gamma_n"]
    out["lower_bounds.gamma_n.optimal_share"] = (
        st.optimal / st.calls if st.calls else 0.0, "share")
    layer_ns = tracer.layer_self_ns()
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (layer_ns[layer] / 1e9 / passes, "s")
        out[f"{layer}.self_share"] = (layer_ns[layer] / job_wall_ns, "share")
    out["trace.overhead_share"] = (overhead, "share")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "ixcap" / "__init__.py").is_file():
        print(f"error: ixcap sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import networkx
    import numpy

    import ixcap
    if not Path(ixcap.__file__).resolve().is_relative_to(src.resolve()):
        print(f"error: ixcap imported from {ixcap.__file__}, not {src}", file=sys.stderr)
        return 2
    import pace
    import spans
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in workloads.WORKLOADS or args.workload not in {
            w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]

    # set-up: imports, input generation and one warm-up job
    errors = []
    jobs = workload.make_jobs(args.seed, ROOT)
    inputs_digest = workloads.digest([job.spec for job in jobs])
    workload.call(jobs[0])
    own_setup_s = time.perf_counter() - STARTED
    if args.setup_only:
        pace.kernel()
        pace_factor = pace.REFERENCE_KERNEL_NS / statistics.median(
            pace.sample() for _ in range(3))
        print(json.dumps({"setup_s": own_setup_s, "pace": pace_factor,
                          "inputs_digest": inputs_digest}))
        return 0
    try:
        raw_setup_s, setup_s, setup_digests = measure_setups(args)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if setup_digests != {inputs_digest}:
        errors.append("input generation is not deterministic")
    if args.workload == "bracket":
        errors.extend(workloads.pentagon_alpha2_check(ROOT))

    # recording a reference needs the first pass only
    planned = 1 if args.record_digests else max(2, round(args.seconds / workload.pass_s))
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
        try:
            records, walls, factors = run_passes(workload, jobs, max(1, planned // 2), tracer)
        finally:
            tracer.uninstall()
        plain_records, _, plain_factors = run_passes(workload, jobs, len(walls))
    else:
        records, walls, factors = run_passes(workload, jobs, planned)
    passes = len(walls)
    if passes < (max(1, planned // 2) if args.trace else planned):
        errors.append(f"only {passes} of {planned} passes within {MEASURE_LIMIT_S} s")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    check_errors, keys, firsts, failed = check_records(workload, jobs, records)
    errors.extend(check_errors)
    results_digest = workloads.digest(keys)

    reference = {}
    if EXPECTED_DIGESTS.is_file():
        reference = json.loads(EXPECTED_DIGESTS.read_text())
    expected = reference.get(args.workload, {}).get(str(args.seed))
    if args.record_digests:
        reference.setdefault(args.workload, {})[str(args.seed)] = {
            "inputs": inputs_digest, "results": results_digest}
        EXPECTED_DIGESTS.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
        digest_status = "recorded"
    elif expected is None:
        digest_status = "no reference for this seed"
    elif expected != {"inputs": inputs_digest, "results": results_digest}:
        digest_status = f"MISMATCH, reference {expected}"
        errors.append("digest differs from the reference")
    else:
        digest_status = "matches reference"

    raw_ms = [r[1] / 1e6 for r in records]
    scaled_ms = [d * f for d, f in zip(raw_ms, factors)]
    attempted = len(records)
    tail_p = tail_rank(attempted)
    ratio, gap, exact_share = quality(firsts)
    job_wall_ns = sum(r[1] for r in records)

    print(f"# workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print(f"# nproc {os.cpu_count()}  affinity {len(os.sched_getaffinity(0))}  "
          f"python {platform.python_version()}  numpy {numpy.__version__}  "
          f"networkx {networkx.__version__}  blas threads pinned to 1")
    print(f"# inputs {len(jobs)} per pass, {passes} passes, {attempted} jobs, "
          f"{failed} failed (error_rate {failed / attempted:.4f})")
    print("# pass wall s: " + " ".join(f"{w / 1e9:.3f}" for w in walls))
    print(f"# inputs_digest {inputs_digest}  results_digest {results_digest}  "
          f"({digest_status})")
    if args.workload == "bracket":
        print(f"# bracket_gap {gap:.6f} (mean upper - lower over distinct inputs)")
    print(f"# job_tail_ms is p{100 * tail_p:.1f} of {attempted} jobs; "
          f"job_p50_ms and job_tail_ms are Harrell-Davis quantile estimates")
    print(f"# times below are rescaled to the reference pace (pace.py); pace factor "
          f"median {statistics.median(factors):.3f}, range {min(factors):.3f}-{max(factors):.3f}")
    print(f"# raw wall clock: setup_s {raw_setup_s:.4f}  "
          f"jobs_per_s {pass_rate(raw_ms, len(jobs)):.4f}  "
          f"job_p50_ms {quantile(raw_ms, 0.5):.3f}  job_tail_ms {quantile(raw_ms, tail_p):.3f}")
    for e in errors:
        print(f"# CHECK FAILED: {e}")

    if args.trace:
        traced_ms = sum(scaled_ms)
        plain_ms = sum(r[1] / 1e6 * f for r, f in zip(plain_records, plain_factors))
        overhead = traced_ms / plain_ms - 1.0
        available = layer_metrics(tracer, passes, job_wall_ns, overhead)
        for name in sorted(tracer.stats):
            st = tracer.stats[name]
            if st.calls:
                print(f"# span {name:45s} calls/pass {st.calls / passes:10.1f}  "
                      f"self_s/pass {st.self_ns / 1e9 / passes:9.4f}  "
                      f"share {st.self_ns / job_wall_ns:6.3f}  failed {st.failed}")
        for layer, ns in tracer.layer_self_ns().items():
            print(f"# layer {layer:13s} self share {ns / job_wall_ns:6.3f}")
        print(f"# rescaled job time traced {traced_ms / 1e3:.3f} s, "
              f"untraced {plain_ms / 1e3:.3f} s, overhead {overhead:.3f}")
        path = SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_spans(path)
        print(f"# first-pass spans written to {path}")
        wanted = spec["per_layer"]
    else:
        available = {
            "setup_s": (setup_s, "s"),
            "jobs_per_s": (pass_rate(scaled_ms, len(jobs)), "1/s"),
            "job_p50_ms": (quantile(scaled_ms, 0.5), "ms"),
            "job_tail_ms": (quantile(scaled_ms, tail_p), "ms"),
            "success_rate": ((attempted - failed) / attempted, "share"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "bracket_ratio": (ratio, "ratio"),
            "exact_share": (exact_share, "share"),
        }
        wanted = spec["end_to_end"]
    metrics = {}
    for m in wanted:
        value, unit = available[m["name"]]
        if unit != m["unit"]:
            errors.append(f"metric {m['name']} unit {unit} != {m['unit']}")
            print(f"# CHECK FAILED: {errors[-1]}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"# {m['name']:48s} {value:14.6g} {m['unit']}")

    correct = not errors
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
