"""One benchmark process: set up a workload, run its timed phase, check.

Started by ``run.py``, which runs several of these one after another and
reads the JSON object this prints as its last line.  With ``--setup-only``
the process stops after set-up, so that ``run.py`` can take the median of
several set-up times: imports only happen once per process.  Every process
times the control kernel right after its set-up, so that ``run.py`` can
scale the set-up time (see ``control.py``).
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import control  # noqa: E402
from tracing import NullTracer, Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
RESULTS = Path(__file__).resolve().parent / "results"

#: End-to-end metrics of an untraced run, with units.  run.py adds setup_s.
END_TO_END = {
    "ops_per_s": "1/s",
    "latency_ms_p50": "ms",
    "latency_ms_tail": "ms",
    "peak_rss_mb": "MiB",
}

#: Per-layer metrics of a traced run, with units.  Times ending in _s are
#: seconds per traced operation; calls and failures are counts over the
#: traced phase.  A layer the workload never calls reports 0.
PER_LAYER = {
    "embedding.psi.calls": "count",
    "embedding.psi.busy_s": "s",
    "embedding.psi.failed": "count",
    "theta.radius_mean": "count",
    "theta.radius_max": "count",
    "theta.box_terms": "count",
    "halfspace.reduce.calls": "count",
    "halfspace.reduce.busy_s": "s",
    "halfspace.reduce.passes_mean": "count",
    "halfspace.reduce.passes_max": "count",
    "halfspace.reduce.transform_entry_max": "count",
    "halfspace.reduce.replay_residual_max": "abs",
    "halfspace.reduce.failed": "count",
    "embedding.classify.busy_s": "s",
    "embedding.classify.failed": "count",
    "embedding.relation_rank.busy_s": "s",
    "embedding.relation_rank.failed": "count",
    "heights.busy_s": "s",
    "heights.failed": "count",
    "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms",
    "cli.command_ms": "ms",
    "cli.failed": "count",
    "bench.self_s": "s",
    "trace.ops": "count",
    "trace.op_s": "s",
    "trace.overhead_share": "ratio",
}

#: Largest allowed ratio of the fresh-input median latency to the timed
#: phase's median; see fresh_pass.  Noise alone keeps it below 2; a result
#: cache keyed on the input would put it near 100.
FRESH_RATIO_MAX = 3.0

#: Control-kernel calls timed by a set-up process after its set-up.
SETUP_CONTROL_REPS = 200

#: Span name prefixes, longest first: the layer each span is charged to.
LAYERS = ("embedding.relation_rank", "embedding.classify", "embedding.psi",
          "halfspace.reduce", "heights", "cli")


def layer_of(span_name: str) -> str | None:
    return next((layer for layer in LAYERS if span_name.startswith(layer)), None)


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def metadata(seed: int) -> dict:
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "seed": seed,
    }


class Phase:
    """Latencies and check outcomes of the operations of a timed phase.

    Outputs are checked in chunks as they come, outside the timed calls, so
    memory does not grow with the number of operations.  ``keep`` retains
    them for the per-layer statistics of a traced run.  With
    ``control_reps`` > 0 the control kernel is timed after each operation
    and ``scaled`` holds each wall time scaled by the mean of the kernel
    times just before and just after it; see ``control.py``.
    """

    CHUNK = 256

    def __init__(self, check, keep: bool = False, control_reps: int = 0):
        self.check = check
        self.keep = keep
        self.control_reps = control_reps
        self.latencies: list[float] = []
        self.scaled: list[float] = []
        self.inputs: list[int] = []
        self._control = control.seconds(control_reps) if control_reps else 0.0
        self.kept: list[tuple[int, object]] = []
        self.raised: Counter = Counter()
        self.miss_layers: Counter = Counter()
        self.miss_messages: list[str] = []
        self.missed_ops = 0
        self._pending: list[tuple[int, object]] = []

    def run(self, k, t, call):
        self.inputs.append(k)
        t0 = time.perf_counter()
        try:
            out = call(k, t)
        except Exception as exc:  # an operation failure is counted, not fatal
            self._record(time.perf_counter() - t0)
            self.raised[f"{type(exc).__name__}: {exc}"] += 1
            return
        self._record(time.perf_counter() - t0)
        self._pending.append((k, out))
        if len(self._pending) >= self.CHUNK:
            self.flush()

    def _record(self, wall: float) -> None:
        self.latencies.append(wall)
        if self.control_reps:
            before, self._control = self._control, control.seconds(self.control_reps)
            self.scaled.append(wall * control.REF_S / (0.5 * (before + self._control)))

    def flush(self) -> None:
        if not self._pending:
            return
        misses = self.check(self._pending)
        self.miss_layers.update(layer for _, layer, _ in misses)
        messages = [f"{layer}: {msg}" for _, layer, msg in misses]
        self.miss_messages += messages[: 20 - len(self.miss_messages)]
        self.missed_ops += len({i for i, _, _ in misses})
        if self.keep:
            self.kept += self._pending
        self._pending = []

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        """Operations that raised or whose output missed a check."""
        return sum(self.raised.values()) + self.missed_ops


def timed_phase(wl, seconds: float) -> tuple[Phase, float]:
    null = NullTracer()
    phase = Phase(wl.check, control_reps=wl.control_reps)
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while time.perf_counter() < deadline:
        phase.run(i % wl.N, null, wl.op)
        i += 1
    wall = time.perf_counter() - start
    phase.flush()
    return phase, wall


def fresh_pass(wl, seed: int, repeated_p50_ms: float) -> tuple[Phase, dict]:
    """Run a second, disjoint input set once each, unwarmed, and compare its
    median scaled latency with the timed phase's.

    The timed phase repeats its inputs, so a cache keyed on the input would
    make every figure of it fall although new inputs gain nothing.  Inputs
    run here were never seen before, so such a cache shows as a ratio far
    above FRESH_RATIO_MAX, and the run is reported as not correct.
    """
    fresh = type(wl)(seed, stream=1)
    phase = Phase(fresh.check, control_reps=wl.control_reps)
    null = NullTracer()
    for k in range(fresh.N):
        phase.run(k, null, fresh.op)
    phase.flush()
    p50 = 1e3 * float(np.median(phase.scaled))
    ratio = p50 / repeated_p50_ms
    return phase, {"inputs": fresh.N, "digest": fresh.digest, "latency_ms_p50": p50,
                   "ratio": ratio, "max_ratio": FRESH_RATIO_MAX, "ok": ratio <= FRESH_RATIO_MAX}


def traced_phase(wl, seconds: float):
    """Run each operation once traced and once untraced, alternating which
    goes first, so the two sets of latencies share the same inputs."""
    tracer, null = Tracer(), NullTracer()
    traced, untraced = Phase(wl.check, keep=True), Phase(wl.check)
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline:
        k = i % wl.N
        tracer.op = i
        if hasattr(wl, "probe"):
            wl.probe(tracer)
        for with_trace in ((True, False) if i % 2 == 0 else (False, True)):
            if with_trace:
                traced.run(k, tracer, lambda k, t: tracer.call("op", wl.op, k, t))
            else:
                untraced.run(k, null, wl.op)
        i += 1
    traced.flush()
    untraced.flush()
    return tracer, traced, untraced


def layer_metrics(wl, tracer, traced: Phase, untraced: Phase) -> dict:
    m = dict.fromkeys(PER_LAYER, 0)
    durations: dict[str, list[float]] = {}
    for span, self_s in tracer.self_times():
        durations.setdefault(span.name, []).append(span.end - span.start)
        layer = layer_of(span.name)
        if span.name == "op":
            m["bench.self_s"] += self_s
            m["trace.op_s"] += span.end - span.start
            m["trace.ops"] += 1
        elif layer is not None:
            if f"{layer}.busy_s" in m:
                m[f"{layer}.busy_s"] += self_s
            if f"{layer}.calls" in m:
                m[f"{layer}.calls"] += 1
            if not span.ok:
                m[f"{layer}.failed"] += 1
    for layer, count in (traced.miss_layers + untraced.miss_layers).items():
        m[f"{layer}.failed"] += count
    # Times are per traced operation, so that they move with the speed of a
    # layer although the traced phase has a fixed length.
    for key in m:
        if key.endswith(("busy_s", "self_s", "op_s")) and m["trace.ops"]:
            m[key] /= m["trace.ops"]

    psi_ks = [k for k, _ in traced.kept] if hasattr(wl, "radius") else []
    if psi_ks:
        radii = np.array([wl.radius[k] for k in psi_ks])
        m["theta.radius_mean"] = float(radii.mean())
        m["theta.radius_max"] = int(radii.max())
        m["theta.box_terms"] = float(np.mean(10 * (2 * radii + 1) ** 2))
    if hasattr(wl, "layer_stats") and traced.kept:
        m.update(wl.layer_stats(traced.kept))

    if "cli.call" in durations:
        bare = statistics.median(durations["cli.interpreter"])
        imported = statistics.median(durations["cli.import"])
        full = statistics.median(durations["cli.call"])
        m["cli.interpreter_ms"] = 1e3 * bare
        m["cli.import_ms"] = 1e3 * (imported - bare)
        m["cli.command_ms"] = 1e3 * (full - imported)
    m["trace.overhead_share"] = sum(traced.latencies) / sum(untraced.latencies) - 1.0
    return m


def end_to_end(wl, phase: Phase) -> dict:
    """Metrics over the scaled latencies.  A closed loop with one client at
    those latencies completes 1 / mean operations per s.  The percentiles
    are over each input's median latency for ``per_input`` workloads, so
    that one slow execution does not move them, else over every operation."""
    lat = np.array(phase.scaled)
    samples = lat
    if wl.per_input:
        ks = np.array(phase.inputs)
        samples = np.array([np.median(lat[ks == k]) for k in np.unique(ks)])
    tail = float(np.percentile(samples, wl.tail_pct))
    return {
        "ops_per_s": len(lat) / lat.sum(),
        "latency_ms_p50": 1e3 * float(np.median(samples)),
        "latency_ms_tail": 1e3 * tail,
        "peak_rss_mb": peak_rss_mb(wl),
        "tail": {"percentile": wl.tail_pct, "samples": len(samples),
                 "beyond": int(np.sum(samples > tail)),
                 "per": "input" if wl.per_input else "operation"},
    }


def peak_rss_mb(wl) -> float:
    """Peak resident memory of the process that ran the workload: the CLI
    children for cli_cold, this process otherwise."""
    who = resource.RUSAGE_CHILDREN if wl.runs_in_children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import siegel_runge

    src = (ROOT / "src").resolve()
    if src not in Path(siegel_runge.__file__).resolve().parents:
        parser.error(f"siegel_runge imported from {siegel_runge.__file__}, not from {src}")
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed)
    setup_s = time.perf_counter() - T0
    setup = {"setup_s": setup_s, "control_s": control.seconds(SETUP_CONTROL_REPS)}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    out = {**setup, "digest": wl.digest, "info": wl.info, "meta": metadata(args.seed)}
    if args.trace:
        tracer, traced, untraced = traced_phase(wl, args.seconds)
        metrics, units = layer_metrics(wl, tracer, traced, untraced), PER_LAYER
        spans_path = RESULTS / f"{args.workload}-seed{args.seed}-spans.jsonl"
        spans_path.parent.mkdir(exist_ok=True)
        tracer.write(spans_path)
        out["spans"] = str(spans_path.relative_to(ROOT))
        phases = (traced, untraced)
    else:
        phase, wall = timed_phase(wl, args.seconds)
        metrics, units = end_to_end(wl, phase), END_TO_END
        lat = np.array(phase.latencies)
        out["tail"] = metrics.pop("tail")
        out["wall"] = {"ops": len(lat), "ops_per_s": len(lat) / wall,
                       "latency_ms_p50": 1e3 * float(np.median(lat)),
                       "latency_ms_tail": 1e3 * float(np.percentile(lat, wl.tail_pct))}
        phases = (phase,)
        if not wl.runs_in_children:
            fresh, out["fresh"] = fresh_pass(wl, args.seed, metrics["latency_ms_p50"])
            phases += (fresh,)
    out["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    misses = [msg for p in phases for msg in p.miss_messages][:20]
    if not out.get("fresh", {}).get("ok", True):
        f = out["fresh"]
        misses.append(f"fresh-input guard: median {f['latency_ms_p50']:.4g} ms over {f['inputs']} "
                      f"new inputs is {f['ratio']:.3g} times the timed phase's median, "
                      f"above {f['max_ratio']:g}; repeated inputs are served faster than new ones")
    out.update(attempted=sum(p.attempted for p in phases), failed=sum(p.failed for p in phases),
               raised=dict(sum((p.raised for p in phases), Counter())), misses=misses)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
