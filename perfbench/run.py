"""End-to-end and per-layer benchmark of the koopman-lyap pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every measured invocation is one child process of the working tree's CLI
(``python -m koopman_lyap.cli`` with this checkout's ``src`` on
``PYTHONPATH``), started one at a time from this single process: a closed
loop with one client. Each workload fixes ``--threads``; the workloads and
the seeded configuration files they run are defined in ``workloads.py``.

A run first repeats the workload's set-up invocation five times (median =
``setup_s``), then repeats the measured invocations while the next iteration
is predicted to finish within ``--seconds``. With ``--trace 1`` untraced and
traced iterations alternate; traced ones run the CLI under
``traced_cli.py``, which wraps each module's public functions from outside
``src``. Every iteration is checked for correctness; one that fails counts
in ``failed``.

End-to-end metrics (``--trace 0``): run_s, the wall time of one iteration's
measured invocations (median); setup_s (median); peak_rss_mb, the largest
max-RSS of the measured children; pde_residual_max, max_i |grad phi_i . f -
lambda_i phi_i| on an off-center probe grid, read back from the artifacts;
cert_pass_share, 1 - decrease failures / pairs checked. Per-layer metrics
(``--trace 1``) are medians over the traced iterations; trace.overhead_s is
the traced minus the untraced median iteration time.

Output: one line per metric (median, quartiles, sample count), then as the
last line one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics with ``--trace 0``, the per-layer metrics
with ``--trace 1``. Child logs, spans and a results file with the
environment (nproc, BLAS, Python, commit) go under ``perfbench/work/``,
never into a run's output directory. Exit code 0 when every check passed,
1 when one failed, 2 when the checkout has no ``src/koopman_lyap``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"

SETUP_REPS = 5
DEADLINE_S = 170.0  # the whole benchmark must end within 180 s

END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pde_residual_max": "abs",
    "cert_pass_share": "share",
}

# Per-layer metrics: span seconds, call counts, counters, derived values.
PER_LAYER = {
    "cli.main_s": "s",
    "config.load_config_s": "s",
    "dynamics.linearize_s": "s",
    "pipeline.stage_eigenfunctions_s": "s",
    "pipeline.stage_lyapunov_s": "s",
    "pipeline.stage_certify_s": "s",
    "pipeline.stage_oracle_check_s": "s",
    "pipeline.write_manifest_s": "s",
    "pipeline.load_eigenfunctions_calls": "count",
    "collocation.solve_s": "s",
    "collocation.solve_calls": "count",
    "collocation.assemble_system_s": "s",
    "collocation.factor_cond_s": "s_derived",
    "collocation.evaluate_many_s": "s",
    "collocation.evaluate_many_points": "count",
    "collocation.gradient_many_s": "s",
    "collocation.gradient_many_points": "count",
    "collocation.eval_reuse_ratio": "ratio",
    "kernel.block_s": "s",
    "kernel.block_entries": "count",
    "kernel.block_bytes": "B_computed",
    "lyapunov.value_many_s": "s",
    "lyapunov.orbital_derivative_many_s": "s",
    "lyapunov.diagnostics_s": "s",
    "lyapunov.surface_csv_write_s": "s",
    "cpa.build_triangulation_s": "s",
    "cpa.estimate_b_bound_s": "s",
    "cpa.certify_s": "s",
    "cpa.pairs_checked": "count",
    "cpa.decrease_failures": "count",
    "koopman.path_integral_phi_s": "s",
    "koopman.path_integral_calls": "count",
    "koopman.oracle_max_absdiff": "abs",
    "expr.field_evaluate_calls": "count",
    "trace.overhead_s": "s",
}

# Call counts taken from the number of spans of a name.
_CALL_COUNTS = {
    "pipeline.load_eigenfunctions_calls": "pipeline.load_eigenfunctions",
    "collocation.solve_calls": "collocation.solve",
    "koopman.path_integral_calls": "koopman.path_integral_phi",
}


@dataclass
class Invocation:
    code: int
    seconds: float
    cpu_seconds: float
    maxrss_kb: int


@dataclass
class Iteration:
    traced: bool
    seconds: float = 0.0
    cpu_seconds: float = 0.0
    maxrss_kb: int = 0
    traces: list = field(default_factory=list)
    errors: list = field(default_factory=list)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return env


def invoke(argv, cwd: Path, log: Path, deadline: float) -> Invocation:
    """Run one child to completion; its peak RSS comes from os.wait4. The
    child is killed at the deadline, or when this process is interrupted."""
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=cwd, env=child_env(), stdout=fh, stderr=subprocess.STDOUT
        )
        pidfd = os.pidfd_open(proc.pid)
        ready = []
        try:
            ready, _, _ = select.select([pidfd], [], [], max(0.0, deadline - time.monotonic()))
            t1 = time.perf_counter()
        finally:
            if not ready:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            os.close(pidfd)
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    return Invocation(
        code if ready else -1, t1 - t0, usage.ru_utime + usage.ru_stime, usage.ru_maxrss
    )


def quartiles(values):
    vals = sorted(values)
    if len(vals) < 2:
        return vals[0], vals[0], vals[0]
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return q1, statistics.median(vals), q3


class Bench:
    def __init__(self, args):
        from workloads import WORKLOADS, make_config
        from koopman_lyap.config import bundled_config_path

        self.args = args
        self.wl = WORKLOADS[args.workload]
        self.deadline = time.monotonic() + DEADLINE_S
        self.tag = f"{args.workload}-s{args.seed}-t{args.trace}"
        self.work = WORK / self.tag
        shutil.rmtree(self.work, ignore_errors=True)
        (self.work / "logs").mkdir(parents=True)
        self.cfg = self.work / "input.cfg"
        bundled = bundled_config_path(self.wl.config).read_text(encoding="utf-8")
        self.cfg.write_text(
            make_config(self.wl, bundled, args.seed), encoding="utf-8"
        )
        self.n_invocations = 0
        self.reference = None  # artifact hashes of the first measured iteration
        self.protected = {}  # set-up artifacts the measured part must not change
        self.errors = []  # run-level check failures
        self.quality_dir = None

    @property
    def staged(self) -> bool:
        return self.wl.measured != ("run",)

    def cli(self, sub, outdir, spans=None) -> Invocation:
        cli_args = [sub, str(self.cfg), "--output-dir", str(outdir), "--threads", str(self.wl.threads)]
        if spans is None:
            argv = [sys.executable, "-m", "koopman_lyap.cli", *cli_args]
        else:
            argv = [sys.executable, str(HERE / "traced_cli.py"), str(spans), *cli_args]
        self.n_invocations += 1
        log = self.work / "logs" / f"{self.n_invocations:03d}-{sub}.log"
        return invoke(argv, self.work, log, self.deadline)

    def package_file(self) -> str:
        out = subprocess.run(
            [sys.executable, "-c", "import koopman_lyap; print(koopman_lyap.__file__)"],
            cwd=self.work, env=child_env(), capture_output=True, text=True, timeout=60,
        )
        return out.stdout.strip()

    def setup(self) -> list:
        from artifacts import file_hashes

        times, hashes = [], []
        for k in range(SETUP_REPS):
            outdir = self.work / f"setup-{k}"
            for sub in self.wl.setup:
                res = self.cli(sub, outdir)
                if res.code != 0:
                    raise RuntimeError(f"set-up {sub} exited with {res.code}; see {self.work}/logs")
                times.append(res.seconds)
            hashes.append(file_hashes(outdir))
        if any(h != hashes[0] for h in hashes):
            self.errors.append("set-up artifacts differ between repetitions")
        if self.staged:
            self.protected = hashes[0]
        return times

    def iteration(self, i: int, traced: bool) -> Iteration:
        outdir = self.work / ("setup-0" if self.staged else f"run-{i}")
        it = Iteration(traced)
        for sub in self.wl.measured:
            spans = self.work / f"spans-{i}-{sub}.json" if traced else None
            res = self.cli(sub, outdir, spans)
            it.seconds += res.seconds
            it.cpu_seconds += res.cpu_seconds
            it.maxrss_kb = max(it.maxrss_kb, res.maxrss_kb)
            if res.code != 0:
                it.errors.append(f"{sub} exited with {res.code}")
            elif traced:
                it.traces.append(json.loads(spans.read_text(encoding="utf-8")))
        if not it.errors:
            it.errors += self.check_iteration(outdir)
        return it

    def check_iteration(self, outdir: Path) -> list:
        from artifacts import file_hashes, manifest_errors

        hashes = file_hashes(outdir)
        errors = []
        if self.reference is None:
            self.reference = hashes
            self.quality_dir = outdir
        elif hashes != self.reference:
            diff = sorted(k for k in hashes.keys() | self.reference.keys() if hashes.get(k) != self.reference.get(k))
            errors.append(f"artifacts differ from the first iteration: {diff}")
        if self.staged:
            changed = sorted(k for k, h in self.protected.items() if hashes.get(k) != h)
            if changed:
                errors.append(f"measured stages changed set-up artifacts: {changed}")
        else:
            errors += manifest_errors(outdir)
        return errors

    def measure(self) -> list:
        """Timed iterations while the next is predicted to end within --seconds."""
        iterations = []
        t0 = time.monotonic()
        min_iters = 2 if self.args.trace else 1
        while True:
            done = len(iterations)
            if done >= min_iters:
                est = statistics.median(it.seconds for it in iterations)
                now = time.monotonic()
                if now - t0 + est > self.args.seconds or now + 1.5 * est > self.deadline:
                    break
            iterations.append(self.iteration(done, bool(self.args.trace) and done % 2 == 1))
        return iterations

    def quality(self) -> dict:
        """Run-level checks and quality metrics, from the first iteration's
        artifacts (all iterations are byte-identical or counted failed)."""
        if self.reference is None:
            return {}
        try:
            return self._quality(self.quality_dir)
        except (OSError, ValueError, KeyError) as exc:
            self.errors.append(f"reading the artifacts failed: {exc!r}")
            return {}

    def _quality(self, out: Path) -> dict:
        import artifacts

        self.errors += artifacts.surface_errors(out)
        cert = artifacts.certification(out)
        if cert["positivity_failures"]:
            self.errors.append(f"{cert['positivity_failures']} positivity failures")
        q = {
            "pde_residual_max": artifacts.pde_residual_max(self.cfg, out),
            "cert_pass_share": 1.0 - cert["decrease_failures"] / cert["pairs_checked"],
            "cert_decrease_failures": cert["decrease_failures"],
            "oracle_max_absdiff": 0.0,
        }
        if self.wl.config == "example1":
            if not cert["certified"]:
                self.errors.append(f"example1 not certified: {cert}")
            q["oracle_max_absdiff"] = artifacts.oracle_max_absdiff(out)
            if not q["oracle_max_absdiff"] <= artifacts.ORACLE_TOLERANCE:
                self.errors.append(f"oracle max |diff| {q['oracle_max_absdiff']:.3e} above tolerance")
        return q


def layer_metrics(traces: list) -> dict:
    """Per-layer metrics of one traced iteration (its child processes summed)."""
    seconds, calls, counts, distinct = {}, {}, {}, 0
    for tr in traces:
        for name, start, end, _parent, excluded in tr["spans"]:
            seconds[name] = seconds.get(name, 0.0) + (end - start - excluded)
            calls[name] = calls.get(name, 0) + 1
        for key, n in tr["counts"].items():
            counts[key] = counts.get(key, 0) + n
        distinct += tr["distinct_points"]
    m = {}
    for name, unit in PER_LAYER.items():
        if name in _CALL_COUNTS:
            m[name] = calls.get(_CALL_COUNTS[name], 0)
        elif unit == "s":
            m[name] = seconds.get(name[: -len("_s")], 0.0)
        else:
            m[name] = counts.get(name, 0)
    m["collocation.factor_cond_s"] = m["collocation.solve_s"] - m["collocation.assemble_system_s"]
    points = m["collocation.evaluate_many_points"] + m["collocation.gradient_many_points"]
    m["collocation.eval_reuse_ratio"] = distinct / points if points else 0.0
    return m


def absent_metrics(traces: list) -> list:
    from traced_cli import ASSEMBLE_TARGET, COUNT_TARGETS, SPAN_TARGETS

    gone = {a for tr in traces for a in tr["absent"]}
    if not gone:
        return []
    names = {}
    for mod, path, span in SPAN_TARGETS + (ASSEMBLE_TARGET,):
        names.setdefault(span + "_s", []).append(f"{mod}.{path}")
    for mod, path, key in COUNT_TARGETS:
        names.setdefault(key, []).append(f"{mod}.{path}")
    for metric, span in _CALL_COUNTS.items():
        names[metric] = names[span + "_s"]
    return sorted(m for m, targets in names.items() if all(t in gone for t in targets))


def environment(package_file: str) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = "unknown"
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        out = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
        commit = out.stdout.strip() or commit
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": blas,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "package_file": package_file,
    }


def parse_args(argv):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    # SIGTERM unwinds like an exception, so invoke() kills its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.path.insert(0, str(HERE))
    args = parse_args(argv)
    if not (SRC / "koopman_lyap" / "__init__.py").is_file():
        print(f"perfbench: no src/koopman_lyap under {ROOT}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    bench = Bench(args)

    package_file = bench.package_file()
    expected = (SRC / "koopman_lyap" / "__init__.py").resolve()
    if not package_file or Path(package_file).resolve() != expected:
        bench.errors.append(f"children import koopman_lyap from {package_file!r}, not {expected}")

    setup_times = bench.setup()
    iterations = bench.measure()
    quality = bench.quality()

    traced = [it for it in iterations if it.traced]
    untraced = [it for it in iterations if not it.traced]
    for it in traced:
        for tr in it.traces:
            if Path(tr["package_file"]).resolve() != expected:
                it.errors.append(f"traced child imported {tr['package_file']}")
    failed = len(iterations) if bench.errors else sum(1 for it in iterations if it.errors)

    samples = {
        "run_s": [it.seconds for it in untraced],
        "setup_s": setup_times,
    }
    absent = []
    if args.trace:
        per_iter = [layer_metrics(it.traces) for it in traced]
        absent = absent_metrics([tr for it in traced for tr in it.traces])
        samples.update({k: [m[k] for m in per_iter] for k in PER_LAYER if per_iter})
        overhead = statistics.median(it.seconds for it in traced) - statistics.median(
            it.seconds for it in untraced
        )
        samples["trace.overhead_s"] = [overhead]
        samples["koopman.oracle_max_absdiff"] = [quality.get("oracle_max_absdiff", 0.0)]
        names = PER_LAYER
    else:
        samples["peak_rss_mb"] = [max(it.maxrss_kb for it in untraced) / 1024.0]
        samples["pde_residual_max"] = [quality.get("pde_residual_max", 0.0)]
        samples["cert_pass_share"] = [quality.get("cert_pass_share", 0.0)]
        names = END_TO_END

    summary = {}
    print(
        f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
        f"threads {bench.wl.threads}  "
        f"iterations {len(iterations)} ({failed} failed)"
    )
    for name, unit in names.items():
        vals = samples.get(name) or [0.0]
        q1, med, q3 = quartiles(vals)
        summary[name] = {"median": med, "q1": q1, "q3": q3, "n": len(vals), "unit": unit}
        note = "  (absent)" if name in absent else ""
        print(f"  {name:<36} {med:>14.6g} {unit:<10} q1 {q1:.6g}  q3 {q3:.6g}  n={len(vals)}{note}")
    for err in bench.errors + [e for it in iterations for e in it.errors]:
        print(f"  check failed: {err}")

    correct = failed == 0 and bool(iterations)
    results = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "threads": bench.wl.threads,
        "environment": environment(package_file),
        "config": bench.cfg.read_text(encoding="utf-8"),
        "correct": correct,
        "run_errors": bench.errors,
        "iterations": [
            {"traced": it.traced, "seconds": it.seconds, "cpu_seconds": it.cpu_seconds, "maxrss_kb": it.maxrss_kb, "errors": it.errors}
            for it in iterations
        ],
        "setup_seconds": setup_times,
        "quality": quality,
        "absent_metrics": absent,
        "summary": summary,
    }
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{bench.tag}.json").write_text(json.dumps(results, indent=2) + "\n", encoding="utf-8")

    print(json.dumps({
        "correct": correct,
        "attempted": len(iterations),
        "failed": failed,
        "metrics": {n: {"value": summary[n]["median"], "unit": u} for n, u in names.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
