"""Run the koopman-lyap CLI with span wrappers on each module's public functions.

    python3 traced_cli.py SPANS_JSON <cli arguments ...>

The wrappers are installed from this file at run time; nothing under src/
changes. Each span records name, start, end and parent. Spans and counters
stay in memory and are written to SPANS_JSON when the CLI returns. A target
that a refactor removed or renamed is listed under "absent" and does not
fail the run.

Time the tracer spends on its own bookkeeping, and on the extra
``assemble_system`` call it makes after each ``solve`` (``solve`` hides its
assembly), is recorded per span as "excluded" so that it can be subtracted.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# (module, attribute path, span name). Targets sharing a span name form one
# group; a call nested in a span of its own group is not recorded again.
SPAN_TARGETS = (
    ("cli", "main", "cli.main"),
    ("config", "load_config", "config.load_config"),
    ("dynamics", "linearize", "dynamics.linearize"),
    ("pipeline", "stage_eigenfunctions", "pipeline.stage_eigenfunctions"),
    ("pipeline", "stage_lyapunov", "pipeline.stage_lyapunov"),
    ("pipeline", "stage_certify", "pipeline.stage_certify"),
    ("pipeline", "stage_oracle_check", "pipeline.stage_oracle_check"),
    ("pipeline", "write_manifest", "pipeline.write_manifest"),
    ("pipeline", "load_eigenfunctions", "pipeline.load_eigenfunctions"),
    ("collocation", "solve", "collocation.solve"),
    ("collocation", "CollocationSolution.evaluate_many", "collocation.evaluate_many"),
    ("collocation", "CollocationSolution.gradient_many", "collocation.gradient_many"),
    ("kernel", "GaussianKernel.value_matrix", "kernel.block"),
    ("kernel", "GaussianKernel.grad_x_matrix", "kernel.block"),
    ("kernel", "GaussianKernel.grad_y_matrix", "kernel.block"),
    ("kernel", "GaussianKernel.cross_hessian_matrix", "kernel.block"),
    ("lyapunov", "LyapunovModel.value_many", "lyapunov.value_many"),
    (
        "lyapunov",
        "LyapunovModel.orbital_derivative_many",
        "lyapunov.orbital_derivative_many",
    ),
    ("lyapunov", "diagnostics", "lyapunov.diagnostics"),
    ("lyapunov", "SurfaceGrid.to_csv", "lyapunov.surface_csv_write"),
    ("cpa", "build_triangulation", "cpa.build_triangulation"),
    ("cpa", "estimate_b_bound", "cpa.estimate_b_bound"),
    ("cpa", "certify", "cpa.certify"),
    ("koopman", "path_integral_phi", "koopman.path_integral_phi"),
)

# Called too often for a span each; only counted.
COUNT_TARGETS = (("expr", "VectorField.evaluate", "expr.field_evaluate_calls"),)

# The extra call the tracer makes on each solved CollocationProblem.
ASSEMBLE_TARGET = ("collocation", "assemble_system", "collocation.assemble_system")


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, excluded]
        self.stack = []
        self.counts = {}
        self.points = set()
        self.absent = []
        self.suppressed = False
        self.assemble = None

    def count(self, key, n):
        self.counts[key] = self.counts.get(key, 0) + n

    def _exclude(self, seconds):
        for i in self.stack:
            self.spans[i][4] += seconds

    def span_wrapper(self, name, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            if tracer.suppressed or (stack and tracer.spans[stack[-1]][0] == name):
                return fn(*args, **kwargs)
            idx = len(tracer.spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, 0.0]
            tracer.spans.append(record)
            stack.append(idx)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if after is not None:
                t0 = time.perf_counter()
                after(args, kwargs, result)
                tracer._exclude(time.perf_counter() - t0)
            return result

        return wrapper

    def count_wrapper(self, key, fn):
        tracer = self
        counts = self.counts
        counts.setdefault(key, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.suppressed:
                counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- per-target bookkeeping, run after the wrapped call returns ----------

    def after(self, name):
        if name == "kernel.block":
            return self._after_block
        if name in ("collocation.evaluate_many", "collocation.gradient_many"):
            return functools.partial(self._after_eval, name)
        if name == "cpa.certify":
            return self._after_certify
        if name == "collocation.solve" and self.assemble is not None:
            return self._after_solve
        return None

    def _after_solve(self, args, kwargs, result):
        """Assemble the solved problem again, untraced inside, as one span.
        The enclosing spans exclude this hook's time like any other."""
        problem = args[0] if args else kwargs["problem"]
        self.suppressed = True
        t0 = time.perf_counter()
        try:
            self.assemble(problem)
        finally:
            t1 = time.perf_counter()
            self.suppressed = False
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([ASSEMBLE_TARGET[2], t0, t1, parent, 0.0])

    def _after_block(self, args, kwargs, result):
        self.count("kernel.block_entries", int(result.size))
        self.count("kernel.block_bytes", int(result.nbytes))

    def _after_eval(self, name, args, kwargs, result):
        import numpy as np

        X = args[1] if len(args) > 1 else kwargs["X"]
        X = np.ascontiguousarray(X, dtype=float).reshape(len(result), -1)
        self.count(name + "_points", X.shape[0])
        self.points.update(X.view(np.dtype((np.void, X.shape[1] * 8))).ravel().tolist())

    def _after_certify(self, args, kwargs, result):
        self.count("cpa.pairs_checked", int(result.n_pairs_checked))
        self.count("cpa.decrease_failures", int(result.n_lc2_failures))


def _resolve(module, path):
    owner, obj = None, module
    for part in path.split("."):
        owner, obj = obj, getattr(obj, part, None)
        if obj is None:
            return None, None
    return owner, obj


def _replace(owner, path, original, wrapper, package):
    """Install wrapper on a class attribute, or in every module namespace of
    the package that holds the original function under any name."""
    if "." in path:
        setattr(owner, path.rsplit(".", 1)[1], wrapper)
        return
    for modname, mod in list(sys.modules.items()):
        if mod is None or not modname.startswith(package):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)


def install(tracer, package="koopman_lyap"):
    mods = {}
    for modname in {t[0] for t in SPAN_TARGETS + COUNT_TARGETS + (ASSEMBLE_TARGET,)}:
        mods[modname] = importlib.import_module(f"{package}.{modname}")

    modname, path, _ = ASSEMBLE_TARGET
    _, tracer.assemble = _resolve(mods[modname], path)
    if tracer.assemble is None:
        tracer.absent.append(f"{modname}.{path}")

    for modname, path, name in SPAN_TARGETS:
        owner, fn = _resolve(mods[modname], path)
        if fn is None:
            tracer.absent.append(f"{modname}.{path}")
            continue
        _replace(owner, path, fn, tracer.span_wrapper(name, fn, tracer.after(name)), package)

    for modname, path, key in COUNT_TARGETS:
        owner, fn = _resolve(mods[modname], path)
        if fn is None:
            tracer.absent.append(f"{modname}.{path}")
            continue
        _replace(owner, path, fn, tracer.count_wrapper(key, fn), package)

    return mods


def _pop_threads(cli, argv):
    """Cap the BLAS pools with the CLI's own helper before install() loads
    numpy, and drop --threads so that the CLI does not try again too late."""
    if "--threads" not in argv:
        return argv
    i = argv.index("--threads")
    cli._cap_threads(int(argv[i + 1]))
    return argv[:i] + argv[i + 2 :]


def main(argv):
    # The package imports its submodules lazily and cli.py loads no numpy.
    cli = importlib.import_module("koopman_lyap.cli")
    out_path, cli_args = argv[0], _pop_threads(cli, argv[1:])
    tracer = Tracer()
    mods = install(tracer)
    package = sys.modules["koopman_lyap"]
    code = mods["cli"].main(cli_args)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "package_file": package.__file__,
                "absent": tracer.absent,
                "counts": tracer.counts,
                "distinct_points": len(tracer.points),
                "spans": tracer.spans,
            },
            fh,
        )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
