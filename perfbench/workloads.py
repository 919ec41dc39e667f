"""Workloads of the benchmark and the seeded configuration files they run.

Each workload names a bundled configuration, the CLI subcommands of its
set-up and of its measured part, and a fixed ``--threads``. The program
only ever sees the generated ``.cfg`` file.

Seed 0 is the bundled configuration verbatim (apart from the work sizes
below); any other seed multiplies the system's coefficients by factors in
[1 - 0.5%, 1 + 0.5%]. That keeps the spectrum real, distinct and Hurwitz and
keeps example1's path-integral condition -lambda + 2 max(lambda) < 0. Work
sizes never depend on the seed.

Work sizes: the bundled sizes make one ``run example1`` take about 50 s on
a 2-core box, longer than one benchmark run may last, so every workload runs
at a reduced, fixed size (``BENCH_SIZES``). The sizes are chosen so that each
stage and layer takes about the share of a run that it takes at the bundled
sizes: the centers (``grid_n``) set assembly and factorization, the test grid
(``resolution``) the lyapunov stage, ``cells`` the certify stage and the
oracle's ``dt`` the path-integral oracle (all ``sample_points`` are kept).
Factorization, cubic in the number of centers, is the one layer whose share
stays smaller than at the bundled sizes.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass

_PERTURBATION = 0.005


@dataclass(frozen=True)
class Workload:
    name: str
    config: str  # bundled configuration name
    setup: tuple  # subcommands run once per set-up repetition
    measured: tuple  # subcommands timed together as one iteration
    threads: int


# Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("example1-run", "example1", ("linearize",), ("run",), 2),
        Workload("duffing-run-t1", "duffing", ("linearize",), ("run",), 1),
        Workload(
            "duffing-recertify", "duffing", ("eigenfunctions",), ("lyapunov", "certify"), 2
        ),
    )
}

# Work sizes written over the bundled configuration, per workload.
BENCH_SIZES = {
    "example1-run": {"grid_n": 40, "resolution": 25, "cells": 68, "dt": 0.006},
    "duffing-run-t1": {"grid_n": 40, "resolution": 27, "cells": 72},
    "duffing-recertify": {"grid_n": 40, "resolution": 27, "cells": 144},
}


def _factors(rng: random.Random, k: int) -> list:
    return [1.0 + rng.uniform(-_PERTURBATION, _PERTURBATION) for _ in range(k)]


def _perturb_example1(rng: random.Random) -> dict:
    # f2 = -b*(x2 - c*x1^2): the only nonzero second partial is 2*b*c, so the
    # curvature override is recomputed (rounded up) to stay a valid bound.
    fa, fb, fc = _factors(rng, 3)
    a, b, c = (round(v, 6) for v in (2.0 * fa, 3.0 * fb, fc))
    curv = math.ceil(2.0 * b * c * 1e6) / 1e6
    return {
        "f1": f"-{a:.6f}*x1",
        "f2": f"-{b:.6f}*(x2 - {c:.6f}*x1^2)",
        "b_override": f"{curv:.6f} 0 0 0",
    }


def _perturb_duffing(rng: random.Random) -> dict:
    # Overdamped while delta^2 > 4 alpha: 9 * 0.995^2 > 4 * 1.005 holds.
    fd, alpha, beta = _factors(rng, 3)
    delta = 3.0 * fd
    return {
        "f1": "x2",
        "f2": f"-{delta:.6f}*x2 - {alpha:.6f}*x1 - {beta:.6f}*x1^3",
    }


_PERTURB = {"example1": _perturb_example1, "duffing": _perturb_duffing}


def _set_key(text: str, key: str, value) -> str:
    new, count = re.subn(
        rf"(?m)^{re.escape(key)}\s*=.*$", f"{key} = {value}", text
    )
    if count != 1:
        raise ValueError(f"expected exactly one {key!r} line in the config")
    return new


def make_config(workload: Workload, bundled_text: str, seed: int) -> str:
    """Configuration text for one workload and seed."""
    text = bundled_text
    for key, value in BENCH_SIZES[workload.name].items():
        text = _set_key(text, key, value)
    if seed:
        rng = random.Random(f"{workload.config}:{seed}")
        for key, value in _PERTURB[workload.config](rng).items():
            text = _set_key(text, key, value)
    return text
