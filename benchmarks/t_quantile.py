#!/usr/bin/env python3
"""Layer benchmark of the student-t inverse CDF: the closed form for even df
against scipy's ``stdtrit``, written to ``benchmarks/BENCH_t-quantile-layer.json``.

    python3 benchmarks/t_quantile.py [--df-max 100] [--rounds 5] [--out PATH]

For every even df from 6 to ``--df-max`` it times, on one 2 MiB block of
keyed uniforms (262144 draws), the closed-form quantile that
``ErrorDistribution.sample`` uses for df <= ``model.EVEN_T_DF_MAX`` (called
directly, so df above the cutoff are timed too), ``stdtrit`` and
``ErrorDistribution.sample`` itself. The three run in alternating order in
each round; the file records the median ns per draw of each. It also
records the largest error of the closed form, in ulp of the exact quantile,
over 400 keyed uniforms and the grid's end points, against a 50-digit
mpmath CDF (skipped when mpmath is missing). The cutoff is the largest df
where the closed form is still both clearly faster and accurate.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from scipy.special import stdtrit  # noqa: E402

from evclt import model  # noqa: E402
from evclt.model import ErrorDistribution, _EvenStudentT  # noqa: E402
from evclt.rng import STREAM_EPS, uniforms  # noqa: E402

BLOCK = 262144  # 2 MiB of float64
SEED = 2024


def machine_record() -> dict:
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in f if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "scipy": scipy.__version__,
    }


def max_ulp_error(df: int, u: np.ndarray, t: np.ndarray) -> float | None:
    """Largest |t - t*| / ulp(t*), with t* the exact quantile of u, to first
    order from one 50-digit CDF evaluation at each t."""
    try:
        import mpmath
    except ImportError:
        return None
    worst = 0.0
    with mpmath.workdps(50):
        nu = mpmath.mpf(df)
        density_scale = mpmath.gamma((nu + 1) / 2) / (
            mpmath.sqrt(nu * mpmath.pi) * mpmath.gamma(nu / 2)
        )
        for ui, ti in zip(u.tolist(), t.tolist()):
            tm = mpmath.mpf(ti)
            # P(T < -|t|) = I_y(nu/2, 1/2) / 2 with y = nu / (nu + t^2).
            lower = mpmath.betainc(nu / 2, 0.5, 0, nu / (nu + tm * tm), regularized=True) / 2
            if ti < 0:
                residual = lower - mpmath.mpf(ui)
            else:
                residual = (1 - mpmath.mpf(ui)) - lower
            exact = tm - residual / (density_scale * (1 + tm * tm / nu) ** (-(nu + 1) / 2))
            worst = max(worst, float(abs(tm - exact)) / math.ulp(float(exact)))
    return worst


def time_per_draw(fn, u: np.ndarray, out: np.ndarray) -> float:
    start = time.perf_counter()
    fn(u, out)
    return (time.perf_counter() - start) / u.size * 1e9


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--df-max", type=int, default=100)
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--out", type=Path, default=ROOT / "benchmarks" / "BENCH_t-quantile-layer.json")
    args = parser.parse_args()

    u = uniforms((SEED, STREAM_EPS), BLOCK)
    out = np.empty_like(u)
    accuracy_u = np.concatenate(
        [uniforms((SEED + 1, STREAM_EPS), 400), [2.0**-54, 1 - 2**-53 - 2**-54]]
    )
    rows = []
    for df in range(6, args.df_max + 1, 2):
        closed_form = _EvenStudentT.of(df // 2)
        law = ErrorDistribution("student-t", 1.0, df=float(df))
        timed = {
            "closed_form": closed_form.quantile,
            "stdtrit": lambda v, o, df=df: stdtrit(df, v, out=o),
            "sample": lambda v, o, law=law: law.sample(v, out=o),
        }
        names = list(timed)
        samples: dict[str, list[float]] = {name: [] for name in names}
        for r in range(args.rounds):
            for name in names if r % 2 == 0 else reversed(names):
                samples[name].append(time_per_draw(timed[name], u, out))
        medians = {name: statistics.median(values) for name, values in samples.items()}
        t = np.empty_like(accuracy_u)
        closed_form.quantile(accuracy_u, t)
        row = {
            "df": df,
            "closed_form_ns": round(medians["closed_form"], 1),
            "stdtrit_ns": round(medians["stdtrit"], 1),
            "sample_ns": round(medians["sample"], 1),
            "speedup": round(medians["stdtrit"] / medians["closed_form"], 2),
            "max_ulp": max_ulp_error(df, accuracy_u, t),
        }
        rows.append(row)
        print(json.dumps(row), flush=True)

    record = {
        "date_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "machine": machine_record(),
        "block_draws": BLOCK,
        "rounds": args.rounds,
        "even_t_df_max": model.EVEN_T_DF_MAX,
        "rows": rows,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
