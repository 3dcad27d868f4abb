#!/usr/bin/env python3
"""Dump real and simulated charge bridges for one segment class, side by side.

Useful for eyeballing whether the fitted triangle-plus-bridge model reproduces
the shapes seen in the data.  The class ``(i, j, x)`` is the given state and
sojourn with the most common successor ``j`` of their runs.  Output:
<out>/real_###.csv and sim_###.csv in the ``k,value`` layout, each led by the
line ``# class i=... j=... x=...``.
"""

import argparse
from pathlib import Path

import numpy as np

from windbridge.bridge import write_bridge_csv
from windbridge.pipeline import build_model_doc, charge_model_from_doc
from windbridge.power import DEFAULT_TURBINE, PowerSeries, RampPolicy, apply_ramp_limit, generate_synthetic_wind, wind_to_power
from windbridge.segmentation import extract_segments


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", type=Path, default=Path("charge_gallery"))
    ap.add_argument("--hours", type=int, default=30_000)
    ap.add_argument("--limit", type=float, default=0.02, help="ramp limit in MW per hour")
    ap.add_argument("--state", type=int, default=-1, choices=[-1, 1])
    ap.add_argument("--sojourn", type=int, default=5)
    ap.add_argument("--count", type=int, default=8)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    speeds = generate_synthetic_wind(args.hours, 2.0, 8.0, 0.9, seed=args.seed)
    series = apply_ramp_limit(
        PowerSeries(generated=wind_to_power(speeds, DEFAULT_TURBINE)),
        RampPolicy(limit=args.limit),
        capacity=DEFAULT_TURBINE.rated_capacity,
    )
    _, table = extract_segments(series)
    doc = build_model_doc(table, args.limit, DEFAULT_TURBINE.rated_capacity, seed_key=(args.seed,))
    model = charge_model_from_doc(doc)

    runs = np.flatnonzero(~table.censored & (table.i == args.state) & (table.x == args.sojourn))
    if not runs.size:
        raise SystemExit(f"no segments with i={args.state}, x={args.sojourn}; try another class")
    # the class (i, j, x) takes the most common successor j of these runs
    js, counts = np.unique(table.j[runs], return_counts=True)
    j = int(js[np.argmax(counts)])
    matches = runs[table.j[runs] == j]
    args.out.mkdir(parents=True, exist_ok=True)
    count = min(args.count, matches.size)
    sims = model.charge_paths(args.state, j, args.sojourn, count, np.random.default_rng(args.seed))
    real = table.charge_matrix(matches[:count], args.sojourn)
    label = f"class i={args.state} j={j} x={args.sojourn}"
    for n in range(count):
        write_bridge_csv(args.out / f"real_{n:03d}.csv", real[n], comment=label)
        write_bridge_csv(args.out / f"sim_{n:03d}.csv", sims[n], comment=label)
    print(f"wrote {count} real/sim bridge pairs of {label} to {args.out}/ "
          f"({matches.size} real segments available for this class)")


if __name__ == "__main__":
    main()
