#!/usr/bin/env python3
"""End-to-end demo: synthetic wind -> ramp correction -> fitted charge model
-> Monte Carlo penalty moments, for three ramp limits.

Writes all artifacts to --out and prints a per-limit summary table.
"""

import argparse
import json
from pathlib import Path

from windbridge.pipeline import RunConfig, SyntheticWindSpec, run_pipeline


def fmt(value, spec: str) -> str:
    """``value`` formatted by ``spec``; ``n/a`` for a metric left undefined (``null``)."""
    return "n/a" if value is None else format(value, spec)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", type=Path, default=Path("demo_out"))
    ap.add_argument("--hours", type=int, default=50_000)
    ap.add_argument("--paths", type=int, default=1500)
    ap.add_argument("--seed", type=int, default=12345)
    args = ap.parse_args()

    cfg = RunConfig(
        out_dir=args.out,
        synthetic=SyntheticWindSpec(n_steps=args.hours),
        limits=(0.01, 0.05, 0.07),
        n_paths=args.paths,
        seed=args.seed,
    )
    run_pipeline(cfg)

    print(f"\n{'limit':>6} {'limit MW':>9} {'mean W(24) EUR':>15} {'std':>8} "
          f"{'L2(mean) %':>11} {'MAPE(W) %':>10}")
    for frac in cfg.limits:
        tag = cfg.limit_tag(frac)
        rows = (args.out / f"moments_{tag}.csv").read_text().splitlines()
        last = rows[-1].split(",")
        val = json.loads((args.out / f"validation_{tag}.json").read_text())
        print(f"{frac:>6g} {cfg.limit_mw(frac):>9.2f} {float(last[1]):>15.2f} "
              f"{float(last[2]):>8.2f} {fmt(val['mean_l2_average_pct'], '.1f'):>11} "
              f"{fmt(val['penalty']['mape_first_moment_pct'], '.1f'):>10}")
    print(f"\nartifacts in {args.out}/")


if __name__ == "__main__":
    main()
