#!/usr/bin/env python3
"""Run two fixed-seed pipelines and print the sha256 of every artifact.

Each output line reads ``config name sha256``.  Two checkouts whose outputs
are equal produce byte-identical artifacts, which is how a refactor shows
that it changed no result:

    PYTHONPATH=src python scripts/artifact_digest.py > after.txt
    diff before.txt after.txt

``short`` runs 10,000 synthetic hours at limits 1/5/7% with 200 paths and
seed 7; ``monthly`` runs 20,000 synthetic hours at a 5% limit, horizon 720,
discount rate 0.001, 40 paths and seed 3.  Both dump a sample path, so every
artifact the pipeline can write is covered.
"""

import hashlib
import tempfile
from pathlib import Path

from windbridge.pipeline import RunConfig, SyntheticWindSpec, run_pipeline
from windbridge.simulate import DEFAULT_FEES, PenaltySpec

CONFIGS = {
    "short": dict(
        synthetic=SyntheticWindSpec(n_steps=10_000),
        limits=(0.01, 0.05, 0.07),
        n_paths=200,
        seed=7,
    ),
    "monthly": dict(
        synthetic=SyntheticWindSpec(n_steps=20_000),
        limits=(0.05,),
        horizon=720,
        fees=PenaltySpec(
            up_fee=DEFAULT_FEES.up_fee, down_fee=DEFAULT_FEES.down_fee, discount_rate=0.001
        ),
        n_paths=40,
        seed=3,
    ),
}


def digests(name: str, root: Path) -> list[str]:
    out_dir = root / name
    run_pipeline(RunConfig(out_dir=out_dir, dump_paths=True, **CONFIGS[name]))
    return [
        f"{name} {path.name} {hashlib.sha256(path.read_bytes()).hexdigest()}"
        for path in sorted(out_dir.iterdir())
    ]


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for name in CONFIGS:
            for line in digests(name, Path(tmp)):
                print(line, flush=True)


if __name__ == "__main__":
    main()
