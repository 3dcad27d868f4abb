#!/usr/bin/env python3
"""Run three fixed-seed pipelines and print the sha256 of every artifact.

Each output line reads ``config name sha256``.  Two checkouts whose outputs
are equal produce byte-identical artifacts, which is how a refactor shows
that it changed no result:

    PYTHONPATH=src python scripts/artifact_digest.py > after.txt
    diff before.txt after.txt

``short`` runs 10,000 synthetic hours at limits 1/5/7% with 200 paths and
seed 7; ``monthly`` runs 20,000 synthetic hours at a 5% limit, horizon 720,
discount rate 0.001, 40 paths and seed 3.  ``csv`` writes 5,000 hours of
synthetic wind as an ISO-timestamped ``timestamp,speed_ms`` file and reads it
back through ``wind_csv``, at a 5% limit with 100 paths and seed 5, so the
wind-file reader is covered too.  All three dump a sample path, so every
artifact the pipeline can write is covered.
"""

import datetime
import hashlib
import tempfile
from pathlib import Path

from windbridge.pipeline import RunConfig, SyntheticWindSpec, run_pipeline
from windbridge.power import generate_synthetic_wind
from windbridge.simulate import DEFAULT_FEES, PenaltySpec

#: Hours of wind the ``csv`` config reads from a file.
CSV_HOURS = 5_000

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
    "csv": dict(limits=(0.05,), n_paths=100, seed=5),
}


def write_wind_file(path: Path) -> Path:
    """Write ``CSV_HOURS`` hours of synthetic wind, one ISO timestamp an hour apart."""
    spec = SyntheticWindSpec(n_steps=CSV_HOURS)
    speeds = generate_synthetic_wind(
        spec.n_steps, spec.shape, spec.scale, spec.autocorrelation, seed=5
    )
    start = datetime.datetime(2015, 1, 1)
    hour = datetime.timedelta(hours=1)
    with open(path, "w") as fh:
        fh.write("# hourly mean wind speed at hub height\ntimestamp,speed_ms\n")
        for k, v in enumerate(speeds.tolist()):
            fh.write(f"{(start + k * hour).isoformat()},{v!r}\n")
    return path


def digests(name: str, root: Path) -> list[str]:
    out_dir = root / name
    config = dict(CONFIGS[name])
    if name == "csv":
        config["wind_csv"] = write_wind_file(root / "wind_input.csv")
    run_pipeline(RunConfig(out_dir=out_dir, dump_paths=True, **config))
    return [
        f"{name} {path.name} {hashlib.sha256(path.read_bytes()).hexdigest()}"
        for path in sorted(out_dir.iterdir())
    ]


def main() -> None:
    # the csv config's stamp hashes its wind file's bytes, not the file's
    # path, so the temporary directory's name leaves every digest unchanged
    with tempfile.TemporaryDirectory() as tmp:
        for name in CONFIGS:
            for line in digests(name, Path(tmp)):
                print(line, flush=True)


if __name__ == "__main__":
    main()
