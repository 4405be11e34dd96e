"""spark-submit entrypoint: reproduce one paper artifact of §6.

The artifact's datasets, sweep arguments, result file and columns come from
``repro.experiments.ARTIFACTS`` — the same table the benchmarks run — and
the rows are saved to ``benchmark_results/<result>.md``.

Example:
    PYTHONPATH=src spark-submit jobs/run_experiment.py fig4 --sf 0.1
"""
from __future__ import annotations

import argparse
import os
import shutil
import tempfile

from pyspark.sql import SparkSession

from repro.experiments import ARTIFACTS, build, run_artifact, save_artifact


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("artifact", choices=ARTIFACTS)
    ap.add_argument(
        "--sf", type=float,
        help="replace every dataset's SF (Fig 7 runs at its fixed multiples of it)",
    )
    args = ap.parse_args(argv)

    # reuses the caller's session when one is active (in-process runs)
    spark = SparkSession.builder.appName(f"repro-{args.artifact}").getOrCreate()
    store_root = tempfile.mkdtemp(prefix="repro_stores_")
    feds = {}

    def fed(name: str, sf: float):
        if (name, sf) not in feds:
            path = os.path.join(store_root, f"{name}_sf{sf:g}")
            feds[name, sf] = build(spark, name, sf=sf, store_root=path)
        return feds[name, sf]

    try:
        save_artifact(args.artifact, run_artifact(args.artifact, fed, sf=args.sf))
    finally:
        shutil.rmtree(store_root, ignore_errors=True)


if __name__ == "__main__":
    main()
