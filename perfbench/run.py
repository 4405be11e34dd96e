"""Benchmark command: one workload, one seed, one run.

    python3 perfbench/run.py --workload spark-mixed --seed 1 --seconds 10 --trace 0

Run from the repository root. Starts a local[4] Spark session, builds the
workload's federation from ``src/``, drives its queries from one closed-loop
client, checks every answer and prints, as the last line of standard output,
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``. All scratch
files (parquet stores, Spark spill, JVM temp files) live under
``.perfbench_tmp/`` and are removed at exit; a traced run keeps its spans in
``.perfbench_out/``.
"""
from __future__ import annotations

import argparse
import json
import os
import shlex
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("spark-mixed", "pandas-attack")
SPARK_MASTER = "local[4]"
DRIVER_MEMORY = "2g"


def _configure(tmp: Path) -> None:
    """Keep every file Spark, the JVM and Python write inside ``tmp``;
    must run before pyspark is imported."""
    tmp.mkdir(parents=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(tmp)  # would override spark.local.dir
    tempfile.tempdir = str(tmp)
    java_opts = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
        [
            f"--master {SPARK_MASTER}",
            f"--driver-memory {DRIVER_MEMORY}",
            f"--driver-java-options {shlex.quote(java_opts)}",
            "--conf spark.driver.host=127.0.0.1",
            "--conf spark.ui.enabled=false",
            "--conf spark.ui.showConsoleProgress=false",
            "--conf " + shlex.quote(f"spark.local.dir={tmp}"),
            "--conf " + shlex.quote(f"spark.sql.warehouse.dir={tmp / 'warehouse'}"),
            "pyspark-shell",
        ]
    )


def start_spark():
    """The SparkSession the repository's tests use, sized to 4 cores."""
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session and wait until the JVM process has exited."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    proc = getattr(gateway, "proc", None)
    spark.stop()
    if gateway is not None:
        gateway.shutdown()
    SparkContext._gateway = None
    SparkContext._jvm = None
    if proc is not None:
        proc.stdin.close()  # the JVM exits when its stdin closes
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def _report(result: dict, trace: bool) -> None:
    info = result["info"]
    print(f"[perfbench] {json.dumps(info)}", file=sys.stderr)
    for k, m in result["metrics"].items():
        print(f"[perfbench] {k:28s} {m['value']:>14.6g} {m['unit']}", file=sys.stderr)
    for k, (v, unit) in result["end_to_end"].items():
        print(f"{k} {v:.6g} {unit}")
    print(f"queries_digest {info['queries_digest']} n={info['queries']}")
    print(f"speedup exact_p50/approx_p50 = {info['speedup']}")
    if trace:
        out = ROOT / ".perfbench_out" / f"spans-{info['workload']}-seed{info['seed']}.jsonl"
        result["tracer"].write(str(out))
        print(f"spans written to {out.relative_to(ROOT)}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="length of the timed window")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no engine sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    tmp = ROOT / ".perfbench_tmp" / f"run-{os.getpid()}-{time.time_ns()}"
    _configure(tmp)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    spark = None
    try:
        from perfbench.harness import run

        spark = start_spark()
        result = run(
            spark, args.workload, args.seed, args.seconds,
            trace=bool(args.trace), tiny=False, tmp=str(tmp),
        )
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        if spark is not None:
            stop_spark(spark)
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:  # another run still uses it
            pass
    _report(result, bool(args.trace))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
