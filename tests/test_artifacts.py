"""Tests for the artifact table (``repro.experiments.ARTIFACTS``) and its
entry point ``jobs/run_experiment.py``."""
from __future__ import annotations

import importlib.util
import os

import pytest

import repro.reporting as reporting
from jobs import run_experiment
from repro.experiments import ARTIFACTS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _assemble_module():
    path = os.path.join(ROOT, "tools", "assemble_experiments.py")
    spec = importlib.util.spec_from_file_location("assemble_experiments", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_placeholder_has_a_producer():
    """The result files the table writes are exactly the files
    EXPERIMENTS.md is assembled from, and each has its marker there."""
    produced = {f"{a.result}.md" for a in ARTIFACTS.values()}
    placeholders = _assemble_module().PLACEHOLDERS
    assert set(placeholders.values()) == produced
    assert set(os.listdir(os.path.join(ROOT, "benchmark_results"))) == produced
    with open(os.path.join(ROOT, "EXPERIMENTS.md")) as f:
        text = f.read()
    for key in placeholders:
        assert f"<!-- BEGIN {key} -->" in text or f"<!-- {key} -->" in text, key


@pytest.mark.parametrize(
    "artifact, lines",
    [
        (
            "fig1",
            ["| query | rows_shared | smc_rows_s | smc_results_s | ratio |"],
        ),
        (
            "metadata",
            [
                "| dataset | sf | clusters | S | metadata_mb | kb_per_cluster |",
                "| adult-lite | 0.002 | 400 | 20 |",
                "| amazon-lite | 0.002 | 800 | 40 |",
            ],
        ),
    ],
)
def test_run_experiment_writes_result(spark, tmp_path, monkeypatch, artifact, lines):
    monkeypatch.setattr(reporting, "RESULTS_DIR", str(tmp_path))
    run_experiment.main([artifact, "--sf", "0.002"])
    assert os.listdir(tmp_path) == [f"{ARTIFACTS[artifact].result}.md"]
    text = (tmp_path / f"{ARTIFACTS[artifact].result}.md").read_text()
    for line in lines:
        assert line in text
    if artifact == "fig1":
        assert text.count("\n") == 2 + 5  # header, rule, one row per query


def test_run_experiment_rejects_unknown_artifact(capsys):
    with pytest.raises(SystemExit) as exc:
        run_experiment.main(["fig9"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
