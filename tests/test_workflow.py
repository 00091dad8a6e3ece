"""The CI workflow parses, defines its three jobs, runs tier-1 on Python
3.10 to 3.13 and holds only shell that bash accepts.  PyYAML serves only as a
test dependency."""

import subprocess
from pathlib import Path

import pytest
import yaml

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"
# the tier-1 command of ROADMAP.md, after its PYTHONPATH prefix
TIER1 = "python -m pytest -q --continue-on-collection-errors"


@pytest.fixture(scope="module")
def workflow():
    return yaml.safe_load(WORKFLOW.read_text())


def _runs(job):
    return [step["run"] for step in job["steps"] if "run" in step]


def test_workflow_defines_the_three_jobs_and_its_triggers(workflow):
    # PyYAML reads the key "on" as the boolean True
    assert set(workflow[True]) == {"push", "pull_request"}
    assert set(workflow["jobs"]) == {"tier-1", "battery-optimised", "bench-harness"}


def test_tier1_job_runs_the_tier1_command(workflow):
    assert any(TIER1 in run for run in _runs(workflow["jobs"]["tier-1"]))


def test_tier1_job_runs_on_python_3_10_to_3_13(workflow):
    matrix = workflow["jobs"]["tier-1"]["strategy"]["matrix"]
    assert matrix["python-version"] == ["3.10", "3.11", "3.12", "3.13"]


def test_every_run_block_passes_bash_syntax_check(workflow):
    runs = [run for job in workflow["jobs"].values() for run in _runs(job)]
    assert len(runs) >= 10
    for run in runs:
        done = subprocess.run(["bash", "-n"], input=run, capture_output=True, text=True, timeout=30)
        assert done.returncode == 0, (run, done.stderr)
