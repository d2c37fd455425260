#!/usr/bin/env bash
# Runs what CI runs: every `run:` step of the workflow, job by job and step
# by step in file order, so a change is checked against the workflow itself
# rather than against a hand-copied list of commands.
#
#   scripts/ci_local.sh [workflow=.github/workflows/ci.yml]
#
# Each step runs from the repository root under `bash -eo pipefail`, as on
# GitHub's runners, with the workflow-level, job-level and step-level `env`
# merged over the caller's environment. `uses:` steps (the checkout) are
# skipped. A failing step ends its job, as in CI, and the remaining jobs
# still run. A step marked `continue-on-error` is reported, never fatal.
#
# CI gives every job a fresh checkout; here they share one tree. A job
# whose `env` sets RUSTFLAGS (the model-check job's `--cfg rsched_model`)
# therefore builds into target/ci_local/<job>/ so the flag flip does not
# rebuild target/.
#
# Exits 1 if the workflow does not parse as YAML, has no jobs, or a step
# that is not `continue-on-error` fails. Needs python3 with PyYAML.
set -euo pipefail
cd "$(dirname "$0")/.."

exec python3 - "${1:-.github/workflows/ci.yml}" <<'PY'
import os
import subprocess
import sys

import yaml

path = sys.argv[1]
try:
    with open(path) as f:
        workflow = yaml.safe_load(f)
except (OSError, yaml.YAMLError) as err:
    sys.exit(f"ci_local: cannot read {path}: {err}")
jobs = workflow.get("jobs") if isinstance(workflow, dict) else None
if not isinstance(jobs, dict) or not jobs:
    sys.exit(f"ci_local: {path} defines no jobs")


def env_of(node):
    return {k: str(v) for k, v in (node.get("env") or {}).items()}


results = []  # (job, step, status)
for job_id, job in jobs.items():
    env = {**os.environ, **env_of(workflow), **env_of(job)}
    if "RUSTFLAGS" in env_of(job) and "CARGO_TARGET_DIR" not in env:
        env["CARGO_TARGET_DIR"] = os.path.join("target", "ci_local", job_id)
    failed = False
    for step in job.get("steps") or []:
        name = step.get("name") or step.get("uses") or step.get("run")
        if "run" not in step:
            results.append((job_id, name, "skipped (uses)"))
            continue
        if failed:
            results.append((job_id, name, "not run"))
            continue
        print(f"\n== {job_id} / {name}", flush=True)
        code = subprocess.run(
            ["bash", "--noprofile", "--norc", "-eo", "pipefail", "-c", step["run"]],
            env={**env, **env_of(step)},
        ).returncode
        if code == 0:
            results.append((job_id, name, "ok"))
        elif step.get("continue-on-error"):
            results.append((job_id, name, f"FAILED with {code} (continue-on-error)"))
        else:
            results.append((job_id, name, f"FAILED with {code}"))
            failed = True

print("\n== ci_local summary")
for job_id, name, status in results:
    print(f"{job_id:12} {status:34} {name}")
fatal = [r for r in results if r[2].startswith("FAILED") and "continue-on-error" not in r[2]]
sys.exit(1 if fatal else 0)
PY
