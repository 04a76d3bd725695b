"""Headroom report: Tier-1 once, its wall time, and each acceptance criterion
against its time limit. Not part of the gated metrics: the criteria are fixed,
unseeded inputs.

    python3 perfbench/headroom.py

Runs ``python -m pytest -q --continue-on-collection-errors tests`` in a
subprocess from a temporary directory, with bytecode, pytest and hypothesis
caches kept out of the repository, and prints one JSON object.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# conftest prints: "criterion 3: PASS acceptor agrees ...  (6.61s, limit 60s)"
CRITERION = re.compile(r"criterion (\d+): (PASS|FAIL) (.*?)\s+\(([\d.]+)s, limit ([\d.]+)s\)")
SUMMARY = re.compile(r"(\d+) (passed|failed|error|errors|skipped)")


def main():
    with tempfile.TemporaryDirectory(prefix="anet-headroom-") as scratch:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        env["HYPOTHESIS_STORAGE_DIRECTORY"] = os.path.join(scratch, "hypothesis")
        cmd = [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "--continue-on-collection-errors", str(ROOT / "tests"),
        ]
        t0 = time.perf_counter()
        done = subprocess.run(cmd, cwd=scratch, env=env, capture_output=True, text=True)
        wall = time.perf_counter() - t0
    criteria = [
        {
            "criterion": int(num),
            "title": title.strip(),
            "passed": status == "PASS",
            "seconds": float(secs),
            "limit_s": float(limit),
            "headroom": 1.0 - float(secs) / float(limit),
        }
        for num, status, title, secs, limit in CRITERION.findall(done.stdout)
    ]
    tail = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else ""
    counts = {kind: int(n) for n, kind in SUMMARY.findall(tail)}
    print(json.dumps({
        "tier1_wall_s": wall,
        "tier1_exit_code": done.returncode,
        "tier1_counts": counts,
        "criteria": criteria,
        "python": sys.version.split()[0],
        "cpus": os.cpu_count(),
    }, indent=1))
    return 0 if done.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
