"""The benchmark harness still runs against the current package.

`perfbench/run.py --smoke` runs every workload once untraced and once
traced.  The tracer patches mlosim's functions by name, so renaming or
re-signing one of them fails here, not only in a benchmark run; and since
a path that routes around a patched name would trace zeros, the traced
counts of each workload must agree with each other.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_smoke():
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"), "--smoke"],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert proc.stdout.splitlines()[-1] == "smoke ok"
    for name in ("run-greedy", "run-congestion", "capacity-sl"):
        record = json.loads((ROOT / "perfbench" / "out" / f"{name}.seed0.smoke.trace1.json")
                            .read_text())
        counts = {k: m["value"] for k, m in record["result"]["metrics"].items()}
        # every generated frame is recorded once; every PPDU selects one rate
        assert counts["stats.records"] == counts["traffic.frames"] > 0, name
        assert counts["mac.ppdus"] == counts["phy.select_calls"] > 0, name
        simulated = record["simulated"]
        probes = len(simulated["worst_p99_us"]) if "max_sta" in simulated else 1
        assert counts["cli.probes"] == probes, name
