"""Self-test of the benchmark at toy size (about two minutes).

    python3 perfbench/selftest.py

For every workload it runs ``run.py`` untraced and traced with 8-frame
sessions and checks that the run is correct and that exactly the
metrics ``BENCHMARK.json`` names are printed, each with its unit.  It
then corrupts one reference digest and checks that the run fails.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Toy window per workload: long enough that live_192x144 schedules a
#: ladder session in each half of a traced run (every fourth session
#: asks for one).
TOY_SECONDS = {"vga_batch": 2, "live_192x144": 10}


def run(workload: str, trace: int, *extra: str):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", str(TOY_SECONDS[workload]),
         "--trace", str(trace), "--frames", "8", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    return proc, result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []
    for workload in TOY_SECONDS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[key]}
            proc, result = run(workload, trace)
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0 or not result or not result["correct"]:
                failures.append(f"{label}: run failed\n{proc.stdout[-3000:]}"
                                f"\n{proc.stderr[-3000:]}")
                continue
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                missing = sorted(set(want) - set(got))
                extra = sorted(set(got) - set(want))
                wrong = sorted(n for n in set(want) & set(got)
                               if want[n] != got[n])
                failures.append(f"{label}: missing {missing}, unexpected "
                                f"{extra}, wrong unit {wrong}")
            print(f"ok   {label}: {len(got)} metrics, "
                  f"{result['attempted']} frames", flush=True)
    proc, result = run("vga_batch", 0, "--corrupt-reference")
    if proc.returncode == 0 or (result and result["correct"]):
        failures.append("a corrupted reference digest did not fail the run")
    else:
        print("ok   corrupted reference digest fails the run", flush=True)
    for failure in failures:
        print("FAIL", failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
