"""Self-test of the benchmark runner: every workload at its smallest size,
untraced and traced, checked against the contract in BENCHMARK.json.

    python3 perfbench/selftest.py

Run from the root of a source checkout; takes about a minute.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    if proc.returncode != 0:
        raise AssertionError("%s trace=%d exited %d:\n%s" % (workload, trace, proc.returncode,
                                                            proc.stderr[-2000:]))
    return json.loads(proc.stdout.splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    listed = [w["name"] for w in bench["workloads"]]
    # inverse and battery are runnable but not in BENCHMARK.json (see README);
    # their traced runs add the metrics of the layers only they reach
    for name in listed + ["inverse", "battery"]:
        for trace in (0, 1):
            out = run(name, trace)
            assert set(out) == {"correct", "attempted", "failed", "metrics"}, out.keys()
            assert out["correct"] is True and out["attempted"] >= 1, out
            got = {k: v["unit"] for k, v in out["metrics"].items()}
            if name in listed or trace == 0:
                assert got == expected[trace], sorted(set(got) ^ set(expected[trace]))
            else:
                assert got.items() >= expected[trace].items(), sorted(set(expected[trace]) - set(got))
            if trace == 0:
                assert all(v["value"] > 0 for v in out["metrics"].values()), out["metrics"]
            else:
                assert out["metrics"]["cusp_groups.build_marked_cusp.calls"]["value"] > 0, name
            print("ok %-8s trace=%d attempted=%d failed=%d"
                  % (name, trace, out["attempted"], out["failed"]))
    print("selftest passed")


if __name__ == "__main__":
    main()
