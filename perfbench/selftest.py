#!/usr/bin/env python3
"""Self-test of the benchmark.

Usage, from the root of the repository:

    python3 perfbench/selftest.py          # reduced-size inputs, about a minute
    python3 perfbench/selftest.py --full   # also full size at two seeds

It checks that:

* every workload passes its output checks on reduced-size inputs, timed
  (`--trace 0`) and traced (`--trace 1`), and prints every metric that
  BENCHMARK.json names, with its unit;
* with `--full`, every workload passes at the pinned seed 42, where the
  committed score digests and the `mfbc-cli simulate` cross-check apply,
  and at seed 7, where only the reference checks do;
* two broken outputs are caught: one flipped score bit (`bc-rmat`) and
  one dropped serve response (`serve-mixed`) each count as a failed
  operation, make the result incorrect, and make the exit code nonzero.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload, seed, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)] + list(extra)
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = r.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return r.returncode, result, r.stderr


def expect_pass(workload, seed, trace, *extra):
    code, result, err = bench(workload, seed, trace, *extra)
    label = "%s seed %s trace %s %s" % (workload, seed, trace, " ".join(extra))
    assert code == 0 and result and result["correct"] and result["failed"] == 0, (
        "%s: exit %s, result %s\n%s" % (label, code, result, err[-2000:]))
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    for m in wanted:
        got = result["metrics"].get(m["name"])
        assert got is not None, "%s: metric %s missing" % (label, m["name"])
        assert got["unit"] == m["unit"], "%s: %s unit %s" % (label, m["name"], got["unit"])
        if not trace:
            assert got["value"] > 0, "%s: %s is not positive" % (label, m["name"])
    print("ok   %s (%d checked operations)" % (label, result["attempted"]))


def expect_caught(workload, mutation):
    code, result, err = bench(workload, 3, 0, "--smoke", "--mutate", mutation)
    assert code != 0 and result and not result["correct"] and result["failed"] >= 1, (
        "%s --mutate %s was not caught: exit %s, result %s" % (workload, mutation, code, result))
    print("ok   %s --mutate %s caught (%d failed of %d)"
          % (workload, mutation, result["failed"], result["attempted"]))


def main():
    for w in WORKLOADS:
        for trace in (0, 1):
            expect_pass(w, 3, trace, "--smoke")
    expect_caught("bc-rmat", "flip-score")
    expect_caught("serve-mixed", "drop-response")
    if "--full" in sys.argv[1:]:
        for w in WORKLOADS:
            for seed in (42, 7):
                expect_pass(w, seed, 0)
    print("selftest passed")


if __name__ == "__main__":
    main()
