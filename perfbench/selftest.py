#!/usr/bin/env python3
"""Self-test of the layer-by-layer benchmark.

    python3 perfbench/selftest.py

Builds the benchmark like run.py does, then at a tiny trace scale:
  - runs every workload untraced and traced, with every check, and
    verifies the result line against BENCHMARK.json;
  - checks that fig-suite gives identical results at one worker and
    at its own worker count;
  - checks that the seed reaches the records and nothing else varies;
  - checks that a corrupted archive and a wrong expected count are
    reported as failed operations;
  - checks that run.py fails cleanly in a directory holding only the
    benchmark, without the library sources.
Exits 0 when everything holds, 1 otherwise.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402

TINY = ["--scale", "0.01", "--seconds", "0.01"]
failures = []


def expect(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def bench(binary, out_dir, *args):
    proc = subprocess.run([binary, "--out-dir", out_dir] + TINY + list(args),
                          capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, lines, proc.stderr
    return json.loads(lines[-1]), lines, proc.stderr


def digest(lines):
    return [l for l in lines if l.startswith("# digest ")]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}

    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binary = run.build(os.path.abspath(os.path.join(base, "perfbench")))
    out_dir = os.path.abspath(os.path.join(base, "perfbench-selftest"))

    for w in spec["workloads"]:
        name = w["name"]
        for trace, names in ((0, end_to_end), (1, per_layer)):
            res, lines, err = bench(binary, out_dir, "--workload", name,
                                    "--seed", "3", "--trace", str(trace))
            label = "%s --trace %d" % (name, trace)
            if res is None:
                expect(False, label + " ran: " + err.strip())
                continue
            expect(res["correct"] and res["failed"] == 0
                   and res["attempted"] >= 1, label + " checks held")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            expect(got == names, label + " reports exactly its metrics")
            if trace == 0:
                expect(all(v["value"] > 0 for v in res["metrics"].values()),
                       label + " end-to-end metrics are nonzero")
                expect(len(digest(lines)) >= 8, label + " prints a digest")
            else:
                trace_json = os.path.join(out_dir,
                                          "perfbench-%s.trace.json" % name)
                with open(trace_json) as f:
                    events = json.load(f)["traceEvents"]
                expect(len(events) > 0, label + " wrote a Perfetto trace")

    one, l1, _ = bench(binary, out_dir, "--workload", "fig-suite",
                       "--seed", "3", "--trace", "0", "--workers", "1")
    many, ln, _ = bench(binary, out_dir, "--workload", "fig-suite",
                        "--seed", "3", "--trace", "0")
    expect(one is not None and many is not None
           and digest(l1) == digest(ln)
           and one["metrics"]["mpki"] == many["metrics"]["mpki"],
           "fig-suite: 1 worker and the default workers agree")

    _, a, _ = bench(binary, out_dir, "--workload", "bf-delayed",
                    "--seed", "5", "--trace", "0")
    _, b, _ = bench(binary, out_dir, "--workload", "bf-delayed",
                    "--seed", "5", "--trace", "0")
    _, c, _ = bench(binary, out_dir, "--workload", "bf-delayed",
                    "--seed", "6", "--trace", "0")
    expect(digest(a) == digest(b), "same seed, same digest")
    expect(digest(a) != digest(c), "another seed, other records")

    res, _, _ = bench(binary, out_dir, "--workload", "tage-archive",
                      "--seed", "3", "--trace", "0",
                      "--inject", "corrupt-archive")
    # One corrupted v2 archive: its two predictors fail in every round
    # of 4 traces x 2 formats x 2 predictors.
    expect(res is not None and res["correct"]
           and res["failed"] * 8 == res["attempted"],
           "a corrupted archive fails exactly its operations")

    res, _, _ = bench(binary, out_dir, "--workload", "bf-immediate",
                      "--seed", "3", "--trace", "0",
                      "--inject", "wrong-count")
    expect(res is not None and not res["correct"] and res["failed"] > 0,
           "a wrong expected count is a failed, incorrect operation")

    bare = tempfile.mkdtemp(dir=os.path.abspath(base))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload",
             "bf-immediate", "--seed", "1", "--seconds", "1", "--trace",
             "0"], cwd=bare, capture_output=True, text=True, timeout=180,
            env=dict(os.environ, CARGO_TARGET_DIR=".bench_build"))
        expect(proc.returncode != 0 and proc.stdout.strip() == "",
               "without the library sources run.py fails with no result")
    finally:
        shutil.rmtree(bare)

    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
