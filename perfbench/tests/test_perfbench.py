#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 perfbench/tests/test_perfbench.py

1. Builds perfbench/ and runs the oracle mutation self-test
   (perfbench_selftest): the oracle must accept true results and reject a
   flipped label, an out-of-range label, an off-by-one cut and a served
   response that differs from its offline twin.
2. Runs every workload at tiny scale, with tracing off and on, and checks
   that the last stdout line is the result JSON, that it reports exactly the
   metrics BENCHMARK.json declares, each with its declared unit, that the
   oracle passed, and that every end-to-end metric is non-zero.  The traced
   run must also leave a Chrome trace with spans.
3. Copies only BENCHMARK.json and perfbench/ into an empty directory and
   checks that the benchmark exits non-zero there without printing a result.

Exits 0 when every check passes.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
import run  # noqa: E402  (perfbench/run.py)

failures = []


def expect(ok, what):
    print("%s %s" % ("PASS" if ok else "FAIL", what), flush=True)
    if not ok:
        failures.append(what)


def last_json(stdout):
    lines = [l for l in stdout.splitlines() if l.strip()]
    try:
        return json.loads(lines[-1]) if lines else None
    except ValueError:
        return None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    out_dir = run.build_dir()
    run.build(out_dir)
    scratch = os.path.join(out_dir, "selftest")
    os.makedirs(scratch, exist_ok=True)

    st = subprocess.run([os.path.join(out_dir, "perfbench_selftest"), scratch],
                        capture_output=True, text=True, timeout=120)
    sys.stdout.write(st.stdout)
    expect(st.returncode == 0, "oracle mutation self-test")

    workloads = [w["name"] for w in spec["workloads"]]
    expect(sorted(workloads) == sorted(run.WORKLOADS), "BENCHMARK.json names run.py's workloads")
    for trace, decl in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        units = {m["name"]: m["unit"] for m in decl}
        for w in workloads:
            cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", w, "--seed", "7",
                   "--seconds", "1", "--trace", str(trace), "--scale", "0.05"]
            p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
            res = last_json(p.stdout)
            tag = "%s trace=%d" % (w, trace)
            expect(p.returncode == 0, tag + " exits 0")
            if res is None:
                expect(False, tag + " prints a JSON result last")
                continue
            expect(sorted(res) == ["attempted", "correct", "failed", "metrics"], tag + " result keys")
            expect(res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1,
                   tag + " oracle passes")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            expect(got == units, tag + " reports every declared metric with its unit")
            for name in units:
                expect(("%s = " % name) in p.stdout, tag + " prints " + name)
            if trace == 0:
                expect(all(v["value"] != 0 for v in res["metrics"].values()),
                       tag + " end-to-end metrics are non-zero")
            else:
                path = os.path.join(out_dir, "traces", "%s-seed7.json" % w)
                try:
                    with open(path) as f:
                        events = json.load(f)["traceEvents"]
                except (OSError, ValueError, KeyError):
                    events = []
                expect(any(e.get("ph") == "X" for e in events), tag + " writes a Chrome trace")

    bare = os.path.join(out_dir, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(BENCH, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workloads[0], "--seed",
                        "1", "--seconds", "1", "--trace", "0"], cwd=bare, env=env,
                       capture_output=True, text=True, timeout=180)
    expect(p.returncode != 0 and last_json(p.stdout) is None,
           "without the library sources it fails without a result")
    shutil.rmtree(bare, ignore_errors=True)

    print("%s: %d failure(s)" % ("OK" if not failures else "FAILED", len(failures)))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
