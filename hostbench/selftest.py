#!/usr/bin/env python3
"""Fast self-test of the host-time benchmark.

    python3 hostbench/run.py --selftest      # builds first, then runs this

Checks, against the built binary:
  1. every metric BENCHMARK.json names is printed, with its unit, by every
     workload it lists, in both the untimed-trace and the traced mode, and
     the oracle passes on the pinned seeds 1 and 2;
  2. a wrong pinned oracle value is caught (--skew-oracle shifts every pin
     by one: the run must fail, print the mismatch and exit non-zero);
  3. bad arguments exit 2 with usage and print no result.
Exits 0 when all checks pass, 1 otherwise.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_BINARY = os.path.join(ROOT, ".bench_build", "hostbench", "hostbench")

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(binary, args):
    p = subprocess.run([binary] + args, cwd=ROOT, capture_output=True,
                       text=True, timeout=170)
    result = None
    lines = p.stdout.strip().splitlines()
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return p, result


def main(argv):
    binary = argv[0] if argv else DEFAULT_BINARY
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }

    # 1. Every named metric, with its unit; the oracle passes on seeds 1, 2.
    for w in spec["workloads"]:
        name = w["name"]
        for seed in ("1", "2"):
            for trace in ("0", "1"):
                p, res = run(binary, ["--workload", name, "--seed", seed,
                                      "--seconds", "1", "--trace", trace])
                tag = "%s seed %s trace %s" % (name, seed, trace)
                check(p.returncode == 0 and res is not None and
                      res.get("correct") is True and res.get("failed") == 0 and
                      res.get("attempted", 0) >= 1, tag + ": oracle passes")
                if res is None:
                    continue
                check(sorted(res) == ["attempted", "correct", "failed",
                                      "metrics"], tag + ": result keys")
                got = {k: v.get("unit") for k, v in res["metrics"].items()}
                check(got == expected[trace],
                      tag + ": metrics and units match BENCHMARK.json")
                lines = p.stdout.splitlines()
                check(all(any(l.startswith("metric: %s " % m) for l in lines)
                          for m in expected[trace]),
                      tag + ": every metric printed by name")

    # 2. A wrong pinned value is caught, on both oracle kinds.
    for name in ("pingpong", "loadmix"):
        p, res = run(binary, ["--workload", name, "--seed", "1", "--seconds",
                              "1", "--trace", "0", "--skew-oracle"])
        check(p.returncode != 0 and res is not None and
              res.get("correct") is False and res.get("failed", 0) > 0 and
              "MISMATCH" in p.stdout,
              name + ": a skewed pinned oracle value is reported")

    # 3. Bad arguments exit 2 with usage, printing no result.
    good = ["--workload", "pingpong", "--seed", "1", "--seconds", "1",
            "--trace", "0"]
    bad_cases = {
        "unknown workload": ["--workload", "nope"] + good[2:],
        "non-numeric seed": good[:2] + ["--seed", "x1"] + good[4:],
        "negative seed": good[:2] + ["--seed", "-3"] + good[4:],
        "zero seconds": good[:4] + ["--seconds", "0"] + good[6:],
        "negative seconds": good[:4] + ["--seconds", "-5"] + good[6:],
        "non-numeric seconds": good[:4] + ["--seconds", "ten"] + good[6:],
        "bad trace": good[:6] + ["--trace", "2"],
        "missing workload": good[2:],
        "missing value": good[:-1],
        "unknown flag": good + ["--fast"],
    }
    for what, args in bad_cases.items():
        p, res = run(binary, args)
        check(p.returncode == 2 and res is None and "usage:" in p.stderr,
              "bad arguments (%s) exit 2 with usage" % what)

    print("selftest: %d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
