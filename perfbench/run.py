#!/usr/bin/env python3
"""Build and run the Gaea end-to-end benchmark.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload study|catalog|revise \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selfcheck

The first form builds perfbench/gaeabench.exe with dune (into
.bench_build, or the relative directory named by CARGO_TARGET_DIR) and
runs it; its last stdout line is the result object.  The second runs
every workload at a tiny size and checks the benchmark itself: that it
emits every metric BENCHMARK.json names, with its unit, that its output
checker flags deliberately wrong answers, and that it refuses a domain
pool larger than nproc.  See perfbench/README.md.
"""

import json
import os
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
EXE = os.path.join("default", "perfbench", "gaeabench.exe")


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def run(cmd, timeout, env=None, capture=True):
    """Run cmd in its own process group; on timeout kill the whole group
    and wait for it.  Returns (exit code, stdout text)."""
    proc = subprocess.Popen(
        cmd,
        stdout=subprocess.PIPE if capture else sys.stderr,
        stderr=sys.stderr,
        env=env,
        start_new_session=True,
        text=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("%s timed out after %d s" % (cmd[0], timeout), 1)
    return proc.returncode, out or ""


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR", "")
    if not d or os.path.isabs(d) or ".." in d.split(os.sep):
        d = ".bench_build"
    return d


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the root of a Gaea checkout (no dune-project or lib/ here)")
    env = dict(os.environ, DUNE_CACHE="disabled")
    code, _ = run(
        ["dune", "build", "--root", ".", "--build-dir", build_dir(),
         "./perfbench/gaeabench.exe"],
        BUILD_TIMEOUT_S, env=env, capture=False)
    if code != 0:
        fail("build failed", 1)
    return os.path.join(build_dir(), EXE)


def host_args():
    args = ["--nproc", str(len(os.sched_getaffinity(0)))]
    if os.path.isdir(".git"):
        code, out = run(["git", "rev-parse", "HEAD"], 30)
        if code == 0 and out.strip():
            args += ["--git-commit", out.strip()]
    return args


def result_of(out):
    lines = out.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def selfcheck(exe):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    expected = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    tiny = ["--size", "tiny", "--seconds", "1", "--seed", "7"] + host_args()
    for w in spec["workloads"]:
        for trace in ("0", "1"):
            code, out = run([exe, "--workload", w["name"], "--trace", trace] + tiny,
                            RUN_TIMEOUT_S)
            r = result_of(out) if code == 0 else None
            tag = "%s --trace %s" % (w["name"], trace)
            if r is None:
                problems.append("%s: exit %d, no result" % (tag, code))
                continue
            if set(r) != {"correct", "attempted", "failed", "metrics"}:
                problems.append("%s: result keys %s" % (tag, sorted(r)))
            if not r.get("correct"):
                problems.append("%s: correct is false" % tag)
            got = r.get("metrics", {})
            for name, unit in expected[trace].items():
                m = got.get(name)
                if m is None:
                    problems.append("%s: metric %s missing" % (tag, name))
                elif m.get("unit") != unit or not isinstance(m.get("value"), (int, float)):
                    problems.append("%s: metric %s = %s" % (tag, name, m))
            for name in set(got) - set(expected[trace]):
                problems.append("%s: metric %s not in BENCHMARK.json" % (tag, name))
    # the output checker must flag an injected wrong answer
    for inject, prefix in (("select-drop-row", "select."),
                           ("derive-dup-oid", "derive.duplicate_oid")):
        code, out = run([exe, "--workload", "study", "--trace", "0",
                         "--inject", inject] + tiny, RUN_TIMEOUT_S)
        lines = out.strip().splitlines()
        if code != 0 or len(lines) < 2:
            problems.append("inject %s: exit %d" % (inject, code))
            continue
        report, r = json.loads(lines[-2]), json.loads(lines[-1])
        flagged = [t for t in report["failure_reasons"] if t.startswith(prefix)]
        if r["correct"] or r["failed"] == 0 or not flagged:
            problems.append("inject %s: not flagged (%s)" % (inject, report["failure_reasons"]))
    # a pool larger than nproc is refused, without a result
    nproc = len(os.sched_getaffinity(0))
    if nproc < 8:
        env = dict(os.environ, GAEA_DOMAINS=str(nproc + 1))
        code, out = run([exe, "--workload", "study", "--trace", "0"] + tiny,
                        RUN_TIMEOUT_S, env=env)
        if code == 0 or out.strip():
            problems.append("pool of %d lanes on %d cpus was not refused" % (nproc + 1, nproc))
    for p in problems:
        print("selfcheck: " + p, file=sys.stderr)
    print("selfcheck %s" % ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    argv = sys.argv[1:]
    if argv == ["--selfcheck"]:
        sys.exit(selfcheck(build()))
    if "--workload" not in argv:
        fail(__doc__.strip())
    exe = build()
    code, out = run([exe] + argv + host_args(), RUN_TIMEOUT_S)
    sys.stdout.write(out)
    sys.stdout.flush()
    sys.exit(code)


if __name__ == "__main__":
    main()
