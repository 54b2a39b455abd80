#!/usr/bin/env python3
"""Build and run the compile-time and time-to-verdict benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload spec-proxies --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50   # every workload

It builds perfbench/main.exe from source with dune (into _build/ of the
current directory, with dune's shared cache off so nothing is written
elsewhere), runs it with the same arguments, and passes its output through.
The last line of standard output is the JSON result. Any failure -- not a
repository checkout, build error, crash, timeout, or a run that ends
without a result line -- exits non-zero without printing a result.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175
WORKLOADS = ("spec-proxies", "large-procedure")


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def run_group(argv, timeout, **kw):
    """Run argv in its own process group; kill the whole group on timeout
    and wait for it, so no process outlives the benchmark."""
    proc = subprocess.Popen(argv, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"{argv[0]} timed out after {timeout} s", 3)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(need):
            fail(f"{need} not found: run from the root of a repository checkout")
    dune = shutil.which("dune")
    if dune is None:
        fail("dune not found on PATH")

    env = dict(os.environ, DUNE_CACHE="disabled")
    code, _ = run_group(
        [dune, "build", "--root", ".", "./perfbench/main.exe"],
        BUILD_TIMEOUT_S,
        env=env,
        stdout=sys.stderr,
    )
    if code != 0:
        fail(f"build failed (dune exit {code})", 4)

    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        run_workload(workload, args)


def run_workload(workload, args):
    exe = os.path.join("_build", "default", "perfbench", "main.exe")
    code, out = run_group(
        [
            exe,
            "--workload", workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ],
        RUN_TIMEOUT_S,
        stdout=subprocess.PIPE,
        text=True,
    )
    if code != 0:
        sys.stderr.write(out)
        fail(f"benchmark exited with {code}", code)
    try:
        result = json.loads(out.rstrip("\n").split("\n")[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, AssertionError):
        sys.stderr.write(out)
        fail("no result line", 5)
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
