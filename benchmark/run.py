#!/usr/bin/env python3
"""Builds and runs the workspace benchmark; prints one JSON result line last.

Usage, from the repository root:

    python3 benchmark/run.py --workload <city-day|fig5-campaign|serve-crash>
                             --seed N --seconds S --trace <0|1> [--tiny]

The Rust package in this directory is built from source (release,
offline) into $CARGO_TARGET_DIR, or `.bench_build/` when that is unset.
The benchmark process runs with CH_JOBS and CH_WORKER_CAP removed from its
environment (worker width is passed explicitly) and with MALLOC_ARENA_MAX
pinned to that width (2): with glibc's default of one arena per thread, the
peak RSS of the same run varied by 20 % with thread timing. Its peak
resident memory, read from the kernel's accounting of the finished child,
is added to the `--trace 0` result as `rss_peak_mb`; it is therefore the
peak under two glibc arenas, not under the allocator's default. The
serve-crash stream is generated from the seed first, by a separate
`--prepare` process, so that the generator's memory is not part of that
peak.

`--binary PATH` skips the build and runs an already built benchmark
executable (the package's own tests use it).
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def build():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    done = subprocess.run(cmd, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        sys.exit(f"run.py: building the benchmark failed ({done.returncode})")
    return Path(env["CARGO_TARGET_DIR"]) / "release" / "ch-benchmark"


def main(argv):
    binary = None
    if "--binary" in argv:
        i = argv.index("--binary")
        binary = Path(argv[i + 1])
        argv = argv[:i] + argv[i + 2:]
    if binary is None:
        binary = build()
    traced = "--trace" in argv and argv[argv.index("--trace") + 1] == "1"

    env = {k: v for k, v in os.environ.items() if k not in ("CH_JOBS", "CH_WORKER_CAP")}
    env["MALLOC_ARENA_MAX"] = "2"
    inputs = Path(".bench_tmp") / f"inputs-{os.getpid()}"
    try:
        if "serve-crash" in argv:
            # Its stream is generated from the seed by a process of its own,
            # so the generator's memory stays out of the measured peak RSS.
            prepared = subprocess.run([str(binary)] + argv + ["--prepare", "--inputs", str(inputs)],
                                      env=env, stdout=sys.stderr)
            if prepared.returncode != 0:
                sys.exit(f"run.py: preparing inputs failed ({prepared.returncode})")
            argv = argv + ["--inputs", str(inputs)]
        child = subprocess.Popen([str(binary)] + argv,
                                 env=env, stdout=subprocess.PIPE, text=True)
        output = child.stdout.read()
        child.stdout.close()
        # wait4 reaps this child alone and returns its own resource usage.
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
        try:
            inputs.parent.rmdir()
        except OSError:
            pass
    lines = output.splitlines()
    if child.returncode != 0 or not lines:
        sys.stdout.write(output)
        sys.exit(f"run.py: benchmark exited with {child.returncode}")

    result = json.loads(lines[-1])
    if not traced:
        # ru_maxrss is in KiB on Linux.
        result["metrics"]["rss_peak_mb"] = {"value": usage.ru_maxrss / 1024.0, "unit": "MB"}
    for line in lines[:-1]:
        print(line)
    if not traced:
        print(f"{'rss_peak_mb':<32} {usage.ru_maxrss / 1024.0:>18.6f} MB")
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
