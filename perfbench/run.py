#!/usr/bin/env python3
"""Run one benchmark workload against the program in this checkout.

    python3 perfbench/run.py --workload hhi --seed 1 --seconds 10 --trace 0

Run from the root of the checkout. The first run builds the program and the
benchmark driver from source with sbt (offline) into .bench_build/; later
runs reuse that build while the sources are unchanged. The benchmark JVM
prints one JSON record per metric and, as its last line, the result object.
"""
import argparse
import hashlib
import os
import signal
import subprocess
import sys

ROOT = os.getcwd()
BENCH = os.path.join(ROOT, "perfbench")
SCRATCH = os.path.join(ROOT, ".bench_build")
CLASSPATH = os.path.join(SCRATCH, "classpath.txt")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 800


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def run_child(cmd, timeout, **kw):
    """Run cmd in its own process group and return (returncode, stdout).

    Returns None on timeout. On timeout or any exception (including
    SIGTERM, see main) the whole group is killed and waited for.
    """
    proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            text=True, encoding="utf-8", start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
        return proc.returncode, out
    except subprocess.TimeoutExpired:
        return None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


def source_files():
    """Every file the build reads from this checkout, in a stable order."""
    files = []
    for top in (os.path.join(ROOT, "src", "main"), BENCH):
        for d, dirs, names in os.walk(top):
            dirs[:] = sorted(x for x in dirs if x not in ("target", "project") or d != BENCH)
            files += [os.path.join(d, n) for n in sorted(names) if not n.endswith(".pyc")]
    return files + [os.path.join(BENCH, "project", "build.properties")]


def digest():
    h = hashlib.sha256()
    for f in source_files():
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def build(stamp):
    """Compile with sbt and record the runtime classpath, unless up to date."""
    if os.path.exists(CLASSPATH):
        with open(CLASSPATH) as fh:
            saved, cp = fh.read().split("\n")[:2]
        if saved == stamp:
            return cp
    env = dict(os.environ, COURSIER_MODE="offline")
    env["SBT_OPTS"] = " ".join([
        env.get("SBT_OPTS", ""), "-Dsbt.offline=true", "-Dsbt.server.forcestart=false",
        "-Xmx2g"]).strip()
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "export Runtime/fullClasspath"]
    res = run_child(cmd, BUILD_TIMEOUT_S, cwd=BENCH, env=env, stderr=subprocess.STDOUT)
    if res is None:
        die("build timed out")
    code, out = res
    lines = [ln for ln in out.splitlines() if ln.strip()]
    if code != 0 or not lines or ".jar" not in lines[-1]:
        sys.stderr.write(out[-8000:])
        die("build failed")
    cp = lines[-1].strip()
    with open(CLASSPATH, "w") as fh:
        fh.write(stamp + "\n" + cp + "\n")
    return cp


def commit():
    try:
        # The ceiling keeps git from reporting an enclosing repository.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        res = run_child(["git", "rev-parse", "HEAD"], 10, cwd=ROOT, env=env,
                        stderr=subprocess.DEVNULL)
    except OSError:
        return "unknown"
    return res[1].strip() if res and res[0] == 0 else "unknown"


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    a = p.parse_args()
    # Turn SIGTERM into an exception, so run_child stops its processes.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(ROOT, "BENCHMARK.json")):
        die("run from the root of the checkout (no BENCHMARK.json here)")
    if not os.path.isdir(os.path.join(ROOT, "src", "main", "scala")):
        die("no program sources (src/main/scala) in this checkout")
    os.makedirs(os.path.join(SCRATCH, "tmp"), exist_ok=True)

    stamp = digest()
    cp = build(stamp)
    with open(os.path.join(BENCH, "jvm.options")) as fh:
        jvm = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
    cmd = ["java", *jvm,
           f"-Djava.io.tmpdir={os.path.join(SCRATCH, 'tmp')}",
           f"-Dperfbench.scratch={SCRATCH}",
           f"-Dperfbench.commit={commit()}",
           f"-Dperfbench.digest={stamp}",
           "-cp", cp, "repro.perfbench.Main",
           "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace)]
    res = run_child(cmd, RUN_TIMEOUT_S, cwd=ROOT)
    if res is None:
        die(f"run exceeded {RUN_TIMEOUT_S} s")
    code, out = res
    lines = out.splitlines()
    if code != 0 or not lines or not lines[-1].startswith('{"correct"'):
        sys.stdout.write("\n".join(lines[:-1]) + "\n" if lines else "")
        die(f"benchmark JVM exited with {code} without a result")
    print(out, end="" if out.endswith("\n") else "\n", flush=True)


if __name__ == "__main__":
    main()
