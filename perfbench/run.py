"""k-core decomposition benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload grid-deep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. Builds the program and the benchmark from
source (see build.py), then runs repro.bench.KCoreBench in one driver JVM on
local[nproc]. Everything the JVM prints goes to stderr except the result: one
JSON object, the last line of stdout. See README.md for the metrics.
"""
import argparse
import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import build  # noqa: E402

WORKLOADS = ("grid-deep", "social-hubs")
# The JVM must finish well inside the 180 s a run may take.
JVM_TIMEOUT_S = 170
# A fixed heap, touched before main: page faults on fresh memory then fall
# in the JVM's start, not in the timed decompositions.
JVM_HEAP = "2g"

# The JVM module options Spark's launcher normally adds on JDK 17+.
ADD_OPENS = [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in (
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
    "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
    "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
    "sun.util.calendar")] + ["-Djdk.reflect.useDirectMethodHandle=false"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    try:
        classes, build_id = build.ensure_built(root)
    except build.BuildError as e:
        print(f"[perfbench] {e}", file=sys.stderr)
        return 2

    out_dir = os.path.join(root, build.BUILD_DIR)
    tmp = os.path.join(out_dir, "tmp")
    log4j = os.path.join(os.path.dirname(os.path.abspath(__file__)), "log4j2.properties")
    cmd = (["java", f"-Xms{JVM_HEAP}", f"-Xmx{JVM_HEAP}", "-XX:+AlwaysPreTouch", "-XX:-UsePerfData", f"-Djava.io.tmpdir={tmp}",
            f"-Dlog4j.configurationFile={log4j}"] + ADD_OPENS +
           ["-cp", os.pathsep.join([classes, os.path.join(build.SPARK_JARS, "*")]),
            "repro.bench.KCoreBench",
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--out", out_dir, "--build-id", build_id])
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=build.jvm_env(root), text=True)
    try:
        out, _ = proc.communicate(timeout=JVM_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"[perfbench] benchmark JVM exceeded {JVM_TIMEOUT_S} s; killed", file=sys.stderr)
        return 3
    lines = out.rstrip("\n").split("\n")
    sys.stderr.write("\n".join(lines[:-1]) + "\n")
    if proc.returncode != 0:
        print(f"[perfbench] benchmark JVM exited with {proc.returncode}", file=sys.stderr)
        return proc.returncode
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print("[perfbench] malformed result line", file=sys.stderr)
        return 4
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
