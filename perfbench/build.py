"""Build file of the k-core benchmark.

Compiles the program's sources (src/main/scala) together with the
benchmark's own sources (perfbench/src) with the Scala compiler that ships
in the Spark distribution's jars, into .bench_build/classes of the checkout.
A build is skipped when a stamp over every input file matches the last one.

    python3 perfbench/build.py        # from the root of a checkout
"""
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def _spark_home():
    """$SPARK_HOME, or the first Spark distribution (bin/spark-submit next to
    jars/) found on PATH."""
    if os.environ.get("SPARK_HOME"):
        return os.environ["SPARK_HOME"]
    for d in os.environ.get("PATH", "").split(os.pathsep):
        home = os.path.dirname(os.path.realpath(d))
        if os.path.isfile(os.path.join(d, "spark-submit")) and os.path.isdir(os.path.join(home, "jars")):
            return home
    return ""


SPARK_JARS = os.path.join(_spark_home(), "jars")
BUILD_DIR = ".bench_build"
PROGRAM_SRC = os.path.join("src", "main", "scala")


class BuildError(Exception):
    pass


def jvm_env(root):
    """Environment for a JVM that keeps its temporary files in the checkout."""
    tmp = os.path.join(root, BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env["SPARK_LOCAL_IP"] = "127.0.0.1"
    env["TMPDIR"] = tmp
    return env


def scala_sources(root):
    files = []
    for base in (os.path.join(root, PROGRAM_SRC), os.path.join(HERE, "src")):
        for d, _, names in os.walk(base):
            files += [os.path.join(d, f) for f in names if f.endswith(".scala")]
    return sorted(files)


def stamp(root, files):
    h = hashlib.sha256()
    for f in files + [os.path.abspath(__file__)]:
        h.update(os.path.relpath(f, root).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()[:16]


def ensure_built(root):
    """Compile if needed; returns (classes directory, build id)."""
    if not os.path.isdir(os.path.join(root, PROGRAM_SRC, "repro")):
        raise BuildError(f"no program sources under {PROGRAM_SRC}: run from the root of a checkout")
    if not os.path.isdir(SPARK_JARS):
        raise BuildError("Spark jars not found: set SPARK_HOME or put spark-submit on PATH")
    files = scala_sources(root)
    build_id = stamp(root, files)
    classes = os.path.join(root, BUILD_DIR, "classes")
    stamp_file = os.path.join(classes, ".stamp")
    if os.path.exists(stamp_file) and open(stamp_file).read() == build_id:
        return classes, build_id
    staging = classes + ".staging"
    shutil.rmtree(staging, ignore_errors=True)
    os.makedirs(staging)
    tmp = os.path.join(root, BUILD_DIR, "tmp")
    cmd = ["java", "-Xss8m", "-Xmx2g", "-XX:-UsePerfData", f"-Djava.io.tmpdir={tmp}",
           "-cp", os.path.join(SPARK_JARS, "*"), "scala.tools.nsc.Main",
           "-usejavacp", "-nowarn", "-d", staging] + files
    print(f"[build] compiling {len(files)} Scala files", file=sys.stderr, flush=True)
    res = subprocess.run(cmd, env=jvm_env(root), stdout=sys.stderr)
    if res.returncode != 0:
        raise BuildError(f"scalac failed with exit code {res.returncode}")
    with open(os.path.join(staging, ".stamp"), "w") as fh:
        fh.write(build_id)
    shutil.rmtree(classes, ignore_errors=True)
    os.rename(staging, classes)
    return classes, build_id


if __name__ == "__main__":
    try:
        print(ensure_built(os.getcwd())[0])
    except BuildError as e:
        print(f"[build] {e}", file=sys.stderr)
        sys.exit(2)
