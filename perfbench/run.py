"""genpos benchmark: seeded certificate workloads, timed end to end.

    python3 perfbench/run.py --workload {points,ideals,germs} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout. The benchmark writes the workload's seeded
JSON inputs under .perfbench_work/, measures set-up time with fresh
interpreters, runs the batch in a fresh worker process (perfbench/worker.py)
for S seconds, checks every certificate with the answer oracle
(perfbench/oracle.py), and prints a report. The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones; with --trace 1 they are the
per-layer ones, read from the span file of the traced passes.

    python3 perfbench/run.py --record-answers

re-records the answers of the seed-independent instances (shipped fixtures,
cyclic-n, monomial models) into perfbench/answers.json.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import oracle
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
ANSWERS = os.path.join(HERE, "answers.json")

SETUP_RUNS = 9          # fresh interpreters per set-up measurement
MIN_PASSES = 3          # untraced passes over the batch, at least
TAIL_BEYOND = 10        # samples above the reported tail percentile
REFERENCE_S = 0.002     # reference kernel time that rescaled times assume
REFERENCE_WINDOW = 3    # reference runs on each side of a certificate
SETUP_REFERENCE_S = 0.05  # reference import time that setup_s assumes
DEADLINE_S = 170        # the whole run, worker included, ends before this


def git_revision():
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        with open(os.path.join(git, ref), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        pass
    try:
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (%s)" % ref


def source_digest():
    """sha256 over the genpos sources, so runs outside git still name the code."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "genpos")
    for dirpath, dirnames, filenames in os.walk(pkg):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith((".py", ".json")):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, pkg).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


# Fresh-interpreter set-up: time `import genpos.cli`, then a fixed batch of
# standard-library imports that neither genpos nor the interpreter's start
# load. Import time is cold-start work that follows the host's speed swings
# differently from the reference kernel, so set-up is rescaled by this
# import batch instead: setup_s = genpos import time x SETUP_REFERENCE_S /
# reference import time.
SETUP_CODE = """
import time
t0 = time.perf_counter()
import genpos.cli
t1 = time.perf_counter()
import unittest, tarfile, xml.dom.minidom, http.client, email.message, pydoc
print(t1 - t0, time.perf_counter() - t1)
"""


def measure_setup():
    """Median over fresh interpreters of the time `import genpos.cli` takes,
    rescaled by the reference import batch run right after it; and the
    unscaled median. The interpreter's own start is left out, as genpos
    cannot change it. One untimed start first leaves the bytecode caches
    warm."""
    samples = []
    for i in range(SETUP_RUNS + 1):
        out = subprocess.run([sys.executable, "-c", SETUP_CODE], env=_env(),
                             cwd=ROOT, check=True, timeout=60,
                             capture_output=True, text=True).stdout.split()
        if i:
            samples.append((float(out[0]), float(out[1])))
    return (statistics.median(t * SETUP_REFERENCE_S / ref
                              for t, ref in samples),
            statistics.median(t for t, _ in samples))


def run_worker(workdir, instances, seconds, min_passes, trace, deadline):
    plan_path = os.path.join(workdir, "plan.json")
    result_path = os.path.join(workdir, "worker.json")
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump(instances, fh)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), plan_path,
           result_path, str(seconds), str(min_passes), str(int(trace))]
    proc = subprocess.run(cmd, env=_env(), cwd=ROOT, capture_output=True,
                          text=True, timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit("error: worker exited with %d" % proc.returncode)
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def load_certs(instances):
    certs = {}
    for inst in instances:
        try:
            with open(inst["out"], encoding="utf-8") as fh:
                certs[inst["id"]] = json.load(fh)
        except (OSError, ValueError):
            certs[inst["id"]] = None
    return certs


def load_answers():
    with open(ANSWERS, encoding="utf-8") as fh:
        return json.load(fh)


def output_digest(instances):
    """One sha256 over every certificate's bytes, in instance order."""
    h = hashlib.sha256()
    for inst in instances:
        h.update(inst["id"].encode() + b"\0")
        try:
            with open(inst["out"], "rb") as fh:
                h.update(fh.read())
        except OSError:
            h.update(b"<missing>")
        h.update(b"\0")
    return h.hexdigest()


def instance_problems(i, inst, certs, passes, recorded):
    code = passes[0]["codes"][i]
    found = oracle.check(inst, certs[inst["id"]], code, recorded,
                         certs.get(inst["twin"]))
    for p in passes:
        if p["codes"][i] != code:
            found.append("exit code changed between passes")
        if p["changed"][i]:
            found.append("certificate bytes changed between passes")
    return sorted(set(found))


def judge(instances, certs, passes, recorded):
    """Oracle problems per instance, and the failed calls over all passes."""
    problems = {}
    for i, inst in enumerate(instances):
        found = instance_problems(i, inst, certs, passes, recorded)
        if found:
            problems[inst["id"]] = found
    return problems, len(passes) * len(problems)


def self_check(instances, certs, passes, recorded, problems):
    """Damage each accepted certificate; each must then be judged failed."""
    damaged = caught = 0
    for i, inst in enumerate(instances):
        if inst["id"] in problems:
            continue
        bad = dict(certs)
        bad[inst["id"]] = oracle.corrupt(inst, certs[inst["id"]])
        damaged += 1
        caught += bool(instance_problems(i, inst, bad, passes, recorded))
    return caught, damaged


def normalized_times(p):
    """A pass's certificate times rescaled to a machine whose reference kernel
    takes REFERENCE_S: each time is divided by the median of the reference
    runs around it (REFERENCE_WINDOW before and after). A shared cloud VM
    changes speed by up to 1.6x for tens of seconds at a time; the rescaled
    times do not, while genpos's own speed shows in full, as the kernel calls
    no genpos code."""
    refs = p["refs"]
    return [t * REFERENCE_S / statistics.median(
                refs[max(0, i + 1 - REFERENCE_WINDOW):i + 1 + REFERENCE_WINDOW])
            for i, t in enumerate(p["times"])]


def per_certificate(passes):
    """Each certificate's median over the passes of its rescaled time."""
    norm = [normalized_times(p) for p in passes]
    return [statistics.median(ts) for ts in zip(*norm)]


def end_to_end(instances, passes, result, setup_s, attempted, failed):
    untraced = [p for p in passes if not p["traced"]]
    n = len(instances)
    per_inst = sorted(per_certificate(untraced))
    tail_index = n - 1 - TAIL_BEYOND
    tail = {"percentile": round(100.0 * (tail_index + 1) / n, 2),
            "samples": n, "beyond": TAIL_BEYOND}
    metrics = {
        "setup_s": (setup_s, "s"),
        "certs_per_s": (n / sum(per_inst), "1/s"),
        "cert_p50_ms": (1000 * statistics.median(per_inst), "ms"),
        "cert_tail_ms": (1000 * per_inst[tail_index], "ms"),
        "ok_frac": ((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    return metrics, tail


def wall_clock(instances, passes):
    """The same figures from raw wall times, reported beside the metrics."""
    untraced = [p for p in passes if not p["traced"]]
    per_inst = sorted(statistics.median(ts) for ts in
                      zip(*(p["times"] for p in untraced)))
    refs = [r for p in untraced for r in p["refs"]]
    return {"certs_per_s": len(per_inst) / sum(per_inst),
            "cert_p50_ms": 1000 * statistics.median(per_inst),
            "cert_tail_ms": 1000 * per_inst[len(per_inst) - 1 - TAIL_BEYOND],
            "reference_kernel_ms": 1000 * statistics.median(refs)}


def per_layer(instances, passes, result):
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    n = len(instances)
    agg = spans.self_times(result["trace_file"])
    metrics = spans.layer_metrics(agg, len(traced))
    cps = statistics.median(n / sum(normalized_times(p)) for p in untraced)
    cps_traced = statistics.median(n / sum(normalized_times(p))
                                   for p in traced)
    metrics["trace_overhead_frac"] = ((cps - cps_traced) / cps, "ratio")
    self_total = sum(v[1] for v in agg.values()) / 1e9
    wall = sum(sum(p["times"]) for p in traced)
    metrics["trace.accounted_frac"] = (self_total / wall, "ratio")
    return metrics


def run(args):
    deadline = time.monotonic() + DEADLINE_S
    workdir = os.path.join(WORK, "%s-s%d-t%d" % (args.workload, args.seed,
                                                 args.trace))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    instances = workloads.build(args.workload, args.seed, workdir, SRC)
    setup_s, setup_wall_s = (None, None) if args.trace else measure_setup()
    result = run_worker(workdir, instances, args.seconds, MIN_PASSES,
                        args.trace, deadline)
    passes = result["passes"]
    recorded = load_answers().get(args.workload, {})
    certs = load_certs(instances)
    problems, failed = judge(instances, certs, passes, recorded)
    caught, damaged = self_check(instances, certs, passes, recorded,
                                 problems)
    attempted = len(instances) * len(passes)

    context = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "git_revision": git_revision(), "source_sha256": source_digest(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "instances": len(instances),
        "passes": {"untraced": sum(1 for p in passes if not p["traced"]),
                   "traced": sum(1 for p in passes if p["traced"])},
        "output_digest": output_digest(instances),
        "wall_clock": dict(wall_clock(instances, passes),
                           setup_s=setup_wall_s),
        "self_check": {"damaged": damaged, "rejected": caught},
    }
    if args.trace:
        metrics = per_layer(instances, passes, result)
        accounted = metrics["trace.accounted_frac"][0]
        context["trace_accounts_for_wall"] = 0.95 <= accounted <= 1.0
    else:
        metrics, context["cert_tail"] = end_to_end(
            instances, passes, result, setup_s, attempted, failed)
    correct = (not problems and caught == damaged
               and context.get("trace_accounts_for_wall", True))

    times = per_certificate([p for p in passes if not p["traced"]])
    tagged = {inst["tag"]: {"id": inst["id"], "ms": 1000 * times[i]}
              for i, inst in enumerate(instances) if inst["tag"]}
    record = {"context": context, "problems": problems, "roadmap_rows": tagged,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    with open(os.path.join(workdir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    for key in ("workload", "seed", "trace", "git_revision", "source_sha256",
                "python", "nproc", "instances", "passes", "output_digest",
                "self_check", "cert_tail", "wall_clock",
                "trace_accounts_for_wall"):
        if key in context:
            print("%-24s %s" % (key, json.dumps(context[key], sort_keys=True)))
    for row, info in sorted(tagged.items()):
        print("roadmap %-48s %-22s %10.1f ms" % (row, info["id"], info["ms"]))
    print("failed_frac              %d / %d = %.4f"
          % (failed, attempted, failed / attempted))
    for iid, found in sorted(problems.items()):
        print("FAILED %s: %s" % (iid, "; ".join(found)))
    for name, (value, unit) in metrics.items():
        print("%-50s %14.6g %s" % (name, value, unit))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": record["metrics"]}))
    return 0


def record_answers():
    """Re-record the answers of the seed-independent instances."""
    answers = {}
    for workload in workloads.WORKLOADS:
        workdir = os.path.join(WORK, "record-" + workload)
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        instances = workloads.build(workload, 0, workdir, SRC)
        result = run_worker(workdir, instances, 0, 1, False,
                            time.monotonic() + 600)
        certs = load_certs(instances)
        answers[workload] = {
            inst["id"]: {"exit": result["passes"][0]["codes"][i],
                         "sha256": oracle.answer_digest(certs[inst["id"]])}
            for i, inst in enumerate(instances)
            if inst["expect"].get("recorded")}
    with open(ANSWERS, "w", encoding="utf-8") as fh:
        json.dump(answers, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-answers", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "genpos", "cli.py")):
        print("error: no genpos sources at %s; run from the root of a genpos "
              "checkout" % SRC, file=sys.stderr)
        return 2
    if args.record_answers:
        return record_answers()
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
