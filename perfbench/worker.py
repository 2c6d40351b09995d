"""Runs one workload's certificates in a fresh interpreter and times them.

    python3 perfbench/worker.py PLAN RESULT SECONDS MIN_PASSES TRACE

The load is a closed loop with one client: certificates run one at a time, in
process, through `genpos.cli.main(argv)`, the entry point of the `genpos`
console script (cyclic-n bases go through the library call
`genpos.buchberger`, as no subcommand computes a bare Groebner basis). The
whole batch runs in passes until SECONDS would be exceeded, at least
MIN_PASSES times. With TRACE 1 the passes alternate untraced / traced, and
the spans of the traced passes are written beside RESULT when the run ends.
Every pass must write the same certificate bytes as the first.
"""

import json
import os
import resource
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
REFERENCE_REPEATS = 2


def _load_genpos():
    sys.path.insert(0, SRC)
    import genpos
    import genpos.cli  # noqa: F401  (the entry point under test)
    import genpos.serialize  # noqa: F401
    if not os.path.abspath(genpos.__file__).startswith(SRC + os.sep):
        raise SystemExit("genpos was imported from %s, not from %s"
                         % (genpos.__file__, SRC))
    return genpos


def _run_library(genpos, inst):
    with open(inst["input"], encoding="utf-8") as fh:
        obj = json.load(fh)
    spec = obj["field"]
    field = genpos.QQ if spec == "Q" else genpos.PrimeField(spec["p"])
    gens = [genpos.parse_polynomial(s, obj["vars"], field) for s in obj["gens"]]
    basis = genpos.buchberger(gens)
    with open(inst["out"], "w", encoding="utf-8") as fh:
        fh.write(genpos.serialize.canonical_json(
            {"basis": [g.text() for g in basis]}))
    return 0


class _Residue:
    __slots__ = ("v",)

    def __init__(self, v):
        self.v = v

    def __mul__(self, other):
        return _Residue(self.v * other.v % 2147483647)

    def __add__(self, other):
        return _Residue((self.v + other.v) % 2147483647)


_REF_POLY = {(i, j, 6 - i - j): _Residue(7 * i + j + 1)
             for i in range(7) for j in range(7 - i)}
_REF_FRACTIONS = [Fraction(i + 1, j + 2) for i in range(6) for j in range(6)]


def reference_kernel():
    """Fixed pure-Python work in genpos's style (a sparse product over dicts
    of exponent tuples with slotted residues, then Fraction sums), timed
    between certificates to measure how fast the machine runs right now."""
    t0 = time.perf_counter()
    for _ in range(REFERENCE_REPEATS):
        out = {}
        for m1, c1 in _REF_POLY.items():
            for m2, c2 in _REF_POLY.items():
                m = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2])
                s = out.get(m)
                out[m] = c1 * c2 if s is None else s + c1 * c2
        acc = Fraction(0)
        for f in _REF_FRACTIONS:
            acc += f * f - f
    return time.perf_counter() - t0


def _read(path):
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        return None


def run_pass(genpos, plan, tracer, first):
    """Time every certificate once, with the reference kernel timed before
    the first and after each one; returns (seconds, reference seconds, exit
    codes, changed)."""
    times, refs, codes, changed = [], [reference_kernel()], [], []
    for i, inst in enumerate(plan):
        if tracer is not None:
            tracer.instance = i
        if os.path.exists(inst["out"]):
            os.remove(inst["out"])
        t0 = time.perf_counter()
        try:
            if "library" in inst:
                code = _run_library(genpos, inst)
            else:
                code = genpos.cli.main(inst["argv"] + ["--json-out", inst["out"]])
        except Exception as exc:  # a traceback is a failed certificate
            code = "%s: %s" % (type(exc).__name__, exc)
        times.append(time.perf_counter() - t0)
        refs.append(reference_kernel())
        codes.append(code)
        data = _read(inst["out"])
        if first[i] is None:
            first[i] = data
        changed.append(data != first[i])
    return times, refs, codes, changed


def main(argv):
    plan_path, result_path, seconds, min_passes, trace = argv
    seconds, min_passes, trace = float(seconds), int(min_passes), trace == "1"
    genpos = _load_genpos()
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    tracer = None
    if trace:
        import spans
        tracer = spans.Tracer()

    first = [None] * len(plan)
    passes = []
    start = time.perf_counter()
    saved = sys.stdout, sys.stderr
    with open(os.devnull, "w") as devnull:
        while True:
            traced = trace and len(passes) % 2 == 1
            if traced:
                tracer.install()
            sys.stdout = sys.stderr = devnull
            try:
                t0 = time.perf_counter()
                times, refs, codes, changed = run_pass(
                    genpos, plan, tracer if traced else None, first)
                wall = time.perf_counter() - t0
            finally:
                sys.stdout, sys.stderr = saved
                if traced:
                    tracer.uninstall()
            passes.append({"traced": traced, "wall": wall, "times": times,
                           "refs": refs, "codes": codes, "changed": changed})
            untraced = sum(1 for p in passes if not p["traced"])
            enough = (len(passes) >= 2 if trace else untraced >= min_passes)
            next_traced = trace and len(passes) % 2 == 1
            like = [p["wall"] for p in passes if p["traced"] == next_traced]
            predicted = like[-1] if like else 2 * wall
            if enough and time.perf_counter() - start + predicted > seconds:
                break

    result = {
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "genpos_file": os.path.abspath(genpos.__file__),
    }
    if tracer is not None:
        result["trace_file"] = os.path.splitext(result_path)[0] + ".trace.json"
        tracer.dump(result["trace_file"])
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
