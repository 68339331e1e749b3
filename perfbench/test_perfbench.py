"""The benchmark's own tests.

    python3 -m pytest perfbench -q

Every checker must reject a corrupted output (one coefficient changed,
one term dropped), the traced run must leave the engine exactly as it
found it, and the reference kernel must keep its fixed result.
"""

import json
import os
import random
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import harness
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SEED = 5


@pytest.fixture(scope="module")
def gf():
    return harness.load_engine()


def build(gf, name, seed=SEED):
    return workloads.WORKLOADS[name](gf, random.Random("%s:%d" % (name, seed)))


def test_reference_kernel_result_is_fixed():
    assert harness.reference_kernel() == harness.REFERENCE_RESULT
    assert harness.reference_ns() > 0


def test_a_long_operation_draws_its_reference_from_its_own_length():
    stretch = harness.Stretch()
    clock = 0
    for j in range(21):
        stretch.ref_at.append(clock)
        stretch.ref_ns.append(500 if 8 <= j <= 13 else 100)
        took = 20_000_000 if j == 10 else 1_000_000
        stretch.op_at.append(clock + 200_000)
        stretch.op_ns.append(took)
        clock += took + 1_000_000
    stretch.ref_at.append(clock)
    stretch.ref_ns.append(100)
    refs = harness.local_refs(stretch)
    # a short operation: the six timings next to it
    assert refs[9] == 500 and refs[2] == 100
    # the 20 ms operation: every timing within 20 ms of it
    assert refs[10] == 100


# -- corruption ------------------------------------------------------------

def _bump(c):
    return c + 1 if c + 1 != 0 else c + 2


def _numeric(text):
    try:
        Fraction(text)
    except (TypeError, ValueError):
        return False
    return True


def _json_corrupt(node, mode):
    """Change the first numeric leaf, or drop the first list item, in
    key-sorted depth-first order.  Returns True when something changed."""
    if isinstance(node, dict):
        return any(_json_corrupt_at(node, key, mode) for key in sorted(node))
    if isinstance(node, list):
        if mode == "drop" and node:
            node.pop(0)
            return True
        return any(_json_corrupt_at(node, i, mode) for i in range(len(node)))
    return False


def _json_corrupt_at(container, key, mode):
    value = container[key]
    if mode == "change" and key != "schema":
        if isinstance(value, bool):
            container[key] = not value
            return True
        if isinstance(value, int):
            container[key] = _bump(value)
            return True
        if isinstance(value, str) and _numeric(value):
            container[key] = str(_bump(Fraction(value)))
            return True
    return _json_corrupt(value, mode)


def _corrupt_cli(out, mode):
    code, stdout, stderr = out
    if code != 0:
        return None if mode == "drop" else (code, stdout, stderr + "extra\n")
    try:
        payload = json.loads(stdout)
    except ValueError:
        payload = None
    if not isinstance(payload, dict):
        if mode == "drop":
            lines = stdout.splitlines(True)
            return (code, "".join(lines[:-1]), stderr) if len(lines) > 1 \
                else None
        for i, ch in enumerate(stdout):
            if ch.isdigit():
                return (code, stdout[:i] + str((int(ch) + 1) % 10)
                        + stdout[i + 1:], stderr)
        return None
    if not _json_corrupt(payload, mode):
        return None
    return code, json.dumps(payload, sort_keys=True, indent=2) + "\n", stderr


def corrupt(gf, out, mode):
    """The output with one coefficient changed (mode "change") or one
    term dropped (mode "drop"); None when the output has no such part."""
    t = gf.tensoralg
    if isinstance(out, bool):
        return None if mode == "drop" else not out
    if isinstance(out, (int, Fraction)):
        return None if mode == "drop" else _bump(Fraction(out))
    if isinstance(out, t.TensorSeries):
        buckets = {d: dict(b) for d, b in out._buckets.items()}
        if not buckets:
            return None if mode == "drop" else out + 1
        d = min(buckets)
        word = min(buckets[d])
        if mode == "drop":
            del buckets[d][word]
            if not buckets[d]:
                del buckets[d]
        else:
            buckets[d][word] = _bump(buckets[d][word])
        return t.TensorSeries(out.sig, out.trunc, buckets)
    if isinstance(out, gf.magnus.MagnusExpansion):
        base = out.spec.generators()[0]
        return out.with_logs({base: corrupt(gf, out.logs[base], mode)})
    if isinstance(out, tuple) and len(out) == 3 and isinstance(out[1], str):
        return _corrupt_cli(out, mode)
    if isinstance(out, (tuple, list)):
        items = list(out)
        for i, item in enumerate(items):
            if item is None and mode == "change":
                width = len(next(x for x in items if x is not None)) \
                    if any(x is not None for x in items) else 1
                items[i] = [Fraction(0)] * width
                return type(out)(items)
            bad = corrupt(gf, item, mode) if item is not None else None
            if bad is not None:
                items[i] = bad
                return type(out)(items)
        if mode == "drop" and items and all(isinstance(x, Fraction)
                                            for x in items):
            return type(out)(items[:-1])
        return None
    if isinstance(out, gf.magnus.CyclicSeries):
        terms = dict(out.terms)
        if not terms:
            if mode == "drop":
                return None
            terms[gf.magnus.NecklaceWord(("x1", "y1"))] = Fraction(1)
        else:
            key = min(terms, key=repr)
            if mode == "drop":
                del terms[key]
            else:
                terms[key] = _bump(terms[key])
        return gf.magnus.CyclicSeries(out.sig, out.trunc, terms, out.twist)
    if isinstance(out, dict):
        doc = json.loads(json.dumps(out))
        return doc if _json_corrupt(doc, mode) else None
    if hasattr(out, "terms") and isinstance(out.terms, dict):
        bad = out.copy() if hasattr(out, "copy") else type(out)(
            out.model, dict(out.terms))
        if not bad.terms:
            if mode == "drop":
                return None
            key = next(iter(_zero_probe(gf, out)))
            bad.terms[key] = Fraction(1)
            return bad
        key = min(bad.terms, key=repr)
        if mode == "drop":
            del bad.terms[key]
        else:
            bad.terms[key] = _bump(bad.terms[key])
        return bad
    raise TypeError("no corruption for %r" % type(out).__name__)


def _zero_probe(gf, out):
    """A term to add to an empty sum of the same type."""
    g, Path = gf.goldman, gf.surface.Path
    if isinstance(out, g.LoopSum):
        return [gf.surface.LoopClass(())]
    if isinstance(out, g.PathSum):
        return [Path(out.from_tag, out.to_tag)]
    if isinstance(out, g.PathPairSum):
        return [(Path(0, 1), Path(2, 2))]
    return [()]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_checkers_accept_outputs_and_reject_corruptions(gf, name):
    ops = build(gf, name)
    outs = {op: harness.call_op(op) for op in ops}
    rejected = 0
    for op in ops:
        out = outs[op]
        if op.known_fault:
            assert op.failure(out, outs), op.label
            continue
        assert op.failure(out, outs) is None, op.label
        for mode in ("change", "drop"):
            bad = corrupt(gf, out, mode)
            if bad is None:
                assert mode == "drop", (op.label, mode)
                continue
            assert op.failure(bad, {**outs, op: bad}), (op.label, mode)
            rejected += 1
    assert rejected >= len(ops)


def test_known_faults_fail_and_usage_errors_pass(gf):
    ops = build(gf, "queries")
    faults = [op for op in ops if op.known_fault]
    assert len(faults) == len(workloads.KNOWN_FAULTS) == 5
    usage = [op for op in ops if op.kind == "cli_usage" and not op.known_fault]
    assert len(usage) == len(workloads.USAGE_ERRORS)
    for op in usage:
        assert op.failure(harness.call_op(op), {}) is None, op.label


def test_round_makeup_does_not_depend_on_the_seed(gf):
    for name in workloads.WORKLOADS:
        kinds = [sorted(op.kind for op in build(gf, name, seed))
                 for seed in (1, 2)]
        assert kinds[0] == kinds[1], name
        faults = [sum(op.known_fault for op in build(gf, name, seed))
                  for seed in (1, 2)]
        assert faults[0] == faults[1], name


# -- tracing ----------------------------------------------------------------

def _bindings():
    """Every engine attribute that is a function, by (owner, name)."""
    found = {}
    for mod in tracing.Tracer._engine_modules():
        for name, value in vars(mod).items():
            if callable(value) and not isinstance(value, type(mod)):
                found[(mod.__name__, name)] = value
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for attr, member in vars(value).items():
                    if callable(member):
                        found[(value.__qualname__, attr)] = member
    return found


def test_traced_run_restores_every_patched_attribute(gf):
    before = _bindings()
    ops = [op for name in ("surgery", "queries")
           for op in build(gf, name)[:6]]
    plain = [harness.call_op(op) for op in ops]
    tracer = tracing.Tracer(gf)
    tracer.install()
    try:
        assert tracer.patches
        assert gf.goldman.ribbon_structure is not before[
            ("goldman_forge.goldman", "ribbon_structure")]
        traced = [harness.call_op(op) for op in ops]
    finally:
        tracer.remove()
    assert tracer.restored()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert traced == plain
    assert tracer.calls[[e for _, e, _ in tracing.ENTRIES].index(
        "goldman_bracket")] > 0


def test_every_entry_point_binding_is_patched(gf):
    tracer = tracing.Tracer(gf)
    tracer.install()
    try:
        patched = {(getattr(o, "__name__", None), n) for o, n, _ in
                   tracer.patches}
    finally:
        tracer.remove()
    for pair in (("goldman_forge.goldman", "ribbon_structure"),
                 ("goldman_forge.surface", "ribbon_structure"),
                 ("goldman_forge.magnus", "log"),
                 ("goldman_forge.suites", "adams_operation"),
                 ("goldman_forge.cli", "main"),
                 ("Derivation", "__call__"),
                 ("TensorSeries", "__mul__")):
        assert pair in patched, pair


# -- the command -------------------------------------------------------------

def test_benchmark_json_names_the_metrics_the_runs_print():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["per_layer"]] == \
        tracing.metric_names() + ["trace.overhead_pct"]
    assert sorted(m["name"] for m in spec["end_to_end"]) == sorted(
        ["work_ref", "op_p50_ref", "op_p90_ref", "peak_rss_mb", "setup_s"])
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(
        workloads.WORKLOADS)


def test_command_fails_without_engine_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "surgery",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
