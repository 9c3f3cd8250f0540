"""Tests of the span arithmetic and of the wrapper installation.

    python3 -m pytest bench/test_tracing.py
"""

import os
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracing import Tracer, aggregate, self_times  # noqa: E402

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def span(parent, start, end, op=0, case=""):
    return (parent, op, case, start, end, 0, 0)


def test_self_time_of_nested_spans():
    spans = [
        span(-1, 0.0, 10.0),   # 0: root
        span(0, 1.0, 3.0),     # 1: child
        span(1, 1.5, 2.5),     # 2: grandchild, covered by 1 only
        span(0, 4.0, 6.0),     # 3: child
        span(0, 8.0, 10.0),    # 4: child reaching the root's end
    ]
    assert self_times(spans) == pytest.approx([10.0 - 2.0 - 2.0 - 2.0, 1.0, 1.0, 2.0, 2.0])


def test_self_time_counts_overlap_and_overhang_once():
    spans = [
        span(-1, 0.0, 10.0),
        span(0, 1.0, 4.0),
        span(0, 3.0, 5.0),     # overlaps the previous child by 1
        span(0, 2.0, 3.5),     # inside the union already
        span(0, 9.0, 12.0),    # overhangs the parent: only [9, 10] counts
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 4.0 - 1.0)


def test_self_times_sum_to_root_duration_when_children_nest():
    spans = [span(-1, 0.0, 8.0), span(0, 1.0, 5.0), span(1, 2.0, 3.0), span(2, 2.25, 2.5),
             span(0, 6.0, 7.0)]
    assert sum(self_times(spans)) == pytest.approx(8.0)


def test_aggregate_groups_by_op_and_case_and_tags_resampling():
    tracer = Tracer("t")
    root = tracer.op_index("cli", "qi-check")
    sod = tracer.op_index("sampler", "sod_sample")
    rec = tracer.op_index("sampler", "reconstruct")
    tracer.spans[:] = [
        (-1, root, "c", 0.0, 10.0, 0, 0),
        (0, sod, "c", 1.0, 2.0, 5, 12),
        (0, rec, "c", 2.0, 3.0, 5, 6),
        (0, sod, "c", 3.0, 5.0, 5, 6),    # samples the reconstruction
        (0, sod, "c", 6.0, 7.0, 3, 12),
    ]
    rows = {(r["op"], r["case"]): r for r in aggregate(tracer)}
    assert rows[("sod_sample", "c")]["calls"] == 2
    assert rows[("sod_sample", "c")]["events"] == 8
    assert rows[("sod_sample", "c")]["segments"] == 24
    assert rows[("sod_sample", "c.resample")]["self_s"] == pytest.approx(2.0)
    assert rows[("qi-check", "c")]["self_s"] == pytest.approx(10.0 - 5.0)


INSTALL_PROBE = """
import sys
sys.path[:0] = [{src!r}, {bench!r}]
from tracing import Tracer
import sodlab.analysis, sodlab.sampler, sodlab.norms
t = Tracer("probe")
t.install()
f = sodlab.signals.random_walk(1.0, 3, 12, 0.4)
g = sodlab.signals.random_walk(1.0, 4, 12, 0.4)
sodlab.analysis.qi_verify([(f, g)], 0.1, "D")
ops = {{t.ops[s[1]][1] for s in t.spans}}
for name in ("sod_sample", "reconstruct", "difference", "subtract", "diameter_norm",
             "discrepancy_norm", "EventSequence.validate", "Signal.validate",
             "qi_verify"):
    assert name in ops, name
print("ok")
"""


def test_install_traces_from_imported_aliases_and_norm_closures():
    bench = os.path.dirname(os.path.abspath(__file__))
    out = subprocess.run([sys.executable, "-c", INSTALL_PROBE.format(src=SRC, bench=bench)],
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ok"
