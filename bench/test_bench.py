"""Tests of the benchmark itself: python -m pytest bench -q"""

from __future__ import annotations

import dataclasses
import json
import os
import signal
import sys
import time
import types

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import hostspeed  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_nested_calls():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def inner():
        clock.now += 2.0

    def outer():
        clock.now += 1.0
        inner()
        clock.now += 0.5
        inner()
        clock.now += 0.25

    inner = tracer.timed("inner", inner)
    outer = tracer.timed("outer", outer)
    outer()
    assert tracer.calls == {"outer": 1, "inner": 2}
    assert tracer.self_s["inner"] == 4.0
    assert tracer.self_s["outer"] == 1.75
    # spans: (id, parent, name, start, end); both inner spans hang off outer
    by_name = {}
    for span_id, parent, name, start, end in tracer.spans:
        by_name.setdefault(name, []).append((span_id, parent, start, end))
    (outer_id, outer_parent, start, end), = by_name["outer"]
    assert outer_parent == -1 and (start, end) == (0.0, 5.75)
    assert [p for _, p, _, _ in by_name["inner"]] == [outer_id, outer_id]


def test_self_time_survives_exceptions_and_recursion():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def down(n):
        clock.now += 1.0
        if n:
            down(n - 1)
        else:
            raise ValueError("bottom")

    down = tracer.timed("down", down)
    try:
        down(2)
    except ValueError:
        pass
    assert tracer.calls["down"] == 3
    assert tracer.self_s["down"] == 3.0
    assert not tracer._stack


def test_reference_seconds_weights_wall_time_by_kernel_speed(monkeypatch):
    monkeypatch.setattr(hostspeed, "SMOOTH", 1)
    ref = hostspeed.REF_KERNEL_S
    probe = hostspeed.HostSpeedProbe()
    # kernel at reference speed, then twice as slow, then reference again
    probe.samples = [(0.0, ref), (1.0, 2 * ref), (2.0, ref)]
    expected = (1.0 - ref) + (1.0 - 2 * ref) / 2 + (3.0 - 2.0 - ref)
    assert abs(probe.reference_seconds(0.0, 3.0) - expected) < 1e-12
    # before the first sample the first factor applies
    assert abs(probe.reference_seconds(-1.0, 0.0) - 1.0) < 1e-12
    assert probe.reference_seconds(2.5, 2.5) == 0.0
    assert probe.slowdown() == 1.0


def test_probe_samples_while_running_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    probe = hostspeed.HostSpeedProbe(interval=0.02)
    probe.start()
    end = time.monotonic() + 0.2
    while time.monotonic() < end:
        pass
    probe.stop()
    assert len(probe.samples) >= 5
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def _toy_package():
    pkg = types.ModuleType("toypkg")
    mod_a = types.ModuleType("toypkg.a")
    mod_b = types.ModuleType("toypkg.b")

    def f(x):
        return x + 1

    class Num:
        __module__ = "toypkg.a"

        def __init__(self, v):
            self.v = v

        def __add__(self, other):
            return Num(self.v + other.v)

        __radd__ = __add__

    mod_a.f, mod_a.Num = f, Num
    mod_b.f = f                    # as bound by "from .a import f"
    mod_b.Num = Num
    return {"toypkg": pkg, "toypkg.a": mod_a, "toypkg.b": mod_b}


def test_wrappers_rebind_every_alias_and_restore(monkeypatch):
    mods = _toy_package()
    for name, mod in mods.items():
        monkeypatch.setitem(sys.modules, name, mod)
    a, b = mods["toypkg.a"], mods["toypkg.b"]
    f, num_add = a.f, a.Num.__add__
    tracer = Tracer()
    tracer.install([("a.f", f, "timed", None),
                    ("a.Num.add", num_add, "counted", None)],
                   package="toypkg")
    assert a.f is b.f and a.f is not f
    assert vars(a.Num)["__add__"] is vars(a.Num)["__radd__"] is not num_add
    assert b.f(1) == 2 and a.f(2) == 3
    assert (a.Num(1) + a.Num(2)).v == 3
    assert tracer.calls == {"a.f": 2, "a.Num.add": 1}
    tracer.restore()
    assert a.f is f and b.f is f
    assert vars(a.Num)["__add__"] is num_add
    assert vars(a.Num)["__radd__"] is num_add


def _bindings(package="drinfeldlab"):
    out = {}
    for mod_name, mod in sys.modules.items():
        if mod is None or not mod_name.startswith(package):
            continue
        owners = [mod] + [v for v in vars(mod).values()
                          if isinstance(v, type) and v.__module__ == mod_name]
        for owner in owners:
            for attr, value in vars(owner).items():
                if callable(value):
                    out[(id(owner), attr)] = value
    return out


def test_drinfeldlab_bindings_restored():
    before = _bindings()
    tracer = Tracer()
    tracer.install(layers.targets())
    from drinfeldlab import drinfeld, places
    assert drinfeld.factor_bipoly is places.factor_bipoly
    assert hasattr(drinfeld.factor_bipoly, "__wrapped__")
    tracer.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_window_oracle_on_a_tiny_instance():
    """The brute-force window equals a hand count and the pipeline's sweep."""
    class Tiny(workloads.GenericSweep):
        ENUM_DEG = 0

    tiny = Tiny(workloads.DEFAULT_SEED)
    theta = workloads.theta_poly([0, 1])
    expected = workloads.keys((theta * a, theta * b)
                              for a in range(3) for b in range(3))
    assert workloads.keys(tiny.window()) == expected

    tiny.ENUM_DEG = 1
    tiny._window = None
    window = tiny.window()
    assert len(set(workloads.keys(window))) == 3 ** 4
    label = "x^2-c*y"
    report = workloads.ex.generic_char_experiment(
        tiny.gamma, tiny.varieties[label], enum_deg=1)
    f = tiny.equations[label][1]
    assert workloads.keys(report.k_side) == workloads.keys(
        w for w in window if f(*w).is_zero())
    # x^2 = theta*y inside the window: (0,0), (theta,theta), (2theta,theta)
    assert workloads.keys(report.k_side) == [
        "(0, 0)", "(2*theta, theta)", "(theta, theta)"]


def test_gate_rejects_a_wrong_k_side():
    sweep = workloads.GenericSweep(workloads.DEFAULT_SEED)
    sweep.ENUM_DEG = 1           # small window; the 4 points lie inside it
    label = "4-points"
    report = workloads.ex.generic_char_experiment(sweep.gamma,
                                                  sweep.varieties[label])
    assert sweep.problems(label, report) == []
    bad = dataclasses.replace(report, k_side=report.k_side[:-1])
    assert sweep.problems(label, bad)


def test_uniformity_gate_checks_counts_and_monotonicity():
    probe = workloads.UniformitySweep.__new__(workloads.UniformitySweep)
    probe.translates = [(workloads.theta_poly([0]),)]
    probe.box = [(workloads.theta_poly(d),) for d in ([0], [0, 1], [1, 1])]
    probe.roots = {"cubic": [workloads.theta_poly([0]),
                             workloads.theta_poly([0, 1])]}
    good = types.SimpleNamespace(rows=((0, 0, 2), (0, 1, 1), (0, 2, 1),
                                       (0, 3, 0)))
    assert probe.problems("cubic", good) == []
    wrong_count = types.SimpleNamespace(rows=((0, 0, 3), (0, 1, 1),
                                              (0, 2, 1), (0, 3, 0)))
    assert probe.problems("cubic", wrong_count)
    rising = types.SimpleNamespace(rows=((0, 0, 2), (0, 1, 1), (0, 2, 2),
                                         (0, 3, 0)))
    assert probe.problems("cubic", rising)


def test_seeds_fix_the_inputs():
    a = workloads.UniformitySweep(7)
    b = workloads.UniformitySweep(7)
    c = workloads.UniformitySweep(8)
    assert str(a.varieties["quartic"].poly) == str(b.varieties["quartic"].poly)
    assert str(a.varieties["quartic"].poly) != str(c.varieties["quartic"].poly)


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    assert names == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "run_s", "peak_rss_mb"}
    specs = layers.metric_specs()
    assert {m["name"]: (m["unit"], m["better"])
            for m in spec["per_layer"]} == specs
    reference = workloads.load_reference()
    assert list(reference) == names


def test_doc_gives_each_workload_a_rationale():
    with open(os.path.join(BENCH, "README.md"), encoding="utf-8") as fh:
        doc = fh.read()
    for name in run.WORKLOAD_NAMES:
        section = doc.split(f"### `{name}`", 1)
        assert len(section) == 2, name
        assert "Why:" in section[1].split("###", 1)[0], name
    for metric in layers.metric_specs():
        prefix = metric.rsplit(".", 1)[0]
        assert prefix in doc, metric
