"""Span accounting of the benchmark tracer.

    python3 -m pytest perfbench/test_spans.py
"""

import json
import sys
import types

import run
from spans import Tracer, summarize

if str(run.SRC) not in sys.path:
    sys.path.insert(0, str(run.SRC))


def _synthetic_modules(clock_state):
    """`lib.leaf` imported by name into `app`, as `from .lib import leaf`."""
    lib = types.ModuleType("lib")
    app = types.ModuleType("app")

    def leaf():
        clock_state["now"] += 5.0

    def mid():
        clock_state["now"] += 2.0
        app.leaf()

    def outer():
        clock_state["now"] += 1.0
        app.mid()
        clock_state["now"] += 1.0
        app.mid()
        clock_state["now"] += 1.0

    lib.leaf = leaf
    app.leaf, app.mid, app.outer = leaf, mid, outer
    return lib, app


def test_self_time_and_task_ids_on_nested_calls():
    state = {"now": 0.0}
    lib, app = _synthetic_modules(state)
    originals = dict(vars(app)), dict(vars(lib))
    tracer = Tracer(clock=lambda: state["now"])
    for name, attr in (("outer", "outer"), ("mid", "mid"), ("leaf", "leaf")):
        owner = lib if attr == "leaf" else app
        tracer.replace(owner, attr,
                       tracer.spanned(name, getattr(owner, attr)), [lib, app])
    assert app.leaf is lib.leaf and app.leaf is not originals[1]["leaf"]
    for task in (7, 8):
        tracer.task = task
        app.outer()
    tracer.remove()

    assert dict(vars(app)) == originals[0] and dict(vars(lib)) == originals[1]
    rows = summarize(tracer.spans)
    assert rows["outer"] == {"calls": 2, "s": 34.0, "self_s": 6.0}
    assert rows["mid"] == {"calls": 4, "s": 28.0, "self_s": 8.0}
    assert rows["leaf"] == {"calls": 4, "s": 20.0, "self_s": 20.0}
    spans = tracer.spans
    for span in spans:
        root = span
        while root.parent >= 0:
            assert spans[root.parent].task == span.task
            root = spans[root.parent]
        assert root.name == "outer"
    assert {s.task for s in spans} == {7, 8}
    assert sum(s.task == 7 for s in spans) == 5


def test_counter_and_exception_paths():
    tracer = Tracer()
    mod = types.ModuleType("m")

    def boom():
        raise ValueError("x")

    mod.boom, mod.tick = boom, (lambda: 1)
    tracer.replace(mod, "boom", tracer.spanned("boom", boom), [mod])
    tracer.replace(mod, "tick", tracer.counted("tick", mod.tick), [mod])
    for _ in range(3):
        mod.tick()
    try:
        mod.boom()
    except ValueError:
        pass
    tracer.remove()
    assert tracer.counts["tick"] == 3
    assert summarize(tracer.spans)["boom"]["calls"] == 1
    assert mod.boom is boom and mod.tick() == 1


def test_install_wraps_lookup_sites_and_remove_restores_them():
    import ietlab
    import ietlab.cli as cli

    modules = {n: dict(vars(m)) for n, m in sys.modules.items()
               if n == "ietlab" or n.startswith("ietlab.")}
    methods = {a: vars(ietlab.ReturnLadder)[a]
               for a in ("__init__", "register", "evaluate")}
    index = vars(ietlab.IetData)["interval_index"]
    tracer = Tracer()
    run.install(tracer)
    try:
        assert ietlab.cocycle.rauzy_step.__wrapped__ is \
            modules["ietlab.rauzy"]["rauzy_step"]
        assert ietlab.rauzy.rauzy_step is ietlab.cocycle.rauzy_step
        assert cli.running_sup_profile.__wrapped__ is \
            modules["ietlab.rauzy"]["running_sup_profile"]
        assert cli.main.__wrapped__ is modules["ietlab.cli"]["main"]
    finally:
        tracer.remove()
    assert {n: dict(vars(sys.modules[n])) for n in modules} == modules
    assert {a: vars(ietlab.ReturnLadder)[a] for a in methods} == methods
    assert vars(ietlab.IetData)["interval_index"] is index


def test_traced_task_reports_every_layer_metric(tmp_path):
    import ietlab.cli as cli

    tracer = Tracer()
    run.install(tracer)
    try:
        tracer.task = 5
        code = cli.main(["lyapunov", "--perm", "4,3,2,1", "--seed", "1",
                         "--steps", "300", "--out", str(tmp_path)])
    finally:
        tracer.remove()
    assert code == 0
    rows = summarize(tracer.spans)
    assert rows["cli.main"]["calls"] == 1
    assert rows["cocycle.lyapunov_spectrum"]["calls"] == 1
    assert rows["rauzy.rauzy_step"]["calls"] >= 300
    assert {s.task for s in tracer.spans} == {5}
    values = run.layer_values(tracer, 0.0)
    assert values["cocycle.induction_path.steps"] == 300
    assert values["cli.main.self_s"] > 0
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in declared["per_layer"]] == list(values)
    assert [(m["name"], m["unit"], m["better"])
            for m in declared["per_layer"]] == \
        [row[:3] for row in run.LAYER_METRICS]
