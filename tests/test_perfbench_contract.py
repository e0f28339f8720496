"""The traced benchmark rebinds every (module, name) pair listed in
perfbench/spans.py:TRACED by looking it up on gencusp.<module>; a name
removed or renamed in the library would crash every traced run.  Its
`battery` workload also re-wraps each `verify.CHECKS[k]["fn"]` to time it,
so those entries keep their fields and call signature."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TRACED


def test_traced_names_resolve():
    traced = _traced()
    assert traced
    missing = [
        "%s.%s" % (mod, name)
        for mod, name in traced
        if not callable(getattr(importlib.import_module("gencusp." + mod), name, None))
    ]
    assert missing == []


def test_battery_check_entries_keep_their_contract():
    from gencusp.verify import CHECKS, _rng_for

    names = [c["name"] for c in CHECKS]
    assert len(names) == len(set(names))
    for c in CHECKS:
        assert set(c) == {"name", "anchor", "threshold", "detection", "fn"}
        residual, count = c["fn"](_rng_for(0, c["name"]), 2, (3,))
        assert isinstance(residual, float) and isinstance(count, int), c["name"]


def test_forward_workload_runs_and_checks(monkeypatch):
    # the claimed benchmark workload, one operation at its full size: a
    # library change that breaks it fails here, not only in the benchmark
    perfbench = SPANS.parent
    monkeypatch.syspath_prepend(str(perfbench))  # workloads.py does `import inputs`
    spec = importlib.util.spec_from_file_location("perfbench_workloads", perfbench / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    forward = workloads.Forward(0, str(perfbench.parent))
    forward.setup()
    forward.prepare(0)
    verdicts = forward.check(0, forward.op(0))
    assert verdicts and all(v is True for v in verdicts), verdicts
