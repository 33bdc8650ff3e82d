"""The overlap transformation and CPython's cyclic garbage collector.

Both transforms pause the collector while they build the new trace and
hand the caller's setting back on every exit (``repro.gcpause``).  The
pause is safe only because a transform leaves no reference cycle
behind: once it returns, reference counting has freed everything it
dropped, so a collection finds nothing.
"""

import gc

import pytest

from repro.core import transform as transform_module
from repro.core.ideal import ideal_transform
from repro.core.transform import overlap_transform
from repro.dimemas.machine import PAPER_BUSES
from repro.experiments.pipeline import AppExperiment

APPS = tuple(PAPER_BUSES)
TRANSFORMS = {"real": overlap_transform, "ideal": ideal_transform}


@pytest.fixture
def restore_gc():
    """Put the collector back as the test found it."""
    was_enabled = gc.isenabled()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.mark.parametrize("app", APPS)
def test_transforms_leave_no_cyclic_garbage(restore_gc, app):
    original = AppExperiment(app, nranks=8).trace("original")
    gc.collect()
    gc.disable()
    found = {}
    for name, transform in TRANSFORMS.items():
        new, stats = transform(original)
        assert stats.messages_transformed > 0
        del new, stats
        found[name] = gc.collect()
    assert found == dict.fromkeys(TRANSFORMS, 0)


@pytest.mark.parametrize("outcome", ["returns", "raises"])
@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
@pytest.mark.parametrize("variant", sorted(TRANSFORMS))
def test_collector_paused_then_restored(restore_gc, monkeypatch,
                                        pipeline_trace, variant, enabled,
                                        outcome):
    seen = []
    rebuild = transform_module._rebuild

    def probe(proc, edits):
        seen.append(gc.isenabled())
        return rebuild(proc, edits)

    monkeypatch.setattr(transform_module, "_rebuild", probe)
    transform = TRANSFORMS[variant]
    (gc.enable if enabled else gc.disable)()
    if outcome == "returns":
        transform(pipeline_trace)
        assert seen and not any(seen)
    else:
        # Already chunked: a transform refuses it.
        chunked, _ = overlap_transform(pipeline_trace)
        with pytest.raises(ValueError, match="already contains chunked"):
            transform(chunked)
    assert gc.isenabled() is enabled
