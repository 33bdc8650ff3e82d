"""Table II — production/consumption patterns of the pool.

Regenerates both halves of the paper's Table II from the tracer's
access profiles and checks the qualitative structure that drives every
other result:

* CG is the only near-linear producer (low first-element fraction);
* every other code produces late (>60 %, mostly >95 %);
* BT has significant independent work before consuming (~14 %),
  Sweep3D/SPECFEM3D need their data immediately.
"""

import pytest

from repro.core.patterns import iter_profiles
from repro.experiments.tables import (
    PAPER_CONSUMPTION,
    PAPER_PRODUCTION,
    pattern_row,
)

from conftest import POOL, get_experiment, print_block


@pytest.mark.parametrize("app", POOL)
def test_table2_pattern_row(benchmark, app):
    exp = get_experiment(app)
    row = benchmark.pedantic(pattern_row, args=(exp,), rounds=1, iterations=1)

    p, c = row.production, row.consumption
    pp, pc = PAPER_PRODUCTION[app], PAPER_CONSUMPTION[app]
    print_block(f"Table II — {app}", [
        f"production  1st/quarter/half/whole (measured): "
        f"{p.first_element:6.4f} {p.quarter:6.4f} {p.half:6.4f} {p.whole:6.4f}",
        f"production  1st/quarter/half/whole (paper)   : "
        f"{pp.first_element:6.4f} {pp.quarter:6.4f} {pp.half:6.4f} {pp.whole:6.4f}",
        f"consumption nothing/quarter/half   (measured): "
        f"{c.nothing:6.4f} {c.quarter:6.4f} {c.half:6.4f}",
        f"consumption nothing/quarter/half   (paper)   : "
        f"{pc.nothing:6.4f} {pc.quarter:6.4f} {pc.half:6.4f}",
    ])

    if app == "cg":
        assert p.first_element < 0.15, "CG must be a near-linear producer"
        assert p.quarter < 0.45
    else:
        assert p.first_element > 0.60, f"{app} must produce late"
    if app == "bt":
        assert c.nothing > 0.02, "BT has independent work before consuming"
    if app in ("sweep3d", "specfem3d"):
        assert c.nothing < 0.02, f"{app} consumes immediately"


def test_table2_orderings_across_pool(benchmark):
    """Cross-application structure of the table, in one view."""
    def collect():
        return {app: pattern_row(get_experiment(app)) for app in POOL}

    rows = benchmark.pedantic(collect, rounds=1, iterations=1)
    first = {a: rows[a].production.first_element for a in POOL}
    assert min(first, key=first.get) == "cg"
    nothing = {a: rows[a].consumption.nothing for a in POOL}
    assert nothing["bt"] == max(nothing.values())
    print_block("Table II — cross-pool orderings", [
        f"earliest producer : cg ({first['cg']:.4f})",
        f"most independent work before consumption: bt ({nothing['bt']:.4f})",
    ])


@pytest.mark.parametrize("app", POOL)
def test_profiles_resident_once(app):
    """The original holds one array per distinct access profile: every
    rank of a skeleton records the same profiles, and they share."""
    trace = get_experiment(app).trace("original")
    times = [p.times for kind in ("production", "consumption")
             for _, _, p in iter_profiles(trace, kind, min_elements=0)]
    arrays = {id(t): t for t in times}
    resident = sum(t.nbytes for t in arrays.values())
    distinct = {t.tobytes(): t.nbytes for t in arrays.values()}
    referenced = sum(t.nbytes for t in times)
    print_block(f"Access profiles — {app}", [
        f"profiles {len(times)}, arrays {len(arrays)}, "
        f"distinct contents {len(distinct)}",
        f"referenced {referenced / 2**20:8.2f} MiB, "
        f"resident {resident / 2**20:8.2f} MiB",
    ])
    assert resident == sum(distinct.values())
    assert all(not t.flags.writeable for t in arrays.values())
