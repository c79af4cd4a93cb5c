"""Pinned audit entries of the three engines on the paper's ladders.

Each engine runs under the ``ladder`` fixture (no width-capped terminal)
on one fixed instance.  The pins hold the number of entries of each kind,
the violation count and the first entry of each kind: its hard flag, its
ok flag and the numbers it recorded (μ before the step and of each child,
η for Max 2-CSP, n for #DS), rounded to 9 places.  They guard the audit
bookkeeping itself: a change that moves them changes what the audit
measures, not only how.
"""

from collections import Counter

from smc.csp_solve import solve
from smc.domset import LabeledGraph, count_ds
from smc.generators import csp_on_graph, gen_random_cubic
from smc.measures import Audit
from smc.setcover import ds_to_sc, sc_count

CSP_KINDS = {"branch": 15, "drag-R": 81, "leaf": 32, "reduce0": 32, "reduceI": 32,
             "reduceII": 170, "reseparate": 17, "stall": 16}
# (kind, hard, ok, μ before, μ of the children, η before, η of the children)
CSP_FIRST = [
    ("branch", True, True, 14.415654198, (12.799132177, 12.799132177), 118, (109, 109)),
    ("drag-R", True, True, 15.014654198, (14.415654198,), 119, (118,)),
    ("leaf", True, True, 0.2, (), 0, ()),
    ("reduce0", True, True, 0.2, (0.2,), 2, (0,)),
    ("reduceI", True, True, 0.2, (0.2,), 6, (2,)),
    ("reduceII", True, True, 12.799132177, (12.799132177,), 109, (105,)),
    ("reseparate", False, False, 14.229654198, (15.014654198,), 120, (119,)),
    ("stall", False, True, 4.906827099, (0.2, 0.2), 20, (12, 12)),
]

DS_KINDS = {"branch": 202, "dp": 852, "split": 447}
# (kind, hard, ok, n)
DS_FIRST = [
    ("branch", True, True, 6),
    ("dp", True, True, 4),
    ("split", True, True, 5),
]

SC_KINDS = {"annotate": 913, "branch-elt": 44, "branch-set": 14, "branch3-elt": 7,
            "branch3-set": 1, "dp": 9, "drag-L": 1, "drag-R": 62, "drag-path-R": 5,
            "handover": 41, "leaf": 181, "reseparate": 50, "split": 73, "stall-elt": 41,
            "stall-set": 1}
# (kind, hard, ok, balance held, μ before, μ of the children, note)
SC_FIRST = [
    ("annotate", True, True, True, 6.4258, (6.38628,), "v=18"),
    ("branch-elt", True, True, True, 8.96064, (8.50468, 6.71624), "e=0"),
    ("branch-set", True, True, True, 2.021, (1.27316, 0.22732), "s=30"),
    ("branch3-elt", True, True, True, 283.100871604, (282.164966604, 281.105566604), "e=11"),
    ("branch3-set", True, True, True, 283.550893174, (282.532233174, 282.385758174), "s=22"),
    ("dp", True, True, True, 102.715178926, (), ""),
    ("drag-L", True, True, True, 340.997880759, (340.321795759,), ""),
    ("drag-R", True, True, True, 241.256544669, (240.576654669,), ""),
    ("drag-path-R", True, True, True, 263.080756245, (262.400866245,), ""),
    ("handover", False, False, True, 2.5288, (212.665227979,), "mu3=212.665228 mu4=2.528800"),
    ("leaf", True, True, True, 1.36014, (), ""),
    ("reseparate", False, False, True, None, (), "arg 2.424800 -> 3.244640"),
    ("split", False, False, True, 1.43655, (1.36014, 1.43655), "2 parts"),
    ("stall-elt", False, True, True, 101.127898703, (1.855535, 1.43655), "e=12"),
    ("stall-set", False, True, True, 182.262978984, (90.093992744, 17.885465323), "s=19"),
]


def _mu(e):
    """(μ before, μ of the children), rounded to 9 places."""
    before, after = e.numbers.get("mu", (None, ()))
    return (None if before is None else round(before, 9)), tuple(round(m, 9) for m in after)


def _firsts(entries, row):
    first = {}
    for e in entries:
        first.setdefault(e.kind, row(e))
    return [first[k] for k in sorted(first)]


def test_csp_pins(ladder):
    audit = Audit()
    solve(csp_on_graph(gen_random_cubic(24, 0), 2, 0), audit=audit)
    assert Counter(e.kind for e in audit.entries) == CSP_KINDS
    assert len(audit.violations) == 0
    assert _firsts(audit.entries, lambda e: (
        e.kind, e.hard, e.ok, *_mu(e), *e.numbers["eta"])) == CSP_FIRST


def test_count_ds_pins(ladder):
    audit = Audit()
    count_ds(LabeledGraph.all_u(gen_random_cubic(18, 0)), audit=audit)
    assert Counter(e.kind for e in audit.entries) == DS_KINDS
    assert len(audit.violations) == 0
    assert _firsts(audit.entries, lambda e: (e.kind, e.hard, e.ok, e.numbers["n"])) == DS_FIRST


def test_sc_count_pins(ladder):
    audit = Audit()
    sc_count(ds_to_sc(gen_random_cubic(16, 0)), audit=audit)
    assert Counter(e.kind for e in audit.entries) == SC_KINDS
    assert len(audit.violations) == 0
    assert sum(not e.ok for e in audit.entries) == 147
    balance = [e.checks.get("balance", True) for e in audit.entries]
    assert balance.count(False) == 22
    assert _firsts(audit.entries, lambda e: (
        e.kind, e.hard, e.ok, e.checks.get("balance", True), *_mu(e), e.note)) == SC_FIRST
