"""Output checks for the simulated results the perfbench program prints.

Each result line carries a cell's counters plus what the checks need to
know about its design point. `violations` tests the properties every
cell of the model must have; `mismatches` tests that two paths to the
same cell (the harness, the journal, lsqd, a warm resubmit, the traced
core) agree with the cell run alone through Simulator::run.
"""

# Counters under squash.* that are totals, not per-reason counts.
SQUASH_TOTALS = ("squash.total", "squash.instructions")


def violations(result):
    """Names of the properties `result` breaks; empty when it holds all."""
    c = result["counters"]

    def g(name):
        return c.get(name, 0)

    bad = []
    reasons = sum(v for k, v in c.items()
                  if k.startswith("squash.") and k not in SQUASH_TOTALS)
    if g("squash.total") != reasons:
        bad.append("squash.total != sum of per-reason squash counters")
    if g("l1d.hits") + g("l1d.misses") != (
            g("loads.issued") - g("loads.forwarded") +
            g("core.committed.stores")):
        bad.append("l1d accesses != loads.issued - loads.forwarded + "
                   "core.committed.stores")
    if g("l2.hits") + g("l2.misses") < g("l1d.misses"):
        bad.append("l2 accesses < l1d.misses")
    if g("loads.forwarded") != g("sq.searches.matched"):
        bad.append("loads.forwarded != sq.searches.matched")
    if not g("sq.searches.matched") <= g("sq.searches") <= g("loads.issued"):
        bad.append("not sq.searches.matched <= sq.searches <= loads.issued")
    if result["sq_policy"] == "always" and \
            g("sq.searches") != g("loads.issued"):
        bad.append("sq.searches != loads.issued under the conventional "
                   "SQ policy")
    if result["load_check"] == "search-lq" and \
            g("lq.searches.byload") != g("loads.issued"):
        bad.append("lq.searches.byload != loads.issued without a load "
                   "buffer")
    gap = g("fetch.fetched") - g("core.committed") - g("squash.instructions")
    if abs(gap) > result["inflight_cap"]:
        bad.append("fetch.fetched - core.committed - squash.instructions "
                   "= %d exceeds the in-flight capacity %d"
                   % (gap, result["inflight_cap"]))
    if result["committed"] < result["requested"]:
        bad.append("committed %d < requested %d"
                   % (result["committed"], result["requested"]))
    return bad


def mismatches(result, reference):
    """How `result` differs from `reference`; empty when they agree."""
    diff = []
    for field in ("cycles", "committed", "digest"):
        if result[field] != reference[field]:
            diff.append("%s %s != %s"
                        % (field, result[field], reference[field]))
    a, b = result["counters"], reference["counters"]
    for name in sorted(set(a) | set(b)):
        if a.get(name) != b.get(name):
            diff.append("%s %s != %s" % (name, a.get(name), b.get(name)))
    return diff
