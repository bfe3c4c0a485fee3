#!/usr/bin/env python3
"""Tests for perfbench's output checks: each one must reject a result
with a single counter perturbed, and accept the unperturbed one.

    python3 perfbench/test_checks.py
"""

import copy
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import run  # noqa: E402

# A base-machine gzip cell (200k measured instructions), as the bench
# program prints it.
GZIP = {
    "kind": "result", "workload": "cell", "path": "run", "round": 0,
    "key": "base/gzip@1", "requested": 200000, "inflight_cap": 288,
    "sq_policy": "always", "load_check": "search-lq",
    "cycles": 177514, "committed": 200001, "digest": "00000000deadbeef",
    "seconds": 0.25,
    "counters": {
        "core.committed": 200001, "core.committed.branches": 19185,
        "core.committed.loads": 40067, "core.committed.stores": 23251,
        "core.issued": 202077, "fetch.fetched": 214021,
        "fetch.mispredicts": 1021, "l1d.hits": 53358, "l1d.misses": 6630,
        "l2.hits": 6199, "l2.misses": 431, "loads.forwarded": 3882,
        "loads.issued": 40619, "lq.searches.byload": 40619,
        "lq.searches.bystore": 23496, "sq.searches": 40619,
        "sq.searches.matched": 3882, "squash.instructions": 14095,
        "squash.loadload": 228, "squash.storeload.exec": 11,
        "squash.total": 239, "stores.issued": 23496,
    },
}


def perturbed(name, delta, **design):
    r = copy.deepcopy(GZIP)
    r.update(design)
    r["counters"][name] = r["counters"].get(name, 0) + delta
    return r


class PropertyChecks(unittest.TestCase):
    def assertRejects(self, result, fragment):
        found = checks.violations(result)
        self.assertTrue(any(fragment in v for v in found),
                        "%r not in %r" % (fragment, found))

    def test_unperturbed_result_passes(self):
        self.assertEqual(checks.violations(GZIP), [])

    def test_squash_total(self):
        self.assertRejects(perturbed("squash.total", 1), "squash.total")
        self.assertRejects(perturbed("squash.loadload", -1),
                           "squash.total")

    def test_l1d_accesses(self):
        self.assertRejects(perturbed("l1d.hits", 1), "l1d accesses")
        self.assertRejects(perturbed("core.committed.stores", -1),
                           "l1d accesses")

    def test_l2_accesses(self):
        self.assertRejects(perturbed("l2.hits", -200), "l2 accesses")

    def test_forwarded_equals_matched(self):
        self.assertRejects(perturbed("sq.searches.matched", 1),
                           "loads.forwarded != sq.searches.matched")

    def test_search_chain(self):
        pair = {"sq_policy": "pair"}
        self.assertRejects(perturbed("sq.searches", -40000, **pair),
                           "sq.searches.matched <= sq.searches")
        self.assertRejects(perturbed("sq.searches", 1, **pair),
                           "sq.searches <= loads.issued")

    def test_conventional_sq_searches(self):
        self.assertRejects(perturbed("sq.searches", -1),
                           "conventional SQ policy")
        self.assertEqual(
            checks.violations(perturbed("sq.searches", -1,
                                        sq_policy="pair")), [])

    def test_lq_searches_without_load_buffer(self):
        self.assertRejects(perturbed("lq.searches.byload", -1),
                           "without a load buffer")
        self.assertEqual(
            checks.violations(perturbed("lq.searches.byload", -1,
                                        load_check="load-buffer")), [])

    def test_fetch_within_inflight_capacity(self):
        self.assertRejects(perturbed("fetch.fetched", 289 + 75),
                           "in-flight capacity")
        self.assertEqual(
            checks.violations(perturbed("fetch.fetched", 200)), [])

    def test_committed_at_least_requested(self):
        r = copy.deepcopy(GZIP)
        r["committed"] = 199999
        self.assertTrue(any("requested" in v
                            for v in checks.violations(r)))


class CrossPathChecks(unittest.TestCase):
    def test_equal_results_agree(self):
        self.assertEqual(checks.mismatches(GZIP, copy.deepcopy(GZIP)), [])

    def test_one_counter_differs(self):
        diff = checks.mismatches(perturbed("lq.searches.bystore", 1), GZIP)
        self.assertEqual(len(diff), 1)
        self.assertIn("lq.searches.bystore", diff[0])

    def test_missing_counter_differs(self):
        r = copy.deepcopy(GZIP)
        del r["counters"]["squash.loadload"]
        self.assertTrue(checks.mismatches(r, GZIP))

    def test_digest_and_cycles_differ(self):
        for field, value in (("digest", "0000000000000001"),
                             ("cycles", 177515)):
            r = copy.deepcopy(GZIP)
            r[field] = value
            self.assertTrue(checks.mismatches(r, GZIP), field)


class RunAccounting(unittest.TestCase):
    def line(self, path, rnd, **counters):
        r = copy.deepcopy(GZIP)
        r.update(workload="grid", path=path, round=rnd)
        r["counters"].update(counters)
        return r

    def test_operations_checked_against_reference(self):
        lines = [self.line("ref", 0), self.line("sweep", 0),
                 self.line("sweep", 1, **{"core.issued": 1}),
                 self.line("journal", 0)]
        self.assertEqual(run.check(lines), (2, 1, []))

    def test_journal_mismatch_fails_its_sweep_cell(self):
        lines = [self.line("ref", 0), self.line("sweep", 0),
                 self.line("journal", 0, **{"core.issued": 1})]
        self.assertEqual(run.check(lines), (1, 1, []))

    def test_errors_count_as_failed(self):
        err = {"kind": "error", "workload": "serve", "path": "warm",
               "round": 0, "key": "base/gzip", "message": "hung"}
        self.assertEqual(run.check([err]), (1, 1, []))

    def test_without_reference_first_round_is_reference(self):
        lines = [self.line("run", 0), self.line("run", 1),
                 self.line("run", 2, **{"squash.total": 240,
                                        "squash.loadload": 229})]
        self.assertEqual(run.check(lines), (3, 1, []))


if __name__ == "__main__":
    unittest.main()
