#!/usr/bin/env python3
"""Self-tests of the benchmark's own logic.

    python3 perfbench/test_run.py            # from the repository root

The teardown test builds the driver first (as run.py does) and serves a
short request stream through it.
"""

import os
import shutil
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


class TenBeyondRule(unittest.TestCase):
    def test_p90_needs_a_hundred_ops(self):
        self.assertEqual(run.min_ops_for_tail(0.9), 100)
        self.assertEqual(run.tail_count(100, 0.9), 10)
        self.assertEqual(run.tail_count(99, 0.9), 9)

    def test_every_run_has_ten_ops_beyond_p90(self):
        for workload in run.WORKLOADS:
            for seconds in (1, 5, 30, 60):
                n = run.op_count(workload, seconds)
                self.assertGreaterEqual(run.tail_count(n, run.P90), 10,
                                        (workload, seconds))

    def test_quantile_is_nearest_rank(self):
        values = list(range(100, 0, -1))  # 1..100, unsorted
        self.assertEqual(run.quantile(values, 0.9), 90)
        self.assertEqual(run.quantile(values, 0.5), 50)
        self.assertEqual(run.quantile([7.0], 0.9), 7.0)


class PinCheck(unittest.TestCase):
    def raw(self, digests):
        return {"errors": [""] * len(digests), "digests": list(digests)}

    def test_matching_pins_pass(self):
        pins = {3: "aa", 5: "bb"}
        self.assertEqual(run.check_ops(self.raw(["aa", "bb"]), [3, 5], pins),
                         ["", ""])

    def test_tampered_pin_fails_its_op(self):
        pins = run.load_pins("attack-1k6")
        seeds = run.mission_ops("attack-1k6", 1, 20)
        raw = self.raw([pins[s] for s in seeds])
        tampered = dict(pins)
        tampered[seeds[4]] = "0" * 16
        reasons = run.check_ops(raw, seeds, tampered)
        failed = sum(1 for r in reasons if r)
        self.assertEqual(failed, 1)
        self.assertGreater(failed / len(reasons), 0.0)  # error_rate

    def test_tampered_service_pin_fails_every_request_of_its_key(self):
        pins = run.load_pins("service-mix")
        keys = run.service_ops(3, 400)
        raw = self.raw([pins[k] for k in keys])
        tampered = dict(pins)
        tampered[keys[0]] = "0" * 16
        reasons = run.check_ops(raw, keys, tampered)
        self.assertEqual(sum(1 for r in reasons if r), keys.count(keys[0]))

    def test_driver_error_counts_even_with_a_matching_pin(self):
        raw = {"errors": ["", "boom"], "digests": ["aa", "bb"]}
        reasons = run.check_ops(raw, [1, 2], {1: "aa", 2: "bb"})
        self.assertEqual(reasons, ["", "boom"])

    def test_every_pool_key_is_pinned(self):
        for workload, spec in run.WORKLOADS.items():
            self.assertEqual(sorted(run.load_pins(workload)),
                             list(range(1, spec["pool"] + 1)), workload)


class Generators(unittest.TestCase):
    def test_mission_ops_are_a_pure_function_of_the_seed(self):
        a = run.mission_ops("benign-10k", 11, 150)
        self.assertEqual(a, run.mission_ops("benign-10k", 11, 150))
        self.assertNotEqual(a, run.mission_ops("benign-10k", 12, 150))
        self.assertEqual(len(set(a)), len(a))  # no repeated mission
        self.assertEqual(run.repeat_share(a), 0.0)

    def test_mission_ops_are_prefix_stable(self):
        self.assertEqual(run.mission_ops("attack-1k6", 4, 50),
                         run.mission_ops("attack-1k6", 4, 100)[:50])

    def test_service_ops_are_a_pure_function_of_the_seed(self):
        a = run.service_ops(9, 5000)
        self.assertEqual(a, run.service_ops(9, 5000))
        self.assertNotEqual(a, run.service_ops(10, 5000))
        self.assertAlmostEqual(run.repeat_share(a), 0.8, delta=0.03)

    def test_service_ops_span_every_family(self):
        lines = [run.service_line(k) for k in run.service_ops(2, 5000)]
        for family in run.SERVICE_FAMILIES:
            self.assertTrue(any(line.startswith(family + ";seed=")
                                for line in lines), family)

    def test_service_pool_keys_are_distinct_scenarios(self):
        pool = run.WORKLOADS["service-mix"]["pool"]
        lines = {run.service_line(k) for k in range(1, pool + 1)}
        self.assertEqual(len(lines), pool)

    def test_a_full_length_run_fits_the_service_pool(self):
        count = run.op_count("service-mix", 60)
        self.assertEqual(len(run.service_ops(1, count)), count)


class ServiceTeardown(unittest.TestCase):
    def test_teardown_unlinks_socket_and_drains(self):
        binary = run.build()
        os.makedirs(run.TMP_ROOT, exist_ok=True)
        tmp = tempfile.mkdtemp(prefix="selftest-", dir=run.TMP_ROOT)
        try:
            ops = run.service_ops(5, 60)
            lines = run.write_ops(tmp, [run.service_line(k) for k in ops])
            raw = run.run_driver(binary, [
                "service", "--ops", lines, "--dir", tmp])
            self.assertTrue(raw["teardown"]["socket_unlinked"])
            self.assertTrue(raw["teardown"]["drained"])
            self.assertTrue(raw["teardown"]["closed"])
            self.assertFalse(os.path.exists(os.path.join(tmp, "svc.sock")))
            self.assertTrue(run.service_structure_ok(raw, len(ops)))
            self.assertEqual(
                run.check_ops(raw, ops, run.load_pins("service-mix")),
                [""] * len(ops))
        finally:
            shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
