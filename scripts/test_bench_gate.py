#!/usr/bin/env python3
"""Tests for bench_gate.py: every difference between a record and its
baseline exits 1, equal records exit 0, unreadable input exits 2.

Run: python3 scripts/test_bench_gate.py
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

GATE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    "bench_gate.py")

BASELINE = {
    "bench": "t",
    "dim": 14,
    "digest": 17060587129290960515,  # above 2**53: must compare exactly
    "bytes_per_node_q14": 0.666992,
    "tallies_identical": True,
}


class BenchGateTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.addCleanup(self.dir.cleanup)

    def write(self, name, text):
        path = os.path.join(self.dir.name, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    def gate(self, current, baseline=BASELINE):
        """Exit status of the gate on two records (dicts or raw text)."""
        paths = [self.write(name, rec if isinstance(rec, str)
                            else json.dumps(rec, indent=2))
                 for name, rec in (("base.json", baseline),
                                   ("cur.json", current))]
        return subprocess.run(
            [sys.executable, GATE, "--baseline", paths[0],
             "--current", paths[1]],
            capture_output=True, text=True, check=False).returncode

    def changed(self, **fields):
        return {**BASELINE, **fields}

    def test_identical_records_pass(self):
        self.assertEqual(self.gate(dict(BASELINE)), 0)

    def test_one_line_writer_output_equals_pretty_baseline(self):
        self.assertEqual(self.gate(json.dumps(BASELINE) + "\n"), 0)

    def test_changed_digest_fails(self):
        self.assertEqual(self.gate(self.changed(digest=17060587129290960514)),
                         1)

    def test_missing_field_fails(self):
        current = dict(BASELINE)
        del current["dim"]
        self.assertEqual(self.gate(current), 1)

    def test_added_field_fails(self):
        self.assertEqual(self.gate(self.changed(extra=1)), 1)

    def test_changed_timing_named_field_fails(self):
        # Field names no longer pick a class: x_ms is as exact as a digest.
        self.assertEqual(self.gate(self.changed(x_ms=2.0),
                                   self.changed(x_ms=1.0)), 1)

    def test_float_beyond_tolerance_fails(self):
        self.assertEqual(
            self.gate(self.changed(bytes_per_node_q14=0.666992 * (1 + 1e-8))),
            1)

    def test_float_within_tolerance_passes(self):
        self.assertEqual(
            self.gate(self.changed(bytes_per_node_q14=0.666992 * (1 + 1e-11))),
            0)

    def test_flag_compared_with_a_number_fails(self):
        self.assertEqual(self.gate(self.changed(tallies_identical=1)), 1)

    def test_unreadable_input_exits_2(self):
        self.assertEqual(self.gate("{\"bench\": "), 2)
        self.assertEqual(self.gate("[1, 2]"), 2)
        missing = os.path.join(self.dir.name, "absent.json")
        base = self.write("base.json", json.dumps(BASELINE))
        status = subprocess.run(
            [sys.executable, GATE, "--baseline", base, "--current", missing],
            capture_output=True, check=False).returncode
        self.assertEqual(status, 2)


if __name__ == "__main__":
    unittest.main()
