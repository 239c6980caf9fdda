"""Tests of the benchmark harness itself.

Run from the repository root with

    python3 -m unittest discover -s bench -v

They spawn a few small loewylab commands through the harness's own child.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import gate
import run
import spans
import workloads

SMALL = {
    "verma": ["verma", "--n", "4", "--p", "3", "--i", "1", "--nu=1,-2,0,3", "--format", "json"],
    "verma-dual": ["verma-dual", "--n", "4", "--p", "3", "--i", "3", "--eps=0,1,-1,2,0",
                   "--format", "json"],
    "proj": ["proj", "--n", "3", "--p", "5", "--i", "2", "--nu=-1,0,2", "--format", "json"],
    "jantzen": ["jantzen", "--n", "5", "--p", "5", "--format", "json"],
    "verify": ["verify", "--n", "3", "--p", "5", "--format", "json"],
}


def outputs() -> dict[str, bytes]:
    if not hasattr(outputs, "cache"):
        got = {}
        for cmd, argv in SMALL.items():
            sample, out = run.spawn(argv, False)
            assert sample.code == 0, sample.problems
            got[cmd] = out
        outputs.cache = got
    return outputs.cache


def mutated(out: bytes, edit) -> bytes:
    doc = json.loads(out)
    edit(doc)
    return json.dumps(doc, sort_keys=True, indent=2).encode() + b"\n"


class SelfTimeTest(unittest.TestCase):
    def test_synthetic_trace(self):
        # cli.main [0, 10] holds loewy [1, 5] (1.0 s of lattice leaf calls)
        # and projective [5, 9] (0.5 s of leaf calls), which holds loewy [6, 8].
        trace = [
            (2, 1, "loewy", "rad_layers_z_g1t", 1.0, 5.0, 1.0),
            (4, 3, "loewy", "rad_layers_z_g1t", 6.0, 8.0, 0.0),
            (3, 1, "projective", "rad_layers_qhat", 5.0, 9.0, 0.5),
            (1, None, "cli", "main", 0.0, 10.0, 0.0),
        ]
        got = spans.self_times(trace)
        self.assertEqual(got["cli"], 10.0 - 4.0 - 4.0)
        self.assertEqual(got["loewy"], (4.0 - 1.0) + 2.0)
        self.assertEqual(got["projective"], 4.0 - 2.0 - 0.5)
        self.assertEqual(got["lattice"], 1.5)
        self.assertEqual(got["chardim"], 0.0)
        self.assertEqual(sum(got.values()), 10.0)

    def test_traced_child_partitions_its_root_span(self):
        sample, out = run.spawn(SMALL["proj"], True)
        self.assertEqual(sample.code, 0, sample.problems)
        trace = sample.report["trace"]
        self.assertAlmostEqual(sum(trace["self_s"].values()), trace["root_s"], delta=1e-6)
        counts = trace["counts"]
        self.assertEqual(counts["cli.main.calls"], 1)
        # Every Verma in the cover's support is stacked: 4 C(3, 2) of them,
        # 2^3 labels each, and the traced output is the untraced one.
        self.assertEqual(counts["projective.verma_support.entries"], 12)
        self.assertEqual(counts["loewy.rad_layers_z_g1t.calls"], 12)
        self.assertEqual(counts["projective.labels_stacked"], 12 * 8)
        self.assertGreater(counts["lattice.weights_built"], 0)
        self.assertEqual(out, outputs()["proj"])


class GateTest(unittest.TestCase):
    def test_real_outputs_pass(self):
        for cmd, out in outputs().items():
            self.assertEqual(gate.check(SMALL[cmd], out), [], cmd)

    def test_mutations_are_caught(self):
        def bump_mult(d):
            d["layers"][2]["factors"][0]["mult"] = 2

        def drop_factor(d):
            d["layers"][1]["factors"].pop()

        def move_twist(d):
            d["layers"][1]["factors"][0]["nu"][0] += 1

        def unpalindrome(d):
            d["layers"][1]["factors"][0]["nu"][0] += 1

        def short_sweep(d):
            d["report"]["checked"] -= 1

        def failed_check(d):
            d["checks"][4]["ok"] = False

        def lost_check(d):
            d["checks"].pop()

        cases = [
            ("verma", bump_mult), ("verma", drop_factor), ("verma", move_twist),
            ("verma-dual", drop_factor), ("proj", unpalindrome), ("proj", bump_mult),
            ("jantzen", short_sweep), ("verify", failed_check), ("verify", lost_check),
        ]
        for cmd, edit in cases:
            with self.subTest(cmd=cmd, edit=edit.__name__):
                bad = mutated(outputs()[cmd], edit)
                self.assertNotEqual(gate.check(SMALL[cmd], bad), [])
        self.assertNotEqual(gate.check(SMALL["verma"], b"not json"), [])

    def test_reference_hash_catches_any_byte_change(self):
        out = outputs()["verma"]
        sample, _ = run.spawn(SMALL["verma"], False)
        checker = run.Checker({sample.key: sample.sha256})
        self.assertEqual(checker(sample, out, SMALL["verma"]).problems, [])
        # Same document, other layout: the closed forms still hold, the hash does not.
        relaid = json.dumps(json.loads(out), sort_keys=True).encode()
        sample.sha256 = run.hashlib.sha256(relaid).hexdigest()
        sample.problems = []
        self.assertEqual(checker(sample, relaid, SMALL["verma"]).problems,
                         ["stdout differs from the reference output"])


class SpecTest(unittest.TestCase):
    def setUp(self):
        self.spec = run.load_spec()

    def test_metric_names_match_benchmark_json(self):
        untraced = [run.spawn(SMALL["verify"], False)[0], run.spawn(SMALL["proj"], False)[0]]
        traced = [run.spawn(SMALL["verify"], True)[0], run.spawn(SMALL["proj"], True)[0]]
        e2e = run.with_units(run.end_to_end_metrics(untraced), self.spec["end_to_end"])
        layer = run.with_units(run.per_layer_metrics(untraced, traced), self.spec["per_layer"])
        self.assertEqual(list(e2e), [m["name"] for m in self.spec["end_to_end"]])
        self.assertEqual(list(layer), [m["name"] for m in self.spec["per_layer"]])
        self.assertTrue(all(m["value"] > 0 for m in e2e.values()))
        # verify reaches every layer, so each summed counter must show up.
        self.assertLessEqual(set(run.SUMMED), set(run._trace_values(traced[0])))
        self.assertGreater(layer["ext.ext1_g1t_dim.calls"]["value"], 0)
        with self.assertRaises(RuntimeError):
            run.with_units({"wall_s": 1.0}, self.spec["end_to_end"])

    def test_workloads_match_benchmark_json(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]], list(workloads.WORKLOADS))

    def test_every_seeded_op_has_a_reference(self):
        reference = run.load_reference()
        every = {workloads.key(argv) for argv in workloads.all_ops()}
        self.assertLessEqual(every, set(reference))
        for workload in workloads.WORKLOADS:
            for seed in range(20):
                ops = workloads.ops(workload, seed)
                self.assertLessEqual({workloads.key(a) for a in ops}, every)
                self.assertEqual(ops, workloads.ops(workload, seed))


class CompareTest(unittest.TestCase):
    def test_verdicts(self):
        old = [10.0, 10.1, 9.9, 10.0, 10.05]
        self.assertEqual(run.verdict(old, [10.0, 10.1, 9.95, 10.02], 0.1, True), "within bound")
        self.assertEqual(run.verdict(old, [12.0, 12.1, 11.9, 12.0], 0.1, True), "regressed")
        self.assertEqual(run.verdict(old, [8.0, 8.1, 7.9, 8.0], 0.1, True), "better")
        self.assertEqual(run.verdict(old, [5.0, 15.0, 8.0, 12.0], 0.1, True), "unresolved")
        self.assertEqual(run.verdict(old, [12.0, 12.1, 11.9, 12.0], 0.1, False), "better")


class BareDirectoryTest(unittest.TestCase):
    def test_fails_without_the_library(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(run.SPEC, tmp)
            shutil.copytree(run.BENCH, Path(tmp) / "bench",
                            ignore=shutil.ignore_patterns("results", "__pycache__"))
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "cover-stack", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, b"")


if __name__ == "__main__":
    unittest.main()
