#!/usr/bin/env python3
"""Unit tests for tools/check_layering.py — every rule is exercised on
fixture snippets in a synthetic tree (positive hit, clean negative, and
marker/comment immunity). Run directly or via ctest (lint.check_layering_unit).
"""

import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
import check_layering  # noqa: E402


class FixtureTree:
    """Builds a throwaway repo-shaped tree of fixture files."""

    def __init__(self, root: Path):
        self.root = root

    def write(self, rel: str, text: str) -> Path:
        path = self.root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
        return path

    def scan(self):
        return check_layering.scan(self.root)


class CheckLayeringTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.tree = FixtureTree(Path(self._tmp.name))

    def tearDown(self):
        self._tmp.cleanup()

    def rules_of(self, violations):
        return [v.rule for v in violations]

    # ------------------------------ layering ------------------------------

    def test_upward_include_is_flagged(self):
        self.tree.write("src/cost/cost_model.hpp",
                        '#include "sim/sim_result.hpp"\n')
        violations, _ = self.tree.scan()
        self.assertEqual(self.rules_of(violations), ["layering"])
        self.assertIn("cost (layer 2) must not include sim (layer 3)",
                      violations[0].message)

    def test_downward_and_same_layer_includes_are_clean(self):
        self.tree.write("src/sim/engine.cpp",
                        '#include "core/dropper.hpp"\n'   # same layer
                        '#include "prob/pmf.hpp"\n'       # lower layer
                        '#include "sim/engine.hpp"\n')    # own module
        violations, edges = self.tree.scan()
        self.assertEqual(violations, [])
        self.assertEqual(len(edges), 3)

    def test_commented_out_include_is_ignored(self):
        self.tree.write("src/util/stats.cpp",
                        '// #include "exp/sweep.hpp"\n'
                        '/* #include "sim/engine.hpp" */\n')
        violations, edges = self.tree.scan()
        self.assertEqual(violations, [])
        self.assertEqual(edges, {})

    def test_tests_are_exempt_from_layering(self):
        self.tree.write("tests/foo_test.cpp",
                        '#include "exp/sweep.hpp"\n'
                        'void f() { assert(1 == 1.0); }\n')
        violations, _ = self.tree.scan()
        self.assertEqual(violations, [])

    def test_tools_and_bench_are_top_layer(self):
        self.tree.write("tools/cli.cpp", '#include "exp/sweep.hpp"\n')
        self.tree.write("bench/bench.cpp", '#include "metrics/report.hpp"\n')
        violations, _ = self.tree.scan()
        self.assertEqual(violations, [])

    # ----------------------------- prob-assert ----------------------------

    def test_assert_in_prob_is_flagged(self):
        self.tree.write("src/prob/pmf.cpp",
                        "void f(int s) { assert(s >= 1); }\n")
        violations, _ = self.tree.scan()
        self.assertEqual(self.rules_of(violations), ["prob-assert"])

    def test_static_assert_in_prob_is_clean(self):
        self.tree.write("src/prob/pmf.cpp",
                        "static_assert(sizeof(int) == 4);\n")
        violations, _ = self.tree.scan()
        self.assertEqual(violations, [])

    def test_assert_mentioned_in_comment_is_clean(self):
        self.tree.write("src/prob/convolution.cpp",
                        "// an assert(x) here would be wrong\n")
        violations, _ = self.tree.scan()
        self.assertEqual(violations, [])

    def test_assert_in_online_is_flagged(self):
        self.tree.write("src/online/system_state.cpp",
                        "void f(bool up) { assert(up && \"down\"); }\n")
        violations, _ = self.tree.scan()
        self.assertEqual(self.rules_of(violations), ["prob-assert"])
        self.assertIn("banned in src/online", violations[0].message)

    def test_static_assert_in_online_is_clean(self):
        self.tree.write("src/online/decision.hpp",
                        "static_assert(sizeof(long) >= 4);\n")
        violations, _ = self.tree.scan()
        self.assertEqual(violations, [])

    def test_assert_outside_prob_is_allowed(self):
        self.tree.write("src/sim/engine.cpp",
                        "void f(bool ok) { assert(ok); }\n")
        violations, _ = self.tree.scan()
        self.assertEqual(violations, [])

    # --------------------------- direct-convolve --------------------------

    def test_direct_convolve_outside_prob_is_flagged(self):
        self.tree.write("src/core/model.cpp",
                        "void f() { auto c = convolve(a, b); }\n")
        self.tree.write("src/sched/pam.cpp",
                        "void f() { deadline_convolve(a, b, d); }\n")
        violations, _ = self.tree.scan()
        self.assertEqual(sorted(self.rules_of(violations)),
                         ["direct-convolve", "direct-convolve"])

    def test_workspace_into_kernels_are_clean(self):
        self.tree.write("src/core/model.cpp",
                        "void f() { convolve_into(a, b, ws, out);\n"
                        "  deadline_convolve_into(a, b, d, ws, out); }\n")
        violations, _ = self.tree.scan()
        self.assertEqual(violations, [])

    def test_direct_convolve_inside_prob_is_clean(self):
        self.tree.write("src/prob/convolution.cpp",
                        "Pmf g() { return convolve(a, b); }\n")
        violations, _ = self.tree.scan()
        self.assertEqual(violations, [])

    def test_direct_convolve_marker_suppresses(self):
        self.tree.write(
            "bench/micro.cpp",
            "void f() {\n"
            "  // baseline. layering-allow(direct-convolve)\n"
            "  auto c = convolve(a, b);\n"
            "  deadline_convolve(a, b, d);  "
            "// layering-allow(direct-convolve)\n"
            "}\n")
        violations, _ = self.tree.scan()
        self.assertEqual(violations, [])

    # ------------------------------ fft-plan ------------------------------

    def test_fft_include_outside_prob_is_flagged(self):
        self.tree.write("src/core/model.cpp",
                        '#include "prob/fft.hpp"\n')
        violations, _ = self.tree.scan()
        self.assertEqual(self.rules_of(violations), ["fft-plan"])

    def test_fft_plan_usage_outside_prob_is_flagged(self):
        self.tree.write("src/sched/pam.cpp",
                        "void f() { FftPlan plan; plan.convolve(a); }\n")
        violations, _ = self.tree.scan()
        # Direct FftPlan use trips both the fft-plan rule and (via .convolve)
        # the direct-convolve rule — each bypass is independently real.
        self.assertIn("fft-plan", self.rules_of(violations))

    def test_fft_inside_prob_is_clean(self):
        self.tree.write("src/prob/convolution.cpp",
                        '#include "prob/fft.hpp"\n'
                        "void f(PmfWorkspace& ws) { FftPlan& p = ws.fft; }\n")
        violations, _ = self.tree.scan()
        self.assertEqual(violations, [])

    def test_fft_marker_suppresses(self):
        self.tree.write(
            "bench/micro.cpp",
            "// layering-allow(fft-plan): pins the gate for the A/B curve.\n"
            '#include "prob/fft.hpp"\n')
        violations, _ = self.tree.scan()
        self.assertEqual(violations, [])

    def test_fft_mentioned_in_comment_is_clean(self):
        self.tree.write("src/core/model.cpp",
                        "// wide chains could use an FftPlan some day\n")
        violations, _ = self.tree.scan()
        self.assertEqual(violations, [])

    # ------------------------------ float-eq ------------------------------

    def test_float_literal_equality_is_flagged(self):
        self.tree.write("src/metrics/aggregate.cpp",
                        "bool f(double x) { return x == 0.5; }\n")
        self.tree.write("src/exp/sweep.cpp",
                        "bool g(double x) { return 1.0 != x; }\n")
        violations, _ = self.tree.scan()
        self.assertEqual(sorted(self.rules_of(violations)),
                         ["float-eq", "float-eq"])

    def test_integer_equality_is_clean(self):
        self.tree.write("src/metrics/aggregate.cpp",
                        "bool f(int x) { return x == 5 || x != 0; }\n")
        violations, _ = self.tree.scan()
        self.assertEqual(violations, [])

    def test_float_inequality_comparisons_are_clean(self):
        self.tree.write("src/metrics/aggregate.cpp",
                        "bool f(double x) { return x > 0.0 && x <= 1.5; }\n")
        violations, _ = self.tree.scan()
        self.assertEqual(violations, [])

    def test_float_eq_marker_suppresses(self):
        self.tree.write(
            "src/core/model.cpp",
            "void f(const double* p, int i) {\n"
            "  if (p[i] == 0.0) return;  // float-eq-ok: sparse skip\n"
            "}\n")
        violations, _ = self.tree.scan()
        self.assertEqual(violations, [])

    def test_float_eq_in_string_literal_is_clean(self):
        self.tree.write("src/util/table.cpp",
                        'const char* kMsg = "x == 0.5 is bad";\n')
        violations, _ = self.tree.scan()
        self.assertEqual(violations, [])

    # ------------------------------- output -------------------------------

    def test_dot_output_marks_violating_edges_red(self):
        self.tree.write("src/cost/cost_model.hpp",
                        '#include "sim/sim_result.hpp"\n')
        self.tree.write("src/prob/pmf.cpp", '#include "util/rng.hpp"\n')
        violations, edges = self.tree.scan()
        self.assertEqual(self.rules_of(violations), ["layering"])
        dot_path = self.tree.root / "graph.dot"
        check_layering.write_dot(edges, dot_path)
        dot = dot_path.read_text()
        self.assertIn('"cost" -> "sim" [label="1", color=red]', dot)
        self.assertIn('"prob" -> "util" [label="1", color=black]', dot)

    def test_main_exit_codes(self):
        self.tree.write("src/prob/pmf.cpp", "int x;\n")
        self.assertEqual(check_layering.main(["--root", str(self.tree.root)]),
                         0)
        self.tree.write("src/prob/bad.cpp", "void f() { assert(1); }\n")
        self.assertEqual(check_layering.main(["--root", str(self.tree.root)]),
                         1)


if __name__ == "__main__":
    unittest.main()
