#!/usr/bin/env python3
"""Static layering and project-rule lint for the taskdrop tree.

Checks, over src/, tools/, bench/ and examples/ (tests/ is exempt from the
layering DAG — suites may reach into any layer):

1. *Module layering*: `#include "module/..."` edges must respect the DAG

       util <- prob <- {pet, cost, workload} <- {core, sched, sim, online}
            <- {metrics, exp} <- {cli, bench, examples}

   A module may include its own layer (the sim <-> core <-> sched cycles
   are deliberate — see src/CMakeLists.txt) and any lower layer, never a
   higher one.

2. *No assert-only validation in src/prob or src/online*: the prob layer
   and the online scheduler's public entry points (its callbacks and the
   SchedulerOps a user-written mapper calls) promise real (throwing) error
   paths that survive Release builds, so `assert(` is banned in both
   modules outright (static_assert stays fine).

3. *No direct convolve calls outside the prob layer*: everything above prob
   must run convolutions through the PmfWorkspace `*_into` kernels so the
   hot paths stay allocation-free. `convolve(` / `deadline_convolve(` are
   flagged outside src/prob; a deliberate exception (e.g. a benchmark of
   the allocating kernel itself) carries a
   `layering-allow(direct-convolve)` comment on the same line or in the
   comment block directly above.

4. *No FFT-plan bypass outside the prob layer*: the radix-2 kernel in
   `prob/fft.hpp` does not preserve the direct kernels' summation order, so
   whether it runs must stay a prob-internal decision (the measured
   crossover gate inside the `*_into` kernels). Including `prob/fft.hpp` or
   naming `FftPlan` outside src/prob is flagged; a deliberate exception
   (e.g. a benchmark pinning the gate) carries a
   `layering-allow(fft-plan)` comment on the same line or in the comment
   block directly above.

5. *No floating-point literal ==/!= in src/*: bitwise float comparison
   belongs to the lockdown test suites; in src/ an exact compare against a
   float literal is only allowed with a justifying `float-eq-ok` comment
   (the sparse-skip `p[i] == 0.0` idiom).

Exit status 0 when clean, 1 with one line per violation otherwise.
`--dot FILE` additionally writes the module-level include graph (violating
edges in red) for the CI artifact.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

# Layer index per module; an include edge a -> b is legal iff
# layer(b) <= layer(a).
LAYERS = {
    "util": 0,
    "prob": 1,
    "pet": 2,
    "cost": 2,
    "workload": 2,
    "core": 3,
    "sched": 3,
    "sim": 3,
    "online": 3,
    "metrics": 4,
    "exp": 4,
    "cli": 5,
    "bench": 5,
    "examples": 5,
}

SOURCE_SUFFIXES = {".cpp", ".hpp", ".cc", ".hh", ".h"}

# Horizontal whitespace only: `\s` would span the blank lines that comment
# stripping leaves above an include and report it at the first of them.
INCLUDE_RE = re.compile(r'^[ \t]*#[ \t]*include[ \t]+"([^"]+)"', re.MULTILINE)
ASSERT_RE = re.compile(r"(?<![\w_])assert\s*\(")
DIRECT_CONVOLVE_RE = re.compile(r"(?<![\w_])(?:deadline_)?convolve\s*\(")
FFT_PLAN_RE = re.compile(r"(?<![\w_])FftPlan(?![\w_])")
FFT_INCLUDE = "prob/fft.hpp"
FLOAT_LITERAL = r"[-+]?(?:\d+\.\d*|\.\d+)(?:[eE][-+]?\d+)?"
FLOAT_EQ_RE = re.compile(
    r"(?:[=!]=\s*{lit})|(?:{lit}\s*[=!]=)".format(lit=FLOAT_LITERAL)
)

ALLOW_CONVOLVE = "layering-allow(direct-convolve)"
ALLOW_FFT = "layering-allow(fft-plan)"
ALLOW_FLOAT_EQ = "float-eq-ok"


def strip_comments_and_strings(text: str, keep_strings: bool = False) -> str:
    """Replaces comment (and, unless keep_strings, string-literal) contents
    with spaces, preserving line structure, so the rule regexes never fire
    on documentation. keep_strings=True is used for `#include "path"`
    extraction, where the string *is* the payload."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "string"
                out.append('"')
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append("'")
                i += 1
                continue
            out.append(c)
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append(text[i:i + 2] if keep_strings else "  ")
                i += 2
                continue
            if c == quote:
                state = "code"
                out.append(quote)
            elif c == "\n":  # unterminated; keep line structure
                state = "code"
                out.append("\n")
            else:
                out.append(c if keep_strings else " ")
        i += 1
    return "".join(out)


def module_of(path: Path, root: Path) -> str | None:
    """Maps a file path to its layering module, or None when exempt."""
    rel = path.relative_to(root)
    parts = rel.parts
    if parts[0] == "src" and len(parts) >= 2 and parts[1] in LAYERS:
        return parts[1]
    if parts[0] == "tools":
        return "cli"
    if parts[0] == "bench":
        return "bench"
    if parts[0] == "examples":
        return "examples"
    return None  # tests/ and anything else: exempt from layering


class Violation:
    def __init__(self, path: Path, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def line_allowed(lines: list[str], code_lines: list[str], index: int,
                 marker: str) -> bool:
    """True when `marker` appears on the flagged line or on any line of the
    comment block directly above it (markers live in comments, so search
    the raw source lines; a comment-only line is one that is blank once
    comments are stripped)."""
    if marker in lines[index]:
        return True
    above = index - 1
    while (above >= 0 and lines[above].strip()
           and not code_lines[above].strip()):
        if marker in lines[above]:
            return True
        above -= 1
    return False


def check_file(path: Path, root: Path, edges: dict) -> list:
    module = module_of(path, root)
    raw = path.read_text(encoding="utf-8", errors="replace")
    raw_lines = raw.splitlines()
    code = strip_comments_and_strings(raw)
    code_lines = code.splitlines()
    violations = []

    if module is not None:
        layer = LAYERS[module]
        include_text = strip_comments_and_strings(raw, keep_strings=True)
        for match in INCLUDE_RE.finditer(include_text):
            target = match.group(1).split("/")[0]
            if target not in LAYERS:
                continue  # non-module include ("test_util.hpp" etc.)
            line = include_text.count("\n", 0, match.start()) + 1
            edges.setdefault((module, target), []).append((path, line))
            if (module != "prob" and match.group(1) == FFT_INCLUDE
                    and not line_allowed(raw_lines, code_lines, line - 1,
                                         ALLOW_FFT)):
                violations.append(
                    Violation(
                        path, line, "fft-plan",
                        "including prob/fft.hpp outside src/prob bypasses "
                        "the measured crossover gate — convolve through the "
                        "*_into kernels (or annotate with "
                        f"{ALLOW_FFT})"))
            if LAYERS[target] > layer:
                violations.append(
                    Violation(
                        path, line, "layering",
                        f"{module} (layer {layer}) must not include "
                        f"{target} (layer {LAYERS[target]})"))

    in_prob = module == "prob"
    for i, text in enumerate(code_lines):
        if module in ("prob", "online") and ASSERT_RE.search(text):
            violations.append(
                Violation(
                    path, i + 1, "prob-assert",
                    f"assert-only validation is banned in src/{module} — "
                    "throw a real exception (Release builds must reject "
                    "bad inputs too)"))
        if (module is not None and not in_prob
                and DIRECT_CONVOLVE_RE.search(text)
                and not line_allowed(raw_lines, code_lines, i,
                                     ALLOW_CONVOLVE)):
            violations.append(
                Violation(
                    path, i + 1, "direct-convolve",
                    "direct convolve()/deadline_convolve() bypasses "
                    "PmfWorkspace — use the *_into kernels (or annotate "
                    f"with {ALLOW_CONVOLVE})"))
        if (module is not None and not in_prob
                and FFT_PLAN_RE.search(text)
                and not line_allowed(raw_lines, code_lines, i, ALLOW_FFT)):
            violations.append(
                Violation(
                    path, i + 1, "fft-plan",
                    "FftPlan outside src/prob bypasses the measured "
                    "crossover gate — convolve through the *_into kernels "
                    f"(or annotate with {ALLOW_FFT})"))
        if (module is not None and module not in ("cli", "bench", "examples")
                and FLOAT_EQ_RE.search(text)
                and not line_allowed(raw_lines, code_lines, i,
                                     ALLOW_FLOAT_EQ)):
            violations.append(
                Violation(
                    path, i + 1, "float-eq",
                    "floating-point literal ==/!= outside the lockdown "
                    "tests — compare a tolerance, or annotate a deliberate "
                    f"exact-zero skip with {ALLOW_FLOAT_EQ}"))
    return violations


def scan(root: Path):
    edges: dict = {}
    violations = []
    for top in ("src", "tools", "bench", "examples"):
        base = root / top
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix in SOURCE_SUFFIXES and path.is_file():
                violations.extend(check_file(path, root, edges))
    return violations, edges


def write_dot(edges: dict, out_path: Path) -> None:
    bad = {(src, dst) for (src, dst) in edges
           if LAYERS[dst] > LAYERS[src]}
    lines = ["digraph taskdrop_layering {", "  rankdir=BT;"]
    for module, layer in sorted(LAYERS.items(), key=lambda kv: kv[1]):
        lines.append(f'  "{module}" [label="{module}\\n(layer {layer})"];')
    for (src, dst), sites in sorted(edges.items()):
        if src == dst:
            continue
        color = "red" if (src, dst) in bad else "black"
        lines.append(
            f'  "{src}" -> "{dst}" [label="{len(sites)}", color={color}];')
    lines.append("}")
    out_path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).parent.parent,
                        help="repository root (default: this script's parent)")
    parser.add_argument("--dot", type=Path, default=None,
                        help="write the module include graph as Graphviz DOT")
    args = parser.parse_args(argv)

    violations, edges = scan(args.root.resolve())
    if args.dot is not None:
        write_dot(edges, args.dot)
    for violation in violations:
        print(violation)
    if violations:
        print(f"check_layering: {len(violations)} violation(s)",
              file=sys.stderr)
        return 1
    print(f"check_layering: OK ({len(edges)} module include edges)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
