#!/usr/bin/env python3
"""Repo-invariant linter: structural rules grep and clang-tidy can't state.

Checks (each violation is reported as file:line and fails the run):

  1. forwardInto / *Into hot-path bodies in the attention, runtime, and
     model layers perform no heap allocation: no `new`, `malloc`,
     `make_shared` / `make_unique`, and no container growth
     (`push_back` / `emplace_back`) inside the function body. The
     steady-state zero-allocation contract is *tested* by
     tests/test_alloc.cpp; this rule keeps the obvious violations from
     ever compiling into those paths.
  2. GEMM backend internals stay inside the Gemm dispatcher: the
     backend entry points (gemmScalar, gemmAvx2, gemmInt8Scalar,
     gemmInt8Avx2, epilogueApplyRow) are referenced only from
     src/tensor/gemm* translation units. Everything else must funnel
     through Gemm::multiply, which is what keeps dispatch, banding,
     and the epilogue contract in one place. (2b) The panel-packing
     helpers (packAPanel, packBPanel, packAPanelInt8, packBPanelInt8)
     are referenced only from gemm_pack.{h,cpp}, the AVX2 backend TUs,
     and packed_weights.{h,cpp} — one packing implementation, shared
     by the per-call path and the prepack path, is what makes
     prepacked panels byte-identical to per-call pack output.
  3. Every VITALITY_* environment knob read via getenv() in src/, and
     every VITALITY_* CMake option, is documented in README.md — and
     (3b) every such env knob is also resolved by
     RuntimeOptions::fromEnv, so the serving layer's per-model pinned
     options never lag the knob set.
  4. AVX2 translation units are paired with a scalar fallback: every
     src/**/X_avx2.cpp has a sibling X.cpp, and AVX2 intrinsics
     (outside comments) appear only in *_avx2.cpp files or in headers
     that declare themselves AVX2-only (avx2_math.h).
  5. Include layering: base(0) < tensor(1) < {sparse, attention}(2) <
     runtime(3) < model(4). A file includes only its own level or
     below (sparse and attention share a level and may include each
     other). tests/ and bench/ are exempt.
  6. Header-guard convention: src/<dir>/<name>.h (and tests/*.h) use
     #ifndef VITALITY_<DIR>_<NAME>_H.
  7. No libm transcendental (std::tanh, std::exp, std::erf, tanhf,
     expf, ...) in the GEMM write-back sources (src/tensor/gemm*.cpp
     and gemm*.h). The epilogue's GELU is the polynomial program of
     geluScalar / geluApprox8, which the AVX2 backends run in
     registers; a per-element library call there would both cost a
     store/call/reload per element and break the scalar == vector
     bitwise contract.

Run from anywhere: paths resolve relative to the repo root.
"""

import os
import re
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

LAYER = {"base": 0, "tensor": 1, "sparse": 2, "attention": 2,
         "runtime": 3, "model": 4, "serve": 5}

ALLOC_TOKENS = re.compile(
    r"\bnew\b|\bmalloc\s*\(|make_shared\s*[<(]|make_unique\s*<|"
    r"push_back\s*\(|emplace_back\s*\(")

BACKEND_IDENTS = re.compile(
    r"\b(gemmScalar|gemmAvx2|gemmInt8Scalar|gemmInt8Avx2|"
    r"epilogueApplyRow)\b")

PACK_IDENTS = re.compile(
    r"\b(packAPanel|packBPanel|packAPanelInt8|packBPanelInt8)\b")

PACK_FILES = {"gemm_pack.h", "gemm_pack.cpp", "gemm_avx2.cpp",
              "gemm_int8_avx2.cpp", "packed_weights.h",
              "packed_weights.cpp"}

violations = []


def report(path, line, message):
    violations.append(f"{os.path.relpath(path, REPO)}:{line}: {message}")


def strip_comments(text):
    """Blank out // and /* */ comments and string/char literals,
    preserving line structure so offsets map back to line numbers."""
    out = []
    i, n = 0, len(text)
    state = None  # None | 'line' | 'block' | '"' | "'"
    while i < n:
        c = text[i]
        if state is None:
            if text.startswith("//", i):
                state = "line"
                out.append("  ")
                i += 2
                continue
            if text.startswith("/*", i):
                state = "block"
                out.append("  ")
                i += 2
                continue
            if c in "\"'":
                state = c
                out.append(c)
                i += 1
                continue
            out.append(c)
        elif state == "line":
            if c == "\n":
                state = None
                out.append(c)
            else:
                out.append(" ")
        elif state == "block":
            if text.startswith("*/", i):
                state = None
                out.append("  ")
                i += 2
                continue
            out.append(c if c == "\n" else " ")
        else:  # inside a literal
            if c == "\\" and i + 1 < n:
                out.append("  ")
                i += 2
                continue
            if c == state:
                state = None
            out.append(c if c in (state, "\n", '"', "'") else " ")
        i += 1
    return "".join(out)


def src_files(ext):
    for root, _, names in os.walk(os.path.join(REPO, "src")):
        for name in sorted(names):
            if name.endswith(ext):
                yield os.path.join(root, name)


def line_of(text, offset):
    return text.count("\n", 0, offset) + 1


# --- Rule 1: allocation tokens in *Into hot-path bodies -----------------

HOT_DIRS = ("attention", "runtime", "model")
# Matches the start of an Into-method definition at a line beginning
# (the repo style puts the return type on its own line, so the method
# name starts a line).
INTO_DEF = re.compile(r"^[A-Za-z_][\w:]*::(\w*Into)\s*\(", re.M)


def check_hot_path_allocations():
    for path in src_files(".cpp"):
        subdir = os.path.relpath(path, os.path.join(REPO, "src"))
        if subdir.split(os.sep)[0] not in HOT_DIRS:
            continue
        text = strip_comments(open(path).read())
        for m in INTO_DEF.finditer(text):
            brace = text.find("{", m.end())
            if brace < 0:
                continue
            depth, i = 1, brace + 1
            while i < len(text) and depth:
                if text[i] == "{":
                    depth += 1
                elif text[i] == "}":
                    depth -= 1
                i += 1
            body = text[brace:i]
            for alloc in ALLOC_TOKENS.finditer(body):
                report(path, line_of(text, brace + alloc.start()),
                       f"heap allocation ({alloc.group(0).strip('(').strip()}) "
                       f"in hot path {m.group(1)}()")


# --- Rule 2: GEMM backend identifiers stay in gemm TUs ------------------

def check_backend_containment():
    for path in src_files(".cpp"):
        if os.path.basename(path).startswith("gemm"):
            continue
        text = strip_comments(open(path).read())
        for m in BACKEND_IDENTS.finditer(text):
            report(path, line_of(text, m.start()),
                   f"GEMM backend internal {m.group(0)} referenced outside "
                   "src/tensor/gemm*; use Gemm::multiply")
    for path in src_files(".h"):
        base = os.path.basename(path)
        if base.startswith("gemm") or base == "avx2_math.h":
            continue
        text = strip_comments(open(path).read())
        for m in BACKEND_IDENTS.finditer(text):
            report(path, line_of(text, m.start()),
                   f"GEMM backend internal {m.group(0)} referenced outside "
                   "src/tensor/gemm*; use Gemm::multiply")


# --- Rule 2b: panel-packing helpers stay in the pack/prepack TUs --------

def check_pack_containment():
    for ext in (".cpp", ".h"):
        for path in src_files(ext):
            if os.path.basename(path) in PACK_FILES:
                continue
            text = strip_comments(open(path).read())
            for m in PACK_IDENTS.finditer(text):
                report(path, line_of(text, m.start()),
                       f"panel-packing helper {m.group(0)} referenced "
                       "outside gemm_pack/packed_weights/the AVX2 "
                       "backend TUs")


# --- Rule 3: every VITALITY_* knob is documented in README --------------

def check_knobs_documented():
    readme = open(os.path.join(REPO, "README.md")).read()
    knobs = {}  # name -> (path, line)
    for path in src_files(".cpp"):
        text = open(path).read()
        for m in re.finditer(r'getenv\("(VITALITY_[A-Z0-9_]+)"\)', text):
            knobs.setdefault(m.group(1), (path, line_of(text, m.start())))
    cmake_path = os.path.join(REPO, "CMakeLists.txt")
    cmake = open(cmake_path).read()
    for m in re.finditer(r"option\((VITALITY_[A-Z0-9_]+)", cmake):
        knobs.setdefault(m.group(1), (cmake_path, line_of(cmake, m.start())))
    for name, (path, line) in sorted(knobs.items()):
        if name not in readme:
            report(path, line, f"knob {name} is not documented in README.md")


# --- Rule 3b: every VITALITY_* knob rides RuntimeOptions ----------------

def check_knobs_in_runtime_options():
    """Every VITALITY_* environment knob read anywhere in src/ must
    also be resolved by RuntimeOptions::fromEnv (runtime_options.cpp):
    RuntimeOptions is the one-struct surface the serving layer pins
    per model, and a knob that exists only as a scattered getenv read
    silently falls out of that surface."""
    ro_path = os.path.join(REPO, "src", "runtime", "runtime_options.cpp")
    text = open(ro_path).read()
    m = re.search(r"RuntimeOptions::fromEnv\s*\(\s*\)\s*\{", text)
    if not m:
        report(ro_path, 1, "RuntimeOptions::fromEnv not found")
        return
    depth, i = 1, m.end()
    while i < len(text) and depth:
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
        i += 1
    body = text[m.end():i]
    for path in src_files(".cpp"):
        src = open(path).read()
        for k in re.finditer(r'getenv\("(VITALITY_[A-Z0-9_]+)"\)', src):
            if k.group(1) not in body:
                report(path, line_of(src, k.start()),
                       f"knob {k.group(1)} is not resolved by "
                       "RuntimeOptions::fromEnv")


# --- Rule 4: AVX2 TU pairing and intrinsic containment ------------------

AVX2_HEADERS = {"avx2_math.h"}


def check_avx2_pairing():
    for path in src_files(".cpp"):
        base = os.path.basename(path)
        text = strip_comments(open(path).read())
        m = re.search(r"_mm\d+_\w+", text)
        if base.endswith("_avx2.cpp"):
            sibling = path.replace("_avx2.cpp", ".cpp")
            if not os.path.exists(sibling):
                report(path, 1,
                       f"{base} has no scalar sibling "
                       f"{os.path.basename(sibling)}")
        elif m:
            report(path, line_of(text, m.start()),
                   "AVX2 intrinsics outside an *_avx2.cpp translation unit")
    for path in src_files(".h"):
        base = os.path.basename(path)
        if base in AVX2_HEADERS:
            continue
        text = strip_comments(open(path).read())
        m = re.search(r"_mm\d+_\w+", text)
        if m:
            report(path, line_of(text, m.start()),
                   "AVX2 intrinsics in a header not declared AVX2-only")


# --- Rule 5: include layering -------------------------------------------

INCLUDE = re.compile(r'^\s*#\s*include\s+"(\w+)/[\w./]+"', re.M)


def check_layering():
    for ext in (".h", ".cpp"):
        for path in src_files(ext):
            subdir = os.path.relpath(
                path, os.path.join(REPO, "src")).split(os.sep)[0]
            own = LAYER.get(subdir)
            if own is None:
                report(path, 1, f"unknown layer directory '{subdir}'")
                continue
            text = open(path).read()
            for m in INCLUDE.finditer(text):
                dep = LAYER.get(m.group(1))
                if dep is None:
                    continue  # not a layer-qualified include
                if dep > own:
                    report(path, line_of(text, m.start()),
                           f"layer '{subdir}' (level {own}) includes "
                           f"'{m.group(1)}' (level {dep}); dependencies "
                           "must point downward")


# --- Rule 6: header-guard convention ------------------------------------

def check_header_guards():
    roots = [("src", os.path.join(REPO, "src")),
             ("tests", os.path.join(REPO, "tests"))]
    for label, root in roots:
        for dirpath, _, names in os.walk(root):
            for name in sorted(names):
                if not name.endswith(".h"):
                    continue
                path = os.path.join(dirpath, name)
                rel = os.path.relpath(path, root)
                guard = "VITALITY_" + (
                    (label.upper() + "_") if label != "src" else ""
                ) + re.sub(r"[/.]", "_", rel).upper()
                text = open(path).read()
                if f"#ifndef {guard}" not in text or \
                        f"#define {guard}" not in text:
                    report(path, 1, f"missing include guard {guard}")


# --- Rule 7: no libm transcendental in the GEMM write-back ---------------

LIBM_TRANSCENDENTAL = re.compile(
    r"(?<![\w.>])(?:std::)?"
    r"((?:a?(?:sin|cos|tan)h?|atan2|exp|exp2|expm1|log|log2|log10|log1p|"
    r"pow|erf|erfc|tgamma|lgamma|cbrt)[fl]?)\s*\(")


def check_epilogue_libm():
    tensor = os.path.join(REPO, "src", "tensor")
    for name in sorted(os.listdir(tensor)):
        if not (name.startswith("gemm") and name.endswith((".cpp", ".h"))):
            continue
        path = os.path.join(tensor, name)
        text = strip_comments(open(path).read())
        for m in LIBM_TRANSCENDENTAL.finditer(text):
            report(path, line_of(text, m.start()),
                   f"libm transcendental {m.group(1)}() in a GEMM "
                   "write-back source; use the polynomial programs "
                   "(geluScalar / tensor/avx2_math.h)")


def main():
    check_hot_path_allocations()
    check_backend_containment()
    check_pack_containment()
    check_knobs_documented()
    check_knobs_in_runtime_options()
    check_avx2_pairing()
    check_layering()
    check_header_guards()
    check_epilogue_libm()
    if violations:
        for v in violations:
            print(v)
        print(f"lint_invariants: {len(violations)} violation(s)")
        return 1
    print("lint_invariants: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
