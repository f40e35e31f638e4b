#!/usr/bin/env python3
"""desc-lint: project-specific static checks for the DESC simulator.

Enforces repo invariants the compiler cannot see:

  hot-path-alloc     no naked new/delete/malloc/free in the event-kernel
                     hot-path files (the kernel is allocation-free in
                     steady state; pooled growth must go through
                     make_unique / container storage).  This token scan
                     is the no-toolchain FALLBACK for desc-analyze's
                     AST-grade hot-path-alloc check (tools/analyze);
                     when libclang is available the build passes
                     --without-ast-superseded and the AST check takes
                     over
  env-registry       no raw getenv/setenv outside src/common/env.cc —
                     every DESC_* knob is declared once in
                     src/common/env_registry.def and read through the
                     typed desc::env registry
  stat-description   every StatRegistry registration carries a
                     non-empty description (the registry is the single
                     source of truth for reported numbers)
  trace-channel      every DESC_TRACE_EVENT/HOST channel is declared in
                     the central Channel enum, and the enum and the
                     kNames table in trace.cc stay in sync
  prof-component     every DESC_PROF_SCOPE/DESC_PROF_CYCLES component
                     is declared in the central Component enum, and the
                     enum and the kNames table in prof.cc stay in sync
  determinism        no std::rand/srand/time()/clock() in src/ — all
                     randomness goes through desc::Rng, all timing
                     through the event queue (bit-exact repro rule)
  include-guard      every header under src/ carries the canonical
                     DESC_<PATH>_HH include guard
  test-include       src/ never includes from tests/
  contract-include   files using DESC_ASSERT/DESC_DCHECK/
                     DESC_UNREACHABLE include common/contract.hh
                     directly, not transitively
  popcount           no std::popcount / __builtin_popcount* in src/ —
                     the build enables no POPCNT, so those are libgcc
                     calls; count bits with swar::popcount64
                     (src/common/swar.hh)
  event-pool         no std::vector<...Event *> declaration outside
                     src/sim/eventq.hh — a vector of event pointers is
                     a hand-rolled free list; runtime-sized events
                     come from a sim::Pool

Usage:
  desc_lint.py [--root DIR]     lint the tree (exit 1 on findings)
  desc_lint.py --self-test      verify the checks against the bundled
                                fixture files (exit 1 on miss)
  --without-ast-superseded      skip the token-scan checks that
                                desc-analyze covers with real ASTs
                                (passed by the build when libclang is
                                available)
"""

import argparse
import re
import sys
from pathlib import Path

# Files whose steady state must not allocate: the event kernel and the
# schedulers that run per simulated event.
HOT_PATH_FILES = [
    "src/sim/eventq.hh",
    "src/common/bitvec.hh",
    "src/core/chunk.cc",
    "src/core/descscheme.cc",
    # The link and its endpoints: every per-block buffer is sized at
    # construction, so a transfer stays allocation-free.
    "src/core/link.cc",
    "src/core/transmitter.cc",
    "src/core/receiver.cc",
    # The bit-plane ticked engine (DESIGN.md §15): wire planes and the
    # word-wide toggle banks run once per simulated link cycle; every
    # plane buffer is sized at construction or loadBlock.
    "src/core/wires.hh",
    "src/core/toggle.hh",
    # The batched encoder passes (word-at-a-time SWAR loops) and the
    # per-transfer codecs the L2 runs on every block: baseline
    # encoders and the SECDED mask-fold.
    "src/common/swar.hh",
    "src/encoding/scheme.cc",
    "src/encoding/binary.cc",
    "src/encoding/dzc.cc",
    "src/encoding/businvert.cc",
    "src/ecc/blockcodec.cc",
    # The L2 transaction chain: request, tag-probe and response events
    # come from per-hierarchy pools; the L2's block payloads live in
    # one hierarchy-owned array sized at construction (the
    # set-associative arrays keep only tags, recency and line state).
    "src/cache/array.hh",
    "src/cache/blockdata.hh",
    "src/cache/hierarchy.cc",
    # The cores schedule a dispatch or continuation event per retired
    # burst and must reuse their own pinned event objects.
    "src/cpu/inorder.cc",
    "src/cpu/ooo.cc",
]

SRC_EXTENSIONS = {".cc", ".hh"}


class Finding:
    def __init__(self, check, path, line, message):
        self.check = check
        self.path = path
        self.line = line
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.check}] {self.message}"


def strip_comments(text):
    """Blank out comments and string/char literals, preserving line
    structure, so token checks do not fire on documentation."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line | block | str | chr
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "str"
                out.append(c)
                i += 1
                continue
            if c == "'":
                state = "chr"
                out.append(c)
                i += 1
                continue
            out.append(c)
        elif state == "line":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
        elif state == "block":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append(c if c == "\n" else " ")
        elif state in ("str", "chr"):
            quote = '"' if state == "str" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
                out.append(c)
            else:
                out.append(" ")
        i += 1
    return "".join(out)


def iter_source(root, subdir="src"):
    base = root / subdir
    for path in sorted(base.rglob("*")):
        if path.suffix in SRC_EXTENSIONS and path.is_file():
            yield path


def line_of(text, pos):
    return text.count("\n", 0, pos) + 1


# --- checks -------------------------------------------------------


GETENV_RE = re.compile(
    r"(?<![\w.:])(?:std\s*::\s*)?"
    r"(?:secure_getenv|getenv|setenv|putenv|unsetenv)\s*\(")


def check_env_registry(root, rel, text, code, findings):
    if rel == "src/common/env.cc":
        return  # the registry's own implementation
    for m in GETENV_RE.finditer(code):
        findings.append(Finding(
            "env-registry", rel, line_of(code, m.start()),
            "raw environment access outside src/common/env.cc: declare "
            "the knob in src/common/env_registry.def and read it "
            "through desc::env"))


def check_hot_path_alloc(root, rel, text, code, findings):
    if rel not in HOT_PATH_FILES:
        return
    for m in re.finditer(
            r"(?<![\w.])(new\s+[A-Za-z_:<]|delete\s|delete\[\]"
            r"|malloc\s*\(|free\s*\(|calloc\s*\(|realloc\s*\()", code):
        findings.append(Finding(
            "hot-path-alloc", rel, line_of(code, m.start()),
            "naked allocation in an event-kernel hot-path file "
            "(pool it, or grow through owned container storage)"))


STAT_ADD_RE = re.compile(
    r"\b(?:reg|registry)\s*(?:\.|->)\s*(add(?:Scalar|Int|Text)?)\s*\(")


def split_args(code, open_paren):
    """Return (args, end) for the call whose '(' is at open_paren."""
    depth = 0
    args = []
    start = open_paren + 1
    i = open_paren
    while i < len(code):
        c = code[i]
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
            if depth == 0:
                args.append(code[start:i])
                return args, i
        elif c == "," and depth == 1:
            args.append(code[start:i])
            start = i + 1
        i += 1
    return None, None


def check_stat_descriptions(root, rel, text, code, findings):
    for m in STAT_ADD_RE.finditer(code):
        args, end = split_args(code, m.end() - 1)
        line = line_of(code, m.start())
        if args is None:
            continue
        method = m.group(1)
        want = 3  # path, value/object, description
        if len(args) < want:
            findings.append(Finding(
                "stat-description", rel, line,
                f"StatRegistry::{method}() without a description "
                f"argument"))
            continue
        # The description is the last argument; when it is a literal in
        # the original text, it must be non-empty.
        orig_args, _ = split_args(text, m.end() - 1)
        last = orig_args[-1].strip() if orig_args else ""
        if re.fullmatch(r'""', last):
            findings.append(Finding(
                "stat-description", rel, line,
                f"StatRegistry::{method}() with an empty description"))


def parse_channel_enum(root):
    trace_hh = root / "src/common/trace.hh"
    if not trace_hh.is_file():
        return None, None
    text = trace_hh.read_text()
    code = strip_comments(text)
    m = re.search(r"enum\s+class\s+Channel[^{]*\{([^}]*)\}", code)
    if not m:
        return None, None
    names = re.findall(r"^\s*([A-Z]\w*)\s*,?\s*$", m.group(1), re.M)
    return names, text


def check_trace_channels(root, findings, src_iter):
    enum_names, _ = parse_channel_enum(root)
    if enum_names is None:
        findings.append(Finding(
            "trace-channel", "src/common/trace.hh", 1,
            "cannot parse the Channel enum"))
        return
    trace_cc = root / "src/common/trace.cc"
    if trace_cc.is_file():
        cc = trace_cc.read_text()
        m = re.search(
            r"kNames\s*\[\s*kNumChannels\s*\]\s*=\s*\{([^}]*)\}", cc)
        if not m:
            findings.append(Finding(
                "trace-channel", "src/common/trace.cc", 1,
                "cannot find the central kNames channel table"))
        else:
            table = re.findall(r'"(\w+)"', m.group(1))
            if len(table) != len(enum_names):
                findings.append(Finding(
                    "trace-channel", "src/common/trace.cc",
                    line_of(cc, m.start()),
                    f"channel table has {len(table)} entries but the "
                    f"Channel enum declares {len(enum_names)}"))
            else:
                for e, t in zip(enum_names, table):
                    if e.lower() != t:
                        findings.append(Finding(
                            "trace-channel", "src/common/trace.cc",
                            line_of(cc, m.start()),
                            f'table entry "{t}" does not match enum '
                            f"value {e}"))
    declared = set(enum_names)
    for path, rel, text, code in src_iter:
        if rel.endswith("common/trace.hh"):
            continue  # the macro definitions themselves
        for m in re.finditer(
                r"DESC_TRACE_(?:EVENT|HOST)\s*\(\s*(\w+)", code):
            if m.group(1) not in declared:
                findings.append(Finding(
                    "trace-channel", rel, line_of(code, m.start()),
                    f"trace channel {m.group(1)} is not declared in "
                    f"the central Channel table (src/common/trace.hh)"))


def parse_component_enum(root):
    prof_hh = root / "src/common/prof.hh"
    if not prof_hh.is_file():
        return None
    code = strip_comments(prof_hh.read_text())
    m = re.search(r"enum\s+class\s+Component[^{]*\{([^}]*)\}", code)
    if not m:
        return None
    return re.findall(r"^\s*([A-Z]\w*)\s*,?\s*$", m.group(1), re.M)


def check_prof_components(root, findings, src_iter):
    enum_names = parse_component_enum(root)
    if enum_names is None:
        findings.append(Finding(
            "prof-component", "src/common/prof.hh", 1,
            "cannot parse the Component enum"))
        return
    prof_cc = root / "src/common/prof.cc"
    if prof_cc.is_file():
        cc = prof_cc.read_text()
        m = re.search(
            r"kNames\s*\[\s*kNumComponents\s*\]\s*=\s*\{([^}]*)\}", cc)
        if not m:
            findings.append(Finding(
                "prof-component", "src/common/prof.cc", 1,
                "cannot find the central kNames component table"))
        else:
            table = re.findall(r'"([\w.]+)"', m.group(1))
            if len(table) != len(enum_names):
                findings.append(Finding(
                    "prof-component", "src/common/prof.cc",
                    line_of(cc, m.start()),
                    f"component table has {len(table)} entries but the "
                    f"Component enum declares {len(enum_names)}"))
            else:
                for e, t in zip(enum_names, table):
                    # "cache.access" names the CacheAccess enum value.
                    if e.lower() != t.replace(".", ""):
                        findings.append(Finding(
                            "prof-component", "src/common/prof.cc",
                            line_of(cc, m.start()),
                            f'table entry "{t}" does not match enum '
                            f"value {e}"))
    declared = set(enum_names)
    for path, rel, text, code in src_iter:
        if rel.endswith("common/prof.hh"):
            continue  # the macro definitions themselves
        for m in re.finditer(
                r"DESC_PROF_(?:SCOPE|CYCLES)\s*\(\s*(\w+)", code):
            if m.group(1) not in declared:
                findings.append(Finding(
                    "prof-component", rel, line_of(code, m.start()),
                    f"profiler component {m.group(1)} is not declared "
                    f"in the central Component table "
                    f"(src/common/prof.hh)"))


DETERMINISM_RE = re.compile(
    r"(?<![\w.:])(?:std\s*::\s*)?(?:rand|srand|rand_r|drand48)\s*\("
    r"|(?<![\w.:])time\s*\(\s*(?:NULL|nullptr|0)?\s*\)"
    r"|(?<![\w.:])clock\s*\(\s*\)")


def check_determinism(root, rel, text, code, findings):
    for m in DETERMINISM_RE.finditer(code):
        findings.append(Finding(
            "determinism", rel, line_of(code, m.start()),
            "non-deterministic source (%s): use desc::Rng / the event "
            "queue clock" % code[m.start():m.end()].strip()))


def expected_guard(rel):
    stem = rel[len("src/"):] if rel.startswith("src/") else rel
    return "DESC_" + re.sub(r"[/.]", "_", stem).upper()


def check_include_guard(root, rel, text, code, findings):
    if not rel.endswith(".hh"):
        return
    guard = expected_guard(rel)
    ifndef = re.search(r"#ifndef\s+(\w+)", text)
    define = re.search(r"#define\s+(\w+)", text)
    if not ifndef or not define or ifndef.group(1) != define.group(1):
        findings.append(Finding(
            "include-guard", rel, 1,
            f"missing or mismatched include guard (expected {guard})"))
        return
    if ifndef.group(1) != guard:
        findings.append(Finding(
            "include-guard", rel, line_of(text, ifndef.start()),
            f"include guard {ifndef.group(1)} should be {guard}"))


def check_test_include(root, rel, text, code, findings):
    for m in re.finditer(r'#include\s+"((?:\.\./)*tests/[^"]*)"', text):
        findings.append(Finding(
            "test-include", rel, line_of(text, m.start()),
            f"src/ must not include from tests/ ({m.group(1)})"))


CONTRACT_MACROS_RE = re.compile(
    r"\b(DESC_ASSERT|DESC_DCHECK|DESC_UNREACHABLE)\s*\(")


def check_contract_include(root, rel, text, code, findings):
    if rel.endswith("common/contract.hh"):
        return
    m = CONTRACT_MACROS_RE.search(code)
    if not m:
        return
    if not re.search(r'#include\s+"common/contract\.hh"', text):
        findings.append(Finding(
            "contract-include", rel, line_of(code, m.start()),
            f"{m.group(1)} used without a direct include of "
            f"common/contract.hh"))


POPCOUNT_RE = re.compile(
    r"(?<![\w.])(?:std\s*::\s*popcount|__builtin_popcount\w*)\b")


def check_popcount(root, rel, text, code, findings):
    for m in POPCOUNT_RE.finditer(code):
        findings.append(Finding(
            "popcount", rel, line_of(code, m.start()),
            "%s compiles to a libgcc call without POPCNT: use "
            "swar::popcount64 (src/common/swar.hh)" % m.group(0)))


EVENT_FREE_LIST_RE = re.compile(
    r"\bvector\s*<\s*(?:const\s+)?[\w:]*Event\s*\*\s*>\s*\w+\s*[;{=]")


def check_event_pool(root, rel, text, code, findings):
    if rel == "src/sim/eventq.hh":
        return  # sim::Pool's own free list
    for m in EVENT_FREE_LIST_RE.finditer(code):
        findings.append(Finding(
            "event-pool", rel, line_of(code, m.start()),
            "a vector of Event pointers is a hand-rolled event free "
            "list: draw runtime-sized events from a sim::Pool "
            "(src/sim/eventq.hh)"))


PER_FILE_CHECKS = [
    check_hot_path_alloc,
    check_env_registry,
    check_stat_descriptions,
    check_determinism,
    check_include_guard,
    check_test_include,
    check_contract_include,
    check_popcount,
    check_event_pool,
]

# Token scans that desc-analyze (tools/analyze/desc_analyze.py)
# re-implements on real ASTs. They stay here as the degraded fallback
# for toolchains without libclang; a build that has the AST checks
# passes --without-ast-superseded to retire the duplicates.
AST_SUPERSEDED_CHECKS = [check_hot_path_alloc]


def active_checks(ast_superseded=True):
    if ast_superseded:
        return PER_FILE_CHECKS
    return [c for c in PER_FILE_CHECKS
            if c not in AST_SUPERSEDED_CHECKS]


def lint(root, subdir="src", ast_superseded=True):
    findings = []
    sources = []
    for path in iter_source(root, subdir):
        rel = path.relative_to(root).as_posix()
        text = path.read_text()
        code = strip_comments(text)
        sources.append((path, rel, text, code))
    for path, rel, text, code in sources:
        for check in active_checks(ast_superseded):
            check(root, rel, text, code, findings)
    check_trace_channels(root, findings, sources)
    check_prof_components(root, findings, sources)
    return findings


# --- self-test against the fixtures -------------------------------

# Every fixture file must trigger exactly the listed checks (and the
# clean fixture none), proving the rules catch deliberate violations.
FIXTURE_EXPECT = {
    "fixtures/bad/hotpath.hh": {
        "hot-path-alloc", "include-guard", "contract-include"},
    "fixtures/bad/fastpath.cc": {"hot-path-alloc"},
    "fixtures/bad/planes.cc": {"hot-path-alloc"},
    "fixtures/bad/stats_use.cc": {"stat-description"},
    "fixtures/bad/tracing.cc": {"trace-channel"},
    "fixtures/bad/profiling.cc": {"prof-component"},
    "fixtures/bad/entropy.cc": {"determinism", "test-include"},
    "fixtures/bad/envknob.cc": {"env-registry"},
    "fixtures/bad/popcount.cc": {"popcount"},
    "fixtures/bad/freelist.cc": {"event-pool"},
    "fixtures/good/clean.hh": set(),
    "fixtures/good/pooled.cc": set(),
}


def self_test(tool_root, repo_root):
    ok = True
    # The allocation ban is only as good as its file list: a hot-path
    # file that was renamed or deleted would silently drop coverage.
    for rel in HOT_PATH_FILES:
        if not (repo_root / rel).is_file():
            print(f"self-test: HOT_PATH_FILES entry missing on disk: {rel}")
            ok = False
    findings = []
    sources = []
    for rel in FIXTURE_EXPECT:
        path = tool_root / rel
        if not path.is_file():
            print(f"self-test: missing fixture {rel}")
            ok = False
            continue
        text = path.read_text()
        sources.append((path, rel, text, strip_comments(text)))
    for path, rel, text, code in sources:
        # Fixture headers use src/-style guard expectations relative to
        # their fixture name, so point the guard check at the rel path.
        for check in PER_FILE_CHECKS:
            if check is check_hot_path_alloc:
                # Treat every bad fixture as a hot-path file.
                if "bad/" in rel:
                    saved = HOT_PATH_FILES[:]
                    HOT_PATH_FILES.append(rel)
                    check(repo_root, rel, text, code, findings)
                    HOT_PATH_FILES[:] = saved
                continue
            check(repo_root, rel, text, code, findings)
    # Channel/component declarations come from the real tree; fixture
    # trace and prof points reference bogus names.
    check_trace_channels(repo_root, findings, sources)
    check_prof_components(repo_root, findings, sources)

    by_file = {rel: set() for rel in FIXTURE_EXPECT}
    for f in findings:
        if f.path in by_file:
            by_file[f.path].add(f.check)
    for rel, expected in FIXTURE_EXPECT.items():
        got = by_file.get(rel, set())
        if got != expected:
            print(f"self-test: {rel}: expected checks {sorted(expected)}"
                  f", got {sorted(got)}")
            ok = False
    # The fallback flag must actually retire the superseded scans and
    # nothing else.
    degraded = active_checks(ast_superseded=False)
    if check_hot_path_alloc in degraded:
        print("self-test: --without-ast-superseded keeps the "
              "hot-path-alloc token scan alive")
        ok = False
    if set(PER_FILE_CHECKS) - set(degraded) != set(AST_SUPERSEDED_CHECKS):
        print("self-test: --without-ast-superseded retires checks that "
              "have no AST replacement")
        ok = False
    print("self-test:", "ok" if ok else "FAILED")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", default=None,
                    help="repository root (default: two levels up)")
    ap.add_argument("--self-test", action="store_true",
                    help="run the checks against the bundled fixtures")
    ap.add_argument("--without-ast-superseded", action="store_true",
                    help="skip token scans that desc-analyze covers "
                         "with real ASTs (libclang available)")
    args = ap.parse_args()

    tool_root = Path(__file__).resolve().parent
    root = Path(args.root).resolve() if args.root \
        else tool_root.parent.parent

    if args.self_test:
        sys.exit(0 if self_test(tool_root, root) else 1)

    findings = lint(root, ast_superseded=not args.without_ast_superseded)
    for f in findings:
        print(f)
    if findings:
        print(f"desc-lint: {len(findings)} finding(s)")
        sys.exit(1)
    if args.without_ast_superseded:
        print("desc-lint: clean (hot-path-alloc delegated to "
              "desc-analyze)")
    else:
        print("desc-lint: clean")


if __name__ == "__main__":
    main()
