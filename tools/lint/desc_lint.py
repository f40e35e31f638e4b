#!/usr/bin/env python3
"""desc-lint: project-specific static checks for the DESC simulator.

Enforces repo invariants the compiler cannot see (the compiler owns
narrowing: src/ builds with -Werror=conversion):

  hot-path-alloc     in the event-kernel hot-path files: no naked
                     new/delete/malloc/free (the kernel is
                     allocation-free in steady state; pooled growth
                     must go through make_unique / container storage),
                     and no function-local std:: container,
                     std::string or std::function, which owns heap
                     storage per call. References, pointers, statics
                     and `= std::move(...)` locals are exempt; a
                     deliberate set-up local carries
                     `// lint:allow(hot-path-alloc) <reason>` on its
                     line or the line above
  event-lifetime     classes derived from sim::Event stay pinned: no
                     copy constructor or copy assignment that is not
                     `= delete`, no by-value parameter or return, no
                     function-local instance (the queue holds event
                     addresses while they are scheduled)
  env-registry       no raw getenv/setenv outside src/common/env.cc —
                     every DESC_* knob is declared once in
                     src/common/env_registry.def (alphabetical,
                     unique, documented; every "DESC_*" string
                     literal in src/ names one) and read through the
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
  desc_lint.py --list-env       print the README knob table generated
                                from the env registry
  desc_lint.py --check-env-docs [DOC]
                                DOC's knob table (default README.md)
                                must match --list-env (exit 1 if not)
"""

import argparse
import bisect
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


NUMBER_TAIL_RE = re.compile(r"(?<![\w'])\d[\w']*$")


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
            # A quote inside a number (150'000) is a digit separator.
            if c == "'" and not NUMBER_TAIL_RE.search(text, max(0, i - 64), i):
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


def is_hot_path(rel):
    # The self-test holds every fixture to the hot-path rules.
    return rel in HOT_PATH_FILES or rel.startswith("fixtures/")


def check_hot_path_alloc(root, rel, text, code, findings):
    if not is_hot_path(rel):
        return
    for m in re.finditer(
            r"(?<![\w.])(new\s+[A-Za-z_:<]|delete\s|delete\[\]"
            r"|malloc\s*\(|free\s*\(|calloc\s*\(|realloc\s*\()", code):
        findings.append(Finding(
            "hot-path-alloc", rel, line_of(code, m.start()),
            "naked allocation in an event-kernel hot-path file "
            "(pool it, or grow through owned container storage)"))


# --- scoped declarations: event-lifetime, hidden hot-path allocation

CLASS_HEAD_RE = re.compile(
    r"(?:template\s*<[^;]*?>\s*)?(?:class|struct|union|enum)\b", re.S)
ACCESS_LABEL_RE = re.compile(
    r"^(?:(?:public|private|protected)\s*:(?!:)\s*)+")
DELETED_RE = re.compile(r"\s*=\s*delete\b")


def opens_local_scope(header, parent_local):
    """Whether the '{' after header (the text since the previous ';',
    '{' or '}') opens function-local code: a function, lambda or
    statement body, not a class, namespace or brace initializer."""
    h = re.sub(r"^\s*#.*$", "", header, flags=re.M).strip()
    h = ACCESS_LABEL_RE.sub("", h)
    if CLASS_HEAD_RE.match(h):
        return False
    return parent_local or "(" in h


def local_scope_map(code):
    """Sorted brace positions, each paired with whether the code after
    it is function-local (inside a function, lambda or statement body
    and not in a class defined there)."""
    positions, local = [-1], [False]
    stack = []
    header_start = 0
    for i, c in enumerate(code):
        if c == ";":
            header_start = i + 1
        elif c == "{":
            parent_local = bool(stack) and stack[-1]
            stack.append(opens_local_scope(code[header_start:i],
                                           parent_local))
            positions.append(i)
            local.append(stack[-1])
            header_start = i + 1
        elif c == "}":
            if stack:
                stack.pop()
            positions.append(i)
            local.append(bool(stack) and stack[-1])
            header_start = i + 1
    return positions, local


def is_local(scope_map, pos):
    positions, local = scope_map
    return local[bisect.bisect_right(positions, pos) - 1]


def open_paren_owner(code, pos):
    """For a position inside an unclosed '(' of its statement, the word
    before that paren ('' when there is none); None outside parens."""
    depth = 0
    i = pos - 1
    while i >= 0 and code[i] not in ";{}":
        if code[i] == ")":
            depth += 1
        elif code[i] == "(":
            if depth == 0:
                m = re.search(r"(\w*)\s*$", code[:i])
                return m.group(1)
            depth -= 1
        i -= 1
    return None


def skip_template_args(code, i):
    """Index just past a balanced <...> at code[i] (after blanks), or
    i when none starts there."""
    j = i
    while j < len(code) and code[j].isspace():
        j += 1
    if j == len(code) or code[j] != "<":
        return i
    depth = 0
    while j < len(code):
        if code[j] == "<":
            depth += 1
        elif code[j] == ">":
            depth -= 1
            if depth == 0:
                return j + 1
        elif code[j] in ";{}":
            return i
        j += 1
    return i


# `Type name` followed by what can end a declarator: the declared name
# (qualified for an out-of-line function) and the character after it.
DECLARATOR_RE = re.compile(
    r"\s+(?:const\s+)?([A-Za-z_]\w*(?:\s*::\s*~?[A-Za-z_]\w*)*)\s*"
    r"([;({=,)\[]|:(?!:))")
STATIC_PREFIX_RE = re.compile(
    r"\b(?:static|thread_local)\s+(?:(?:const|constexpr|inline)\s+)*$")
MOVED_INIT_RE = re.compile(r"\s*[=({]\s*std\s*::\s*move\s*\(")
STATEMENT_PARENS = {"for", "if", "while", "switch"}

# Standard types whose objects own heap storage.
ALLOCATING_STD_RE = re.compile(
    r"(?<![\w:])std\s*::\s*(?:vector|basic_string|string|deque|list|"
    r"forward_list|map|set|multimap|multiset|unordered_map|"
    r"unordered_set|unordered_multimap|unordered_multiset|function)\b"
    r"(?!\s*::)")


def declarations(code, type_re, scope_map):
    """Yield (pos, name, where, moved) for each `T name` declarator
    whose type matches type_re. where is "param" inside a function's
    parentheses, "local" in a function body (statics excluded: they
    are set up once), "function" for a by-value return at namespace
    or class scope, and None for a member or global."""
    for m in type_re.finditer(code):
        d = DECLARATOR_RE.match(code, skip_template_args(code, m.end()))
        if not d or d.group(1) in ("final", "override"):
            continue
        owner = open_paren_owner(code, m.start())
        local = is_local(scope_map, m.start())
        if owner is not None and owner not in STATEMENT_PARENS:
            where = "param"
        elif local:
            prefix = code[max(0, m.start() - 60):m.start()]
            where = None if STATIC_PREFIX_RE.search(prefix) else "local"
        elif d.group(2) == "(":
            where = "function"
        else:
            where = None
        moved = bool(MOVED_INIT_RE.match(code, d.end(2) - 1))
        yield m.start(), d.group(1), where, moved


EVENT_CLASS_RE = re.compile(r"\b(?:class|struct)\s+(\w+)([^;{()]*)\{")


def event_classes(sources):
    """Names of the classes that derive (transitively) from Event."""
    bases = {}
    for path, rel, text, code in sources:
        for m in EVENT_CLASS_RE.finditer(code):
            clause = re.split(r"(?<!:):(?!:)", m.group(2), maxsplit=1)
            if len(clause) == 2:
                bases[m.group(1)] = set(re.findall(r"\w+", clause[1]))
    names = set()
    grew = True
    while grew:
        grew = False
        for name, parents in bases.items():
            if name not in names and parents & (names | {"Event"}):
                names.add(name)
                grew = True
    return names


def allowed(text, line, check):
    """A `lint:allow(<check>)` marker on the line or the line above."""
    lines = text.splitlines()
    marker = f"lint:allow({check})"
    return any(marker in lines[n - 1]
               for n in (line, line - 1) if 1 <= n <= len(lines))


def check_scoped_declarations(root, findings, sources):
    names = sorted(event_classes(sources))
    event_re = re.compile(
        rf"(?<![\w:])(?:[A-Za-z_]\w*\s*::\s*)*(?:{'|'.join(names)})\b"
        rf"(?!\s*::)") if names else None
    for path, rel, text, code in sources:
        scope_map = local_scope_map(code)
        for name in names:
            copy = (rf"(?:\b(?:\w+\s*::\s*)*{name}|\boperator\s*=)"
                    rf"\s*\(\s*const\s+(?:\w+\s*::\s*)*{name}\s*&\s*\w*"
                    rf"\s*\)")
            for m in re.finditer(copy, code):
                if not DELETED_RE.match(code, m.end()):
                    findings.append(Finding(
                        "event-lifetime", rel, line_of(code, m.start()),
                        f"{name} derives sim::Event but declares a copy "
                        f"operation that is not = delete: events are "
                        f"pinned while scheduled"))
        decls = declarations(code, event_re, scope_map) if names else ()
        for pos, ident, where, _moved in decls:
            if where is None:
                continue
            what = {"param": f"by-value Event parameter {ident}",
                    "local": f"function-local Event {ident}",
                    "function": f"{ident}() returns an Event by value"}
            findings.append(Finding(
                "event-lifetime", rel, line_of(code, pos),
                f"{what[where]}: a scheduled event must outlive its "
                f"queue slot; own it in the component and pass it by "
                f"reference"))
        if not is_hot_path(rel):
            continue
        for pos, ident, where, moved in declarations(
                code, ALLOCATING_STD_RE, scope_map):
            line = line_of(code, pos)
            if where != "local" or moved \
                    or allowed(text, line, "hot-path-alloc"):
                continue
            findings.append(Finding(
                "hot-path-alloc", rel, line,
                f"local {ident} owns heap storage per call in a "
                f"hot-path file (hoist it into the owner and reuse "
                f"its capacity)"))


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


def run_checks(root, findings, sources):
    for path, rel, text, code in sources:
        for check in PER_FILE_CHECKS:
            check(root, rel, text, code, findings)
    check_scoped_declarations(root, findings, sources)
    check_trace_channels(root, findings, sources)
    check_prof_components(root, findings, sources)


def lint(root, subdir="src"):
    findings = []
    sources = []
    for path in iter_source(root, subdir):
        rel = path.relative_to(root).as_posix()
        text = path.read_text()
        sources.append((path, rel, text, strip_comments(text)))
    run_checks(root, findings, sources)
    return findings


# --- env registry (the README knob table) -------------------------

REGISTRY_DEF = "src/common/env_registry.def"


def parse_registry(root):
    """Return the DESC_ENV_VAR entries of env_registry.def, in file
    order, as dicts with id/name/type/default/doc."""
    text = (root / REGISTRY_DEF).read_text()
    entries = []
    for m in re.finditer(r"^DESC_ENV_VAR\(", text, re.M):
        depth, i = 0, m.end() - 1
        start = i + 1
        while i < len(text):
            if text[i] == "(":
                depth += 1
            elif text[i] == ")":
                depth -= 1
                if depth == 0:
                    break
            i += 1
        body = text[start:i]
        # Split top-level commas, then fold adjacent string literals.
        args, level, cur = [], 0, []
        in_str = False
        j = 0
        while j < len(body):
            c = body[j]
            if in_str:
                cur.append(c)
                if c == "\\":
                    cur.append(body[j + 1])
                    j += 2
                    continue
                if c == '"':
                    in_str = False
            elif c == '"':
                in_str = True
                cur.append(c)
            elif c in "(<[":
                level += 1
                cur.append(c)
            elif c in ")>]":
                level -= 1
                cur.append(c)
            elif c == "," and level == 0:
                args.append("".join(cur).strip())
                cur = []
            else:
                cur.append(c)
            j += 1
        args.append("".join(cur).strip())

        def unquote(s):
            return "".join(re.findall(r'"((?:[^"\\]|\\.)*)"', s))

        if len(args) != 5:
            raise ValueError(
                f"{REGISTRY_DEF}: DESC_ENV_VAR with {len(args)} "
                f"arguments (want 5): {args[:2]}")
        entries.append({
            "id": args[0],
            "name": unquote(args[1]),
            "type": unquote(args[2]),
            "default": unquote(args[3]),
            "doc": unquote(args[4]),
        })
    return entries


ENV_TABLE_BEGIN = "<!-- desc-env-table-begin (desc_lint.py --list-env) -->"
ENV_TABLE_END = "<!-- desc-env-table-end -->"


def env_table(root):
    """The generated markdown env-var table."""
    entries = parse_registry(root)
    rows = [("Variable", "Type", "Default", "Description"),
            ("---", "---", "---", "---")]
    for e in entries:
        rows.append((f"`{e['name']}`", e["type"], f"`{e['default']}`",
                     e["doc"]))
    widths = [max(len(r[c]) for r in rows) for c in range(3)]
    out = []
    for r in rows:
        cells = [r[c].ljust(widths[c]) for c in range(3)] + [r[3]]
        out.append("| " + " | ".join(cells) + " |")
    return "\n".join(out) + "\n"


def check_env_docs(root, readme):
    """Verify the committed README table matches --list-env output."""
    text = (root / readme).read_text()
    begin = text.find(ENV_TABLE_BEGIN)
    end = text.find(ENV_TABLE_END)
    if begin < 0 or end < 0:
        print(f"{readme}: missing {ENV_TABLE_BEGIN} / {ENV_TABLE_END} "
              f"markers")
        return False
    committed = text[begin + len(ENV_TABLE_BEGIN):end].strip("\n")
    generated = env_table(root).strip("\n")
    if committed != generated:
        print(f"{readme}: env-var table is stale; regenerate with "
              f"tools/lint/desc_lint.py --list-env")
        for got, want in zip((committed + "\n").splitlines(),
                             (generated + "\n").splitlines()):
            if got != want:
                print(f"  committed: {got}\n  generated: {want}")
                break
        return False
    print(f"{readme}: env-var table matches the registry "
          f"({len(parse_registry(root))} knobs)")
    return True


def registry_sanity(root):
    """Registry self-checks that need no toolchain: entries parse,
    are alphabetical by variable name, unique, and documented."""
    ok = True
    entries = parse_registry(root)
    names = [e["name"] for e in entries]
    if names != sorted(names):
        print(f"{REGISTRY_DEF}: entries are not alphabetical by name")
        ok = False
    if len(set(names)) != len(names):
        print(f"{REGISTRY_DEF}: duplicate variable names")
        ok = False
    for e in entries:
        if not e["name"].startswith("DESC_"):
            print(f"{REGISTRY_DEF}: {e['name']} lacks the DESC_ prefix")
            ok = False
        if len(e["doc"]) < 10:
            print(f"{REGISTRY_DEF}: {e['name']} has no usable doc "
                  f"string")
            ok = False
        if e["type"] not in ("int", "float", "bool", "path", "spec"):
            print(f"{REGISTRY_DEF}: {e['name']} has unknown type "
                  f"\"{e['type']}\"")
            ok = False
    # Every "DESC_*" string literal in src/ must be a registered knob
    # (catches a knob name read through a macro or a helper).
    declared = set(names)
    helper_macros = {"DESC_ENV_VAR"}
    for path in sorted((root / "src").rglob("*")):
        if path.suffix not in (".cc", ".hh") or not path.is_file():
            continue
        text = path.read_text()
        for m in re.finditer(r'"(DESC_[A-Z][A-Z0-9_]*)"', text):
            name = m.group(1)
            if name not in declared and name not in helper_macros:
                line = text.count("\n", 0, m.start()) + 1
                rel = path.relative_to(root).as_posix()
                print(f"{rel}:{line}: string literal \"{name}\" is "
                      f"not a registered knob in {REGISTRY_DEF}")
                ok = False
    return ok


# --- self-test against the fixtures -------------------------------

# Every fixture file must trigger exactly the listed checks, each the
# listed number of times (and the clean fixtures none), proving the
# rules catch every deliberate violation. Fixtures count as hot-path
# files. fixtures/bad/tick_narrowing.cc is the compiler's: the
# lint.narrowing_fixture ctest case builds it with the src/ flags.
FIXTURE_EXPECT = {
    "fixtures/bad/hotpath.hh": {
        "hot-path-alloc": 2, "include-guard": 1, "contract-include": 1},
    "fixtures/bad/hotpath_hidden_alloc.cc": {"hot-path-alloc": 4},
    "fixtures/bad/fastpath.cc": {"hot-path-alloc": 2},
    "fixtures/bad/planes.cc": {"hot-path-alloc": 2},
    "fixtures/bad/event_copyable.cc": {"event-lifetime": 4},
    "fixtures/bad/stats_use.cc": {"stat-description": 2},
    "fixtures/bad/tracing.cc": {"trace-channel": 1},
    "fixtures/bad/profiling.cc": {"prof-component": 1},
    "fixtures/bad/entropy.cc": {"determinism": 3, "test-include": 1},
    "fixtures/bad/envknob.cc": {"env-registry": 1},
    "fixtures/bad/popcount.cc": {"popcount": 2},
    "fixtures/bad/freelist.cc": {"event-pool": 2},
    "fixtures/good/clean.hh": {},
    "fixtures/good/clean.cc": {},
    "fixtures/good/pooled.cc": {},
}


def self_test(tool_root, repo_root):
    ok = True
    # The allocation ban is only as good as its file list: a hot-path
    # file that was renamed or deleted would silently drop coverage.
    for rel in HOT_PATH_FILES:
        if not (repo_root / rel).is_file():
            print(f"self-test: HOT_PATH_FILES entry missing on disk: {rel}")
            ok = False
    sources = []
    for rel in FIXTURE_EXPECT:
        path = tool_root / rel
        if not path.is_file():
            print(f"self-test: missing fixture {rel}")
            ok = False
            continue
        text = path.read_text()
        sources.append((path, rel, text, strip_comments(text)))
    # Channel/component declarations come from the real tree; fixture
    # trace and prof points reference bogus names.
    findings = []
    run_checks(repo_root, findings, sources)

    by_file = {rel: {} for rel in FIXTURE_EXPECT}
    for f in findings:
        if f.path in by_file:
            got = by_file[f.path]
            got[f.check] = got.get(f.check, 0) + 1
    for rel, expected in FIXTURE_EXPECT.items():
        got = by_file[rel]
        if got != expected:
            print(f"self-test: {rel}: expected {expected}, got {got}")
            for f in findings:
                if f.path == rel:
                    print(f"    {f}")
            ok = False
    print("self-test:", "ok" if ok else "FAILED")
    return ok


def main():
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--root", default=None,
                    help="repository root (default: two levels up)")
    ap.add_argument("--self-test", action="store_true",
                    help="run the checks against the bundled fixtures")
    ap.add_argument("--list-env", action="store_true",
                    help="print the generated DESC_* knob table")
    ap.add_argument("--check-env-docs", nargs="?", const="README.md",
                    default=None, metavar="DOC",
                    help="verify DOC's knob table matches --list-env")
    args = ap.parse_args()

    tool_root = Path(__file__).resolve().parent
    root = Path(args.root).resolve() if args.root \
        else tool_root.parent.parent

    if args.list_env:
        sys.stdout.write(env_table(root))
        return
    if args.check_env_docs is not None:
        ok = registry_sanity(root)
        ok = check_env_docs(root, args.check_env_docs) and ok
        sys.exit(0 if ok else 1)
    if args.self_test:
        sys.exit(0 if self_test(tool_root, root) else 1)

    findings = lint(root)
    for f in findings:
        print(f)
    registry_ok = registry_sanity(root)
    if findings or not registry_ok:
        print(f"desc-lint: {len(findings)} finding(s)"
              + ("" if registry_ok else " + env registry errors"))
        sys.exit(1)
    print("desc-lint: clean")


if __name__ == "__main__":
    main()
