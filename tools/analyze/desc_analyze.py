#!/usr/bin/env python3
"""desc-analyze: AST-grade semantic checks for the DESC simulator.

Where desc-lint (tools/lint/desc_lint.py) pattern-matches tokens,
desc-analyze parses every translation unit in compile_commands.json
with libclang (clang.cindex) and walks real ASTs, so it can express
rules the regex linter cannot:

  env-registry       every std::getenv call outside src/common/env.cc
                     is a finding: all DESC_* knobs must be declared
                     once in src/common/env_registry.def and read
                     through the typed desc::env registry
  hot-path-alloc     real allocation detection in the annotated
                     hot-path file set: new/delete expressions,
                     malloc-family calls, std::function construction,
                     and per-call local containers that the token scan
                     cannot see (declared types, hidden conversions)
  event-lifetime     types deriving desc::sim::Event must stay
                     non-copyable and must never be constructed by
                     value on the stack, passed, or returned by value
                     (the intrusive-kernel contract: events are pinned
                     while scheduled)
  tick-narrowing     implicit conversion of a Cycle/Addr/Picoseconds-
                     typed expression into a narrower integer type —
                     the silent-truncation class of bug the batch-
                     horizon math is most exposed to; an explicit cast
                     records intent and is accepted

Degrades gracefully: when python clang bindings or a loadable
libclang are absent, the AST checks exit with status 77 (the ctest
SKIP_RETURN_CODE) and a notice, mirroring the clang-tidy presets.
The registry tooling (--list-env, --check-env-docs) is pure text
processing and always available.

Usage:
  desc_analyze.py [--root DIR] [--compdb DIR]   analyze the tree
  desc_analyze.py --self-test                   fixture suite
  desc_analyze.py --probe                       exit 0 iff libclang works
  desc_analyze.py --list-env                    print the env-var table
  desc_analyze.py --check-env-docs [README]     table matches the docs
Findings can be suppressed per line with  // analyze:allow(<check>)
and a reason.
"""

import argparse
import json
import re
import shlex
import sys
from pathlib import Path

EXIT_SKIP = 77  # ctest SKIP_RETURN_CODE: toolchain absent, not a failure

TOOL_ROOT = Path(__file__).resolve().parent
sys.path.insert(0, str(TOOL_ROOT.parent / "lint"))
from desc_lint import HOT_PATH_FILES  # single source of truth # noqa: E402

# Wide simulated-quantity typedefs (src/common/types.hh): implicitly
# narrowing any of these into a smaller integer type is a finding.
WIDE_TYPEDEFS = {"Cycle", "Addr", "Picoseconds",
                 "desc::Cycle", "desc::Addr", "desc::Picoseconds"}

# malloc-family callees banned in hot-path files.
ALLOC_CALLEES = {"malloc", "calloc", "realloc", "free", "aligned_alloc",
                 "strdup", "operator new", "operator new[]",
                 "operator delete", "operator delete[]"}

# Local variables of these std:: templates own heap storage, so a
# per-call local in a hot-path file is a hidden allocation.
ALLOCATING_LOCALS = re.compile(
    r"^(?:const\s+)?std::("
    r"vector|basic_string|string|deque|list|forward_list|map|set|"
    r"multimap|multiset|unordered_map|unordered_set|unordered_multimap|"
    r"unordered_multiset|function)\b")

ALLOW_RE = re.compile(r"analyze:allow\(([a-z-]+)\)")


class Finding:
    def __init__(self, check, path, line, message):
        self.check = check
        self.path = path
        self.line = line
        self.message = message

    def key(self):
        return (self.check, self.path, self.line, self.message)

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.check}] {self.message}"


# --- env registry parsing (pure text, no libclang) -----------------

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


ENV_TABLE_BEGIN = "<!-- desc-env-table-begin (desc_analyze.py --list-env) -->"
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
              f"tools/analyze/desc_analyze.py --list-env")
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
    # Every DESC_* environment string mentioned in src/ must be a
    # registered knob (catches a getenv smuggled through a macro as
    # well as stale docs in comments... no: comments are stripped).
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


# --- libclang loading ----------------------------------------------


def load_cindex():
    """Import clang.cindex and confirm libclang actually loads.
    Returns the module or None."""
    try:
        import clang.cindex as ci
    except ImportError:
        return None
    try:
        ci.Index.create()
        return ci
    except Exception:
        pass
    if getattr(ci.Config, "loaded", False):
        return None
    # The default soname lookup failed; probe versioned sonames the
    # distro packages actually ship.
    import ctypes
    import ctypes.util
    for candidate in ("clang-19", "clang-18", "clang-17", "clang-16",
                      "clang-15", "clang-14", "clang"):
        found = ctypes.util.find_library(candidate)
        if not found:
            continue
        try:
            ctypes.CDLL(found)
        except OSError:
            continue
        try:
            ci.Config.set_library_file(found)
            ci.Index.create()
            return ci
        except Exception:
            return None  # set_library_file is one-shot
    return None


# --- AST checks ----------------------------------------------------


class Analyzer:
    def __init__(self, ci, root):
        self.ci = ci
        self.root = root
        self.index = ci.Index.create()
        self.findings = {}
        self.allow_cache = {}
        self.event_classes_seen = set()
        self.fn_stack = []

    # -- plumbing --

    def rel(self, location):
        if location.file is None:
            return None
        try:
            return Path(location.file.name).resolve() \
                .relative_to(self.root).as_posix()
        except ValueError:
            return None

    def allowed(self, rel, line, check):
        """True when the source line (or the one above it) carries an
        analyze:allow(<check>) marker."""
        if rel not in self.allow_cache:
            try:
                lines = (self.root / rel).read_text().splitlines()
            except OSError:
                lines = []
            self.allow_cache[rel] = lines
        lines = self.allow_cache[rel]
        for n in (line, line - 1):
            if 1 <= n <= len(lines):
                m = ALLOW_RE.search(lines[n - 1])
                if m and m.group(1) == check:
                    return True
        return False

    def report(self, check, cursor, message, scope="src/"):
        rel = self.rel(cursor.location)
        if rel is None:
            return
        if scope and not (rel.startswith(scope)
                          or "fixtures" in rel):
            return
        line = cursor.location.line
        if self.allowed(rel, line, check):
            return
        f = Finding(check, rel, line, message)
        self.findings[f.key()] = f

    def parse(self, source, args):
        ci = self.ci
        try:
            tu = self.index.parse(source, args=args)
        except ci.TranslationUnitLoadError as e:
            print(f"desc-analyze: cannot parse {source}: {e}",
                  file=sys.stderr)
            return None
        fatal = [d for d in tu.diagnostics if d.severity >= 4]
        if fatal:
            print(f"desc-analyze: fatal diagnostics parsing {source}:",
                  file=sys.stderr)
            for d in fatal[:5]:
                print(f"  {d}", file=sys.stderr)
            return None
        return tu

    # -- type helpers --

    def type_words(self, t):
        """Spelling of a (possibly sugared) type, without cv."""
        return t.spelling.replace("const ", "").replace("volatile ",
                                                        "").strip()

    def is_wide_typedef(self, t):
        return self.type_words(t) in WIDE_TYPEDEFS

    def int_width_bytes(self, t):
        """Byte width when t is a (canonical) integer type, else 0."""
        k = t.get_canonical().kind
        TK = self.ci.TypeKind
        widths = {
            TK.BOOL: 1, TK.CHAR_U: 1, TK.UCHAR: 1, TK.CHAR_S: 1,
            TK.SCHAR: 1, TK.CHAR16: 2, TK.USHORT: 2, TK.SHORT: 2,
            TK.WCHAR: 4, TK.CHAR32: 4, TK.UINT: 4, TK.INT: 4,
            TK.ULONG: 8, TK.LONG: 8, TK.ULONGLONG: 8, TK.LONGLONG: 8,
        }
        if k not in widths:
            return 0
        size = t.get_canonical().get_size()
        return size if size > 0 else widths[k]

    def expr_is_wide(self, cursor, depth=0):
        """True when the expression's type is one of the wide
        typedefs, directly or through an arithmetic combination of
        wide-typed operands (sugar is lost on binary results)."""
        if cursor is None or depth > 6:
            return False
        K = self.ci.CursorKind
        t = cursor.type
        if t is not None and self.is_wide_typedef(t):
            return True
        if t is not None and self.int_width_bytes(t) != 8:
            # A narrower subexpression cannot carry a wide value
            # (any narrowing happened further in, at its own site).
            if cursor.kind not in (K.UNEXPOSED_EXPR, K.PAREN_EXPR):
                return False
        for child in cursor.get_children():
            if child.kind in (K.CXX_STATIC_CAST_EXPR,
                              K.CSTYLE_CAST_EXPR,
                              K.CXX_FUNCTIONAL_CAST_EXPR,
                              K.CXX_REINTERPRET_CAST_EXPR,
                              K.LAMBDA_EXPR):
                continue  # explicit casts launder intent
            if self.expr_is_wide(child, depth + 1):
                return True
        return False

    def strip_sugar_expr(self, cursor):
        """Descend through implicit wrapper nodes to the interesting
        expression."""
        K = self.ci.CursorKind
        while True:
            kids = list(cursor.get_children())
            if cursor.kind in (K.UNEXPOSED_EXPR, K.PAREN_EXPR) \
                    and len(kids) == 1:
                cursor = kids[0]
                continue
            return cursor

    def is_explicit_cast(self, cursor):
        K = self.ci.CursorKind
        return cursor.kind in (K.CXX_STATIC_CAST_EXPR,
                               K.CSTYLE_CAST_EXPR,
                               K.CXX_FUNCTIONAL_CAST_EXPR,
                               K.CXX_REINTERPRET_CAST_EXPR,
                               K.CXX_CONST_CAST_EXPR)

    # -- check: env-registry --

    def check_env_registry(self, cursor):
        K = self.ci.CursorKind
        if cursor.kind != K.CALL_EXPR:
            return
        callee = cursor.referenced
        name = callee.spelling if callee is not None else cursor.spelling
        if name in ("getenv", "secure_getenv", "_wgetenv", "setenv",
                    "putenv", "unsetenv"):
            rel = self.rel(cursor.location)
            if rel == "src/common/env.cc":
                return
            self.report(
                "env-registry", cursor,
                f"{name}() outside src/common/env.cc: declare the "
                f"knob in {REGISTRY_DEF} and read it through "
                f"desc::env")

    # -- check: hot-path-alloc --

    def in_hot_file(self, cursor):
        rel = self.rel(cursor.location)
        return rel is not None and (rel in HOT_PATH_FILES
                                    or "fixtures" in rel)

    def check_hot_path_alloc(self, cursor):
        K = self.ci.CursorKind
        if not self.in_hot_file(cursor):
            return
        if cursor.kind == K.CXX_NEW_EXPR:
            self.report("hot-path-alloc", cursor,
                        "new-expression in a hot-path file (pool it, "
                        "or grow through owned container storage)",
                        scope=None)
        elif cursor.kind == K.CXX_DELETE_EXPR:
            self.report("hot-path-alloc", cursor,
                        "delete-expression in a hot-path file",
                        scope=None)
        elif cursor.kind == K.CALL_EXPR:
            callee = cursor.referenced
            name = callee.spelling if callee is not None else ""
            if name in ALLOC_CALLEES:
                self.report("hot-path-alloc", cursor,
                            f"call to {name} in a hot-path file",
                            scope=None)
        elif cursor.kind == K.VAR_DECL:
            SC = self.ci.StorageClass
            parent = cursor.semantic_parent
            in_function = parent is not None and parent.kind in (
                K.FUNCTION_DECL, K.CXX_METHOD, K.CONSTRUCTOR,
                K.DESTRUCTOR, K.FUNCTION_TEMPLATE)
            if not in_function:
                return
            if cursor.storage_class == SC.STATIC:
                return  # one-time init, not per call
            TK = self.ci.TypeKind
            t = cursor.type.get_canonical()
            if t.kind in (TK.LVALUEREFERENCE, TK.RVALUEREFERENCE,
                          TK.POINTER):
                return  # borrows storage, doesn't own it
            if not ALLOCATING_LOCALS.match(self.type_words(t)):
                return
            if self.moved_into(cursor):
                return  # move-construction steals storage, no alloc
            self.report(
                    "hot-path-alloc", cursor,
                    f"local {self.type_words(cursor.type)} owns heap "
                    f"storage per call in a hot-path file (hoist it "
                    f"into the owner and reuse capacity)",
                    scope=None)

    def moved_into(self, var_decl):
        """True when the variable's initializer is std::move(...)."""
        K = self.ci.CursorKind
        for child in var_decl.get_children():
            if child.kind in (K.TYPE_REF, K.NAMESPACE_REF,
                              K.TEMPLATE_REF):
                continue
            expr = self.strip_sugar_expr(child)
            while expr.kind == K.CALL_EXPR:  # copy/move ctor wrapper
                ref = expr.referenced
                if ref is not None and ref.spelling == "move":
                    return True
                kids = list(expr.get_children())
                inner = [k for k in kids
                         if k.kind not in (K.TYPE_REF,
                                           K.NAMESPACE_REF,
                                           K.TEMPLATE_REF)]
                if len(inner) != 1:
                    break
                expr = self.strip_sugar_expr(inner[0])
            ref = expr.referenced if hasattr(expr, "referenced") else None
            if expr.kind == K.CALL_EXPR and ref is not None \
                    and ref.spelling == "move":
                return True
        return False

    # -- check: event-lifetime --

    def event_base_chain(self, decl, depth=0):
        """True when record decl derives (transitively) from
        desc::sim::Event."""
        if decl is None or depth > 8:
            return False
        K = self.ci.CursorKind
        for child in decl.get_children():
            if child.kind != K.CXX_BASE_SPECIFIER:
                continue
            base = child.referenced
            if base is None:
                continue
            qn = self.qualified_name(base)
            if qn == "desc::sim::Event":
                return True
            base_def = base.get_definition() or base
            if self.event_base_chain(base_def, depth + 1):
                return True
        return False

    def qualified_name(self, cursor):
        parts = []
        c = cursor
        K = self.ci.CursorKind
        while c is not None and c.kind != K.TRANSLATION_UNIT:
            if c.spelling:
                parts.append(c.spelling)
            c = c.semantic_parent
        return "::".join(reversed(parts))

    def is_event_record(self, t):
        decl = t.get_canonical().get_declaration()
        if decl is None or decl.kind == self.ci.CursorKind.NO_DECL_FOUND:
            return False
        qn = self.qualified_name(decl)
        if qn == "desc::sim::Event":
            return True
        defn = decl.get_definition()
        return defn is not None and self.event_base_chain(defn)

    def tokens_contain_delete(self, cursor):
        toks = [t.spelling for t in cursor.get_tokens()]
        for i, t in enumerate(toks):
            if t == "=" and i + 1 < len(toks) \
                    and toks[i + 1] in ("delete", "default"):
                return toks[i + 1]
        return None

    def check_event_lifetime(self, cursor):
        K = self.ci.CursorKind
        if cursor.kind in (K.CLASS_DECL, K.STRUCT_DECL) \
                and cursor.is_definition():
            if not self.event_base_chain(cursor):
                return
            qn = self.qualified_name(cursor)
            if qn in self.event_classes_seen:
                return
            self.event_classes_seen.add(qn)
            for member in cursor.get_children():
                is_copy_ctor = (member.kind == K.CONSTRUCTOR
                                and member.is_copy_constructor())
                is_copy_assign = (
                    member.kind == K.CXX_METHOD
                    and member.spelling == "operator="
                    and self.takes_self_ref(cursor, member))
                if not (is_copy_ctor or is_copy_assign):
                    continue
                what = ("copy constructor" if is_copy_ctor
                        else "copy assignment")
                if self.tokens_contain_delete(member) == "delete":
                    continue
                self.report(
                    "event-lifetime", member,
                    f"{cursor.spelling} derives desc::sim::Event but "
                    f"declares a non-deleted {what}: events are "
                    f"pinned while scheduled and must stay "
                    f"non-copyable")
        elif cursor.kind == K.VAR_DECL:
            SC = self.ci.StorageClass
            parent = cursor.semantic_parent
            in_function = parent is not None and parent.kind in (
                K.FUNCTION_DECL, K.CXX_METHOD, K.CONSTRUCTOR,
                K.DESTRUCTOR, K.FUNCTION_TEMPLATE)
            if not in_function or cursor.storage_class == SC.STATIC:
                return
            t = cursor.type
            TK = self.ci.TypeKind
            if t.get_canonical().kind != TK.RECORD:
                return
            if self.is_event_record(t):
                self.report(
                    "event-lifetime", cursor,
                    f"stack-constructed {self.type_words(t)} (derives "
                    f"desc::sim::Event): a scheduled event must "
                    f"outlive its queue slot; own it in the component")
        elif cursor.kind == K.PARM_DECL:
            t = cursor.type
            TK = self.ci.TypeKind
            if t.get_canonical().kind != TK.RECORD:
                return
            if self.is_event_record(t):
                self.report(
                    "event-lifetime", cursor,
                    f"by-value Event parameter "
                    f"({self.type_words(t)}): pass a reference, the "
                    f"kernel pins event addresses")
        elif cursor.kind in (K.FUNCTION_DECL, K.CXX_METHOD):
            rt = cursor.result_type
            TK = self.ci.TypeKind
            if rt is not None \
                    and rt.get_canonical().kind == TK.RECORD \
                    and self.is_event_record(rt):
                self.report(
                    "event-lifetime", cursor,
                    f"{cursor.spelling}() returns an Event-derived "
                    f"type by value")

    def takes_self_ref(self, record, method):
        args = list(method.get_arguments())
        if len(args) != 1:
            return False
        t = args[0].type.get_canonical()
        TK = self.ci.TypeKind
        if t.kind != TK.LVALUEREFERENCE:
            return t.get_declaration() is not None \
                and t.get_declaration().get_usr() == record.get_usr()
        pointee = t.get_pointee().get_canonical()
        decl = pointee.get_declaration()
        return decl is not None and decl.get_usr() == record.get_usr()

    # -- check: tick-narrowing --

    def narrowing_finding(self, cursor, target_t, expr, context):
        width = self.int_width_bytes(target_t)
        if width == 0 or width >= 8:
            return
        expr = self.strip_sugar_expr(expr)
        if self.is_explicit_cast(expr):
            return
        if expr.kind == self.ci.CursorKind.INTEGER_LITERAL:
            return
        if not self.expr_is_wide(expr):
            return
        self.report(
            "tick-narrowing", cursor,
            f"implicit narrowing of a {self.type_words(expr.type)} "
            f"expression into {self.type_words(target_t)} "
            f"({context}); cast explicitly if the truncation is "
            f"intended")

    def binary_op_token(self, cursor, lhs, rhs):
        try:
            lhs_end = lhs.extent.end.offset
            rhs_start = rhs.extent.start.offset
        except Exception:
            return None
        for tok in cursor.get_tokens():
            if tok.extent.start.offset >= lhs_end \
                    and tok.extent.end.offset <= rhs_start:
                return tok.spelling
        return None

    def check_tick_narrowing(self, cursor):
        K = self.ci.CursorKind
        if cursor.kind == K.VAR_DECL:
            kids = [c for c in cursor.get_children()
                    if c.kind not in (K.TYPE_REF, K.NAMESPACE_REF,
                                      K.TEMPLATE_REF,
                                      K.ANNOTATE_ATTR)]
            if len(kids) != 1:
                return
            self.narrowing_finding(cursor, cursor.type, kids[0],
                                   f"initializing {cursor.spelling}")
        elif cursor.kind == K.BINARY_OPERATOR:
            kids = list(cursor.get_children())
            if len(kids) != 2:
                return
            if self.binary_op_token(cursor, kids[0], kids[1]) != "=":
                return
            self.narrowing_finding(cursor, kids[0].type, kids[1],
                                   "assignment")
        elif cursor.kind == K.CALL_EXPR:
            callee = cursor.referenced
            if callee is None:
                return
            params = [a.type for a in callee.get_arguments()]
            args = list(cursor.get_arguments())
            for param_t, arg in zip(params, args):
                self.narrowing_finding(
                    cursor, param_t, arg,
                    f"argument to {callee.spelling}()")
        elif cursor.kind == K.RETURN_STMT:
            kids = list(cursor.get_children())
            if len(kids) != 1:
                return
            # semantic_parent of a statement is unreliable; find the
            # enclosing function from the lexical chain instead.
            fn = self.enclosing_function(cursor)
            if fn is None:
                return
            self.narrowing_finding(cursor, fn.result_type, kids[0],
                                   f"return from {fn.spelling}()")

    def enclosing_function(self, cursor):
        K = self.ci.CursorKind
        for fn in reversed(self.fn_stack):
            if fn.kind == K.LAMBDA_EXPR:
                return None  # lambda deduced returns: stay silent
            return fn
        return None

    # -- driver --

    def walk(self, cursor, checks):
        K = self.ci.CursorKind
        fn_kinds = (K.FUNCTION_DECL, K.CXX_METHOD, K.CONSTRUCTOR,
                    K.DESTRUCTOR, K.LAMBDA_EXPR)
        for child in cursor.get_children():
            if self.rel(child.location) is None:
                continue  # system headers: skip whole subtree
            for check in checks:
                check(child)
            is_fn = child.kind in fn_kinds
            if is_fn:
                self.fn_stack.append(child)
            self.walk(child, checks)
            if is_fn:
                self.fn_stack.pop()

    def analyze_tu(self, tu, checks):
        self.walk(tu.cursor, checks)

    def all_checks(self):
        return [self.check_env_registry, self.check_hot_path_alloc,
                self.check_event_lifetime, self.check_tick_narrowing]


def compile_db_entries(compdb_dir, root):
    db = Path(compdb_dir) / "compile_commands.json"
    if not db.is_file():
        print(f"desc-analyze: no compile_commands.json in "
              f"{compdb_dir}; configure with "
              f"-DCMAKE_EXPORT_COMPILE_COMMANDS=ON", file=sys.stderr)
        return None
    entries = json.loads(db.read_text())
    seen, out = set(), []
    for e in entries:
        src = Path(e["file"])
        if not src.is_absolute():
            src = Path(e["directory"]) / src
        src = src.resolve()
        try:
            rel = src.relative_to(root).as_posix()
        except ValueError:
            continue
        if not rel.startswith("src/") or rel in seen:
            continue
        seen.add(rel)
        if "arguments" in e:
            argv = list(e["arguments"])
        else:
            argv = shlex.split(e["command"])
        args = []
        skip = False
        for a in argv[1:]:
            if skip:
                skip = False
                continue
            if a in ("-c", str(src), e["file"]):
                continue
            if a == "-o":
                skip = True
                continue
            args.append(a)
        out.append((src, args, rel))
    return out


def run_tree(ci, root, compdb_dir):
    entries = compile_db_entries(compdb_dir, root)
    if entries is None:
        return EXIT_SKIP
    if not entries:
        print("desc-analyze: compile_commands.json has no src/ entries",
              file=sys.stderr)
        return 1
    an = Analyzer(ci, root)
    parsed = 0
    for src, args, rel in entries:
        tu = an.parse(str(src), args)
        if tu is None:
            return 1
        an.analyze_tu(tu, an.all_checks())
        parsed += 1
    findings = sorted(an.findings.values(),
                      key=lambda f: (f.path, f.line, f.check))
    for f in findings:
        print(f)
    if findings:
        print(f"desc-analyze: {len(findings)} finding(s) over "
              f"{parsed} translation units")
        return 1
    print(f"desc-analyze: clean ({parsed} translation units, 4 checks)")
    return 0


# --- self-test -----------------------------------------------------

# Fixture -> the exact check set it must trigger. Good fixtures parse
# with the real src/ headers on the include path and must stay silent.
FIXTURE_EXPECT = {
    "fixtures/bad/getenv_use.cc": {"env-registry"},
    "fixtures/bad/hotpath_hidden_alloc.cc": {"hot-path-alloc"},
    "fixtures/bad/event_copyable.cc": {"event-lifetime"},
    "fixtures/bad/tick_narrowing.cc": {"tick-narrowing"},
    "fixtures/good/clean.cc": set(),
}


def self_test(ci, root):
    ok = registry_sanity(root)
    an = Analyzer(ci, root)
    args = ["-std=c++20", "-I", str(root / "src")]
    by_file = {}
    for rel in FIXTURE_EXPECT:
        path = TOOL_ROOT / rel
        if not path.is_file():
            print(f"self-test: missing fixture {rel}")
            ok = False
            continue
        an.findings = {}
        an.event_classes_seen = set()
        tu = an.parse(str(path), args)
        if tu is None:
            print(f"self-test: fixture {rel} failed to parse")
            ok = False
            continue
        an.analyze_tu(tu, an.all_checks())
        got = set()
        for f in an.findings.values():
            if rel.split("/")[-1] in f.path:
                got.add(f.check)
        by_file[rel] = (got, list(an.findings.values()))
    for rel, expected in FIXTURE_EXPECT.items():
        if rel not in by_file:
            continue
        got, details = by_file[rel]
        if got != expected:
            print(f"self-test: {rel}: expected checks "
                  f"{sorted(expected)}, got {sorted(got)}")
            for f in details:
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
    ap.add_argument("--compdb", default=None,
                    help="directory holding compile_commands.json "
                         "(default: <root>/build)")
    ap.add_argument("--self-test", action="store_true",
                    help="run the checks against the bundled fixtures")
    ap.add_argument("--probe", action="store_true",
                    help="exit 0 iff libclang is usable")
    ap.add_argument("--list-env", action="store_true",
                    help="print the generated DESC_* env-var table")
    ap.add_argument("--check-env-docs", nargs="?", const="README.md",
                    default=None, metavar="DOC",
                    help="verify DOC's env table matches --list-env")
    args = ap.parse_args()

    root = Path(args.root).resolve() if args.root \
        else TOOL_ROOT.parent.parent

    if args.list_env:
        sys.stdout.write(env_table(root))
        return 0
    if args.check_env_docs is not None:
        ok = registry_sanity(root)
        ok = check_env_docs(root, args.check_env_docs) and ok
        return 0 if ok else 1

    ci = load_cindex()
    if args.probe:
        return 0 if ci is not None else 1
    if ci is None:
        # Registry sanity is pure text and still worth running, so a
        # toolchain-less box keeps the cheap half of the coverage.
        ok = registry_sanity(root)
        if not ok:
            return 1
        print("desc-analyze: python clang bindings / libclang not "
              "available; AST checks skipped (install python3-clang "
              "and libclang to run them locally — CI runs them)")
        return EXIT_SKIP

    if args.self_test:
        return 0 if self_test(ci, root) else 1

    compdb = args.compdb or str(root / "build")
    return run_tree(ci, root, compdb)


if __name__ == "__main__":
    sys.exit(main())
