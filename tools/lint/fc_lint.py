#!/usr/bin/env python3
"""fc_lint: project-invariant static analyzer for the fastcoreset repo.

Generic tools cannot see this project's three load-bearing contracts:

  * bit-identical results at any FC_THREADS (the determinism contract),
  * the non-aborting FcStatus/FcStatusOr error model in src/api/,
    src/service/, and src/net/ (the serving stack must never die on a
    bad request or misbehaving client),
  * the PR 6 annotated-locking discipline (src/common/mutex.h wrappers).

fc_lint makes them machine-checked. Each rule has an ID, a fix-it-style
message, and a suppression syntax that *requires* a written rationale:

    // fc-lint: allow(<rule-id>): <why this site is safe>

A suppression comment covers its own line and, when it stands alone on a
line, the next line. A suppression without a rationale — or naming an
unknown rule — is itself an error (`bad-suppression`).

Rules (see RULES below for scope and details):

  status-value-unchecked   .value()/operator*/-> on an FcStatusOr with no
                           dominating .ok() guard in the enclosing function
  no-abort-in-service      FC_CHECK/abort/throw/exit in src/api,
                           src/service, src/net
  raw-mutex                std::mutex & friends outside src/common/mutex.h
  nondeterministic-iteration  iterating unordered_{map,set} in src/
  banned-entropy           rand/random_device/time/chrono-now outside the
                           Timer/Rng abstractions
  umbrella-include         bench/examples reaching past src/api/fastcoreset.h
                           into per-method compression headers
  layering-violation       src/ include edges that leave the module DAG
                           of the src/<m>/CMakeLists.txt link lists
                           (--dot-out emits the actual graph as graphviz)
  lock-order               fc::Mutex declarations whose rank is not a
                           lock_rank constant of src/common/mutex.h, and
                           lexical acquisition patterns that take a
                           lower-rank lock while holding a higher one
  determinism-taint        thread-count/timer-derived values flowing into
                           chunk/shard plans, sampler seeds, or
                           non-diagnostics result fields

Project passes
--------------
The last three rules are cross-file. None has a config file of its own:
each reads its facts from the code they govern.

layering-violation reads the module DAG from CMake: the fc_<x> items of
`target_link_libraries(fc_<m> ...)` in src/<m>/CMakeLists.txt are the
modules a src/<m>/ file may include directly (never what it reaches
through their PUBLIC links; non-module items such as Threads::Threads
are ignored), so adding a link is the architecture decision. The pass
also accumulates the observed include graph across the run
(`--dot-out graph.dot` writes it; the run fails if the ACTUAL graph has
a cycle, declared or not).

lock-order: the lock_rank block of src/common/mutex.h (the constants
the runtime rank checker enforces) is the one rank table, and each
lock's rank is the constant its `Mutex` declaration is initialized with.
Every declaration in the linted files is collected before any
acquisition is checked, and an acquisition in foo.cc resolves against
the declarations of foo.h and foo.cc. A function body starts out
holding the locks its FC_REQUIRES names, whether the annotation sits on
the definition or on its declaration in foo.h.

Config errors (a link list that is cyclic, names its own module or
names a library that is not a module; duplicate or non-positive
lock_rank values) are findings like any other, pointing at the CMake
call or the constant.

Fixes
-----
`--fix` mechanically rewrites the two include-shaped rules in place:
umbrella-include lines become `#include "src/api/fastcoreset.h"` and
raw-mutex includes become `#include "src/common/mutex.h"` (first banned
include rewritten, duplicates deleted; suppressed lines untouched). The
rewrite is idempotent — the selftest asserts fix(fix(x)) == fix(x).

Lexer
-----
Rule logic consumes the token stream of a self-contained C++ lexer (no
dependencies), which also extracts comments, suppressions and #include
lines.

Strictness
----------
Every finding fails the run. There is no baseline of grandfathered
findings: new findings are fixed or suppressed with a rationale.

Typical invocations (from the repo root; Python 3.7+, standard library
only):

    python3 tools/lint/fc_lint.py src tools bench examples
    python3 tools/lint/fc_lint.py --selftest
    python3 tools/lint/fc_lint.py --list-rules
    python3 tools/lint/fc_lint.py --rules layering-violation \
        --dot-out module_deps.dot src
    python3 tools/lint/fc_lint.py --fix bench examples
"""

import argparse
import json
import os
import re
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

# --------------------------------------------------------------------------
# Tokens
# --------------------------------------------------------------------------

# Token kinds: 'id' (identifier or keyword), 'num', 'str' (string literal),
# 'chr' (char literal), 'punct'.


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int


# Maximal-munch puncts, longest first, mirroring clang's lexer.
_PUNCTS = [
    "<<=", ">>=", "...", "->*", "::", "->", "<<", ">>", "<=", ">=", "==",
    "!=", "&&", "||", "++", "--", "+=", "-=", "*=", "/=", "%=", "&=", "|=",
    "^=", "##",
]

_ID_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_ID_CONT = _ID_START | set("0123456789")


@dataclass
class LexResult:
    tokens: List[Token]
    comments: List[Tuple[int, str]]  # (line, comment text incl. delimiters)
    # Source with comments replaced by spaces (string literals intact),
    # used for #include extraction.
    stripped: str


def lex_builtin(text: str) -> LexResult:
    """Hand-rolled C++ lexer: tokens + comments + comment-stripped text."""
    tokens: List[Token] = []
    comments: List[Tuple[int, str]] = []
    stripped = list(text)
    i, n, line = 0, len(text), 1

    def blank(a: int, b: int) -> None:
        for j in range(a, b):
            if stripped[j] not in "\n":
                stripped[j] = " "

    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
            continue
        if c in " \t\r\f\v":
            i += 1
            continue
        # Line comment.
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            comments.append((line, text[i:j]))
            blank(i, j)
            i = j
            continue
        # Block comment.
        if c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            comments.append((line, text[i:j]))
            blank(i, j)
            line += text.count("\n", i, j)
            i = j
            continue
        # Raw string literal: R"delim( ... )delim".
        if c == "R" and i + 1 < n and text[i + 1] == '"':
            m = re.match(r'R"([^()\\ \t\n]*)\(', text[i:])
            if m:
                end_mark = ")" + m.group(1) + '"'
                j = text.find(end_mark, i + m.end())
                j = n if j == -1 else j + len(end_mark)
                tokens.append(Token("str", text[i:j], line))
                line += text.count("\n", i, j)
                i = j
                continue
        # String / char literal (with escapes).
        if c in "\"'":
            j = i + 1
            while j < n and text[j] != c:
                if text[j] == "\\":
                    j += 1
                j += 1
            j = min(j + 1, n)
            tokens.append(Token("str" if c == '"' else "chr", text[i:j], line))
            line += text.count("\n", i, j)
            i = j
            continue
        # Identifier / keyword.
        if c in _ID_START:
            j = i + 1
            while j < n and text[j] in _ID_CONT:
                j += 1
            tokens.append(Token("id", text[i:j], line))
            i = j
            continue
        # Number (incl. hex, floats, digit separators; pp-numbers are fine).
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i + 1
            while j < n and (text[j] in _ID_CONT or text[j] in ".'" or
                             (text[j] in "+-" and text[j - 1] in "eEpP")):
                j += 1
            tokens.append(Token("num", text[i:j], line))
            i = j
            continue
        # Punctuation, maximal munch.
        for p in _PUNCTS:
            if text.startswith(p, i):
                tokens.append(Token("punct", p, line))
                i += len(p)
                break
        else:
            tokens.append(Token("punct", c, line))
            i += 1
    return LexResult(tokens, comments, "".join(stripped))


# --------------------------------------------------------------------------
# Findings and suppressions
# --------------------------------------------------------------------------


@dataclass
class Finding:
    path: str  # repo-relative posix path
    line: int
    rule: str
    message: str
    suppressed: bool = False

    def render(self) -> str:
        return f"{self.path}:{self.line}: error: [{self.rule}] {self.message}"


_SUPPRESS_RE = re.compile(
    r"fc-lint:\s*allow\(\s*([A-Za-z0-9_,\s-]*?)\s*\)\s*(?::\s*(.*?))?\s*(?:\*/)?\s*$"
)


@dataclass
class Suppressions:
    # line -> set of rule ids allowed on that line.
    by_line: Dict[int, Set[str]] = field(default_factory=dict)
    findings: List[Finding] = field(default_factory=list)  # bad-suppression


def parse_suppressions(path: str, lex: LexResult,
                       known_rules: Set[str]) -> Suppressions:
    sup = Suppressions()
    stripped_lines = lex.stripped.split("\n")
    for line_no, comment in lex.comments:
        if "fc-lint" not in comment:
            continue
        m = _SUPPRESS_RE.search(comment)
        if not m:
            sup.findings.append(Finding(
                path, line_no, "bad-suppression",
                "malformed fc-lint comment; use "
                "`// fc-lint: allow(<rule>): <rationale>`"))
            continue
        rules = [r.strip() for r in m.group(1).split(",") if r.strip()]
        rationale = (m.group(2) or "").strip()
        ok = True
        if not rules:
            sup.findings.append(Finding(
                path, line_no, "bad-suppression",
                "allow() names no rule"))
            ok = False
        for r in rules:
            if r not in known_rules:
                sup.findings.append(Finding(
                    path, line_no, "bad-suppression",
                    f"allow() names unknown rule '{r}'"))
                ok = False
        if len(rationale) < 10:
            sup.findings.append(Finding(
                path, line_no, "bad-suppression",
                "suppression requires a written rationale (>= 10 chars) "
                "after the colon: `// fc-lint: allow(<rule>): <why>`"))
            ok = False
        if not ok:
            continue
        covered = {line_no}
        # A comment alone on its line covers the next *code* line, skipping
        # blank lines and rationale-continuation comments (bounded so a
        # stray suppression cannot reach across a whole file).
        src_line = stripped_lines[line_no - 1] if line_no <= len(
            stripped_lines) else ""
        if not src_line.strip():
            for ln in range(line_no + 1, min(line_no + 6,
                                             len(stripped_lines) + 1)):
                covered.add(ln)
                if stripped_lines[ln - 1].strip():
                    break
        for ln in covered:
            sup.by_line.setdefault(ln, set()).update(rules)
    return sup


# --------------------------------------------------------------------------
# Scope helpers
# --------------------------------------------------------------------------


def _under(path: str, prefixes: Sequence[str]) -> bool:
    return any(path == p or path.startswith(p.rstrip("/") + "/")
               for p in prefixes)


# --------------------------------------------------------------------------
# Rule 1: status-value-unchecked
# --------------------------------------------------------------------------

_STATUSOR_NAMES = {"FcStatusOr"}
_GUARD_MEMBERS = {"ok", "has_value"}
_EVIDENCE_MEMBERS = {"ok", "status", "has_value"}


def _function_bodies(tokens: List[Token]) -> List[Tuple[int, int]]:
    """[start, end) token ranges of outermost function-like bodies.

    A `{` opens a function body when we are not already inside one and
    scanning backwards (skipping matched `{...}` groups, e.g. brace
    member-inits in a ctor-init list) hits `)` before any of `;` `{` `}`.
    This also admits namespace-scope lambdas, which is what we want.
    """
    bodies: List[Tuple[int, int]] = []
    depth = 0
    body_open_depth: Optional[int] = None
    body_start = 0
    for i, tok in enumerate(tokens):
        if tok.kind != "punct":
            continue
        if tok.text == "{":
            if body_open_depth is None and _looks_like_function_open(tokens, i):
                body_open_depth = depth
                body_start = i
            depth += 1
        elif tok.text == "}":
            depth -= 1
            if body_open_depth is not None and depth == body_open_depth:
                bodies.append((body_start, i + 1))
                body_open_depth = None
    if body_open_depth is not None:  # unbalanced file; take what we have
        bodies.append((body_start, len(tokens)))
    return bodies


def _looks_like_function_open(tokens: List[Token], at: int) -> bool:
    i = at - 1
    skipped_group = False
    seen_colon = False
    while i >= 0:
        tok = tokens[i]
        if tok.kind == "punct":
            if tok.text == ")":
                # Plain `...) {` is a body. If we skipped a brace group on
                # the way here it must have been a ctor member-init
                # (`Foo() : a_{x} {`), which always has a `:` between the
                # `)` and the braces — without one, the group we skipped
                # was a *previous definition's* body and this `{` opens a
                # class/enum/namespace, not a function.
                return seen_colon or not skipped_group
            if tok.text in (";", "{"):
                return False
            if tok.text == ":":
                seen_colon = True
            if tok.text == "}":
                # Skip a matched {...} group (brace member-init) and keep
                # scanning left.
                skipped_group = True
                depth = 1
                i -= 1
                while i >= 0 and depth:
                    if tokens[i].kind == "punct":
                        if tokens[i].text == "}":
                            depth += 1
                        elif tokens[i].text == "{":
                            depth -= 1
                    i -= 1
                continue
        elif tok.kind == "id" and tok.text in ("else", "do", "try"):
            # `else {`, `do {`, `try {` are statement blocks, not bodies —
            # but those only occur inside a function we are already in.
            return False
        i -= 1
    return False


def _collect_statusor_decls(tokens: List[Token], lo: int, hi: int) -> Set[str]:
    """Names declared with an explicit FcStatusOr<...> type in [lo, hi)."""
    names: Set[str] = set()
    i = lo
    while i < hi:
        tok = tokens[i]
        if tok.kind == "id" and tok.text in _STATUSOR_NAMES:
            j = i + 1
            if j < hi and tokens[j].kind == "punct" and tokens[j].text == "<":
                # Match template args; `>>` closes two levels.
                depth = 0
                while j < hi:
                    t = tokens[j]
                    if t.kind == "punct":
                        if t.text == "<":
                            depth += 1
                        elif t.text == ">":
                            depth -= 1
                            if depth == 0:
                                break
                        elif t.text == ">>":
                            depth -= 2
                            if depth <= 0:
                                break
                    j += 1
                j += 1
                # Optional ref/ptr qualifiers, then the declared name.
                while j < hi and tokens[j].kind == "punct" and \
                        tokens[j].text in ("&", "*", "&&"):
                    j += 1
                if j < hi and tokens[j].kind == "id":
                    nxt = tokens[j + 1] if j + 1 < hi else None
                    if nxt is not None and nxt.kind == "punct" and \
                            nxt.text in ("=", ";", ",", ")", "(", "{"):
                        names.add(tokens[j].text)
                        i = j
        i += 1
    return names


def _collect_evidence_names(tokens: List[Token], lo: int, hi: int) -> Set[str]:
    """Names used with .ok()/.status()/.has_value() — status-like evidence
    for `auto`-declared FcStatusOr variables."""
    names: Set[str] = set()
    for i in range(lo, hi - 3):
        if (tokens[i].kind == "id" and tokens[i + 1].kind == "punct" and
                tokens[i + 1].text == "." and tokens[i + 2].kind == "id" and
                tokens[i + 2].text in _EVIDENCE_MEMBERS and
                tokens[i + 3].kind == "punct" and tokens[i + 3].text == "("):
            prev = tokens[i - 1] if i > lo else None
            if prev is None or not (prev.kind == "punct" and
                                    prev.text in (".", "->", "::")):
                names.add(tokens[i].text)
    return names


def rule_status_value_unchecked(path: str, tokens: List[Token]) -> List[Finding]:
    findings: List[Finding] = []
    for lo, hi in _function_bodies(tokens):
        tracked = _collect_statusor_decls(tokens, lo, hi)
        tracked |= _collect_evidence_names(tokens, lo, hi)
        # Include decls in the parameter list / return type immediately
        # before the body (parameters are uses too).
        param_lo = max(0, lo - 64)
        tracked |= _collect_statusor_decls(tokens, param_lo, lo)
        guarded: Set[str] = set()
        i = lo
        while i < hi:
            tok = tokens[i]
            nxt = tokens[i + 1] if i + 1 < hi else None
            prv = tokens[i - 1] if i > 0 else None
            if tok.kind == "id" and tok.text in tracked and not (
                    prv is not None and prv.kind == "punct" and
                    prv.text in (".", "->", "::")):
                name = tok.text
                # Guard: name.ok() / name.has_value().
                if (nxt is not None and nxt.text == "." and i + 3 < hi and
                        tokens[i + 2].kind == "id" and
                        tokens[i + 2].text in _GUARD_MEMBERS and
                        tokens[i + 3].text == "("):
                    guarded.add(name)
                    i += 4
                    continue
                # Reassignment invalidates an earlier guard.
                if (nxt is not None and nxt.kind == "punct" and
                        nxt.text == "="):
                    guarded.discard(name)
                    i += 2
                    continue
                # Use: name.value(), name->member, *name (unary context).
                use = None
                if (nxt is not None and nxt.text == "." and i + 3 < hi and
                        tokens[i + 2].kind == "id" and
                        tokens[i + 2].text == "value" and
                        tokens[i + 3].text == "("):
                    use = f"'{name}.value()'"
                elif nxt is not None and nxt.kind == "punct" and \
                        nxt.text == "->":
                    use = f"'{name}->'"
                if prv is not None and prv.kind == "punct" and \
                        prv.text == "*" and use is None:
                    before = tokens[i - 2] if i >= 2 else None
                    if before is None or (before.kind == "punct" and
                                          before.text in
                                          ("=", "(", ",", "{", ";", "<",
                                           "return")) or \
                            (before.kind == "id" and before.text == "return"):
                        use = f"'*{name}'"
                if use is not None and name not in guarded:
                    findings.append(Finding(
                        path, tok.line, "status-value-unchecked",
                        f"{use} on FcStatusOr '{name}' with no dominating "
                        f".ok() guard in this function; add "
                        f"`if (!{name}.ok()) return {name}.status();` (or "
                        f"equivalent) before the access"))
            # Chained: <call>(...).value() — can never have been checked.
            if (tok.kind == "punct" and tok.text == ")" and nxt is not None and
                    nxt.text == "." and i + 3 < hi and
                    tokens[i + 2].kind == "id" and
                    tokens[i + 2].text == "value" and
                    tokens[i + 3].text == "("):
                # Exclude `x.value().value()`-ish? No: still unchecked.
                # Exclude the guard idiom `(x = f()).ok()` — not .value().
                findings.append(Finding(
                    path, tokens[i + 2].line, "status-value-unchecked",
                    "'.value()' directly on a call result — the status was "
                    "never checked (the PR 6 server-abort TOCTOU class); "
                    "bind the FcStatusOr to a named local and test .ok() "
                    "first"))
            i += 1
    return findings


# --------------------------------------------------------------------------
# Rule 2: no-abort-in-service
# --------------------------------------------------------------------------

_ABORT_IDS = {
    "FC_CHECK", "FC_CHECK_MSG", "FC_CHECK_EQ", "FC_CHECK_NE", "FC_CHECK_GT",
    "FC_CHECK_GE", "FC_CHECK_LT", "FC_CHECK_LE", "FC_DCHECK", "CheckFailed",
    "abort", "exit", "_Exit", "quick_exit", "terminate", "throw",
}


def rule_no_abort_in_service(path: str, tokens: List[Token]) -> List[Finding]:
    findings = []
    for i, tok in enumerate(tokens):
        if tok.kind != "id" or tok.text not in _ABORT_IDS:
            continue
        prv = tokens[i - 1] if i > 0 else None
        if prv is not None and prv.kind == "punct" and prv.text in (".", "->"):
            continue  # member named e.g. `exit` — not the libc call
        if prv is not None and prv.kind == "id" and \
                prv.text not in ("return", "else", "do"):
            continue  # `void exit();` — a declaration, not a call
        if tok.text == "throw":
            findings.append(Finding(
                path, tok.line, "no-abort-in-service",
                "'throw' in the status-returning error model; return "
                "FcStatus::Internal(...) (src/api, src/service, and "
                "src/net promise a non-aborting surface)"))
            continue
        nxt = tokens[i + 1] if i + 1 < len(tokens) else None
        if nxt is None or not (nxt.kind == "punct" and nxt.text == "("):
            continue  # mention, not a call/macro invocation
        findings.append(Finding(
            path, tok.line, "no-abort-in-service",
            f"'{tok.text}' aborts the process; src/api, src/service, and "
            f"src/net promise a status-returning error model — return a "
            f"non-ok "
            f"FcStatus instead, or suppress with a rationale naming the "
            f"invariant that makes aborting correct"))
    return findings


# --------------------------------------------------------------------------
# Rule 3: raw-mutex
# --------------------------------------------------------------------------

_RAW_MUTEX_TYPES = {
    "mutex", "timed_mutex", "recursive_mutex", "recursive_timed_mutex",
    "shared_mutex", "shared_timed_mutex", "lock_guard", "unique_lock",
    "scoped_lock", "shared_lock", "condition_variable",
    "condition_variable_any", "call_once", "once_flag",
}
_RAW_MUTEX_INCLUDES = {"mutex", "shared_mutex", "condition_variable"}


def rule_raw_mutex(path: str, tokens: List[Token],
                   includes: List[Tuple[int, str, bool]]) -> List[Finding]:
    findings = []
    for line, inc, angled in includes:
        if angled and inc in _RAW_MUTEX_INCLUDES:
            findings.append(Finding(
                path, line, "raw-mutex",
                f"#include <{inc}> outside src/common/mutex.h; use the "
                f"annotated Mutex/MutexLock/CondVar wrappers so the clang "
                f"thread-safety analysis can see every lock"))
    for i in range(len(tokens) - 2):
        if (tokens[i].kind == "id" and tokens[i].text == "std" and
                tokens[i + 1].kind == "punct" and tokens[i + 1].text == "::"
                and tokens[i + 2].kind == "id" and
                tokens[i + 2].text in _RAW_MUTEX_TYPES):
            findings.append(Finding(
                path, tokens[i].line, "raw-mutex",
                f"raw 'std::{tokens[i + 2].text}' outside src/common/mutex.h; "
                f"use the annotated wrappers (Mutex, MutexLock, CondVar) — "
                f"raw primitives are invisible to -Wthread-safety"))
    return findings


# --------------------------------------------------------------------------
# Rule 4: nondeterministic-iteration
# --------------------------------------------------------------------------

_UNORDERED_TYPES = {
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset",
}


def _collect_unordered_vars(tokens: List[Token]) -> Tuple[Set[str], Set[str]]:
    """(variable names, type alias names) of unordered container types."""
    type_names = set(_UNORDERED_TYPES)
    var_names: Set[str] = set()
    # Two passes so aliases declared after use still count.
    for _ in range(2):
        i = 0
        while i < len(tokens):
            tok = tokens[i]
            if tok.kind == "id" and tok.text in type_names:
                # Skip std:: qualifier handling — we matched the base name.
                j = i + 1
                if j < len(tokens) and tokens[j].kind == "punct" and \
                        tokens[j].text == "<":
                    depth = 0
                    while j < len(tokens):
                        t = tokens[j]
                        if t.kind == "punct":
                            if t.text == "<":
                                depth += 1
                            elif t.text == ">":
                                depth -= 1
                                if depth == 0:
                                    break
                            elif t.text == ">>":
                                depth -= 2
                                if depth <= 0:
                                    break
                        j += 1
                    j += 1
                while j < len(tokens) and tokens[j].kind == "punct" and \
                        tokens[j].text in ("&", "*"):
                    j += 1
                if j < len(tokens) and tokens[j].kind == "id":
                    nxt = tokens[j + 1] if j + 1 < len(tokens) else None
                    if nxt is not None and nxt.kind == "punct" and \
                            nxt.text in (";", "=", "{", "(", ",", ")"):
                        var_names.add(tokens[j].text)
            if tok.kind == "id" and tok.text == "using" and \
                    i + 2 < len(tokens) and tokens[i + 1].kind == "id" and \
                    tokens[i + 2].kind == "punct" and \
                    tokens[i + 2].text == "=":
                # using X = ... unordered_map ... ;
                k = i + 3
                is_unordered = False
                while k < len(tokens) and tokens[k].text != ";":
                    if tokens[k].kind == "id" and \
                            tokens[k].text in _UNORDERED_TYPES:
                        is_unordered = True
                    k += 1
                if is_unordered:
                    type_names.add(tokens[i + 1].text)
            i += 1
    return var_names, type_names


def rule_nondeterministic_iteration(path: str,
                                    tokens: List[Token]) -> List[Finding]:
    findings = []
    var_names, _ = _collect_unordered_vars(tokens)
    n = len(tokens)
    for i, tok in enumerate(tokens):
        # Range-for whose range expression ends in a tracked variable:
        # for ( ... : <expr ending in NAME> )
        if tok.kind == "id" and tok.text == "for" and i + 1 < n and \
                tokens[i + 1].text == "(":
            depth = 0
            colon = None
            j = i + 1
            while j < n:
                t = tokens[j]
                if t.kind == "punct":
                    if t.text == "(":
                        depth += 1
                    elif t.text == ")":
                        depth -= 1
                        if depth == 0:
                            break
                    elif t.text == ":" and depth == 1 and colon is None:
                        colon = j
                j += 1
            close = j
            if colon is not None and close < n:
                last = tokens[close - 1]
                if last.kind == "id" and last.text in var_names:
                    findings.append(Finding(
                        path, tok.line, "nondeterministic-iteration",
                        f"range-for over unordered container '{last.text}': "
                        f"iteration order is nondeterministic and can leak "
                        f"into results, breaking the bit-reproducibility "
                        f"contract; iterate a sorted copy (or suppress with "
                        f"a rationale naming the order-insensitive sink)"))
        # NAME.begin() / cbegin / rbegin on a tracked variable.
        if tok.kind == "id" and tok.text in var_names and i + 3 < n and \
                tokens[i + 1].text == "." and tokens[i + 2].kind == "id" and \
                tokens[i + 2].text in ("begin", "cbegin", "rbegin") and \
                tokens[i + 3].text == "(":
            prv = tokens[i - 1] if i > 0 else None
            if prv is not None and prv.kind == "punct" and \
                    prv.text in (".", "->", "::"):
                continue
            findings.append(Finding(
                path, tok.line, "nondeterministic-iteration",
                f"iterator over unordered container '{tok.text}': iteration "
                f"order is nondeterministic and can leak into results; "
                f"iterate a sorted copy (or suppress with a rationale "
                f"naming the order-insensitive sink)"))
    return findings


# --------------------------------------------------------------------------
# Rule 5: banned-entropy
# --------------------------------------------------------------------------

_ENTROPY_TYPES = {
    "random_device", "mt19937", "mt19937_64", "minstd_rand", "minstd_rand0",
    "default_random_engine", "ranlux24", "ranlux48", "knuth_b",
    "system_clock", "steady_clock", "high_resolution_clock",
}
_ENTROPY_CALLS = {
    "rand", "srand", "rand_r", "drand48", "lrand48", "mrand48", "srand48",
    "random", "srandom", "time", "clock", "gettimeofday", "clock_gettime",
    "timespec_get",
}
_ENTROPY_INCLUDES = {"random"}


def rule_banned_entropy(path: str, tokens: List[Token],
                        includes: List[Tuple[int, str, bool]]) -> List[Finding]:
    findings = []
    for line, inc, angled in includes:
        if angled and inc in _ENTROPY_INCLUDES:
            findings.append(Finding(
                path, line, "banned-entropy",
                "#include <random> in algorithm code; all randomness must "
                "flow through the seeded Rng (src/common/rng.h) so results "
                "are reproducible from a single seed"))
    n = len(tokens)
    for i, tok in enumerate(tokens):
        if tok.kind != "id":
            continue
        prv = tokens[i - 1] if i > 0 else None
        member = prv is not None and prv.kind == "punct" and \
            prv.text in (".", "->")
        if tok.text in _ENTROPY_TYPES and not member:
            what = "wall-clock source" if "clock" in tok.text else \
                "entropy source"
            findings.append(Finding(
                path, tok.line, "banned-entropy",
                f"'{tok.text}' is a nondeterministic {what}; use the seeded "
                f"Rng (src/common/rng.h) for randomness and Timer "
                f"(src/common/timer.h) for diagnostics-only timing"))
            continue
        if tok.text in _ENTROPY_CALLS and not member and i + 1 < n and \
                tokens[i + 1].kind == "punct" and tokens[i + 1].text == "(":
            # `now(` reached via Clock::now is covered by the type names
            # above; plain calls like time(nullptr), rand() land here.
            findings.append(Finding(
                path, tok.line, "banned-entropy",
                f"call to '{tok.text}()' in algorithm code; randomness must "
                f"come from the seeded Rng and timing from Timer "
                f"(diagnostics/bench allowlist only)"))
        if tok.text == "now" and prv is not None and prv.kind == "punct" and \
                prv.text == "::" and i + 1 < n and \
                tokens[i + 1].text == "(":
            findings.append(Finding(
                path, tok.line, "banned-entropy",
                "'::now()' reads the wall clock; timing belongs in Timer "
                "(src/common/timer.h) and the diagnostics/bench allowlist"))
    return findings


# --------------------------------------------------------------------------
# Rule 6: umbrella-include
# --------------------------------------------------------------------------

# The per-method compression headers PR 4 made internal: bench/ and
# examples/ must reach every coreset method through the facade.
_METHOD_HEADERS = re.compile(
    r"^src/(core/(uniform_sampling|lightweight_coreset|welterweight_coreset|"
    r"sensitivity_sampling|fast_coreset|group_sampling)|"
    r"streaming/(bico|streamkm))\.h$")


def rule_umbrella_include(path: str,
                          includes: List[Tuple[int, str, bool]]) -> List[Finding]:
    findings = []
    for line, inc, angled in includes:
        if not angled and _METHOD_HEADERS.match(inc):
            findings.append(Finding(
                path, line, "umbrella-include",
                f'#include "{inc}" is a per-method compression header, '
                f"internal since PR 4; include \"src/api/fastcoreset.h\" "
                f"and go through api::Build / the method table instead"))
    return findings


# --------------------------------------------------------------------------
# Project model: module-layering DAG + lock ranks
# --------------------------------------------------------------------------


@dataclass
class LayerConfig:
    """The module DAG: each module's allowed direct deps, as its
    `target_link_libraries(fc_<m> ...)` call in CMake lists them."""
    modules: Dict[str, List[str]] = field(default_factory=dict)
    # module -> (CMake file, line) of its link call.
    where: Dict[str, Tuple[str, int]] = field(default_factory=dict)
    findings: List[Finding] = field(default_factory=list)


# A module library's link call; its fc_<x> items are the modules src/<m>
# may include directly. Other items (Threads::Threads, PUBLIC) are not
# modules.
_LINK_CALL_RE = re.compile(
    r"\b(?i:target_link_libraries)\s*\(\s*fc_(\w+)([^)]*)\)")


def module_cmake_files(root: str) -> List[str]:
    """src/<m>/CMakeLists.txt of every module directory under `root`."""
    src = os.path.join(root, "src")
    names = sorted(os.listdir(src)) if os.path.isdir(src) else []
    return [f"src/{m}/CMakeLists.txt" for m in names
            if os.path.isfile(os.path.join(src, m, "CMakeLists.txt"))]


def load_module_links(files: Sequence[Tuple[str, str]]) -> LayerConfig:
    """Reads the module DAG from CMake (path, text) pairs."""
    cfg = LayerConfig()
    for path, text in files:
        code = re.sub(r"#[^\n]*", "", text)
        for m in _LINK_CALL_RE.finditer(code):
            cfg.modules.setdefault(m.group(1), []).extend(
                item[3:] for item in m.group(2).split()
                if item.startswith("fc_"))
            cfg.where.setdefault(
                m.group(1), (path, code.count("\n", 0, m.start()) + 1))
    for name in sorted(cfg.modules):
        path, line = cfg.where[name]
        for dep in cfg.modules[name]:
            if dep == name:
                cfg.findings.append(Finding(
                    path, line, "layering-violation",
                    f"fc_{name} links itself"))
            elif dep not in cfg.modules:
                cfg.findings.append(Finding(
                    path, line, "layering-violation",
                    f"fc_{name} links fc_{dep}, which is not a module "
                    f"(no target_link_libraries(fc_{dep} ...) call)"))
    # The declared graph must itself be a DAG: a cycle here would make
    # "upward edge" meaningless.
    for cycle in _find_cycles(cfg.modules):
        path, line = cfg.where[cycle[0]]
        cfg.findings.append(Finding(
            path, line, "layering-violation",
            "declared module graph has a cycle: " + " -> ".join(cycle)))
    return cfg


def _find_cycles(graph: Dict[str, List[str]]) -> List[List[str]]:
    """Distinct back-edge cycles of `graph` (node -> successors)."""
    cycles: List[List[str]] = []
    state: Dict[str, int] = {}  # 0/absent = new, 1 = on stack, 2 = done

    def dfs(node: str, stack: List[str]) -> None:
        state[node] = 1
        for succ in graph.get(node, []):
            if succ not in graph:
                continue
            if state.get(succ) == 1:
                at = stack.index(succ)
                cycles.append(stack[at:] + [succ])
            elif state.get(succ, 0) == 0:
                dfs(succ, stack + [succ])
        state[node] = 2

    for start in sorted(graph):
        if state.get(start, 0) == 0:
            dfs(start, [start])
    return cycles


# Where the lock ranks live: the runtime checker's lock_rank constants.
RANKS_HEADER = "src/common/mutex.h"


@dataclass
class MutexDecl:
    member: str
    line: int
    rank: Optional[int]  # None: unranked or misranked (see `problem`)
    constant: str = ""
    problem: Optional[str] = None  # the lock-order finding, if any


@dataclass
class LockRanks:
    """The lock_rank table of mutex.h, and every fc::Mutex declaration of
    the run keyed by its path."""
    ranks: Dict[str, int] = field(default_factory=dict)
    findings: List[Finding] = field(default_factory=list)
    decls: Dict[str, List[MutexDecl]] = field(default_factory=dict)
    # path -> function name -> the locks its FC_REQUIRES names there.
    requires: Dict[str, Dict[str, List[str]]] = field(default_factory=dict)

    def _pair(self, path: str) -> List[str]:
        """`path` and its header/source partner (foo.h <-> foo.cc)."""
        stem = os.path.splitext(path)[0]
        return [path] + [p for p in self.decls
                         if p != path and os.path.splitext(p)[0] == stem]

    def rank_of(self, member: str, path: str) -> Optional[Tuple[int, str]]:
        """(rank, constant) of `member` as declared in `path` or its
        partner; else None and the acquisition is not order-checked."""
        for p in self._pair(path):
            for d in self.decls.get(p, []):
                if d.member == member and d.rank is not None:
                    return d.rank, d.constant
        return None

    def required_by(self, function: str, path: str) -> List[str]:
        """Locks an FC_REQUIRES on `function` names in `path` or its
        partner, so an out-of-line definition holds what its header
        declaration requires."""
        return [lock for p in self._pair(path)
                for lock in self.requires.get(p, {}).get(function, [])]


def load_lock_ranks(path: str) -> LockRanks:
    """`lock_rank::<constant>` -> value, parsed from mutex.h's
    `namespace lock_rank { ... }` block. kUnranked is the 0 sentinel;
    every other value must be positive and unique."""
    locks = LockRanks()
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except OSError as e:
        locks.findings.append(Finding(RANKS_HEADER, 1, "lock-order",
                                      f"cannot read lock ranks: {e}"))
        return locks
    block = re.search(r"namespace\s+lock_rank\s*\{(.*?)\}\s*//\s*namespace",
                      text, re.S)
    if block is None:
        return locks
    owner: Dict[int, str] = {}
    for m in re.finditer(r"constexpr\s+int\s+(\w+)\s*=\s*(-?\d+)\s*;",
                         block.group(1)):
        name, rank = m.group(1), int(m.group(2))
        locks.ranks[name] = rank
        if name == "kUnranked":
            continue
        line = text.count("\n", 0, block.start(1) + m.start()) + 1
        if rank <= 0:
            locks.findings.append(Finding(
                RANKS_HEADER, line, "lock-order",
                f"lock_rank::{name} = {rank} must be positive (0 is the "
                f"unranked sentinel kUnranked)"))
        elif rank in owner:
            locks.findings.append(Finding(
                RANKS_HEADER, line, "lock-order",
                f"lock_rank::{name} reuses rank {rank} of "
                f"lock_rank::{owner[rank]} — ranks are a total order"))
        else:
            owner[rank] = name
    return locks


@dataclass
class ProjectContext:
    """Cross-file state threaded through a lint run: the module DAG, the
    lock ranks, and the observed module include graph (for --dot-out and
    cycle checks)."""
    layers: LayerConfig
    locks: LockRanks
    # (from_module, to_module) -> (example file, line)
    module_edges: Dict[Tuple[str, str], Tuple[str, int]] = \
        field(default_factory=dict)

    def config_findings(self) -> List[Finding]:
        return list(self.layers.findings) + list(self.locks.findings)


def _module_of(path: str) -> Optional[str]:
    parts = path.split("/")
    if len(parts) >= 3 and parts[0] == "src":
        return parts[1]
    return None


def module_includes(path: str, includes: List[Tuple[int, str, bool]]
                    ) -> List[Tuple[int, str]]:
    """(line, target module) of each include in a src/<m>/ file of a
    header in another module's src/<target>/."""
    mod = _module_of(path)
    if mod is None:
        return []
    out: List[Tuple[int, str]] = []
    for line, inc, angled in includes:
        target = None if angled else _module_of(inc)
        if target is not None and target != mod:
            out.append((line, target))
    return out


# --------------------------------------------------------------------------
# Rule 7: layering-violation
# --------------------------------------------------------------------------


def rule_layering_violation(path: str, edges: List[Tuple[int, str]],
                            ctx: "ProjectContext") -> List[Finding]:
    mod = _module_of(path)
    declared = ctx.layers.modules
    if mod is None:
        return []
    if mod not in declared:
        return [Finding(
            path, 1, "layering-violation",
            f"module 'src/{mod}' declares no deps; add "
            f"`target_link_libraries(fc_{mod} PUBLIC ...)` to "
            f"src/{mod}/CMakeLists.txt naming the modules it may include")]
    allowed = declared[mod]
    findings: List[Finding] = []
    for line, target in edges:
        if target not in declared:
            findings.append(Finding(
                path, line, "layering-violation",
                f"include of 'src/{target}/...' but '{target}' is not a "
                f"module (no target_link_libraries(fc_{target} ...) call)"))
        elif target not in allowed:
            findings.append(Finding(
                path, line, "layering-violation",
                f"layering violation: src/{mod} may not include "
                f"src/{target} (fc_{mod} links "
                f"{', '.join('fc_' + d for d in allowed) or 'no module'} "
                f"directly; adding fc_{target} to its target_link_libraries "
                f"in {ctx.layers.where[mod][0]} is an architecture "
                f"decision)"))
    return findings


def write_module_dot(dot_path: str, ctx: "ProjectContext") -> List[List[str]]:
    """Writes the observed module graph as graphviz; returns any cycles
    in the ACTUAL graph (the caller fails the run on them)."""
    declared = ctx.layers.modules
    edges = sorted(ctx.module_edges)
    nodes = sorted(set(declared) |
                   {a for a, _ in edges} | {b for _, b in edges})
    lines = [
        "// Actual src/ module include graph, emitted by fc_lint.py "
        "--dot-out.",
        "// Red edges are not in the including module's "
        "target_link_libraries (src/<m>/CMakeLists.txt);",
        "// the CI deps-graph step renders and uploads this.",
        "digraph fc_modules {",
        "  rankdir = \"BT\";",
        "  node [shape=box, fontname=\"Helvetica\"];",
    ]
    for n in nodes:
        lines.append(f"  \"{n}\";")
    for a, b in edges:
        src_file, src_line = ctx.module_edges[(a, b)]
        attrs = "" if b in declared.get(a, []) else \
            f" [color=red, penwidth=2, label=\"{src_file}:{src_line}\"]"
        lines.append(f"  \"{a}\" -> \"{b}\"{attrs};")
    lines.append("}")
    with open(dot_path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")
    actual: Dict[str, List[str]] = {n: [] for n in nodes}
    for a, b in edges:
        actual[a].append(b)
    return _find_cycles(actual)


# --------------------------------------------------------------------------
# Rule 8: lock-order
# --------------------------------------------------------------------------

_LOCK_ATTR_MACROS = {
    "FC_ACQUIRED_AFTER", "FC_ACQUIRED_BEFORE", "FC_GUARDED_BY",
    "FC_PT_GUARDED_BY",
}


def _match_group(tokens: List[Token], at: int, open_t: str,
                 close_t: str) -> int:
    """`at` indexes the opening token; returns the matching close index
    (or len(tokens) on imbalance)."""
    depth = 0
    i = at
    while i < len(tokens):
        t = tokens[i]
        if t.kind == "punct":
            if t.text == open_t:
                depth += 1
            elif t.text == close_t:
                depth -= 1
                if depth == 0:
                    return i
        i += 1
    return len(tokens)


def collect_mutex_decls(tokens: List[Token],
                        ranks: Dict[str, int]) -> List[MutexDecl]:
    """Every `Mutex NAME{...};` / `Mutex NAME;` declaration in `tokens`,
    with the rank its lock_rank initializer names."""
    decls: List[MutexDecl] = []
    n = len(tokens)
    i = 0
    while i < n:
        tok = tokens[i]
        if not (tok.kind == "id" and tok.text == "Mutex"):
            i += 1
            continue
        prv = tokens[i - 1] if i > 0 else None
        if prv is not None and (
                (prv.kind == "punct" and prv.text in ("::", ".", "->", "<"))
                or (prv.kind == "id" and prv.text in
                    ("class", "struct", "friend", "enum", "using"))):
            i += 1
            continue
        j = i + 1
        if j >= n or tokens[j].kind != "id":
            i += 1
            continue
        name = tokens[j].text
        line = tokens[j].line
        j += 1
        while j + 1 < n and tokens[j].kind == "id" and \
                tokens[j].text in _LOCK_ATTR_MACROS and \
                tokens[j + 1].kind == "punct" and tokens[j + 1].text == "(":
            j = _match_group(tokens, j + 1, "(", ")") + 1
        if j >= n:
            break
        t = tokens[j]
        unranked = (f"unranked Mutex '{name}': long-lived mutexes declare "
                    f"their tier (`Mutex {name}{{lock_rank::k...}};`) so "
                    f"lock-order can check acquisitions against it")
        if t.kind == "punct" and t.text == ";":
            decls.append(MutexDecl(name, line, None, problem=unranked))
            i = j
            continue
        if t.kind == "punct" and t.text in ("{", "("):
            close = _match_group(tokens, j, t.text,
                                 "}" if t.text == "{" else ")")
            init = [tk.text for tk in tokens[j + 1:close]]
            constant = init[-1] if init[-3:-1] == ["lock_rank", "::"] else ""
            rank = ranks.get(constant)
            if not init or constant == "kUnranked":
                problem: Optional[str] = unranked
            elif not constant:
                problem = (f"Mutex '{name}' is ranked by `{''.join(init)}`; "
                           f"a rank must be a lock_rank:: constant of "
                           f"{RANKS_HEADER}")
            elif rank is None:
                problem = (f"Mutex '{name}' names lock_rank::{constant}, "
                           f"which {RANKS_HEADER} does not define")
            else:
                problem = None
            decls.append(MutexDecl(name, line,
                                   None if problem else rank, constant,
                                   problem))
            i = close if close > i else j
            continue
        i = j
    return decls


_REQUIRES_MACROS = ("FC_REQUIRES", "FC_EXCLUSIVE_LOCKS_REQUIRED")


def _signature_locks(tokens: List[Token], lo: int,
                     hi: int) -> Tuple[Optional[str], List[str]]:
    """(function name, locks its FC_REQUIRES names) of the declaration or
    signature tokens[lo:hi]; the name is the first identifier followed by
    `(` that is not the annotation itself."""
    name: Optional[str] = None
    locks: List[str] = []
    k = lo
    while k + 1 < hi:
        t = tokens[k]
        if t.kind == "id" and tokens[k + 1].text == "(":
            if t.text in _REQUIRES_MACROS:
                close = _match_group(tokens, k + 1, "(", ")")
                locks += [tk.text for tk in tokens[k + 2:min(close, hi)]
                          if tk.kind == "id"]
                k = close
            elif name is None:
                name = t.text
        k += 1
    return name, locks


def collect_required_locks(tokens: List[Token]) -> Dict[str, List[str]]:
    """Function name -> locks, for every declaration or definition in
    `tokens` that carries an FC_REQUIRES."""
    out: Dict[str, List[str]] = {}
    start = 0
    for i, t in enumerate(tokens):
        if t.kind == "punct" and t.text in (";", "{", "}"):
            name, locks = _signature_locks(tokens, start, i)
            if name and locks:
                out.setdefault(name, []).extend(locks)
            start = i + 1
    return out


def rule_lock_order(path: str, tokens: List[Token],
                    ctx: "ProjectContext") -> List[Finding]:
    locks = ctx.locks
    # Declarations were collected across the whole run before any file
    # was linted, so an acquisition can resolve against its header.
    findings = [Finding(path, d.line, "lock-order", d.problem)
                for d in locks.decls.get(path, []) if d.problem]

    # Pass B: lexical acquisition order per function body. Held locks
    # come from MutexLock RAII scopes, manual Lock()/Unlock() pairs, and
    # the FC_REQUIRES context of the enclosing signature; acquiring a
    # rank <= any held rank is an inversion.
    for lo, hi in _function_bodies(tokens):
        # (scope depth at acquisition, lock expr, rank, constant);
        # depth -1 = held for the whole body (FC_REQUIRES).
        held: List[Tuple[int, str, Optional[int], Optional[str]]] = []

        def acquire(lock_name: Optional[str], depth: int, line: int) -> None:
            resolved = locks.rank_of(lock_name, path) if lock_name else None
            rank, constant = resolved if resolved else (None, None)
            if rank is not None:
                for _, held_lock, held_rank, held_constant in held:
                    if held_rank is not None and rank <= held_rank:
                        findings.append(Finding(
                            path, line, "lock-order",
                            f"lock-order inversion: acquiring "
                            f"'{lock_name}' (rank {rank}, {constant}) "
                            f"while holding '{held_lock}' (rank "
                            f"{held_rank}, {held_constant}); lower ranks "
                            f"are outer — see the lock_rank block in "
                            f"{RANKS_HEADER}"))
            held.append((depth, lock_name or "?", rank, constant))

        def release(lock_name: str) -> None:
            for k in range(len(held) - 1, -1, -1):
                if held[k][1] == lock_name:
                    del held[k]
                    return

        # Seed from FC_REQUIRES between the previous statement boundary
        # and the body's opening brace, and from the one on the
        # function's declaration in this file or its header.
        sig_lo = 0
        k = lo - 1
        while k >= 0:
            if tokens[k].kind == "punct" and tokens[k].text in (";", "}",
                                                               "{"):
                sig_lo = k + 1
                break
            k -= 1
        name, required = _signature_locks(tokens, sig_lo, lo)
        if name:
            required += locks.required_by(name, path)
        for lock_name in dict.fromkeys(required):
            resolved = locks.rank_of(lock_name, path)
            if resolved is not None:
                held.append((-1, lock_name, resolved[0], resolved[1]))

        depth = 0
        idx = lo
        while idx < hi:
            t = tokens[idx]
            if t.kind == "punct":
                if t.text == "{":
                    depth += 1
                elif t.text == "}":
                    depth -= 1
                    held[:] = [h for h in held if h[0] <= depth]
                idx += 1
                continue
            if t.kind == "id" and t.text == "MutexLock" and idx + 2 < hi \
                    and tokens[idx + 1].kind == "id" and \
                    tokens[idx + 2].kind == "punct" and \
                    tokens[idx + 2].text in ("(", "{"):
                open_t = tokens[idx + 2].text
                close = _match_group(tokens, idx + 2, open_t,
                                     ")" if open_t == "(" else "}")
                arg_ids = [tk.text for tk in tokens[idx + 3:close]
                           if tk.kind == "id"]
                acquire(arg_ids[-1] if arg_ids else None, depth, t.line)
                idx = close + 1
                continue
            if t.kind == "id" and idx + 3 < hi and \
                    tokens[idx + 1].kind == "punct" and \
                    tokens[idx + 1].text == "." and \
                    tokens[idx + 2].kind == "id" and \
                    tokens[idx + 2].text in ("Lock", "Unlock") and \
                    tokens[idx + 3].text == "(":
                if tokens[idx + 2].text == "Lock":
                    acquire(t.text, depth, t.line)
                else:
                    release(t.text)
                idx += 4
                continue
            idx += 1
    return findings


# --------------------------------------------------------------------------
# Rule 9: determinism-taint
# --------------------------------------------------------------------------

# Sources: expressions whose value depends on worker count or wall clock.
_TAINT_SOURCE_CALLS = {
    "GetNumThreads", "ThreadPoolWorkerCount", "hardware_concurrency",
}
_TAINT_ENV_CALLS = {"EnvInt", "EnvDouble", "getenv", "secure_getenv"}
_TIMER_READS = {"Seconds", "Millis"}

# Sinks. Chunk/shard planning is first-argument-only: the planned extent
# must be a function of n alone (trailing arguments are bodies/options
# that may legitimately capture budgets for diagnostics).
_TAINT_CHUNK_SINKS = {
    "ParallelFor", "ParallelForChunks", "ParallelReduce",
    "ParallelChunkCount", "PlanChunks", "PlanShards", "EffectiveShardCount",
}
_TAINT_SEED_SINKS = {"DeriveBuildSeed", "SplitMix64", "Rng"}
_TAINT_RESULT_TYPES = {"Coreset", "BuildResult", "BuildResponse",
                       "ShardedBuildResult"}


def _collect_typed_vars(tokens: List[Token],
                        type_names: Set[str]) -> Dict[str, str]:
    """NAME -> type for `Type [&*] NAME ...` declarations and params."""
    out: Dict[str, str] = {}
    for i in range(len(tokens) - 2):
        t = tokens[i]
        if t.kind != "id" or t.text not in type_names:
            continue
        prv = tokens[i - 1] if i > 0 else None
        if prv is not None and prv.kind == "punct" and \
                prv.text in ("::", ".", "->", "<"):
            continue
        j = i + 1
        while j < len(tokens) and tokens[j].kind == "punct" and \
                tokens[j].text in ("&", "*"):
            j += 1
        if j + 1 >= len(tokens) or tokens[j].kind != "id":
            continue
        nxt = tokens[j + 1]
        if nxt.kind == "punct" and nxt.text in (";", "=", "{", "(", ",",
                                                ")"):
            out[tokens[j].text] = t.text
    return out


def _span_has_taint(tokens: List[Token], lo: int, hi: int,
                    timer_vars: Set[str], tainted: Set[str]) -> bool:
    """True when [lo, hi) contains a taint source or a tainted name."""
    k = lo
    while k < hi:
        t = tokens[k]
        if t.kind == "id":
            prv = tokens[k - 1] if k > lo else None
            is_member = prv is not None and prv.kind == "punct" and \
                prv.text in (".", "->")
            nxt = tokens[k + 1] if k + 1 < hi else None
            calls = nxt is not None and nxt.kind == "punct" and \
                nxt.text == "("
            if t.text in tainted and not is_member:
                return True
            if t.text in _TAINT_SOURCE_CALLS and calls:
                return True
            if t.text in _TAINT_ENV_CALLS and calls and not is_member:
                close = _match_group(tokens, k + 1, "(", ")")
                if any(tk.kind == "str" and "FC_THREADS" in tk.text
                       for tk in tokens[k + 2:min(close, hi)]):
                    return True
            if t.text in timer_vars and not is_member and k + 3 < hi and \
                    tokens[k + 1].text == "." and \
                    tokens[k + 2].kind == "id" and \
                    tokens[k + 2].text in _TIMER_READS and \
                    tokens[k + 3].text == "(":
                return True
        k += 1
    return False


def _statements(tokens: List[Token], lo: int,
                hi: int) -> List[Tuple[int, int]]:
    """Statement-ish token spans of a body: split on `;` outside parens
    and on every brace (so block contents are their own spans)."""
    out: List[Tuple[int, int]] = []
    start = lo + 1
    pdepth = 0
    for k in range(lo + 1, hi):
        t = tokens[k]
        if t.kind != "punct":
            continue
        if t.text in ("(", "["):
            pdepth += 1
        elif t.text in (")", "]"):
            pdepth = max(0, pdepth - 1)
        elif (t.text == ";" and pdepth == 0) or t.text in ("{", "}"):
            if k > start:
                out.append((start, k))
            start = k + 1
            pdepth = 0
    if hi > start:
        out.append((start, hi))
    return out


_ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=",
               ">>="}


def _find_assign(tokens: List[Token], s: int, e: int) -> Optional[int]:
    pdepth = 0
    for k in range(s, e):
        t = tokens[k]
        if t.kind != "punct":
            continue
        if t.text in ("(", "["):
            pdepth += 1
        elif t.text in (")", "]"):
            pdepth -= 1
        elif pdepth == 0 and t.text in _ASSIGN_OPS:
            return k
    return None


def _lhs_chain(tokens: List[Token], s: int,
               eq: int) -> Optional[Tuple[str, List[str]]]:
    """(base variable, member path) of the lvalue ending at `eq`."""
    k = eq - 1
    parts: List[str] = []
    while k >= s:
        t = tokens[k]
        if t.kind == "punct" and t.text == "]":
            depth = 1
            k -= 1
            while k >= s and depth:
                if tokens[k].text == "]":
                    depth += 1
                elif tokens[k].text == "[":
                    depth -= 1
                k -= 1
            continue
        if t.kind == "id":
            parts.append(t.text)
            k -= 1
            if k >= s and tokens[k].kind == "punct" and \
                    tokens[k].text in (".", "->"):
                k -= 1
                continue
            break
        return None
    if not parts:
        return None
    parts.reverse()
    return parts[0], parts[1:]


def _first_arg_end(tokens: List[Token], open_idx: int, close: int) -> int:
    pdepth = 0
    for k in range(open_idx, close):
        t = tokens[k]
        if t.kind != "punct":
            continue
        if t.text in ("(", "[", "{"):
            pdepth += 1
        elif t.text in (")", "]", "}"):
            pdepth -= 1
        elif t.text == "," and pdepth == 1:
            return k
    return close


def rule_determinism_taint(path: str,
                           tokens: List[Token]) -> List[Finding]:
    findings: List[Finding] = []
    timer_vars = set(_collect_typed_vars(tokens, {"Timer"}))
    result_vars = _collect_typed_vars(tokens, _TAINT_RESULT_TYPES)
    for lo, hi in _function_bodies(tokens):
        spans = _statements(tokens, lo, hi)
        tainted: Set[str] = set()
        # Fixpoint: a variable assigned from a source (or from another
        # tainted variable) is tainted. Bounded — each pass only adds.
        for _ in range(8):
            changed = False
            for s, e in spans:
                eq = _find_assign(tokens, s, e)
                if eq is None:
                    continue
                if not _span_has_taint(tokens, eq + 1, e, timer_vars,
                                       tainted):
                    continue
                chain = _lhs_chain(tokens, s, eq)
                if chain is None:
                    continue
                base, members = chain
                if not members and base not in tainted:
                    tainted.add(base)
                    changed = True
            if not changed:
                break
        # Sink 1: member assignments — sampler seeds anywhere, and
        # non-diagnostics fields of result types.
        for s, e in spans:
            eq = _find_assign(tokens, s, e)
            if eq is None:
                continue
            if not _span_has_taint(tokens, eq + 1, e, timer_vars, tainted):
                continue
            chain = _lhs_chain(tokens, s, eq)
            if chain is None:
                continue
            base, members = chain
            if not members:
                continue
            dotted = base + "." + ".".join(members)
            if members[-1] == "seed":
                findings.append(Finding(
                    path, tokens[eq].line, "determinism-taint",
                    f"thread-count/timer-derived value assigned into "
                    f"sampler seed '{dotted}' — results must be a "
                    f"function of (data, spec, seed) alone"))
            elif base in result_vars and members[0] != "diagnostics":
                findings.append(Finding(
                    path, tokens[eq].line, "determinism-taint",
                    f"thread-count/timer-derived value flows into "
                    f"{result_vars[base]} field '{dotted}'; only "
                    f"diagnostics may depend on scheduling — results are "
                    f"bit-identical at any FC_THREADS"))
        # Sink 2: call-shaped sinks.
        k = lo
        while k < hi:
            t = tokens[k]
            if t.kind == "id" and k + 1 < hi and \
                    tokens[k + 1].kind == "punct" and \
                    tokens[k + 1].text == "(" and \
                    t.text in (_TAINT_CHUNK_SINKS | _TAINT_SEED_SINKS):
                close = _match_group(tokens, k + 1, "(", ")")
                if t.text in _TAINT_CHUNK_SINKS:
                    arg_end = _first_arg_end(tokens, k + 1, close)
                    if _span_has_taint(tokens, k + 2, arg_end, timer_vars,
                                       tainted):
                        findings.append(Finding(
                            path, t.line, "determinism-taint",
                            f"thread-count/timer-derived value flows into "
                            f"the chunk/shard plan via '{t.text}(...)' — "
                            f"the plan must depend on n alone (the "
                            f"bit-reproducibility contract)"))
                elif _span_has_taint(tokens, k + 2, close, timer_vars,
                                     tainted):
                    findings.append(Finding(
                        path, t.line, "determinism-taint",
                        f"thread-count/timer-derived value flows into "
                        f"seed derivation '{t.text}(...)' — seeds come "
                        f"from (spec seed, shard index) alone"))
                k = close + 1
                continue
            # Rng NAME(expr) / Rng NAME{expr} declarations.
            if t.kind == "id" and t.text == "Rng" and k + 2 < hi and \
                    tokens[k + 1].kind == "id" and \
                    tokens[k + 2].kind == "punct" and \
                    tokens[k + 2].text in ("(", "{"):
                open_t = tokens[k + 2].text
                close = _match_group(tokens, k + 2, open_t,
                                     ")" if open_t == "(" else "}")
                if _span_has_taint(tokens, k + 3, close, timer_vars,
                                   tainted):
                    findings.append(Finding(
                        path, t.line, "determinism-taint",
                        f"Rng '{tokens[k + 1].text}' seeded from a "
                        f"thread-count/timer-derived value — sampler "
                        f"state must derive from the spec seed alone"))
                k = close + 1
                continue
            k += 1
    return findings


# --------------------------------------------------------------------------
# --fix: mechanical rewrites for the include-shaped rules
# --------------------------------------------------------------------------


def apply_fixes(rel_path: str, text: str) -> Tuple[str, int]:
    """Rewrites umbrella-include / raw-mutex include findings in `text`:
    the first banned include becomes the blessed one (unless it is
    already present), later ones are deleted. Suppressed lines are left
    alone. Idempotent. Returns (new text, fixes applied)."""
    lex = lex_builtin(text)
    includes = extract_includes(lex.stripped)
    sup = parse_suppressions(rel_path, lex, KNOWN_RULES)
    lines: List[Optional[str]] = list(text.split("\n"))
    fixes = 0
    plans = [
        ("umbrella-include", "src/api/fastcoreset.h",
         [line for line, inc, angled in includes
          if not angled and _METHOD_HEADERS.match(inc)]),
        ("raw-mutex", "src/common/mutex.h",
         [line for line, inc, angled in includes
          if angled and inc in _RAW_MUTEX_INCLUDES]),
    ]
    for rule, target, bad_lines in plans:
        if rule not in RULES or not RULES[rule]["scope"](rel_path):  # type: ignore[operator]
            continue
        has_target = any(not angled and inc == target
                         for _, inc, angled in includes)
        for ln in bad_lines:
            if rule in sup.by_line.get(ln, set()):
                continue
            if has_target:
                lines[ln - 1] = None
            else:
                lines[ln - 1] = f'#include "{target}"'
                has_target = True
            fixes += 1
    if not fixes:
        return text, 0
    return "\n".join(l for l in lines if l is not None), fixes


# --------------------------------------------------------------------------
# Rule table: id -> (scope predicate, runner docstring)
# --------------------------------------------------------------------------


def _scope_status_value(p: str) -> bool:
    return (_under(p, ["src/api", "src/service", "src/net"]) or
            (_under(p, ["tools"]) and not _under(p, ["tools/lint"])))


def _scope_no_abort(p: str) -> bool:
    return _under(p, ["src/api", "src/service", "src/net"])


def _scope_raw_mutex(p: str) -> bool:
    return _under(p, ["src", "tools", "bench", "examples"]) and \
        p != "src/common/mutex.h" and not _under(p, ["tools/lint"])


def _scope_nondet_iter(p: str) -> bool:
    return _under(p, ["src", "tools"]) and not _under(p, ["tools/lint"])


def _scope_entropy(p: str) -> bool:
    return _under(p, ["src", "tools"]) and p != "src/common/timer.h" and \
        not _under(p, ["tools/lint"])


def _scope_umbrella(p: str) -> bool:
    return _under(p, ["bench", "examples"])


def _scope_layering(p: str) -> bool:
    return _under(p, ["src"])


def _scope_lock_order(p: str) -> bool:
    # mutex.h itself hosts the rank constants, the Mutex/MutexLock
    # wrappers and the runtime checker — all unranked by design.
    return _under(p, ["src"]) and p != "src/common/mutex.h"


def _scope_det_taint(p: str) -> bool:
    return _under(p, ["src"])


RULES: Dict[str, Dict[str, object]] = {
    "status-value-unchecked": {
        "scope": _scope_status_value,
        "doc": "FcStatusOr .value()/operator*/-> with no dominating .ok() "
               "guard in the enclosing function (src/api, src/service, "
               "src/net, tools).",
    },
    "no-abort-in-service": {
        "scope": _scope_no_abort,
        "doc": "FC_CHECK/abort/throw/exit in the status-returning layers "
               "(src/api, src/service, src/net).",
    },
    "raw-mutex": {
        "scope": _scope_raw_mutex,
        "doc": "std::mutex & friends outside src/common/mutex.h (the "
               "annotated-locking discipline).",
    },
    "nondeterministic-iteration": {
        "scope": _scope_nondet_iter,
        "doc": "Iteration over unordered_{map,set} in src/ and tools/ "
               "(order can leak into results).",
    },
    "banned-entropy": {
        "scope": _scope_entropy,
        "doc": "rand/random_device/mt19937/time/chrono-now outside Timer "
               "and the seeded Rng.",
    },
    "umbrella-include": {
        "scope": _scope_umbrella,
        "doc": "bench/ and examples/ including per-method compression "
               "headers instead of src/api/fastcoreset.h.",
    },
    "layering-violation": {
        "scope": _scope_layering,
        "doc": "src/<mod> including a module that fc_<mod> does not link "
               "directly in src/<mod>/CMakeLists.txt (upward or undeclared "
               "edge).",
    },
    "lock-order": {
        "scope": _scope_lock_order,
        "doc": "fc::Mutex declarations without a lock_rank constant of "
               "src/common/mutex.h, and lexical acquisitions that invert "
               "that rank order.",
    },
    "determinism-taint": {
        "scope": _scope_det_taint,
        "doc": "thread-count/timer-derived values flowing into chunk "
               "plans, sampler seeds, or non-diagnostics result fields.",
    },
    # bad-suppression is emitted by the suppression parser itself; it is
    # listed so allow(bad-suppression) is rejected as self-referential.
}

KNOWN_RULES: Set[str] = set(RULES.keys())

# Project passes: need 2+ firing and 2+ clean fixtures each (the richer
# analyses have more ways to rot than a token scan).
_NEW_RULES = {"layering-violation", "lock-order", "determinism-taint"}


_INCLUDE_RE = re.compile(r'^\s*#\s*include\s+(?:"([^"]+)"|<([^>]+)>)')


def extract_includes(stripped: str) -> List[Tuple[int, str, bool]]:
    out = []
    for idx, line in enumerate(stripped.split("\n"), start=1):
        m = _INCLUDE_RE.match(line)
        if m:
            if m.group(1) is not None:
                out.append((idx, m.group(1), False))
            else:
                out.append((idx, m.group(2), True))
    return out


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------


def lint_sources(sources: Sequence[Tuple[str, str]], active_rules: Set[str],
                 ctx: "ProjectContext") -> List[Finding]:
    """Lints (repo-relative path, text) pairs as one project; returns every
    finding, each of which fails the run. Config errors surface as
    findings of the rule they break, so a malformed config can never
    silently disable its pass."""
    lexed = [(path, lex_builtin(text)) for path, text in sources]
    # Every Mutex declaration is known before any acquisition is checked.
    for path, lex in lexed:
        if _scope_lock_order(path):
            ctx.locks.decls[path] = collect_mutex_decls(lex.tokens,
                                                        ctx.locks.ranks)
            ctx.locks.requires[path] = collect_required_locks(lex.tokens)
    findings = [f for f in ctx.config_findings() if f.rule in active_rules]
    for path, lex in lexed:
        findings.extend(lint_file(path, lex, active_rules, ctx))
    return findings


def lint_file(rel_path: str, lex: LexResult, active_rules: Set[str],
              ctx: "ProjectContext") -> List[Finding]:
    tokens = lex.tokens
    includes = extract_includes(lex.stripped)
    sup = parse_suppressions(rel_path, lex, KNOWN_RULES)

    # Edge recording feeds --dot-out and is independent of which rules
    # are active — the graph artifact shows the whole tree.
    edges = module_includes(rel_path, includes)
    for line, target in edges:
        ctx.module_edges.setdefault((_module_of(rel_path), target),
                                    (rel_path, line))

    findings: List[Finding] = list(sup.findings)
    rule_runners = {
        "status-value-unchecked":
            lambda: rule_status_value_unchecked(rel_path, tokens),
        "no-abort-in-service":
            lambda: rule_no_abort_in_service(rel_path, tokens),
        "raw-mutex": lambda: rule_raw_mutex(rel_path, tokens, includes),
        "nondeterministic-iteration":
            lambda: rule_nondeterministic_iteration(rel_path, tokens),
        "banned-entropy":
            lambda: rule_banned_entropy(rel_path, tokens, includes),
        "umbrella-include": lambda: rule_umbrella_include(rel_path, includes),
        "layering-violation":
            lambda: rule_layering_violation(rel_path, edges, ctx),
        "lock-order": lambda: rule_lock_order(rel_path, tokens, ctx),
        "determinism-taint":
            lambda: rule_determinism_taint(rel_path, tokens),
    }
    for rule_id, runner in rule_runners.items():
        if rule_id not in active_rules:
            continue
        if not RULES[rule_id]["scope"](rel_path):  # type: ignore[operator]
            continue
        for f in runner():
            if f.rule in sup.by_line.get(f.line, set()):
                f.suppressed = True
            findings.append(f)
    return [f for f in findings if not f.suppressed]


_SOURCE_EXTS = (".h", ".cc", ".cpp", ".hpp")
_SKIP_DIRS = {"build", ".git", "fixtures", "fuzz_corpus", "_deps"}


def collect_files(root: str, roots: Sequence[str]) -> List[str]:
    out: List[str] = []
    for r in roots:
        base = os.path.join(root, r)
        if os.path.isfile(base):
            out.append(os.path.relpath(base, root))
            continue
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = [d for d in dirnames if d not in _SKIP_DIRS]
            for fn in sorted(filenames):
                if fn.endswith(_SOURCE_EXTS):
                    out.append(os.path.relpath(os.path.join(dirpath, fn),
                                               root))
    return sorted(set(p.replace(os.sep, "/") for p in out))


def read_sources(root: str, files: Sequence[str]) -> List[Tuple[str, str]]:
    sources: List[Tuple[str, str]] = []
    for rel in files:
        try:
            with open(os.path.join(root, rel), "r", encoding="utf-8",
                      errors="replace") as f:
                sources.append((rel, f.read()))
        except OSError as e:
            print(f"fc_lint: cannot read {rel}: {e}", file=sys.stderr)
    return sources


# --------------------------------------------------------------------------
# Selftest over the fixture corpus
# --------------------------------------------------------------------------


def run_selftest() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    fixture_dir = os.path.join(here, "fixtures")
    manifest_path = os.path.join(fixture_dir, "manifest.json")
    with open(manifest_path, "r", encoding="utf-8") as f:
        manifest = json.load(f)

    repo = os.path.join(here, "..", "..")
    repo_cmake = read_sources(repo, module_cmake_files(repo))
    failures = 0
    fired_rules: Dict[str, int] = {}
    clean_rules: Dict[str, int] = {}
    for case in manifest["cases"]:
        virtual = case["path"]
        sources = []
        for member in [case] + case.get("with", []):
            with open(os.path.join(fixture_dir, member["file"]), "r",
                      encoding="utf-8") as f:
                sources.append((member["path"], f.read()))
        # Cases default to the repo's real module CMakeLists.txt files and
        # mutex.h (so fixtures double as a check on those files); a case
        # may swap in a fixture-local one to exercise config-error paths.
        cmake_file = case.get("cmake")
        ranks_file = case.get("ranks")
        ctx = ProjectContext(
            load_module_links(read_sources(fixture_dir, [cmake_file])
                              if cmake_file else repo_cmake),
            load_lock_ranks(os.path.join(fixture_dir, ranks_file)
                            if ranks_file
                            else os.path.join(repo, RANKS_HEADER)))
        got = lint_sources(sources, KNOWN_RULES, ctx)
        got_set = sorted((f.path, f.rule, f.line) for f in got)
        want_set = sorted((e.get("path", virtual), e["rule"], e["line"])
                          for e in case["expect"])
        for rule in case.get("exercises", []):
            if any(r == rule for _, r, _ in want_set):
                fired_rules[rule] = fired_rules.get(rule, 0) + 1
            else:
                clean_rules[rule] = clean_rules.get(rule, 0) + 1
        if got_set != want_set:
            failures += 1
            print(f"FAIL {case['file']} (as {virtual})")
            print(f"  expected: {want_set}")
            print(f"  got:      {got_set}")
            for f_ in got:
                print(f"    {f_.render()}")
        else:
            print(f"ok   {case['file']} ({len(want_set)} findings)")

    # Golden --fix fixtures: rewriting `file` must yield `golden` exactly,
    # and rewriting `golden` again must be a no-op (idempotence).
    for case in manifest.get("fix_cases", []):
        with open(os.path.join(fixture_dir, case["file"]),
                  "r", encoding="utf-8") as f:
            before = f.read()
        with open(os.path.join(fixture_dir, case["golden"]),
                  "r", encoding="utf-8") as f:
            golden = f.read()
        fixed, n = apply_fixes(case["path"], before)
        if fixed != golden or n == 0:
            failures += 1
            print(f"FAIL fix {case['file']}: output does not match "
                  f"{case['golden']} ({n} fixes)")
        refixed, n2 = apply_fixes(case["path"], golden)
        if refixed != golden or n2 != 0:
            failures += 1
            print(f"FAIL fix {case['file']}: --fix is not idempotent "
                  f"({n2} fixes on the golden output)")
        if fixed == golden and n > 0 and n2 == 0:
            print(f"ok   fix {case['file']} -> {case['golden']} "
                  f"({n} fixes, idempotent)")

    # Corpus completeness: every rule needs firing and non-firing
    # fixtures (2+ each for the project passes), so a rule can neither
    # silently die nor over-trigger without the selftest noticing.
    for rule in sorted(KNOWN_RULES | {"bad-suppression"}):
        need = 2 if rule in _NEW_RULES else 1
        if fired_rules.get(rule, 0) < need:
            failures += 1
            print(f"FAIL corpus: rule '{rule}' needs >= {need} firing "
                  f"fixture(s), has {fired_rules.get(rule, 0)}")
        if clean_rules.get(rule, 0) < need:
            failures += 1
            print(f"FAIL corpus: rule '{rule}' needs >= {need} non-firing "
                  f"fixture(s), has {clean_rules.get(rule, 0)}")

    if failures:
        print(f"fc_lint selftest: {failures} failure(s)")
        return 1
    print(f"fc_lint selftest: all {len(manifest['cases'])} fixtures and "
          f"{len(manifest.get('fix_cases', []))} fix case(s) pass")
    return 0


# --------------------------------------------------------------------------
# main
# --------------------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="fc_lint.py",
        description="Project-invariant static analyzer for fastcoreset.")
    parser.add_argument("roots", nargs="*", default=[],
                        help="directories/files to lint, relative to --root "
                             "(default: src tools bench examples)")
    parser.add_argument("--root", default=None,
                        help="repository root (default: two levels up from "
                             "this script)")
    parser.add_argument("--rules", default=None,
                        help="comma-separated subset of rule ids to run")
    parser.add_argument("--dot-out", default=None,
                        help="write the observed module include graph as "
                             "graphviz; exits 1 if the actual graph has a "
                             "cycle")
    parser.add_argument("--fix", action="store_true",
                        help="rewrite fixable findings in place "
                             "(umbrella-include, raw-mutex includes) and "
                             "exit")
    parser.add_argument("--list-rules", action="store_true")
    parser.add_argument("--selftest", action="store_true",
                        help="run the fixture corpus and exit")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule_id in sorted(RULES):
            print(f"{rule_id}\n    {RULES[rule_id]['doc']}")
        print("bad-suppression\n    fc-lint allow() without a written "
              "rationale, or naming an unknown rule.")
        return 0

    if args.selftest:
        return run_selftest()

    root = args.root
    if root is None:
        root = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))))
    root = os.path.abspath(root)

    active_rules = KNOWN_RULES
    if args.rules:
        active_rules = {r.strip() for r in args.rules.split(",") if r.strip()}
        unknown = active_rules - KNOWN_RULES
        if unknown:
            print(f"fc_lint: unknown rule(s): {', '.join(sorted(unknown))}",
                  file=sys.stderr)
            return 2

    roots = args.roots or ["src", "tools", "bench", "examples"]
    files = collect_files(root, roots)
    sources = read_sources(root, files)

    if args.fix:
        total_fixes = 0
        for rel, text in sources:
            fixed, nfix = apply_fixes(rel, text)
            if nfix:
                with open(os.path.join(root, rel), "w", encoding="utf-8") as f:
                    f.write(fixed)
                print(f"fc_lint --fix: {rel}: rewrote {nfix} include(s)")
                total_fixes += nfix
        print(f"fc_lint --fix: {total_fixes} fix(es) applied across "
              f"{len(files)} file(s)")
        return 0

    ctx = ProjectContext(
        load_module_links(read_sources(root, module_cmake_files(root))),
        load_lock_ranks(os.path.join(root, RANKS_HEADER)))
    findings = lint_sources(sources, active_rules, ctx)

    cycles: List[List[str]] = []
    if args.dot_out:
        cycles = write_module_dot(args.dot_out, ctx)
        print(f"fc_lint: wrote module graph "
              f"({len(ctx.module_edges)} edges) to {args.dot_out}")
        for cyc in cycles:
            print(f"fc_lint: module include cycle: {' -> '.join(cyc)}",
                  file=sys.stderr)

    for f in findings:
        print(f.render())
    print(f"fc_lint: {len(files)} files, {len(findings)} finding(s)")
    return 1 if findings or cycles else 0


if __name__ == "__main__":
    sys.exit(main())
