#!/usr/bin/env python3
"""dapper-audit: cross-TU semantic analysis for the DAPPER tree.

dapper_lint.py checks what a single file can prove lexically. The bug
classes that actually bit this repo were semantic and cross-TU: PR 5
found an LLC counter (`droppedWritebacks`) that was incremented but
unreachable from any export, and the engine-equivalence contract
(`System::run` vs the oracle `ReferenceEngine::run` bit-identical) was
guarded only by runtime differential tests. This tool consumes the
compile database, indexes src/ and tests/oracle/ (class -> members ->
mutation sites -> export sites, plus an approximate call graph rooted
at the two engine drivers) and checks four rules over it:

  stat-export-completeness  [error]  every counter member that some
        method of an exporting component monotonically increments must
        be emitted by that component's exportStats(StatWriter&) —
        directly, via an accessor the export calls, or via a delegated
        member exportStats. The PR 5 droppedWritebacks bug class, now
        impossible. Policy: NO suppressions — export the counter.
  check-purity              [error]  no side-effecting expressions
        (assignments, ++/--, calls that only resolve to non-const
        methods) inside the unconditionally-evaluated condition of
        assert / DAPPER_CHECK / DAPPER_CHECK_CTX. assert compiles out
        under NDEBUG, so a side effect there silently diverges Release
        from Debug and breaks engine/bench bit-identity.
  engine-parity             [warn]   member-state mutation sites
        reachable (over the approximate name-resolved call graph) from
        System::run but not ReferenceEngine::run, or vice versa. The
        known-asymmetric event-engine machinery carries an inline
        DAPPER_LINT_ALLOW justifying why the asymmetry cannot leak into
        results; anything new is advisory until justified.
  narrowing-address         [error]  implicit u64 -> u32/u16/u8
        truncation in address/row/epoch arithmetic: a narrow-typed
        declaration initialized from an expression involving a known
        64-bit address-ish value without a static_cast. The documented
        packed-cell sites (PR 6 4-byte GroundTruth cells, 32-bit LLC
        tag/LRU lanes) are annotated; new truncation must be explicit.

Findings merge into the shared suppression policy (DAPPER_LINT_ALLOW
with a mandatory justification; reason-mandatory allowlist.toml), and
the tool emits SARIF 2.1.0 for GitHub code scanning.

Exit codes: 0 clean (warnings allowed unless --strict), 1 error-tier
findings (or any findings under --strict), 2 usage/environment error.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from lintlib import (  # noqa: E402
    ALL_RULE_NAMES, AUDIT_RULE_NAMES, DEFAULT_ALLOWLIST, FIXTURE_DIR,
    REPO_ROOT, SEVERITY_ERROR, SEVERITY_WARNING, Allowlist, Finding,
    SourceFile, annotation_validity, changed_files, collect_files,
    compile_db_sources, line_of, match_bracket, print_findings, relpath,
    resolve_suppressions, strip_preprocessor, unused_annotation_warnings,
    validate_sarif, write_sarif,
)

TOOL_VERSION = "1.0"

RULE_META = {
    "stat-export-completeness": {
        "description": "Every monotonically incremented counter member is "
                       "emitted by the owning component's exportStats",
        "severity": SEVERITY_ERROR,
    },
    "check-purity": {
        "description": "No side effects in assert/DAPPER_CHECK conditions "
                       "(they diverge across build types)",
        "severity": SEVERITY_ERROR,
    },
    "engine-parity": {
        "description": "Member-state mutations reachable from only one of "
                       "System::run / ReferenceEngine::run",
        "severity": SEVERITY_WARNING,
    },
    "narrowing-address": {
        "description": "Implicit u64->u32/u16 truncation in address/row/"
                       "epoch arithmetic without static_cast",
        "severity": SEVERITY_ERROR,
    },
    "bad-suppression": {
        "description": "Malformed or unjustified lint suppression",
        "severity": SEVERITY_ERROR,
    },
}

_KEYWORDS = frozenset(
    "if for while switch return sizeof alignof new delete catch throw "
    "static_cast dynamic_cast const_cast reinterpret_cast decltype "
    "static_assert defined assert noexcept alignas typeid co_await "
    "co_yield co_return DAPPER_CHECK DAPPER_CHECK_CTX DAPPER_LINT_ALLOW "
    "do else case default".split())

# Member names that are bookkeeping, not telemetry: generation stamps,
# logical clocks, epoch ids, cursors, watermarks. Exporting these would
# either leak engine-dependent state (breaking the engine-equivalence
# dict compare) or mean nothing to a reader.
_BOOKKEEPING_NAME_RE = re.compile(
    r"(?:gen|gens|clock|epoch|stamp|seq|cursor|version|head|tail|idx|"
    r"index|pos|watermark|cap|limit|mask|shift|bits|width|at)\d*_?$",
    re.IGNORECASE)
_BOOKKEEPING_PREFIX_RE = re.compile(r"^(?:next|last|prev|cur|pending)",
                                    re.IGNORECASE)


# ---------------------------------------------------------------------------
# Project index: classes, members, methods, mutation/call facts.
# ---------------------------------------------------------------------------

class Method:
    __slots__ = ("cls", "name", "rel", "line", "body", "is_const",
                 "is_ctor", "calls", "incremented", "reassigned",
                 "mutated")

    def __init__(self, cls, name, rel, line, body, is_const):
        self.cls = cls
        self.name = name
        self.rel = rel
        self.line = line
        self.body = body
        self.is_const = is_const
        self.is_ctor = (name == cls) or name == "~" + cls
        self.calls = _called_names(body)
        inc, rea = _mutation_sets(body)
        self.incremented = inc
        self.reassigned = rea
        self.mutated = bool(inc or rea)

    @property
    def key(self):
        return f"{self.cls}::{self.name}"


class ClassInfo:
    def __init__(self, name, rel, line):
        self.name = name
        self.rel = rel
        self.line = line
        self.bases = []
        self.members = {}       # member name -> (rel, line)
        self.member_types = {}  # member name -> last type token
        self.methods = {}       # method name -> [Method]

    def add_method(self, m):
        self.methods.setdefault(m.name, []).append(m)


_CALL_RE = re.compile(r"\b([A-Za-z_]\w*)\s*\(")


def _called_names(body):
    out = set()
    for m in _CALL_RE.finditer(body):
        name = m.group(1)
        if name not in _KEYWORDS:
            out.add(name)
    return out


# Prefix forms capture the full member path (`++stats_.hits` must
# attribute to `hits`, the counter, not `stats_` — otherwise every
# unexported LlcStats-style field would be masked by the aggregate
# member's name appearing in exportStats). The last path component is
# what counter analysis filters on.
_PATH = r"(?:\w+\s*(?:\.|->)\s*)*(\w+)"
_INC_RE = re.compile(rf"(?:\+\+\s*{_PATH}\b)|(?:\b(\w+)\s*\+\+)|"
                     rf"(?:\b(\w+)(?:\[[^\]]*\])?\s*\+=)")
_DEC_RE = re.compile(rf"(?:--\s*{_PATH}\b)|(?:\b(\w+)\s*--)|"
                     rf"(?:\b(\w+)(?:\[[^\]]*\])?\s*-=)")
_ASSIGN_RE = re.compile(r"\b(\w+)(?:\[[^\]]*\])?\s*"
                        r"(?:=(?!=)|[*/%&|^]=|<<=|>>=)")


def _mutation_sets(body):
    """(incremented, reassigned-or-decremented) identifier sets. The
    repo convention suffixes data members with '_', but struct fields
    reached through a member (stats_.hits++) are plain — both are
    collected; the caller filters against known member names."""
    inc = set()
    for m in _INC_RE.finditer(body):
        inc.add(next(g for g in m.groups() if g))
    rea = set()
    for m in _DEC_RE.finditer(body):
        rea.add(next(g for g in m.groups() if g))
    for m in _ASSIGN_RE.finditer(body):
        name = m.group(1)
        # `x ==`, `x !=`, `x <=` never reach here (lookahead / char class);
        # but `for (... ; x = y)` style is fine to count as reassignment.
        prev = body[:m.start()].rstrip()[-1:]
        if prev in "=!<>+-*/%&|^":
            continue
        rea.add(name)
    return inc, rea


class ProjectIndex:
    """Whole-program facts from a lexical parse of every TU and header."""

    _CLASS_RE = re.compile(
        r"\b(class|struct)\s+([A-Za-z_]\w*)\s*"
        r"(final\s*)?(?::\s*([^{;]*))?\{")
    _METHOD_HEAD_RE = re.compile(
        r"([~A-Za-z_]\w*)\s*\(")
    _OUTLINE_RE = re.compile(
        r"\b([A-Za-z_]\w*)\s*::\s*([~A-Za-z_]\w*)\s*\(")

    def __init__(self, files):
        self.files = files
        self.classes = {}           # name -> ClassInfo
        self.methods_by_name = {}   # name -> [Method]
        for sf in files:
            self._scan_classes(sf)
        for sf in files:
            self._scan_outline_methods(sf)
        for ci in self.classes.values():
            for ms in ci.methods.values():
                for m in ms:
                    self.methods_by_name.setdefault(m.name, []).append(m)

    # -- class bodies --------------------------------------------------------

    def _scan_classes(self, sf):
        text = strip_preprocessor(sf.scrubbed)
        for cm in self._CLASS_RE.finditer(text):
            name = cm.group(2)
            brace = cm.end() - 1
            end = match_bracket(text, brace, "{", "}")
            if end < 0:
                continue
            ci = self.classes.get(name)
            if ci is None:
                ci = ClassInfo(name, sf.rel, line_of(text, cm.start()))
                self.classes[name] = ci
            if cm.group(4):
                for part in cm.group(4).split(","):
                    toks = re.findall(r"[\w:]+", part)
                    if toks:
                        ci.bases.append(toks[-1].split("::")[-1])
            self._scan_class_body(sf, ci, text, brace + 1, end - 1)

    def _scan_class_body(self, sf, ci, text, lo, hi):
        """Walk the class body at relative depth 0; classify each segment
        as a nested type (skipped — it gets its own top-level scan), a
        method (body captured), or a data member."""
        i = lo
        seg_start = lo
        while i < hi:
            c = text[i]
            if c == "{":
                head = text[seg_start:i]
                end = match_bracket(text, i, "{", "}")
                if end < 0 or end > hi + 1:
                    return
                if re.search(r"\b(class|struct|union|enum)\b", head):
                    i = end
                    # Nested type: `} name_;` tail may declare a member.
                    tail_m = re.match(r"\s*(\w+)\s*;", text[end:hi])
                    if tail_m:
                        i = end + tail_m.end()
                    seg_start = i
                    continue
                pm = self._method_in_head(head)
                if pm is not None:
                    mname, is_const = pm
                    body = text[i + 1:end - 1]
                    ci.add_method(Method(ci.name, mname, sf.rel,
                                         line_of(text, seg_start +
                                                 len(head) - len(head.lstrip())),
                                         body, is_const))
                    i = end
                    # Skip a trailing ';' (struct-style) if present.
                    tail_m = re.match(r"\s*;", text[end:hi])
                    if tail_m:
                        i = end + tail_m.end()
                    seg_start = i
                    continue
                # Brace initializer of a member: `std::array<...> a_{};`
                # fall through — treat '{...}' as part of the segment.
                i = end
                continue
            if c == ";":
                self._member_or_decl(sf, ci, text, seg_start, i)
                i += 1
                seg_start = i
                continue
            i += 1

    def _method_in_head(self, head):
        """If @p head (text before a '{' at class depth 0) is a method
        definition header, return (name, is_const); else None."""
        # Find the parameter list: the last top-level '(...)' group.
        close = head.rstrip()
        # Strip trailing qualifiers / initializer lists back to ')'.
        m = None
        for mm in self._METHOD_HEAD_RE.finditer(head):
            m = mm
        if m is None:
            return None
        open_paren = m.end() - 1
        pend = match_bracket(head, open_paren, "(", ")")
        if pend < 0:
            return None
        tail = head[pend:]
        # Tail may carry: const noexcept override final -> type, or a
        # ctor initializer list starting with ':'.
        if re.fullmatch(r"[\s\w:&<>,\(\)\[\]\*\-{}=]*", tail) is None:
            return None
        name = m.group(1)
        if name in _KEYWORDS or name == "operator":
            return None
        is_const = bool(re.match(r"\s*const\b", tail))
        del close
        return name, is_const

    def _member_or_decl(self, sf, ci, text, lo, hi):
        seg = text[lo:hi]
        s = seg.strip()
        off = len(seg) - len(seg.lstrip())
        # An access label shares the segment with the first declaration
        # after it (`private:\n  FooStats stats_`): peel it off.
        lm = re.match(r"^(?:(?:public|private|protected)\s*:\s*)+", s)
        if lm:
            off += lm.end()
            s = s[lm.end():]
        if not s or s.startswith(("using", "typedef", "friend", "template",
                                  "static_assert", "DAPPER_LINT_ALLOW")):
            return
        # Cut the initializer.
        cut = len(s)
        depth = 0
        for i, ch in enumerate(s):
            if ch in "(<[":
                depth += 1
            elif ch in ")>]":
                depth -= 1
            elif depth == 0 and ch == "=":
                if i + 1 < len(s) and s[i + 1] == "=":
                    continue
                cut = i
                break
            elif depth == 0 and ch == "{":
                cut = i
                break
        head = s[:cut].rstrip()
        if not head or "(" in head:
            return  # method declaration (no body) — irrelevant here
        # Drop array extents.
        head = re.sub(r"\[[^\]]*\]", "", head)
        toks = re.findall(r"[\w:]+", head)
        if len(toks) < 2:
            return
        name = toks[-1].split("::")[-1]
        if not re.fullmatch(r"[A-Za-z_]\w*", name):
            return
        type_tok = toks[-2].split("::")[-1]
        # `std::array<Foo, N> x_` leaves template args in toks; take the
        # first type-ish token as a fallback for container-of-struct.
        ci.members[name] = (sf.rel, line_of(text, lo + off))
        ci.member_types[name] = type_tok

    # -- out-of-line method bodies ------------------------------------------

    def _scan_outline_methods(self, sf):
        text = strip_preprocessor(sf.scrubbed)
        for m in self._OUTLINE_RE.finditer(text):
            cls, name = m.group(1), m.group(2)
            ci = self.classes.get(cls)
            if ci is None:
                continue
            open_paren = m.end() - 1
            pend = match_bracket(text, open_paren, "(", ")")
            if pend < 0:
                continue
            body_open = self._find_body_open(text, pend)
            if body_open is None:
                continue
            pos, is_const = body_open
            end = match_bracket(text, pos, "{", "}")
            if end < 0:
                continue
            # Anchor the definition at the return type when it sits on
            # its own directly-preceding line (the repo's house style),
            # so a DAPPER_LINT_ALLOW above the signature covers it.
            def_line = line_of(text, m.start())
            bol = text.rfind("\n", 0, m.start()) + 1
            if not text[bol:m.start()].strip() and bol >= 2:
                pbol = text.rfind("\n", 0, bol - 1) + 1
                prev = text[pbol:bol - 1].strip()
                if prev and re.fullmatch(r"[\w:<>,&*\s\[\]]+", prev):
                    def_line -= 1
            ci.add_method(Method(cls, name, sf.rel, def_line,
                                 text[pos + 1:end - 1], is_const))

    @staticmethod
    def _find_body_open(text, pos):
        """From just past the parameter list ')', step over qualifiers and
        a ctor initializer list to the body '{'. Returns (index, is_const)
        or None for a declaration."""
        is_const = False
        n = len(text)
        while pos < n:
            mm = re.match(r"\s*(const|noexcept|override|final|&&?|"
                          r"->\s*[\w:<>,&*\s]+?(?=\s*[{;]))", text[pos:])
            if mm:
                if mm.group(1) == "const":
                    is_const = True
                pos += mm.end()
                continue
            break
        ws = re.match(r"\s*", text[pos:])
        pos += ws.end()
        if pos >= n:
            return None
        if text[pos] == ":":
            pos += 1
            while pos < n:
                mm = re.match(r"\s*[\w:]+\s*(<)?", text[pos:])
                if not mm:
                    return None
                pos += mm.end()
                if mm.group(1):  # templated base: skip to matching '>'
                    depth = 1
                    while pos < n and depth:
                        if text[pos] == "<":
                            depth += 1
                        elif text[pos] == ">":
                            depth -= 1
                        pos += 1
                ws = re.match(r"\s*", text[pos:])
                pos += ws.end()
                if pos >= n or text[pos] not in "({":
                    return None
                end = match_bracket(text, pos,
                                    text[pos], ")" if text[pos] == "(" else "}")
                if end < 0:
                    return None
                pos = end
                ws = re.match(r"\s*", text[pos:])
                pos += ws.end()
                if pos < n and text[pos] == ",":
                    pos += 1
                    continue
                break
            ws = re.match(r"\s*", text[pos:])
            pos += ws.end()
        if pos < n and text[pos] == "{":
            return pos, is_const
        return None

    # -- queries -------------------------------------------------------------

    def all_methods(self, cls_name):
        ci = self.classes.get(cls_name)
        if ci is None:
            return
        for ms in ci.methods.values():
            yield from ms

    def base_closure(self, cls_name, limit=8):
        out = []
        frontier = [cls_name]
        seen = set()
        while frontier and limit:
            limit -= 1
            nxt = []
            for c in frontier:
                if c in seen:
                    continue
                seen.add(c)
                out.append(c)
                ci = self.classes.get(c)
                if ci:
                    nxt.extend(ci.bases)
            frontier = nxt
        return out


# ---------------------------------------------------------------------------
# Rule: stat-export-completeness.
# ---------------------------------------------------------------------------

def rule_stat_export(index: ProjectIndex, scope_rels):
    finds = []
    for ci in index.classes.values():
        if ci.rel not in scope_rels:
            continue
        if "exportStats" not in ci.methods:
            continue
        export_text = _export_closure(index, ci)
        # Candidate counters: own members, plus fields of *Stats structs
        # held as members (reached as `stats_.hits++` in this class's
        # methods — the field token is what mutation sets record).
        candidates = {}  # counter name -> (rel, line, via)
        for name, (rel, line) in ci.members.items():
            candidates[name] = (rel, line, name)
        for mname, ttok in ci.member_types.items():
            sub = index.classes.get(ttok)
            if sub is not None and ttok.endswith("Stats"):
                for fname, (rel, line) in sub.members.items():
                    candidates.setdefault(fname, (rel, line,
                                                  f"{mname}.{fname}"))
        methods = list(index.all_methods(ci.name))
        inc_all = set()
        rea_all = set()
        ctor_inc = set()
        for m in methods:
            if m.name == "exportStats":
                continue
            if m.is_ctor:
                ctor_inc |= m.incremented | m.reassigned
                continue
            inc_all |= m.incremented
            rea_all |= m.reassigned
        for name, (rel, line, via) in sorted(candidates.items()):
            if name not in inc_all:
                continue            # never incremented: not a counter
            if name in rea_all:
                continue            # reassigned/decremented: clock or gauge
            if _BOOKKEEPING_NAME_RE.search(name) or \
                    _BOOKKEEPING_PREFIX_RE.match(name):
                continue            # generation stamp / cursor by name
            if name in ctor_inc and name not in inc_all:
                continue            # constructor-only arithmetic
            token = name
            if re.search(rf"\b{re.escape(token)}\b", export_text):
                continue
            finds.append(Finding(
                rel, line, "stat-export-completeness",
                f"counter `{via}` of `{ci.name}` is monotonically "
                "incremented but never reaches "
                f"`{ci.name}::exportStats(StatWriter&)` — emit it (or an "
                "accessor over it); incremented-but-unexported counters "
                "are the PR 5 droppedWritebacks bug class",
                severity=SEVERITY_ERROR))
    return finds


def _export_closure(index, ci):
    """Concatenated text of exportStats bodies of @p ci and its bases,
    fixpoint-expanded through methods the closure calls — accessors like
    MemControllerStats::avgReadLatency() and delegated member
    exportStats. Callees resolve within the class, its bases, and the
    types of its members (where delegation/accessors live); wider
    resolution would let an unrelated class's export mask a genuinely
    unexported counter."""
    allowed = set(index.base_closure(ci.name))
    for ttok in ci.member_types.values():
        if ttok in index.classes:
            allowed.add(ttok)
            allowed.update(index.base_closure(ttok))
    texts = []
    added = set()
    frontier = []
    for c in index.base_closure(ci.name):
        cinfo = index.classes.get(c)
        if cinfo is None:
            continue
        frontier.extend(cinfo.methods.get("exportStats", []))
    while frontier:
        m = frontier.pop()
        if m.key in added:
            continue
        added.add(m.key)
        texts.append(m.body)
        for callee in m.calls:
            for target in index.methods_by_name.get(callee, []):
                if target.cls in allowed:
                    frontier.append(target)
    return "\n".join(texts)


# ---------------------------------------------------------------------------
# Rule: check-purity.
# ---------------------------------------------------------------------------

_CHECK_SITE_RE = re.compile(r"\b(assert|DAPPER_CHECK(?:_CTX)?)\s*\(")
# Known-pure call names the index cannot prove const (free functions,
# std:: members on temporaries, etc.).
_PURE_CALLS = frozenset(
    "size empty count find at contains min max abs front back begin end "
    "cbegin cend data get value has_value first second top test all any "
    "none c_str length capacity load index rank bank row channel "
    "to_string".split())


def rule_check_purity(index: ProjectIndex, files, scope_rels):
    finds = []
    for sf in files:
        if sf.rel not in scope_rels or sf.rel.endswith("common/check.hh"):
            continue
        text = strip_preprocessor(sf.scrubbed)
        for m in _CHECK_SITE_RE.finditer(text):
            open_paren = text.index("(", m.end() - 1)
            end = match_bracket(text, open_paren, "(", ")")
            if end < 0:
                continue
            args = text[open_paren + 1:end - 1]
            # Only the condition is unconditionally evaluated: for
            # DAPPER_CHECK/_CTX that is the first top-level argument; a
            # bare assert has exactly one.
            cond = _first_top_arg(args) if m.group(1) != "assert" else args
            line = line_of(text, m.start())
            kind = m.group(1)
            for why in _impure_reasons(index, cond):
                finds.append(Finding(
                    sf.rel, line, "check-purity",
                    f"side effect in {kind}() condition: {why} — the "
                    "condition must be pure (assert compiles out under "
                    "NDEBUG and a diverging check breaks engine/bench "
                    "bit-identity); hoist the effect onto its own "
                    "statement", severity=SEVERITY_ERROR))
    return finds


def _first_top_arg(args):
    depth = 0
    for i, c in enumerate(args):
        if c in "(<[{":
            depth += 1
        elif c in ")>]}":
            depth -= 1
        elif c == "," and depth == 0:
            return args[:i]
    return args


def _impure_reasons(index, cond):
    out = []
    if re.search(r"\+\+|--", cond):
        out.append("increment/decrement operator")
    for m in re.finditer(r"(?<![=!<>+\-*/%&|^<>])=(?!=)", cond):
        # Exclude `<=`, `>=` handled by lookbehind; exclude lambda
        # captures `[=]` and default template args (absent in conditions).
        before = cond[:m.start()].rstrip()
        if before.endswith("operator"):
            continue
        if before.endswith("["):
            continue  # [=] capture
        out.append("assignment")
        break
    for m in _CALL_RE.finditer(cond):
        name = m.group(1)
        if name in _KEYWORDS or name in _PURE_CALLS:
            continue
        overloads = index.methods_by_name.get(name)
        if not overloads:
            continue  # unknown/free function: give benefit of the doubt
        if all(not ov.is_const and not ov.is_ctor for ov in overloads):
            out.append(f"call to `{name}()`, which resolves only to "
                       "non-const methods")
    return out


# ---------------------------------------------------------------------------
# Rule: engine-parity.
# ---------------------------------------------------------------------------

# The event engine, and the per-tick oracle it must match (tests/oracle/).
ENGINE_ROOTS = (("System", "run"), ("ReferenceEngine", "run"))


def rule_engine_parity(index: ProjectIndex, scope_rels):
    reach = []
    for cls, name in ENGINE_ROOTS:
        ci = index.classes.get(cls)
        roots = list(ci.methods.get(name, [])) if ci else []
        reach.append(_reachable(index, roots))
    run_only = reach[0] - reach[1]
    ref_only = reach[1] - reach[0]
    run_root, ref_root = (f"{c}::{n}" for c, n in ENGINE_ROOTS)
    roots = {run_root, ref_root}
    finds = []
    for only, this_root, other_root in (
            (run_only, run_root, ref_root),
            (ref_only, ref_root, run_root)):
        for key in sorted(only):
            if key in roots:
                continue  # the engine drivers ARE the asymmetry
            m = _method_by_key(index, key)
            if m is None or not m.mutated or m.is_ctor:
                continue
            if m.rel not in scope_rels:
                continue
            mutset = sorted(m.incremented | m.reassigned)[:4]
            finds.append(Finding(
                m.rel, m.line, "engine-parity",
                f"`{m.key}` mutates member state "
                f"({', '.join(mutset)}{'...' if (len(m.incremented | m.reassigned) > 4) else ''}) "
                f"and is reachable from {this_root} but not {other_root} "
                "(approximate call graph); if the asymmetry is inherent "
                "to one engine, justify with DAPPER_LINT_ALLOW why it "
                "cannot leak into results", severity=SEVERITY_WARNING))
    return finds


def _reachable(index, roots):
    seen = set()
    frontier = list(roots)
    while frontier:
        m = frontier.pop()
        if m.key in seen:
            continue
        seen.add(m.key)
        for callee in m.calls:
            for target in index.methods_by_name.get(callee, []):
                if target.key not in seen:
                    frontier.append(target)
    return seen


def _method_by_key(index, key):
    cls, name = key.split("::", 1)
    ci = index.classes.get(cls)
    if ci is None:
        return None
    ms = ci.methods.get(name, [])
    return ms[0] if ms else None


# ---------------------------------------------------------------------------
# Rule: narrowing-address.
# ---------------------------------------------------------------------------

_WIDE_TYPES = ("Addr", "Tick", "uint64_t", "size_t", "u64")
_NARROW_DECL_RE = re.compile(
    r"\b(uint32_t|uint16_t|uint8_t|int32_t|int16_t)\s+"
    r"([A-Za-z_]\w*)\s*=\s*([^;{]+);")
_WIDE_DECL_RE = re.compile(
    r"\b(?:Addr|Tick|uint64_t|size_t)\s+([A-Za-z_]\w*)\s*[;=,)]")
_NARROW_ANYDECL_RE = re.compile(
    r"\b(?:uint32_t|uint16_t|uint8_t|int32_t|int16_t|int|unsigned|short|"
    r"char)\s+([A-Za-z_]\w*)\s*[;=,)]")


def _mask_value_opaque(rhs):
    """Blank sub-expressions whose VALUE width is not the width of the
    identifiers inside them: call argument lists (`f(addr)` yields f's
    return width) and array subscripts (`table[pos]` yields the element
    width). Parenthesized arithmetic (`(addr >> 2)`) is kept."""
    out = list(rhs)
    i = 0
    while i < len(rhs):
        c = rhs[i]
        if c in "([":
            prev = rhs[:i].rstrip()[-1:]
            is_call_or_sub = (c == "[") or \
                (prev and (prev.isalnum() or prev in "_>]"))
            if is_call_or_sub:
                end = match_bracket(rhs, i, c, ")" if c == "(" else "]")
                if end > 0:
                    for j in range(i + 1, end - 1):
                        if out[j] != "\n":
                            out[j] = " "
                    i = end
                    continue
        i += 1
    return "".join(out)


def rule_narrowing_address(index: ProjectIndex, files, scope_rels):
    # Known 64-bit-typed identifiers: per-file local/param declarations
    # plus every member any class declares with a wide type. A name also
    # declared with a narrow type anywhere (another scope, a shadowing
    # local, a same-named parameter) is ambiguous without real type
    # resolution — dropped rather than risk a false positive.
    wide_members = set()
    narrow_members = set()
    for ci in index.classes.values():
        for name, ttok in ci.member_types.items():
            if ttok in _WIDE_TYPES:
                wide_members.add(name)
            else:
                narrow_members.add(name)
    finds = []
    for sf in files:
        if sf.rel not in scope_rels:
            continue
        text = strip_preprocessor(sf.scrubbed)
        wide_local = {m.group(1) for m in _WIDE_DECL_RE.finditer(text)}
        narrow_local = {m.group(1)
                        for m in _NARROW_ANYDECL_RE.finditer(text)}
        wide = (wide_local | wide_members) - narrow_local - \
            (narrow_members - wide_local)
        for m in _NARROW_DECL_RE.finditer(text):
            narrow_ty, _name, rhs = m.group(1), m.group(2), m.group(3)
            if "static_cast" in rhs or "narrow_cast" in rhs:
                continue
            culprit = None
            for idm in re.finditer(r"\b([A-Za-z_]\w*)\b",
                                   _mask_value_opaque(rhs)):
                ident = idm.group(1)
                if ident in wide:
                    culprit = ident
                    break
            if culprit is None:
                continue
            finds.append(Finding(
                sf.rel, line_of(text, m.start()), "narrowing-address",
                f"`{narrow_ty} {_name} = ...` implicitly truncates "
                f"64-bit value `{culprit}` (Addr/Tick/u64 arithmetic); "
                "write the truncation explicitly with static_cast<"
                f"{narrow_ty}>(...) so the packed-width contract is "
                "visible, or keep the full width",
                severity=SEVERITY_ERROR))
    return finds


# ---------------------------------------------------------------------------
# Driver.
# ---------------------------------------------------------------------------

# Indexed whenever a compile DB is present (tests/oracle/ holds the
# ReferenceEngine::run root of engine-parity).
INDEX_ROOTS = ("src", "tests/oracle")


def audit_files(paths, allowlist, compile_db=None, rules=None,
                only_files=None):
    """Returns (findings, warnings). The index is always built over the
    full path set (cross-TU rules are meaningless per-file); @p only_files
    restricts which files findings are *reported* for."""
    file_paths = collect_files(paths)
    db_rels = compile_db_sources(compile_db)
    if db_rels:
        # The compile DB confirms a configured build exists; index the
        # whole of src/ and the oracle tree (headers included — the DB
        # lists only TUs, and a TU-only index would lose every class
        # body) so cross-TU rules see the same world regardless of which
        # files the caller named.
        have = {relpath(p) for p in file_paths}
        for rel in db_rels:
            if rel not in have and (REPO_ROOT / rel).exists() and \
                    rel.startswith(tuple(d + "/" for d in INDEX_ROOTS)):
                file_paths.append(REPO_ROOT / rel)
                have.add(rel)
        for p in collect_files([REPO_ROOT / d for d in INDEX_ROOTS]):
            if relpath(p) not in have:
                file_paths.append(p)
                have.add(relpath(p))
    files = [SourceFile(p, relpath(p)) for p in file_paths]
    index = ProjectIndex(files)
    scope_rels = {sf.rel for sf in files}
    if only_files is not None:
        scope_rels &= set(only_files)

    active = rules or list(AUDIT_RULE_NAMES)
    raw = []
    if "stat-export-completeness" in active:
        raw.extend(rule_stat_export(index, scope_rels))
    if "check-purity" in active:
        raw.extend(rule_check_purity(index, files, scope_rels))
    if "engine-parity" in active:
        raw.extend(rule_engine_parity(index, scope_rels))
    if "narrowing-address" in active:
        raw.extend(rule_narrowing_address(index, files, scope_rels))

    findings, warnings = [], []
    findings.extend(allowlist.errors)
    by_rel = {}
    for f in raw:
        by_rel.setdefault(f.file, []).append(f)
    own_rules = set(AUDIT_RULE_NAMES)
    for sf in files:
        if only_files is not None and sf.rel not in scope_rels:
            continue
        per_file = by_rel.pop(sf.rel, [])
        findings.extend(annotation_validity(sf, ALL_RULE_NAMES))
        resolve_suppressions(sf, per_file, allowlist)
        if only_files is None:
            warnings.extend(unused_annotation_warnings(sf, own_rules))
        findings.extend(f for f in per_file if not f.suppressed)
    # Findings in files we indexed but did not load as SourceFile (cannot
    # happen today — everything comes from `files`) would land here.
    for leftover in by_rel.values():
        findings.extend(leftover)
    return findings, warnings


# ---------------------------------------------------------------------------
# Self-test over the audit fixture corpus + the real tree.
# ---------------------------------------------------------------------------

FIXTURES = {
    "stat-export-completeness": (["stat_export_bad.cc"],
                                 ["stat_export_good.cc"]),
    "check-purity": (["check_purity_bad.cc"], ["check_purity_good.cc"]),
    "engine-parity": (["engine_parity_bad.cc"], ["engine_parity_good.cc"]),
    "narrowing-address": (["narrowing_address_bad.cc"],
                          ["narrowing_address_good.cc"]),
}


def selftest(verbose=True):
    failures = []
    empty_allow = Allowlist([], [])

    def check(cond, label):
        if cond:
            if verbose:
                print(f"  ok   {label}")
        else:
            failures.append(label)
            print(f"  FAIL {label}")

    print("dapper-audit selftest")

    # 1. Each rule fires on its positive fixture, only its own rule, and
    # is silent on the negative twin.
    for rule, (bad, good) in FIXTURES.items():
        finds, _ = audit_files([FIXTURE_DIR / f for f in bad], empty_allow)
        hits = [f for f in finds if f.rule == rule]
        check(len(hits) >= 1, f"{rule}: fires on {bad[0]} "
                              f"({len(hits)} findings)")
        if rule == "stat-export-completeness":
            names = {m.group(1) for m in
                     (re.search(r"`([\w.]+)`", f.message) for f in hits)
                     if m}
            check(names == {"drops_", "stats_.evictions"},
                  f"stat-export: catches both the plain member and the "
                  f"struct-field counter ({sorted(names)})")
        others = [f for f in finds if f.rule not in (rule, "bad-suppression")]
        check(not others, f"{rule}: {bad[0]} triggers only its own rule "
                          f"(extra: {[f.rule for f in others]})")
        finds, _ = audit_files([FIXTURE_DIR / f for f in good], empty_allow)
        check(not finds, f"{rule}: silent on {good[0]} "
                         f"({[f.render() for f in finds]})")

    # 2. Suppression: a justified annotation silences the advisory tier;
    # an unjustified one does not.
    finds, _ = audit_files([FIXTURE_DIR / "audit_suppression_ok.cc"],
                           empty_allow)
    check(not finds, f"suppression: annotated audit fixture is clean "
                     f"({[f.render() for f in finds]})")
    finds, _ = audit_files([FIXTURE_DIR / "audit_suppression_bad.cc"],
                           empty_allow)
    check(any(f.rule == "bad-suppression" for f in finds),
          "suppression: unjustified audit annotation is a finding")
    check(any(f.rule in AUDIT_RULE_NAMES for f in finds),
          "suppression: unjustified annotation does not suppress")

    # 3. SARIF renderer: structurally valid 2.1.0, findings round-trip.
    demo = [Finding("src/x.cc", 3, "check-purity", "demo",
                    severity=SEVERITY_ERROR),
            Finding("src/y.cc", 7, "engine-parity", "demo2",
                    severity=SEVERITY_WARNING)]
    import json as _json
    import tempfile
    import os as _os
    fd, tmp = tempfile.mkstemp(suffix=".sarif")
    _os.close(fd)
    try:
        doc = write_sarif(tmp, demo, "dapper-audit", TOOL_VERSION, RULE_META)
        check(not validate_sarif(doc), "sarif: renderer output validates")
        with open(tmp, "r", encoding="utf-8") as fh:
            redoc = _json.load(fh)
        res = redoc["runs"][0]["results"]
        check(len(res) == 2 and res[0]["level"] == "error" and
              res[1]["level"] == "warning",
              "sarif: severities map to levels")
        check(res[0]["locations"][0]["physicalLocation"]
              ["artifactLocation"]["uri"] == "src/x.cc",
              "sarif: repo-relative artifact uri")
    finally:
        _os.unlink(tmp)

    # 4. The real tree is clean: zero error-tier findings, zero
    # unsuppressed advisory findings, and zero allowlist entries in play
    # for audit rules (acceptance: inline annotations only).
    allow = Allowlist.load(DEFAULT_ALLOWLIST, ALL_RULE_NAMES)
    check(not any(r in set(AUDIT_RULE_NAMES) for r, _, _ in allow.entries),
          "policy: shipped allowlist has no audit-rule entries")
    finds, warns = audit_files([REPO_ROOT / "src"], allow,
                               compile_db=REPO_ROOT / "build")
    for f in finds:
        print(f"  tree finding: {f.render()}")
    check(not finds, "full src/ tree is clean under the audit rules")
    check(not any(f.rule == "stat-export-completeness" and f.suppressed
                  for f in finds),
          "policy: no stat-export-completeness suppressions anywhere")
    for w in warns:
        print(f"  tree warning: {w}")

    print(f"selftest: {len(failures)} failure(s)")
    return 0 if not failures else 1


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="dapper-audit",
        description="cross-TU semantic analysis for DAPPER: stat-export "
                    "completeness, check purity, engine parity, narrowing "
                    "address arithmetic")
    ap.add_argument("paths", nargs="*",
                    help="files or directories to audit (default: src/)")
    ap.add_argument("-p", "--compile-commands-dir", default=None,
                    help="build dir containing compile_commands.json "
                         "(authoritative TU list; default: build/ if "
                         "present)")
    ap.add_argument("--allowlist", default=str(DEFAULT_ALLOWLIST))
    ap.add_argument("--rule", action="append", dest="rules",
                    choices=sorted(AUDIT_RULE_NAMES),
                    help="restrict to given rule(s)")
    ap.add_argument("--changed", choices=("worktree", "cached"),
                    default=None,
                    help="report findings only for files git considers "
                         "changed ('cached' = staged, for pre-commit); "
                         "the cross-TU index is still built over the "
                         "whole tree")
    ap.add_argument("--json", action="store_true",
                    help="emit findings as JSON")
    ap.add_argument("--sarif", default=None, metavar="PATH",
                    help="also write findings as SARIF 2.1.0 to PATH")
    ap.add_argument("--strict", action="store_true",
                    help="exit 1 on warnings too, not just errors")
    ap.add_argument("--list-rules", action="store_true")
    ap.add_argument("--selftest", action="store_true",
                    help="run the fixture self-test + full-tree check")
    ap.add_argument("-q", "--quiet", action="store_true")
    args = ap.parse_args(argv)

    if args.list_rules:
        for name in AUDIT_RULE_NAMES:
            print(f"{name:26s} [{RULE_META[name]['severity']}] "
                  f"{RULE_META[name]['description']}")
        return 0
    if args.selftest:
        return selftest(verbose=not args.quiet)

    only_files = None
    if args.changed is not None:
        changed = changed_files(args.changed)
        if changed is None:
            print("dapper-audit: --changed requested but git is "
                  "unavailable; scanning everything", file=sys.stderr)
        else:
            only_files = changed
            if not any(f.endswith((".cc", ".hh", ".cpp", ".hpp", ".h"))
                       for f in only_files):
                if not args.quiet:
                    print("dapper-audit: no changed C++ files; clean")
                return 0

    compile_db = args.compile_commands_dir
    if compile_db is None and (REPO_ROOT / "build" /
                               "compile_commands.json").exists():
        compile_db = REPO_ROOT / "build"

    paths = args.paths or [str(REPO_ROOT / "src")]
    if (only_files is None and args.paths
            and all(Path(p).is_file() for p in args.paths)):
        # Naming individual files scopes the *report* to them; the index
        # still covers the whole tree (cross-TU rules need it).
        only_files = [relpath(Path(p).resolve()) for p in args.paths]
    try:
        findings, warnings = audit_files(
            paths, Allowlist.load(args.allowlist, ALL_RULE_NAMES),
            compile_db=compile_db, rules=args.rules, only_files=only_files)
    except (RuntimeError, FileNotFoundError) as exc:
        print(f"dapper-audit: {exc}", file=sys.stderr)
        return 2
    if args.sarif:
        write_sarif(args.sarif, findings, "dapper-audit", TOOL_VERSION,
                    RULE_META)
    print_findings(findings, warnings, quiet=args.quiet, as_json=args.json)
    errors = [f for f in findings if f.severity == SEVERITY_ERROR]
    gate = findings if args.strict else errors
    if gate:
        if not args.quiet and not args.json:
            print(f"dapper-audit: {len(errors)} error(s), "
                  f"{len(findings) - len(errors)} warning(s); see "
                  "tools/lint/README.md for the rule contract and "
                  "suppression policy", file=sys.stderr)
        return 1
    if not args.quiet:
        if findings:
            print(f"dapper-audit: 0 error(s), {len(findings)} advisory "
                  "warning(s) — justify with DAPPER_LINT_ALLOW or fix")
        else:
            print("dapper-audit: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
