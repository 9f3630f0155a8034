"""L1: capture-lifetime discipline for pooled event callbacks.

Event callbacks outlive the statement that schedules them: they sit in
SlabPool nodes inside the EventQueue until virtual time reaches them. The
scheduling sinks are EventQueue::Push (via Simulator::ScheduleAt /
ScheduleAfter) and direct InlineFunction / EventQueue::Callback
construction. A callable handed to one of these must not capture:

  - a reference (or pointer) to a per-iteration local: it is destroyed at
    the end of the loop iteration, long before the event fires (the exact
    shape of the stack-capture bugs repaired by hand in the PR-6 rework);
  - a pointer into a std::vector the function keeps growing: push_back can
    reallocate and the element pointer dangles (reallocation-unstable);
  - a reference to a function-scope local when the function returns before
    draining the simulator (no .Run() in the function): the frame is gone
    when the event fires;
  - a non-trivially-copyable wrapper by value (std::string, std::vector,
    std::function, ...): InlineFunction requires trivially-copyable
    captures, and the wrapper blows the 16-byte inline budget anyway.

Allowed, and deliberately not flagged: `this` and member captures,
by-value captures of scalars, pointers into containers that outlive the run
(the `const Request* arrival = &req` idiom over a range-for reference),
pool-stable pointers (SlabPool slabs never move), and by-reference captures
of function locals in run-to-completion experiment functions (the function
calls sim.Run() before those locals die).
"""

import re

from . import rule
from ..source import Finding, find_matching_bracket, find_matching_paren

# Scheduling sinks. ScheduleAt/ScheduleAfter are unambiguous names; Push is
# matched only as a member call (x.Push / x->Push) to avoid unrelated free
# functions.
_SINK_RE = re.compile(
    r"(?:\b(ScheduleAt|ScheduleAfter)|(?:\.|->)\s*(Push))\s*\(")

# Direct construction of a pooled callback type from a lambda.
_CALLBACK_INIT_RE = re.compile(
    r"\b(?:EventQueue\s*::\s*)?(?:Callback|InlineFunction\s*<[^<>;]*>)\s+"
    r"[A-Za-z_]\w*\s*[={(]")

_RUN_RE = re.compile(r"(?:\.|->)\s*Run\s*\(")

_TYPE_KEYWORDS = frozenset((
    "return", "delete", "throw", "new", "case", "goto", "else", "do", "if",
    "while", "for", "break", "continue", "using", "typedef", "sizeof",
    "switch", "default", "public", "private", "protected", "namespace",
    "template", "typename", "class", "struct", "enum", "co_return",
))

_NONTRIVIAL_TYPE_RE = re.compile(
    r"^(?:std\s*::\s*)?(?:string|basic_string|vector|deque|list|map|set|"
    r"multimap|multiset|unordered_\w+|function|shared_ptr|optional|any)\b")

_GROW_METHODS = r"(?:push_back|emplace_back|emplace|resize|insert|assign|clear)"


def find_sink_calls(clean):
    """All scheduling-sink call sites: (name, match_start, open, close)."""
    out = []
    for m in _SINK_RE.finditer(clean):
        name = m.group(1) or m.group(2)
        open_paren = m.end() - 1
        close = find_matching_paren(clean, open_paren)
        out.append((name, m.start(), open_paren, close))
    return out


def find_lambda_literals(clean, start, end):
    """Lambda literals in [start, end): (cap_open, cap_close, lam_start)."""
    out = []
    i = start
    while i < end:
        if clean[i] != "[":
            i += 1
            continue
        # A lambda's '[' follows a delimiter, never an identifier or ')' or
        # ']' (those are subscripts).
        j = i - 1
        while j >= 0 and clean[j] in " \t\n":
            j -= 1
        prev = clean[j] if j >= 0 else "("
        if prev.isalnum() or prev in "_)]":
            i += 1
            continue
        cap_close = find_matching_bracket(clean, i)
        # Must be followed by (params) and/or a body brace.
        k = cap_close + 1
        while k < len(clean) and clean[k] in " \t\n":
            k += 1
        if k < len(clean) and clean[k] == "(":
            k = find_matching_paren(clean, k) + 1
            while k < len(clean) and clean[k] in " \t\n":
                k += 1
            # Skip specifiers / trailing return type up to the body brace.
            spec = re.match(r"(?:(?:mutable|constexpr|noexcept)\s*|->\s*[\w:<>,\s*&]+?\s*)*",
                            clean[k:k + 96])
            if spec:
                k += spec.end()
        if k < len(clean) and clean[k] == "{":
            out.append((i, cap_close, i))
            i = cap_close + 1
        else:
            i += 1
    return out


def split_top_level(text, sep=","):
    """Splits on `sep` at bracket depth 0."""
    parts = []
    depth = 0
    cur = []
    for c in text:
        if c in "([{<":
            depth += 1
        elif c in ")]}>":
            depth -= 1
        elif c == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
            continue
        cur.append(c)
    parts.append("".join(cur))
    return parts


class _ScopeModel:
    """Loop-body and function-body structure of one file."""

    def __init__(self, sf):
        self.sf = sf
        self.clean = sf.clean
        self.loop_bodies = self._find_loop_bodies()

    def _find_loop_bodies(self):
        bodies = set()
        for m in re.finditer(r"\b(?:for|while)\s*\(", self.clean):
            close = find_matching_paren(self.clean, m.end() - 1)
            k = close + 1
            while k < len(self.clean) and self.clean[k] in " \t\n":
                k += 1
            if k < len(self.clean) and self.clean[k] == "{":
                bodies.add(k)
        for m in re.finditer(r"\bdo\s*\{", self.clean):
            bodies.add(m.end() - 1)
        return bodies

    def function_span(self, offset):
        """Outermost enclosing brace span that is a function-ish body."""
        for open_o, close_o in self.sf.enclosing_spans(offset):
            before = self.clean[max(0, open_o - 160):open_o]
            if re.search(
                    r"\)\s*(?:(?:const|noexcept|override|final|mutable)\s*|"
                    r"->\s*[\w:<>,\s*&]+?\s*|:\s*[^;{}]*?)?$", before):
                return (open_o, close_o)
        return None

    def loop_span_of(self, decl_offset, within=None):
        """Innermost loop body containing decl_offset (inside `within`)."""
        best = None
        for open_o, close_o in self.sf.enclosing_spans(decl_offset):
            if within and open_o < within[0]:
                continue
            if open_o in self.loop_bodies:
                best = (open_o, close_o)
        return best


# Variable declaration lookup. The type group must precede the name; common
# statement keywords are rejected so `return x;` is not a declaration of x.
def _decl_re(name):
    return re.compile(
        r"(?:^|[;{}(])\s*"
        r"(?:(?:const|constexpr|static|auto|unsigned|signed)\s+)*"
        r"(?P<type>[A-Za-z_][\w:]*(?:\s*<[^;{}]*?>)?)"
        r"(?P<ptr>(?:\s*[*&])*)\s+"
        r"(?:const\s+)?"
        r"\b%s\b\s*(?P<init>=[^;]*)?(?=[;,)])" % re.escape(name))


def _rangefor_re(name):
    return re.compile(
        r"\bfor\s*\(\s*(?:const\s+)?[\w:]+(?:\s*<[^;(){}]*>)?\s*"
        r"(?P<ref>&&?|\*)?\s*\b%s\b\s*:" % re.escape(name))


class _Decl:
    def __init__(self, kind, offset, type_name="", is_ptr=False, is_ref=False,
                 init=""):
        self.kind = kind      # 'var' | 'rangefor'
        self.offset = offset
        self.type_name = type_name
        self.is_ptr = is_ptr
        self.is_ref = is_ref
        self.init = init


def _find_decl(clean, func_span, name, before_offset):
    """Last declaration of `name` in the function before `before_offset`."""
    region = clean[func_span[0]:before_offset]
    best = None
    for m in _rangefor_re(name).finditer(region):
        ref = m.group("ref") or ""
        best = (m.start(), _Decl("rangefor", func_span[0] + m.start(),
                                 is_ref="&" in ref, is_ptr="*" in ref))
    for m in _decl_re(name).finditer(region):
        t = m.group("type")
        if t in _TYPE_KEYWORDS:
            continue
        ptr = m.group("ptr") or ""
        # Anchor at the type token, not the [;{}(] boundary the regex eats:
        # a decl at the top of a loop body must sit strictly inside the span.
        d = _Decl("var", func_span[0] + m.start("type"), type_name=t,
                  is_ptr="*" in ptr, is_ref="&" in ptr,
                  init=(m.group("init") or "").lstrip("= \t"))
        if best is None or m.start() > best[0]:
            best = (m.start(), d)
    return best[1] if best else None


def _storage(model, func_span, decl, sink_offset):
    """'iter' (dies each iteration), 'func', or 'unknown'."""
    if decl is None:
        return "unknown"
    if decl.kind == "rangefor":
        # The loop variable's storage is per-iteration; as a reference it
        # aliases a container element instead.
        return "iter_ref" if decl.is_ref else "iter"
    loop = model.loop_span_of(decl.offset, within=func_span)
    if loop and loop[0] < sink_offset < loop[1]:
        # Scheduled from the same iteration the local lives in. Safe only if
        # the queue is drained inside that same iteration.
        body = model.clean[loop[0]:loop[1]]
        if not _RUN_RE.search(body):
            return "iter"
    return "func"


def _alias_target(init):
    """&name the initializer aliases, or None."""
    m = re.match(r"^&\s*([A-Za-z_]\w*)\s*$", init.strip())
    return m.group(1) if m else None


def _vector_element_container(init):
    """Container name when init aliases a reallocation-unstable element."""
    s = init.strip()
    for pat in (r"^&\s*([A-Za-z_]\w*)\s*\[",
                r"^([A-Za-z_]\w*)\s*\.\s*data\s*\(",
                r"^&\s*([A-Za-z_]\w*)\s*\.\s*(?:back|front|at)\s*\("):
        m = re.match(pat, s)
        if m:
            return m.group(1)
    return None


def _analyze_lambda(sf, model, cap_open, cap_close, sink_offset, sink_name):
    """Yields L1 findings for one lambda's capture list."""
    clean = sf.clean
    func_span = model.function_span(cap_open)
    if func_span is None:
        return
    func_text = clean[func_span[0]:func_span[1]]
    func_runs = bool(_RUN_RE.search(func_text))
    caps = split_top_level(clean[cap_open + 1:cap_close])

    def flag(offset, detail):
        return Finding(
            "L1", sf, offset,
            "callable scheduled via %s %s; the event outlives this frame in "
            "a pooled queue node -- capture `this`, a pool-stable pointer, "
            "or state that survives until the event fires" % (sink_name, detail))

    for cap in caps:
        cap = cap.strip()
        if not cap or cap in ("this", "*this", "="):
            continue
        if cap == "&":
            if not func_runs:
                yield flag(cap_open,
                           "uses a default by-reference capture [&] in a "
                           "function that returns before the queue drains")
            continue
        if cap.startswith("&"):
            name = re.match(r"&\s*([A-Za-z_]\w*)", cap)
            if not name:
                continue
            name = name.group(1)
            decl = _find_decl(clean, func_span, name, cap_open)
            st = _storage(model, func_span, decl, sink_offset)
            if st == "iter":
                yield flag(cap_open,
                           "captures `&%s`, a per-iteration local destroyed "
                           "at the end of each loop iteration" % name)
            elif st == "func" and not func_runs:
                yield flag(cap_open,
                           "captures `&%s`, a stack local of a function that "
                           "returns before the queue drains" % name)
            continue
        # Init capture `n = expr` or plain value capture `n`.
        if "=" in cap:
            name, _, init = cap.partition("=")
            name = name.strip().lstrip("&").strip()
            init = init.strip()
        else:
            name = cap
            decl = _find_decl(clean, func_span, name, cap_open)
            init = ""
            if decl is not None and decl.kind == "var":
                if decl.is_ptr and decl.init:
                    init = decl.init
                elif _NONTRIVIAL_TYPE_RE.match(decl.type_name or ""):
                    yield flag(cap_open,
                               "copies `%s` (%s) by value into a pooled "
                               "callback; InlineFunction captures must be "
                               "trivially copyable and within the 16-byte "
                               "budget" % (name, decl.type_name))
                    continue
        if not init:
            continue
        container = _vector_element_container(init)
        if container is not None:
            if re.search(r"\b%s\s*\.\s*%s\s*\(" % (re.escape(container), _GROW_METHODS),
                         func_text):
                yield flag(cap_open,
                           "captures a pointer into `%s`, which this function "
                           "grows; std::vector reallocation leaves the "
                           "captured element pointer dangling" % container)
            continue
        target = _alias_target(init)
        if target is None:
            continue
        decl = _find_decl(clean, func_span, target, cap_open)
        st = _storage(model, func_span, decl, sink_offset)
        if st == "iter":
            yield flag(cap_open,
                       "captures `%s = &%s`, a pointer to per-iteration "
                       "storage destroyed at the end of each loop iteration"
                       % (name, target))
        elif st == "func" and not func_runs:
            yield flag(cap_open,
                       "captures `%s = &%s`, a pointer to a stack local of a "
                       "function that returns before the queue drains"
                       % (name, target))


def _named_callable_lambda(clean, func_span, arg, sink_offset):
    """Resolves a bare-identifier argument to its lambda declaration."""
    name = arg.strip()
    if not re.match(r"^[A-Za-z_]\w*$", name):
        return None
    pat = re.compile(
        r"\b(?:auto|Callback|EventQueue\s*::\s*Callback)\s+%s\s*=\s*\["
        % re.escape(name))
    best = None
    for m in pat.finditer(clean, func_span[0], sink_offset):
        best = m
    if best is None:
        return None
    cap_open = best.end() - 1
    cap_close = find_matching_bracket(clean, cap_open)
    return (cap_open, cap_close)


@rule("L1", "no stack-lifetime or reallocation-unstable captures in pooled "
      "event callbacks", lambda rel: True)
def check_l1(sf, ctx):
    del ctx
    clean = sf.clean
    sinks = find_sink_calls(clean)
    inits = []
    for m in _CALLBACK_INIT_RE.finditer(clean):
        semi = clean.find(";", m.end())
        semi = len(clean) if semi == -1 else semi
        inits.append(("InlineFunction", m.start(), m.end() - 1, semi))
    model = None
    seen = set()
    for name, start, open_o, close_o in sinks + inits:
        lambdas = find_lambda_literals(clean, open_o + 1, close_o)
        if not lambdas and name in ("ScheduleAt", "ScheduleAfter", "Push"):
            if model is None:
                model = _ScopeModel(sf)
            func_span = model.function_span(start)
            if func_span is not None:
                args = split_top_level(clean[open_o + 1:close_o])
                if args:
                    resolved = _named_callable_lambda(
                        clean, func_span, args[-1], start)
                    if resolved is not None:
                        lambdas = [(resolved[0], resolved[1], resolved[0])]
        if not lambdas:
            continue
        if model is None:
            model = _ScopeModel(sf)
        for cap_open, cap_close, _ in lambdas:
            key = (cap_open, start)
            if key in seen:
                continue
            seen.add(key)
            for f in _analyze_lambda(sf, model, cap_open, cap_close, start, name):
                yield f
