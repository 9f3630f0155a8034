"""D1: no nondeterminism sources in src/.
D2: no unordered-container iteration in serialization-reaching TUs.
"""

import re

from . import rule
from ..source import Finding, find_matching_paren, match_angle, top_level_colon

_D1_PATTERNS = [
    (re.compile(r"\bstd\s*::\s*random_device\b"),
     "std::random_device is nondeterministic; seed mstk::Rng explicitly"),
    (re.compile(r"(?<![\w:])s?rand\s*\("),
     "rand()/srand() draw from hidden global state; use mstk::Rng"),
    (re.compile(r"\b(?:system_clock|steady_clock|high_resolution_clock)\b"),
     "wall/monotonic clocks leak host time into the simulation; use virtual "
     "time (Simulator::now_ms)"),
    (re.compile(r"(?<![\w:.])time\s*\(\s*(?:NULL|nullptr|0)?\s*\)"),
     "time() reads the host clock; results must not depend on when they run"),
    (re.compile(r"\b(?:gettimeofday|clock_gettime|timespec_get)\b"),
     "host clock syscalls are nondeterministic; use virtual time"),
    (re.compile(r"(?<![\w:.])clock\s*\(\s*\)"),
     "clock() reads host CPU time; use virtual time"),
    (re.compile(r"\bthis_thread\s*::\s*get_id\b|\bpthread_self\b"),
     "thread ids vary run-to-run; results must not depend on which worker "
     "executes a trial"),
]


@rule("D1", "no nondeterminism sources in src/", lambda rel: rel.startswith("src/"))
def check_d1(sf, ctx):
    del ctx
    for pat, msg in _D1_PATTERNS:
        for m in pat.finditer(sf.clean):
            yield Finding("D1", sf, m.start(), msg)


_UNORDERED_DECL_RE = re.compile(
    r"\b(?:std\s*::\s*)?unordered_(?:map|set|multimap|multiset)\s*<")
_UNORDERED_ALIAS_RE = re.compile(
    r"\busing\s+([A-Za-z_]\w*)\s*=\s*(?:std\s*::\s*)?unordered_(?:map|set|multimap|multiset)\s*<")
# Declarator after a container type: skips ref/pointer markers, so both
# `unordered_map<K,V> m;` and `const unordered_set<T>& live` bind the name.
_IDENT_RE = re.compile(r"[\s*&]*(?:const\s+)?([A-Za-z_]\w*)")


def unordered_idents(sf):
    """Identifiers declared with an unordered container type in this file."""
    if sf.unordered_idents is not None:
        return sf.unordered_idents
    idents = set()
    aliases = set(m.group(1) for m in _UNORDERED_ALIAS_RE.finditer(sf.clean))
    for m in _UNORDERED_DECL_RE.finditer(sf.clean):
        end = match_angle(sf.clean, m.end() - 1)
        im = _IDENT_RE.match(sf.clean, end)
        if im:
            name = im.group(1)
            if name not in ("const",):
                idents.add(name)
    for alias in aliases:
        for m in re.finditer(r"\b%s\s+([A-Za-z_]\w*)\s*[;,={(]" % re.escape(alias), sf.clean):
            idents.add(m.group(1))
    sf.unordered_idents = idents
    return idents


@rule("D2", "no unordered-container iteration in serialization-reaching TUs",
      lambda rel: True)
def check_d2(sf, ctx):
    sink = ctx.first_sink(sf)
    if sink is None:
        return
    # Identifiers visible to this TU: its own plus those of transitively
    # included repo headers (members declared in a .h, iterated in the .cc).
    idents = set(unordered_idents(sf))
    for inc in ctx.transitive_includes(sf):
        inc_sf = ctx.file_by_rel(inc)
        if inc_sf is not None:
            idents |= unordered_idents(inc_sf)

    msg = ("iteration order over unordered containers is unspecified and "
           "varies across libstdc++/libc++; this TU reaches serialization "
           "(%s) so the bytes it emits must not depend on it -- iterate a "
           "sorted copy or an ordered container instead")

    # Range-for whose range expression names an unordered container.
    for m in re.finditer(r"\bfor\s*\(", sf.clean):
        close = find_matching_paren(sf.clean, m.end() - 1)
        head = sf.clean[m.end():close]
        colon = top_level_colon(head)
        if colon == -1:
            continue
        range_expr = head[colon + 1:]
        names = set(re.findall(r"[A-Za-z_]\w*", range_expr))
        if "unordered_map" in range_expr or "unordered_set" in range_expr or (names & idents):
            yield Finding("D2", sf, m.start(), msg % sink)

    # Explicit iterator walks: x.begin() / x->begin() on an unordered ident.
    # begin() alone marks iteration; matching end() too would double-count
    # loops and flag harmless `it == m.end()` lookup checks after find().
    for m in re.finditer(r"\b([A-Za-z_]\w*)\s*(?:\.|->)\s*c?begin\s*\(", sf.clean):
        if m.group(1) in idents:
            yield Finding("D2", sf, m.start(), msg % sink)
