"""S1: seed discipline.

Byte-identical trial JSON at any --jobs works because every RNG stream in a
trial is a pure function of (base_seed, trial_index): TrialRunner derives
per-trial seeds with a SplitMix64 finalizer and modules split sub-streams
from the seed they were handed. Anything that breaks that chain breaks
reproducibility silently:

  - a literal seed in src/ pins a module to one stream regardless of the
    trial (tests may pin seeds; simulator code must not);
  - a static / thread_local / global Rng is shared across TrialRunner
    workers, so results depend on the OS schedule;
  - constructing or reseeding an Rng inside an event callback re-enters the
    seeding path at a schedule-dependent time;
  - a default-constructed function-local Rng uses the hidden default seed
    (a literal in disguise).

The rule's contract is reachability: every Rng construction in src/ must be
fed, directly or through members/parameters, from the SplitMix64-derived
per-trial path. Constructions from a non-literal expression are assumed
reachable (the expression traces back to a seed parameter); the checks below
flag exactly the constructions that cannot be. The derivation itself
(DeriveTrialSeed) is pinned: if its SplitMix64 constants change, S1 reports
it, because every downstream stream silently changes with it.
"""

import re

from . import in_src, rule
from ..source import Finding, find_matching_bracket
from .capture import find_lambda_literals, find_sink_calls, _ScopeModel

_INT_LIT = r"(?:0[xX][0-9a-fA-F']+|\d[\d']*)[uUlL']*"

# Rng constructed with a literal seed: `Rng r(42)`, `Rng(0xBEEF)`, `= Rng{1}`.
_LITERAL_SEED_RE = re.compile(
    r"\bRng\b(?:\s+[A-Za-z_]\w*)?\s*[({]\s*(%s)\s*[)}]" % _INT_LIT)

_SHARED_RE = re.compile(
    r"\b(?:static|thread_local)\s+(?:const\s+)?(?:mstk\s*::\s*)?Rng\b")

_DEFAULT_LOCAL_RE = re.compile(r"\bRng\s+([A-Za-z_]\w*)\s*;")

_CTOR_IN_CALLBACK_RE = re.compile(r"\bRng\b\s*(?:[A-Za-z_]\w*\s*)?[({]")

_DERIVE_FILE = "src/core/trial_runner.cc"
_SPLITMIX_CONSTANTS = ("0xbf58476d1ce4e5b9", "0x94d049bb133111eb")


def _s1_scope(rel):
    if not in_src(rel):
        return False
    # The generator defines the default seed and the splitmix mixer itself.
    return rel not in ("src/sim/rng.h", "src/sim/rng.cc")


@rule("S1", "every RNG in src/ must be seeded from the SplitMix64-derived "
      "per-trial path", _s1_scope)
def check_s1(sf, ctx):
    del ctx
    clean = sf.clean

    for m in _LITERAL_SEED_RE.finditer(clean):
        yield Finding(
            "S1", sf, m.start(),
            "Rng constructed with literal seed %s: simulator code must be "
            "seeded from the per-trial SplitMix64 derivation "
            "(DeriveTrialSeed), not pinned to one stream -- pass the seed "
            "down from the trial callback" % m.group(1))

    for m in _SHARED_RE.finditer(clean):
        yield Finding(
            "S1", sf, m.start(),
            "static/thread_local Rng is shared across TrialRunner workers: "
            "draws then depend on the OS schedule and --jobs changes the "
            "results; give each trial its own generator")

    # Default-constructed function-local Rng: the hidden default seed is a
    # literal. Class members declared bare are initialized in constructors
    # and are not flagged here.
    model = None
    for m in _DEFAULT_LOCAL_RE.finditer(clean):
        if model is None:
            model = _ScopeModel(sf)
        if model.function_span(m.start()) is not None:
            yield Finding(
                "S1", sf, m.start(),
                "default-constructed Rng `%s` uses the hidden default seed "
                "(a literal in disguise); construct it from a seed derived "
                "off the per-trial path" % m.group(1))

    # Rng construction inside a scheduled event callback: reseeding at a
    # schedule-dependent point re-enters the seeding path mid-run.
    for name, start, open_o, close_o in find_sink_calls(clean):
        for cap_open, _, _ in find_lambda_literals(clean, open_o + 1, close_o):
            body_open = clean.find("{", find_matching_bracket(clean, cap_open))
            if body_open == -1 or body_open > close_o:
                continue
            body_close = _matching_brace(clean, body_open)
            for cm in _CTOR_IN_CALLBACK_RE.finditer(clean, body_open, body_close):
                yield Finding(
                    "S1", sf, cm.start(),
                    "Rng constructed inside an event callback scheduled via "
                    "%s: reseeding mid-run makes draws depend on event "
                    "order; construct the generator up front and capture "
                    "stable state" % name)

    # The derivation itself is load-bearing: if the SplitMix64 finalizer
    # constants disappear from DeriveTrialSeed, every per-trial stream
    # changes and S1's reachability premise is void.
    if sf.rel == _DERIVE_FILE and "DeriveTrialSeed" in clean:
        lowered = clean.lower()
        if not all(c in lowered for c in _SPLITMIX_CONSTANTS):
            yield Finding(
                "S1", sf, clean.find("DeriveTrialSeed"),
                "DeriveTrialSeed no longer uses the SplitMix64 finalizer "
                "constants; the per-trial seed path S1 assumes has changed "
                "-- update the derivation comment, fixtures, and this rule "
                "together if that is intentional")


def _matching_brace(text, open_pos):
    depth = 0
    i = open_pos
    while i < len(text):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return i
        i += 1
    return len(text)
