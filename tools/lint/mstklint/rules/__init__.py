"""Rule registry.

Each rule module registers its checks with the @rule decorator. A rule is a
function (sf, ctx) -> iterable[Finding] plus a path scope; `post` rules (W1)
run after all others because they consume the raw findings of the first
pass.
"""

RULES = {}


class Rule:
    def __init__(self, rule_id, summary, check, scope, post=False):
        self.id = rule_id
        self.summary = summary
        self.check = check    # fn(sf, ctx) -> iterable[Finding]
        self.scope = scope    # fn(rel_path) -> bool; bypassed by --all-scopes
        self.post = post      # runs after the first pass (sees raw findings)


def rule(rule_id, summary, scope, post=False):
    def deco(fn):
        RULES[rule_id] = Rule(rule_id, summary, fn, scope, post)
        return fn
    return deco


def in_src(rel):
    return rel.startswith("src/")


def is_header(rel):
    return rel.endswith(".h")


# Importing the modules registers the rules. Order fixes registry insertion
# order only; reports sort by rule id regardless.
from . import determinism  # noqa: E402,F401
from . import units        # noqa: E402,F401
from . import nodiscard    # noqa: E402,F401
from . import capture      # noqa: E402,F401
from . import seeds        # noqa: E402,F401
from . import suppress     # noqa: E402,F401
