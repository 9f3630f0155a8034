"""Whole-program analysis context: the include graph.

Rules look at one file at a time, but D2 must know whether a file reaches a
serialization sink through its quoted includes, and which containers the
headers it includes declare. Context resolves each include against the repo
root or the including file's directory, loads headers on demand, and
memoizes every file's transitive include closure.
"""

import os

from .source import load_file

# Serialization sinks for rule D2: a TU that transitively includes one of
# these emits bytes whose order must not depend on hash-table layout.
D2_SINKS = (
    "src/sim/json_writer.h",
    "src/sim/trace_writer.h",
    "src/core/metrics.h",
)


class Context:
    def __init__(self, root, files):
        self.root = root
        self._by_rel = {sf.rel: sf for sf in files}
        self._inc_cache = {}

    def file_by_rel(self, rel):
        sf = self._by_rel.get(rel)
        if sf is not None:
            return sf
        path = os.path.join(self.root, rel)
        if os.path.isfile(path):
            sf = load_file(self.root, path)
            self._by_rel[rel] = sf
            return sf
        return None

    def _resolve_include(self, sf, inc):
        """Resolves a quoted include to a root-relative path, or None."""
        inc = inc.replace("\\", "/")
        if os.path.isfile(os.path.join(self.root, inc)):
            return inc
        local = os.path.normpath(os.path.join(os.path.dirname(sf.rel), inc))
        local = local.replace(os.sep, "/")
        if os.path.isfile(os.path.join(self.root, local)):
            return local
        return None

    def transitive_includes(self, sf):
        if sf.rel in self._inc_cache:
            return self._inc_cache[sf.rel]
        seen = set()
        self._inc_cache[sf.rel] = seen  # breaks include cycles
        stack = [sf]
        while stack:
            cur = stack.pop()
            for inc in cur.includes:
                rel = self._resolve_include(cur, inc)
                if rel is None or rel in seen:
                    continue
                seen.add(rel)
                nxt = self.file_by_rel(rel)
                if nxt is not None:
                    stack.append(nxt)
        return seen

    def first_sink(self, sf):
        """The first D2 sink `sf` is or includes, or None if it reaches none."""
        if sf.rel in D2_SINKS:
            return sf.rel
        inc = self.transitive_includes(sf)
        for sink in D2_SINKS:
            if sink in inc:
                return sink
        return None
