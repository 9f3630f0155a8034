"""Source-file model: raw text, comment-stripped text, derived facts.

Everything downstream (token rules, the capture analyzer, the fixers) works
on byte offsets into the original file, so stripping replaces characters with
spaces instead of deleting them -- every match position maps 1:1 onto the
bytes on disk.
"""

import re


def strip_comments_and_strings(text):
    """Blanks out comments, string and char literals, preserving offsets.

    Keeps newlines so byte offsets and line numbers stay valid. Replacing with
    spaces (not deleting) means every regex match position maps 1:1 onto the
    original file.
    """
    out = list(text)
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            for k in range(i, j):
                out[k] = " "
            i = j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n - 2 if j == -1 else j
            for k in range(i, j + 2):
                if out[k] != "\n":
                    out[k] = " "
            i = j + 2
        elif c == '"' or c == "'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                if text[j] == "\\":
                    j += 1
                j += 1
            for k in range(i + 1, min(j, n)):
                if out[k] != "\n":
                    out[k] = " "
            i = j + 1
        else:
            i = i + 1
    return "".join(out)


_ALLOW_RE = re.compile(r"mstk-lint:\s*allow\(([^)]*)\)")
_INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"]+)"', re.MULTILINE)


class SourceFile:
    """One file: raw text, comment-stripped text, and derived facts."""

    def __init__(self, path, rel, text):
        self.path = path          # filesystem path
        self.rel = rel            # root-relative, '/'-separated (report key)
        self.text = text
        self.clean = strip_comments_and_strings(text)
        # Byte offset of the start of each line, for offset->line:col mapping.
        self.line_starts = [0]
        for m in re.finditer(r"\n", text):
            self.line_starts.append(m.end())
        self.includes = _INCLUDE_RE.findall(text)
        # allow_comments: [(lineno, frozenset(rules), offset)] in file order;
        # rule W1 uses them to detect suppressions that suppress nothing.
        self.allow_comments = []
        self.suppressions = self._parse_suppressions()
        self.unordered_idents = None  # filled lazily by rule D2
        self._brace_spans = None      # filled lazily by the capture analyzer

    def _parse_suppressions(self):
        """Maps 1-based line number -> set of rule ids allowed there."""
        allowed = {}
        offset = 0
        for lineno, raw in enumerate(self.text.split("\n"), start=1):
            m = _ALLOW_RE.search(raw)
            if m:
                rules = {r.strip() for r in m.group(1).split(",") if r.strip()}
                self.allow_comments.append(
                    (lineno, frozenset(rules), offset + m.start()))
                allowed.setdefault(lineno, set()).update(rules)
                # A comment-only line covers the next line of code.
                before = raw[: raw.find("//")] if "//" in raw else raw
                if before.strip() == "":
                    allowed.setdefault(lineno + 1, set()).update(rules)
            offset += len(raw) + 1
        return allowed

    def line_col(self, offset):
        """1-based (line, col) for a byte offset."""
        lo, hi = 0, len(self.line_starts) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if self.line_starts[mid] <= offset:
                lo = mid
            else:
                hi = mid - 1
        return lo + 1, offset - self.line_starts[lo] + 1

    def suppressed(self, rule_id, lineno):
        return rule_id in self.suppressions.get(lineno, set())

    def suppressing_lines(self, rule_id, lineno):
        """allow-comment line numbers whose allow(rule_id) covers `lineno`."""
        out = []
        for allow_line, rules, _ in self.allow_comments:
            if rule_id not in rules:
                continue
            if allow_line == lineno or allow_line == lineno - 1:
                if self.suppressed(rule_id, lineno):
                    out.append(allow_line)
        return out

    def brace_spans(self):
        """All {...} spans as (open_offset, close_offset) pairs, lazily."""
        if self._brace_spans is None:
            spans = []
            stack = []
            for i, c in enumerate(self.clean):
                if c == "{":
                    stack.append(i)
                elif c == "}" and stack:
                    spans.append((stack.pop(), i))
            self._brace_spans = sorted(spans)
        return self._brace_spans

    def enclosing_spans(self, offset):
        """Brace spans containing `offset`, outermost first."""
        out = [s for s in self.brace_spans() if s[0] < offset < s[1]]
        out.sort(key=lambda s: s[0])
        return out


class Finding:
    def __init__(self, rule, sf, offset, message):
        self.rule = rule
        self.path = sf.rel
        self.offset = offset
        self.line, self.col = sf.line_col(offset)
        self.message = message

    def key(self):
        return (self.path, self.line, self.col, self.rule)

    def as_dict(self):
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }


def match_angle(text, open_pos):
    """Returns the offset just past the '>' matching the '<' at open_pos."""
    depth = 0
    i = open_pos
    while i < len(text):
        c = text[i]
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return len(text)


def find_matching_paren(text, open_pos):
    depth = 0
    i = open_pos
    while i < len(text):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return i
        i += 1
    return len(text)


def find_matching_bracket(text, open_pos):
    depth = 0
    i = open_pos
    while i < len(text):
        if text[i] == "[":
            depth += 1
        elif text[i] == "]":
            depth -= 1
            if depth == 0:
                return i
        i += 1
    return len(text)


def top_level_colon(head):
    """Offset of the range-for ':' in `head`, or -1 (skips '::' and nesting)."""
    depth = 0
    i = 0
    while i < len(head):
        c = head[i]
        if c in "(<[{":
            depth += 1
        elif c in ")>]}":
            depth -= 1
        elif c == ":" and depth == 0:
            if i + 1 < len(head) and head[i + 1] == ":":
                i += 2
                continue
            if i > 0 and head[i - 1] == ":":
                i += 1
                continue
            return i
        i += 1
    return -1


def load_file(root, path):
    import os
    with open(path, "r", encoding="utf-8", errors="replace") as f:
        text = f.read()
    rel = os.path.relpath(os.path.abspath(path), root).replace(os.sep, "/")
    return SourceFile(path, rel, text)
