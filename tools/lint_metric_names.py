#!/usr/bin/env python3
"""Fail if a telemetry recording call builds its instrument name with `+`.

    python3 tools/lint_metric_names.py [DIR...]     (default: src)

Every telemetry::count / observe / gauge_* call under the given
directories must name its instrument with a string literal or a
telemetry::Handle, never with a string built at the call (`prefix +
".writes"`): that concatenation, and the map lookup behind the name-keyed
helpers, would run on every event. Build such names once, in a Handle.
Prints each offending call as file:line and exits 1 if there is one.
"""

import os
import re
import sys

CALL = re.compile(r"\btelemetry::(count|observe|gauge_\w+)\s*\(")


def code_only(text):
    """`text` with comments blanked and string/char literal contents
    replaced by spaces, so `+` and parentheses inside them do not count.
    Newlines are kept, so offsets still map to the same lines."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if text.startswith("//", i):
            while i < n and text[i] != "\n":
                out.append(" ")
                i += 1
        elif text.startswith("/*", i):
            end = text.find("*/", i + 2)
            end = n if end < 0 else end + 2
            out.append("".join("\n" if ch == "\n" else " "
                               for ch in text[i:end]))
            i = end
        # A ' right after a digit is a separator (1'000), not a literal.
        elif c == '"' or (c == "'" and not (i and text[i - 1].isalnum())):
            out.append(c)
            i += 1
            while i < n and text[i] != c:
                if text[i] == "\\":
                    out.append(" ")
                    i += 1
                out.append("\n" if text[i] == "\n" else " ")
                i += 1
            if i < n:
                out.append(c)
                i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def arguments(code, start):
    """Top-level arguments of the call whose '(' is at code[start - 1]."""
    args, depth, begin = [], 0, start
    for i in range(start, len(code)):
        ch = code[i]
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            if depth == 0:
                args.append(code[begin:i])
                return args
            depth -= 1
        elif ch == "," and depth == 0:
            args.append(code[begin:i])
            begin = i + 1
    return args


def check_file(path):
    with open(path, encoding="utf-8") as f:
        code = code_only(f.read())
    bad = []
    for m in CALL.finditer(code):
        args = arguments(code, m.end())
        if len(args) >= 2 and "+" in args[1]:
            line = code.count("\n", 0, m.start()) + 1
            bad.append(f"{path}:{line}: telemetry::{m.group(1)} builds its "
                       "instrument name with '+'; use a telemetry::Handle")
    return bad


def main(argv):
    roots = argv[1:] or ["src"]
    bad = []
    for root in roots:
        for dirpath, _, files in os.walk(root):
            for name in sorted(files):
                if name.endswith((".cpp", ".hpp", ".h", ".cc")):
                    bad += check_file(os.path.join(dirpath, name))
    for line in bad:
        print(line, file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
