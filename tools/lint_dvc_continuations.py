#!/usr/bin/env python3
"""Fail if a lambda in DvcManager or the LSC coordinator captures by reference.

    python3 tools/lint_dvc_continuations.py [FILE...]
                                    (default: src/core/dvc_manager.cpp)

A DvcManager callback that outlives its call carries its VC's id and the
issuing coordinator epoch (DvcManager::Issued) and resolves them when it
runs; it never holds a reference to a VcRuntime, a VirtualCluster or a
guest, which destroy_vc may have freed by then. An LscCoordinator event
likewise carries its operation's id and round (LscCoordinator::OpRef) and
resolves them in the coordinator's table, which abort() empties. ci.sh
runs it on src/core/dvc_manager.cpp and src/ckpt/lsc.cpp. This lint reads
every lambda capture list in the given files and flags each capture that
is by reference: a bare `&` default or an `&name` (or `&name = expr`) item.
Capturing a pointer by value (`p = &x`) is not a by-reference capture.
It prints each one as file:line and exits 1 if there is one.
"""

import re
import sys

from lint_metric_names import code_only

DEFAULT = ["src/core/dvc_manager.cpp"]
# Keywords after which `[` opens a lambda rather than a subscript.
KEYWORDS = {"return", "co_return", "co_yield", "throw", "case", "else",
            "do"}
# What may follow a lambda's capture list.
AFTER = re.compile(r"\s*(?:[({<]|->|mutable\b|constexpr\b|noexcept\b)")
WORD_BEFORE = re.compile(r"(\w+)\s*$")


def matching(code, open_at, opener, closer):
    """Offset of the `closer` that balances the `opener` at code[open_at]."""
    depth = 0
    for i in range(open_at, len(code)):
        if code[i] == opener:
            depth += 1
        elif code[i] == closer:
            depth -= 1
            if depth == 0:
                return i
    return -1


def opens_lambda(code, at):
    """Whether the `[` at code[at] introduces a lambda."""
    if code.startswith("[[", at) or (at and code[at - 1] == "["):
        return False  # an attribute
    before = code[:at].rstrip()
    if not before:
        return True
    if before[-1] in ")]":
        return False  # a subscript of a call or element
    word = WORD_BEFORE.search(before)
    if word is not None:
        return word.group(1) in KEYWORDS  # else a subscript or operator[]
    return True


def captures(text):
    """The top-level comma-separated items of a capture list."""
    items, depth, begin = [], 0, 0
    for i, c in enumerate(text):
        if c in "([{<":
            depth += 1
        elif c in ")]}>":
            depth -= 1
        elif c == "," and depth == 0:
            items.append(text[begin:i])
            begin = i + 1
    items.append(text[begin:])
    return [item.strip() for item in items if item.strip()]


def by_reference(path, code):
    found = []
    for at in (i for i, c in enumerate(code) if c == "["):
        if not opens_lambda(code, at):
            continue
        close = matching(code, at, "[", "]")
        if close < 0 or not AFTER.match(code, close + 1):
            continue
        for item in captures(code[at + 1:close]):
            if item.startswith("&"):
                line = code.count("\n", 0, at) + 1
                found.append(f"{path}:{line}: lambda captures `{item}` by "
                             "reference; capture an id (DvcManager::Issued, "
                             "LscCoordinator::OpRef) and resolve it instead")
    return found


def main(argv):
    bad = []
    for path in argv[1:] or DEFAULT:
        with open(path, encoding="utf-8") as f:
            bad += by_reference(path, code_only(f.read()))
    for line in bad:
        print(line, file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
