#!/usr/bin/env python3
"""Fail if a lambda in DvcManager, the LSC or CoCheck coordinator or the
image manager captures by reference, or if one shares state through a
weak_ptr or a make_shared.

    python3 tools/lint_dvc_continuations.py [FILE...]
                                    (default: src/core/dvc_manager.cpp)

A DvcManager callback that outlives its call carries its VC's id and the
issuing coordinator epoch (DvcManager::Issued) and resolves them when it
runs; it never holds a reference to a VcRuntime, a VirtualCluster or a
guest, which destroy_vc may have freed by then. An LscCoordinator event
likewise carries its operation's id and round (LscCoordinator::OpRef) and
resolves them in the coordinator's table, which abort() empties, a
CocheckCoordinator event carries its round's id, and a
storage::ImageManager copy or staging read carries its slot or id. So
does every other layer that keeps its in-flight records in a
sim::IdTable: a store read, a pool transfer, a hypervisor stage and a
guest timer carry `(this, id)`. ci.sh runs it on src/core/dvc_manager.cpp,
src/ckpt/lsc.cpp, src/ckpt/cocheck.cpp, src/storage/image_manager.cpp,
src/storage/shared_store.cpp, src/storage/bandwidth_pool.cpp,
src/vm/hypervisor.cpp and src/vm/guest_timers.cpp. This lint reads
every lambda capture list in the given files and flags each capture that
is by reference: a bare `&` default or an `&name` (or `&name = expr`) item.
Capturing a pointer by value (`p = &x`) is not a by-reference capture.

Nor does an operation keep its state alive through shared ownership: a
member join's counter or flag, or a continuation that holds itself, lives
in the owner's sim::IdTable (DvcManager::Op, LscCoordinator::Op,
CocheckCoordinator::Round, ImageManager::Staging), and the events carry
the id. So the lint also flags every `std::weak_ptr` and every
`std::make_shared` in the given files, except the one in
`adopt_checkpoint`: a recovery point's snapshot vector, which a retained
generation holds and a restore in flight shares.

It prints each finding as file:line and exits 1 if there is one.
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
SHARED = re.compile(r"\bstd::(weak_ptr|make_shared)\b")
# The function whose body may call std::make_shared.
SNAPSHOT_OWNER = re.compile(r"\badopt_checkpoint\s*\(")


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


def body_of(code, name_re):
    """(begin, end) offsets of the body of the function `name_re` names,
    or None if the code defines no such function."""
    for m in name_re.finditer(code):
        close = matching(code, m.end() - 1, "(", ")")
        if close < 0:
            continue
        rest = code[close + 1:]
        brace = close + 1 + len(rest) - len(rest.lstrip())
        if code.startswith("{", brace):
            return brace, matching(code, brace, "{", "}")
    return None


def shared_state(path, code):
    found = []
    allowed = body_of(code, SNAPSHOT_OWNER)
    for m in SHARED.finditer(code):
        if (m.group(1) == "make_shared" and allowed is not None
                and allowed[0] < m.start() < allowed[1]):
            continue
        line = code.count("\n", 0, m.start()) + 1
        found.append(f"{path}:{line}: `std::{m.group(1)}` shares an "
                     "operation's state; keep it in the id-keyed operation "
                     "table and carry the id instead")
    return found


def main(argv):
    bad = []
    for path in argv[1:] or DEFAULT:
        with open(path, encoding="utf-8") as f:
            code = code_only(f.read())
        bad += by_reference(path, code) + shared_state(path, code)
    for line in bad:
        print(line, file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
