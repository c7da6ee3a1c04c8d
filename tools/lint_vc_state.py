#!/usr/bin/env python3
"""Fail if a virtual cluster's lifecycle state is written outside
DvcManager::transition.

    python3 tools/lint_vc_state.py [DIR...]     (default: src)

VirtualCluster::state_ changes only through DvcManager::transition, which
publishes each edge to the invariant checker (`vc-state-legal`). This
lint counts every assignment to it under the given directories:
  - `x.state_ = ...` or `x->state_ = ...` anywhere (VirtualCluster's is
    the only state_ reached through member access);
  - a bare `state_ = ...` inside src/core/virtual_cluster.{hpp,cpp}.
It prints each one outside transition's body as file:line and exits 1 if
there is one, or if transition itself does not hold exactly one.
"""

import os
import re
import sys

from lint_metric_names import code_only

MEMBER_WRITE = re.compile(r"(?:\.|->)\s*state_\s*=(?!=)")
BARE_WRITE = re.compile(r"(?<![\w.>])state_\s*=(?!=)")
DECLARATION = re.compile(r"\bVcState\s+$")
TRANSITION = re.compile(r"\bDvcManager::transition\s*\(")
VC_FILES = ("virtual_cluster.hpp", "virtual_cluster.cpp")


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
    return len(code)


def transition_body(code):
    """(start, end) offsets of DvcManager::transition's body, if this
    file defines it."""
    m = TRANSITION.search(code)
    if m is None:
        return None
    brace = code.find("{", matching(code, m.end() - 1, "(", ")"))
    return None if brace < 0 else (brace, matching(code, brace, "{", "}"))


def writes(path, code):
    found = [m.start() for m in MEMBER_WRITE.finditer(code)]
    if os.path.basename(path) in VC_FILES:
        found += [m.start() for m in BARE_WRITE.finditer(code)
                  if not DECLARATION.search(code[:m.start()])]
    return found


def main(argv):
    roots = argv[1:] or ["src"]
    bad, in_transition = [], 0
    for root in roots:
        for dirpath, _, files in os.walk(root):
            for name in sorted(files):
                if not name.endswith((".cpp", ".hpp", ".h", ".cc")):
                    continue
                path = os.path.join(dirpath, name)
                with open(path, encoding="utf-8") as f:
                    code = code_only(f.read())
                body = transition_body(code)
                for at in writes(path, code):
                    if body is not None and body[0] < at < body[1]:
                        in_transition += 1
                        continue
                    line = code.count("\n", 0, at) + 1
                    bad.append(f"{path}:{line}: VirtualCluster state "
                               "written outside DvcManager::transition")
    for line in bad:
        print(line, file=sys.stderr)
    if in_transition != 1:
        print(f"DvcManager::transition holds {in_transition} state writes "
              "(expected exactly 1)", file=sys.stderr)
    return 1 if bad or in_transition != 1 else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
