#!/usr/bin/env python3
"""Fail on a config field that no caller sets.

    python3 tools/lint_config_fields.py [ROOT]     (default: the repo root)

A field of a `*Config`, `*Options` or `*Policy` struct is an option: each
one doubles what tests and benches must cover. It exists only while some
caller sets it; a value that no caller changes is a model constant, and it
lives as a named `constexpr` beside its one use, with its calibration note.

This lint reads every such struct declared in a header under src/ and each
of its data members that has a default (`T f = v;` or `T f{v};`). It
flags a member that no file outside the declaring header assigns, where an
assignment is `.f =` or `->f =` (a designated initializer is the first
form), compound ones included. It searches src/, tools/, bench/, tests/,
examples/ and dvcbench/src/. Two kinds of member are exempt:

  * every field of a struct that some file brace-initialises positionally
    (`Name{a, b}` or `Name x{a, b}`), since such a caller sets the fields
    by position, not by name;
  * a member whose type is a struct or class declared under src/ (say
    `vm::Hypervisor::Config hv{}`): the fields inside it are what a caller
    sets, and they are checked where their own struct is declared.

Fields are matched by name, so a same-named field of another struct that
is assigned hides one that is not; the compiler is the final word when a
field is deleted.

It prints each finding as file:line and exits 1 if there is one.
"""

import os
import re
import sys

from lint_metric_names import code_only

SEARCHED = ["src", "tools", "bench", "tests", "examples",
            os.path.join("dvcbench", "src")]
SOURCE = (".hpp", ".cpp")
STRUCT = re.compile(
    r"\bstruct\s+(\w*(?:Config|Options|Policy))\s*(?:final\s*)?\{")
# A class or struct name declared anywhere under src/ (not an enum class).
CLASS = re.compile(
    r"(?<!enum )\b(?:struct|class)\s+(\w+)\s*(?:final\b|:|\{)")
# `T name = value;` or `T name{value};` at the struct's top level.
MEMBER = re.compile(
    r"^[ \t]*(?!\s|using\b|static\b|friend\b|return\b)"
    r"([\w:<>, ]+?[\w>*&])\s+(\w+)\s*(=\s*[^;]+|\{[^;]*\})\s*;", re.M)


def sources(root):
    for top in SEARCHED:
        for dirpath, _, files in os.walk(os.path.join(root, top)):
            for name in sorted(files):
                if name.endswith(SOURCE):
                    yield os.path.join(dirpath, name)


def matching(code, open_at):
    """Offset of the `}` that balances the `{` at code[open_at]."""
    depth = 0
    for i in range(open_at, len(code)):
        if code[i] == "{":
            depth += 1
        elif code[i] == "}":
            depth -= 1
            if depth == 0:
                return i
    return len(code)


def top_level(body):
    """`body` with every nested brace block blanked (newlines kept)."""
    out, depth = [], 0
    for c in body:
        if c == "}":
            depth -= 1
        out.append(c if depth == 0 or c == "\n" else " ")
        if c == "{":
            depth += 1
    return "".join(out)


def owner_chain(code, at):
    """The names of the classes and structs enclosing offset `at`."""
    chain = []
    for m in CLASS.finditer(code, 0, at):
        brace = code.find("{", m.end() - 1)
        if brace != -1 and brace < at and matching(code, brace) > at:
            chain.append(m.group(1))
    return chain


def main(argv):
    root = argv[1] if len(argv) > 1 else os.path.join(
        os.path.dirname(os.path.abspath(__file__)), os.pardir)
    code = {}
    for path in sources(root):
        with open(path, encoding="utf-8") as f:
            code[path] = code_only(f.read())
    classes = set()
    for path, text in code.items():
        if path.startswith(os.path.join(root, "src")):
            classes.update(m.group(1) for m in CLASS.finditer(text))

    findings = []
    for header, text in code.items():
        if not (header.startswith(os.path.join(root, "src"))
                and header.endswith(".hpp")):
            continue
        for s in STRUCT.finditer(text):
            name = s.group(1)
            open_at = s.end() - 1
            body = top_level(text[open_at + 1:matching(text, open_at)])
            # `Outer::Config{a, ...}` or `Config x{a, ...}`: positional.
            qualified = "::".join(owner_chain(text, s.start()) + [name])
            positional = re.compile(
                r"(?<!struct )\b" + re.escape(qualified)
                + r"(?:\s+\w+)?\s*\{\s*[^\s.}]")
            if any(positional.search(t) for t in code.values()):
                continue
            for m in MEMBER.finditer(body):
                type_name, field = m.group(1), m.group(2)
                if re.sub(r"[<*&].*", "", type_name).split("::")[-1].strip() \
                        in classes:
                    continue
                assign = re.compile(
                    r"(?:\.|->)\s*" + field + r"\s*[-+*/]?=(?!=)")
                if any(assign.search(t) for p, t in code.items()
                       if p != header):
                    continue
                line = text.count("\n", 0, open_at + 1 + m.start(2)) + 1
                findings.append("%s:%d: %s::%s is never set outside its "
                                "header; make it a named constant beside "
                                "its use" % (os.path.relpath(header, root),
                                             line, qualified, field))
    for f in findings:
        print(f)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
