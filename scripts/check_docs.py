#!/usr/bin/env python3
"""Documentation checker for the CI docs job.

Links: scans the given markdown files (default: README.md and
docs/*.md) for relative links and fails when a target file or directory
does not exist. Absolute URLs (http/https/mailto) are ignored;
intra-file anchors ("#section") are ignored; "path#anchor" links are
checked for the path part only.

Knob inventory: every GC_* variable that src/ or bench/ reads through
support/env.h (getEnvString, getEnvInt, parseEnvInt) must appear in
docs/TUNING.md, and every "### `GC_...`" section heading there must
name a variable something reads.

Usage:
  python3 scripts/check_docs.py [file.md ...]
"""

import glob
import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TUNING = os.path.join("docs", "TUNING.md")

# [text](target) — stops at the first closing paren, good enough for the
# plain relative links these docs use.
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
# Fenced code blocks must not contribute false links.
FENCE_RE = re.compile(r"^(```|~~~)")


def check_file(path):
    errors = []
    in_fence = False
    root = os.path.dirname(os.path.abspath(path))
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            if FENCE_RE.match(line.strip()):
                in_fence = not in_fence
                continue
            if in_fence:
                continue
            for target in LINK_RE.findall(line):
                if target.startswith(("http://", "https://", "mailto:")):
                    continue
                if target.startswith("#"):
                    continue  # intra-file anchor
                rel = target.split("#", 1)[0]
                if not rel:
                    continue
                resolved = os.path.normpath(os.path.join(root, rel))
                if not os.path.exists(resolved):
                    errors.append(f"{path}:{lineno}: dead link '{target}' "
                                  f"(resolved to {resolved})")
    return errors


# getEnvInt("GC_THREADS", ...): the literal may follow the paren on the
# next line, so this runs over whole files.
ENV_READ_RE = re.compile(
    r"\b(?:getEnvString|getEnvInt|parseEnvInt)\(\s*\"(GC_[A-Z0-9_]+)\"")
KNOB_HEADING_RE = re.compile(r"^###\s+`(GC_[A-Z0-9_]+)`")
KNOB_NAME_RE = re.compile(r"\bGC_[A-Z0-9_]+\b")


def read_knobs():
    """Maps each GC_* name src/ and bench/ read to its first read site."""
    knobs = {}
    for top in ("src", "bench"):
        pattern = os.path.join(ROOT, top, "**", "*")
        for path in sorted(glob.glob(pattern, recursive=True)):
            if not path.endswith((".h", ".cpp")):
                continue
            with open(path, encoding="utf-8") as f:
                text = f.read()
            for m in ENV_READ_RE.finditer(text):
                line = text.count("\n", 0, m.start()) + 1
                rel = os.path.relpath(path, ROOT)
                knobs.setdefault(m.group(1), f"{rel}:{line}")
    return knobs


def check_knobs():
    knobs = read_knobs()
    with open(os.path.join(ROOT, TUNING), encoding="utf-8") as f:
        lines = f.read().splitlines()
    documented = set()
    for line in lines:
        documented.update(KNOB_NAME_RE.findall(line))
    errors = [f"{where}: {name} is read but not documented in {TUNING}"
              for name, where in sorted(knobs.items())
              if name not in documented]
    for lineno, line in enumerate(lines, 1):
        m = KNOB_HEADING_RE.match(line)
        if m and m.group(1) not in knobs:
            errors.append(f"{TUNING}:{lineno}: section {m.group(1)} names "
                          f"a variable nothing in src/ or bench/ reads")
    return errors, len(knobs)


def main():
    files = sys.argv[1:]
    if not files:
        files = ["README.md"] + sorted(glob.glob("docs/*.md"))
    missing = [f for f in files if not os.path.exists(f)]
    if missing:
        for f in missing:
            print(f"missing doc file: {f}", file=sys.stderr)
        return 1
    all_errors = []
    for f in files:
        all_errors.extend(check_file(f))
    knob_errors, num_knobs = check_knobs()
    for e in all_errors + knob_errors:
        print(e, file=sys.stderr)
    if all_errors or knob_errors:
        print(f"FAIL: {len(all_errors)} dead link(s) in {len(files)} "
              f"file(s), {len(knob_errors)} knob inventory error(s)",
              file=sys.stderr)
        return 1
    print(f"ok: {len(files)} file(s), no dead relative links; "
          f"{num_knobs} GC_* knobs, all documented in {TUNING}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
