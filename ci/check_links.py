#!/usr/bin/env python3
"""Check that relative markdown links in the repo's docs resolve.

Scans README.md, CHANGES.md, ROADMAP.md and docs/**/*.md for inline
markdown links/images (``[text](target)``) and verifies that every
*relative* target exists on disk, anchors stripped. External links
(http/https/mailto) are skipped — the build environment has no network
and their liveness is not this gate's business. Bare intra-page anchors
(``#section``) are skipped too.

Exit status is non-zero iff at least one relative link is broken, with
one ``file:line: target`` diagnostic per offender, so CI wires it in as a
plain step.

Usage::

    python3 ci/check_links.py [repo-root]
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

# Inline links/images. Deliberately simple: no nested parens in targets
# (none of our docs use them), reference-style links are out of scope.
LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")

SKIP_SCHEMES = ("http://", "https://", "mailto:", "ftp://")


def md_files(root: Path) -> list[Path]:
    files = []
    for name in ("README.md", "CHANGES.md", "ROADMAP.md", "PAPER.md"):
        p = root / name
        if p.is_file():
            files.append(p)
    docs = root / "docs"
    if docs.is_dir():
        files.extend(sorted(docs.rglob("*.md")))
    return files


def in_code_fence(lines_before: list[str]) -> bool:
    """True if an odd number of ``` fences precede this line."""
    fences = sum(1 for ln in lines_before if ln.lstrip().startswith("```"))
    return fences % 2 == 1


def check_file(path: Path, root: Path) -> list[str]:
    errors = []
    lines = path.read_text(encoding="utf-8").splitlines()
    for i, line in enumerate(lines):
        if in_code_fence(lines[:i]):
            continue
        for m in LINK_RE.finditer(line):
            target = m.group(1)
            if target.startswith(SKIP_SCHEMES) or target.startswith("#"):
                continue
            rel = target.split("#", 1)[0]
            if not rel:
                continue
            base = root if rel.startswith("/") else path.parent
            resolved = (base / rel.lstrip("/")).resolve()
            if not resolved.exists():
                errors.append(f"{path.relative_to(root)}:{i + 1}: broken link {target!r}")
    return errors


def main(argv: list[str]) -> int:
    root = Path(argv[1]).resolve() if len(argv) > 1 else Path(__file__).resolve().parent.parent
    files = md_files(root)
    if not files:
        print(f"check_links: no markdown files found under {root}", file=sys.stderr)
        return 1
    errors = []
    checked = 0
    for path in files:
        errors.extend(check_file(path, root))
        checked += 1
    for e in errors:
        print(e, file=sys.stderr)
    if errors:
        print(f"check_links: {len(errors)} broken link(s) in {checked} file(s)", file=sys.stderr)
        return 1
    print(f"check_links: OK — all relative links in {checked} markdown file(s) resolve")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
