"""Incremental result cache for the lint and analysis CLIs.

Both CLIs re-run on every pre-commit invocation; almost always the
tree is unchanged since the last run.  This module memoizes findings
on disk under ``.cache/analysis/``, keyed by a digest of

* the tool name and a cache-format version salt,
* a digest of the checker's own sources (every ``*.py`` of the
  installed ``repro.lint`` and ``repro.analysis`` packages), so an
  edited rule never serves findings computed by its old code,
* the rule-selection spec (``--select``/``--ignore``),
* every analyzed file's display path and content hash.

Per-file rules (``repro.lint``) cache one entry per file, so editing
one module re-lints only that module.  The whole-program analysis
caches one entry for the whole tree — a single edited module can
change findings in *other* modules through the call graph, so
per-module reuse would be unsound; the tree key still makes the
no-change case (the common pre-commit path) near-instant.

All cache failures — unreadable entries, corrupt JSON, read-only
filesystems — degrade silently to re-running the analysis; the cache
can never change results, only skip work.  ``--no-cache`` bypasses it
entirely.
"""

from __future__ import annotations

import hashlib
import json
import os
from functools import lru_cache
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from repro.lint.rules import Finding

#: Bump when the cached payload layout changes.  Rule semantics need
#: no bump: :func:`checker_digest` covers the checker's code.
CACHE_VERSION = "1"

#: The packages whose sources decide what a cached entry contains.
_CHECKER_DIRS = (
    Path(__file__).resolve().parent,
    Path(__file__).resolve().parent.parent / "analysis",
)

#: Default on-disk location, relative to the working directory.
DEFAULT_CACHE_DIR = Path(".cache") / "analysis"


def content_digest(source: str) -> str:
    """Stable hash of one file's content."""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


@lru_cache(maxsize=1)
def checker_digest() -> str:
    """Stable hash of the installed ``repro.lint``/``repro.analysis`` code.

    Read once per process; an unreadable file hashes as its name only,
    which still changes the key if the file set changes.
    """
    hasher = hashlib.sha256()
    for directory in _CHECKER_DIRS:
        for path in sorted(directory.glob("*.py")):
            hasher.update(f"{directory.name}/{path.name}".encode("utf-8"))
            hasher.update(b"\x00")
            try:
                hasher.update(path.read_bytes())
            except OSError:
                pass
            hasher.update(b"\x01")
    return hasher.hexdigest()


class FindingsCache:
    """A keyed findings store under ``directory``.

    ``spec`` folds every result-affecting option (selected rule ids)
    and :func:`checker_digest` folds the checker's code into the key,
    so stale entries are simply never looked up; old files are
    harmless and small.
    """

    def __init__(self, directory: Path, tool: str, spec: str) -> None:
        self._directory = directory
        self._prefix = f"{tool}:{CACHE_VERSION}:{checker_digest()}:{spec}"

    def key(self, items: Sequence[Tuple[str, str]]) -> str:
        """Digest of the spec plus (display_path, content_hash) pairs."""
        hasher = hashlib.sha256(self._prefix.encode("utf-8"))
        for display, digest in items:
            hasher.update(b"\x00")
            hasher.update(display.encode("utf-8"))
            hasher.update(b"\x01")
            hasher.update(digest.encode("utf-8"))
        return hasher.hexdigest()

    def _path(self, key: str) -> Path:
        return self._directory / f"{key}.json"

    def load(self, key: str) -> Optional[List[Finding]]:
        """The cached findings for ``key``, or None on any failure."""
        try:
            payload = json.loads(self._path(key).read_text(encoding="utf-8"))
            return [
                Finding(
                    path=entry["path"],
                    line=int(entry["line"]),
                    col=int(entry["col"]),
                    rule_id=entry["rule"],
                    message=entry["message"],
                )
                for entry in payload["findings"]
            ]
        except (OSError, ValueError, KeyError, TypeError):
            return None

    def store(self, key: str, findings: Sequence[Finding]) -> None:
        """Persist ``findings`` under ``key``; failures are ignored."""
        payload = {
            "findings": [
                {
                    "path": f.path,
                    "line": f.line,
                    "col": f.col,
                    "rule": f.rule_id,
                    "message": f.message,
                }
                for f in findings
            ]
        }
        try:
            self._directory.mkdir(parents=True, exist_ok=True)
            tmp = self._path(key).with_suffix(".tmp")
            tmp.write_text(
                json.dumps(payload, indent=None, sort_keys=False),
                encoding="utf-8",
            )
            os.replace(tmp, self._path(key))
        except OSError:
            pass
